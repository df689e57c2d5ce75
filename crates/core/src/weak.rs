//! Weak reference-counted pointer types: [`WeakPtr`], [`AtomicWeakPtr`] and
//! [`WeakSnapshotPtr`] (§4 of the paper).
//!
//! Weak pointers hold a reference to a managed object without contributing
//! to its strong count, so cycles broken by a weak edge are collected
//! automatically. The machinery differs from the strong-only setting in two
//! ways (§4.4):
//!
//! * upgrades must use *increment-if-not-zero* (the sticky counter), because
//!   the strong count may legitimately be zero;
//! * destruction of the managed object (*disposal*) is itself deferred
//!   through a third acquire-retire instance, so a [`WeakSnapshotPtr`]
//!   remains safely readable even if the object expires during its
//!   lifetime.
//!
//! The mutation surface mirrors [`AtomicSharedPtr`](crate::AtomicSharedPtr)
//! through the same private engine: witness-returning
//! [`compare_exchange`](AtomicWeakPtr::compare_exchange) (plus `_weak` and
//! owned-desired variants) and the [`swap`](AtomicWeakPtr::swap) /
//! [`take`](AtomicWeakPtr::take) RMW family, with displaced weak references
//! handed back as owned [`WeakPtr`]s whose drop defers the decrement. The
//! one asymmetry: there is no `compare_exchange_with` returning a protected
//! weak snapshot — a weak failure witness is a [`TaggedPtr`] comparison
//! token, because minting a dereferenceable [`WeakSnapshotPtr`] requires
//! the full expiry-checking protocol of
//! [`get_snapshot`](AtomicWeakPtr::get_snapshot).
//!
//! Domain binding mirrors the strong types: a [`WeakPtr`] is a single word
//! whose domain lives in the control-block header; an [`AtomicWeakPtr`]
//! carries its domain's address beside its word because it must open
//! critical sections before reading the word (a passive reference, counted
//! on a per-thread lane — see the pin rule in `domain.rs`), and its
//! install-family operations panic on cross-domain pointers.

use crate::sync::atomic::{AtomicUsize, Ordering};
use std::fmt;
use std::marker::PhantomData;

use smr::untagged;
use sticky::Counter;

use crate::cas::CompareExchangeErr;
use crate::counted::{self, as_header, PtrMarker};
use crate::domain::{check_same_domain, domain_of, DomainRef, Scheme, StrongRef, WeakCsGuard};
use crate::engine::{Held, Hold, RcWord, WeakKind, DISPLACED};
use crate::strong::SharedPtr;
use crate::tagged::TaggedPtr;

/// An owned weak reference to a `T` managed by a reclamation domain of
/// scheme `S`.
///
/// A `WeakPtr` keeps the *control block* alive but not the object: once the
/// strong count reaches zero the object is destroyed regardless of weak
/// references. Access requires [`upgrade`](WeakPtr::upgrade).
///
/// # Examples
///
/// ```
/// use cdrc::{SharedPtr, EbrScheme};
///
/// let strong: SharedPtr<i32, EbrScheme> = SharedPtr::new(3);
/// let weak = strong.downgrade();
/// assert_eq!(weak.upgrade().and_then(|p| p.as_ref().copied()), Some(3));
/// ```
pub struct WeakPtr<T, S: Scheme> {
    /// Untagged block address, except that the engine's displaced-class bit
    /// may be set on pointers whose drop must defer (see
    /// [`AtomicWeakPtr::swap`]).
    addr: usize,
    _marker: PtrMarker<T, S>,
}

unsafe impl<T: Send + Sync, S: Scheme> Send for WeakPtr<T, S> {}
unsafe impl<T: Send + Sync, S: Scheme> Sync for WeakPtr<T, S> {}

impl<T, S: Scheme> WeakPtr<T, S> {
    /// The null weak pointer.
    pub fn null() -> Self {
        WeakPtr {
            addr: 0,
            _marker: PhantomData,
        }
    }

    pub(crate) fn from_addr(addr: usize) -> Self {
        debug_assert_eq!(addr & smr::TAG_MASK, 0);
        WeakPtr {
            addr,
            _marker: PhantomData,
        }
    }

    /// Adopts one *displaced-class* weak reference (was location-owned; its
    /// drop defers the decrement — a reader may still be mid-increment).
    pub(crate) fn from_displaced(addr: usize) -> Self {
        debug_assert_eq!(addr & smr::TAG_MASK, 0);
        WeakPtr {
            addr: if addr == 0 { 0 } else { addr | DISPLACED },
            _marker: PhantomData,
        }
    }

    /// The untagged block address, flag bits stripped.
    #[inline]
    fn block(&self) -> usize {
        self.addr & !DISPLACED
    }

    pub(crate) fn into_addr(self) -> usize {
        let addr = self.block();
        std::mem::forget(self);
        addr
    }

    /// Takes the raw word (block address plus the displaced-class bit) out
    /// of this pointer, leaving it null — the edge-collection path of
    /// immediate recursive destruction.
    pub(crate) fn extract_word(&mut self) -> usize {
        std::mem::replace(&mut self.addr, 0)
    }

    /// Creates a weak reference from any strong borrow.
    #[inline(always)]
    pub fn from_strong<R: StrongRef<T>>(r: &R) -> Self {
        let addr = r.addr();
        if addr != 0 {
            // Safety: `r` keeps the object (hence control block) alive.
            unsafe { counted::weak_increment(addr) };
        }
        WeakPtr::from_addr(addr)
    }

    /// Whether this is the null weak pointer.
    pub fn is_null(&self) -> bool {
        self.block() == 0
    }

    /// Whether the managed object has been destroyed (strong count zero).
    /// Null pointers report `true`.
    #[cfg_attr(feature = "sanitize", track_caller)]
    pub fn expired(&self) -> bool {
        let block = self.block();
        if block == 0 {
            return true;
        }
        smr::sanitize::check_header(block);
        // Safety: our weak reference keeps the control block alive.
        unsafe { counted::expired(block) }
    }

    /// Attempts to obtain a strong reference; `None` if the object has
    /// expired. Wait-free thanks to the sticky counter's constant-time
    /// increment-if-not-zero (§4.3).
    #[cfg_attr(feature = "sanitize", track_caller)]
    pub fn upgrade(&self) -> Option<SharedPtr<T, S>> {
        let block = self.block();
        if block == 0 {
            return None;
        }
        smr::sanitize::check_header(block);
        // Safety: the control block is alive; increment-if-not-zero never
        // resurrects a dead object.
        if unsafe { counted::increment(block) } {
            Some(SharedPtr::from_addr(block))
        } else {
            None
        }
    }

    /// Whether two weak pointers reference the same object.
    pub fn ptr_eq(&self, other: &Self) -> bool {
        self.block() == other.block()
    }
}

impl<T, S: Scheme> Clone for WeakPtr<T, S> {
    fn clone(&self) -> Self {
        let block = self.block();
        if block != 0 {
            // Safety: our own weak reference keeps the block alive.
            unsafe { counted::weak_increment(block) };
        }
        WeakPtr::from_addr(block)
    }
}

impl<T, S: Scheme> Drop for WeakPtr<T, S> {
    fn drop(&mut self) {
        let block = self.block();
        if block != 0 {
            // Safety: we own one weak reference and forfeit it. Domain code
            // runs under the thread's pin (see `SharedPtr::drop`), because
            // the block freed here may have been keeping the domain alive.
            unsafe {
                if self.addr & DISPLACED != 0 {
                    // Displaced-class: was location-owned when handed out;
                    // defer exactly as the location's retire would have
                    // (batched, like every displaced decrement).
                    let d = domain_of::<S>(block).as_ref();
                    let t = smr::current_tid();
                    let _pin = d.pin_thread(t);
                    d.batch_weak_decrement(t, block);
                } else if (*as_header(block)).weak.decrement() {
                    // At zero the block is ours alone to free, and until
                    // `free_block` counts it freed it keeps the domain.
                    let d = domain_of::<S>(block).as_ref();
                    let t = smr::current_tid();
                    let _pin = d.pin_thread(t);
                    d.free_block(t, block);
                }
            }
        }
    }
}

impl<T, S: Scheme> Default for WeakPtr<T, S> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T, S: Scheme> fmt::Debug for WeakPtr<T, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WeakPtr")
            .field("addr", &format_args!("{:#x}", self.block()))
            .field("expired", &self.expired())
            .finish()
    }
}

/// A mutable shared location holding a weak reference plus tag bits —
/// analogous to `atomic<weak_ptr>` (§4.1) — bound to one reclamation domain
/// of scheme `S`.
///
/// Every operation must run inside a *full* critical section
/// ([`WeakCsGuard`]) over this location's domain; operations invoked
/// without one open it internally.
///
/// # Examples
///
/// ```
/// use cdrc::{AtomicWeakPtr, SharedPtr, EbrScheme, Scheme};
/// use smr::Ebr;
///
/// let strong: SharedPtr<i32, EbrScheme> = SharedPtr::new(1);
/// let slot: AtomicWeakPtr<i32, EbrScheme> = AtomicWeakPtr::null();
/// slot.store(&strong.downgrade());
/// assert_eq!(slot.load().upgrade().and_then(|p| p.as_ref().copied()), Some(1));
/// ```
pub struct AtomicWeakPtr<T, S: Scheme> {
    inner: RcWord<S, WeakKind>,
    _marker: PtrMarker<T, S>,
}

unsafe impl<T: Send + Sync, S: Scheme> Send for AtomicWeakPtr<T, S> {}
unsafe impl<T: Send + Sync, S: Scheme> Sync for AtomicWeakPtr<T, S> {}

impl<T, S: Scheme> AtomicWeakPtr<T, S> {
    /// Creates a location holding `ptr` (tag 0), consuming its reference.
    /// The location binds to the pointer's own domain (or the global domain
    /// for a null pointer).
    pub fn new(ptr: WeakPtr<T, S>) -> Self {
        let domain = match ptr.block() {
            0 => S::global_domain().as_raw(),
            // Safety: `ptr` owns a weak reference, so the block is alive.
            addr => unsafe { domain_of::<S>(addr) },
        };
        AtomicWeakPtr {
            inner: RcWord::new_owned(ptr.into_addr(), domain),
            _marker: PhantomData,
        }
    }

    /// Creates a null location bound to the scheme's global domain.
    pub fn null() -> Self {
        Self::null_in(S::global_domain())
    }

    /// Creates a null location bound to an explicit domain.
    pub fn null_in(domain: &DomainRef<S>) -> Self {
        AtomicWeakPtr {
            inner: RcWord::new_owned(0, domain.as_raw()),
            _marker: PhantomData,
        }
    }

    /// The domain this location is bound to, as a handle borrowed from the
    /// location (clone it for an owning one).
    pub fn domain(&self) -> &DomainRef<S> {
        self.inner.domain()
    }

    /// An unprotected read of the raw word, for comparisons only.
    #[inline]
    pub fn load_tagged(&self) -> TaggedPtr<T> {
        TaggedPtr::from_word(self.inner.load_raw())
    }

    /// Stores a copy of `desired` (Fig. 9 `store`): increments its weak
    /// count, swaps it in, and retires the previous weak reference.
    ///
    /// # Panics
    ///
    /// Panics if `desired` is non-null and from a different domain.
    pub fn store(&self, desired: &WeakPtr<T, S>) {
        let addr = desired.block();
        check_same_domain(addr, self.inner.domain());
        if addr != 0 {
            // Safety: `desired` keeps the control block alive.
            unsafe { counted::weak_increment(addr) };
        }
        self.inner.store_owned(addr);
    }

    /// Stores a weak reference to the object behind any strong borrow —
    /// e.g. `node.prev.store_strong(&tail_snapshot)` as in the paper's
    /// doubly-linked queue (Fig. 10).
    ///
    /// # Panics
    ///
    /// Panics if `r` is non-null and from a different domain.
    #[inline(always)]
    pub fn store_strong<R: StrongRef<T>>(&self, r: &R) {
        let addr = r.addr();
        check_same_domain(addr, self.inner.domain());
        if addr != 0 {
            // Safety: the strong borrow keeps the object alive.
            unsafe { counted::weak_increment(addr) };
        }
        self.inner.store_owned(addr);
    }

    /// Stores `desired`, transferring its reference (no count traffic).
    ///
    /// # Panics
    ///
    /// Panics if `desired` is non-null and from a different domain.
    pub fn store_owned(&self, desired: WeakPtr<T, S>) {
        self.inner.store_owned(desired.into_addr());
    }

    /// Atomically replaces the occupant with `desired` (tag 0), returning
    /// the displaced weak pointer as owned — no count traffic in either
    /// direction. The displaced tag bits are discarded; use
    /// [`swap_tagged`](Self::swap_tagged) to observe them.
    ///
    /// # Panics
    ///
    /// Panics if `desired` is non-null and from a different domain.
    pub fn swap(&self, desired: WeakPtr<T, S>) -> WeakPtr<T, S> {
        self.swap_tagged(desired, 0).0
    }

    /// As [`swap`](Self::swap) with explicit new tag bits; returns the
    /// displaced pointer together with the tag bits it was stored under.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `new_tag` exceeds [`smr::TAG_MASK`], and
    /// (always) if `desired` is from a different domain.
    pub fn swap_tagged(&self, desired: WeakPtr<T, S>, new_tag: usize) -> (WeakPtr<T, S>, usize) {
        debug_assert_eq!(new_tag & !smr::TAG_MASK, 0);
        let old = self.inner.swap_owned(desired.into_addr() | new_tag);
        (WeakPtr::from_displaced(untagged(old)), old & smr::TAG_MASK)
    }

    /// Swap-with-null: empties the location and returns the displaced weak
    /// pointer (take semantics).
    pub fn take(&self) -> WeakPtr<T, S> {
        self.swap(WeakPtr::null())
    }

    /// Loads the pointer and takes a weak reference to it (tag ignored) —
    /// Fig. 8's `weak_load_and_increment`.
    pub fn load(&self) -> WeakPtr<T, S> {
        WeakPtr::from_addr(self.inner.load_owning())
    }

    /// Atomically replaces the word if it equals `expected`, installing a
    /// weak reference to `desired` with tag `new_tag`; `desired` itself is
    /// only borrowed.
    ///
    /// On success returns the **displaced** weak pointer as owned; on
    /// failure returns the **witnessed** current word (a comparison token —
    /// see the module docs above for why the weak side has no
    /// snapshot-witness variant). Spurious failure does not occur.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `new_tag` exceeds [`smr::TAG_MASK`], and
    /// (always) if `desired` is non-null and from a different domain.
    pub fn compare_exchange_tagged(
        &self,
        expected: TaggedPtr<T>,
        desired: &WeakPtr<T, S>,
        new_tag: usize,
    ) -> Result<WeakPtr<T, S>, TaggedPtr<T>> {
        // Safety: `desired` owns a weak reference, keeping the block alive
        // for the pre-increment.
        unsafe {
            self.inner
                .cas_borrowed(expected.word(), desired.block(), new_tag, false)
        }
        .map(|old| WeakPtr::from_displaced(untagged(old)))
        .map_err(TaggedPtr::from_word)
    }

    /// As [`compare_exchange_tagged`](Self::compare_exchange_tagged) with
    /// tag 0.
    pub fn compare_exchange(
        &self,
        expected: TaggedPtr<T>,
        desired: &WeakPtr<T, S>,
    ) -> Result<WeakPtr<T, S>, TaggedPtr<T>> {
        self.compare_exchange_tagged(expected, desired, 0)
    }

    /// As [`compare_exchange`](Self::compare_exchange), but may fail
    /// spuriously (the witness then equals `expected`).
    pub fn compare_exchange_weak(
        &self,
        expected: TaggedPtr<T>,
        desired: &WeakPtr<T, S>,
    ) -> Result<WeakPtr<T, S>, TaggedPtr<T>> {
        // Safety: as in `compare_exchange_tagged`.
        unsafe {
            self.inner
                .cas_borrowed(expected.word(), desired.block(), 0, true)
        }
        .map(|old| WeakPtr::from_displaced(untagged(old)))
        .map_err(TaggedPtr::from_word)
    }

    /// By-value compare-exchange: on success the **moved** `desired`
    /// installs with no count traffic; on failure the error hands both the
    /// witness and `desired` back.
    ///
    /// # Panics
    ///
    /// Panics if `desired` is non-null and from a different domain.
    pub fn compare_exchange_owned(
        &self,
        expected: TaggedPtr<T>,
        desired: WeakPtr<T, S>,
    ) -> Result<WeakPtr<T, S>, CompareExchangeErr<WeakPtr<T, S>, T>> {
        match self
            .inner
            .cas_owned(expected.word(), desired.block(), false)
        {
            Ok(old) => {
                std::mem::forget(desired);
                Ok(WeakPtr::from_displaced(untagged(old)))
            }
            Err(w) => Err(CompareExchangeErr {
                current: TaggedPtr::from_word(w),
                desired,
            }),
        }
    }

    /// Takes the raw word out of a dead location (`&mut` access), leaving
    /// it null; ownership of the displaced reference transfers to the
    /// caller. Edge-collection path of immediate recursive destruction.
    pub(crate) fn extract_word(&mut self) -> usize {
        self.inner.take_word()
    }

    /// Takes a protected snapshot of the managed object without touching
    /// any count in the common case (Fig. 9's `get_snapshot`). The guard
    /// must cover **this location's domain** (asserted in debug builds).
    ///
    /// Returns a null snapshot iff, at the linearization point, the
    /// location was null or held an expired object. Lock-free (the retry
    /// resolves races between expiry and replacement, §4.5).
    #[inline]
    pub fn get_snapshot<'g>(&self, cs: &'g WeakCsGuard<S>) -> WeakSnapshotPtr<'g, T, S> {
        debug_assert!(
            cs.covers(self.inner.domain()),
            "guard from a different reclamation domain used on this location"
        );
        let d = cs.domain();
        let t = cs.tid();
        loop {
            // Protect the control block from weak reclamation while we
            // inspect it.
            let (w, weak_guard) = d.weak_ar.acquire(t, self.inner.word());
            let addr = untagged(w);
            if addr == 0 {
                d.weak_ar.release(t, weak_guard);
                return WeakSnapshotPtr::null(cs);
            }
            // Protect the object from disposal: acquire on a stack location
            // holding the (stable) address. `None` = expired.
            let local = AtomicUsize::new(addr);
            let hold = match d.dispose_ar.try_acquire(t, &local) {
                // Safety: control block alive under weak_guard.
                Some((_, g)) if unsafe { !counted::expired(addr) } => Some(Hold::of::<S>(g)),
                Some((_, g)) => {
                    d.dispose_ar.release(t, g);
                    None
                }
                // Safety: as above.
                None => unsafe { own_if_alive(addr) },
            };
            d.weak_ar.release(t, weak_guard);
            if let Some(hold) = hold {
                return WeakSnapshotPtr {
                    inner: Held::new(w, hold, cs.as_cs()),
                    _marker: PhantomData,
                };
            }
            // Expired. Only report null if the location still holds this
            // object — otherwise the count may have belonged to a previous
            // occupant and we must retry for linearizability (§4.5).
            // Ordering: Acquire — the nullity decision linearizes here: we
            // may only report "expired ⇒ null" if the location *still*
            // holds the expired occupant, so this re-validation must not be
            // satisfied by a value older than the expiry we just observed
            // (§4.5). The value itself is never dereferenced.
            if self.inner.word().load(Ordering::Acquire) == w {
                return WeakSnapshotPtr::null(cs);
            }
        }
    }
}

/// Slow arm of [`AtomicWeakPtr::get_snapshot`], out of dispose guards (HP
/// only): take a real strong reference if the object is still alive.
///
/// # Safety
///
/// The control block at `addr` is alive (the caller holds a weak guard).
#[cold]
#[inline(never)]
unsafe fn own_if_alive<G>(addr: usize) -> Option<Hold<G>> {
    counted::increment(addr).then_some(Hold::Owned)
}

impl<T, S: Scheme> Default for AtomicWeakPtr<T, S> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T, S: Scheme> fmt::Debug for AtomicWeakPtr<T, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AtomicWeakPtr")
            .field("tagged", &self.load_tagged())
            .finish()
    }
}

/// A protected view of an [`AtomicWeakPtr`]'s pointee (§4.1).
///
/// Unlike a strong [`SnapshotPtr`](crate::SnapshotPtr), the object may
/// *expire* (strong count → 0) during the snapshot's lifetime, but its
/// memory remains safely readable until the snapshot drops: disposal is
/// deferred through the dispose instance this snapshot holds protection on.
///
/// Split like [`SnapshotPtr`](crate::SnapshotPtr) and bound by the same
/// no-escape invariant: accessors and the drop of a snapshot that holds
/// nothing are `#[inline(always)]`; the out-of-guards arm and giving a
/// guard or reference back work on the word by value, so no
/// `&WeakSnapshotPtr` reaches a function that is not inlined.
pub struct WeakSnapshotPtr<'g, T, S: Scheme> {
    /// A guard held here is on the dispose instance.
    inner: Held<'g, S, true>,
    _marker: PhantomData<Box<T>>,
}

impl<'g, T, S: Scheme> WeakSnapshotPtr<'g, T, S> {
    /// A null weak snapshot.
    #[inline(always)]
    pub fn null(cs: &'g WeakCsGuard<S>) -> Self {
        WeakSnapshotPtr {
            inner: Held::new(0, Hold::Section, cs.as_cs()),
            _marker: PhantomData,
        }
    }

    /// The word as loaded, including tag bits.
    #[inline(always)]
    pub fn tagged(&self) -> TaggedPtr<T> {
        TaggedPtr::from_word(self.inner.word)
    }

    /// Whether the snapshot observed null (or an expired object).
    #[inline(always)]
    pub fn is_null(&self) -> bool {
        untagged(self.inner.word) == 0
    }

    /// Borrows the managed value, or `None` for null. Reading is safe even
    /// if the object has since expired — that is the point of the deferred
    /// dispose instance.
    #[inline(always)]
    #[cfg_attr(feature = "sanitize", track_caller)]
    pub fn as_ref(&self) -> Option<&T> {
        // Safety: snapshots of a `T` location name `T` blocks; disposal is
        // blocked by our guard (or we own a strong reference).
        unsafe { self.inner.payload() }
    }

    /// Whether the object has expired since the snapshot was taken.
    #[inline(always)]
    pub fn expired(&self) -> bool {
        let addr = untagged(self.inner.word);
        // Safety: snapshot protection keeps the control block alive.
        addr == 0 || unsafe { counted::expired(addr) }
    }

    /// Attempts to promote to an owned strong reference; fails if the
    /// object expired after the snapshot was taken.
    #[inline(always)]
    pub fn try_promote(&self) -> Option<SharedPtr<T, S>> {
        let addr = untagged(self.inner.word);
        // Safety: control block alive under snapshot protection.
        (addr != 0 && unsafe { counted::increment(addr) }).then(|| SharedPtr::from_addr(addr))
    }

    /// Creates an owned weak reference to the snapshotted object.
    #[inline(always)]
    pub fn to_weak(&self) -> WeakPtr<T, S> {
        let addr = untagged(self.inner.word);
        if addr != 0 {
            // Safety: control block alive under snapshot protection.
            unsafe { counted::weak_increment(addr) };
        }
        WeakPtr::from_addr(addr)
    }

    /// Whether this snapshot took the guard (count-free) path.
    #[inline(always)]
    pub fn used_fast_path(&self) -> bool {
        self.inner.count_free()
    }
}

impl<T: fmt::Debug, S: Scheme> fmt::Debug for WeakSnapshotPtr<'_, T, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.as_ref() {
            Some(v) => f.debug_tuple("WeakSnapshotPtr").field(v).finish(),
            None => f.write_str("WeakSnapshotPtr(null)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::AtomicUsize as Std;
    use smr::Ebr;
    use std::sync::Arc;

    type Sp<T> = SharedPtr<T, Ebr>;
    type Awp<T> = AtomicWeakPtr<T, Ebr>;

    fn settle() {
        Ebr::global_domain().process_deferred(smr::current_tid());
    }

    struct Probe(Arc<Std>);
    impl Drop for Probe {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn upgrade_succeeds_while_alive_fails_after() {
        let strong: Sp<u32> = SharedPtr::new(11);
        let weak = strong.downgrade();
        assert!(!weak.expired());
        assert_eq!(weak.upgrade().unwrap().as_ref(), Some(&11));
        drop(strong);
        settle();
        assert!(weak.expired());
        assert!(weak.upgrade().is_none());
        drop(weak);
        settle();
    }

    #[test]
    fn weak_does_not_keep_object_alive_but_keeps_block() {
        let drops = Arc::new(Std::new(0));
        let strong: Sp<Probe> = SharedPtr::new(Probe(Arc::clone(&drops)));
        let weak = strong.downgrade();
        drop(strong);
        settle();
        assert_eq!(drops.load(Ordering::SeqCst), 1, "object destroyed");
        // Control block still usable through the weak pointer.
        assert!(weak.expired());
        assert!(weak.upgrade().is_none());
        drop(weak);
        settle();
    }

    #[test]
    fn weak_ptr_in_instance_domain_balances() {
        let d: DomainRef<Ebr> = DomainRef::new();
        let t = smr::current_tid();
        let strong: Sp<u32> = SharedPtr::new_in(5, &d);
        let weak = strong.downgrade();
        drop(strong);
        d.process_deferred(t);
        assert!(weak.expired());
        drop(weak); // frees the block through the header-resolved domain
        d.process_deferred(t);
        assert_eq!(d.allocated(), 1);
        assert_eq!(d.freed(), 1);
    }

    #[test]
    fn cycle_with_weak_back_edge_is_collected() {
        struct Node {
            _name: &'static str,
            next: std::cell::RefCell<Sp<Node>>,
            prev: std::cell::RefCell<WeakPtr<Node, Ebr>>,
            probe: Probe,
        }
        // RefCell: single-threaded construction only.
        unsafe impl Send for Node {}
        unsafe impl Sync for Node {}

        let drops = Arc::new(Std::new(0));
        {
            let a: Sp<Node> = SharedPtr::new(Node {
                _name: "a",
                next: std::cell::RefCell::new(SharedPtr::null()),
                prev: std::cell::RefCell::new(WeakPtr::null()),
                probe: Probe(Arc::clone(&drops)),
            });
            let b: Sp<Node> = SharedPtr::new(Node {
                _name: "b",
                next: std::cell::RefCell::new(SharedPtr::null()),
                prev: std::cell::RefCell::new(WeakPtr::null()),
                probe: Probe(Arc::clone(&drops)),
            });
            // a.next = b (strong); b.prev = a (weak): no strong cycle.
            *a.as_ref().unwrap().next.borrow_mut() = b.clone();
            *b.as_ref().unwrap().prev.borrow_mut() = a.downgrade();
            let _ = &a.as_ref().unwrap().probe;
        }
        settle();
        assert_eq!(drops.load(Ordering::SeqCst), 2, "both nodes collected");
    }

    #[test]
    fn atomic_weak_store_load_roundtrip() {
        let strong: Sp<u32> = SharedPtr::new(5);
        let slot: Awp<u32> = AtomicWeakPtr::null();
        assert!(slot.load().is_null());
        slot.store(&strong.downgrade());
        let w = slot.load();
        assert_eq!(w.upgrade().unwrap().as_ref(), Some(&5));
        slot.store_owned(WeakPtr::null());
        assert!(slot.load().is_null());
        drop((strong, w, slot));
        settle();
    }

    #[test]
    fn atomic_weak_compare_exchange_witnesses() {
        let a: Sp<u32> = SharedPtr::new(1);
        let b: Sp<u32> = SharedPtr::new(2);
        let wa = a.downgrade();
        let wb = b.downgrade();
        let slot: Awp<u32> = AtomicWeakPtr::new(wa.clone());
        let cur = slot.load_tagged();
        let displaced = slot.compare_exchange(cur, &wb).expect("CAS succeeds");
        assert!(displaced.ptr_eq(&wa), "displaced is the old occupant");
        drop(displaced);
        let w = slot.compare_exchange(cur, &wa).expect_err("stale expected");
        assert_eq!(w.addr(), wb.block(), "witness names the new occupant");
        assert_eq!(slot.load().upgrade().unwrap().as_ref(), Some(&2));
        drop((a, b, wa, wb, slot));
        settle();
    }

    #[test]
    fn atomic_weak_swap_take_and_owned_cas() {
        let a: Sp<u32> = SharedPtr::new(1);
        let b: Sp<u32> = SharedPtr::new(2);
        let slot: Awp<u32> = AtomicWeakPtr::new(a.downgrade());
        let displaced = slot.swap(b.downgrade());
        assert!(!displaced.expired());
        assert_eq!(displaced.upgrade().unwrap().as_ref(), Some(&1));
        drop(displaced);
        // Owned CAS with stale expected hands desired back.
        let wa = a.downgrade();
        let err = slot
            .compare_exchange_owned(TaggedPtr::null(), wa)
            .expect_err("stale expected");
        assert_eq!(
            err.current,
            slot.load_tagged(),
            "witness names the occupant"
        );
        let wa = err.desired;
        // Owned CAS with the witness succeeds without count traffic.
        let displaced = slot
            .compare_exchange_owned(err.current, wa)
            .expect("witness-seeded retry");
        assert_eq!(displaced.upgrade().unwrap().as_ref(), Some(&2));
        drop(displaced);
        let taken = slot.take();
        assert!(!taken.is_null());
        assert!(slot.load_tagged().is_null());
        drop(taken);
        drop((a, b, slot));
        settle();
    }

    #[test]
    fn weak_snapshot_reads_live_object_without_count_traffic() {
        let strong: Sp<u32> = SharedPtr::new(9);
        let slot: Awp<u32> = AtomicWeakPtr::null();
        slot.store(&strong.downgrade());
        {
            let cs = Ebr::global_domain().weak_cs();
            let snap = slot.get_snapshot(&cs);
            assert!(!snap.is_null());
            assert!(snap.used_fast_path(), "EBR never falls back");
            assert_eq!(snap.as_ref(), Some(&9));
            assert_eq!(strong.strong_count(), 1, "snapshot touched no count");
            assert!(!snap.expired());
            let promoted = snap.try_promote().unwrap();
            assert_eq!(promoted.as_ref(), Some(&9));
        }
        drop((strong, slot));
        settle();
    }

    #[test]
    fn weak_snapshot_of_expired_object_is_null() {
        let strong: Sp<u32> = SharedPtr::new(3);
        let slot: Awp<u32> = AtomicWeakPtr::null();
        slot.store(&strong.downgrade());
        drop(strong);
        settle();
        let cs = Ebr::global_domain().weak_cs();
        let snap = slot.get_snapshot(&cs);
        assert!(snap.is_null(), "expired object yields null snapshot");
        drop(snap);
        drop(cs);
        drop(slot);
        settle();
    }

    #[test]
    fn weak_snapshot_survives_concurrent_expiry() {
        // Take a snapshot, then drop the last strong reference while the
        // snapshot is alive: reads must remain valid; expiry must be
        // observable; promote must fail. On a private domain: the exact
        // drop count after one `process_deferred` below holds only if no
        // other thread has a section open, and sibling tests hold sections
        // on the global domain.
        let d: DomainRef<Ebr> = DomainRef::new();
        let settle = || d.process_deferred(smr::current_tid());
        let drops = Arc::new(Std::new(0));
        let strong: Sp<Probe> = SharedPtr::new_in(Probe(Arc::clone(&drops)), &d);
        let slot: Awp<Probe> = AtomicWeakPtr::null_in(&d);
        slot.store(&strong.downgrade());
        {
            let cs = d.weak_cs();
            let snap = slot.get_snapshot(&cs);
            assert!(!snap.is_null());
            drop(strong);
            // Object cannot be destroyed while the snapshot lives.
            assert_eq!(drops.load(Ordering::SeqCst), 0);
            assert!(snap.as_ref().is_some(), "still readable after expiry");
            assert!(snap.expired());
            assert!(snap.try_promote().is_none());
        }
        settle();
        assert_eq!(drops.load(Ordering::SeqCst), 1, "destroyed after snapshot");
        drop(slot);
        settle();
    }

    #[test]
    fn concurrent_upgrade_vs_drop_races() {
        for _ in 0..30 {
            let strong: Sp<u64> = SharedPtr::new(77);
            let weak = strong.downgrade();
            let upgrader = {
                let weak = weak.clone();
                std::thread::spawn(move || {
                    let mut got = 0u32;
                    for _ in 0..100 {
                        if let Some(p) = weak.upgrade() {
                            assert_eq!(p.as_ref(), Some(&77));
                            got += 1;
                        }
                    }
                    got
                })
            };
            drop(strong);
            let _ = upgrader.join().unwrap();
            assert!(weak.upgrade().is_none() || !weak.expired());
        }
        settle();
    }
}
