//! Strong reference-counted pointer types: [`SharedPtr`],
//! [`AtomicSharedPtr`] and [`SnapshotPtr`] (§3.4 of the paper).
//!
//! The division of labour mirrors the CDRC C++ library:
//!
//! * [`SharedPtr`] — an owned strong reference, like `Arc` but collected
//!   through the domain's deferred machinery; safe to send between threads.
//! * [`AtomicSharedPtr`] — a mutable shared location holding a strong
//!   reference (plus low-order tag bits), supporting load / store / swap /
//!   compare-exchange under arbitrary races.
//! * [`SnapshotPtr`] — a short-lived protected view obtained from an
//!   [`AtomicSharedPtr`] **without touching the reference count** in the
//!   common case (Fig. 5): the fast path protects the pointer with
//!   `try_acquire`; only when the scheme runs out of protection resources
//!   does it fall back to an increment. Snapshots are confined to a
//!   critical section ([`CsGuard`]) and to their creating thread.
//!
//! # Mutation: witnesses and displaced values
//!
//! The mutation surface is *witness-returning*, shaped like
//! [`std::sync::atomic`] and CIRC's `AtomicRc`: every compare-exchange
//! returns `Result<displaced, witness>` — on success the **displaced**
//! occupant comes back as an owned [`SharedPtr`] (drop it, inspect it, or
//! reinstall it elsewhere), on failure the **witnessed** current word comes
//! back so retry loops never pay a second protected load. The
//! guard-threaded [`compare_exchange_with`](AtomicSharedPtr::compare_exchange_with)
//! variants return the failure witness as a protected [`SnapshotPtr`] that
//! can be dereferenced immediately. [`swap`](AtomicSharedPtr::swap) /
//! [`take`](AtomicSharedPtr::take) round out the RMW family.
//!
//! Handing the displaced value out is free: the returned pointer remembers
//! (in a private bit) that it was location-owned, so its drop defers the
//! decrement through the domain exactly as the location's retire would have
//! — concurrent readers mid-`load` stay safe, and the caller pays no count
//! round-trip. The word-level protocol shared with the weak types lives in
//! the private `engine` module.
//!
//! # Domains
//!
//! Every pointer is bound to one reclamation [`Domain`](crate::Domain) at
//! creation: the `_in` constructors take an explicit [`DomainRef`], the
//! plain constructors default to [`Scheme::global_domain`]. A `SharedPtr`
//! stays a single word — its domain is recorded in the control-block header
//! (and the block, a passive reference, keeps the domain alive for as long
//! as it exists). An `AtomicSharedPtr` carries its domain's address beside
//! its word — two words in all — because operations must know which domain
//! to open a critical section on *before* reading the word; the location is
//! a passive reference too, counted on a per-thread lane rather than on the
//! domain's shared liveness word (see the pin rule in `domain.rs`).
//! Mixing domains is a logic error: the install-family operations panic if
//! the pointer being installed was allocated under a different domain, and
//! snapshot operations assert (debug builds) that the supplied guard covers
//! this location's domain.

use crate::sync::atomic::AtomicUsize;
use std::fmt;
use std::marker::PhantomData;

use smr::untagged;
use sticky::Counter;

use crate::cas::CompareExchangeErr;
use crate::counted::{self, as_counted, as_header, PtrMarker};
use crate::domain::{check_same_domain, domain_of, CsGuard, DomainRef, OpGuard, Scheme, StrongRef};
use crate::engine::{Held, Hold, RcWord, StrongKind, DISPLACED};
use crate::tagged::TaggedPtr;
use crate::weak::WeakPtr;

/// An owned strong reference to a `T` managed by a reclamation domain of
/// scheme `S` ([`Scheme::global_domain`] unless created with
/// [`new_in`](SharedPtr::new_in)).
///
/// Dropping a `SharedPtr` decrements the strong count *directly* (the
/// reference is caller-owned, so the decrement cannot race with a protected
/// increment — see DESIGN.md); destruction of the object itself is always
/// deferred through the dispose instance of the block's own domain, which
/// the pointer resolves from the control-block header — a `SharedPtr` is a
/// single word regardless of which domain manages it.
///
/// The exception is a pointer obtained as the *displaced* result of a
/// [`swap`](AtomicSharedPtr::swap) or successful compare-exchange: that
/// reference was location-owned when it was handed out, so its drop defers
/// the decrement through the domain (as the location's retire would have) —
/// invisible to the caller beyond being exactly as cheap as the old
/// retire-internally behaviour.
///
/// # Examples
///
/// ```
/// use cdrc::{SharedPtr, EbrScheme};
///
/// let p: SharedPtr<String, EbrScheme> = SharedPtr::new("hello".to_string());
/// let q = p.clone();
/// assert_eq!(q.as_ref().map(String::as_str), Some("hello"));
/// ```
pub struct SharedPtr<T, S: Scheme> {
    /// Untagged block address, except that [`DISPLACED`] may be set on
    /// pointers whose drop must defer (see the module docs).
    addr: usize,
    _marker: PtrMarker<T, S>,
}

// Safety: like `Arc` — a SharedPtr hands out `&T` and can be dropped from
// any thread, so both bounds require `T: Send + Sync`.
unsafe impl<T: Send + Sync, S: Scheme> Send for SharedPtr<T, S> {}
unsafe impl<T: Send + Sync, S: Scheme> Sync for SharedPtr<T, S> {}

impl<T, S: Scheme> SharedPtr<T, S> {
    /// Allocates a new managed object holding `value` (strong count 1)
    /// under the scheme's global domain.
    pub fn new(value: T) -> Self {
        Self::new_in(value, S::global_domain())
    }

    /// Allocates a new managed object holding `value` (strong count 1)
    /// under an explicit domain.
    pub fn new_in(value: T, domain: &DomainRef<S>) -> Self {
        let t = smr::current_tid();
        let ptr = domain.allocate(t, value);
        SharedPtr {
            addr: ptr as usize,
            _marker: PhantomData,
        }
    }

    /// As [`new`](Self::new), for payloads that enumerate their outgoing
    /// edges ([`GraphNode`](crate::GraphNode)): when the object's strong
    /// count reaches zero with no weak observers, the whole reachable
    /// zero-count subgraph is destructed immediately instead of one
    /// deferral round-trip per edge.
    pub fn new_graph(value: T) -> Self
    where
        T: crate::GraphNode<S>,
    {
        Self::new_graph_in(value, S::global_domain())
    }

    /// As [`new_graph`](Self::new_graph) under an explicit domain.
    pub fn new_graph_in(value: T, domain: &DomainRef<S>) -> Self
    where
        T: crate::GraphNode<S>,
    {
        let t = smr::current_tid();
        let ptr = domain.allocate_graph(t, value);
        SharedPtr {
            addr: ptr as usize,
            _marker: PhantomData,
        }
    }

    /// The null pointer.
    pub fn null() -> Self {
        SharedPtr {
            addr: 0,
            _marker: PhantomData,
        }
    }

    /// Adopts ownership of one caller-class strong reference at `addr`
    /// (0 = null).
    pub(crate) fn from_addr(addr: usize) -> Self {
        debug_assert_eq!(addr & smr::TAG_MASK, 0);
        SharedPtr {
            addr,
            _marker: PhantomData,
        }
    }

    /// Adopts ownership of one *displaced-class* strong reference: it was
    /// location-owned when handed out, so the eventual drop must defer the
    /// decrement (readers that loaded the old word may still be protected).
    pub(crate) fn from_displaced(addr: usize) -> Self {
        debug_assert_eq!(addr & smr::TAG_MASK, 0);
        SharedPtr {
            addr: if addr == 0 { 0 } else { addr | DISPLACED },
            _marker: PhantomData,
        }
    }

    /// The untagged block address (0 = null), flag bits stripped.
    #[inline]
    fn block(&self) -> usize {
        self.addr & !DISPLACED
    }

    /// Releases ownership without decrementing; returns the block address.
    /// (Install paths: the reference becomes location-owned, which erases
    /// the displaced/caller class distinction — locations always retire.)
    pub(crate) fn into_addr(self) -> usize {
        let addr = self.block();
        std::mem::forget(self);
        addr
    }

    /// Takes the raw word (block address plus the displaced-class bit) out
    /// of this pointer, leaving it null — the edge-collection path of
    /// immediate recursive destruction, where the class decides whether the
    /// edge's decrement may be applied directly.
    pub(crate) fn extract_word(&mut self) -> usize {
        std::mem::replace(&mut self.addr, 0)
    }

    /// Whether this is the null pointer.
    pub fn is_null(&self) -> bool {
        self.block() == 0
    }

    /// Borrows the managed value, or `None` for null.
    #[cfg_attr(feature = "sanitize", track_caller)]
    pub fn as_ref(&self) -> Option<&T> {
        let block = self.block();
        if block == 0 {
            None
        } else {
            smr::sanitize::check_payload(block);
            // Safety: we own a strong reference, so the payload is alive.
            unsafe { Some(&*(*as_counted::<T>(block)).value.as_ptr()) }
        }
    }

    /// Whether two pointers manage the same object.
    pub fn ptr_eq(&self, other: &Self) -> bool {
        self.block() == other.block()
    }

    /// Creates a strong reference from any borrow that guarantees liveness
    /// (a [`SnapshotPtr`] or another `SharedPtr`), incrementing the count.
    #[inline(always)]
    pub fn from_strong<R: StrongRef<T>>(r: &R) -> Self {
        let addr = r.addr();
        if addr != 0 {
            // Safety: `r` guarantees a nonzero strong count for the borrow.
            // Header-only: no domain resolution needed.
            unsafe { counted::increment_alive(addr) };
        }
        SharedPtr::from_addr(addr)
    }

    /// Creates a weak reference to the same object.
    pub fn downgrade(&self) -> WeakPtr<T, S> {
        WeakPtr::from_strong(self)
    }

    /// The current strong count (diagnostic; racy by nature).
    pub fn strong_count(&self) -> u64 {
        let block = self.block();
        if block == 0 {
            0
        } else {
            unsafe { (*as_header(block)).strong.load() }
        }
    }
}

impl<T, S: Scheme> StrongRef<T> for SharedPtr<T, S> {
    #[inline(always)]
    fn addr(&self) -> usize {
        self.block()
    }
}

impl<T, S: Scheme> Clone for SharedPtr<T, S> {
    fn clone(&self) -> Self {
        SharedPtr::from_strong(self)
    }
}

impl<T, S: Scheme> Drop for SharedPtr<T, S> {
    fn drop(&mut self) {
        let block = self.block();
        if block != 0 {
            // Safety: we own one strong reference and forfeit it. Domain
            // code runs under the thread's pin, taken from the block's
            // header while the block is provably alive, because the
            // cascade may free the very block that was keeping the domain
            // alive. Under a guard the pin is a thread-local bump.
            unsafe {
                if self.addr & DISPLACED != 0 {
                    // Displaced-class: this reference was location-owned
                    // when handed out, so a concurrent reader that loaded
                    // the old word may still be mid-increment on it — the
                    // decrement must go through the deferred machinery
                    // exactly as the location's retire would have (batched,
                    // like every displaced decrement).
                    let d = domain_of::<S>(block).as_ref();
                    let t = smr::current_tid();
                    let _pin = d.pin_thread(t);
                    d.batch_decrement(t, block);
                } else if (*as_header(block)).strong.decrement() {
                    // The block outlives its zero: the strong side's weak
                    // reference is still ours.
                    let d = domain_of::<S>(block).as_ref();
                    let t = smr::current_tid();
                    let _pin = d.pin_thread(t);
                    if (*as_header(block)).weak.load() == 1
                        && (*as_header(block)).vtable.pop_edges.is_some()
                    {
                        // No weak observer can exist (and none can appear:
                        // the zero strong count is sticky), and the payload
                        // enumerates its edges: destruct the reachable
                        // subgraph right now, iteratively. Non-graph
                        // payloads stay on the deferred path — their edges
                        // relinquish from inside `Drop`, and disposing here
                        // would recurse one stack frame per chain level.
                        d.destruct(t, block);
                    } else {
                        d.delayed_dispose(t, block);
                    }
                }
            }
        }
    }
}

impl<T, S: Scheme> Default for SharedPtr<T, S> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T: fmt::Debug, S: Scheme> fmt::Debug for SharedPtr<T, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.as_ref() {
            Some(v) => f.debug_tuple("SharedPtr").field(v).finish(),
            None => f.write_str("SharedPtr(null)"),
        }
    }
}

/// A mutable shared location holding a strong reference plus tag bits,
/// bound to one reclamation domain of scheme `S`.
///
/// All operations are lock-free (given a lock-free scheme). Racy operations
/// open the needed critical sections internally — on *this location's*
/// domain; hold a [`CsGuard`] from the same domain across a sequence of
/// operations to pay the scheme's per-section fence once (performance only —
/// correctness never depends on the caller's guard for these methods, since
/// sections nest).
///
/// The compare-exchange family returns `Result<displaced, witness>`; see
/// the crate-level "RMW family" docs and
/// [`compare_exchange`](AtomicSharedPtr::compare_exchange).
///
/// # Examples
///
/// ```
/// use cdrc::{AtomicSharedPtr, SharedPtr, EbrScheme};
///
/// let slot: AtomicSharedPtr<i32, EbrScheme> = AtomicSharedPtr::new(SharedPtr::new(1));
/// let one = slot.load();
/// let displaced = slot.swap(SharedPtr::new(2));
/// assert!(displaced.ptr_eq(&one));
/// assert_eq!(slot.load().as_ref(), Some(&2));
/// ```
pub struct AtomicSharedPtr<T, S: Scheme> {
    inner: RcWord<S, StrongKind>,
    _marker: PtrMarker<T, S>,
}

unsafe impl<T: Send + Sync, S: Scheme> Send for AtomicSharedPtr<T, S> {}
unsafe impl<T: Send + Sync, S: Scheme> Sync for AtomicSharedPtr<T, S> {}

impl<T, S: Scheme> AtomicSharedPtr<T, S> {
    /// Creates a location holding `ptr` (tag 0), consuming its reference.
    /// The location binds to the pointer's own domain (or the global domain
    /// for a null pointer).
    pub fn new(ptr: SharedPtr<T, S>) -> Self {
        let domain = match ptr.block() {
            0 => S::global_domain().as_raw(),
            // Safety: `ptr` owns a strong reference, so the block is alive.
            addr => unsafe { domain_of::<S>(addr) },
        };
        AtomicSharedPtr {
            inner: RcWord::new_owned(ptr.into_addr(), domain),
            _marker: PhantomData,
        }
    }

    /// Creates a location holding `ptr` (tag 0) bound to an explicit
    /// domain, consuming the reference.
    ///
    /// # Panics
    ///
    /// Panics if `ptr` is non-null and was allocated under a different
    /// domain.
    pub fn new_in(ptr: SharedPtr<T, S>, domain: &DomainRef<S>) -> Self {
        check_same_domain(ptr.block(), domain);
        AtomicSharedPtr {
            inner: RcWord::new_owned(ptr.into_addr(), domain.as_raw()),
            _marker: PhantomData,
        }
    }

    /// Creates a null location bound to the scheme's global domain.
    pub fn null() -> Self {
        Self::null_in(S::global_domain())
    }

    /// Creates a null location bound to an explicit domain.
    pub fn null_in(domain: &DomainRef<S>) -> Self {
        AtomicSharedPtr {
            inner: RcWord::new_owned(0, domain.as_raw()),
            _marker: PhantomData,
        }
    }

    /// The domain this location is bound to, as a handle borrowed from the
    /// location (clone it for an owning one).
    pub fn domain(&self) -> &DomainRef<S> {
        self.inner.domain()
    }

    /// An unprotected read of the raw word — for tag checks and CAS
    /// `expected` values only; the result must never be dereferenced.
    #[inline]
    pub fn load_tagged(&self) -> TaggedPtr<T> {
        TaggedPtr::from_word(self.inner.load_raw())
    }

    /// Loads the pointer and takes a strong reference to it (tag ignored).
    pub fn load(&self) -> SharedPtr<T, S> {
        SharedPtr::from_addr(self.inner.load_owning())
    }

    /// Takes a protected snapshot without incrementing the count in the
    /// common case (Fig. 5). The snapshot lives at most as long as the
    /// critical section `cs`, which must be a guard over **this location's
    /// domain** (asserted in debug builds — a foreign guard provides no
    /// protection here).
    #[inline(always)]
    pub fn get_snapshot<'g>(&self, cs: &'g CsGuard<S>) -> SnapshotPtr<'g, T, S> {
        debug_assert!(
            cs.covers(self.inner.domain()),
            "guard from a different reclamation domain used on this location"
        );
        let src = self.inner.word();
        let (word, hold) = match cs.domain().strong_ar.try_acquire(cs.tid(), src) {
            Some((w, g)) => (w, Hold::of::<S>(g)),
            None => (snapshot_owning(cs, src), Hold::Owned),
        };
        SnapshotPtr::from_parts(word, hold, cs)
    }

    /// Wraps a word this location held while `cs`'s section was active into
    /// a protected snapshot — the failure-witness path of the `_with` CAS
    /// family.
    ///
    /// Schemes whose active section alone protects every word read from a
    /// live location ([`smr::AcquireRetire::PROTECTS_SECTION_READS`]: EBR,
    /// Hyaline) need no re-read and no guard: the witness is wrapped as it
    /// is. The others must revalidate against the live word — IBR because a
    /// witness born after the announced interval is not yet covered
    /// (extending the interval is exactly `acquire`'s
    /// announce-then-revalidate loop), HP because protection is per
    /// announced pointer — so they fall back to
    /// [`get_snapshot`](Self::get_snapshot): the witness then seeds only
    /// the failed comparison, and the snapshot may observe a newer value.
    #[inline(always)]
    fn protect_witness<'g>(&self, cs: &'g CsGuard<S>, w: usize) -> SnapshotPtr<'g, T, S> {
        if S::PROTECTS_SECTION_READS || untagged(w) == 0 {
            SnapshotPtr::from_parts(w, Hold::Section, cs)
        } else {
            self.get_snapshot(cs)
        }
    }

    /// Stores `desired` (with tag 0), consuming its reference; the previous
    /// pointer's reference is retired (deferred decrement).
    ///
    /// # Panics
    ///
    /// Panics if `desired` is non-null and was allocated under a different
    /// domain than this location's.
    pub fn store(&self, desired: SharedPtr<T, S>) {
        self.store_tagged(desired, 0);
    }

    /// Stores a new strong reference to the object behind any strong borrow
    /// (with tag 0) — e.g. `prev.next.store_from(&tail_snapshot)` as in the
    /// paper's doubly-linked queue (Fig. 10, line 18).
    ///
    /// # Panics
    ///
    /// Panics if `r` is non-null and from a different domain.
    #[inline(always)]
    pub fn store_from<R: StrongRef<T>>(&self, r: &R) {
        let addr = r.addr();
        check_same_domain(addr, self.inner.domain());
        if addr != 0 {
            // Safety: the strong borrow keeps the object alive.
            unsafe { counted::increment_alive(addr) };
        }
        self.inner.store_owned(addr);
    }

    /// As [`store`](Self::store) with explicit tag bits.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `tag` exceeds [`smr::TAG_MASK`], and
    /// (always) if `desired` is from a different domain.
    pub fn store_tagged(&self, desired: SharedPtr<T, S>, tag: usize) {
        debug_assert_eq!(tag & !smr::TAG_MASK, 0);
        self.inner.store_owned(desired.into_addr() | tag);
    }

    /// Atomically replaces the occupant with `desired` (tag 0), returning
    /// the displaced pointer as owned. No reference count is touched: the
    /// caller's reference moves into the location and the location's moves
    /// out (displaced-class — its eventual drop defers, see the module
    /// docs). The displaced tag bits are discarded; use
    /// [`swap_tagged`](Self::swap_tagged) to observe them.
    ///
    /// # Panics
    ///
    /// Panics if `desired` is non-null and from a different domain.
    pub fn swap(&self, desired: SharedPtr<T, S>) -> SharedPtr<T, S> {
        self.swap_tagged(desired, 0).0
    }

    /// As [`swap`](Self::swap) with explicit new tag bits; returns the
    /// displaced pointer together with the tag bits it was stored under.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `new_tag` exceeds [`smr::TAG_MASK`], and
    /// (always) if `desired` is from a different domain.
    pub fn swap_tagged(
        &self,
        desired: SharedPtr<T, S>,
        new_tag: usize,
    ) -> (SharedPtr<T, S>, usize) {
        debug_assert_eq!(new_tag & !smr::TAG_MASK, 0);
        let old = self.inner.swap_owned(desired.into_addr() | new_tag);
        (
            SharedPtr::from_displaced(untagged(old)),
            old & smr::TAG_MASK,
        )
    }

    /// Swap-with-null: empties the location and returns the displaced
    /// pointer (take semantics). Equivalent to `swap(SharedPtr::null())`.
    pub fn take(&self) -> SharedPtr<T, S> {
        self.swap(SharedPtr::null())
    }

    /// Atomically replaces the word if it equals `expected`, installing a
    /// new strong reference to `desired` with tag `new_tag`; `desired`
    /// itself is only borrowed.
    ///
    /// On success, returns the **displaced** pointer as owned (drop it,
    /// keep it, reinstall it — the location's old reference is yours). On
    /// failure, returns the **witnessed** current word, ready to be the
    /// next attempt's `expected` without re-loading the location. Spurious
    /// failure does not occur.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `new_tag` exceeds [`smr::TAG_MASK`], and
    /// (always) if `desired` is non-null and from a different domain.
    #[inline(always)]
    pub fn compare_exchange_tagged<R: StrongRef<T>>(
        &self,
        expected: TaggedPtr<T>,
        desired: &R,
        new_tag: usize,
    ) -> Result<SharedPtr<T, S>, TaggedPtr<T>> {
        // Safety: `desired` is a strong borrow, guaranteeing liveness and a
        // nonzero count for the pre-increment.
        unsafe { self.cas_addr(expected, desired.addr(), new_tag, false) }
            .map_err(TaggedPtr::from_word)
    }

    /// The borrowed-desired CAS behind the `compare_exchange` family, past
    /// the inlined shells that read `desired.addr()`.
    ///
    /// # Safety
    ///
    /// `new_addr` is 0 or a block the caller holds a strong borrow on.
    unsafe fn cas_addr(
        &self,
        expected: TaggedPtr<T>,
        new_addr: usize,
        new_tag: usize,
        weak_cas: bool,
    ) -> Result<SharedPtr<T, S>, usize> {
        self.inner
            .cas_borrowed(expected.word(), new_addr, new_tag, weak_cas)
            .map(|old| SharedPtr::from_displaced(untagged(old)))
    }

    /// As [`compare_exchange_tagged`](Self::compare_exchange_tagged) with
    /// tag 0 on the new value.
    #[inline(always)]
    pub fn compare_exchange<R: StrongRef<T>>(
        &self,
        expected: TaggedPtr<T>,
        desired: &R,
    ) -> Result<SharedPtr<T, S>, TaggedPtr<T>> {
        self.compare_exchange_tagged(expected, desired, 0)
    }

    /// As [`compare_exchange`](Self::compare_exchange), but may fail
    /// spuriously (the witness then equals `expected`) — cheaper on
    /// LL/SC architectures inside a retry loop that re-attempts anyway.
    #[inline(always)]
    pub fn compare_exchange_weak<R: StrongRef<T>>(
        &self,
        expected: TaggedPtr<T>,
        desired: &R,
    ) -> Result<SharedPtr<T, S>, TaggedPtr<T>> {
        self.compare_exchange_weak_tagged(expected, desired, 0)
    }

    /// As [`compare_exchange_tagged`](Self::compare_exchange_tagged), but
    /// may fail spuriously.
    ///
    /// # Panics
    ///
    /// As [`compare_exchange_tagged`](Self::compare_exchange_tagged).
    #[inline(always)]
    pub fn compare_exchange_weak_tagged<R: StrongRef<T>>(
        &self,
        expected: TaggedPtr<T>,
        desired: &R,
        new_tag: usize,
    ) -> Result<SharedPtr<T, S>, TaggedPtr<T>> {
        // Safety: as in `compare_exchange_tagged`.
        unsafe { self.cas_addr(expected, desired.addr(), new_tag, true) }
            .map_err(TaggedPtr::from_word)
    }

    /// By-value compare-exchange: on success the **moved** `desired`
    /// installs with *no reference-count traffic at all* (its reference
    /// transfers to the location) and the displaced pointer comes back
    /// owned; on failure the error returns both the witnessed current word
    /// and `desired` itself, untouched, so the retry loop neither
    /// reallocates nor pays a count round-trip.
    ///
    /// # Panics
    ///
    /// Panics if `desired` is non-null and from a different domain.
    pub fn compare_exchange_owned(
        &self,
        expected: TaggedPtr<T>,
        desired: SharedPtr<T, S>,
    ) -> Result<SharedPtr<T, S>, CompareExchangeErr<SharedPtr<T, S>, T>> {
        self.compare_exchange_tagged_owned(expected, desired, 0)
    }

    /// As [`compare_exchange_owned`](Self::compare_exchange_owned) with
    /// explicit tag bits on the new value.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `new_tag` exceeds [`smr::TAG_MASK`], and
    /// (always) if `desired` is non-null and from a different domain.
    pub fn compare_exchange_tagged_owned(
        &self,
        expected: TaggedPtr<T>,
        desired: SharedPtr<T, S>,
        new_tag: usize,
    ) -> Result<SharedPtr<T, S>, CompareExchangeErr<SharedPtr<T, S>, T>> {
        debug_assert_eq!(new_tag & !smr::TAG_MASK, 0);
        match self
            .inner
            .cas_owned(expected.word(), desired.block() | new_tag, false)
        {
            Ok(old) => {
                std::mem::forget(desired);
                Ok(SharedPtr::from_displaced(untagged(old)))
            }
            Err(w) => Err(CompareExchangeErr {
                current: TaggedPtr::from_word(w),
                desired,
            }),
        }
    }

    /// Guard-threaded compare-exchange: as
    /// [`compare_exchange`](Self::compare_exchange), but the failure
    /// witness comes back as a *protected* [`SnapshotPtr`] that can be
    /// dereferenced immediately — retry loops read the current value
    /// without any further load. Accepts either guard flavour via
    /// [`OpGuard`]; the guard must cover this location's domain (asserted
    /// in debug builds).
    ///
    /// Under EBR and Hyaline the returned snapshot is exactly the
    /// witnessed word, protected for free by the active section; IBR and
    /// HP must revalidate against the live location, so their snapshot may
    /// observe a value newer than the one that failed the comparison (see
    /// [`smr::AcquireRetire::PROTECTS_SECTION_READS`]).
    #[inline(always)]
    pub fn compare_exchange_with<'g, R: StrongRef<T>, G: OpGuard<S>>(
        &self,
        guard: &'g G,
        expected: TaggedPtr<T>,
        desired: &R,
    ) -> Result<SharedPtr<T, S>, SnapshotPtr<'g, T, S>> {
        self.compare_exchange_tagged_with(guard, expected, desired, 0)
    }

    /// As [`compare_exchange_with`](Self::compare_exchange_with) with
    /// explicit tag bits on the new value.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `new_tag` exceeds [`smr::TAG_MASK`], and
    /// (always) if `desired` is non-null and from a different domain.
    #[inline(always)]
    pub fn compare_exchange_tagged_with<'g, R: StrongRef<T>, G: OpGuard<S>>(
        &self,
        guard: &'g G,
        expected: TaggedPtr<T>,
        desired: &R,
        new_tag: usize,
    ) -> Result<SharedPtr<T, S>, SnapshotPtr<'g, T, S>> {
        let cs = guard.strong_cs();
        debug_assert!(
            cs.covers(self.inner.domain()),
            "guard from a different reclamation domain used on this location"
        );
        // Safety: as in `compare_exchange_tagged`.
        unsafe { self.cas_addr(expected, desired.addr(), new_tag, false) }
            .map_err(|w| self.protect_witness(cs, w))
    }

    /// Atomically ORs `tag_bits` into the word unconditionally, returning
    /// the previous word (Natarajan-Mittal edge tagging). No reference
    /// counts change: the location keeps the same pointer.
    pub fn fetch_or_tag(&self, tag_bits: usize) -> TaggedPtr<T> {
        TaggedPtr::from_word(self.inner.fetch_or_tag(tag_bits))
    }

    /// Atomically ORs tag bits into the word if it still equals `expected`
    /// (e.g. Harris-style delete marking). No reference counts change: the
    /// location keeps the same pointer.
    ///
    /// On success returns the word as installed (`expected | tag_bits`),
    /// handy for continuing a tag-state machine; on failure returns the
    /// witnessed current word.
    pub fn try_set_tag(
        &self,
        expected: TaggedPtr<T>,
        tag_bits: usize,
    ) -> Result<TaggedPtr<T>, TaggedPtr<T>> {
        self.inner
            .try_set_tag(expected.word(), tag_bits)
            .map(TaggedPtr::from_word)
            .map_err(TaggedPtr::from_word)
    }

    /// Takes the raw word out of a dead location (`&mut` access), leaving
    /// it null; ownership of the displaced reference transfers to the
    /// caller. Edge-collection path of immediate recursive destruction.
    pub(crate) fn extract_word(&mut self) -> usize {
        self.inner.take_word()
    }
}

impl<T, S: Scheme> Default for AtomicSharedPtr<T, S> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T, S: Scheme> From<SharedPtr<T, S>> for AtomicSharedPtr<T, S> {
    fn from(p: SharedPtr<T, S>) -> Self {
        AtomicSharedPtr::new(p)
    }
}

impl<T, S: Scheme> fmt::Debug for AtomicSharedPtr<T, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AtomicSharedPtr")
            .field("tagged", &self.load_tagged())
            .finish()
    }
}

/// A protected view of an [`AtomicSharedPtr`]'s pointee, valid within the
/// critical section that created it (§3.4: snapshot lifetimes must be
/// contained in a critical section — enforced here by borrowing the guard).
///
/// While a snapshot is alive, the object's strong count cannot reach zero,
/// so dereferencing is safe even though the snapshot usually holds **no**
/// reference of its own. Not `Send`: protection is thread-local.
///
/// # Cost: fast arms inline, slow arms out of line and by value
///
/// Under a region scheme taking a snapshot is a load and dropping one is
/// nothing (Fig. 13a) — if a traversal's snapshots live in registers. So
/// the fast arms (`try_acquire` hit, accessors, dropping a snapshot that
/// holds nothing) are `#[inline(always)]`, and the slow arms (`try_acquire`
/// miss → one owned reference; giving back a hazard slot or that
/// reference) are free functions taking the *word* by value.
///
/// **No-escape invariant:** no `&SnapshotPtr` or `&mut SnapshotPtr`
/// reaches a function that is not inlined, on any path, unwind cleanup
/// included — one escaped address pins the snapshot, and every snapshot it
/// is rotated with, to the stack: a store and a reload per hop on the
/// pointer-chasing dependency chain. This crate's `&R: StrongRef`
/// parameters are read (`r.addr()`) in inlined shells; structure code
/// should likewise chase the word and rotate the snapshot, never lend it.
pub struct SnapshotPtr<'g, T, S: Scheme> {
    inner: Held<'g, S, false>,
    _marker: PhantomData<Box<T>>,
}

/// Slow arm of [`AtomicSharedPtr::get_snapshot`], out of protection
/// resources: protects `src` with the reserved `acquire` slot just long
/// enough to take a real reference to the (non-null) word it returns.
#[cold]
#[inline(never)]
fn snapshot_owning<S: Scheme>(cs: &CsGuard<S>, src: &AtomicUsize) -> usize {
    let (d, t) = (cs.domain(), cs.tid());
    let (w, g) = d.strong_ar.acquire(t, src);
    let addr = untagged(w);
    if addr != 0 {
        // Safety: the location holds a strong reference and the acquire
        // blocks its deferred decrement.
        unsafe { counted::increment_alive(addr) };
    }
    d.strong_ar.release(t, g);
    w
}

impl<'g, T, S: Scheme> SnapshotPtr<'g, T, S> {
    #[inline(always)]
    fn from_parts(word: usize, hold: Hold<S::Guard>, cs: &'g CsGuard<S>) -> Self {
        SnapshotPtr {
            inner: Held::new(word, hold, cs),
            _marker: PhantomData,
        }
    }

    /// A null snapshot (no protection needed).
    #[inline(always)]
    pub fn null(cs: &'g CsGuard<S>) -> Self {
        Self::from_parts(0, Hold::Section, cs)
    }

    /// The word as loaded, including tag bits.
    #[inline(always)]
    pub fn tagged(&self) -> TaggedPtr<T> {
        TaggedPtr::from_word(self.inner.word)
    }

    /// The tag bits observed at load time.
    #[inline(always)]
    pub fn tag(&self) -> usize {
        self.tagged().tag()
    }

    /// Whether the snapshot observed null.
    #[inline(always)]
    pub fn is_null(&self) -> bool {
        untagged(self.inner.word) == 0
    }

    /// Borrows the managed value, or `None` for null.
    #[inline(always)]
    #[cfg_attr(feature = "sanitize", track_caller)]
    pub fn as_ref(&self) -> Option<&T> {
        // Safety: snapshots of a `T` location name `T` blocks.
        unsafe { self.inner.payload() }
    }

    /// Whether this snapshot took the fast (protected, count-free) path —
    /// exposed for tests and the snapshot ablation benchmark.
    #[inline(always)]
    pub fn used_fast_path(&self) -> bool {
        self.inner.count_free()
    }

    /// This snapshot with its witnessed tag bits replaced (protection is on
    /// the address, so retagging is free) — used by list traversals that
    /// unlink a marked node and continue with the unmarked word they
    /// installed.
    #[inline(always)]
    pub fn with_tag(mut self, tag: usize) -> Self {
        debug_assert_eq!(tag & !smr::TAG_MASK, 0);
        self.inner.word = untagged(self.inner.word) | tag;
        self
    }

    /// Promotes to an owned [`SharedPtr`] (increments the count).
    #[inline(always)]
    pub fn to_shared(&self) -> SharedPtr<T, S> {
        SharedPtr::from_strong(self)
    }
}

impl<T, S: Scheme> StrongRef<T> for SnapshotPtr<'_, T, S> {
    #[inline(always)]
    fn addr(&self) -> usize {
        untagged(self.inner.word)
    }
}

impl<T: fmt::Debug, S: Scheme> fmt::Debug for SnapshotPtr<'_, T, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.as_ref() {
            Some(v) => f.debug_tuple("SnapshotPtr").field(v).finish(),
            None => f.write_str("SnapshotPtr(null)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Scheme;
    use crate::sync::atomic::AtomicUsize as StdAtomicUsize;
    use crate::sync::atomic::Ordering;
    use smr::Ebr;
    use std::sync::Arc;

    type Sp<T> = SharedPtr<T, Ebr>;
    type Asp<T> = AtomicSharedPtr<T, Ebr>;

    struct Probe(Arc<StdAtomicUsize>);
    impl Drop for Probe {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn settle() {
        let d = Ebr::global_domain();
        d.process_deferred(smr::current_tid());
    }

    #[test]
    fn shared_ptr_clone_and_drop_dispose_once() {
        let drops = Arc::new(StdAtomicUsize::new(0));
        let p: Sp<Probe> = SharedPtr::new(Probe(Arc::clone(&drops)));
        let q = p.clone();
        assert!(p.ptr_eq(&q));
        drop(p);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(q);
        settle();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn null_shared_ptr_behaves() {
        let p: Sp<u32> = SharedPtr::null();
        assert!(p.is_null());
        assert_eq!(p.as_ref(), None);
        assert_eq!(p.strong_count(), 0);
        let q = p.clone();
        drop(q);
        drop(p);
    }

    #[test]
    fn atomic_load_store_roundtrip() {
        let slot: Asp<i64> = AtomicSharedPtr::new(SharedPtr::new(7));
        let a = slot.load();
        assert_eq!(a.as_ref(), Some(&7));
        slot.store(SharedPtr::new(8));
        assert_eq!(slot.load().as_ref(), Some(&8));
        assert_eq!(a.as_ref(), Some(&7), "old reference stays valid");
        drop(slot);
        settle();
    }

    #[test]
    fn snapshot_fast_path_avoids_count_changes() {
        let slot: Asp<u32> = AtomicSharedPtr::new(SharedPtr::new(5));
        let keeper = slot.load(); // count 2 (slot + keeper)
        {
            let cs = Ebr::global_domain().cs();
            let snap = slot.get_snapshot(&cs);
            assert!(snap.used_fast_path(), "EBR snapshots never fall back");
            assert_eq!(snap.as_ref(), Some(&5));
            assert_eq!(keeper.strong_count(), 2, "no increment on fast path");
            let promoted = snap.to_shared();
            assert_eq!(keeper.strong_count(), 3);
            drop(promoted);
        }
        drop(slot);
        drop(keeper);
        settle();
    }

    #[test]
    fn compare_exchange_success_returns_displaced_failure_returns_witness() {
        let slot: Asp<u32> = AtomicSharedPtr::new(SharedPtr::new(1));
        let one = slot.load();
        let two = Sp::new(2);
        let cur = slot.load_tagged();
        let displaced = slot.compare_exchange(cur, &two).expect("CAS succeeds");
        assert!(
            displaced.ptr_eq(&one),
            "displaced value is the old occupant"
        );
        assert_eq!(displaced.as_ref(), Some(&1));
        assert_eq!(slot.load().as_ref(), Some(&2));
        drop(displaced);
        // Stale expected now fails, must not leak the pre-increment, and the
        // witness names the current occupant.
        let w = slot
            .compare_exchange(cur, &two)
            .expect_err("stale expected");
        assert_eq!(w.addr(), TaggedPtr::from_strong(&two).addr());
        assert_eq!(two.strong_count(), 2, "slot + local");
        drop(slot);
        drop(two);
        drop(one);
        settle();
    }

    #[test]
    fn compare_exchange_owned_transfers_without_count_traffic() {
        let slot: Asp<u32> = AtomicSharedPtr::new(SharedPtr::new(1));
        let cur = slot.load_tagged();
        let two = Sp::new(2);
        let keeper = two.clone(); // count 2
        let displaced = slot.compare_exchange_owned(cur, two).expect("CAS succeeds");
        assert_eq!(displaced.as_ref(), Some(&1));
        assert_eq!(keeper.strong_count(), 2, "slot took the moved reference");
        drop(displaced);
        // Failure hands `desired` back untouched.
        let three = Sp::new(3);
        let err = slot
            .compare_exchange_owned(cur, three)
            .expect_err("stale expected");
        assert_eq!(err.current.addr(), keeper.addr());
        assert_eq!(err.desired.as_ref(), Some(&3));
        assert_eq!(err.desired.strong_count(), 1, "no count round-trip");
        drop(err.desired);
        drop((slot, keeper));
        settle();
    }

    #[test]
    fn compare_exchange_with_returns_protected_witness() {
        let slot: Asp<u32> = AtomicSharedPtr::new(SharedPtr::new(1));
        let two = Sp::new(2);
        let cs = Ebr::global_domain().cs();
        let stale = TaggedPtr::null();
        let w = slot
            .compare_exchange_with(&cs, stale, &two)
            .expect_err("stale expected fails");
        assert_eq!(w.as_ref(), Some(&1), "witness dereferences immediately");
        // The witness is a valid expected for the retry.
        let displaced = slot
            .compare_exchange_with(&cs, w.tagged(), &two)
            .expect("witness-seeded retry succeeds");
        assert_eq!(displaced.as_ref(), Some(&1));
        drop(displaced);
        drop(w);
        drop(cs);
        drop((slot, two));
        settle();
    }

    #[test]
    fn compare_exchange_weak_eventually_succeeds() {
        let slot: Asp<u32> = AtomicSharedPtr::new(SharedPtr::new(1));
        let two = Sp::new(2);
        let mut cur = slot.load_tagged();
        loop {
            match slot.compare_exchange_weak(cur, &two) {
                Ok(displaced) => {
                    assert_eq!(displaced.as_ref(), Some(&1));
                    break;
                }
                Err(w) => cur = w,
            }
        }
        assert_eq!(slot.load().as_ref(), Some(&2));
        drop((slot, two));
        settle();
    }

    #[test]
    fn swap_and_take_move_ownership() {
        // On a private domain: a displaced pointer's drop is a deferred
        // decrement, and the exact drop counts after one `process_deferred`
        // hold only if no other thread has a section open on the domain —
        // sibling tests hold sections on the global one.
        let drops = Arc::new(StdAtomicUsize::new(0));
        let d: DomainRef<Ebr> = DomainRef::new();
        let settle = || d.process_deferred(smr::current_tid());
        let probe = || SharedPtr::new_in(Probe(Arc::clone(&drops)), &d);
        let slot: Asp<Probe> = AtomicSharedPtr::new_in(probe(), &d);
        let displaced = slot.swap(probe());
        assert!(!displaced.is_null());
        drop(displaced);
        settle();
        assert_eq!(drops.load(Ordering::SeqCst), 1, "displaced drop disposes");
        let taken = slot.take();
        assert!(!taken.is_null());
        assert!(slot.load_tagged().is_null(), "take empties the slot");
        assert!(slot.take().is_null(), "second take observes null");
        drop(taken);
        drop(slot);
        settle();
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn swap_tagged_reports_displaced_tag() {
        let slot: Asp<u32> = AtomicSharedPtr::new(SharedPtr::new(4));
        let cur = slot.load_tagged();
        slot.try_set_tag(cur, 0b10).expect("tag lands");
        let (displaced, tag) = slot.swap_tagged(SharedPtr::new(5), 0b1);
        assert_eq!(tag, 0b10, "displaced tag observed");
        assert_eq!(displaced.as_ref(), Some(&4));
        assert_eq!(slot.load_tagged().tag(), 0b1, "new tag installed");
        drop(displaced);
        drop(slot);
        settle();
    }

    #[test]
    fn tag_manipulation() {
        let slot: Asp<u32> = AtomicSharedPtr::new(SharedPtr::new(9));
        let cur = slot.load_tagged();
        assert_eq!(cur.tag(), 0);
        let installed = slot.try_set_tag(cur, 0b1).expect("tag CAS succeeds");
        assert_eq!(installed.tag(), 0b1);
        assert_eq!(slot.load_tagged().tag(), 0b1);
        let w = slot
            .try_set_tag(cur, 0b10)
            .expect_err("stale expected fails");
        assert_eq!(w, installed, "witness is the current word");
        // Tagged load still reaches the object.
        {
            let cs = Ebr::global_domain().cs();
            let snap = slot.get_snapshot(&cs);
            assert_eq!(snap.tag(), 0b1);
            assert_eq!(snap.as_ref(), Some(&9));
        }
        drop(slot);
        settle();
    }

    #[test]
    fn store_tagged_and_cas_with_tags() {
        let slot: Asp<u32> = AtomicSharedPtr::new(SharedPtr::new(1));
        let nxt = Sp::new(2);
        let exp = slot.load_tagged();
        let displaced = slot
            .compare_exchange_tagged(exp, &nxt, 0b10)
            .expect("CAS succeeds");
        assert_eq!(displaced.as_ref(), Some(&1));
        drop(displaced);
        let now = slot.load_tagged();
        assert_eq!(now.tag(), 0b10);
        assert_eq!(slot.load().as_ref(), Some(&2));
        drop(nxt);
        drop(slot);
        settle();
    }

    #[test]
    fn deep_chain_teardown_does_not_overflow_stack() {
        struct Node {
            _v: u64,
            #[allow(dead_code)] // held for its Drop cascade
            next: Sp<Node>,
        }
        let mut head: Sp<Node> = SharedPtr::null();
        for i in 0..20_000 {
            head = SharedPtr::new(Node { _v: i, next: head });
        }
        drop(head); // must not recurse 20k deep
        settle();
    }

    #[test]
    fn instance_domain_lifecycle_and_isolation() {
        let da: DomainRef<Ebr> = DomainRef::new();
        let db: DomainRef<Ebr> = DomainRef::new();
        let t = smr::current_tid();
        let slot: Asp<u64> = AtomicSharedPtr::null_in(&da);
        for i in 0..100u64 {
            slot.store(SharedPtr::new_in(i, &da));
        }
        assert_eq!(db.allocated(), 0, "sibling domain saw no allocations");
        assert!(da.allocated() >= 100);
        drop(slot);
        da.process_deferred(t);
        assert_eq!(da.allocated(), da.freed(), "clean teardown balances");
        db.process_deferred(t);
        assert_eq!(db.freed(), 0);
    }

    #[test]
    fn displaced_pointer_balances_instance_domain() {
        // A displaced pointer dropped after its location is gone must still
        // tear the domain down to allocated() == freed().
        let d: DomainRef<Ebr> = DomainRef::new();
        let t = smr::current_tid();
        let slot: Asp<u64> = AtomicSharedPtr::null_in(&d);
        slot.store(SharedPtr::new_in(1, &d));
        let displaced = slot.swap(SharedPtr::new_in(2, &d));
        drop(slot);
        drop(displaced);
        d.process_deferred(t);
        assert_eq!(d.allocated(), d.freed());
    }

    #[test]
    fn shared_ptr_may_outlive_its_domain_handle() {
        // The block's owning reference keeps the domain alive after the
        // last user handle drops; the final SharedPtr drop tears it down.
        let p: Sp<u64> = {
            let d: DomainRef<Ebr> = DomainRef::new();
            SharedPtr::new_in(41, &d)
        };
        assert_eq!(p.as_ref(), Some(&41));
        let q = p.clone();
        drop(p);
        drop(q);
        // Nothing to assert beyond "no crash/leak": the domain (and the
        // block) are gone; miri/asan builds would flag a use-after-free.
    }

    #[test]
    fn orphaned_chain_is_reclaimed_regardless_of_size() {
        // Regression: the orphan-teardown check must not have a size
        // cliff. A long chain whose domain handle is gone before the head
        // drops must still be torn down in full by that final drop.
        struct Node {
            #[allow(dead_code)] // held for its Drop side effect
            probe: Probe,
            #[allow(dead_code)] // held for its Drop cascade
            next: Sp<Node>,
        }
        let drops = Arc::new(StdAtomicUsize::new(0));
        const N: usize = 500;
        let head: Sp<Node> = {
            let d: DomainRef<Ebr> = DomainRef::new();
            let mut head: Sp<Node> = SharedPtr::null();
            for _ in 0..N {
                head = SharedPtr::new_in(
                    Node {
                        probe: Probe(Arc::clone(&drops)),
                        next: head,
                    },
                    &d,
                );
            }
            head
        }; // last handle gone; only the chain keeps the domain alive
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(head);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            N,
            "every payload reclaimed by the orphaning drop"
        );
    }

    #[test]
    #[should_panic(expected = "cross-domain")]
    fn cross_domain_store_panics() {
        let da: DomainRef<Ebr> = DomainRef::new();
        let db: DomainRef<Ebr> = DomainRef::new();
        let slot: Asp<u64> = AtomicSharedPtr::null_in(&da);
        slot.store(SharedPtr::new_in(1, &db));
    }

    #[test]
    #[should_panic(expected = "cross-domain")]
    fn cross_domain_swap_panics() {
        let da: DomainRef<Ebr> = DomainRef::new();
        let db: DomainRef<Ebr> = DomainRef::new();
        let slot: Asp<u64> = AtomicSharedPtr::null_in(&da);
        let _ = slot.swap(SharedPtr::new_in(1, &db));
    }

    #[test]
    fn concurrent_load_store_stress() {
        let slot: Arc<Asp<u64>> = Arc::new(AtomicSharedPtr::new(SharedPtr::new(0)));
        let threads: Vec<_> = (0..6)
            .map(|i| {
                let slot = Arc::clone(&slot);
                std::thread::spawn(move || {
                    for j in 0..2_000u64 {
                        if j % 3 == 0 {
                            slot.store(SharedPtr::new(i * 1_000_000 + j));
                        } else {
                            let p = slot.load();
                            if let Some(v) = p.as_ref() {
                                assert!(*v < 6_000_000);
                            }
                        }
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        drop(slot);
        settle();
    }

    #[test]
    fn concurrent_swap_stress_conserves_values() {
        // Each thread repeatedly swaps its token in and the displaced value
        // out; the multiset of tokens is conserved.
        let slot: Arc<Asp<u64>> = Arc::new(AtomicSharedPtr::new(SharedPtr::new(999)));
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let slot = Arc::clone(&slot);
                std::thread::spawn(move || {
                    let mut mine: Sp<u64> = SharedPtr::new(i);
                    for _ in 0..2_000 {
                        mine = slot.swap(mine);
                        assert!(!mine.is_null());
                    }
                    *mine.as_ref().unwrap()
                })
            })
            .collect();
        let mut final_vals: Vec<u64> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        final_vals.push(*slot.load().as_ref().unwrap());
        final_vals.sort_unstable();
        assert_eq!(final_vals, vec![0, 1, 2, 3, 999]);
        drop(slot);
        settle();
    }

    #[test]
    fn concurrent_snapshot_stress() {
        let slot: Arc<Asp<u64>> = Arc::new(AtomicSharedPtr::new(SharedPtr::new(0)));
        let threads: Vec<_> = (0..6)
            .map(|i| {
                let slot = Arc::clone(&slot);
                std::thread::spawn(move || {
                    let d = Ebr::global_domain();
                    for j in 0..2_000u64 {
                        if i == 0 {
                            slot.store(SharedPtr::new(j));
                        } else {
                            let cs = d.cs();
                            let snap = slot.get_snapshot(&cs);
                            if let Some(v) = snap.as_ref() {
                                assert!(*v < 2_000);
                            }
                        }
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        drop(slot);
        settle();
    }
}
