//! The private generic engine behind [`AtomicSharedPtr`] and
//! [`AtomicWeakPtr`]: one word-level implementation of the
//! load / witness / install / retire protocol, instantiated twice through
//! [`RefKind`] (strong vs weak reference accounting).
//!
//! Everything here is *untyped* — words, addresses, tag bits. The pointer
//! modules wrap these primitives in `SharedPtr` / `WeakPtr` /
//! `SnapshotPtr` values and own all payload typing; this module owns the
//! concurrency protocol:
//!
//! * every install path checks the incoming block against the location's
//!   domain ([`check_same_domain`]);
//! * displaced references are either retired through the kind's
//!   acquire-retire instance (store) or handed to the caller as
//!   *displaced-class* ownership (swap / successful CAS) — see
//!   [`DISPLACED`];
//! * failed CASes return the witnessed current word so retry loops never
//!   re-read the location;
//! * pre-increment / rollback sequencing for borrowed-desired CASes follows
//!   the paper's Fig. 9 ordering (the location must own its reference the
//!   moment the CAS lands).
//!
//! [`AtomicSharedPtr`]: crate::AtomicSharedPtr
//! [`AtomicWeakPtr`]: crate::AtomicWeakPtr
//!
//! # Displaced-class references
//!
//! A reference that a shared location owned may only be relinquished through
//! the domain's deferred machinery: a concurrent reader that already loaded
//! the word may still be mid-`load_and_increment` (or holding a count-free
//! snapshot), and only the acquire-retire deferral orders the decrement
//! after every such reader. The bool-returning API enforced this by retiring
//! displaced references internally. The witness API instead *hands the
//! displaced value back* — so the owned pointer types record, in an unused
//! low bit of their single word ([`DISPLACED`]), that this particular
//! reference is location-class: its `Drop` defers the decrement exactly as
//! the location would have, while every other operation (clone, deref,
//! re-install into a location) is unaffected. Transferring the reference
//! back into an atomic location erases the bit — locations always retire.

use crate::sync::atomic::{AtomicUsize, Ordering};
use std::marker::PhantomData;
use std::ptr::NonNull;

use smr::{untagged, AcquireRetire, Tid};

use crate::counted;
use crate::domain::{
    check_same_domain, load_and_increment, with_full_cs, with_strong_cs, CsGuard, Domain,
    DomainRef, Scheme,
};

/// Low bit set in the *owned pointer types'* private word (never in an
/// atomic location's word) to mark a displaced-class reference: one whose
/// relinquish must be deferred because it was location-owned when handed
/// out. Distinct namespace from [`smr::TAG_MASK`]: owned pointers store
/// untagged block addresses, so bit 0 is free.
pub(crate) const DISPLACED: usize = 0b1;

/// What keeps a snapshot's pointee alive, i.e. what its drop gives back.
#[derive(Clone, Copy)]
#[repr(usize)]
pub(crate) enum Hold<G> {
    /// Nothing: a null snapshot, or a word the section alone protects.
    Section,
    /// Count-free fast path: an acquire-retire guard, released on drop.
    Guard(G),
    /// Slow path: one owned strong reference, decremented on drop.
    Owned,
}

impl<G> Hold<G> {
    /// The hold a `try_acquire` hit on an instance of `S` earned. A region
    /// scheme's guard has nothing to release (`S::PROTECTS_REGIONS`) and
    /// folds into `Section`: every snapshot then carries the same constant,
    /// and rotating snapshots along a traversal compiles to moving words.
    #[inline(always)]
    pub(crate) fn of<S: AcquireRetire<Guard = G>>(guard: G) -> Self {
        if S::PROTECTS_REGIONS {
            Hold::Section
        } else {
            Hold::Guard(guard)
        }
    }
}

/// The untyped core of a snapshot (strong, or weak with `DISPOSE`: its
/// guard is then on the dispose instance). Owns the drop; the typed shells
/// add the payload type and nothing else.
pub(crate) struct Held<'g, S: Scheme, const DISPOSE: bool> {
    pub(crate) word: usize,
    hold: Hold<S::Guard>,
    cs: &'g CsGuard<S>,
}

impl<'g, S: Scheme, const DISPOSE: bool> Held<'g, S, DISPOSE> {
    #[inline(always)]
    pub(crate) fn new(word: usize, hold: Hold<S::Guard>, cs: &'g CsGuard<S>) -> Self {
        Held { word, hold, cs }
    }

    /// Whether the snapshot holds no reference count of its own.
    #[inline(always)]
    pub(crate) fn count_free(&self) -> bool {
        !matches!(self.hold, Hold::Owned)
    }

    /// Borrows the payload, or `None` for null.
    ///
    /// # Safety
    ///
    /// `T` is the payload type of the block the word names.
    #[inline(always)]
    #[cfg_attr(feature = "sanitize", track_caller)]
    pub(crate) unsafe fn payload<T>(&self) -> Option<&T> {
        let addr = untagged(self.word);
        if addr == 0 {
            return None;
        }
        if self.count_free() {
            // Liveness rests on the thread's protection covering the block.
            smr::sanitize::check_protected_read(addr);
        } else {
            smr::sanitize::check_payload(addr);
        }
        // Guard, section or owned reference: the payload is not destroyed.
        Some(&*(*counted::as_counted::<T>(addr)).value.as_ptr())
    }
}

impl<S: Scheme, const DISPOSE: bool> Drop for Held<'_, S, DISPOSE> {
    #[inline(always)]
    fn drop(&mut self) {
        // One test and one by-value call, no more: see `give_back`.
        if !matches!(self.hold, Hold::Section) {
            give_back::<S, DISPOSE>(self.cs, self.word, self.hold);
        }
    }
}

/// Gives back what a dropped snapshot of `word` held.
///
/// Out of line and by value on purpose. Unwind cleanup reaches the drop
/// glue from cold landing pads, where LLVM inlines only the smallest
/// callees; glue left out of line takes the snapshot's address, and one
/// escaped address keeps every snapshot of a traversal on the stack. So the
/// glue is one test and this call: under a region scheme the test folds
/// away and a drop is nothing; under hazard pointers a hop pays this call
/// and keeps its snapshots in registers.
#[inline(never)]
fn give_back<S: Scheme, const DISPOSE: bool>(cs: &CsGuard<S>, word: usize, hold: Hold<S::Guard>) {
    let (d, t) = (cs.domain(), cs.tid());
    match hold {
        Hold::Section => {}
        Hold::Guard(g) if DISPOSE => d.dispose_ar.release(t, g),
        Hold::Guard(g) => d.strong_ar.release(t, g),
        // Safety: an owning snapshot holds one strong reference to its
        // (non-null) block; the guard it borrowed keeps the domain alive.
        Hold::Owned if untagged(word) != 0 => unsafe { d.decrement(t, untagged(word)) },
        Hold::Owned => {}
    }
}

/// How one flavour of reference (strong or weak) plugs into the engine.
pub(crate) trait RefKind<S: Scheme> {
    /// The acquire-retire instance deferring this kind's decrements.
    fn ar(d: &Domain<S>) -> &S;

    /// Takes one reference of this kind on a live block (header-only).
    ///
    /// # Safety
    ///
    /// `addr` must be a live control block the caller holds a borrow on
    /// (directly or via protection); for the strong kind the strong count
    /// must additionally be nonzero.
    unsafe fn incr(addr: usize);

    /// Defers relinquishing one location-class reference.
    ///
    /// # Safety
    ///
    /// One reference of this kind to `addr` is transferred to the domain.
    unsafe fn retire(d: &Domain<S>, t: Tid, addr: usize);

    /// Relinquishes one caller-owned reference directly (the CAS-failure
    /// rollback of a pre-increment that never became visible).
    ///
    /// # Safety
    ///
    /// The caller owns one reference of this kind to `addr` and forfeits it.
    unsafe fn rollback(d: &Domain<S>, t: Tid, addr: usize);

    /// Runs `f` inside the critical-section flavour this kind's protected
    /// loads require (strong: strong-only section; weak: full section).
    fn with_cs<R>(d: &Domain<S>, t: Tid, f: impl FnOnce() -> R) -> R;
}

/// Strong references: counted in `strong`, deferred through `strong_ar`.
pub(crate) struct StrongKind;

impl<S: Scheme> RefKind<S> for StrongKind {
    #[inline]
    fn ar(d: &Domain<S>) -> &S {
        &d.strong_ar
    }

    #[inline]
    unsafe fn incr(addr: usize) {
        counted::increment_alive(addr);
    }

    #[inline]
    unsafe fn retire(d: &Domain<S>, t: Tid, addr: usize) {
        d.batch_decrement(t, addr);
    }

    #[inline]
    unsafe fn rollback(d: &Domain<S>, t: Tid, addr: usize) {
        d.decrement(t, addr);
    }

    #[inline]
    fn with_cs<R>(d: &Domain<S>, t: Tid, f: impl FnOnce() -> R) -> R {
        with_strong_cs(d, t, f)
    }
}

/// Weak references: counted in `weak`, deferred through `weak_ar`.
pub(crate) struct WeakKind;

impl<S: Scheme> RefKind<S> for WeakKind {
    #[inline]
    fn ar(d: &Domain<S>) -> &S {
        &d.weak_ar
    }

    #[inline]
    unsafe fn incr(addr: usize) {
        counted::weak_increment(addr);
    }

    #[inline]
    unsafe fn retire(d: &Domain<S>, t: Tid, addr: usize) {
        d.batch_weak_decrement(t, addr);
    }

    #[inline]
    unsafe fn rollback(d: &Domain<S>, t: Tid, addr: usize) {
        d.weak_decrement(t, addr);
    }

    #[inline]
    fn with_cs<R>(d: &Domain<S>, t: Tid, f: impl FnOnce() -> R) -> R {
        with_full_cs(d, t, f)
    }
}

/// One shared mutable pointer word bound to a domain, speaking kind `K`'s
/// reference-accounting protocol. [`AtomicSharedPtr`](crate::AtomicSharedPtr)
/// and [`AtomicWeakPtr`](crate::AtomicWeakPtr) are typed shells around this.
///
/// The location is a *passive reference* on its domain (`domain.rs` module
/// docs): its domain word is not a pin, but the location is counted on a
/// per-thread lane from `new_owned` to `Drop`, which keeps the core alive —
/// and so valid behind `domain` — for every `&self` call in between.
pub(crate) struct RcWord<S: Scheme, K: RefKind<S>> {
    word: AtomicUsize,
    domain: NonNull<Domain<S>>,
    _kind: PhantomData<fn(K) -> K>,
}

impl<S: Scheme, K: RefKind<S>> RcWord<S, K> {
    /// Creates a location holding `word`, whose (untagged) address the
    /// location takes ownership of one `K`-reference to. The caller has
    /// already validated the domain, which it keeps alive across the call
    /// (a handle, or the live block `word` names).
    pub(crate) fn new_owned(word: usize, domain: NonNull<Domain<S>>) -> Self {
        // Safety: alive per the above.
        unsafe { domain.as_ref() }.location_made(smr::current_tid());
        RcWord {
            word: AtomicUsize::new(word),
            domain,
            _kind: PhantomData,
        }
    }

    /// The raw word location (for the snapshot paths, which stay in the
    /// typed modules).
    #[inline]
    pub(crate) fn word(&self) -> &AtomicUsize {
        &self.word
    }

    /// Takes the raw word out of a dead location (`&mut` access: no
    /// concurrent readers exist), leaving it null so the location's `Drop`
    /// becomes a no-op. Ownership of the displaced `K`-reference (if any)
    /// transfers to the caller — the edge-collection path of immediate
    /// recursive destruction.
    #[inline]
    pub(crate) fn take_word(&mut self) -> usize {
        std::mem::replace(self.word.get_mut(), 0)
    }

    /// The domain this location is bound to, as a handle borrowed for as
    /// long as the location is.
    #[inline]
    pub(crate) fn domain(&self) -> &DomainRef<S> {
        DomainRef::passive(&self.domain)
    }

    /// An unprotected read of the raw word, for comparisons only.
    #[inline]
    pub(crate) fn load_raw(&self) -> usize {
        // Ordering: Relaxed — the word is an opaque comparison token here:
        // it is never dereferenced, and any CAS that uses it as `expected`
        // re-validates against the live word with its own ordering.
        self.word.load(Ordering::Relaxed)
    }

    /// Protected load-and-increment (Fig. 8): returns the untagged address
    /// carrying one fresh caller-owned `K`-reference (0 for null).
    pub(crate) fn load_owning(&self) -> usize {
        let d = &**self.domain();
        let t = smr::current_tid();
        K::with_cs(d, t, || {
            // Safety: this location owns a `K`-reference to whatever it
            // stores, with decrements deferred via `K`'s instance, so the
            // acquire-protected increment targets a live block.
            unsafe { load_and_increment(K::ar(d), t, &self.word, |a| K::incr(a)) }
        })
    }

    /// Installs `new` (address + tag bits), taking ownership of one
    /// `K`-reference to its address; the displaced reference is retired.
    ///
    /// # Panics
    ///
    /// Panics if `new`'s address is non-null and from a foreign domain.
    pub(crate) fn store_owned(&self, new: usize) {
        let old = self.install(new);
        let old_addr = untagged(old);
        if old_addr != 0 {
            let t = smr::current_tid();
            // Safety: the location owned a `K`-reference to `old_addr`.
            unsafe { K::retire(self.domain(), t, old_addr) };
        }
    }

    /// Installs `new` as [`store_owned`](Self::store_owned) but returns the
    /// displaced word raw: ownership of the displaced `K`-reference
    /// transfers to the caller, who must treat it as displaced-class
    /// (relinquish via retire, i.e. wrap it with the owned pointer types'
    /// displaced constructors).
    ///
    /// # Panics
    ///
    /// Panics if `new`'s address is non-null and from a foreign domain.
    pub(crate) fn swap_owned(&self, new: usize) -> usize {
        self.install(new)
    }

    /// The shared install swap.
    fn install(&self, new: usize) -> usize {
        check_same_domain(untagged(new), self.domain());
        // The reference being installed must target a live block — storing
        // a disposed or freed pointer publishes a dangling reference.
        smr::sanitize::on_install(new);
        // Ordering: SeqCst swap — the Release half publishes the pointee
        // (and any pre-taken reference on it) to readers' Acquire loads, the
        // Acquire half makes the displaced occupant's header readable for
        // its deferred decrement (`rc_unlink_relaxed_swap_is_unsound` shows
        // this half tearing at Relaxed), and SeqCst places the unlink in the
        // SC order *before* the retire stamp that follows — the epoch eject
        // rules lean on the chain unlink ≤ stamp ≤ a reader's clock read ≤
        // its announcement fence, which forces any reader announcing a
        // newer-than-stamp epoch to observe this unlink. AcqRel is not
        // enough: `unlink_acqrel_swap_is_unsound` (model_check) exhibits a
        // reader that announces a fresh epoch yet still loads the stale
        // pointer while the scan under-stamps and frees it. On x86-64 every
        // swap is a `lock xchg` regardless, so this costs nothing here.
        self.word.swap(new, Ordering::SeqCst)
    }

    /// CAS installing a *new* `K`-reference to `new_addr` (borrowed-desired
    /// protocol): pre-increments so the location owns its reference the
    /// moment the CAS lands (§3.4 / Fig. 9 ordering), rolls the increment
    /// back on failure.
    ///
    /// On success returns the displaced word — ownership of the displaced
    /// `K`-reference transfers to the caller (displaced-class). On failure
    /// returns the witnessed current word.
    ///
    /// # Panics
    ///
    /// Panics if `new_addr` is non-null and from a foreign domain.
    ///
    /// # Safety
    ///
    /// `new_addr` must be 0 or a live control block the caller holds a
    /// `K`-compatible borrow on for the duration of the call.
    pub(crate) unsafe fn cas_borrowed(
        &self,
        expected: usize,
        new_addr: usize,
        new_tag: usize,
        weak_cas: bool,
    ) -> Result<usize, usize> {
        debug_assert_eq!(new_tag & !smr::TAG_MASK, 0);
        debug_assert_eq!(new_addr & smr::TAG_MASK, 0);
        check_same_domain(new_addr, self.domain());
        if new_addr != 0 {
            // Safety: the caller's borrow guarantees liveness.
            K::incr(new_addr);
        }
        match self.cex(expected, new_addr | new_tag, weak_cas) {
            Ok(old) => Ok(old),
            Err(w) => {
                if new_addr != 0 {
                    let t = smr::current_tid();
                    // Safety: we own the pre-increment and forfeit it; it
                    // was never visible to readers, so a direct decrement
                    // is sound.
                    K::rollback(self.domain(), t, new_addr);
                }
                Err(w)
            }
        }
    }

    /// CAS transferring the *caller's own* `K`-reference (owned-desired
    /// protocol): no count traffic at all. On success the caller's
    /// reference now belongs to the location (the caller must forget its
    /// handle) and the displaced word comes back displaced-class; on
    /// failure the caller keeps its reference and receives the witness.
    ///
    /// # Panics
    ///
    /// Panics if `new`'s address is non-null and from a foreign domain.
    pub(crate) fn cas_owned(
        &self,
        expected: usize,
        new: usize,
        weak_cas: bool,
    ) -> Result<usize, usize> {
        check_same_domain(untagged(new), self.domain());
        self.cex(expected, new, weak_cas)
    }

    /// The shared compare-exchange.
    #[inline]
    fn cex(&self, expected: usize, new: usize, weak_cas: bool) -> Result<usize, usize> {
        // Liveness holds whether or not the CAS lands: the caller's borrow
        // or pre-increment keeps `new` alive for the duration of the call.
        smr::sanitize::on_install(new);
        // Ordering: SeqCst on success — publishes the new occupant (and its
        // reference), acquires the displaced occupant's header for the
        // deferred decrement, and keeps this unlink in the SC order before
        // the retire stamp that follows, exactly as in `install`: the epoch
        // eject rules need the chain unlink ≤ stamp ≤ reader's clock read ≤
        // its announcement fence, and `unlink_acqrel_swap_is_unsound`
        // (model_check) shows AcqRel breaking it — a freshly-announced
        // reader loads the stale pointer while the scan under-stamps and
        // frees it. Free on x86-64, where the CAS is `lock cmpxchg` at any
        // ordering.
        // Ordering: Acquire on failure — the witnessed word is handed back
        // to the caller, who may seed a protected snapshot from it
        // (`compare_exchange_with`) and dereference: the publisher's Release
        // must be visible.
        if weak_cas {
            self.word
                .compare_exchange_weak(expected, new, Ordering::SeqCst, Ordering::Acquire)
        } else {
            self.word
                .compare_exchange(expected, new, Ordering::SeqCst, Ordering::Acquire)
        }
    }

    /// Unconditionally ORs tag bits into the word, returning the previous
    /// word. No reference counts change: the location keeps its pointer.
    pub(crate) fn fetch_or_tag(&self, tag_bits: usize) -> usize {
        debug_assert_eq!(tag_bits & !smr::TAG_MASK, 0);
        // Ordering: AcqRel — tag edges linearize structure mutations
        // (Natarajan-Mittal flag/tag, Harris marks): Release orders the
        // caller's prior writes before the mark becomes visible, Acquire
        // orders the caller's subsequent cleanup after the word it
        // observed. The pointer bits do not change, so no publication of a
        // new pointee is involved.
        self.word.fetch_or(tag_bits, Ordering::AcqRel)
    }

    /// ORs tag bits into the word if it still equals `expected`. Returns
    /// the installed word on success and the witnessed current word on
    /// failure. No reference counts change.
    pub(crate) fn try_set_tag(&self, expected: usize, tag_bits: usize) -> Result<usize, usize> {
        debug_assert_eq!(tag_bits & !smr::TAG_MASK, 0);
        // Ordering: AcqRel on success — as in
        // [`fetch_or_tag`](Self::fetch_or_tag); the mark is a linearization
        // point, not a pointer publication. Acquire on failure — the
        // witness is handed back and may seed further witness logic.
        self.word
            .compare_exchange(
                expected,
                expected | tag_bits,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .map(|_| expected | tag_bits)
    }
}

impl<S: Scheme, K: RefKind<S>> Drop for RcWord<S, K> {
    fn drop(&mut self) {
        let t = smr::current_tid();
        // Safety: the location itself keeps the core alive up to
        // `location_dropped`. The pin covers what comes after — this may be
        // the last passive reference, and the pin's release is where that
        // is noticed. Inside a destruct cascade or under a guard it is a
        // thread-local bump.
        let d: &Domain<S> = unsafe { self.domain.as_ref() };
        let _pin = d.pin_thread(t);
        let addr = untagged(*self.word.get_mut());
        if addr != 0 {
            // Safety: the location owns a `K`-reference. Deferral (not a
            // direct decrement) matters: a concurrent reader that loaded
            // this pointer before we were unlinked may still be protected.
            unsafe { K::retire(d, t, addr) };
        }
        d.location_dropped(t);
    }
}
