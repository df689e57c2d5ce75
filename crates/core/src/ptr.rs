//! The pointer family, generic over the reference kind: one owned pointer
//! ([`RcPtr`]), one atomic location ([`AtomicRcPtr`]) and one protected
//! view ([`Snapshot`]), each parameterized by a payload `T`, a scheme `S`
//! and a [`RefKind`] `K`. The six paper names are aliases of these at
//! `K = StrongKind` (`strong.rs`: [`SharedPtr`](crate::SharedPtr),
//! [`AtomicSharedPtr`](crate::AtomicSharedPtr),
//! [`SnapshotPtr`](crate::SnapshotPtr)) and `K = WeakKind` (`weak.rs`:
//! [`WeakPtr`](crate::WeakPtr), [`AtomicWeakPtr`](crate::AtomicWeakPtr),
//! [`WeakSnapshotPtr`](crate::WeakSnapshotPtr)); those two modules add only
//! what differs between strong and weak. What a kind *is* lives in
//! `engine.rs`.
//!
//! # Mutation: by value, witnesses and displaced values
//!
//! The mutation surface is shaped like [`std::sync::atomic`] and CIRC's
//! `AtomicRc`, and every operation takes the pointer it installs **by
//! value**: the caller's reference moves into the location with no count
//! traffic, and a caller that only holds a borrow writes the increment at
//! the call site (`snap.to_shared()`, `WeakPtr::from_strong(&snap)`).
//! [`compare_exchange`](AtomicRcPtr::compare_exchange) returns
//! `Result<displaced, witness + desired>` — on success the **displaced**
//! occupant comes back as an owned pointer (drop it, inspect it, or
//! reinstall it elsewhere); on failure the **witnessed** current word comes
//! back, so retry loops never pay a second protected load, together with
//! `desired`, untouched. [`swap`](AtomicRcPtr::swap) /
//! [`take`](AtomicRcPtr::take) round out the RMW family.
//!
//! Handing the displaced value out is free: the returned pointer remembers
//! (in a private bit) that it was location-owned, so its drop defers the
//! decrement through the domain exactly as the location's retire would have
//! — concurrent readers mid-`load` stay safe, and the caller pays no count
//! round-trip.
//!
//! # Domains
//!
//! Every pointer is bound to one reclamation [`Domain`] at
//! creation: the `_in` constructors take an explicit [`DomainRef`], the
//! plain constructors default to [`Scheme::global_domain`]. An owned
//! pointer stays a single word — its domain is recorded in the
//! control-block header (and the block, a passive reference, keeps the
//! domain alive for as long as it exists). A location carries its domain's
//! address beside its word — two words in all — because operations must
//! know which domain to open a critical section on *before* reading the
//! word; the location is a passive reference too, counted on a per-thread
//! lane rather than on the domain's shared liveness word (see the pin rule
//! in `domain.rs`). Mixing domains is a logic error: the install-family
//! operations panic if the pointer being installed was allocated under a
//! different domain, and snapshot operations assert (debug builds) that the
//! supplied guard covers this location's domain.

use crate::sync::atomic::AtomicUsize;
use std::fmt;
use std::marker::PhantomData;
use std::ptr::NonNull;

use smr::untagged;

use crate::cas::CompareExchangeErr;
use crate::counted::PtrMarker;
use crate::domain::{domain_of, CsGuard, Domain, DomainRef, Scheme, StrongRef};
use crate::engine::{relinquish, Held, Hold, RcWord, RefKind, DISPLACED};
use crate::tagged::TaggedPtr;

/// An owned `K`-reference to a `T` managed by a reclamation domain of
/// scheme `S`: [`SharedPtr`](crate::SharedPtr) or
/// [`WeakPtr`](crate::WeakPtr).
///
/// Dropping one decrements its count *directly* (the reference is
/// caller-owned, so the decrement cannot race with a protected increment),
/// resolving the block's own domain from the control-block header only if
/// the count reaches zero — the pointer is a single word regardless of
/// which domain manages it.
///
/// The exception is a pointer obtained as the *displaced* result of a
/// [`swap`](AtomicRcPtr::swap) or successful compare-exchange: that
/// reference was location-owned when it was handed out, so its drop defers
/// the decrement through the domain (as the location's retire would have).
pub struct RcPtr<T, S: Scheme, K: RefKind> {
    /// Untagged block address, except that [`DISPLACED`] may be set on
    /// pointers whose drop must defer.
    addr: usize,
    _marker: PtrMarker<T, S, K>,
}

// Safety: like `Arc` — a strong pointer hands out `&T`, a weak one can be
// upgraded to one, and either can be dropped from any thread, so both
// bounds require `T: Send + Sync`.
unsafe impl<T: Send + Sync, S: Scheme, K: RefKind> Send for RcPtr<T, S, K> {}
unsafe impl<T: Send + Sync, S: Scheme, K: RefKind> Sync for RcPtr<T, S, K> {}

impl<T, S: Scheme, K: RefKind> RcPtr<T, S, K> {
    /// The null pointer.
    pub fn null() -> Self {
        Self::from_addr(0)
    }

    /// Adopts ownership of one caller-class `K`-reference at `addr`
    /// (0 = null).
    pub(crate) fn from_addr(addr: usize) -> Self {
        debug_assert_eq!(addr & smr::TAG_MASK, 0);
        RcPtr {
            addr,
            _marker: PhantomData,
        }
    }

    /// Adopts ownership of one *displaced-class* `K`-reference: it was
    /// location-owned when handed out, so the eventual drop must defer the
    /// decrement (readers that loaded the old word may still be protected).
    pub(crate) fn from_displaced(addr: usize) -> Self {
        debug_assert_eq!(addr & smr::TAG_MASK, 0);
        RcPtr {
            addr: if addr == 0 { 0 } else { addr | DISPLACED },
            _marker: PhantomData,
        }
    }

    /// Takes a fresh `K`-reference to the block at `addr` (0 = null).
    ///
    /// # Safety
    ///
    /// As [`RefKind::incr`]: the caller holds a borrow on a non-null `addr`
    /// under which `K`'s count is nonzero. Header-only: no domain
    /// resolution needed.
    #[inline(always)]
    pub(crate) unsafe fn acquire(addr: usize) -> Self {
        if addr != 0 {
            K::incr(addr);
        }
        Self::from_addr(addr)
    }

    /// The untagged block address (0 = null), flag bits stripped.
    #[inline]
    pub(crate) fn block(&self) -> usize {
        self.addr & !DISPLACED
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

    /// Whether two pointers manage the same object.
    pub fn ptr_eq(&self, other: &Self) -> bool {
        self.block() == other.block()
    }

    /// Creates a `K`-reference from any borrow that guarantees liveness (a
    /// [`SnapshotPtr`](crate::SnapshotPtr) or a
    /// [`SharedPtr`](crate::SharedPtr)), incrementing `K`'s count — how a
    /// caller holding a borrow feeds the by-value mutation surface.
    #[inline(always)]
    pub fn from_strong<R: StrongRef<T>>(r: &R) -> Self {
        // Safety: `r` guarantees a nonzero strong count — and with it a
        // nonzero weak count — for the borrow.
        unsafe { Self::acquire(r.addr()) }
    }
}

impl<T, S: Scheme, K: RefKind> Clone for RcPtr<T, S, K> {
    fn clone(&self) -> Self {
        // Safety: our own reference keeps `K`'s count nonzero.
        unsafe { Self::acquire(self.block()) }
    }
}

impl<T, S: Scheme, K: RefKind> Drop for RcPtr<T, S, K> {
    fn drop(&mut self) {
        if self.block() != 0 {
            // Safety: we own one `K`-reference and forfeit it.
            unsafe { relinquish::<S, K>(self.addr) };
        }
    }
}

impl<T, S: Scheme, K: RefKind> Default for RcPtr<T, S, K> {
    fn default() -> Self {
        Self::null()
    }
}

/// A mutable shared location holding a `K`-reference plus tag bits, bound to
/// one reclamation domain of scheme `S`:
/// [`AtomicSharedPtr`](crate::AtomicSharedPtr) or
/// [`AtomicWeakPtr`](crate::AtomicWeakPtr).
///
/// All operations are lock-free (given a lock-free scheme). Racy operations
/// open the section they need internally, on *this location's* domain; hold
/// a guard from the same domain across a sequence of
/// operations to pay the scheme's per-section fence once (performance only —
/// correctness never depends on the caller's guard for these methods, since
/// sections nest).
pub struct AtomicRcPtr<T, S: Scheme, K: RefKind> {
    inner: RcWord<S, K>,
    _marker: PtrMarker<T, S, K>,
}

unsafe impl<T: Send + Sync, S: Scheme, K: RefKind> Send for AtomicRcPtr<T, S, K> {}
unsafe impl<T: Send + Sync, S: Scheme, K: RefKind> Sync for AtomicRcPtr<T, S, K> {}

// The CAS result spells out both pointer types on purpose: rustdoc shows
// signatures as written, and an alias would hide what comes back.
#[allow(clippy::type_complexity)]
impl<T, S: Scheme, K: RefKind> AtomicRcPtr<T, S, K> {
    /// Creates a location holding `ptr` (tag 0), consuming its reference.
    /// The location binds to the pointer's own domain (or the global domain
    /// for a null pointer).
    pub fn new(ptr: RcPtr<T, S, K>) -> Self {
        let domain = match ptr.block() {
            0 => S::global_domain().as_raw(),
            // Safety: `ptr` owns a reference, so the block is alive.
            addr => unsafe { domain_of::<S>(addr) },
        };
        Self::bound(ptr, domain)
    }

    /// Creates a location holding `ptr`, which the caller has checked
    /// against `domain`.
    pub(crate) fn bound(ptr: RcPtr<T, S, K>, domain: NonNull<Domain<S>>) -> Self {
        let inner = RcWord::new_owned(ptr.block(), domain);
        // The reference is the location's now (which erases the displaced /
        // caller class distinction — locations always retire).
        std::mem::forget(ptr);
        AtomicRcPtr {
            inner,
            _marker: PhantomData,
        }
    }

    /// Creates a null location bound to the scheme's global domain.
    pub fn null() -> Self {
        Self::null_in(S::global_domain())
    }

    /// Creates a null location bound to an explicit domain.
    pub fn null_in(domain: &DomainRef<S>) -> Self {
        Self::bound(RcPtr::null(), domain.as_raw())
    }

    /// The domain this location is bound to, as a handle borrowed from the
    /// location (clone it for an owning one).
    pub fn domain(&self) -> &DomainRef<S> {
        self.inner.domain()
    }

    /// The raw word location, for the per-kind snapshot paths.
    #[inline(always)]
    pub(crate) fn word(&self) -> &AtomicUsize {
        self.inner.word()
    }

    /// An unprotected read of the raw word — for tag checks and CAS
    /// `expected` values only; the result must never be dereferenced.
    #[inline]
    pub fn load_tagged(&self) -> TaggedPtr<T> {
        TaggedPtr::from_word(self.inner.load_raw())
    }

    /// Loads the pointer and takes a `K`-reference to it (tag ignored) —
    /// Fig. 8's `load_and_increment` / `weak_load_and_increment`.
    pub fn load(&self) -> RcPtr<T, S, K> {
        RcPtr::from_addr(self.inner.load_owning())
    }

    /// Stores `desired` (with tag 0), consuming its reference; the previous
    /// pointer's reference is retired (deferred decrement).
    ///
    /// # Panics
    ///
    /// Panics if `desired` is non-null and was allocated under a different
    /// domain than this location's.
    pub fn store(&self, desired: RcPtr<T, S, K>) {
        self.inner.store(desired.block());
        // Forgotten only once installed: a refused install unwinds with the
        // caller's reference still owned, and drops it.
        std::mem::forget(desired);
    }

    /// Atomically replaces the occupant with `desired` (tag 0), returning
    /// the displaced pointer as owned. No reference count is touched: the
    /// caller's reference moves into the location and the location's moves
    /// out (displaced-class — its eventual drop defers, see the module
    /// docs). The displaced tag bits are discarded.
    ///
    /// # Panics
    ///
    /// Panics if `desired` is non-null and from a different domain.
    pub fn swap(&self, desired: RcPtr<T, S, K>) -> RcPtr<T, S, K> {
        let old = self.inner.swap(desired.block());
        std::mem::forget(desired);
        RcPtr::from_displaced(untagged(old))
    }

    /// Swap-with-null: empties the location and returns the displaced
    /// pointer (take semantics). Equivalent to `swap(RcPtr::null())`.
    pub fn take(&self) -> RcPtr<T, S, K> {
        self.swap(RcPtr::null())
    }

    /// Atomically replaces the word if it equals `expected`, installing the
    /// **moved** `desired` under tag `new_tag` with *no reference-count
    /// traffic at all* (its reference transfers to the location).
    ///
    /// On success, returns the **displaced** pointer as owned (drop it,
    /// keep it, reinstall it — the location's old reference is yours). On
    /// failure, the error returns both the **witnessed** current word —
    /// ready to be the next attempt's `expected` without re-loading the
    /// location — and `desired` itself, untouched, so the retry loop neither
    /// reallocates nor pays a count round-trip. Spurious failure does not
    /// occur.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `new_tag` exceeds [`smr::TAG_MASK`], and
    /// (always) if `desired` is non-null and from a different domain.
    pub fn compare_exchange(
        &self,
        expected: TaggedPtr<T>,
        desired: RcPtr<T, S, K>,
        new_tag: usize,
    ) -> Result<RcPtr<T, S, K>, CompareExchangeErr<RcPtr<T, S, K>, T>> {
        self.cas(expected, desired, new_tag, false)
    }

    /// As [`compare_exchange`](Self::compare_exchange), but may fail
    /// spuriously (the witness then equals `expected`) — cheaper on
    /// LL/SC architectures inside a retry loop that re-attempts anyway.
    pub fn compare_exchange_weak(
        &self,
        expected: TaggedPtr<T>,
        desired: RcPtr<T, S, K>,
        new_tag: usize,
    ) -> Result<RcPtr<T, S, K>, CompareExchangeErr<RcPtr<T, S, K>, T>> {
        self.cas(expected, desired, new_tag, true)
    }

    fn cas(
        &self,
        expected: TaggedPtr<T>,
        desired: RcPtr<T, S, K>,
        new_tag: usize,
        weak_cas: bool,
    ) -> Result<RcPtr<T, S, K>, CompareExchangeErr<RcPtr<T, S, K>, T>> {
        debug_assert_eq!(new_tag & !smr::TAG_MASK, 0);
        let new = desired.block() | new_tag;
        match self.inner.cas(expected.word(), new, weak_cas) {
            Ok(old) => {
                std::mem::forget(desired);
                Ok(RcPtr::from_displaced(untagged(old)))
            }
            Err(w) => Err(CompareExchangeErr {
                current: TaggedPtr::from_word(w),
                desired,
            }),
        }
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

impl<T, S: Scheme, K: RefKind> Default for AtomicRcPtr<T, S, K> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T, S: Scheme, K: RefKind> fmt::Debug for AtomicRcPtr<T, S, K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AtomicRcPtr")
            .field("tagged", &self.load_tagged())
            .finish()
    }
}

/// A protected view of an [`AtomicRcPtr`]'s pointee, valid within the
/// critical section that created it (§3.4: snapshot lifetimes must be
/// contained in a critical section — enforced here by borrowing the guard):
/// [`SnapshotPtr`](crate::SnapshotPtr) or
/// [`WeakSnapshotPtr`](crate::WeakSnapshotPtr). Usually holds **no**
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
/// **No-escape invariant:** no `&Snapshot` or `&mut Snapshot` reaches a
/// function that is not inlined, on any path, unwind cleanup included — one
/// escaped address pins the snapshot, and every snapshot it is rotated
/// with, to the stack: a store and a reload per hop on the pointer-chasing
/// dependency chain. This crate's `&R: StrongRef` parameters are read
/// (`r.addr()`) in inlined shells; structure code should likewise chase the
/// word and rotate the snapshot, never lend it.
pub struct Snapshot<'g, T, S: Scheme, K: RefKind> {
    pub(crate) inner: Held<'g, S>,
    _marker: PtrMarker<T, S, K>,
}

impl<'g, T, S: Scheme, K: RefKind> Snapshot<'g, T, S, K> {
    #[inline(always)]
    pub(crate) fn from_parts(word: usize, hold: Hold<S::Guard>, cs: &'g CsGuard<S>) -> Self {
        Snapshot {
            inner: Held::new(word, hold, cs),
            _marker: PhantomData,
        }
    }

    /// A null snapshot (no protection needed).
    #[inline(always)]
    pub fn null(cs: &'g CsGuard<S>) -> Self {
        Self::from_parts(0, Hold::Section, cs)
    }

    /// The untagged block address observed (0 = null).
    #[inline(always)]
    pub(crate) fn block(&self) -> usize {
        untagged(self.inner.word)
    }

    /// The word as loaded, including tag bits.
    #[inline(always)]
    pub fn tagged(&self) -> TaggedPtr<T> {
        TaggedPtr::from_word(self.inner.word)
    }

    /// Whether the snapshot observed null (a weak one: or an expired
    /// object).
    #[inline(always)]
    pub fn is_null(&self) -> bool {
        self.block() == 0
    }

    /// Borrows the managed value, or `None` for null. For a weak snapshot
    /// reading is safe even if the object has since expired — that is the
    /// point of deferring disposal.
    #[inline(always)]
    #[cfg_attr(feature = "sanitize", track_caller)]
    pub fn as_ref(&self) -> Option<&T> {
        // Safety: snapshots of a `T` location name `T` blocks; the payload
        // is kept by the snapshot's guard, section or owned reference.
        unsafe { self.inner.payload() }
    }

    /// Whether this snapshot took the fast (protected, count-free) path —
    /// exposed for tests and the snapshot ablation benchmark.
    #[inline(always)]
    pub fn used_fast_path(&self) -> bool {
        self.inner.count_free()
    }
}

impl<T: fmt::Debug, S: Scheme, K: RefKind> fmt::Debug for Snapshot<'_, T, S, K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.as_ref() {
            Some(v) => f.debug_tuple("Snapshot").field(v).finish(),
            None => f.write_str("Snapshot(null)"),
        }
    }
}
