//! The strong kind: [`SharedPtr`], [`AtomicSharedPtr`] and [`SnapshotPtr`]
//! (§3.4 of the paper) as the generic family of `ptr.rs` at
//! `K = StrongKind`, plus what only a strong reference can do.
//!
//! * [`SharedPtr`] — an owned strong reference, like `Arc` but collected
//!   through the domain's deferred machinery; safe to send between threads.
//!   Strong-only: allocation (`new*`), dereference
//!   ([`as_ref`](SharedPtr::as_ref)), [`downgrade`](SharedPtr::downgrade),
//!   [`strong_count`](SharedPtr::strong_count).
//! * [`AtomicSharedPtr`] — a mutable shared location holding a strong
//!   reference (plus low-order tag bits). Strong-only:
//!   [`get_snapshot`](AtomicSharedPtr::get_snapshot) under a [`CsGuard`],
//!   and the guard-threaded
//!   [`compare_exchange_with`](AtomicSharedPtr::compare_exchange_with),
//!   whose failure witness is a protected [`SnapshotPtr`] that can be
//!   dereferenced immediately.
//! * [`SnapshotPtr`] — a short-lived protected view obtained from an
//!   [`AtomicSharedPtr`] **without touching the reference count** in the
//!   common case (Fig. 5): the fast path protects the pointer with
//!   `try_acquire`; only when the scheme runs out of protection resources
//!   does it fall back to an increment. While one is alive the object's
//!   strong count cannot reach zero, so it is a [`StrongRef`]. Snapshots
//!   are confined to a critical section ([`CsGuard`]) and to their creating
//!   thread.

use crate::sync::atomic::AtomicUsize;
use std::fmt;
use std::mem::size_of;

use smr::untagged;
use sticky::Counter;

use crate::cas::CompareExchangeErr;
use crate::counted::{as_counted, as_header};
use crate::domain::{check_same_domain, CsGuard, DomainRef, Scheme, StrongRef};
use crate::engine::{Hold, RefKind, StrongKind};
use crate::ptr::{AtomicRcPtr, RcPtr, Snapshot};
use crate::tagged::TaggedPtr;
use crate::weak::WeakPtr;

/// An owned strong reference to a `T` managed by a reclamation domain of
/// scheme `S` ([`Scheme::global_domain`] unless created with
/// [`new_in`](SharedPtr::new_in)); see [`RcPtr`] for how it drops.
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
pub type SharedPtr<T, S> = RcPtr<T, S, StrongKind>;

impl<T, S: Scheme> SharedPtr<T, S> {
    /// Allocates a new managed object holding `value` (strong count 1)
    /// under the scheme's global domain.
    pub fn new(value: T) -> Self {
        Self::new_in(value, S::global_domain())
    }

    /// Allocates a new managed object holding `value` (strong count 1)
    /// under an explicit domain.
    pub fn new_in(value: T, domain: &DomainRef<S>) -> Self {
        Self::from_addr(domain.allocate(smr::current_tid(), value) as usize)
    }

    /// As [`new_in`](Self::new_in), for payloads that enumerate their
    /// outgoing edges ([`GraphNode`](crate::GraphNode)): when the object's
    /// strong count reaches zero with no weak observers, the whole
    /// reachable zero-count subgraph is destructed immediately instead of
    /// one deferral round-trip per edge.
    pub fn new_graph_in(value: T, domain: &DomainRef<S>) -> Self
    where
        T: crate::GraphNode<S>,
    {
        Self::from_addr(domain.allocate_graph(smr::current_tid(), value) as usize)
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
            unsafe { Some(&*(*as_counted::<T, S>(block)).value.as_ptr()) }
        }
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
            unsafe { u64::from((*as_header(block)).strong.load()) }
        }
    }
}

impl<T, S: Scheme> StrongRef<T> for SharedPtr<T, S> {
    #[inline(always)]
    fn addr(&self) -> usize {
        self.block()
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
/// bound to one reclamation domain of scheme `S`; see [`AtomicRcPtr`] for
/// the operations it shares with [`AtomicWeakPtr`](crate::AtomicWeakPtr)
/// and the crate-level "RMW family" table.
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
pub type AtomicSharedPtr<T, S> = AtomicRcPtr<T, S, StrongKind>;

impl<T, S: Scheme> AtomicSharedPtr<T, S> {
    /// Creates a location holding `ptr` (tag 0) bound to an explicit
    /// domain, consuming the reference.
    ///
    /// # Panics
    ///
    /// Panics if `ptr` is non-null and was allocated under a different
    /// domain.
    pub fn new_in(ptr: SharedPtr<T, S>, domain: &DomainRef<S>) -> Self {
        check_same_domain(ptr.block(), domain);
        Self::bound(ptr, domain.as_raw())
    }

    /// Takes a protected snapshot without incrementing the count in the
    /// common case (Fig. 5). The snapshot lives at most as long as the
    /// critical section `cs`, which must be a guard over **this location's
    /// domain** (asserted in debug builds — a foreign guard provides no
    /// protection here).
    #[inline(always)]
    pub fn get_snapshot<'g>(&self, cs: &'g CsGuard<S>) -> SnapshotPtr<'g, T, S> {
        debug_assert!(
            cs.covers(self.domain()),
            "guard from a different reclamation domain used on this location"
        );
        let src = self.word();
        let ar = cs.domain().ar();
        let (word, hold) = match ar.try_acquire(cs.tid(), src) {
            Some((w, g)) => (w, Hold::of::<S>(g)),
            None => (snapshot_owning(cs, src), Hold::Owned),
        };
        SnapshotPtr::from_parts(word, hold, cs)
    }

    /// Wraps a word this location held while `cs`'s section was active into
    /// a protected snapshot — the failure-witness path of
    /// [`compare_exchange_with`](Self::compare_exchange_with).
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

    /// Guard-threaded compare-exchange installing (under tag 0) a new
    /// strong reference to the object behind a *borrow*: exactly
    /// `compare_exchange(expected, SharedPtr::from_strong(desired), 0)` —
    /// the reference is taken before the CAS and given back directly if it
    /// fails — but the failure witness comes back as a *protected*
    /// [`SnapshotPtr`] that can be dereferenced immediately, so retry loops
    /// read the current value without any further load. The guard must
    /// cover this location's domain (asserted in debug builds).
    ///
    /// Under EBR and Hyaline the returned snapshot is exactly the
    /// witnessed word, protected for free by the active section; IBR and
    /// HP must revalidate against the live location, so their snapshot may
    /// observe a value newer than the one that failed the comparison (see
    /// [`smr::AcquireRetire::PROTECTS_SECTION_READS`]).
    ///
    /// # Panics
    ///
    /// Panics if `desired` is non-null and from a different domain.
    #[inline(always)]
    pub fn compare_exchange_with<'g, R: StrongRef<T>>(
        &self,
        cs: &'g CsGuard<S>,
        expected: TaggedPtr<T>,
        desired: &R,
    ) -> Result<SharedPtr<T, S>, SnapshotPtr<'g, T, S>> {
        debug_assert!(
            cs.covers(self.domain()),
            "guard from a different reclamation domain used on this location"
        );
        self.cas_out_of_line(expected, SharedPtr::from_strong(desired))
            .map_err(|w| self.protect_witness(cs, w.word()))
    }

    /// The by-value CAS behind [`compare_exchange_with`]'s inlined shell,
    /// out of line on purpose: both arguments and the two-word result
    /// travel in registers, so the shell costs its caller an increment, a
    /// call and a test. Inlined, the CAS, the domain check and both
    /// relinquish arms land between the blocks of every traversal that can
    /// help an unlink — its rare arm — and the hop, though the same
    /// instructions, measured 3–9 % slower on the benchmark's list under
    /// hazard pointers.
    ///
    /// [`compare_exchange_with`]: Self::compare_exchange_with
    #[inline(never)]
    fn cas_out_of_line(
        &self,
        expected: TaggedPtr<T>,
        desired: SharedPtr<T, S>,
    ) -> Result<SharedPtr<T, S>, TaggedPtr<T>> {
        self.compare_exchange(expected, desired, 0)
            .map_err(|e| e.current)
    }

    /// Installs the unshared `node` in place of `expected` (under tag 0),
    /// *moving* this location's reference to `expected` into the null edge
    /// of `node` that `edge` names: the edge is given `expected`'s address
    /// before the CAS, and on success it owns the reference the location
    /// held, so nothing is incremented and no decrement is deferred; the
    /// location owns `node`'s one reference. On failure the edge is null
    /// again, and the error is
    /// [`compare_exchange`](AtomicRcPtr::compare_exchange)'s: the witnessed
    /// word and `node`, untouched. This is how a linked structure inserts
    /// between two nodes with no count traffic on the successor.
    ///
    /// *Unshared* means that no other thread can reach `node`: strong count
    /// 1 and weak count 1 (no clone, no weak reference), and not a
    /// displaced pointer handed out of a location, which a reader may still
    /// hold a snapshot of. The `engine` module docs ("Linking") give the
    /// argument.
    ///
    /// # Panics
    ///
    /// Panics if `node` is null or shared; if the edge is not null, does
    /// not lie inside `node`'s payload, or is bound to a different domain;
    /// and if `node` is from a different domain.
    pub fn link(
        &self,
        expected: TaggedPtr<T>,
        node: SharedPtr<T, S>,
        edge: impl FnOnce(&T) -> &AtomicSharedPtr<T, S>,
    ) -> Result<(), CompareExchangeErr<SharedPtr<T, S>, T>> {
        let value = node.as_ref().expect("link of a null node");
        // Safety: `node` owns a strong reference, so its block is alive.
        let header = unsafe { &*as_header(node.block()) };
        assert!(
            !node.displaced() && header.strong.load() == 1 && header.weak.load() == 1,
            "link of a shared node: it has a clone or a weak reference, or came out of a location"
        );
        let edge = edge(value);
        let (at, start) = (edge as *const Self as usize, value as *const T as usize);
        assert!(
            start <= at && at + size_of::<Self>() <= start + size_of::<T>(),
            "link edge outside the linked node"
        );
        assert!(edge.load_tagged().is_null(), "link edge not null");
        match self.inner.link(expected.word(), node.block(), &edge.inner) {
            Ok(()) => {
                std::mem::forget(node);
                Ok(())
            }
            Err(w) => Err(CompareExchangeErr {
                current: TaggedPtr::from_word(w),
                desired: node,
            }),
        }
    }

    // Kept for the frozen benchmark only (`ledger/src/ladder.rs:170`), which
    // no other caller may join; the next `benchmark` PR deletes it.
    #[doc(hidden)]
    pub fn compare_exchange_owned(
        &self,
        expected: TaggedPtr<T>,
        desired: SharedPtr<T, S>,
    ) -> Result<SharedPtr<T, S>, CompareExchangeErr<SharedPtr<T, S>, T>> {
        self.compare_exchange(expected, desired, 0)
    }
}

impl<T, S: Scheme> From<SharedPtr<T, S>> for AtomicSharedPtr<T, S> {
    fn from(p: SharedPtr<T, S>) -> Self {
        AtomicSharedPtr::new(p)
    }
}

/// A protected view of an [`AtomicSharedPtr`]'s pointee; see [`Snapshot`]
/// for the cost model and the no-escape invariant.
///
/// While a snapshot is alive, the object's strong count cannot reach zero,
/// so dereferencing is safe even though the snapshot usually holds **no**
/// reference of its own.
pub type SnapshotPtr<'g, T, S> = Snapshot<'g, T, S, StrongKind>;

/// Slow arm of [`AtomicSharedPtr::get_snapshot`], out of protection
/// resources: protects `src` with the reserved `acquire` slot just long
/// enough to take a real reference to the (non-null) word it returns.
#[cold]
#[inline(never)]
fn snapshot_owning<S: Scheme>(cs: &CsGuard<S>, src: &AtomicUsize) -> usize {
    let (ar, t) = (cs.domain().ar(), cs.tid());
    let (w, g) = ar.acquire(t, src);
    let addr = untagged(w);
    if addr != 0 {
        // Safety: the location holds a strong reference and the acquire
        // blocks its deferred decrement.
        unsafe { StrongKind::incr(addr) };
    }
    ar.release(t, g);
    w
}

impl<'g, T, S: Scheme> SnapshotPtr<'g, T, S> {
    /// The tag bits observed at load time.
    #[inline(always)]
    pub fn tag(&self) -> usize {
        self.tagged().tag()
    }

    /// This snapshot with its witnessed tag bits replaced (protection is on
    /// the address, so retagging is free) — used by list traversals that
    /// unlink a marked node and continue with the unmarked word they
    /// installed.
    #[inline(always)]
    pub fn with_tag(mut self, tag: usize) -> Self {
        debug_assert_eq!(tag & !smr::TAG_MASK, 0);
        self.inner.word = self.block() | tag;
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
        self.block()
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
        // On a private domain: the owner's drop defers the disposal, which
        // any section a sibling test holds on the global domain would pin.
        let d: DomainRef<Ebr> = DomainRef::new();
        let drops = Arc::new(StdAtomicUsize::new(0));
        let p: Sp<Probe> = SharedPtr::new_in(Probe(Arc::clone(&drops)), &d);
        let q = p.clone();
        assert!(p.ptr_eq(&q));
        drop(p);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(q);
        d.process_deferred(smr::current_tid());
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
        let displaced = slot
            .compare_exchange(cur, two.clone(), 0)
            .expect("CAS succeeds");
        assert!(
            displaced.ptr_eq(&one),
            "displaced value is the old occupant"
        );
        assert_eq!(displaced.as_ref(), Some(&1));
        assert_eq!(slot.load().as_ref(), Some(&2));
        drop(displaced);
        // Stale expected now fails, must not leak the reference it was
        // handed, and the witness names the current occupant.
        let e = slot
            .compare_exchange(cur, two.clone(), 0)
            .expect_err("stale expected");
        assert_eq!(e.current.addr(), TaggedPtr::from_strong(&two).addr());
        drop(e);
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
        let displaced = slot.compare_exchange(cur, two, 0).expect("CAS succeeds");
        assert_eq!(displaced.as_ref(), Some(&1));
        assert_eq!(keeper.strong_count(), 2, "slot took the moved reference");
        drop(displaced);
        // Failure hands `desired` back untouched.
        let three = Sp::new(3);
        let err = slot
            .compare_exchange(cur, three, 0)
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

    /// A node with one edge, for `link`.
    #[derive(Debug)]
    struct Cell {
        next: Asp<Cell>,
        _v: u64,
    }

    fn cell(d: &DomainRef<Ebr>, v: u64) -> Sp<Cell> {
        let next = AtomicSharedPtr::null_in(d);
        SharedPtr::new_in(Cell { next, _v: v }, d)
    }

    #[test]
    fn link_moves_the_reference_and_a_failure_hands_the_node_back() {
        let d: DomainRef<Ebr> = DomainRef::new();
        let t = smr::current_tid();
        let slot: Asp<Cell> = AtomicSharedPtr::new_in(cell(&d, 1), &d);
        let one = slot.load(); // the slot's reference and this one
        let expected = slot.load_tagged();
        // A stale expected fails: the edge is null again and the node comes
        // back with the witness.
        let back = slot
            .link(TaggedPtr::null(), cell(&d, 2), |c| &c.next)
            .expect_err("stale expected");
        assert_eq!(back.current, expected);
        assert!(back.desired.as_ref().unwrap().next.load_tagged().is_null());
        assert_eq!(back.desired.strong_count(), 1);
        // The link lands: the slot's reference to `one` moved into the new
        // node's edge, so `one`'s count did not move.
        slot.link(expected, back.desired, |c| &c.next)
            .expect("link lands");
        assert_eq!(one.strong_count(), 2, "a link moves, it does not count");
        let two = slot.load();
        assert_eq!(two.as_ref().unwrap()._v, 2);
        assert_eq!(two.as_ref().unwrap().next.load_tagged(), expected);
        drop((two, one, slot));
        d.process_deferred(t);
        assert_eq!(d.allocated(), d.freed());
    }

    #[test]
    #[should_panic(expected = "link of a shared node")]
    fn link_refuses_a_node_with_a_clone() {
        let d: DomainRef<Ebr> = DomainRef::new();
        let slot: Asp<Cell> = AtomicSharedPtr::null_in(&d);
        let node = cell(&d, 1);
        let _clone = node.clone();
        let _ = slot.link(TaggedPtr::null(), node, |c| &c.next);
    }

    #[test]
    #[should_panic(expected = "link of a shared node")]
    fn link_refuses_a_node_with_a_weak_reference() {
        let d: DomainRef<Ebr> = DomainRef::new();
        let slot: Asp<Cell> = AtomicSharedPtr::null_in(&d);
        let node = cell(&d, 1);
        let _weak = node.downgrade();
        let _ = slot.link(TaggedPtr::null(), node, |c| &c.next);
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
    fn compare_exchange_installs_the_new_tag() {
        let slot: Asp<u32> = AtomicSharedPtr::new(SharedPtr::new(1));
        let nxt = Sp::new(2);
        let exp = slot.load_tagged();
        let displaced = slot
            .compare_exchange(exp, nxt.clone(), 0b10)
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
