//! The weak kind: [`WeakPtr`], [`AtomicWeakPtr`] and [`WeakSnapshotPtr`]
//! (§4 of the paper) as the generic family of `ptr.rs` at `K = WeakKind`,
//! plus what only a weak reference does.
//!
//! Weak pointers hold a reference to a managed object without contributing
//! to its strong count, so cycles broken by a weak edge are collected
//! automatically. The machinery differs from the strong-only setting in two
//! ways (§4.4):
//!
//! * upgrades must use *increment-if-not-zero* (the sticky counter), because
//!   the strong count may legitimately be zero —
//!   [`upgrade`](WeakPtr::upgrade), [`expired`](WeakPtr::expired),
//!   [`try_promote`](WeakSnapshotPtr::try_promote);
//! * destruction of the managed object (*disposal*) is itself deferred, so
//!   a [`WeakSnapshotPtr`] — taken by
//!   [`get_snapshot`](AtomicWeakPtr::get_snapshot) under the same
//!   [`CsGuard`] as a strong one — remains safely readable even if the
//!   object expires during its lifetime. The paper defers it through a
//!   third acquire-retire instance; here it is a third tag on the domain's
//!   one instance (`domain.rs`).
//!
//! The mutation surface is [`AtomicRcPtr`]'s. The one asymmetry: there is
//! no `compare_exchange_with` returning a protected weak snapshot — a weak
//! failure witness is a [`TaggedPtr`](crate::TaggedPtr) comparison token,
//! because minting a dereferenceable [`WeakSnapshotPtr`] requires the full
//! expiry-checking protocol of
//! [`get_snapshot`](AtomicWeakPtr::get_snapshot).

use crate::sync::atomic::{AtomicUsize, Ordering};
use std::fmt;

use smr::untagged;

use crate::counted;
use crate::domain::{CsGuard, Scheme, StrongRef};
use crate::engine::{Hold, WeakKind};
use crate::ptr::{AtomicRcPtr, RcPtr, Snapshot};
use crate::strong::SharedPtr;

/// An owned weak reference to a `T` managed by a reclamation domain of
/// scheme `S`.
///
/// A `WeakPtr` keeps the *control block* alive but not the object: once the
/// strong count reaches zero the object is destroyed regardless of weak
/// references. Access requires [`upgrade`](WeakPtr::upgrade). See [`RcPtr`]
/// for how it drops.
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
pub type WeakPtr<T, S> = RcPtr<T, S, WeakKind>;

/// Strong increment-if-not-zero on a block a weak borrow keeps allocated.
/// Wait-free thanks to the sticky counter's constant-time
/// increment-if-not-zero (§4.3); never resurrects a dead object.
///
/// # Safety
///
/// `addr` is 0 or a control block kept alive by the caller.
#[inline(always)]
unsafe fn upgrade<T, S: Scheme>(addr: usize) -> Option<SharedPtr<T, S>> {
    (addr != 0 && counted::increment(addr)).then(|| SharedPtr::from_addr(addr))
}

impl<T, S: Scheme> WeakPtr<T, S> {
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
    /// expired (or the pointer is null). Wait-free.
    #[cfg_attr(feature = "sanitize", track_caller)]
    pub fn upgrade(&self) -> Option<SharedPtr<T, S>> {
        if !self.is_null() {
            smr::sanitize::check_header(self.block());
        }
        // Safety: our weak reference keeps the control block alive.
        unsafe { upgrade(self.block()) }
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
/// of scheme `S`; see [`AtomicRcPtr`] for the operations it shares with
/// [`AtomicSharedPtr`](crate::AtomicSharedPtr).
///
/// Every operation must run inside a critical section
/// ([`DomainRef::cs`](crate::DomainRef::cs)) over this location's domain;
/// operations invoked without one open it internally.
///
/// # Examples
///
/// ```
/// use cdrc::{AtomicWeakPtr, SharedPtr, EbrScheme, Scheme};
/// use smr::Ebr;
///
/// let strong: SharedPtr<i32, EbrScheme> = SharedPtr::new(1);
/// let slot: AtomicWeakPtr<i32, EbrScheme> = AtomicWeakPtr::null();
/// slot.store(strong.downgrade());
/// assert_eq!(slot.load().upgrade().and_then(|p| p.as_ref().copied()), Some(1));
/// ```
pub type AtomicWeakPtr<T, S> = AtomicRcPtr<T, S, WeakKind>;

impl<T, S: Scheme> AtomicWeakPtr<T, S> {
    // Kept for the frozen benchmark only (`ledger/src/ladder.rs:192`), which
    // no other caller may join; the next `benchmark` PR deletes it.
    #[doc(hidden)]
    pub fn store_strong<R: StrongRef<T>>(&self, r: &R) {
        self.store(WeakPtr::from_strong(r));
    }

    /// Takes a protected snapshot of the managed object without touching
    /// any count in the common case (Fig. 9's `get_snapshot`). The guard
    /// must cover **this location's domain** (asserted in debug builds).
    ///
    /// Returns a null snapshot iff, at the linearization point, the
    /// location was null or held an expired object. Lock-free (the retry
    /// resolves races between expiry and replacement, §4.5).
    #[inline]
    pub fn get_snapshot<'g>(&self, cs: &'g CsGuard<S>) -> WeakSnapshotPtr<'g, T, S> {
        debug_assert!(
            cs.covers(self.domain()),
            "guard from a different reclamation domain used on this location"
        );
        let (ar, t) = (cs.domain().ar(), cs.tid());
        loop {
            // One protection holds back both the block's weak decrement
            // and the object's disposal: the domain defers both on the one
            // instance (`domain.rs`).
            let w = match ar.try_acquire(t, self.word()) {
                Some((w, g)) => {
                    let addr = untagged(w);
                    // Safety: the guard keeps the block allocated.
                    if addr != 0 && unsafe { !counted::expired(addr) } {
                        return WeakSnapshotPtr::from_parts(w, Hold::of::<S>(g), cs);
                    }
                    ar.release(t, g);
                    w
                }
                None => match own_if_alive(cs, self.word()) {
                    Ok(w) => return WeakSnapshotPtr::from_parts(w, Hold::Owned, cs),
                    Err(w) => w,
                },
            };
            // Null, or expired. Only report an expired object as null if
            // the location still holds it — otherwise the count may have
            // belonged to a previous occupant and we must retry for
            // linearizability (§4.5).
            // Ordering: Acquire — the nullity decision linearizes here: we
            // may only report "expired ⇒ null" if the location *still*
            // holds the expired occupant, so this re-validation must not be
            // satisfied by a value older than the expiry we just observed
            // (§4.5). The value itself is never dereferenced.
            if untagged(w) == 0 || self.word().load(Ordering::Acquire) == w {
                return WeakSnapshotPtr::null(cs);
            }
        }
    }
}

/// Slow arm of [`AtomicWeakPtr::get_snapshot`], out of protection resources
/// (HP only): protects `src` with the reserved `acquire` word just long
/// enough to take a real strong reference if the object is still alive.
/// `Ok` with the word read when it did, `Err` with it when the word is null
/// or its object expired.
#[cold]
#[inline(never)]
fn own_if_alive<S: Scheme>(cs: &CsGuard<S>, src: &AtomicUsize) -> Result<usize, usize> {
    let (ar, t) = (cs.domain().ar(), cs.tid());
    let (w, g) = ar.acquire(t, src);
    let addr = untagged(w);
    // Safety: the acquire keeps the block allocated.
    let owned = addr != 0 && unsafe { counted::increment(addr) };
    ar.release(t, g);
    if owned {
        Ok(w)
    } else {
        Err(w)
    }
}

/// A protected view of an [`AtomicWeakPtr`]'s pointee (§4.1); see
/// [`Snapshot`] for the cost model and the no-escape invariant.
///
/// Unlike a strong [`SnapshotPtr`](crate::SnapshotPtr), the object may
/// *expire* (strong count → 0) during the snapshot's lifetime, but its
/// memory remains safely readable until the snapshot drops: disposal is
/// deferred, and held back by the protection this snapshot holds.
pub type WeakSnapshotPtr<'g, T, S> = Snapshot<'g, T, S, WeakKind>;

impl<'g, T, S: Scheme> WeakSnapshotPtr<'g, T, S> {
    /// Whether the object has expired since the snapshot was taken.
    #[inline(always)]
    pub fn expired(&self) -> bool {
        // Safety: snapshot protection keeps the control block alive.
        self.is_null() || unsafe { counted::expired(self.block()) }
    }

    /// Attempts to promote to an owned strong reference; fails if the
    /// object expired after the snapshot was taken.
    #[inline(always)]
    pub fn try_promote(&self) -> Option<SharedPtr<T, S>> {
        // Safety: control block alive under snapshot protection.
        unsafe { upgrade(self.block()) }
    }

    /// Creates an owned weak reference to the snapshotted object.
    #[inline(always)]
    pub fn to_weak(&self) -> WeakPtr<T, S> {
        // Safety: control block alive under snapshot protection, so its
        // weak count is nonzero.
        unsafe { WeakPtr::acquire(self.block()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::AtomicUsize as Std;
    use crate::{DomainRef, TaggedPtr};
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
        // On a private domain: the disposal is deferred (a weak observer),
        // and any section a sibling test holds on the global domain would
        // pin it.
        let d: DomainRef<Ebr> = DomainRef::new();
        let settle = || d.process_deferred(smr::current_tid());
        let drops = Arc::new(Std::new(0));
        let strong: Sp<Probe> = SharedPtr::new_in(Probe(Arc::clone(&drops)), &d);
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

        // On a private domain, as in the test above.
        let d: DomainRef<Ebr> = DomainRef::new();
        let drops = Arc::new(Std::new(0));
        {
            let a: Sp<Node> = SharedPtr::new_in(
                Node {
                    _name: "a",
                    next: std::cell::RefCell::new(SharedPtr::null()),
                    prev: std::cell::RefCell::new(WeakPtr::null()),
                    probe: Probe(Arc::clone(&drops)),
                },
                &d,
            );
            let b: Sp<Node> = SharedPtr::new_in(
                Node {
                    _name: "b",
                    next: std::cell::RefCell::new(SharedPtr::null()),
                    prev: std::cell::RefCell::new(WeakPtr::null()),
                    probe: Probe(Arc::clone(&drops)),
                },
                &d,
            );
            // a.next = b (strong); b.prev = a (weak): no strong cycle.
            *a.as_ref().unwrap().next.borrow_mut() = b.clone();
            *b.as_ref().unwrap().prev.borrow_mut() = a.downgrade();
            let _ = &a.as_ref().unwrap().probe;
        }
        d.process_deferred(smr::current_tid());
        assert_eq!(drops.load(Ordering::SeqCst), 2, "both nodes collected");
    }

    #[test]
    fn atomic_weak_store_load_roundtrip() {
        let strong: Sp<u32> = SharedPtr::new(5);
        let slot: Awp<u32> = AtomicWeakPtr::null();
        assert!(slot.load().is_null());
        slot.store(strong.downgrade());
        let w = slot.load();
        assert_eq!(w.upgrade().unwrap().as_ref(), Some(&5));
        slot.store(WeakPtr::null());
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
        let displaced = slot
            .compare_exchange(cur, wb.clone(), 0)
            .expect("CAS succeeds");
        assert!(displaced.ptr_eq(&wa), "displaced is the old occupant");
        drop(displaced);
        let e = slot
            .compare_exchange(cur, wa.clone(), 0)
            .expect_err("stale expected");
        assert_eq!(e.current.addr(), wb.block(), "witness names the occupant");
        assert!(e.desired.ptr_eq(&wa), "desired comes back");
        drop(e);
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
            .compare_exchange(TaggedPtr::null(), wa, 0)
            .expect_err("stale expected");
        assert_eq!(
            err.current,
            slot.load_tagged(),
            "witness names the occupant"
        );
        let wa = err.desired;
        // Owned CAS with the witness succeeds without count traffic.
        let displaced = slot
            .compare_exchange(err.current, wa, 0)
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
        slot.store(strong.downgrade());
        {
            let cs = Ebr::global_domain().cs();
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
        slot.store(strong.downgrade());
        drop(strong);
        settle();
        let cs = Ebr::global_domain().cs();
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
        slot.store(strong.downgrade());
        {
            let cs = d.cs();
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
