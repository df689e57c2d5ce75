//! Panic safety of the critical-section guards, across all four schemes: a
//! panic raised while a guard is live (and while the thread's deferred-
//! decrement batch is half full) must still exit the section during the
//! unwind — never stranding an open announcement that would pin every other
//! thread's garbage forever — and everything deferred must remain
//! reclaimable afterwards, down to `allocated() == freed()`.
//!
//! Collection is deliberately *skipped* while unwinding (applying deferred
//! operations runs user destructors, and a second panic would abort), so
//! these tests also check that the skipped work is merely deferred, not
//! lost: the next natural flush after `catch_unwind` drains it.

//!
//! The same holds one level up: a key whose `Ord::cmp` panics in the middle
//! of a list traversal unwinds through live snapshots, and every hazard
//! slot they held must come back.

use std::cell::Cell;
use std::cmp::Ordering;
use std::panic::{catch_unwind, AssertUnwindSafe};

use cdrc::{
    AtomicSharedPtr, AtomicWeakPtr, CsGuard, DomainRef, EbrScheme, HpScheme, HyalineScheme,
    IbrScheme, Scheme, SharedPtr,
};
use lockfree::rc::{RcHarrisMichaelList, RcResizableHashMap};
use lockfree::ConcurrentMap;

/// Drains a domain after the panic has been caught (single-threaded here,
/// so exclusive access holds).
fn drain<S: Scheme>(d: &DomainRef<S>) {
    // Safety: every test below is single-threaded and owns its domain.
    unsafe { d.drain_and_apply_all(smr::current_tid()) };
}

/// Panic while holding a strong section guard with a half-full decrement
/// batch: the guard's unwind drop must close the section, and the batched
/// entries must survive to the next flush.
fn panic_under_strong_guard<S: Scheme>() {
    let d: DomainRef<S> = DomainRef::new();
    let slot: AtomicSharedPtr<u64, S> = AtomicSharedPtr::null_in(&d);
    let err = catch_unwind(AssertUnwindSafe(|| {
        let guard = d.cs();
        // Each displacing store batches one deferred strong decrement;
        // fewer than the batch capacity, so nothing has flushed yet.
        for i in 0..8 {
            slot.store(SharedPtr::new_in(i, &d));
        }
        let _ = &guard;
        panic!("injected panic under CsGuard");
    }));
    assert!(err.is_err(), "the panic must propagate");

    // The section must be closed: a quiescent-dependent fast path (direct
    // batch application) only fires when no section is open anywhere, and
    // reclamation overall must converge. If the unwind had stranded the
    // announcement, the drain below would leave the 8 displaced blocks
    // (plus the final occupant) alive forever.
    slot.store(SharedPtr::null());
    drop(slot);
    drop(d.clone()); // exercise the handle-drop path post-panic too
    drain(&d);
    assert_eq!(
        d.allocated(),
        d.freed(),
        "{}: garbage stranded by a panic under a strong guard",
        <S as smr::AcquireRetire>::scheme_name()
    );
}

/// Panic while holding a *full* (weak) section guard, with weak pointers in
/// play: both the weak and dispose announcements must unwind closed.
fn panic_under_weak_guard<S: Scheme>() {
    let d: DomainRef<S> = DomainRef::new();
    let strong: AtomicSharedPtr<u64, S> = AtomicSharedPtr::null_in(&d);
    let weak: AtomicWeakPtr<u64, S> = AtomicWeakPtr::null_in(&d);
    let err = catch_unwind(AssertUnwindSafe(|| {
        let guard = d.cs();
        let v = SharedPtr::new_in(7u64, &d);
        weak.store(v.downgrade());
        strong.store(v);
        let _ = &guard;
        panic!("injected panic under a full CsGuard");
    }));
    assert!(err.is_err());
    strong.store(SharedPtr::null());
    weak.store(cdrc::WeakPtr::null());
    drop((strong, weak));
    drain(&d);
    assert_eq!(
        d.allocated(),
        d.freed(),
        "garbage stranded by a panic under a weak guard"
    );
}

/// A fresh section on the same thread still works after a panic unwound an
/// earlier one (announcement depth bookkeeping survived the unwind).
fn sections_reusable_after_panic<S: Scheme>() {
    let d: DomainRef<S> = DomainRef::new();
    let _ = catch_unwind(AssertUnwindSafe(|| {
        let _guard = d.cs();
        panic!("unwind through an open section");
    }));
    let slot: AtomicSharedPtr<u64, S> = AtomicSharedPtr::null_in(&d);
    {
        let _guard = d.cs();
        slot.store(SharedPtr::new_in(1, &d));
        let snap = slot.load();
        assert_eq!(snap.as_ref().copied(), Some(1));
    }
    drop(slot);
    drain(&d);
    assert_eq!(d.allocated(), d.freed());
}

thread_local! {
    /// Comparisons left before [`TripKey`]'s `cmp` panics (`None` = never).
    static FUSE: Cell<Option<u32>> = const { Cell::new(None) };
}

/// A key whose comparison panics when the calling thread's fuse runs out.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct TripKey(u64);

impl Ord for TripKey {
    fn cmp(&self, other: &Self) -> Ordering {
        match FUSE.get() {
            Some(0) => {
                FUSE.set(None);
                panic!("injected panic in Ord::cmp");
            }
            left => FUSE.set(left.map(|n| n - 1)),
        }
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for TripKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Panics `K::cmp` at comparison `hop` of a `get_with`, an `insert_with`
/// and a `remove_with`, repeatedly and under one guard (so leaked hazard
/// slots would add up past what a thread owns): each unwind passes through
/// the traversal's live snapshots. Afterwards the thread still owns every
/// hazard slot, a fresh traversal works, and the domain balances.
fn panic_in_cmp_mid_traversal<S, M>(make: impl FnOnce(DomainRef<S>) -> M, hop: u32)
where
    S: Scheme,
    M: ConcurrentMap<TripKey, u64, Guard = CsGuard<S>>,
{
    const KEYS: u64 = 48;
    let d: DomainRef<S> = DomainRef::new();
    let map = make(d.clone());
    for k in 0..KEYS {
        assert!(map.insert(TripKey(k), k));
    }
    let target = TripKey(KEYS - 1);
    let slots = S::default_config().hp_slots;
    {
        let guard = map.pin();
        for _ in 0..slots {
            let ops: [&dyn Fn(); 3] = [
                &|| {
                    map.get_with(&target, &guard);
                },
                &|| {
                    map.insert_with(target, 0, &guard);
                },
                &|| {
                    map.remove_with(&target, &guard);
                },
            ];
            for op in ops {
                FUSE.set(Some(hop));
                let unwound = catch_unwind(AssertUnwindSafe(op));
                assert!(unwound.is_err(), "the comparison must panic mid-traversal");
            }
        }
        // Every hazard slot is free again: as many snapshots as a thread
        // has slots all take the count-free path.
        let cells: Vec<AtomicSharedPtr<u64, S>> = (0..slots as u64)
            .map(|i| AtomicSharedPtr::new_in(SharedPtr::new_in(i, &d), &d))
            .collect();
        let snaps: Vec<_> = cells.iter().map(|c| c.get_snapshot(&guard)).collect();
        assert!(
            snaps.iter().all(|s| s.used_fast_path()),
            "{}: a hazard slot leaked through an unwinding traversal",
            <S as smr::AcquireRetire>::scheme_name()
        );
        drop(snaps);
        assert_eq!(map.get_with(&target, &guard), Some(KEYS - 1));
        assert!(map.remove_with(&target, &guard));
        assert!(map.insert_with(target, 7, &guard));
    }
    drop(map);
    drain(&d);
    assert_eq!(d.allocated(), d.freed(), "garbage stranded by the unwinds");
}

macro_rules! scheme_tests {
    ($name:ident, $s:ty) => {
        mod $name {
            use super::*;

            #[test]
            fn strong_guard() {
                panic_under_strong_guard::<$s>();
            }

            #[test]
            fn weak_guard() {
                panic_under_weak_guard::<$s>();
            }

            #[test]
            fn reusable_after() {
                sections_reusable_after_panic::<$s>();
            }

            #[test]
            fn cmp_panics_mid_list_traversal() {
                panic_in_cmp_mid_traversal::<$s, _>(RcHarrisMichaelList::new_in, 20);
            }

            #[test]
            fn cmp_panics_mid_map_traversal() {
                // Split order compares hashes first: the key's own `cmp`
                // runs once the walk reaches the key's node.
                panic_in_cmp_mid_traversal::<$s, _>(RcResizableHashMap::new_in, 0);
            }
        }
    };
}

scheme_tests!(ebr, EbrScheme);
scheme_tests!(ibr, IbrScheme);
scheme_tests!(hp, HpScheme);
scheme_tests!(hyaline, HyalineScheme);
