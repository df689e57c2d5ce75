//! Domain isolation: two structures on the *same scheme* with separate
//! reclamation domains must not observe each other at all.
//!
//! Before instance-scoped domains, every RC structure on a scheme shared
//! `Scheme::global_domain()`: the "extra nodes" metric was polluted across
//! structures, and — worse for the paper's memory story — an open critical
//! section on one structure pinned the *other* structure's garbage (region
//! schemes protect everything retired during a section). These tests assert
//! the isolation properties directly, for all four schemes:
//!
//! 1. each structure reports exactly its own in-flight nodes;
//! 2. an open guard on one structure does not pin reclamation on a sibling;
//! 3. after teardown, every domain satisfies `allocated() == freed()`;
//! 4. concurrent churn on sibling structures keeps all of the above true.
//!
//! Fresh domains per test mean no cross-test serialization mutex is needed —
//! which is itself the feature under test.

use std::sync::Arc;

use cdrc::{DomainRef, EbrScheme, HpScheme, HyalineScheme, IbrScheme, Scheme};
use lockfree::rc::{
    RcDoubleLinkQueue, RcHarrisMichaelList, RcNatarajanMittalTree, RcResizableHashMap,
};
use lockfree::{ConcurrentMap, ConcurrentQueue};

fn settle<S: Scheme>(d: &DomainRef<S>) {
    d.process_deferred(smr::current_tid());
}

/// Drains a domain after multi-threaded use (worker threads joined): their
/// retired lists live in per-slot state only `drain_and_apply_all` reaches.
fn drain<S: Scheme>(d: &DomainRef<S>) {
    // Safety: callers join every worker thread first, and each test owns
    // its private domains, so nobody else is using them.
    unsafe { d.drain_and_apply_all(smr::current_tid()) };
}

// ---------------------------------------------------------------------
// 1. Exact per-structure metric.
// ---------------------------------------------------------------------

fn exact_metric_two_lists<S: Scheme>() {
    let da: DomainRef<S> = DomainRef::new();
    let db: DomainRef<S> = DomainRef::new();
    let a: RcHarrisMichaelList<u64, u64, S> = RcHarrisMichaelList::new_in(da.clone());
    let b: RcHarrisMichaelList<u64, u64, S> = RcHarrisMichaelList::new_in(db.clone());

    for k in 0..100u64 {
        assert!(a.insert(k, k));
    }
    for k in 0..40u64 {
        assert!(b.insert(k, k));
    }
    settle(&da);
    settle(&db);
    assert_eq!(a.in_flight_nodes(), 100, "A meters exactly its own nodes");
    assert_eq!(b.in_flight_nodes(), 40, "B meters exactly its own nodes");

    // Churn on A must not move B's metric (and vice versa).
    for k in 0..50u64 {
        assert!(a.remove(&k));
    }
    settle(&da);
    assert_eq!(a.in_flight_nodes(), 50);
    assert_eq!(b.in_flight_nodes(), 40, "B unchanged by A's churn");

    drop(a);
    drop(b);
    assert_eq!(da.allocated(), da.freed(), "A's domain balances on drop");
    assert_eq!(db.allocated(), db.freed(), "B's domain balances on drop");
    assert_eq!(da.allocated(), 100);
    assert_eq!(db.allocated(), 40);
}

#[test]
fn exact_metric_two_lists_all_schemes() {
    exact_metric_two_lists::<EbrScheme>();
    exact_metric_two_lists::<IbrScheme>();
    exact_metric_two_lists::<HpScheme>();
    exact_metric_two_lists::<HyalineScheme>();
}

// ---------------------------------------------------------------------
// 2. An open guard on one structure does not pin the sibling's garbage.
//    (This is the property the global domain could not provide: a region
//    scheme's section pins everything retired into the same domain.)
// ---------------------------------------------------------------------

fn open_guard_does_not_pin_sibling<S: Scheme>() {
    let da: DomainRef<S> = DomainRef::new();
    let db: DomainRef<S> = DomainRef::new();
    let a: RcHarrisMichaelList<u64, u64, S> = RcHarrisMichaelList::new_in(da.clone());
    let b: RcHarrisMichaelList<u64, u64, S> = RcHarrisMichaelList::new_in(db.clone());
    assert!(a.insert(1, 1));

    // Hold A's section open (with a live operation on it for realism)...
    let guard = a.pin();
    assert_eq!(a.get_with(&1, &guard), Some(1));

    // ...while B churns through a full insert+remove cycle and settles.
    for k in 0..200u64 {
        assert!(b.insert(k, k));
    }
    for k in 0..200u64 {
        assert!(b.remove(&k));
    }
    settle(&db);
    assert_eq!(
        b.in_flight_nodes(),
        0,
        "A's open section must not pin B's reclamation ({})",
        S::scheme_name()
    );

    drop(guard);
    drop(a);
    drop(b);
    assert_eq!(da.allocated(), da.freed());
    assert_eq!(db.allocated(), db.freed());
}

#[test]
fn open_guard_does_not_pin_sibling_all_schemes() {
    open_guard_does_not_pin_sibling::<EbrScheme>();
    open_guard_does_not_pin_sibling::<IbrScheme>();
    open_guard_does_not_pin_sibling::<HpScheme>();
    open_guard_does_not_pin_sibling::<HyalineScheme>();
}

// ---------------------------------------------------------------------
// 3. Sibling epoch clocks are independent: traffic on one domain does not
//    advance the other's clock (epoch advancement was one of the shared
//    pressures the global domain leaked between structures).
// ---------------------------------------------------------------------

fn epochs_do_not_cross_advance<S: Scheme>() {
    let da: DomainRef<S> = DomainRef::new();
    let db: DomainRef<S> = DomainRef::new();
    let a: RcHarrisMichaelList<u64, u64, S> = RcHarrisMichaelList::new_in(da.clone());
    let _b: RcHarrisMichaelList<u64, u64, S> = RcHarrisMichaelList::new_in(db.clone());
    let epoch_b_before = db.epoch();
    for k in 0..500u64 {
        a.insert(k, k);
    }
    assert_eq!(
        db.epoch(),
        epoch_b_before,
        "allocations in A must not advance B's epoch clock"
    );
}

#[test]
fn epochs_do_not_cross_advance_all_schemes() {
    epochs_do_not_cross_advance::<EbrScheme>();
    epochs_do_not_cross_advance::<IbrScheme>();
    epochs_do_not_cross_advance::<HpScheme>();
    epochs_do_not_cross_advance::<HyalineScheme>();
}

// ---------------------------------------------------------------------
// 4. Concurrent churn on two same-scheme structures, each on its own
//    domain: workers hold guards on both structures in interleaved
//    batches; afterwards each domain balances independently.
// ---------------------------------------------------------------------

fn concurrent_churn_two_structures<S: Scheme>() {
    let da: DomainRef<S> = DomainRef::new();
    let db: DomainRef<S> = DomainRef::new();
    let a: Arc<RcResizableHashMap<u64, u64, S>> =
        Arc::new(RcResizableHashMap::with_capacity_in(32, da.clone()));
    let b: Arc<RcNatarajanMittalTree<u64, u64, S>> =
        Arc::new(RcNatarajanMittalTree::new_in(db.clone()));

    let hs: Vec<_> = (0..4u64)
        .map(|i| {
            let a = Arc::clone(&a);
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                for batch in 0..20u64 {
                    // Guards over *different domains* held simultaneously.
                    let ga = a.pin();
                    let gb = b.pin();
                    for j in 0..32u64 {
                        let k = (i * 131 + batch * 7 + j) % 512;
                        if j % 2 == 0 {
                            a.insert_with(k, k, &ga);
                            b.insert_with(k, k, &gb);
                        } else {
                            a.remove_with(&k, &ga);
                            b.remove_with(&k, &gb);
                        }
                    }
                }
            })
        })
        .collect();
    for h in hs {
        h.join().unwrap();
    }

    // The sentinel structure of the tree plus whatever survived churn is
    // all that may remain; drain (workers joined) and drop.
    drain(&da);
    drain(&db);
    let live_a = a.in_flight_nodes();
    let live_b = b.in_flight_nodes();
    assert_eq!(da.allocated() - da.freed(), live_a);
    assert_eq!(db.allocated() - db.freed(), live_b);

    drop(a);
    drop(b);
    drain(&da);
    drain(&db);
    assert_eq!(
        da.allocated(),
        da.freed(),
        "hash domain balances after teardown ({})",
        S::scheme_name()
    );
    assert_eq!(
        db.allocated(),
        db.freed(),
        "tree domain balances after teardown ({})",
        S::scheme_name()
    );
}

#[test]
fn concurrent_churn_two_structures_all_schemes() {
    concurrent_churn_two_structures::<EbrScheme>();
    concurrent_churn_two_structures::<IbrScheme>();
    concurrent_churn_two_structures::<HpScheme>();
    concurrent_churn_two_structures::<HyalineScheme>();
}

// ---------------------------------------------------------------------
// 5. The weak-edge queue on its own domain: full (weak) guards on one
//    queue leave a sibling queue's reclamation untouched.
// ---------------------------------------------------------------------

fn queue_isolation<S: Scheme>() {
    let da: DomainRef<S> = DomainRef::new();
    let db: DomainRef<S> = DomainRef::new();
    let qa: RcDoubleLinkQueue<u64, S> = RcDoubleLinkQueue::new_in(da.clone());
    let qb: RcDoubleLinkQueue<u64, S> = RcDoubleLinkQueue::new_in(db.clone());

    qa.enqueue(1);
    let guard = qa.pin();

    for i in 0..100u64 {
        qb.enqueue(i);
    }
    for _ in 0..100 {
        assert!(qb.dequeue().is_some());
    }
    settle(&db);
    // At rest the queue keeps two blocks: the current sentinel plus its
    // disposed predecessor, whose *memory* the sentinel's weak `prev` edge
    // legitimately holds (weak count ≥ 1). Everything else — 100 cycled
    // nodes — must have been reclaimed despite A's open section.
    assert_eq!(
        qb.domain().in_flight(),
        2,
        "A's guard must not pin B's queue nodes ({})",
        S::scheme_name()
    );

    drop(guard);
    drop(qa);
    drop(qb);
    assert_eq!(da.allocated(), da.freed());
    assert_eq!(db.allocated(), db.freed());
}

#[test]
fn queue_isolation_all_schemes() {
    queue_isolation::<EbrScheme>();
    queue_isolation::<IbrScheme>();
    queue_isolation::<HpScheme>();
    queue_isolation::<HyalineScheme>();
}

// ---------------------------------------------------------------------
// 6. Deliberate sharing still works: two lists on one explicit domain
//    meter jointly and reclaim through one machinery.
// ---------------------------------------------------------------------

#[test]
fn explicitly_shared_domain_meters_jointly() {
    let shared: DomainRef<EbrScheme> = DomainRef::new();
    let a: RcHarrisMichaelList<u64, u64, EbrScheme> = RcHarrisMichaelList::new_in(shared.clone());
    let b: RcHarrisMichaelList<u64, u64, EbrScheme> = RcHarrisMichaelList::new_in(shared.clone());
    for k in 0..30u64 {
        assert!(a.insert(k, k));
        assert!(b.insert(k, k));
    }
    settle(&shared);
    assert_eq!(a.in_flight_nodes(), 60, "shared domain meters both");
    assert_eq!(b.in_flight_nodes(), 60);
    assert!(a.domain().ptr_eq(b.domain()));
    // One guard covers both structures (same domain).
    let guard = a.pin();
    assert_eq!(a.get_with(&3, &guard), Some(3));
    assert_eq!(b.get_with(&3, &guard), Some(3));
    drop(guard);
    drop(a);
    drop(b);
    assert_eq!(shared.allocated(), shared.freed());
}

// ---------------------------------------------------------------------
// 7. Guard misuse across domains is caught in debug builds.
// ---------------------------------------------------------------------

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "foreign domain")]
fn foreign_guard_is_caught_in_debug_builds() {
    let a: RcHarrisMichaelList<u64, u64, EbrScheme> = RcHarrisMichaelList::new_in(DomainRef::new());
    let b: RcHarrisMichaelList<u64, u64, EbrScheme> = RcHarrisMichaelList::new_in(DomainRef::new());
    let guard_a = a.pin();
    // Same scheme, different domain: must be rejected.
    b.insert_with(1, 1, &guard_a);
}

// ---------------------------------------------------------------------
// 8. `in_flight` only ever over-reports under concurrent churn: it folds
//    deferred decrements in before reading the allocation counters, so a
//    racing sample can miss a decrement (counting a block twice) but never
//    miss an increment. With K nodes provably live for the whole run,
//    every sample must read >= K — the property that makes the
//    adversarial garbage curves trustworthy while a stalled reader pins
//    reclamation.
// ---------------------------------------------------------------------

fn in_flight_never_under_reports<S: Scheme>() {
    use cdrc::{AtomicSharedPtr, SharedPtr};
    use smr::sync::atomic::{AtomicBool, Ordering};

    const FLOOR: usize = 1000;
    let d: DomainRef<S> = DomainRef::new();
    // The floor: FLOOR blocks owned by this thread for the whole test.
    let live: Vec<SharedPtr<u64, S>> = (0..FLOOR as u64)
        .map(|i| SharedPtr::new_in(i, &d))
        .collect();

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let slot: AtomicSharedPtr<u64, S> = AtomicSharedPtr::null_in(&d);
                while !stop.load(Ordering::Relaxed) {
                    let _cs = d.cs();
                    // Displacing stores route the old block through the
                    // deferred-decrement path — the raciest counter traffic
                    // the domain has.
                    for i in 0..16u64 {
                        slot.store(SharedPtr::new_in(i, &d));
                    }
                    slot.store(SharedPtr::null());
                }
            });
        }
        for _ in 0..2000 {
            assert!(
                d.in_flight() >= FLOOR as u64,
                "{}: in_flight under-reported below the live floor",
                S::scheme_name()
            );
        }
        stop.store(true, Ordering::Relaxed);
    });
    drop(live);
    drain(&d);
    assert_eq!(d.allocated(), d.freed());
}

#[test]
fn in_flight_never_under_reports_all_schemes() {
    in_flight_never_under_reports::<EbrScheme>();
    in_flight_never_under_reports::<IbrScheme>();
    in_flight_never_under_reports::<HpScheme>();
    in_flight_never_under_reports::<HyalineScheme>();
}

// ---------------------------------------------------------------------
// 9. Cross-domain pointer installation panics (all builds): a foreign
//    pointer stored into a location would otherwise defer its reclamation
//    through an instance its readers never announce to.
// ---------------------------------------------------------------------

#[test]
#[should_panic(expected = "cross-domain")]
fn cross_domain_pointer_store_panics() {
    use cdrc::{AtomicSharedPtr, SharedPtr};
    let da: DomainRef<EbrScheme> = DomainRef::new();
    let db: DomainRef<EbrScheme> = DomainRef::new();
    let slot: AtomicSharedPtr<u64, EbrScheme> = AtomicSharedPtr::null_in(&da);
    slot.store(SharedPtr::new_in(7, &db));
}
