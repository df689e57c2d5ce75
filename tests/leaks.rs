//! Leak accounting: every control block allocated through a domain is freed
//! once structures are dropped and deferred work is processed.
//!
//! These tests meter the *global* per-scheme domains, so they serialize on
//! a mutex; integration-test binaries run in their own process, so no other
//! test can pollute the counters.

use std::sync::Mutex;

use cdrc::{
    AtomicSharedPtr, AtomicWeakPtr, DomainRef, EbrScheme, HpScheme, HyalineScheme, IbrScheme,
    Scheme, SharedPtr,
};
use lockfree::rc::{
    RcDoubleLinkQueue, RcHarrisMichaelList, RcNatarajanMittalTree, RcResizableHashMap,
};
use lockfree::{ConcurrentMap, ConcurrentQueue};

static METER: Mutex<()> = Mutex::new(());

fn with_meter<S: Scheme>(f: impl FnOnce()) -> (u64, u64) {
    let _g = METER.lock().unwrap();
    let d = S::global_domain();
    let t = smr::current_tid();
    // Safety: the meter mutex serializes every test in this binary (and
    // integration-test binaries are separate processes), so nobody else is
    // using this domain — including entries parked in the slots of worker
    // threads that have since exited.
    unsafe { d.drain_and_apply_all(t) };
    let before = (d.allocated(), d.freed());
    f();
    unsafe { d.drain_and_apply_all(t) };
    let after = (d.allocated(), d.freed());
    (after.0 - before.0, after.1 - before.1)
}

fn assert_balanced<S: Scheme>(f: impl FnOnce()) {
    let (allocated, freed) = with_meter::<S>(f);
    assert!(allocated > 0, "workload must allocate");
    assert_eq!(allocated, freed, "allocated == freed after teardown");
}

#[test]
fn shared_ptr_churn_balances() {
    assert_balanced::<EbrScheme>(|| {
        for i in 0..1000u64 {
            let p: SharedPtr<u64, EbrScheme> = SharedPtr::new(i);
            let q = p.clone();
            let w = p.downgrade();
            drop(p);
            assert!(w.upgrade().is_some());
            drop(q);
        }
    });
}

#[test]
fn atomic_swap_churn_balances() {
    assert_balanced::<IbrScheme>(|| {
        let slot: AtomicSharedPtr<u64, IbrScheme> = AtomicSharedPtr::null();
        for i in 0..1000u64 {
            slot.store(SharedPtr::new(i));
        }
        drop(slot);
    });
}

fn map_balances<S: Scheme, M: ConcurrentMap<u64, u64>>(make: impl FnOnce() -> M) {
    assert_balanced::<S>(|| {
        let map = make();
        for k in 0..500u64 {
            map.insert(k, k);
        }
        for k in 0..500u64 {
            if k % 2 == 0 {
                map.remove(&k);
            }
        }
        for k in 0..500u64 {
            map.get(&k);
        }
        drop(map);
    });
}

#[test]
fn rc_list_balances_all_schemes() {
    map_balances::<EbrScheme, _>(RcHarrisMichaelList::<u64, u64, EbrScheme>::new);
    map_balances::<IbrScheme, _>(RcHarrisMichaelList::<u64, u64, IbrScheme>::new);
    map_balances::<HpScheme, _>(RcHarrisMichaelList::<u64, u64, HpScheme>::new);
    map_balances::<HyalineScheme, _>(RcHarrisMichaelList::<u64, u64, HyalineScheme>::new);
}

#[test]
fn rc_tree_balances_all_schemes() {
    map_balances::<EbrScheme, _>(RcNatarajanMittalTree::<u64, u64, EbrScheme>::new);
    map_balances::<IbrScheme, _>(RcNatarajanMittalTree::<u64, u64, IbrScheme>::new);
    map_balances::<HpScheme, _>(RcNatarajanMittalTree::<u64, u64, HpScheme>::new);
    map_balances::<HyalineScheme, _>(RcNatarajanMittalTree::<u64, u64, HyalineScheme>::new);
}

#[test]
fn rc_hash_balances() {
    map_balances::<EbrScheme, _>(|| RcResizableHashMap::<u64, u64, EbrScheme>::with_capacity(64));
}

#[test]
fn rc_queue_balances_all_schemes() {
    fn run<S: Scheme>() {
        assert_balanced::<S>(|| {
            let q: RcDoubleLinkQueue<u64, S> = RcDoubleLinkQueue::new();
            for i in 0..500u64 {
                q.enqueue(i);
            }
            for _ in 0..250 {
                q.dequeue();
            }
            drop(q);
        });
    }
    run::<EbrScheme>();
    run::<IbrScheme>();
    run::<HpScheme>();
    run::<HyalineScheme>();
}

/// Walks a chain holding every snapshot — more than a thread has hazard
/// slots — so that under HP `try_acquire` misses and the overflow
/// snapshots take the slow arm (a real reference each, given back on drop),
/// for strong and for weak snapshots; region schemes never miss.
fn snapshot_slow_arm_balances<S: Scheme>() {
    struct Link<S: Scheme> {
        v: usize,
        next: AtomicSharedPtr<Link<S>, S>,
    }
    let slots = S::default_config().hp_slots;
    let n = 2 * slots + 5;
    let d: DomainRef<S> = DomainRef::new();
    let head: AtomicSharedPtr<Link<S>, S> = AtomicSharedPtr::null_in(&d);
    let observers: Vec<AtomicWeakPtr<Link<S>, S>> =
        (0..n).map(|_| AtomicWeakPtr::null_in(&d)).collect();
    for v in (0..n).rev() {
        let next = AtomicSharedPtr::new_in(head.take(), &d);
        let node = SharedPtr::new_in(Link { v, next }, &d);
        observers[v].store(node.downgrade());
        head.store(node);
    }
    let fast = |i: usize| S::PROTECTS_REGIONS || i < slots;
    {
        let cs = d.cs();
        let mut held = vec![head.get_snapshot(&cs)];
        while let Some(node) = held.last().unwrap().as_ref() {
            let next = node.next.get_snapshot(&cs);
            held.push(next);
        }
        assert_eq!(held.len(), n + 1, "n nodes and the null at the end");
        for (i, snap) in held.iter().take(n).enumerate() {
            assert_eq!(snap.as_ref().map(|node| node.v), Some(i));
            assert_eq!(snap.used_fast_path(), fast(i), "strong snapshot {i}");
        }
    }
    {
        let cs = d.cs();
        let held: Vec<_> = observers.iter().map(|w| w.get_snapshot(&cs)).collect();
        for (i, snap) in held.iter().enumerate() {
            assert_eq!(snap.as_ref().map(|node| node.v), Some(i));
            assert_eq!(snap.used_fast_path(), fast(i), "weak snapshot {i}");
        }
    }
    drop((head, observers));
    d.process_deferred(smr::current_tid());
    assert_eq!(d.allocated(), d.freed(), "slow-arm references given back");
}

#[test]
fn snapshot_slow_arm_balances_all_schemes() {
    snapshot_slow_arm_balances::<EbrScheme>();
    snapshot_slow_arm_balances::<IbrScheme>();
    snapshot_slow_arm_balances::<HpScheme>();
    snapshot_slow_arm_balances::<HyalineScheme>();
}

#[test]
fn concurrent_tree_churn_balances() {
    assert_balanced::<EbrScheme>(|| {
        let tree = std::sync::Arc::new(RcNatarajanMittalTree::<u64, u64, EbrScheme>::new());
        let hs: Vec<_> = (0..4u64)
            .map(|i| {
                let tree = std::sync::Arc::clone(&tree);
                std::thread::spawn(move || {
                    for j in 0..600u64 {
                        let k = (i * 131 + j) % 256;
                        if j % 2 == 0 {
                            tree.insert(k, k);
                        } else {
                            tree.remove(&k);
                        }
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        // Worker threads exited; their slots' retired lists are drained by
        // `process_deferred` via slot recycling + drain_all in the meter.
        drop(tree);
    });
}

#[test]
fn weak_cycle_is_collected_not_leaked() {
    struct Node {
        next: AtomicSharedPtr<Node, EbrScheme>,
        prev: cdrc::AtomicWeakPtr<Node, EbrScheme>,
    }
    assert_balanced::<EbrScheme>(|| {
        // a → b strong; b → a weak. Dropping the externals must free both.
        let a: SharedPtr<Node, EbrScheme> = SharedPtr::new(Node {
            next: AtomicSharedPtr::null(),
            prev: cdrc::AtomicWeakPtr::null(),
        });
        let b: SharedPtr<Node, EbrScheme> = SharedPtr::new(Node {
            next: AtomicSharedPtr::null(),
            prev: cdrc::AtomicWeakPtr::null(),
        });
        a.as_ref().unwrap().next.store(b.clone());
        b.as_ref().unwrap().prev.store(a.downgrade());
        drop(a);
        drop(b);
    });
}

#[test]
fn strong_cycle_leaks_as_documented() {
    // Inverse guard: a strong cycle must NOT be collected (reference
    // counting semantics) — this pins down the documented behaviour and
    // protects the weak-cycle test above from a vacuous pass.
    struct Node {
        next: AtomicSharedPtr<Node, HyalineScheme>,
    }
    let (allocated, freed) = with_meter::<HyalineScheme>(|| {
        let a: SharedPtr<Node, HyalineScheme> = SharedPtr::new(Node {
            next: AtomicSharedPtr::null(),
        });
        let b: SharedPtr<Node, HyalineScheme> = SharedPtr::new(Node {
            next: AtomicSharedPtr::null(),
        });
        a.as_ref().unwrap().next.store(b.clone());
        b.as_ref().unwrap().next.store(a.clone());
        drop(a);
        drop(b);
    });
    assert_eq!(allocated, 2);
    assert_eq!(freed, 0, "strong cycles leak by design; use weak edges");
}
