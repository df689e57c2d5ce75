//! Contention stress tests for the relaxed memory-ordering policy.
//!
//! The fence-discipline overhaul (see README's "Memory-ordering policy")
//! replaced blanket `SeqCst` with Acquire/Release orderings plus one
//! `fence(SeqCst)` per critical-section entry / hazard publication. These
//! tests are the tripwire an over-relaxed ordering would hit: N writer
//! threads hammer insert/remove (or store/CAS) while reader threads hold
//! snapshots under batched guards, and afterwards the domain must satisfy
//! `allocated() == freed()` — the leak/double-free invariant. A protection
//! bug (an eject racing a still-protected reader) shows up here as a
//! use-after-free crash or a `debug_assert` in the count machinery; a lost
//! deferred decrement shows up as a counter imbalance.
//!
//! Integration-test binaries run in their own process, so metering the
//! per-scheme global domains only needs the serialization mutex below.

use smr::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use cdrc::{
    AtomicSharedPtr, EbrScheme, HpScheme, HyalineScheme, IbrScheme, Scheme, SharedPtr, TaggedPtr,
};
use lockfree::rc::{RcDoubleLinkQueue, RcHarrisMichaelList};
use lockfree::{ConcurrentMap, ConcurrentQueue};

static METER: Mutex<()> = Mutex::new(());

/// Runs `f`, then drains the scheme's global domain and asserts every
/// control block the workload allocated was freed exactly once.
fn assert_balanced<S: Scheme>(f: impl FnOnce()) {
    let _g = METER.lock().unwrap();
    let d = S::global_domain();
    let t = smr::current_tid();
    // Safety: the meter mutex serializes every test in this binary; worker
    // threads of the closure are joined before it returns.
    unsafe { d.drain_and_apply_all(t) };
    let before = (d.allocated(), d.freed());
    f();
    unsafe { d.drain_and_apply_all(t) };
    let after = (d.allocated(), d.freed());
    let (allocated, freed) = (after.0 - before.0, after.1 - before.1);
    assert!(allocated > 0, "stress workload must allocate");
    assert_eq!(
        allocated, freed,
        "allocated == freed after teardown (leak or double-free otherwise)"
    );
}

/// N writers swap and CAS new objects into shared slots while readers take
/// guarded snapshots and promote some — the rawest exercise of the relaxed
/// pointer-word orderings in `cdrc::strong`.
fn slot_storm<S: Scheme>() {
    assert_balanced::<S>(|| {
        const SLOTS: usize = 8;
        let slots: Arc<Vec<AtomicSharedPtr<u64, S>>> =
            Arc::new((0..SLOTS).map(|_| AtomicSharedPtr::null()).collect());
        let done = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..3u64)
            .map(|w| {
                let slots = Arc::clone(&slots);
                std::thread::spawn(move || {
                    for i in 0..4_000u64 {
                        let slot = &slots[(w as usize + i as usize) % SLOTS];
                        if i % 3 == 0 {
                            // CAS against whatever is there; losing is fine —
                            // the reference handed back must balance.
                            let cur = slot.load_tagged();
                            let new: SharedPtr<u64, S> = SharedPtr::new(w * 1_000_000 + i);
                            // Drop the displaced value on success (deferred
                            // relinquish) and discard the witness on loss.
                            drop(slot.compare_exchange(cur, new, 0));
                        } else {
                            slot.store(SharedPtr::new(w * 1_000_000 + i));
                        }
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let slots = Arc::clone(&slots);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let d = S::global_domain();
                    while !done.load(Ordering::Relaxed) {
                        // Batched sections, as the guard API prescribes.
                        let cs = d.cs();
                        for slot in slots.iter() {
                            let snap = slot.get_snapshot(&cs);
                            if let Some(v) = snap.as_ref() {
                                assert!(*v < 3_000_000 + 4_000, "torn or stale object");
                            }
                            // Occasionally take a real reference through the
                            // snapshot (increment-under-protection path).
                            if snap.as_ref().map(|v| v % 7) == Some(0) {
                                drop(snap.to_shared());
                            }
                        }
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        // Slots dropped here retire their final occupants.
        drop(slots);
    });
}

#[test]
fn slot_storm_ebr() {
    slot_storm::<EbrScheme>();
}

#[test]
fn slot_storm_ibr() {
    slot_storm::<IbrScheme>();
}

#[test]
fn slot_storm_hp() {
    slot_storm::<HpScheme>();
}

#[test]
fn slot_storm_hyaline() {
    slot_storm::<HyalineScheme>();
}

/// N writers hammer insert/remove on one list over a small, fully shared
/// key range (maximal node churn and traversal contention) while readers
/// walk it under batched guards holding snapshots of every edge.
fn list_churn<S: Scheme>() {
    assert_balanced::<S>(|| {
        let map: Arc<RcHarrisMichaelList<u64, u64, S>> = Arc::new(RcHarrisMichaelList::new());
        let done = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..4u64)
            .map(|w| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    for i in 0..2_500u64 {
                        let k = (w * 131 + i) % 64; // shared range: real contention
                        if i % 2 == 0 {
                            map.insert(k, k);
                        } else {
                            map.remove(&k);
                        }
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let map = Arc::clone(&map);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    while !done.load(Ordering::Relaxed) {
                        let guard = map.pin();
                        for k in 0..64u64 {
                            if let Some(v) = map.get_with(&k, &guard) {
                                assert_eq!(v, k, "value read through a freed node?");
                            }
                        }
                        drop(guard);
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        drop(map);
    });
}

#[test]
fn list_churn_ebr() {
    list_churn::<EbrScheme>();
}

#[test]
fn list_churn_ibr() {
    list_churn::<IbrScheme>();
}

#[test]
fn list_churn_hp() {
    list_churn::<HpScheme>();
}

#[test]
fn list_churn_hyaline() {
    list_churn::<HyalineScheme>();
}

/// The weak-edge queue under pop/push contention: exercises the weak
/// decrements' and disposals' orderings (the Fig. 10 `prev` pointers)
/// alongside the strong ones.
fn queue_churn<S: Scheme>() {
    assert_balanced::<S>(|| {
        let q: Arc<RcDoubleLinkQueue<u64, S>> = Arc::new(RcDoubleLinkQueue::new());
        for i in 0..8u64 {
            q.enqueue(i);
        }
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let guard = q.pin();
                        if let Some(v) = q.dequeue_with(&guard) {
                            assert!(v < 8 + 4 * 2_000, "dequeued a freed value?");
                            q.enqueue_with(v, &guard);
                        }
                        if i % 64 == 0 {
                            drop(guard); // re-pin cadence of the harness
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        drop(q);
    });
}

#[test]
fn queue_churn_ebr() {
    queue_churn::<EbrScheme>();
}

#[test]
fn queue_churn_hp() {
    queue_churn::<HpScheme>();
}

/// Tag CAS paths (`fetch_or_tag`, `try_set_tag`) under racing stores: the
/// AcqRel tag linearization must never strand or duplicate a reference.
fn tag_storm<S: Scheme>() {
    assert_balanced::<S>(|| {
        let slot: Arc<AtomicSharedPtr<u64, S>> = Arc::new(AtomicSharedPtr::new(SharedPtr::new(0)));
        let hs: Vec<_> = (0..4u64)
            .map(|w| {
                let slot = Arc::clone(&slot);
                std::thread::spawn(move || {
                    for i in 0..3_000u64 {
                        match (w + i) % 3 {
                            0 => {
                                slot.store(SharedPtr::new(i));
                            }
                            1 => {
                                let cur = slot.load_tagged();
                                let _ = slot.try_set_tag(cur, 0b1);
                            }
                            _ => {
                                let cur: TaggedPtr<u64> = slot.fetch_or_tag(0b10);
                                assert!(cur.tag() <= 0b11);
                            }
                        }
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        drop(slot);
    });
}

#[test]
fn tag_storm_ebr() {
    tag_storm::<EbrScheme>();
}

#[test]
fn tag_storm_hyaline() {
    tag_storm::<HyalineScheme>();
}
