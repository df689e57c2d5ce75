//! The paper's Fig. 10 in action: a doubly-linked queue whose back edges
//! are atomic *weak* pointers, so the prev/next cycle cannot leak.
//!
//! Run with: `cargo run --release --example weak_queue`
//!
//! Also demonstrates the weak-pointer API directly: upgrade, expiry, and
//! weak snapshots that stay readable while an object expires.

use cdrc::{AtomicWeakPtr, HpScheme, Scheme, SharedPtr};
use lockfree::rc::RcDoubleLinkQueue;
use lockfree::ConcurrentQueue;

// The paper powers the Fig. 12 queue with the hazard-pointer engine.
type S = HpScheme;

fn queue_demo() {
    let queue: RcDoubleLinkQueue<u64, S> = RcDoubleLinkQueue::new();
    let threads = 4u64;
    for i in 0..threads {
        queue.enqueue(i);
    }
    // Fig. 12's workload: pop one element, reinsert it, repeat — batched 32
    // pairs per guard, amortizing the per-section fence.
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let queue = &queue;
            scope.spawn(move || {
                for _ in 0..(50_000 / 32) {
                    let guard = queue.pin();
                    for _ in 0..32 {
                        loop {
                            if let Some(v) = queue.dequeue_with(&guard) {
                                queue.enqueue_with(v, &guard);
                                break;
                            }
                        }
                    }
                    drop(guard);
                }
            });
        }
    });
    let mut drained = Vec::new();
    while let Some(v) = queue.dequeue() {
        drained.push(v);
    }
    drained.sort_unstable();
    assert_eq!(drained, (0..threads).collect::<Vec<_>>());
    println!("queue conserved all {threads} elements through ~200k pop/push pairs");
}

fn weak_api_demo() {
    struct Sensor {
        id: u32,
        reading: f64,
    }
    let live: SharedPtr<Sensor, S> = SharedPtr::new(Sensor {
        id: 7,
        reading: 21.5,
    });
    // A registry slot that must not keep the sensor alive:
    let registry: AtomicWeakPtr<Sensor, S> = AtomicWeakPtr::null();
    registry.store(live.downgrade());

    // While the sensor is alive, loads upgrade fine.
    let w = registry.load();
    assert_eq!(w.upgrade().map(|p| p.as_ref().unwrap().id), Some(7));

    // A weak snapshot can outlive the last strong reference and is still
    // readable — the object is disposed only after the snapshot drops.
    {
        let cs = S::global_domain().cs();
        let snap = registry.get_snapshot(&cs);
        drop(live);
        let s = snap.as_ref().expect("still readable under snapshot");
        println!("sensor {} read {:.1} after expiry", s.id, s.reading);
        assert!(snap.expired());
        assert!(snap.try_promote().is_none(), "cannot resurrect");
    }
    S::global_domain().process_deferred(smr::current_tid());
    assert!(registry.load().upgrade().is_none());
    println!("registry slot expired cleanly — no leak, no dangling read");
}

fn main() {
    queue_demo();
    weak_api_demo();
}
