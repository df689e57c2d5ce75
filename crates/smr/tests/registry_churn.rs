//! Spawn/exit churn over the thread-slot registry: `Tid`s are recycled when
//! threads exit, and `registered_high_water_mark` tracks the highest slot
//! ever handed out (one past), monotonically, without creeping upward under
//! churn.
//!
//! Everything runs inside one `#[test]` so concurrent sibling tests cannot
//! register extra threads between phases and blur the slot accounting.

use std::collections::HashSet;
use std::sync::{Arc, Barrier};

use smr::{active_threads, current_tid, registered_high_water_mark, MAX_THREADS};

const BURST: usize = 32;
const CHURN_ROUNDS: usize = 2 * MAX_THREADS;

#[test]
fn churn_recycles_tids_and_bounds_the_high_water_mark() {
    // Register the harness thread first so the baseline is stable.
    let main_tid = current_tid();
    assert!(main_tid.index() < MAX_THREADS);
    let baseline_active = active_threads();
    assert!(baseline_active >= 1);
    let hwm0 = registered_high_water_mark();
    assert!(hwm0 >= 1, "registering a thread must raise the mark");
    assert!(
        main_tid.index() < hwm0,
        "mark is one past every handed-out slot"
    );

    // Phase 1 — sequential churn: spawn-join many short-lived threads. Each
    // thread's slot is released at exit (join waits for TLS destructors), so
    // successive threads must reuse a small pool of slots rather than
    // consuming fresh ones.
    let mut seen = HashSet::new();
    for _ in 0..CHURN_ROUNDS {
        let tid = std::thread::spawn(|| current_tid().index()).join().unwrap();
        assert!(tid < MAX_THREADS);
        assert_ne!(tid, main_tid.index(), "main thread's slot is still taken");
        seen.insert(tid);
    }
    assert!(
        seen.len() <= 4,
        "sequential churn should recycle a handful of slots, used {}",
        seen.len()
    );
    let hwm1 = registered_high_water_mark();
    assert!(hwm1 >= hwm0, "the mark is monotone");
    assert!(
        hwm1 <= hwm0 + 4,
        "churn must not consume fresh slots: {hwm0} -> {hwm1}"
    );
    assert_eq!(
        active_threads(),
        baseline_active,
        "all churn threads released"
    );

    // Phase 2 — a concurrent burst holds BURST slots simultaneously, which
    // must push the mark to at least BURST + 1 (the main thread holds one
    // more), and every in-flight Tid lies below the mark it observes.
    let gate = Arc::new(Barrier::new(BURST));
    let handles: Vec<_> = (0..BURST)
        .map(|_| {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let t = current_tid();
                gate.wait(); // all BURST threads are registered at once
                assert!(t.index() < registered_high_water_mark());
                t.index()
            })
        })
        .collect();
    let burst_tids: HashSet<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(
        burst_tids.len(),
        BURST,
        "concurrent threads get distinct slots"
    );
    let hwm2 = registered_high_water_mark();
    assert!(
        hwm2 > BURST,
        "{BURST} concurrent threads + main need > {BURST} slots"
    );
    assert!(hwm2 >= hwm1, "the mark is monotone");
    assert_eq!(active_threads(), baseline_active, "burst threads released");

    // Phase 3 — churn after the burst: the burst freed a block of low slots,
    // so renewed sequential churn reuses them and the mark must not move.
    for _ in 0..CHURN_ROUNDS {
        std::thread::spawn(|| {
            let t = current_tid();
            assert!(t.index() < registered_high_water_mark());
        })
        .join()
        .unwrap();
    }
    assert_eq!(
        registered_high_water_mark(),
        hwm2,
        "churn below the mark reuses recycled slots"
    );
    assert_eq!(active_threads(), baseline_active);

    // Phase 4 — abandoned deaths: a thread that dies without unregistering
    // leaves its slot claimed; reclaiming after each death keeps the mark
    // flat across 100 deaths instead of marching toward `MAX_THREADS`.
    let hwm3 = registered_high_water_mark();
    for _ in 0..100 {
        let dead = std::thread::spawn(|| {
            let _ = current_tid();
            smr::abandon_current_slot()
        })
        .join()
        .unwrap();
        assert!(smr::slot_in_use(dead), "abandoned slot stays claimed");
        assert!(smr::slot_abandoned(dead), "abandonment is published");
        // Safety: the owner was joined above, so its death happened-before
        // this call and it can never touch the slot again.
        assert!(unsafe { smr::reclaim_orphaned_slot(dead) });
        assert!(!smr::slot_in_use(dead), "reclaim releases the slot");
        assert!(!smr::slot_abandoned(dead), "reclaim clears the flag");
        assert!(!unsafe { smr::reclaim_orphaned_slot(dead) }, "idempotent");
    }
    assert!(
        registered_high_water_mark() <= hwm3.max(2),
        "reclaimed deaths must not consume fresh slots: {hwm3} -> {}",
        registered_high_water_mark()
    );
    assert_eq!(active_threads(), baseline_active, "deaths all reclaimed");
}
