//! What the `SmrConfig::max_garbage` escape hatch costs while it cannot
//! help. Its own test binary: fault plans are process-global, and the scan
//! counter below would pick up the scans of any test running beside it.

use smr::{current_tid, fault, AcquireRetire, GlobalEpoch, Ibr, Retired, SmrConfig};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// A reader pinning a watermark's worth of IBR garbage must cost the
/// retiring thread one scan per `eject_threshold` retires — the frame's
/// spacing — not a clock advance and a full scan on every retire.
#[test]
fn pinned_ibr_garbage_over_the_watermark_keeps_the_scan_spacing() {
    const CAP: usize = 512;
    let cfg = SmrConfig {
        max_garbage: Some(CAP),
        ..Ibr::default_config()
    };
    let threshold = cfg.eject_threshold;
    let ibr = Arc::new(Ibr::new(Arc::new(GlobalEpoch::new()), cfg));

    // The reader: opens a section in epoch 0 and sits in it.
    let (pinned_tx, pinned_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let reader = {
        let ibr = Arc::clone(&ibr);
        std::thread::spawn(move || {
            let t = current_tid();
            ibr.begin_critical_section(t);
            pinned_tx.send(()).unwrap();
            done_rx.recv().unwrap();
            ibr.end_critical_section(t);
        })
    };
    pinned_rx.recv().unwrap();

    // Objects born in epoch 0 and retired now meet the reader's interval
    // whatever the clock does meanwhile: all of them stay pinned.
    let t = current_tid();
    let mut next = 0x1000;
    let mut retire = |n: usize| {
        for _ in 0..n {
            ibr.retire(t, Retired::new(next, 0));
            next += 0x10;
        }
    };
    retire(CAP);
    assert_eq!(ibr.eject(t), None, "the reader pins every entry");

    // A zero delay is not counted (`fault::scans_delayed` counts the scans a
    // plan actually delays), so the plan delays each by the minimum.
    let scope = fault::arm(fault::FaultPlan::delay_scan(Duration::from_nanos(1)));
    let before = fault::scans_delayed();
    retire(10 * threshold);
    let scans = fault::scans_delayed() - before;
    drop(scope);
    assert!(
        (9..=12).contains(&scans),
        "{scans} scans for {} retires past the cap; one per {threshold} is 10",
        10 * threshold
    );
    assert_eq!(ibr.eject(t), None, "still pinned");

    done_tx.send(()).unwrap();
    reader.join().unwrap();
    ibr.flush(t);
    let freed = std::iter::from_fn(|| ibr.eject(t)).count();
    assert_eq!(
        freed,
        CAP + 10 * threshold,
        "everything goes once it leaves"
    );
}
