//! Ablation (§3.4): the snapshot fast path vs the reference-count fallback.
//!
//! A thread holds `k` live snapshots of distinct locations and measures the
//! rate of taking one more. Under the hazard-pointer scheme, once `k`
//! exhausts the announcement slots, `get_snapshot` falls back to the
//! acquire + increment slow path — the mechanism behind RC (HP)'s collapse
//! in Fig. 11. Protected-region schemes (EBR here as the contrast) never
//! fall back.
//!
//! Exits nonzero if any cell is non-positive or non-finite, or if a probe
//! took the other path than the one this ablation exists to show: HP's must
//! be slow-path at `held >= 16`, EBR's fast-path at every `held`.

use std::time::Instant;

use bench::{bench_window, finish, print_header, Row};
use cdrc::{AtomicSharedPtr, Scheme, SharedPtr};

/// Prints the cell; returns whether it is a measurement and whether the
/// last probe used the fast path.
fn run<S: Scheme>(scheme: &str, held: usize) -> (bool, bool) {
    let slots: Vec<AtomicSharedPtr<u64, S>> = (0..held + 1)
        .map(|i| AtomicSharedPtr::new(SharedPtr::new(i as u64)))
        .collect();
    let domain = S::global_domain();
    let cs = domain.cs();
    // Pin `held` snapshots.
    let pinned: Vec<_> = slots[..held].iter().map(|s| s.get_snapshot(&cs)).collect();
    let fast = pinned.iter().filter(|s| s.used_fast_path()).count();
    let target = &slots[held];
    let window = bench_window();
    let started = Instant::now();
    let mut ops = 0u64;
    let mut last_fast = true;
    while started.elapsed() < window {
        for _ in 0..256 {
            let snap = target.get_snapshot(&cs);
            last_fast = snap.used_fast_path();
            std::hint::black_box(snap.as_ref());
            ops += 1;
        }
    }
    // The measured window, not the configured one: the inner loop overshoots.
    let mops = ops as f64 / started.elapsed().as_secs_f64() / 1e6;
    let ok = Row {
        figure: "ablation_snapshot".into(),
        structure: "atomic_shared_ptr".into(),
        scheme: format!("{scheme} held={held} pinned_fast={fast} probe_fast={last_fast}"),
        threads: 1,
        mops,
        extra_nodes_avg: 0,
        extra_nodes_peak: 0,
    }
    .print();
    drop(pinned);
    drop(cs);
    drop(slots);
    domain.process_deferred(smr::current_tid());
    (ok, last_fast)
}

fn main() {
    print_header();
    let mut ok = true;
    // HP has 16 try_acquire slots by default: at held=16 the probe must take
    // the slow path; EBR never does.
    for held in [0usize, 8, 15, 16, 32] {
        let (cell, probe_fast) = run::<cdrc::HpScheme>("RC (HP)", held);
        if held >= 16 && probe_fast {
            eprintln!("ablation_snapshot: RC (HP) held={held}: probe took the fast path");
            ok = false;
        }
        ok &= cell;
    }
    for held in [0usize, 16, 32] {
        let (cell, probe_fast) = run::<cdrc::EbrScheme>("RC (EBR)", held);
        if !probe_fast {
            eprintln!("ablation_snapshot: RC (EBR) held={held}: probe took the slow path");
            ok = false;
        }
        ok &= cell;
    }
    finish("ablation_snapshot", ok);
}
