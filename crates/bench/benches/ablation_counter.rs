//! Ablation (§4.3): wait-free sticky counter vs the traditional CAS-loop
//! increment-if-not-zero, under contention.
//!
//! P threads hammer one shared counter with upgrade/downgrade pairs while
//! one thread performs linearizable loads. The CAS loop degrades as P grows
//! (O(P) amortized per upgrade); the sticky counter stays flat.
//!
//! Exits nonzero if any cell is non-positive or non-finite.

use smr::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use bench::{bench_window, finish, print_header, thread_counts, Row};
use sticky::{CasCounter, Counter, StickyCounter};

fn run<C: Counter>(threads: usize) -> f64 {
    let c = C::with_count(1);
    let stop = AtomicBool::new(false);
    let ops = AtomicU64::new(0);
    let barrier = Barrier::new(threads + 1);
    let elapsed = std::thread::scope(|s| {
        for i in 0..threads {
            let c = &c;
            let stop = &stop;
            let ops = &ops;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..128 {
                        if i % 4 == 3 {
                            // A quarter of the threads read.
                            std::hint::black_box(c.load());
                        } else if c.increment_if_not_zero() {
                            c.decrement();
                        }
                        n += 1;
                    }
                }
                ops.fetch_add(n, Ordering::Relaxed);
            });
        }
        barrier.wait();
        let started = Instant::now();
        std::thread::sleep(bench_window());
        stop.store(true, Ordering::Relaxed);
        // The measured window, not the configured one: `sleep` overshoots.
        started.elapsed()
    });
    ops.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64() / 1e6
}

fn main() {
    print_header();
    let mut ok = true;
    for threads in thread_counts() {
        for (scheme, mops) in [
            ("sticky (wait-free)", run::<StickyCounter>(threads)),
            ("CAS loop", run::<CasCounter>(threads)),
        ] {
            ok &= Row {
                figure: "ablation_counter".into(),
                structure: "counter".into(),
                scheme: scheme.into(),
                threads,
                mops,
                extra_nodes_avg: 0,
                extra_nodes_peak: 0,
            }
            .print();
        }
    }
    finish("ablation_counter", ok);
}
