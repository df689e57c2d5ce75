//! `interleave` — a minimal vendored loom-style model checker.
//!
//! [`check`] runs a scenario closure under **every** bounded interleaving
//! of the model threads it spawns ([`thread::spawn`]), with atomic
//! operations on the [`sync::atomic`] wrapper types interpreted under an
//! operational C11 acquire/release memory model: each location keeps its
//! full modification order, each thread a view of how much of each
//! location it must observe, and loads *choose* among the coherent stale
//! stores — so Relaxed/Acquire/Release bugs that an x86 host physically
//! cannot exhibit are actually explored. A schedule is a replay tape of
//! `(choice, arity)` pairs covering both scheduling and load-value
//! choices; the driver enumerates tapes depth-first with a CHESS-style
//! preemption bound ([`Config::preemption_bound`]).
//!
//! Any panic in any thread under any schedule — assertion failures,
//! detected deadlocks, runaway loops — is reported as a [`Violation`]
//! carrying the failing tape.
//!
//! # What is deliberately approximated
//!
//! - **Modification order = execution order.** Stores to a location are
//!   appended in the order threads execute them. Because the scheduler
//!   serializes threads at every operation, distinct modification orders
//!   are still explored via distinct schedules; what is lost is only
//!   orders that no interleaving of whole operations can produce.
//! - **`SeqCst` accesses** are acquire/release plus a per-location
//!   `SeqCst` floor (an SC load may not read a store older than the
//!   newest one any SC access has fixed); the total order *S* is the
//!   execution order. SC **fences** do the full two-way view exchange.
//!   This is deliberately *not* a global synchronize at every SC op —
//!   that over-approximation would hide real acquire/release bugs, the
//!   very thing this crate exists to find.
//! - **Failed `compare_exchange`** reads the modification-order-newest
//!   store, and `compare_exchange_weak` never fails spuriously.
//! - **No data-race detection for non-atomic accesses.** Scenarios
//!   assert protocol properties (balance counters, use-after-free flags)
//!   instead.
//!
//! # Scenario discipline
//!
//! Runs are repeated thousands of times and modeled stores are *not*
//! written back to the real atomics, so scenarios must:
//!
//! - confine shared protocol state to objects created and dropped inside
//!   the closure (for this repo: instance domains, never the global
//!   domain);
//! - join every spawned thread before returning;
//! - drain any deferred per-thread work *inside* the closure (so TLS
//!   destructors that run after a model thread exits touch no modeled
//!   atomics);
//! - avoid unbounded spinning — a loop that cannot terminate without
//!   another thread being scheduled must call [`thread::yield_now`],
//!   and anything truly unbounded trips [`Config::max_ops`];
//! - be a pure function of the schedule (no time, randomness, or
//!   ambient state), or the checker reports a nondeterminism violation.
//!
//! Cross-iteration infrastructure (slot registries, test bookkeeping
//! such as freed-object flags) goes through [`exempt`], which suppresses
//! modeling for the extent of a closure.
//!
//! # Example
//!
//! ```
//! use interleave::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//!
//! // Message passing: Release store of the flag publishes the data.
//! interleave::check(|| {
//!     let data = Arc::new(AtomicUsize::new(0));
//!     let flag = Arc::new(AtomicUsize::new(0));
//!     let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
//!     let t = interleave::thread::spawn(move || {
//!         d2.store(42, Ordering::Relaxed);
//!         f2.store(1, Ordering::Release);
//!     });
//!     if flag.load(Ordering::Acquire) == 1 {
//!         assert_eq!(data.load(Ordering::Relaxed), 42);
//!     }
//!     t.join().unwrap();
//! });
//! ```

mod atomic_impl;
mod kernel;
mod thread_impl;

pub use kernel::{check, check_with, exempt, try_check, Config, Report, Violation};

/// Model-aware mirror of `std::sync`: only the `atomic` submodule is
/// provided (the repo's protocol paths use no blocking primitives).
pub mod sync {
    /// Model-aware mirror of `std::sync::atomic`.
    pub mod atomic {
        pub use crate::atomic_impl::{
            fence, AtomicBool, AtomicIsize, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering,
        };
    }
}

/// Model-aware mirror of `std::thread` (spawn / join / yield only).
pub mod thread {
    pub use crate::thread_impl::{spawn, yield_now, JoinHandle};
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{fence, AtomicUsize, Ordering};
    use super::{thread, try_check, Config};
    use std::collections::HashSet;
    use std::sync::{Arc, Mutex};

    fn cfg(bound: Option<usize>) -> Config {
        Config {
            preemption_bound: bound,
            ..Config::default()
        }
    }

    /// Store buffering: with relaxed (or even acquire/release) accesses
    /// both threads may read 0 — the checker must find that outcome.
    #[test]
    fn store_buffering_relaxed_fails() {
        let r = try_check(cfg(None), || {
            let x = Arc::new(AtomicUsize::new(0));
            let y = Arc::new(AtomicUsize::new(0));
            let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
            let t = thread::spawn(move || {
                x2.store(1, Ordering::Relaxed);
                y2.load(Ordering::Relaxed)
            });
            y.store(1, Ordering::Relaxed);
            let rx = x.load(Ordering::Relaxed);
            let ry = t.join().unwrap();
            assert!(rx == 1 || ry == 1, "both threads read 0");
        });
        let v = r.expect_err("relaxed store buffering must be observable");
        assert!(v.message.contains("both threads read 0"), "{}", v.message);
    }

    /// Store buffering with SeqCst accesses: the 0/0 outcome is excluded.
    #[test]
    fn store_buffering_seqcst_passes() {
        let r = try_check(cfg(None), || {
            let x = Arc::new(AtomicUsize::new(0));
            let y = Arc::new(AtomicUsize::new(0));
            let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
            let t = thread::spawn(move || {
                x2.store(1, Ordering::SeqCst);
                y2.load(Ordering::SeqCst)
            });
            y.store(1, Ordering::SeqCst);
            let rx = x.load(Ordering::SeqCst);
            let ry = t.join().unwrap();
            assert!(rx == 1 || ry == 1, "both threads read 0");
        });
        r.expect("SeqCst forbids the 0/0 outcome");
    }

    /// The announce idiom this repo uses on non-x86: relaxed store then a
    /// SeqCst *fence* on both sides must also exclude 0/0.
    #[test]
    fn store_buffering_fence_idiom_passes() {
        let r = try_check(cfg(None), || {
            let x = Arc::new(AtomicUsize::new(0));
            let y = Arc::new(AtomicUsize::new(0));
            let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
            let t = thread::spawn(move || {
                x2.store(1, Ordering::Relaxed);
                fence(Ordering::SeqCst);
                y2.load(Ordering::Relaxed)
            });
            y.store(1, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            let rx = x.load(Ordering::Relaxed);
            let ry = t.join().unwrap();
            assert!(rx == 1 || ry == 1, "both threads read 0");
        });
        r.expect("store;SeqCst-fence;load forbids the 0/0 outcome");
    }

    /// C++20 [atomics.order]: a load sequenced after a SeqCst fence must
    /// observe a SeqCst store that precedes the fence in S — even when the
    /// storing side has no fence of its own.
    #[test]
    fn sc_store_before_fence_orders_relaxed_load() {
        let r = try_check(cfg(None), || {
            let x = Arc::new(AtomicUsize::new(0));
            let y = Arc::new(AtomicUsize::new(0));
            let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
            let t = thread::spawn(move || {
                x2.store(1, Ordering::SeqCst);
                y2.load(Ordering::SeqCst)
            });
            y.store(1, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            let rx = x.load(Ordering::Relaxed);
            let ry = t.join().unwrap();
            assert!(rx == 1 || ry == 1, "both threads read 0");
        });
        r.expect("SC store + SC fence on the reader side forbids 0/0");
    }

    /// Message passing with release/acquire: reader seeing the flag must
    /// see the data.
    #[test]
    fn message_passing_rel_acq_passes() {
        let r = try_check(cfg(None), || {
            let data = Arc::new(AtomicUsize::new(0));
            let flag = Arc::new(AtomicUsize::new(0));
            let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
            let t = thread::spawn(move || {
                d2.store(42, Ordering::Relaxed);
                f2.store(1, Ordering::Release);
            });
            if flag.load(Ordering::Acquire) == 1 {
                assert_eq!(data.load(Ordering::Relaxed), 42, "flag without data");
            }
            t.join().unwrap();
        });
        r.expect("release/acquire message passing is sound");
    }

    /// Message passing fully relaxed: the checker must find the schedule
    /// where the flag is visible but the data is not.
    #[test]
    fn message_passing_relaxed_fails() {
        let r = try_check(cfg(None), || {
            let data = Arc::new(AtomicUsize::new(0));
            let flag = Arc::new(AtomicUsize::new(0));
            let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
            let t = thread::spawn(move || {
                d2.store(42, Ordering::Relaxed);
                f2.store(1, Ordering::Relaxed);
            });
            if flag.load(Ordering::Relaxed) == 1 {
                assert_eq!(data.load(Ordering::Relaxed), 42, "flag without data");
            }
            t.join().unwrap();
        });
        let v = r.expect_err("relaxed message passing must be broken");
        assert!(v.message.contains("flag without data"), "{}", v.message);
    }

    /// A release sequence continued through a relaxed RMW still transfers
    /// the original release view to an acquiring reader (C++20 semantics).
    #[test]
    fn release_sequence_through_rmw() {
        let r = try_check(cfg(None), || {
            let data = Arc::new(AtomicUsize::new(0));
            let flag = Arc::new(AtomicUsize::new(0));
            let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
            let (d3, f3) = (Arc::clone(&data), Arc::clone(&flag));
            let t1 = thread::spawn(move || {
                d2.store(7, Ordering::Relaxed);
                f2.store(1, Ordering::Release);
            });
            let t2 = thread::spawn(move || {
                // Relaxed RMW in the middle of the release sequence.
                f3.fetch_add(1, Ordering::Relaxed);
                let _ = d3;
            });
            if flag.load(Ordering::Acquire) == 2 {
                // Reading the RMW (value 2) must still acquire t1's release.
                assert_eq!(data.load(Ordering::Relaxed), 7, "release sequence broken");
            }
            t1.join().unwrap();
            t2.join().unwrap();
        });
        r.expect("release sequences continue through RMWs");
    }

    /// RMW atomicity: two concurrent increments never lose an update.
    #[test]
    fn fetch_add_never_loses_updates() {
        let r = try_check(cfg(None), || {
            let c = Arc::new(AtomicUsize::new(0));
            let c2 = Arc::clone(&c);
            let t = thread::spawn(move || {
                c2.fetch_add(1, Ordering::Relaxed);
            });
            c.fetch_add(1, Ordering::Relaxed);
            t.join().unwrap();
            assert_eq!(c.load(Ordering::Relaxed), 2, "lost increment");
        });
        r.expect("RMWs are atomic");
    }

    /// Join edge: everything the child did (even relaxed) is visible to
    /// the parent after join().
    #[test]
    fn join_publishes_child_writes() {
        let r = try_check(cfg(None), || {
            let d = Arc::new(AtomicUsize::new(0));
            let d2 = Arc::clone(&d);
            let t = thread::spawn(move || {
                d2.store(9, Ordering::Relaxed);
            });
            t.join().unwrap();
            assert_eq!(d.load(Ordering::Relaxed), 9, "join edge missing");
        });
        r.expect("join synchronizes with thread completion");
    }

    /// Exhaustiveness: a relaxed load concurrent with a relaxed store must
    /// observe BOTH the old and the new value across the exploration.
    #[test]
    fn explores_both_load_values() {
        let seen: Arc<Mutex<HashSet<usize>>> = Arc::new(Mutex::new(HashSet::new()));
        let seen2 = Arc::clone(&seen);
        let r = try_check(cfg(None), move || {
            let x = Arc::new(AtomicUsize::new(0));
            let x2 = Arc::clone(&x);
            let t = thread::spawn(move || {
                x2.store(1, Ordering::Relaxed);
            });
            let v = x.load(Ordering::Relaxed);
            t.join().unwrap();
            let seen3 = Arc::clone(&seen2);
            super::exempt(move || {
                seen3.lock().unwrap().insert(v);
            });
        });
        r.expect("scenario has no assertion");
        let seen = seen.lock().unwrap();
        assert_eq!(
            &*seen,
            &HashSet::from([0, 1]),
            "exploration missed a load value"
        );
    }

    /// The preemption bound actually prunes: bound 0 forbids involuntary
    /// switches, so the racy read sees only the post-join... nothing —
    /// with bound 0 the child never runs before the parent's load.
    #[test]
    fn preemption_bound_zero_is_switch_free() {
        let seen: Arc<Mutex<HashSet<usize>>> = Arc::new(Mutex::new(HashSet::new()));
        let seen2 = Arc::clone(&seen);
        let r = try_check(cfg(Some(0)), move || {
            let x = Arc::new(AtomicUsize::new(0));
            let x2 = Arc::clone(&x);
            let t = thread::spawn(move || {
                x2.store(1, Ordering::Relaxed);
            });
            let v = x.load(Ordering::Relaxed);
            t.join().unwrap();
            let seen3 = Arc::clone(&seen2);
            super::exempt(move || {
                seen3.lock().unwrap().insert(v);
            });
        });
        r.expect("bound-0 run");
        // With no preemptions the parent runs to its join before the child
        // starts, so the load can only see the initial value.
        assert_eq!(&*seen.lock().unwrap(), &HashSet::from([0]));
    }

    /// Deadlock detection: self-inflicted lost-wakeup (a thread joins a
    /// thread that joins it back is impossible here, so block via a spin
    /// that never yields the token is max_ops instead) — use two joiners.
    #[test]
    fn detects_runaway_spin() {
        let r = try_check(
            Config {
                preemption_bound: Some(1),
                max_ops: 500,
                ..Config::default()
            },
            || {
                let x = Arc::new(AtomicUsize::new(0));
                let x2 = Arc::clone(&x);
                let t = thread::spawn(move || {
                    // Never set by anyone: unbounded spin.
                    while x2.load(Ordering::Relaxed) == 0 {}
                });
                x.store(0, Ordering::Relaxed);
                t.join().unwrap();
            },
        );
        let v = r.expect_err("unbounded spin must be reported");
        assert!(v.message.contains("max_ops"), "{}", v.message);
    }

    /// Three threads, still exhaustive under a small bound.
    #[test]
    fn three_thread_counter() {
        let r = try_check(cfg(Some(2)), || {
            let c = Arc::new(AtomicUsize::new(0));
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let c2 = Arc::clone(&c);
                    thread::spawn(move || {
                        c2.fetch_add(1, Ordering::AcqRel);
                    })
                })
                .collect();
            c.fetch_add(1, Ordering::AcqRel);
            for h in hs {
                h.join().unwrap();
            }
            assert_eq!(c.load(Ordering::Acquire), 3);
        });
        r.expect("three-way counter is exact");
    }
}
