//! The layer ladder: single-threaded tight loops over each layer's public
//! API, median of three samples, measured inside every traced run so each
//! output file is self-contained. `sticky` → `smr` → `cdrc`; the `lockfree`
//! rung comes from the traced trials' op spans.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cdrc::{AtomicSharedPtr, AtomicWeakPtr, DomainRef, Scheme, SharedPtr};
use lockfree::{ConcurrentMap, ConcurrentQueue};
use smr::sync::atomic::{AtomicBool, AtomicUsize};
use smr::{AcquireRetire, GlobalEpoch, Retired};
use sticky::{Counter, StickyCounter};

use crate::cell::KeySpec;
use crate::driver::{map_trial, queue_trial, Plain, BATCH};
use crate::gen::OpGen;
use crate::stats::median;

/// Samples per ladder cell.
const SAMPLES: usize = 3;

/// Operations between clock reads (and, for `cdrc`, per guard — the ladder
/// re-pins as often as the workers do, so garbage keeps draining).
const CHUNK: u64 = BATCH as u64;

/// Blocks retired per `retire_eject` round.
const RETIRE_BLOCK: usize = 128;

/// Median over the samples of ns per call; one `body` makes `CHUNK` calls.
fn sample(dur: Duration, body: impl FnMut()) -> f64 {
    sample_n(dur, CHUNK, body)
}

/// As [`sample`], for a `body` that makes `calls_per_body` calls.
fn sample_n(dur: Duration, calls_per_body: u64, mut body: impl FnMut()) -> f64 {
    body(); // warm caches, thread registration, list capacity
    let mut runs = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let started = Instant::now();
        let mut calls = 0u64;
        loop {
            body();
            calls += calls_per_body;
            if started.elapsed() >= dur {
                break;
            }
        }
        runs.push(started.elapsed().as_nanos() as f64 / calls as f64);
    }
    median(&runs)
}

/// `sticky.*`: the wait-free counter under every strong and weak count.
pub fn sticky(dur: Duration, out: &mut Vec<(String, f64)>) {
    let c = StickyCounter::new(1);
    let inc_dec = sample(dur, || {
        for _ in 0..CHUNK {
            black_box(c.increment_if_not_zero());
            black_box(c.decrement());
        }
    });
    let load = sample(dur, || {
        for _ in 0..CHUNK {
            black_box(c.load());
        }
    });
    // Increments alone: a sample adds at most ~1e8, far below the 2^62 cap.
    let inc = sample(dur, || {
        for _ in 0..CHUNK {
            black_box(c.increment_if_not_zero());
        }
    });
    out.push(("sticky.inc_dec_ns".into(), inc_dec));
    out.push(("sticky.load_ns".into(), load));
    out.push(("sticky.inc_if_nonzero_ns".into(), inc));
}

/// `smr.<s>.*`: one engine instance of scheme `S`, driven directly.
pub fn smr_engine<S: AcquireRetire>(name: &str, dur: Duration, out: &mut Vec<(String, f64)>) {
    let s = S::new(Arc::new(GlobalEpoch::new()), S::default_config());
    let t = smr::current_tid();
    let section = sample(dur, || {
        for _ in 0..CHUNK {
            s.begin_critical_section(t);
            s.end_critical_section(t);
        }
    });
    // A real, live allocation: HP prefetches the pointee before announcing.
    let pointee = Box::new(0u64);
    let word = AtomicUsize::new(&*pointee as *const u64 as usize);
    let acquire = sample(dur, || {
        s.begin_critical_section(t);
        for _ in 0..CHUNK {
            let (w, g) = s.acquire(t, &word);
            black_box(w);
            s.release(t, g);
        }
        s.end_critical_section(t);
    });
    // Addresses are only compared, never dereferenced, by the engines.
    let arena = vec![0u64; RETIRE_BLOCK * 8];
    let retire_eject = sample_n(dur, RETIRE_BLOCK as u64, || {
        for slot in arena.chunks_exact(8) {
            let birth = s.birth_epoch(t);
            s.retire(t, Retired::new(slot.as_ptr() as usize, birth));
        }
        s.flush(t);
        while let Some(r) = s.eject(t) {
            black_box(r);
        }
    });
    // SAFETY: `s` is local to this function, no section is open and no
    // other thread ever saw it; the records name `arena`, which nobody frees
    // through them.
    drop(unsafe { s.drain_all() });
    out.push((format!("smr.{name}.section_ns"), section));
    out.push((format!("smr.{name}.acquire_ns"), acquire));
    out.push((format!("smr.{name}.retire_eject_ns"), retire_eject));
}

/// `cdrc.<s>.*_ns`: the pointer operations on a private domain, under a
/// guard re-taken every `CHUNK` operations.
pub fn cdrc_ptr<S: Scheme>(name: &str, dur: Duration, out: &mut Vec<(String, f64)>) {
    let d: DomainRef<S> = DomainRef::new();
    let a = SharedPtr::new_in(1u64, &d);
    let slot = AtomicSharedPtr::new_in(a.clone(), &d);
    let mut push = |op: &str, ns: f64| out.push((format!("cdrc.{name}.{op}_ns"), ns));

    push(
        "load",
        sample(dur, || {
            let _cs = d.cs();
            for _ in 0..CHUNK {
                black_box(slot.load());
            }
        }),
    );
    push(
        "snapshot",
        sample(dur, || {
            let cs = d.cs();
            for _ in 0..CHUNK {
                let snap = slot.get_snapshot(&cs);
                black_box(snap.as_ref());
            }
        }),
    );
    // Store and CAS install a fresh allocation each time, as every
    // structure does: the region schemes advance their epoch on allocation
    // only, so an allocation-free store loop would never eject and would
    // time its own growing retired list. Subtract `new_drop_ns` for the
    // pointer protocol's share.
    push(
        "store",
        sample(dur, || {
            let _cs = d.cs();
            for i in 0..CHUNK {
                slot.store(SharedPtr::new_in(i, &d));
            }
        }),
    );
    push(
        "cas",
        sample(dur, || {
            let _cs = d.cs();
            for i in 0..CHUNK {
                let seen = slot.load_tagged();
                let _ = black_box(slot.compare_exchange_owned(seen, SharedPtr::new_in(i, &d)));
            }
        }),
    );
    push(
        "new_drop",
        sample(dur, || {
            let _cs = d.cs();
            for i in 0..CHUNK {
                drop(black_box(SharedPtr::new_in(i, &d)));
            }
        }),
    );
    push(
        "clone_drop",
        sample(dur, || {
            for _ in 0..CHUNK {
                drop(black_box(a.clone()));
            }
        }),
    );
    let wslot = AtomicWeakPtr::null_in(&d);
    wslot.store_strong(&a);
    push(
        "weak_snapshot",
        sample(dur, || {
            let cs = d.weak_cs();
            for _ in 0..CHUNK {
                let snap = wslot.get_snapshot(&cs);
                black_box(snap.as_ref());
            }
        }),
    );
    let w = a.downgrade();
    push(
        "weak_upgrade",
        sample(dur, || {
            for _ in 0..CHUNK {
                drop(black_box(w.upgrade()));
            }
        }),
    );
    drop((slot, wslot, w, a));
    d.process_deferred(smr::current_tid());
    assert_eq!(d.allocated(), d.freed(), "ladder domain {name} leaked");
}

/// A structure that does nothing: what is left is the driver's own loop.
#[derive(Debug, Default)]
struct Noop;

impl ConcurrentMap<u64, u64> for Noop {
    type Guard = ();
    fn pin(&self) {}
    fn insert_with(&self, k: u64, _v: u64, _g: &()) -> bool {
        black_box(k);
        true
    }
    fn remove_with(&self, k: &u64, _g: &()) -> bool {
        black_box(k);
        true
    }
    fn get_with(&self, k: &u64, _g: &()) -> Option<u64> {
        Some(*black_box(k))
    }
    fn in_flight_nodes(&self) -> u64 {
        0
    }
}

impl ConcurrentQueue<u64> for Noop {
    type Guard = ();
    fn pin(&self) {}
    fn enqueue_with(&self, v: u64, _g: &()) {
        black_box(v);
    }
    fn dequeue_with(&self, _g: &()) -> Option<u64> {
        Some(black_box(1))
    }
}

/// `bench.loop_ns`: key generation, op dice and bookkeeping per op, measured
/// by running the workers' own loop against a no-op structure.
pub fn loop_ns(keys: Option<&KeySpec>, dur: Duration) -> f64 {
    let stop = AtomicBool::new(true); // one batch per call
    let mut gen = keys.map(|k| OpGen::new(1, k.key_space, k.dist.clone(), k.mix));
    let mut ops = 0u64;
    let mut runs = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let started = Instant::now();
        ops = 0;
        while started.elapsed() < dur {
            let t = match gen.as_mut() {
                Some(g) => map_trial(&Noop, g, 0, &stop, Plain),
                None => queue_trial(&Noop, &stop, Plain),
            };
            ops += t.attempted();
        }
        runs.push(started.elapsed().as_nanos() as f64 / ops as f64);
    }
    black_box(ops);
    median(&runs)
}

/// `bench.timer_ns`: one begin/end pair of the monotonic clock.
pub fn timer_ns(dur: Duration) -> f64 {
    sample(dur, || {
        for _ in 0..CHUNK {
            let t0 = Instant::now();
            black_box(t0.elapsed());
        }
    })
}

/// `bench.calib_mops`: a fixed dependent integer chain; its speed depends
/// on the machine's state only, so a slow reading marks a disturbed window.
pub fn calib_mops() -> f64 {
    const ITERS: u64 = 1 << 22;
    let started = Instant::now();
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..ITERS {
        // `black_box` keeps the chain serial: without it the compiler
        // composes the affine steps and the loop measures nothing.
        x = black_box(x)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    black_box(x);
    ITERS as f64 / started.elapsed().as_secs_f64() / 1e6
}
