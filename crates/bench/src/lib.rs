//! The one driver behind the six bench targets — what the repo benchmark
//! (`ledger/`) cannot run yet: the NM-tree figure (`tree`), the three
//! ablations, and the two CI gates (`adversary`, `teardown`).
//!
//! Methodology is the paper's (§5): timed multi-threaded closed loops over
//! the `lockfree` structures, measuring throughput (Mop/s) and memory
//! overhead ("extra nodes" — nodes allocated but not yet freed, beyond the
//! live working set). Workers take one guard per [`GUARD_BATCH`] operations;
//! the sampler reads the structure's garbage every [`TICK`].
//!
//! Environment knobs (all optional):
//!
//! * `BENCH_MS` — milliseconds per cell (default 300; the paper runs
//!   seconds — raise for stabler numbers);
//! * `BENCH_THREADS` — comma-separated thread counts (default: a power-of-
//!   two sweep up to 2× the hardware parallelism, exercising the paper's
//!   oversubscribed regime);
//! * `BENCH_JSON` — file the gates append one JSON line per cell to.
//!
//! The gates read their own (`ADVERSARY_MS`, `ADVERSARY_THREADS`,
//! `TEARDOWN_NODES`). Tests call the `*_for` variants with explicit
//! durations instead of mutating the process environment.

#![warn(missing_docs)]

use smr::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::thread::Scope;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use cdrc::Scheme;
use lockfree::ConcurrentMap;
use smr::fault::{self, FaultKind, FaultPlan};

/// Operations per guard re-acquisition in the worker loop: one critical
/// section amortized over a batch, the paper's methodology (§3.4) and the
/// ledger's constant.
pub const GUARD_BATCH: usize = 64;

/// Garbage sampling period; the sampler doubles as the run's timer.
pub const TICK: Duration = Duration::from_millis(10);

/// The sampler as [`timed_loop`] hands it to a script.
type Tick<'a> = &'a mut dyn FnMut() -> Option<Duration>;

/// Operation mix for a map workload, in parts per hundred. Updates are half
/// inserts, half deletes; the remainder of `100 - update_pct - rq_pct` is
/// point lookups.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Keys drawn uniformly from `[0, key_range)` (the paper uses twice the
    /// initial size).
    pub key_range: u64,
    /// Initial size — prefilled with this many random keys.
    pub initial_size: u64,
    /// Percentage of update operations (half insert, half delete).
    pub update_pct: u32,
    /// Percentage of range queries.
    pub rq_pct: u32,
    /// Keys scanned per range query (`[k, k + rq_size)`).
    pub rq_size: u64,
}

impl Workload {
    /// The paper's point-operation workload: N initial keys, key range 2N,
    /// `update_pct`% updates, rest lookups.
    pub const fn points(initial_size: u64, update_pct: u32) -> Self {
        Workload {
            key_range: initial_size * 2,
            initial_size,
            update_pct,
            rq_pct: 0,
            rq_size: 0,
        }
    }

    /// The Fig. 11 workload: 50% updates, 50% range queries of size 64 over
    /// a 100K-key tree (key range 200K).
    pub const fn fig11() -> Self {
        Workload {
            key_range: 200_000,
            initial_size: 100_000,
            update_pct: 50,
            rq_pct: 50,
            rq_size: 64,
        }
    }
}

/// One measured cell.
#[derive(Debug, Clone)]
pub struct Row {
    /// Figure / experiment id.
    pub figure: String,
    /// Data structure name.
    pub structure: String,
    /// Scheme / series name (e.g. "EBR", "RC (EBR)").
    pub scheme: String,
    /// Worker thread count.
    pub threads: usize,
    /// Millions of completed operations per second.
    pub mops: f64,
    /// Mean of sampled (in-flight − workload live set) node counts.
    pub extra_nodes_avg: u64,
    /// Peak of the same.
    pub extra_nodes_peak: u64,
}

impl Row {
    /// Prints the cell as CSV (matches [`print_header`]) and returns whether
    /// it is a measurement at all: throughput strictly positive and finite.
    pub fn print(&self) -> bool {
        let Row {
            figure,
            structure,
            scheme,
            threads,
            mops,
            extra_nodes_avg: avg,
            extra_nodes_peak: peak,
        } = self;
        println!("{figure},{structure},{scheme},{threads},{mops:.3},{avg},{peak}");
        self.mops > 0.0 && self.mops.is_finite()
    }
}

/// Prints the CSV header used by every figure and ablation target.
pub fn print_header() {
    println!("figure,structure,scheme,threads,mops,extra_nodes_avg,extra_nodes_peak");
}

/// The contract `teardown` has always had, for the figure and ablation
/// targets: exits nonzero unless every cell printed was a measurement (the
/// conjunction of [`Row::print`]) and every check of the target's own held.
pub fn finish(target: &str, ok: bool) {
    if !ok {
        eprintln!("{target}: a cell is non-positive or non-finite, or a check above failed");
        std::process::exit(1);
    }
}

/// Appends `line` to the file named by `BENCH_JSON`, if set.
pub fn emit_json(line: String) {
    use std::io::Write;
    let Ok(path) = std::env::var("BENCH_JSON") else {
        return;
    };
    let file = std::fs::File::options()
        .create(true)
        .append(true)
        .open(path);
    if let Ok(mut f) = file {
        let _ = writeln!(f, "{line}");
    }
}

/// How long each cell runs (`BENCH_MS`, default 300 ms).
pub fn bench_window() -> Duration {
    let ms = std::env::var("BENCH_MS").ok().and_then(|v| v.parse().ok());
    Duration::from_millis(ms.unwrap_or(300))
}

/// Parses a `BENCH_THREADS` value: comma-separated positive integers, at
/// least one. A sweep that is set but names no thread count is an error,
/// not an empty table.
fn parse_threads(v: &str) -> Result<Vec<usize>, String> {
    v.split(',')
        .map(|s| match s.trim().parse() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("BENCH_THREADS={v:?}: {s:?} is not a thread count")),
        })
        .collect()
}

/// The thread counts to sweep (`BENCH_THREADS`, default: powers of two up
/// to 2× hardware parallelism — the tail exercises oversubscription as in
/// the paper). Panics on a value that does not parse.
pub fn thread_counts() -> Vec<usize> {
    if let Ok(v) = std::env::var("BENCH_THREADS") {
        return parse_threads(&v).unwrap_or_else(|e| panic!("{e}"));
    }
    let hw = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut out: Vec<usize> = (0..).map(|i| 1 << i).take_while(|&n| n < 2 * hw).collect();
    out.push(2 * hw);
    out
}

/// Prefills `map` with `spec.initial_size` distinct random keys.
pub fn prefill<M: ConcurrentMap<u64, u64>>(map: &M, spec: &Workload) {
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    let mut inserted = 0;
    while inserted < spec.initial_size {
        let k = rng.gen_range(0..spec.key_range);
        if map.insert(k, k) {
            inserted += 1;
        }
    }
}

/// The one timed closed loop. `threads` workers run `spec` against `map`,
/// each re-acquiring an operation guard ([`ConcurrentMap::pin`]) every
/// [`GUARD_BATCH`] operations: the scheme's per-section fence is paid once
/// per batch while reclamation still proceeds between batches.
///
/// The calling thread is the sampler and so the timer: each `tick()` sleeps
/// one [`TICK`], records the structure's garbage (in-flight nodes beyond
/// the pre-run baseline) and yields the time since the run started, or
/// `None` once `dur` has passed. `script` gets the thread scope, the map
/// and `tick`, and may act on any tick (the adversary's fault timeline);
/// whatever ticks it leaves are drained here.
///
/// Returns Mop/s over the *measured* window (`sleep` overshoots the
/// configured one), the `(ms since start, extra nodes)` curve, and the
/// script's result.
///
/// The map must already be prefilled. The baseline the samples subtract is
/// the structure's own [`in_flight_nodes`](ConcurrentMap::in_flight_nodes)
/// at the start — the prefilled structure's real node population (trees
/// allocate ~2 nodes per key) plus any not-yet-collected prefill garbage.
/// The counter is per structure, so structures on separate domains do not
/// pollute each other's samples; ones left on a scheme's global domain
/// share that domain's counter.
fn timed_loop<M: ConcurrentMap<u64, u64>, R>(
    map: &M,
    spec: &Workload,
    threads: usize,
    dur: Duration,
    script: impl for<'s, 'e> FnOnce(&'s Scope<'s, 'e>, &'e M, Tick<'_>) -> R,
) -> (f64, Vec<(u64, u64)>, R) {
    let stop = AtomicBool::new(false);
    let total_ops = AtomicU64::new(0);
    let barrier = Barrier::new(threads + 1);
    let baseline = map.in_flight_nodes();

    let (elapsed, curve, result) = std::thread::scope(|s| {
        for tid in 0..threads {
            let (stop, total_ops, barrier) = (&stop, &total_ops, &barrier);
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xC0FFEE + tid as u64);
                barrier.wait();
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let guard = map.pin();
                    for _ in 0..GUARD_BATCH {
                        let k = rng.gen_range(0..spec.key_range);
                        let dice = rng.gen_range(0..100u32);
                        if dice < spec.update_pct {
                            // Dice parity, not key parity: keying the
                            // insert/remove choice on `k` would drive every
                            // key to a fixed state after one pass and stop
                            // the churn.
                            if dice % 2 == 0 {
                                map.insert_with(k, k, &guard);
                            } else {
                                map.remove_with(&k, &guard);
                            }
                        } else if dice < spec.update_pct + spec.rq_pct {
                            let hi = k.saturating_add(spec.rq_size);
                            map.range_with(&k, &hi, spec.rq_size as usize, &guard);
                        } else {
                            map.get_with(&k, &guard);
                        }
                        ops += 1;
                    }
                    drop(guard);
                }
                total_ops.fetch_add(ops, Ordering::Relaxed);
            });
        }
        barrier.wait();
        let started = Instant::now();
        let mut curve = Vec::new();
        let mut tick = || {
            if started.elapsed() >= dur {
                return None;
            }
            std::thread::sleep(TICK);
            let extra = map.in_flight_nodes().saturating_sub(baseline);
            let at = started.elapsed();
            curve.push((at.as_millis() as u64, extra));
            Some(at)
        };
        let result = script(s, map, &mut tick);
        while tick().is_some() {}
        stop.store(true, Ordering::Relaxed);
        // Scope joins the workers on exit; total_ops is complete after.
        (started.elapsed(), curve, result)
    });
    let mops = total_ops.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64() / 1.0e6;
    (mops, curve, result)
}

/// Runs `spec` over the prefilled `map` with `threads` workers for `dur`
/// (`timed_loop` with no script); returns (Mop/s, extra-nodes mean,
/// extra-nodes peak).
pub fn run_map_for<M: ConcurrentMap<u64, u64>>(
    map: &M,
    spec: &Workload,
    threads: usize,
    dur: Duration,
) -> (f64, u64, u64) {
    let (mops, curve, ()) = timed_loop(map, spec, threads, dur, |_, _, _| ());
    let sum: u128 = curve.iter().map(|&(_, g)| g as u128).sum();
    let peak = curve.iter().map(|&(_, g)| g).max().unwrap_or(0);
    (mops, (sum / curve.len().max(1) as u128) as u64, peak)
}

/// Runs one (structure, scheme) series over the thread sweep for the
/// configured window, printing one CSV row per thread count; returns
/// whether every cell was a measurement. `make` builds a fresh structure
/// per cell; `settle` runs after each cell (draining the default global
/// domain keeps deferred teardown work from one cell competing for CPU
/// with the next).
pub fn map_series<M: ConcurrentMap<u64, u64>>(
    figure: &str,
    structure: &str,
    scheme: &str,
    spec: &Workload,
    make: impl Fn() -> M,
    settle: impl Fn(),
) -> bool {
    let mut ok = true;
    for threads in thread_counts() {
        let map = make();
        prefill(&map, spec);
        let (mops, extra_nodes_avg, extra_nodes_peak) =
            run_map_for(&map, spec, threads, bench_window());
        drop(map);
        settle();
        ok &= Row {
            figure: figure.to_string(),
            structure: structure.to_string(),
            scheme: scheme.to_string(),
            threads,
            mops,
            extra_nodes_avg,
            extra_nodes_peak,
        }
        .print();
    }
    ok
}

/// Drains scheme `S`'s global (default) reference-counting domain.
/// Structures created with explicit domains settle themselves on `Drop`.
pub fn settle_scheme<S: Scheme>() {
    S::global_domain().process_deferred(smr::current_tid());
}

/// One adversarial run's measurements: the garbage-over-time curve a scheme
/// exhibits while a fault is active, and what recovery achieved.
#[derive(Debug, Clone)]
pub struct AdversaryOutcome {
    /// Millions of completed writer operations per second over the run.
    pub mops: f64,
    /// `(milliseconds since start, extra nodes)` samples covering the whole
    /// run: pre-fault baseline, fault window, and post-recovery tail.
    pub curve: Vec<(u64, u64)>,
    /// Garbage high-water mark over the run.
    pub garbage_peak: u64,
    /// The last sample of the run — after recovery for recoverable faults.
    pub garbage_final: u64,
    /// Whether the dead victim's slot was reclaimed; `None` for faults that
    /// kill no thread.
    pub recovered: Option<bool>,
    /// Stalls injected during this run.
    pub stalls: u64,
    /// Scans delayed during this run.
    pub scans_delayed: u64,
}

/// Drives `writers` update threads against `map` while injecting `plan`,
/// sampling per-structure unreclaimed garbage over time: `timed_loop`
/// with the fault timeline as its script.
///
/// Timeline: the plan is armed for the whole run; at `fault_at` the victim
/// thread is spawned (a stalled reader pins its section for `plan.stall`; a
/// dead-thread victim opens a section — after half-filling its decrement
/// batch, for [`FaultKind::DropMidBatch`] — then abandons its registry slot
/// and exits without unregistering). At `recover_at` the plan is disarmed
/// and, for dead-thread faults, the victim is joined — establishing the
/// happens-before edge `smr::reclaim_orphaned_slot` requires — and its slot
/// reclaimed through the registry reaper chain. Writers run until `total`.
///
/// The map is prefilled here ([`prefill`]). Faults are process-global, so
/// concurrent `run_adversarial` calls panic in [`smr::fault::arm`] — run
/// cells sequentially.
///
/// Recovery requires the map's reclamation to be reachable from the
/// registry's orphan reapers; the `cdrc` domains register themselves, so
/// use the reference-counted structures (manual structures' private engine
/// instances are not reaped).
pub fn run_adversarial<M: ConcurrentMap<u64, u64>>(
    map: &M,
    plan: FaultPlan,
    spec: &Workload,
    writers: usize,
    total: Duration,
    fault_at: Duration,
    recover_at: Duration,
) -> AdversaryOutcome {
    prefill(map, spec);
    let dies = matches!(
        plan.kind,
        FaultKind::DeadThreadInSection | FaultKind::DropMidBatch
    );
    let has_victim = dies || plan.kind == FaultKind::StalledReader;
    let stalls_before = fault::stalls_injected();
    let scans_before = fault::scans_delayed();

    let (mops, curve, recovered) = timed_loop(map, spec, writers, total, |s, map, tick| {
        // Armed only after the writers exist: arming is process-global and
        // panics on double-arm, so the scope must not outlive this run.
        let mut scope = Some(fault::arm(plan));
        let mut victim = None;
        let mut recovered = None;
        while let Some(at) = tick() {
            // Only while armed: recovery takes the handle back out of
            // `victim`, and must not make room for a second victim.
            if scope.is_some() && victim.is_none() && has_victim && at >= fault_at {
                victim = Some(s.spawn(move || {
                    if !dies {
                        // The stall fires inside `pin` (after the
                        // announcement), pinning the section for
                        // `plan.stall`; the victim then exits cleanly.
                        fault::designate_victim(smr::current_tid());
                        drop(map.pin());
                        return None;
                    }
                    let guard = map.pin();
                    if plan.kind == FaultKind::DropMidBatch {
                        // Half-fill the deferred-decrement batch: each
                        // remove of a present key displaces one reference
                        // into it.
                        for k in 0..24u64 {
                            map.insert_with(k, k, &guard);
                            map.remove_with(&k, &guard);
                        }
                    }
                    // Simulated SIGKILL: the section stays open, the slot
                    // stays claimed, no exit callback runs.
                    std::mem::forget(guard);
                    Some(smr::abandon_current_slot())
                }));
            }
            if scope.is_some() && at >= recover_at {
                scope.take();
                if dies {
                    let dead = victim.take().and_then(|h| h.join().ok().flatten());
                    // Safety: the victim was just joined, so its death
                    // happened-before this call and its slot can no longer
                    // be touched by its owner.
                    recovered =
                        Some(dead.is_some_and(|t| unsafe { smr::reclaim_orphaned_slot(t) }));
                }
            }
        }
        recovered
        // The scope joins a still-running stalled victim on exit.
    });
    AdversaryOutcome {
        mops,
        garbage_peak: curve.iter().map(|&(_, g)| g).max().unwrap_or(0),
        garbage_final: curve.last().map_or(0, |&(_, g)| g),
        curve,
        recovered,
        stalls: fault::stalls_injected() - stalls_before,
        scans_delayed: fault::scans_delayed() - scans_before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrc::{DomainRef, EbrScheme};
    use lockfree::manual::HarrisMichaelList;
    use lockfree::rc::{RcNatarajanMittalTree, RcResizableHashMap};
    use smr::Ebr;

    #[test]
    fn thread_counts_nonempty_and_sorted_unique() {
        let tc = thread_counts();
        assert!(!tc.is_empty());
        assert!(tc.iter().all(|&n| n >= 1));
    }

    #[test]
    fn thread_counts_set_but_empty_is_an_error() {
        assert_eq!(parse_threads("1, 2,8"), Ok(vec![1, 2, 8]));
        for bad in ["", "x", "2,x", "0", "4,"] {
            assert!(parse_threads(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn prefill_reaches_target() {
        let spec = Workload::points(100, 10);
        let list: HarrisMichaelList<u64, u64, Ebr> = HarrisMichaelList::new();
        prefill(&list, &spec);
        let held = (0..spec.key_range).filter(|k| list.get(k).is_some());
        assert_eq!(held.count(), 100);
    }

    // Explicit durations throughout: mutating `BENCH_MS` via `set_var`
    // raced with sibling tests under the parallel test runner.
    #[test]
    fn run_map_produces_throughput() {
        let spec = Workload::points(64, 20);
        let list: HarrisMichaelList<u64, u64, Ebr> = HarrisMichaelList::new();
        prefill(&list, &spec);
        let (mops, _, _) = run_map_for(&list, &spec, 2, Duration::from_millis(50));
        assert!(mops > 0.0);
    }

    /// Counts the calls the worker loop makes through the trait.
    struct Counting<M> {
        inner: M,
        /// insert_with, remove_with, range_with, get_with.
        calls: [AtomicU64; 4],
    }

    impl<M> Counting<M> {
        fn hit(&self, i: usize) {
            self.calls[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    impl<M: ConcurrentMap<u64, u64>> ConcurrentMap<u64, u64> for Counting<M> {
        type Guard = M::Guard;
        fn pin(&self) -> M::Guard {
            self.inner.pin()
        }
        fn insert_with(&self, k: u64, v: u64, g: &M::Guard) -> bool {
            self.hit(0);
            self.inner.insert_with(k, v, g)
        }
        fn remove_with(&self, k: &u64, g: &M::Guard) -> bool {
            self.hit(1);
            self.inner.remove_with(k, g)
        }
        fn range_with(&self, lo: &u64, hi: &u64, limit: usize, g: &M::Guard) -> Option<usize> {
            self.hit(2);
            self.inner.range_with(lo, hi, limit, g)
        }
        fn get_with(&self, k: &u64, g: &M::Guard) -> Option<u64> {
            self.hit(3);
            self.inner.get_with(k, g)
        }
        fn in_flight_nodes(&self) -> u64 {
            self.inner.in_flight_nodes()
        }
    }

    /// The one worker loop serves the range figure, the point figures and
    /// the adversary: every arm must be live and weighted as the spec says.
    #[test]
    fn worker_mix_follows_the_spec() {
        let spec = Workload {
            key_range: 512,
            initial_size: 256,
            update_pct: 40,
            rq_pct: 40,
            rq_size: 8,
        };
        let map = Counting {
            inner: RcNatarajanMittalTree::<u64, u64, EbrScheme>::new_in(DomainRef::new()),
            calls: Default::default(),
        };
        prefill(&map.inner, &spec);
        let (mops, _, _) = run_map_for(&map, &spec, 2, Duration::from_millis(50));
        assert!(mops > 0.0);
        let calls = map.calls.each_ref().map(|c| c.load(Ordering::Relaxed));
        let total: u64 = calls.iter().sum();
        for (name, n, share) in [
            ("insert_with", calls[0], 20.0),
            ("remove_with", calls[1], 20.0),
            ("range_with", calls[2], 40.0),
            ("get_with", calls[3], 20.0),
        ] {
            let got = n as f64 * 100.0 / total as f64;
            assert!(n > 0, "{name} never called");
            assert!(
                (got - share).abs() <= 10.0,
                "{name}: {got:.1}% of {total} calls, spec says {share}%"
            );
        }
    }

    /// One test exercises both adversarial scenarios *sequentially*: fault
    /// plans are process-global and `fault::arm` panics on double-arm, so a
    /// second `run_adversarial` test in this binary would race it.
    #[test]
    fn run_adversarial_smoke() {
        let spec = Workload::points(128, 100);
        // Stalled reader: the victim pins its section for 60ms mid-run.
        let map: RcResizableHashMap<u64, u64, EbrScheme> =
            RcResizableHashMap::with_capacity_in(256, DomainRef::new());
        let out = run_adversarial(
            &map,
            FaultPlan::stalled_reader(Duration::from_millis(60)),
            &spec,
            2,
            Duration::from_millis(200),
            Duration::from_millis(40),
            Duration::from_millis(150),
        );
        assert!(out.mops > 0.0, "writers made no progress under stall");
        assert!(!out.curve.is_empty(), "no garbage samples");
        assert_eq!(out.stalls, 1, "exactly one stall should fire");
        assert_eq!(out.recovered, None, "stall kills no thread");

        // Dead thread in section: the victim's slot must be reclaimed.
        let domain = DomainRef::new();
        let map: RcResizableHashMap<u64, u64, EbrScheme> =
            RcResizableHashMap::with_capacity_in(256, domain.clone());
        let out = run_adversarial(
            &map,
            FaultPlan::dead_thread_in_section(),
            &spec,
            2,
            Duration::from_millis(200),
            Duration::from_millis(40),
            Duration::from_millis(120),
        );
        assert_eq!(out.recovered, Some(true), "orphaned slot not reclaimed");
        assert!(out.mops > 0.0);
        // One victim per run: a second one spawned after the recovery point
        // would die unrecovered, its section (and so its pin) open for good.
        drop(map);
        assert_eq!(domain.pin_word().0, 1, "a section outlived recovery");
    }

    #[test]
    fn workload_constructors() {
        let w = Workload::points(1000, 10);
        assert_eq!(w.key_range, 2000);
        assert_eq!(w.rq_pct, 0);
        let f = Workload::fig11();
        assert_eq!(f.update_pct + f.rq_pct, 100);
        assert_eq!(f.rq_size, 64);
    }
}
