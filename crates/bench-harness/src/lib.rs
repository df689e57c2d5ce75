//! Benchmark harness reproducing the CDRC paper's evaluation methodology
//! (§5): timed multi-threaded workloads over the `lockfree` structures,
//! measuring throughput (Mop/s) and memory overhead ("extra nodes" — nodes
//! allocated but not yet freed, beyond the live working set).
//!
//! Environment knobs (all optional):
//!
//! * `BENCH_MS` — milliseconds per (structure, scheme, threads) cell
//!   (default 300; the paper runs seconds — raise for stabler numbers);
//! * `BENCH_THREADS` — comma-separated thread counts (default: a power-of-
//!   two sweep up to 2× the hardware parallelism, exercising the paper's
//!   oversubscribed regime);
//! * `BENCH_SAMPLE_MS` — memory sampling period (default 10);
//! * `GUARD_BATCH` — operations per guard re-acquisition in the worker
//!   loops (default 64; 1 degenerates to one critical section per
//!   operation, the pre-guard-API behaviour).
//!
//! The environment knobs are read once per run by the `run_*` entry points;
//! tests and embedders should call the `*_for` variants with explicit
//! durations instead of mutating the process environment.

#![warn(missing_docs)]

use smr::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use lockfree::{ConcurrentMap, ConcurrentQueue};
use smr::fault::{self, FaultKind, FaultPlan};

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
    pub fn points(initial_size: u64, update_pct: u32) -> Self {
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
    pub fn fig11() -> Self {
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
    /// CSV form (matches [`print_header`]).
    pub fn csv(&self) -> String {
        format!(
            "{},{},{},{},{:.3},{},{}",
            self.figure,
            self.structure,
            self.scheme,
            self.threads,
            self.mops,
            self.extra_nodes_avg,
            self.extra_nodes_peak
        )
    }
}

/// Prints the CSV header used by every bench binary.
pub fn print_header() {
    println!("figure,structure,scheme,threads,mops,extra_nodes_avg,extra_nodes_peak");
}

/// Milliseconds each cell runs for (`BENCH_MS`, default 300).
pub fn bench_millis() -> u64 {
    std::env::var("BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300)
}

/// Operations per guard re-acquisition in the worker loops
/// (`GUARD_BATCH`, default 64 — the paper's methodology: one critical
/// section amortized over a batch of operations).
pub fn guard_batch() -> usize {
    std::env::var("GUARD_BATCH")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or(64)
}

fn sample_millis() -> u64 {
    std::env::var("BENCH_SAMPLE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10)
}

/// The thread counts to sweep (`BENCH_THREADS`, default: powers of two up
/// to 2× hardware parallelism — the tail exercises oversubscription as in
/// the paper).
pub fn thread_counts() -> Vec<usize> {
    if let Ok(v) = std::env::var("BENCH_THREADS") {
        return v
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .filter(|&n| n > 0)
            .collect();
    }
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut out = vec![1];
    let mut n = 2;
    while n < 2 * hw {
        out.push(n);
        n *= 2;
    }
    out.push(2 * hw);
    out.dedup();
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

/// Runs `spec` over `map` with `threads` workers for the configured
/// (`BENCH_MS`) duration; returns (Mop/s, extra-nodes mean, extra-nodes
/// peak). See [`run_map_for`] for an explicit duration.
pub fn run_map<M: ConcurrentMap<u64, u64>>(
    map: &M,
    spec: &Workload,
    threads: usize,
) -> (f64, u64, u64) {
    run_map_for(map, spec, threads, Duration::from_millis(bench_millis()))
}

/// Runs `spec` over `map` with `threads` workers for `dur`; returns
/// (Mop/s, extra-nodes mean, extra-nodes peak).
///
/// Worker loops are *guard-batched*: each worker re-acquires an operation
/// guard ([`ConcurrentMap::pin`]) every [`guard_batch`] operations (default
/// 64, the paper's methodology), amortizing the scheme's per-critical-
/// section fence while still letting reclamation proceed between batches.
///
/// The map must already be prefilled with `spec.initial_size` keys. The
/// "extra nodes" samples read the structure's own
/// [`in_flight_nodes`](ConcurrentMap::in_flight_nodes) and subtract its
/// value at the start of the run — the prefilled structure's real node
/// population (trees allocate ~2 nodes per key, so `initial_size` itself
/// would be wrong). The counter is per structure: each structure meters its
/// own reclamation domain (private [`NodeStats`](lockfree::NodeStats) for
/// the manual variants), so the baseline is exactly this structure's live
/// set, and structures on *separate* domains may run concurrently on one
/// scheme without polluting each other's samples. (Structures left on a
/// scheme's global default domain still share that domain's counter —
/// build them with the `new_in`/`with_capacity_in` constructors for
/// isolation.)
pub fn run_map_for<M: ConcurrentMap<u64, u64>>(
    map: &M,
    spec: &Workload,
    threads: usize,
    dur: Duration,
) -> (f64, u64, u64) {
    let batch = guard_batch();
    let stop = AtomicBool::new(false);
    let total_ops = AtomicU64::new(0);
    let barrier = Barrier::new(threads + 1);
    // The structure's node count right after prefill: live set plus any
    // not-yet-collected prefill garbage, all of it this structure's own.
    let live_set = map.in_flight_nodes();

    let (elapsed, sum, peak, samples) = std::thread::scope(|s| {
        for tid in 0..threads {
            let stop = &stop;
            let total_ops = &total_ops;
            let barrier = &barrier;
            let map = &map;
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xC0FFEE + tid as u64);
                barrier.wait();
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // One guard per batch: the per-section fence is paid
                    // once for `batch` operations (§3.4).
                    let guard = map.pin();
                    for _ in 0..batch {
                        let k = rng.gen_range(0..spec.key_range);
                        let dice = rng.gen_range(0..100u32);
                        if dice < spec.update_pct {
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
        // Sampler doubles as the timer.
        barrier.wait();
        let started = Instant::now();
        let tick = Duration::from_millis(sample_millis());
        let mut sum = 0u128;
        let mut peak = 0u64;
        let mut samples = 0u64;
        while started.elapsed() < dur {
            std::thread::sleep(tick);
            let extra = map.in_flight_nodes().saturating_sub(live_set);
            sum += extra as u128;
            peak = peak.max(extra);
            samples += 1;
        }
        stop.store(true, Ordering::Relaxed);
        let elapsed = started.elapsed();
        // Scope joins the workers on exit; total_ops is complete after.
        (elapsed, sum, peak, samples)
    });
    let mops = total_ops.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64() / 1.0e6;
    let avg = (sum / samples.max(1) as u128) as u64;
    (mops, avg, peak)
}

/// Runs the Fig. 12 workload for the configured (`BENCH_MS`) duration; see
/// [`run_queue_for`].
pub fn run_queue<Q: ConcurrentQueue<u64>>(queue: &Q, threads: usize) -> f64 {
    run_queue_for(queue, threads, Duration::from_millis(bench_millis()))
}

/// Runs the Fig. 12 workload for `dur`: each thread repeatedly pops an
/// element and reinserts it; the queue is seeded with one element per
/// thread. Returns Mop/s over the *measured* elapsed time (each pop+push
/// pair counts as two operations, matching the paper's "operations per
/// second").
///
/// Workers re-acquire an operation guard ([`ConcurrentQueue::pin`]) every
/// [`guard_batch`] operations (each pop+push pair is two), as in
/// [`run_map_for`]. A batch of 1 drives the guard-free wrappers directly —
/// one critical section per *operation*, two per pair — so it is a faithful
/// baseline for what unbatched callers pay.
pub fn run_queue_for<Q: ConcurrentQueue<u64>>(queue: &Q, threads: usize, dur: Duration) -> f64 {
    let batch = guard_batch();
    for i in 0..threads as u64 {
        queue.enqueue(i);
    }
    let pairs_per_batch = (batch / 2).max(1);
    let unbatched = batch <= 1;
    let stop = AtomicBool::new(false);
    let total_ops = AtomicU64::new(0);
    let barrier = Barrier::new(threads + 1);
    let elapsed = std::thread::scope(|s| {
        for _ in 0..threads {
            let stop = &stop;
            let total_ops = &total_ops;
            let barrier = &barrier;
            let queue = &queue;
            s.spawn(move || {
                barrier.wait();
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if unbatched {
                        loop {
                            if let Some(v) = queue.dequeue() {
                                queue.enqueue(v);
                                ops += 2;
                                break;
                            }
                        }
                    } else {
                        let guard = queue.pin();
                        for _ in 0..pairs_per_batch {
                            loop {
                                if let Some(v) = queue.dequeue_with(&guard) {
                                    queue.enqueue_with(v, &guard);
                                    ops += 2;
                                    break;
                                }
                            }
                        }
                        drop(guard);
                    }
                }
                total_ops.fetch_add(ops, Ordering::Relaxed);
            });
        }
        barrier.wait();
        let started = Instant::now();
        std::thread::sleep(dur);
        stop.store(true, Ordering::Relaxed);
        // Divide by the *measured* window, as `run_map` does: `sleep` can
        // overshoot `dur` arbitrarily on a loaded machine, and dividing by
        // the configured duration overstated throughput by that overshoot.
        started.elapsed()
        // Scope joins the workers on exit; total_ops is complete after.
    });
    total_ops.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64() / 1.0e6
}

/// Sub-bucket resolution of [`LatencyHistogram`]: 2^5 = 32 sub-buckets per
/// power of two, bounding the relative quantization error at 1/32 ≈ 3%.
const HIST_SUB_BITS: u32 = 5;
const HIST_SUB: usize = 1 << HIST_SUB_BITS;
/// Values below 2^6 land in exact unit buckets (the first two "rows");
/// above that, each power of two gets [`HIST_SUB`] log-spaced sub-buckets,
/// up to the full `u64` range.
const HIST_BUCKETS: usize = (64 - HIST_SUB_BITS as usize) * HIST_SUB;

/// HDR-style log-bucketed latency histogram: fixed footprint, O(1)
/// `record`, ≤ ~3% relative error on reported quantiles.
///
/// Values (nanoseconds, in the service bench) below 64 are counted
/// exactly; a value in `[2^m, 2^{m+1})` falls into one of 32 sub-buckets
/// of width `2^{m-5}`, so the bucket's upper edge — what
/// [`percentile`](Self::percentile) reports — overstates the true value by
/// at most one part in 32. This is the same bucketing HdrHistogram uses
/// with 5 significant-value bits, rebuilt here because the build
/// environment vendors no external crates.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; HIST_BUCKETS]>,
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram (~15 KiB of buckets).
    pub fn new() -> Self {
        LatencyHistogram {
            counts: Box::new([0u64; HIST_BUCKETS]),
            total: 0,
        }
    }

    #[inline]
    fn index(v: u64) -> usize {
        if v < (2 * HIST_SUB) as u64 {
            return v as usize;
        }
        let m = 63 - v.leading_zeros(); // v >= 64, so m >= 6
        let sub = (v >> (m - HIST_SUB_BITS)) as usize - HIST_SUB;
        (m as usize - (HIST_SUB_BITS as usize - 1)) * HIST_SUB + sub
    }

    /// Upper edge of bucket `i` — the value [`percentile`](Self::percentile)
    /// reports for samples in it.
    fn bucket_high(i: usize) -> u64 {
        if i < 2 * HIST_SUB {
            return i as u64;
        }
        let m = (i / HIST_SUB + HIST_SUB_BITS as usize - 1) as u32;
        let sub = (i % HIST_SUB) as u64;
        let width = 1u64 << (m - HIST_SUB_BITS);
        (HIST_SUB as u64 + sub) * width + (width - 1)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Folds `other` into `self` (per-thread histograms merge after join).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The value at quantile `p` (in percent, e.g. `99.9`): the smallest
    /// bucket upper edge such that at least `p`% of samples fall at or
    /// below it. Returns 0 on an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_high(i);
            }
        }
        Self::bucket_high(HIST_BUCKETS - 1)
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.total)
            .field("p50", &self.percentile(50.0))
            .field("p99", &self.percentile(99.0))
            .field("p999", &self.percentile(99.9))
            .finish()
    }
}

/// Operation mix for the kv-store service workload, in parts per hundred.
/// Must sum to 100; the driver asserts it.
#[derive(Debug, Clone, Copy)]
pub struct ServiceMix {
    /// Percentage of point lookups.
    pub get_pct: u32,
    /// Percentage of inserts/overwrites (an insert that loses to a present
    /// key counts as a completed put — kv-store "upsert" semantics are
    /// approximated by insert-if-absent here, as in the paper's workloads).
    pub put_pct: u32,
    /// Percentage of deletes.
    pub del_pct: u32,
}

impl ServiceMix {
    /// A read-heavy cache-like mix: 90% get, 5% put, 5% delete.
    pub fn read_heavy() -> Self {
        ServiceMix {
            get_pct: 90,
            put_pct: 5,
            del_pct: 5,
        }
    }

    /// An update-heavy session-store mix: 50% get, 30% put, 20% delete.
    pub fn update_heavy() -> Self {
        ServiceMix {
            get_pct: 50,
            put_pct: 30,
            del_pct: 20,
        }
    }
}

/// One measured service-bench cell: throughput plus tail latency and the
/// garbage high-water mark.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Millions of completed operations per second.
    pub mops: f64,
    /// Completed operations.
    pub ops: u64,
    /// Median per-operation latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile latency, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile latency, nanoseconds.
    pub p999_ns: u64,
    /// Mean of sampled (in-flight − post-prefill baseline) node counts.
    pub garbage_avg: u64,
    /// Peak of the same — the garbage high-water mark.
    pub garbage_peak: u64,
}

/// Runs the kv-store service workload for the configured (`BENCH_MS`)
/// duration; see [`run_service_for`].
pub fn run_service<M: ConcurrentMap<u64, u64>>(
    map: &M,
    keys: u64,
    theta: f64,
    mix: ServiceMix,
    threads: usize,
) -> ServiceReport {
    run_service_for(
        map,
        keys,
        theta,
        mix,
        threads,
        Duration::from_millis(bench_millis()),
    )
}

/// Long-running kv-store driver: `threads` workers issue a
/// get/put/delete `mix` against `map` for `dur`, with keys drawn from a
/// zipfian distribution over `0..keys` at skew `theta` (0 = uniform, 0.99
/// = YCSB's heavy default). Every operation is individually timed into a
/// per-thread [`LatencyHistogram`]; histograms merge after join, so the
/// tails include any stall a worker actually experienced.
///
/// The map is prefilled here (every key present, so the steady state is
/// hit-dominated), and the garbage samples subtract the post-prefill
/// baseline, as in [`run_map_for`]. Worker loops are guard-batched per
/// [`guard_batch`], but latency brackets each *operation*, not the batch.
pub fn run_service_for<M: ConcurrentMap<u64, u64>>(
    map: &M,
    keys: u64,
    theta: f64,
    mix: ServiceMix,
    threads: usize,
    dur: Duration,
) -> ServiceReport {
    assert_eq!(
        mix.get_pct + mix.put_pct + mix.del_pct,
        100,
        "service mix must sum to 100"
    );
    let batch = guard_batch();
    // One generator shared by every worker: construction is O(keys) and
    // sampling takes `&self`.
    let zipf = rand::distributions::Zipf::new(keys, theta);
    {
        let guard = map.pin();
        for k in 0..keys {
            map.insert_with(k, k, &guard);
        }
    }
    let baseline = map.in_flight_nodes();

    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(threads + 1);
    let (elapsed, hist, g_sum, g_peak, g_samples) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|tid| {
                let stop = &stop;
                let barrier = &barrier;
                let map = &map;
                let zipf = &zipf;
                s.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0x5E12_71CE + tid as u64);
                    let mut hist = LatencyHistogram::new();
                    barrier.wait();
                    while !stop.load(Ordering::Relaxed) {
                        let guard = map.pin();
                        for _ in 0..batch {
                            let k = zipf.sample(&mut rng);
                            let dice = rng.gen_range(0..100u32);
                            let t0 = Instant::now();
                            if dice < mix.get_pct {
                                map.get_with(&k, &guard);
                            } else if dice < mix.get_pct + mix.put_pct {
                                map.insert_with(k, k, &guard);
                            } else {
                                map.remove_with(&k, &guard);
                            }
                            hist.record(t0.elapsed().as_nanos() as u64);
                        }
                        drop(guard);
                    }
                    hist
                })
            })
            .collect();
        // Sampler doubles as the timer, as in `run_map_for`.
        barrier.wait();
        let started = Instant::now();
        let tick = Duration::from_millis(sample_millis());
        let mut g_sum = 0u128;
        let mut g_peak = 0u64;
        let mut g_samples = 0u64;
        while started.elapsed() < dur {
            std::thread::sleep(tick);
            let extra = map.in_flight_nodes().saturating_sub(baseline);
            g_sum += extra as u128;
            g_peak = g_peak.max(extra);
            g_samples += 1;
        }
        stop.store(true, Ordering::Relaxed);
        let elapsed = started.elapsed();
        let mut hist = LatencyHistogram::new();
        for w in workers {
            hist.merge(&w.join().expect("service worker panicked"));
        }
        (elapsed, hist, g_sum, g_peak, g_samples)
    });
    ServiceReport {
        mops: hist.count() as f64 / elapsed.as_secs_f64() / 1.0e6,
        ops: hist.count(),
        p50_ns: hist.percentile(50.0),
        p99_ns: hist.percentile(99.0),
        p999_ns: hist.percentile(99.9),
        garbage_avg: (g_sum / g_samples.max(1) as u128) as u64,
        garbage_peak: g_peak,
    }
}

// ---------------------------------------------------------------------
// Adversarial fault-injection driver
// ---------------------------------------------------------------------

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
/// sampling per-structure unreclaimed garbage over time.
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
/// The map is prefilled here ([`prefill`]); samples subtract the
/// post-prefill baseline as in [`run_map_for`]. Faults are
/// process-global, so concurrent `run_adversarial` calls panic in
/// [`smr::fault::arm`] — run cells sequentially.
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
    let batch = guard_batch();
    prefill(map, spec);
    let baseline = map.in_flight_nodes();
    let has_victim = matches!(
        plan.kind,
        FaultKind::StalledReader | FaultKind::DeadThreadInSection | FaultKind::DropMidBatch
    );
    let needs_reclaim = matches!(
        plan.kind,
        FaultKind::DeadThreadInSection | FaultKind::DropMidBatch
    );
    let stalls_before = fault::stalls_injected();
    let scans_before = fault::scans_delayed();

    let stop = AtomicBool::new(false);
    let total_ops = AtomicU64::new(0);
    let barrier = Barrier::new(writers + 1);
    let (tx, rx) = std::sync::mpsc::channel::<smr::Tid>();

    let (elapsed, curve, peak, recovered) = std::thread::scope(|s| {
        for tid in 0..writers {
            let stop = &stop;
            let total_ops = &total_ops;
            let barrier = &barrier;
            let map = &map;
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0x0ADE_5A27 + tid as u64);
                barrier.wait();
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let guard = map.pin();
                    for _ in 0..batch {
                        let k = rng.gen_range(0..spec.key_range);
                        let dice = rng.gen_range(0..100u32);
                        if dice < spec.update_pct {
                            // Dice parity, not key parity: keying the
                            // insert/remove choice on `k` would drive every
                            // key to a fixed state after one pass and stop
                            // the churn the fault is supposed to strand.
                            if dice % 2 == 0 {
                                map.insert_with(k, k, &guard);
                            } else {
                                map.remove_with(&k, &guard);
                            }
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
        // Armed only after the writers exist: arming is process-global and
        // panics on double-arm, so the scope must not outlive this run.
        let mut scope = Some(fault::arm(plan));
        let started = Instant::now();
        let tick = Duration::from_millis(sample_millis());
        let mut curve = Vec::new();
        let mut peak = 0u64;
        let mut victim = None;
        let mut recovered = None;
        while started.elapsed() < total {
            std::thread::sleep(tick);
            let extra = map.in_flight_nodes().saturating_sub(baseline);
            curve.push((started.elapsed().as_millis() as u64, extra));
            peak = peak.max(extra);
            if victim.is_none() && has_victim && started.elapsed() >= fault_at {
                let tx = tx.clone();
                let map = &map;
                victim = Some(s.spawn(move || {
                    let t = smr::current_tid();
                    match plan.kind {
                        FaultKind::StalledReader => {
                            // The stall fires inside `pin` (after the
                            // announcement), pinning the section for
                            // `plan.stall`; the victim then exits cleanly.
                            fault::designate_victim(t);
                            drop(map.pin());
                        }
                        FaultKind::DeadThreadInSection | FaultKind::DropMidBatch => {
                            let guard = map.pin();
                            if plan.kind == FaultKind::DropMidBatch {
                                // Half-fill the deferred-decrement batch:
                                // each remove of a present key displaces one
                                // reference into it.
                                for k in 0..24u64 {
                                    map.insert_with(k, k, &guard);
                                    map.remove_with(&k, &guard);
                                }
                            }
                            // Simulated SIGKILL: the section stays open, the
                            // slot stays claimed, no exit callback runs.
                            std::mem::forget(guard);
                            let _ = tx.send(smr::abandon_current_slot());
                        }
                        _ => {}
                    }
                }));
            }
            if scope.is_some() && started.elapsed() >= recover_at {
                scope.take();
                if needs_reclaim {
                    if let Some(h) = victim.take() {
                        let _ = h.join();
                    }
                    recovered = Some(match rx.try_recv() {
                        // Safety: the victim was just joined, so its death
                        // happened-before this call and its slot can no
                        // longer be touched by its owner.
                        Ok(dead) => unsafe { smr::reclaim_orphaned_slot(dead) },
                        Err(_) => false,
                    });
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        let elapsed = started.elapsed();
        (elapsed, curve, peak, recovered)
        // Scope joins writers (and a still-running stalled victim) on exit.
    });
    AdversaryOutcome {
        mops: total_ops.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64() / 1.0e6,
        garbage_peak: peak,
        garbage_final: curve.last().map(|&(_, g)| g).unwrap_or(0),
        curve,
        recovered,
        stalls: fault::stalls_injected() - stalls_before,
        scans_delayed: fault::scans_delayed() - scans_before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockfree::manual::DoubleLinkQueue;
    use lockfree::manual::HarrisMichaelList;
    use smr::Ebr;

    #[test]
    fn thread_counts_nonempty_and_sorted_unique() {
        let tc = thread_counts();
        assert!(!tc.is_empty());
        assert!(tc.iter().all(|&n| n >= 1));
    }

    #[test]
    fn prefill_reaches_target() {
        let spec = Workload::points(100, 10);
        let list: HarrisMichaelList<u64, u64, Ebr> = HarrisMichaelList::new();
        prefill(&list, &spec);
        assert_eq!(list.iter_count(), 100);
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

    #[test]
    fn run_queue_produces_throughput() {
        let q: DoubleLinkQueue<u64, Ebr> = DoubleLinkQueue::new();
        let mops = run_queue_for(&q, 2, Duration::from_millis(50));
        assert!(mops > 0.0);
    }

    #[test]
    fn guard_batched_and_guard_free_results_agree() {
        // Drive the same structure through both call styles and check the
        // final contents agree with a sequential model.
        let list: HarrisMichaelList<u64, u64, Ebr> = HarrisMichaelList::new();
        let guard = list.pin();
        for k in 0..128u64 {
            assert!(list.insert_with(k, k, &guard));
        }
        drop(guard);
        for k in 0..128u64 {
            if k % 2 == 0 {
                assert!(list.remove(&k)); // guard-free wrapper
            }
        }
        let guard = list.pin();
        for k in 0..128u64 {
            let expect = if k % 2 == 0 { None } else { Some(k) };
            assert_eq!(list.get_with(&k, &guard), expect);
        }
    }

    #[test]
    fn histogram_is_exact_below_64() {
        let mut h = LatencyHistogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.percentile(100.0), 63);
        assert_eq!(h.percentile(50.0), 31);
    }

    #[test]
    fn histogram_error_is_bounded() {
        // Every reported edge must overstate its sample by at most 1/32.
        let mut h = LatencyHistogram::new();
        for shift in 6..40u64 {
            let v = (1u64 << shift) + (1 << (shift - 2));
            let mut one = LatencyHistogram::new();
            one.record(v);
            let got = one.percentile(100.0);
            assert!(got >= v, "edge below the sample: {got} < {v}");
            assert!(
                (got - v) as f64 <= v as f64 / 32.0,
                "error beyond 1/32 at {v}: {got}"
            );
            h.record(v);
        }
        assert_eq!(h.count(), 34);
    }

    #[test]
    fn histogram_merge_and_percentiles() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for v in 1..=1000u64 {
            if v % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), 1000);
        let p50 = a.percentile(50.0);
        assert!((480..=540).contains(&p50), "p50 = {p50}");
        let p99 = a.percentile(99.0);
        assert!((980..=1024).contains(&p99), "p99 = {p99}");
        assert_eq!(a.percentile(50.0), p50, "percentile is pure");
        assert_eq!(LatencyHistogram::new().percentile(99.0), 0);
    }

    #[test]
    fn run_service_produces_latencies() {
        let map: lockfree::manual::ResizableHashMap<u64, u64, Ebr> =
            lockfree::manual::ResizableHashMap::new();
        let r = run_service_for(
            &map,
            256,
            0.99,
            ServiceMix::update_heavy(),
            2,
            Duration::from_millis(50),
        );
        assert!(r.mops > 0.0, "no throughput");
        assert!(r.ops > 0, "empty histogram");
        assert!(
            r.p50_ns <= r.p99_ns && r.p99_ns <= r.p999_ns,
            "tails ordered"
        );
        assert!(map.buckets() > 1, "service prefill grew the table");
    }

    /// One test exercises both adversarial scenarios *sequentially*: fault
    /// plans are process-global and `fault::arm` panics on double-arm, so a
    /// second `run_adversarial` test in this binary would race it.
    #[test]
    fn run_adversarial_smoke() {
        use cdrc::{DomainRef, EbrScheme};
        use lockfree::rc::RcResizableHashMap;

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
        let map: RcResizableHashMap<u64, u64, EbrScheme> =
            RcResizableHashMap::with_capacity_in(256, DomainRef::new());
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
