//! A *cell* is one structure under one reclamation scheme, prefilled and
//! kept alive for the whole run. The run protocol sees cells only through
//! [`Cell`], so the oracle tests can put a deliberately broken structure
//! behind the same interface.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use cdrc::{DomainRef, Scheme};
use lockfree::{ConcurrentMap, ConcurrentQueue};
use smr::sync::atomic::AtomicBool;

use crate::driver::{map_trial, queue_trial, Latency, Plain, Tally, Tracer, BATCH, KEY_STRIDE};
use crate::gen::{stream_seed, KeyDist, Mix, OpGen};
use crate::trace::Span;

/// How a trial records what it does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing recorded: the throughput rounds.
    Plain,
    /// Every op timed into a histogram.
    Latency,
    /// Every boundary recorded as a span.
    Traced,
}

/// What the workers of one trial share.
#[derive(Debug)]
pub struct TrialCtx {
    /// Recording mode.
    pub mode: Mode,
    /// Seed of this trial's key streams (one stream per worker).
    pub seed: u64,
    /// Set by the main thread when the trial's time is up.
    pub stop: AtomicBool,
    /// Preallocated span buffers, one per worker (traced trials).
    pub span_bufs: Mutex<Vec<Option<Vec<Span>>>>,
}

/// The key side of a map workload.
#[derive(Debug, Clone)]
pub struct KeySpec {
    /// Shared keys are `KEY_STRIDE * k` for `k` in `[0, key_space)`.
    pub key_space: u64,
    /// Popularity of keys.
    pub dist: KeyDist,
    /// Operation mix.
    pub mix: Mix,
}

/// A reclamation domain's counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Control blocks allocated so far.
    pub allocated: u64,
    /// Control blocks freed so far.
    pub freed: u64,
    /// The domain's epoch clock.
    pub epoch: u64,
}

/// Access to the reclamation domain behind an RC cell; manual cells (and
/// the oracle tests' fakes) have none.
pub trait Probe: Send + Sync + 'static {
    /// Current counters, if there is a domain.
    fn counters(&self) -> Option<Counters> {
        None
    }
    /// Applies everything the calling thread has deferred and that no
    /// other thread protects.
    fn settle(&self) {}
}

/// No domain to look into.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoProbe;

impl Probe for NoProbe {}

impl<S: Scheme> Probe for DomainRef<S> {
    fn counters(&self) -> Option<Counters> {
        Some(Counters {
            allocated: self.allocated(),
            freed: self.freed(),
            epoch: self.epoch(),
        })
    }
    fn settle(&self) {
        self.process_deferred(smr::current_tid());
    }
}

/// What a sweep found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Audit {
    /// Elements found: shared keys present (maps) or elements drained
    /// (queues).
    pub present: u64,
    /// Wrapping sum of the values found.
    pub checksum: u64,
    /// Map entries whose value is not their key.
    pub wrong_values: u64,
}

/// How a cell's teardown went.
#[derive(Debug, Clone, Copy)]
pub struct Teardown {
    /// Drop of the structure until the domain balanced (RC) or until the
    /// drop returned (manual).
    pub drain_ms: f64,
    /// `allocated() == freed()` after the drain; `None` without a domain.
    pub balanced: Option<bool>,
}

/// One structure under one scheme, as the run protocol sees it.
pub trait Cell: Send + Sync {
    /// The workload's names for get / put / del spans.
    fn op_names(&self) -> [&'static str; 3];
    /// Elements the cell was prefilled with.
    fn prefilled(&self) -> u64;
    /// One worker's share of a trial; returns when `ctx.stop` is set.
    fn trial(&self, ctx: &TrialCtx, thread: usize) -> Tally;
    /// Nodes allocated and not yet freed, if the structure can tell.
    fn in_flight(&self) -> Option<u64>;
    /// The reclamation domain behind the cell.
    fn probe(&self) -> &dyn Probe;
    /// Frees what the calling thread has deferred on this cell, so that
    /// `in_flight` approaches the live node count. Exact for RC cells (the
    /// domain applies everything unprotected); manual structures offer no
    /// such call, so their cells churn a private key instead, which leaves
    /// at most a few hundred recent retirements per thread behind.
    fn settle(&self, thread: usize);
    /// Part `part` of `parts` of a read-only pass over everything the
    /// structure should hold: maps look every shared key of their share up
    /// (which also splices every bucket a shared key lives in — the
    /// warm-up uses it for that); queues drain, all in part 0, and so are
    /// swept at the end of the run only. No writer may be running.
    fn sweep(&self, part: usize, parts: usize) -> Audit;
    /// Whether [`sweep`](Self::sweep) leaves the structure as it was.
    fn sweep_is_read_only(&self) -> bool;
    /// Drops the structure and waits for its memory. The caller holds the
    /// only reference.
    fn teardown(self: Arc<Self>) -> Teardown;
}

fn drain<P: Probe>(probe: &P, started: Instant) -> Teardown {
    let balanced = probe.counters().map(|_| {
        for _ in 0..1000 {
            let c = probe.counters().expect("a probe keeps its domain");
            if c.allocated == c.freed {
                return true;
            }
            probe.settle();
        }
        false
    });
    Teardown {
        drain_ms: started.elapsed().as_secs_f64() * 1e3,
        balanced,
    }
}

/// A map cell: any [`ConcurrentMap`] over `u64` keys whose values equal
/// their keys.
#[derive(Debug)]
pub struct MapCell<M, P> {
    map: M,
    probe: P,
    keys: KeySpec,
    prefilled: u64,
}

impl<M: ConcurrentMap<u64, u64>, P: Probe> MapCell<M, P> {
    /// Prefills `map` with `prefill` (shared-key indices, in that order).
    pub fn new(map: M, probe: P, keys: KeySpec, prefill: &[u64]) -> Self {
        // One guard per batch, as the workers do: a section held over the
        // whole prefill would pin every deferred decrement of a million
        // inserts.
        for batch in prefill.chunks(BATCH) {
            let guard = map.pin();
            for &k in batch {
                let key = k * KEY_STRIDE;
                assert!(
                    map.insert_with(key, key, &guard),
                    "prefill keys are distinct"
                );
            }
        }
        MapCell {
            map,
            probe,
            keys,
            prefilled: prefill.len() as u64,
        }
    }
}

/// Insert + remove pairs a manual map cell churns to settle: enough
/// allocations to advance the epoch a hundred times and enough retirements
/// for several scans, so that everything retired before is freed.
const SETTLE_PAIRS: u64 = 1024;

impl<M, P> Cell for MapCell<M, P>
where
    M: ConcurrentMap<u64, u64> + 'static,
    P: Probe,
{
    fn op_names(&self) -> [&'static str; 3] {
        ["get", "put", "del"]
    }

    fn prefilled(&self) -> u64 {
        self.prefilled
    }

    fn trial(&self, ctx: &TrialCtx, thread: usize) -> Tally {
        let mut gen = OpGen::new(
            stream_seed(ctx.seed, &[thread as u64]),
            self.keys.key_space,
            self.keys.dist.clone(),
            self.keys.mix,
        );
        match ctx.mode {
            Mode::Plain => map_trial(&self.map, &mut gen, thread, &ctx.stop, Plain),
            Mode::Latency => map_trial(&self.map, &mut gen, thread, &ctx.stop, Latency::default()),
            Mode::Traced => {
                let rec = Tracer::new(take_buf(ctx, thread));
                map_trial(&self.map, &mut gen, thread, &ctx.stop, rec)
            }
        }
    }

    fn in_flight(&self) -> Option<u64> {
        Some(self.map.in_flight_nodes())
    }

    fn probe(&self) -> &dyn Probe {
        &self.probe
    }

    fn settle(&self, thread: usize) {
        if self.probe.counters().is_some() {
            return self.probe.settle();
        }
        let step = (self.keys.key_space / SETTLE_PAIRS).max(1);
        for batch in 0..SETTLE_PAIRS / 8 {
            let guard = self.map.pin();
            for j in batch * 8..batch * 8 + 8 {
                let w = (j * step % self.keys.key_space) * KEY_STRIDE + 1 + thread as u64;
                // Outcomes are the witness probe's business, not this one's.
                self.map.insert_with(w, w, &guard);
                self.map.remove_with(&w, &guard);
            }
        }
    }

    fn sweep(&self, part: usize, parts: usize) -> Audit {
        let n = self.keys.key_space;
        let (lo, hi) = (
            n * part as u64 / parts as u64,
            n * (part as u64 + 1) / parts as u64,
        );
        let mut a = Audit::default();
        for batch in (lo..hi).step_by(BATCH) {
            let guard = self.map.pin();
            for k in batch..(batch + BATCH as u64).min(hi) {
                let key = k * KEY_STRIDE;
                if let Some(v) = self.map.get_with(&key, &guard) {
                    a.present += 1;
                    a.checksum = a.checksum.wrapping_add(v);
                    a.wrong_values += (v != key) as u64;
                }
            }
        }
        a
    }

    fn sweep_is_read_only(&self) -> bool {
        true
    }

    fn teardown(self: Arc<Self>) -> Teardown {
        let this = Arc::into_inner(self).expect("teardown holds the only reference");
        let started = Instant::now();
        drop(this.map);
        drain(&this.probe, started)
    }
}

/// A queue cell: any [`ConcurrentQueue`] of `u64`, seeded with `1..=n`.
#[derive(Debug)]
pub struct QueueCell<Q, P> {
    queue: Q,
    probe: P,
    seeded: u64,
}

impl<Q: ConcurrentQueue<u64>, P: Probe> QueueCell<Q, P> {
    /// Seeds `queue` with the values `1..=n`.
    pub fn new(queue: Q, probe: P, n: u64) -> Self {
        let guard = queue.pin();
        for v in 1..=n {
            queue.enqueue_with(v, &guard);
        }
        drop(guard);
        QueueCell {
            queue,
            probe,
            seeded: n,
        }
    }
}

impl<Q, P> Cell for QueueCell<Q, P>
where
    Q: ConcurrentQueue<u64> + 'static,
    P: Probe,
{
    fn op_names(&self) -> [&'static str; 3] {
        ["get", "enq", "deq"]
    }

    fn prefilled(&self) -> u64 {
        self.seeded
    }

    fn trial(&self, ctx: &TrialCtx, thread: usize) -> Tally {
        match ctx.mode {
            Mode::Plain => queue_trial(&self.queue, &ctx.stop, Plain),
            Mode::Latency => queue_trial(&self.queue, &ctx.stop, Latency::default()),
            Mode::Traced => queue_trial(&self.queue, &ctx.stop, Tracer::new(take_buf(ctx, thread))),
        }
    }

    fn in_flight(&self) -> Option<u64> {
        // The queues expose no node count of their own; an RC queue's
        // domain holds nothing but its nodes.
        self.probe
            .counters()
            .map(|c| c.allocated.saturating_sub(c.freed))
    }

    fn probe(&self) -> &dyn Probe {
        &self.probe
    }

    fn settle(&self, _thread: usize) {
        self.probe.settle();
    }

    fn sweep(&self, part: usize, _parts: usize) -> Audit {
        let mut a = Audit::default();
        if part != 0 {
            return a;
        }
        let guard = self.queue.pin();
        // Bounded: a queue that hands out the same element forever must
        // fail the audit, not hang it.
        while a.present <= 2 * self.seeded {
            match self.queue.dequeue_with(&guard) {
                Some(v) => {
                    a.present += 1;
                    a.checksum = a.checksum.wrapping_add(v);
                }
                None => break,
            }
        }
        a
    }

    fn sweep_is_read_only(&self) -> bool {
        false
    }

    fn teardown(self: Arc<Self>) -> Teardown {
        let this = Arc::into_inner(self).expect("teardown holds the only reference");
        let started = Instant::now();
        drop(this.queue);
        drain(&this.probe, started)
    }
}

fn take_buf(ctx: &TrialCtx, thread: usize) -> Vec<Span> {
    ctx.span_bufs.lock().expect("no panic under this lock")[thread]
        .take()
        .expect("a traced trial hands every worker a span buffer")
}
