//! The closed loop one worker runs against one structure: take a guard,
//! run a batch under it, drop it, repeat until told to stop — the paper's
//! methodology (one guard per 64 operations). The correctness oracle's
//! online checks sit in the same loop, so every measured op is also a
//! checked op.

use std::time::Instant;

use lockfree::{ConcurrentMap, ConcurrentQueue};
use smr::sync::atomic::{AtomicBool, Ordering};

use crate::gen::{OpGen, OpKind};
use crate::hist::Histogram;
use crate::trace::{Span, SpanKind};

/// Stream operations per guard.
pub const BATCH: usize = 64;

/// Shared keys are spread four apart so that every thread owns private keys
/// (`4k + 1 + thread`) at any position of the key order: the witness probe
/// then costs what an ordinary op at that position costs and creates no
/// artificial hot spot at the end of the list.
pub const KEY_STRIDE: u64 = 4;

/// What one worker did in one trial.
#[derive(Debug, Default)]
pub struct Tally {
    /// The worker's `smr::current_tid()` index.
    pub tid: usize,
    /// Nanoseconds from the worker's first op to its last.
    pub elapsed_ns: u64,
    /// Stream ops by kind (get, put, del) and how many had a useful outcome.
    pub ops: [u64; 3],
    /// Useful outcomes per kind: hits, inserts that inserted, removes that
    /// removed (dequeues that returned an element).
    pub ok: [u64; 3],
    /// Witness-probe operations issued.
    pub witness_ops: u64,
    /// Dequeues that found the queue empty.
    pub empty_polls: u64,
    /// Net elements this worker added (inserts − removes that succeeded,
    /// witness probe included); the end audit balances against it.
    pub net_inserted: i64,
    /// Operations that failed an online check.
    pub failed: u64,
    /// Per-op latencies (latency trials only).
    pub hist: Option<Histogram>,
    /// Recorded spans (traced trials only).
    pub spans: Vec<Span>,
    /// Batches the full span buffer left out.
    pub dropped_batches: u64,
}

impl Tally {
    /// Every structure operation issued, witness probe included.
    pub fn attempted(&self) -> u64 {
        self.ops.iter().sum::<u64>() + self.witness_ops
    }

    /// Operations that count towards throughput: all of a map's (a miss is
    /// a completed lookup), but of a queue's only those that moved an
    /// element — a dequeue that polls an empty-looking queue returns in a
    /// few nanoseconds, and a thread spinning on one while the other is
    /// descheduled mid-enqueue would inflate the rate severalfold.
    pub fn completed(&self) -> u64 {
        self.attempted() - self.empty_polls
    }
}

/// Hooks the loop calls at each boundary it can see.
pub trait Recorder {
    /// A batch starts (before `pin`).
    #[inline(always)]
    fn batch_begin(&mut self) {}
    /// `pin()` returned.
    #[inline(always)]
    fn pinned(&mut self) {}
    /// An operation is about to be issued.
    #[inline(always)]
    fn op_begin(&mut self) {}
    /// The operation returned.
    #[inline(always)]
    fn op_end(&mut self, _kind: OpKind, _ok: bool, _witness: bool) {}
    /// The guard is about to be dropped.
    #[inline(always)]
    fn unpin_begin(&mut self) {}
    /// The guard is gone.
    #[inline(always)]
    fn batch_end(&mut self) {}
    /// Moves what was recorded into the tally.
    fn finish(self, _tally: &mut Tally)
    where
        Self: Sized,
    {
    }
}

/// Untraced throughput trials: records nothing.
#[derive(Debug, Default)]
pub struct Plain;

impl Recorder for Plain {}

/// Latency trials: every operation bracketed by the monotonic clock.
#[derive(Debug)]
pub struct Latency {
    hist: Histogram,
    t0: Instant,
}

impl Default for Latency {
    fn default() -> Self {
        Latency {
            hist: Histogram::new(),
            t0: Instant::now(),
        }
    }
}

impl Recorder for Latency {
    #[inline(always)]
    fn op_begin(&mut self) {
        self.t0 = Instant::now();
    }
    #[inline(always)]
    fn op_end(&mut self, _kind: OpKind, _ok: bool, _witness: bool) {
        self.hist.record(self.t0.elapsed().as_nanos() as u64);
    }
    fn finish(self, tally: &mut Tally) {
        tally.hist = Some(self.hist);
    }
}

/// Traced trials: a span per batch, pin, op and unpin.
#[derive(Debug)]
pub struct Tracer {
    spans: Vec<Span>,
    epoch: Instant,
    mark: u64,
    batch: u32,
    batch_slot: usize,
    on: bool,
    dropped: u64,
}

impl Tracer {
    /// Records into `buf` (its capacity is the limit; nothing reallocates).
    pub fn new(mut buf: Vec<Span>) -> Self {
        buf.clear();
        Tracer {
            spans: buf,
            epoch: Instant::now(),
            mark: 0,
            batch: 0,
            batch_slot: 0,
            on: false,
            dropped: 0,
        }
    }

    #[inline(always)]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline(always)]
    fn push(&mut self, kind: SpanKind, ok: bool, witness: bool) {
        let end = self.now();
        if self.on {
            self.spans.push(Span {
                start_ns: self.mark,
                dur_ns: (end - self.mark) as u32,
                batch: self.batch,
                kind,
                ok,
                witness,
            });
        }
        self.mark = end;
    }
}

impl Recorder for Tracer {
    #[inline(always)]
    fn batch_begin(&mut self) {
        // Whole batches only: one parent, pin, unpin, and every op.
        self.on = self.spans.len() + BATCH + 6 <= self.spans.capacity();
        self.mark = self.now();
        if self.on {
            self.batch_slot = self.spans.len();
            self.spans.push(Span {
                start_ns: self.mark,
                batch: self.batch,
                ..Span::default()
            });
        } else {
            self.dropped += 1;
        }
    }
    #[inline(always)]
    fn pinned(&mut self) {
        self.push(SpanKind::Pin, true, false);
    }
    #[inline(always)]
    fn op_begin(&mut self) {
        self.mark = self.now();
    }
    #[inline(always)]
    fn op_end(&mut self, kind: OpKind, ok: bool, witness: bool) {
        self.push(SpanKind::Op(kind), ok, witness);
    }
    #[inline(always)]
    fn unpin_begin(&mut self) {
        self.mark = self.now();
    }
    #[inline(always)]
    fn batch_end(&mut self) {
        self.push(SpanKind::Unpin, true, false);
        if self.on {
            let parent = &mut self.spans[self.batch_slot];
            parent.dur_ns = (self.mark - parent.start_ns) as u32;
        }
        self.batch = self.batch.wrapping_add(1);
    }
    fn finish(self, tally: &mut Tally) {
        tally.spans = self.spans;
        tally.dropped_batches = self.dropped;
    }
}

/// Runs guard batches against `map` until `stop`: 64 stream ops, then the
/// witness probe — insert → get → remove on a key only this thread uses,
/// all three of which must succeed whatever the other threads do.
pub fn map_trial<M, R>(
    map: &M,
    gen: &mut OpGen,
    thread: usize,
    stop: &AtomicBool,
    mut rec: R,
) -> Tally
where
    M: ConcurrentMap<u64, u64> + ?Sized,
    R: Recorder,
{
    let mut t = Tally {
        tid: smr::current_tid().index(),
        ..Tally::default()
    };
    let started = Instant::now();
    loop {
        rec.batch_begin();
        let guard = map.pin();
        rec.pinned();
        for _ in 0..BATCH {
            let (k, op) = gen.next_op();
            let key = k * KEY_STRIDE;
            rec.op_begin();
            let ok = match op {
                OpKind::Get => match map.get_with(&key, &guard) {
                    Some(v) => {
                        t.failed += (v != key) as u64;
                        true
                    }
                    None => false,
                },
                OpKind::Put => map.insert_with(key, key, &guard),
                OpKind::Del => map.remove_with(&key, &guard),
            };
            rec.op_end(op, ok, false);
            t.ops[op as usize] += 1;
            t.ok[op as usize] += ok as u64;
            t.net_inserted += match op {
                OpKind::Put => ok as i64,
                OpKind::Del => -(ok as i64),
                OpKind::Get => 0,
            };
        }
        let w = gen.next_key() * KEY_STRIDE + 1 + thread as u64;
        rec.op_begin();
        let put = map.insert_with(w, w, &guard);
        rec.op_end(OpKind::Put, put, true);
        rec.op_begin();
        let got = map.get_with(&w, &guard);
        rec.op_end(OpKind::Get, got.is_some(), true);
        rec.op_begin();
        let del = map.remove_with(&w, &guard);
        rec.op_end(OpKind::Del, del, true);
        t.witness_ops += 3;
        t.net_inserted += put as i64 - del as i64;
        t.failed += !put as u64 + (got != Some(w)) as u64 + !del as u64;
        rec.unpin_begin();
        drop(guard);
        rec.batch_end();
        // Ordering: Relaxed — a stop flag that publishes no data; a late
        // read costs one more batch.
        if stop.load(Ordering::Relaxed) {
            break;
        }
    }
    t.elapsed_ns = started.elapsed().as_nanos() as u64;
    rec.finish(&mut t);
    t
}

/// Runs guard batches against `queue` until `stop`: 32 dequeue +
/// re-enqueue pairs per guard. Re-enqueueing the dequeued value keeps the
/// multiset fixed for the final drain check. A dequeue that finds the queue
/// empty is counted as an op without a useful outcome, not as a failure:
/// the manual queue reports empty while an enqueuer sits between its tail
/// CAS and its `next` store (the RC queue helps that enqueuer instead), and
/// nothing is lost when it does.
pub fn queue_trial<Q, R>(queue: &Q, stop: &AtomicBool, mut rec: R) -> Tally
where
    Q: ConcurrentQueue<u64> + ?Sized,
    R: Recorder,
{
    let mut t = Tally {
        tid: smr::current_tid().index(),
        ..Tally::default()
    };
    let started = Instant::now();
    loop {
        rec.batch_begin();
        let guard = queue.pin();
        rec.pinned();
        for _ in 0..BATCH / 2 {
            rec.op_begin();
            let v = queue.dequeue_with(&guard);
            rec.op_end(OpKind::Del, v.is_some(), false);
            t.ops[OpKind::Del as usize] += 1;
            if let Some(v) = v {
                t.ok[OpKind::Del as usize] += 1;
                rec.op_begin();
                queue.enqueue_with(v, &guard);
                rec.op_end(OpKind::Put, true, false);
                t.ops[OpKind::Put as usize] += 1;
                t.ok[OpKind::Put as usize] += 1;
            } else {
                t.empty_polls += 1;
            }
        }
        rec.unpin_begin();
        drop(guard);
        rec.batch_end();
        // Ordering: Relaxed — as in `map_trial`.
        if stop.load(Ordering::Relaxed) {
            break;
        }
    }
    t.elapsed_ns = started.elapsed().as_nanos() as u64;
    rec.finish(&mut t);
    t
}
