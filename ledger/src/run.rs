//! The run protocol, identical for every workload.
//!
//! One fresh process per workload. Load is a closed loop of [`THREADS`]
//! persistent workers; the main thread only sleeps in 10 ms ticks (and
//! samples `in_flight` on each). Measurement is round-major: a round runs
//! each cell once, so a cell's samples span the whole run and the cells of
//! one round — the reference cell among them — share machine conditions.
//! This box's speed moves on every scale from a second to an hour, and many
//! short trials spread over the run with a median beat few long ones.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use smr::sync::atomic::{AtomicBool, Ordering};

use crate::cell::{Audit, Cell, Mode, Teardown, TrialCtx};
use crate::driver::Tally;
use crate::gen::stream_seed;
use crate::hist::Histogram;
use crate::ladder::calib_mops;
use crate::pool::Pool;
use crate::trace::{span_buffer, write_spans, Span, SpanStats};
use crate::workload::REFERENCE;

/// Worker threads: fixed and recorded (this box has `nproc` = 2).
pub const THREADS: usize = 2;

/// Main-thread sampling period.
const TICK: Duration = Duration::from_millis(10);

/// Discarded warm-up per cell before the first measured round, after a
/// parallel sweep of every map's key space. The hash tables splice a
/// bucket's sentinel in on its first touch; prefill touches only the present
/// half of the keys, and uniform traffic over two million keys would take
/// several rounds to touch the rest (throughput kept rising for five). The
/// sweep touches each key once; half a second of traffic then settles
/// retired-list capacity and the allocator's free lists. With both, no
/// cell's first-to-last-round trend exceeded its metric's bound.
const WARMUP: Duration = Duration::from_millis(500);

/// Target length of one trial. Machine speed on this box moves on every
/// scale from a second to an hour; a cell's median over many short trials
/// spread over the whole run repeated better than over few long ones (five
/// trials of 0.47 s: 10–15 % between runs; sixteen of 0.25 s: 5 %), and
/// below a quarter of a second the refill of the caches the other cells
/// emptied starts to show (0.1 s trials read a fifth lower).
const TRIAL: f64 = 0.25;

/// Cells that get latency rounds.
pub const LATENCY_CELLS: [&str; 2] = ["rc_ebr", "rc_hp"];

/// How long each part of a run lasts.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Discarded rounds before the measured ones.
    pub warmup_rounds: usize,
    /// Measured throughput rounds.
    pub rounds: usize,
    /// Length of one throughput (and warm-up) trial.
    pub trial: Duration,
    /// How many of the measured rounds also time the latency cells.
    pub lat_rounds: usize,
    /// Length of one latency trial.
    pub lat_trial: Duration,
    /// Traced rounds per cell; 0 in an untraced run.
    pub traced_rounds: usize,
    /// Length of one ladder sample (three per ladder cell); traced runs.
    pub ladder_sample: Duration,
}

/// Ladder cells: 3 sticky, 3 × 4 smr, 8 × 4 cdrc, loop and timer.
const LADDER_CELLS: f64 = 49.0;

impl Plan {
    /// Splits `seconds` of measurement over the parts of a run of `cells`
    /// cells (the reference cell included). An untraced run makes rounds of
    /// one quarter-second trial per cell plus one per latency cell, as many
    /// as fit (never fewer than 5). A traced run spends the same time on 3
    /// untraced rounds, 2 latency rounds, 2 traced rounds and the ladder.
    pub fn new(seconds: f64, cells: usize, trace: bool, smoke: bool) -> Plan {
        if smoke {
            // Shape only: 2 rounds × 50 ms (one untraced round in a traced
            // run, which has its two traced rounds besides).
            return Plan {
                warmup_rounds: 1,
                rounds: if trace { 1 } else { 2 },
                trial: Duration::from_millis(50),
                lat_rounds: 1,
                lat_trial: Duration::from_millis(20),
                traced_rounds: if trace { 2 } else { 0 },
                ladder_sample: Duration::from_micros(500),
            };
        }
        let cells = cells as f64;
        let lat_cells = LATENCY_CELLS.len() as f64;
        let warmup = |t: f64| (WARMUP.as_secs_f64() / t).ceil().max(1.0) as usize;
        if trace {
            // In trial lengths: 3 untraced + 2 traced rounds, 2 latency
            // rounds at 0.8, and 3 ladder samples of a tenth per cell.
            let units = 5.0 * cells + 2.0 * lat_cells * 0.8 + LADDER_CELLS * 3.0 * 0.1;
            let t = seconds / units;
            return Plan {
                warmup_rounds: warmup(t),
                rounds: 3,
                trial: Duration::from_secs_f64(t),
                lat_rounds: 2,
                lat_trial: Duration::from_secs_f64(0.8 * t),
                traced_rounds: 2,
                ladder_sample: Duration::from_secs_f64(0.1 * t),
            };
        }
        let per_round = cells + lat_cells;
        let rounds = (seconds / (per_round * TRIAL)).round().max(5.0);
        let t = seconds / (rounds * per_round);
        Plan {
            warmup_rounds: warmup(t),
            rounds: rounds as usize,
            trial: Duration::from_secs_f64(t),
            lat_rounds: rounds as usize,
            lat_trial: Duration::from_secs_f64(t),
            traced_rounds: 0,
            ladder_sample: Duration::ZERO,
        }
    }
}

/// Reclamation flow of one cell over one trial.
#[derive(Debug, Clone, Copy, Default)]
pub struct Flow {
    /// Control blocks allocated per completed op (RC cells).
    pub allocs_per_op: f64,
    /// Epoch advances per million completed ops (RC cells).
    pub epochs_per_mop: f64,
    /// Mean of the 10 ms garbage samples: `in_flight` minus live nodes.
    pub garbage_avg: f64,
    /// Largest garbage sample.
    pub garbage_peak: f64,
}

/// Everything measured on one cell.
#[derive(Debug, Default)]
pub struct CellResult {
    /// Cell name.
    pub name: String,
    /// Mop/s of each measured throughput round.
    pub mops: Vec<f64>,
    /// Reclamation flow of each measured throughput round.
    pub flows: Vec<Flow>,
    /// p50, p99, p99.9 (ns) of each latency round.
    pub latency: Vec<[f64; 3]>,
    /// Operations timed over all latency rounds.
    pub latency_samples: u64,
    /// Mop/s of each traced round.
    pub traced_mops: Vec<f64>,
    /// Aggregates over the traced rounds' spans.
    pub spans: SpanStats,
    /// Stream operations by kind (get, put, del) over all trials.
    pub ops: [u64; 3],
    /// Those with a useful outcome.
    pub ok: [u64; 3],
    /// Every operation issued on the cell, warm-up and witness included.
    pub attempted: u64,
    /// Operations that failed a check; all of them if an audit failed.
    pub failed: u64,
    /// Teardown time and balance.
    pub teardown: Option<Teardown>,
}

/// Everything measured in one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Per cell, in round order.
    pub cells: Vec<CellResult>,
    /// `bench.calib_mops` reading of each measured round.
    pub calib: Vec<f64>,
    /// The workers' `smr` thread ids.
    pub worker_tids: Vec<usize>,
    /// `smr::registered_high_water_mark()` after set-up and at the end.
    pub hwm: (usize, usize),
    /// Failed checks, in words.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Operations issued over all cells.
    pub fn attempted(&self) -> u64 {
        self.cells.iter().map(|c| c.attempted).sum::<u64>().max(1)
    }

    /// Operations that failed a check.
    pub fn failed(&self) -> u64 {
        self.cells.iter().map(|c| c.failed).sum()
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.failures.is_empty()
    }

    /// Process exit code: non-zero on any failed check.
    pub fn exit_code(&self) -> i32 {
        if self.correct() {
            0
        } else {
            1
        }
    }
}

struct Live {
    cell: Arc<dyn Cell>,
    /// Elements the cell should hold now: prefill plus the workers' net
    /// successful inserts.
    present: i64,
}

struct Runner<'a, W: Write> {
    pool: &'a Pool,
    seed: u64,
    cells: Vec<Live>,
    out: Outcome,
    trace_file: Option<W>,
}

impl<W: Write> Runner<'_, W> {
    /// Empties every thread's deferred lists on the cell, so that
    /// `in_flight` reads the live node count (exactly for RC cells, within
    /// a few hundred nodes for manual ones). Twice: what one worker frees
    /// can defer more onto another.
    fn settle(&self, ci: usize) -> Option<f64> {
        let cell = &self.cells[ci].cell;
        cell.in_flight()?;
        for _ in 0..2 {
            let c = Arc::clone(cell);
            self.pool.run(move |i| c.settle(i));
            cell.probe().settle();
        }
        cell.in_flight().map(|n| n as f64)
    }

    /// A parallel sweep of the cell, checked against what it should hold.
    fn sweep(&mut self, ci: usize) {
        let cell = Arc::clone(&self.cells[ci].cell);
        let parts = self.pool.threads();
        let audit = self
            .pool
            .run(move |i| cell.sweep(i, parts))
            .into_iter()
            .fold(Audit::default(), |a, b| Audit {
                present: a.present + b.present,
                checksum: a.checksum.wrapping_add(b.checksum),
                wrong_values: a.wrong_values + b.wrong_values,
            });
        let live = &self.cells[ci];
        let r = &mut self.out.cells[ci];
        let mut fail = |why: String| {
            self.out.failures.push(format!("{}: {why}", r.name));
            r.failed = r.attempted.max(1);
        };
        if live.cell.sweep_is_read_only() {
            if audit.present as i64 != live.present {
                fail(format!(
                    "sweep found {} keys, prefill + inserts - removes = {}",
                    audit.present, live.present
                ));
            }
            if audit.wrong_values > 0 {
                fail(format!(
                    "{} keys hold a value that is not the key",
                    audit.wrong_values
                ));
            }
        } else {
            let n = live.cell.prefilled();
            if (audit.present, audit.checksum) != (n, n * (n + 1) / 2) {
                fail(format!(
                    "final drain returned {} elements (checksum {}), seeded {n}",
                    audit.present, audit.checksum
                ));
            }
        }
    }

    fn trial(
        &mut self,
        ci: usize,
        mode: Mode,
        dur: Duration,
        label: [u64; 2],
        bufs: Option<Vec<Vec<Span>>>,
    ) -> (Vec<Tally>, f64, Flow) {
        let live_start = self.settle(ci);
        let cell = Arc::clone(&self.cells[ci].cell);
        let before = cell.probe().counters();
        let ctx = Arc::new(TrialCtx {
            mode,
            // The same streams for every cell of a round.
            seed: stream_seed(self.seed, &label),
            stop: AtomicBool::new(false),
            span_bufs: Mutex::new(match bufs {
                Some(b) => b.into_iter().map(Some).collect(),
                None => Vec::new(),
            }),
        });
        let started = Instant::now();
        let pending = {
            let (cell, ctx) = (Arc::clone(&cell), Arc::clone(&ctx));
            self.pool.start(move |i| cell.trial(&ctx, i))
        };
        let mut samples = Vec::new();
        loop {
            let left = dur.saturating_sub(started.elapsed());
            if left.is_zero() {
                break;
            }
            std::thread::sleep(left.min(TICK));
            if let Some(n) = cell.in_flight() {
                samples.push((
                    started.elapsed().as_secs_f64() / dur.as_secs_f64(),
                    n as f64,
                ));
            }
        }
        // Ordering: Relaxed — the flag publishes nothing; results come back
        // through the pool's channels.
        ctx.stop.store(true, Ordering::Relaxed);
        let tallies = pending.wait();
        let after = cell.probe().counters();

        let r = &mut self.out.cells[ci];
        let mut mops = 0.0;
        let mut completed = 0u64;
        for (i, t) in tallies.iter().enumerate() {
            if t.tid != self.pool.tids()[i] {
                self.out.failures.push(format!(
                    "{}: worker {i} ran on smr tid {} instead of {}",
                    r.name,
                    t.tid,
                    self.pool.tids()[i]
                ));
            }
            mops += t.completed() as f64 / t.elapsed_ns as f64 * 1e3;
            completed += t.completed();
            r.attempted += t.attempted();
            r.failed += t.failed;
            for k in 0..3 {
                r.ops[k] += t.ops[k];
                r.ok[k] += t.ok[k];
            }
            self.cells[ci].present += t.net_inserted;
        }

        let live_end = self.settle(ci);
        let mut flow = Flow::default();
        if let (Some(b), Some(a)) = (before, after) {
            flow.allocs_per_op = (a.allocated - b.allocated) as f64 / completed as f64;
            flow.epochs_per_mop = (a.epoch - b.epoch) as f64 / completed as f64 * 1e6;
        }
        if let (Some(l0), Some(l1)) = (live_start, live_end) {
            // Live nodes interpolated between the settled counts at the
            // trial's start and end.
            let garbage: Vec<f64> = samples
                .iter()
                .map(|&(x, n)| (n - (l0 + (l1 - l0) * x.min(1.0))).max(0.0))
                .collect();
            if !garbage.is_empty() {
                flow.garbage_avg = garbage.iter().sum::<f64>() / garbage.len() as f64;
                flow.garbage_peak = garbage.iter().fold(0.0, |m: f64, &g| m.max(g));
            }
        }
        (tallies, mops, flow)
    }

    /// The warm-up, then the measured rounds: each runs every cell once
    /// untraced and then the latency cells once timed, so that latency
    /// samples too are spread over the whole run.
    fn measured_rounds(&mut self, plan: &Plan) {
        for ci in 0..self.cells.len() {
            if self.cells[ci].cell.sweep_is_read_only() {
                self.sweep(ci);
            }
        }
        for round in 0..plan.warmup_rounds + plan.rounds {
            let measured = round >= plan.warmup_rounds;
            if measured {
                self.out.calib.push(calib_mops());
            }
            for ci in 0..self.cells.len() {
                let (_, mops, flow) =
                    self.trial(ci, Mode::Plain, plan.trial, [1, round as u64], None);
                if measured {
                    self.out.cells[ci].mops.push(mops);
                    self.out.cells[ci].flows.push(flow);
                }
            }
            if measured && round - plan.warmup_rounds < plan.lat_rounds {
                self.latency_round(plan, round);
            }
        }
    }

    fn latency_round(&mut self, plan: &Plan, round: usize) {
        for ci in 0..self.cells.len() {
            if !LATENCY_CELLS.contains(&self.out.cells[ci].name.as_str()) {
                continue;
            }
            let (tallies, _, _) =
                self.trial(ci, Mode::Latency, plan.lat_trial, [2, round as u64], None);
            let mut h = Histogram::new();
            for t in &tallies {
                h.merge(t.hist.as_ref().expect("latency trials return a histogram"));
            }
            let r = &mut self.out.cells[ci];
            r.latency
                .push([h.quantile(0.5), h.quantile(0.99), h.quantile(0.999)]);
            r.latency_samples += h.count();
        }
    }

    fn traced_rounds(&mut self, plan: &Plan) -> std::io::Result<()> {
        if plan.traced_rounds == 0 {
            return Ok(());
        }
        let mut bufs: Vec<Vec<Span>> = (0..self.pool.threads()).map(|_| span_buffer()).collect();
        for round in 0..plan.traced_rounds {
            for ci in 0..self.cells.len() {
                if self.out.cells[ci].name == REFERENCE {
                    continue;
                }
                let (mut tallies, mops, _) =
                    self.trial(ci, Mode::Traced, plan.trial, [3, round as u64], Some(bufs));
                let r = &mut self.out.cells[ci];
                r.traced_mops.push(mops);
                let names = self.cells[ci].cell.op_names();
                for (i, t) in tallies.iter().enumerate() {
                    r.spans.absorb(&t.spans);
                    r.spans.dropped_batches += t.dropped_batches;
                    if let Some(f) = self.trace_file.as_mut() {
                        write_spans(f, &r.name, round, i, names, &t.spans)?;
                    }
                }
                bufs = tallies
                    .iter_mut()
                    .map(|t| std::mem::take(&mut t.spans))
                    .collect();
            }
        }
        Ok(())
    }

    /// The end audit and teardown of every cell.
    fn finish(&mut self) {
        for ci in 0..self.cells.len() {
            self.sweep(ci);
        }
        for (ci, live) in std::mem::take(&mut self.cells).into_iter().enumerate() {
            let td = tear_down(live.cell, self.pool);
            let r = &mut self.out.cells[ci];
            if td.balanced == Some(false) {
                self.out.failures.push(format!(
                    "{}: domain allocated() != freed() after drop + process_deferred",
                    r.name
                ));
                r.failed = r.attempted.max(1);
            }
            r.teardown = Some(td);
        }
    }
}

/// Settles the workers' deferred lists, then drops the cell's structure
/// and waits for its memory.
pub fn tear_down(cell: Arc<dyn Cell>, pool: &Pool) -> Teardown {
    for _ in 0..2 {
        let c = Arc::clone(&cell);
        pool.run(move |i| c.settle(i));
    }
    cell.teardown()
}

/// Runs the whole protocol over prebuilt `cells` (name, cell) on `pool`:
/// warm-up, measured rounds (throughput and latency), traced rounds, end
/// audit, teardown. Spans of traced rounds go to `trace_file`.
pub fn run_cells<W: Write>(
    cells: Vec<(String, Arc<dyn Cell>)>,
    pool: &Pool,
    seed: u64,
    plan: &Plan,
    trace_file: Option<W>,
) -> std::io::Result<Outcome> {
    // The main thread takes its registry slot now, so that the mark below
    // covers every thread of the run.
    smr::current_tid();
    let hwm_setup = smr::registered_high_water_mark();
    let mut out = Outcome {
        worker_tids: pool.tids().to_vec(),
        ..Outcome::default()
    };
    let mut live = Vec::new();
    for (name, cell) in cells {
        out.cells.push(CellResult {
            name,
            ..CellResult::default()
        });
        let present = cell.prefilled();
        live.push(Live {
            present: present as i64,
            cell,
        });
    }
    let mut runner = Runner {
        pool,
        seed,
        cells: live,
        out,
        trace_file,
    };
    runner.measured_rounds(plan);
    runner.traced_rounds(plan)?;
    if let Some(f) = runner.trace_file.as_mut() {
        f.flush()?;
    }
    runner.finish();
    let mut out = runner.out;
    out.hwm = (hwm_setup, smr::registered_high_water_mark());
    if out.hwm.1 > out.hwm.0 {
        out.failures.push(format!(
            "smr registry high-water mark grew after set-up: {} -> {}",
            out.hwm.0, out.hwm.1
        ));
    }
    Ok(out)
}
