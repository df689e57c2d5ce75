//! Command line of the repo benchmark.
//!
//! ```text
//! ledger [run] --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]]
//!              [--smoke] [--out <file>]
//! ledger compare <a.jsonl> <b.jsonl>
//! ```
//!
//! A run prints every metric by name with its unit, appends one line to the
//! ledger file `--out` (default `ledger-out/<workload>.jsonl`), writes the
//! spans of a traced run to `<out>.trace.jsonl`, prints the benchmark
//! contract's result object as its last line, and exits non-zero if any
//! correctness check failed. No environment variable changes what is
//! measured.

use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cdrc::{EbrScheme, HpScheme, HyalineScheme, IbrScheme};
use ledger::cell::Cell;
use ledger::pool::Pool;
use ledger::reference::reference_cell;
use ledger::report::{build, RunInfo};
use ledger::run::{run_cells, tear_down, Plan, THREADS};
use ledger::workload::{
    build_cells, workload, Shape, Workload, CELLS, E2E_CELLS, REFERENCE, WORKLOADS,
};
use ledger::{compare, ladder};

/// `--seconds` when the flag is absent: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 22.0;

/// Set-up is repeated — build, prefill, spawn, tear down — and the lower
/// quartile reported, because a single reading of a few milliseconds is
/// mostly noise: at least this often,
const MIN_SETUPS: usize = 3;
/// and then until this much time has gone into repeats,
const SETUP_BUDGET: Duration = Duration::from_millis(1000);
/// but no more often than this.
const MAX_SETUPS: usize = 100;
/// A set-up that alone takes this long (the million-key map) is read once:
/// seconds of prefill are steady by themselves, and each repeat would add
/// ten seconds of build and teardown to a run.
const LONG_SETUP: Duration = Duration::from_secs(3);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: ledger [run] --workload <{}> --seed <u64> [--seconds <1..=60>] \
         [--trace [0|1]] [--smoke] [--out <file>]\n       ledger compare <a.jsonl> <b.jsonl>",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut name, mut seed, mut seconds, mut trace, mut smoke, mut out) =
        (None, None, DEFAULT_SECONDS, false, false, None);
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => name = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--seed {v}: not a u64"))?,
                );
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| (1.0..=60.0).contains(s))
                    .ok_or(format!("--seconds {v}: not a number from 1 to 60"))?;
            }
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--smoke" => smoke = true,
            "--trace" => {
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = workload(&name, smoke).ok_or(format!(
        "unknown workload {name}; known: {}",
        WORKLOADS.join(", ")
    ))?;
    Ok(Args {
        out: out.unwrap_or_else(|| PathBuf::from(format!("ledger-out/{name}.jsonl"))),
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        smoke,
    })
}

type Cells = Vec<(String, Arc<dyn Cell>)>;

/// Builds the named cells — with the workload's reference cell, if it has
/// one, in the middle of the round — and the pool, repeatedly; keeps the
/// last set-up and returns each repeat's duration: domains, structures,
/// prefill of every cell and worker spawn (the warm-up is not set-up).
fn set_up(w: &Workload, seed: u64, names: &[&str], smoke: bool) -> (Cells, Pool, Vec<f64>) {
    let max_setups = if smoke { MIN_SETUPS } else { MAX_SETUPS };
    let began = Instant::now();
    let mut samples = Vec::new();
    loop {
        let started = Instant::now();
        let pool = Pool::new(THREADS);
        let mut cells: Cells = names
            .iter()
            .map(|n| n.to_string())
            .zip(build_cells(w, seed, names))
            .collect();
        if let Some(r) = reference_cell(w, seed) {
            cells.insert(names.len() / 2, (REFERENCE.to_string(), r));
        }
        samples.push(started.elapsed().as_secs_f64());
        let n = samples.len();
        if n >= max_setups
            || (n >= MIN_SETUPS && began.elapsed() >= SETUP_BUDGET)
            || started.elapsed() >= LONG_SETUP
        {
            return (cells, pool, samples);
        }
        for (_, cell) in cells {
            tear_down(cell, &pool);
        }
    }
}

fn ladder_metrics(w: &Workload, sample: Duration) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    ladder::sticky(sample, &mut out);
    ladder::smr_engine::<smr::Ebr>("ebr", sample, &mut out);
    ladder::smr_engine::<smr::Ibr>("ibr", sample, &mut out);
    ladder::smr_engine::<smr::Hp>("hp", sample, &mut out);
    ladder::smr_engine::<smr::Hyaline>("hyaline", sample, &mut out);
    ladder::cdrc_ptr::<EbrScheme>("ebr", sample, &mut out);
    ladder::cdrc_ptr::<IbrScheme>("ibr", sample, &mut out);
    ladder::cdrc_ptr::<HpScheme>("hp", sample, &mut out);
    ladder::cdrc_ptr::<HyalineScheme>("hyaline", sample, &mut out);
    let keys = match &w.shape {
        Shape::HashMap(k) | Shape::List(k) => Some(k),
        Shape::Queue(_) => None,
    };
    out.push(("bench.loop_ns".into(), ladder::loop_ns(keys, sample)));
    out.push(("bench.timer_ns".into(), ladder::timer_ns(sample)));
    out
}

fn run(args: Args) -> Result<ExitCode, String> {
    let io = |e: std::io::Error| format!("{}: {e}", args.out.display());
    if let Some(dir) = args.out.parent().filter(|d| !d.as_os_str().is_empty()) {
        fs::create_dir_all(dir).map_err(io)?;
    }
    let trace_file = if args.trace {
        let mut path = args.out.clone().into_os_string();
        path.push(".trace.jsonl");
        Some(BufWriter::new(File::create(path).map_err(io)?))
    } else {
        None
    };
    // An untraced run measures the cells behind the end-to-end metrics
    // only; a traced run all six.
    let names: &[&str] = if args.trace { &CELLS } else { &E2E_CELLS };
    let (cells, pool, setup_s) = set_up(&args.workload, args.seed, names, args.smoke);
    let plan = Plan::new(args.seconds, cells.len(), args.trace, args.smoke);
    let outcome = run_cells(cells, &pool, args.seed, &plan, trace_file).map_err(io)?;
    drop(pool);
    let ladder = if args.trace {
        ladder_metrics(&args.workload, plan.ladder_sample)
    } else {
        Vec::new()
    };
    let info = RunInfo {
        workload: args.workload.name.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
    };
    let report = build(
        info,
        outcome,
        &setup_s,
        ladder,
        args.workload.reference_mops,
    );

    let mut ledger = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&args.out)
        .map_err(io)?;
    writeln!(ledger, "{}", report.ledger_line()).map_err(io)?;
    print!("{}", report.table());
    println!("{}", report.result_line());
    Ok(ExitCode::from(report.outcome.exit_code() as u8))
}

fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let read = |p: &str| fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let bounds = compare::bounds(&read("BENCHMARK.json")?)?;
    print!("{}", compare::compare(&read(a)?, &read(b)?, &bounds)?);
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare_files(&args[1], &args[2]),
        Some("compare") => Err("compare takes two ledger files".into()),
        Some("run") => parse_args(&args[1..]).and_then(run),
        _ => parse_args(&args).and_then(run),
    };
    result.unwrap_or_else(|e| {
        eprintln!("ledger: {e}\n{}", usage());
        ExitCode::from(2)
    })
}
