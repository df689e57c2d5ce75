//! Long-running kv-store service bench over the resizable (split-ordered)
//! hash maps: zipfian key traffic, a get/put/delete mix, and per-operation
//! latency recorded into an HDR-style log-bucketed histogram.
//!
//! Two sections:
//!
//! * `service` — one cell per (variant, scheme, skew): 4 worker threads
//!   drive the update-heavy mix against a prefilled resizable map at
//!   zipfian skews θ = 0.6 and θ = 0.99, reporting throughput, p50/p99/
//!   p999 latency (ns) and the garbage high-water mark (peak in-flight
//!   nodes above the post-prefill baseline). Both the RC and the manual
//!   variant run under all four schemes.
//! * `grow` — what growing on the fly costs: 4 threads insert far more
//!   keys than a *minimal* table's initial capacity (insert-only, disjoint
//!   ranges), against the same fill into a table sized for those keys up
//!   front (`with_capacity_in`), which never grows — both cells in one
//!   JSON line.
//!
//! Doubles as a CI smoke with the usual contract: after printing its cells
//! the process exits nonzero if any throughput is non-positive/non-finite
//! or any latency histogram came back empty. `SERVICE_SMOKE=1` restricts
//! the run to one scheme, one skew and a small key count.
//!
//! Environment: `BENCH_MS` (per cell, default 300), `BENCH_JSON` (append
//! one JSON line per cell), `SERVICE_THREADS` (default 4),
//! `SERVICE_KEYS` (default 65536), `SERVICE_SMOKE`.

use std::time::Duration;

use bench::settle_scheme;
use bench_harness::{bench_millis, run_service_for, ServiceMix, ServiceReport};
use cdrc::{DomainRef, EbrScheme, HpScheme, HyalineScheme, IbrScheme, Scheme};
use lockfree::manual::ResizableHashMap;
use lockfree::rc::RcResizableHashMap;
use lockfree::ConcurrentMap;
use smr::{AcquireRetire, Ebr, Hp, Hyaline, Ibr};

fn emit_json(line: String) {
    if let Ok(path) = std::env::var("BENCH_JSON") {
        use std::io::Write;
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            let _ = writeln!(f, "{line}");
        }
    }
}

fn service_threads() -> usize {
    std::env::var("SERVICE_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or(4)
}

fn service_keys() -> u64 {
    std::env::var("SERVICE_KEYS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &u64| n > 0)
        .unwrap_or(65_536)
}

struct Outcome {
    mops: f64,
    ops: u64,
}

fn report_cell(name: &str, theta: f64, r: &ServiceReport, out: &mut Vec<Outcome>) {
    println!(
        "{name:<40} θ={theta:<4} {:>8.3} Mop/s  p50 {:>6} ns  p99 {:>7} ns  p999 {:>8} ns  garbage peak {}",
        r.mops, r.p50_ns, r.p99_ns, r.p999_ns, r.garbage_peak
    );
    emit_json(format!(
        "{{\"name\":\"{name}\",\"theta\":{theta},\"mops\":{:.3},\"ops\":{},\"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\"garbage_avg\":{},\"garbage_peak\":{}}}",
        r.mops, r.ops, r.p50_ns, r.p99_ns, r.p999_ns, r.garbage_avg, r.garbage_peak
    ));
    out.push(Outcome {
        mops: r.mops,
        ops: r.ops,
    });
}

fn rc_cell<S: Scheme>(scheme: &str, theta: f64, dur: Duration, out: &mut Vec<Outcome>) {
    let map: RcResizableHashMap<u64, u64, S> = RcResizableHashMap::new_in(DomainRef::new());
    let r = run_service_for(
        &map,
        service_keys(),
        theta,
        ServiceMix::update_heavy(),
        service_threads(),
        dur,
    );
    drop(map);
    settle_scheme::<S>();
    report_cell(&format!("service/resizable/RC ({scheme})"), theta, &r, out);
}

fn manual_cell<S: AcquireRetire>(scheme: &str, theta: f64, dur: Duration, out: &mut Vec<Outcome>) {
    let map: ResizableHashMap<u64, u64, S> = ResizableHashMap::new();
    let r = run_service_for(
        &map,
        service_keys(),
        theta,
        ServiceMix::update_heavy(),
        service_threads(),
        dur,
    );
    report_cell(&format!("service/resizable/{scheme}"), theta, &r, out);
}

/// Insert-only storm: `threads` workers insert disjoint key ranges
/// totalling `total` keys, far beyond the table's initial capacity.
/// Returns Mop/s for the complete fill.
fn grow_fill<M: ConcurrentMap<u64, u64>>(map: &M, total: u64, threads: usize) -> f64 {
    let per = total / threads as u64;
    let started = std::time::Instant::now();
    std::thread::scope(|s| {
        for i in 0..threads as u64 {
            let map = &map;
            s.spawn(move || {
                let guard = map.pin();
                for k in i * per..(i + 1) * per {
                    map.insert_with(k, k, &guard);
                }
            });
        }
    });
    (per * threads as u64) as f64 / started.elapsed().as_secs_f64() / 1.0e6
}

/// The A/B: a table starting minimal and doubling its way up vs one sized
/// for `total` keys at construction, both filled with `total` keys.
fn grow_ab(total: u64, threads: usize, out: &mut Vec<Outcome>) {
    // Best of two runs each, interleaved so machine drift hits both arms.
    let (mut grown, mut presized) = (0.0f64, 0.0f64);
    for _ in 0..2 {
        let map: RcResizableHashMap<u64, u64, EbrScheme> =
            RcResizableHashMap::new_in(DomainRef::new());
        grown = grown.max(grow_fill(&map, total, threads));
        let buckets = map.buckets();
        drop(map);
        settle_scheme::<EbrScheme>();

        let map: RcResizableHashMap<u64, u64, EbrScheme> =
            RcResizableHashMap::with_capacity_in(total as usize, DomainRef::new());
        presized = presized.max(grow_fill(&map, total, threads));
        drop(map);
        settle_scheme::<EbrScheme>();

        println!("grow/ab: grew to {buckets} buckets filling {total} keys ({threads} threads)");
    }
    println!(
        "{:<40} {grown:>8.3} Mop/s  vs presized {presized:>8.3} Mop/s ({:.2}x)",
        "grow/grown-vs-presized/RC (EBR)",
        grown / presized.max(f64::MIN_POSITIVE)
    );
    emit_json(format!(
        "{{\"name\":\"grow/grown-vs-presized/RC (EBR)\",\"keys\":{total},\"threads\":{threads},\"grown_mops\":{grown:.3},\"presized_mops\":{presized:.3}}}"
    ));
    out.push(Outcome {
        mops: grown,
        ops: 1,
    });
    out.push(Outcome {
        mops: presized,
        ops: 1,
    });
}

fn main() {
    let dur = Duration::from_millis(bench_millis());
    let smoke = std::env::var("SERVICE_SMOKE").is_ok();
    let mut out = Vec::new();

    let skews: &[f64] = if smoke { &[0.99] } else { &[0.6, 0.99] };
    for &theta in skews {
        rc_cell::<EbrScheme>("EBR", theta, dur, &mut out);
        manual_cell::<Ebr>("EBR", theta, dur, &mut out);
        if !smoke {
            rc_cell::<IbrScheme>("IBR", theta, dur, &mut out);
            rc_cell::<HpScheme>("HP", theta, dur, &mut out);
            rc_cell::<HyalineScheme>("Hyaline", theta, dur, &mut out);
            manual_cell::<Ibr>("IBR", theta, dur, &mut out);
            manual_cell::<Hp>("HP", theta, dur, &mut out);
            manual_cell::<Hyaline>("Hyaline", theta, dur, &mut out);
        }
    }

    let (total, threads) = if smoke {
        (20_000, 2)
    } else {
        (400_000, service_threads())
    };
    grow_ab(total, threads, &mut out);

    // Smoke gate: every cell must have positive finite throughput and a
    // non-empty latency histogram (the grow cells carry a dummy ops=1).
    let bad = out
        .iter()
        .any(|o| !(o.mops > 0.0 && o.mops.is_finite()) || o.ops == 0);
    if bad {
        eprintln!("service: non-positive throughput or empty histogram; failing");
        std::process::exit(1);
    }
    eprintln!(
        "service: all {} cells positive with non-empty histograms",
        out.len()
    );
}
