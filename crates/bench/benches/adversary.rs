//! Adversarial fault-injection bench: the measured garbage-bound story.
//!
//! Every cell drives update-heavy writers against a reference-counted
//! resizable hash map (sized for its keys) while one fault from `smr::fault` is active, sampling
//! the domain's unreclaimed garbage over time:
//!
//! * `stall/<scheme>` — a victim reader pins a critical section for the
//!   stall window, with each scheme's escape hatch armed
//!   (`SmrConfig::max_garbage`): HP and IBR are bounded by construction,
//!   EBR and Hyaline by retire-side backpressure.
//! * `stall/EBR (no hatch)` — the honest unbounded baseline: plain EBR with
//!   no watermark, showing what the hatch exists to prevent.
//! * `dead/<scheme>` — a victim dies *inside* an open section without
//!   unregistering; at the recovery point its slot is reclaimed through
//!   `smr::reclaim_orphaned_slot` and the registry reaper chain, and the
//!   curve must come back down.
//! * `dropbatch/EBR` — the victim dies with a half-full deferred-decrement
//!   batch; recovery must also drain the orphaned batch.
//! * `delayscan/EBR` — every scan sleeps: a slow collector, not a dead one.
//!
//! Doubles as the CI robustness smoke: the process exits nonzero if any
//! hatched stall peak exceeds its computed bound, any recovery fails or
//! leaves more than the bound behind, or the unbounded baseline fails to
//! out-garbage the hatched run (which would mean the fault never bit).
//!
//! Environment: `ADVERSARY_MS` (per cell, default 1500), `BENCH_JSON`
//! (append one JSON line per cell), `ADVERSARY_THREADS` (default 4).

use std::time::Duration;

use bench::{emit_json, run_adversarial, settle_scheme, AdversaryOutcome, Workload};
use cdrc::{DomainRef, EbrScheme, HpScheme, HyalineScheme, IbrScheme, Scheme};
use lockfree::rc::RcResizableHashMap;
use lockfree::ConcurrentMap;
use smr::fault::FaultPlan;

/// Escape-hatch watermark (`SmrConfig::max_garbage`) for the hatched cells.
const CAP: usize = 512;

fn adversary_millis() -> u64 {
    std::env::var("ADVERSARY_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1500)
}

fn adversary_threads() -> usize {
    std::env::var("ADVERSARY_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or(4)
}

/// The measured bound a hatched/recovered cell must stay under: per-thread
/// watermark overshoot, counted three times over, for every
/// participating thread (workers, sampler, victim), plus the structure's
/// own churn slack proportional to the live set. Deliberately generous —
/// the point is "finite and small", not a tight constant.
fn bound(writers: usize, spec: &Workload) -> u64 {
    (3 * (writers + 2) * (CAP + 1024)) as u64 + 4 * spec.initial_size
}

struct Cell {
    name: String,
    out: AdversaryOutcome,
    /// `Some(bound)` when the smoke gate must check peak ≤ bound.
    peak_bound: Option<u64>,
    /// `Some(bound)` when the gate must check recovery happened and the
    /// final sample settled back under the bound.
    recovery_bound: Option<u64>,
}

/// Downsamples the curve to at most 40 points for the JSON line.
fn curve_json(curve: &[(u64, u64)]) -> String {
    let step = curve.len().div_ceil(40).max(1);
    let pts: Vec<String> = curve
        .iter()
        .step_by(step)
        .map(|&(ms, g)| format!("[{ms},{g}]"))
        .collect();
    format!("[{}]", pts.join(","))
}

fn report(cell: &Cell) {
    let o = &cell.out;
    println!(
        "{:<28} {:>7.3} Mop/s  peak {:>8}  final {:>8}  stalls {}  recovered {:?}",
        cell.name, o.mops, o.garbage_peak, o.garbage_final, o.stalls, o.recovered
    );
    emit_json(format!(
        "{{\"name\":\"{}\",\"mops\":{:.3},\"garbage_peak\":{},\"garbage_final\":{},\"stalls\":{},\"scans_delayed\":{},\"recovered\":{},\"peak_bound\":{},\"recovery_bound\":{},\"curve\":{}}}",
        cell.name,
        o.mops,
        o.garbage_peak,
        o.garbage_final,
        o.stalls,
        o.scans_delayed,
        match o.recovered {
            Some(b) => b.to_string(),
            None => "null".into(),
        },
        cell.peak_bound
            .map(|b| b.to_string())
            .unwrap_or_else(|| "null".into()),
        cell.recovery_bound
            .map(|b| b.to_string())
            .unwrap_or_else(|| "null".into()),
        curve_json(&o.curve),
    ));
}

/// Runs one (scheme, plan) cell on a fresh domain. `hatch` arms the
/// scheme's `max_garbage` watermark.
fn cell<S: Scheme>(
    name: &str,
    plan: FaultPlan,
    hatch: bool,
    spec: &Workload,
    peak_bound: Option<u64>,
    recovery_bound: Option<u64>,
) -> Cell {
    let writers = adversary_threads();
    let total = Duration::from_millis(adversary_millis());
    let fault_at = total / 5;
    let recover_at = total * 3 / 5;
    let mut cfg = S::default_config();
    if hatch {
        cfg.max_garbage = Some(CAP);
    }
    // Sized for its key range, so the table never grows mid-cell (sized
    // for the 4096 live keys it would sit exactly on the growth threshold).
    // Sentinels are nodes of the map's domain, spliced in on a bucket's
    // first touch: walk every bucket now (16 probes per bucket miss one
    // with probability e^-16) so they sit in the driver's post-prefill
    // baseline instead of reading as garbage.
    let map: RcResizableHashMap<u64, u64, S> =
        RcResizableHashMap::with_capacity_in(spec.key_range as usize, DomainRef::with_config(cfg));
    for k in 0..16 * spec.key_range {
        map.get(&k);
    }
    let out = run_adversarial(&map, plan, spec, writers, total, fault_at, recover_at);
    drop(map);
    settle_scheme::<S>();
    Cell {
        name: name.to_string(),
        out,
        peak_bound,
        recovery_bound,
    }
}

fn main() {
    let spec = Workload::points(4096, 100);
    let writers = adversary_threads();
    let bound = bound(writers, &spec);
    let total = Duration::from_millis(adversary_millis());
    // The victim stalls from total/5 until total*3/5: 40% of the run.
    let stall = total * 2 / 5;
    // `vec!` elements evaluate in order, which keeps the one-armed-fault-
    // at-a-time invariant: each `cell` disarms before the next arms.
    let cells: Vec<Cell> = vec![
        // Stalled reader, escape hatch armed: every scheme must stay
        // bounded.
        cell::<EbrScheme>(
            "stall/EBR",
            FaultPlan::stalled_reader(stall),
            true,
            &spec,
            Some(bound),
            None,
        ),
        cell::<IbrScheme>(
            "stall/IBR",
            FaultPlan::stalled_reader(stall),
            true,
            &spec,
            Some(bound),
            None,
        ),
        cell::<HpScheme>(
            "stall/HP",
            FaultPlan::stalled_reader(stall),
            true,
            &spec,
            Some(bound),
            None,
        ),
        cell::<HyalineScheme>(
            "stall/Hyaline",
            FaultPlan::stalled_reader(stall),
            true,
            &spec,
            Some(bound),
            None,
        ),
        // The documented-unbounded baseline: EBR with no hatch. Excluded
        // from the bound check; the gate instead requires it to *exceed*
        // the hatched EBR peak, proving the fault actually bit.
        cell::<EbrScheme>(
            "stall/EBR (no hatch)",
            FaultPlan::stalled_reader(stall),
            false,
            &spec,
            None,
            None,
        ),
        // Dead thread inside a section, reclaimed at the recovery point.
        cell::<EbrScheme>(
            "dead/EBR",
            FaultPlan::dead_thread_in_section(),
            true,
            &spec,
            None,
            Some(bound),
        ),
        cell::<IbrScheme>(
            "dead/IBR",
            FaultPlan::dead_thread_in_section(),
            true,
            &spec,
            None,
            Some(bound),
        ),
        cell::<HpScheme>(
            "dead/HP",
            FaultPlan::dead_thread_in_section(),
            true,
            &spec,
            None,
            Some(bound),
        ),
        cell::<HyalineScheme>(
            "dead/Hyaline",
            FaultPlan::dead_thread_in_section(),
            true,
            &spec,
            None,
            Some(bound),
        ),
        // Death with a half-full decrement batch, and a merely-slow
        // collector.
        cell::<EbrScheme>(
            "dropbatch/EBR",
            FaultPlan::drop_mid_batch(),
            true,
            &spec,
            None,
            Some(bound),
        ),
        cell::<EbrScheme>(
            "delayscan/EBR",
            FaultPlan::delay_scan(Duration::from_micros(200)),
            true,
            &spec,
            Some(bound),
            None,
        ),
    ];

    for c in &cells {
        report(c);
    }

    // Smoke gate.
    let mut bad = false;
    for c in &cells {
        if !(c.out.mops > 0.0 && c.out.mops.is_finite()) {
            eprintln!("adversary: {}: no writer progress", c.name);
            bad = true;
        }
        if let Some(b) = c.peak_bound {
            if c.out.garbage_peak > b {
                eprintln!(
                    "adversary: {}: peak {} exceeds bound {b}",
                    c.name, c.out.garbage_peak
                );
                bad = true;
            }
        }
        if let Some(b) = c.recovery_bound {
            if c.out.recovered != Some(true) {
                eprintln!("adversary: {}: orphaned slot not reclaimed", c.name);
                bad = true;
            }
            if c.out.garbage_final > b {
                eprintln!(
                    "adversary: {}: post-recovery garbage {} exceeds bound {b}",
                    c.name, c.out.garbage_final
                );
                bad = true;
            }
        }
    }
    let hatched = cells.iter().find(|c| c.name == "stall/EBR").unwrap();
    let baseline = cells
        .iter()
        .find(|c| c.name == "stall/EBR (no hatch)")
        .unwrap();
    if baseline.out.garbage_peak <= hatched.out.garbage_peak {
        eprintln!(
            "adversary: unhatched baseline peak {} did not exceed hatched peak {} — the stall never bit",
            baseline.out.garbage_peak, hatched.out.garbage_peak
        );
        bad = true;
    }
    if bad {
        std::process::exit(1);
    }
    eprintln!(
        "adversary: all {} cells within bounds (hatched bound {bound} nodes)",
        cells.len()
    );
}
