//! From what a run measured to named metrics with units, and their three
//! renderings: the table a person reads, the ledger line `compare` reads,
//! and the result line the benchmark contract asks for.

use crate::json::escape;
use crate::run::{CellResult, Outcome, LATENCY_CELLS, THREADS};
use crate::stats::{iqr, median, quantile, trend};
use crate::workload::{E2E_CELLS, REFERENCE, SCHEMES};

/// One named number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Median of its samples (or the single reading), at the reference's
    /// nominal speed where the workload has a reference cell.
    pub value: f64,
    /// The same as measured, where `value` is normalised.
    pub raw: Option<f64>,
    /// Unit.
    pub unit: &'static str,
    /// Inter-quartile range of the samples, where there are several.
    pub iqr: Option<f64>,
    /// Fitted first-to-last-round change as a share of the median.
    pub trend: Option<f64>,
    /// Samples behind the value.
    pub n: Option<u64>,
}

impl Metric {
    fn single(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            raw: None,
            unit,
            iqr: None,
            trend: None,
            n: None,
        }
    }

    fn of_samples(name: impl Into<String>, samples: &[f64], unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value: median(samples),
            raw: None,
            unit,
            iqr: Some(iqr(samples)),
            trend: Some(trend(samples)),
            n: Some(samples.len() as u64),
        }
    }
}

/// What identifies a run.
#[derive(Debug, Clone)]
pub struct RunInfo {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--trace`.
    pub trace: bool,
    /// `--smoke`.
    pub smoke: bool,
}

/// A run's metrics and verdict.
#[derive(Debug)]
pub struct Report {
    /// What was run.
    pub info: RunInfo,
    /// What a user of the structures would see.
    pub end_to_end: Vec<Metric>,
    /// Single layers; complete only in a traced run.
    pub per_layer: Vec<Metric>,
    /// The measured run.
    pub outcome: Outcome,
    /// Measured rounds whose calibration kernel ran > 5 % below the run's
    /// median: a disturbed window (still counted).
    pub disturbed: Vec<usize>,
    /// Duration of each set-up repeat, in order.
    pub setup_samples: Vec<f64>,
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn column<const N: usize>(rows: &[[f64; N]], i: usize) -> Vec<f64> {
    rows.iter().map(|r| r[i]).collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Names the run's numbers. `ladder` is empty in an untraced run, and then
/// so are the trace-derived `lockfree.*_ns` metrics and everything about
/// the cells an untraced run leaves out. `reference_mops` is the nominal
/// speed of the workload's reference cell, if it has one: throughput is
/// then reported times `reference_mops ÷ the reference's median`, latency
/// divided by it (see [`crate::reference`]).
pub fn build(
    info: RunInfo,
    outcome: Outcome,
    setup_s: &[f64],
    ladder: Vec<(String, f64)>,
    reference_mops: Option<f64>,
) -> Report {
    let cell = |name: &str| outcome.cells.iter().find(|c| c.name == name);
    let measured = || outcome.cells.iter().filter(|c| c.name != REFERENCE);
    let mops = |name: &str| cell(name).map_or(0.0, |c| median(&c.mops));
    // Per round: what the reference cell's nominal speed is of the speed it
    // ran at in that round. Round by round, because the box's speed moves
    // within a run too; the median over rounds then drops a round whose
    // reference trial alone was disturbed.
    let speed: Vec<f64> = match (reference_mops, cell(REFERENCE)) {
        (Some(nominal), Some(r)) => r.mops.iter().map(|&m| ratio_f(nominal, m)).collect(),
        _ => Vec::new(),
    };
    let at_nominal = |samples: &[f64], invert: bool| -> Vec<f64> {
        samples
            .iter()
            .enumerate()
            .map(|(round, &v)| match speed.get(round) {
                Some(&s) if s > 0.0 && invert => v / s,
                Some(&s) if s > 0.0 => v * s,
                _ => v,
            })
            .collect()
    };
    let normalised = |name: String, samples: &[f64], unit: &'static str, invert: bool| {
        let mut m = Metric::of_samples(name, &at_nominal(samples, invert), unit);
        if !speed.is_empty() {
            m.raw = Some(median(samples));
        }
        m
    };
    let throughput =
        |c: &CellResult| normalised(format!("{}_mops", c.name), &c.mops, "Mop/s", false);
    let latency = |name: &str, q: usize, label: &str| {
        cell(name).map(|c| {
            let mut m = normalised(
                format!("{name}_{label}_ns"),
                &column(&c.latency, q),
                "ns",
                true,
            );
            m.n = Some(c.latency_samples);
            m
        })
    };

    // The lower quartile of the repeats, not their median: the first
    // repeats of a process fault fresh heap in and an occasional later one
    // meets a trimmed heap, so noise only ever adds; the fast quarter
    // repeated within 5 % from run to run where the median moved by 20 %.
    // Work moved into set-up lengthens every repeat and shows either way.
    let mut e2e = vec![Metric::of_samples("setup_s", setup_s, "s")];
    e2e[0].value = quantile(setup_s, 0.25);
    e2e[0].trend = None;
    e2e.extend(E2E_CELLS.iter().filter_map(|n| cell(n)).map(throughput));
    e2e.extend(LATENCY_CELLS.iter().filter_map(|n| latency(n, 0, "p50")));

    let mut layer: Vec<Metric> = ladder
        .into_iter()
        .map(|(name, ns)| Metric::single(name, ns, "ns"))
        .collect();
    // What the end-to-end list leaves to the traced run: RC over the other
    // two schemes, the tail (it did not repeat: 30–80 % between sets of ten
    // runs on the contended workloads) and peak memory (on `queue_weak` it
    // is the garbage of the fastest trial, 11–47 %).
    layer.extend(
        measured()
            .filter(|c| !E2E_CELLS.contains(&c.name.as_str()))
            .map(throughput),
    );
    layer.extend(LATENCY_CELLS.iter().filter_map(|n| latency(n, 1, "p99")));
    layer.push(Metric::single("peak_rss_mb", peak_rss_mib(), "MiB"));
    for (scheme, c) in SCHEMES
        .iter()
        .filter_map(|s| Some((s, cell(&format!("rc_{s}"))?)))
    {
        let flows = |f: fn(&crate::run::Flow) -> f64| c.flows.iter().map(f).collect::<Vec<_>>();
        let p = format!("cdrc.{scheme}");
        layer.push(Metric::of_samples(
            format!("{p}.allocs_per_op"),
            &flows(|f| f.allocs_per_op),
            "1/op",
        ));
        layer.push(Metric::of_samples(
            format!("{p}.epochs_per_mop"),
            &flows(|f| f.epochs_per_mop),
            "1/Mop",
        ));
        layer.push(Metric::of_samples(
            format!("{p}.garbage_avg"),
            &flows(|f| f.garbage_avg),
            "nodes",
        ));
        layer.push(Metric::of_samples(
            format!("{p}.garbage_peak"),
            &flows(|f| f.garbage_peak),
            "nodes",
        ));
        layer.push(Metric::single(
            format!("{p}.drain_ms"),
            c.teardown.map_or(0.0, |t| t.drain_ms),
            "ms",
        ));
    }
    let traced = outcome.cells.iter().any(|c| !c.traced_mops.is_empty());
    if traced {
        for c in measured() {
            for (k, op) in ["get", "put", "del"].iter().enumerate() {
                let mut m = Metric::single(
                    format!("lockfree.{}.{op}_ns", c.name),
                    c.spans.ops[k].quantile(0.5),
                    "ns",
                );
                m.n = Some(c.spans.ops[k].count());
                layer.push(m);
            }
            let mut m = Metric::single(
                format!("lockfree.{}.pin_ns", c.name),
                c.spans.pin.quantile(0.5),
                "ns",
            );
            m.n = Some(c.spans.pin.count());
            layer.push(m);
        }
    }
    for (k, name) in ["get_hit", "put_ok", "del_ok"].iter().enumerate() {
        let ok: u64 = measured().map(|c| c.ok[k]).sum();
        let ops: u64 = measured().map(|c| c.ops[k]).sum();
        layer.push(Metric::single(
            format!("lockfree.{name}_ratio"),
            ratio(ok, ops),
            "ratio",
        ));
    }
    for name in ["manual_ebr", "manual_hp"] {
        let g: Vec<f64> = cell(name).map_or(Vec::new(), |c| {
            c.flows.iter().map(|f| f.garbage_avg).collect()
        });
        layer.push(Metric::of_samples(
            format!("lockfree.{name}.garbage_avg"),
            &g,
            "nodes",
        ));
    }

    let calib_median = median(&outcome.calib);
    let disturbed = outcome
        .calib
        .iter()
        .enumerate()
        .filter(|(_, &c)| c < 0.95 * calib_median)
        .map(|(i, _)| i)
        .collect();
    layer.push(Metric::of_samples(
        "bench.calib_mops",
        &outcome.calib,
        "Mop/s",
    ));
    layer.push(Metric::of_samples(
        "bench.reference_mops",
        cell(REFERENCE).map_or(&[][..], |c| &c.mops),
        "Mop/s",
    ));
    layer.push(Metric::single(
        "bench.speed_factor",
        if speed.is_empty() {
            1.0
        } else {
            median(&speed)
        },
        "ratio",
    ));
    let spreads: Vec<f64> = measured()
        .filter(|c| median(&c.mops) > 0.0)
        .map(|c| iqr(&c.mops) / median(&c.mops))
        .collect();
    layer.push(Metric::single("bench.trial_iqr", median(&spreads), "ratio"));
    layer.push(Metric::single(
        "bench.ratio_ebr",
        ratio_f(mops("rc_ebr"), mops("manual_ebr")),
        "ratio",
    ));
    layer.push(Metric::single(
        "bench.ratio_hp",
        ratio_f(mops("rc_hp"), mops("manual_hp")),
        "ratio",
    ));
    for name in LATENCY_CELLS {
        layer.extend(latency(name, 2, "p999").map(|mut m| {
            m.name = format!("bench.{name}.p999_ns");
            m
        }));
    }
    if traced {
        let overhead: Vec<f64> = measured()
            .map(|c| ratio_f(median(&c.mops), median(&c.traced_mops)))
            .collect();
        layer.push(Metric::single(
            "bench.trace_overhead",
            median(&overhead),
            "ratio",
        ));
        let (self_ns, batch_ns) = measured().fold((0, 0), |(s, b), c| {
            (s + c.spans.self_ns, b + c.spans.batch_ns)
        });
        layer.push(Metric::single(
            "bench.batch_self_share",
            ratio(self_ns, batch_ns),
            "ratio",
        ));
    }

    Report {
        info,
        end_to_end: e2e,
        per_layer: layer,
        outcome,
        disturbed,
        setup_samples: setup_s.to_vec(),
    }
}

fn ratio_f(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn metrics_json(ms: &[Metric], full: bool) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            let mut s = format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"",
                m.name,
                finite(m.value),
                m.unit
            );
            if full {
                if let Some(v) = m.raw {
                    s += &format!(",\"raw\":{}", finite(v));
                }
                if let Some(v) = m.iqr {
                    s += &format!(",\"iqr\":{}", finite(v));
                }
                if let Some(v) = m.trend {
                    s += &format!(",\"trend\":{}", finite(v));
                }
                if let Some(v) = m.n {
                    s += &format!(",\"n\":{v}");
                }
            }
            s + "}"
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

impl Report {
    /// The contract's result line: the end-to-end metrics of an untraced
    /// run, the per-layer metrics of a traced one.
    pub fn result_line(&self) -> String {
        let ms = if self.info.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.outcome.correct(),
            self.outcome.attempted(),
            self.outcome.failed(),
            metrics_json(ms, false)
        )
    }

    /// One line of the ledger file: everything `compare` and a reader need.
    pub fn ledger_line(&self) -> String {
        let o = &self.outcome;
        let failures: Vec<String> = o
            .failures
            .iter()
            .map(|f| format!("\"{}\"", escape(f)))
            .collect();
        let cells: Vec<String> = o
            .cells
            .iter()
            .map(|c| {
                format!(
                    "\"{}\":{{\"mops\":{:?},\"traced_mops\":{:?},\"self_share\":{},\
                     \"dropped_batches\":{},\"ops\":{:?},\"ok\":{:?},\"attempted\":{},\"failed\":{}}}",
                    c.name,
                    c.mops,
                    c.traced_mops,
                    finite(c.spans.self_share()),
                    c.spans.dropped_batches,
                    c.ops,
                    c.ok,
                    c.attempted,
                    c.failed
                )
            })
            .collect();
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\
             \"threads\":{THREADS},\"nproc\":{},\"correct\":{},\"ops_attempted\":{},\
             \"ops_failed\":{},\"failures\":[{}],\"disturbed_rounds\":{:?},\"setup_samples\":{:?},\
             \"pool\":{{\"worker_tids\":{:?},\"hwm_after_setup\":{},\"hwm_at_end\":{}}},\
             \"end_to_end\":{},\"per_layer\":{},\"cells\":{{{}}}}}",
            self.info.workload,
            self.info.seed,
            self.info.seconds,
            self.info.trace,
            self.info.smoke,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            o.correct(),
            o.attempted(),
            o.failed(),
            failures.join(","),
            self.disturbed,
            self.setup_samples,
            o.worker_tids,
            o.hwm.0,
            o.hwm.1,
            metrics_json(&self.end_to_end, true),
            metrics_json(&self.per_layer, true),
            cells.join(",")
        )
    }

    /// Every metric by name with its unit, for a person.
    pub fn table(&self) -> String {
        let mut s = format!(
            "ledger: workload {} seed {} seconds {} trace {} threads {THREADS} nproc {}\n",
            self.info.workload,
            self.info.seed,
            self.info.seconds,
            self.info.trace as u8,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        );
        for (title, ms) in [
            ("end-to-end", &self.end_to_end),
            ("per-layer", &self.per_layer),
        ] {
            s += &format!("-- {title}\n");
            for m in ms {
                s += &format!("{:<34} {:>14.4} {:<6}", m.name, m.value, m.unit);
                if let Some(v) = m.raw {
                    s += &format!(" raw {v:.4}");
                }
                if let Some(v) = m.iqr {
                    s += &format!(" iqr {v:.4}");
                }
                if let Some(v) = m.trend {
                    s += &format!(" trend {:+.1}%", v * 100.0);
                }
                if let Some(v) = m.n {
                    s += &format!(" n {v}");
                }
                s.push('\n');
            }
        }
        for r in &self.disturbed {
            s += &format!(
                "round {r}: disturbed (calibration kernel > 5 % below the run's median)\n"
            );
        }
        let o = &self.outcome;
        s += &format!(
            "ops_attempted {} ops_failed {} correct {}\n",
            o.attempted(),
            o.failed(),
            o.correct()
        );
        for f in &o.failures {
            s += &format!("FAILED CHECK: {f}\n");
        }
        s
    }
}
