//! `ledger compare <a> <b>`: the human-facing twin of the pipeline's check.
//! Read-only. One row per (workload, end-to-end metric): both medians and
//! IQRs, the change, and a verdict by the metric's bound in
//! `BENCHMARK.json` and the choosing-metrics guide's rule.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::json::{parse, Value};
use crate::stats::{iqr, median};

/// One end-to-end metric's definition, from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is better than `a` beyond `a`'s own spread, in ≥ 9/10 of pairs.
    Win,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Loss,
    /// Neither.
    Noise,
    /// The spread exceeds the bound and the runs overlap: nothing can be
    /// said either way.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Win => "win",
            Verdict::Loss => "loss",
            Verdict::Noise => "noise",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Reads the end-to-end metric definitions out of `BENCHMARK.json`'s text.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let v = parse(benchmark_json).map_err(|e| e.to_string())?;
    let list = v
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry in BENCHMARK.json".to_string())
}

/// One side of a metric: the value of each run, or — from a single run —
/// its value and the spread of its own rounds.
#[derive(Debug, Clone, Default)]
struct Side {
    values: Vec<f64>,
    own_iqr: f64,
}

impl Side {
    fn median(&self) -> f64 {
        median(&self.values)
    }
    fn iqr(&self) -> f64 {
        if self.values.len() > 1 {
            iqr(&self.values)
        } else {
            self.own_iqr
        }
    }
}

/// workload → metric → side, from a ledger file's untraced full-size runs.
fn load(text: &str) -> Result<BTreeMap<String, BTreeMap<String, Side>>, String> {
    let mut out: BTreeMap<String, BTreeMap<String, Side>> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let flag = |k: &str| v.get(k).and_then(Value::as_bool).unwrap_or(false);
        if flag("trace") || flag("smoke") {
            continue;
        }
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("line {}: no workload", n + 1))?;
        let metrics = v
            .get("end_to_end")
            .and_then(Value::as_obj)
            .ok_or(format!("line {}: no end_to_end", n + 1))?;
        let per_workload = out.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let side = per_workload.entry(name.clone()).or_default();
            side.values.push(
                m.get("value")
                    .and_then(Value::as_f64)
                    .ok_or("metric without value")?,
            );
            side.own_iqr = m.get("iqr").and_then(Value::as_f64).unwrap_or(0.0);
        }
    }
    Ok(out)
}

/// Applies the guide's rule to one metric.
fn judge(a: &Side, b: &Side, bound: &Bound) -> Verdict {
    let (ma, mb) = (a.median(), b.median());
    if ma == 0.0 {
        return Verdict::Unresolved;
    }
    let sign = if bound.higher_is_better { 1.0 } else { -1.0 };
    let better = |x: f64, y: f64| (x - y) * sign > 0.0; // x better than y
    let all =
        |f: &dyn Fn(f64, f64) -> bool| b.values.iter().all(|&y| a.values.iter().all(|&x| f(y, x)));
    let spread = a.iqr().max(b.iqr()) / ma.abs();
    let overlap = !all(&|y, x| better(y, x)) && !all(&|y, x| better(x, y));
    if spread > bound.bound && overlap {
        return Verdict::Unresolved;
    }
    let gain = (mb - ma) * sign / ma.abs();
    if gain < -bound.bound {
        return Verdict::Loss;
    }
    let pairs = a.values.len().min(b.values.len());
    let wins = (0..pairs)
        .filter(|&i| better(b.values[i], a.values[i]))
        .count();
    let ties = (0..pairs).filter(|&i| b.values[i] == a.values[i]).count();
    if (mb - ma) * sign > a.iqr() && wins * 10 >= (pairs - ties) * 9 && wins > 0 {
        return Verdict::Win;
    }
    Verdict::Noise
}

/// The comparison table of two ledger files.
pub fn compare(a_text: &str, b_text: &str, bounds: &[Bound]) -> Result<String, String> {
    let (a, b) = (load(a_text)?, load(b_text)?);
    let mut s = format!(
        "{:<14} {:<18} {:>12} {:>10} {:>12} {:>10} {:>8} {:>6}  verdict\n",
        "workload", "metric", "a", "iqr", "b", "iqr", "delta", "bound"
    );
    for (workload, am) in &a {
        let Some(bm) = b.get(workload) else { continue };
        for bound in bounds {
            let (Some(x), Some(y)) = (am.get(&bound.name), bm.get(&bound.name)) else {
                continue;
            };
            let delta = if x.median() == 0.0 {
                0.0
            } else {
                (y.median() - x.median()) / x.median().abs()
            };
            writeln!(
                s,
                "{:<14} {:<18} {:>12.4} {:>10.4} {:>12.4} {:>10.4} {:>+7.1}% {:>5.0}%  {}",
                workload,
                bound.name,
                x.median(),
                x.iqr(),
                y.median(),
                y.iqr(),
                delta * 100.0,
                bound.bound * 100.0,
                judge(x, y, bound).label()
            )
            .expect("writing to a String cannot fail");
        }
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(values: &[f64]) -> Side {
        Side {
            values: values.to_vec(),
            own_iqr: 0.0,
        }
    }

    fn mops() -> Bound {
        Bound {
            name: "rc_ebr_mops".into(),
            higher_is_better: true,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_follow_the_guide() {
        let base = side(&[10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02]);
        let faster: Vec<f64> = base.values.iter().map(|v| v * 1.2).collect();
        let slower: Vec<f64> = base.values.iter().map(|v| v * 0.8).collect();
        let same: Vec<f64> = base.values.iter().rev().copied().collect();
        assert_eq!(judge(&base, &side(&faster), &mops()), Verdict::Win);
        assert_eq!(judge(&base, &side(&slower), &mops()), Verdict::Loss);
        assert_eq!(judge(&base, &side(&same), &mops()), Verdict::Noise);
        let noisy = side(&[10.0, 13.0, 8.0, 12.0, 7.5, 11.0]);
        assert_eq!(
            judge(&noisy, &side(&[9.0, 12.5, 8.5, 11.0, 10.0, 9.5]), &mops()),
            Verdict::Unresolved
        );
        // Lower-is-better flips the sign.
        let lat = Bound {
            name: "rc_ebr_p50_ns".into(),
            higher_is_better: false,
            bound: 0.10,
        };
        assert_eq!(judge(&base, &side(&faster), &lat), Verdict::Loss);
        assert_eq!(judge(&base, &side(&slower), &lat), Verdict::Win);
    }

    #[test]
    fn table_has_one_row_per_workload_and_metric() {
        let bench = r#"{"end_to_end":[{"name":"rc_ebr_mops","unit":"Mop/s","better":"higher","bound":0.1}]}"#;
        let line = |w: &str, v: f64, trace: bool| {
            format!(
                "{{\"workload\":\"{w}\",\"trace\":{trace},\"smoke\":false,\
                 \"end_to_end\":{{\"rc_ebr_mops\":{{\"value\":{v},\"unit\":\"Mop/s\",\"iqr\":0.1}}}}}}"
            )
        };
        let a = [
            line("kv_zipf", 5.0, false),
            line("list_scan", 0.3, false),
            line("kv_zipf", 1.0, true),
        ]
        .join("\n");
        let b = [line("kv_zipf", 4.0, false), line("list_scan", 0.31, false)].join("\n");
        let table = compare(&a, &b, &bounds(bench).unwrap()).unwrap();
        assert_eq!(table.lines().count(), 3, "{table}");
        assert!(table.contains("loss"), "{table}");
        assert!(table.contains("noise"), "{table}");
    }
}
