//! Shape-only smoke test: runs the real binary with `--smoke` (2 rounds ×
//! 50 ms, key spaces ÷ 64) on all four workloads, with and without
//! `--trace`, and checks the output against `BENCHMARK.json`: every metric
//! named there is present once, finite and correctly united, names are
//! well-formed, `ops_failed = 0`, the pool stayed put, and trace spans
//! nest. It asserts nothing about speed.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use ledger::json::{parse, Value};

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
        .expect("BENCHMARK.json parses")
}

/// name → unit of one metric list of `BENCHMARK.json`.
fn declared(bench: &Value, list: &str) -> BTreeMap<String, String> {
    bench
        .get(list)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && name.chars().next().unwrap().is_ascii_alphanumeric()
}

fn run_smoke(workload: &str, trace: bool) -> (Value, Value, PathBuf) {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{workload}-{}.jsonl", trace as u8));
    let _ = std::fs::remove_file(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "7",
            "--smoke",
            "--trace",
        ])
        .arg(if trace { "1" } else { "0" })
        .arg("--out")
        .arg(&out)
        .output()
        .expect("ledger binary runs");
    let stdout = String::from_utf8(run.stdout).unwrap();
    assert!(
        run.status.success(),
        "{workload} trace={trace} exited with {:?}\n{stdout}\n{}",
        run.status.code(),
        String::from_utf8_lossy(&run.stderr)
    );
    let result = parse(stdout.lines().last().expect("a result line")).expect("result line is JSON");
    let ledger = std::fs::read_to_string(&out).expect("ledger file written");
    let ledger = parse(ledger.lines().last().unwrap()).expect("ledger line is JSON");
    (result, ledger, out)
}

fn check_result(result: &Value, declared: &BTreeMap<String, String>, never_zero: bool, ctx: &str) {
    let keys: Vec<&str> = result
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{ctx}");
    assert_eq!(
        result.get("correct").unwrap().as_bool(),
        Some(true),
        "{ctx}"
    );
    assert_eq!(
        result.get("failed").unwrap().as_f64(),
        Some(0.0),
        "{ctx}: ops_failed"
    );
    assert!(
        result.get("attempted").unwrap().as_f64().unwrap() >= 1.0,
        "{ctx}"
    );

    let metrics = result.get("metrics").unwrap().as_obj().unwrap();
    let mut seen = BTreeMap::new();
    for (name, m) in metrics {
        assert!(well_formed(name), "{ctx}: metric name {name:?}");
        assert!(
            seen.insert(name.clone(), ()).is_none(),
            "{ctx}: {name} printed twice"
        );
        let unit = declared
            .get(name)
            .unwrap_or_else(|| panic!("{ctx}: {name} is not in BENCHMARK.json"));
        assert_eq!(
            m.get("unit").unwrap().as_str(),
            Some(unit.as_str()),
            "{ctx}: unit of {name}"
        );
        let v = m
            .get("value")
            .unwrap()
            .as_f64()
            .unwrap_or_else(|| panic!("{ctx}: {name} has no number"));
        assert!(v.is_finite() && v >= 0.0, "{ctx}: {name} = {v}");
        if never_zero {
            assert!(v > 0.0, "{ctx}: end-to-end metric {name} is 0");
        }
    }
    for name in declared.keys() {
        assert!(
            seen.contains_key(name),
            "{ctx}: {name} of BENCHMARK.json is missing"
        );
    }
}

fn check_pool(ledger: &Value, ctx: &str) {
    let pool = ledger.get("pool").unwrap();
    assert_eq!(
        pool.get("worker_tids").unwrap().as_arr().unwrap().len(),
        2,
        "{ctx}"
    );
    assert_eq!(
        pool.get("hwm_after_setup").unwrap().as_f64(),
        pool.get("hwm_at_end").unwrap().as_f64(),
        "{ctx}: the smr registry grew after set-up"
    );
    assert_eq!(
        ledger.get("ops_failed").unwrap().as_f64(),
        Some(0.0),
        "{ctx}"
    );
}

/// Every child span lies inside its batch and after the previous child.
fn check_trace(path: &PathBuf, workload: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let (mut spans, mut batches) = (0, 0);
    let mut parent: Option<(String, f64, f64)> = None; // id, start, end
    let mut cursor = 0.0;
    for line in text.lines() {
        let s = parse(line).expect("span is JSON");
        let num = |k: &str| s.get(k).unwrap().as_f64().unwrap();
        let name = s.get("name").unwrap().as_str().unwrap();
        let id = format!(
            "{}/{}/{}/{}",
            s.get("cell").unwrap().as_str().unwrap(),
            num("round"),
            num("thread"),
            num("batch")
        );
        let (start, end) = (num("start_ns"), num("end_ns"));
        assert!(start <= end, "{id}: {name} ends before it starts");
        spans += 1;
        if name == "batch" {
            assert_eq!(s.get("parent"), Some(&Value::Null), "{id}");
            parent = Some((id, start, end));
            cursor = start;
            batches += 1;
        } else {
            assert_eq!(
                s.get("parent").unwrap().as_str(),
                Some("batch"),
                "{id}: {name}"
            );
            let (pid, pstart, pend) = parent.as_ref().expect("a batch span comes first");
            assert_eq!(&id, pid, "{name} belongs to the batch before it");
            assert!(
                *pstart <= start && end <= *pend,
                "{id}: {name} leaves its batch"
            );
            assert!(cursor <= start, "{id}: {name} overlaps its predecessor");
            cursor = end;
            if workload == "queue_weak" {
                assert_ne!(name, "get", "the queue has no lookups");
            }
        }
    }
    assert!(
        batches >= 12,
        "{workload}: two traced rounds of six cells, got {batches} batches"
    );
    assert!(
        spans > batches * 30,
        "{workload}: batches carry their op spans"
    );
}

fn smoke(workload: &str) {
    let bench = benchmark_json();
    let (result, ledger, _) = run_smoke(workload, false);
    let ctx = format!("{workload} untraced");
    check_result(&result, &declared(&bench, "end_to_end"), true, &ctx);
    check_pool(&ledger, &ctx);

    let (result, ledger, out) = run_smoke(workload, true);
    let ctx = format!("{workload} traced");
    check_result(&result, &declared(&bench, "per_layer"), false, &ctx);
    check_pool(&ledger, &ctx);
    let mut trace = out.into_os_string();
    trace.push(".trace.jsonl");
    check_trace(&PathBuf::from(trace), workload);
}

#[test]
fn kv_zipf() {
    smoke("kv_zipf");
}

#[test]
fn kv_cold_read() {
    smoke("kv_cold_read");
}

#[test]
fn list_scan() {
    smoke("list_scan");
}

#[test]
fn queue_weak() {
    smoke("queue_weak");
}

#[test]
fn benchmark_json_names_the_workloads_and_runs_the_ledger() {
    let bench = benchmark_json();
    let names: Vec<&str> = bench
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(names, ledger::workload::WORKLOADS);
    for list in ["end_to_end", "per_layer"] {
        for name in declared(&bench, list).keys() {
            assert!(well_formed(name), "{name:?}");
        }
    }
    assert_eq!(declared(&bench, "end_to_end").len(), 7);
    let bad = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["--workload", "tree_range", "--seed", "1"])
        .output()
        .unwrap();
    assert_eq!(
        bad.status.code(),
        Some(2),
        "an unknown workload is a usage error"
    );
}
