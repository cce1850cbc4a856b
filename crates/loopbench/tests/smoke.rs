//! The benchmark's own smoke test, at small sizes: every metric
//! `BENCHMARK.json` declares is emitted with its unit, traced spans nest
//! and their self times add up to each command, the correctness gate trips
//! on a tampered fingerprint, and the optimize fingerprint does not depend
//! on the thread count.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_loopbench");
const WORKLOADS: [&str; 4] = ["scm-optimize", "lap-hotkey", "drm-analyze", "drm-watch"];
/// Small enough for seconds per run, large enough that every workload's
/// plan still has an applicable action.
const TXS: &str = "2000";
const SEED: &str = "3";

/// A fresh working directory for one test.
fn workdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("loopbench-smoke")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

fn args<'a>(workload: &'a str, trace: &'a str, extra: &[&'a str]) -> Vec<&'a str> {
    let mut v = vec![
        "--workload",
        workload,
        "--seed",
        SEED,
        "--seconds",
        "1",
        "--trace",
        trace,
        "--txs",
        TXS,
    ];
    v.extend_from_slice(extra);
    v
}

/// Run the benchmark; the parsed result line when it exits 0.
fn bench(dir: &Path, args: &[&str]) -> Option<Value> {
    let out = Command::new(EXE)
        .args(args)
        .current_dir(dir)
        .env_remove("BLOCKOPTR_THREADS")
        .env_remove("BLOCKOPTR_WINDOW")
        .output()
        .expect("benchmark starts");
    if !out.status.success() {
        return None;
    }
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    Some(serde_json::value_from_str(last).expect("the result line is JSON"))
}

fn num(v: &Value) -> f64 {
    match v {
        Value::Number(serde_json::Number::PosInt(n)) => *n as f64,
        Value::Number(serde_json::Number::NegInt(n)) => *n as f64,
        Value::Number(serde_json::Number::Float(f)) => *f,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.field(key)
        .unwrap_or_else(|| panic!("missing {key:?} in {v:?}"))
}

/// `(name, unit)` of a `BENCHMARK.json` metric section.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = serde_json::value_from_str(&text).expect("BENCHMARK.json parses");
    let Value::Array(items) = field(&doc, section) else {
        panic!("{section} is not an array");
    };
    items
        .iter()
        .map(|m| match (field(m, "name"), field(m, "unit")) {
            (Value::Str(n), Value::Str(u)) => (n.clone(), u.clone()),
            other => panic!("bad metric entry {other:?}"),
        })
        .collect()
}

fn check_result(result: &Value, section: &str, what: &str) {
    let Value::Object(fields) = result else {
        panic!("{what}: result is not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(field(result, "correct"), &Value::Bool(true), "{what}");
    assert!(num(field(result, "attempted")) >= 1.0, "{what}");
    assert!(num(field(result, "failed")).abs() < 0.5, "{what}");
    let Value::Object(metrics) = field(result, "metrics") else {
        panic!("{what}: metrics is not an object");
    };
    let emitted: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| match field(m, "unit") {
            Value::Str(u) => {
                num(field(m, "value"));
                (name.clone(), u.clone())
            }
            other => panic!("{what}: {name} has unit {other:?}"),
        })
        .collect();
    assert_eq!(emitted, declared(section), "{what}: {section} metrics");
    if section == "end_to_end" {
        for (name, m) in metrics {
            assert!(
                num(field(m, "value")) > 0.0,
                "{what}: {name} is not positive"
            );
        }
    }
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let dir = workdir("metrics");
    for workload in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = bench(&dir, &args(workload, trace, &[]))
                .unwrap_or_else(|| panic!("{workload} --trace {trace} failed"));
            check_result(&result, section, &format!("{workload} --trace {trace}"));
        }
    }
}

#[test]
fn spans_nest_and_self_times_cover_each_command() {
    let dir = workdir("spans");
    let layers: [(&str, &[&str]); 2] = [
        (
            "scm-optimize",
            &[
                "setup",
                "command",
                "workload.build",
                "fabric_sim.run",
                "log.extract",
                "session.ingest",
                "session.snapshot",
                "plan.from_spec",
                "plan.grid",
            ],
        ),
        (
            "drm-watch",
            &[
                "setup",
                "command",
                "workload.build",
                "fabric_sim.run",
                "log.extract",
                "export.write",
                "export.parse",
                "session.ingest",
                "session.snapshot",
            ],
        ),
    ];
    for (workload, names) in layers {
        bench(&dir, &args(workload, "1", &[])).expect("traced run succeeds");
        let path = dir
            .join(".loopbench")
            .join(format!("{workload}-s{SEED}"))
            .join("trace.json");
        let text = std::fs::read_to_string(&path).expect("trace file written");
        let doc = serde_json::value_from_str(&text).expect("trace parses");
        let Value::Array(spans) = field(&doc, "spans") else {
            panic!("spans is not an array");
        };
        let interval = |s: &Value| (num(field(s, "start_ns")), num(field(s, "end_ns")));
        let mut child_ns = vec![0.0; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            let (start, end) = interval(s);
            assert!(start <= end, "{workload}: span {i} runs backwards");
            if let Value::Number(_) = field(s, "parent") {
                let p = num(field(s, "parent")) as usize;
                assert!(p < i, "{workload}: span {i} precedes its parent");
                let (ps, pe) = interval(&spans[p]);
                assert!(ps <= start && end <= pe, "{workload}: span {i} escapes {p}");
                child_ns[p] += end - start;
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let (start, end) = interval(s);
            assert!(
                child_ns[i] <= end - start,
                "{workload}: children of {i} overlap"
            );
        }
        for name in names {
            assert!(
                spans
                    .iter()
                    .any(|s| field(s, "name") == &Value::Str(name.to_string())),
                "{workload}: no {name} span"
            );
        }
    }
}

#[test]
fn tampered_fingerprint_trips_the_gate() {
    let dir = workdir("gate");
    let store = dir.join("fingerprints.json");
    let store_arg = store.to_str().expect("utf-8 path");
    let recorded = bench(&dir, &args("drm-analyze", "0", &["--record", store_arg]))
        .expect("recording succeeds");
    check_result(&recorded, "end_to_end", "record");
    let checked = bench(
        &dir,
        &args("drm-analyze", "0", &["--fingerprints", store_arg]),
    )
    .expect("checked run succeeds");
    check_result(&checked, "end_to_end", "checked against the record");

    let text = std::fs::read_to_string(&store).expect("store written");
    let key = format!("\"drm-analyze seed={SEED} txs={TXS}\": \"");
    let at = text.find(&key).expect("the record is keyed by the input") + key.len();
    let mut tampered = text.clone();
    let digit = if &text[at..at + 1] == "0" { "1" } else { "0" };
    tampered.replace_range(at..at + 1, digit);
    std::fs::write(&store, tampered).expect("store rewritten");
    let result = bench(
        &dir,
        &args("drm-analyze", "0", &["--fingerprints", store_arg]),
    )
    .expect("a gate failure still reports a result");
    assert_eq!(field(&result, "correct"), &Value::Bool(false));
    let attempted = num(field(&result, "attempted"));
    assert!(attempted >= 1.0);
    assert!(
        (num(field(&result, "failed")) - attempted).abs() < 0.5,
        "every iteration fails"
    );
}

#[test]
fn optimize_fingerprint_does_not_depend_on_threads() {
    let dir = workdir("threads");
    let store = dir.join("fingerprints.json");
    let store_arg = store.to_str().expect("utf-8 path");
    // Recording also checks the spelled-out loop against the library's
    // `OptimizationPlan::from_spec` + `execute_spec_from_with`.
    bench(
        &dir,
        &args(
            "scm-optimize",
            "0",
            &["--threads", "1", "--record", store_arg],
        ),
    )
    .expect("recording at one thread succeeds");
    for threads in ["2", "3"] {
        let result = bench(
            &dir,
            &args(
                "scm-optimize",
                "0",
                &["--threads", threads, "--fingerprints", store_arg],
            ),
        )
        .expect("checked run succeeds");
        assert_eq!(
            field(&result, "correct"),
            &Value::Bool(true),
            "{threads} threads"
        );
    }
}

#[test]
fn bad_invocations_fail_without_a_result() {
    let dir = workdir("bad");
    for bad in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "drm-analyze",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "drm-analyze",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
    ] {
        assert!(bench(&dir, &bad).is_none(), "{bad:?} should fail");
    }
}
