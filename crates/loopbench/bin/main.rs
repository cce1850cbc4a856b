//! `loopbench`: the BlockOptR loop measured end to end and per layer.
//!
//! ```text
//! loopbench --workload <scm-optimize|lap-hotkey|drm-analyze|drm-watch>
//!           --seed N --seconds S --trace <0|1>
//!           [--txs N] [--threads N] [--fingerprints FILE] [--record FILE]
//! ```
//!
//! One run measures one workload. The process generates the command's
//! input from `--seed` (set-up, repeated for a second and timed), then
//! starts a fresh copy of itself that repeats the command for `--seconds`
//! and reports each iteration; peak RSS is that child's `VmHWM`, so
//! neither set-up nor another workload carries over. The last line of standard output is the
//! result: `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics derived from
//! spans (`--trace 1`, which also writes the spans to
//! `.loopbench/<workload>-s<seed>/trace.json`).
//!
//! `--record FILE` stores the run's fingerprint under the input's key
//! after checking the spelled-out command against the library's one-shot
//! entry points; `--fingerprints FILE` checks against that file instead of
//! the compiled-in `fingerprints.json`.

mod gate;
mod metrics;
mod trace;
mod workloads;

use bench::wallclock::Stopwatch;
use serde_json::{Number, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use trace::Tracer;
use workloads::Workload;

/// Set-up repeats at least this often and for at least this long;
/// `setup_s` is the median repetition.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MIN_SECS: f64 = 1.0;
/// Where runs write their inputs and traces, relative to the working
/// directory.
const OUT_DIR: &str = ".loopbench";

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    txs: usize,
    threads: usize,
    fingerprints: Option<PathBuf>,
    record: Option<PathBuf>,
    /// Set on the measuring child: the input the parent generated.
    child_input: Option<PathBuf>,
    /// Set on the measuring child: the fingerprint every iteration must
    /// match.
    expect: Option<String>,
    /// Set on the measuring child: also run the library's one-shot entry
    /// points once and require the same fingerprint.
    reference: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut txs = None;
    let mut threads = None;
    let mut fingerprints = None;
    let mut record = None;
    let mut child_input = None;
    let mut expect = None;
    let mut reference = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--reference" {
            reference = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let positive = |v: &str| {
            v.parse::<usize>()
                .ok()
                .filter(|n| *n > 0)
                .ok_or_else(|| format!("{flag} must be a positive integer, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed must be an integer, got {value:?}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--seconds must be positive, got {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            "--txs" => txs = Some(positive(value)?),
            "--threads" => threads = Some(positive(value)?),
            "--fingerprints" => fingerprints = Some(PathBuf::from(value)),
            "--record" => record = Some(PathBuf::from(value)),
            "--child-input" => child_input = Some(PathBuf::from(value)),
            "--expect" => expect = Some(value.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        txs: txs.unwrap_or(workloads::DEFAULT_TXS),
        threads: threads.unwrap_or_else(sim_core::pool::hardware_threads),
        fingerprints,
        record,
        child_input,
        expect,
        reference,
    })
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), 0 where the
/// file does not exist.
pub fn proc_status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// The commit being measured: `GITHUB_SHA`, else the checkout's `.git`,
/// else `unknown` (the benchmark also runs from exported trees).
fn commit() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        return sha;
    }
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// One measured iteration, as the child reports it.
pub struct Iteration {
    pub secs: f64,
    pub traced: bool,
    pub txs: usize,
    pub windows_ms: Vec<f64>,
    pub hash: Option<String>,
    pub error: Option<String>,
}

/// The measuring child: repeat the command for `--seconds`, then print the
/// iterations, the peak RSS, and the spans as one JSON line.
fn child(args: &Args, input: &Path) -> Result<(), String> {
    let reference = if args.reference {
        workloads::reference(args.workload, input, args.threads)?.map(|f| f.hash())
    } else {
        None
    };
    let mut tracer = Tracer::new(false);
    let mut iterations: Vec<Iteration> = Vec::new();
    let mut expected = args.expect.clone().or_else(|| reference.clone());
    let clock = Stopwatch::start();
    loop {
        // Traced runs alternate traced and untraced iterations, so one run
        // also measures the tracing overhead. The first, cold iteration is
        // traced: it shows what a fresh process pays (the CLI's case).
        let traced = args.trace && iterations.len().is_multiple_of(2);
        tracer.set_enabled(traced);
        let lap = Stopwatch::start();
        let result = tracer.span("command", |t| {
            workloads::command(args.workload, input, args.threads, t)
        });
        let secs = lap.elapsed().as_secs_f64();
        let iteration = match result {
            Ok(outcome) => {
                let hash = outcome.fingerprint.hash();
                let want = expected.get_or_insert_with(|| hash.clone());
                let error =
                    (*want != hash).then(|| format!("fingerprint {hash} != expected {want}"));
                if error.is_some() && iterations.iter().all(|i| i.error.is_none()) {
                    eprintln!(
                        "loopbench: fingerprint {hash} != expected {want}; outputs were:\n{}",
                        outcome.fingerprint.text()
                    );
                }
                Iteration {
                    secs,
                    traced,
                    txs: outcome.txs,
                    windows_ms: outcome.windows_ms,
                    hash: Some(hash),
                    error,
                }
            }
            Err(e) => {
                if iterations.iter().all(|i| i.error.is_none()) {
                    eprintln!("loopbench: command failed: {e}");
                }
                Iteration {
                    secs,
                    traced,
                    txs: 0,
                    windows_ms: Vec::new(),
                    hash: None,
                    error: Some(e),
                }
            }
        };
        iterations.push(iteration);
        // Traced: the cold iteration plus one warm iteration of each kind.
        let min_iterations = if args.trace { 3 } else { 1 };
        let times: Vec<f64> = iterations.iter().map(|i| i.secs).collect();
        let next_ends = clock.elapsed().as_secs_f64() + metrics::median(times);
        if iterations.len() >= min_iterations && next_ends > args.seconds {
            break;
        }
    }
    let peak_rss_kb = proc_status_kb("VmHWM");
    let out = Value::Object(vec![
        (
            "iterations".into(),
            Value::Array(iterations.iter().map(iteration_json).collect()),
        ),
        (
            "peak_rss_kb".into(),
            Value::Number(Number::PosInt(peak_rss_kb)),
        ),
        ("spans".into(), trace::to_json(&tracer.into_spans())),
        (
            "reference".into(),
            reference.map_or(Value::Null, Value::Str),
        ),
    ]);
    println!("{}", out.render(false));
    Ok(())
}

fn iteration_json(i: &Iteration) -> Value {
    let opt_str = |s: &Option<String>| s.clone().map_or(Value::Null, Value::Str);
    Value::Object(vec![
        ("secs".into(), Value::Number(Number::Float(i.secs))),
        ("traced".into(), Value::Bool(i.traced)),
        ("txs".into(), Value::Number(Number::PosInt(i.txs as u64))),
        (
            "windows_ms".into(),
            Value::Array(
                i.windows_ms
                    .iter()
                    .map(|ms| Value::Number(Number::Float(*ms)))
                    .collect(),
            ),
        ),
        ("hash".into(), opt_str(&i.hash)),
        ("error".into(), opt_str(&i.error)),
    ])
}

fn iteration_from_json(v: &Value) -> Result<Iteration, String> {
    let num = |key: &str| {
        v.field(key)
            .ok_or_else(|| format!("iteration.{key} missing"))
            .and_then(trace::number)
    };
    let opt_str = |key: &str| match v.field(key) {
        Some(Value::Str(s)) => Some(s.clone()),
        _ => None,
    };
    let windows_ms = match v.field("windows_ms") {
        Some(Value::Array(items)) => items.iter().map(trace::number).collect::<Result<_, _>>()?,
        _ => Vec::new(),
    };
    Ok(Iteration {
        secs: num("secs")?,
        traced: matches!(v.field("traced"), Some(Value::Bool(true))),
        txs: num("txs")? as usize,
        windows_ms,
        hash: opt_str("hash"),
        error: opt_str("error"),
    })
}

/// The parent: set up, measure in a fresh child, derive and print metrics.
fn run(args: &Args) -> Result<(), String> {
    let workload = args.workload;
    let dir = Path::new(OUT_DIR).join(format!("{}-s{}", workload.name(), args.seed));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let input = dir.join("input.json");

    let mut tracer = Tracer::new(args.trace);
    let mut setup_secs = Vec::new();
    let mut requests = 0;
    let setup_clock = Stopwatch::start();
    while setup_secs.len() < SETUP_MIN_REPEATS
        || setup_clock.elapsed().as_secs_f64() < SETUP_MIN_SECS
    {
        let clock = Stopwatch::start();
        requests = tracer.span("setup", |t| {
            workloads::setup(workload, args.seed, args.txs, &input, t)
        })?;
        setup_secs.push(clock.elapsed().as_secs_f64());
    }

    let key = gate::key(workload.name(), args.seed, args.txs);
    // Recording merges into the file it writes.
    let store = gate::Store::load(args.record.as_deref().or(args.fingerprints.as_deref()))?;
    let expect = if args.record.is_some() {
        None
    } else {
        store.get(&key).map(str::to_string)
    };

    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut child_cmd = Command::new(exe);
    child_cmd
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--txs", &args.txs.to_string()])
        .args(["--threads", &args.threads.to_string()])
        .arg("--child-input")
        .arg(&input)
        // The measured program must not inherit the caller's tuning.
        .env_remove("BLOCKOPTR_THREADS")
        .env_remove("BLOCKOPTR_WINDOW")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(hash) = &expect {
        child_cmd.args(["--expect", hash]);
    }
    if args.record.is_some() {
        child_cmd.arg("--reference");
    }
    let output = child_cmd
        .output()
        .map_err(|e| format!("starting the measuring process: {e}"))?;
    if !output.status.success() {
        return Err(format!("the measuring process failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or("the measuring process printed nothing")?;
    let report = serde_json::value_from_str(line).map_err(|e| format!("child report: {e}"))?;
    let iterations: Vec<Iteration> = match report.field("iterations") {
        Some(Value::Array(items)) => items
            .iter()
            .map(iteration_from_json)
            .collect::<Result<_, _>>()?,
        _ => return Err("child report: no iterations".into()),
    };
    let peak_rss_kb = report
        .field("peak_rss_kb")
        .map(trace::number)
        .transpose()?
        .unwrap_or(0.0);
    let mut spans = tracer.into_spans();
    if let Some(child_spans) = report.field("spans") {
        trace::append(&mut spans, trace::from_json(child_spans)?);
    }
    trace::check_nesting(&spans)?;

    let attempted = iterations.len();
    let failed = iterations.iter().filter(|i| i.error.is_some()).count();
    let nproc = sim_core::pool::hardware_threads();
    let meta = Value::Object(vec![
        ("workload".into(), Value::Str(workload.name().into())),
        (
            "command".into(),
            Value::Str(workload.command_line(args.txs, args.threads)),
        ),
        ("seed".into(), Value::Number(Number::PosInt(args.seed))),
        ("txs".into(), Value::Number(Number::PosInt(args.txs as u64))),
        (
            "requests".into(),
            Value::Number(Number::PosInt(requests as u64)),
        ),
        ("nproc".into(), Value::Number(Number::PosInt(nproc as u64))),
        (
            "threads".into(),
            Value::Number(Number::PosInt(args.threads as u64)),
        ),
        (
            "window_policy".into(),
            Value::Str(workload.window_policy().to_string()),
        ),
        ("commit".into(), Value::Str(commit())),
        ("fingerprint_key".into(), Value::Str(key.clone())),
        (
            "fingerprint".into(),
            expect
                .clone()
                .map_or(Value::Str("self-consistency".into()), Value::Str),
        ),
    ]);
    println!("meta {}", meta.render(false));

    let metrics = if args.trace {
        let derived = metrics::per_layer(&spans, &iterations);
        let trace_file = dir.join("trace.json");
        let doc = Value::Object(vec![
            ("meta".into(), meta),
            ("metrics".into(), metrics::to_json(&derived)),
            ("spans".into(), trace::to_json(&spans)),
        ]);
        std::fs::write(&trace_file, doc.render(false))
            .map_err(|e| format!("writing {}: {e}", trace_file.display()))?;
        derived
    } else {
        metrics::end_to_end(&iterations, peak_rss_kb, &mut setup_secs)
    };

    if let Some(path) = &args.record {
        let hashes: Vec<&String> = iterations.iter().filter_map(|i| i.hash.as_ref()).collect();
        let reference = match report.field("reference") {
            Some(Value::Str(s)) => Some(s.as_str()),
            _ => None,
        };
        let first = hashes
            .first()
            .ok_or("nothing to record: every iteration failed")?;
        if failed > 0 || reference.is_some_and(|r| r != first.as_str()) {
            return Err(format!(
                "refusing to record {key}: {failed} failed iteration(s), reference {reference:?} vs {first}"
            ));
        }
        store.record(path, &key, first)?;
        eprintln!("loopbench: recorded {key} = {first} in {}", path.display());
    }

    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        (
            "attempted".into(),
            Value::Number(Number::PosInt(attempted as u64)),
        ),
        (
            "failed".into(),
            Value::Number(Number::PosInt(failed as u64)),
        ),
        ("metrics".into(), metrics::to_json(&metrics)),
    ]);
    println!("{}", result.render(false));
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&raw).and_then(|args| match &args.child_input {
        Some(input) => child(&args, input),
        None => run(&args),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("loopbench: {e}");
            ExitCode::FAILURE
        }
    }
}
