//! Metrics derived from a run's iterations (end to end) and spans (per
//! layer). The name and unit tables here are the ones `BENCHMARK.json`
//! declares; the smoke test holds the two together.

use crate::trace::{self, Span};
use crate::Iteration;
use serde_json::{Number, Value};

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("tx_per_s", "tx/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.build_s", "s"),
    ("workload.requests", "count"),
    ("fabric_sim.run_s", "s"),
    ("fabric_sim.events", "count"),
    ("fabric_sim.events_per_s", "1/s"),
    ("fabric_sim.tx_per_s", "tx/s"),
    ("fabric_sim.rss_delta_mb", "MB"),
    ("log.extract_s", "s"),
    ("log.records", "count"),
    ("export.parse_s", "s"),
    ("export.parse_mb_per_s", "MB/s"),
    ("export.json_bytes", "bytes"),
    ("session.ingest_s", "s"),
    ("session.ingest_records_per_s", "records/s"),
    ("session.window_ingest_ms", "ms"),
    ("session.snapshot_ms", "ms"),
    ("session.window_ms_p50", "ms"),
    ("session.window_ms_p90", "ms"),
    ("session.evicted", "count"),
    ("session.footprint_mb", "MB"),
    ("plan.from_spec_s", "s"),
    ("plan.actions", "count"),
    ("plan.grid_s", "s"),
    ("plan.grid_jobs", "count"),
    ("plan.pool_efficiency", "ratio"),
    ("plan.success_gain_pp", "pp"),
    ("plan.latency_gain_pct", "%"),
    ("self.workload_s", "s"),
    ("self.fabric_sim_s", "s"),
    ("self.log_s", "s"),
    ("self.export_s", "s"),
    ("self.session_s", "s"),
    ("self.plan_s", "s"),
    ("self.command_s", "s"),
    ("trace.command_s", "s"),
    ("trace.tx_per_s", "tx/s"),
    ("trace.untraced_tx_per_s", "tx/s"),
    ("trace.overhead_pct", "%"),
];

/// Layers whose self time is reported; `command` is the benchmark's own
/// share of a command (reading the input file, cutting windows,
/// fingerprinting).
const LAYERS: &[&str] = &[
    "workload",
    "fabric_sim",
    "log",
    "export",
    "session",
    "plan",
    "command",
];

const MB: f64 = 1024.0 * 1024.0;

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; 0 for no values.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(mut values: Vec<f64>) -> f64 {
    quantile(&mut values, 0.5)
}

/// Commands per second of input, per iteration.
fn rates(iterations: &[Iteration], traced: bool) -> Vec<f64> {
    iterations
        .iter()
        .filter(|i| i.traced == traced && i.error.is_none())
        .map(|i| i.txs as f64 / i.secs)
        .collect()
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(
    iterations: &[Iteration],
    peak_rss_kb: f64,
    setup_secs: &mut [f64],
) -> Vec<(&'static str, f64)> {
    let values = [
        median(rates(iterations, false)),
        peak_rss_kb / 1024.0,
        quantile(setup_secs, 0.5),
    ];
    END_TO_END.iter().map(|(n, _)| *n).zip(values).collect()
}

/// The per-layer metrics of a traced run: set-up spans from the parent,
/// command spans from the measuring child.
pub fn per_layer(spans: &[Span], iterations: &[Iteration]) -> Vec<(&'static str, f64)> {
    fn spans_named<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> {
        spans.iter().filter(move |s| s.name == name)
    }
    let named = |name: &'static str| spans_named(spans, name);
    let secs = |name: &'static str| median(named(name).map(Span::secs).collect());
    let first =
        |name: &'static str, key: &str| named(name).find_map(|s| s.count(key)).unwrap_or(0.0);
    let max = |name: &'static str, key: &str| {
        named(name).filter_map(|s| s.count(key)).fold(0.0, f64::max)
    };
    let per_sec = |name: &'static str, key: &str| {
        median(
            named(name)
                .filter_map(|s| Some(s.count(key)? / s.secs()))
                .collect(),
        )
    };

    // Per command: each layer's self time, and the session's total ingest.
    let roots = trace::roots(spans);
    let own = trace::self_secs(spans);
    let commands: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].parent.is_none() && spans[i].name == "command")
        .collect();
    let per_command = |f: &dyn Fn(usize) -> f64| -> Vec<f64> {
        commands
            .iter()
            .map(|&root| (0..spans.len()).filter(|&i| roots[i] == root).map(f).sum())
            .collect()
    };
    let layer_self = |layer: &str| {
        median(per_command(&|i| {
            if spans[i].layer() == layer {
                own[i]
            } else {
                0.0
            }
        }))
    };
    let ingest = |i: usize| -> (f64, f64) {
        if spans[i].name == "session.ingest" {
            (spans[i].secs(), spans[i].count("records").unwrap_or(0.0))
        } else {
            (0.0, 0.0)
        }
    };
    let ingest_secs = per_command(&|i| ingest(i).0);
    let ingest_records = per_command(&|i| ingest(i).1);

    let run_s = secs("fabric_sim.run");
    let grid_s = secs("plan.grid");
    let jobs = first("plan.grid", "jobs");
    let threads = first("plan.grid", "threads");
    let pool_efficiency = if grid_s > 0.0 && threads > 0.0 {
        jobs * run_s / (threads * grid_s)
    } else {
        0.0
    };
    // Window latency from the untraced repetitions, which spans do not
    // perturb.
    let mut windows: Vec<f64> = iterations
        .iter()
        .filter(|i| !i.traced && i.error.is_none())
        .flat_map(|i| i.windows_ms.iter().copied())
        .collect();
    // The overhead compares warm iterations only; the first is cold.
    let warm = iterations.get(1..).unwrap_or_default();
    let traced = median(rates(warm, true));
    let untraced = median(rates(warm, false));
    let overhead_pct = if traced > 0.0 {
        (untraced / traced - 1.0) * 100.0
    } else {
        0.0
    };

    let mut values = vec![
        secs("workload.build"),
        first("workload.build", "requests"),
        run_s,
        first("fabric_sim.run", "events"),
        per_sec("fabric_sim.run", "events"),
        per_sec("fabric_sim.run", "requests"),
        max("fabric_sim.run", "rss_delta_kb") / 1024.0,
        secs("log.extract"),
        first("log.extract", "records"),
        secs("export.parse"),
        per_sec("export.parse", "bytes") / MB,
        first("export.parse", "bytes"),
        median(ingest_secs.clone()),
        median(
            ingest_secs
                .iter()
                .zip(&ingest_records)
                .filter(|(s, _)| **s > 0.0)
                .map(|(s, r)| r / s)
                .collect(),
        ),
        secs("session.ingest") * 1e3,
        secs("session.snapshot") * 1e3,
        quantile(&mut windows, 0.5),
        quantile(&mut windows, 0.9),
        max("session.snapshot", "evicted"),
        max("session.snapshot", "footprint_bytes") / MB,
        secs("plan.from_spec"),
        first("plan.from_spec", "actions"),
        grid_s,
        jobs,
        pool_efficiency,
        first("plan.grid", "success_gain_pp"),
        first("plan.grid", "latency_gain_pct"),
    ];
    values.extend(LAYERS.iter().map(|layer| layer_self(layer)));
    values.extend([secs("command"), traced, untraced, overhead_pct]);
    debug_assert_eq!(values.len(), PER_LAYER.len());
    PER_LAYER.iter().map(|(n, _)| *n).zip(values).collect()
}

/// Render metrics as `{"name": {"value": v, "unit": u}}`.
pub fn to_json(metrics: &[(&'static str, f64)]) -> Value {
    let unit = |name: &str| {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| u)
    };
    Value::Object(
        metrics
            .iter()
            .map(|(name, value)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::Number(Number::Float(*value))),
                        ("unit".into(), Value::Str(unit(name).into())),
                    ]),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert!((quantile(&mut v, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&mut v, 0.9) - 3.7).abs() < 1e-12);
        assert!((quantile(&mut [7.0], 0.9) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn tables_have_unique_names() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
