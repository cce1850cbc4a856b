//! In-memory spans around calls into the layers' public functions.
//!
//! A span is `(name, start, end, parent, counts)`: the benchmark opens one
//! around each call it makes into a layer (`workload.build`,
//! `fabric_sim.run`, …) and attaches the counts that call produced
//! (events, records, bytes). Spans stay in memory and are written out once
//! at the end of a run. The layer of a span is its name up to the first
//! `.`; the roots (`setup`, `command`) are the benchmark's own glue.
//!
//! A disabled tracer records nothing, so untraced runs pay one branch per
//! call site.

use bench::wallclock::{self, Timestamp};
use serde_json::{Number, Value};

/// One recorded span. Times are nanoseconds since the recording tracer was
/// created (each process has its own origin).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub counts: Vec<(String, f64)>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// The layer this span times: its name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    /// A count attached to this span.
    pub fn count(&self, key: &str) -> Option<f64> {
        self.counts.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// Records spans when enabled; a pass-through otherwise.
pub struct Tracer {
    enabled: bool,
    origin: Timestamp,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: wallclock::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off between two top-level calls.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        wallclock::elapsed_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            counts: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Attach a count to the innermost open span.
    pub fn count(&mut self, key: &str, value: f64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].counts.push((key.to_string(), value));
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Seconds of each span not covered by its direct children.
pub fn self_secs(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<i128> = spans
        .iter()
        .map(|s| i128::from(s.end_ns - s.start_ns))
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= i128::from(s.end_ns - s.start_ns);
        }
    }
    own.into_iter().map(|ns| ns as f64 / 1e9).collect()
}

/// The root span each span descends from.
pub fn roots(spans: &[Span]) -> Vec<usize> {
    let mut root: Vec<usize> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        // Parents are always recorded before their children.
        root.push(s.parent.map_or(i, |p| root[p]));
    }
    root
}

/// Check the tree shape: parents precede children and every child lies
/// inside its parent's interval.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let Some(parent) = spans.get(p).filter(|_| p < i) else {
                return Err(format!(
                    "span {i} ({}) has parent {p} recorded after it",
                    s.name
                ));
            };
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) escapes its parent {p} ({})",
                    s.name, parent.name
                ));
            }
        }
    }
    Ok(())
}

/// Append `more` (recorded by another tracer) to `spans`, keeping parent
/// links valid.
pub fn append(spans: &mut Vec<Span>, more: Vec<Span>) {
    let offset = spans.len();
    spans.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
}

pub fn to_json(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".into(), Value::Str(s.name.clone())),
                    ("start_ns".into(), Value::Number(Number::PosInt(s.start_ns))),
                    ("end_ns".into(), Value::Number(Number::PosInt(s.end_ns))),
                    (
                        "parent".into(),
                        s.parent
                            .map_or(Value::Null, |p| Value::Number(Number::PosInt(p as u64))),
                    ),
                    (
                        "counts".into(),
                        Value::Object(
                            s.counts
                                .iter()
                                .map(|(k, v)| (k.clone(), Value::Number(Number::Float(*v))))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

pub fn from_json(value: &Value) -> Result<Vec<Span>, String> {
    let Value::Array(items) = value else {
        return Err("spans: expected an array".into());
    };
    items
        .iter()
        .map(|item| {
            let uint = |key: &str| match item.field(key) {
                Some(Value::Number(Number::PosInt(n))) => Ok(*n),
                other => Err(format!("span.{key}: expected an integer, got {other:?}")),
            };
            let name = match item.field("name") {
                Some(Value::Str(s)) => s.clone(),
                other => return Err(format!("span.name: expected a string, got {other:?}")),
            };
            let parent = match item.field("parent") {
                Some(Value::Null) | None => None,
                Some(_) => Some(uint("parent")? as usize),
            };
            let counts = match item.field("counts") {
                Some(Value::Object(fields)) => fields
                    .iter()
                    .map(|(k, v)| number(v).map(|n| (k.clone(), n)))
                    .collect::<Result<_, _>>()?,
                _ => Vec::new(),
            };
            Ok(Span {
                name,
                start_ns: uint("start_ns")?,
                end_ns: uint("end_ns")?,
                parent,
                counts,
            })
        })
        .collect()
}

/// A JSON number as `f64`.
pub fn number(value: &Value) -> Result<f64, String> {
    match value {
        Value::Number(Number::PosInt(n)) => Ok(*n as f64),
        Value::Number(Number::NegInt(n)) => Ok(*n as f64),
        Value::Number(Number::Float(f)) => Ok(*f),
        other => Err(format!("expected a number, got {}", other.kind())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_account_for_the_root() {
        let mut t = Tracer::new(true);
        t.span("command", |t| {
            t.span("a.x", |t| {
                t.span("b.y", |_| std::hint::black_box(1));
                t.count("n", 3.0);
            });
            t.span("c.z", |_| ());
        });
        let spans = t.into_spans();
        check_nesting(&spans).expect("well nested");
        let own = self_secs(&spans);
        let total: f64 = own.iter().sum();
        assert!((total - spans[0].secs()).abs() < 1e-9);
        assert_eq!(roots(&spans), vec![0, 0, 0, 0]);
        assert_eq!(spans[1].count("n"), Some(3.0));
        assert_eq!(spans[2].layer(), "b");
        let back = from_json(&to_json(&spans)).expect("round trip");
        assert_eq!(back, spans);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("a", |t| {
            t.count("n", 1.0);
            7
        });
        assert_eq!(v, 7);
        assert!(t.into_spans().is_empty());
    }
}
