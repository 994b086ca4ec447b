//! The benchmark's definition and the shape of a result.
//!
//! `BENCHMARK.json` at the repository root is the one place that names the
//! workloads, the metrics, their units and their bounds; it is compiled in
//! and parsed once, so `run` and `compare` cannot disagree with it.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use serde_json::{json, Value};

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

/// One end-to-end metric: every workload reports every one of them, over
/// its own unit of work ("op": one request on the request workloads, one
/// DCM cycle or one confirmed host update on `propagate`).
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Better direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// `BENCHMARK.json`, as far as the harness needs it.
#[derive(Debug)]
pub struct Spec {
    /// `run_seconds`: how long one run measures.
    pub run_seconds: f64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// The end-to-end metrics.
    pub end_to_end: Vec<EndToEnd>,
    /// The per-layer metrics, `(name, unit)`; the layer is the name up to
    /// its last segment. A workload that does no work in a layer reports
    /// that layer's metrics as 0.
    pub per_layer: Vec<(String, String)>,
}

fn parse_spec(text: &str) -> Result<Spec, String> {
    let doc = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_array)
            .ok_or(format!("no `{key}` list"))
    };
    let text_of = |entry: &Value, field: &str| {
        entry
            .get(field)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or(format!("an entry without `{field}`"))
    };
    let mut spec = Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("no `run_seconds`")?,
        workloads: Vec::new(),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    };
    for w in list("workloads")? {
        spec.workloads.push(text_of(w, "name")?);
    }
    for m in list("end_to_end")? {
        spec.end_to_end.push(EndToEnd {
            name: text_of(m, "name")?,
            unit: text_of(m, "unit")?,
            better: match text_of(m, "better")?.as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("`better` is `{other}`")),
            },
            bound: m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("an end-to-end metric without `bound`")?,
        });
    }
    for m in list("per_layer")? {
        spec.per_layer
            .push((text_of(m, "name")?, text_of(m, "unit")?));
    }
    Ok(spec)
}

/// The benchmark's definition.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        parse_spec(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is well-formed")
    })
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests; for `propagate`, host updates plus
    /// consumer checks).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong answer.
    pub failed: u64,
    /// End-to-end values by name (untraced runs).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Per-trial values, their spread, sample counts and tails.
    pub detail: BTreeMap<String, Value>,
    /// Spans and their per-layer self times (traced runs).
    pub trace: Option<Value>,
}

impl Outcome {
    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Sets an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.end_to_end.insert(name, value);
    }

    /// The name of a metric this run set that `BENCHMARK.json` does not
    /// list, or of a listed end-to-end metric an untraced run left unset.
    pub fn misnamed(&self, traced: bool) -> Option<&str> {
        let spec = spec();
        let unlisted_layer = self
            .layers
            .keys()
            .find(|k| !spec.per_layer.iter().any(|(n, _)| n == *k));
        let unlisted_e2e = self
            .end_to_end
            .keys()
            .find(|k| !spec.end_to_end.iter().any(|m| m.name == **k));
        let unset = spec
            .end_to_end
            .iter()
            .map(|m| m.name.as_str())
            .find(|n| !traced && !self.end_to_end.contains_key(n));
        unlisted_layer.or(unlisted_e2e).copied().or(unset)
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The metrics object the driver reads: every end-to-end metric for an
    /// untraced run, every per-layer metric for a traced one.
    pub fn metrics(&self, traced: bool) -> Value {
        let mut map = BTreeMap::new();
        let mut put = |name: &String, unit: &String, values: &BTreeMap<&'static str, f64>| {
            let v = values.get(name.as_str()).copied().unwrap_or(0.0);
            map.insert(
                name.clone(),
                json!({ "value": finite(v), "unit": unit.as_str() }),
            );
        };
        if traced {
            for (name, unit) in &spec().per_layer {
                put(name, unit, &self.layers);
            }
        } else {
            for m in &spec().end_to_end {
                put(&m.name, &m.unit, &self.end_to_end);
            }
        }
        Value::Object(map)
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Renders `value` as JSON on one line (the shim only pretty-prints).
pub fn to_line(value: &Value) -> String {
    fn write(out: &mut String, v: &Value) {
        match v {
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write(out, item);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (key, item)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write(out, &Value::String(key.clone()));
                    out.push_str(": ");
                    write(out, item);
                }
                out.push('}');
            }
            // Scalars render the same on one line as pretty-printed.
            scalar => out.push_str(&serde_json::to_string_pretty(scalar).unwrap_or_default()),
        }
    }
    let mut out = String::new();
    write(&mut out, value);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_line_json_round_trips() {
        let v = json!({
            "correct": true,
            "attempted": 12u64,
            "metrics": { "a_b": { "value": 1.25f64, "unit": "ms" } },
            "list": [1u64, "two \"quoted\"", 3.5f64],
        });
        let line = to_line(&v);
        assert!(!line.contains('\n'));
        assert_eq!(serde_json::from_str(&line).unwrap(), v);
    }

    #[test]
    fn benchmark_json_is_within_the_contract() {
        let spec = spec();
        let mut seen = std::collections::HashSet::new();
        let names = (spec.end_to_end.iter().map(|m| &m.name))
            .chain(spec.per_layer.iter().map(|(n, _)| n))
            .chain(&spec.workloads);
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        assert!(spec.end_to_end.iter().all(|m| m.bound <= 0.25));
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
    }

    #[test]
    fn a_malformed_definition_is_refused() {
        assert!(parse_spec("{}").is_err());
        assert!(parse_spec(
            r#"{"run_seconds": 1, "workloads": [], "per_layer": [],
                "end_to_end": [{"name": "x", "unit": "s", "better": "sideways", "bound": 0.1}]}"#
        )
        .is_err());
    }
}
