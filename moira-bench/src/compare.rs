//! `moira-bench compare <a.json> <b.json>`: is set B no worse than set A?
//!
//! Each file holds the runs `moira-bench run --out` collected. For every
//! (workload, end-to-end metric) pair the tool prints both medians, their
//! ratio with its base, and a verdict against the metric's bound: `ok`,
//! `REGRESSION` (B's median is worse than A's by more than the bound), or
//! `unresolved` when either set's own run-to-run spread exceeds the bound —
//! unless every run of B reads better than every run of A. The failed share
//! (failed / attempted over a workload's runs) has no bound: any rise is a
//! regression.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::report::{spec, Better, EndToEnd};
use crate::stats::{median, spread};

/// How one (workload, metric) pair compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is within the bound of A (or better).
    Ok,
    /// B is worse than A by more than the bound.
    Regression,
    /// The spread of a set exceeds the bound, so the medians decide nothing.
    Unresolved,
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// The metric compared.
    pub metric: &'static EndToEnd,
    /// Median and spread of set A, and its run count.
    pub a: (f64, f64, usize),
    /// Median and spread of set B, and its run count.
    pub b: (f64, f64, usize),
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges one pair from the two sets' values.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return Verdict::Unresolved;
    };
    // Worsening as a share of A's median, positive when B is worse.
    let worse = match metric.better {
        Better::Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
    };
    if spread(a) > metric.bound || spread(b) > metric.bound {
        let b_always_better = match metric.better {
            Better::Lower => {
                b.iter().copied().fold(f64::MIN, f64::max)
                    < a.iter().copied().fold(f64::MAX, f64::min)
            }
            Better::Higher => {
                b.iter().copied().fold(f64::MAX, f64::min)
                    > a.iter().copied().fold(f64::MIN, f64::max)
            }
        };
        return if b_always_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse > metric.bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// What a result file's untraced runs of one workload add up to.
#[derive(Debug, Default)]
struct WorkloadRuns {
    /// Per-run values by metric.
    values: BTreeMap<String, Vec<f64>>,
    failed: f64,
    attempted: f64,
}

impl WorkloadRuns {
    fn failed_share(&self) -> f64 {
        self.failed / self.attempted.max(1.0)
    }
}

/// The untraced runs of a result file's `runs` array, by workload.
fn runs_by_workload(doc: &Value) -> Result<BTreeMap<String, WorkloadRuns>, String> {
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("not a moira-bench result: no `runs` array")?;
    let mut out: BTreeMap<String, WorkloadRuns> = BTreeMap::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("a run without a workload")?;
        let Some(metrics) = run.get("end_to_end").and_then(Value::as_object) else {
            continue; // a traced run: no end-to-end figures
        };
        let of = out.entry(workload.to_owned()).or_default();
        let count = |key: &str| run.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        of.failed += count("failed");
        of.attempted += count("attempted");
        for (name, v) in metrics {
            if let Some(x) = v.get("value").and_then(Value::as_f64) {
                of.values.entry(name.clone()).or_default().push(x);
            }
        }
    }
    Ok(out)
}

/// One workload's failed share in both sets.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedRow {
    /// Workload name.
    pub workload: String,
    /// Failed / attempted over set A's runs.
    pub a: f64,
    /// Failed / attempted over set B's runs.
    pub b: f64,
}

impl FailedRow {
    /// Any rise is a regression.
    pub fn regressed(&self) -> bool {
        self.b > self.a
    }
}

/// Compares two result documents pair by pair.
pub fn compare(a: &Value, b: &Value) -> Result<(Vec<Row>, Vec<FailedRow>), String> {
    let (a, b) = (runs_by_workload(a)?, runs_by_workload(b)?);
    let mut rows = Vec::new();
    let mut failed = Vec::new();
    for (workload, runs_a) in &a {
        let Some(runs_b) = b.get(workload) else {
            continue;
        };
        failed.push(FailedRow {
            workload: workload.clone(),
            a: runs_a.failed_share(),
            b: runs_b.failed_share(),
        });
        for metric in &spec().end_to_end {
            let (Some(va), Some(vb)) = (
                runs_a.values.get(&metric.name),
                runs_b.values.get(&metric.name),
            ) else {
                continue;
            };
            rows.push(Row {
                workload: workload.clone(),
                metric,
                a: (median(va).unwrap_or(0.0), spread(va), va.len()),
                b: (median(vb).unwrap_or(0.0), spread(vb), vb.len()),
                verdict: judge(metric, va, vb),
            });
        }
    }
    if rows.is_empty() {
        return Err("the two files share no (workload, metric) pair".into());
    }
    Ok((rows, failed))
}

/// Prints the table; returns true when nothing regressed.
pub fn print(rows: &[Row], failed: &[FailedRow]) -> bool {
    println!(
        "{:<13} {:<20} {:>14} {:>7} {:>14} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A iqr", "B median", "B iqr", "B/A", "bound"
    );
    for r in rows {
        println!(
            "{:<13} {:<20} {:>14.4} {:>6.1}% {:>14.4} {:>6.1}% {:>8.4} {:>5.0}%  {}{}",
            r.workload,
            format!("{} [{}]", r.metric.name, r.metric.unit),
            r.a.0,
            r.a.1 * 100.0,
            r.b.0,
            r.b.1 * 100.0,
            r.b.0 / r.a.0,
            r.metric.bound * 100.0,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Regression => "REGRESSION",
                Verdict::Unresolved => "unresolved",
            },
            if r.a.2 < 2 || r.b.2 < 2 {
                " (n=1: no spread)"
            } else {
                ""
            },
        );
    }
    for f in failed {
        println!(
            "{:<13} {:<20} {:>14.6} {:>7} {:>14.6} {:>7} {:>8} {:>6}  {}",
            f.workload,
            "failed_share",
            f.a,
            "",
            f.b,
            "",
            "",
            "rise",
            if f.regressed() { "REGRESSION" } else { "ok" },
        );
    }
    !rows.iter().any(|r| r.verdict == Verdict::Regression) && !failed.iter().any(|f| f.regressed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn metric(name: &str) -> &'static EndToEnd {
        spec()
            .end_to_end
            .iter()
            .find(|m| m.name == name)
            .expect("metric")
    }

    /// Three tight runs around `centre`.
    fn runs(centre: f64) -> [f64; 3] {
        [centre, centre * 1.001, centre * 0.999]
    }

    #[test]
    fn within_bound_is_ok_and_beyond_it_is_a_regression() {
        let lat = metric("op_p50_ms"); // lower is better
        assert_eq!(
            judge(lat, &runs(1.0), &runs(1.0 + lat.bound / 2.0)),
            Verdict::Ok
        );
        assert_eq!(
            judge(lat, &runs(1.0), &runs(1.0 + lat.bound * 1.5)),
            Verdict::Regression
        );
        assert_eq!(judge(lat, &runs(1.0), &runs(0.5)), Verdict::Ok);
        let thr = metric("ops_per_s"); // higher is better
        assert_eq!(
            judge(thr, &runs(100.0), &runs(100.0 * (1.0 - thr.bound * 1.5))),
            Verdict::Regression
        );
        assert_eq!(
            judge(thr, &runs(100.0), &runs(100.0 * (1.0 - thr.bound / 2.0))),
            Verdict::Ok
        );
        assert_eq!(judge(thr, &runs(100.0), &runs(120.0)), Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let lat = metric("op_p50_ms");
        let noisy = [1.0, 1.5, 0.7, 1.3];
        assert_eq!(
            judge(lat, &noisy, &[1.1, 1.0, 1.2, 0.9]),
            Verdict::Unresolved
        );
        assert_eq!(judge(lat, &noisy, &[0.5, 0.6, 0.4, 0.65]), Verdict::Ok);
        assert_eq!(judge(lat, &[], &[1.0]), Verdict::Unresolved);
    }

    #[test]
    fn documents_compare_pair_by_pair() {
        let run = |w: &str, p50: f64, failed: u64| {
            json!({ "workload": w, "attempted": 1000u64, "failed": failed,
                    "end_to_end": { "op_p50_ms": { "value": p50, "unit": "ms" } } })
        };
        let a = json!({ "runs": [run("read_point", 1.0, 0), run("read_point", 1.02, 0), run("propagate", 900.0, 0)] });
        let traced = json!({ "workload": "read_point", "attempted": 5u64, "failed": 5u64 });
        let b = json!({ "runs": [run("read_point", 2.0, 0), run("read_point", 2.02, 0), traced] });
        let (rows, failed) = compare(&a, &b).unwrap();
        assert_eq!(rows.len(), 1, "only the shared pair is compared");
        assert_eq!(rows[0].verdict, Verdict::Regression);
        assert_eq!((rows[0].a.2, rows[0].b.2), (2, 2));
        assert_eq!(failed.len(), 1);
        assert!(!failed[0].regressed(), "traced runs are left out");
        // A faster set in which one operation failed is still a regression.
        let b = json!({ "runs": [run("read_point", 0.5, 0), run("read_point", 0.5, 1)] });
        let (rows, failed) = compare(&a, &b).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Ok);
        assert_eq!(
            failed,
            [FailedRow {
                workload: "read_point".into(),
                a: 0.0,
                b: 0.0005
            }]
        );
        assert!(!print(&rows, &failed));
        assert!(compare(&a, &json!({ "runs": [] })).is_err());
        assert!(compare(&a, &json!({})).is_err());
    }
}
