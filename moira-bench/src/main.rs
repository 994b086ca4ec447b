//! `moira-bench`: one harness for the two paths the paper is about — a
//! client's query through the Moira server and a change's propagation
//! through the DCM to the consuming hosts. See `README.md` beside this
//! package and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! moira-bench run --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>]
//!                 [--users <n>] [--out <set.json>]
//! moira-bench run --smoke
//! moira-bench compare <a.json> <b.json>
//! ```

mod compare;
mod host;
mod media;
mod ops;
mod propagate;
mod report;
mod request;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use moira_sim::PopulationSpec;
use serde_json::{json, Value};

use crate::ops::Mix;
use crate::report::{spec, Outcome};

/// The paper's scale (§5.1.A): 10 000 active users.
const DEFAULT_USERS: usize = 10_000;

/// Everything one run needs to know.
pub struct Config {
    /// One of the workloads `BENCHMARK.json` names.
    workload: String,
    /// Seed of the operation stream (the population's own seed stays 1988).
    seed: u64,
    /// Time to measure for.
    seconds: f64,
    /// The shorter run that records spans and reports per-layer metrics.
    traced: bool,
    /// Checks on, nothing reported, trial lengths unchecked.
    smoke: bool,
    /// The population.
    spec: PopulationSpec,
}

fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("moira-bench")
}

fn run_workload(cfg: &Config) -> Result<Outcome, String> {
    match cfg.workload.as_str() {
        "read_point" => request::run(cfg, Mix::ReadPoint),
        "write_commit" => request::run(cfg, Mix::WriteCommit),
        "mixed_admin" => request::run(cfg, Mix::MixedAdmin),
        "propagate" => propagate::run(cfg),
        other => Err(format!(
            "BENCHMARK.json names `{other}`, the harness does not"
        )),
    }
}

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    users: usize,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: spec().run_seconds,
        traced: false,
        smoke: false,
        users: DEFAULT_USERS,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: `{v}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !spec().workloads.contains(name) {
                    return Err(format!("unknown workload `{name}`"));
                }
                parsed.workload = Some(name.clone());
            }
            "--seed" => {
                let v = value()?;
                parsed.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not a u64"))?;
            }
            "--seconds" => parsed.seconds = number(value()?)?,
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is neither 0 nor 1")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--users" => {
                let v = value()?;
                parsed.users = v
                    .parse()
                    .map_err(|_| format!("--users: `{v}` is not a count"))?;
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(parsed)
}

/// The record one run leaves in a result set.
fn run_record(cfg: &Config, out: &Outcome) -> Value {
    let mut rec = BTreeMap::new();
    rec.insert("workload".to_owned(), json!(cfg.workload.as_str()));
    rec.insert("seed".to_owned(), json!(cfg.seed));
    rec.insert("seconds".to_owned(), json!(cfg.seconds));
    rec.insert("traced".to_owned(), json!(cfg.traced));
    rec.insert("attempted".to_owned(), json!(out.attempted));
    rec.insert("failed".to_owned(), json!(out.failed));
    rec.insert(
        if cfg.traced {
            "per_layer"
        } else {
            "end_to_end"
        }
        .to_owned(),
        out.metrics(cfg.traced),
    );
    for (key, value) in &out.detail {
        rec.insert(key.clone(), value.clone());
    }
    Value::Object(rec)
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Appends `record` to the result set at `path` (created if missing).
fn append_to_set(path: &Path, record: Value) -> Result<(), String> {
    let mut runs = match fs::read_to_string(path) {
        Ok(text) => serde_json::from_str(&text)
            .ok()
            .and_then(|doc| doc.get("runs").and_then(Value::as_array).cloned())
            .ok_or(format!("{}: not a moira-bench result set", path.display()))?,
        Err(_) => Vec::new(),
    };
    runs.push(record);
    write_json(path, &json!({ "runs": runs }))
}

fn print_metrics(cfg: &Config, out: &Outcome) {
    println!(
        "moira-bench {} seed={} seconds={} {}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        if cfg.traced { "traced" } else { "untraced" }
    );
    if cfg.traced {
        for (name, unit) in &spec().per_layer {
            let v = out.layers.get(name.as_str()).copied().unwrap_or(0.0);
            println!("  {name:<42} {v:>16.4} {unit}");
        }
    } else {
        for m in &spec().end_to_end {
            let v = out.end_to_end.get(m.name.as_str()).copied().unwrap_or(0.0);
            println!("  {:<42} {v:>16.4} {}", m.name, m.unit);
        }
    }
    println!(
        "  {:<42} {:>16.6} ratio  ({} of {})",
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for (key, value) in &out.detail {
        println!("  {key}: {}", report::to_line(value));
    }
}

/// Every workload, traced and untraced, on the small population with the
/// checks on: keeps the harness compiling and its checks passing in
/// seconds. Reports nothing.
fn smoke() -> Result<(), String> {
    for name in &spec().workloads {
        for traced in [false, true] {
            let cfg = Config {
                workload: name.clone(),
                seed: 7,
                seconds: 0.9,
                traced,
                smoke: true,
                spec: PopulationSpec::small(),
            };
            let out = run_workload(&cfg).map_err(|e| format!("{name}: {e}"))?;
            if out.failed != 0 || out.attempted == 0 {
                return Err(format!(
                    "{name} (traced={traced}): {} of {} operations failed",
                    out.failed, out.attempted
                ));
            }
            if let Some(metric) = out.misnamed(traced) {
                return Err(format!(
                    "{name} (traced={traced}): `{metric}` is set or listed, not both"
                ));
            }
            if traced && (out.layers.is_empty() || out.trace.is_none()) {
                return Err(format!("{name}: the traced run recorded nothing"));
            }
            println!(
                "smoke ok: {name} traced={traced} attempted={}",
                out.attempted
            );
        }
    }
    Ok(())
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let parsed = parse_run(args)?;
    if parsed.smoke {
        smoke()?;
        return Ok(ExitCode::SUCCESS);
    }
    let dir = out_dir();
    let cfg = Config {
        workload: parsed.workload.ok_or("--workload is required")?,
        seed: parsed.seed,
        seconds: parsed.seconds,
        traced: parsed.traced,
        smoke: false,
        spec: PopulationSpec::production(parsed.users),
    };
    let name = &cfg.workload;
    let out = run_workload(&cfg)?;
    print_metrics(&cfg, &out);

    let record = run_record(&cfg, &out);
    match &parsed.out {
        Some(path) => append_to_set(path, record)?,
        None => {
            let file = if cfg.traced {
                format!("{name}.layers.json")
            } else {
                format!("{name}.json")
            };
            write_json(&dir.join(file), &json!({ "runs": [record] }))?;
        }
    }
    if let Some(trace) = &out.trace {
        write_json(&dir.join(format!("{name}.trace.json")), trace)?;
    }
    // The driver reads the last line.
    println!(
        "{}",
        report::to_line(&json!({
            "correct": out.failed == 0,
            "attempted": out.attempted,
            "failed": out.failed,
            "metrics": out.metrics(cfg.traced),
        }))
    );
    Ok(ExitCode::SUCCESS)
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: moira-bench compare <a.json> <b.json>".into());
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (rows, failed) = compare::compare(&load(a)?, &load(b)?)?;
    Ok(if compare::print(&rows, &failed) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare_files(rest),
        _ => Err("usage: moira-bench run --workload <name> --seed <n> [--seconds <n>] [--trace <0|1>] | run --smoke | compare <a.json> <b.json>".into()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("moira-bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_of_every_workload_passes_its_checks() {
        smoke().expect("smoke");
    }

    #[test]
    fn flags_parse_and_bad_ones_are_refused() {
        let s = |v: &[&str]| v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        let p = parse_run(&s(&[
            "--workload",
            "propagate",
            "--seed",
            "9",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (p.workload.as_deref(), p.seed, p.seconds, p.traced),
            (Some("propagate"), 9, 20.0, true)
        );
        assert!(!parse_run(&s(&["--trace", "0"])).unwrap().traced);
        assert!(parse_run(&s(&["--trace", "0.5"])).is_err());
        assert_eq!(parse_run(&[]).unwrap().seconds, spec().run_seconds);
        assert!(parse_run(&s(&["--workload", "nope"])).is_err());
        assert!(parse_run(&s(&["--seed"])).is_err());
        assert!(parse_run(&s(&["--seconds", "0"])).is_err());
        assert!(parse_run(&s(&["--frobnicate"])).is_err());
    }
}
