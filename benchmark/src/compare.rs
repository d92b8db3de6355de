//! `run`: sets of runs of every workload, one child process per run, written
//! as result files. `compare`: two result files held against the bounds in
//! `BENCHMARK.json`. A run on which any operation failed is not a result:
//! `run` reports it and exits non-zero.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use crate::datadir::out_dir;
use crate::json::{self, Value};
use crate::stats::{iqr_share, median};
use crate::workloads;

/// `values[workload][metric]`: one value per run.
type Values = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// How much worse `setup_s` must be in absolute terms, besides its bound,
/// to count: a bring-up takes under a millisecond on `MemFabric`.
const SETUP_FLOOR_S: f64 = 0.05;

/// Runs one workload once in a child process (peak memory and thread CPU are
/// per process) and returns the parsed last line of its output.
fn child_run(workload: &str, seed: u64, seconds: f64) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("");
    let line = json::parse(last).map_err(|e| format!("{workload} seed {seed}: {e}\n{text}"))?;
    let correct = line.get("correct") == Some(&Value::Bool(true));
    if !out.status.success() || !correct {
        return Err(format!("{workload} seed {seed} failed:\n{text}"));
    }
    Ok(line)
}

fn write_set(path: &Path, seconds: f64, values: &Values) -> std::io::Result<()> {
    let workloads: Vec<String> = values
        .iter()
        .map(|(w, metrics)| {
            let rows: Vec<String> = metrics
                .iter()
                .map(|(m, v)| {
                    let list: Vec<String> = v.iter().map(|x| json::number(*x)).collect();
                    format!("    {}: [{}]", json::quote(m), list.join(", "))
                })
                .collect();
            format!("  {}: {{\n{}\n  }}", json::quote(w), rows.join(",\n"))
        })
        .collect();
    let text = format!(
        "{{\"seconds\": {}, \"workloads\": {{\n{}\n}}}}\n",
        json::number(seconds),
        workloads.join(",\n")
    );
    std::fs::write(path, text)
}

/// `run [--seed N] [--seconds S | --quick] [--runs R] [--sets K]`: `K` sets
/// of `R` runs of every workload, every run with another seed. Writes
/// `benchmark/out/set-<k>.json` and prints medians and spreads.
pub fn run_sets(
    rest: &[String],
    seed: u64,
    seconds: f64,
    runs: usize,
    sets: usize,
) -> Result<ExitCode, String> {
    if let Some(extra) = rest.first() {
        return Err(format!("run: unexpected argument `{extra}`"));
    }
    let mut failures = 0;
    for set in 0..sets {
        let mut values = Values::new();
        for spec in workloads::ALL {
            for run in 0..runs {
                let run_seed = seed + (set * runs + run) as u64;
                match child_run(spec.name, run_seed, seconds) {
                    Ok(line) => {
                        let metrics = line.get("metrics").and_then(Value::as_object);
                        let mut row = Vec::new();
                        for (name, m) in metrics.into_iter().flatten() {
                            let v = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
                            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
                            row.push(format!("{name} {v:.4} {unit}"));
                            values
                                .entry(spec.name.to_owned())
                                .or_default()
                                .entry(name.clone())
                                .or_default()
                                .push(v);
                        }
                        println!(
                            "set {set} {} seed {run_seed}: {}",
                            spec.name,
                            row.join(", ")
                        );
                    }
                    Err(e) => {
                        failures += 1;
                        eprintln!("{e}");
                    }
                }
            }
        }
        let path = out_dir().join(format!("set-{set}.json"));
        write_set(&path, seconds, &values).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("set {set} written to {}", path.display());
        for (w, metrics) in &values {
            for (m, v) in metrics {
                println!(
                    "  {w:<12} {m:<16} median {:>14.4}  spread {:>5.1} % of median over {} runs",
                    median(v),
                    iqr_share(v) * 100.0,
                    v.len()
                );
            }
        }
    }
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn load_set(path: &str) -> Result<Values, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{path}: no `workloads` object"))?;
    let mut values = Values::new();
    for (w, metrics) in workloads {
        for (m, list) in metrics.as_object().into_iter().flatten() {
            let v: Vec<f64> = list
                .as_array()
                .into_iter()
                .flatten()
                .filter_map(Value::as_f64)
                .collect();
            values.entry(w.clone()).or_default().insert(m.clone(), v);
        }
    }
    Ok(values)
}

/// One end-to-end metric's rule: direction and bound from `BENCHMARK.json`,
/// and an absolute amount below which a difference does not count.
struct Rule {
    name: String,
    lower_is_better: bool,
    bound: f64,
    floor: f64,
}

fn rules(benchmark_json: &str) -> Result<Vec<Rule>, String> {
    let doc = json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no `end_to_end` array")?;
    list.iter()
        .map(|m| {
            let name = m.get("name")?.as_str()?.to_owned();
            Some(Rule {
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
                floor: if name == "setup_s" {
                    SETUP_FLOOR_S
                } else {
                    0.0
                },
                name,
            })
        })
        .collect::<Option<Vec<Rule>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed `end_to_end` entry".to_owned())
}

/// The verdict on one workload × metric and how much worse B's median is
/// than A's, as a share of A's: `ok`, `regressed` (worse by more than the
/// bound and the floor) or `unresolved` (the quartile distance of a set is
/// wider than that, so the medians cannot be told apart at that resolution).
fn verdict(rule: &Rule, a: &[f64], b: &[f64]) -> (&'static str, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse = if rule.lower_is_better {
        mb - ma
    } else {
        ma - mb
    };
    let allowed = (rule.bound * ma).max(rule.floor);
    let spread = (iqr_share(a) * ma).max(iqr_share(b) * mb);
    let v = if spread > allowed {
        "unresolved"
    } else if worse > allowed {
        "regressed"
    } else {
        "ok"
    };
    (v, worse / ma)
}

/// `compare A.json B.json`: one row per workload × end-to-end metric.
pub fn compare(rest: &[String]) -> Result<ExitCode, String> {
    let [a, b] = rest else {
        return Err("compare needs two result files".to_owned());
    };
    let (a, b) = (load_set(a)?, load_set(b)?);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let rules = rules(&text)?;
    let mut all_ok = true;
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>8} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse %", "spread A%", "spread B%", "bound%"
    );
    for spec in workloads::ALL {
        for rule in &rules {
            let get = |set: &Values| set.get(spec.name).and_then(|m| m.get(&rule.name)).cloned();
            let (Some(va), Some(vb)) = (get(&a), get(&b)) else {
                return Err(format!(
                    "{} / {}: missing from a result file",
                    spec.name, rule.name
                ));
            };
            let (v, worse) = verdict(rule, &va, &vb);
            all_ok &= v == "ok";
            println!(
                "{:<12} {:<16} {:>14.4} {:>14.4} {:>8.1} {:>9.1} {:>9.1} {:>6.0}  {v}",
                spec.name,
                rule.name,
                median(&va),
                median(&vb),
                worse * 100.0,
                iqr_share(&va) * 100.0,
                iqr_share(&vb) * 100.0,
                rule.bound * 100.0
            );
        }
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(name: &str, lower: bool, floor: f64) -> Rule {
        Rule {
            name: name.to_owned(),
            lower_is_better: lower,
            bound: 0.1,
            floor,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = |m: f64| vec![m * 0.99, m, m * 1.01, m, m * 1.005];
        let lat = rule("lat_p50_us", true, 0.0);
        assert_eq!(verdict(&lat, &steady(100.0), &steady(105.0)).0, "ok");
        assert_eq!(verdict(&lat, &steady(100.0), &steady(120.0)).0, "regressed");
        assert_eq!(verdict(&lat, &steady(100.0), &steady(50.0)).0, "ok");
        let goodput = rule("goodput_msgs_s", false, 0.0);
        assert_eq!(
            verdict(&goodput, &steady(100.0), &steady(80.0)).0,
            "regressed"
        );
        assert_eq!(verdict(&goodput, &steady(100.0), &steady(130.0)).0, "ok");
        let noisy = vec![60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(verdict(&lat, &noisy, &steady(100.0)).0, "unresolved");
        // Under the floor neither a wide spread nor a worse median counts.
        let floored = rule("setup_s", true, 70.0);
        assert_eq!(verdict(&floored, &noisy, &steady(100.0)).0, "ok");
        assert_eq!(verdict(&floored, &steady(100.0), &steady(140.0)).0, "ok");
        assert_eq!(
            verdict(&floored, &steady(100.0), &steady(180.0)).0,
            "regressed"
        );
    }

    #[test]
    fn benchmark_json_names_what_the_program_prints() {
        let text = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_owned())
                .collect()
        };
        let report = crate::driver::Report::default();
        let printed: Vec<String> = crate::end_to_end(&report)
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(names("end_to_end"), printed);
        let mut per_layer = names("per_layer");
        per_layer.sort();
        let mut expected: Vec<String> = crate::PER_LAYER.iter().map(|s| s.to_string()).collect();
        expected.sort();
        assert_eq!(per_layer, expected);
        let listed = names("workloads");
        let known: Vec<&str> = workloads::ALL.iter().map(|s| s.name).collect();
        assert_eq!(listed, known);
        assert_eq!(rules(&text).unwrap().len(), printed.len());
    }
}
