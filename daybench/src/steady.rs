//! `daybench steady`: runs each workload K times, interleaved, each run a
//! separate process on its own seed and for `run_seconds` of
//! `BENCHMARK.json` in the working directory, and prints every metric's
//! median, quartiles, spread (quartile distance over median) and bound.
//! It exits with 1 when an end-to-end metric's spread exceeds a third of
//! its bound, when a run fails, or when the runs of one workload fail
//! different shares of their operations.

use std::collections::BTreeMap;
use std::process::Command;

use serde_json::Value;

use crate::stats::{median, quartiles};
use crate::workloads::Workload;

struct Opts {
    runs: usize,
    seed: u64,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts { runs: 5, seed: 1 };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value {v:?}");
        match flag.as_str() {
            "--runs" => o.runs = v.parse().ok().filter(|&k| k >= 2).ok_or_else(bad)?,
            "--seed" => o.seed = v.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown steady flag {flag}")),
        }
    }
    Ok(o)
}

/// What `steady` needs from `BENCHMARK.json`.
struct Definition {
    run_seconds: u64,
    /// The end-to-end metrics' bounds, by name.
    bounds: BTreeMap<String, f64>,
}

fn definition() -> Result<Definition, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let v: Value =
        serde_json::from_str(&text).map_err(|e| format!("parsing BENCHMARK.json: {e}"))?;
    let run_seconds = v
        .get("run_seconds")
        .and_then(Value::as_u64)
        .filter(|&s| s > 0)
        .ok_or("BENCHMARK.json: run_seconds is not a positive whole number")?;
    let bounds = v
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: end_to_end is not a list")?
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<BTreeMap<_, _>>>()
        .ok_or("BENCHMARK.json: an end_to_end metric lacks a name or a bound")?;
    Ok(Definition {
        run_seconds,
        bounds,
    })
}

/// One benchmark run in a child process: its metrics and its
/// failed-operation share.
fn run_once(w: Workload, seed: u64, seconds: u64) -> Result<(BTreeMap<String, f64>, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawning a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!(
            "{} seed {seed} exited with {}: {}",
            w.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let v: Value = serde_json::from_str(last).map_err(|e| format!("bad result line: {e}"))?;
    if v.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!(
            "{} seed {seed} reported incorrect output",
            w.name()
        ));
    }
    let attempted = v.get("attempted").and_then(Value::as_f64).unwrap_or(0.0);
    let failed = v.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
    let metrics = v
        .get("metrics")
        .and_then(Value::as_object)
        .into_iter()
        .flatten()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok((metrics, failed / attempted.max(1.0)))
}

pub fn main(args: &[String]) -> i32 {
    let (o, def) = match parse(args).and_then(|o| Ok((o, definition()?))) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("daybench steady: {e}");
            return 2;
        }
    };
    let workloads = Workload::ALL;
    // samples[workload][metric] = one value per run, and failed shares.
    let mut samples: Vec<BTreeMap<String, Vec<f64>>> = vec![BTreeMap::new(); workloads.len()];
    let mut failed_share: Vec<Vec<f64>> = vec![Vec::new(); workloads.len()];
    for k in 0..o.runs {
        for (i, &w) in workloads.iter().enumerate() {
            let seed = o.seed + k as u64;
            match run_once(w, seed, def.run_seconds) {
                Ok((metrics, share)) => {
                    eprintln!("run {k} {} seed {seed} done", w.name());
                    for (name, v) in metrics {
                        samples[i].entry(name).or_default().push(v);
                    }
                    failed_share[i].push(share);
                }
                Err(e) => {
                    eprintln!("daybench steady: {e}");
                    return 1;
                }
            }
        }
    }
    println!(
        "{:<10} {:<20} {:>13} {:>13} {:>13} {:>8} {:>7}",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    let mut steady = true;
    for (i, w) in workloads.iter().enumerate() {
        for (name, &bound) in &def.bounds {
            let Some(values) = samples[i].get(name).filter(|v| v.len() == o.runs) else {
                println!("{:<10} {name:<20} missing from some run", w.name());
                steady = false;
                continue;
            };
            let m = median(values);
            let (q1, q3) = quartiles(values);
            let spread = (q3 - q1) / m.abs();
            let mark = if spread <= bound / 3.0 {
                ""
            } else {
                steady = false;
                "  > bound/3"
            };
            println!(
                "{:<10} {name:<20} {m:>13.6} {q1:>13.6} {q3:>13.6} {spread:>8.4} {bound:>7}{mark}",
                w.name(),
            );
        }
        let shares = &failed_share[i];
        let same = shares.iter().all(|&s| s == shares[0]);
        steady &= same;
        println!(
            "{:<10} {:<20} {shares:?}{}",
            w.name(),
            "failed share",
            if same { "" } else { "  differs" }
        );
    }
    if steady {
        println!("steady: every spread is within a third of its bound");
        0
    } else {
        println!("not steady: see the marked lines");
        1
    }
}
