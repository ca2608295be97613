//! Day-scale benchmark of the Murakkab simulator, end to end and per
//! layer. See README.md for the workloads, the metrics and how to run it.
//!
//! ```text
//! daybench --workload NAME --seed N --seconds S --trace 0|1
//! daybench steady [--runs K] [--seed N]
//! ```
//!
//! A run sets the workload up several times, re-runs arrival generation
//! and planning outside the serve (the probe), then repeats whole timed
//! rounds until `--seconds` have passed, setting up again between rounds
//! (the median set-up is `setup_s`). A traced run repeats the probe
//! before every round. Every round is checked. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` (operations are simulated arrivals) and the end-to-end
//! metrics, or with `--trace 1` the per-layer ones.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("daybench reads process CPU time through 64-bit Linux clock_gettime");

mod alloc;
mod checks;
mod span;
mod stats;
mod steady;
mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;

use murakkab::fleet::FleetClassReport;
use span::Tracer;
use stats::median;
use workloads::{Prepared, Probe, RoundOut, ServeStats, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// A batch of set-ups runs at least `BATCH_MIN` set-ups, and more until
/// it has spent `BATCH_S` seconds or run `BATCH_MAX`. One batch runs
/// before the first round and one after every round, all alike, so that
/// `setup_s` (the median of all set-ups) samples the host evenly over
/// the whole run as `wall_s` does. One set-up takes tens of
/// microseconds to tens of milliseconds, too short for a single sample
/// to be steady.
const BATCH_MIN: usize = 5;
const BATCH_S: f64 = 0.1;
const BATCH_MAX: usize = 1000;
/// Most set-up times a run keeps, in storage allocated up front.
const SETUP_CAPACITY: usize = 1 << 16;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: daybench --workload trace_day|shed_day|geo_day --seed N --seconds S --trace 0|1
       daybench steady [--runs K] [--seed N]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("steady") {
        steady::main(&args[1..])
    } else {
        match parse_args(&args) {
            Ok(a) => match run(&a) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("daybench: {e}");
                    1
                }
            },
            Err(e) => {
                eprintln!("daybench: {e}\n{USAGE}");
                2
            }
        }
    };
    std::process::exit(code);
}

/// One timed round's measurements.
struct RoundMeasure {
    wall_s: f64,
    cpu_s: f64,
    peak_bytes: u64,
}

/// Most rounds a run records without growing its vectors, which keeps
/// the live heap at the start of every round the same.
const ROUND_CAPACITY: usize = 4096;

fn run(a: &Args) -> Result<(), String> {
    let w = a.workload;
    let mut tr = Tracer::new(a.trace);

    let mut setup_s = Vec::with_capacity(SETUP_CAPACITY);
    let prep = set_up(w, a.seed, &mut tr, &mut setup_s)?;
    let run_probe = |tr: &mut Tracer| {
        tr.span("probe", |tr| workloads::probe(&prep, tr))
            .map_err(|e| format!("probe failed: {e}"))
    };
    tr.set_round(Some(0));
    let mut probe = run_probe(&mut tr)?;

    // Only plain numbers outlive a round, in storage allocated up front.
    let mut rounds: Vec<RoundMeasure> = Vec::with_capacity(ROUND_CAPACITY);
    let mut serve_stats: Vec<ServeStats> = Vec::with_capacity(ROUND_CAPACITY);
    let mut from_report: Vec<Metric> = Vec::with_capacity(64);
    let mut first_digest: Option<u64> = None;
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < a.seconds {
        let i = rounds.len();
        tr.set_round(Some(i));
        if a.trace && i > 0 {
            // Next to every round, so that `serve.rest_s` subtracts
            // generation and planning times taken in the same period of
            // the host's speed as the serve's.
            probe = run_probe(&mut tr)?;
        }
        alloc::reset_peak();
        let (t0, cpu0) = (Instant::now(), span::process_cpu_s());
        let out = tr.span("round", |tr| workloads::round(w, &prep, tr));
        let m = RoundMeasure {
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_s: span::process_cpu_s() - cpu0,
            peak_bytes: alloc::peak_bytes(),
        };
        tr.set_round(None);
        eprintln!(
            "round {i}: wall {:.4} s, cpu {:.4} s, peak heap {:.3} MiB",
            m.wall_s,
            m.cpu_s,
            alloc::mib(m.peak_bytes)
        );
        rounds.push(m);
        attempted += probe.arrivals;
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                eprintln!("round {i}: {e}");
                failed += probe.arrivals;
                continue;
            }
        };
        let mut results = workloads::checks(w, &prep, &probe, &out);
        results.push((
            "same_digest_every_round",
            checks::same_digest(first_digest, out.digest),
        ));
        for (name, r) in &results {
            if let Err(e) = r {
                eprintln!("round {i}: check {name} failed: {e}");
            }
        }
        if results.iter().any(|(_, r)| r.is_err()) {
            failed += probe.arrivals;
            correct = false;
        }
        serve_stats.push(out.serve);
        if first_digest.is_none() {
            first_digest = Some(out.digest);
            eprintln!(
                "{}: seed {} | {} arrivals/round, {:.1}% shed | {}",
                w.name(),
                a.seed,
                probe.arrivals,
                100.0 * workloads::fleet(&out.report).shed_rate,
                out.report.summary_line()
            );
            eprint!("{}", workloads::fleet(&out.report).class_table());
            if a.trace {
                layer_counts(w, &probe, &out, &mut from_report);
            } else {
                sim_metrics(&out, &mut from_report);
            }
        }
        drop(out);
        drop(set_up(w, a.seed, &mut tr, &mut setup_s)?);
        workloads::settle_heap();
    }
    if first_digest.is_none() {
        return Err("no round succeeded".into());
    }

    let mut metrics: Vec<Metric> = if a.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", w.name(), a.seed));
        tr.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
        let layers = layers(&tr);
        eprint!("{}", self_time_table(&layers));
        layer_times(&layers, &rounds, &serve_stats, &from_report)
    } else {
        host_metrics(&rounds, &setup_s)
    };
    metrics.extend(from_report);
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(())
}

/// One batch of set-ups (see [`BATCH_MIN`]); records each one's time
/// while there is room and returns the last.
fn set_up(
    w: Workload,
    seed: u64,
    tr: &mut Tracer,
    times: &mut Vec<f64>,
) -> Result<Prepared, String> {
    let mut spent = 0.0;
    for n in 1.. {
        let t0 = Instant::now();
        let p = tr
            .span("setup", |tr| workloads::setup(w, seed, tr))
            .map_err(|e| format!("set-up failed: {e}"))?;
        let t = t0.elapsed().as_secs_f64();
        spent += t;
        if times.len() < times.capacity() {
            times.push(t);
        }
        if n >= BATCH_MIN && (spent >= BATCH_S || n >= BATCH_MAX) {
            return Ok(p);
        }
    }
    unreachable!("the loop returns")
}

type Metric = (&'static str, f64, &'static str);

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end host metrics.
fn host_metrics(rounds: &[RoundMeasure], setup_s: &[f64]) -> Vec<Metric> {
    vec![
        ("wall_s", median_of(rounds, |r| r.wall_s), "s"),
        ("setup_s", median(setup_s), "s"),
        ("cpu_s", median_of(rounds, |r| r.cpu_s), "s"),
        (
            "peak_heap_mb",
            alloc::mib(rounds.iter().map(|r| r.peak_bytes).max().unwrap_or(0)),
            "MiB",
        ),
    ]
}

/// The end-to-end simulated metrics of a round's report.
fn sim_metrics(out: &RoundOut, into: &mut Vec<Metric>) {
    let f = workloads::fleet(&out.report);
    let worst = |g: fn(&FleetClassReport) -> Option<f64>| {
        f.classes.iter().filter_map(g).fold(0.0_f64, f64::max)
    };
    let per_slo = |x: f64| x / f.slo_met.max(1) as f64;
    into.extend([
        ("sim_goodput_per_min", f.goodput_per_min, "1/min"),
        ("sim_latency_p50_s", worst(|c| c.p50_s), "sim_s"),
        ("sim_latency_p95_s", worst(|c| c.p95_s), "sim_s"),
        ("sim_ttft_p95_s", worst(|c| c.ttft_p95_s), "sim_s"),
        (
            "sim_wh_per_slo_met",
            per_slo(out.report.core.energy_allocated_wh),
            "Wh",
        ),
        (
            "sim_usd_per_slo_met",
            per_slo(out.report.core.cost_usd),
            "USD",
        ),
    ]);
}

/// The per-layer counts of a round: probe figures and report fields.
fn layer_counts(w: Workload, probe: &Probe, out: &RoundOut, into: &mut Vec<Metric>) {
    let f = workloads::fleet(&out.report);
    let geo = out.report.geo();
    let count = |n: u64| n as f64;
    let records = match (w, &out.trace) {
        (Workload::Shed, Some(t)) => t.requests.len() as u64,
        _ => 0,
    };
    into.extend([
        ("trace.json_mb", alloc::mib(out.json_bytes as u64), "MiB"),
        ("traffic.arrivals", count(probe.arrivals), "count"),
        ("plan.allocs", count(probe.plan_allocs), "count"),
        ("plan.tasks", count(probe.tasks), "count"),
        (
            "plan.resident_mb",
            alloc::mib(probe.plan_resident_bytes),
            "MiB",
        ),
        ("engine.events", count(f.events_processed), "count"),
        ("engine.tasks", count(f.tasks_completed), "count"),
        ("admission.admitted", count(f.admitted), "count"),
        ("admission.rejected_rate", count(f.rejected_rate), "count"),
        (
            "admission.rejected_deadline",
            count(f.rejected_deadline),
            "count",
        ),
        (
            "admission.rejected_queue_full",
            count(f.rejected_queue_full),
            "count",
        ),
        ("fleet.steals", count(f.steals), "count"),
        (
            "fleet.peak_backlog",
            count(f.cells.iter().map(|c| c.peak_backlog).max().unwrap_or(0)),
            "count",
        ),
        ("fleet.gpu_util_pct", f.gpu_util_avg_pct, "%"),
        (
            "geo.cross_region",
            count(geo.map_or(0, |g| g.cross_region_requests)),
            "count",
        ),
        (
            "geo.wan_egress_gb",
            geo.map_or(0.0, |g| g.wan_egress_gb),
            "GB",
        ),
        (
            "geo.spot_node_hours",
            geo.map_or(0.0, |g| g.spot_node_hours),
            "node-h",
        ),
        ("capture.records", count(records), "count"),
        ("energy.allocated_wh", f.energy_allocated_wh, "Wh"),
        (
            "sim.completed_min_class",
            count(f.classes.iter().map(|c| c.completed).min().unwrap_or(0)),
            "count",
        ),
    ]);
}

/// Self time of one layer over a traced run.
struct Layer {
    spans: usize,
    total_s: f64,
    /// Median over rounds of the self time in each round; a span
    /// outside the rounds (set-up) is a sample of its own.
    median_s: f64,
    /// Self time in each round, by round.
    per_round: BTreeMap<usize, f64>,
}

fn layers(tr: &Tracer) -> BTreeMap<&'static str, Layer> {
    let own = span::self_secs(tr.spans());
    let mut spans: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut per_round: BTreeMap<&'static str, BTreeMap<usize, f64>> = BTreeMap::new();
    for (s, t) in tr.spans().iter().zip(own) {
        *spans.entry(s.name).or_default() += 1;
        match s.round {
            Some(r) => *per_round.entry(s.name).or_default().entry(r).or_default() += t,
            None => samples.entry(s.name).or_default().push(t),
        }
    }
    for (name, rounds) in &per_round {
        samples
            .entry(name)
            .or_default()
            .extend(rounds.values().copied());
    }
    samples
        .into_iter()
        .map(|(name, v)| {
            let layer = Layer {
                spans: spans[name],
                total_s: v.iter().sum(),
                median_s: median(&v),
                per_round: per_round.remove(name).unwrap_or_default(),
            };
            (name, layer)
        })
        .collect()
}

/// The per-layer times, from the spans and the serve figures.
fn layer_times(
    layers: &BTreeMap<&'static str, Layer>,
    rounds: &[RoundMeasure],
    serve: &[ServeStats],
    counts: &[Metric],
) -> Vec<Metric> {
    let count = |name: &str| {
        counts
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |&(_, v, _)| v)
    };
    let layer_s = |name: &str| layers.get(name).map_or(0.0, |l| l.median_s);
    let decode_s = layer_s("trace.decode");
    let serve_s = layer_s("serve");
    // Round by round: each round's serve less the generation and planning
    // of the probe run next to it.
    let in_round = |name: &str, r: usize| {
        layers
            .get(name)
            .and_then(|l| l.per_round.get(&r))
            .copied()
            .unwrap_or(0.0)
    };
    let rest: Vec<f64> = layers.get("serve").map_or_else(Vec::new, |l| {
        l.per_round
            .iter()
            .map(|(&r, s)| s - in_round("traffic.generate", r) - in_round("plan", r))
            .collect()
    });
    let rest_s = if rest.is_empty() { 0.0 } else { median(&rest) };
    vec![
        ("trace.decode_s", decode_s, "s"),
        (
            "trace.decode_mb_per_s",
            if decode_s > 0.0 {
                count("trace.json_mb") / decode_s
            } else {
                0.0
            },
            "MiB/s",
        ),
        ("trace.encode_s", layer_s("trace.encode"), "s"),
        ("session.new_s", layer_s("session.new"), "s"),
        ("analyze.s", layer_s("analyze"), "s"),
        ("traffic.generate_s", layer_s("traffic.generate"), "s"),
        ("plan.s", layer_s("plan"), "s"),
        ("serve.s", serve_s, "s"),
        (
            "serve.allocs",
            median_of(serve, |s| s.allocs as f64),
            "count",
        ),
        (
            "serve.peak_heap_mb",
            alloc::mib(median_of(serve, |s| s.peak_bytes as f64) as u64),
            "MiB",
        ),
        ("serve.rest_s", rest_s, "s"),
        (
            "engine.ns_per_event",
            rest_s * 1e9 / count("engine.events").max(1.0),
            "ns",
        ),
        (
            "geo.cpu_over_wall",
            median_of(serve, |s| s.cpu_s / s.wall_s),
            "ratio",
        ),
        ("report.digest_s", layer_s("report.digest"), "s"),
        ("traced.wall_s", median_of(rounds, |r| r.wall_s), "s"),
    ]
}

/// Per-layer self time: total over the run and median per round.
fn self_time_table(layers: &BTreeMap<&'static str, Layer>) -> String {
    let mut out = format!(
        "{:<18} {:>6} {:>12} {:>14}\n",
        "layer", "spans", "self_s", "median_self_s"
    );
    for (name, l) in layers {
        out.push_str(&format!(
            "{name:<18} {:>6} {:>12.6} {:>14.6}\n",
            l.spans, l.total_s, l.median_s
        ));
    }
    out
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // `{:?}` prints the shortest digits that read back as the same f64.
            let v = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
