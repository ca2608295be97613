//! The three workloads: their inputs, the timed calls of one round, the
//! untimed per-layer probes and the checks of a round's outputs.

use murakkab::scenario::{ExecutionMode, WorkloadSource};
use murakkab::{FleetReport, Report, Scenario, Session};
use murakkab_orchestrator::{expand, Planner};
use murakkab_sim::{SimDuration, SimError, SimRng};
use murakkab_trace::{synthesize, RunTrace, SynthSpec};
use murakkab_traffic::{AdmissionConfig, ArrivalProcess, TrafficSpec};

use crate::alloc;
use crate::checks::{self, Check};
use crate::span::{process_cpu_s, Tracer};

/// `trace_day`: requests in expectation over one synthesized day.
pub const TRACE_DAY_REQUESTS: u64 = 5_000;
/// `trace_day`: one day, with a 4× noon peak.
pub const TRACE_DAY_S: f64 = 86_400.0;

/// `shed_day`: a day compressed into this many simulated seconds, so
/// the run stays a few seconds long while the offered rate stays far
/// above the admission rate.
pub const SHED_DAY_S: f64 = 21_600.0;
/// `shed_day`: trough arrival rate; the diurnal peak is 4× this.
pub const SHED_DAY_BASE_RATE: f64 = 0.6;

/// `geo_day`: the committed three-region scenario, with its horizon and
/// its diurnal day stretched to this many simulated seconds.
pub const GEO_DAY_S: f64 = 14_400.0;
pub const GEO_SCENARIO: &str = include_str!("../../scenarios/geo_three_region.json");

const PEAK_FACTOR: f64 = 4.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Trace,
    Shed,
    Geo,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Trace, Workload::Shed, Workload::Geo];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Trace => "trace_day",
            Workload::Shed => "shed_day",
            Workload::Geo => "geo_day",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one set-up leaves for the timed rounds.
pub struct Prepared {
    pub session: Session,
    /// The scenario the rounds serve (`trace_day` decodes its own copy).
    pub scenario: Scenario,
    /// `trace_day`: the encoded trace every round decodes.
    pub trace_json: Option<String>,
}

fn set_open_loop(scenario: &mut Scenario, f: impl FnOnce(&mut murakkab::OpenLoopSpec)) {
    if let ExecutionMode::OpenLoop(spec) = &mut scenario.mode {
        f(spec);
    }
}

/// Builds a workload's inputs from `seed` and the session that serves
/// them: everything before the first serving call.
pub fn setup(w: Workload, seed: u64, tr: &mut Tracer) -> Result<Prepared, SimError> {
    let mut trace_json = None;
    let scenario = match w {
        Workload::Trace => {
            let spec = SynthSpec {
                label: "trace-day".into(),
                seed,
                requests: TRACE_DAY_REQUESTS,
                horizon_s: TRACE_DAY_S,
                peak_factor: PEAK_FACTOR,
                period_s: TRACE_DAY_S,
            };
            let mut trace = tr.span("trace.synth", |_| synthesize(&spec))?;
            // Every arrival is admitted: the day is replayed whole.
            set_open_loop(&mut trace.scenario, |s| {
                s.admission = AdmissionConfig::disabled();
            });
            trace_json = Some(tr.span("trace.encode", |_| trace.to_json())?);
            trace.scenario
        }
        Workload::Shed => Scenario::open_loop(
            "shed-day",
            ArrivalProcess::Diurnal {
                base_rate_per_s: SHED_DAY_BASE_RATE,
                peak_factor: PEAK_FACTOR,
                period_s: SHED_DAY_S,
            },
            SHED_DAY_S,
        )
        .seed(seed),
        Workload::Geo => {
            let mut s = Scenario::from_json(GEO_SCENARIO)?.seed(seed);
            let threads = std::thread::available_parallelism().map_or(1, usize::from);
            set_open_loop(&mut s, |spec| {
                spec.horizon_s = GEO_DAY_S;
                spec.threads = Some(threads);
            });
            if let Some(geo) = &mut s.geo {
                geo.day_s = GEO_DAY_S;
            }
            s
        }
    };
    let session = tr.span("session.new", |_| Session::new(&scenario))?;
    Ok(Prepared {
        session,
        scenario,
        trace_json,
    })
}

/// Heap and time figures of one serving call.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub allocs: u64,
    /// Peak live heap during the call, above the heap live at its start.
    pub peak_bytes: u64,
}

/// What one timed round produced.
pub struct RoundOut {
    pub report: Report,
    pub digest: u64,
    /// `trace_day`: the decoded trace; `shed_day`: the capture.
    pub trace: Option<RunTrace>,
    /// Bytes of trace JSON decoded or encoded.
    pub json_bytes: usize,
    pub serve: ServeStats,
}

/// Makes one mid-sized allocation. The allocator consolidates the frees
/// that are still pending on such a request, so a call that ends with
/// this pays for freeing its own heap, not whichever allocation comes
/// next (after the probe frees a 32k-arrival day's planned graphs, that
/// is about 0.1 s).
pub fn settle_heap() {
    drop(std::hint::black_box(vec![0u8; 64 * 1024]));
}

/// A serving call, ending with [`settle_heap`].
fn serve<T>(
    tr: &mut Tracer,
    stats: &mut ServeStats,
    f: impl FnOnce() -> Result<T, SimError>,
) -> Result<T, SimError> {
    tr.span("serve", |_| {
        let live0 = alloc::live_bytes();
        let peak_before = alloc::peak_bytes();
        alloc::reset_peak();
        let allocs0 = alloc::allocations();
        let (t0, cpu0) = (std::time::Instant::now(), process_cpu_s());
        let out = f();
        settle_heap();
        stats.wall_s = t0.elapsed().as_secs_f64();
        stats.cpu_s = process_cpu_s() - cpu0;
        stats.allocs = alloc::allocations() - allocs0;
        stats.peak_bytes = alloc::peak_bytes().saturating_sub(live0);
        alloc::raise_peak(peak_before);
        out
    })
}

/// The preflight lint a scenario passes before it is served.
fn preflight(tr: &mut Tracer, session: &Session, scenario: &Scenario) -> Result<(), SimError> {
    let report = tr.span("analyze", |_| session.analyze(scenario));
    if report.has_errors() {
        return Err(SimError::InvalidInput(format!(
            "preflight found errors:\n{}",
            report.render_human()
        )));
    }
    Ok(())
}

/// One timed round: the calls a user of the workload makes.
pub fn round(w: Workload, prep: &Prepared, tr: &mut Tracer) -> Result<RoundOut, SimError> {
    let mut stats = ServeStats::default();
    match w {
        Workload::Trace => {
            let json = prep
                .trace_json
                .as_deref()
                .expect("trace_day set-up encodes");
            let trace = tr.span("trace.decode", |_| RunTrace::from_json(json))?;
            preflight(tr, &prep.session, &trace.scenario)?;
            let report = serve(tr, &mut stats, || prep.session.execute(&trace.scenario))?;
            let digest = tr.span("report.digest", |_| report.digest());
            Ok(RoundOut {
                report,
                digest,
                trace: Some(trace),
                json_bytes: json.len(),
                serve: stats,
            })
        }
        Workload::Shed => {
            preflight(tr, &prep.session, &prep.scenario)?;
            let mut trace = serve(tr, &mut stats, || {
                RunTrace::capture_with(&prep.session, &prep.scenario)
            })?;
            let json = tr.span("trace.encode", |_| trace.to_json())?;
            let report = trace.baseline.take().expect("a capture holds its report");
            let digest = tr.span("report.digest", |_| report.digest());
            if trace.digest != Some(digest) {
                return Err(SimError::InvalidState(
                    "the capture's recorded digest differs from its report's".into(),
                ));
            }
            Ok(RoundOut {
                report,
                digest,
                trace: Some(trace),
                json_bytes: json.len(),
                serve: stats,
            })
        }
        Workload::Geo => {
            preflight(tr, &prep.session, &prep.scenario)?;
            let report = serve(tr, &mut stats, || prep.session.execute(&prep.scenario))?;
            let digest = tr.span("report.digest", |_| report.digest());
            Ok(RoundOut {
                report,
                digest,
                trace: None,
                json_bytes: 0,
                serve: stats,
            })
        }
    }
}

/// Figures from re-running, outside the serve, the arrival generation
/// and planning the serve performs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    pub arrivals: u64,
    pub tasks: u64,
    pub plan_allocs: u64,
    /// Heap held by the planned graphs of every arrival.
    pub plan_resident_bytes: u64,
}

/// Generates the scenario's arrivals and plans each one with the calls
/// the serve makes: the tenant's sized job, its decomposition and its
/// expansion into a task graph.
pub fn probe(prep: &Prepared, tr: &mut Tracer) -> Result<Probe, SimError> {
    let s = &prep.scenario;
    let (ExecutionMode::OpenLoop(spec), WorkloadSource::Traffic { process, tenants }) =
        (&s.mode, &s.workload)
    else {
        return Err(SimError::InvalidInput("workloads are open-loop".into()));
    };
    let rng = SimRng::new(s.seed).fork("fleet");
    let traffic = TrafficSpec {
        process: process.clone(),
        tenants: tenants.clone(),
    };
    let horizon = SimDuration::from_secs_f64(spec.horizon_s);
    let requests = tr.span("traffic.generate", |_| traffic.requests(&rng, horizon));
    let library = prep.session.runtime().library();
    let (live0, allocs0) = (alloc::live_bytes(), alloc::allocations());
    let graphs = tr.span("plan", |_| {
        requests
            .iter()
            .map(|req| {
                let mut job_rng = rng.fork(&format!("job-{}", req.id));
                let (job, inputs) =
                    murakkab::fleet::fleet_job(req.archetype, &req.tenant, &mut job_rng);
                let (plan, _) = Planner.decompose(&job, library)?;
                expand(&plan, &inputs)
            })
            .collect::<Result<Vec<_>, SimError>>()
    })?;
    let probe = Probe {
        arrivals: requests.len() as u64,
        tasks: graphs.iter().map(|g| g.len() as u64).sum(),
        plan_allocs: alloc::allocations() - allocs0,
        plan_resident_bytes: alloc::live_bytes().saturating_sub(live0),
    };
    drop(graphs);
    settle_heap();
    Ok(probe)
}

/// ∫ rate over the horizon of `base · (1 + (peak − 1) sin²(π t / period))`.
pub fn diurnal_expected(base: f64, peak: f64, period: f64, horizon: f64) -> f64 {
    let two_pi = 2.0 * std::f64::consts::PI;
    base * (horizon
        + (peak - 1.0)
            * (horizon / 2.0 - period / (2.0 * two_pi) * (two_pi * horizon / period).sin()))
}

/// The fleet report of an open-loop run (the global roll-up under geo).
pub fn fleet(report: &Report) -> &FleetReport {
    report.open_loop().expect("every workload is open-loop")
}

/// Every check of one round, by name.
pub fn checks(
    w: Workload,
    prep: &Prepared,
    probe: &Probe,
    out: &RoundOut,
) -> Vec<(&'static str, Check)> {
    let f = fleet(&out.report);
    let mut res: Vec<(&'static str, Check)> = vec![(
        "class_samples",
        checks::class_samples(f, checks::MIN_CLASS_COMPLETIONS),
    )];
    match w {
        Workload::Trace => {
            let trace = out.trace.as_ref().expect("trace_day keeps its trace");
            let json = prep
                .trace_json
                .as_deref()
                .expect("trace_day set-up encodes");
            res.push(("trace_round_trip", checks::trace_round_trip(trace, json)));
            res.push((
                "offered_matches_records",
                checks::offered_matches_records(f, &trace.requests),
            ));
            res.push((
                "arrivals_near_target",
                checks::count_within_5_sigma("trace", f.offered, TRACE_DAY_REQUESTS as f64),
            ));
            res.push((
                "all_admitted_tasks",
                checks::all_admitted_tasks(f, probe.tasks),
            ));
        }
        Workload::Shed => {
            let trace = out.trace.as_ref().expect("shed_day keeps its capture");
            let ExecutionMode::OpenLoop(spec) = &prep.scenario.mode else {
                unreachable!("shed_day is open-loop")
            };
            let expected =
                diurnal_expected(SHED_DAY_BASE_RATE, PEAK_FACTOR, SHED_DAY_S, SHED_DAY_S);
            res.push((
                "arrivals_near_rate_integral",
                checks::count_within_5_sigma("shed", f.offered, expected),
            ));
            res.push(("admission_conserved", checks::admission_conserved(f)));
            res.push((
                "token_bucket_bound",
                checks::token_bucket_bound(f, &spec.admission, spec.horizon_s),
            ));
            res.push((
                "offered_matches_records",
                checks::offered_matches_records(f, &trace.requests),
            ));
            res.push(("records_agree", checks::records_agree(f, &trace.requests)));
        }
        Workload::Geo => {
            let g = out.report.geo().expect("geo_day is federated");
            let wan = &prep
                .scenario
                .geo
                .as_ref()
                .expect("geo_day has a geo spec")
                .wan;
            res.push(("geo_routing_conserved", checks::geo_routing_conserved(g)));
            res.push(("geo_escapes_balance", checks::geo_escapes_balance(g)));
            res.push(("geo_wan_egress", checks::geo_wan_egress(g, wan)));
            res.push(("geo_ledgers_roll_up", checks::geo_ledgers_roll_up(g)));
        }
    }
    res.push((
        "arrivals_match_probe",
        checks::arrivals_match_probe(f, probe.arrivals),
    ));
    res
}
