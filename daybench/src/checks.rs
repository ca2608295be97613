//! Correctness checks on a run's outputs. Each one recomputes a figure
//! apart from the simulator (from the inputs, from captured records or
//! from the per-region ledgers) or tests a property the serving method
//! must have, and returns the first disagreement it finds.

use std::collections::BTreeMap;

use murakkab::{FleetReport, GeoReport, RequestRecord, WanModel};
use murakkab_trace::RunTrace;
use murakkab_traffic::{AdmissionConfig, AdmissionDecision};

use crate::stats::nearest_rank;

pub type Check = Result<(), String>;

/// Relative tolerance for recomputed latency percentiles. Exact
/// nearest-rank percentiles agree to rounding; the slack admits a
/// quantile sketch whose error bound is within 2%.
pub const PERCENTILE_TOL: f64 = 0.02;

/// Completions every class needs, so its p95 has at least ten samples
/// beyond it.
pub const MIN_CLASS_COMPLETIONS: u64 = 200;

fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Check {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()).max(1e-12)
}

/// A Poisson count lies within five standard deviations of its mean.
pub fn count_within_5_sigma(what: &str, count: u64, mean: f64) -> Check {
    let sigma = mean.sqrt();
    ensure((count as f64 - mean).abs() <= 5.0 * sigma, || {
        format!("{what}: {count} arrivals, expected {mean:.1} ± 5·{sigma:.1}")
    })
}

/// A decoded trace re-encodes to the very bytes it was decoded from.
pub fn trace_round_trip(trace: &RunTrace, json: &str) -> Check {
    match trace.to_json() {
        Ok(again) => ensure(again == json, || {
            "the decoded trace re-encodes to different bytes".into()
        }),
        Err(e) => Err(format!("re-encoding failed: {e}")),
    }
}

/// The serve saw as many arrivals as generating them outside it gives.
pub fn arrivals_match_probe(f: &FleetReport, generated: u64) -> Check {
    ensure(f.offered == generated, || {
        format!(
            "served {} arrivals, generation gives {generated}",
            f.offered
        )
    })
}

/// A round of the same operations reproduces the first round's digest.
pub fn same_digest(first: Option<u64>, digest: u64) -> Check {
    match first {
        Some(d) if d != digest => Err(format!(
            "digest {digest:#x} differs from the first round's {d:#x}"
        )),
        _ => Ok(()),
    }
}

/// Every class completed enough requests for its p95 to be a tail.
pub fn class_samples(f: &FleetReport, min: u64) -> Check {
    for c in &f.classes {
        ensure(c.completed >= min, || {
            format!(
                "class {} completed {} requests, fewer than the {min} its p95 needs",
                c.class, c.completed
            )
        })?;
    }
    ensure(!f.classes.is_empty(), || "report has no classes".into())
}

/// Offered equals the record count, in total and per class.
pub fn offered_matches_records(f: &FleetReport, records: &[RequestRecord]) -> Check {
    ensure(f.offered == records.len() as u64, || {
        format!("offered {} but {} records", f.offered, records.len())
    })?;
    let mut per_class: BTreeMap<&str, u64> = BTreeMap::new();
    for r in records {
        *per_class.entry(r.class.as_str()).or_default() += 1;
    }
    for c in &f.classes {
        let n = per_class.remove(c.class.as_str()).unwrap_or(0);
        ensure(c.offered == n, || {
            format!("class {} offered {} but {n} records", c.class, c.offered)
        })?;
    }
    ensure(per_class.is_empty(), || {
        format!("records name classes the report lacks: {per_class:?}")
    })
}

/// With admission off, every arrival is admitted and completed, so the
/// engine ran exactly the tasks of the arrivals' expanded graphs.
pub fn all_admitted_tasks(f: &FleetReport, planned_tasks: u64) -> Check {
    ensure(f.admitted == f.offered && f.completed == f.offered, || {
        format!(
            "admission is off, yet offered {} admitted {} completed {}",
            f.offered, f.admitted, f.completed
        )
    })?;
    ensure(f.tasks_completed == planned_tasks, || {
        format!(
            "engine completed {} tasks, the arrivals' graphs hold {planned_tasks}",
            f.tasks_completed
        )
    })
}

/// offered = admitted + the three rejection counts, and every
/// admitted request completes.
pub fn admission_conserved(f: &FleetReport) -> Check {
    let rejected = f.rejected_rate + f.rejected_deadline + f.rejected_queue_full;
    ensure(f.offered == f.admitted + rejected, || {
        format!(
            "offered {} != admitted {} + rejected {rejected}",
            f.offered, f.admitted
        )
    })?;
    ensure(f.completed == f.admitted, || {
        format!("completed {} != admitted {}", f.completed, f.admitted)
    })
}

/// A token bucket cannot admit more than its rate over the horizon
/// plus its burst.
pub fn token_bucket_bound(f: &FleetReport, cfg: &AdmissionConfig, horizon_s: f64) -> Check {
    let bound = cfg.rate_per_s * horizon_s + cfg.burst;
    ensure(f.admitted as f64 <= bound, || {
        format!(
            "admitted {} exceeds rate·horizon + burst = {bound:.1}",
            f.admitted
        )
    })
}

/// `slo_met` and every class's p50/p95, recomputed from the captured
/// per-request records.
pub fn records_agree(f: &FleetReport, records: &[RequestRecord]) -> Check {
    let mut latencies: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut slo_met = 0u64;
    for r in records {
        let Some(o) = &r.outcome else {
            return Err(format!("request {} has no outcome", r.id));
        };
        if let Some(done) = o.completed_s {
            ensure(o.verdict == AdmissionDecision::Admitted, || {
                format!("request {} completed without being admitted", r.id)
            })?;
            latencies
                .entry(r.class.as_str())
                .or_default()
                .push(done - r.at_s);
        }
        slo_met += u64::from(o.slo_met == Some(true));
    }
    ensure(slo_met == f.slo_met, || {
        format!("records meet {slo_met} SLOs, report says {}", f.slo_met)
    })?;
    for c in &f.classes {
        let mut v = latencies.remove(c.class.as_str()).unwrap_or_default();
        v.sort_by(f64::total_cmp);
        for (name, q, reported) in [("p50", 0.5, c.p50_s), ("p95", 0.95, c.p95_s)] {
            let ok = match (nearest_rank(&v, q), reported) {
                (Some(a), Some(b)) => close(a, b, PERCENTILE_TOL),
                (None, None) => true,
                _ => false,
            };
            ensure(ok, || {
                format!(
                    "class {} {name}: records give {:?}, report {reported:?}",
                    c.class,
                    nearest_rank(&v, q)
                )
            })?;
        }
    }
    Ok(())
}

/// Σ origins = Σ served = offered.
pub fn geo_routing_conserved(g: &GeoReport) -> Check {
    let origins: u64 = g.regions.iter().map(|r| r.origin_requests).sum();
    let served: u64 = g.regions.iter().map(|r| r.served_requests).sum();
    let offered = g.global.offered;
    ensure(origins == offered && served == offered, || {
        format!("origins {origins}, served {served}, offered {offered}")
    })
}

/// Σ escaped out = Σ escaped in = cross-region requests.
pub fn geo_escapes_balance(g: &GeoReport) -> Check {
    let out: u64 = g.regions.iter().map(|r| r.escaped_out).sum();
    let inn: u64 = g.regions.iter().map(|r| r.escaped_in).sum();
    let cross = g.cross_region_requests;
    ensure(out == cross && inn == cross, || {
        format!("escaped out {out}, in {inn}, cross-region {cross}")
    })
}

/// WAN egress is the cross-region count times the per-request transfer.
pub fn geo_wan_egress(g: &GeoReport, wan: &WanModel) -> Check {
    let expect = g.cross_region_requests as f64 * wan.transfer_gb_per_request();
    ensure(close(g.wan_egress_gb, expect, 1e-9), || {
        format!(
            "WAN egress {} GB, cross-region × per-request transfer = {expect} GB",
            g.wan_egress_gb
        )
    })
}

/// Admitted, completed, `slo_met` and energy summed over the region
/// ledgers equal the global roll-up.
pub fn geo_ledgers_roll_up(g: &GeoReport) -> Check {
    let sum = |f: fn(&FleetReport) -> u64| g.regions.iter().map(|r| f(&r.fleet)).sum::<u64>();
    for (name, regional, global) in [
        ("admitted", sum(|f| f.admitted), g.global.admitted),
        ("completed", sum(|f| f.completed), g.global.completed),
        ("slo_met", sum(|f| f.slo_met), g.global.slo_met),
    ] {
        ensure(regional == global, || {
            format!("regions sum {name} to {regional}, global says {global}")
        })?;
    }
    let wh: f64 = g.regions.iter().map(|r| r.fleet.energy_allocated_wh).sum();
    ensure(close(wh, g.global.energy_allocated_wh, 1e-9), || {
        format!(
            "regions sum energy to {wh} Wh, global says {}",
            g.global.energy_allocated_wh
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;
    use crate::workloads::{probe, Prepared, GEO_SCENARIO};
    use murakkab::scenario::ExecutionMode;
    use murakkab::{Scenario, Session};
    use murakkab_trace::{synthesize, SynthSpec};
    use murakkab_traffic::ArrivalProcess;

    fn rejects(check: Check, what: &str) {
        assert!(check.is_err(), "the check accepted a report with {what}");
    }

    fn admission(s: &Scenario) -> (AdmissionConfig, f64) {
        match &s.mode {
            ExecutionMode::OpenLoop(spec) => (spec.admission.clone(), spec.horizon_s),
            ExecutionMode::ClosedLoop => unreachable!("open-loop scenarios only"),
        }
    }

    /// A short overloaded capture: most arrivals shed at the front door.
    #[test]
    fn shed_checks_reject_corrupted_reports() {
        let scenario = Scenario::open_loop(
            "shed-test",
            ArrivalProcess::Poisson { rate_per_s: 1.0 },
            300.0,
        )
        .seed(3);
        let mut trace = RunTrace::capture(&scenario).unwrap();
        let report = trace.baseline.take().unwrap();
        let f = report.open_loop().unwrap();
        let records = &trace.requests;
        let (cfg, horizon_s) = admission(&scenario);
        assert!(f.rejections() > 0, "the test day must shed");
        admission_conserved(f).unwrap();
        token_bucket_bound(f, &cfg, horizon_s).unwrap();
        offered_matches_records(f, records).unwrap();
        records_agree(f, records).unwrap();
        class_samples(f, 1).unwrap();

        let mut g = f.clone();
        g.admitted += 1;
        rejects(admission_conserved(&g), "an admission count off by one");
        let mut g = f.clone();
        g.completed -= 1;
        rejects(admission_conserved(&g), "a lost completion");
        let mut g = f.clone();
        g.admitted = (cfg.rate_per_s * horizon_s + cfg.burst) as u64 + 1;
        rejects(
            token_bucket_bound(&g, &cfg, horizon_s),
            "more admissions than tokens",
        );
        rejects(
            offered_matches_records(f, &records[1..]),
            "a missing record",
        );
        let mut r = records.clone();
        let other = f.classes.iter().find(|c| c.class != r[0].class).unwrap();
        r[0].class = other.class.clone();
        rejects(
            offered_matches_records(f, &r),
            "a record in the wrong class",
        );
        let mut g = f.clone();
        g.slo_met += 1;
        rejects(records_agree(&g, records), "an SLO count off by one");
        let mut g = f.clone();
        let c = g.classes.iter_mut().find(|c| c.p95_s.is_some()).unwrap();
        c.p95_s = c.p95_s.map(|p| p * 1.05);
        rejects(records_agree(&g, records), "a p95 off by 5%");
        let mut g = f.clone();
        let c = g.classes.iter_mut().find(|c| c.p50_s.is_some()).unwrap();
        c.p50_s = c.p50_s.map(|p| p * 0.95);
        rejects(records_agree(&g, records), "a p50 off by 5%");
        rejects(class_samples(f, u64::MAX), "too few completions");
        arrivals_match_probe(f, records.len() as u64).unwrap();
        rejects(
            arrivals_match_probe(f, records.len() as u64 + 1),
            "an arrival lost",
        );
        let digest = report.digest();
        same_digest(None, digest).unwrap();
        same_digest(Some(digest), digest).unwrap();
        rejects(same_digest(Some(digest), digest ^ 1), "another digest");
    }

    /// A short synthesized day with admission off, round-tripped
    /// through JSON and replayed.
    #[test]
    fn replay_checks_reject_corrupted_reports() {
        let mut trace = synthesize(&SynthSpec {
            label: "replay-test".into(),
            seed: 5,
            requests: 60,
            horizon_s: 3_600.0,
            peak_factor: 4.0,
            period_s: 3_600.0,
        })
        .unwrap();
        if let ExecutionMode::OpenLoop(spec) = &mut trace.scenario.mode {
            spec.admission = AdmissionConfig::disabled();
        }
        let json = trace.to_json().unwrap();
        let decoded = RunTrace::from_json(&json).unwrap();
        trace_round_trip(&decoded, &json).unwrap();
        rejects(
            trace_round_trip(&decoded, &json.replacen('{', "{ ", 1)),
            "other bytes",
        );

        let prep = Prepared {
            session: Session::new(&decoded.scenario).unwrap(),
            scenario: decoded.scenario.clone(),
            trace_json: None,
        };
        let report = prep.session.execute(&decoded.scenario).unwrap();
        let f = report.open_loop().unwrap();
        let planned = probe(&prep, &mut Tracer::new(false)).unwrap();
        assert_eq!(planned.arrivals, f.offered);
        all_admitted_tasks(f, planned.tasks).unwrap();
        offered_matches_records(f, &decoded.requests).unwrap();
        count_within_5_sigma("test", f.offered, 60.0).unwrap();

        rejects(all_admitted_tasks(f, planned.tasks + 1), "a lost task");
        let mut g = f.clone();
        g.admitted -= 1;
        rejects(all_admitted_tasks(&g, planned.tasks), "a shed arrival");
        rejects(
            count_within_5_sigma("test", f.offered, 600.0),
            "a tenth of the target",
        );
    }

    #[test]
    fn geo_checks_reject_corrupted_reports() {
        let scenario = Scenario::from_json(GEO_SCENARIO).unwrap();
        let wan = scenario.geo.as_ref().unwrap().wan.clone();
        let report = scenario.run().unwrap();
        let g = report.geo().unwrap();
        assert!(
            g.cross_region_requests > 0,
            "the test run must cross regions"
        );
        geo_routing_conserved(g).unwrap();
        geo_escapes_balance(g).unwrap();
        geo_wan_egress(g, &wan).unwrap();
        geo_ledgers_roll_up(g).unwrap();

        let mut h = g.clone();
        h.regions[0].origin_requests += 1;
        rejects(geo_routing_conserved(&h), "an extra origin");
        let mut h = g.clone();
        h.regions[1].served_requests -= 1;
        rejects(geo_routing_conserved(&h), "a lost serve");
        let mut h = g.clone();
        h.regions[2].escaped_in += 1;
        rejects(geo_escapes_balance(&h), "an unmatched inbound escape");
        let mut h = g.clone();
        h.cross_region_requests += 1;
        rejects(geo_escapes_balance(&h), "a cross-region count off by one");
        let mut h = g.clone();
        h.wan_egress_gb *= 1.001;
        rejects(geo_wan_egress(&h, &wan), "egress off by 0.1%");
        for field in 0..4 {
            let mut h = g.clone();
            let f = &mut h.regions[0].fleet;
            match field {
                0 => f.admitted += 1,
                1 => f.completed += 1,
                2 => f.slo_met += 1,
                _ => f.energy_allocated_wh *= 1.001,
            }
            rejects(geo_ledgers_roll_up(&h), "a region ledger that does not sum");
        }
    }
}
