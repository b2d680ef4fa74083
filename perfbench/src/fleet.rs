//! The `fleet-steady` and `fleet-drift` workloads: a `mixed:32` fleet
//! serving about a million users near capacity on two worker lanes. Steady
//! runs the pinned-mode path; drift adds the composite scenario, live
//! reconfiguration, gray faults and online detection, which drives the
//! same router and serve layers through the epoch path. The searches that
//! build the device planes run only in set-up.

use crate::catalogue::Workload;
use crate::probe::{another_round, fastest_timed, median, timed, Record};
use hadas::executor::{modeled_makespan_ms, JobSpec};
use hadas::{EngineBudget, Hadas, HadasConfig, HadasError};
use hadas_fleet::{
    build_planes, parse_device_spec, DetectionConfig, DevicePlane, FleetConfig, FleetEngine,
    FleetReport,
};
use hadas_runtime::{GrayFaultConfig, GrayFaultKind, Scenario};
use hadas_serve::{
    generate_requests, BrownoutConfig, EngineSnapshot, Request, ServeConfig, ServeEngine,
};
use std::time::Instant;

const DEVICES: &str = "mixed:32";
const USERS: usize = 1_000_000;
/// Offered load, near capacity: at seed 1 the pinned path fleet-rejects
/// 5.5 % of the offered requests, sheds 5.9 % and brownout-rejects 1.9 %
/// (fleet-drift: 4.4 %, 4.6 % and 17 %).
const RPS: f64 = 1200.0;
/// Worker lanes of the timed run (the host has two cores).
const WORKERS: usize = 2;
/// Set-up repetitions; `setup_s` is the fastest.
const SETUP_REPS: usize = 3;
/// Snapshot round trips timed in the traced drift run.
const SNAPSHOT_REPS: usize = 200;

/// The plane searches at the CLI's `--scale quick` budgets and the
/// paper's default seed. The deployed planes are the system under test and
/// stay the same in every run; the run seed drives what the fleet serves:
/// the request stream.
fn plane_search() -> HadasConfig {
    let mut cfg = HadasConfig::paper();
    cfg.ooe = EngineBudget::new(12, 60);
    cfg.ioe = EngineBudget::new(16, 96);
    cfg
}

/// Seed of fleet-drift's composite scenario and gray-fault assignment.
/// Both are fixed, so every run faces the same drift; the scenario's rate
/// amplitude and thermal floor, and which devices go gray, change the
/// amount of work by a third from one seed to the next.
const DRIFT_SEED: u64 = 5;

/// The fleet configuration under the run seed, which seeds the request
/// stream. Drift adds `--scenario composite --reconfigure on --gray-faults
/// <DRIFT_SEED> --detection on`, with the scenario also seeded by
/// `DRIFT_SEED`.
fn fleet_config(drift: bool, seed: u64, workers: usize) -> Result<FleetConfig, HadasError> {
    let mut cfg = FleetConfig {
        devices: parse_device_spec(DEVICES)?,
        users: USERS,
        rps: RPS,
        workers,
        seed,
        ..FleetConfig::default()
    };
    if drift {
        cfg.scenario = Some(Scenario::from_name("composite", DRIFT_SEED, cfg.duration_s())?);
        cfg.reconfigure = true;
        cfg.gray = Some(GrayFaultConfig::new(GrayFaultKind::Mix, DRIFT_SEED));
        cfg.detection = DetectionConfig::enabled();
    }
    Ok(cfg)
}

/// The fleet-wide generator settings `FleetEngine` uses.
fn gen_config(cfg: &FleetConfig) -> ServeConfig {
    ServeConfig {
        seed: cfg.seed,
        duration_s: cfg.duration_s(),
        rps: cfg.rps,
        slo_ms: cfg.slo_ms,
        bulk_slo_factor: cfg.bulk_slo_factor,
        bulk_fraction: cfg.bulk_fraction,
        scenario: cfg.scenario.clone(),
        ..ServeConfig::default()
    }
}

/// Device 0's unit configuration (substrate and gray faults left out).
fn unit_config(cfg: &FleetConfig) -> ServeConfig {
    ServeConfig {
        workers: 1,
        batch_max: cfg.batch_max,
        governor: cfg.governor_of(0),
        hedge_factor: cfg.hedge_factor,
        retry: cfg.retry,
        breaker_threshold: cfg.breaker_threshold,
        breaker_cooldown: cfg.breaker_cooldown,
        brownout: Some(BrownoutConfig::default()),
        ..gen_config(cfg)
    }
}

/// Checks the report's contracts; returns the fingerprint its serialised
/// form carries.
fn check_report(rec: &mut Record, report: &FleetReport) -> Result<u64, HadasError> {
    rec.check(report.accounting_balances(), || {
        "served + shed + rejected + dead_lettered + fleet_rejected != offered".into()
    });
    rec.check(report.reconfig.dropped_by_swap == 0, || {
        format!("{} requests dropped by swaps", report.reconfig.dropped_by_swap)
    });
    rec.check(report.detection.redispatch_dropped == 0, || {
        format!("{} re-dispatched requests dropped", report.detection.redispatch_dropped)
    });
    let json = report
        .to_json()
        .map_err(|e| HadasError::Internal(format!("report serialisation failed: {e}")))?;
    Ok(FleetReport::from_json(&json)?.fingerprint)
}

/// Runs the workload; returns the record to print.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Record, HadasError> {
    let drift = workload == Workload::FleetDrift;
    let mut rec = Record::new(workload);
    let cfg = fleet_config(drift, seed, WORKERS)?;
    let set_up = || {
        fastest_timed(SETUP_REPS, || -> Result<_, HadasError> {
            let planes = build_planes(&cfg.devices, &plane_search())?;
            FleetEngine::new(&planes, cfg.clone())?;
            Ok(planes)
        })
    };
    let (planes, setup_before) = set_up();
    let planes = planes?;
    let engine = FleetEngine::new(&planes, cfg.clone())?;
    if traced {
        trace(&mut rec, &planes, &engine, drift)?;
        return Ok(rec);
    }

    let started = Instant::now();
    let mut walls = Vec::new();
    let mut first = None;
    let mut last = None;
    while another_round(started, &walls, 3, seconds) {
        let (run, wall) = timed(|| engine.run());
        let run = run?;
        walls.push(wall);
        rec.attempted += run.report.offered as u64;
        rec.failed += run.report.dead_lettered as u64;
        let fp = check_report(&mut rec, &run.report)?;
        let expected = *first.get_or_insert(fp);
        rec.check(fp == expected, || {
            format!("report fingerprint {fp:016x} differs from the first run's {expected:016x}")
        });
        last = Some(run);
    }
    crate::probe::log_walls(&walls);
    // Set-up is timed again after the timed calls, so that a slow moment
    // of the host at the start does not decide it.
    let (again, setup_after) = set_up();
    again?;
    rec.set("setup_s", setup_before.min(setup_after));
    rec.digest = first;
    let report = last.expect("at least one fleet run").report;
    // A fleet run keeps both cores busy for about a second, and a host
    // seldom leaves both undisturbed that long, so the fastest run is an
    // outlier; over ten seeds the median run varied half as much.
    let per_s = report.offered as f64 / median(&walls);
    rec.set("throughput_per_s", per_s);
    rec.set("sim_req_per_s", per_s);
    set_modeled(&mut rec, &report);
    rec.set("peak_rss_mb", crate::probe::peak_rss_mb());
    Ok(rec)
}

fn set_modeled(rec: &mut Record, r: &FleetReport) {
    rec.set("modeled_energy_mj_per_served", r.energy_j * 1e3 / r.served.max(1) as f64);
    let missed = r.slo.violations + r.shed + r.rejected + r.fleet_rejected + r.dead_lettered;
    rec.set("modeled_slo_miss_rate", missed as f64 / r.offered.max(1) as f64);
    rec.set("modeled_p99_ms", r.latency.p99_ms);
}

/// The traced run: workers-2, repeat and workers-1 runs, then replays of
/// generation, report serialisation, one unit's serve engine and (drift)
/// the snapshot round trip.
fn trace(
    rec: &mut Record,
    planes: &[DevicePlane],
    engine: &FleetEngine<'_>,
    drift: bool,
) -> Result<(), HadasError> {
    let cfg = engine.config();
    // A warm-up run first, so that no measured run pays the first touch
    // of the stream's memory.
    let warm = engine.run()?.report;
    let (run, wall_u) = timed(|| engine.run());
    let report = run?.report;
    let (again, wall_t) = timed(|| engine.run());
    let again = again?.report;
    rec.set("peak_rss_mb", crate::probe::peak_rss_mb());
    let serial_cfg = FleetConfig { workers: 1, ..cfg.clone() };
    let serial = FleetEngine::new(planes, serial_cfg)?;
    let (single, wall_1) = timed(|| serial.run());
    let single = single?.report;

    for r in [&warm, &report, &again, &single] {
        rec.attempted += r.offered as u64;
        rec.failed += r.dead_lettered as u64;
    }
    let fp = check_report(rec, &report)?;
    rec.digest = Some(fp);
    let fp_again = check_report(rec, &again)?;
    rec.check(fp_again == fp, || "back-to-back reports differ".into());
    let fp_single = check_report(rec, &single)?;
    rec.check(fp_single == fp, || "the report differs between workers 1 and workers 2".into());

    rec.set("sim_req_per_s", report.offered as f64 / wall_u);
    set_modeled(rec, &report);
    rec.set("wall.trace_overhead_s", wall_t - wall_u);
    rec.set("executor.speedup_w2", wall_1 / wall_u);
    // Unit jobs as the pinned path specifies them: one per device,
    // routed requests x the plane's mode-0 service estimate.
    let specs: Vec<JobSpec> = report
        .per_device
        .iter()
        .zip(&cfg.devices)
        .map(|(d, target)| {
            let plane = planes.iter().find(|p| p.target() == *target).expect("a plane per target");
            JobSpec {
                key: d.device as u64,
                est_ms: plane.modes()[0].serve(0.5).cost.latency_s * 1e3 * d.assigned as f64,
                weight: d.assigned,
            }
        })
        .collect();
    rec.set(
        "executor.modeled_speedup_w2",
        modeled_makespan_ms(&specs, 1, None) / modeled_makespan_ms(&specs, 2, None),
    );

    let (requests, gen_s) = timed(|| generate_requests(&gen_config(cfg), None));
    rec.check(requests.len() == report.offered, || {
        format!(
            "replayed generation made {} requests, the run offered {}",
            requests.len(),
            report.offered
        )
    });
    let (json, json_s) = timed(|| report.to_json());
    json.map_err(|e| HadasError::Internal(format!("report serialisation failed: {e}")))?;
    rec.set("serve.request.gen_s", gen_s);
    rec.set("fleet.report.to_json_ms", json_s * 1e3);
    rec.set("fleet.route_units_s", wall_u - gen_s);

    // One unit's serve engine on a round-robin 1/n share of the stream.
    let n = cfg.devices.len();
    let share: Vec<Request> = requests.iter().step_by(n).copied().collect();
    let hadas = Hadas::for_target(cfg.devices[0]);
    let plane = planes.iter().find(|p| p.target() == cfg.devices[0]).expect("a plane per target");
    let unit = ServeEngine::new(&hadas, plane.modes().to_vec(), unit_config(cfg))?;
    let (trace, unit_s) = timed(|| unit.run_requests(share.clone()));
    std::hint::black_box(trace?);
    let us_per_req = unit_s * 1e6 / share.len().max(1) as f64;
    rec.set("serve.engine.us_per_req", us_per_req);
    rec.set(
        "wall.unattributed_s",
        wall_1 - gen_s - us_per_req * 1e-6 * report.router.routed() as f64,
    );

    rec.count("fleet.router.routed", report.routed);
    rec.count("fleet.router.fleet_rejected", report.fleet_rejected);
    rec.count("fleet.router.best_effort", report.router.slo_infeasible_routed);
    rec.count("serve.shed", report.shed);
    rec.count("serve.rejected", report.rejected);
    if drift {
        rec.count("fleet.reconfig.epochs", report.reconfig.epochs);
        rec.count("fleet.reconfig.swaps", report.reconfig.swaps);
        rec.count("fleet.reconfig.rollbacks", report.reconfig.swap_rollbacks);
        rec.count("fleet.health.transitions", report.detection.transitions.len());
        rec.count("fleet.health.probe_dispatches", report.detection.probe_assignments);
        rec.count("fleet.health.redispatched", report.detection.redispatched);
        snapshot_roundtrip(rec, &unit, &share)?;
    }
    Ok(())
}

/// Times `EngineSnapshot::capture -> into_state` (which validates), the
/// swap path's round trip, on the state a unit holds halfway through its
/// share, and checks the round trip is lossless.
fn snapshot_roundtrip(
    rec: &mut Record,
    unit: &ServeEngine<'_>,
    share: &[Request],
) -> Result<(), HadasError> {
    let mut session = unit.session()?;
    session.serve_segment(&share[..share.len() / 2], false)?;
    let state = session.state();
    let copies: Vec<_> = (0..SNAPSHOT_REPS).map(|_| state.clone()).collect();
    let (restored, s) = timed(|| {
        copies
            .into_iter()
            .map(|c| EngineSnapshot::capture(c).and_then(EngineSnapshot::into_state))
            .collect::<Result<Vec<_>, _>>()
    });
    let restored = restored?;
    rec.check(restored.iter().all(|r| *r == state), || {
        "a snapshot round trip changed the session state".into()
    });
    rec.set("serve.snapshot.roundtrip_us", s * 1e6 / SNAPSHOT_REPS as f64);
    Ok(())
}
