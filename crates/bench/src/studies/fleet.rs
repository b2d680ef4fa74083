//! The fleet-wide studies over every target's plane: scaling with the
//! device count, live reconfiguration under workload drift, and gray
//! failures under online health detection.

use super::{Legs, Load, SEED};
use hadas::ExecTelemetry;
use hadas_fleet::{
    DetectionConfig, DevicePlane, FleetConfig, FleetEngine, FleetReport, ReconfigConfig,
};
use hadas_runtime::{FaultConfig, GrayFaultConfig, GrayFaultKind, Scenario};
use serde::Serialize;
use std::error::Error;

#[derive(Debug, Serialize)]
pub(super) struct FleetRow {
    devices: usize,
    device_mix: String,
    users: usize,
    rps: f64,
    offered: usize,
    routed: usize,
    fleet_rejected: usize,
    served: usize,
    shed: usize,
    rejected: usize,
    dead_lettered: usize,
    throughput_rps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    slo_violation_rate: f64,
    energy_j: f64,
    sag_energy_j: f64,
    unhealthy_devices: usize,
    /// Fleet-supervisor resilience counters — the same schema the
    /// search and serve bench rows embed.
    executor: ExecTelemetry,
}

impl FleetRow {
    fn new(r: &FleetReport, exec: ExecTelemetry) -> Self {
        FleetRow {
            devices: r.devices,
            device_mix: r.device_mix.clone(),
            users: r.users,
            rps: r.rps,
            offered: r.offered,
            routed: r.routed,
            fleet_rejected: r.fleet_rejected,
            served: r.served,
            shed: r.shed,
            rejected: r.rejected,
            dead_lettered: r.dead_lettered,
            throughput_rps: r.throughput_rps,
            p50_ms: r.latency.p50_ms,
            p95_ms: r.latency.p95_ms,
            p99_ms: r.latency.p99_ms,
            slo_violation_rate: r.slo.violation_rate,
            energy_j: r.energy_j,
            sag_energy_j: r.sag_energy_j,
            unhealthy_devices: r.unhealthy_devices,
            executor: exec,
        }
    }
}

/// Fleet scaling: one arrival stream of `users` at `rps` served by mixed
/// fleets of 32, 64 and 128 devices, asserting balanced accounting and
/// modeled throughput monotone in the device count; then, on the
/// smallest fleet, byte identity across fleet worker counts and healed
/// unit chaos.
pub(super) fn fleet(
    planes: &[DevicePlane],
    users: usize,
    rps: f64,
) -> Result<Vec<FleetRow>, Box<dyn Error>> {
    println!(
        "FLEET — mixed-fleet scaling, {users} users at {rps:.0} rps \
         ({} searched plane(s), seed {SEED})",
        planes.len()
    );
    println!(" devices    routed    served      shed   thr(rps)  p50(ms)  p99(ms)   SLO(%)");
    println!("{}", "-".repeat(76));

    let mut rows = Vec::new();
    for devices in [32usize, 64, 128] {
        let run = FleetEngine::new(planes, Load { users, rps, devices }.fleet(8)?)?.run()?;
        let r = &run.report;
        assert!(r.accounting_balances(), "fleet accounting must balance at {devices} devices");
        assert_eq!(r.dead_lettered, 0, "clean runs must not dead-letter");
        println!(
            "{:>8} {:>9} {:>9} {:>9} {:>10.1} {:>8.1} {:>8.1} {:>8.2}",
            r.devices,
            r.routed,
            r.served,
            r.shed,
            r.throughput_rps,
            r.latency.p50_ms,
            r.latency.p99_ms,
            r.slo.violation_rate * 100.0
        );
        rows.push(FleetRow::new(r, run.telemetry));
    }
    for pair in rows.windows(2) {
        assert!(
            pair[1].throughput_rps >= pair[0].throughput_rps,
            "modeled throughput must be monotone in the device count \
             ({} devices: {} vs {} devices: {})",
            pair[1].devices,
            pair[1].throughput_rps,
            pair[0].devices,
            pair[0].throughput_rps
        );
    }
    assert!(
        rows[rows.len() - 1].throughput_rps > rows[0].throughput_rps,
        "quadrupling the fleet must strictly raise modeled throughput"
    );
    println!();
    println!("modeled throughput grows monotonically 32 -> 128 devices");

    // Determinism legs at bench scale, on the smallest fleet.
    let legs = Legs::new(planes, Load { users, rps, devices: 32 }.fleet(1)?)?;
    legs.identical_at(&[2, 4, 8], "fleet report")?;
    println!("report byte-identical across fleet worker counts 1/2/4/8");
    let chaos = legs.healed_chaos("unit", "healed unit chaos must be invisible in the report")?;
    println!(
        "unit chaos healed invisibly: {} crashes, {} retries, {} re-dispatches, 0 dead letters",
        chaos.crashes, chaos.retries, chaos.redispatches
    );
    Ok(rows)
}

const DRIFT_SCENARIOS: [&str; 5] =
    ["diurnal", "thermal-season", "battery-decay", "demand-shift", "composite"];

#[derive(Debug, Serialize)]
pub(super) struct ReconfigRow {
    scenario: String,
    reconfigured: bool,
    offered: usize,
    served: usize,
    interactive_served: usize,
    interactive_violations: usize,
    slo_violations: usize,
    energy_j: f64,
    p99_ms: f64,
    swaps: usize,
    swap_rollbacks: usize,
    dropped_by_swap: usize,
    escalations: usize,
    deescalations: usize,
}

impl ReconfigRow {
    fn new(r: &FleetReport) -> Self {
        ReconfigRow {
            scenario: r.scenario.clone(),
            reconfigured: r.reconfig.enabled,
            offered: r.offered,
            served: r.served,
            interactive_served: r.slo.interactive_served,
            interactive_violations: r.slo.interactive_violations,
            slo_violations: r.slo.violations,
            energy_j: r.energy_j,
            p99_ms: r.latency.p99_ms,
            swaps: r.reconfig.swaps,
            swap_rollbacks: r.reconfig.swap_rollbacks,
            dropped_by_swap: r.reconfig.dropped_by_swap,
            escalations: r.reconfig.escalations,
            deescalations: r.reconfig.deescalations,
        }
    }
}

/// Live reconfiguration: each drift scenario served by the pinned-mode
/// fleet and by the reconfiguration controller sliding per-device
/// operating windows along the searched fronts through zero-drop
/// snapshot swaps. Asserts that reconfiguration wins (fewer interactive
/// SLO misses, or equal misses at lower energy) in at least two
/// scenarios and that `dropped_by_swap == 0` everywhere; then, on the
/// composite scenario, byte identity across fleet worker counts, healed
/// mid-swap chaos and clean swap-failure rollbacks.
pub(super) fn reconfig(
    planes: &[DevicePlane],
    load: Load,
) -> Result<Vec<ReconfigRow>, Box<dyn Error>> {
    let Load { users, rps, devices } = load;
    let duration_s = users as f64 / rps;
    println!(
        "RECONFIG — pinned vs live reconfiguration under workload drift, \
         {users} users at {rps:.0} rps on {devices} devices (seed {SEED})"
    );

    // Size the per-device battery from the calm pinned fleet so the
    // battery-decay scenario exerts real state-of-charge pressure:
    // deterministic (the calm run is), not hand-tuned per tier.
    let calm = FleetEngine::new(planes, load.fleet(8)?)?.run()?;
    let battery_j = 0.6 * calm.report.energy_j / devices as f64;
    println!(
        "calm pinned baseline: {} served, {} interactive SLO misses, {:.1} J \
         (battery sized at {battery_j:.2} J/device)",
        calm.report.served, calm.report.slo.interactive_violations, calm.report.energy_j
    );
    let reconfig = ReconfigConfig { battery_j, ..ReconfigConfig::default() };
    let drifting = |scenario: Scenario, workers: usize, live: bool| {
        Ok::<FleetConfig, Box<dyn Error>>(FleetConfig {
            scenario: Some(scenario),
            reconfigure: live,
            reconfig: if live { reconfig.clone() } else { ReconfigConfig::default() },
            ..load.fleet(workers)?
        })
    };

    println!("        scenario     mode    served  int-viol      viol  energy(J)  swaps  p99(ms)");
    println!("{}", "-".repeat(84));

    let mut rows = Vec::new();
    let mut wins = Vec::new();
    for name in DRIFT_SCENARIOS {
        let scenario = Scenario::from_name(name, SEED, duration_s)?;
        let pinned = FleetEngine::new(planes, drifting(scenario.clone(), 8, false)?)?.run()?;
        let live = FleetEngine::new(planes, drifting(scenario, 8, true)?)?.run()?;
        for (label, r) in [("pinned", &pinned.report), ("reconfig", &live.report)] {
            assert!(r.accounting_balances(), "{name}/{label} accounting must balance");
            assert_eq!(r.dead_lettered, 0, "{name}/{label} must not dead-letter cleanly");
            println!(
                "{:>16} {:>8} {:>9} {:>9} {:>9} {:>10.1} {:>6} {:>8.1}",
                name,
                label,
                r.served,
                r.slo.interactive_violations,
                r.slo.violations,
                r.energy_j,
                r.reconfig.swaps,
                r.latency.p99_ms
            );
            rows.push(ReconfigRow::new(r));
        }
        assert_eq!(
            live.report.reconfig.dropped_by_swap, 0,
            "{name}: the zero-drop swap invariant must hold at bench scale"
        );
        let (p, l) = (&pinned.report.slo, &live.report.slo);
        let fewer_misses = l.interactive_violations < p.interactive_violations;
        let same_misses_less_energy = l.interactive_violations == p.interactive_violations
            && live.report.energy_j < pinned.report.energy_j;
        if fewer_misses || same_misses_less_energy {
            wins.push(name);
        }
    }
    println!();
    println!(
        "reconfiguration beats the pinned fleet in {}/{} drift scenarios: {:?}",
        wins.len(),
        DRIFT_SCENARIOS.len(),
        wins
    );
    assert!(
        wins.len() >= 2,
        "reconfiguration must win (fewer interactive SLO misses, or equal misses \
         at lower energy) in at least 2 drift scenarios, got {wins:?}"
    );

    // Determinism legs at bench scale, on the composite scenario.
    let composite = drifting(Scenario::from_name("composite", SEED, duration_s)?, 1, true)?;
    let legs = Legs::new(planes, composite.clone())?;
    legs.identical_at(&[2, 8], "reconfigured report")?;
    println!("reconfigured report byte-identical across fleet worker counts 1/2/8");
    let chaos = legs.healed_chaos(
        "epoch",
        "mid-swap unit chaos must heal invisibly in the reconfigured report",
    )?;
    println!(
        "mid-swap chaos healed invisibly: {} crashes, {} retries, {} re-dispatches",
        chaos.crashes, chaos.retries, chaos.redispatches
    );

    let rollback_cfg = FleetConfig {
        faults: Some(FaultConfig { seed: 9, swap_fail_rate: 0.5, ..FaultConfig::default() }),
        workers: 4,
        ..composite
    };
    let rolled = FleetEngine::new(planes, rollback_cfg)?.run()?;
    assert!(
        rolled.report.reconfig.swap_rollbacks > 0,
        "a 0.5 swap-failure rate must roll some swap back"
    );
    assert_eq!(rolled.report.reconfig.dropped_by_swap, 0, "rollbacks drop nothing");
    assert!(rolled.report.accounting_balances(), "rollbacks stay conserved");
    println!(
        "swap failures rolled back cleanly: {} rollback(s), 0 dropped, accounting balanced",
        rolled.report.reconfig.swap_rollbacks
    );
    Ok(rows)
}

#[derive(Debug, Serialize)]
pub(super) struct GrayRow {
    kind: String,
    detection: bool,
    offered: usize,
    served: usize,
    slo_violations: usize,
    /// Requests that failed their SLO end to end: never served (shed,
    /// rejected, lost) or served past deadline. The blind fleet's gray
    /// devices shed much of their load, so raw served-late counts would
    /// reward it for serving less; this charges every unserved request.
    slo_failed: usize,
    interactive_violations: usize,
    energy_j: f64,
    p99_ms: f64,
    telemetry_defects: usize,
    dropped_windows: usize,
    quarantined_devices: usize,
    transitions: usize,
    dirty_epochs: usize,
    probe_assignments: usize,
    redispatched: usize,
    redispatch_dropped: usize,
}

impl GrayRow {
    fn new(kind: &str, r: &FleetReport) -> Self {
        GrayRow {
            kind: kind.to_string(),
            detection: r.detection.enabled,
            offered: r.offered,
            served: r.served,
            slo_violations: r.slo.violations,
            slo_failed: slo_failed(r),
            interactive_violations: r.slo.interactive_violations,
            energy_j: r.energy_j,
            p99_ms: r.latency.p99_ms,
            telemetry_defects: r.health.iter().map(|h| h.telemetry_defects).sum(),
            dropped_windows: r.health.iter().map(|h| h.dropped_windows).sum(),
            quarantined_devices: r.detection.quarantined_devices,
            transitions: r.detection.transitions.len(),
            dirty_epochs: r.detection.dirty_epochs,
            probe_assignments: r.detection.probe_assignments,
            redispatched: r.detection.redispatched,
            redispatch_dropped: r.detection.redispatch_dropped,
        }
    }
}

/// Requests that failed their SLO end to end: never served at all or
/// served past deadline.
fn slo_failed(r: &FleetReport) -> usize {
    r.offered - (r.served - r.slo.violations)
}

/// Gray-failure resilience: each gray-fault kind served by a blind fleet
/// (faults injected, detector off) and by one whose online health
/// detector quarantines lying devices. Asserts balanced accounting, that
/// only the detecting fleet quarantines, that every quarantine drain
/// re-dispatches (`redispatch_dropped == 0`) and that detection strictly
/// cuts SLO-failed requests; then byte identity of the detecting report
/// across fleet worker counts under the mixed signature.
pub(super) fn gray(planes: &[DevicePlane], load: Load) -> Result<Vec<GrayRow>, Box<dyn Error>> {
    let Load { users, rps, devices } = load;
    println!(
        "GRAY — blind vs detecting fleet under gray telemetry faults, \
         {users} users at {rps:.0} rps on {devices} devices (seed {SEED})"
    );
    let gray_config = |kind: GrayFaultKind, detect: bool, workers: usize| {
        Ok::<FleetConfig, Box<dyn Error>>(FleetConfig {
            gray: Some(GrayFaultConfig::new(kind, SEED)),
            detection: if detect { DetectionConfig::enabled() } else { DetectionConfig::default() },
            ..load.fleet(workers)?
        })
    };

    println!(
        "    kind   mode    served      viol    failed  int-viol  p99(ms)   quar  redisp  probes"
    );
    println!("{}", "-".repeat(88));

    let mut rows = Vec::new();
    for kind in GrayFaultKind::CONCRETE {
        let blind = FleetEngine::new(planes, gray_config(kind, false, 8)?)?.run()?;
        let seen = FleetEngine::new(planes, gray_config(kind, true, 8)?)?.run()?;
        for (label, r) in [("blind", &blind.report), ("detect", &seen.report)] {
            assert!(r.accounting_balances(), "{}/{label} accounting must balance", kind.name());
            assert_eq!(
                r.dead_lettered,
                0,
                "{}/{label} gray devices degrade, not crash",
                kind.name()
            );
            println!(
                "{:>8} {:>6} {:>9} {:>9} {:>9} {:>9} {:>8.1} {:>6} {:>7} {:>7}",
                kind.name(),
                label,
                r.served,
                r.slo.violations,
                slo_failed(r),
                r.slo.interactive_violations,
                r.latency.p99_ms,
                r.detection.quarantined_devices,
                r.detection.redispatched,
                r.detection.probe_assignments
            );
            rows.push(GrayRow::new(kind.name(), r));
        }
        assert_eq!(
            blind.report.detection.quarantined_devices,
            0,
            "{}: the blind fleet must not quarantine",
            kind.name()
        );
        assert!(
            seen.report.detection.quarantined_devices >= 1,
            "{}: the detector must quarantine at least one gray device",
            kind.name()
        );
        assert_eq!(
            seen.report.detection.redispatch_dropped,
            0,
            "{}: every quarantine drain must re-dispatch (zero-drop invariant)",
            kind.name()
        );
        assert!(
            slo_failed(&seen.report) < slo_failed(&blind.report),
            "{}: detection must strictly cut SLO-failed requests ({} detecting vs {} blind)",
            kind.name(),
            slo_failed(&seen.report),
            slo_failed(&blind.report)
        );
    }
    println!();
    println!(
        "detection strictly cut SLO-failed requests for all {} gray kinds",
        GrayFaultKind::CONCRETE.len()
    );

    // Determinism leg: the detecting report is byte-identical across
    // fleet worker counts under the mixed gray signature.
    let legs = Legs::new(planes, gray_config(GrayFaultKind::Mix, true, 1)?)?;
    assert_eq!(legs.base.detection.redispatch_dropped, 0, "mix: zero-drop invariant");
    legs.identical_at(&[2, 8], "gray detecting report")?;
    println!("gray detecting report byte-identical across fleet worker counts 1/2/8");
    Ok(rows)
}
