//! The single-device studies on the TX2 Pascal GPU: the serving engine
//! over the searched mode ladder, and the joint search itself through
//! the supervised executor.

use super::SEED;
use hadas::{
    ExecTelemetry, Hadas, HadasConfig, JointModel, OoeOutcome, RetryPolicy, SearchOptions,
};
use hadas_fleet::DevicePlane;
use hadas_hw::HwTarget;
use hadas_runtime::{FaultConfig, FaultInjector};
use hadas_serve::{BrownoutConfig, GovernorKind, ServeConfig, ServeEngine, ServeReport};
use serde::Serialize;
use std::error::Error;
use std::sync::Arc;

#[derive(Debug, Serialize)]
pub(super) struct ServeRow {
    governor: String,
    workers: usize,
    rps: f64,
    offered: usize,
    served: usize,
    shed: usize,
    rejected: usize,
    dead_lettered: usize,
    throughput_rps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    slo_violation_rate: f64,
    interactive_violation_rate: f64,
    energy_j: f64,
    mode_switches: usize,
    mode_occupancy: Vec<f64>,
    brownout_enabled: bool,
    brownout_worst_tier: usize,
    brownout_escalations: usize,
    brownout_tier_windows: Vec<usize>,
    /// Execution-plane resilience counters (lane respawns included) —
    /// the same schema `BENCH_search.json` rows embed, so the serve and
    /// search planes share one telemetry vocabulary.
    executor: ExecTelemetry,
}

impl ServeRow {
    fn from_report(governor: GovernorKind, rps: f64, r: &ServeReport, exec: ExecTelemetry) -> Self {
        ServeRow {
            governor: governor.name().to_string(),
            workers: r.workers,
            rps,
            offered: r.offered,
            served: r.served,
            shed: r.shed,
            rejected: r.rejected,
            dead_lettered: r.dead_lettered,
            throughput_rps: r.throughput_rps,
            p50_ms: r.latency.p50_ms,
            p95_ms: r.latency.p95_ms,
            p99_ms: r.latency.p99_ms,
            slo_violation_rate: r.slo.violation_rate,
            interactive_violation_rate: r.slo.interactive_violations as f64
                / r.slo.interactive_served.max(1) as f64,
            energy_j: r.energy_j,
            mode_switches: r.mode_switches,
            mode_occupancy: r.mode_occupancy.clone(),
            brownout_enabled: r.brownout.enabled,
            brownout_worst_tier: r.brownout.worst_tier,
            brownout_escalations: r.brownout.escalations,
            brownout_tier_windows: r.brownout.tier_windows.clone(),
            executor: exec,
        }
    }
}

/// Serving-engine scaling: the TX2 plane's mode ladder replayed for
/// every governor × worker-pool combination, asserting that throughput
/// grows with the pool under every governor; then an overload pair
/// (brownout ladder off/on at 3× load) asserting that the ladder lowers
/// the interactive violation rate.
pub(super) fn serve(planes: &[DevicePlane]) -> Result<Vec<ServeRow>, Box<dyn Error>> {
    let plane = planes
        .iter()
        .find(|p| p.target() == HwTarget::Tx2PascalGpu)
        .ok_or("the studies' planes hold no TX2 Pascal GPU plane")?;
    let hadas = Hadas::for_target(plane.target());
    let replay = |config: ServeConfig| -> Result<(ServeReport, ExecTelemetry), Box<dyn Error>> {
        Ok(ServeEngine::new(&hadas, plane.modes().to_vec(), config)?.run_instrumented()?)
    };
    let study = ServeConfig { seed: SEED, duration_s: 10.0, rps: 200.0, ..ServeConfig::default() };
    println!("SERVE — governor x worker-pool scaling on {}", plane.target().name());
    println!(
        "governor   workers   offered    served  thr(rps)  p50(ms)  p99(ms)   SLO(%)       sw"
    );
    println!("{}", "-".repeat(84));
    let mut rows = Vec::new();
    for governor in [GovernorKind::Static, GovernorKind::Latency, GovernorKind::Queue] {
        for workers in [1usize, 2, 4] {
            let (r, exec) = replay(ServeConfig { workers, governor, ..study.clone() })?;
            println!(
                "{:<10} {:>7} {:>9} {:>9} {:>9.1} {:>8.1} {:>8.1} {:>8.2} {:>8}",
                governor.name(),
                workers,
                r.offered,
                r.served,
                r.throughput_rps,
                r.latency.p50_ms,
                r.latency.p99_ms,
                r.slo.violation_rate * 100.0,
                r.mode_switches
            );
            rows.push(ServeRow::from_report(governor, study.rps, &r, exec));
        }
    }
    for governor in [GovernorKind::Static, GovernorKind::Latency, GovernorKind::Queue] {
        let mut last = 0.0;
        for row in rows.iter().filter(|r| r.governor == governor.name()) {
            assert!(
                row.throughput_rps > last,
                "throughput must scale with the pool under {} ({} workers: {} vs {})",
                row.governor,
                row.workers,
                row.throughput_rps,
                last
            );
            last = row.throughput_rps;
        }
    }
    println!();
    println!("throughput grows monotonically 1 -> 4 workers under every governor");

    // Overload pair: 3x the study load with and without the brownout
    // ladder, same queue governor and pool. Tracks the degradation
    // story in the same JSON the scaling rows land in.
    println!();
    println!("OVERLOAD — brownout ladder off/on at 600 rps, queue governor, 2 workers");
    let mut overload_rows = Vec::new();
    for brownout in [false, true] {
        let (r, exec) = replay(ServeConfig {
            rps: 600.0,
            workers: 2,
            governor: GovernorKind::Queue,
            brownout: brownout.then(BrownoutConfig::default),
            ..study.clone()
        })?;
        let row = ServeRow::from_report(GovernorKind::Queue, 600.0, &r, exec);
        println!(
            "  brownout {:<3}: p99 {:>7.1} ms | interactive SLO viol {:>5.2}% | \
             shed {} rejected {} | worst tier {} ({} escalations)",
            if brownout { "on" } else { "off" },
            row.p99_ms,
            row.interactive_violation_rate * 100.0,
            row.shed,
            row.rejected,
            row.brownout_worst_tier,
            row.brownout_escalations
        );
        assert!(r.accounting_balances(), "request accounting must balance");
        overload_rows.push(row);
    }
    assert!(
        overload_rows[1].interactive_violation_rate < overload_rows[0].interactive_violation_rate,
        "the brownout ladder must lower the interactive violation rate under overload"
    );
    assert!(overload_rows[1].brownout_escalations > 0, "3x overload must climb the ladder");
    println!("  brownout strictly lowers the interactive violation rate under overload");
    rows.extend(overload_rows);
    Ok(rows)
}

#[derive(Debug, Serialize)]
pub(super) struct SearchRow {
    workers: usize,
    chaos: bool,
    generations: usize,
    evaluated_backbones: usize,
    pareto_models: usize,
    /// Deterministic virtual-time makespan of all supervised phases.
    modeled_makespan_ms: f64,
    /// Generations per modeled second — the scaling figure of merit.
    generation_throughput: f64,
    /// Execution-plane resilience counters (lane respawns included) —
    /// the same schema `BENCH_serve.json` rows embed.
    executor: ExecTelemetry,
}

impl SearchRow {
    fn from_outcome(workers: usize, chaos: bool, out: &OoeOutcome) -> Self {
        let generations = out.telemetry().generations_completed;
        let modeled_ms = out.modeled_makespan_ms();
        SearchRow {
            workers,
            chaos,
            generations,
            evaluated_backbones: out.backbones().len(),
            pareto_models: out.pareto_models().len(),
            modeled_makespan_ms: modeled_ms,
            generation_throughput: generations as f64 / (modeled_ms / 1e3).max(1e-9),
            executor: *out.exec_telemetry(),
        }
    }
}

/// The same serialized-front shape the `hadas search --json` CLI writes
/// — the byte-identity payload.
fn front_json(out: &OoeOutcome) -> Result<String, serde_json::Error> {
    let models: Vec<serde_json::Value> =
        out.pareto_models().iter().map(JointModel::front_row).collect();
    serde_json::to_string(&models)
}

/// Search-plane scaling: the TX2 joint search under `cfg` at 1/2/4/8
/// executor lanes plus one run under worker chaos, each row from its own
/// run. Throughput is the executor's deterministic *virtual-time*
/// makespan (round-robin lanes, slowest lane charged), not wall clock, so
/// the curve reproduces on any host. Asserts that the serialized front is
/// byte-identical at every lane count and under healed chaos, and that
/// generation throughput grows monotonically from 1 to 8 lanes.
pub(super) fn search(cfg: &HadasConfig) -> Result<Vec<SearchRow>, Box<dyn Error>> {
    let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
    // Six attempts make a dead letter under worker chaos a ~1e-6 event;
    // pinned on every run so only lanes/chaos vary across rows.
    let retry = RetryPolicy { max_attempts: 6, ..RetryPolicy::default() };

    println!("SEARCH — supervised executor scaling on {}", HwTarget::Tx2PascalGpu.name());
    println!("workers   chaos   gens    evals   makespan(ms) gen/s(model)  crashes     dead");
    println!("{}", "-".repeat(78));

    let mut rows: Vec<SearchRow> = Vec::new();
    let mut reference_front: Option<String> = None;
    for workers in [1usize, 2, 4, 8] {
        let opts = SearchOptions { workers, retry, ..SearchOptions::default() };
        let out = hadas.run_with(cfg, &opts)?;
        let front = front_json(&out)?;
        match &reference_front {
            None => reference_front = Some(front),
            Some(reference) => assert_eq!(
                reference, &front,
                "the serialized front must be byte-identical at {workers} workers"
            ),
        }
        rows.push(SearchRow::from_outcome(workers, false, &out));
    }

    // One chaotic run at full width: crashes respawn, lost evaluations
    // re-dispatch, and the healed front still matches byte-for-byte.
    let injector = FaultInjector::new(FaultConfig::worker_chaos(SEED))?;
    let chaos_opts = SearchOptions {
        workers: 8,
        retry,
        exec_chaos: Some(Arc::new(injector)),
        ..SearchOptions::default()
    };
    let chaotic = hadas.run_with(cfg, &chaos_opts)?;
    assert!(chaotic.exec_telemetry().crashes > 0, "the chaos preset must inject crashes");
    assert_eq!(
        chaotic.exec_telemetry().dead_letter_jobs,
        0,
        "six attempts must heal every injected fault"
    );
    assert_eq!(
        reference_front.as_deref(),
        Some(front_json(&chaotic)?.as_str()),
        "the healed chaotic front must be byte-identical to the fault-free one"
    );
    rows.push(SearchRow::from_outcome(8, true, &chaotic));

    for row in &rows {
        println!(
            "{:<8} {:>6} {:>6} {:>8} {:>14.1} {:>12.3} {:>8} {:>8}",
            row.workers,
            if row.chaos { "yes" } else { "no" },
            row.generations,
            row.evaluated_backbones,
            row.modeled_makespan_ms,
            row.generation_throughput,
            row.executor.crashes,
            row.executor.dead_letter_jobs
        );
    }

    let clean: Vec<&SearchRow> = rows.iter().filter(|r| !r.chaos).collect();
    for pair in clean.windows(2) {
        assert!(
            pair[1].generation_throughput >= pair[0].generation_throughput,
            "modeled generation throughput must be monotone in the lane count \
             ({} workers: {} vs {} workers: {})",
            pair[1].workers,
            pair[1].generation_throughput,
            pair[0].workers,
            pair[0].generation_throughput
        );
    }
    if let (Some(first), Some(last)) = (clean.first(), clean.last()) {
        assert!(
            last.generation_throughput > first.generation_throughput,
            "8 lanes must beat 1 lane in modeled throughput"
        );
    }
    println!();
    println!("modeled generation throughput grows monotonically 1 -> 8 workers");
    println!("front byte-identical across all worker counts and under healed chaos");
    Ok(rows)
}
