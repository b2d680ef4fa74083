//! End-to-end contracts of the serving engine: byte-identical reports
//! from a fixed seed (including under faults and multi-worker pools),
//! throughput that scales with the pool, and governors that actually
//! move the mode ladder under load.

use hadas::{seal, Hadas, HadasConfig};
use hadas_hw::HwTarget;
use hadas_runtime::{modes_from_pareto, FaultConfig, OperatingMode};
use hadas_serve::{generate_requests, GovernorKind, ServeConfig, ServeEngine};

fn fixture() -> (Hadas, Vec<OperatingMode>) {
    let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
    let outcome = hadas.run(&HadasConfig::smoke_test()).unwrap();
    let modes = modes_from_pareto(&hadas, &outcome, 3).unwrap();
    (hadas, modes)
}

fn config(workers: usize, governor: GovernorKind) -> ServeConfig {
    ServeConfig {
        seed: 7,
        duration_s: 8.0,
        rps: 150.0,
        workers,
        governor,
        ..ServeConfig::default()
    }
}

#[test]
fn reports_are_byte_identical_across_runs() {
    let (hadas, modes) = fixture();
    for workers in [1usize, 3] {
        let cfg = config(workers, GovernorKind::Queue);
        let a = ServeEngine::new(&hadas, modes.clone(), cfg.clone()).unwrap().run().unwrap();
        let b = ServeEngine::new(&hadas, modes.clone(), cfg).unwrap().run().unwrap();
        assert_eq!(a, b);
        assert_eq!(
            seal::to_json(&a).unwrap(),
            seal::to_json(&b).unwrap(),
            "same seed + config must serialise byte-identically (workers={workers})"
        );
    }
}

#[test]
fn faulty_runs_are_byte_identical_too() {
    let (hadas, modes) = fixture();
    let mut cfg = config(2, GovernorKind::Queue);
    cfg.faults = Some(FaultConfig { horizon_s: 8.0, episode_s: 2.0, ..FaultConfig::chaos(11) });
    let a = ServeEngine::new(&hadas, modes.clone(), cfg.clone()).unwrap().run().unwrap();
    let b = ServeEngine::new(&hadas, modes, cfg).unwrap().run().unwrap();
    assert_eq!(seal::to_json(&a).unwrap(), seal::to_json(&b).unwrap());
    assert!(a.throttled_windows > 0 || a.sag_energy_j > 0.0, "chaos must be visible");
}

#[test]
fn throughput_scales_with_the_worker_pool() {
    let (hadas, modes) = fixture();
    let mut last = 0.0;
    for workers in [1usize, 2, 4] {
        let cfg = config(workers, GovernorKind::Queue);
        let r = ServeEngine::new(&hadas, modes.clone(), cfg).unwrap().run().unwrap();
        assert!(
            r.throughput_rps > last,
            "throughput must grow with the pool: {} rps at {workers} workers vs {last}",
            r.throughput_rps
        );
        assert_eq!(
            r.served + r.shed + r.rejected + r.dead_lettered,
            r.offered,
            "every request is served, shed, rejected, or dead-lettered"
        );
        assert_eq!(r.per_worker_served.iter().sum::<usize>(), r.served);
        assert_eq!(r.per_worker_served.len(), workers);
        last = r.throughput_rps;
    }
}

#[test]
fn load_governors_leave_the_pinned_mode() {
    let (hadas, modes) = fixture();
    let pinned = ServeEngine::new(&hadas, modes.clone(), config(1, GovernorKind::Static))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(pinned.mode_switches, 0, "the static governor never moves");
    assert!((pinned.mode_occupancy[0] - 1.0).abs() < 1e-12);
    let adaptive = ServeEngine::new(&hadas, modes.clone(), config(1, GovernorKind::Queue))
        .unwrap()
        .run()
        .unwrap();
    assert!(adaptive.mode_switches >= 1, "a saturated queue must push the governor");
    assert!(adaptive.mode_occupancy[0] < 1.0, "load must shift occupancy off performance");
}

#[test]
fn report_accounting_is_self_consistent() {
    let (hadas, modes) = fixture();
    let r =
        ServeEngine::new(&hadas, modes, config(2, GovernorKind::Latency)).unwrap().run().unwrap();
    assert!(r.served > 0 && r.batches > 0);
    assert!((r.mean_batch_size - r.served as f64 / r.batches as f64).abs() < 1e-12);
    let occ: f64 = r.mode_occupancy.iter().sum();
    assert!((occ - 1.0).abs() < 1e-9);
    let exits: f64 = r.exit_fractions.iter().sum();
    assert!((exits - 1.0).abs() < 1e-9);
    assert_eq!(r.slo.interactive_served + r.slo.bulk_served, r.served);
    assert_eq!(r.slo.interactive_violations + r.slo.bulk_violations, r.slo.violations);
    assert!(r.latency.p50_ms <= r.latency.p95_ms && r.latency.p95_ms <= r.latency.p99_ms);
    assert!(r.latency.p99_ms <= r.latency.max_ms);
    assert!(r.energy_j > 0.0);
    assert!(r.makespan_s >= r.duration_s * 0.5, "work cannot finish before it mostly arrives");
}

#[test]
fn chaos_recovery_is_byte_identical_to_fault_free() {
    let (hadas, modes) = fixture();
    for workers in [1usize, 2, 4] {
        let clean_cfg = config(workers, GovernorKind::Queue);
        let clean =
            ServeEngine::new(&hadas, modes.clone(), clean_cfg.clone()).unwrap().run().unwrap();
        let chaos_cfg = ServeConfig {
            chaos: Some(FaultConfig { horizon_s: 8.0, ..FaultConfig::worker_chaos(7) }),
            retry: hadas::RetryPolicy { max_attempts: 6, ..Default::default() },
            ..clean_cfg
        };
        let (healed, telemetry) =
            ServeEngine::new(&hadas, modes.clone(), chaos_cfg).unwrap().run_instrumented().unwrap();
        assert_eq!(healed.dead_lettered, 0, "the chaos preset must heal ({workers} workers)");
        assert_eq!(
            seal::to_json(&healed).unwrap(),
            seal::to_json(&clean).unwrap(),
            "supervised recovery must be invisible in the report ({workers} workers)"
        );
        assert!(
            telemetry.crashes + telemetry.retries + telemetry.hedges > 0,
            "chaos must actually inject faults ({workers} workers): {telemetry:?}"
        );
    }
}

#[test]
fn brownout_bounds_interactive_tail_latency_under_overload() {
    let (hadas, modes) = fixture();
    // A 4× overload relative to the baseline scenario: the queue governor
    // alone cannot keep interactive deadlines.
    let overload = ServeConfig { rps: 600.0, ..config(2, GovernorKind::Queue) };
    let collapsed =
        ServeEngine::new(&hadas, modes.clone(), overload.clone()).unwrap().run().unwrap();
    let braked = ServeEngine::new(
        &hadas,
        modes.clone(),
        ServeConfig { brownout: Some(hadas_serve::BrownoutConfig::default()), ..overload },
    )
    .unwrap()
    .run()
    .unwrap();

    for r in [&collapsed, &braked] {
        assert_eq!(
            r.served + r.shed + r.rejected + r.dead_lettered,
            r.offered,
            "accounting must balance under overload"
        );
    }
    assert_eq!(collapsed.rejected, 0, "without a ladder nothing is rejected");
    assert!(collapsed.brownout.tier_windows.iter().all(|&w| w == 0));
    assert!(!collapsed.brownout.enabled);

    assert!(braked.brownout.enabled);
    assert!(braked.brownout.escalations > 0, "4x overload must escalate: {:?}", braked.brownout);
    assert!(braked.brownout.worst_tier >= 1, "{:?}", braked.brownout);
    assert!(braked.rejected > 0 || braked.shed > 0, "the ladder must turn load away");

    let rate = |r: &hadas_serve::ServeReport| {
        r.slo.interactive_violations as f64 / r.slo.interactive_served.max(1) as f64
    };
    assert!(
        rate(&braked) < rate(&collapsed),
        "brownout must strictly lower the interactive violation rate: {:.3} vs {:.3}",
        rate(&braked),
        rate(&collapsed)
    );
    assert!(
        braked.latency.p99_ms <= collapsed.latency.p99_ms,
        "shedding early keeps the tail bounded: {:.1} ms vs {:.1} ms",
        braked.latency.p99_ms,
        collapsed.latency.p99_ms
    );
    // Bounded in absolute terms too: the tail stays pinned to the bulk
    // deadline budget (admission control sheds anything infeasible;
    // service of the last admitted batch may overhang it slightly)
    // instead of growing with the queue.
    let bulk_budget_ms = overload_bulk_budget_ms(&braked);
    assert!(
        braked.latency.p99_ms <= bulk_budget_ms * 1.1,
        "p99 {:.1} ms must stay within the bulk budget {bulk_budget_ms:.1} ms (+10%)",
        braked.latency.p99_ms
    );
}

/// The bulk-class deadline budget of the run (`slo_ms × bulk_slo_factor`
/// of the default config the overload scenario inherits).
fn overload_bulk_budget_ms(r: &hadas_serve::ServeReport) -> f64 {
    r.slo.target_ms * ServeConfig::default().bulk_slo_factor
}

#[test]
fn empty_modes_and_bad_configs_are_rejected() {
    let (hadas, modes) = fixture();
    assert!(ServeEngine::new(&hadas, Vec::new(), ServeConfig::default()).is_err());
    let bad = ServeConfig { workers: 0, ..ServeConfig::default() };
    assert!(ServeEngine::new(&hadas, modes, bad).is_err());
}

/// What a fleet swap does to a device: the session stops at a barrier
/// with requests still queued, and its state resumes under an engine on
/// another window of the mode ladder. Every queued request must come out
/// the other side — served or dead-lettered, never lost — and the run
/// must still conserve what it was offered.
#[test]
fn swap_resume_under_another_window_serves_every_queued_request() {
    let (hadas, modes) = fixture();
    let cfg = ServeConfig { rps: 300.0, ..config(1, GovernorKind::Queue) };
    let requests = generate_requests(&cfg, None);
    let cut = requests.len() / 2;
    let before = ServeEngine::new(&hadas, modes[..2].to_vec(), cfg.clone()).unwrap();
    let after = ServeEngine::new(&hadas, modes[1..].to_vec(), cfg).unwrap();

    let mut session = before.session().unwrap();
    session.serve_segment(&requests[..cut], false).unwrap();
    let barrier = session.state();
    let queued: Vec<usize> =
        barrier.queued_interactive.iter().chain(&barrier.queued_bulk).map(|r| r.id).collect();
    assert!(!queued.is_empty(), "the barrier must hold an in-flight queue");
    assert!(queued.iter().all(|&id| id < cut), "only offered requests are queued");

    // Flush just the carried queue under the new window: with no new
    // arrivals, every completion is one of the queued ids.
    let mut flush = after.resume(barrier.clone()).unwrap();
    flush.serve_segment(&[], true).unwrap();
    let flushed = flush.state();
    assert_eq!(flushed.queue_len(), 0);
    assert_eq!(flushed.offered, barrier.offered, "the flush offers nothing new");
    assert_eq!((flushed.shed, flushed.rejected), (barrier.shed, barrier.rejected));
    assert_eq!(
        (flushed.served - barrier.served) + (flushed.dead_lettered - barrier.dead_lettered),
        queued.len(),
        "every queued id is served or dead-lettered"
    );

    // The whole run across the swap conserves what it was offered.
    let mut resumed = after.resume(barrier).unwrap();
    resumed.serve_segment(&requests[cut..], true).unwrap();
    let r = resumed.finish().report;
    assert_eq!(r.offered, requests.len());
    assert_eq!(r.served + r.shed + r.rejected + r.dead_lettered, r.offered);
    assert!(r.accounting_balances());
}
