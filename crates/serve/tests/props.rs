//! Property-based tests for the deadline-aware batcher — the
//! size-or-slack closing rule never lets batch-formation waiting alone
//! blow the earliest admitted deadline, dispatch is FIFO within each
//! SLO class, and edge cases (empty queue, oversize backlog) behave —
//! and for the swap-snapshot plane: capturing *any* mid-run session
//! state round-trips bit-for-bit through the schema-and-fingerprint
//! gate, and any single-field tamper of the serialized payload is
//! refused.

use hadas_runtime::Histogram;
use hadas_serve::{
    Batcher, BrownoutState, BrownoutTier, EngineSnapshot, HealthSample, Request, SessionState,
    SloClass, SWAP_SNAPSHOT_SCHEMA,
};
use proptest::prelude::*;

/// Builds a time-ordered request stream from (gap, bulk?, difficulty)
/// triples with the fixed per-class deadline budgets the serving config
/// uses (interactive tight, bulk slack).
fn stream(specs: &[(f64, bool, f64)]) -> Vec<Request> {
    let mut t = 0.0;
    specs
        .iter()
        .enumerate()
        .map(|(id, &(gap, bulk, difficulty))| {
            t += gap;
            let (class, budget) =
                if bulk { (SloClass::Bulk, 1.2) } else { (SloClass::Interactive, 0.12) };
            Request { id, time_s: t, difficulty, class, deadline_s: t + budget }
        })
        .collect()
}

fn specs_strategy(max_len: usize) -> impl Strategy<Value = Vec<(f64, bool, f64)>> {
    proptest::collection::vec((0.0f64..0.05, any::<bool>(), 0.0f64..1.0), 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// If the batcher decides to *wait* for the next arrival, starting at
    /// that arrival and serving the estimated batch still meets the
    /// earliest queued deadline — waiting never sacrifices an admitted
    /// request by itself.
    #[test]
    fn waiting_never_blows_the_earliest_deadline(
        specs in specs_strategy(24),
        now in 0.0f64..0.5,
        est in 0.0f64..0.3,
        gap in 0.0f64..0.5,
    ) {
        let reqs = stream(&specs);
        let mut b = Batcher::new(reqs.len() + 1); // never closes on size here
        for r in &reqs {
            b.push(*r);
        }
        let next = now + gap;
        if !b.should_dispatch(now, est, Some(next)) {
            let deadline = b.earliest_deadline().expect("queue is non-empty");
            prop_assert!(
                now.max(next) + est <= deadline + 1e-9,
                "waited past feasibility: start {} + est {est} > deadline {deadline}",
                now.max(next),
            );
        }
    }

    /// Dispatch order is FIFO within each SLO class, every batch respects
    /// `batch_max`, and draining the queue loses no request.
    #[test]
    fn batches_are_fifo_within_class_and_bounded(
        specs in specs_strategy(32),
        batch_max in 1usize..9,
    ) {
        let reqs = stream(&specs);
        let mut b = Batcher::new(batch_max);
        for r in &reqs {
            b.push(*r);
        }
        let mut dispatched: Vec<Request> = Vec::new();
        while !b.is_empty() {
            let planned: Vec<usize> = b.plan().iter().map(|r| r.id).collect();
            let batch = b.take_batch();
            prop_assert!(!batch.is_empty(), "non-empty queue must yield a batch");
            prop_assert!(batch.len() <= batch_max);
            let taken: Vec<usize> = batch.iter().map(|r| r.id).collect();
            prop_assert_eq!(planned, taken);
            dispatched.extend(batch);
        }
        prop_assert_eq!(dispatched.len(), reqs.len());
        for class in [SloClass::Interactive, SloClass::Bulk] {
            let order: Vec<usize> =
                dispatched.iter().filter(|r| r.class == class).map(|r| r.id).collect();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(order, sorted);
        }
    }

    /// A full queue always closes the batch, whatever the slack.
    #[test]
    fn full_queues_always_dispatch(specs in specs_strategy(16)) {
        let reqs = stream(&specs);
        let mut b = Batcher::new(reqs.len().max(1));
        for r in &reqs {
            b.push(*r);
        }
        prop_assert!(b.should_dispatch(0.0, 0.0, Some(f64::MAX)), "size rule must fire");
    }
}

fn tier_strategy() -> impl Strategy<Value = BrownoutTier> {
    (0usize..4).prop_map(|i| match i {
        0 => BrownoutTier::Normal,
        1 => BrownoutTier::ShedBulk,
        2 => BrownoutTier::ForceEarlyExit,
        _ => BrownoutTier::RejectNewAdmissions,
    })
}

fn brownout_strategy() -> impl Strategy<Value = BrownoutState> {
    (0usize..4, 0usize..8, proptest::collection::vec(0usize..50, 4), 0usize..20, 0usize..20)
        .prop_map(|(tier, calm_windows, tier_windows, escalations, deescalations)| BrownoutState {
            tier,
            calm_windows,
            tier_windows,
            escalations,
            deescalations,
            worst_tier: tier,
        })
}

fn health_strategy() -> impl Strategy<Value = Vec<HealthSample>> {
    proptest::collection::vec(
        (0.0f64..50.0, 0usize..40, tier_strategy(), 0.05f64..=1.0, 0.0f64..1.0),
        0..5,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(window, (at_s, queue_depth, tier, thermal_cap, slo_pressure))| HealthSample {
                window,
                at_s,
                queue_depth,
                tier,
                thermal_cap,
                slo_pressure,
            })
            .collect()
    })
}

/// An arbitrary mid-run [`SessionState`]: in-flight queues in both SLO
/// classes, worker lanes, an optional brownout ladder, health samples,
/// a folded latency histogram, and arbitrary values in every float and
/// counter accumulator — the full surface a zero-drop swap must carry.
fn session_state_strategy() -> impl Strategy<Value = SessionState> {
    (
        specs_strategy(10),
        proptest::collection::vec(0.0f64..20.0, 1..5),
        (any::<bool>(), brownout_strategy()),
        proptest::collection::vec(0usize..1_000, 12),
        proptest::collection::vec(0.0f64..500.0, 6),
        proptest::collection::vec(0.0f64..200.0, 0..40),
        proptest::collection::vec(0usize..200, 1..5),
        health_strategy(),
    )
        .prop_map(
            |(specs, lanes, (with_brownout, bstate), counts, floats, samples, exits, health)| {
                let brownout = if with_brownout { Some(bstate) } else { None };
                let reqs = stream(&specs);
                let split = |class: SloClass| -> Vec<Request> {
                    reqs.iter().copied().filter(|r| r.class == class).collect()
                };
                let windows_opened = health.len() + counts[5] % 3;
                let last_emitted = health.last().copied();
                SessionState {
                    now_s: floats[0],
                    seq: counts[0],
                    offered: counts[1],
                    queued_interactive: split(SloClass::Interactive),
                    queued_bulk: split(SloClass::Bulk),
                    worker_free_s: lanes.clone(),
                    shed: counts[2],
                    rejected: counts[3],
                    current_mode: counts[4] % 4,
                    next_control_s: floats[1],
                    mode_switches: counts[5],
                    switch_energy_j: floats[2],
                    throttled_windows: counts[6],
                    window_degraded: counts[7] % 2 == 1,
                    degraded_batches: counts[8],
                    makespan_s: floats[3],
                    brownout,
                    win_latencies_ms: samples.iter().take(4).copied().collect(),
                    win_completed: counts[9],
                    win_violations: counts[9] / 2,
                    health,
                    served: counts[10],
                    correct: counts[10] / 2,
                    energy_j: floats[4],
                    sag_energy_j: floats[5] * 0.01,
                    batches: counts[11],
                    latencies: Histogram::from_samples(samples),
                    violations: counts[1] / 3,
                    interactive_served: counts[0] / 2,
                    interactive_violations: counts[0] / 5,
                    bulk_served: counts[2] / 2,
                    bulk_violations: counts[2] / 7,
                    exit_counts: exits.clone(),
                    mode_occupancy: exits,
                    per_worker_served: lanes.iter().map(|l| (*l * 3.0) as usize).collect(),
                    dead_lettered: counts[3] % 3,
                    windows_opened,
                    last_emitted,
                    telemetry_defects: hadas_serve::TelemetryCounters {
                        non_finite: counts[6] % 4,
                        out_of_range: counts[7] % 4,
                        implausible_queue: counts[8] % 4,
                        stale: counts[9] % 4,
                        non_monotonic: counts[10] % 4,
                    },
                    latency_sum_ms: floats[4] * 10.0,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The swap protocol's persistence contract on *any* mid-run state:
    /// `capture → serialize → parse → validate → into_state` is the
    /// identity. serde_json emits shortest round-tripping floats, so
    /// the restored state is equal field-for-field — queues, histogram,
    /// and accumulators included — which is what lets a fleet swap
    /// resume under a new operating point without losing a request.
    #[test]
    fn swap_snapshots_round_trip_any_session_state(state in session_state_strategy()) {
        let snapshot = EngineSnapshot::capture(state.clone()).expect("states serialize");
        prop_assert_eq!(snapshot.schema, SWAP_SNAPSHOT_SCHEMA);
        hadas::seal::verify(&snapshot).expect("a fresh capture validates");

        let json = serde_json::to_string_pretty(&snapshot).expect("snapshots serialize");
        let parsed: EngineSnapshot = serde_json::from_str(&json).expect("snapshots parse");
        prop_assert_eq!(&parsed, &snapshot);
        let restored = parsed.into_state().expect("round-tripped snapshots unwrap");
        prop_assert_eq!(restored, state.clone());
        prop_assert_eq!(snapshot.into_state().expect("valid snapshots unwrap"), state);
    }

    /// Any tamper of the serialized payload — bumping the served count,
    /// or advancing the schema tag — is refused by the gated restore,
    /// whatever state was captured.
    #[test]
    fn tampered_serialized_snapshots_are_always_refused(state in session_state_strategy()) {
        let snapshot = EngineSnapshot::capture(state).expect("states serialize");
        let json = serde_json::to_string_pretty(&snapshot).expect("snapshots serialize");

        // The leading quote keeps the needle from matching the
        // `interactive_served`/`bulk_served`/`per_worker_served` keys.
        let needle = format!("\"served\": {}", snapshot.state.served);
        let tampered = json.replacen(&needle, &format!("\"served\": {}", snapshot.state.served + 1), 1);
        prop_assert_ne!(&tampered, &json);
        let parsed: EngineSnapshot = serde_json::from_str(&tampered).expect("tampered JSON still parses");
        let err = parsed.into_state().expect_err("a tampered payload must be refused");
        prop_assert!(err.to_string().contains("fingerprint"), "{}", err);

        let mut stale = snapshot;
        stale.schema += 1;
        let err = stale.into_state().expect_err("a stale schema must be refused");
        prop_assert!(err.to_string().contains("schema"), "{}", err);
    }
}

#[test]
fn empty_batcher_edge_cases() {
    let mut b = Batcher::new(4);
    assert!(b.is_empty());
    assert_eq!(b.len(), 0);
    assert_eq!(b.earliest_deadline(), None);
    assert!(b.plan().is_empty());
    assert!(b.take_batch().is_empty());
    assert!(!b.should_dispatch(0.0, 1.0, None), "nothing queued, nothing to dispatch");
    assert!(!b.should_dispatch(0.0, 1.0, Some(0.5)));
}

#[test]
fn oversize_backlog_drains_in_bounded_batches() {
    let specs: Vec<(f64, bool, f64)> = (0..100).map(|i| (0.001, i % 3 == 0, 0.5)).collect();
    let mut b = Batcher::new(8);
    for r in stream(&specs) {
        b.push(r);
    }
    let mut total = 0;
    let mut batches = 0;
    while !b.is_empty() {
        let batch = b.take_batch();
        assert!(batch.len() <= 8);
        total += batch.len();
        batches += 1;
    }
    assert_eq!(total, 100);
    assert_eq!(batches, 13, "ceil(100 / 8) batches");
}
