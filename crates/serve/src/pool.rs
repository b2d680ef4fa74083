//! The self-healing sharded reduction pool, now a thin adapter over the
//! shared supervised executor (`hadas::executor`, re-exported as
//! `hadas_runtime::executor`): scheduled batches become executor jobs,
//! the *pure* per-batch reduction becomes the executor's job closure,
//! and the supervision machinery — one shared dispatch queue feeding
//! one-dispatch-in-flight lanes, RAII death notices, lane respawn,
//! retry on the next idle lane, concurrent hedging, circuit-breaker
//! clamping, first-result-wins dedup, and in-schedule-order folding —
//! lives in the executor, where the OOE/IOE search plane shares it.
//!
//! The serving-specific residue kept here: the batch job/result shapes,
//! the pure reduction itself, and the translation of a batch schedule
//! into executor [`JobSpec`]s (seq as fault key, early-exit-aware
//! latency estimate, request count as dead-letter weight).
//!
//! Recovery invariant (pinned by the chaos suite): because the
//! [`ChaosPlan`] — not cross-thread timing — decides every recovery
//! action, a recovered run reduces the exact multiset of batches a
//! fault-free run does, so the serialized `ServeReport` is
//! byte-identical under injected faults whenever recovery succeeds
//! (zero dead letters), at any worker count.

use crate::Request;
use hadas::executor::{run_supervised, JobSpec};
use hadas::{CircuitBreaker, ExecTelemetry, HadasError, RetryPolicy};
use hadas_runtime::{FaultInjector, ServeOutcome};

pub(crate) use hadas::executor::ChaosPlan;

/// One scheduled batch: everything a worker needs to reduce it, fixed at
/// schedule time so the reduction is a pure function of the job.
#[derive(Debug, Clone)]
pub(crate) struct BatchJob {
    /// Position in the dispatch schedule (the reduction sort key).
    pub seq: usize,
    /// Worker lane the scheduler assigned (timing lane, not the thread
    /// that happens to reduce the job).
    pub worker: usize,
    /// Operating-mode index the batch ran under.
    pub mode: usize,
    /// Completion instant on the virtual timeline (seconds).
    pub finish_s: f64,
    /// Voltage-sag energy multiplier in force at dispatch.
    pub sag: f64,
    /// The batched requests, in dispatch order.
    pub requests: Vec<Request>,
    /// Per-request serve outcomes under `mode`, aligned with `requests`.
    pub outcomes: Vec<ServeOutcome>,
}

/// The reduced shard of one batch.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BatchResult {
    /// Schedule sequence number (reduction sort key).
    pub seq: usize,
    /// Scheduler-assigned worker lane.
    pub worker: usize,
    /// Operating-mode index the batch ran under.
    pub mode: usize,
    /// Requests in the batch.
    pub size: usize,
    /// Energy drawn, sag included (joules).
    pub energy_j: f64,
    /// Extra joules paid to voltage sag beyond the nominal mode costs.
    pub sag_energy_j: f64,
    /// Correct predictions.
    pub correct: usize,
    /// Exit-depth histogram: slot `k` counts exits at head `k`, the last
    /// slot counts full-backbone runs.
    pub exit_hist: Vec<usize>,
    /// Per-request completion latency (arrival → batch finish), ms, in
    /// dispatch order.
    pub latencies_ms: Vec<f64>,
    /// Requests whose completion missed their deadline.
    pub violations: usize,
    /// `(served, violations)` for the interactive class.
    pub interactive: (usize, usize),
    /// `(served, violations)` for the bulk class.
    pub bulk: (usize, usize),
}

/// Reduces one batch — pure: no clocks, no RNG, no shared state.
fn reduce_batch(job: &BatchJob, exit_slots: usize) -> BatchResult {
    let mut energy = 0.0f64;
    let mut nominal = 0.0f64;
    let mut correct = 0usize;
    let mut exit_hist = vec![0usize; exit_slots.max(1)];
    let mut latencies_ms = Vec::with_capacity(job.requests.len());
    let mut violations = 0usize;
    let mut interactive = (0usize, 0usize);
    let mut bulk = (0usize, 0usize);
    let last = exit_hist.len() - 1;
    for (r, o) in job.requests.iter().zip(job.outcomes.iter()) {
        nominal += o.cost.energy_j;
        energy += o.cost.energy_j * job.sag;
        correct += usize::from(o.correct);
        let slot = o.exit.map_or(last, |k| k.min(last));
        exit_hist[slot] += 1;
        latencies_ms.push((job.finish_s - r.time_s) * 1e3);
        let late = job.finish_s > r.deadline_s + 1e-12;
        violations += usize::from(late);
        let class = match r.class {
            crate::SloClass::Interactive => &mut interactive,
            crate::SloClass::Bulk => &mut bulk,
        };
        class.0 += 1;
        class.1 += usize::from(late);
    }
    BatchResult {
        seq: job.seq,
        worker: job.worker,
        mode: job.mode,
        size: job.requests.len(),
        energy_j: energy,
        sag_energy_j: energy - nominal,
        correct,
        exit_hist,
        latencies_ms,
        violations,
        interactive,
        bulk,
    }
}

/// Translates a batch schedule into executor job specs: the schedule
/// sequence number keys the fault streams (so chaos plans replay
/// identically across worker counts), the early-exit-aware latency
/// estimate sets the hedge deadline, and the request count weights
/// dead-letter accounting.
fn specs_of(jobs: &[BatchJob], overhead_ms: f64) -> Vec<JobSpec> {
    jobs.iter()
        .map(|job| {
            // lint:allow(det-float-order) sequential sum over a seq-ordered Vec
            let batch_s = job.outcomes.iter().map(|o| o.cost.latency_s).sum::<f64>();
            JobSpec {
                key: job.seq as u64,
                est_ms: overhead_ms + batch_s * 1e3,
                weight: job.requests.len(),
            }
        })
        .collect()
}

/// Resolves the execution-plane chaos script for a batch schedule (see
/// [`ChaosPlan::build`]): a pure function of
/// `(fault seed, retry policy, breaker, hedge factor, schedule)` — no
/// thread timing anywhere — which is what makes recovery replayable.
pub(crate) fn serve_chaos_plan(
    injector: &FaultInjector,
    retry: &RetryPolicy,
    breaker: CircuitBreaker,
    hedge_factor: f64,
    overhead_ms: f64,
    jobs: &[BatchJob],
) -> ChaosPlan {
    ChaosPlan::build(injector, retry, breaker, hedge_factor, &specs_of(jobs, overhead_ms))
}

/// Runs the supervised reduction pool: `workers` executor lanes reduce
/// the jobs, the supervisor replays the chaos plan's recovery script
/// (respawn, re-dispatch, retry, hedge, dead-letter), and the caller
/// receives the surviving results in schedule order plus the resilience
/// telemetry (dead-letter counters recomputed in request units).
/// Without a plan every job runs as a single clean attempt.
///
/// # Errors
///
/// Returns [`HadasError::Internal`] if the executor loses a channel
/// outside the supervision protocol (a bug, not an input condition).
pub(crate) fn run_pool(
    jobs: Vec<BatchJob>,
    workers: usize,
    exit_slots: usize,
    plan: Option<&ChaosPlan>,
) -> Result<(Vec<BatchResult>, ExecTelemetry), HadasError> {
    let (slots, mut stats) =
        run_supervised(&jobs, workers.max(1), |job| reduce_batch(job, exit_slots), plan)?;
    // Re-account dead letters in serving units: the executor counts
    // plan-declared weights, but an off-plan double panic could kill a
    // batch the plan never priced.
    let mut out: Vec<BatchResult> = Vec::with_capacity(jobs.len());
    let mut dead_batches = 0usize;
    let mut dead_requests = 0usize;
    for (job, slot) in jobs.iter().zip(slots) {
        match slot {
            Some(r) => out.push(r),
            None => {
                dead_batches += 1;
                dead_requests += job.requests.len();
            }
        }
    }
    stats.dead_letter_jobs = dead_batches;
    stats.dead_letter_units = dead_requests;
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SloClass;
    use hadas_hw::CostReport;
    use hadas_runtime::FaultConfig;

    fn job(seq: usize, n: usize) -> BatchJob {
        let requests: Vec<Request> = (0..n)
            .map(|i| Request {
                id: seq * 100 + i,
                time_s: 0.0,
                difficulty: 0.5,
                class: if i % 2 == 0 { SloClass::Interactive } else { SloClass::Bulk },
                deadline_s: if i % 3 == 0 { 0.05 } else { 10.0 },
            })
            .collect();
        let outcomes: Vec<ServeOutcome> = (0..n)
            .map(|i| ServeOutcome {
                cost: CostReport { latency_s: 0.01, energy_j: 0.2 },
                correct: i % 2 == 0,
                exit: if i % 2 == 0 { Some(0) } else { None },
            })
            .collect();
        BatchJob { seq, worker: seq % 2, mode: 0, finish_s: 0.1, sag: 1.5, requests, outcomes }
    }

    fn plan_for(jobs: &[BatchJob], cfg: FaultConfig, max_attempts: u32) -> ChaosPlan {
        let injector = FaultInjector::new(cfg).unwrap();
        let retry = RetryPolicy { max_attempts, ..RetryPolicy::default() };
        serve_chaos_plan(&injector, &retry, CircuitBreaker::new(8, 4), 3.0, 1.0, jobs)
    }

    #[test]
    fn reduction_is_pure_and_accounts_sag() {
        let j = job(0, 4);
        let a = reduce_batch(&j, 3);
        let b = reduce_batch(&j, 3);
        assert_eq!(a, b);
        assert_eq!(a.size, 4);
        assert_eq!(a.correct, 2);
        assert!((a.energy_j - 4.0 * 0.2 * 1.5).abs() < 1e-12);
        assert!((a.sag_energy_j - 4.0 * 0.2 * 0.5).abs() < 1e-12);
        assert_eq!(a.exit_hist, vec![2, 0, 2], "even indices exit at 0, odd run full");
        assert_eq!(a.violations, 2, "deadlines at 0.05 s are missed at finish 0.1 s");
        assert_eq!(a.interactive.0 + a.bulk.0, 4);
    }

    #[test]
    fn pool_returns_results_in_schedule_order_for_any_worker_count() {
        let jobs: Vec<BatchJob> = (0..20).map(|s| job(s, 3)).collect();
        let (single, stats) = run_pool(jobs.clone(), 1, 3, None).unwrap();
        assert_eq!(stats, ExecTelemetry::default(), "a clean run needs no healing");
        for workers in [2, 4, 7] {
            let (multi, _) = run_pool(jobs.clone(), workers, 3, None).unwrap();
            assert_eq!(single, multi, "reduction must not depend on thread count");
        }
        assert!(single.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn empty_schedule_reduces_to_nothing() {
        let (out, stats) = run_pool(Vec::new(), 4, 2, None).unwrap();
        assert!(out.is_empty());
        assert_eq!(stats.dead_letter_jobs, 0);
    }

    #[test]
    fn chaos_plan_is_pure_and_internally_consistent() {
        let jobs: Vec<BatchJob> = (0..60).map(|s| job(s, 3)).collect();
        let a = plan_for(&jobs, FaultConfig::worker_chaos(7), 6);
        let b = plan_for(&jobs, FaultConfig::worker_chaos(7), 6);
        assert_eq!(a, b, "the plan is a pure function of its inputs");
        assert_eq!(a.chains.len(), jobs.len());
        let reissues: usize = a.stats.retries + a.stats.redispatches + a.stats.hedges;
        let issued: usize = a.chains.iter().map(Vec::len).sum();
        assert_eq!(issued, jobs.len() + reissues, "every re-issue extends exactly one chain");
        assert_eq!(a.stats.respawns, a.stats.crashes, "every crash respawns its lane");
        for (chain, &dead) in a.chains.iter().zip(&a.dead) {
            assert!(!chain.is_empty());
            let landed = chain.iter().any(|f| {
                matches!(
                    f,
                    hadas::executor::AttemptFate::Ok | hadas::executor::AttemptFate::Straggle
                )
            });
            assert_eq!(dead, !landed);
        }
    }

    #[test]
    fn supervised_recovery_reproduces_the_fault_free_results() {
        let jobs: Vec<BatchJob> = (0..60).map(|s| job(s, 3)).collect();
        let plan = plan_for(&jobs, FaultConfig::worker_chaos(7), 6);
        assert!(plan.stats.crashes > 0, "seed 7 must inject crashes for this test to bite");
        assert!(plan.stats.retries > 0, "seed 7 must inject transient failures");
        assert_eq!(plan.stats.dead_letter_jobs, 0, "six attempts always recover here");
        let (clean, _) = run_pool(jobs.clone(), 3, 3, None).unwrap();
        for workers in [1, 2, 3, 5] {
            let (healed, stats) = run_pool(jobs.clone(), workers, 3, Some(&plan)).unwrap();
            assert_eq!(healed, clean, "recovery must erase the faults ({workers} workers)");
            assert_eq!(stats.crashes, plan.stats.crashes);
            assert_eq!(stats.dead_letter_units, 0);
        }
    }

    #[test]
    fn hedged_stragglers_land_and_duplicates_are_deduped() {
        let jobs: Vec<BatchJob> = (0..40).map(|s| job(s, 2)).collect();
        // High timeout rate, huge injected delay ⇒ every timeout draw
        // straggles past the hedge slack and spawns a hedge.
        let cfg = FaultConfig {
            timeout_rate: 0.5,
            transient_rate: 0.0,
            crash_rate: 0.0,
            timeout_cost_ms: 10_000.0,
            ..FaultConfig::worker_chaos(11)
        };
        let plan = plan_for(&jobs, cfg, 4);
        assert!(plan.stats.hedges > 0, "stragglers must hedge");
        assert!(plan.stats.duplicate_results > 0, "a landed hedge duplicates its straggler");
        assert_eq!(plan.stats.dead_letter_jobs, 0, "stragglers still land");
        let (clean, _) = run_pool(jobs.clone(), 2, 3, None).unwrap();
        let (hedged, stats) = run_pool(jobs, 4, 3, Some(&plan)).unwrap();
        assert_eq!(hedged, clean, "first-result-wins dedup keeps the payload identical");
        assert_eq!(stats.hedges, plan.stats.hedges);
    }

    #[test]
    fn exhausted_batches_are_dead_lettered_not_lost() {
        let jobs: Vec<BatchJob> = (0..50).map(|s| job(s, 3)).collect();
        // Brutal substrate + a single attempt ⇒ some chains never land.
        let cfg = FaultConfig {
            transient_rate: 0.45,
            timeout_rate: 0.0,
            crash_rate: 0.3,
            ..FaultConfig::worker_chaos(3)
        };
        let plan = plan_for(&jobs, cfg, 1);
        assert!(plan.stats.dead_letter_jobs > 0, "a 1-attempt budget must drop some");
        let (a, sa) = run_pool(jobs.clone(), 3, 3, Some(&plan)).unwrap();
        let (b, sb) = run_pool(jobs.clone(), 5, 3, Some(&plan)).unwrap();
        assert_eq!(a, b, "dead-letter selection is part of the deterministic plan");
        assert_eq!(sa, sb);
        assert_eq!(a.len() + sa.dead_letter_jobs, jobs.len(), "no batch silently lost");
        let dead_req: usize =
            plan.dead.iter().zip(&jobs).filter(|(&d, _)| d).map(|(_, j)| j.requests.len()).sum();
        assert_eq!(sa.dead_letter_units, dead_req);
    }

    #[test]
    fn open_breaker_clamps_the_retry_budget() {
        let jobs: Vec<BatchJob> = (0..40).map(|s| job(s, 2)).collect();
        let injector = FaultInjector::new(FaultConfig {
            transient_rate: 0.6,
            timeout_rate: 0.0,
            crash_rate: 0.0,
            ..FaultConfig::worker_chaos(5)
        })
        .unwrap();
        let retry = RetryPolicy { max_attempts: 4, ..RetryPolicy::default() };
        let clamped =
            serve_chaos_plan(&injector, &retry, CircuitBreaker::new(1, 50), 3.0, 1.0, &jobs);
        let lenient =
            serve_chaos_plan(&injector, &retry, CircuitBreaker::new(1_000, 1), 3.0, 1.0, &jobs);
        assert!(clamped.stats.breaker_trips > 0, "rate 0.6 must trip a threshold-1 breaker");
        assert_eq!(lenient.stats.breaker_trips, 0);
        assert!(
            clamped.chains.iter().skip(1).any(|c| c.len() == 1),
            "an open breaker fast-fails to a single attempt"
        );
        let issued = |p: &ChaosPlan| p.chains.iter().map(Vec::len).sum::<usize>();
        assert!(issued(&clamped) < issued(&lenient), "the breaker must shed retry load");
        assert!(
            clamped.stats.dead_letter_jobs >= lenient.stats.dead_letter_jobs,
            "fast-failing trades dead letters for stability"
        );
    }
}
