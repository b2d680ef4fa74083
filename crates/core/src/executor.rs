//! The supervised parallel execution plane: a reusable fault-tolerant
//! executor shared by the serving pool and the OOE/IOE search engines.
//!
//! The machinery was born in `hadas-serve`'s reduction pool and is
//! extracted here unchanged in spirit: scheduled jobs stream over
//! vendored crossbeam channels to supervised worker lanes, each lane
//! runs a *pure* `Fn(&Job) -> Outcome` closure, and the caller receives
//! the outcomes in schedule order — so the result of a run is
//! byte-identical no matter how many lanes execute it or how the OS
//! interleaves them.
//!
//! # Supervision
//!
//! A supervisor keeps at most **one dispatch in flight per lane**.
//! Queued work waits supervisor-side in one shared FIFO queue, and
//! whenever a lane goes idle it gets the queue's next dispatch, so a
//! slow job holds up only its own lane and a dying worker can only ever
//! lose the single job it was holding. Execution-plane chaos — injected
//! worker crashes, transient failures, stragglers — is scripted by a
//! [`ChaosPlan`]: a pure function of a [`FateResolver`] (the shared
//! `FaultInjector` in practice) that fixes the fate of every attempt of
//! every job *before* any thread runs. The supervisor then acts the
//! plan out:
//!
//! * **crash** — the worker abandons its lane mid-job and dies; the
//!   RAII `DeathNotice` converts the death into a `Down` message, the
//!   supervisor respawns the lane and enqueues the job's next attempt,
//!   which goes to the next idle lane;
//! * **transient failure** — the attempt's result is discarded and the
//!   job retried, up to the [`RetryPolicy`] attempt budget (clamped to
//!   a single attempt while the [`CircuitBreaker`] is open);
//! * **straggle** — the attempt lands late; a hedge duplicate is
//!   enqueued at once (not on reply) and goes to the next idle lane, and
//!   the first result per job wins (later duplicates are dropped);
//! * **dead letter** — a job whose every issued attempt failed resolves
//!   to `None` and is accounted, never silently lost.
//!
//! Because the plan — not cross-thread timing — decides every recovery
//! action, a recovered run computes the exact multiset of outcomes a
//! fault-free run does. Combined with the in-order fold of the result
//! slots this is the recovery invariant the chaos suites pin: serve
//! reports and search Pareto fronts are byte-identical under injected
//! faults whenever recovery succeeds (zero dead letters), at any worker
//! count.
//!
//! Real (off-plan) worker panics ride the same machinery: the
//! `DeathNotice` fires during unwinding, the lane respawns, and the
//! lost job is re-issued once before being dead-lettered.
//!
//! # Single-lane mode
//!
//! `workers <= 1` short-circuits to an inline sequential run on the
//! caller's thread: the same fold, consulting only the plan's
//! dead-letter set (a one-lane supervisor could never reorder anything
//! anyway). This keeps the sequential search path free of thread
//! overhead while remaining byte-identical to every multi-lane run.

use crate::resilience::{AttemptOutcome, CircuitBreaker, FaultModel, RetryPolicy};
use crate::HadasError;
use crossbeam::channel::{self, Receiver, Sender};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Decides the scripted fate of execution attempts: the substrate-fault
/// surface of [`FaultModel`] plus worker-crash injection. Pure in
/// `(key, attempt)` — the replayability of recovery depends on it.
///
/// The blanket default never crashes, so any [`FaultModel`] can stand in
/// where no execution-plane chaos is wanted.
pub trait FateResolver: FaultModel {
    /// Whether the worker holding attempt `attempt` of the job keyed
    /// `key` crashes mid-execution.
    fn crash_at(&self, _key: u64, _attempt: u32) -> bool {
        false
    }
}

/// The healthy execution plane: no crashes (and, via [`NoFaults`], no
/// transient failures or stragglers either).
impl FateResolver for crate::resilience::NoFaults {}

/// What the plan builder needs to know about one scheduled job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// Fault-stream key (stable across runs and worker counts — e.g. a
    /// schedule sequence number or a content hash).
    pub key: u64,
    /// Estimated service time in virtual milliseconds; sets the hedge
    /// deadline and feeds the modeled-makespan scaling curve.
    pub est_ms: f64,
    /// Work units inside the job (requests in a batch, 1 for a single
    /// candidate evaluation) — dead-letter accounting granularity.
    pub weight: usize,
}

/// The scripted fate of one execution attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptFate {
    /// The attempt runs its job and lands on time.
    Ok,
    /// Transient failure: the result is discarded, retry.
    Fail,
    /// The worker thread executing the attempt dies mid-job.
    Crash,
    /// The attempt lands, but past the hedge deadline — a concurrent
    /// hedge duplicate is issued and the first result wins.
    Straggle,
}

/// Execution-plane resilience counters of one supervised run. **Not**
/// part of any deterministic payload: recovery erases execution faults
/// from the results by design, so these live in a side channel (serve's
/// `run_instrumented`, search's `OoeOutcome::exec_telemetry`) where
/// byte-identity is not at stake. One schema for both planes — the
/// serve and search benches serialize it verbatim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecTelemetry {
    /// Worker threads that died mid-job (injected or real).
    pub crashes: usize,
    /// Worker lanes respawned by the supervisor.
    pub respawns: usize,
    /// Attempts re-issued after a transient failure.
    pub retries: usize,
    /// Attempts re-issued after losing their worker.
    pub redispatches: usize,
    /// Hedge duplicates issued against straggling attempts.
    pub hedges: usize,
    /// Results dropped by first-result-wins dedup (job already landed).
    pub duplicate_results: usize,
    /// Attempts that failed transiently (each may trigger one retry).
    pub failed_attempts: usize,
    /// Jobs whose every issued attempt failed.
    pub dead_letter_jobs: usize,
    /// Work units inside dead-lettered jobs.
    pub dead_letter_units: usize,
    /// Times the circuit breaker tripped open during the run.
    pub breaker_trips: usize,
}

impl ExecTelemetry {
    /// Folds another run's counters into this one (search runs invoke
    /// the executor once per generation phase and aggregate).
    pub fn merge(&mut self, other: &ExecTelemetry) {
        self.crashes += other.crashes;
        self.respawns += other.respawns;
        self.retries += other.retries;
        self.redispatches += other.redispatches;
        self.hedges += other.hedges;
        self.duplicate_results += other.duplicate_results;
        self.failed_attempts += other.failed_attempts;
        self.dead_letter_jobs += other.dead_letter_jobs;
        self.dead_letter_units += other.dead_letter_units;
        self.breaker_trips += other.breaker_trips;
    }
}

/// The pre-resolved chaos script of one supervised run: per job, the
/// fate of every attempt that will be issued, plus which jobs end up
/// dead-lettered and the planned telemetry. A pure function of
/// `(fate resolver, retry policy, breaker, hedge factor, job specs)` —
/// no thread timing anywhere — which is what makes recovery replayable
/// and worker-count-invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    /// `chains[i]` = fates of the attempts issued for job `i`, in
    /// attempt order (length ≥ 1).
    pub chains: Vec<Vec<AttemptFate>>,
    /// Whether job `i` dead-letters (no attempt lands).
    pub dead: Vec<bool>,
    /// Work units per job (from the specs; dead-letter accounting).
    pub weights: Vec<usize>,
    /// Planned counters (runtime fills in off-plan events, if any).
    pub stats: ExecTelemetry,
}

impl ChaosPlan {
    /// Resolves the full attempt chain of every job against the fate
    /// resolver, folding the circuit breaker in schedule order:
    ///
    /// * attempt `k+1` is issued iff attempt `k` did not land cleanly
    ///   (`Fail`/`Crash` → retry/re-dispatch, `Straggle` → hedge) and
    ///   the breaker-clamped attempt budget allows it;
    /// * a job lands iff any issued attempt is `Ok` or `Straggle`;
    /// * the breaker sees one `tick` per job and records a failure iff
    ///   the job's chain contains a `Fail` or `Crash`.
    ///
    /// A draw from [`FaultModel::eval_attempt`] of `Timeout` counts as
    /// a straggler only when the injected delay exceeds the hedge slack
    /// `(hedge_factor − 1) × est_ms`; shorter delays land within the
    /// hedge deadline and behave as `Ok`.
    pub fn build(
        resolver: &dyn FateResolver,
        retry: &RetryPolicy,
        mut breaker: CircuitBreaker,
        hedge_factor: f64,
        specs: &[JobSpec],
    ) -> ChaosPlan {
        let mut chains = Vec::with_capacity(specs.len());
        let mut dead = Vec::with_capacity(specs.len());
        let mut weights = Vec::with_capacity(specs.len());
        let mut stats = ExecTelemetry::default();
        for spec in specs {
            breaker.tick();
            let allowed = if breaker.is_open() { 1 } else { retry.max_attempts.max(1) };
            let hedge_slack_ms = (hedge_factor - 1.0).max(0.0) * spec.est_ms;
            let mut chain: Vec<AttemptFate> = Vec::new();
            let mut attempt = 0u32;
            loop {
                let fate = if resolver.crash_at(spec.key, attempt) {
                    AttemptFate::Crash
                } else {
                    match resolver.eval_attempt(spec.key, attempt) {
                        AttemptOutcome::TransientFailure { .. } => AttemptFate::Fail,
                        AttemptOutcome::Timeout { cost_ms } if cost_ms > hedge_slack_ms => {
                            AttemptFate::Straggle
                        }
                        AttemptOutcome::Timeout { .. } | AttemptOutcome::Ok { .. } => {
                            AttemptFate::Ok
                        }
                    }
                };
                chain.push(fate);
                attempt += 1;
                if fate == AttemptFate::Ok || attempt >= allowed {
                    break;
                }
            }
            for pair in chain.windows(2) {
                match pair[0] {
                    AttemptFate::Fail => stats.retries += 1,
                    AttemptFate::Crash => stats.redispatches += 1,
                    AttemptFate::Straggle => stats.hedges += 1,
                    AttemptFate::Ok => {}
                }
            }
            let crashes = chain.iter().filter(|&&f| f == AttemptFate::Crash).count();
            stats.crashes += crashes;
            stats.respawns += crashes;
            stats.failed_attempts += chain.iter().filter(|&&f| f == AttemptFate::Fail).count();
            let landings = chain
                .iter()
                .filter(|f| matches!(f, AttemptFate::Ok | AttemptFate::Straggle))
                .count();
            stats.duplicate_results += landings.saturating_sub(1);
            if chain.iter().any(|f| matches!(f, AttemptFate::Fail | AttemptFate::Crash)) {
                breaker.record_failure();
            } else {
                breaker.record_success();
            }
            if landings == 0 {
                stats.dead_letter_jobs += 1;
                stats.dead_letter_units += spec.weight;
            }
            dead.push(landings == 0);
            weights.push(spec.weight);
            chains.push(chain);
        }
        stats.breaker_trips = breaker.trips();
        ChaosPlan { chains, dead, weights, stats }
    }
}

/// The deterministic virtual-time makespan of a schedule over `workers`
/// round-robin lanes: lane `i % workers` pays `est_ms × attempts` per
/// job (attempt chains from the plan, one clean attempt without one).
/// This is the same modeled-time idiom the serving engine's throughput
/// uses — a pure function of the schedule, so the scaling curves the
/// benches assert on are reproducible on any host. It still models
/// round-robin lanes, although [`run_supervised`] now pulls work from
/// one shared queue; the committed modeled figures depend on it.
pub fn modeled_makespan_ms(specs: &[JobSpec], workers: usize, plan: Option<&ChaosPlan>) -> f64 {
    let lanes = workers.max(1);
    let mut load = vec![0.0f64; lanes];
    for (i, spec) in specs.iter().enumerate() {
        let attempts = plan.and_then(|p| p.chains.get(i)).map_or(1, Vec::len);
        load[i % lanes] += spec.est_ms.max(0.0) * attempts as f64;
    }
    // lint:allow(det-float-order) max over lane loads is order-insensitive
    load.iter().fold(0.0f64, |m, &l| m.max(l))
}

/// One unit of work handed to a worker lane.
#[derive(Debug, Clone, Copy)]
struct Dispatch {
    index: usize,
    attempt: u32,
    fate: AttemptFate,
}

/// What a worker (or its death) reports back to the supervisor. Every
/// issued [`Dispatch`] resolves into exactly one `Reply`.
#[derive(Debug)]
enum Reply<R> {
    /// The attempt ran its job.
    Done { lane: usize, index: usize, result: Box<R> },
    /// The attempt failed transiently; its result was discarded.
    Failed { lane: usize, index: usize, attempt: u32 },
    /// The worker died while holding the attempt.
    Down { lane: usize, index: usize, attempt: u32 },
}

/// RAII death watch: armed while a worker holds a dispatch, it converts
/// any exit without a reply — injected crash or real panic unwinding —
/// into a `Down` message for the supervisor.
struct DeathNotice<R> {
    tx: Sender<Reply<R>>,
    lane: usize,
    index: usize,
    attempt: u32,
    armed: bool,
}

impl<R> Drop for DeathNotice<R> {
    fn drop(&mut self) {
        if self.armed {
            let _ = self.tx.send(Reply::Down {
                lane: self.lane,
                index: self.index,
                attempt: self.attempt,
            });
        }
    }
}

/// The worker body: one dispatch at a time, one reply per dispatch.
fn worker_body<J, R, F>(
    lane: usize,
    rx: Receiver<Dispatch>,
    tx: Sender<Reply<R>>,
    jobs: &[J],
    run_job: &F,
) where
    F: Fn(&J) -> R,
{
    // Workers never fold — every reply is seq-tagged and lands in its
    // slot on the supervisor.
    // lint:allow(det-unordered-reduction) reviewed
    while let Ok(d) = rx.recv() {
        let mut notice =
            DeathNotice { tx: tx.clone(), lane, index: d.index, attempt: d.attempt, armed: true };
        match d.fate {
            AttemptFate::Crash => {
                // Injected worker death: abandon the lane mid-job. The
                // armed DeathNotice reports the loss on the way out —
                // the same signal a real panic would produce.
                return;
            }
            AttemptFate::Fail => {
                notice.armed = false;
                let failed = Reply::Failed { lane, index: d.index, attempt: d.attempt };
                if tx.send(failed).is_err() {
                    return;
                }
            }
            AttemptFate::Ok | AttemptFate::Straggle => {
                let Some(job) = jobs.get(d.index) else { return };
                let result = Box::new(run_job(job));
                notice.armed = false;
                let done = Reply::Done { lane, index: d.index, result };
                if tx.send(done).is_err() {
                    return;
                }
            }
        }
    }
}

/// The fates planned for job `i` (a single clean attempt without a plan).
fn chain_of(plan: Option<&ChaosPlan>, i: usize) -> &[AttemptFate] {
    const CLEAN: [AttemptFate; 1] = [AttemptFate::Ok];
    plan.and_then(|p| p.chains.get(i)).map_or(&CLEAN[..], Vec::as_slice)
}

/// The supervisor's side of the worker lanes: one dispatch channel per
/// lane, the lanes with nothing in flight, and the one shared FIFO of
/// work not yet in flight. Thread handles are owned by the surrounding
/// scope, which joins every (re)spawned worker on exit.
struct Lanes {
    txs: Vec<Sender<Dispatch>>,
    idle: Vec<usize>,
    queue: VecDeque<Dispatch>,
    /// Dispatches enqueued or in flight whose reply is still due.
    pending: usize,
}

impl Lanes {
    /// Enqueues attempt `start` of job `i`, chasing straggler fates: a
    /// `Straggle` attempt's hedge duplicate is enqueued immediately
    /// (concurrently), not on reply.
    fn issue(&mut self, plan: Option<&ChaosPlan>, i: usize, start: usize) {
        for (a, &fate) in chain_of(plan, i).iter().enumerate().skip(start) {
            self.queue.push_back(Dispatch { index: i, attempt: a as u32, fate });
            self.pending += 1;
            if fate != AttemptFate::Straggle {
                break;
            }
        }
    }

    /// Hands the queue's next dispatches to idle lanes, one each.
    fn pump(&mut self) -> Result<(), HadasError> {
        while let Some(&lane) = self.idle.last() {
            let Some(d) = self.queue.pop_front() else { break };
            // One-in-flight discipline makes a send error unreachable: a
            // lane's channel only closes after its Down was processed and
            // the lane respawned. Surface it rather than losing work.
            self.txs[lane].send(d).map_err(|_| {
                HadasError::Internal("executor lane disconnected unsupervised".into())
            })?;
            self.idle.pop();
        }
        Ok(())
    }
}

/// Recomputes the dead-letter counters from the final result slots
/// (off-plan panics can dead-letter jobs the plan expected to land).
fn account_dead_letters<R>(
    slots: &[Option<R>],
    plan: Option<&ChaosPlan>,
    stats: &mut ExecTelemetry,
) {
    let mut jobs_dead = 0usize;
    let mut units_dead = 0usize;
    for (i, slot) in slots.iter().enumerate() {
        if slot.is_none() {
            jobs_dead += 1;
            units_dead += plan.and_then(|p| p.weights.get(i)).copied().unwrap_or(1);
        }
    }
    stats.dead_letter_jobs = jobs_dead;
    stats.dead_letter_units = units_dead;
}

/// Runs the supervised executor: `workers` lanes run the pure `run_job`
/// closure over the jobs, the supervisor replays the chaos plan's
/// recovery script (respawn, re-dispatch, retry, hedge, dead-letter),
/// and the caller receives one result slot per job **in schedule
/// order** (`None` = dead-lettered) plus the resilience telemetry.
/// Without a plan every job runs as a single clean attempt.
///
/// `workers <= 1` runs inline on the caller's thread (see the module
/// docs); the result is byte-identical either way.
///
/// # Errors
///
/// Returns [`HadasError::Internal`] if the executor loses a channel
/// outside the supervision protocol or a worker panic defeats the
/// bounded self-heal (bugs or non-pure jobs, not input conditions).
pub fn run_supervised<J, R, F>(
    jobs: &[J],
    workers: usize,
    run_job: F,
    plan: Option<&ChaosPlan>,
) -> Result<(Vec<Option<R>>, ExecTelemetry), HadasError>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    let mut stats = plan.map_or_else(ExecTelemetry::default, |p| p.stats);
    if jobs.is_empty() {
        return Ok((Vec::new(), stats));
    }
    if workers <= 1 {
        // Single-lane mode: the supervisor could never reorder anything,
        // so run the fold inline — same dead-letter set, no threads.
        let mut slots: Vec<Option<R>> = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            let dead = plan.is_some_and(|p| p.dead.get(i).copied().unwrap_or(false));
            slots.push(if dead { None } else { Some(run_job(job)) });
        }
        account_dead_letters(&slots, plan, &mut stats);
        return Ok((slots, stats));
    }

    let mut outcome: Option<Result<Vec<Option<R>>, HadasError>> = None;
    let run_job = &run_job;
    // The scope wrapper turns an unjoined worker panic into an outer
    // `Err`; a panic the supervisor already healed (bounded re-issue)
    // must not fail the run, so the supervisor's verdict is assembled
    // in `outcome` and consulted first.
    let _ = crossbeam::thread::scope(|scope| {
        let (reply_tx, reply_rx) = channel::unbounded::<Reply<R>>();
        let spawn_lane = |lane_idx: usize| -> Sender<Dispatch> {
            let (tx, rx) = channel::unbounded::<Dispatch>();
            let reply = reply_tx.clone();
            scope.spawn(move |_| worker_body(lane_idx, rx, reply, jobs, run_job));
            tx
        };
        let mut supervise = || -> Result<Vec<Option<R>>, HadasError> {
            let mut lanes = Lanes {
                txs: (0..workers).map(&spawn_lane).collect(),
                idle: (0..workers).rev().collect(),
                queue: VecDeque::new(),
                pending: 0,
            };
            let mut results: Vec<Option<R>> = (0..jobs.len()).map(|_| None).collect();
            let mut offplan_reissued = vec![false; jobs.len()];
            let mut offplan = ExecTelemetry::default();
            for i in 0..jobs.len() {
                lanes.issue(plan, i, 0);
            }
            lanes.pump()?;
            while lanes.pending > 0 {
                // Replies land in seq-indexed slots, so completion
                // order never leaks into the assembled result vector.
                // lint:allow(det-unordered-reduction) reviewed
                let reply = reply_rx.recv().map_err(|_| {
                    HadasError::Internal("executor reply stream closed early".into())
                })?;
                lanes.pending -= 1;
                let lane = match reply {
                    Reply::Done { lane, index, result } => {
                        if results[index].is_none() {
                            results[index] = Some(*result); // first result wins
                        }
                        lane
                    }
                    Reply::Failed { lane, index, attempt } => {
                        lanes.issue(plan, index, attempt as usize + 1);
                        lane
                    }
                    Reply::Down { lane, index, attempt } => {
                        // The lane is gone: respawn it (the scope joins
                        // the dead thread later).
                        lanes.txs[lane] = spawn_lane(lane);
                        let a = attempt as usize;
                        if chain_of(plan, index).get(a) == Some(&AttemptFate::Crash) {
                            // On-plan crash: re-dispatch the next attempt.
                            lanes.issue(plan, index, a + 1);
                        } else if !offplan_reissued[index] {
                            // A real (off-plan) panic: self-heal with one
                            // bounded re-issue of the same attempt. The
                            // straggle chase already ran at the original
                            // enqueue, so this is a single dispatch.
                            offplan_reissued[index] = true;
                            offplan.crashes += 1;
                            offplan.respawns += 1;
                            offplan.redispatches += 1;
                            let fate =
                                chain_of(plan, index).get(a).copied().unwrap_or(AttemptFate::Ok);
                            lanes.queue.push_back(Dispatch { index, attempt, fate });
                            lanes.pending += 1;
                        }
                        lane
                    }
                };
                lanes.idle.push(lane);
                lanes.pump()?;
            }
            // Dropping `lanes` closes every dispatch channel, so each
            // worker exits its recv loop; the scope joins them all.
            stats.crashes += offplan.crashes;
            stats.respawns += offplan.respawns;
            stats.redispatches += offplan.redispatches;
            Ok(results)
        };
        outcome = Some(supervise());
    });
    match outcome {
        Some(Ok(slots)) => {
            account_dead_letters(&slots, plan, &mut stats);
            Ok((slots, stats))
        }
        Some(Err(e)) => Err(e),
        None => Err(HadasError::Internal("executor supervisor did not complete".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    /// A deterministic scripted resolver for unit tests: crash/fail
    /// schedules keyed on `(key, attempt)` membership.
    #[derive(Debug, Default)]
    struct Scripted {
        crashes: Vec<(u64, u32)>,
        fails: Vec<(u64, u32)>,
    }

    impl FaultModel for Scripted {
        fn eval_attempt(&self, key: u64, attempt: u32) -> AttemptOutcome {
            if self.fails.contains(&(key, attempt)) {
                AttemptOutcome::TransientFailure { cost_ms: 1.0 }
            } else {
                AttemptOutcome::Ok { cost_ms: 1.0 }
            }
        }
    }

    impl FateResolver for Scripted {
        fn crash_at(&self, key: u64, attempt: u32) -> bool {
            self.crashes.contains(&(key, attempt))
        }
    }

    fn specs(n: usize) -> Vec<JobSpec> {
        (0..n).map(|i| JobSpec { key: i as u64, est_ms: 1.0, weight: 1 }).collect()
    }

    fn payload(x: &u64) -> (u64, f64) {
        (x.wrapping_mul(0x9E37_79B9_7F4A_7C15), (*x as f64).sqrt() * 3.0)
    }

    #[test]
    fn results_land_in_schedule_order_for_any_worker_count() {
        let jobs: Vec<u64> = (0..40).collect();
        let (base, stats) = run_supervised(&jobs, 1, payload, None).unwrap();
        assert_eq!(stats, ExecTelemetry::default(), "a clean run needs no healing");
        for workers in [2, 3, 5, 8] {
            let (multi, _) = run_supervised(&jobs, workers, payload, None).unwrap();
            assert_eq!(base, multi, "the fold must not depend on lane count");
        }
        assert!(base.iter().all(Option::is_some));
    }

    #[test]
    fn empty_schedule_reduces_to_nothing() {
        let (out, stats) = run_supervised(&Vec::<u64>::new(), 4, payload, None).unwrap();
        assert!(out.is_empty());
        assert_eq!(stats.dead_letter_jobs, 0);
    }

    #[test]
    fn scripted_crashes_respawn_and_heal_byte_identically() {
        let jobs: Vec<u64> = (0..24).collect();
        let resolver = Scripted {
            crashes: vec![(3, 0), (11, 0), (11, 1), (17, 0)],
            fails: vec![(5, 0), (9, 0), (9, 1)],
        };
        let retry = RetryPolicy { max_attempts: 4, ..RetryPolicy::default() };
        let plan = ChaosPlan::build(&resolver, &retry, CircuitBreaker::new(8, 4), 3.0, &specs(24));
        assert_eq!(plan.stats.crashes, 4);
        assert_eq!(plan.stats.dead_letter_jobs, 0, "everything recovers in 4 attempts");
        let (clean, _) = run_supervised(&jobs, 3, payload, None).unwrap();
        for workers in [1, 2, 4, 8] {
            let (healed, stats) = run_supervised(&jobs, workers, payload, Some(&plan)).unwrap();
            assert_eq!(healed, clean, "recovery must erase the faults ({workers} workers)");
            assert_eq!(stats.crashes, 4);
            assert_eq!(stats.respawns, 4);
            assert_eq!(stats.dead_letter_units, 0);
        }
    }

    #[test]
    fn exhausted_jobs_dead_letter_into_none_slots() {
        let jobs: Vec<u64> = (0..6).collect();
        let resolver = Scripted { crashes: vec![(2, 0)], fails: Vec::new() };
        let retry = RetryPolicy { max_attempts: 1, ..RetryPolicy::default() };
        let sp: Vec<JobSpec> = (0..6).map(|i| JobSpec { key: i, est_ms: 1.0, weight: 5 }).collect();
        let plan = ChaosPlan::build(&resolver, &retry, CircuitBreaker::new(8, 4), 3.0, &sp);
        assert!(plan.dead[2], "a 1-attempt budget cannot survive the crash");
        for workers in [1, 3] {
            let (slots, stats) = run_supervised(&jobs, workers, payload, Some(&plan)).unwrap();
            assert!(slots[2].is_none(), "the dead job resolves to None, never silently lost");
            assert_eq!(slots.iter().filter(|s| s.is_some()).count(), 5);
            assert_eq!(stats.dead_letter_jobs, 1);
            assert_eq!(stats.dead_letter_units, 5);
        }
    }

    #[test]
    fn offplan_panics_are_healed_by_one_bounded_reissue() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let jobs: Vec<u64> = (0..10).collect();
        let first_hit = AtomicUsize::new(0);
        // Job 4 panics exactly once; the supervisor's bounded re-issue
        // must land it on a respawned lane.
        let flaky = |x: &u64| {
            if *x == 4 && first_hit.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("injected off-plan panic");
            }
            payload(x)
        };
        let (slots, stats) = run_supervised(&jobs, 3, flaky, None).unwrap();
        let (clean, _) = run_supervised(&jobs, 3, payload, None).unwrap();
        assert_eq!(slots, clean, "the healed run matches the clean one");
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.respawns, 1);
        assert_eq!(stats.redispatches, 1);
        assert_eq!(stats.dead_letter_jobs, 0);
    }

    /// Runs `n` jobs on two lanes. Job `blocked` waits (up to 20 s)
    /// until every other job has landed; each job counts how many jobs
    /// run at once. Returns whether every job saw its condition hold, and
    /// the peak concurrency. A dispatch handed to the blocked job's lane
    /// while it holds one could only start after it returns, so the wait
    /// would time out: passing shows that lane held one dispatch.
    fn run_with_a_blocked_job(n: usize, blocked: u64, plan: Option<&ChaosPlan>) -> (bool, usize) {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
        use std::sync::{mpsc, Mutex};
        let jobs: Vec<u64> = (0..n as u64).collect();
        let landed: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        let (others, running, peak) =
            (AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel::<()>();
        let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
        let job = |x: &u64| {
            peak.fetch_max(running.fetch_add(1, SeqCst) + 1, SeqCst);
            let ok = if *x == blocked {
                let wait = std::time::Duration::from_secs(20);
                others.load(SeqCst) == n - 1 || rx.lock().unwrap().recv_timeout(wait).is_ok()
            } else {
                let first = !landed[*x as usize].swap(true, SeqCst);
                if first && others.fetch_add(1, SeqCst) + 1 == n - 1 {
                    tx.lock().unwrap().send(()).unwrap();
                }
                true
            };
            running.fetch_sub(1, SeqCst);
            ok
        };
        let (slots, stats) = run_supervised(&jobs, 2, job, plan).unwrap();
        assert_eq!(stats.dead_letter_jobs, 0);
        (slots.iter().all(|s| *s == Some(true)), peak.load(SeqCst))
    }

    #[test]
    fn idle_lanes_pull_the_next_dispatch_from_the_shared_queue() {
        // Round-robin lanes would queue jobs 2, 4, 6 and 8 behind job 0
        // (and 6, 8 behind job 4), where they wait out the timeout.
        let resolver = Scripted {
            crashes: vec![(3, 0), (5, 0), (5, 1), (8, 0)],
            fails: vec![(2, 0), (7, 0), (7, 1)],
        };
        let retry = RetryPolicy { max_attempts: 4, ..RetryPolicy::default() };
        let plan = ChaosPlan::build(&resolver, &retry, CircuitBreaker::new(8, 4), 3.0, &specs(9));
        for blocked in [0, 4] {
            for plan in [None, Some(&plan)] {
                let (ok, peak) = run_with_a_blocked_job(9, blocked, plan);
                let chaos = plan.is_some();
                assert!(ok, "job {blocked} waited out the others (chaos {chaos})");
                assert_eq!(peak, 2, "the blocked job overlaps the rest on 2 lanes");
            }
        }
    }

    #[test]
    fn modeled_makespan_is_monotone_in_the_lane_count() {
        let sp = specs(37);
        let mut last = f64::INFINITY;
        for workers in [1usize, 2, 4, 8] {
            let m = modeled_makespan_ms(&sp, workers, None);
            assert!(m <= last, "{workers} lanes must not model slower than fewer");
            assert!(m > 0.0);
            last = m;
        }
        assert!(
            modeled_makespan_ms(&sp, 8, None) < modeled_makespan_ms(&sp, 1, None),
            "eight lanes must strictly beat one on a 37-job schedule"
        );
    }
}
