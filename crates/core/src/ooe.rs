use crate::checkpoint::SearchCheckpoint;
use crate::clock::Deadline;
use crate::executor::{
    modeled_makespan_ms, run_supervised, ChaosPlan, ExecTelemetry, FateResolver, JobSpec,
};
use crate::resilience::{CircuitBreaker, FaultModel, NoFaults, RetryPolicy, SearchTelemetry};
use crate::{
    DynamicFitness, Hadas, HadasConfig, HadasError, Ioe, IoeOutcome, IoeSolution, StaticFitness,
};
use hadas_evo::{crowding_distance, discrete, fast_non_dominated_sort, pareto_indices};
use hadas_exits::ExitPlacement;
use hadas_hw::DvfsSetting;
use hadas_space::{Genome, Subnet};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Salt separating the static-evaluation fault stream from the IOE seed
/// stream derived from the same genome hash.
const STATIC_FAULT_SALT: u64 = 0x5354_4154_4943_5f53; // "STATIC_S"
/// Salt separating a nested IOE job's executor key from its IOE seed;
/// execution-plane chaos plans are keyed by it.
const IOE_RUN_FAULT_SALT: u64 = 0x494f_455f_5255_4e5f; // "IOE_RUN_"

/// Fraction of measurements the data-chaos injector poisons with NaN.
pub(crate) const DATA_CHAOS_RATE: f64 = 0.1;

/// Salt separating the data-chaos poison stream from the fault streams.
const DATA_CHAOS_SALT: u64 = 0x4441_5441_5f43_4841; // "DATA_CHA"

/// Deterministic data-chaos poison model: whether the measurement
/// identified by `key` comes back NaN-poisoned under chaos seed `seed`.
/// Pure in `(seed, key)`, so a resumed run replays the identical poison
/// history — the quarantine path stays byte-reproducible.
pub(crate) fn chaos_poisons(seed: u64, key: u64) -> bool {
    let mut h = DefaultHasher::new();
    DATA_CHAOS_SALT.hash(&mut h);
    seed.hash(&mut h);
    key.hash(&mut h);
    let u = (h.finish() >> 11) as f64 / (1u64 << 53) as f64;
    u < DATA_CHAOS_RATE
}

/// The static fitness assigned to a backbone whose measurement never
/// landed within its retry/timeout budget: zero accuracy at prohibitive
/// cost, so it is selected away without poisoning dominance arithmetic.
const FAILED_STATIC_FITNESS: StaticFitness =
    StaticFitness { accuracy_pct: 0.0, latency_ms: 1.0e9, energy_mj: 1.0e9 };

/// Consecutive dispatch failures that open the execution-plane circuit
/// breaker during supervised evaluation phases (mirrors the serving
/// pool's default shape).
const EXEC_BREAKER_THRESHOLD: u32 = 8;
/// Jobs an open execution-plane breaker stays open for before probing.
const EXEC_BREAKER_COOLDOWN: u32 = 4;
/// Hedge factor of the supervised evaluation phases: an attempt
/// straggling past `factor × est_ms` gets a concurrent hedge on the
/// next idle lane.
const EXEC_HEDGE_FACTOR: f64 = 3.0;
/// Virtual service-time estimate of one static backbone evaluation
/// (milliseconds). Uniform on purpose: the modeled scaling curve then
/// reflects pure lane balance, not a guessed cost model.
const STATIC_EVAL_EST_MS: f64 = 1.0;

/// Worker-lane count for the supervised evaluation phases: an explicit
/// request wins; `0` auto-sizes to the host's parallelism, capped at 8
/// (the widest configuration the chaos matrix pins byte-identity for —
/// correctness holds at any width, the cap just bounds thread churn on
/// big hosts).
fn effective_workers(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    // Only sizes worker lanes — the front is byte-identical at any
    // width (tests/chaos.rs pins it), so the probe cannot leak.
    // lint:allow(det-ambient-env) reviewed
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).min(8)
}

/// One backbone evaluated by the outer engine.
#[derive(Debug, Clone)]
pub struct EvaluatedBackbone {
    /// The decoded backbone.
    pub subnet: Subnet,
    /// Its static fitness `S(b)` (eq. (3)) at default DVFS.
    pub fitness: StaticFitness,
    /// Generation at which it was first evaluated.
    pub generation: usize,
    /// The inner-engine outcome, present if this backbone was promoted
    /// past the early-selection pruning (`b' ∈ P'`).
    pub ioe: Option<IoeOutcome>,
}

/// A fully resolved `(b*, x*, f*)` solution of the joint space.
#[derive(Debug, Clone)]
pub struct JointModel {
    /// The backbone.
    pub subnet: Subnet,
    /// Static fitness of the backbone alone.
    pub static_fitness: StaticFitness,
    /// The exit placement.
    pub placement: ExitPlacement,
    /// The DVFS setting.
    pub dvfs: DvfsSetting,
    /// Dynamic fitness of the assembled DyNN.
    pub dynamic: DynamicFitness,
}

impl JointModel {
    /// The model of one IOE Pareto point of a backbone.
    fn of((b, s): (&EvaluatedBackbone, &IoeSolution)) -> Self {
        JointModel {
            subnet: b.subnet.clone(),
            static_fitness: b.fitness,
            placement: s.placement.clone(),
            dvfs: s.dvfs,
            dynamic: s.fitness,
        }
    }

    /// The model as one row of a serialized front: backbone genome, exit
    /// positions, DVFS indices, and dynamic accuracy, energy and latency.
    pub fn front_row(&self) -> serde_json::Value {
        serde_json::json!({
            "genome": self.subnet.genome().genes(),
            "exits": self.placement.positions(),
            "dvfs": {"compute": self.dvfs.compute, "emc": self.dvfs.emc},
            "accuracy_pct": self.dynamic.accuracy_pct,
            "energy_mj": self.dynamic.energy_mj,
            "latency_ms": self.dynamic.latency_ms,
        })
    }
}

/// Knobs for a fault-tolerant, resumable search run. `Default` is the
/// pre-existing behaviour: healthy substrate, no checkpointing, run to
/// budget completion.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// The substrate fault model consulted before every candidate
    /// measurement (OOE static scoring and IOE candidate scoring).
    /// [`NoFaults`] by default.
    pub faults: Arc<dyn FaultModel>,
    /// Retry/backoff/timeout schedule per candidate.
    pub retry: RetryPolicy,
    /// Where to serialize a [`SearchCheckpoint`] at every generation
    /// boundary (atomically). `None` disables checkpointing.
    pub checkpoint_path: Option<PathBuf>,
    /// Resume state loaded from a previous run's checkpoint. Must match
    /// this run's `HadasConfig` exactly.
    pub resume_from: Option<SearchCheckpoint>,
    /// Cooperative cancellation: when set, the run stops at the next
    /// generation boundary and returns the partial Pareto front.
    pub abort: Option<Arc<AtomicBool>>,
    /// Stop this call after completing this many generations (the chaos
    /// harness's deterministic "kill" point). Counted per call, so a
    /// resumed run gets its own allowance.
    pub stop_after_generations: Option<usize>,
    /// Wall-clock budget in seconds; on exhaustion the run stops at the
    /// next generation boundary with a partial front.
    pub time_budget_s: Option<f64>,
    /// Seed of the deterministic data-chaos injector: when set, a fixed
    /// fraction of candidate measurements (outer static evaluations and
    /// inner dynamic ones) come back NaN-poisoned. The engines must
    /// quarantine every poisoned fitness to the finite worst-case penalty
    /// — counted in [`SearchTelemetry::quarantined_evals`] — so the
    /// Pareto arithmetic never sees a non-finite number. `None` disables
    /// injection.
    pub data_chaos: Option<u64>,
    /// Worker lanes for the supervised evaluation phases (static
    /// population evaluations and nested IOE runs), driven through the
    /// shared [`crate::executor`]. `0` (the default) auto-sizes to the
    /// host's parallelism capped at 8. The serialized Pareto front is
    /// byte-identical at any worker count — lanes only change wall
    /// clock, never results.
    pub workers: usize,
    /// Execution-plane chaos: a [`FateResolver`] that scripts worker
    /// crashes, transient dispatch failures, and stragglers for the
    /// supervised executor (distinct from `faults`, which poisons the
    /// *measurements* themselves). Crashed lanes respawn and lost
    /// evaluations re-dispatch, so whenever nothing dead-letters the
    /// healed front is byte-identical to the fault-free run. `None`
    /// runs the executor clean.
    pub exec_chaos: Option<Arc<dyn FateResolver>>,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            faults: Arc::new(NoFaults),
            retry: RetryPolicy::default(),
            checkpoint_path: None,
            resume_from: None,
            abort: None,
            stop_after_generations: None,
            time_budget_s: None,
            data_chaos: None,
            workers: 0,
            exec_chaos: None,
        }
    }
}

/// Outcome of a full bi-level HADAS run.
#[derive(Debug, Clone)]
pub struct OoeOutcome {
    backbones: Vec<EvaluatedBackbone>,
    telemetry: SearchTelemetry,
    exec: ExecTelemetry,
    modeled_ms: f64,
}

impl OoeOutcome {
    /// Every backbone evaluated, in evaluation order (the Fig. 5 top
    /// scatter).
    pub fn backbones(&self) -> &[EvaluatedBackbone] {
        &self.backbones
    }

    /// Fault-handling and interruption telemetry of the run that
    /// produced this outcome. Informational: not part of the
    /// deterministic Pareto payload.
    pub fn telemetry(&self) -> &SearchTelemetry {
        &self.telemetry
    }

    /// Whether the run stopped early (abort flag, generation cap, or
    /// time budget) and this is a partial front.
    pub fn interrupted(&self) -> bool {
        self.telemetry.interrupted
    }

    /// Execution-plane resilience telemetry of the supervised evaluation
    /// phases: crashes healed, lanes respawned, retries, hedges, and
    /// dead letters. Zero everywhere on a clean run. Informational, like
    /// [`OoeOutcome::telemetry`].
    pub fn exec_telemetry(&self) -> &ExecTelemetry {
        &self.exec
    }

    /// Deterministic virtual-time makespan of every supervised
    /// evaluation phase, in modeled milliseconds: each phase's jobs are
    /// dealt round-robin over the worker lanes and the slowest lane is
    /// charged. A pure function of `(config, seed, workers, chaos)` —
    /// no wall clock — so generation-throughput scaling curves derived
    /// from it reproduce bit-for-bit on any host.
    pub fn modeled_makespan_ms(&self) -> f64 {
        self.modeled_ms
    }

    /// Static plot axes `[accuracy, −energy]` of the whole history.
    pub fn static_axes(&self) -> Vec<Vec<f64>> {
        self.backbones.iter().map(|b| b.fitness.to_plot_axes()).collect()
    }

    /// The static Pareto front over `[accuracy, −energy]` (Fig. 5 top).
    pub fn static_pareto(&self) -> Vec<&EvaluatedBackbone> {
        pareto_indices(&self.static_axes()).into_iter().map(|i| &self.backbones[i]).collect()
    }

    /// Every IOE Pareto point with its backbone, in evaluation order.
    fn joint_points(&self) -> Vec<(&EvaluatedBackbone, &IoeSolution)> {
        let mut out = Vec::new();
        for b in &self.backbones {
            if let Some(ioe) = &b.ioe {
                out.extend(ioe.pareto.iter().map(|s| (b, s)));
            }
        }
        out
    }

    /// All `(b, x, f)` combinations discovered by the nested IOEs.
    pub fn joint_models(&self) -> Vec<JointModel> {
        self.joint_points().into_iter().map(JointModel::of).collect()
    }

    /// The final Pareto set over (dynamic accuracy, −dynamic energy) —
    /// the `(b*, x*, f*)` solutions the paper returns at generation `G`.
    /// On an interrupted run this is the partial front over everything
    /// evaluated so far — graceful degradation, never an empty panic.
    /// Only the front's models are built.
    pub fn pareto_models(&self) -> Vec<JointModel> {
        let points = self.joint_points();
        let axes: Vec<[f64; 2]> =
            points.iter().map(|(_, s)| [s.fitness.accuracy_pct, -s.fitness.energy_mj]).collect();
        pareto_indices(&axes).into_iter().map(|i| JointModel::of(points[i])).collect()
    }
}

/// The outer optimization engine (paper §IV-A): NSGA-II over the backbone
/// space **B** with nested IOE invocations for promoted candidates.
#[derive(Debug)]
pub struct Ooe<'a> {
    hadas: &'a Hadas,
    config: HadasConfig,
}

/// Mutable engine state at a generation boundary — exactly what a
/// [`SearchCheckpoint`] captures.
struct EngineState {
    generation: usize,
    rng: StdRng,
    population: Vec<Genome>,
    history: Vec<EvaluatedBackbone>,
    // Ordered on purpose: hash iteration order is per-process random,
    // and this map feeds checkpoint/resume state.
    seen: BTreeMap<Vec<usize>, usize>,
}

/// One static-evaluation job handed to the supervised executor: a
/// not-yet-seen genome, decoded, with its content-derived fault key
/// (stable across worker counts and resume).
struct StaticEvalJob {
    genes: Vec<usize>,
    subnet: Subnet,
    fault_key: u64,
}

/// One nested-IOE job handed to the supervised executor.
struct IoeEvalJob {
    history_idx: usize,
    subnet: Subnet,
    seed: u64,
}

impl<'a> Ooe<'a> {
    /// Creates an outer engine.
    pub fn new(hadas: &'a Hadas, config: HadasConfig) -> Self {
        Ooe { hadas, config }
    }

    /// Resolves the execution-plane chaos script for one supervised
    /// phase — a pure function of `(resolver, retry, specs)`, so the
    /// recovery choreography replays identically at every worker count.
    /// `None` (no exec chaos) runs each job as a single clean attempt.
    fn exec_plan(&self, opts: &SearchOptions, specs: &[JobSpec]) -> Option<ChaosPlan> {
        opts.exec_chaos.as_ref().map(|resolver| {
            ChaosPlan::build(
                resolver.as_ref(),
                &opts.retry,
                CircuitBreaker::new(EXEC_BREAKER_THRESHOLD, EXEC_BREAKER_COOLDOWN),
                EXEC_HEDGE_FACTOR,
                specs,
            )
        })
    }

    fn static_fitness(&self, subnet: &Subnet) -> Result<StaticFitness, HadasError> {
        let device = self.hadas.device();
        let cost = device.subnet_cost(subnet, &device.default_dvfs())?;
        Ok(StaticFitness {
            accuracy_pct: self.hadas.accuracy().backbone_accuracy(subnet),
            latency_ms: cost.latency_ms(),
            energy_mj: cost.energy_mj(),
        })
    }

    fn genome_seed(&self, genome: &Genome) -> u64 {
        let mut h = DefaultHasher::new();
        genome.genes().hash(&mut h);
        self.config.seed.hash(&mut h);
        h.finish()
    }

    /// Restores engine state from a checkpoint, or seeds a fresh run.
    fn initial_state(&self, opts: &SearchOptions) -> Result<EngineState, HadasError> {
        let space = self.hadas.space();
        let pop_size = self.config.ooe.population;
        match &opts.resume_from {
            Some(ckpt) => {
                ckpt.validate_against(&self.config)?;
                if ckpt.population.len() != pop_size {
                    return Err(HadasError::Checkpoint(format!(
                        "checkpoint population {} does not match configured population {pop_size}",
                        ckpt.population.len()
                    )));
                }
                let history = ckpt.restore_history(space)?;
                let seen = history
                    .iter()
                    .enumerate()
                    .map(|(i, b)| (b.subnet.genome().genes().to_vec(), i))
                    .collect();
                Ok(EngineState {
                    generation: ckpt.generation,
                    rng: StdRng::from_state(ckpt.rng_state),
                    population: ckpt.population.iter().cloned().map(Genome::from_genes).collect(),
                    history,
                    seen,
                })
            }
            None => {
                let mut rng = StdRng::seed_from_u64(self.config.seed);
                let population = (0..pop_size).map(|_| space.sample(&mut rng)).collect();
                Ok(EngineState {
                    generation: 0,
                    rng,
                    population,
                    history: Vec::new(),
                    seen: BTreeMap::new(),
                })
            }
        }
    }

    fn write_checkpoint(
        &self,
        opts: &SearchOptions,
        state: &EngineState,
    ) -> Result<(), HadasError> {
        let Some(path) = &opts.checkpoint_path else { return Ok(()) };
        let genes: Vec<Vec<usize>> = state.population.iter().map(|g| g.genes().to_vec()).collect();
        let ckpt = SearchCheckpoint::capture(
            &self.config,
            state.generation,
            state.rng.state(),
            &genes,
            &state.history,
        );
        Ok(crate::seal::write(path, &ckpt)?)
    }

    fn should_stop(opts: &SearchOptions, deadline: &Deadline, ran_this_call: usize) -> bool {
        if opts.abort.as_ref().is_some_and(|f| f.load(Ordering::Relaxed)) {
            return true;
        }
        if opts.stop_after_generations.is_some_and(|n| ran_this_call >= n) {
            return true;
        }
        deadline.expired()
    }

    /// Runs the bi-level search on a healthy substrate with no
    /// checkpointing — [`Ooe::run_with`] with default [`SearchOptions`].
    ///
    /// # Errors
    ///
    /// Returns configuration or evaluation errors.
    pub fn run(&self) -> Result<OoeOutcome, HadasError> {
        self.run_with(&SearchOptions::default())
    }

    /// Runs the bi-level search under explicit robustness options:
    /// fault-injected candidate scoring with retry/backoff/timeout,
    /// per-generation checkpointing, resume, and graceful early stop
    /// with a partial Pareto front.
    ///
    /// Per generation: evaluate `S` for the population, rank and prune to
    /// `P'` (early selection), run an IOE per promoted backbone (cached
    /// across generations, executed in parallel), re-rank by combined
    /// static + dynamic objectives into `P''`, then mutate/cross over to
    /// form the next population.
    ///
    /// Determinism: given the same `HadasConfig` and a fault model that
    /// is a pure function of `(key, attempt)`, a run killed at any
    /// generation boundary and resumed from its checkpoint produces a
    /// byte-identical Pareto front to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns configuration, checkpoint, or evaluation errors. Transient
    /// substrate faults are absorbed (retried, then degraded), not
    /// returned.
    pub fn run_with(&self, opts: &SearchOptions) -> Result<OoeOutcome, HadasError> {
        self.config.validate()?;
        opts.retry.validate()?;
        let space = self.hadas.space();
        let cards = space.gene_cardinalities();
        let pop_size = self.config.ooe.population;
        let generations = self.config.ooe.generations();
        // All wall-clock reads live behind the clock boundary.
        let deadline = Deadline::from_budget(opts.time_budget_s);
        let mut telemetry = SearchTelemetry::default();
        let mut exec = ExecTelemetry::default();
        let mut modeled_ms = 0.0f64;
        let lanes = effective_workers(opts.workers);

        let mut state = self.initial_state(opts)?;

        let mut ran_this_call = 0usize;
        let mut completed = state.generation >= generations;
        while state.generation < generations {
            // Persist the exact state needed to (re-)run this generation;
            // a kill anywhere inside it resumes from this boundary.
            self.write_checkpoint(opts, &state)?;
            if Self::should_stop(opts, &deadline, ran_this_call) {
                telemetry.interrupted = true;
                break;
            }
            let generation = state.generation;

            // Static evaluation, driven through the supervised executor:
            // unique unseen genomes become jobs in first-appearance order,
            // the retry-with-backoff measurement is the (pure) job
            // closure, and the fold back into history runs on this thread
            // in job order — so history order, telemetry, quarantine, and
            // surfaced errors are identical at every worker count.
            let mut planned: BTreeMap<Vec<usize>, usize> = BTreeMap::new();
            let mut jobs: Vec<StaticEvalJob> = Vec::new();
            for genome in &state.population {
                let key = genome.genes().to_vec();
                if state.seen.contains_key(&key) || planned.contains_key(&key) {
                    continue;
                }
                let subnet = space.decode(genome)?;
                let fault_key = self.genome_seed(genome) ^ STATIC_FAULT_SALT;
                planned.insert(key, jobs.len());
                jobs.push(StaticEvalJob { genes: genome.genes().to_vec(), subnet, fault_key });
            }
            let specs: Vec<JobSpec> = jobs
                .iter()
                .map(|j| JobSpec { key: j.fault_key, est_ms: STATIC_EVAL_EST_MS, weight: 1 })
                .collect();
            let plan = self.exec_plan(opts, &specs);
            modeled_ms += modeled_makespan_ms(&specs, lanes, plan.as_ref());
            let (slots, phase_exec) = run_supervised(
                &jobs,
                lanes,
                |job| {
                    opts.retry.run(opts.faults.as_ref(), job.fault_key, || {
                        self.static_fitness(&job.subnet)
                    })
                },
                plan.as_ref(),
            )?;
            exec.merge(&phase_exec);
            for (job, slot) in jobs.into_iter().zip(slots) {
                let fitness = match slot {
                    Some(Ok((value, receipt))) => {
                        let exhausted = value.is_none();
                        telemetry.absorb(&receipt, exhausted);
                        let mut fitness = value.unwrap_or(FAILED_STATIC_FITNESS);
                        // Data chaos: a poisoned measurement comes back
                        // NaN; the quarantine below must catch it.
                        if let Some(chaos) = opts.data_chaos {
                            if chaos_poisons(chaos, job.fault_key) {
                                fitness.accuracy_pct = f64::NAN;
                            }
                        }
                        // NaN-fitness quarantine: a non-finite vector
                        // would satisfy no ordering axiom and could sit
                        // unchallenged in release-mode dominance sorts.
                        // Degrade it to the finite worst case instead.
                        if !fitness.is_finite() {
                            telemetry.quarantined_evals += 1;
                            fitness = FAILED_STATIC_FITNESS;
                        }
                        fitness
                    }
                    Some(Err(e)) => return Err(e),
                    // Dead-lettered by the execution plane (every
                    // dispatch attempt crashed or failed): degrade like
                    // an exhausted measurement.
                    None => {
                        telemetry.exhausted_evals += 1;
                        FAILED_STATIC_FITNESS
                    }
                };
                state.history.push(EvaluatedBackbone {
                    subnet: job.subnet,
                    fitness,
                    generation,
                    ioe: None,
                });
                state.seen.insert(job.genes, state.history.len() - 1);
            }
            let mut indices = Vec::with_capacity(state.population.len());
            for genome in &state.population {
                let idx = *state.seen.get(genome.genes()).ok_or_else(|| {
                    HadasError::Internal("a population genome vanished from the eval index".into())
                })?;
                indices.push(idx);
            }

            // Early selection: rank by the full static vector of eq. (3).
            let pts: Vec<Vec<f64>> =
                indices.iter().map(|&i| state.history[i].fitness.to_maximisation()).collect();
            let order = rank_order(&pts);
            let promote =
                ((pop_size as f64 * self.config.prune_fraction).ceil() as usize).clamp(1, pop_size);
            let promoted: Vec<usize> = order.iter().take(promote).map(|&k| indices[k]).collect();

            // Nested IOEs for promoted backbones, driven through the same
            // supervised executor; each outcome lands on the backbone's one
            // history entry, which carries it across generations and resume.
            // Substrate faults are retried per candidate inside the IOE; the
            // executor handles execution-plane failures of the job. The fold
            // below runs in job order on this thread, so stored outcomes,
            // telemetry (including the float overhead sum), and the surfaced
            // error no longer depend on completion order.
            let ioe_jobs: Vec<IoeEvalJob> = promoted
                .iter()
                .copied()
                .filter(|&i| state.history[i].ioe.is_none())
                .map(|i| {
                    let subnet = state.history[i].subnet.clone();
                    let seed = self.genome_seed(subnet.genome());
                    IoeEvalJob { history_idx: i, subnet, seed }
                })
                .collect();
            let specs: Vec<JobSpec> = ioe_jobs
                .iter()
                .map(|j| JobSpec {
                    key: j.seed ^ IOE_RUN_FAULT_SALT,
                    // One inner run costs its candidate budget in virtual
                    // time; this keeps the modeled scaling curve honest
                    // about IOEs dominating a generation.
                    est_ms: self.config.ioe.iterations as f64,
                    weight: 1,
                })
                .collect();
            let plan = self.exec_plan(opts, &specs);
            modeled_ms += modeled_makespan_ms(&specs, lanes, plan.as_ref());
            let (slots, phase_exec) = run_supervised(
                &ioe_jobs,
                lanes,
                |job| {
                    Ioe::new(self.hadas, job.subnet.clone(), self.config.clone()).run_with(
                        job.seed,
                        opts.faults.as_ref(),
                        &opts.retry,
                        opts.data_chaos,
                    )
                },
                plan.as_ref(),
            )?;
            exec.merge(&phase_exec);
            // Keyed on the (deterministic) history index, not completion
            // order, so the surfaced error is the same at every worker
            // count.
            let mut errors: BTreeMap<usize, HadasError> = BTreeMap::new();
            for (job, slot) in ioe_jobs.into_iter().zip(slots) {
                match slot {
                    Some(Ok((outcome, inner))) => {
                        state.history[job.history_idx].ioe = Some(outcome);
                        telemetry.retried_evals += inner.retried_evals;
                        telemetry.transient_failures += inner.transient_failures;
                        telemetry.timeouts += inner.timeouts;
                        telemetry.exhausted_evals += inner.exhausted_evals;
                        telemetry.quarantined_evals += inner.quarantined_evals;
                        telemetry.fault_overhead_ms += inner.fault_overhead_ms;
                    }
                    Some(Err(e)) => {
                        errors.insert(job.history_idx, e);
                    }
                    // Dead-lettered by the execution plane: the backbone
                    // is skipped this generation, retryable next one.
                    None => telemetry.exhausted_evals += 1,
                }
            }
            // Surface the error of the lowest-indexed failed backbone.
            if let Some((_, e)) = errors.into_iter().next() {
                return Err(e);
            }

            ran_this_call += 1;
            telemetry.generations_completed += 1;
            if generation + 1 == generations {
                state.generation = generations;
                completed = true;
                break;
            }

            // Combined selection (P''): accuracy, energy, and the best
            // dynamic gain the backbone's IOE achieved. Kept to three
            // decorrelated objectives — with more, non-dominated sorting
            // degenerates (nearly every point lands in front 0) and the
            // selection pressure toward exit-friendly backbones vanishes.
            let combined: Vec<Vec<f64>> = indices
                .iter()
                .map(|&i| {
                    let best_gain = state.history[i]
                        .ioe
                        .as_ref()
                        // lint:allow(det-float-order) max is order-insensitive
                        .map(|o| o.pareto.iter().fold(0.0f64, |g, s| g.max(s.fitness.energy_gain)))
                        .unwrap_or(0.0);
                    vec![
                        state.history[i].fitness.accuracy_pct,
                        -state.history[i].fitness.energy_mj,
                        best_gain,
                    ]
                })
                .collect();
            let order = rank_order(&combined);
            let survivors: Vec<&Genome> =
                order.iter().take((pop_size / 2).max(2)).map(|&k| &state.population[k]).collect();

            // Mutation and crossover build the next population.
            let mut next: Vec<Genome> = survivors.iter().map(|&g| g.clone()).collect();
            while next.len() < pop_size {
                let a = survivors[state.rng.gen_range(0..survivors.len())];
                let b = survivors[state.rng.gen_range(0..survivors.len())];
                let genes = if state.rng.gen_bool(0.9) {
                    let child = discrete::uniform_crossover(&mut state.rng, a.genes(), b.genes());
                    discrete::reset_mutation(&mut state.rng, &child, &cards, 0.08)
                } else {
                    discrete::reset_mutation(&mut state.rng, a.genes(), &cards, 0.15)
                };
                next.push(Genome::from_genes(genes));
            }
            state.population = next;
            state.generation = generation + 1;
        }

        if completed {
            // A terminal checkpoint (generation == budget) makes resuming
            // a finished run a cheap no-op replay of its stored history.
            self.write_checkpoint(opts, &state)?;
        }
        Ok(OoeOutcome { backbones: state.history, telemetry, exec, modeled_ms })
    }
}

/// Orders point indices by (non-domination rank, descending crowding
/// distance) — NSGA-II's total preorder, best first.
fn rank_order(points: &[Vec<f64>]) -> Vec<usize> {
    let fronts = fast_non_dominated_sort(points);
    let mut order = Vec::with_capacity(points.len());
    for front in fronts {
        let d = crowding_distance(points, &front);
        let mut keyed: Vec<(usize, f64)> = front.iter().copied().zip(d).collect();
        keyed.sort_by(|a, b| b.1.total_cmp(&a.1));
        order.extend(keyed.into_iter().map(|(i, _)| i));
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::AttemptOutcome;
    use hadas_hw::HwTarget;

    fn quick_run(seed: u64) -> OoeOutcome {
        let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
        hadas.run(&HadasConfig::smoke_test().with_seed(seed)).unwrap()
    }

    #[test]
    fn run_produces_joint_models() {
        let out = quick_run(11);
        assert!(!out.backbones().is_empty());
        assert!(!out.joint_models().is_empty(), "promoted backbones must carry IOE results");
        assert!(!out.pareto_models().is_empty());
        assert!(!out.interrupted());
        assert_eq!(out.telemetry().exhausted_evals, 0, "healthy substrate: no give-ups");
    }

    #[test]
    fn static_pareto_is_non_dominated() {
        let out = quick_run(12);
        let front: Vec<Vec<f64>> =
            out.static_pareto().iter().map(|b| b.fitness.to_plot_axes()).collect();
        for a in &front {
            for b in &front {
                assert!(!hadas_evo::dominates(a, b));
            }
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = quick_run(13);
        let b = quick_run(13);
        let pa: Vec<f64> = a.pareto_models().iter().map(|m| m.dynamic.energy_mj).collect();
        let pb: Vec<f64> = b.pareto_models().iter().map(|m| m.dynamic.energy_mj).collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn pareto_models_equal_filtering_every_joint_model() {
        let out = quick_run(12);
        let all = out.joint_models();
        let axes: Vec<Vec<f64>> =
            all.iter().map(|m| vec![m.dynamic.accuracy_pct, -m.dynamic.energy_mj]).collect();
        let filtered: Vec<String> =
            pareto_indices(&axes).into_iter().map(|i| format!("{:?}", all[i])).collect();
        let front: Vec<String> = out.pareto_models().iter().map(|m| format!("{m:?}")).collect();
        assert!(front.len() > 1 && front.len() < all.len(), "{} of {}", front.len(), all.len());
        assert_eq!(front, filtered);
    }

    #[test]
    fn pareto_models_save_energy_over_their_backbone() {
        let out = quick_run(14);
        let best = out
            .pareto_models()
            .into_iter()
            .max_by(|a, b| a.dynamic.energy_gain.total_cmp(&b.dynamic.energy_gain))
            .unwrap();
        assert!(
            best.dynamic.energy_gain > 0.2,
            "joint search should find strong savings, got {}",
            best.dynamic.energy_gain
        );
    }

    #[test]
    fn rank_order_puts_dominating_points_first() {
        let pts = vec![vec![1.0, 1.0], vec![3.0, 3.0], vec![2.0, 2.0]];
        let order = rank_order(&pts);
        assert_eq!(order[0], 1);
        assert_eq!(order[2], 0);
    }

    #[test]
    fn abort_flag_emits_a_partial_front() {
        let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
        let flag = Arc::new(AtomicBool::new(true));
        let opts = SearchOptions { abort: Some(Arc::clone(&flag)), ..Default::default() };
        let out = Ooe::new(&hadas, HadasConfig::smoke_test()).run_with(&opts).unwrap();
        assert!(out.interrupted(), "pre-set abort flag must stop at the first boundary");
        assert!(out.backbones().is_empty(), "nothing was evaluated before the stop");
        assert!(out.pareto_models().is_empty());
    }

    #[test]
    fn stop_after_generations_caps_the_call() {
        let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
        let cfg = HadasConfig::smoke_test(); // 4 generations
        let opts = SearchOptions { stop_after_generations: Some(1), ..Default::default() };
        let out = Ooe::new(&hadas, cfg).run_with(&opts).unwrap();
        assert!(out.interrupted());
        assert_eq!(out.telemetry().generations_completed, 1);
        assert!(!out.backbones().is_empty(), "one full generation of evaluations");
        assert!(out.backbones().iter().all(|b| b.generation == 0));
    }

    /// Every attempt fails: all candidates must degrade, none may kill
    /// the engine, and the outcome is an empty-but-well-formed front.
    #[derive(Debug)]
    struct AlwaysDown;
    impl FaultModel for AlwaysDown {
        fn eval_attempt(&self, _key: u64, _attempt: u32) -> AttemptOutcome {
            AttemptOutcome::TransientFailure { cost_ms: 50.0 }
        }
    }

    fn front_energies(out: &OoeOutcome) -> Vec<f64> {
        out.pareto_models().iter().map(|m| m.dynamic.energy_mj).collect()
    }

    #[test]
    fn worker_count_never_changes_the_front() {
        let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
        let cfg = HadasConfig::smoke_test().with_seed(31);
        let sequential = Ooe::new(&hadas, cfg.clone())
            .run_with(&SearchOptions { workers: 1, ..Default::default() })
            .unwrap();
        assert_eq!(sequential.exec_telemetry(), &ExecTelemetry::default());
        assert!(sequential.modeled_makespan_ms() > 0.0);
        for workers in [2, 4, 8] {
            let parallel = Ooe::new(&hadas, cfg.clone())
                .run_with(&SearchOptions { workers, ..Default::default() })
                .unwrap();
            assert_eq!(front_energies(&sequential), front_energies(&parallel));
            assert_eq!(sequential.backbones().len(), parallel.backbones().len());
            assert!(
                parallel.modeled_makespan_ms() <= sequential.modeled_makespan_ms(),
                "more lanes can only shrink the modeled makespan"
            );
        }
    }

    /// An execution-plane fate resolver that crashes the first attempt
    /// of every fourth job (by fault key) and never touches the
    /// measurement plane.
    #[derive(Debug)]
    struct QuarterCrasher;
    impl FaultModel for QuarterCrasher {
        fn eval_attempt(&self, _key: u64, _attempt: u32) -> AttemptOutcome {
            AttemptOutcome::Ok { cost_ms: 1.0 }
        }
    }
    impl crate::executor::FateResolver for QuarterCrasher {
        fn crash_at(&self, key: u64, attempt: u32) -> bool {
            attempt == 0 && key.is_multiple_of(4)
        }
    }

    #[test]
    fn exec_chaos_heals_to_the_fault_free_front() {
        let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
        let cfg = HadasConfig::smoke_test().with_seed(33);
        let clean = Ooe::new(&hadas, cfg.clone())
            .run_with(&SearchOptions { workers: 2, ..Default::default() })
            .unwrap();
        let chaotic = Ooe::new(&hadas, cfg)
            .run_with(&SearchOptions {
                workers: 4,
                exec_chaos: Some(Arc::new(QuarterCrasher)),
                ..Default::default()
            })
            .unwrap();
        let exec = chaotic.exec_telemetry();
        assert!(exec.crashes > 0, "a quarter of the jobs must crash once");
        assert_eq!(exec.respawns, exec.crashes, "every crash respawns its lane");
        assert_eq!(exec.dead_letter_jobs, 0, "first-attempt crashes always recover");
        assert_eq!(
            front_energies(&clean),
            front_energies(&chaotic),
            "healed execution chaos must be invisible in the front"
        );
        assert_eq!(clean.backbones().len(), chaotic.backbones().len());
        assert_eq!(clean.telemetry().quarantined_evals, chaotic.telemetry().quarantined_evals);
    }

    #[test]
    fn data_chaos_quarantines_nan_fitness_and_stays_deterministic() {
        let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
        let cfg = HadasConfig::smoke_test().with_seed(21);
        let opts = SearchOptions { data_chaos: Some(77), ..Default::default() };
        let out = Ooe::new(&hadas, cfg.clone()).run_with(&opts).unwrap();
        assert!(
            out.telemetry().quarantined_evals > 0,
            "chaos rate {DATA_CHAOS_RATE} over a whole run must poison something"
        );
        // Every fitness the outcome carries is finite: quarantine caught
        // all injected NaNs before they reached dominance arithmetic.
        for b in out.backbones() {
            assert!(b.fitness.is_finite(), "non-finite fitness escaped quarantine");
        }
        for m in out.pareto_models() {
            assert!(m.dynamic.accuracy_pct.is_finite());
            assert!(m.dynamic.energy_mj.is_finite());
        }
        // The poison stream is pure in (seed, key): identical runs agree.
        let again = Ooe::new(&hadas, cfg).run_with(&opts).unwrap();
        assert_eq!(out.telemetry().quarantined_evals, again.telemetry().quarantined_evals);
        let pa: Vec<f64> = out.pareto_models().iter().map(|m| m.dynamic.energy_mj).collect();
        let pb: Vec<f64> = again.pareto_models().iter().map(|m| m.dynamic.energy_mj).collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn chaos_poison_stream_is_pure_and_hits_the_configured_rate() {
        let hits = (0..20_000).filter(|&k| chaos_poisons(5, k)).count();
        let rate = hits as f64 / 20_000.0;
        assert!(
            (rate - DATA_CHAOS_RATE).abs() < 0.02,
            "empirical poison rate {rate} far from {DATA_CHAOS_RATE}"
        );
        for k in 0..100 {
            assert_eq!(chaos_poisons(9, k), chaos_poisons(9, k));
        }
        // Different seeds give different streams.
        let a: Vec<bool> = (0..256).map(|k| chaos_poisons(1, k)).collect();
        let b: Vec<bool> = (0..256).map(|k| chaos_poisons(2, k)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn a_dead_substrate_degrades_instead_of_erroring() {
        let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
        let mut cfg = HadasConfig::smoke_test();
        cfg.ooe = crate::EngineBudget::new(6, 12); // keep it tiny
        cfg.ioe = crate::EngineBudget::new(4, 8);
        let opts = SearchOptions { faults: Arc::new(AlwaysDown), ..Default::default() };
        let out = Ooe::new(&hadas, cfg).run_with(&opts).unwrap();
        assert!(out.telemetry().exhausted_evals > 0);
        assert!(out.telemetry().transient_failures > 0);
        assert!(
            out.joint_models().is_empty(),
            "nothing can be measured on a dead substrate, but the run still finishes"
        );
    }

    #[test]
    fn a_dead_backbone_runs_its_ioe_once() {
        let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
        let mut cfg = HadasConfig::smoke_test();
        cfg.ooe = crate::EngineBudget::new(6, 12);
        cfg.ioe = crate::EngineBudget::new(4, 8);
        let opts = SearchOptions { faults: Arc::new(AlwaysDown), ..Default::default() };
        let out = Ooe::new(&hadas, cfg).run_with(&opts).unwrap();
        let ioe_evals: usize =
            out.backbones().iter().filter_map(|b| b.ioe.as_ref()).map(|o| o.history.len()).sum();
        assert!(ioe_evals > 0, "promoted backbones run their IOE even on a dead substrate");
        assert_eq!(
            out.telemetry().exhausted_evals,
            out.backbones().len() + ioe_evals,
            "every static and IOE candidate gives up exactly once"
        );
    }
}
