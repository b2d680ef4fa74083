use crate::dynmodel::BackboneTable;
use crate::resilience::{FaultModel, NoFaults, RetryPolicy, SearchTelemetry};
use crate::{DynamicFitness, Hadas, HadasConfig, HadasError};
use hadas_evo::{discrete, Nsga2, Nsga2Config, Problem};
use hadas_exits::{ExitPlacement, MIN_EXIT_POSITION};
use hadas_hw::DvfsSetting;
use hadas_space::Subnet;
use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// One explored point of the inner space: an exit placement, a DVFS
/// setting, and its dynamic fitness.
#[derive(Debug, Clone, PartialEq)]
pub struct IoeSolution {
    /// The exit placement `x`.
    pub placement: ExitPlacement,
    /// The DVFS setting `f`.
    pub dvfs: DvfsSetting,
    /// The dynamic fitness `D(x, f | b)`.
    pub fitness: DynamicFitness,
}

/// Outcome of one inner-engine run for a fixed backbone.
#[derive(Debug, Clone)]
pub struct IoeOutcome {
    /// Every `(x, f)` point evaluated, in evaluation order (the Fig. 5
    /// bottom scatter).
    pub history: Vec<IoeSolution>,
    /// The Pareto-optimal subset returned to the OOE (paper §IV-B.4).
    pub pareto: Vec<IoeSolution>,
}

impl IoeOutcome {
    /// Plot-axis vectors `[energy_gain, mean N_i]` of the whole history.
    pub fn history_axes(&self) -> Vec<Vec<f64>> {
        self.history.iter().map(|s| s.fitness.to_plot_axes()).collect()
    }

    /// Plot-axis vectors of the Pareto subset.
    pub fn pareto_axes(&self) -> Vec<Vec<f64>> {
        self.pareto.iter().map(|s| s.fitness.to_plot_axes()).collect()
    }

    /// The Pareto solution with the largest energy gain.
    pub fn best_energy(&self) -> Option<&IoeSolution> {
        self.pareto.iter().max_by(|a, b| a.fitness.energy_gain.total_cmp(&b.fitness.energy_gain))
    }

    /// The Pareto solution with the highest dynamic accuracy.
    pub fn best_accuracy(&self) -> Option<&IoeSolution> {
        self.pareto.iter().max_by(|a, b| a.fitness.accuracy_pct.total_cmp(&b.fitness.accuracy_pct))
    }
}

/// The inner optimization engine: NSGA-II over the joint `X × F` subspace
/// of one backbone (paper §IV-B).
///
/// Genome layout: the paper's indicators `[I_1 … I_{M−1}]`, one per
/// candidate exit position `5..=Σl`, packed into a 64-bit mask (bit `k`
/// is position `MIN_EXIT_POSITION + k`), then two ordered genes indexing
/// the device's compute and EMC frequency ladders. A candidate is a
/// 24-byte `Copy` value, so breeding and measuring one allocates nothing
/// for the genome. The mask caps the engine at 64 candidate positions
/// (68 MBConv layers); it needs at least 6 layers, the fewest that admit
/// a valid placement. Every run rejects a backbone outside that range
/// before breeding anything.
///
/// The operators draw as if each indicator were its own `usize` gene, in
/// gene order (bits low to high, then compute, then EMC): sampling draws
/// one Bernoulli per bit and then the two ladder indices; crossover one
/// fair coin per gene; mutation one reset draw (and redraw) per bit, with
/// a forced flip when none hit, then a step or reset move of the DVFS
/// pair. The noise and fault keys hash the unpacked genes.
#[derive(Debug, Clone)]
pub struct Ioe<'a> {
    hadas: &'a Hadas,
    subnet: Subnet,
    config: HadasConfig,
}

/// One candidate `(x, f)` of the inner space (see [`Ioe`]'s genome
/// layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ExitGenome {
    /// Exit indicators: bit `k` set places an exit at position
    /// `MIN_EXIT_POSITION + k`.
    exits: u64,
    /// Compute-ladder index.
    compute: usize,
    /// EMC-ladder index.
    emc: usize,
}

/// The shape of one backbone's genomes, and the genetic operators over
/// them.
#[derive(Debug, Clone, Copy)]
struct Layout {
    /// Candidate exit positions, `1..=MAX_INDICATORS`.
    indicators: usize,
    /// Compute and EMC ladder lengths.
    ladders: [usize; 2],
}

impl Layout {
    /// The most indicators one packed genome holds.
    const MAX_INDICATORS: usize = u64::BITS as usize;

    fn sample(&self, rng: &mut dyn RngCore) -> ExitGenome {
        let mut exits = 0;
        for k in 0..self.indicators {
            if rng.gen_bool(0.18) {
                exits |= 1 << k;
            }
        }
        let compute = rng.gen_range(0..self.ladders[0]);
        ExitGenome { exits, compute, emc: rng.gen_range(0..self.ladders[1]) }
    }

    fn crossover(&self, rng: &mut dyn RngCore, a: &ExitGenome, b: &ExitGenome) -> ExitGenome {
        let mut from_a = 0u64;
        for k in 0..self.indicators {
            if rng.gen_bool(0.5) {
                from_a |= 1 << k;
            }
        }
        let exits = (a.exits & from_a) | (b.exits & !from_a);
        let compute = if rng.gen_bool(0.5) { a.compute } else { b.compute };
        ExitGenome { exits, compute, emc: if rng.gen_bool(0.5) { a.emc } else { b.emc } }
    }

    /// Indicators: reset-style bit flips; DVFS: ordered step moves with
    /// occasional resets to escape local ladders.
    fn mutate(&self, rng: &mut dyn RngCore, genome: &ExitGenome) -> ExitGenome {
        let n = self.indicators;
        let rate = (1.5 / n as f64).clamp(0.0, 1.0);
        let mut exits = genome.exits;
        let mut flipped = false;
        for k in 0..n {
            if rng.gen_bool(rate) {
                // The redraw of a two-choice gene always lands on the
                // other value; it is drawn to keep the stream.
                rng.gen_range(0..1usize);
                exits ^= 1 << k;
                flipped = true;
            }
        }
        if !flipped {
            // Force one flip, drawn as the forced redraw of one gene.
            let k = rng.gen_range(0..n);
            rng.gen_range(0..1usize);
            exits ^= 1 << k;
        }
        let mut dvfs = [genome.compute, genome.emc];
        if rng.gen_bool(0.3) {
            discrete::reset_mutation_in_place(rng, &mut dvfs, &self.ladders, 0.5);
        } else {
            discrete::step_mutation_in_place(rng, &mut dvfs, &self.ladders, 0.7);
        }
        ExitGenome { exits, compute: dvfs[0], emc: dvfs[1] }
    }

    /// The genome as the `usize` genes it packs: one 0/1 word per
    /// indicator, then the two ladder indices.
    fn unpack<'b>(
        &self,
        genome: &ExitGenome,
        words: &'b mut [usize; Self::MAX_INDICATORS + 2],
    ) -> &'b [usize] {
        let n = self.indicators;
        for (k, w) in words[..n].iter_mut().enumerate() {
            *w = usize::from(genome.exits >> k & 1 == 1);
        }
        words[n] = genome.compute;
        words[n + 1] = genome.emc;
        &words[..n + 2]
    }

    /// One candidate's stream keys from a single hash of its unpacked
    /// genes and the backbone genes: the quality-noise key (that hash)
    /// and the fault-stream key (the same hash continued with the run's
    /// `salt`), which also keys data chaos. Pure, so a resumed search
    /// replays identical noise and fault histories for identical
    /// candidates.
    fn keys(&self, genome: &ExitGenome, backbone: &[usize], salt: u64) -> (u64, u64) {
        let mut words = [0; Self::MAX_INDICATORS + 2];
        let mut h = DefaultHasher::new();
        self.unpack(genome, &mut words).hash(&mut h);
        backbone.hash(&mut h);
        // `finish` leaves the state as it was, so the salt continues the
        // same stream.
        let noise = h.finish();
        salt.hash(&mut h);
        (noise, h.finish())
    }
}

struct IoeProblem<'a> {
    subnet: &'a Subnet,
    /// The backbone's placement-independent fitness terms and its cost
    /// rows per DVFS setting, shared by every candidate of the run.
    table: BackboneTable<'a>,
    layout: Layout,
    gamma: f64,
    use_dissimilarity: bool,
    /// Substrate fault model consulted before each candidate measurement.
    faults: &'a dyn FaultModel,
    /// Retry/backoff/timeout schedule for one measurement.
    retry: &'a RetryPolicy,
    /// Salt mixed into fault keys so the inner fault stream is distinct
    /// from the search-time quality-noise stream and from other IOE runs.
    fault_salt: u64,
    /// Seed of the deterministic data-chaos injector; `None` disables
    /// NaN-poisoning of candidate measurements.
    data_chaos: Option<u64>,
    /// Fault-handling counters for this run. `Nsga2::run` drives
    /// `evaluate` from a single thread, so a `RefCell` suffices.
    telemetry: RefCell<SearchTelemetry>,
    /// The exact measurement of every candidate evaluated so far, in
    /// evaluation order: entry `k` belongs to the search history's entry
    /// `k`, so the reporting pass reads it instead of measuring again.
    log: RefCell<Vec<Result<IoeSolution, HadasError>>>,
}

impl IoeProblem<'_> {
    /// Half-range of the deterministic search-time noise on the quality
    /// objective (absolute, on the `N_i`-scale of eq. (5)).
    const QUALITY_NOISE: f64 = 0.05;

    /// Finite worst-case fitness for genomes the repair could not fix;
    /// keeps dominance and crowding arithmetic well-defined.
    const INFEASIBLE_PENALTY: f64 = -1.0e30;

    fn decode(&self, genome: &ExitGenome) -> Result<(ExitPlacement, DvfsSetting), HadasError> {
        let total = self.subnet.num_mbconv_layers();
        // Repair: the placement must respect the nX bound and be non-empty.
        let max_count = total.saturating_sub(MIN_EXIT_POSITION).max(1);
        let mut positions =
            Vec::with_capacity((genome.exits.count_ones() as usize).clamp(1, max_count));
        let mut bits = genome.exits;
        while bits != 0 && positions.len() < max_count {
            positions.push(MIN_EXIT_POSITION + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
        if positions.is_empty() {
            positions.push(MIN_EXIT_POSITION + self.layout.indicators / 2);
        }
        let placement = ExitPlacement::new(positions, total)?;
        Ok((placement, DvfsSetting::new(genome.compute, genome.emc)))
    }

    /// The exact, fault- and chaos-free measurement of one candidate.
    fn exact(&self, genome: &ExitGenome) -> Result<IoeSolution, HadasError> {
        let (placement, dvfs) = self.decode(genome)?;
        let fitness = self.table.fitness(&placement, &dvfs, self.gamma, self.use_dissimilarity)?;
        Ok(IoeSolution { placement, dvfs, fitness })
    }

    /// Reports a search result by its exact measurements and keeps the
    /// truly non-dominated front (the engine selected under noisy quality
    /// estimates; reporting always uses the exact measurement, which the
    /// log holds for every history entry, in history order). A front
    /// entry the search saw only as the infeasibility penalty was never
    /// measured, so it is not reported; it reaches the front only when no
    /// measurement of the run landed. A failed measurement fails the
    /// report, the first in evaluation order.
    fn outcome(
        &self,
        result: &hadas_evo::SearchResult<ExitGenome>,
    ) -> Result<IoeOutcome, HadasError> {
        let log = self.log.take();
        if log.len() != result.history().len() {
            return Err(HadasError::Internal(format!(
                "IOE log holds {} measurements for {} history entries",
                log.len(),
                result.history().len()
            )));
        }
        let history: Vec<IoeSolution> = log.into_iter().collect::<Result<_, _>>()?;
        let candidates: Vec<&IoeSolution> = result
            .pareto_front_indices()
            .into_iter()
            .filter(|&i| result.history()[i].objectives != [Self::INFEASIBLE_PENALTY; 3])
            .map(|i| &history[i])
            .collect();
        let exact: Vec<Vec<f64>> = candidates.iter().map(|s| s.fitness.to_maximisation()).collect();
        let pareto: Vec<IoeSolution> =
            hadas_evo::pareto_indices(&exact).into_iter().map(|i| candidates[i].clone()).collect();
        Ok(IoeOutcome { history, pareto })
    }

    /// The search-time (noisy-quality) view of one exact measurement —
    /// the pure computation the retry wrapper shields from substrate
    /// faults.
    fn measure(
        &self,
        exact: &Result<IoeSolution, HadasError>,
        noise_key: u64,
        fault_key: u64,
    ) -> Vec<f64> {
        // The repair in `decode` makes infeasible genomes unreachable in
        // practice; if one slips through anyway it gets a finite worst-case
        // fitness and is selected away, rather than panicking mid-search.
        let Ok(solution) = exact else {
            return vec![Self::INFEASIBLE_PENALTY; 3];
        };
        let mut objectives = solution.fitness.to_maximisation();
        // Search-time accuracy estimates are noisy: in the paper, every
        // N_i comes from training real exit heads and measuring them on a
        // finite validation set, so the quality objective the engine sees
        // is a noisy estimate of the true one (hardware measurements are
        // comparatively exact). The noise is a deterministic function of
        // the candidate, so runs stay reproducible; reported solutions
        // use the exact measurement. This is precisely the regime where the
        // dissimilarity prior earns its keep (Fig. 7): it stops the
        // engine from overfitting redundant exit stacks to lucky
        // estimates.
        let u = (noise_key % 10_000) as f64 / 10_000.0;
        objectives[0] += (u * 2.0 - 1.0) * Self::QUALITY_NOISE;
        // Data chaos: a poisoned measurement comes back NaN. The
        // quarantine in `evaluate` must catch it — never the engine.
        if let Some(chaos) = self.data_chaos {
            if crate::ooe::chaos_poisons(chaos, fault_key) {
                objectives[0] = f64::NAN;
            }
        }
        objectives
    }
}

impl Problem for IoeProblem<'_> {
    type Genome = ExitGenome;

    fn sample(&self, rng: &mut dyn RngCore) -> ExitGenome {
        self.layout.sample(rng)
    }

    fn evaluate(&self, genome: &ExitGenome) -> Vec<f64> {
        // The exact measurement is taken once, logged for the reporting
        // pass, and is what every attempt below reads.
        let exact = self.exact(genome);
        let (noise_key, fault_key) =
            self.layout.keys(genome, self.subnet.genome().genes(), self.fault_salt);
        // Every measurement runs on a (simulated) physical substrate that
        // can glitch: consult the fault model under the retry schedule.
        // A candidate whose measurement never lands within its budget is
        // degraded to the infeasibility penalty — selected away, never
        // fatal — and counted in the run's telemetry.
        let outcome = self
            .retry
            .run(self.faults, fault_key, || Ok(self.measure(&exact, noise_key, fault_key)));
        self.log.borrow_mut().push(exact);
        let (value, receipt) = match outcome {
            Ok(pair) => pair,
            // `measure` is infallible (it returns penalties instead of
            // erroring), so this arm is unreachable; degrade anyway.
            Err(_) => return vec![Self::INFEASIBLE_PENALTY; 3],
        };
        self.telemetry.borrow_mut().absorb(&receipt, value.is_none());
        let objectives = value.unwrap_or_else(|| vec![Self::INFEASIBLE_PENALTY; 3]);
        // NaN-fitness quarantine: a non-finite objective vector breaks
        // every ordering axiom dominance sorting relies on, and in
        // release builds nothing would catch it — the poisoned candidate
        // could sit unchallenged in the Pareto front. Degrade it to the
        // finite worst case so it is selected away instead.
        if objectives.iter().any(|v| !v.is_finite()) {
            self.telemetry.borrow_mut().quarantined_evals += 1;
            return vec![Self::INFEASIBLE_PENALTY; 3];
        }
        objectives
    }

    fn crossover(&self, rng: &mut dyn RngCore, a: &ExitGenome, b: &ExitGenome) -> ExitGenome {
        self.layout.crossover(rng, a, b)
    }

    fn mutate(&self, rng: &mut dyn RngCore, genome: &ExitGenome) -> ExitGenome {
        self.layout.mutate(rng, genome)
    }
}

impl<'a> Ioe<'a> {
    /// Creates an inner engine for `subnet`.
    pub fn new(hadas: &'a Hadas, subnet: Subnet, config: HadasConfig) -> Self {
        Ioe { hadas, subnet, config }
    }

    fn problem_with<'p>(
        &'p self,
        faults: &'p dyn FaultModel,
        retry: &'p RetryPolicy,
        fault_salt: u64,
        data_chaos: Option<u64>,
    ) -> Result<IoeProblem<'p>, HadasError> {
        let layers = self.subnet.num_mbconv_layers();
        let indicators = ExitPlacement::candidate_count(layers);
        // Fewer than 6 layers admit no placement (nX ≤ Σl − 5); more than
        // 64 candidates overflow the packed genome.
        if !(2..=Layout::MAX_INDICATORS).contains(&indicators) {
            return Err(HadasError::InvalidConfig(format!(
                "the inner engine searches backbones of {} to {} MBConv layers, got {layers}",
                MIN_EXIT_POSITION + 1,
                MIN_EXIT_POSITION - 1 + Layout::MAX_INDICATORS
            )));
        }
        let ladder = self.hadas.device().ladder();
        Ok(IoeProblem {
            subnet: &self.subnet,
            table: BackboneTable::new(&self.subnet, self.hadas.accuracy(), self.hadas.device())?,
            layout: Layout { indicators, ladders: [ladder.compute_steps(), ladder.emc_steps()] },
            gamma: self.config.gamma,
            use_dissimilarity: self.config.use_dissimilarity,
            faults,
            retry,
            fault_salt,
            data_chaos,
            telemetry: RefCell::new(SearchTelemetry::default()),
            log: RefCell::new(Vec::with_capacity(self.config.ioe.iterations)),
        })
    }

    /// Runs the engine with the configured IOE budget on a healthy
    /// substrate — [`Ioe::run_with`] with [`NoFaults`], the default retry
    /// schedule and no data chaos, telemetry discarded.
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::InvalidConfig`] for invalid configurations
    /// or a backbone outside the engine's 6 to 68 MBConv layers, or a
    /// propagated model/placement error from a candidate's exact
    /// measurement.
    pub fn run(&self, seed: u64) -> Result<IoeOutcome, HadasError> {
        self.run_with(seed, &NoFaults, &RetryPolicy::default(), None).map(|(outcome, _)| outcome)
    }

    /// Runs the engine under an explicit substrate fault model: every
    /// candidate measurement is retried with exponential backoff under
    /// `retry`'s per-candidate timeout budget, and candidates whose
    /// measurement never lands degrade to an infeasibility penalty
    /// instead of killing the run. When `data_chaos` is set, a fixed
    /// fraction of candidate measurements come back NaN-poisoned and are
    /// quarantined to the same penalty (counted in
    /// [`SearchTelemetry::quarantined_evals`]). Returns the outcome
    /// together with the run's fault-handling telemetry.
    ///
    /// The final reporting pass uses each solution's *exact*, fault- and
    /// chaos-free measurement: faults perturb what the search engine
    /// sees, never the numbers reported to the OOE. On a substrate where
    /// no measurement lands, the outcome keeps its full history and an
    /// empty `pareto`.
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::InvalidConfig`] for invalid configurations
    /// or retry schedules, or for a backbone outside the engine's 6 to 68
    /// MBConv layers, or a propagated model/placement error from
    /// a candidate's exact measurement; [`HadasError::Internal`] if the
    /// engine's history and the measurement log disagree in length.
    pub fn run_with(
        &self,
        seed: u64,
        faults: &dyn FaultModel,
        retry: &RetryPolicy,
        data_chaos: Option<u64>,
    ) -> Result<(IoeOutcome, SearchTelemetry), HadasError> {
        self.config.validate()?;
        retry.validate()?;
        let problem = self.problem_with(faults, retry, seed, data_chaos)?;
        let nsga = Nsga2::new(Nsga2Config::with_budget(
            self.config.ioe.population,
            self.config.ioe.iterations,
        ));
        let mut rng = StdRng::seed_from_u64(seed);
        let result = nsga.run(&problem, &mut rng);

        let outcome = problem.outcome(&result)?;
        let telemetry = problem.telemetry.into_inner();
        Ok((outcome, telemetry))
    }

    /// Spends the same budget on pure random sampling of `X × F` — the
    /// standard NAS baseline ablation against the NSGA-II engine.
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::InvalidConfig`] for invalid configurations
    /// or a backbone outside the engine's 6 to 68 MBConv layers, or a
    /// propagated model/placement error from a candidate's exact
    /// measurement.
    pub fn run_random(&self, seed: u64) -> Result<IoeOutcome, HadasError> {
        self.config.validate()?;
        let retry = RetryPolicy::default();
        let problem = self.problem_with(&NoFaults, &retry, seed, None)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let result = hadas_evo::random_search(&problem, self.config.ioe.iterations, &mut rng);
        problem.outcome(&result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadas_hw::HwTarget;
    use hadas_space::{baselines, SearchSpace, StageSpec};
    use proptest::prelude::*;

    fn quick_ioe(seed: u64) -> IoeOutcome {
        let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
        let subnet = hadas.space().decode(&baselines::baseline_genome(2)).unwrap();
        let cfg = HadasConfig::smoke_test();
        hadas.run_ioe(&subnet, &cfg, seed).unwrap()
    }

    #[test]
    fn history_length_matches_budget() {
        let out = quick_ioe(1);
        assert_eq!(out.history.len(), HadasConfig::smoke_test().ioe.iterations);
        assert!(!out.pareto.is_empty());
    }

    #[test]
    fn pareto_solutions_have_positive_energy_gain() {
        let out = quick_ioe(2);
        let best = out.best_energy().unwrap();
        assert!(
            best.fitness.energy_gain > 0.15,
            "IOE should find real savings, got {}",
            best.fitness.energy_gain
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = quick_ioe(3);
        let b = quick_ioe(3);
        assert_eq!(a.pareto_axes(), b.pareto_axes());
    }

    #[test]
    fn pareto_is_mutually_non_dominated() {
        let out = quick_ioe(4);
        let axes: Vec<Vec<f64>> = out.pareto.iter().map(|s| s.fitness.to_maximisation()).collect();
        for a in &axes {
            for b in &axes {
                assert!(!hadas_evo::dominates(a, b));
            }
        }
    }

    #[test]
    fn placements_respect_paper_rules() {
        let out = quick_ioe(5);
        for s in &out.history {
            assert!(s.placement.positions().iter().all(|&p| p >= MIN_EXIT_POSITION));
        }
    }

    /// The reported history is the log, paired with the engine's history
    /// by index: entry `k` is the exact measurement of history genome `k`.
    #[test]
    fn reported_history_is_the_exact_measurement_of_each_history_entry() {
        let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
        let subnet = hadas.space().decode(&baselines::baseline_genome(2)).unwrap();
        let ioe = Ioe::new(&hadas, subnet, HadasConfig::smoke_test());
        let retry = crate::RetryPolicy::default();
        let problem = ioe.problem_with(&NoFaults, &retry, 3, None).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let result = Nsga2::new(Nsga2Config::new(8, 4)).run(&problem, &mut rng);
        let out = problem.outcome(&result).unwrap();
        assert_eq!(out.history.len(), result.history().len());
        for (reported, entry) in out.history.iter().zip(result.history()) {
            assert_eq!(reported, &problem.exact(&entry.genome).unwrap());
        }
    }

    #[test]
    fn a_log_out_of_step_with_the_history_is_an_internal_error() {
        let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
        let subnet = hadas.space().decode(&baselines::baseline_genome(2)).unwrap();
        let ioe = Ioe::new(&hadas, subnet, HadasConfig::smoke_test());
        let retry = crate::RetryPolicy::default();
        let problem = ioe.problem_with(&NoFaults, &retry, 5, None).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let result = hadas_evo::random_search(&problem, 6, &mut rng);
        // One measurement the history does not hold.
        let _ = problem.evaluate(&result.history()[0].genome);
        assert!(matches!(problem.outcome(&result), Err(HadasError::Internal(_))));
    }

    /// Fails the first attempt of every measurement, then succeeds: the
    /// retry layer must absorb every fault, so the front is identical to
    /// a healthy run's and only the telemetry shows the substrate was
    /// misbehaving.
    #[derive(Debug)]
    struct FlakyOnce;
    impl crate::FaultModel for FlakyOnce {
        fn eval_attempt(&self, _key: u64, attempt: u32) -> crate::AttemptOutcome {
            if attempt == 0 {
                crate::AttemptOutcome::TransientFailure { cost_ms: 1.0 }
            } else {
                crate::AttemptOutcome::Ok { cost_ms: 1.0 }
            }
        }
    }

    #[test]
    fn recoverable_faults_leave_the_front_unchanged() {
        let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
        let subnet = hadas.space().decode(&baselines::baseline_genome(2)).unwrap();
        let cfg = HadasConfig::smoke_test();
        let clean = Ioe::new(&hadas, subnet.clone(), cfg.clone()).run(7).unwrap();
        let (flaky, telemetry) = Ioe::new(&hadas, subnet, cfg)
            .run_with(7, &FlakyOnce, &crate::RetryPolicy::default(), None)
            .unwrap();
        assert_eq!(clean.pareto_axes(), flaky.pareto_axes());
        assert_eq!(clean.history_axes(), flaky.history_axes());
        assert!(telemetry.retried_evals > 0, "every eval was retried once");
        assert_eq!(telemetry.exhausted_evals, 0, "no eval ran out of budget");
        assert!(telemetry.fault_overhead_ms > 0.0);
    }

    /// Every attempt of every measurement fails.
    #[derive(Debug)]
    struct AlwaysDown;
    impl crate::FaultModel for AlwaysDown {
        fn eval_attempt(&self, _key: u64, _attempt: u32) -> crate::AttemptOutcome {
            crate::AttemptOutcome::TransientFailure { cost_ms: 1.0 }
        }
    }

    #[test]
    fn a_dead_substrate_reports_no_unmeasured_front() {
        let hadas = Hadas::for_target(HwTarget::Tx2PascalGpu);
        let subnet = hadas.space().decode(&baselines::baseline_genome(2)).unwrap();
        let (out, telemetry) = Ioe::new(&hadas, subnet, HadasConfig::smoke_test())
            .run_with(7, &AlwaysDown, &crate::RetryPolicy::default(), None)
            .unwrap();
        assert!(out.pareto.is_empty(), "no measurement landed, so nothing is reported");
        assert!(!out.history.is_empty());
        assert_eq!(telemetry.exhausted_evals, out.history.len(), "each candidate gave up once");
    }

    /// A one-stage backbone of `depth` MBConv layers.
    fn deep_backbone(depth: usize) -> (Hadas, Subnet) {
        let stage = StageSpec {
            depths: vec![depth],
            widths: vec![32],
            kernels: vec![3],
            expands: vec![4],
            stride: 2,
        };
        let space = SearchSpace::new(vec![224], vec![16], vec![1792], vec![stage]).unwrap();
        let subnet = space.decode(&space.sample(&mut StdRng::seed_from_u64(0))).unwrap();
        assert_eq!(subnet.num_mbconv_layers(), depth);
        let device = hadas_hw::DeviceModel::for_target(HwTarget::Tx2PascalGpu);
        (Hadas::new(space, hadas_accuracy::AccuracyModel::cifar100(), device), subnet)
    }

    /// Too shallow for any valid placement (nX ≤ Σl − 5), or deeper than
    /// the packed genome holds: rejected up front, not a panic or a
    /// budget spent on invalid candidates.
    #[test]
    fn unsearchable_backbones_are_rejected_before_breeding() {
        for depth in [3, 5, 70] {
            let (hadas, subnet) = deep_backbone(depth);
            let run = Ioe::new(&hadas, subnet, HadasConfig::smoke_test()).run(1);
            assert!(matches!(run, Err(HadasError::InvalidConfig(_))), "depth {depth}: {run:?}");
        }
        for depth in [6, 68] {
            let (hadas, subnet) = deep_backbone(depth);
            let out = Ioe::new(&hadas, subnet, HadasConfig::smoke_test()).run(1).unwrap();
            assert!(!out.pareto.is_empty(), "depth {depth}");
        }
    }

    /// The `Vec<usize>` genome operators the packed ones replace: one
    /// `usize` gene per indicator, then the two ladder indices.
    mod reference {
        use rand::{Rng, RngCore};

        pub fn cardinalities(indicators: usize, ladders: [usize; 2]) -> Vec<usize> {
            let mut cards = vec![2; indicators];
            cards.extend(ladders);
            cards
        }

        pub fn sample(rng: &mut dyn RngCore, cards: &[usize]) -> Vec<usize> {
            let n = cards.len() - 2;
            let mut genes: Vec<usize> = (0..n).map(|_| usize::from(rng.gen_bool(0.18))).collect();
            genes.push(rng.gen_range(0..cards[n]));
            genes.push(rng.gen_range(0..cards[n + 1]));
            genes
        }

        pub fn crossover(rng: &mut dyn RngCore, a: &[usize], b: &[usize]) -> Vec<usize> {
            a.iter().zip(b.iter()).map(|(&x, &y)| if rng.gen_bool(0.5) { x } else { y }).collect()
        }

        pub fn mutate(rng: &mut dyn RngCore, genome: &[usize], cards: &[usize]) -> Vec<usize> {
            let n = cards.len() - 2;
            let mut out = reset(rng, &genome[..n], &cards[..n], 1.5 / n as f64);
            let dvfs = if rng.gen_bool(0.3) {
                reset(rng, &genome[n..], &cards[n..], 0.5)
            } else {
                step(rng, &genome[n..], &cards[n..], 0.7)
            };
            out.extend(dvfs);
            out
        }

        fn reset(
            rng: &mut dyn RngCore,
            genome: &[usize],
            cards: &[usize],
            rate: f64,
        ) -> Vec<usize> {
            let mut out = genome.to_vec();
            let mut mutated = false;
            for (g, &c) in out.iter_mut().zip(cards.iter()) {
                if c > 1 && rng.gen_bool(rate.clamp(0.0, 1.0)) {
                    let old = *g;
                    let nv = rng.gen_range(0..c - 1);
                    *g = if nv >= old { nv + 1 } else { nv };
                    mutated = true;
                }
            }
            if !mutated {
                let candidates: Vec<usize> = (0..out.len()).filter(|&i| cards[i] > 1).collect();
                let pick = rng
                    .gen_range(0..candidates.len().max(1))
                    .min(candidates.len().saturating_sub(1));
                if let Some(&i) = candidates.get(pick) {
                    let nv = rng.gen_range(0..cards[i] - 1);
                    out[i] = if nv >= out[i] { nv + 1 } else { nv };
                }
            }
            out
        }

        fn step(rng: &mut dyn RngCore, genome: &[usize], cards: &[usize], rate: f64) -> Vec<usize> {
            let mut out = genome.to_vec();
            for (g, &c) in out.iter_mut().zip(cards.iter()) {
                if c > 1 && rng.gen_bool(rate.clamp(0.0, 1.0)) {
                    if *g == 0 {
                        *g = 1;
                    } else if *g == c - 1 {
                        *g -= 1;
                    } else if rng.gen_bool(0.5) {
                        *g += 1;
                    } else {
                        *g -= 1;
                    }
                }
            }
            out
        }
    }

    fn unpacked(layout: &Layout, genome: &ExitGenome) -> Vec<usize> {
        layout.unpack(genome, &mut [0; Layout::MAX_INDICATORS + 2]).to_vec()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The packed operators breed the reference's genomes from the
        /// reference's draws, leave the RNG where the reference leaves it,
        /// and key each child as the reference's `Vec<usize>` hash does.
        #[test]
        fn packed_operators_match_the_vec_reference(
            indicators in 1usize..=64,
            ladders in (1usize..=14, 1usize..=14),
            parents in (any::<u64>(), any::<u64>(), any::<usize>(), any::<usize>()),
            backbone in proptest::collection::vec(0usize..8, 1..40),
            seed in any::<u64>(),
        ) {
            let ladders = [ladders.0, ladders.1];
            let layout = Layout { indicators, ladders };
            let cards = reference::cardinalities(indicators, ladders);
            let mask = u64::MAX >> (64 - indicators);
            let (bits_a, bits_b, c, e) = parents;
            let mut a = ExitGenome {
                exits: bits_a & mask,
                compute: c % ladders[0],
                emc: e % ladders[1],
            };
            let mut b = ExitGenome { exits: bits_b & mask, compute: e % ladders[0], emc: c % ladders[1] };
            let mut packed = StdRng::seed_from_u64(seed);
            let mut reference = StdRng::seed_from_u64(seed);
            for _ in 0..8 {
                let sampled = layout.sample(&mut packed);
                prop_assert_eq!(unpacked(&layout, &sampled), reference::sample(&mut reference, &cards));
                let child = layout.crossover(&mut packed, &a, &b);
                let want = reference::crossover(&mut reference, &unpacked(&layout, &a), &unpacked(&layout, &b));
                prop_assert_eq!(unpacked(&layout, &child), want);
                let mutant = layout.mutate(&mut packed, &child);
                let want = reference::mutate(&mut reference, &unpacked(&layout, &child), &cards);
                prop_assert_eq!(unpacked(&layout, &mutant), want.clone());
                prop_assert_eq!(packed.next_u64(), reference.next_u64());

                let mut h = DefaultHasher::new();
                want.hash(&mut h);
                backbone.hash(&mut h);
                let noise = h.finish();
                seed.hash(&mut h);
                prop_assert_eq!(layout.keys(&mutant, &backbone, seed), (noise, h.finish()));
                (a, b) = (mutant, sampled);
            }
        }
    }
}
