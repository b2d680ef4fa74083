use crate::dominance::{crowding_distance, fast_non_dominated_sort, pareto_indices};
use rand::{Rng, RngCore};

/// An optimisation problem NSGA-II can drive.
///
/// Objectives are **maximised**; negate costs before returning them. The
/// trait is object-safe so engines can be composed dynamically (the inner
/// optimization engine of HADAS is constructed per backbone at runtime).
pub trait Problem {
    /// The genome representation.
    type Genome: Clone;

    /// Draws a random genome.
    fn sample(&self, rng: &mut dyn RngCore) -> Self::Genome;

    /// Evaluates a genome into an objective vector (maximisation).
    ///
    /// The drivers ([`Nsga2::run`], [`crate::random_search`]) call this
    /// exactly once per entry of [`SearchResult::history`], in history
    /// order, so a problem may keep its own per-evaluation log beside the
    /// history and pair the two by index.
    fn evaluate(&self, genome: &Self::Genome) -> Vec<f64>;

    /// Recombines two parents into a child.
    fn crossover(&self, rng: &mut dyn RngCore, a: &Self::Genome, b: &Self::Genome) -> Self::Genome;

    /// Mutates a genome.
    fn mutate(&self, rng: &mut dyn RngCore, genome: &Self::Genome) -> Self::Genome;
}

/// One evaluated individual.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluated<G> {
    /// The genome.
    pub genome: G,
    /// Its objective vector (maximisation).
    pub objectives: Vec<f64>,
    /// The generation at which it was first evaluated.
    pub generation: usize,
}

/// NSGA-II run configuration.
///
/// The paper expresses budgets as `#iterations = G × P` (450 for the OOE,
/// 3500 for the IOE); [`Nsga2Config::with_budget`] derives generations
/// from a population size and a total evaluation budget accordingly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Nsga2Config {
    /// Population size `P`.
    pub population: usize,
    /// Number of generations `G`.
    pub generations: usize,
    /// Probability that a child is produced by crossover (otherwise it is
    /// a mutated copy of the first parent).
    pub crossover_prob: f64,
}

impl Nsga2Config {
    /// Creates a configuration with the default crossover probability 0.9.
    ///
    /// # Panics
    ///
    /// Panics if `population < 2` or `generations == 0`.
    pub fn new(population: usize, generations: usize) -> Self {
        assert!(population >= 2, "population must be at least 2");
        assert!(generations >= 1, "at least one generation required");
        Nsga2Config { population, generations, crossover_prob: 0.9 }
    }

    /// Derives the generation count from a total evaluation budget
    /// (`#iterations = G × P`, rounded down, minimum 1).
    pub fn with_budget(population: usize, budget: usize) -> Self {
        Nsga2Config::new(population, (budget / population).max(1))
    }

    /// Total evaluations this configuration performs.
    pub fn budget(&self) -> usize {
        self.population * self.generations
    }
}

/// The outcome of an NSGA-II run.
#[derive(Debug, Clone)]
pub struct SearchResult<G> {
    /// The last generation's population; `None` when it is the whole
    /// history.
    final_population: Option<Vec<Evaluated<G>>>,
    history: Vec<Evaluated<G>>,
}

impl<G: Clone> SearchResult<G> {
    /// Builds a result from a raw evaluation history (the final
    /// "population" is the whole history) — used by non-population
    /// searches such as [`crate::random_search`].
    pub fn from_history(history: Vec<Evaluated<G>>) -> Self {
        SearchResult { final_population: None, history }
    }

    /// The last generation's population (the whole history for a
    /// result built by [`SearchResult::from_history`]).
    pub fn final_population(&self) -> &[Evaluated<G>] {
        self.final_population.as_deref().unwrap_or(&self.history)
    }

    /// Every individual evaluated during the run, in evaluation order —
    /// the "explored points" clouds of the paper's Fig. 5. Entry `k` is
    /// the result of the `k`-th [`Problem::evaluate`] call of the run.
    pub fn history(&self) -> &[Evaluated<G>] {
        &self.history
    }

    /// History indices of the non-dominated subset of the *entire
    /// history* (not just the final population), ascending, keeping the
    /// first of each set of identical objective vectors.
    pub fn pareto_front_indices(&self) -> Vec<usize> {
        let pts: Vec<&[f64]> = self.history.iter().map(|e| e.objectives.as_slice()).collect();
        // Deduplicate identical objective vectors to keep fronts tidy.
        let mut out: Vec<usize> = Vec::new();
        for i in pareto_indices(&pts) {
            if !out.iter().any(|&j| pts[j] == pts[i]) {
                out.push(i);
            }
        }
        out
    }

    /// The Pareto front the run discovered: the history entries at
    /// [`SearchResult::pareto_front_indices`].
    pub fn pareto_front(&self) -> Vec<&Evaluated<G>> {
        self.pareto_front_indices().into_iter().map(|i| &self.history[i]).collect()
    }

    /// Objective vectors of the Pareto front.
    pub fn pareto_objectives(&self) -> Vec<Vec<f64>> {
        self.pareto_front().iter().map(|e| e.objectives.clone()).collect()
    }
}

/// The NSGA-II driver.
#[derive(Debug, Clone, Copy)]
pub struct Nsga2 {
    config: Nsga2Config,
}

impl Nsga2 {
    /// Creates a driver with the given configuration.
    pub fn new(config: Nsga2Config) -> Self {
        Nsga2 { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &Nsga2Config {
        &self.config
    }

    /// Runs the full loop: initial random population, then per generation
    /// binary-tournament parent selection, crossover/mutation, and
    /// elitist environmental selection by (rank, crowding distance).
    pub fn run<P: Problem>(&self, problem: &P, rng: &mut dyn RngCore) -> SearchResult<P::Genome> {
        let cfg = self.config;
        let mut population: Vec<Evaluated<P::Genome>> = (0..cfg.population)
            .map(|_| {
                let genome = problem.sample(rng);
                let objectives = problem.evaluate(&genome);
                Evaluated { genome, objectives, generation: 0 }
            })
            .collect();
        let mut history = population.clone();

        for generation in 1..cfg.generations {
            // Rank the current population once for tournament selection.
            let pts: Vec<&[f64]> = population.iter().map(|e| e.objectives.as_slice()).collect();
            let fronts = fast_non_dominated_sort(&pts);
            debug_assert!(
                fronts.iter().map(Vec::len).sum::<usize>() == population.len(),
                "fronts must partition the population"
            );
            let mut rank = vec![0usize; population.len()];
            let mut crowd = vec![0.0f64; population.len()];
            for (r, front) in fronts.iter().enumerate() {
                let d = crowding_distance(&pts, front);
                for (k, &i) in front.iter().enumerate() {
                    rank[i] = r;
                    crowd[i] = d[k];
                }
            }
            let tournament = |rng: &mut dyn RngCore| -> usize {
                let a = rng.gen_range(0..population.len());
                let b = rng.gen_range(0..population.len());
                if rank[a] < rank[b] || (rank[a] == rank[b] && crowd[a] > crowd[b]) {
                    a
                } else {
                    b
                }
            };

            // Offspring.
            let mut offspring = Vec::with_capacity(cfg.population);
            while offspring.len() < cfg.population {
                let p1 = tournament(rng);
                let p2 = tournament(rng);
                let child_genome = if rng.gen_bool(cfg.crossover_prob) {
                    let c = problem.crossover(rng, &population[p1].genome, &population[p2].genome);
                    problem.mutate(rng, &c)
                } else {
                    problem.mutate(rng, &population[p1].genome)
                };
                let objectives = problem.evaluate(&child_genome);
                offspring.push(Evaluated { genome: child_genome, objectives, generation });
            }
            history.extend(offspring.iter().cloned());

            // Environmental selection over parents ∪ offspring.
            let mut merged = population;
            merged.append(&mut offspring);
            population = Self::environmental_selection(merged, cfg.population);
        }

        SearchResult { final_population: Some(population), history }
    }

    /// Elitist truncation: fill from successive fronts, breaking the last
    /// front by descending crowding distance. The survivors are moved out
    /// of `merged`, in selection order.
    fn environmental_selection<G>(merged: Vec<Evaluated<G>>, target: usize) -> Vec<Evaluated<G>> {
        let pts: Vec<&[f64]> = merged.iter().map(|e| e.objectives.as_slice()).collect();
        let picks = survivors(&pts, target);
        let mut slots: Vec<Option<Evaluated<G>>> = merged.into_iter().map(Some).collect();
        // The fronts partition the indices, so every pick finds its slot full.
        picks.into_iter().filter_map(|i| slots[i].take()).collect()
    }
}

/// Indices of the `target` points elitist truncation keeps, in selection
/// order: whole fronts while they fit, then the next front's members by
/// descending crowding distance (ties in front order).
fn survivors(pts: &[&[f64]], target: usize) -> Vec<usize> {
    let fronts = fast_non_dominated_sort(pts);
    debug_assert!(
        fronts.iter().map(Vec::len).sum::<usize>() == pts.len(),
        "fronts must partition the merged population"
    );
    let mut picks: Vec<usize> = Vec::with_capacity(target);
    for front in fronts {
        if picks.len() + front.len() <= target {
            picks.extend_from_slice(&front);
        } else {
            let d = crowding_distance(pts, &front);
            let mut order: Vec<usize> = (0..front.len()).collect();
            order.sort_by(|&a, &b| d[b].total_cmp(&d[a]));
            let room = target - picks.len();
            picks.extend(order.iter().take(room).map(|&k| front[k]));
            break;
        }
    }
    picks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::dominates;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// Discrete two-objective knapsack-ish toy: maximise (sum of chosen
    /// weights, count of zeros) over 12 binary genes — a genuine trade-off.
    struct BitTradeoff;

    impl Problem for BitTradeoff {
        type Genome = Vec<bool>;

        fn sample(&self, rng: &mut dyn RngCore) -> Vec<bool> {
            (0..12).map(|_| rng.gen_bool(0.5)).collect()
        }

        fn evaluate(&self, g: &Vec<bool>) -> Vec<f64> {
            let ones = g.iter().filter(|&&b| b).count() as f64;
            vec![ones, 12.0 - ones]
        }

        fn crossover(&self, rng: &mut dyn RngCore, a: &Vec<bool>, b: &Vec<bool>) -> Vec<bool> {
            a.iter().zip(b.iter()).map(|(&x, &y)| if rng.gen_bool(0.5) { x } else { y }).collect()
        }

        fn mutate(&self, rng: &mut dyn RngCore, g: &Vec<bool>) -> Vec<bool> {
            let mut out = g.clone();
            let i = rng.gen_range(0..out.len());
            out[i] = !out[i];
            out
        }
    }

    #[test]
    fn run_respects_budget() {
        let cfg = Nsga2Config::new(10, 6);
        let mut rng = StdRng::seed_from_u64(0);
        let result = Nsga2::new(cfg).run(&BitTradeoff, &mut rng);
        assert_eq!(result.history().len(), cfg.budget());
        assert_eq!(result.final_population().len(), 10);
    }

    #[test]
    fn pareto_front_is_non_dominated() {
        let mut rng = StdRng::seed_from_u64(1);
        let result = Nsga2::new(Nsga2Config::new(16, 10)).run(&BitTradeoff, &mut rng);
        let front = result.pareto_objectives();
        for a in &front {
            for b in &front {
                assert!(!dominates(a, b));
            }
        }
    }

    #[test]
    fn front_spans_the_tradeoff() {
        let mut rng = StdRng::seed_from_u64(2);
        let result = Nsga2::new(Nsga2Config::new(20, 15)).run(&BitTradeoff, &mut rng);
        let front = result.pareto_objectives();
        // All 13 (ones, zeros) combinations are Pareto-optimal here; a
        // healthy run should discover most of the span.
        let distinct: std::collections::HashSet<i64> = front.iter().map(|p| p[0] as i64).collect();
        assert!(distinct.len() >= 9, "front too narrow: {distinct:?}");
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            Nsga2::new(Nsga2Config::new(8, 5)).run(&BitTradeoff, &mut rng).pareto_objectives()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn with_budget_divides() {
        let cfg = Nsga2Config::with_budget(50, 450);
        assert_eq!(cfg.generations, 9);
        assert_eq!(cfg.budget(), 450);
    }

    #[test]
    #[should_panic(expected = "population")]
    fn tiny_population_rejected() {
        let _ = Nsga2Config::new(1, 5);
    }

    /// Elitist truncation as it was before selection moved its
    /// survivors: the reference [`Nsga2::environmental_selection`] is
    /// held to.
    fn environmental_selection_by_clone<G: Clone>(
        merged: Vec<Evaluated<G>>,
        target: usize,
    ) -> Vec<Evaluated<G>> {
        let pts: Vec<Vec<f64>> = merged.iter().map(|e| e.objectives.clone()).collect();
        let fronts = fast_non_dominated_sort(&pts);
        let mut selected: Vec<Evaluated<G>> = Vec::with_capacity(target);
        for front in fronts {
            if selected.len() + front.len() <= target {
                selected.extend(front.iter().map(|&i| merged[i].clone()));
            } else {
                let d = crowding_distance(&pts, &front);
                let mut order: Vec<usize> = (0..front.len()).collect();
                order.sort_by(|&a, &b| d[b].total_cmp(&d[a]));
                for &k in order.iter().take(target - selected.len()) {
                    selected.push(merged[front[k]].clone());
                }
                break;
            }
        }
        selected
    }

    /// `(genome, objective bits, generation)` of each individual, so
    /// NaN objectives compare equal to themselves.
    fn fingerprint(pop: &[Evaluated<Vec<usize>>]) -> Vec<(Vec<usize>, Vec<u64>, usize)> {
        pop.iter()
            .map(|e| {
                let bits = e.objectives.iter().map(|v| v.to_bits()).collect();
                (e.genome.clone(), bits, e.generation)
            })
            .collect()
    }

    /// A merged population on grid objectives (values 0..4, so ties and
    /// duplicates are common) with NaN and ±inf injected, and a
    /// truncation target no larger than it.
    fn merged_strategy() -> impl Strategy<Value = (Vec<Evaluated<Vec<usize>>>, usize)> {
        let value = || {
            (0u8..16).prop_map(|k| match k {
                13 => f64::NAN,
                14 => f64::INFINITY,
                15 => f64::NEG_INFINITY,
                k => f64::from(k % 4),
            })
        };
        (1usize..=4)
            .prop_flat_map(move |dims| {
                proptest::collection::vec(proptest::collection::vec(value(), dims), 1..60)
            })
            .prop_flat_map(|objectives| {
                let n = objectives.len();
                let merged: Vec<Evaluated<Vec<usize>>> = objectives
                    .into_iter()
                    .enumerate()
                    .map(|(k, objectives)| Evaluated {
                        genome: vec![k, k % 3],
                        objectives,
                        generation: k % 5,
                    })
                    .collect();
                (Just(merged), 1..=n)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Selection by move keeps the same individuals in the same order
        /// as the clone-based reference.
        #[test]
        fn selection_by_move_matches_the_clone_reference((merged, target) in merged_strategy()) {
            let by_clone = environmental_selection_by_clone(merged.clone(), target);
            let by_move = Nsga2::environmental_selection(merged, target);
            prop_assert_eq!(by_move.len(), target);
            prop_assert_eq!(fingerprint(&by_move), fingerprint(&by_clone));
        }
    }
}
