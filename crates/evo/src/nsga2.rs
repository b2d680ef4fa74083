use crate::dominance::{pareto_indices, Columns, Crowding, Dominance, Fronts};
use rand::{Rng, RngCore};
use std::cmp::Ordering;

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
    /// History indices, ascending, of the entries that sat in front 0 of
    /// the population they entered: the merged parents and offspring of
    /// their generation, or the initial population. `None` when the
    /// front is found by scanning the whole history.
    entrants: Option<Vec<usize>>,
}

impl<G: Clone> SearchResult<G> {
    /// Builds a result from a raw evaluation history (the final
    /// "population" is the whole history) — used by non-population
    /// searches such as [`crate::random_search`].
    pub fn from_history(history: Vec<Evaluated<G>>) -> Self {
        SearchResult { final_population: None, history, entrants: None }
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
    ///
    /// A result of [`Nsga2::run`] filters only its front-0 entrants. An
    /// entry outside front 0 of the population it entered is dominated
    /// by another entry, and dominance (quarantine included) is
    /// transitive, so it is dominated by a member of the history's front,
    /// which entered in front 0 of its own population: the front is the
    /// one a scan of the whole history finds.
    pub fn pareto_front_indices(&self) -> Vec<usize> {
        let scan: Vec<usize> = match &self.entrants {
            Some(entrants) => entrants.clone(),
            None => (0..self.history.len()).collect(),
        };
        let pts = objectives(&self.history, &scan);
        first_of_each(&pts, &pareto_indices(&pts)).map(|k| scan[k]).collect()
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

/// What one generation of a run decided, as the run reports it to its
/// observer. Only the differential tests read it.
#[cfg_attr(not(test), allow(dead_code))]
struct Generation<'a, G> {
    /// Tournament rank of each member of the population the offspring
    /// were bred from, in population order.
    rank: &'a [usize],
    /// Crowding distance of each of those members within its front.
    crowd: &'a [f64],
    /// The run's history so far.
    history: &'a [Evaluated<G>],
    /// The survivors' history indices, in selection order.
    survivors: &'a [usize],
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
        self.run_observed(problem, rng, |_| {})
    }

    /// [`Nsga2::run`], reporting each generation's decisions to `observe`.
    ///
    /// Each individual is stored once, in the history; the population is
    /// a list of history indices. The dominance relation among the
    /// survivors is carried into the next generation, so the merged sort
    /// compares only the pairs that involve an offspring, and the
    /// tournament ranks come from peeling the survivors' block of it.
    /// Selection works in one [`Selection`] the whole run.
    fn run_observed<P: Problem>(
        &self,
        problem: &P,
        rng: &mut dyn RngCore,
        mut observe: impl FnMut(&Generation<'_, P::Genome>),
    ) -> SearchResult<P::Genome> {
        let cfg = self.config;
        let mut history: Vec<Evaluated<P::Genome>> = Vec::with_capacity(cfg.budget());
        for _ in 0..cfg.population {
            let genome = problem.sample(rng);
            let objectives = problem.evaluate(&genome);
            history.push(Evaluated { genome, objectives, generation: 0 });
        }
        // The initial population's indices are its history indices.
        let mut population: Vec<usize> = (0..cfg.population).collect();
        let mut selection = Selection::new(&history);
        let mut entrants: Vec<usize> = selection.fronts.first().unwrap_or_default().to_vec();

        for generation in 1..cfg.generations {
            selection.tournament_keys();
            let (rank, crowd) = (&selection.rank, &selection.crowd);
            let tournament = |rng: &mut dyn RngCore| -> usize {
                let a = rng.gen_range(0..population.len());
                let b = rng.gen_range(0..population.len());
                if rank[a] < rank[b] || (rank[a] == rank[b] && crowd[a] > crowd[b]) {
                    a
                } else {
                    b
                }
            };

            // Offspring, stored straight into the history.
            let bred = history.len();
            for _ in 0..cfg.population {
                let p1 = &history[population[tournament(rng)]].genome;
                let p2 = &history[population[tournament(rng)]].genome;
                let genome = if rng.gen_bool(cfg.crossover_prob) {
                    let c = problem.crossover(rng, p1, p2);
                    problem.mutate(rng, &c)
                } else {
                    problem.mutate(rng, p1)
                };
                let objectives = problem.evaluate(&genome);
                history.push(Evaluated { genome, objectives, generation });
            }

            selection.select(&history, bred, &mut population, &mut entrants);
            observe(&Generation {
                rank: &selection.rank,
                crowd: &selection.crowd,
                history: &history,
                survivors: &population,
            });
        }

        let final_population = population.iter().map(|&i| history[i].clone()).collect();
        SearchResult { final_population: Some(final_population), history, entrants: Some(entrants) }
    }
}

/// The positions of `front` (ascending, into `points`) but the later of
/// any two identical points: equal under `f64 ==` in every objective, so
/// `-0.0 == 0.0` and a point holding a NaN is identical to none. The
/// positions are sorted once by point, equal points by position, and
/// each is compared with its neighbour: O(f log f) for a front of `f`.
fn first_of_each<'f>(points: &[&[f64]], front: &'f [usize]) -> impl Iterator<Item = usize> + 'f {
    let row = |w: usize| points[front[w]];
    let mut by_row: Vec<usize> =
        (0..front.len()).filter(|&w| !row(w).iter().any(|v| v.is_nan())).collect();
    by_row.sort_unstable_by(|&a, &b| {
        row(a).partial_cmp(row(b)).unwrap_or(Ordering::Equal).then(a.cmp(&b))
    });
    let mut repeat = vec![false; front.len()];
    for pair in by_row.windows(2) {
        repeat[pair[1]] = row(pair[0]) == row(pair[1]);
    }
    front.iter().zip(repeat).filter(|&(_, repeat)| !repeat).map(|(&k, _)| k)
}

/// The objective vectors of the history entries at `members`, in order.
fn objectives<'h, G>(history: &'h [Evaluated<G>], members: &[usize]) -> Vec<&'h [f64]> {
    members.iter().map(|&i| history[i].objectives.as_slice()).collect()
}

/// The buffers a run's selection works in, created once per run and
/// carried across generations, so selection allocates nothing per
/// generation once they have grown to size.
#[derive(Debug, Default)]
struct Selection {
    /// The objectives of the last points ranked: the merged parents and
    /// offspring (the initial population before the first generation).
    columns: Columns,
    /// The relation among the survivors, in population order.
    survivors: Dominance,
    /// The relation over `columns`.
    merged_relation: Dominance,
    /// The last peel: the merged fronts during selection, the survivors'
    /// fronts between generations.
    fronts: Fronts,
    crowding: Crowding,
    /// Tournament rank of each population member.
    rank: Vec<usize>,
    /// Its crowding distance within its front.
    crowd: Vec<f64>,
    /// History index of each point of `columns`.
    merged: Vec<usize>,
    /// The survivors' positions in `columns`, in selection order.
    picks: Vec<usize>,
    /// Truncation's crowding order over the front it cuts.
    order: Vec<usize>,
}

impl Selection {
    /// The workspace over the initial population, the whole `history`,
    /// with its relation and fronts.
    fn new<G>(history: &[Evaluated<G>]) -> Self {
        let mut selection = Selection::default();
        selection.columns.load(history.iter().map(|e| e.objectives.as_slice()));
        selection.survivors.extend(&Dominance::default(), &selection.columns);
        selection.survivors.peel(&mut selection.fronts);
        selection.picks.extend(0..history.len());
        selection
    }

    /// Each population member's front rank and its crowding distance
    /// within that front, from the survivors' fronts.
    fn tournament_keys(&mut self) {
        let n = self.picks.len();
        self.rank.clear();
        self.rank.resize(n, 0);
        self.crowd.clear();
        self.crowd.resize(n, 0.0);
        let picks = &self.picks;
        for (r, front) in self.fronts.iter().enumerate() {
            let d = self.crowding.of(&self.columns, front.len(), |w| picks[front[w]]);
            for (&i, &d) in front.iter().zip(d) {
                self.rank[i] = r;
                self.crowd[i] = d;
            }
        }
    }

    /// Elitist selection over `population` and the offspring at
    /// `history[bred..]`: ranks the merged points, records the
    /// offspring in its front 0 in `entrants`, and replaces `population`
    /// with the survivors, leaving their relation and fronts for the
    /// next generation.
    fn select<G>(
        &mut self,
        history: &[Evaluated<G>],
        bred: usize,
        population: &mut Vec<usize>,
        entrants: &mut Vec<usize>,
    ) {
        let target = population.len();
        self.merged.clear();
        self.merged.extend(population.iter().copied().chain(bred..history.len()));
        self.columns.load(self.merged.iter().map(|&i| history[i].objectives.as_slice()));
        self.merged_relation.extend(&self.survivors, &self.columns);
        self.merged_relation.peel(&mut self.fronts);
        if let Some(front) = self.fronts.first() {
            let offspring = front.iter().filter(|&&k| k >= target);
            entrants.extend(offspring.map(|&k| self.merged[k]));
        }
        self.truncate(target);
        self.survivors.gather(&self.merged_relation, &self.picks);
        self.survivors.peel(&mut self.fronts);
        population.clear();
        population.extend(self.picks.iter().map(|&k| self.merged[k]));
    }

    /// Sets `picks` to the `target` points of `columns` elitist
    /// truncation keeps, given their `fronts`, in selection order: whole
    /// fronts while they fit, then the next front's members by
    /// descending crowding distance (ties in front order).
    fn truncate(&mut self, target: usize) {
        self.picks.clear();
        for front in self.fronts.iter() {
            if self.picks.len() + front.len() <= target {
                self.picks.extend_from_slice(front);
            } else {
                let d = self.crowding.of(&self.columns, front.len(), |w| front[w]);
                self.order.clear();
                self.order.extend(0..front.len());
                self.order.sort_by(|&a, &b| d[b].total_cmp(&d[a]));
                let room = target - self.picks.len();
                self.picks.extend(self.order.iter().take(room).map(|&k| front[k]));
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::{crowding_distance, dominates, fast_non_dominated_sort};
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

    /// The loop as it was before the dominance relation was carried
    /// across generations: the population held by value, every
    /// offspring copied into the history, and each generation sorted
    /// from scratch twice (once for the tournament, once for selection).
    /// `observe` sees each generation's tournament ranks and crowding
    /// distances and its survivors in selection order. The reference
    /// [`Nsga2::run`] is held to; its result scans the whole history for
    /// the front.
    fn run_from_scratch<P: Problem>(
        cfg: Nsga2Config,
        problem: &P,
        rng: &mut dyn RngCore,
        mut observe: impl FnMut(&[usize], &[f64], &[Evaluated<P::Genome>]),
    ) -> SearchResult<P::Genome> {
        let mut population: Vec<Evaluated<P::Genome>> = (0..cfg.population)
            .map(|_| {
                let genome = problem.sample(rng);
                let objectives = problem.evaluate(&genome);
                Evaluated { genome, objectives, generation: 0 }
            })
            .collect();
        let mut history = population.clone();
        for generation in 1..cfg.generations {
            let pts: Vec<&[f64]> = population.iter().map(|e| e.objectives.as_slice()).collect();
            let fronts = fast_non_dominated_sort(&pts);
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
            let mut merged = population;
            merged.append(&mut offspring);
            population = environmental_selection(merged, cfg.population);
            observe(&rank, &crowd, &population);
        }
        SearchResult { final_population: Some(population), history, entrants: None }
    }

    /// Elitist truncation by move: the survivors are moved out of
    /// `merged`, in selection order.
    fn environmental_selection<G>(merged: Vec<Evaluated<G>>, target: usize) -> Vec<Evaluated<G>> {
        let pts: Vec<&[f64]> = merged.iter().map(|e| e.objectives.as_slice()).collect();
        let picks = survivors(&pts, target);
        let mut slots: Vec<Option<Evaluated<G>>> = merged.into_iter().map(Some).collect();
        picks.into_iter().filter_map(|i| slots[i].take()).collect()
    }

    /// Indices of the `target` points elitist truncation keeps, in
    /// selection order, from a fresh sort of `pts`.
    fn survivors(pts: &[&[f64]], target: usize) -> Vec<usize> {
        let fronts = fast_non_dominated_sort(pts);
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

    /// Elitist truncation as it was before selection moved its
    /// survivors: the reference [`environmental_selection`] is held to.
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
    fn fingerprint<'a>(
        pop: impl IntoIterator<Item = &'a Evaluated<Vec<usize>>>,
    ) -> Vec<(Vec<usize>, Vec<u64>, usize)> {
        pop.into_iter()
            .map(|e| {
                let bits = e.objectives.iter().map(|v| v.to_bits()).collect();
                (e.genome.clone(), bits, e.generation)
            })
            .collect()
    }

    /// The front as a scan of the whole history finds it: the
    /// non-dominated entries, ascending, first of each identical vector.
    fn full_history_front<G>(history: &[Evaluated<G>]) -> Vec<usize> {
        let pts: Vec<&[f64]> = history.iter().map(|e| e.objectives.as_slice()).collect();
        let mut out: Vec<usize> = Vec::new();
        for i in pareto_indices(&pts) {
            if !out.iter().any(|&j| pts[j] == pts[i]) {
                out.push(i);
            }
        }
        out
    }

    /// Objective vectors on a grid (values 0..4, so ties and duplicates
    /// are common) with NaN and ±inf injected, all of one dimensionality
    /// in 1..=4.
    fn objectives_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
        let value = || {
            (0u8..16).prop_map(|k| match k {
                13 => f64::NAN,
                14 => f64::INFINITY,
                15 => f64::NEG_INFINITY,
                k => f64::from(k % 4),
            })
        };
        (1usize..=4).prop_flat_map(move |dims| {
            proptest::collection::vec(proptest::collection::vec(value(), dims), 1..60)
        })
    }

    /// A merged population on [`objectives_strategy`] vectors and a
    /// truncation target no larger than it.
    fn merged_strategy() -> impl Strategy<Value = (Vec<Evaluated<Vec<usize>>>, usize)> {
        objectives_strategy().prop_flat_map(|objectives| {
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

    /// A problem whose genome picks a row of a fixed objective table, so
    /// a run meets every tie, duplicate and non-finite vector the table
    /// holds.
    struct Table(Vec<Vec<f64>>);

    impl Problem for Table {
        type Genome = Vec<usize>;

        fn sample(&self, rng: &mut dyn RngCore) -> Vec<usize> {
            vec![rng.gen_range(0..self.0.len())]
        }

        fn evaluate(&self, g: &Vec<usize>) -> Vec<f64> {
            self.0[g[0]].clone()
        }

        fn crossover(&self, rng: &mut dyn RngCore, a: &Vec<usize>, b: &Vec<usize>) -> Vec<usize> {
            if rng.gen_bool(0.5) {
                a.clone()
            } else {
                b.clone()
            }
        }

        fn mutate(&self, rng: &mut dyn RngCore, g: &Vec<usize>) -> Vec<usize> {
            if rng.gen_bool(0.5) {
                self.sample(rng)
            } else {
                g.clone()
            }
        }
    }

    /// One generation's decisions: ranks, crowding bits and survivors.
    type Decisions = (Vec<usize>, Vec<u64>, Vec<(Vec<usize>, Vec<u64>, usize)>);

    fn crowd_bits(crowd: &[f64]) -> Vec<u64> {
        crowd.iter().map(|d| d.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Selection by move keeps the same individuals in the same order
        /// as the clone-based reference, and the workspace's truncation
        /// over the fronts it ranks picks what the from-scratch selection
        /// picks.
        #[test]
        fn selection_by_move_matches_the_clone_reference((merged, target) in merged_strategy()) {
            let pts: Vec<&[f64]> = merged.iter().map(|e| e.objectives.as_slice()).collect();
            let mut selection = Selection::new(&merged);
            selection.truncate(target);
            prop_assert_eq!(&selection.picks, &survivors(&pts, target));
            let by_clone = environmental_selection_by_clone(merged.clone(), target);
            let by_move = environmental_selection(merged, target);
            prop_assert_eq!(by_move.len(), target);
            prop_assert_eq!(fingerprint(&by_move), fingerprint(&by_clone));
        }

        /// The carried-relation engine decides every generation exactly as
        /// the from-scratch loop: the same tournament ranks, crowding
        /// bits and survivors in selection order, so the same history,
        /// final population and front.
        #[test]
        fn carried_relation_matches_the_from_scratch_run(
            table in objectives_strategy(),
            population in 2usize..=12,
            generations in 1usize..=6,
            seed in any::<u64>(),
        ) {
            let cfg = Nsga2Config::new(population, generations);
            let problem = Table(table);
            let mut carried: Vec<Decisions> = Vec::new();
            let result = Nsga2::new(cfg).run_observed(
                &problem,
                &mut StdRng::seed_from_u64(seed),
                |g| carried.push((
                    g.rank.to_vec(),
                    crowd_bits(g.crowd),
                    fingerprint(g.survivors.iter().map(|&i| &g.history[i])),
                )),
            );
            let mut scratch: Vec<Decisions> = Vec::new();
            let reference = run_from_scratch(
                cfg,
                &problem,
                &mut StdRng::seed_from_u64(seed),
                |rank, crowd, survivors| scratch.push((
                    rank.to_vec(),
                    crowd_bits(crowd),
                    fingerprint(survivors),
                )),
            );
            prop_assert_eq!(carried.len(), generations - 1);
            prop_assert_eq!(carried, scratch);
            prop_assert_eq!(fingerprint(result.history()), fingerprint(reference.history()));
            prop_assert_eq!(
                fingerprint(result.final_population()),
                fingerprint(reference.final_population())
            );
            prop_assert_eq!(result.pareto_front_indices(), reference.pareto_front_indices());
        }

        /// Filtering only the front-0 entrants finds the front a scan of
        /// the whole history finds, duplicates and quarantined vectors
        /// included, from a single generation on; `random_search` keeps
        /// scanning the whole history.
        #[test]
        fn entrant_filter_matches_the_full_history_scan(
            table in objectives_strategy(),
            population in 2usize..=12,
            generations in prop_oneof![Just(1usize), 2usize..=8],
            seed in any::<u64>(),
        ) {
            let problem = Table(table);
            let mut rng = StdRng::seed_from_u64(seed);
            let result = Nsga2::new(Nsga2Config::new(population, generations)).run(&problem, &mut rng);
            let entrants = result.entrants.as_deref().unwrap_or_default();
            prop_assert!(entrants.windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(result.pareto_front_indices(), full_history_front(result.history()));

            let random = crate::random_search(&problem, population * generations, &mut rng);
            prop_assert!(random.entrants.is_none());
            prop_assert_eq!(random.pareto_front_indices(), full_history_front(random.history()));
        }
    }
}
