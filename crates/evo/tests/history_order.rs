//! The drivers' evaluation-order contract: `history()[k]` is the result
//! of the `k`-th `Problem::evaluate` call, for NSGA-II and random search
//! alike. Problems that log per-evaluation data beside the history (the
//! inner engine's exact measurements) pair the two by index.

use hadas_evo::{random_search, Nsga2, Nsga2Config, Problem, SearchResult};
use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};
use std::cell::RefCell;

/// Records every genome it evaluates; objective 0 is the call's index,
/// so an entry out of order or evaluated twice shows.
#[derive(Default)]
struct Recording {
    calls: RefCell<Vec<u32>>,
}

impl Problem for Recording {
    type Genome = u32;

    fn sample(&self, rng: &mut dyn RngCore) -> u32 {
        // A small range, so genomes repeat.
        rng.gen_range(0..16)
    }

    fn evaluate(&self, g: &u32) -> Vec<f64> {
        let mut calls = self.calls.borrow_mut();
        let k = calls.len();
        calls.push(*g);
        vec![k as f64, f64::from(*g % 5), -f64::from(*g)]
    }

    fn crossover(&self, _rng: &mut dyn RngCore, a: &u32, b: &u32) -> u32 {
        (a + b) / 2
    }

    fn mutate(&self, rng: &mut dyn RngCore, g: &u32) -> u32 {
        (g + rng.gen_range(0..3)) % 16
    }
}

fn assert_history_is_call_order(problem: &Recording, result: &SearchResult<u32>) {
    let calls = problem.calls.borrow();
    assert_eq!(result.history().len(), calls.len(), "one history entry per evaluate call");
    for (k, (entry, &genome)) in result.history().iter().zip(calls.iter()).enumerate() {
        assert_eq!(entry.genome, genome, "history[{k}] holds the genome of call {k}");
        assert_eq!(entry.objectives[0], k as f64, "history[{k}] holds the objectives of call {k}");
    }
}

#[test]
fn nsga2_history_is_evaluation_order() {
    for (seed, population, generations) in [(0, 4, 1), (1, 8, 6), (2, 10, 12), (3, 7, 5)] {
        let problem = Recording::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let result = Nsga2::new(Nsga2Config::new(population, generations)).run(&problem, &mut rng);
        assert_eq!(result.history().len(), population * generations);
        assert_history_is_call_order(&problem, &result);
    }
}

#[test]
fn random_search_history_is_evaluation_order() {
    for (seed, budget) in [(0, 0), (1, 1), (2, 40)] {
        let problem = Recording::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let result = random_search(&problem, budget, &mut rng);
        assert_history_is_call_order(&problem, &result);
    }
}
