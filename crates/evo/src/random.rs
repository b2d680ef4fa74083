//! Random search: the standard NAS baseline. Spends the same evaluation
//! budget as NSGA-II on uniform samples with no selection pressure —
//! the ablation that shows whether an evolutionary engine actually earns
//! its complexity on a given landscape.

use crate::{Evaluated, Problem, SearchResult};
use rand::RngCore;

/// Evaluates `budget` uniform samples of `problem` and returns the result
/// in the same shape as [`crate::Nsga2::run`], so downstream analysis
/// (Pareto fronts, hypervolume) is identical.
pub fn random_search<P: Problem>(
    problem: &P,
    budget: usize,
    rng: &mut dyn RngCore,
) -> SearchResult<P::Genome> {
    let history: Vec<Evaluated<P::Genome>> = (0..budget)
        .map(|i| {
            let genome = problem.sample(rng);
            let objectives = problem.evaluate(&genome);
            Evaluated { genome, objectives, generation: i }
        })
        .collect();
    SearchResult::from_history(history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    struct Sphere;

    impl Problem for Sphere {
        type Genome = (f64, f64);

        fn sample(&self, rng: &mut dyn RngCore) -> (f64, f64) {
            (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        }

        fn evaluate(&self, g: &(f64, f64)) -> Vec<f64> {
            vec![-(g.0 * g.0), -(g.1 * g.1)]
        }

        fn crossover(&self, _rng: &mut dyn RngCore, a: &(f64, f64), b: &(f64, f64)) -> (f64, f64) {
            ((a.0 + b.0) / 2.0, (a.1 + b.1) / 2.0)
        }

        fn mutate(&self, rng: &mut dyn RngCore, g: &(f64, f64)) -> (f64, f64) {
            (g.0 + rng.gen_range(-0.1..0.1), g.1 + rng.gen_range(-0.1..0.1))
        }
    }

    #[test]
    fn random_search_spends_exactly_the_budget() {
        let mut rng = StdRng::seed_from_u64(0);
        let result = random_search(&Sphere, 64, &mut rng);
        assert_eq!(result.history().len(), 64);
        assert!(!result.pareto_front().is_empty());
    }

    #[test]
    fn random_search_is_deterministic() {
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            random_search(&Sphere, 32, &mut rng).pareto_objectives()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn random_search_final_population_is_the_whole_history() {
        let mut rng = StdRng::seed_from_u64(0);
        let result = random_search(&Sphere, 16, &mut rng);
        assert!(std::ptr::eq(result.final_population(), result.history()), "no copy is kept");
    }
}
