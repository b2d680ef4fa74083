//! # hadas-evo
//!
//! The evolutionary-search substrate of the HADAS reproduction: a generic
//! NSGA-II implementation (fast non-dominated sorting, a front-0 filter,
//! crowding distance, binary tournament selection) plus the two comparison metrics the paper
//! reports in Fig. 6 — **hypervolume** and **ratio of dominance**.
//!
//! Both the outer optimization engine (over backbones **B**) and the inner
//! engine (over exits × DVFS, **X** × **F**) instantiate the same
//! [`Nsga2`] driver with different [`Problem`] implementations; genomes
//! here are opaque, and discrete-genome operators are provided in
//! [`discrete`].
//!
//! All objectives are **maximised**; negate costs (energy, latency) before
//! returning them from [`Problem::evaluate`].
//!
//! ```
//! use hadas_evo::{Nsga2, Nsga2Config, Problem};
//! use rand::{rngs::StdRng, Rng, SeedableRng};
//!
//! /// Maximise (x, 1-x) over x in 0..=10 — a toy trade-off.
//! struct Toy;
//! impl Problem for Toy {
//!     type Genome = u32;
//!     fn sample(&self, rng: &mut dyn rand::RngCore) -> u32 { rng.gen_range(0..=10) }
//!     fn evaluate(&self, g: &u32) -> Vec<f64> {
//!         vec![*g as f64, 10.0 - *g as f64]
//!     }
//!     fn crossover(&self, _rng: &mut dyn rand::RngCore, a: &u32, b: &u32) -> u32 { (a + b) / 2 }
//!     fn mutate(&self, rng: &mut dyn rand::RngCore, g: &u32) -> u32 {
//!         (*g + rng.gen_range(0..=2)).min(10)
//!     }
//! }
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let result = Nsga2::new(Nsga2Config::new(8, 5)).run(&Toy, &mut rng);
//! assert!(!result.pareto_front().is_empty());
//! ```

pub mod discrete;
mod dominance;
mod metrics;
mod nsga2;
mod random;

pub use dominance::{crowding_distance, dominates, fast_non_dominated_sort, pareto_indices};
pub use metrics::{hypervolume, hypervolume_2d, ratio_of_dominance};
pub use nsga2::{Evaluated, Nsga2, Nsga2Config, Problem, SearchResult};
pub use random::random_search;
