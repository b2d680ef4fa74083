//! Evolutionary operators for discrete choice-index genomes (vectors of
//! `usize` where gene `i` ranges over `0..cardinalities[i]`).
//!
//! Both HADAS engines encode their subspaces this way: the OOE over the
//! backbone genes of `hadas-space`, the IOE over exit indicators plus DVFS
//! indices.

use rand::{Rng, RngCore};

/// Uniform crossover: each gene is taken from either parent with equal
/// probability.
///
/// # Panics
///
/// Panics if the parents have different lengths.
pub fn uniform_crossover(rng: &mut dyn RngCore, a: &[usize], b: &[usize]) -> Vec<usize> {
    assert_eq!(a.len(), b.len(), "parents must share a genome length");
    a.iter().zip(b.iter()).map(|(&x, &y)| if rng.gen_bool(0.5) { x } else { y }).collect()
}

/// Per-gene reset mutation: each gene is redrawn uniformly from its range
/// with probability `rate` (at least one gene is always mutated so the
/// operator never returns an identical genome when any gene has more than
/// one choice). The mutated copy of [`reset_mutation_in_place`].
///
/// # Panics
///
/// Panics if `genome` and `cardinalities` lengths differ or any
/// cardinality is zero.
pub fn reset_mutation(
    rng: &mut dyn RngCore,
    genome: &[usize],
    cardinalities: &[usize],
    rate: f64,
) -> Vec<usize> {
    let mut out = genome.to_vec();
    reset_mutation_in_place(rng, &mut out, cardinalities, rate);
    out
}

/// [`reset_mutation`] applied to `genes` in place, with the same draws:
/// one Bernoulli draw per multi-choice gene, a redraw for each hit, and,
/// when nothing was hit, one draw picking the forced gene and its redraw.
///
/// # Panics
///
/// Panics if `genes` and `cardinalities` lengths differ or any
/// cardinality is zero.
pub fn reset_mutation_in_place(
    rng: &mut dyn RngCore,
    genes: &mut [usize],
    cardinalities: &[usize],
    rate: f64,
) {
    assert_eq!(genes.len(), cardinalities.len(), "genome/cardinality length mismatch");
    assert!(cardinalities.iter().all(|&c| c > 0), "cardinalities must be positive");
    let mut mutated = false;
    for (g, &c) in genes.iter_mut().zip(cardinalities.iter()) {
        if c > 1 && rng.gen_bool(rate.clamp(0.0, 1.0)) {
            *g = redraw(rng, *g, c);
            mutated = true;
        }
    }
    if !mutated {
        // Force one real mutation on a random multi-choice gene, if any.
        let choices = cardinalities.iter().filter(|&&c| c > 1).count();
        let k = rng.gen_range(0..choices.max(1)).min(choices.saturating_sub(1));
        let mut multi = genes.iter_mut().zip(cardinalities.iter()).filter(|(_, &c)| c > 1);
        if let Some((g, &c)) = multi.nth(k) {
            *g = redraw(rng, *g, c);
        }
    }
}

/// Redraws a gene uniformly from `0..c` excluding its current value, so
/// the change is real.
fn redraw(rng: &mut dyn RngCore, old: usize, c: usize) -> usize {
    let nv = rng.gen_range(0..c - 1);
    if nv >= old {
        nv + 1
    } else {
        nv
    }
}

/// Step mutation for ordered variables (e.g. DVFS ladder indices): moves a
/// gene up or down by one step with probability `rate`, clamped to range.
/// Unlike [`reset_mutation`], this respects the ordering of the choices.
/// The mutated copy of [`step_mutation_in_place`].
///
/// # Panics
///
/// Panics on length mismatch or zero cardinalities.
pub fn step_mutation(
    rng: &mut dyn RngCore,
    genome: &[usize],
    cardinalities: &[usize],
    rate: f64,
) -> Vec<usize> {
    let mut out = genome.to_vec();
    step_mutation_in_place(rng, &mut out, cardinalities, rate);
    out
}

/// [`step_mutation`] applied to `genes` in place, with the same draws.
///
/// # Panics
///
/// Panics on length mismatch or zero cardinalities.
pub fn step_mutation_in_place(
    rng: &mut dyn RngCore,
    genes: &mut [usize],
    cardinalities: &[usize],
    rate: f64,
) {
    assert_eq!(genes.len(), cardinalities.len(), "genome/cardinality length mismatch");
    assert!(cardinalities.iter().all(|&c| c > 0), "cardinalities must be positive");
    for (g, &c) in genes.iter_mut().zip(cardinalities.iter()) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn crossover_takes_genes_from_parents() {
        let mut rng = StdRng::seed_from_u64(0);
        let a = vec![0usize; 16];
        let b = vec![1usize; 16];
        let c = uniform_crossover(&mut rng, &a, &b);
        assert!(c.contains(&0) && c.contains(&1));
        assert!(c.iter().all(|&g| g <= 1));
    }

    #[test]
    fn reset_mutation_respects_cardinalities() {
        let mut rng = StdRng::seed_from_u64(1);
        let cards = vec![4usize, 1, 8, 2, 3];
        let g = vec![3usize, 0, 7, 1, 2];
        for _ in 0..200 {
            let m = reset_mutation(&mut rng, &g, &cards, 0.5);
            for (v, &c) in m.iter().zip(cards.iter()) {
                assert!(*v < c);
            }
            // The single-choice gene can never change.
            assert_eq!(m[1], 0);
        }
    }

    #[test]
    fn reset_mutation_always_changes_something() {
        let mut rng = StdRng::seed_from_u64(2);
        let cards = vec![3usize, 3, 3];
        let g = vec![0usize, 1, 2];
        for _ in 0..100 {
            // Even with rate 0, one forced mutation must occur.
            let m = reset_mutation(&mut rng, &g, &cards, 0.0);
            assert_ne!(m, g);
        }
    }

    #[test]
    fn step_mutation_moves_by_one() {
        let mut rng = StdRng::seed_from_u64(3);
        let cards = vec![10usize];
        let g = vec![5usize];
        for _ in 0..100 {
            let m = step_mutation(&mut rng, &g, &cards, 1.0);
            assert!(m[0] == 4 || m[0] == 6);
        }
    }

    #[test]
    fn step_mutation_clamps_at_bounds() {
        let mut rng = StdRng::seed_from_u64(4);
        let cards = vec![5usize, 5];
        let g = vec![0usize, 4];
        for _ in 0..50 {
            let m = step_mutation(&mut rng, &g, &cards, 1.0);
            assert_eq!(m[0], 1);
            assert_eq!(m[1], 3);
        }
    }

    #[test]
    #[should_panic(expected = "length")]
    fn crossover_rejects_length_mismatch() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = uniform_crossover(&mut rng, &[0], &[0, 1]);
    }
}
