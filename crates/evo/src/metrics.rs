//! Search-quality metrics: hypervolume and ratio of dominance (paper
//! Fig. 6).

use crate::dominance::{dominates, pareto_indices};

/// Hypervolume of a 2-D maximisation front with respect to a reference
/// point that every front member must dominate (i.e. `reference` is a
/// lower bound in both objectives). Points not above the reference are
/// ignored.
///
/// # Panics
///
/// Panics if any point is not 2-dimensional.
pub fn hypervolume_2d(points: &[Vec<f64>], reference: &[f64; 2]) -> f64 {
    let mut pts: Vec<(f64, f64)> = points
        .iter()
        .map(|p| {
            assert_eq!(p.len(), 2, "hypervolume_2d expects 2-D points");
            (p[0], p[1])
        })
        .filter(|&(x, y)| x > reference[0] && y > reference[1])
        .collect();
    if pts.is_empty() {
        return 0.0;
    }
    // Keep the non-dominated subset, sweep by descending x.
    pts.sort_by(|a, b| b.0.total_cmp(&a.0).then(b.1.total_cmp(&a.1)));
    let mut hv = 0.0;
    let mut best_y = reference[1];
    for (x, y) in pts {
        if y > best_y {
            // Each point adds the strip between its x and the reference,
            // above the best y seen so far.
            hv += (x - reference[0]) * (y - best_y);
            best_y = y;
        }
    }
    hv
}

/// Hypervolume of a maximisation front in any dimension, by inclusion–
/// exclusion over the non-dominated subset (exact; exponential in the
/// front size, so intended for the small fronts NSGA-II produces).
/// For 2-D inputs this delegates to the sweep algorithm.
pub fn hypervolume(points: &[Vec<f64>], reference: &[f64]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    if reference.len() == 2 {
        return hypervolume_2d(points, &[reference[0], reference[1]]);
    }
    // Reduce to the first (Pareto) front, clipped to the reference box.
    let front: Vec<Vec<f64>> = pareto_indices(points)
        .into_iter()
        .map(|i| points[i].clone())
        .filter(|p| p.iter().zip(reference.iter()).all(|(&v, &r)| v > r))
        .collect();
    let n = front.len();
    if n == 0 {
        return 0.0;
    }
    assert!(n <= 24, "exact hypervolume limited to small fronts, got {n}");
    let dims = reference.len();
    let mut total = 0.0f64;
    for mask in 1u32..(1 << n) {
        let mut inter = vec![f64::INFINITY; dims];
        for (i, p) in front.iter().enumerate() {
            if mask & (1 << i) != 0 {
                for d in 0..dims {
                    inter[d] = inter[d].min(p[d]);
                }
            }
        }
        let vol: f64 =
            inter.iter().zip(reference.iter()).map(|(&v, &r)| (v - r).max(0.0)).product();
        if mask.count_ones() % 2 == 1 {
            total += vol;
        } else {
            total -= vol;
        }
    }
    total
}

/// Ratio of dominance between two solution sets (paper Fig. 6b): the
/// fraction of solutions in `ours` that dominate at least one solution in
/// `theirs`.
pub fn ratio_of_dominance(ours: &[Vec<f64>], theirs: &[Vec<f64>]) -> f64 {
    if ours.is_empty() {
        return 0.0;
    }
    let winners = ours.iter().filter(|o| theirs.iter().any(|t| dominates(o, t))).count();
    winners as f64 / ours.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_point_box() {
        let hv = hypervolume_2d(&[vec![2.0, 3.0]], &[0.0, 0.0]);
        assert!((hv - 6.0).abs() < 1e-12);
    }

    #[test]
    fn two_point_staircase() {
        // (1,3) and (3,1): union area = 1*3 + 2*1 = 5.
        let hv = hypervolume_2d(&[vec![1.0, 3.0], vec![3.0, 1.0]], &[0.0, 0.0]);
        assert!((hv - 5.0).abs() < 1e-12, "got {hv}");
    }

    #[test]
    fn dominated_points_add_nothing() {
        let a = hypervolume_2d(&[vec![3.0, 3.0]], &[0.0, 0.0]);
        let b = hypervolume_2d(&[vec![3.0, 3.0], vec![1.0, 1.0], vec![2.0, 2.0]], &[0.0, 0.0]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn points_below_reference_are_ignored() {
        let hv = hypervolume_2d(&[vec![-1.0, 5.0], vec![2.0, 2.0]], &[0.0, 0.0]);
        assert!((hv - 4.0).abs() < 1e-12);
    }

    #[test]
    fn nd_hypervolume_matches_2d_sweep() {
        let pts = vec![vec![1.0, 3.0], vec![3.0, 1.0], vec![2.0, 2.0]];
        let sweep = hypervolume_2d(&pts, &[0.0, 0.0]);
        let incl = {
            // Force the generic path via a 3-D embedding with constant z.
            let pts3: Vec<Vec<f64>> = pts.iter().map(|p| vec![p[0], p[1], 1.0]).collect();
            hypervolume(&pts3, &[0.0, 0.0, 0.0])
        };
        assert!((sweep - incl).abs() < 1e-9, "sweep {sweep} vs inclusion-exclusion {incl}");
    }

    #[test]
    fn hypervolume_grows_with_better_fronts() {
        let weak = vec![vec![1.0, 1.0]];
        let strong = vec![vec![1.0, 1.0], vec![2.0, 0.5]];
        assert!(hypervolume_2d(&strong, &[0.0, 0.0]) > hypervolume_2d(&weak, &[0.0, 0.0]));
    }

    #[test]
    fn rod_of_clearly_better_set_is_one() {
        let ours = vec![vec![5.0, 5.0], vec![6.0, 4.0]];
        let theirs = vec![vec![1.0, 1.0], vec![2.0, 0.5]];
        assert_eq!(ratio_of_dominance(&ours, &theirs), 1.0);
        assert_eq!(ratio_of_dominance(&theirs, &ours), 0.0);
    }

    #[test]
    fn rod_counts_partial_winners() {
        let ours = vec![vec![5.0, 5.0], vec![0.0, 0.0]];
        let theirs = vec![vec![1.0, 1.0]];
        assert!((ratio_of_dominance(&ours, &theirs) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rod_of_empty_set_is_zero() {
        assert_eq!(ratio_of_dominance(&[], &[vec![1.0]]), 0.0);
    }
}
