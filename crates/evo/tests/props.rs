//! Property-based tests for the evolutionary machinery: hypervolume
//! monotonicity, ratio-of-dominance bounds, and front-ordering invariants
//! of the non-dominated sort.

use hadas_evo::{
    crowding_distance, dominates, fast_non_dominated_sort, hypervolume, hypervolume_2d,
    pareto_indices, ratio_of_dominance, Evaluated, SearchResult,
};
use proptest::prelude::*;

fn points_strategy(dims: usize, max_n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(0.0f64..10.0, dims), 1..max_n)
}

/// Objective value `k`: NaN, ±inf, `-0.0`, one of four negative halves
/// (17..=20), or else a grid of four (0..4), so that ties and duplicate
/// points are common.
fn grid(k: u8) -> f64 {
    match k {
        13 => f64::NAN,
        14 => f64::INFINITY,
        15 => f64::NEG_INFINITY,
        16 => -0.0,
        17..=20 => -f64::from(k - 16) / 2.0,
        k => f64::from(k % 4),
    }
}

/// Grid-valued points (values 0..4, so ties and duplicates are common)
/// of one dimensionality in 1..=4, with NaN and ±inf injected: the
/// sort's arity-unrolled pair pass and its any-arity pass both run.
fn grid_points_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..=4).prop_flat_map(move |dims| {
        proptest::collection::vec(proptest::collection::vec((0u8..16).prop_map(grid), dims), 0..60)
    })
}

/// Points for the front filter: 1 to 5 objectives (the staircase up to
/// three, the scan above), grid values of both signs with `-0.0` beside
/// `0.0` and NaN and ±inf mixed in; an empty input or a single point as often as not
/// among the small ones, and now and then every point poisoned.
fn front_points_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    let n = prop_oneof![0usize..=1, 2usize..80];
    (1usize..=5, n, (0u8..5).prop_map(|k| k == 0)).prop_flat_map(|(dims, n, poisoned)| {
        let row = proptest::collection::vec((0u8..21).prop_map(grid), dims);
        let row = (row, 0..dims, 13u8..16).prop_map(move |(mut row, at, k)| {
            if poisoned {
                row[at] = grid(k);
            }
            row
        });
        proptest::collection::vec(row, n)
    })
}

/// The front-0 filter the staircase replaced: an archive of points, a
/// point some member dominates skipped, otherwise the members it
/// dominates evicted and the point added. O(N·|front|).
fn archive_front(points: &[Vec<f64>]) -> Vec<usize> {
    let mut archive: Vec<usize> = Vec::new();
    for (i, p) in points.iter().enumerate() {
        if archive.iter().any(|&m| dominates(&points[m], p)) {
            continue;
        }
        archive.retain(|&m| !dominates(p, &points[m]));
        archive.push(i);
    }
    archive
}

/// The duplicate removal the sorted one replaced: each front index in
/// turn, kept unless a kept index's point equals its point under
/// `f64 ==`. O(|front|²).
fn quadratic_first_of_each(points: &[Vec<f64>], front: &[usize]) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::new();
    for &k in front {
        if !out.iter().any(|&j| points[j] == points[k]) {
            out.push(k);
        }
    }
    out
}

/// Deb's peeling written directly from `dominates`: a point's count is
/// the number of points dominating it, and each front releases, in its
/// own order, the points whose last dominator it holds, in index order.
fn naive_fronts(points: &[Vec<f64>]) -> Vec<Vec<usize>> {
    let n = points.len();
    let beats = |i: usize, j: usize| dominates(&points[i], &points[j]);
    let mut count: Vec<usize> = (0..n).map(|j| (0..n).filter(|&i| beats(i, j)).count()).collect();
    let mut fronts = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&j| count[j] == 0).collect();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            for j in (0..n).filter(|&j| beats(i, j)) {
                count[j] -= 1;
                if count[j] == 0 {
                    next.push(j);
                }
            }
        }
        fronts.push(std::mem::replace(&mut current, next));
    }
    fronts
}

/// Crowding distance written directly from its definition: per
/// objective, the finite members sorted by value (ties in front order),
/// the extremes infinite, and each interior member's neighbour gap over
/// the span added in objective order.
fn naive_crowding(points: &[Vec<f64>], front: &[usize]) -> Vec<f64> {
    let finite: Vec<usize> =
        (0..front.len()).filter(|&w| points[front[w]].iter().all(|v| v.is_finite())).collect();
    let mut distance = vec![0.0f64; front.len()];
    let k = finite.len();
    if k <= 2 {
        for &w in &finite {
            distance[w] = f64::INFINITY;
        }
        return distance;
    }
    let at = |w: usize, d: usize| points[front[w]][d];
    for d in 0..points[front[finite[0]]].len() {
        let mut order = finite.clone();
        order.sort_by(|&a, &b| at(a, d).total_cmp(&at(b, d)));
        distance[order[0]] = f64::INFINITY;
        distance[order[k - 1]] = f64::INFINITY;
        let span = at(order[k - 1], d) - at(order[0], d);
        if span <= 0.0 {
            continue;
        }
        for w in 1..k - 1 {
            if distance[order[w]].is_finite() {
                distance[order[w]] += (at(order[w + 1], d) - at(order[w - 1], d)) / span;
            }
        }
    }
    distance
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The front filter returns exactly front 0 of the sort, in order.
    #[test]
    fn pareto_indices_is_front_zero(pts in grid_points_strategy()) {
        let fronts = fast_non_dominated_sort(&pts);
        let front0 = fronts.first().cloned().unwrap_or_default();
        prop_assert_eq!(pareto_indices(&pts), front0);
    }

    /// The sort-and-staircase filter returns what the archive returns,
    /// ties, signed zeros, poisoned, empty and single-point inputs
    /// included.
    #[test]
    fn pareto_indices_matches_the_archive(pts in front_points_strategy()) {
        prop_assert_eq!(pareto_indices(&pts), archive_front(&pts));
    }

    /// A result's front drops identical points as the quadratic pass
    /// does: `-0.0 == 0.0`, `inf == inf`, and a point holding a NaN
    /// equals none.
    #[test]
    fn front_indices_drop_duplicates_like_the_quadratic_pass(pts in front_points_strategy()) {
        let history =
            pts.iter().map(|p| Evaluated { genome: (), objectives: p.clone(), generation: 0 });
        let result = SearchResult::from_history(history.collect());
        prop_assert_eq!(
            result.pareto_front_indices(),
            quadratic_first_of_each(&pts, &archive_front(&pts))
        );
    }

    /// The one-pass sort returns the reference's fronts, element order
    /// included.
    #[test]
    fn sort_matches_the_naive_reference(pts in grid_points_strategy()) {
        prop_assert_eq!(fast_non_dominated_sort(&pts), naive_fronts(&pts));
    }

    /// Ranking borrowed rows gives what ranking the owned vectors gives:
    /// the same fronts, and crowding distances equal bit for bit, over
    /// every front and over the whole set, to each other and to the
    /// reference.
    #[test]
    fn borrowed_rows_rank_like_owned_vectors(pts in grid_points_strategy()) {
        let rows: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
        let fronts = fast_non_dominated_sort(&pts);
        prop_assert_eq!(&fast_non_dominated_sort(&rows), &fronts);
        prop_assert_eq!(pareto_indices(&rows), pareto_indices(&pts));
        let everyone: Vec<usize> = (0..pts.len()).collect();
        for front in fronts.iter().chain(std::iter::once(&everyone)) {
            let bits = |d: Vec<f64>| d.into_iter().map(f64::to_bits).collect::<Vec<u64>>();
            prop_assert_eq!(
                bits(crowding_distance(&rows, front)),
                bits(crowding_distance(&pts, front))
            );
            prop_assert_eq!(
                bits(crowding_distance(&pts, front)),
                bits(naive_crowding(&pts, front))
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Adding a point never decreases hypervolume.
    #[test]
    fn hypervolume_is_monotone_in_points(
        mut pts in points_strategy(2, 20),
        extra in proptest::collection::vec(0.0f64..10.0, 2),
    ) {
        let reference = [0.0f64, 0.0];
        let before = hypervolume_2d(&pts, &reference);
        pts.push(extra);
        let after = hypervolume_2d(&pts, &reference);
        prop_assert!(after + 1e-12 >= before);
    }

    /// Hypervolume is bounded by the bounding box of the best point.
    #[test]
    fn hypervolume_is_bounded(pts in points_strategy(2, 20)) {
        let reference = [0.0f64, 0.0];
        let hv = hypervolume_2d(&pts, &reference);
        let max_x = pts.iter().map(|p| p[0]).fold(0.0, f64::max);
        let max_y = pts.iter().map(|p| p[1]).fold(0.0, f64::max);
        prop_assert!(hv <= max_x * max_y + 1e-9);
        prop_assert!(hv >= 0.0);
    }

    /// The generic inclusion–exclusion hypervolume agrees with the 2-D
    /// sweep when a constant third coordinate is appended.
    #[test]
    fn nd_hypervolume_agrees_with_sweep(pts in points_strategy(2, 10)) {
        let sweep = hypervolume_2d(&pts, &[0.0, 0.0]);
        let pts3: Vec<Vec<f64>> = pts.iter().map(|p| vec![p[0], p[1], 1.0]).collect();
        let incl = hypervolume(&pts3, &[0.0, 0.0, 0.0]);
        prop_assert!((sweep - incl).abs() < 1e-6 * (1.0 + sweep));
    }

    /// Ratio of dominance is a probability, and a set never dominates
    /// itself (identical copies cannot strictly dominate).
    #[test]
    fn rod_bounds_and_self(pts in points_strategy(3, 15)) {
        let r = ratio_of_dominance(&pts, &pts);
        prop_assert!((0.0..=1.0).contains(&r));
        // Self-dominance happens only between distinct points; a set of
        // one unique point never dominates itself.
        let single = vec![pts[0].clone()];
        prop_assert_eq!(ratio_of_dominance(&single, &single), 0.0);
    }

    /// Every member of front k+1 is dominated by some member of front k.
    #[test]
    fn successive_fronts_are_ordered(pts in points_strategy(2, 30)) {
        let fronts = fast_non_dominated_sort(&pts);
        for pair in fronts.windows(2) {
            for &j in &pair[1] {
                prop_assert!(
                    pair[0].iter().any(|&i| dominates(&pts[i], &pts[j])),
                    "front member {j} not dominated by the previous front"
                );
            }
        }
    }

    /// Sorting is permutation-invariant in membership: reversing the
    /// input yields the same fronts (as index sets mapped back).
    #[test]
    fn sort_is_permutation_invariant(pts in points_strategy(2, 20)) {
        let fronts = fast_non_dominated_sort(&pts);
        let rev: Vec<Vec<f64>> = pts.iter().rev().cloned().collect();
        let fronts_rev = fast_non_dominated_sort(&rev);
        let n = pts.len();
        // Compare rank maps.
        let mut rank = vec![0usize; n];
        for (r, f) in fronts.iter().enumerate() {
            for &i in f {
                rank[i] = r;
            }
        }
        let mut rank_rev = vec![0usize; n];
        for (r, f) in fronts_rev.iter().enumerate() {
            for &i in f {
                rank_rev[n - 1 - i] = r;
            }
        }
        prop_assert_eq!(rank, rank_rev);
    }

    /// NaN/infinite fitness vectors sink to the trailing front as one
    /// quarantined group, never perturb the ranking of the finite
    /// population, and never poison crowding distances.
    #[test]
    fn poisoned_points_sink_without_perturbing_finite_ranks(
        pts in points_strategy(2, 20),
        poison_count in 1usize..4,
    ) {
        let clean_fronts = fast_non_dominated_sort(&pts);
        let mut mixed = pts.clone();
        for i in 0..poison_count {
            mixed.push(match i % 3 {
                0 => vec![f64::NAN, 1.0],
                1 => vec![2.0, f64::INFINITY],
                _ => vec![f64::NAN, f64::NAN],
            });
        }
        let fronts = fast_non_dominated_sort(&mixed);

        // Still a partition.
        let mut seen = vec![0usize; mixed.len()];
        for f in &fronts { for &i in f { seen[i] += 1; } }
        prop_assert!(seen.iter().all(|&c| c == 1));

        // Every poisoned point lands in the single trailing front, and
        // that front is purely poisoned.
        let last = fronts.len() - 1;
        for (r, f) in fronts.iter().enumerate() {
            for &i in f {
                prop_assert!(
                    (i >= pts.len()) == (r == last),
                    "index {} in front {} of {}", i, r, last
                );
            }
        }

        // Finite ranking is unchanged by the injection.
        let mut rank_clean = vec![0usize; pts.len()];
        for (r, f) in clean_fronts.iter().enumerate() { for &i in f { rank_clean[i] = r; } }
        for (r, f) in fronts.iter().enumerate() {
            for &i in f {
                if i < pts.len() {
                    prop_assert_eq!(r, rank_clean[i]);
                }
            }
        }

        // Crowding over a mixed set: poisoned members get exactly zero,
        // and nothing is NaN.
        let all: Vec<usize> = (0..mixed.len()).collect();
        let d = crowding_distance(&mixed, &all);
        for &dist in d.iter().skip(pts.len()) {
            prop_assert_eq!(dist, 0.0);
        }
        prop_assert!(d.iter().all(|v| !v.is_nan()));
    }
}
