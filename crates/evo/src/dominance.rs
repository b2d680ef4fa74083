//! Pareto dominance, fast non-dominated sorting, and crowding distance —
//! the ranking machinery of NSGA-II.
//!
//! All objectives are maximised.

/// Whether point `a` Pareto-dominates point `b`: no worse in every
/// objective and strictly better in at least one.
///
/// **Non-finite quarantine.** A point containing a NaN or infinite
/// objective is *quarantined*: every fully-finite point dominates it,
/// and it dominates nothing (quarantined points are mutually
/// non-dominated). Naive float comparisons would instead let NaN slip
/// through `<`/`>` as "incomparable", silently placing poisoned fitness
/// vectors in the Pareto front — a release-mode hazard the debug
/// assertions never caught. The quarantine keeps the dominance relation
/// a strict partial order over the whole population, so
/// [`fast_non_dominated_sort`] still produces a clean partition with
/// poisoned points sunk into the trailing front.
///
/// # Panics
///
/// Panics if the points have different dimensionality — mixing objective
/// spaces is a programming error.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    assert_eq!(a.len(), b.len(), "objective dimensionality mismatch");
    verdict(order(a, b), is_finite(a), is_finite(b))
}

/// Whether every objective of `p` is finite (not quarantined).
fn is_finite(p: &[f64]) -> bool {
    p.iter().all(|v| v.is_finite())
}

/// `(a > b somewhere, a < b somewhere)` over two equal-length rows.
/// Branch-free over the objectives: the comparisons are data-dependent
/// and mispredict badly when branched on.
#[inline(always)]
fn order(a: &[f64], b: &[f64]) -> (bool, bool) {
    let (mut gt, mut lt) = (false, false);
    for (&x, &y) in a.iter().zip(b) {
        gt |= x > y;
        lt |= x < y;
    }
    (gt, lt)
}

/// `a ≻ b` from [`order`]'s result and each point's finiteness, without a
/// branch: a healthy point always dominates a poisoned one, and a poisoned
/// point dominates nothing (including other poisoned points).
#[inline(always)]
fn verdict((gt, lt): (bool, bool), a_finite: bool, b_finite: bool) -> bool {
    (a_finite & b_finite & gt & !lt) | (a_finite & !b_finite)
}

/// Whether each point is finite, after checking that all share one
/// dimensionality.
///
/// # Panics
///
/// Panics on mixed dimensionality, as [`dominates`] does.
fn finiteness<P: AsRef<[f64]>>(points: &[P]) -> Vec<bool> {
    let dims = points.first().map_or(0, |p| p.as_ref().len());
    let check = |p: &P| {
        assert!(p.as_ref().len() == dims, "objective dimensionality mismatch");
        is_finite(p.as_ref())
    };
    points.iter().map(check).collect()
}

/// Points copied into one contiguous column-major buffer (objective `d`
/// of point `i` at `d * len + i`), with each point's finiteness: the
/// layout the row kernel reads.
struct Columns {
    flat: Vec<f64>,
    finite: Vec<bool>,
    dims: usize,
}

impl Columns {
    /// Copies `points` after checking that all share one dimensionality.
    ///
    /// # Panics
    ///
    /// Panics on mixed dimensionality, as [`dominates`] does.
    fn new<P: AsRef<[f64]>>(points: &[P]) -> Self {
        let finite = finiteness(points);
        let dims = points.first().map_or(0, |p| p.as_ref().len());
        let n = points.len();
        let mut flat = vec![0.0; n * dims];
        for (i, p) in points.iter().enumerate() {
            for (d, &v) in p.as_ref().iter().enumerate() {
                flat[d * n + i] = v;
            }
        }
        Columns { flat, finite, dims }
    }

    fn len(&self) -> usize {
        self.finite.len()
    }

    fn column(&self, d: usize) -> &[f64] {
        &self.flat[d * self.len()..(d + 1) * self.len()]
    }

    /// Whether point `i` dominates point `j`.
    fn beats(&self, i: usize, j: usize) -> bool {
        let (mut gt, mut lt) = (false, false);
        for d in 0..self.dims {
            let column = self.column(d);
            gt |= column[i] > column[j];
            lt |= column[i] < column[j];
        }
        verdict((gt, lt), self.finite[i], self.finite[j])
    }

    /// Writes to `out[k]` whether point `i` dominates point `from + k`.
    /// Three-objective points, the arity every search ranks, run a pass
    /// over the three columns side by side, branch-free on the data;
    /// other arities compare point by point.
    fn beats_row(&self, i: usize, from: usize, out: &mut [u8]) {
        if self.dims != 3 {
            for (k, b) in out.iter_mut().enumerate() {
                *b = u8::from(self.beats(i, from + k));
            }
            return;
        }
        let (xs, ys, zs) = (self.column(0), self.column(1), self.column(2));
        let (a0, a1, a2, fa) = (xs[i], ys[i], zs[i], self.finite[i]);
        let rest = xs[from..].iter().zip(&ys[from..]).zip(&zs[from..]).zip(&self.finite[from..]);
        for (b, (((&x, &y), &z), &fb)) in out.iter_mut().zip(rest) {
            let gt = (a0 > x) | (a1 > y) | (a2 > z);
            let lt = (a0 < x) | (a1 < y) | (a2 < z);
            *b = u8::from(verdict((gt, lt), fa, fb));
        }
    }
}

/// The dominance relation over a list of points: `beats[i * n + j] == 1`
/// when point `i` dominates point `j`, and each point's domination count
/// (how many points dominate it). Deb's peel reads nothing else, so a
/// relation carried from one list to the next ranks exactly as one
/// computed afresh.
#[derive(Debug, Clone, Default)]
pub(crate) struct Dominance {
    n: usize,
    beats: Vec<u8>,
    count: Vec<usize>,
}

impl Dominance {
    /// The relation over `points`, whose leading points are the ones this
    /// relation covers, in its order: their verdicts are copied, and only
    /// the verdicts that involve a later point are computed (all of them,
    /// from the empty default relation).
    ///
    /// # Panics
    ///
    /// Panics if the points have different dimensionality or are fewer
    /// than this relation covers.
    pub(crate) fn extend<P: AsRef<[f64]>>(&self, points: &[P]) -> Self {
        let columns = Columns::new(points);
        let (n, p) = (columns.len(), self.n);
        let mut beats = vec![0u8; n * n];
        let mut count = vec![0usize; n];
        count[..p].copy_from_slice(&self.count);
        for i in 0..n {
            let row = &mut beats[i * n..(i + 1) * n];
            let from = if i < p {
                row[..p].copy_from_slice(&self.beats[i * p..(i + 1) * p]);
                p
            } else {
                0
            };
            columns.beats_row(i, from, &mut row[from..]);
            for (c, &b) in count[from..].iter_mut().zip(&row[from..]) {
                *c += usize::from(b);
            }
        }
        Dominance { n, beats, count }
    }

    /// The relation restricted to the points at `picks`, in that order.
    pub(crate) fn gather(&self, picks: &[usize]) -> Self {
        let (n, m) = (self.n, picks.len());
        let mut beats = vec![0u8; m * m];
        let mut count = vec![0usize; m];
        for (out, &i) in beats.chunks_exact_mut(m.max(1)).zip(picks) {
            let row = &self.beats[i * n..(i + 1) * n];
            for (b, &j) in out.iter_mut().zip(picks) {
                *b = row[j];
            }
            for (c, &b) in count.iter_mut().zip(out.iter()) {
                *c += usize::from(b);
            }
        }
        Dominance { n: m, beats, count }
    }

    /// Deb's peel: the fronts of [`fast_non_dominated_sort`]. Deb's list
    /// of the points `i` dominates is row `i` of the matrix, in ascending
    /// index order; the row is read eight bytes at a time, so runs of
    /// points `i` does not dominate cost one test per word.
    pub(crate) fn fronts(&self) -> Vec<Vec<usize>> {
        let n = self.n;
        let mut count = self.count.clone();
        let mut fronts: Vec<Vec<usize>> = Vec::new();
        let mut current: Vec<usize> = (0..n).filter(|&i| count[i] == 0).collect();
        while !current.is_empty() {
            let mut next = Vec::new();
            let mut release = |j: usize| {
                count[j] -= 1;
                if count[j] == 0 {
                    next.push(j);
                }
            };
            for &i in &current {
                let (words, tail) = self.beats[i * n..(i + 1) * n].as_chunks::<8>();
                for (w, word) in words.iter().enumerate() {
                    // Each byte is 0 or 1, so each set bit is one point.
                    let mut bits = u64::from_le_bytes(*word);
                    while bits != 0 {
                        release(w * 8 + bits.trailing_zeros() as usize / 8);
                        bits &= bits - 1;
                    }
                }
                for (k, &b) in tail.iter().enumerate() {
                    if b != 0 {
                        release(words.len() * 8 + k);
                    }
                }
            }
            fronts.push(std::mem::replace(&mut current, next));
        }
        debug_assert_fronts_partition(n, &fronts);
        fronts
    }
}

/// Indices of the non-dominated points — exactly
/// `fast_non_dominated_sort(points)[0]`, in the same ascending order, for
/// O(N·|front|) instead of O(N²) comparisons.
///
/// Keeps an archive: a point some archive member dominates is skipped;
/// otherwise the members it dominates leave and it joins. Dominance
/// (quarantine included) is transitive, so every point is in the archive
/// or dominated by a member of it, and the archive ends up as the set
/// nothing dominates.
///
/// # Panics
///
/// Panics if the points have different dimensionality.
pub fn pareto_indices<P: AsRef<[f64]>>(points: &[P]) -> Vec<usize> {
    let finite = finiteness(points);
    let dims = points.first().map_or(0, |p| p.as_ref().len());
    let mut flat = Vec::with_capacity(points.len() * dims);
    for p in points {
        flat.extend_from_slice(p.as_ref());
    }
    let beats = |i: usize, j: usize| {
        let (a, b) = (&flat[i * dims..(i + 1) * dims], &flat[j * dims..(j + 1) * dims]);
        verdict(order(a, b), finite[i], finite[j])
    };
    let mut archive: Vec<usize> = Vec::new();
    for i in 0..points.len() {
        if archive.iter().any(|&m| beats(m, i)) {
            continue;
        }
        archive.retain(|&m| !beats(i, m));
        archive.push(i);
    }
    archive
}

/// Deb's fast non-dominated sort: partitions point indices into fronts,
/// front 0 being the Pareto-optimal set, front 1 the set that becomes
/// optimal once front 0 is removed, and so on. Each front lists its
/// points in the order the peeling reaches them; front 0 is ascending.
///
/// # Panics
///
/// Panics if the points have different dimensionality.
pub fn fast_non_dominated_sort<P: AsRef<[f64]>>(points: &[P]) -> Vec<Vec<usize>> {
    Dominance::default().extend(points).fronts()
}

/// Debug-mode invariant: the fronts are pairwise disjoint and jointly
/// cover all `n` population indices (a partition). Compiled out in
/// release builds.
fn debug_assert_fronts_partition(n: usize, fronts: &[Vec<usize>]) {
    if cfg!(debug_assertions) {
        let mut seen = vec![false; n];
        for front in fronts {
            for &i in front {
                debug_assert!(i < n, "front index {i} out of range for population {n}");
                debug_assert!(!seen[i], "fronts must be disjoint: index {i} appears twice");
                seen[i] = true;
            }
        }
        debug_assert!(
            seen.iter().all(|&s| s),
            "fronts must cover the population: {} of {n} indices ranked",
            seen.iter().filter(|&&s| s).count()
        );
    }
}

/// Crowding distance of each member of `front` (indices into `points`):
/// the NSGA-II diversity measure. Boundary points get `f64::INFINITY`.
///
/// Members with non-finite objectives are excluded from the computation
/// and receive a distance of `0.0` — a quarantined point must never win
/// a diversity tiebreak, and letting NaN into the sort would poison its
/// neighbours' distances. On an all-finite front the result is
/// bit-identical to the classical algorithm.
///
/// Returned in the same order as `front`.
#[allow(clippy::needless_range_loop)]
pub fn crowding_distance<P: AsRef<[f64]>>(points: &[P], front: &[usize]) -> Vec<f64> {
    let m = front.len();
    if m == 0 {
        return Vec::new();
    }
    let mut distance = vec![0.0f64; m];
    let finite: Vec<usize> = (0..m).filter(|&w| is_finite(points[front[w]].as_ref())).collect();
    let k = finite.len();
    if k <= 2 {
        for &w in &finite {
            distance[w] = f64::INFINITY;
        }
        return distance;
    }
    let dims = points[front[finite[0]]].as_ref().len();
    // One objective of the finite members at a time, copied out so the
    // sort compares plain values; `order` holds positions in `finite`.
    let mut values = vec![0.0f64; k];
    let mut order: Vec<usize> = Vec::with_capacity(k);
    for d in 0..dims {
        for (v, &w) in values.iter_mut().zip(&finite) {
            *v = points[front[w]].as_ref()[d];
        }
        order.clear();
        order.extend(0..k);
        order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        let lo = values[order[0]];
        let hi = values[order[k - 1]];
        distance[finite[order[0]]] = f64::INFINITY;
        distance[finite[order[k - 1]]] = f64::INFINITY;
        let span = hi - lo;
        if span <= 0.0 {
            continue;
        }
        for w in 1..k - 1 {
            let prev = values[order[w - 1]];
            let next = values[order[w + 1]];
            let member = finite[order[w]];
            if distance[member].is_finite() {
                distance[member] += (next - prev) / span;
            }
        }
    }
    distance
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominates_requires_strict_improvement() {
        assert!(dominates(&[1.0, 2.0], &[1.0, 1.0]));
        assert!(!dominates(&[1.0, 1.0], &[1.0, 1.0]));
        assert!(!dominates(&[2.0, 0.0], &[1.0, 1.0]));
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn dominates_rejects_mixed_dims() {
        let _ = dominates(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn sort_rejects_mixed_dims() {
        let _ = fast_non_dominated_sort(&[vec![1.0, 2.0], vec![1.0], vec![0.0, 0.0]]);
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn pareto_indices_rejects_mixed_dims() {
        let _ = pareto_indices(&[vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    fn pareto_indices_keeps_front_zero_in_index_order() {
        let pts = vec![
            vec![1.0, 1.0],      // dominated by the later [2, 2]
            vec![f64::NAN, 9.0], // quarantined
            vec![0.0, 5.0],      // front 0
            vec![2.0, 2.0],      // front 0
            vec![2.0, 2.0],      // duplicate: also front 0
            vec![3.0, 0.0],      // front 0
        ];
        assert_eq!(pareto_indices(&pts), vec![2, 3, 4, 5]);
        assert_eq!(pareto_indices(&pts), fast_non_dominated_sort(&pts)[0]);
        assert!(pareto_indices::<Vec<f64>>(&[]).is_empty());
    }

    #[test]
    fn sort_separates_known_fronts() {
        let pts = vec![
            vec![3.0, 3.0], // front 0
            vec![1.0, 4.0], // front 0
            vec![2.0, 2.0], // front 1 (dominated by [3,3])
            vec![1.0, 1.0], // front 2
        ];
        let fronts = fast_non_dominated_sort(&pts);
        assert_eq!(fronts.len(), 3);
        let mut f0 = fronts[0].clone();
        f0.sort_unstable();
        assert_eq!(f0, vec![0, 1]);
        assert_eq!(fronts[1], vec![2]);
        assert_eq!(fronts[2], vec![3]);
    }

    #[test]
    fn every_point_lands_in_exactly_one_front() {
        let pts: Vec<Vec<f64>> =
            (0..25).map(|i| vec![(i % 5) as f64, (i / 5) as f64, ((i * 7) % 11) as f64]).collect();
        let fronts = fast_non_dominated_sort(&pts);
        let mut seen = vec![0usize; pts.len()];
        for f in &fronts {
            for &i in f {
                seen[i] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn first_front_is_mutually_non_dominated() {
        let pts: Vec<Vec<f64>> =
            (0..30).map(|i| vec![(i as f64).sin() * 5.0, (i as f64).cos() * 5.0]).collect();
        let fronts = fast_non_dominated_sort(&pts);
        for &i in &fronts[0] {
            for &j in &fronts[0] {
                assert!(!dominates(&pts[i], &pts[j]));
            }
        }
    }

    #[test]
    fn empty_input_yields_no_fronts() {
        assert!(fast_non_dominated_sort::<Vec<f64>>(&[]).is_empty());
    }

    #[test]
    fn crowding_boundary_points_are_infinite() {
        let pts = vec![vec![0.0, 3.0], vec![1.0, 2.0], vec![2.0, 1.0], vec![3.0, 0.0]];
        let front = vec![0, 1, 2, 3];
        let d = crowding_distance(&pts, &front);
        assert!(d[0].is_infinite());
        assert!(d[3].is_infinite());
        assert!(d[1].is_finite() && d[1] > 0.0);
    }

    #[test]
    fn crowding_prefers_isolated_points() {
        // Middle points: one isolated, one crowded.
        let pts = vec![
            vec![0.0, 10.0],
            vec![1.0, 9.0], // crowded next to [0,10] and [1.5, 8.5]
            vec![1.5, 8.5],
            vec![6.0, 3.0], // isolated
            vec![10.0, 0.0],
        ];
        let front = vec![0, 1, 2, 3, 4];
        let d = crowding_distance(&pts, &front);
        assert!(d[3] > d[1], "isolated point must have larger crowding distance");
    }

    #[test]
    fn crowding_of_tiny_fronts_is_infinite() {
        let pts = vec![vec![1.0, 1.0], vec![2.0, 0.0]];
        assert!(crowding_distance(&pts, &[0]).iter().all(|d| d.is_infinite()));
        assert!(crowding_distance(&pts, &[0, 1]).iter().all(|d| d.is_infinite()));
    }

    #[test]
    fn non_finite_points_are_dominated_by_all_and_dominate_nothing() {
        let healthy = [1.0, 1.0];
        let poisoned = [f64::NAN, 5.0];
        let infinite = [f64::INFINITY, 0.0];
        assert!(dominates(&healthy, &poisoned));
        assert!(dominates(&healthy, &infinite));
        assert!(!dominates(&poisoned, &healthy));
        assert!(!dominates(&infinite, &healthy));
        // Quarantined points are mutually non-dominated (one trailing front).
        assert!(!dominates(&poisoned, &infinite));
        assert!(!dominates(&infinite, &poisoned));
        assert!(!dominates(&poisoned, &poisoned));
    }

    #[test]
    fn sort_sinks_poisoned_points_into_the_trailing_front() {
        let pts = vec![
            vec![3.0, 3.0],            // front 0
            vec![f64::NAN, 9.0],       // quarantined
            vec![2.0, 2.0],            // front 1
            vec![9.0, f64::NAN],       // quarantined
            vec![f64::INFINITY, 99.0], // quarantined
        ];
        let fronts = fast_non_dominated_sort(&pts);
        assert_eq!(fronts.len(), 3);
        assert_eq!(fronts[0], vec![0]);
        assert_eq!(fronts[1], vec![2]);
        let mut trailing = fronts[2].clone();
        trailing.sort_unstable();
        assert_eq!(trailing, vec![1, 3, 4]);
    }

    #[test]
    fn crowding_gives_quarantined_members_zero_and_never_nan() {
        let pts = vec![
            vec![0.0, 3.0],
            vec![1.0, 2.0],
            vec![f64::NAN, 1.0],
            vec![2.0, 1.0],
            vec![3.0, 0.0],
        ];
        let front = vec![0, 1, 2, 3, 4];
        let d = crowding_distance(&pts, &front);
        assert_eq!(d[2], 0.0, "quarantined member must never win a diversity tiebreak");
        assert!(d.iter().all(|v| !v.is_nan()));
        assert!(d[0].is_infinite() && d[4].is_infinite());
        assert!(d[1].is_finite() && d[1] > 0.0);
        // The finite members' distances match a front that never
        // contained the poisoned point.
        let clean_pts = vec![pts[0].clone(), pts[1].clone(), pts[3].clone(), pts[4].clone()];
        let clean = crowding_distance(&clean_pts, &[0, 1, 2, 3]);
        assert_eq!(d[1].to_bits(), clean[1].to_bits());
        assert_eq!(d[3].to_bits(), clean[2].to_bits());
    }

    #[test]
    fn all_poisoned_population_forms_one_front() {
        let pts = vec![vec![f64::NAN, 0.0], vec![0.0, f64::NAN], vec![f64::NAN, f64::NAN]];
        let fronts = fast_non_dominated_sort(&pts);
        assert_eq!(fronts.len(), 1);
        assert_eq!(fronts[0].len(), 3);
        let d = crowding_distance(&pts, &fronts[0]);
        assert!(d.iter().all(|v| *v == 0.0));
    }
}
