//! Pareto dominance, fast non-dominated sorting, and crowding distance —
//! the ranking machinery of NSGA-II.
//!
//! All objectives are maximised.

use std::cmp::Ordering;

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

/// Points copied into one contiguous column-major buffer, each column
/// padded to whole blocks of 64 points (objective `d` of point `i` at
/// `d * stride + i`), with each point's finiteness as a bit: the layout
/// the pair kernel reads. Reloading reuses the buffers.
#[derive(Debug, Clone, Default)]
pub(crate) struct Columns {
    flat: Vec<f64>,
    /// Bit `i % 64` of word `i / 64` is set when point `i` is finite;
    /// padding is not.
    finite: Vec<u64>,
    n: usize,
    stride: usize,
    dims: usize,
}

impl Columns {
    /// Replaces the contents with `points`, after checking that all share
    /// one dimensionality.
    ///
    /// # Panics
    ///
    /// Panics on mixed dimensionality, as [`dominates`] does.
    pub(crate) fn load<'p>(&mut self, points: impl ExactSizeIterator<Item = &'p [f64]>) {
        let n = points.len();
        let stride = n.next_multiple_of(64);
        self.n = n;
        self.stride = stride;
        self.dims = 0;
        self.flat.clear();
        self.finite.clear();
        self.finite.resize(stride / 64, 0);
        for (i, p) in points.enumerate() {
            if i == 0 {
                self.dims = p.len();
                self.flat.resize(stride * self.dims, 0.0);
            }
            assert!(p.len() == self.dims, "objective dimensionality mismatch");
            self.finite[i / 64] |= u64::from(is_finite(p)) << (i % 64);
            for (d, &v) in p.iter().enumerate() {
                self.flat[d * stride + i] = v;
            }
        }
    }

    fn len(&self) -> usize {
        self.n
    }

    fn is_finite(&self, i: usize) -> bool {
        self.finite[i / 64] >> (i % 64) & 1 == 1
    }

    fn value(&self, d: usize, i: usize) -> f64 {
        self.flat[d * self.stride + i]
    }

    /// Objective `d` of the 64 points of block `c`.
    fn block(&self, d: usize, c: usize) -> &[f64; 64] {
        &self.flat[d * self.stride..(d + 1) * self.stride].as_chunks::<64>().0[c]
    }

    /// Point `j` against the `len` points of block `c` (the block's first
    /// `len`), each pair compared once: bit `k` of the first word says
    /// `j` dominates point `64c + k`, bit `k` of the second that point
    /// `64c + k` dominates `j`. The compare pass fills one byte lane per
    /// point with whether `j` is better (`gt`) and worse (`lt`) somewhere,
    /// branch-free on the data: three-objective points, the arity every
    /// search ranks, compare their three columns side by side, other
    /// arities one column at a time. The lanes pack into words, and the
    /// verdicts of [`verdict`] follow word-wide: `j ≻ i` from `(gt, lt)`,
    /// `i ≻ j` from `(lt, gt)`, with the quarantine from the finiteness
    /// bits and the lanes past `len` masked off.
    fn duel(&self, j: usize, c: usize, len: usize) -> (u64, u64) {
        let (mut gt, mut lt) = ([0u8; 64], [0u8; 64]);
        if self.dims == 3 {
            let (xs, ys, zs) = (self.block(0, c), self.block(1, c), self.block(2, c));
            let (a0, a1, a2) = (self.value(0, j), self.value(1, j), self.value(2, j));
            for (k, (g, l)) in gt.iter_mut().zip(&mut lt).enumerate() {
                *g = u8::from((a0 > xs[k]) | (a1 > ys[k]) | (a2 > zs[k]));
                *l = u8::from((a0 < xs[k]) | (a1 < ys[k]) | (a2 < zs[k]));
            }
        } else {
            for d in 0..self.dims {
                let (xs, a) = (self.block(d, c), self.value(d, j));
                for (k, (g, l)) in gt.iter_mut().zip(&mut lt).enumerate() {
                    *g |= u8::from(a > xs[k]);
                    *l |= u8::from(a < xs[k]);
                }
            }
        }
        let (gt, lt) = (pack(&gt), pack(&lt));
        let (finite, tail) = (self.finite[c], u64::MAX >> (64 - len));
        if self.is_finite(j) {
            (((gt & !lt & finite) | !finite) & tail, lt & !gt & finite & tail)
        } else {
            (0, finite & tail)
        }
    }
}

/// 64 byte lanes of 0 or 1 as the bits of one word, lane `k` at bit `k`:
/// the multiply gathers each 8 lanes' low bits into its top byte.
#[inline(always)]
fn pack(lanes: &[u8; 64]) -> u64 {
    let (groups, _) = lanes.as_chunks::<8>();
    groups.iter().enumerate().fold(0, |word, (g, bytes)| {
        let bits = u64::from_le_bytes(*bytes).wrapping_mul(0x0102_0408_1020_4080) >> 56;
        word | bits << (8 * g)
    })
}

/// Calls `f` with the position of each set bit of `bits`, ascending.
#[inline(always)]
fn for_each_bit(mut bits: u64, mut f: impl FnMut(usize)) {
    while bits != 0 {
        f(bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
}

/// The dominance relation over a list of points: bit `j` of row `i` (a
/// run of `u64` words) is set when point `i` dominates point `j`, and
/// each point's domination count (how many points dominate it). Deb's
/// peel reads nothing else, so a relation carried from one list to the
/// next ranks exactly as one computed afresh. Every operation rewrites
/// the relation in place, reusing its buffers.
#[derive(Debug, Clone, Default)]
pub(crate) struct Dominance {
    n: usize,
    /// Words per row.
    words: usize,
    beats: Vec<u64>,
    count: Vec<u32>,
    /// [`Dominance::gather`]'s scratch: the picked points of the source
    /// as a bit set, and each one's position among the picks.
    picked: Vec<u64>,
    slot: Vec<u32>,
}

impl Dominance {
    /// Becomes the relation over `columns`, whose leading points are the
    /// ones `old` covers, in its order: their verdicts are copied, and
    /// only the pairs that involve a later point are compared, once each
    /// (every pair, from the empty default relation).
    ///
    /// # Panics
    ///
    /// Panics if `columns` holds fewer points than `old` covers.
    pub(crate) fn extend(&mut self, old: &Dominance, columns: &Columns) {
        let (n, p) = (columns.len(), old.n);
        assert!(p <= n, "the points must include the {p} the relation covers");
        let words = n.div_ceil(64);
        self.n = n;
        self.words = words;
        self.beats.clear();
        self.beats.resize(n * words, 0);
        self.count.clear();
        self.count.extend_from_slice(&old.count);
        self.count.resize(n, 0);
        for i in 0..p {
            let row = &old.beats[i * old.words..(i + 1) * old.words];
            self.beats[i * words..i * words + old.words].copy_from_slice(row);
        }
        for j in p..n {
            let (word, bit) = (j / 64, 1u64 << (j % 64));
            for c in 0..j.div_ceil(64) {
                let from = c * 64;
                let (wins, losses) = columns.duel(j, c, (j - from).min(64));
                self.beats[j * words + c] = wins;
                for_each_bit(wins, |k| self.count[from + k] += 1);
                self.count[j] += losses.count_ones();
                for_each_bit(losses, |k| self.beats[(from + k) * words + word] |= bit);
            }
        }
    }

    /// Becomes `from` restricted to the points at `picks`, in that order.
    pub(crate) fn gather(&mut self, from: &Dominance, picks: &[usize]) {
        let (m, words) = (picks.len(), picks.len().div_ceil(64));
        self.n = m;
        self.words = words;
        self.beats.clear();
        self.beats.resize(m * words, 0);
        self.count.clear();
        self.count.resize(m, 0);
        self.picked.clear();
        self.picked.resize(from.words, 0);
        self.slot.clear();
        self.slot.resize(from.n, 0);
        for (k, &i) in picks.iter().enumerate() {
            self.picked[i / 64] |= 1 << (i % 64);
            self.slot[i] = k as u32;
        }
        for (out, &i) in self.beats.chunks_exact_mut(words.max(1)).zip(picks) {
            let row = &from.beats[i * from.words..(i + 1) * from.words];
            for (c, (&word, &picked)) in row.iter().zip(&self.picked).enumerate() {
                for_each_bit(word & picked, |b| {
                    let l = self.slot[c * 64 + b] as usize;
                    out[l / 64] |= 1 << (l % 64);
                    self.count[l] += 1;
                });
            }
        }
    }

    /// Whether point `i` dominates point `j`.
    #[cfg(test)]
    fn get(&self, i: usize, j: usize) -> bool {
        self.beats[i * self.words + j / 64] >> (j % 64) & 1 == 1
    }

    /// Deb's peel: the fronts of [`fast_non_dominated_sort`], written
    /// into `fronts`. Deb's list of the points `i` dominates is row `i`,
    /// walked set bit by set bit in ascending index order.
    pub(crate) fn peel(&self, fronts: &mut Fronts) {
        let Fronts { members, ends, left } = fronts;
        members.clear();
        ends.clear();
        left.clear();
        left.extend_from_slice(&self.count);
        members.extend((0..self.n).filter(|&i| left[i] == 0));
        let mut start = 0;
        while start < members.len() {
            let end = members.len();
            for at in start..end {
                let i = members[at];
                for (c, &word) in
                    self.beats[i * self.words..(i + 1) * self.words].iter().enumerate()
                {
                    for_each_bit(word, |b| {
                        let j = c * 64 + b;
                        left[j] -= 1;
                        if left[j] == 0 {
                            members.push(j);
                        }
                    });
                }
            }
            ends.push(end);
            start = end;
        }
        debug_assert_fronts_partition(self.n, fronts);
    }
}

/// The fronts of one peel, stored flat: front `r` is the run of
/// `members` up to `ends[r]`, from the previous front's end. Peeling
/// again reuses the buffers.
#[derive(Debug, Clone, Default)]
pub(crate) struct Fronts {
    members: Vec<usize>,
    ends: Vec<usize>,
    /// The peel's domination counts still outstanding.
    left: Vec<u32>,
}

impl Fronts {
    /// The fronts in rank order, front 0 first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[usize]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(start, &end)| &self.members[start..end])
    }

    /// Front 0, or `None` when there are no points.
    pub(crate) fn first(&self) -> Option<&[usize]> {
        self.iter().next()
    }
}

/// Crowding distance buffers, reused from one front to the next; see
/// [`crowding_distance`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Crowding {
    distance: Vec<f64>,
    /// The finite members.
    finite: Vec<usize>,
    /// One objective of each finite member, beside the member.
    values: Vec<(f64, usize)>,
}

impl Crowding {
    /// [`crowding_distance`] of the `m` points of `columns` at
    /// `at(0), …, at(m - 1)`, in that order.
    pub(crate) fn of(
        &mut self,
        columns: &Columns,
        m: usize,
        at: impl Fn(usize) -> usize,
    ) -> &[f64] {
        let finite = |w: usize| columns.is_finite(at(w));
        self.compute(m, columns.dims, finite, |w, d| columns.value(d, at(w)))
    }

    /// The crowding distances of `m` members, member `w` being finite
    /// when `finite(w)` and having objective `d` equal to `value(w, d)`.
    fn compute(
        &mut self,
        m: usize,
        dims: usize,
        finite: impl Fn(usize) -> bool,
        value: impl Fn(usize, usize) -> f64,
    ) -> &[f64] {
        let Crowding { distance, finite: kept, values } = self;
        distance.clear();
        distance.resize(m, 0.0);
        kept.clear();
        kept.extend((0..m).filter(|&w| finite(w)));
        let k = kept.len();
        if k <= 2 {
            for &w in kept.iter() {
                distance[w] = f64::INFINITY;
            }
            return distance;
        }
        // One objective of the finite members at a time, copied out beside
        // each member so the stable sort compares plain values.
        for d in 0..dims {
            values.clear();
            values.extend(kept.iter().map(|&w| (value(w, d), w)));
            values.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (lo, hi) = (values[0].0, values[k - 1].0);
            distance[values[0].1] = f64::INFINITY;
            distance[values[k - 1].1] = f64::INFINITY;
            let span = hi - lo;
            if span <= 0.0 {
                continue;
            }
            for run in values.windows(3) {
                let member = run[1].1;
                if distance[member].is_finite() {
                    distance[member] += (run[2].0 - run[0].0) / span;
                }
            }
        }
        distance
    }
}

/// Indices of the non-dominated points — exactly
/// `fast_non_dominated_sort(points)[0]`, in the same ascending order —
/// from one sort and one sweep: O(n log n) for up to three objectives.
///
/// **Quarantine.** Every finite point dominates every non-finite one,
/// and a non-finite point dominates nothing: when any point is finite,
/// the non-finite ones drop out; when none is, every point is returned.
///
/// **Sort.** The finite points are sorted once in descending
/// lexicographic order, compared as `partial_cmp` compares them (so
/// `-0.0 == 0.0`; up to three objectives as integers of the same order),
/// equal points by index. A point that dominates another is no worse in
/// every objective and better in one, so it sorts first: a point is on
/// the front exactly when no point kept before it dominates it, and a
/// kept point is never dropped.
///
/// **Identical points** dominate neither each other and sort into one
/// run. Every point of a run takes the verdict of the run's first point,
/// tested before any of the run is kept.
///
/// **Staircase.** Every kept point is no worse than the tested one in
/// objective 0, so it dominates the tested one when it is no worse in
/// objectives 1 and 2 (missing objectives read as 0). The kept points'
/// (objective 1, objective 2) pairs that no other pair covers form a
/// staircase, objective 1 descending and objective 2 ascending. The
/// kept points with objective 1 at least the tested one's are a prefix
/// of it, whose last step has the largest objective 2: one binary
/// search answers the test. A newly kept point replaces the steps it
/// covers, a contiguous run, with one `splice`. With more than three
/// objectives, each run's first point is compared with every point kept
/// so far instead: O(n · |front|).
///
/// # Panics
///
/// Panics if the points have different dimensionality.
pub fn pareto_indices<P: AsRef<[f64]>>(points: &[P]) -> Vec<usize> {
    let finite = finiteness(points);
    let row = |i: usize| points[i].as_ref();
    let healthy = (0..points.len()).filter(|&i| finite[i]);
    let dims = points.first().map_or(0, |p| p.as_ref().len());
    let mut kept = if dims <= 3 {
        let mut rows: Vec<([u64; 3], usize)> = healthy
            .map(|i| {
                let mut key = [ordered_bits(0.0); 3];
                for (k, &v) in key.iter_mut().zip(row(i)) {
                    *k = ordered_bits(v);
                }
                (key, i)
            })
            .collect();
        rows.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        // (objective 1, objective 2) of each step.
        let mut steps: Vec<(u64, u64)> = Vec::new();
        sweep(&rows, |&[_, y, z]| {
            let above = steps.partition_point(|s| s.0 >= y);
            if above > 0 && steps[above - 1].1 >= z {
                return false;
            }
            let from = steps.partition_point(|s| s.0 > y);
            let to = steps.partition_point(|s| s.1 <= z);
            steps.splice(from..to, [(y, z)]);
            true
        })
    } else {
        let mut rows: Vec<(&[f64], usize)> = healthy.map(|i| (row(i), i)).collect();
        rows.sort_unstable_by(|a, b| {
            b.0.partial_cmp(a.0).unwrap_or(Ordering::Equal).then(a.1.cmp(&b.1))
        });
        let mut front: Vec<&[f64]> = Vec::new();
        sweep(&rows, |&key| {
            // A kept point sorts first and differs from `key`, so it
            // dominates `key` when it is worse nowhere.
            if front.iter().any(|k| !order(k, key).1) {
                return false;
            }
            front.push(key);
            true
        })
    };
    if kept.is_empty() {
        // No point is finite: the quarantined points dominate nothing.
        return (0..points.len()).collect();
    }
    kept.sort_unstable();
    kept
}

/// A finite `v` as an integer that orders as `partial_cmp` orders the
/// values, so that `-0.0` and `0.0` are one integer: `-0.0` becomes `0.0`,
/// then a non-negative value's sign bit is set and a negative value's
/// bits are all flipped.
fn ordered_bits(v: f64) -> u64 {
    let bits = (v + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The indices of `rows` (keys with their point's index, sorted so that
/// a dominating key comes first) whose run of identical keys `admit`
/// lets in. `admit` sees each run's key once, in order, and keeps what
/// it needs to judge the later ones.
fn sweep<K: PartialEq>(rows: &[(K, usize)], mut admit: impl FnMut(&K) -> bool) -> Vec<usize> {
    let mut kept = Vec::new();
    for run in rows.chunk_by(|a, b| a.0 == b.0) {
        if admit(&run[0].0) {
            kept.extend(run.iter().map(|&(_, i)| i));
        }
    }
    kept
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
    let mut columns = Columns::default();
    columns.load(points.iter().map(AsRef::as_ref));
    let mut relation = Dominance::default();
    relation.extend(&Dominance::default(), &columns);
    let mut fronts = Fronts::default();
    relation.peel(&mut fronts);
    fronts.iter().map(<[usize]>::to_vec).collect()
}

/// Debug-mode invariant: the fronts are pairwise disjoint and jointly
/// cover all `n` population indices (a partition). Compiled out in
/// release builds.
fn debug_assert_fronts_partition(n: usize, fronts: &Fronts) {
    if cfg!(debug_assertions) {
        let mut seen = vec![false; n];
        for &i in fronts.iter().flatten() {
            debug_assert!(i < n, "front index {i} out of range for population {n}");
            debug_assert!(!seen[i], "fronts must be disjoint: index {i} appears twice");
            seen[i] = true;
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
pub fn crowding_distance<P: AsRef<[f64]>>(points: &[P], front: &[usize]) -> Vec<f64> {
    let member = |w: usize| points[front[w]].as_ref();
    let dims = (0..front.len()).map(member).find(|p| is_finite(p)).map_or(0, <[f64]>::len);
    let mut crowding = Crowding::default();
    crowding.compute(front.len(), dims, |w| is_finite(member(w)), |w, d| member(w)[d]);
    crowding.distance
}

/// The relation as it was before it was bit-packed: a byte per pair,
/// each verdict computed both ways round, a fresh matrix per call; and
/// the crowding distance with its buffers allocated per call. The
/// reference the packed relation and the reused crowding buffers are
/// held to.
#[cfg(test)]
mod reference {
    use super::{finiteness, is_finite, verdict};

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
            let rest =
                xs[from..].iter().zip(&ys[from..]).zip(&zs[from..]).zip(&self.finite[from..]);
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
    pub(super) struct Dominance {
        pub(super) n: usize,
        pub(super) beats: Vec<u8>,
        pub(super) count: Vec<usize>,
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
        pub(super) fn extend<P: AsRef<[f64]>>(&self, points: &[P]) -> Self {
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
        pub(super) fn gather(&self, picks: &[usize]) -> Self {
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
        pub(super) fn fronts(&self) -> Vec<Vec<usize>> {
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
            fronts
        }
    }

    /// The crowding distance of each member of `front`, allocating its
    /// buffers per call.
    #[allow(clippy::needless_range_loop)]
    pub(super) fn crowding_distance<P: AsRef<[f64]>>(points: &[P], front: &[usize]) -> Vec<f64> {
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
    fn ordered_bits_order_as_the_values_do() {
        let values = [f64::NEG_INFINITY, -1.0e30, -2.5, -f64::MIN_POSITIVE, -1.0e-310, -0.0];
        let values = values.into_iter().chain([0.0, 1.0e-310, f64::MIN_POSITIVE, 0.5, 3.0]);
        let bits: Vec<u64> = values.chain([f64::MAX, f64::INFINITY]).map(ordered_bits).collect();
        assert_eq!(bits[5], bits[6], "-0.0 and 0.0 are one key");
        assert!(bits[..6].windows(2).all(|w| w[0] < w[1]));
        assert!(bits[6..].windows(2).all(|w| w[0] < w[1]));
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

    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The packed relation holds exactly the reference's verdicts and
    /// counts, and peels into the same fronts in the same order.
    fn assert_same(packed: &Dominance, bytes: &reference::Dominance) -> Result<(), TestCaseError> {
        let n = bytes.n;
        prop_assert_eq!(packed.n, n);
        for i in 0..n {
            for j in 0..n {
                prop_assert!(
                    packed.get(i, j) == (bytes.beats[i * n + j] == 1),
                    "verdict {} over {}",
                    i,
                    j
                );
            }
        }
        let count: Vec<usize> = packed.count.iter().map(|&c| c as usize).collect();
        prop_assert_eq!(&count, &bytes.count);
        let mut fronts = Fronts::default();
        packed.peel(&mut fronts);
        let fronts: Vec<Vec<usize>> = fronts.iter().map(<[usize]>::to_vec).collect();
        prop_assert_eq!(fronts, bytes.fronts());
        Ok(())
    }

    /// Objective value `k` of 16: a grid of four (so ties and duplicate
    /// points are common), NaN, or ±inf.
    fn grid(k: u8) -> f64 {
        match k {
            13 => f64::NAN,
            14 => f64::INFINITY,
            15 => f64::NEG_INFINITY,
            k => f64::from(k % 4),
        }
    }

    fn value() -> impl Strategy<Value = f64> {
        (0u8..16).prop_map(grid)
    }

    /// Points of one dimensionality in 1..=4, their count straddling a
    /// word boundary (63/64/65, 127/128/129) as often as not, with a
    /// prefix length in 0..=n, the empty and the full prefix included.
    fn prefixed_points() -> impl Strategy<Value = (Vec<Vec<f64>>, usize)> {
        let n = prop_oneof![0usize..=3, 62usize..=66, 126usize..=130, 0usize..=140];
        (1usize..=4, n)
            .prop_flat_map(|(dims, n)| {
                proptest::collection::vec(proptest::collection::vec(value(), dims), n)
            })
            .prop_flat_map(|points| {
                let n = points.len();
                (Just(points), prop_oneof![Just(0), Just(n), 0..=n])
            })
    }

    /// A random subset of `0..n` in random order.
    fn picks(rng: &mut StdRng, n: usize) -> Vec<usize> {
        let mut picks: Vec<usize> = (0..n).collect();
        for k in (1..n).rev() {
            picks.swap(k, rng.gen_range(0..=k));
        }
        picks.truncate(rng.gen_range(0..=n));
        picks
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Extending a relation over a prefix of the points, then
        /// gathering a random subset of them in random order, matches
        /// the byte-matrix reference verdict for verdict.
        #[test]
        fn packed_relation_matches_the_byte_matrix((points, p) in prefixed_points(), seed in any::<u64>()) {
            let mut columns = Columns::default();
            columns.load(points[..p].iter().map(Vec::as_slice));
            let mut prefix = Dominance::default();
            prefix.extend(&Dominance::default(), &columns);
            let bytes = reference::Dominance::default().extend(&points[..p]);
            assert_same(&prefix, &bytes)?;

            columns.load(points.iter().map(Vec::as_slice));
            let mut full = Dominance::default();
            full.extend(&prefix, &columns);
            let bytes = bytes.extend(&points);
            assert_same(&full, &bytes)?;

            let picks = picks(&mut StdRng::seed_from_u64(seed), points.len());
            prefix.gather(&full, &picks);
            assert_same(&prefix, &bytes.gather(&picks))?;
        }

        /// Rounds of extend and gather on the same two relations and the
        /// same columns, as a run reuses them: nothing left over from a
        /// larger or smaller round leaks into the next.
        #[test]
        fn reused_relations_match_the_byte_matrix_round_after_round(
            dims in 1usize..=4,
            batches in proptest::collection::vec(0usize..=70, 1..6),
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut points: Vec<Vec<f64>> = Vec::new();
            let (mut columns, mut relation, mut spare) = (Columns::default(), Dominance::default(), Dominance::default());
            let mut bytes = reference::Dominance::default();
            for batch in batches {
                for _ in 0..batch {
                    points.push((0..dims).map(|_| grid(rng.gen_range(0..16))).collect());
                }
                columns.load(points.iter().map(Vec::as_slice));
                spare.extend(&relation, &columns);
                bytes = bytes.extend(&points);
                assert_same(&spare, &bytes)?;

                let picks = picks(&mut rng, points.len());
                relation.gather(&spare, &picks);
                bytes = bytes.gather(&picks);
                assert_same(&relation, &bytes)?;
                points = picks.iter().map(|&k| points[k].clone()).collect();
            }
        }

        /// The reused crowding buffers give the reference's distances bit
        /// for bit, over members picked through an index map, quarantined
        /// members included; so does the public wrapper.
        #[test]
        fn reused_crowding_matches_the_reference(
            (points, _) in prefixed_points(),
            seeds in proptest::collection::vec(any::<u64>(), 1..4),
        ) {
            let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
            let mut columns = Columns::default();
            columns.load(points.iter().map(Vec::as_slice));
            let mut crowding = Crowding::default();
            for seed in seeds {
                let front = picks(&mut StdRng::seed_from_u64(seed), points.len());
                let expected = bits(&reference::crowding_distance(&points, &front));
                prop_assert_eq!(bits(crowding.of(&columns, front.len(), |w| front[w])), expected.clone());
                prop_assert_eq!(bits(&crowding_distance(&points, &front)), expected);
            }
        }
    }
}
