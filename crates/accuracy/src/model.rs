use hadas_dataset::DifficultyDistribution;
use hadas_space::Subnet;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Calibrated accuracy surrogate for backbones and their early exits.
///
/// See the crate-level docs for the modelling rationale. All outputs are
/// deterministic functions of the architecture (the jitter is a hash of
/// the genome, not RNG state), so search runs are exactly reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyModel {
    /// Asymptotic accuracy (%) as capacity grows without bound.
    saturation: f64,
    /// Coefficient of the capacity power law.
    coeff: f64,
    /// Exponent of the capacity power law.
    alpha: f64,
    /// Half-range of the deterministic per-genome jitter (%).
    jitter: f64,
    /// Exponent shaping how exit capability grows with depth fraction.
    depth_beta: f64,
    /// Weight of the ensemble (union) bonus under ideal mapping.
    ensemble_eps: f64,
    /// The population's sample-difficulty distribution.
    difficulty: DifficultyDistribution,
}

impl AccuracyModel {
    /// The CIFAR-100 calibration used throughout the reproduction.
    ///
    /// Anchors: `accuracy(g) = 89.5 − 1.66 · g^−0.404` with `g` in GMACs
    /// lands a0 (0.20 GMACs) at ≈ 86.3 % and a6 (1.92 GMACs) at ≈ 88.2 %,
    /// matching the paper's Table III static column.
    pub fn cifar100() -> Self {
        AccuracyModel {
            saturation: 89.5,
            coeff: 1.66,
            alpha: 0.404,
            jitter: 0.50,
            depth_beta: 0.55,
            ensemble_eps: 0.16,
            difficulty: DifficultyDistribution::default(),
        }
    }

    /// The difficulty distribution this model integrates over.
    pub fn difficulty(&self) -> &DifficultyDistribution {
        &self.difficulty
    }

    /// Replaces the difficulty distribution (used by ablations that study
    /// easier or harder input populations).
    pub fn with_difficulty(mut self, difficulty: DifficultyDistribution) -> Self {
        self.difficulty = difficulty;
        self
    }

    fn genome_jitter(&self, subnet: &Subnet, salt: u64) -> f64 {
        let mut h = DefaultHasher::new();
        subnet.genome().genes().hash(&mut h);
        salt.hash(&mut h);
        let u = (h.finish() % 10_000) as f64 / 10_000.0;
        (u * 2.0 - 1.0) * self.jitter
    }

    /// Static top-1 accuracy (%) of `subnet` as a standalone model — the
    /// paper's `Acc_b` in the OOE fitness of eq. (3).
    pub fn backbone_accuracy(&self, subnet: &Subnet) -> f64 {
        let gmacs = subnet.total_flops() / 1e9;
        let base = self.saturation - self.coeff * gmacs.powf(-self.alpha);
        // Secondary structural effects the pure-MACs law misses: accuracy
        // peaks at moderate depth for a fixed budget (very shallow nets
        // underfit, very deep ones train poorly on a 100-class set), and
        // higher resolution helps fine-grained classes slightly beyond its
        // MAC cost. These give the outer search genuine architectural
        // headroom beyond raw MACs — the reason NAS fronts dominate the
        // hand-picked a0..a6 points in the paper's Fig. 5.
        let depth: usize = subnet.stages().iter().map(|s| s.depth).sum();
        let depth_bonus = (0.5 * (1.0 - ((depth as f64 - 27.0) / 12.0).powi(2))).max(-0.6);
        let res_bonus =
            0.15 * ((subnet.resolution() as f64 / 224.0).ln() / (288.0f64 / 224.0).ln());
        (base + depth_bonus + res_bonus + self.genome_jitter(subnet, 0)).clamp(5.0, 99.0)
    }

    /// The capability threshold of the backbone's *final* classifier: the
    /// difficulty below which it classifies samples correctly. Defined so
    /// that `F(threshold) = backbone_accuracy / 100`.
    pub fn final_threshold(&self, subnet: &Subnet) -> f64 {
        self.difficulty.quantile(self.backbone_accuracy(subnet) / 100.0)
    }

    /// How *exit-friendly* a backbone's architecture is, in `[0, 1]`.
    ///
    /// This is the property HADAS's outer engine exploits: some backbones
    /// build class-discriminative features early, so their shallow exits
    /// catch far more samples per unit of prefix compute. Empirically that
    /// correlates with (i) concentrating depth in the early stages, (ii)
    /// larger receptive fields early (5×5 kernels), and (iii) richer early
    /// expansion ratios — all *orthogonal to total model size*, which is
    /// why the paper's HADAS backbones early-exit so much better than
    /// a0..a6 despite comparable static accuracy.
    pub fn exitability(&self, subnet: &Subnet) -> f64 {
        let stages = subnet.stages();
        let total_depth: usize = stages.iter().map(|s| s.depth).sum();
        let early_depth: usize = stages.iter().take(3).map(|s| s.depth).sum();
        let depth_share = early_depth as f64 / total_depth as f64; // ~[0.24, 0.57]
        let share_term = ((depth_share - 0.24) / 0.33).clamp(0.0, 1.0);
        let k5_early = stages.iter().take(3).filter(|s| s.kernel == 5).count() as f64 / 3.0;
        let er_early = stages.iter().skip(1).take(3).filter(|s| s.expand == 6).count() as f64 / 3.0;
        (0.85 * share_term + 0.10 * k5_early + 0.05 * er_early).clamp(0.0, 1.0)
    }

    /// The capability-growth exponent β of `subnet`: exit capability grows
    /// as `depth_fraction^β`, so smaller β (more exit-friendly) means
    /// shallow exits already classify a large share of the population.
    ///
    /// Besides [`AccuracyModel::exitability`], β carries a total-depth
    /// penalty: very deep backbones concentrate their discriminative power
    /// in late stages (the MSDNet observation), so their exits are
    /// relatively weaker at the same *fractional* depth — which is why the
    /// paper's a6 benefits less from early exits than a0 despite its far
    /// larger capacity.
    pub fn depth_beta(&self, subnet: &Subnet) -> f64 {
        let depth: usize = subnet.stages().iter().map(|s| s.depth).sum();
        let depth_penalty = 0.15 * ((depth as f64 - 17.0) / 20.0).clamp(0.0, 1.0);
        self.depth_beta + 0.25 - 0.62 * self.exitability(subnet) + depth_penalty
    }

    /// The paper's `N_i` (eq. (6)): fraction of the input population an
    /// exit attached after MBConv layer `position` (1-based) classifies
    /// correctly, under the ideal mapping policy.
    ///
    /// Capability scales with the fraction of backbone compute the prefix
    /// performs (`depth_fraction^β`, with β architecture-dependent via
    /// [`AccuracyModel::exitability`]) and mildly with the feature width
    /// the exit reads.
    ///
    /// # Panics
    ///
    /// Panics if `position` is outside `1..=num_mbconv_layers()` (the exit
    /// subspace is generated from the subnet, so this is a caller bug).
    pub fn exit_fraction(&self, subnet: &Subnet, position: usize) -> f64 {
        let df = subnet.depth_fraction(position);
        let width = subnet.mbconv_layers()[position - 1].c_out;
        self.exit_fraction_at(
            subnet,
            position,
            df,
            width,
            self.depth_beta(subnet),
            self.final_threshold(subnet),
        )
    }

    /// `N_i` at `position` from its depth fraction `df` and the width of
    /// the feature map the exit reads, given the backbone's β and final
    /// threshold.
    fn exit_fraction_at(
        &self,
        subnet: &Subnet,
        position: usize,
        df: f64,
        width: usize,
        beta: f64,
        threshold: f64,
    ) -> f64 {
        let width_factor = 0.92 + 0.08 * (width as f64 / 224.0).min(1.0);
        let tau = threshold * df.powf(beta) * width_factor;
        let jitter = 1.0 + self.genome_jitter(subnet, position as u64) / 100.0;
        (self.difficulty.cdf(tau) * jitter).clamp(0.0, 1.0)
    }

    /// `N_i` for every candidate exit position of `subnet`, 1-based
    /// positions `1..=num_mbconv_layers()`: entry `p − 1` equals
    /// [`AccuracyModel::exit_fraction`] at `p`, bit for bit, from one walk
    /// over the layers.
    pub fn exit_fraction_curve(&self, subnet: &Subnet) -> Vec<f64> {
        let total = subnet.total_flops();
        let beta = self.depth_beta(subnet);
        let threshold = self.final_threshold(subnet);
        let mut curve = Vec::with_capacity(subnet.num_mbconv_layers());
        let mut prefix = 0.0;
        for layer in subnet.layers() {
            prefix += layer.flops;
            if layer.kind.is_exitable() {
                let position = curve.len() + 1;
                curve.push(self.exit_fraction_at(
                    subnet,
                    position,
                    prefix / total,
                    layer.c_out,
                    beta,
                    threshold,
                ));
            }
        }
        curve
    }

    /// The *measured* `N_i` of a joint placement: the isolated
    /// [`AccuracyModel::exit_fraction`] values degraded by crowding
    /// interference. Exit heads trained simultaneously on near-adjacent
    /// feature maps disturb each other's representations (the multi-exit
    /// training interference observed by BranchyNet and successors), so a
    /// stack of redundant deep exits measures *worse* than the same heads
    /// spread out — the behaviour the paper's `dissim` regularizer exists
    /// to exploit.
    ///
    /// # Panics
    ///
    /// Panics if positions are not strictly increasing or out of range.
    pub fn joint_exit_fractions(&self, subnet: &Subnet, positions: &[usize]) -> Vec<f64> {
        positions
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                self.exit_fraction(subnet, p) * (1.0 - crowding_penalty(positions, i, p))
            })
            .collect()
    }

    /// [`AccuracyModel::joint_exit_fractions`] over a precomputed
    /// [`AccuracyModel::exit_fraction_curve`], bit for bit. `None` if a
    /// position falls outside the curve.
    pub fn joint_exit_fractions_from_curve(
        &self,
        curve: &[f64],
        positions: &[usize],
    ) -> Option<Vec<f64>> {
        positions
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let n = curve.get(p.checked_sub(1)?)?;
                Some(n * (1.0 - crowding_penalty(positions, i, p)))
            })
            .collect()
    }

    /// Top-1 accuracy (%) of the multi-exit model under ideal mapping: the
    /// final classifier catches what it can, and each attached exit
    /// independently rescues a share of the remaining misses (ensemble
    /// union bonus) — the mechanism behind the paper's "EEx Acc" column
    /// exceeding the static accuracy.
    ///
    /// # Panics
    ///
    /// Panics if any position is out of range.
    pub fn dynamic_accuracy(&self, subnet: &Subnet, positions: &[usize]) -> f64 {
        self.dynamic_accuracy_from(
            self.backbone_accuracy(subnet),
            &self.joint_exit_fractions(subnet, positions),
        )
    }

    /// [`AccuracyModel::dynamic_accuracy`] from the backbone's static
    /// accuracy (%) and the placement's already computed joint fractions.
    pub fn dynamic_accuracy_from(&self, backbone_accuracy: f64, joint_fractions: &[f64]) -> f64 {
        let static_acc = backbone_accuracy / 100.0;
        let mut miss = 1.0 - static_acc;
        for &n in joint_fractions {
            miss *= 1.0 - self.ensemble_eps * n;
        }
        ((1.0 - miss) * 100.0).clamp(0.0, 100.0)
    }
}

/// Crowding interference on exit `i` (at `position`) of a strictly
/// increasing placement: 15 % at a gap of one layer to its nearest
/// neighbour, decaying with the gap; none for a lone exit.
fn crowding_penalty(positions: &[usize], i: usize, position: usize) -> f64 {
    let prev_gap = match i.checked_sub(1).and_then(|j| positions.get(j)) {
        Some(&q) => position.saturating_sub(q),
        None => usize::MAX,
    };
    let next_gap = positions.get(i + 1).map(|&q| q.saturating_sub(position)).unwrap_or(usize::MAX);
    let gap = prev_gap.min(next_gap);
    if gap == usize::MAX {
        0.0
    } else {
        0.15 * (-((gap as f64) - 1.0) / 2.0).exp()
    }
}

impl Default for AccuracyModel {
    fn default() -> Self {
        AccuracyModel::cifar100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadas_space::{baselines, SearchSpace};

    fn baseline(i: usize) -> Subnet {
        let space = SearchSpace::attentive_nas();
        space.decode(&baselines::baseline_genome(i)).unwrap()
    }

    #[test]
    fn anchors_match_table_iii() {
        let m = AccuracyModel::cifar100();
        let a0 = m.backbone_accuracy(&baseline(0));
        let a6 = m.backbone_accuracy(&baseline(6));
        assert!((a0 - 86.33).abs() < 1.0, "a0 accuracy {a0}");
        assert!((a6 - 88.23).abs() < 1.0, "a6 accuracy {a6}");
    }

    #[test]
    fn accuracy_is_monotone_across_baselines_on_average() {
        let m = AccuracyModel::cifar100();
        let accs: Vec<f64> = (0..7).map(|i| m.backbone_accuracy(&baseline(i))).collect();
        assert!(accs[6] > accs[0] + 1.0, "a6 must clearly beat a0: {accs:?}");
        // Allow local jitter, but the overall trend must be increasing.
        let increasing = accs.windows(2).filter(|w| w[1] > w[0]).count();
        assert!(increasing >= 4, "trend must be mostly increasing: {accs:?}");
    }

    #[test]
    fn surrogate_is_deterministic() {
        let m = AccuracyModel::cifar100();
        let net = baseline(3);
        assert_eq!(m.backbone_accuracy(&net), m.backbone_accuracy(&net));
        assert_eq!(m.exit_fraction(&net, 5), m.exit_fraction(&net, 5));
    }

    #[test]
    fn exit_fractions_grow_with_depth() {
        let m = AccuracyModel::cifar100();
        let net = baseline(4);
        let curve = m.exit_fraction_curve(&net);
        let n = curve.len();
        assert!(curve[n - 1] > curve[0] + 0.2, "deep exits must classify far more: {curve:?}");
        // Weak monotonicity up to jitter: compare quartile means.
        let q1: f64 = curve[..n / 4].iter().sum::<f64>() / (n / 4) as f64;
        let q4: f64 = curve[3 * n / 4..].iter().sum::<f64>() / (n - 3 * n / 4) as f64;
        assert!(q4 > q1);
    }

    #[test]
    fn exit_fractions_are_probabilities() {
        let m = AccuracyModel::cifar100();
        for i in [0, 3, 6] {
            for f in m.exit_fraction_curve(&baseline(i)) {
                assert!((0.0..=1.0).contains(&f));
            }
        }
    }

    #[test]
    fn last_exit_approaches_backbone_accuracy() {
        let m = AccuracyModel::cifar100();
        let net = baseline(6);
        let last = m.exit_fraction(&net, net.num_mbconv_layers());
        let acc = m.backbone_accuracy(&net) / 100.0;
        assert!((last - acc).abs() < 0.12, "last exit {last} vs backbone {acc}");
    }

    #[test]
    fn dynamic_accuracy_exceeds_static_with_exits() {
        // Paper Table III: a0 goes 86.33 -> 89.95 with early exits.
        let m = AccuracyModel::cifar100();
        let net = baseline(0);
        let n = net.num_mbconv_layers();
        let positions: Vec<usize> = vec![n / 3, n / 2, 2 * n / 3, n];
        let dyn_acc = m.dynamic_accuracy(&net, &positions);
        let static_acc = m.backbone_accuracy(&net);
        assert!(dyn_acc > static_acc + 1.5, "dyn {dyn_acc} vs static {static_acc}");
        assert!(dyn_acc < static_acc + 8.0, "bonus must stay plausible");
    }

    #[test]
    fn exitability_is_architecture_dependent() {
        let m = AccuracyModel::cifar100();
        // A backbone with front-loaded depth and 5x5 early kernels should be
        // markedly more exit-friendly than a0 (all-minimal, 3x3).
        let space = SearchSpace::attentive_nas();
        // max early depths/kernels/expands, min late depths.
        let genes = vec![
            0, 0, 0, /*s1*/ 1, 0, 1, 0, /*s2*/ 2, 0, 1, 2, /*s3*/ 3, 0, 1, 2,
            /*s4*/ 0, 0, 0, 0, /*s5*/ 0, 0, 0, 0, /*s6*/ 0, 0, 0, 0, /*s7*/ 0,
            0, 0, 0,
        ];
        let friendly = space.decode(&hadas_space::Genome::from_genes(genes)).unwrap();
        let a0 = baseline(0);
        assert!(
            m.exitability(&friendly) > m.exitability(&a0) + 0.3,
            "friendly {} vs a0 {}",
            m.exitability(&friendly),
            m.exitability(&a0)
        );
        assert!(m.depth_beta(&friendly) < m.depth_beta(&a0));
        // Lower beta means higher exit fractions at the same depth fraction.
        let mid_f = friendly.num_mbconv_layers() / 2;
        let mid_a = a0.num_mbconv_layers() / 2;
        assert!(m.exit_fraction(&friendly, mid_f.max(5)) > m.exit_fraction(&a0, mid_a.max(5)));
    }

    #[test]
    fn exitability_is_bounded() {
        let m = AccuracyModel::cifar100();
        for i in 0..7 {
            let e = m.exitability(&baseline(i));
            assert!((0.0..=1.0).contains(&e), "a{i} exitability {e}");
            let b = m.depth_beta(&baseline(i));
            assert!((0.15..=0.9).contains(&b), "a{i} beta {b}");
        }
    }

    #[test]
    fn dynamic_accuracy_with_no_exits_is_static() {
        let m = AccuracyModel::cifar100();
        let net = baseline(2);
        assert!((m.dynamic_accuracy(&net, &[]) - m.backbone_accuracy(&net)).abs() < 1e-9);
    }

    #[test]
    fn curve_cores_match_the_per_exit_path_bit_for_bit() {
        use rand::{rngs::StdRng, SeedableRng};
        let m = AccuracyModel::cifar100();
        let space = SearchSpace::attentive_nas();
        let mut rng = StdRng::seed_from_u64(11);
        let mut nets: Vec<Subnet> = (0..7).map(baseline).collect();
        nets.extend((0..16).map(|_| space.decode(&space.sample(&mut rng)).unwrap()));
        for net in &nets {
            let n = net.num_mbconv_layers();
            let curve = m.exit_fraction_curve(net);
            assert_eq!(curve.len(), n);
            for (i, &c) in curve.iter().enumerate() {
                assert_eq!(c.to_bits(), m.exit_fraction(net, i + 1).to_bits());
            }
            for positions in [vec![], vec![n], vec![5, 6, n / 2, n - 1, n]] {
                let joint = m.joint_exit_fractions(net, &positions);
                assert_eq!(
                    m.joint_exit_fractions_from_curve(&curve, &positions),
                    Some(joint.clone())
                );
                let dynamic = m.dynamic_accuracy_from(m.backbone_accuracy(net), &joint);
                assert_eq!(dynamic.to_bits(), m.dynamic_accuracy(net, &positions).to_bits());
            }
            assert_eq!(m.joint_exit_fractions_from_curve(&curve, &[0]), None);
            assert_eq!(m.joint_exit_fractions_from_curve(&curve, &[5, n + 1]), None);
        }
    }

    #[test]
    fn more_exits_never_hurt_ideal_accuracy() {
        let m = AccuracyModel::cifar100();
        let net = baseline(5);
        let n = net.num_mbconv_layers();
        let few = m.dynamic_accuracy(&net, &[n / 2]);
        let many = m.dynamic_accuracy(&net, &[n / 4, n / 2, 3 * n / 4, n]);
        assert!(many >= few);
    }
}
