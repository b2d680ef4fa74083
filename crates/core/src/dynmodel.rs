use crate::{DynamicFitness, HadasError};
use hadas_accuracy::AccuracyModel;
use hadas_exits::{exit_head_cost, ExitError, ExitPlacement};
use hadas_hw::{CostModel, CostReport, DvfsSetting, HwError};
use hadas_space::{LayerInfo, Subnet};
use std::cell::OnceCell;

/// A fully specified dynamic model: one point `(b, x, f)` of the joint
/// HADAS space — a backbone, an exit placement, and a DVFS setting.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicModel {
    subnet: Subnet,
    placement: ExitPlacement,
    dvfs: DvfsSetting,
}

/// Everything the score function of eq. (5)–(7) needs about one dynamic
/// model, computed once.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicEvaluation {
    /// `N_i` per sampled exit, in position order (eq. (6)).
    pub exit_fractions: Vec<f64>,
    /// `dissim_i = 1 − max(N_{0..i−1})` per exit (eq. (7)).
    pub dissimilarities: Vec<f64>,
    /// Fraction of inputs that leave at each exit under ideal mapping.
    pub exit_usage: Vec<f64>,
    /// Fraction of inputs that run the full backbone.
    pub final_usage: f64,
    /// Static reference cost of the backbone at *default* DVFS.
    pub backbone_cost: CostReport,
    /// Cost an input leaving at each exit pays at the model's DVFS
    /// setting: the backbone prefix plus every head up to that exit.
    pub exit_costs: Vec<CostReport>,
    /// Cost an input no exit catches pays at the model's DVFS setting:
    /// the full backbone plus every head.
    pub full_cost: CostReport,
    /// Expected dynamic cost per inference at the model's DVFS setting.
    pub dynamic_cost: CostReport,
    /// The assembled fitness.
    pub fitness: DynamicFitness,
}

impl DynamicModel {
    /// Bundles a joint-space point.
    pub fn new(subnet: Subnet, placement: ExitPlacement, dvfs: DvfsSetting) -> Self {
        DynamicModel { subnet, placement, dvfs }
    }

    /// The backbone.
    pub fn subnet(&self) -> &Subnet {
        &self.subnet
    }

    /// The exit placement.
    pub fn placement(&self) -> &ExitPlacement {
        &self.placement
    }

    /// The DVFS setting.
    pub fn dvfs(&self) -> &DvfsSetting {
        &self.dvfs
    }

    /// The per-exit score of paper eq. (6), as written:
    /// `score_i = N_i · (E_{x_i,f}/E_b) · (L_{x_i,f}/L_b) · dissim_iᵞ`,
    /// where `E_{x_i,f}, L_{x_i,f}` price the prefix and exit `i`'s own head.
    ///
    /// Exposed for inspection and the ablation study; the engine's
    /// selection objectives (see [`DynamicModel::evaluate`]) fold the same
    /// ingredients into a maximisation-consistent pair (quality, gain), as
    /// the paper's Fig. 5 bottom axes do.
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::Exit`] if `index` names no exit of the
    /// placement; otherwise as [`DynamicModel::evaluate`].
    pub fn exit_score(
        &self,
        accuracy: &AccuracyModel,
        device: &dyn CostModel,
        index: usize,
        gamma: f64,
    ) -> Result<f64, HadasError> {
        let table = BackboneTable::new(&self.subnet, accuracy, device)?;
        let eval = table.evaluate(&self.placement, &self.dvfs, gamma, true)?;
        let &position = self.placement.positions().get(index).ok_or_else(|| {
            ExitError::InvalidPlacement(format!(
                "exit index {index} of a {}-exit placement",
                self.placement.len()
            ))
        })?;
        // The evaluation has one entry per exit of the placement.
        let (n, dissim) = (eval.exit_fractions[index], eval.dissimilarities[index]);
        let (prefix, head) = table.exit_parts(table.row(&self.dvfs)?, position)?;
        let exit_cost = prefix + head;
        Ok(n * (exit_cost.energy_j / eval.backbone_cost.energy_j)
            * (exit_cost.latency_s / eval.backbone_cost.latency_s)
            * dissim.powf(gamma))
    }

    /// Evaluates the dynamic model: exit fractions, ideal-mapping usage,
    /// expected energy/latency, and the [`DynamicFitness`].
    ///
    /// Under the paper's *ideal mapping policy*, every input exits at the
    /// first exit that classifies it correctly; inputs no exit catches run
    /// the full backbone. The expected cost therefore weights each prefix
    /// (plus all exit heads passed on the way) by its usage probability.
    /// The static reference `E_b, L_b` is the plain backbone at *default*
    /// DVFS, matching how the paper normalises its gains.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::DvfsOutOfRange`] for a setting off the device's
    /// ladder and [`HwError::ExitPositionOutOfRange`] for an exit the
    /// backbone has no layer for, both wrapped in [`HadasError::Hw`].
    pub fn evaluate(
        &self,
        accuracy: &AccuracyModel,
        device: &dyn CostModel,
        gamma: f64,
        use_dissimilarity: bool,
    ) -> Result<DynamicEvaluation, HadasError> {
        BackboneTable::new(&self.subnet, accuracy, device)?.evaluate(
            &self.placement,
            &self.dvfs,
            gamma,
            use_dissimilarity,
        )
    }
}

/// What the fitness of a dynamic model needs from its backbone alone:
/// everything independent of the exit placement `x`, with the costs
/// priced per DVFS setting `f` on first use. The inner engine searches
/// `(x, f)` for one fixed backbone (paper §IV-B), so one table serves a
/// whole IOE run; [`DynamicModel::evaluate`] builds one per call.
///
/// The rows compose `CostModel::layer_cost` and `invoke_cost` in the order
/// the trait's `prefix_cost` and `subnet_cost` do, so a table reproduces
/// their sums bit for bit.
pub(crate) struct BackboneTable<'a> {
    subnet: &'a Subnet,
    accuracy: &'a AccuracyModel,
    device: &'a dyn CostModel,
    /// Isolated `N_i` of an exit after each MBConv layer, in order.
    curve: Vec<f64>,
    /// Static top-1 accuracy (%) of the backbone.
    backbone_accuracy: f64,
    /// Static reference cost at default DVFS.
    backbone_cost: CostReport,
    /// The exit head after each MBConv layer, in order.
    heads: Vec<LayerInfo>,
    /// One cost row per ladder setting, at slot `compute · emc_steps + emc`.
    rows: Vec<OnceCell<CostRow>>,
}

/// The backbone's costs at one DVFS setting.
struct CostRow {
    /// Per MBConv layer, in order: the prefix ending after it (invocation
    /// included) and the exit head attached after it.
    exits: Vec<(CostReport, CostReport)>,
    /// The full backbone, invocation included.
    full: CostReport,
}

impl<'a> BackboneTable<'a> {
    /// Computes the placement-independent part of `subnet`'s fitness.
    ///
    /// # Errors
    ///
    /// Propagates hardware errors from pricing the default setting.
    pub(crate) fn new(
        subnet: &'a Subnet,
        accuracy: &'a AccuracyModel,
        device: &'a dyn CostModel,
    ) -> Result<Self, HadasError> {
        Ok(BackboneTable {
            curve: accuracy.exit_fraction_curve(subnet),
            backbone_accuracy: accuracy.backbone_accuracy(subnet),
            backbone_cost: device.subnet_cost(subnet, &device.default_dvfs())?,
            heads: (1..=subnet.num_mbconv_layers()).map(|p| exit_head_cost(subnet, p)).collect(),
            rows: std::iter::repeat_with(OnceCell::new)
                .take(device.ladder().cardinality())
                .collect(),
            subnet,
            accuracy,
            device,
        })
    }

    /// The cost row of `dvfs`, priced on first use.
    fn row(&self, dvfs: &DvfsSetting) -> Result<&CostRow, HadasError> {
        let ladder = self.device.ladder();
        // Resolve first: an index past one axis would alias another row.
        ladder.resolve(dvfs)?;
        let slot = self
            .rows
            .get(dvfs.compute * ladder.emc_steps() + dvfs.emc)
            .ok_or_else(|| HadasError::Internal(format!("no cost row for {dvfs:?}")))?;
        if let Some(row) = slot.get() {
            return Ok(row);
        }
        let row = self.price(dvfs)?;
        Ok(slot.get_or_init(|| row))
    }

    /// One left-to-right pass: the invocation, then each layer, recording
    /// the running sum after every MBConv layer.
    fn price(&self, dvfs: &DvfsSetting) -> Result<CostRow, HwError> {
        let mut acc = self.device.invoke_cost(dvfs)?;
        let mut prefixes = Vec::with_capacity(self.heads.len());
        for layer in self.subnet.layers() {
            acc = acc + self.device.layer_cost(layer, dvfs)?;
            if layer.kind.is_exitable() {
                prefixes.push(acc);
            }
        }
        let exits = prefixes
            .into_iter()
            .zip(&self.heads)
            .map(|(prefix, head)| Ok((prefix, self.device.layer_cost(head, dvfs)?)))
            .collect::<Result<_, HwError>>()?;
        Ok(CostRow { exits, full: acc })
    }

    /// The prefix and head costs of an exit at MBConv `position` (1-based).
    fn exit_parts(
        &self,
        row: &CostRow,
        position: usize,
    ) -> Result<(CostReport, CostReport), HadasError> {
        position
            .checked_sub(1)
            .and_then(|k| row.exits.get(k))
            .copied()
            .ok_or_else(|| self.off_curve(&[position]))
    }

    /// The range error for the first of `positions` the backbone has no
    /// MBConv layer for.
    fn off_curve(&self, positions: &[usize]) -> HadasError {
        let layers = self.curve.len();
        let position =
            positions.iter().copied().find(|&p| p == 0 || p > layers).unwrap_or_default();
        HwError::ExitPositionOutOfRange { position, layers }.into()
    }

    /// The evaluation of [`DynamicModel::evaluate`] for this backbone with
    /// `placement` at `dvfs`.
    pub(crate) fn evaluate(
        &self,
        placement: &ExitPlacement,
        dvfs: &DvfsSetting,
        gamma: f64,
        use_dissimilarity: bool,
    ) -> Result<DynamicEvaluation, HadasError> {
        let exits = placement.len();
        let mut dissimilarities = Vec::with_capacity(exits);
        let mut exit_usage = Vec::with_capacity(exits);
        let mut exit_costs = Vec::with_capacity(exits);
        let pass =
            self.pass(placement, dvfs, gamma, use_dissimilarity, |dissim, usage, cost| {
                dissimilarities.push(dissim);
                exit_usage.push(usage);
                exit_costs.push(cost);
            })?;
        Ok(DynamicEvaluation {
            exit_fractions: pass.exit_fractions,
            dissimilarities,
            exit_usage,
            final_usage: pass.final_usage,
            backbone_cost: self.backbone_cost,
            exit_costs,
            full_cost: pass.full_cost,
            dynamic_cost: pass.dynamic_cost,
            fitness: pass.fitness,
        })
    }

    /// The fitness of [`BackboneTable::evaluate`] alone, from the same
    /// pass, without collecting the per-exit terms.
    pub(crate) fn fitness(
        &self,
        placement: &ExitPlacement,
        dvfs: &DvfsSetting,
        gamma: f64,
        use_dissimilarity: bool,
    ) -> Result<DynamicFitness, HadasError> {
        Ok(self.pass(placement, dvfs, gamma, use_dissimilarity, |_, _, _| {})?.fitness)
    }

    /// The one pass over the exits of `placement` at `dvfs` behind both
    /// [`BackboneTable::evaluate`] and [`BackboneTable::fitness`]. `visit`
    /// sees each exit's dissimilarity, usage and cost, in position order.
    fn pass(
        &self,
        placement: &ExitPlacement,
        dvfs: &DvfsSetting,
        gamma: f64,
        use_dissimilarity: bool,
        mut visit: impl FnMut(f64, f64, CostReport),
    ) -> Result<Pass, HadasError> {
        let row = self.row(dvfs)?;
        let positions = placement.positions();
        // Joint (crowding-aware) fractions: redundant adjacent exits
        // measure worse than spread-out ones.
        let exit_fractions = self
            .accuracy
            .joint_exit_fractions_from_curve(&self.curve, positions)
            .ok_or_else(|| self.off_curve(positions))?;

        // `best` is max(N_{0..i−1}) at exit i. Then dissim_i = 1 − best
        // (eq. (7); the first exit has no predecessor), and under ideal
        // mapping, where an input leaves at the first exit capable of
        // classifying it, exit i newly captures max(0, N_i − best).
        // Inputs that exit at position k paid prefix(pos_k) + heads at
        // exits 1..=k; inputs that never exit paid the full backbone +
        // every head. The eq. (5) quality sum starts where
        // `Iterator::sum` does, so it keeps that sum's bits.
        let mut best = 0.0f64;
        let mut quality_sum: f64 = std::iter::empty::<f64>().sum();
        let mut dynamic_cost = CostReport::zero();
        let mut heads_so_far = CostReport::zero();
        for (&p, &n) in positions.iter().zip(&exit_fractions) {
            let dissim = 1.0 - best;
            let usage = (n - best).max(0.0);
            best = best.max(n);
            quality_sum += if use_dissimilarity { n * dissim.powf(gamma) } else { n };
            let (prefix, head) = self.exit_parts(row, p)?;
            heads_so_far = heads_so_far + head;
            let total = prefix + heads_so_far;
            if usage > 0.0 {
                dynamic_cost.latency_s += usage * total.latency_s;
                dynamic_cost.energy_j += usage * total.energy_j;
            }
            visit(dissim, usage, total);
        }
        let final_usage = 1.0 - best;
        let full_cost = row.full + heads_so_far;
        dynamic_cost.latency_s += final_usage * full_cost.latency_s;
        dynamic_cost.energy_j += final_usage * full_cost.energy_j;

        // Eq. (5): mean over sampled exits of the regularised quality.
        let exit_quality = quality_sum / exit_fractions.len() as f64;
        let mean_exit_fraction = exit_fractions.iter().sum::<f64>() / exit_fractions.len() as f64;

        let backbone_cost = self.backbone_cost;
        let fitness = DynamicFitness {
            exit_quality,
            mean_exit_fraction,
            energy_gain: 1.0 - dynamic_cost.energy_j / backbone_cost.energy_j,
            latency_gain: 1.0 - dynamic_cost.latency_s / backbone_cost.latency_s,
            accuracy_pct: self
                .accuracy
                .dynamic_accuracy_from(self.backbone_accuracy, &exit_fractions),
            energy_mj: dynamic_cost.energy_mj(),
            latency_ms: dynamic_cost.latency_ms(),
        };
        Ok(Pass { exit_fractions, final_usage, full_cost, dynamic_cost, fitness })
    }
}

/// What [`BackboneTable::pass`] computes beyond the per-exit terms.
struct Pass {
    exit_fractions: Vec<f64>,
    final_usage: f64,
    full_cost: CostReport,
    dynamic_cost: CostReport,
    fitness: DynamicFitness,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadas_hw::{DeviceModel, HwTarget, ProxyCostModel};
    use hadas_space::{baselines, SearchSpace};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// The evaluation as it was written before the backbone table, kept as
    /// the reference the table must reproduce bit for bit: per-exit
    /// `prefix_cost` walks, two `subnet_cost` calls and a second pass over
    /// the joint fractions for the dynamic accuracy.
    fn reference_evaluate(
        model: &DynamicModel,
        accuracy: &AccuracyModel,
        device: &dyn CostModel,
        gamma: f64,
        use_dissimilarity: bool,
    ) -> Result<DynamicEvaluation, HadasError> {
        let (subnet, dvfs) = (&model.subnet, &model.dvfs);
        let positions = model.placement.positions();
        let exit_fractions = accuracy.joint_exit_fractions(subnet, positions);
        let mut dissimilarities = Vec::with_capacity(positions.len());
        let mut running_max = 0.0f64;
        for &n in &exit_fractions {
            dissimilarities.push(1.0 - running_max);
            running_max = running_max.max(n);
        }
        let mut exit_usage = Vec::with_capacity(positions.len());
        let mut best = 0.0f64;
        for &n in &exit_fractions {
            exit_usage.push((n - best).max(0.0));
            best = best.max(n);
        }
        let final_usage = 1.0 - best;
        let backbone_cost = device.subnet_cost(subnet, &device.default_dvfs())?;
        let head_costs: Vec<CostReport> = positions
            .iter()
            .map(|&p| device.layer_cost(&exit_head_cost(subnet, p), dvfs))
            .collect::<Result<_, _>>()?;
        let mut exit_costs = Vec::new();
        let mut dynamic_cost = CostReport::zero();
        let mut heads_so_far = CostReport::zero();
        for (k, &p) in positions.iter().enumerate() {
            heads_so_far = heads_so_far + head_costs[k];
            let total = device.prefix_cost(subnet, p, dvfs)? + heads_so_far;
            if exit_usage[k] > 0.0 {
                dynamic_cost.latency_s += exit_usage[k] * total.latency_s;
                dynamic_cost.energy_j += exit_usage[k] * total.energy_j;
            }
            exit_costs.push(total);
        }
        let full_cost = device.subnet_cost(subnet, dvfs)? + heads_so_far;
        dynamic_cost.latency_s += final_usage * full_cost.latency_s;
        dynamic_cost.energy_j += final_usage * full_cost.energy_j;
        let quality_terms: Vec<f64> = exit_fractions
            .iter()
            .zip(dissimilarities.iter())
            .map(|(&n, &d)| if use_dissimilarity { n * d.powf(gamma) } else { n })
            .collect();
        let exit_quality = quality_terms.iter().sum::<f64>() / quality_terms.len() as f64;
        let mean_exit_fraction = exit_fractions.iter().sum::<f64>() / exit_fractions.len() as f64;
        let fitness = DynamicFitness {
            exit_quality,
            mean_exit_fraction,
            energy_gain: 1.0 - dynamic_cost.energy_j / backbone_cost.energy_j,
            latency_gain: 1.0 - dynamic_cost.latency_s / backbone_cost.latency_s,
            accuracy_pct: accuracy.dynamic_accuracy(subnet, positions),
            energy_mj: dynamic_cost.energy_mj(),
            latency_ms: dynamic_cost.latency_ms(),
        };
        Ok(DynamicEvaluation {
            exit_fractions,
            dissimilarities,
            exit_usage,
            final_usage,
            backbone_cost,
            exit_costs,
            full_cost,
            dynamic_cost,
            fitness,
        })
    }

    /// Every float of an evaluation by its bits (`{:?}` prints each `f64`
    /// in its shortest round-trip form, so distinct bits print distinctly).
    fn bits(e: &DynamicEvaluation) -> String {
        format!("{e:?}")
    }

    fn fitness_bits(f: &DynamicFitness) -> [u64; 7] {
        [
            f.exit_quality,
            f.mean_exit_fraction,
            f.energy_gain,
            f.latency_gain,
            f.accuracy_pct,
            f.energy_mj,
            f.latency_ms,
        ]
        .map(f64::to_bits)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// One table reused across every ladder setting, a fresh table per
        /// call (`DynamicModel::evaluate`) and the reference body agree bit
        /// for bit, on sampled backbones and placements, under both the
        /// device model and a fitted proxy; so does the table's
        /// fitness-only pass, `gamma == 0` and the unregularised quality
        /// included.
        #[test]
        fn backbone_table_matches_the_reference_bit_for_bit(
            seed in any::<u64>(),
            target in 0usize..4,
            proxy in any::<bool>(),
            gamma in prop_oneof![Just(0.0f64), 0.0f64..4.0],
            use_dissimilarity in any::<bool>(),
        ) {
            let space = SearchSpace::attentive_nas();
            let accuracy = AccuracyModel::cifar100();
            let device = DeviceModel::for_target(HwTarget::ALL[target]);
            let cost: Box<dyn CostModel> = if proxy {
                Box::new(ProxyCostModel::fit(&device, &space, 200, seed).expect("proxy fits"))
            } else {
                Box::new(device)
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let subnet = space.decode(&space.sample(&mut rng)).expect("sampled genomes decode");
            let placement = ExitPlacement::sample(&mut rng, subnet.num_mbconv_layers(), 0.2);
            let table = BackboneTable::new(&subnet, &accuracy, cost.as_ref()).expect("table");
            let ladder = cost.ladder();
            for c in 0..ladder.compute_steps() {
                for m in 0..ladder.emc_steps() {
                    let dvfs = DvfsSetting::new(c, m);
                    let model = DynamicModel::new(subnet.clone(), placement.clone(), dvfs);
                    let want = reference_evaluate(
                        &model, &accuracy, cost.as_ref(), gamma, use_dissimilarity,
                    ).expect("reference");
                    let reused = table
                        .evaluate(&placement, &dvfs, gamma, use_dissimilarity)
                        .expect("reused table");
                    let fresh = model
                        .evaluate(&accuracy, cost.as_ref(), gamma, use_dissimilarity)
                        .expect("fresh table");
                    let fitness_only = table
                        .fitness(&placement, &dvfs, gamma, use_dissimilarity)
                        .expect("fitness-only pass");
                    prop_assert_eq!(fitness_bits(&reused.fitness), fitness_bits(&want.fitness));
                    prop_assert_eq!(fitness_bits(&fitness_only), fitness_bits(&want.fitness));
                    prop_assert_eq!(bits(&reused), bits(&want));
                    prop_assert_eq!(bits(&fresh), bits(&reused));
                }
            }
        }
    }

    #[test]
    fn an_out_of_range_setting_never_aliases_another_row() {
        let (subnet, acc, dev) = fixture();
        let n = subnet.num_mbconv_layers();
        let placement = ExitPlacement::new(vec![5, n], n).unwrap();
        let table = BackboneTable::new(&subnet, &acc, &dev).unwrap();
        let emc_steps = dev.ladder().emc_steps();
        // (0, emc_steps) would land on the slot of (1, 0); price that row first.
        table.evaluate(&placement, &DvfsSetting::new(1, 0), 1.0, true).unwrap();
        for bad in
            [DvfsSetting::new(0, emc_steps), DvfsSetting::new(dev.ladder().compute_steps(), 0)]
        {
            let err = table.evaluate(&placement, &bad, 1.0, true).unwrap_err();
            assert!(
                matches!(err, HadasError::Hw(HwError::DvfsOutOfRange { .. })),
                "{bad:?}: {err}"
            );
            let model = DynamicModel::new(subnet.clone(), placement.clone(), bad);
            assert!(matches!(
                model.evaluate(&acc, &dev, 1.0, true),
                Err(HadasError::Hw(HwError::DvfsOutOfRange { .. }))
            ));
        }
    }

    #[test]
    fn a_placement_deeper_than_its_backbone_is_a_typed_error() {
        let space = SearchSpace::attentive_nas();
        let small = space.decode(&baselines::baseline_genome(0)).unwrap();
        let deep = space.decode(&baselines::baseline_genome(6)).unwrap();
        let (n, deep_n) = (small.num_mbconv_layers(), deep.num_mbconv_layers());
        assert!(deep_n > n);
        let placement = ExitPlacement::new(vec![5, deep_n], deep_n).unwrap();
        let (acc, dev) =
            (AccuracyModel::cifar100(), DeviceModel::for_target(HwTarget::Tx2PascalGpu));
        let model = DynamicModel::new(small, placement, dev.default_dvfs());
        let want = HwError::ExitPositionOutOfRange { position: deep_n, layers: n };
        match model.evaluate(&acc, &dev, 1.0, true) {
            Err(HadasError::Hw(e)) => assert_eq!(e, want),
            other => panic!("expected a range error, got {other:?}"),
        }
        assert!(matches!(model.exit_score(&acc, &dev, 0, 1.0), Err(HadasError::Hw(_))));
    }

    #[test]
    fn exit_score_names_a_missing_exit() {
        let (subnet, acc, dev) = fixture();
        let m = model_with(vec![6, 9], &subnet, dev.default_dvfs());
        assert!(matches!(m.exit_score(&acc, &dev, 2, 1.0), Err(HadasError::Exit(_))));
    }

    fn fixture() -> (Subnet, AccuracyModel, DeviceModel) {
        let space = SearchSpace::attentive_nas();
        let subnet = space.decode(&baselines::baseline_genome(3)).unwrap();
        (subnet, AccuracyModel::cifar100(), DeviceModel::for_target(HwTarget::Tx2PascalGpu))
    }

    fn model_with(positions: Vec<usize>, subnet: &Subnet, dvfs: DvfsSetting) -> DynamicModel {
        let placement = ExitPlacement::new(positions, subnet.num_mbconv_layers()).unwrap();
        DynamicModel::new(subnet.clone(), placement, dvfs)
    }

    #[test]
    fn usage_probabilities_form_a_distribution() {
        let (subnet, acc, dev) = fixture();
        let n = subnet.num_mbconv_layers();
        let m = model_with(vec![5, n / 2, n], &subnet, dev.default_dvfs());
        let e = m.evaluate(&acc, &dev, 1.0, true).unwrap();
        let total: f64 = e.exit_usage.iter().sum::<f64>() + e.final_usage;
        assert!((total - 1.0).abs() < 1e-9);
        assert!(e.exit_usage.iter().all(|&u| u >= 0.0));
        assert!(e.final_usage >= 0.0);
    }

    #[test]
    fn early_exiting_saves_energy() {
        let (subnet, acc, dev) = fixture();
        let n = subnet.num_mbconv_layers();
        let m = model_with(vec![5, n / 3, n / 2, 2 * n / 3], &subnet, dev.default_dvfs());
        let e = m.evaluate(&acc, &dev, 1.0, true).unwrap();
        assert!(
            e.fitness.energy_gain > 0.1,
            "exits should save real energy, gain = {}",
            e.fitness.energy_gain
        );
        assert!(e.dynamic_cost.energy_j < e.backbone_cost.energy_j);
    }

    #[test]
    fn dvfs_tuning_improves_on_max_clocks() {
        let (subnet, acc, dev) = fixture();
        let n = subnet.num_mbconv_layers();
        let positions = vec![5, n / 2];
        let at_max = model_with(positions.clone(), &subnet, dev.default_dvfs())
            .evaluate(&acc, &dev, 1.0, true)
            .unwrap();
        // Sweep the ladder for the best energy.
        let mut best = at_max.fitness.energy_mj;
        for c in 0..dev.ladder().compute_steps() {
            for e in 0..dev.ladder().emc_steps() {
                let m = model_with(positions.clone(), &subnet, DvfsSetting::new(c, e));
                let ev = m.evaluate(&acc, &dev, 1.0, true).unwrap();
                best = best.min(ev.fitness.energy_mj);
            }
        }
        assert!(
            best < at_max.fitness.energy_mj * 0.95,
            "an interior DVFS point should beat max clocks: best {best} vs {}",
            at_max.fitness.energy_mj
        );
    }

    #[test]
    fn dissimilarity_penalises_redundant_exits() {
        let (subnet, acc, dev) = fixture();
        let n = subnet.num_mbconv_layers();
        // Two adjacent deep exits are redundant; the second one's dissim is low.
        let m = model_with(vec![n - 1, n], &subnet, dev.default_dvfs());
        let e = m.evaluate(&acc, &dev, 1.0, true).unwrap();
        assert!((e.dissimilarities[0] - 1.0).abs() < 1e-12);
        assert!(e.dissimilarities[1] < 0.5, "deep predecessor should crush dissim");
        // Quality with regularisation must be below the unregularised mean.
        let raw = m.evaluate(&acc, &dev, 1.0, false).unwrap();
        assert!(e.fitness.exit_quality < raw.fitness.exit_quality);
    }

    #[test]
    fn gamma_zero_neutralises_the_regularizer() {
        let (subnet, acc, dev) = fixture();
        let n = subnet.num_mbconv_layers();
        let m = model_with(vec![6, n], &subnet, dev.default_dvfs());
        let with_g0 = m.evaluate(&acc, &dev, 0.0, true).unwrap();
        let without = m.evaluate(&acc, &dev, 1.0, false).unwrap();
        assert!((with_g0.fitness.exit_quality - without.fitness.exit_quality).abs() < 1e-12);
    }

    #[test]
    fn exit_score_matches_equation_six() {
        let (subnet, acc, dev) = fixture();
        let n = subnet.num_mbconv_layers();
        let dvfs = DvfsSetting::new(4, 3);
        let m = model_with(vec![6, n / 2, n], &subnet, dvfs);
        let e = m.evaluate(&acc, &dev, 1.0, true).unwrap();
        for (i, &pos) in m.placement().positions().iter().enumerate() {
            // E_{x_i,f}: the prefix plus exit i's own head.
            let prefix = dev.prefix_cost(&subnet, pos, &dvfs).unwrap();
            let head = dev.layer_cost(&exit_head_cost(&subnet, pos), &dvfs).unwrap();
            let cost = prefix + head;
            let expected = e.exit_fractions[i]
                * (cost.energy_j / e.backbone_cost.energy_j)
                * (cost.latency_s / e.backbone_cost.latency_s)
                * e.dissimilarities[i].powf(1.0);
            assert_eq!(m.exit_score(&acc, &dev, i, 1.0).unwrap().to_bits(), expected.to_bits());
        }
        // The first exit has no predecessor: dissim = 1.
        assert_eq!(e.dissimilarities[0], 1.0);
    }

    #[test]
    fn dynamic_accuracy_beats_static() {
        let (subnet, acc, dev) = fixture();
        let n = subnet.num_mbconv_layers();
        let m = model_with(vec![5, n / 2, n], &subnet, dev.default_dvfs());
        let e = m.evaluate(&acc, &dev, 1.0, true).unwrap();
        assert!(e.fitness.accuracy_pct > acc.backbone_accuracy(&subnet));
    }
}
