//! The [`CostModel`] abstraction: anything that can price workloads on a
//! device — the hardware-in-the-loop simulator ([`crate::DeviceModel`]) or
//! a learned proxy ([`crate::ProxyCostModel`]).
//!
//! The paper measures with hardware in the loop (§V-A) and notes the
//! search overhead would drop from 2–3 GPU days to ~1 if a proxy replaced
//! it; this trait is the seam that makes the swap a one-line change.

use crate::{CostReport, DvfsLadder, DvfsSetting, HwError, HwTarget};
use hadas_space::{LayerInfo, Subnet};

/// A source of latency/energy estimates for one hardware target.
///
/// Object-safe so engines can hold `Arc<dyn CostModel>`; `subnet_cost` and
/// `prefix_cost` have default implementations in terms of `layer_cost` and
/// `invoke_cost`, which is how both the simulator and the proxy compose.
///
/// Composition contract: an implementation that overrides `subnet_cost` or
/// `prefix_cost` must still return `invoke_cost` plus a left-to-right sum
/// of `layer_cost` over the layers (`acc = acc + layer`), bit for bit. The
/// core's per-backbone evaluation table prices an IOE run's prefixes in
/// one such pass from `layer_cost` and `invoke_cost` alone.
pub trait CostModel: std::fmt::Debug + Send + Sync {
    /// The hardware target this model prices.
    fn target(&self) -> HwTarget;

    /// The DVFS ladder defining the **F** subspace.
    fn ladder(&self) -> &DvfsLadder;

    /// The default (max-clock) setting used for static evaluations.
    fn default_dvfs(&self) -> DvfsSetting {
        self.ladder().max_setting()
    }

    /// Cost of one layer at `setting`.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::DvfsOutOfRange`] for invalid settings.
    fn layer_cost(&self, layer: &LayerInfo, setting: &DvfsSetting) -> Result<CostReport, HwError>;

    /// Fixed per-inference invocation cost at `setting`.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::DvfsOutOfRange`] for invalid settings.
    fn invoke_cost(&self, setting: &DvfsSetting) -> Result<CostReport, HwError>;

    /// Cost of a full-backbone inference (invocation included).
    ///
    /// # Errors
    ///
    /// Returns [`HwError::DvfsOutOfRange`] for invalid settings.
    fn subnet_cost(&self, subnet: &Subnet, setting: &DvfsSetting) -> Result<CostReport, HwError> {
        let mut acc = self.invoke_cost(setting)?;
        for layer in subnet.layers() {
            acc = acc + self.layer_cost(layer, setting)?;
        }
        Ok(acc)
    }

    /// Cost of the backbone prefix ending after MBConv layer `position`
    /// (1-based), invocation included.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::ExitPositionOutOfRange`] or
    /// [`HwError::DvfsOutOfRange`].
    fn prefix_cost(
        &self,
        subnet: &Subnet,
        position: usize,
        setting: &DvfsSetting,
    ) -> Result<CostReport, HwError> {
        let total = subnet.num_mbconv_layers();
        if position == 0 || position > total {
            return Err(HwError::ExitPositionOutOfRange { position, layers: total });
        }
        let mut acc = self.invoke_cost(setting)?;
        let mut seen = 0usize;
        for layer in subnet.layers() {
            acc = acc + self.layer_cost(layer, setting)?;
            if layer.kind.is_exitable() {
                seen += 1;
                if seen == position {
                    return Ok(acc);
                }
            }
        }
        // `position` was validated against `num_mbconv_layers()` above, so
        // the loop returns unless the subnet's layer list disagrees with
        // its own MBConv count — report that as the range error it is
        // rather than aborting a search mid-candidate.
        Err(HwError::ExitPositionOutOfRange { position, layers: seen })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceModel;
    use hadas_space::{baselines, SearchSpace};

    #[test]
    fn device_model_is_a_cost_model_object() {
        let dev: Box<dyn CostModel> = Box::new(DeviceModel::for_target(HwTarget::Tx2PascalGpu));
        let space = SearchSpace::attentive_nas();
        let net = space.decode(&baselines::baseline_genome(0)).expect("a0");
        let r = dev.subnet_cost(&net, &dev.default_dvfs()).expect("valid");
        assert!(r.energy_j > 0.0);
    }

    #[test]
    fn trait_defaults_match_inherent_implementations() {
        let dev = DeviceModel::for_target(HwTarget::AgxVoltaGpu);
        let space = SearchSpace::attentive_nas();
        let net = space.decode(&baselines::baseline_genome(2)).expect("a2");
        let dvfs = dev.default_dvfs();
        let inherent = dev.subnet_cost(&net, &dvfs).expect("valid");
        let via_trait = <DeviceModel as CostModel>::subnet_cost(&dev, &net, &dvfs).expect("valid");
        assert!((inherent.energy_j - via_trait.energy_j).abs() < 1e-12);
        let p_inherent = dev.prefix_cost(&net, 7, &dvfs).expect("valid");
        let p_trait = <DeviceModel as CostModel>::prefix_cost(&dev, &net, 7, &dvfs).expect("valid");
        assert!((p_inherent.latency_s - p_trait.latency_s).abs() < 1e-12);
    }
}
