//! A learned proxy cost model.
//!
//! The paper's hardware-in-the-loop setup dominates its search time
//! (2–3 GPU days, reducible to ~1 with a proxy, §V-A). This module fits a
//! small linear model per target from a one-off sample of device
//! measurements and then answers cost queries without touching the device.
//!
//! The feature map mirrors the physics: latency is (nearly) linear in
//! `flops/f_c`, `1/f_c` (utilisation saturation), and `bytes/f_m`; energy
//! is linear in `latency × {1, f_c, f_c³, f_m}` (CMOS static + dynamic
//! terms, with `V ∝ a + b·f` absorbed into the cubic term). The fit is
//! ordinary least squares via normal equations — tiny, deterministic, and
//! accurate to a few percent (see `validate`).

use crate::{CostModel, CostReport, DeviceModel, DvfsLadder, DvfsSetting, HwError, HwTarget};
use hadas_space::{LayerInfo, SearchSpace};
use rand::{rngs::StdRng, Rng, SeedableRng};

const LAT_FEATURES: usize = 4;
const ERG_FEATURES: usize = 4;

/// Mean absolute percentage errors of a fitted proxy on held-out queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProxyValidation {
    /// MAPE of per-subnet latency predictions.
    pub latency_mape: f64,
    /// MAPE of per-subnet energy predictions.
    pub energy_mape: f64,
    /// Number of held-out subnet queries evaluated.
    pub queries: usize,
}

/// A fitted proxy standing in for hardware-in-the-loop measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct ProxyCostModel {
    target: HwTarget,
    ladder: DvfsLadder,
    lat_weights: [f64; LAT_FEATURES],
    erg_weights: [f64; ERG_FEATURES],
    invoke_lat_per_inv_fc: f64,
    invoke_erg_weights: [f64; ERG_FEATURES],
    training_samples: usize,
}

fn lat_features(layer: &LayerInfo, f_c: f64, f_m: f64) -> [f64; LAT_FEATURES] {
    let bytes = layer.act_bytes + layer.weight_bytes;
    [layer.flops / (f_c * 1e9), 1.0 / f_c, bytes / (f_m * 1e9), 1.0]
}

fn erg_features(latency: f64, f_c: f64, f_m: f64) -> [f64; ERG_FEATURES] {
    let v = 0.6 + 0.3 * f_c; // a generic V(f) shape; exact slope is learned
    [latency, latency * v * v * f_c, latency * f_m, latency * f_c]
}

/// `n` as an `f64`, exactly: through `u32`, which `f64` holds every
/// value of. A count past `u32::MAX` is refused.
fn exact_count(n: usize, what: &str) -> Result<f64, HwError> {
    u32::try_from(n)
        .map(f64::from)
        .map_err(|_| HwError::ProxyFit(format!("{n} {what} exceed u32::MAX")))
}

/// Solves the `n×n` normal equations `(XᵀX) w = Xᵀy` by Gaussian
/// elimination with partial pivoting (n ≤ 4 here).
#[allow(clippy::needless_range_loop)]
fn least_squares<const N: usize>(rows: &[[f64; N]], targets: &[f64]) -> [f64; N] {
    let mut ata = [[0.0f64; N]; N];
    let mut atb = [0.0f64; N];
    for (x, &y) in rows.iter().zip(targets) {
        for i in 0..N {
            atb[i] += x[i] * y;
            for j in 0..N {
                ata[i][j] += x[i] * x[j];
            }
        }
    }
    // Ridge jitter keeps the system well-posed if features collapse.
    for (i, row) in ata.iter_mut().enumerate() {
        row[i] += 1e-9;
    }
    // Gaussian elimination.
    let mut a = ata;
    let mut b = atb;
    for col in 0..N {
        let mut pivot = col;
        for r in col + 1..N {
            if a[r][col].abs() > a[pivot][col].abs() {
                pivot = r;
            }
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        let d = a[col][col];
        if d.abs() < 1e-30 {
            continue;
        }
        for r in 0..N {
            if r == col {
                continue;
            }
            let factor = a[r][col] / d;
            for c in 0..N {
                a[r][c] -= factor * a[col][c];
            }
            b[r] -= factor * b[col];
        }
    }
    let mut w = [0.0f64; N];
    for i in 0..N {
        w[i] = if a[i][i].abs() > 1e-30 { b[i] / a[i][i] } else { 0.0 };
    }
    w
}

impl ProxyCostModel {
    /// Fits a proxy against `device` from `samples` random (layer, DVFS)
    /// measurements drawn from subnets of `space`. Deterministic given
    /// `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::ProxyFit`] if `samples == 0` (fitting needs
    /// data), a sampled genome fails to decode or the ladder has more
    /// than `u32::MAX` compute steps, and propagates device cost-model
    /// errors.
    pub fn fit(
        device: &DeviceModel,
        space: &SearchSpace,
        samples: usize,
        seed: u64,
    ) -> Result<Self, HwError> {
        if samples == 0 {
            return Err(HwError::ProxyFit("fitting needs at least one sample".into()));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let ladder = device.ladder().clone();
        let mut lat_rows = Vec::with_capacity(samples);
        let mut lat_targets = Vec::with_capacity(samples);
        let mut erg_rows = Vec::with_capacity(samples);
        let mut erg_targets = Vec::with_capacity(samples);
        let mut collected = 0usize;
        while collected < samples {
            let subnet = space
                .decode(&space.sample(&mut rng))
                .map_err(|e| HwError::ProxyFit(format!("sampled genome failed to decode: {e}")))?;
            let setting = DvfsSetting::new(
                rng.gen_range(0..ladder.compute_steps()),
                rng.gen_range(0..ladder.emc_steps()),
            );
            let (f_c, f_m) = ladder.resolve(&setting)?;
            for layer in subnet.layers() {
                if collected == samples {
                    break;
                }
                let truth = device.layer_cost(layer, &setting)?;
                lat_rows.push(lat_features(layer, f_c, f_m));
                lat_targets.push(truth.latency_s);
                erg_rows.push(erg_features(truth.latency_s, f_c, f_m));
                erg_targets.push(truth.energy_j);
                collected += 1;
            }
        }
        let lat_weights = least_squares(&lat_rows, &lat_targets);
        let erg_weights = least_squares(&erg_rows, &erg_targets);

        // The invocation cost is a pure function of f_c: fit it exactly
        // from the ladder sweep.
        let c_hi = *ladder
            .compute_ghz()
            .last()
            .ok_or_else(|| HwError::ProxyFit("empty DVFS ladder".into()))?;
        let mut inv_rows = Vec::new();
        let mut inv_targets = Vec::new();
        let mut per_inv = 0.0;
        let steps = exact_count(ladder.compute_steps(), "DVFS ladder steps")?;
        for c in 0..ladder.compute_steps() {
            let setting = DvfsSetting::new(c, 0);
            let (f_c, f_m) = ladder.resolve(&setting)?;
            let truth = device.invoke_cost(&setting)?;
            per_inv += truth.latency_s * f_c / c_hi / steps;
            inv_rows.push(erg_features(truth.latency_s, f_c, f_m));
            inv_targets.push(truth.energy_j);
        }
        let invoke_erg_weights = least_squares(&inv_rows, &inv_targets);
        Ok(ProxyCostModel {
            target: device.target(),
            ladder,
            lat_weights,
            erg_weights,
            invoke_lat_per_inv_fc: per_inv * c_hi,
            invoke_erg_weights,
            training_samples: samples,
        })
    }

    /// Number of device measurements the fit consumed.
    pub fn training_samples(&self) -> usize {
        self.training_samples
    }

    /// Held-out validation: MAPE of full-subnet latency/energy predictions
    /// against `device` on `queries` random (subnet, DVFS) pairs.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::ProxyFit`] if a sampled genome fails to
    /// decode or `queries` exceeds `u32::MAX`, and propagates device
    /// cost-model errors.
    pub fn validate(
        &self,
        device: &DeviceModel,
        space: &SearchSpace,
        queries: usize,
        seed: u64,
    ) -> Result<ProxyValidation, HwError> {
        let count = exact_count(queries, "validation queries")?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lat_err = 0.0;
        let mut erg_err = 0.0;
        for _ in 0..queries {
            let subnet = space
                .decode(&space.sample(&mut rng))
                .map_err(|e| HwError::ProxyFit(format!("sampled genome failed to decode: {e}")))?;
            let setting = DvfsSetting::new(
                rng.gen_range(0..self.ladder.compute_steps()),
                rng.gen_range(0..self.ladder.emc_steps()),
            );
            let truth = device.subnet_cost(&subnet, &setting)?;
            let pred = CostModel::subnet_cost(self, &subnet, &setting)?;
            lat_err += ((pred.latency_s - truth.latency_s) / truth.latency_s).abs();
            erg_err += ((pred.energy_j - truth.energy_j) / truth.energy_j).abs();
        }
        Ok(ProxyValidation { latency_mape: lat_err / count, energy_mape: erg_err / count, queries })
    }
}

impl CostModel for ProxyCostModel {
    fn target(&self) -> HwTarget {
        self.target
    }

    fn ladder(&self) -> &DvfsLadder {
        &self.ladder
    }

    fn layer_cost(&self, layer: &LayerInfo, setting: &DvfsSetting) -> Result<CostReport, HwError> {
        let (f_c, f_m) = self.ladder.resolve(setting)?;
        let lf = lat_features(layer, f_c, f_m);
        let latency: f64 =
            lf.iter().zip(self.lat_weights.iter()).map(|(x, w)| x * w).sum::<f64>().max(1e-7);
        let ef = erg_features(latency, f_c, f_m);
        let energy: f64 =
            ef.iter().zip(self.erg_weights.iter()).map(|(x, w)| x * w).sum::<f64>().max(1e-9);
        Ok(CostReport { latency_s: latency, energy_j: energy })
    }

    fn invoke_cost(&self, setting: &DvfsSetting) -> Result<CostReport, HwError> {
        let (f_c, f_m) = self.ladder.resolve(setting)?;
        let latency = self.invoke_lat_per_inv_fc / f_c;
        let ef = erg_features(latency, f_c, f_m);
        let energy: f64 = ef
            .iter()
            .zip(self.invoke_erg_weights.iter())
            .map(|(x, w)| x * w)
            .sum::<f64>()
            .max(1e-9);
        Ok(CostReport { latency_s: latency, energy_j: energy })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proxy_predictions_track_the_device() {
        let device = DeviceModel::for_target(HwTarget::Tx2PascalGpu);
        let space = SearchSpace::attentive_nas();
        let proxy = ProxyCostModel::fit(&device, &space, 2_000, 1).expect("fits");
        let v = proxy.validate(&device, &space, 50, 2).expect("validates");
        assert!(v.latency_mape < 0.10, "latency MAPE {:.3}", v.latency_mape);
        assert!(v.energy_mape < 0.10, "energy MAPE {:.3}", v.energy_mape);
    }

    #[test]
    fn proxy_fits_every_target() {
        let space = SearchSpace::attentive_nas();
        for target in HwTarget::ALL {
            let device = DeviceModel::for_target(target);
            let proxy = ProxyCostModel::fit(&device, &space, 1_000, 7).expect("fits");
            let v = proxy.validate(&device, &space, 25, 8).expect("validates");
            assert!(
                v.latency_mape < 0.2 && v.energy_mape < 0.2,
                "{target}: lat {:.3}, erg {:.3}",
                v.latency_mape,
                v.energy_mape
            );
        }
    }

    #[test]
    fn proxy_preserves_latency_monotonicity() {
        let device = DeviceModel::for_target(HwTarget::AgxVoltaGpu);
        let space = SearchSpace::attentive_nas();
        let proxy = ProxyCostModel::fit(&device, &space, 1_500, 3).expect("fits");
        let net = space.decode(&hadas_space::baselines::baseline_genome(3)).expect("a3");
        let emc = proxy.ladder().emc_steps() - 1;
        let mut prev = f64::INFINITY;
        for c in 0..proxy.ladder().compute_steps() {
            let r = CostModel::subnet_cost(&proxy, &net, &DvfsSetting::new(c, emc)).expect("valid");
            assert!(r.latency_s <= prev);
            prev = r.latency_s;
        }
    }

    #[test]
    fn least_squares_recovers_exact_linear_data() {
        let rows = vec![
            [1.0, 0.0, 0.0, 1.0],
            [0.0, 1.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 1.0],
            [1.0, 1.0, 1.0, 1.0],
            [2.0, 1.0, 0.0, 1.0],
        ];
        let w_true = [2.0, -1.0, 0.5, 3.0];
        let targets: Vec<f64> =
            rows.iter().map(|r| r.iter().zip(w_true.iter()).map(|(x, w)| x * w).sum()).collect();
        let w = least_squares(&rows, &targets);
        for (a, b) in w.iter().zip(w_true.iter()) {
            assert!((a - b).abs() < 1e-6, "{w:?}");
        }
    }

    #[test]
    fn fit_rejects_zero_samples() {
        let device = DeviceModel::for_target(HwTarget::Tx2PascalGpu);
        let space = SearchSpace::attentive_nas();
        let err = ProxyCostModel::fit(&device, &space, 0, 0).unwrap_err();
        assert!(err.to_string().contains("at least one sample"), "{err}");
    }
}
