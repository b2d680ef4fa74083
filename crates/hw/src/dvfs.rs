use crate::HwError;
use serde::{Deserialize, Serialize};

/// The discrete frequency ladders of one device: compute-unit frequencies
/// (GPU or CPU) and external-memory-controller (EMC) frequencies, in GHz.
///
/// Step counts match the paper's Table II (e.g. 13 GPU steps and 11 EMC
/// steps for the TX2 Pascal GPU).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DvfsLadder {
    compute_ghz: Vec<f64>,
    emc_ghz: Vec<f64>,
}

impl DvfsLadder {
    /// Builds a ladder of `n` evenly spaced compute frequencies in
    /// `[c_lo, c_hi]` GHz and `m` EMC frequencies in `[m_lo, m_hi]` GHz.
    ///
    /// # Panics
    ///
    /// Panics if either step count is zero or above `u32::MAX`, or a
    /// range is inverted — ladder construction is compile-time
    /// configuration, not runtime input.
    pub fn linspace(n: usize, c_lo: f64, c_hi: f64, m: usize, m_lo: f64, m_hi: f64) -> Self {
        assert!(n > 0 && m > 0, "ladders must have at least one step");
        assert!(c_lo <= c_hi && m_lo <= m_hi, "frequency ranges must be ordered");
        assert!(u32::try_from(n.max(m)).is_ok(), "ladders must have at most u32::MAX steps");
        let lin = |k: usize, lo: f64, hi: f64| -> Vec<f64> {
            // Exact through `u32`, which `f64` holds every value of.
            let k = u32::try_from(k).unwrap_or(u32::MAX);
            if k == 1 {
                vec![hi]
            } else {
                (0..k).map(|i| lo + (hi - lo) * f64::from(i) / f64::from(k - 1)).collect()
            }
        };
        DvfsLadder { compute_ghz: lin(n, c_lo, c_hi), emc_ghz: lin(m, m_lo, m_hi) }
    }

    /// The compute-unit frequency steps in GHz, ascending.
    pub fn compute_ghz(&self) -> &[f64] {
        &self.compute_ghz
    }

    /// The EMC frequency steps in GHz, ascending.
    pub fn emc_ghz(&self) -> &[f64] {
        &self.emc_ghz
    }

    /// Number of compute frequency steps.
    pub fn compute_steps(&self) -> usize {
        self.compute_ghz.len()
    }

    /// Number of EMC frequency steps.
    pub fn emc_steps(&self) -> usize {
        self.emc_ghz.len()
    }

    /// Total number of (compute, EMC) combinations — the size of the
    /// per-device **F** subspace.
    pub fn cardinality(&self) -> usize {
        self.compute_ghz.len() * self.emc_ghz.len()
    }

    /// The maximum-performance setting (both axes at their top step),
    /// which the paper uses as the *default HW setting* for static (OOE)
    /// evaluations.
    pub fn max_setting(&self) -> DvfsSetting {
        DvfsSetting { compute: self.compute_ghz.len() - 1, emc: self.emc_ghz.len() - 1 }
    }

    /// Highest compute-ladder index whose frequency stays at or below
    /// `cap` × the top compute frequency — the effective ceiling of the
    /// ladder during a thermal-throttle episode.
    ///
    /// `cap` is clamped to `[0, 1]`; a cap below the bottom step still
    /// returns index 0 (the SoC can always run its slowest step, it just
    /// runs hot — real governors latch to the floor, they do not halt).
    pub fn thermal_cap_index(&self, cap: f64) -> usize {
        let cap = cap.clamp(0.0, 1.0);
        let top = self.compute_ghz[self.compute_ghz.len() - 1];
        let limit = top * cap;
        self.compute_ghz.iter().rposition(|&f| f <= limit + 1e-12).unwrap_or(0)
    }

    /// Whether `setting`'s compute axis is feasible under a thermal cap
    /// (fraction of the top compute frequency). Settings with an
    /// out-of-range compute index are reported infeasible rather than
    /// erroring: during a throttle episode the question is "can I latch
    /// this?", and the answer for a bogus index is simply "no".
    pub fn respects_thermal_cap(&self, setting: &DvfsSetting, cap: f64) -> bool {
        setting.compute <= self.thermal_cap_index(cap) && setting.compute < self.compute_ghz.len()
    }

    /// Clamps `setting`'s compute axis to the thermal-cap ceiling,
    /// leaving the EMC axis untouched (Jetson-class throttling caps the
    /// compute clock; the memory controller keeps its programmed step).
    /// Also defensively clamps an out-of-range compute index to the top
    /// of the ladder before applying the cap.
    pub fn clamp_to_thermal_cap(&self, setting: &DvfsSetting, cap: f64) -> DvfsSetting {
        let ceiling = self.thermal_cap_index(cap);
        DvfsSetting { compute: setting.compute.min(ceiling), emc: setting.emc }
    }

    /// The compute frequency of `setting` as a fraction of the top step,
    /// the scale thermal caps are expressed on. Out-of-range indices
    /// clamp to the top step.
    pub fn compute_fraction(&self, setting: &DvfsSetting) -> f64 {
        let idx = setting.compute.min(self.compute_ghz.len() - 1);
        let top = self.compute_ghz[self.compute_ghz.len() - 1];
        if top <= 0.0 {
            return 1.0;
        }
        self.compute_ghz[idx] / top
    }

    /// Resolves a setting into concrete `(compute_ghz, emc_ghz)`.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::DvfsOutOfRange`] if either index overflows.
    pub fn resolve(&self, setting: &DvfsSetting) -> Result<(f64, f64), HwError> {
        let c = *self.compute_ghz.get(setting.compute).ok_or(HwError::DvfsOutOfRange {
            axis: "compute",
            index: setting.compute,
            steps: self.compute_ghz.len(),
        })?;
        let m = *self.emc_ghz.get(setting.emc).ok_or(HwError::DvfsOutOfRange {
            axis: "emc",
            index: setting.emc,
            steps: self.emc_ghz.len(),
        })?;
        Ok((c, m))
    }
}

/// One point of the **F** subspace: indices into a [`DvfsLadder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DvfsSetting {
    /// Index into the compute-frequency ladder.
    pub compute: usize,
    /// Index into the EMC-frequency ladder.
    pub emc: usize,
}

impl DvfsSetting {
    /// Creates a setting from raw ladder indices.
    pub fn new(compute: usize, emc: usize) -> Self {
        DvfsSetting { compute, emc }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linspace_hits_endpoints() {
        let l = DvfsLadder::linspace(13, 0.1, 1.4, 11, 0.2, 1.8);
        assert_eq!(l.compute_steps(), 13);
        assert_eq!(l.emc_steps(), 11);
        assert!((l.compute_ghz()[0] - 0.1).abs() < 1e-12);
        assert!((l.compute_ghz()[12] - 1.4).abs() < 1e-12);
        assert!((l.emc_ghz()[10] - 1.8).abs() < 1e-12);
    }

    #[test]
    fn ladder_is_ascending() {
        let l = DvfsLadder::linspace(29, 0.1, 2.3, 9, 0.2, 2.1);
        assert!(l.compute_ghz().windows(2).all(|w| w[1] > w[0]));
        assert!(l.emc_ghz().windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn max_setting_resolves_to_top_frequencies() {
        let l = DvfsLadder::linspace(14, 0.1, 1.4, 9, 0.2, 2.1);
        let (c, m) = l.resolve(&l.max_setting()).unwrap();
        assert!((c - 1.4).abs() < 1e-12);
        assert!((m - 2.1).abs() < 1e-12);
    }

    #[test]
    fn resolve_rejects_overflow() {
        let l = DvfsLadder::linspace(2, 0.5, 1.0, 2, 0.5, 1.0);
        assert!(matches!(
            l.resolve(&DvfsSetting::new(2, 0)),
            Err(HwError::DvfsOutOfRange { axis: "compute", .. })
        ));
        assert!(matches!(
            l.resolve(&DvfsSetting::new(0, 5)),
            Err(HwError::DvfsOutOfRange { axis: "emc", .. })
        ));
    }

    #[test]
    fn thermal_cap_index_tracks_the_ladder() {
        let l = DvfsLadder::linspace(11, 0.1, 1.0, 4, 0.2, 1.8);
        // Steps are 0.1, 0.19, ..., 1.0; a 50% cap allows up to 0.5 GHz.
        assert_eq!(l.thermal_cap_index(1.0), 10);
        let idx = l.thermal_cap_index(0.5);
        assert!(l.compute_ghz()[idx] <= 0.5 + 1e-12);
        assert!(idx + 1 == 11 || l.compute_ghz()[idx + 1] > 0.5);
        // A cap below the bottom step still leaves the floor step usable.
        assert_eq!(l.thermal_cap_index(0.0), 0);
        assert_eq!(l.thermal_cap_index(-3.0), 0);
    }

    #[test]
    fn clamp_to_thermal_cap_caps_compute_only() {
        let l = DvfsLadder::linspace(11, 0.1, 1.0, 4, 0.2, 1.8);
        let hot = DvfsSetting::new(10, 3);
        let clamped = l.clamp_to_thermal_cap(&hot, 0.5);
        assert!(clamped.compute < 10);
        assert_eq!(clamped.emc, 3, "EMC axis is untouched by thermal caps");
        assert!(l.respects_thermal_cap(&clamped, 0.5));
        assert!(!l.respects_thermal_cap(&hot, 0.5));
        // Out-of-range compute indices clamp instead of erroring.
        let bogus = DvfsSetting::new(99, 0);
        assert!(l.clamp_to_thermal_cap(&bogus, 1.0).compute == 10);
        assert!(!l.respects_thermal_cap(&bogus, 1.0));
    }

    #[test]
    fn compute_fraction_is_monotone_and_bounded() {
        let l = DvfsLadder::linspace(13, 0.1, 1.4, 11, 0.2, 1.8);
        let mut last = 0.0;
        for c in 0..l.compute_steps() {
            let f = l.compute_fraction(&DvfsSetting::new(c, 0));
            assert!(f >= last && f <= 1.0 + 1e-12);
            last = f;
        }
        assert!((l.compute_fraction(&DvfsSetting::new(12, 0)) - 1.0).abs() < 1e-12);
        assert!((l.compute_fraction(&DvfsSetting::new(500, 0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cardinality_is_product() {
        let l = DvfsLadder::linspace(13, 0.1, 1.4, 11, 0.2, 1.8);
        assert_eq!(l.cardinality(), 143);
    }

    #[test]
    fn single_step_ladder_uses_top_frequency() {
        let l = DvfsLadder::linspace(1, 0.1, 1.4, 1, 0.2, 1.8);
        let (c, m) = l.resolve(&l.max_setting()).unwrap();
        assert_eq!((c, m), (1.4, 1.8));
    }
}
