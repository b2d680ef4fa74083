//! Live fleet reconfiguration: the epoch controller that re-selects
//! per-device operating points against workload drift, and the swap
//! accounting the fleet report serializes.
//!
//! With `FleetConfig::reconfigure` on, a fleet run is segmented into
//! epochs. Each epoch routes its slice of the arrival stream under
//! *refreshed* per-device cost estimates, runs every device unit one
//! segment forward as a pure supervised job, and then — single-threaded,
//! in device order — the controller reads each device's epoch pressure
//! (interactive SLO violations, thermal caps, battery state of charge)
//! and decides whether to slide the device's mode window along its
//! searched Pareto front:
//!
//! ```text
//!            pressure / throttle / low SoC
//!   anchor a ────────────────────────────────▶ anchor a+1   (escalate: cheaper window)
//!   anchor a ◀──────────────────────────────── anchor a-1   (de-escalate after
//!            `hysteresis_epochs` calm epochs                  sustained calm)
//! ```
//!
//! A window move is executed as a zero-drop swap: the session state the
//! epoch barrier left behind stays where it is, and the next segment
//! resumes it under the new window's engine — queued requests move with
//! the state, nothing is copied or serialized, and a queue-length check
//! at the swap feeds `dropped_by_swap` (structurally zero), so the
//! fleet's request-conservation identity is untouched. A swap-failure
//! draw from the substrate fault stream leaves the device on its old
//! window ([`ReconfigSummary::swap_rollbacks`]).
//!
//! Every decision input is a scheduling-plane quantity folded in device
//! order, so reconfigured reports stay byte-identical across fleet
//! worker counts and under healed unit chaos.

use hadas::HadasError;
use serde::{Deserialize, Serialize};

/// Operating modes per reconfiguration window: each device serves under
/// a contiguous 3-mode slice of its plane's full Pareto front, and the
/// controller slides the slice's anchor.
pub const RECONFIG_WINDOW: usize = 3;

/// Controller knobs of the live-reconfiguration plane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReconfigConfig {
    /// Epochs the run is segmented into (≥ 1); swap decisions happen at
    /// the barrier after every epoch except the last.
    pub epochs: usize,
    /// Calm epochs required before a device de-escalates one anchor
    /// step back toward the accurate end (≥ 1) — the hysteresis that
    /// stops anchor flapping.
    pub hysteresis_epochs: usize,
    /// Interactive SLO-violation pressure (epoch violations / epoch
    /// served, in `(0, 1]`) above which a device escalates.
    pub pressure_threshold: f64,
    /// Battery state of charge below which a device escalates
    /// (`[0, 1)`; only consulted when `battery_j > 0`).
    pub soc_low: f64,
    /// Per-device battery capacity in joules (0 disables the battery
    /// model). Drift scenarios with battery decay shrink the effective
    /// capacity over the horizon.
    pub battery_j: f64,
    /// Fraction of the fleet under quarantine above which the surviving
    /// devices escalate (`[0, 1]`): lost capacity is pressure on
    /// everyone left serving.
    pub quarantine_pressure: f64,
}

impl Default for ReconfigConfig {
    fn default() -> Self {
        ReconfigConfig {
            epochs: 8,
            hysteresis_epochs: 2,
            pressure_threshold: 0.05,
            soc_low: 0.25,
            battery_j: 0.0,
            quarantine_pressure: 0.2,
        }
    }
}

impl ReconfigConfig {
    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::InvalidConfig`] for zero epochs/hysteresis
    /// or out-of-range thresholds.
    pub fn validate(&self) -> Result<(), HadasError> {
        if self.epochs == 0 {
            return Err(HadasError::InvalidConfig("reconfig epochs must be ≥ 1".into()));
        }
        if self.hysteresis_epochs == 0 {
            return Err(HadasError::InvalidConfig("hysteresis_epochs must be ≥ 1".into()));
        }
        if !self.pressure_threshold.is_finite() || !(0.0..=1.0).contains(&self.pressure_threshold) {
            return Err(HadasError::InvalidConfig("pressure_threshold must lie in [0, 1]".into()));
        }
        if !self.soc_low.is_finite() || !(0.0..1.0).contains(&self.soc_low) {
            return Err(HadasError::InvalidConfig("soc_low must lie in [0, 1)".into()));
        }
        if !self.battery_j.is_finite() || self.battery_j < 0.0 {
            return Err(HadasError::InvalidConfig("battery_j must be ≥ 0".into()));
        }
        if !self.quarantine_pressure.is_finite() || !(0.0..=1.0).contains(&self.quarantine_pressure)
        {
            return Err(HadasError::InvalidConfig("quarantine_pressure must lie in [0, 1]".into()));
        }
        Ok(())
    }
}

/// The pressure signals one device exposes to the controller at an
/// epoch barrier — all deltas over the epoch just served.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochPressure {
    /// Interactive requests served this epoch.
    pub interactive_served: usize,
    /// Interactive deadline violations this epoch.
    pub interactive_violations: usize,
    /// Tightest thermal cap observed in the epoch's control windows
    /// (`1.0` = never capped).
    pub min_thermal_cap: f64,
    /// Battery state of charge at the epoch barrier (`1.0` when the
    /// battery model is off).
    pub soc: f64,
    /// Fraction of the fleet quarantined by the gray-failure detector
    /// at this barrier (`0.0` with detection off) — shared across every
    /// device's pressure, so lost capacity pushes the survivors.
    pub fleet_quarantined: f64,
}

impl EpochPressure {
    /// Interactive violation pressure: `violations / max(1, served)`.
    pub fn slo_pressure(&self) -> f64 {
        self.interactive_violations as f64 / self.interactive_served.max(1) as f64
    }
}

/// One controller verdict for one device at an epoch barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnchorDecision {
    /// Stay on the current window.
    Hold,
    /// Slide one step toward the frugal end of the front.
    Escalate,
    /// Slide one step back toward the accurate end.
    Deescalate,
}

/// The pure per-device controller step: given the epoch's pressure, the
/// current calm streak, and the knobs, pick the next decision. `calm`
/// is updated in place (reset on pressure, grown on calm). Pure in its
/// inputs, so replaying the same epochs yields the same anchor path on
/// any fleet worker count.
pub fn decide_anchor(
    config: &ReconfigConfig,
    pressure: &EpochPressure,
    anchor: usize,
    max_anchor: usize,
    calm: &mut usize,
) -> AnchorDecision {
    let stressed = pressure.slo_pressure() > config.pressure_threshold
        || pressure.min_thermal_cap < 1.0
        || pressure.soc < config.soc_low
        || pressure.fleet_quarantined > config.quarantine_pressure;
    if stressed {
        *calm = 0;
        if anchor < max_anchor {
            return AnchorDecision::Escalate;
        }
        return AnchorDecision::Hold;
    }
    *calm += 1;
    if *calm >= config.hysteresis_epochs && anchor > 0 {
        *calm = 0;
        return AnchorDecision::Deescalate;
    }
    AnchorDecision::Hold
}

/// Serialized reconfiguration accounting inside the fleet report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReconfigSummary {
    /// Whether the reconfiguration controller ran.
    pub enabled: bool,
    /// Name of the drift scenario in force (`"none"` without one).
    pub scenario: String,
    /// Epochs the run was segmented into (0 when disabled).
    pub epochs: usize,
    /// Operating-point swaps executed.
    pub swaps: usize,
    /// Swaps aborted by a substrate swap-failure draw, leaving the
    /// device on its old window.
    pub swap_rollbacks: usize,
    /// Requests lost across swap barriers — structurally zero; the
    /// zero-drop invariant the chaos tests pin.
    pub dropped_by_swap: usize,
    /// Anchor steps taken toward the frugal end.
    pub escalations: usize,
    /// Anchor steps taken back toward the accurate end.
    pub deescalations: usize,
    /// Final per-device window anchors, in device order.
    pub final_anchors: Vec<usize>,
}

impl ReconfigSummary {
    /// The summary of a run without the controller (pinned-mode fleet);
    /// the scenario name still records any drift in force.
    pub fn disabled(scenario: &str) -> Self {
        ReconfigSummary {
            enabled: false,
            scenario: scenario.to_string(),
            epochs: 0,
            swaps: 0,
            swap_rollbacks: 0,
            dropped_by_swap: 0,
            escalations: 0,
            deescalations: 0,
            final_anchors: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calm_pressure() -> EpochPressure {
        EpochPressure {
            interactive_served: 100,
            interactive_violations: 0,
            min_thermal_cap: 1.0,
            soc: 1.0,
            fleet_quarantined: 0.0,
        }
    }

    #[test]
    fn default_config_validates_and_degenerates_are_rejected() {
        assert!(ReconfigConfig::default().validate().is_ok());
        let bad = |f: fn(&mut ReconfigConfig)| {
            let mut c = ReconfigConfig::default();
            f(&mut c);
            c.validate().is_err()
        };
        assert!(bad(|c| c.epochs = 0));
        assert!(bad(|c| c.hysteresis_epochs = 0));
        assert!(bad(|c| c.pressure_threshold = 1.5));
        assert!(bad(|c| c.soc_low = 1.0));
        assert!(bad(|c| c.battery_j = -1.0));
        assert!(bad(|c| c.quarantine_pressure = -0.1));
        assert!(bad(|c| c.quarantine_pressure = 1.5));
    }

    #[test]
    fn pressure_escalates_and_calm_deescalates_with_hysteresis() {
        let cfg = ReconfigConfig::default();
        let mut calm = 0usize;
        let hot = EpochPressure { interactive_violations: 20, ..calm_pressure() };
        assert_eq!(decide_anchor(&cfg, &hot, 0, 4, &mut calm), AnchorDecision::Escalate);
        assert_eq!(calm, 0);
        // At the frugal end pressure holds rather than overrunning.
        assert_eq!(decide_anchor(&cfg, &hot, 4, 4, &mut calm), AnchorDecision::Hold);
        // One calm epoch is not enough under hysteresis 2 ...
        assert_eq!(decide_anchor(&cfg, &calm_pressure(), 2, 4, &mut calm), AnchorDecision::Hold);
        // ... the second one steps back.
        assert_eq!(
            decide_anchor(&cfg, &calm_pressure(), 2, 4, &mut calm),
            AnchorDecision::Deescalate
        );
        assert_eq!(calm, 0, "a de-escalation consumes the calm streak");
    }

    #[test]
    fn thermal_and_battery_pressure_also_escalate() {
        let cfg = ReconfigConfig::default();
        let mut calm = 1usize;
        let throttled = EpochPressure { min_thermal_cap: 0.8, ..calm_pressure() };
        assert_eq!(decide_anchor(&cfg, &throttled, 1, 4, &mut calm), AnchorDecision::Escalate);
        assert_eq!(calm, 0, "pressure resets the calm streak");
        let drained = EpochPressure { soc: 0.1, ..calm_pressure() };
        assert_eq!(decide_anchor(&cfg, &drained, 1, 4, &mut calm), AnchorDecision::Escalate);
        // A quarantined quarter of the fleet pressures the survivors.
        let depleted = EpochPressure { fleet_quarantined: 0.25, ..calm_pressure() };
        assert_eq!(decide_anchor(&cfg, &depleted, 1, 4, &mut calm), AnchorDecision::Escalate);
        // An anchored-at-zero calm device never de-escalates below 0.
        let mut calm0 = 5usize;
        assert_eq!(decide_anchor(&cfg, &calm_pressure(), 0, 4, &mut calm0), AnchorDecision::Hold);
    }

    #[test]
    fn disabled_summary_is_inert_but_keeps_the_scenario() {
        let s = ReconfigSummary::disabled("diurnal");
        assert!(!s.enabled);
        assert_eq!(s.scenario, "diurnal");
        assert_eq!(s.swaps + s.swap_rollbacks + s.dropped_by_swap, 0);
        assert!(s.final_anchors.is_empty());
    }
}
