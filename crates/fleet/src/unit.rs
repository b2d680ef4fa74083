//! Device units: the fleet's view of one supervised serve engine.
//!
//! A unit's lifecycle under the fleet supervisor is a small state
//! machine (see DESIGN.md "Fleet plane"):
//!
//! ```text
//! Spawned ──run──▶ Reporting ──fold──▶ Healthy | Unhealthy
//!    ▲                 │crash
//!    └──── respawn ◀───┘          (attempt budget exhausted ⇒ DeadLettered)
//! ```
//!
//! The unit's periodic [`hadas_serve::HealthSample`]s condense into one
//! [`DeviceHealthReport`] per unit — the night-report idiom: queue
//! depth, brownout tier, thermal cap, sag energy, dead letters — and a
//! [`DeviceSummary`] carries the unit's request accounting into the
//! fleet report. Both are scheduling-plane quantities, byte-identical
//! across fleet worker counts and recovered unit crashes.

use crate::HealthPolicy;
use hadas_serve::ServeTrace;
use serde::{Deserialize, Serialize};

/// The condensed health telemetry of one device unit over a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceHealthReport {
    /// Device index in the fleet.
    pub device: usize,
    /// CLI spelling of the device's hardware target.
    pub target: String,
    /// The governor the replica ran.
    pub governor: String,
    /// Control windows observed.
    pub windows: usize,
    /// Deepest batcher backlog seen at a window boundary.
    pub max_queue_depth: usize,
    /// Most degraded brownout tier latched (tier index, 0 = Normal).
    pub worst_tier: usize,
    /// Tightest thermal frequency cap in force (`1.0` = never capped).
    pub min_thermal_cap: f64,
    /// Control windows opened under an active thermal cap.
    pub throttled_windows: usize,
    /// Extra joules paid to voltage sag beyond nominal mode costs.
    pub sag_energy_j: f64,
    /// Requests lost by the unit (assigned requests of a dead-lettered
    /// unit; zero whenever supervision heals).
    pub dead_lettered: usize,
    /// Telemetry defects the sanitizer tagged on this unit's health
    /// channel (corrupt readings, stale/frozen replays).
    pub telemetry_defects: usize,
    /// Sample windows the unit opened but never emitted (dropped
    /// telemetry).
    pub dropped_windows: usize,
    /// The gray-failure detector's final state for this unit
    /// (`"healthy"` when detection was off).
    pub state: String,
    /// The post-hoc verdict under the fleet's [`HealthPolicy`]: tier and
    /// thermal cap within policy bounds and nothing dead-lettered.
    pub healthy: bool,
}

impl DeviceHealthReport {
    /// Condenses a unit's serve trace into its health report under the
    /// fleet's shared verdict policy.
    pub(crate) fn from_trace(
        device: usize,
        target: &str,
        governor: &str,
        trace: &ServeTrace,
        policy: &HealthPolicy,
        state: &str,
    ) -> Self {
        let mut max_depth = 0usize;
        let mut worst_tier = 0usize;
        let mut min_cap = 1.0f64;
        for s in &trace.health {
            max_depth = max_depth.max(s.queue_depth);
            worst_tier = worst_tier.max(s.tier.index());
            min_cap = min_cap.min(s.thermal_cap);
        }
        let dead = trace.report.dead_lettered;
        DeviceHealthReport {
            device,
            target: target.to_string(),
            governor: governor.to_string(),
            windows: trace.health.len(),
            max_queue_depth: max_depth,
            worst_tier,
            min_thermal_cap: min_cap,
            throttled_windows: trace.report.throttled_windows,
            sag_energy_j: trace.report.sag_energy_j,
            dead_lettered: dead,
            telemetry_defects: trace.report.telemetry.defects.total(),
            dropped_windows: trace.report.telemetry.dropped_windows,
            state: state.to_string(),
            healthy: policy.trace_healthy(worst_tier, min_cap, dead),
        }
    }
}

/// Per-unit request accounting and headline costs inside the fleet
/// report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSummary {
    /// Device index in the fleet.
    pub device: usize,
    /// CLI spelling of the device's hardware target.
    pub target: String,
    /// The governor the replica ran.
    pub governor: String,
    /// Requests the router assigned to this unit.
    pub assigned: usize,
    /// Requests the unit served.
    pub served: usize,
    /// Requests the unit shed at admission.
    pub shed: usize,
    /// Requests the unit's brownout ladder rejected.
    pub rejected: usize,
    /// Requests lost with the unit (zero whenever supervision heals).
    pub dead_lettered: usize,
    /// Mode switches the unit latched — governor moves within its
    /// window plus live operating-point swaps.
    pub mode_switches: usize,
    /// Energy the unit drew (joules).
    pub energy_j: f64,
    /// Served requests that missed their deadline.
    pub slo_violations: usize,
    /// The unit's p99 completion latency (ms; 0 when nothing served).
    pub p99_ms: f64,
}
