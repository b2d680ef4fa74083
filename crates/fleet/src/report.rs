//! The serialized outcome of one fleet run.

use crate::{DetectionSummary, DeviceHealthReport, DeviceSummary, ReconfigSummary, RouterSummary};
use hadas::seal::{self, Sealed};
use hadas::HadasError;
use hadas_runtime::LatencySummary;
use hadas_serve::{accounting_balances, SloSummary};
use serde::{Deserialize, Serialize};

/// Schema tag stamped into every serialized [`FleetReport`]. Bump on
/// any report shape change; [`FleetReport::from_json`] refuses other
/// versions.
/// v2: gray-failure detection summary, per-unit telemetry integrity and
/// detector states, probe-assignment routing counter.
pub const FLEET_REPORT_SCHEMA: u32 = 2;

/// Aggregate outcome of one fleet run, folded from the per-device
/// traces in device-index order.
///
/// Determinism contract: the router's schedule and every device's
/// schedule are computed single-threaded on the shared virtual clock;
/// devices reduce as pure supervised jobs; results fold in device
/// order. The serialized report is therefore byte-identical across
/// fleet worker counts — worker count deliberately does **not**
/// serialize — and byte-identical to the fault-free run under injected
/// unit crashes whenever zero units dead-letter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Report schema version ([`FLEET_REPORT_SCHEMA`]); stamped by
    /// [`FleetReport::to_json`].
    pub schema: u32,
    /// Content fingerprint ([`hadas::seal`]); stamped by
    /// [`FleetReport::to_json`], checked by [`FleetReport::from_json`].
    /// Zero while in memory.
    pub fingerprint: u64,
    /// Device units in the fleet.
    pub devices: usize,
    /// Canonical device-mix echo (see [`crate::canonical_spec`]).
    pub device_mix: String,
    /// Configured simulated-user volume.
    pub users: usize,
    /// Fleet-wide mean offered load (requests/s).
    pub rps: f64,
    /// Arrival-stream duration `users / rps` (seconds).
    pub duration_s: f64,
    /// The run seed.
    pub seed: u64,
    /// Requests offered by the fleet-wide arrival stream.
    pub offered: usize,
    /// Requests the router admitted to some device.
    pub routed: usize,
    /// Requests no device admitted (router-level rejection, per class in
    /// [`FleetReport::router`]).
    pub fleet_rejected: usize,
    /// Requests served across all units.
    pub served: usize,
    /// Requests shed by device admission control.
    pub shed: usize,
    /// Requests rejected by device brownout ladders.
    pub rejected: usize,
    /// Requests lost with dead-lettered units (zero whenever unit
    /// supervision heals — the precondition of the chaos byte-identity
    /// contract). The conservation identity extends the serve plane's
    /// [`accounting_balances`]: `served + shed + rejected +
    /// dead_lettered == routed` and `routed + fleet_rejected ==
    /// offered`.
    pub dead_lettered: usize,
    /// Completion time of the last batch on any unit (seconds).
    pub makespan_s: f64,
    /// `served / max(makespan, duration)` (requests/s) — the modeled
    /// fleet throughput the scaling bench asserts monotone in device
    /// count.
    pub throughput_rps: f64,
    /// Total energy drawn across units (joules).
    pub energy_j: f64,
    /// Total voltage-sag energy across units (joules).
    pub sag_energy_j: f64,
    /// Global completion-latency distribution, merged from per-unit
    /// histograms via `Histogram::merge` in device order.
    pub latency: LatencySummary,
    /// Global deadline accounting, split by SLO class.
    pub slo: SloSummary,
    /// Name of the workload-drift scenario in force (`"none"`).
    pub scenario: String,
    /// Live-reconfiguration accounting: swaps, rollbacks, the zero-drop
    /// counter, and final anchors ([`ReconfigSummary::disabled`] for a
    /// pinned-mode fleet).
    pub reconfig: ReconfigSummary,
    /// Gray-failure-detection accounting: per-device final states,
    /// transitions, quarantine re-dispatch counters
    /// ([`DetectionSummary::disabled`] when the detector is off).
    pub detection: DetectionSummary,
    /// Router accounting: the per-device decision histogram and
    /// per-class admission counters.
    pub router: RouterSummary,
    /// Per-unit request accounting, in device order.
    pub per_device: Vec<DeviceSummary>,
    /// Per-unit condensed health telemetry, in device order.
    pub health: Vec<DeviceHealthReport>,
    /// Units whose health verdict came back unhealthy.
    pub unhealthy_devices: usize,
}

impl Sealed for FleetReport {
    const SCHEMA: u32 = FLEET_REPORT_SCHEMA;
    const NAME: &'static str = "fleet report";
}

impl FleetReport {
    /// Serialises the report as sealed pretty JSON ([`seal::to_json`]) —
    /// the byte-identical artifact the fleet determinism contract is
    /// stated over.
    ///
    /// # Errors
    ///
    /// Propagates serialisation failures (none for this struct in
    /// practice).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        seal::to_json(self)
    }

    /// Parses a sealed fleet report ([`seal::from_json`]).
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::Checkpoint`] for unparsable JSON, a schema
    /// other than [`FLEET_REPORT_SCHEMA`], or a fingerprint mismatch
    /// (tampered or truncated content).
    pub fn from_json(json: &str) -> Result<Self, HadasError> {
        Ok(seal::from_json(json)?)
    }

    /// Whether the fleet-level request-conservation identity holds: the
    /// serve plane's [`accounting_balances`] over the routed volume,
    /// plus router conservation `routed + fleet_rejected == offered`.
    pub fn accounting_balances(&self) -> bool {
        accounting_balances(self.served, self.shed, self.rejected, self.dead_lettered, self.routed)
            && self.routed + self.fleet_rejected == self.offered
    }
}
