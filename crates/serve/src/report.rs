use crate::{BrownoutSummary, TelemetryCounters};
use hadas::seal::Sealed;
use hadas_runtime::LatencySummary;
use serde::{Deserialize, Serialize};

/// Schema tag stamped into every serialized [`ServeReport`]. Bump on any
/// report shape change; [`hadas::seal::from_json`] refuses other
/// versions.
/// v2: telemetry-integrity summary (windows opened/emitted, sanitizer
/// defect tallies).
pub const SERVE_REPORT_SCHEMA: u32 = 2;

/// The request-conservation identity every serving plane obeys, stated
/// once: every offered request is exactly one of served, shed at
/// admission, rejected by an admission ladder, or dead-lettered by the
/// execution plane —
///
/// ```text
/// served + shed + rejected + dead_lettered == offered
/// ```
///
/// [`ServeReport::accounting_balances`] checks it per device run and the
/// fleet plane reuses it per unit and fleet-wide, so call sites assert
/// through this helper instead of restating the sum.
pub fn accounting_balances(
    served: usize,
    shed: usize,
    rejected: usize,
    dead_lettered: usize,
    offered: usize,
) -> bool {
    served + shed + rejected + dead_lettered == offered
}

/// Deadline accounting of one serving run, split by SLO class.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SloSummary {
    /// The interactive-class deadline budget (ms).
    pub target_ms: f64,
    /// Served requests that missed their deadline.
    pub violations: usize,
    /// `violations / served` (0 when nothing was served).
    pub violation_rate: f64,
    /// Interactive requests served.
    pub interactive_served: usize,
    /// Interactive requests that missed their deadline.
    pub interactive_violations: usize,
    /// Bulk requests served.
    pub bulk_served: usize,
    /// Bulk requests that missed their deadline.
    pub bulk_violations: usize,
}

/// Health-channel integrity accounting of one serving run: how many
/// control windows opened, how many samples actually made it onto the
/// channel, and what the [`crate::TelemetrySanitizer`] tagged on them.
/// All scheduling-plane quantities, so they serialize without breaking
/// the byte-identity contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryIntegrity {
    /// Control windows the session opened (the true ordinal count).
    pub windows_opened: usize,
    /// Health samples emitted on the channel (≤ `windows_opened`).
    pub samples_emitted: usize,
    /// Windows whose sample never appeared (`windows_opened −
    /// samples_emitted`) — gray drop faults make this non-zero.
    pub dropped_windows: usize,
    /// Sanitizer defect tallies over the emitted samples.
    pub defects: TelemetryCounters,
}

/// Aggregate outcome of one open-loop serving run.
///
/// Everything here is reduced from the per-batch shards in schedule order,
/// so the same `(config, modes)` pair always produces byte-identical JSON
/// — including under `--faults` and with any worker count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Report schema version ([`SERVE_REPORT_SCHEMA`]); stamped by
    /// [`hadas::seal::to_json`].
    pub schema: u32,
    /// Content fingerprint, stamped by [`hadas::seal::to_json`] and
    /// checked by [`hadas::seal::from_json`]. Zero while in memory.
    pub fingerprint: u64,
    /// Governor name (e.g. `degrade(queue[8])`).
    pub governor: String,
    /// Worker lanes in the pool.
    pub workers: usize,
    /// Mean offered load (requests/s).
    pub rps: f64,
    /// Arrival-stream length (s).
    pub duration_s: f64,
    /// The run seed.
    pub seed: u64,
    /// Requests offered by the arrival stream.
    pub offered: usize,
    /// Requests admitted and served.
    pub served: usize,
    /// Requests shed at admission (deadline infeasible under backlog).
    pub shed: usize,
    /// Requests turned away by the brownout ladder (bulk arrivals in
    /// [`crate::BrownoutTier::ShedBulk`] and everything in
    /// [`crate::BrownoutTier::RejectNewAdmissions`]).
    pub rejected: usize,
    /// Requests in batches whose every reduction attempt failed under
    /// chaos. Zero whenever recovery succeeds — the precondition of the
    /// byte-identity contract. The conservation identity
    /// [`accounting_balances`] always holds.
    pub dead_lettered: usize,
    /// Batches dispatched.
    pub batches: usize,
    /// `served / batches` (0 when no batch dispatched).
    pub mean_batch_size: f64,
    /// Completion time of the last batch (s).
    pub makespan_s: f64,
    /// `served / max(makespan, duration)` (requests/s).
    pub throughput_rps: f64,
    /// Accuracy over served requests (percent).
    pub accuracy_pct: f64,
    /// Total energy drawn, sag and mode switches included (joules).
    pub energy_j: f64,
    /// Extra joules paid to voltage sag beyond nominal mode costs.
    pub sag_energy_j: f64,
    /// Completion-latency distribution (arrival → batch finish).
    pub latency: LatencySummary,
    /// Deadline accounting.
    pub slo: SloSummary,
    /// Fraction of served requests leaving at each exit head; the last
    /// slot is the full-backbone fraction.
    pub exit_fractions: Vec<f64>,
    /// Fraction of served requests handled per operating mode.
    pub mode_occupancy: Vec<f64>,
    /// Mode switches latched by the governor.
    pub mode_switches: usize,
    /// Batches served in a mode *below* the governor's choice because a
    /// thermal cap had to be enforced.
    pub degraded_batches: usize,
    /// Control windows that opened under an active thermal cap.
    pub throttled_windows: usize,
    /// Requests served per worker lane.
    pub per_worker_served: Vec<usize>,
    /// Brownout-ladder accounting (tier occupancy, transitions); the
    /// disabled summary when no ladder was configured. Scheduling-plane
    /// only, so it serializes without breaking recovery byte-identity.
    pub brownout: BrownoutSummary,
    /// Health-channel integrity accounting (window/sample counts plus
    /// sanitizer defect tallies).
    pub telemetry: TelemetryIntegrity,
}

impl Sealed for ServeReport {
    const SCHEMA: u32 = SERVE_REPORT_SCHEMA;
    const NAME: &'static str = "serve report";
}

impl ServeReport {
    /// Whether this run satisfies the request-conservation identity
    /// [`accounting_balances`].
    pub fn accounting_balances(&self) -> bool {
        accounting_balances(self.served, self.shed, self.rejected, self.dead_lettered, self.offered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadas::seal;

    #[test]
    fn conservation_identity_is_the_exact_sum() {
        assert!(accounting_balances(5, 2, 1, 0, 8));
        assert!(accounting_balances(0, 0, 0, 0, 0));
        assert!(!accounting_balances(5, 2, 1, 0, 9), "a lost request must trip the identity");
        assert!(!accounting_balances(5, 2, 1, 2, 8), "double counting must trip it too");
    }

    fn sample_report() -> ServeReport {
        ServeReport {
            schema: 0,
            fingerprint: 0,
            governor: "degrade(queue[8])".to_string(),
            workers: 2,
            rps: 80.0,
            duration_s: 10.0,
            seed: 7,
            offered: 800,
            served: 780,
            shed: 12,
            rejected: 8,
            dead_lettered: 0,
            batches: 130,
            mean_batch_size: 6.0,
            makespan_s: 10.4,
            throughput_rps: 75.0,
            accuracy_pct: 71.25,
            energy_j: 1234.5,
            sag_energy_j: 0.0,
            latency: LatencySummary::default(),
            slo: SloSummary::default(),
            exit_fractions: vec![0.25, 0.25, 0.5],
            mode_occupancy: vec![0.6, 0.4],
            mode_switches: 3,
            degraded_batches: 0,
            throttled_windows: 0,
            per_worker_served: vec![400, 380],
            brownout: BrownoutSummary::disabled(),
            telemetry: TelemetryIntegrity::default(),
        }
    }

    #[test]
    fn json_round_trip_is_schema_and_fingerprint_gated() {
        let report = sample_report();
        let json = seal::to_json(&report).expect("reports serialize");
        let restored: ServeReport = seal::from_json(&json).expect("a stamped report restores");
        assert_eq!(restored.schema, SERVE_REPORT_SCHEMA);
        // The fingerprint hashes the whole text, so pinning it pins every
        // byte of the report format.
        assert_eq!(restored.fingerprint, 2_500_456_699_268_850_222, "golden report bytes");
        assert_eq!(restored.served, report.served);

        let tampered = json.replace("\"served\": 780", "\"served\": 781");
        let err = seal::from_json::<ServeReport>(&tampered).expect_err("tampering must be refused");
        assert!(err.to_string().contains("fingerprint"), "{err}");

        let stale = json.replace(
            &format!("\"schema\": {SERVE_REPORT_SCHEMA}"),
            &format!("\"schema\": {}", SERVE_REPORT_SCHEMA + 1),
        );
        let err =
            seal::from_json::<ServeReport>(&stale).expect_err("stale schemas must be refused");
        assert!(err.to_string().contains("schema"), "{err}");

        assert!(seal::from_json::<ServeReport>("not json").is_err());
    }
}
