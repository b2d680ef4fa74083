//! Schema-versioned, fingerprinted snapshots of a mid-run serving
//! session.
//!
//! A [`crate::ServeSession`] exports its [`SessionState`] at a segment
//! barrier; wrapping it in an [`EngineSnapshot`] seals it
//! ([`hadas::seal`]): a schema version and a content fingerprint, so a
//! restore refuses a stale-schema or corrupted snapshot instead of
//! silently resuming from garbage. Operating-point swaps do not use it:
//! they move the state as it is.

use crate::SessionState;
use hadas::seal::{self, Sealed};
use hadas::HadasError;
use serde::{Deserialize, Serialize};

/// Schema tag of the swap-snapshot payload. Bump on any
/// [`SessionState`] shape change; restores refuse other versions.
/// v2: telemetry-integrity state (window ordinals, sanitizer carry-over,
/// defect counters, latency sum).
pub const SWAP_SNAPSHOT_SCHEMA: u32 = 2;

/// A sealed snapshot of one serving session at a swap barrier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// Payload schema version ([`SWAP_SNAPSHOT_SCHEMA`]).
    pub schema: u32,
    /// Content fingerprint ([`hadas::seal`]).
    pub fingerprint: u64,
    /// The complete mid-run session state.
    pub state: SessionState,
}

impl Sealed for EngineSnapshot {
    const SCHEMA: u32 = SWAP_SNAPSHOT_SCHEMA;
    const NAME: &'static str = "swap snapshot";
}

impl EngineSnapshot {
    /// Wraps a session state, stamping the current schema and its
    /// fingerprint.
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::Checkpoint`] if the state fails to
    /// serialize (never in practice).
    pub fn capture(state: SessionState) -> Result<Self, HadasError> {
        let mut snapshot = EngineSnapshot { schema: SWAP_SNAPSHOT_SCHEMA, fingerprint: 0, state };
        snapshot.fingerprint = seal::fingerprint(&snapshot)?;
        Ok(snapshot)
    }

    /// Verifies the seal ([`seal::verify`]) and unwraps the session
    /// state for [`crate::ServeEngine::resume`].
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::Checkpoint`] on a schema or fingerprint
    /// mismatch — the snapshot is stale or corrupted and must not be
    /// restored.
    pub fn into_state(self) -> Result<SessionState, HadasError> {
        seal::verify(&self)?;
        Ok(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Request, SloClass};
    use hadas_runtime::Histogram;

    fn sample_state() -> SessionState {
        SessionState {
            now_s: 1.25,
            seq: 9,
            offered: 40,
            queued_interactive: vec![Request {
                id: 38,
                time_s: 1.2,
                difficulty: 0.4,
                class: SloClass::Interactive,
                deadline_s: 1.32,
            }],
            queued_bulk: vec![Request {
                id: 39,
                time_s: 1.21,
                difficulty: 0.9,
                class: SloClass::Bulk,
                deadline_s: 2.41,
            }],
            worker_free_s: vec![1.19, 1.3],
            shed: 1,
            rejected: 2,
            current_mode: 1,
            next_control_s: 1.5,
            mode_switches: 3,
            switch_energy_j: 0.6,
            throttled_windows: 1,
            window_degraded: false,
            degraded_batches: 0,
            makespan_s: 1.3,
            brownout: None,
            win_latencies_ms: vec![12.0, 48.5],
            win_completed: 2,
            win_violations: 1,
            health: Vec::new(),
            served: 35,
            correct: 30,
            energy_j: 51.5,
            sag_energy_j: 0.0,
            batches: 8,
            latencies: Histogram::from_samples(vec![10.0, 20.0, 30.0]),
            violations: 4,
            interactive_served: 20,
            interactive_violations: 3,
            bulk_served: 15,
            bulk_violations: 1,
            exit_counts: vec![10, 25],
            mode_occupancy: vec![12, 23],
            per_worker_served: vec![18, 17],
            dead_lettered: 0,
            windows_opened: 2,
            last_emitted: None,
            telemetry_defects: Default::default(),
            latency_sum_ms: 60.0,
        }
    }

    #[test]
    fn capture_validate_and_into_state_round_trip() {
        let state = sample_state();
        let snapshot = EngineSnapshot::capture(state.clone()).expect("states serialize");
        assert_eq!(snapshot.schema, SWAP_SNAPSHOT_SCHEMA);
        seal::verify(&snapshot).expect("a fresh capture validates");
        assert_eq!(snapshot.clone().into_state().expect("valid snapshots unwrap"), state);
    }

    #[test]
    fn tampered_or_stale_snapshots_are_refused() {
        let mut snapshot = EngineSnapshot::capture(sample_state()).expect("states serialize");
        snapshot.state.served += 1;
        let err = snapshot.into_state().expect_err("a mutated state must be refused");
        assert!(err.to_string().contains("fingerprint"), "{err}");

        let mut stale = EngineSnapshot::capture(sample_state()).expect("states serialize");
        stale.schema += 1;
        let err = stale.into_state().expect_err("a stale schema must be refused");
        assert!(err.to_string().contains("schema"), "{err}");
    }
}
