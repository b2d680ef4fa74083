//! The five scaling studies (serve, search, fleet, reconfig, gray) as
//! views over one searched plane per hardware target.
//!
//! [`write_studies`] builds the seed-7 planes once ([`build_planes`]),
//! runs each study in order and writes its `BENCH_*` record with the
//! `hadas-bench/1` header ([`crate::BenchRecord`]). Each study prints its
//! table, asserts its contracts and returns its rows. The search study
//! runs its own searches, since each row reports that run's telemetry.

mod device;
mod fleet;

use crate::BenchEnv;
use hadas::{ExecTelemetry, RetryPolicy};
use hadas_fleet::{
    build_planes, parse_device_spec, DevicePlane, FleetConfig, FleetEngine, FleetReport,
};
use hadas_hw::HwTarget;
use hadas_runtime::FaultConfig;
use std::error::Error;
use std::path::PathBuf;

/// The seed of every search, workload and fault stream of the studies.
const SEED: u64 = 7;

/// Builds the planes, runs every study in order and writes each record
/// under [`BenchEnv::results_dir`], stamped with [`SEED`]. Returns the
/// paths of the records.
///
/// # Errors
///
/// Returns the first search, serve, fleet or write error.
pub fn write_studies(env: &BenchEnv) -> Result<Vec<PathBuf>, Box<dyn Error>> {
    let cfg = env.scaled_config().with_seed(SEED);
    let planes = build_planes(&HwTarget::ALL, &cfg)?;
    // 10⁵ simulated users at the quick tier, 10⁶ at the paper tier.
    let (users, rps) = env.by_tier((100_000, 4_000.0), (300_000, 12_000.0), (1_000_000, 40_000.0));
    let drift = env.by_tier(
        Load { users: 10_000, rps: 400.0, devices: 16 },
        Load { users: 60_000, rps: 2_400.0, devices: 24 },
        Load { users: 200_000, rps: 8_000.0, devices: 32 },
    );
    Ok(vec![
        env.write_bench("BENCH_serve", SEED, &device::serve(&planes)?)?,
        env.write_bench("BENCH_search", SEED, &device::search(&cfg)?)?,
        env.write_bench("BENCH_fleet", SEED, &fleet::fleet(&planes, users, rps)?)?,
        env.write_bench("BENCH_reconfig", SEED, &fleet::reconfig(&planes, drift)?)?,
        env.write_bench("BENCH_gray", SEED, &fleet::gray(&planes, drift)?)?,
    ])
}

/// A fleet study's offered load: `users` simulated users arriving at
/// `rps` across `devices` mixed devices.
#[derive(Debug, Clone, Copy)]
struct Load {
    users: usize,
    rps: f64,
    devices: usize,
}

impl Load {
    /// The studies' fleet for this load (`mixed:N`, seeded [`SEED`]) on
    /// `workers` fleet workers.
    fn fleet(self, workers: usize) -> Result<FleetConfig, Box<dyn Error>> {
        Ok(FleetConfig {
            devices: parse_device_spec(&format!("mixed:{}", self.devices))?,
            users: self.users,
            rps: self.rps,
            workers,
            seed: SEED,
            ..FleetConfig::default()
        })
    }
}

/// The determinism legs a fleet study re-checks at bench scale on one
/// configuration, against that configuration's own report.
struct Legs<'p> {
    planes: &'p [DevicePlane],
    config: FleetConfig,
    /// The reference report: `config` as given.
    base: FleetReport,
    base_json: String,
}

impl<'p> Legs<'p> {
    /// Runs the reference: `config`, on its own fleet worker count (the
    /// studies give one).
    fn new(planes: &'p [DevicePlane], config: FleetConfig) -> Result<Legs<'p>, Box<dyn Error>> {
        let base = FleetEngine::new(planes, config.clone())?.run()?.report;
        let base_json = base.to_json()?;
        Ok(Legs { planes, config, base, base_json })
    }

    /// Asserts that the report serializes to the reference's bytes at
    /// every fleet worker count in `workers`; `report` names it in the
    /// message.
    fn identical_at(&self, workers: &[usize], report: &str) -> Result<(), Box<dyn Error>> {
        for &n in workers {
            let run =
                FleetEngine::new(self.planes, FleetConfig { workers: n, ..self.config.clone() })?
                    .run()?;
            assert_eq!(
                run.report.to_json()?,
                self.base_json,
                "{report} must be byte-identical at {n} workers"
            );
        }
        Ok(())
    }

    /// Reruns on four fleet workers under unit chaos (crash 0.2,
    /// transient 0.1, six attempts) and asserts that the retry budget
    /// heals every `job` with no dead letter, that the report equals the
    /// reference (`invisible` otherwise) and that faults were injected.
    /// Returns the chaotic run's supervisor counters.
    fn healed_chaos(&self, job: &str, invisible: &str) -> Result<ExecTelemetry, Box<dyn Error>> {
        let chaotic = FleetConfig {
            chaos: Some(FaultConfig {
                crash_rate: 0.2,
                transient_rate: 0.1,
                ..FaultConfig::worker_chaos(SEED)
            }),
            retry: RetryPolicy { max_attempts: 6, ..RetryPolicy::default() },
            workers: 4,
            ..self.config.clone()
        };
        let chaotic = FleetEngine::new(self.planes, chaotic)?.run()?;
        assert_eq!(chaotic.report.dead_lettered, 0, "the retry budget must heal every {job}");
        assert_eq!(chaotic.report.to_json()?, self.base_json, "{invisible}");
        assert!(
            chaotic.telemetry.crashes + chaotic.telemetry.retries > 0,
            "the chaos leg must actually inject {job} faults"
        );
        Ok(chaotic.telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn every_study_regenerates_its_committed_record_byte_for_byte() -> Result<(), Box<dyn Error>> {
        let dir = std::env::temp_dir().join(format!("hadas-studies-{}", std::process::id()));
        let env = BenchEnv::new(None, Some(dir.clone()))?;
        let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let paths = write_studies(&env)?;
        let names: Vec<_> = paths.iter().filter_map(|p| p.file_name()?.to_str()).collect();
        assert_eq!(
            names,
            [
                "BENCH_serve.json",
                "BENCH_search.json",
                "BENCH_fleet.json",
                "BENCH_reconfig.json",
                "BENCH_gray.json"
            ]
        );
        for (path, name) in paths.iter().zip(names) {
            assert!(
                std::fs::read(path)? == std::fs::read(committed.join(name))?,
                "{name} no longer matches the committed results/{name}"
            );
        }
        std::fs::remove_dir_all(&dir)?;
        Ok(())
    }
}
