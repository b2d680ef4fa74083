//! # hadas-bench
//!
//! The experiment harness of the HADAS reproduction. Two drivers under
//! `src/bin/` write JSON records: `paper` regenerates every table and
//! figure of the paper from one joint search per hardware target
//! ([`paper`]), and `studies` runs the serving, search, fleet,
//! reconfiguration and gray-failure scaling studies over one searched
//! plane per target ([`studies`]). The `probe_headroom` diagnostic only
//! prints. Criterion micro- and end-to-end benches live in `benches/`.
//!
//! Both drivers
//!
//! 1. run at a *scaled* budget by default so the whole suite finishes in
//!    minutes — set `HADAS_SCALE=paper` for the paper's 450/3500-iteration
//!    budgets,
//! 2. print their tables to stdout in the paper's layout, and
//! 3. write JSON records with the `hadas-bench/1` header under
//!    `results/` for external re-plotting.

pub mod paper;
pub mod studies;
pub mod svg;

use hadas::{seal, HadasConfig};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::path::PathBuf;

/// Schema tag stamped on every record under `results/` (see
/// [`BenchEnv::write_bench`]). Bump when the header shape changes.
pub const BENCH_SCHEMA: &str = "hadas-bench/1";

/// The shared header every record carries, so rows from the paper
/// views and the `BENCH_*` studies are mergeable:
/// a consumer can join on `(schema, bench, scale, seed)` without
/// guessing which harness settings produced a file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord<T> {
    /// The header schema tag ([`BENCH_SCHEMA`]).
    pub schema: String,
    /// Bench name (the record's file stem).
    pub bench: String,
    /// The `HADAS_SCALE` tier the run resolved to.
    pub scale: String,
    /// The bench's base seed echo.
    pub seed: u64,
    /// The payload rows.
    pub rows: T,
}

/// Ambient inputs for a bench binary, read once at the `main` boundary.
///
/// The library itself never touches the process environment (the
/// determinism audit's `ambient-env` lint forbids it): binaries read
/// `HADAS_SCALE` / `HADAS_RESULTS_DIR` — usually via [`bench_env!`] —
/// and hand the values in, so library behaviour is a pure function of
/// this struct.
#[derive(Debug, Clone, Default)]
pub struct BenchEnv {
    scale: Tier,
    results_override: Option<PathBuf>,
}

/// A `HADAS_SCALE` tier.
#[derive(Debug, Clone, Copy, Default)]
enum Tier {
    #[default]
    Quick,
    Mid,
    Paper,
}

impl BenchEnv {
    /// Packs ambient values read by the caller: the `HADAS_SCALE` tier
    /// (`quick` default | `mid` | `paper`) and an optional
    /// `HADAS_RESULTS_DIR` override.
    ///
    /// # Errors
    ///
    /// Any other scale name, in the words the `hadas` CLI uses for an
    /// unknown `--scale`, so a mistyped tier never runs as quick.
    pub fn new(
        scale: Option<String>,
        results_override: Option<PathBuf>,
    ) -> Result<BenchEnv, String> {
        let scale = match scale.as_deref() {
            None | Some("quick") => Tier::Quick,
            Some("mid") => Tier::Mid,
            Some("paper") => Tier::Paper,
            Some(other) => {
                return Err(format!("unknown scale '{other}' (expected quick, mid, or paper)"))
            }
        };
        Ok(BenchEnv { scale, results_override })
    }

    /// The experiment configuration for the selected scale tier.
    pub fn scaled_config(&self) -> HadasConfig {
        self.by_tier(HadasConfig::quick(), HadasConfig::mid(), HadasConfig::paper())
    }

    /// The value for the selected scale tier: `quick`, `mid` or `paper`.
    pub fn by_tier<T>(&self, quick: T, mid: T, paper: T) -> T {
        match self.scale {
            Tier::Quick => quick,
            Tier::Mid => mid,
            Tier::Paper => paper,
        }
    }

    /// The scale tier this environment resolves to (`quick` | `mid` |
    /// `paper`) — the normalized echo stamped into bench headers.
    pub fn scale_name(&self) -> &'static str {
        self.by_tier("quick", "mid", "paper")
    }

    /// The directory experiment JSON lands in (`results/` at the
    /// workspace root unless overridden).
    pub fn results_dir(&self) -> PathBuf {
        // The binaries run from the workspace root under `cargo run`.
        self.results_override.clone().unwrap_or_else(|| PathBuf::from("results"))
    }

    /// Writes a record as `<name>.json` under [`BenchEnv::results_dir`] with
    /// the shared schema header ([`BenchRecord`]): `schema`, the bench
    /// name, the resolved scale tier, and the base seed.
    ///
    /// # Errors
    ///
    /// Returns I/O or serialisation failures for the caller's `main` to
    /// surface — the benches fail loudly instead of dropping results.
    pub fn write_bench<T: Serialize>(
        &self,
        name: &str,
        seed: u64,
        rows: &T,
    ) -> Result<PathBuf, Box<dyn Error>> {
        let record = BenchRecord {
            schema: BENCH_SCHEMA.to_string(),
            bench: name.to_string(),
            scale: self.scale_name().to_string(),
            seed,
            rows,
        };
        let path = self.results_dir().join(format!("{name}.json"));
        seal::write_atomic(&path, serde_json::to_string_pretty(&record)?.as_bytes())?;
        println!("[results] wrote {}", path.display());
        Ok(path)
    }
}

/// Builds a [`BenchEnv`] by reading `HADAS_SCALE` and
/// `HADAS_RESULTS_DIR` **at the expansion site** — intended for bench
/// binaries' `main`, which is the sanctioned ambient boundary. The env
/// reads expand into the binary, not this library. An unknown
/// `HADAS_SCALE` prints `error: unknown scale …` and exits with status
/// 2, as the CLI does for a bad `--scale`, before any search runs.
#[macro_export]
macro_rules! bench_env {
    () => {
        match $crate::BenchEnv::new(
            ::std::env::var("HADAS_SCALE").ok(),
            ::std::env::var("HADAS_RESULTS_DIR").ok().map(::std::path::PathBuf::from),
        ) {
            Ok(env) => env,
            Err(e) => {
                eprintln!("error: {e}");
                ::std::process::exit(2)
            }
        }
    };
}

/// The non-dominated points of `axes` (maximised), in input order.
pub fn front_points(axes: &[Vec<f64>]) -> Vec<Vec<f64>> {
    hadas_evo::pareto_indices(axes).into_iter().map(|i| axes[i].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_is_small() {
        let cfg = BenchEnv::default().scaled_config();
        assert!(cfg.ooe.iterations <= 100);
        assert!(cfg.ioe.iterations <= 200);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn scale_tiers_and_results_override_are_pure() -> Result<(), String> {
        let paper = BenchEnv::new(Some("paper".into()), None)?.scaled_config();
        assert!(paper.ooe.iterations > BenchEnv::default().scaled_config().ooe.iterations);
        let env = BenchEnv::new(None, Some(PathBuf::from("elsewhere")))?;
        assert_eq!(env.results_dir(), PathBuf::from("elsewhere"));
        assert_eq!(BenchEnv::default().results_dir(), PathBuf::from("results"));
        Ok(())
    }

    #[test]
    fn every_known_scale_resolves_and_an_unknown_one_is_refused() -> Result<(), String> {
        for (scale, name, cfg, tier) in [
            (None, "quick", HadasConfig::quick(), 0),
            (Some("quick"), "quick", HadasConfig::quick(), 0),
            (Some("mid"), "mid", HadasConfig::mid(), 1),
            (Some("paper"), "paper", HadasConfig::paper(), 2),
        ] {
            let env = BenchEnv::new(scale.map(str::to_string), None)?;
            assert_eq!(env.scale_name(), name);
            assert_eq!(env.scaled_config(), cfg);
            assert_eq!(env.by_tier(0, 1, 2), tier);
        }
        for bad in ["papr", "", "Paper", "quick "] {
            assert_eq!(
                BenchEnv::new(Some(bad.to_string()), None).err(),
                Some(format!("unknown scale '{bad}' (expected quick, mid, or paper)"))
            );
        }
        Ok(())
    }
}
