//! Runs the five scaling studies — serving, search, fleet, live
//! reconfiguration and gray-failure resilience — over one searched plane
//! per hardware target, computed once (see `hadas_bench::studies`).
//!
//! `HADAS_SCALE=quick|mid|paper` picks the budget and `HADAS_RESULTS_DIR`
//! the output directory (default `results/`).

use hadas_bench::{bench_env, studies};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    studies::write_studies(&bench_env!())?;
    Ok(())
}
