//! Regenerates every table and figure of the paper: one joint search per
//! hardware target plus its seven optimized baselines, computed once, and
//! every record read off those runs (see `hadas_bench::paper`).
//!
//! `HADAS_SCALE=quick|mid|paper` picks the budget and `HADAS_RESULTS_DIR`
//! the output directory (default `results/`).

use hadas_bench::bench_env;
use hadas_bench::paper::{self, PaperRun};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = bench_env!();
    let runs = PaperRun::all(&env.scaled_config())?;
    paper::write_views(&env, &runs)?;
    Ok(())
}
