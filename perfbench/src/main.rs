//! `perfbench` — wall-clock benchmark of the HADAS search, fleet and
//! training planes.
//!
//! ```text
//! perfbench --workload <search|fleet-steady|fleet-drift|train|all>
//!           --seed N --seconds S --trace 0|1
//! perfbench --catalogue
//! ```
//!
//! An untraced run is split over [`PARTS`] child processes of this
//! program, run one after another, each with set-up and then an equal
//! share of `--seconds` of timed calls (whole calls only), with
//! correctness checks on every call. Standard output carries a `stamp`
//! line (host, toolchain, commit), a `named` line with the workload's own
//! end-to-end figures, a `digests` line with each part's output digest,
//! and as its last line one JSON result object `{"correct", "attempted",
//! "failed", "metrics"}`. `--trace 1` runs the traced run, which measures
//! each layer from outside, in this process. `--workload all` runs every
//! workload as a child process and prints one table of their figures. The
//! exit code is 0 only when every check passed.

mod catalogue;
mod fleet;
mod probe;
mod search;
mod train;

use catalogue::{Kind, Workload};
use serde_json::Value;
use std::error::Error;
use std::process::{Command, ExitCode, Stdio};

/// Processes an untraced run is split over. On a shared host, timings
/// differ from one process to the next (heap layout, CPU placement) as
/// well as over time, so a run reports the median part's throughput (the
/// fastest part's for `train`), the fastest part's set-up and the largest
/// part's peak memory.
pub const PARTS: usize = 4;

const USAGE: &str = "usage: perfbench --workload <search|fleet-steady|fleet-drift|train|all> \
                     --seed N --seconds S --trace 0|1\n       perfbench --catalogue";

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in the child processes of an untraced run.
    part: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut part = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("bad {flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--part" => {
                part = Some(number()? as usize).filter(|&p| p < PARTS);
                if part.is_none() {
                    return Err(format!("--part must be below {PARTS}"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && Workload::parse(&workload).is_none() {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        part,
    })
}

/// What a child process printed.
struct Child {
    /// Whether it exited with code 0.
    ok: bool,
    /// Its `named` figures (an empty object for a traced run).
    named: Value,
    /// Its result object.
    result: Value,
    /// Its `digest` line, if it printed one.
    digest: Option<String>,
}

/// Runs `exe` on `workload` with the run's seed, `seconds` and trace flag
/// plus `extra` arguments, and parses its output.
fn run_child(
    exe: &std::path::Path,
    workload: Workload,
    args: &Args,
    seconds: u64,
    extra: &[String],
) -> Result<Child, Box<dyn Error>> {
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(extra)
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8(out.stdout)?;
    let last =
        stdout.lines().last().ok_or_else(|| format!("{} printed nothing", workload.name()))?;
    let result: Value = serde_json::from_str(last)?;
    let named = match stdout.lines().find_map(|l| l.strip_prefix("named ")) {
        Some(n) => serde_json::from_str(n)?,
        None => Value::Object(Vec::new()),
    };
    let digest = stdout.lines().find_map(|l| l.strip_prefix("digest ")).map(str::to_string);
    Ok(Child { ok: out.status.success(), named, result, digest })
}

fn run_one(workload: Workload, args: &Args) -> Result<bool, Box<dyn Error>> {
    println!("stamp {}", probe::stamp(workload.name(), args.seed, args.seconds, args.trace));
    if !args.trace && args.part.is_none() {
        return run_parts(workload, args);
    }
    let seconds = args.seconds as f64;
    let part = args.part.unwrap_or(0);
    let record = match workload {
        Workload::Search => search::run(args.seed, part, seconds, args.trace)?,
        Workload::FleetSteady | Workload::FleetDrift => {
            fleet::run(workload, args.seed, seconds, args.trace)?
        }
        Workload::Train => train::run(args.seed, seconds, args.trace)?,
    };
    Ok(record.emit(args.trace))
}

/// An untraced run: [`PARTS`] child processes one after another, combined
/// into one result. Counts add up; `setup_s` is the fastest part's,
/// throughputs the fastest part's for `train` (the run's fastest call) and
/// the median part's otherwise, `peak_rss_mb` the largest part's, and
/// modeled figures part 0's. Parts given the same input must print the
/// same digest.
fn run_parts(workload: Workload, args: &Args) -> Result<bool, Box<dyn Error>> {
    let exe = std::env::current_exe()?;
    let seconds = args.seconds.div_ceil(PARTS as u64);
    let mut rec = probe::Record::new(workload);
    let mut parts = Vec::with_capacity(PARTS);
    let mut digests = Vec::with_capacity(PARTS);
    for part in 0..PARTS {
        let extra = ["--part".to_string(), part.to_string()];
        let Child { named, result, digest, .. } = run_child(&exe, workload, args, seconds, &extra)?;
        let count = |k: &str| result.get(k).and_then(Value::as_u64).unwrap_or(0);
        rec.attempted += count("attempted");
        rec.failed += count("failed");
        let correct = matches!(result.get("correct"), Some(Value::Bool(true)));
        rec.check(correct, || format!("part {part} failed its checks"));
        digests.push(digest.unwrap_or_default());
        parts.push((named, result));
    }
    let input = |part| match workload {
        Workload::Search => search::sub_seed(args.seed, part),
        _ => args.seed,
    };
    for (part, mine) in digests.iter().enumerate() {
        let first = (0..part).find(|&p| input(p) == input(part)).unwrap_or(part);
        let theirs = &digests[first];
        rec.check(!mine.is_empty() && mine == theirs, || {
            format!("part {part} printed digest {mine:?}, part {first} {theirs:?}, on one input")
        });
    }
    println!("digests {}", digests.join(" "));
    // A train call runs on one core, so the run's fastest call is a
    // training run on the least-disturbed core. Search parts search
    // different seeds and fleet calls keep both cores busy; for them the
    // median part varies less between runs.
    let run_fastest = workload == Workload::Train;
    let largest = |values: &[f64]| values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for m in catalogue::CATALOGUE
        .iter()
        .filter(|m| m.kind != Kind::Layer && m.workloads.contains(&workload))
    {
        let values: Vec<f64> = parts
            .iter()
            .filter_map(|(named, result)| {
                let table =
                    if m.kind == Kind::EndToEnd { result.get("metrics") } else { Some(named) };
                table?.get(m.name)?.get("value")?.as_f64()
            })
            .collect();
        if values.len() < PARTS {
            continue;
        }
        let combined = match m.name {
            "setup_s" => probe::fastest(&values),
            "peak_rss_mb" => largest(&values),
            _ if m.unit == "1/s" && run_fastest => largest(&values),
            _ if m.unit == "1/s" => probe::median(&values),
            _ => values[0],
        };
        rec.set(m.name, combined);
    }
    Ok(rec.emit(false))
}

/// Runs every workload as a child process and prints their end-to-end
/// and named figures (untraced) or named and per-layer figures (traced) as
/// one table.
fn run_all(args: &Args) -> Result<bool, Box<dyn Error>> {
    let exe = std::env::current_exe()?;
    let mut all_ok = true;
    println!("{:<14} {:<34} {:>16} {:<8} {:<7}", "workload", "metric", "value", "unit", "better");
    for w in Workload::ALL {
        let Child { ok, named, result, .. } = run_child(&exe, w, args, args.seconds, &[])?;
        for table in [result.get("metrics"), Some(&named)].into_iter().flatten() {
            for (name, v) in table.as_object().unwrap_or(&[]) {
                let better = catalogue::lookup(name).map_or("", |m| m.better);
                let value = v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                let unit = v.get("unit").and_then(Value::as_str).unwrap_or("");
                let shown = if value.abs() >= 0.01 {
                    format!("{value:.4}")
                } else {
                    format!("{value:.4e}")
                };
                println!("{:<14} {name:<34} {shown:>16} {unit:<8} {better:<7}", w.name());
            }
        }
        let correct = matches!(result.get("correct"), Some(Value::Bool(true)));
        let count = |k: &str| result.get(k).and_then(Value::as_u64).unwrap_or(0);
        println!(
            "{:<14} {:<34} {:>16} attempted, {} failed, correct {correct}",
            w.name(),
            "operations",
            count("attempted"),
            count("failed")
        );
        all_ok &= ok && correct;
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() == 1 && argv[0] == "--catalogue" {
        print!("{}", catalogue::markdown());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match Workload::parse(&args.workload) {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
