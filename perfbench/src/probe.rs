//! Measurement plumbing shared by the workloads: wall-clock timing,
//! medians, peak memory, the result record with its correctness checks,
//! and the run stamp.

use crate::catalogue::{self, Kind, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Runs `f` and returns its value with the elapsed wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The fastest of a set of call walls. Repeated calls do identical work,
/// so the fastest is the one least disturbed by other load on the host;
/// on a shared two-core host it varies far less from run to run than the
/// median does.
pub fn fastest(walls: &[f64]) -> f64 {
    walls.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Repeats `f` `reps` times and returns the last value with the fastest
/// wall time in seconds.
pub fn fastest_timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (value, s) = timed(&mut f);
        times.push(s);
        last = Some(value);
    }
    (last.expect("at least one repetition"), fastest(&times))
}

/// Like [`fastest_timed`] for calls too short to time one at a time: the
/// fastest over `blocks` of the mean wall time of `per_block` calls.
pub fn fastest_block_timed<T>(
    blocks: usize,
    per_block: usize,
    mut f: impl FnMut() -> T,
) -> (T, f64) {
    let per_block = per_block.max(1);
    let (last, block_s) = fastest_timed(blocks, || {
        let mut last = None;
        for _ in 0..per_block {
            last = Some(std::hint::black_box(f()));
        }
        last.expect("at least one call per block")
    });
    (last, block_s / per_block as f64)
}

/// Decides whether a timed loop starts another iteration: always until
/// `min_iters` are done, then only while the next one (predicted at the
/// median so far) still ends inside the `seconds` window.
pub fn another_round(started: Instant, walls: &[f64], min_iters: usize, seconds: f64) -> bool {
    if walls.len() < min_iters {
        return true;
    }
    started.elapsed().as_secs_f64() + median(walls) <= seconds
}

/// Prints the spread of a timed loop's call walls to stderr.
pub fn log_walls(walls: &[f64]) {
    let mut v = walls.to_vec();
    v.sort_by(f64::total_cmp);
    eprintln!(
        "perfbench: {} timed calls, wall min {:.4} s, median {:.4} s, max {:.4} s",
        v.len(),
        v.first().copied().unwrap_or(f64::NAN),
        median(&v),
        v.last().copied().unwrap_or(f64::NAN)
    );
}

/// Peak resident set size of this process in MB (`VmHWM`), or NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What one workload run measured.
#[derive(Debug)]
pub struct Record {
    workload: Workload,
    /// Operations attempted in the measured calls.
    pub attempted: u64,
    /// Operations the program reported as failed; failed checks are added
    /// when the record is printed.
    pub failed: u64,
    /// The checks that failed.
    failures: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    /// Digest of the run's output (front digest, report fingerprint or
    /// train report), printed so that runs can be compared.
    pub digest: Option<u64>,
}

impl Record {
    /// An empty record for `workload`.
    pub fn new(workload: Workload) -> Self {
        Record {
            workload,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            values: BTreeMap::new(),
            digest: None,
        }
    }

    /// A correctness check: unless `ok`, records `what` as failed, which
    /// counts as one failed operation and makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Sets metric `name`, which must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(catalogue::lookup(name).is_some(), "metric {name} is not in the catalogue");
        self.values.insert(name, value);
    }

    /// Sets a count metric.
    pub fn count(&mut self, name: &'static str, value: usize) {
        self.set(name, value as f64);
    }

    /// The JSON object of the metrics of `kinds`, in catalogue order. A
    /// metric this workload measures must be set, finite and, if
    /// end-to-end, non-zero. One it does not measure reports 0 in the
    /// result object and is left out of the `named` line, which also
    /// carries each metric's direction.
    fn metrics_json(&mut self, kinds: &[Kind], named_line: bool) -> String {
        let mut parts = Vec::new();
        for m in catalogue::CATALOGUE.iter().filter(|m| kinds.contains(&m.kind)) {
            let measured = m.workloads.contains(&self.workload);
            if named_line && !measured {
                continue;
            }
            let mut value = 0.0;
            if measured {
                let v = self.values.get(m.name).copied().unwrap_or(f64::NAN);
                let nonzero = m.kind != Kind::EndToEnd || v != 0.0;
                self.check(v.is_finite() && nonzero, || {
                    format!("metric {} was not measured (value {v})", m.name)
                });
                if v.is_finite() {
                    value = v;
                }
            }
            let better =
                if named_line { format!(", \"better\": \"{}\"", m.better) } else { String::new() };
            parts.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"{better}}}",
                m.name, m.unit
            ));
        }
        format!("{{{}}}", parts.join(", "))
    }

    /// Prints the run's output: the `named` line of an untraced run, failed
    /// checks on stderr, and the result object as the last stdout line.
    /// Returns whether every check passed.
    pub fn emit(mut self, traced: bool) -> bool {
        let result_kinds: &[Kind] =
            if traced { &[Kind::Named, Kind::Layer] } else { &[Kind::EndToEnd] };
        if !traced {
            println!("named {}", self.metrics_json(&[Kind::Named], true));
        }
        if let Some(d) = self.digest {
            println!("digest {d:016x}");
        }
        let metrics = self.metrics_json(result_kinds, false);
        for f in &self.failures {
            eprintln!("perfbench: check failed: {f}");
        }
        let correct = self.failures.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            self.attempted.max(1),
            self.failed + self.failures.len() as u64
        );
        correct
    }
}

/// The run stamp: host, toolchain, profile and commit, so numbers
/// from different machines or builds are never compared.
pub fn stamp(workload: &str, seed: u64, seconds: u64, traced: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut out = String::new();
    // Writing to a String cannot fail.
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {}, \"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"profile\": \"{}\", \
         \"commit\": \"{}\"}}",
        u8::from(traced),
        json_string(&cpu),
        json_string(env!("PERFBENCH_RUSTC")),
        env!("PERFBENCH_PROFILE"),
        git_commit().unwrap_or_else(|| "unknown".into())
    );
    out
}

/// A JSON string literal.
fn json_string(s: &str) -> String {
    serde_json::to_string(s).unwrap_or_else(|_| "\"unknown\"".into())
}

/// The checked-out commit, read from `.git` in the working directory
/// (without running git, and without looking above the checkout).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn unmeasured_metrics_fail_the_checks() {
        let mut r = Record::new(Workload::Train);
        r.set("setup_s", 0.5);
        let json = r.metrics_json(&[Kind::EndToEnd], false);
        assert!(json.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert_eq!(r.failures.len(), 1, "throughput was never set");
    }
}
