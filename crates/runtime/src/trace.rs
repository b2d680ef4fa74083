use hadas_dataset::DifficultyDistribution;
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A difficulty regime the workload can be in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Regime {
    /// Mostly easy inputs (e.g. daylight, static scenes).
    Easy,
    /// The nominal mixed distribution.
    Mixed,
    /// Mostly hard inputs (e.g. night, motion blur).
    Hard,
}

impl Regime {
    /// The difficulty distribution of this regime.
    pub fn difficulty(&self) -> DifficultyDistribution {
        match self {
            // Validated constants; construction cannot fail, and if the
            // validation rules ever tighten, degrading to the nominal
            // mixed distribution beats panicking mid-simulation.
            Regime::Easy => DifficultyDistribution::new(1.4, 4.5).unwrap_or_default(),
            Regime::Mixed => DifficultyDistribution::default(),
            Regime::Hard => DifficultyDistribution::new(2.6, 1.4).unwrap_or_default(),
        }
    }
}

/// Configuration of a workload trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Trace duration in seconds.
    pub duration_s: f64,
    /// Mean arrival rate in inferences per second.
    pub rate_hz: f64,
    /// Regime schedule: `(start fraction of the trace, regime)` pairs in
    /// ascending order; the first entry should start at 0.
    pub schedule: Vec<(f64, Regime)>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            duration_s: 120.0,
            rate_hz: 15.0,
            schedule: vec![(0.0, Regime::Easy), (0.35, Regime::Mixed), (0.7, Regime::Hard)],
        }
    }
}

/// One input arrival.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Arrival {
    /// Arrival time in seconds from trace start.
    pub time_s: f64,
    /// The sample's latent difficulty.
    pub difficulty: f64,
    /// The regime that generated it.
    pub regime: Regime,
}

/// A generated arrival stream.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadTrace {
    config: TraceConfig,
    arrivals: Vec<Arrival>,
}

impl WorkloadTrace {
    /// Generates a trace deterministically from `seed`: Poisson-ish
    /// arrivals (exponential gaps) whose difficulties follow the scheduled
    /// regime at each arrival time.
    pub fn generate(config: &TraceConfig, seed: u64) -> Self {
        Self::generate_modulated(config, seed, |_| 1.0)
    }

    /// Generates a trace whose instantaneous arrival rate is
    /// `rate_hz × rate_multiplier(t)` — the hook workload-burst fault
    /// episodes plug into (see `FaultInjector::rate_multiplier_at`).
    /// Multipliers at or below zero are treated as a quiet (but not
    /// silent) stream so generation always terminates. The arrivals are
    /// exactly those of [`ArrivalStream`] over the same inputs.
    pub fn generate_modulated(
        config: &TraceConfig,
        seed: u64,
        rate_multiplier: impl Fn(f64) -> f64,
    ) -> Self {
        let arrivals = ArrivalStream::new(config, seed, rate_multiplier).collect();
        WorkloadTrace { config: config.clone(), arrivals }
    }

    /// The generating configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// The arrival stream, in time order.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the trace has no arrivals.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }
}

/// The arrival generator as an iterator: yields, one at a time and in
/// time order, the arrivals [`WorkloadTrace::generate_modulated`] collects
/// — the same draws in the same order, so a consumer can take the stream
/// in pieces (one serving epoch at a time) without materialising it.
#[derive(Debug, Clone)]
pub struct ArrivalStream<F> {
    config: TraceConfig,
    rng: StdRng,
    t: f64,
    rate_multiplier: F,
}

impl<F: Fn(f64) -> f64> ArrivalStream<F> {
    /// The stream of `config` from `seed`, its instantaneous rate
    /// modulated by `rate_multiplier` (see
    /// [`WorkloadTrace::generate_modulated`]).
    pub fn new(config: &TraceConfig, seed: u64, rate_multiplier: F) -> Self {
        ArrivalStream {
            config: config.clone(),
            rng: StdRng::seed_from_u64(seed),
            t: 0.0,
            rate_multiplier,
        }
    }

    fn regime_at(&self, t: f64) -> Regime {
        let frac = t / self.config.duration_s;
        let mut current = self.config.schedule.first().map(|&(_, r)| r).unwrap_or(Regime::Mixed);
        for &(start, regime) in &self.config.schedule {
            if frac >= start {
                current = regime;
            }
        }
        current
    }
}

impl<F: Fn(f64) -> f64> Iterator for ArrivalStream<F> {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        // Past the horizon (or with a NaN one) the stream is exhausted
        // and draws nothing more.
        let live = self.t < self.config.duration_s;
        if !live {
            return None;
        }
        let rate = self.config.rate_hz.max(1e-9) * (self.rate_multiplier)(self.t).max(1e-3);
        let gap = -(1.0 - self.rng.gen_range(0.0..1.0f64)).ln() / rate;
        self.t += gap;
        if self.t >= self.config.duration_s {
            return None;
        }
        let regime = self.regime_at(self.t);
        let difficulty = regime.difficulty().sample(&mut self.rng);
        Some(Arrival { time_s: self.t, difficulty, regime })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_respects_duration_and_rate() {
        let cfg = TraceConfig::default();
        let trace = WorkloadTrace::generate(&cfg, 3);
        assert!(!trace.is_empty());
        assert!(trace.arrivals().iter().all(|a| a.time_s < cfg.duration_s));
        // Expected ~1800 arrivals; allow wide Poisson slack.
        let expected = cfg.duration_s * cfg.rate_hz;
        assert!((trace.len() as f64) > expected * 0.8);
        assert!((trace.len() as f64) < expected * 1.2);
    }

    #[test]
    fn arrivals_are_time_ordered() {
        let trace = WorkloadTrace::generate(&TraceConfig::default(), 5);
        assert!(trace.arrivals().windows(2).all(|w| w[1].time_s >= w[0].time_s));
    }

    #[test]
    fn regimes_follow_the_schedule() {
        let cfg = TraceConfig::default();
        let trace = WorkloadTrace::generate(&cfg, 7);
        for a in trace.arrivals() {
            let frac = a.time_s / cfg.duration_s;
            let expected = if frac >= 0.7 {
                Regime::Hard
            } else if frac >= 0.35 {
                Regime::Mixed
            } else {
                Regime::Easy
            };
            assert_eq!(a.regime, expected, "at t={}", a.time_s);
        }
    }

    #[test]
    fn hard_regime_is_harder_on_average() {
        let trace = WorkloadTrace::generate(&TraceConfig::default(), 9);
        let mean = |r: Regime| {
            let v: Vec<f64> =
                trace.arrivals().iter().filter(|a| a.regime == r).map(|a| a.difficulty).collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        assert!(mean(Regime::Hard) > mean(Regime::Mixed));
        assert!(mean(Regime::Mixed) > mean(Regime::Easy));
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = TraceConfig::default();
        assert_eq!(WorkloadTrace::generate(&cfg, 1), WorkloadTrace::generate(&cfg, 1));
        assert_ne!(WorkloadTrace::generate(&cfg, 1), WorkloadTrace::generate(&cfg, 2));
    }

    #[test]
    fn bursts_pack_more_arrivals_into_their_window() {
        let cfg = TraceConfig::default(); // 120 s at 15 Hz
        let burst = |t: f64| if (40.0..80.0).contains(&t) { 4.0 } else { 1.0 };
        let trace = WorkloadTrace::generate_modulated(&cfg, 21, burst);
        let count = |lo: f64, hi: f64| {
            trace.arrivals().iter().filter(|a| a.time_s >= lo && a.time_s < hi).count()
        };
        let quiet = count(0.0, 40.0);
        let bursty = count(40.0, 80.0);
        assert!(bursty > 2 * quiet, "burst window must be markedly denser: {bursty} vs {quiet}");
        // Modulated generation stays deterministic.
        assert_eq!(trace, WorkloadTrace::generate_modulated(&cfg, 21, burst));
    }

    #[test]
    fn zero_or_negative_multipliers_still_terminate() {
        let cfg = TraceConfig { duration_s: 5.0, rate_hz: 10.0, ..Default::default() };
        let trace = WorkloadTrace::generate_modulated(&cfg, 3, |_| 0.0);
        assert!(trace.len() < 5, "a dead stream yields almost nothing");
        assert!(trace.arrivals().iter().all(|a| a.time_s < cfg.duration_s));
    }

    /// Reference: the batch generation loop, which the stream must
    /// reproduce draw for draw.
    fn reference(
        config: &TraceConfig,
        seed: u64,
        rate_multiplier: impl Fn(f64) -> f64,
    ) -> Vec<Arrival> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arrivals = Vec::new();
        let mut t = 0.0f64;
        while t < config.duration_s {
            let rate = config.rate_hz.max(1e-9) * rate_multiplier(t).max(1e-3);
            t += -(1.0 - rng.gen_range(0.0..1.0f64)).ln() / rate;
            if t >= config.duration_s {
                break;
            }
            let frac = t / config.duration_s;
            let mut regime = config.schedule[0].1;
            for &(start, r) in &config.schedule {
                if frac >= start {
                    regime = r;
                }
            }
            let difficulty = regime.difficulty().sample(&mut rng);
            arrivals.push(Arrival { time_s: t, difficulty, regime });
        }
        arrivals
    }

    #[test]
    fn arrival_stream_reproduces_the_batch_generator_under_fault_bursts() {
        let cfg = TraceConfig { duration_s: 60.0, rate_hz: 40.0, ..TraceConfig::default() };
        let faults = crate::FaultInjector::new(crate::FaultConfig {
            horizon_s: 60.0,
            burst_episodes: 3,
            burst_multiplier: 4.0,
            ..crate::FaultConfig::chaos(17)
        })
        .unwrap();
        let burst = |t: f64| faults.rate_multiplier_at(t);
        assert!((0..600).any(|k| burst(k as f64 * 0.1) > 1.0), "the episodes must modulate");
        let streamed: Vec<Arrival> = ArrivalStream::new(&cfg, 17, burst).collect();
        assert_eq!(streamed, reference(&cfg, 17, burst));
        assert_eq!(streamed, WorkloadTrace::generate_modulated(&cfg, 17, burst).arrivals());
        let mut stream = ArrivalStream::new(&cfg, 17, burst);
        stream.by_ref().for_each(drop);
        assert_eq!(stream.next(), None, "an exhausted stream stays exhausted");
    }
}
