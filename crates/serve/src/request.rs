use crate::ServeConfig;
use hadas::HadasError;
use hadas_runtime::{ArrivalStream, FaultInjector, TraceConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::mpsc::{self, Receiver};
use std::thread::{self, JoinHandle};

/// Salt separating the SLO-class stream from the arrival stream so both
/// are independent draws from one seed.
const CLASS_SALT: u64 = 0x534c_4f5f_434c_4153; // "SLO_CLAS"

/// The service-level class of a request, deciding its deadline budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SloClass {
    /// Tight deadline: `slo_ms` after arrival.
    Interactive,
    /// Relaxed deadline: `slo_ms × bulk_slo_factor` after arrival.
    Bulk,
}

/// One admitted-or-sheddable inference request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Arrival index (stable across the run; ties broken by this).
    pub id: usize,
    /// Arrival time, seconds from stream start.
    pub time_s: f64,
    /// The sample's latent difficulty (drives early exits).
    pub difficulty: f64,
    /// The SLO class.
    pub class: SloClass,
    /// Absolute completion deadline, seconds from stream start.
    pub deadline_s: f64,
}

impl Request {
    /// Deadline slack remaining at time `now` (negative once late).
    pub fn slack_s(&self, now: f64) -> f64 {
        self.deadline_s - now
    }
}

/// Generates the request stream for one serving run: Poisson-ish arrivals
/// with regime-scheduled difficulties (burst fault episodes and any
/// configured drift scenario modulate the instantaneous rate
/// multiplicatively; the scenario's demand shift additionally drifts
/// each sample's difficulty), each tagged with a seeded SLO class and
/// the absolute deadline its class implies. This is [`request_stream`]
/// collected.
pub fn generate_requests(config: &ServeConfig, faults: Option<&FaultInjector>) -> Vec<Request> {
    request_stream(config, faults).collect()
}

/// The request stream of [`generate_requests`], one request at a time:
/// an [`ArrivalStream`] plus the SLO-class draw (an independent stream
/// from the same seed) and the scenario's difficulty shift.
pub fn request_stream<'a>(
    config: &'a ServeConfig,
    faults: Option<&'a FaultInjector>,
) -> impl Iterator<Item = Request> + 'a {
    let trace_cfg = TraceConfig {
        duration_s: config.duration_s,
        rate_hz: config.rps,
        ..TraceConfig::default()
    };
    let scenario = config.scenario.as_ref();
    let arrivals = ArrivalStream::new(&trace_cfg, config.seed, move |t| {
        faults.map_or(1.0, |f| f.rate_multiplier_at(t))
            * scenario.map_or(1.0, |s| s.rate_multiplier_at(t))
    });
    let mut rng = StdRng::seed_from_u64(config.seed ^ CLASS_SALT);
    let slo_s = config.slo_ms * 1e-3;
    arrivals.enumerate().map(move |(id, a)| {
        let bulk = rng.gen_range(0.0..1.0f64) < config.bulk_fraction;
        let (class, budget) = if bulk {
            (SloClass::Bulk, slo_s * config.bulk_slo_factor)
        } else {
            (SloClass::Interactive, slo_s)
        };
        let shift = scenario.map_or(0.0, |s| s.difficulty_shift_at(a.time_s));
        Request {
            id,
            time_s: a.time_s,
            difficulty: (a.difficulty + shift).clamp(0.0, 1.0),
            class,
            deadline_s: a.time_s + budget,
        }
    })
}

/// One epoch's slice of the request stream, tagged with its epoch index
/// (the seq tag the consumer checks).
type EpochSlice = (usize, Vec<Request>);

/// The request stream of a serving run cut into `epochs` equal-length
/// time slices and generated one epoch ahead of its consumer, on a
/// producer thread of its own.
///
/// Slice `e < epochs - 1` holds every not-yet-fed request arriving before
/// `(e + 1) · duration_s / epochs`; the final slice holds the rest. The
/// slices concatenate to exactly [`generate_requests`] `(config, None)`.
/// The hand-over is a rendezvous: the producer builds slice `e + 1`
/// while the consumer works on slice `e`, then waits for the consumer
/// to ask for it, so at most one slice is ever held in advance.
///
/// Dropping the feed hangs up and joins the producer, which stops at its
/// next hand-over; an early return from the consumer's loop therefore
/// leaves no thread behind.
#[derive(Debug)]
pub struct EpochFeed {
    slices: Option<Receiver<EpochSlice>>,
    producer: Option<JoinHandle<usize>>,
}

impl EpochFeed {
    /// Starts the producer over `config`'s stream (no fault modulation)
    /// cut into `epochs` slices (at least one).
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::Internal`] if the producer thread cannot be
    /// started.
    pub fn start(config: ServeConfig, epochs: usize) -> Result<Self, HadasError> {
        let epochs = epochs.max(1);
        let (tx, rx) = mpsc::sync_channel::<EpochSlice>(0);
        let producer = thread::Builder::new().name("request-feed".into()).spawn(move || {
            let epoch_len = config.duration_s / epochs as f64;
            let mut stream = request_stream(&config, None).peekable();
            for seq in 0..epochs {
                let slice: Vec<Request> = if seq + 1 == epochs {
                    stream.by_ref().collect()
                } else {
                    let t_hi = (seq as f64 + 1.0) * epoch_len;
                    std::iter::from_fn(|| stream.next_if(|r| r.time_s < t_hi)).collect()
                };
                if tx.send((seq, slice)).is_err() {
                    // The consumer hung up: stop generating.
                    return seq;
                }
            }
            epochs
        });
        let producer = producer.map_err(|e| {
            HadasError::Internal(format!("request feed thread failed to start: {e}"))
        })?;
        Ok(EpochFeed { slices: Some(rx), producer: Some(producer) })
    }

    /// Takes epoch `epoch`'s slice, waiting for the producer if it is not
    /// ready yet. Slices must be taken in epoch order.
    ///
    /// # Errors
    ///
    /// Returns [`HadasError::Internal`] if the producer is gone (it
    /// delivered every slice already, or died) or hands over a slice
    /// tagged with another epoch.
    pub fn next_slice(&self, epoch: usize) -> Result<Vec<Request>, HadasError> {
        let received = self.slices.as_ref().and_then(|rx| rx.recv().ok());
        match received {
            Some((seq, slice)) if seq == epoch => Ok(slice),
            Some((seq, _)) => Err(HadasError::Internal(format!(
                "request feed handed over epoch {seq}'s slice when epoch {epoch} was due"
            ))),
            None => Err(HadasError::Internal(format!(
                "request feed hung up before epoch {epoch}'s slice"
            ))),
        }
    }

    /// Hangs up and joins the producer. Returns how many slices it
    /// delivered, or `None` if it was already joined or died.
    fn hang_up(&mut self) -> Option<usize> {
        self.slices = None;
        self.producer.take().and_then(|producer| producer.join().ok())
    }
}

impl Drop for EpochFeed {
    fn drop(&mut self) {
        self.hang_up();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_time_ordered() {
        let cfg = ServeConfig::default();
        let a = generate_requests(&cfg, None);
        let b = generate_requests(&cfg, None);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[1].time_s >= w[0].time_s));
        assert!(a.iter().enumerate().all(|(i, r)| r.id == i));
    }

    #[test]
    fn class_mix_follows_the_configured_fraction() {
        let cfg = ServeConfig { duration_s: 60.0, rps: 100.0, ..ServeConfig::default() };
        let reqs = generate_requests(&cfg, None);
        let bulk = reqs.iter().filter(|r| r.class == SloClass::Bulk).count();
        let frac = bulk as f64 / reqs.len() as f64;
        assert!((frac - cfg.bulk_fraction).abs() < 0.05, "bulk fraction {frac}");
        for r in &reqs {
            let budget = r.deadline_s - r.time_s;
            let expected = match r.class {
                SloClass::Interactive => cfg.slo_ms * 1e-3,
                SloClass::Bulk => cfg.slo_ms * 1e-3 * cfg.bulk_slo_factor,
            };
            assert!((budget - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn scenarios_modulate_rate_and_difficulty_deterministically() {
        let base = ServeConfig { duration_s: 120.0, rps: 50.0, ..ServeConfig::default() };
        let calm = generate_requests(&base, None);
        let drifted = ServeConfig {
            scenario: Some(
                hadas_runtime::Scenario::from_name("composite", base.seed, 120.0).unwrap(),
            ),
            ..base.clone()
        };
        let a = generate_requests(&drifted, None);
        let b = generate_requests(&drifted, None);
        assert_eq!(a, b, "scenario streams replay bit-identically");
        assert_ne!(
            a.len(),
            calm.len(),
            "a diurnal rate swing must reshape the arrival count ({} vs {})",
            a.len(),
            calm.len()
        );
        assert!(a.iter().all(|r| (0.0..=1.0).contains(&r.difficulty)), "shifts stay clamped");
    }

    #[test]
    fn burst_faults_densify_the_stream() {
        let cfg = ServeConfig { duration_s: 60.0, rps: 40.0, ..ServeConfig::default() };
        let calm = generate_requests(&cfg, None);
        let inj = FaultInjector::new(hadas_runtime::FaultConfig {
            horizon_s: 60.0,
            burst_episodes: 3,
            burst_multiplier: 4.0,
            ..hadas_runtime::FaultConfig::chaos(cfg.seed)
        })
        .unwrap();
        let bursty = generate_requests(&cfg, Some(&inj));
        assert!(bursty.len() > calm.len(), "{} vs {}", bursty.len(), calm.len());
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(32))]

        /// The feed's epoch slices, concatenated, are `generate_requests`
        /// element for element: one generator path, cut anywhere.
        #[test]
        fn stream_epoch_slices_concatenate_to_generate_requests(
            seed in proptest::prelude::any::<u64>(),
            duration_s in 0.5f64..20.0,
            rps in 5.0f64..200.0,
            composite in proptest::prelude::any::<bool>(),
            epochs in 1usize..10,
        ) {
            let scenario = if composite {
                Some(hadas_runtime::Scenario::from_name("composite", seed, duration_s).unwrap())
            } else {
                None
            };
            let cfg = ServeConfig { seed, duration_s, rps, scenario, ..ServeConfig::default() };
            let whole = generate_requests(&cfg, None);
            let mut feed = EpochFeed::start(cfg.clone(), epochs).unwrap();
            let mut fed = Vec::new();
            for e in 0..epochs {
                let slice = feed.next_slice(e).unwrap();
                let t_hi = (e as f64 + 1.0) * (duration_s / epochs as f64);
                proptest::prop_assert!(
                    e + 1 == epochs || slice.iter().all(|r| r.time_s < t_hi),
                    "epoch {} leaks past its boundary", e
                );
                fed.extend(slice);
            }
            proptest::prop_assert_eq!(fed, whole);
            proptest::prop_assert_eq!(feed.hang_up(), Some(epochs));
        }
    }

    #[test]
    fn stream_feed_joins_its_producer_when_the_consumer_hangs_up_early() {
        let cfg = ServeConfig { duration_s: 30.0, rps: 50.0, ..ServeConfig::default() };
        let mut feed = EpochFeed::start(cfg, 5).unwrap();
        assert!(!feed.next_slice(0).unwrap().is_empty());
        // The producer is parked handing over slice 1 (or about to be);
        // hanging up must stop and join it after exactly one delivery.
        assert_eq!(feed.hang_up(), Some(1));
        assert!(feed.producer.is_none(), "the producer thread is joined");
        assert!(feed.next_slice(1).is_err(), "a hung-up feed delivers nothing");
    }

    #[test]
    fn stream_feed_refuses_a_slice_tagged_with_another_epoch() {
        let feed = EpochFeed::start(ServeConfig::default(), 4).unwrap();
        feed.next_slice(0).unwrap();
        let err = feed.next_slice(2).unwrap_err();
        assert!(err.to_string().contains("epoch 1's slice when epoch 2"), "{err}");
    }
}
