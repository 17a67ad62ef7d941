//! Simulation of the ZM4 distributed hardware monitor.
//!
//! The ZM4 (paper §3) is a scalable monitor built from:
//!
//! * **dedicated probe units (DPUs)** — probes clipped onto the object
//!   system plus an *event detector* (the only object-system-specific
//!   parts) and an *event recorder*;
//! * **event recorders** — plug-in boards with a 100 ns clock and a
//!   32K × 96-bit FIFO, able to record up to four independent event
//!   streams; the FIFO drains to the monitor agent's disk at about
//!   10 000 events/s while absorbing bursts of up to 10 million events/s;
//! * **monitor agents** — PC/AT hosts carrying up to four DPUs;
//! * the **measure tick generator (MTG)** — master of the global clock:
//!   it starts all recorder clocks simultaneously and a continuously
//!   transmitted Manchester-coded signal on the tick channel prevents
//!   skew, giving *globally valid* timestamps;
//! * the **control and evaluation computer (CEC)** — merges the local
//!   traces into one global trace by sorting on those timestamps.
//!
//! The simulation consumes the probe-visible signal stream of the object
//! system (seven-segment display writes, as [`ProbeSample`]s) and
//! produces the merged, timestamped global trace — including event loss
//! when the FIFO model overflows and timestamp error when the MTG is
//! disabled (free-running, skewed recorder clocks).
//!
//! # Examples
//!
//! ```
//! use des::time::SimTime;
//! use hybridmon::{encode::encode, MonEvent};
//! use zm4::{ProbeSample, Zm4, Zm4Config};
//!
//! // One node emitting one event, patterns spaced 3.4 us apart.
//! let mut samples = Vec::new();
//! for (i, p) in encode(MonEvent::new(0x42, 7)).into_iter().enumerate() {
//!     samples.push(ProbeSample {
//!         time: SimTime::from_nanos(10_000 + 3_400 * i as u64),
//!         channel: 0,
//!         pattern: p,
//!     });
//! }
//! let zm4 = Zm4::new(Zm4Config::default(), 1, 1234);
//! let m = zm4.observe(&samples);
//! assert_eq!(m.trace.len(), 1);
//! assert_eq!(m.trace[0].event.token.value(), 0x42);
//! assert_eq!(m.total_lost(), 0);
//! ```

pub mod cec;
pub mod config;
pub mod detector;
pub mod dpu;
pub mod measurement;
pub mod observer;
pub mod recorder;
pub mod serial;

pub use cec::merge_traces;
pub use config::Zm4Config;
pub use detector::{DetectedEvent, EventDetector, ProbeSample};
pub use dpu::Dpu;
pub use measurement::{Measurement, TraceRecord};
pub use observer::Observer;
pub use recorder::{DigestSink, EventRecorder, RecordSink, RecorderStats, StoredRecord};
pub use serial::{detect_serial, SerialProbe, SerialSample};

use des::time::SimTime;

/// The assembled monitor system: one probe/detector per monitored
/// channel, channels grouped onto event recorders, recorders onto
/// monitor agents, all recorder clocks driven by the MTG (or free
/// running, for the ablation).
#[derive(Debug)]
pub struct Zm4 {
    config: Zm4Config,
    channels: usize,
}

impl Zm4 {
    /// Builds a monitor for `channels` object-system channels (one per
    /// monitored node). `seed` drives the clock-skew draws of the
    /// unsynchronized ablation.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(config: Zm4Config, channels: usize, seed: u64) -> Self {
        assert!(channels > 0, "monitor needs at least one channel");
        let mut zm4 = Zm4 { config, channels };
        zm4.config.seed = seed;
        zm4
    }

    /// Number of monitored channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The monitor configuration (with the seed applied).
    pub fn config(&self) -> &Zm4Config {
        &self.config
    }

    /// Number of event recorders required
    /// ([`Zm4Config::streams_per_recorder`] channels share one recorder).
    pub fn recorders(&self) -> usize {
        self.channels.div_ceil(self.config.streams_per_recorder)
    }

    /// Number of monitor agents required.
    pub fn agents(&self) -> usize {
        self.recorders().div_ceil(self.config.dpus_per_agent)
    }

    /// The recorder a channel is wired to.
    pub fn recorder_of(&self, channel: usize) -> usize {
        channel / self.config.streams_per_recorder
    }

    /// Runs the measurement: decodes the pattern stream per channel,
    /// records events per recorder (FIFO + clock model), and merges the
    /// local traces on the CEC.
    ///
    /// `samples` may be in any order; when every channel's subsequence
    /// is already time-sorted (the case for a simulation's signal log),
    /// the stream is fed through [`Zm4::observe_iter`] in a single pass
    /// with no partition copies; otherwise the samples are sorted by
    /// time per channel first. Both paths produce identical
    /// measurements.
    ///
    /// # Panics
    ///
    /// Panics if a sample references a channel the monitor was not built
    /// for.
    pub fn observe(&self, samples: &[ProbeSample]) -> Measurement {
        // O(n) sortedness probe: per-channel non-decreasing times are
        // exactly what the partition-and-stable-sort path would produce,
        // so streaming is bit-identical whenever the probe passes.
        let mut last = vec![SimTime::ZERO; self.channels];
        let sorted = samples.iter().all(|s| {
            assert!(
                s.channel < self.channels,
                "sample for unwired channel {}",
                s.channel
            );
            let ok = s.time >= last[s.channel];
            last[s.channel] = s.time;
            ok
        });
        if sorted {
            return self.observe_iter(samples.iter().copied());
        }

        // Sort samples per channel, preserving global time order within
        // each channel, then stream the channels one after another
        // (per-channel order is all that matters downstream).
        let mut per_channel: Vec<Vec<ProbeSample>> = vec![Vec::new(); self.channels];
        for s in samples {
            assert!(
                s.channel < self.channels,
                "sample for unwired channel {}",
                s.channel
            );
            per_channel[s.channel].push(*s);
        }
        for ch in &mut per_channel {
            ch.sort_by_key(|s| s.time);
        }
        self.observe_iter(per_channel.into_iter().flatten())
    }

    /// Runs the measurement over a streamed sample sequence in a single
    /// pass: no sample is retained, partitioned, or copied. Detected
    /// events flow straight from each channel's detector into its
    /// recorder's DPU queue (see [`Zm4::observer`]).
    ///
    /// Each channel's subsequence must be in non-decreasing time order
    /// (channels may interleave arbitrarily); [`Zm4::observe`] falls
    /// back to sorting when that precondition does not hold.
    ///
    /// # Panics
    ///
    /// Panics if a sample references a channel the monitor was not built
    /// for.
    pub fn observe_iter<I>(&self, samples: I) -> Measurement
    where
        I: IntoIterator<Item = ProbeSample>,
    {
        let mut observer = self.observer();
        for s in samples {
            observer.feed(s);
        }
        observer.finish()
    }
}
