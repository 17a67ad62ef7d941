//! The streaming monitor: every channel's detector and every recorder's
//! DPU, fed one probe sample or one whole emission at a time.
//!
//! The real ZM4 is parallel in hardware — every DPU decodes and records
//! its own channels and only the CEC merge is global. The simulation
//! keeps that structure inside one [`Observer`]: detection is
//! per-channel, recording is per-recorder (each [`Dpu::record`] sorts its
//! queue by `(time, channel)` before the FIFO model runs, so the
//! cross-channel interleaving of feed calls is immaterial), and
//! [`Observer::finish`] hands the local traces to the CEC merge.
//!
//! Input comes at two granularities. [`Observer::feed`] takes one probed
//! pattern, exact for any stream. [`Observer::feed_emission`] takes one
//! clean emission as plain values (channel, first write, spacing,
//! event) and, when the channel's decoder is idle, queues the event
//! without expanding its 32 patterns; [`Observer::feed_expanded_emission`]
//! takes an emission's patterns after something (a fault model) may
//! have altered them. [`Observer::ingest_counts`] tells how many
//! emissions took each path.

use des::rng::DetRng;
use des::time::{SimDuration, SimTime};
use hybridmon::MonEvent;

use crate::cec::merge_traces;
use crate::detector::{EventDetector, ProbeSample};
use crate::dpu::Dpu;
use crate::measurement::Measurement;
use crate::Zm4;

/// How many emissions an [`Observer`] ingested on each path. Samples
/// fed one by one through [`Observer::feed`] are not emissions and are
/// not counted. Deterministic for a given input, so a run's counts can
/// be compared exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestCounts {
    /// Emissions handed to an idle decoder as one event, no pattern
    /// expanded.
    pub event_path: u64,
    /// Emissions whose patterns went through the decoder one by one:
    /// those [`Observer::feed_emission`] met on a decoder mid-event,
    /// and every [`Observer::feed_expanded_emission`].
    pub pattern_path: u64,
}

/// The whole monitor in streaming form: one detector per channel and one
/// DPU per recorder. Created by [`Zm4::observer`]; fed probe samples via
/// [`Observer::feed`] or whole emissions via [`Observer::feed_emission`];
/// turned into the global [`Measurement`] by [`Observer::finish`].
#[derive(Debug)]
pub struct Observer {
    streams_per_recorder: usize,
    /// Detectors, indexed by channel.
    detectors: Vec<EventDetector>,
    /// DPUs, indexed by recorder.
    dpus: Vec<Dpu>,
    ingest: IngestCounts,
}

impl Observer {
    /// Feeds one probed pattern through its channel's detector, queueing
    /// any completed event on the recorder the channel is wired to. Each
    /// channel's samples must arrive in non-decreasing time order
    /// (channels may interleave arbitrarily).
    ///
    /// # Panics
    ///
    /// Panics if the sample references a channel the monitor was not
    /// built for.
    #[inline]
    pub fn feed(&mut self, sample: ProbeSample) {
        assert!(
            sample.channel < self.detectors.len(),
            "sample for unwired channel {}",
            sample.channel
        );
        if let Some(event) = self.detectors[sample.channel].feed(sample) {
            self.dpus[sample.channel / self.streams_per_recorder].queue_event(event);
        }
    }

    /// Feeds one clean emission on `channel`: the 32 patterns encoding
    /// `event`, the first written at `first_write` and each next one
    /// `spacing` later. Bit-identical to feeding those 32 samples
    /// through [`Observer::feed`]; see [`EventDetector::feed_event`]
    /// for when the patterns are skipped. The emission must not start
    /// before the channel's previous input ended.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is not wired.
    #[inline]
    pub fn feed_emission(
        &mut self,
        channel: usize,
        first_write: SimTime,
        spacing: SimDuration,
        event: MonEvent,
    ) {
        assert!(
            channel < self.detectors.len(),
            "emission for unwired channel {channel}"
        );
        let detector = &mut self.detectors[channel];
        if detector.in_progress() {
            self.ingest.pattern_path += 1;
        } else {
            self.ingest.event_path += 1;
        }
        if let Some(event) = detector.feed_event(first_write, spacing, event) {
            self.dpus[channel / self.streams_per_recorder].queue_event(event);
        }
    }

    /// Feeds one emission's probe samples through [`Observer::feed`],
    /// counting it on the pattern path — for emissions whose patterns
    /// may have been dropped, corrupted or shifted in time on the way.
    ///
    /// # Panics
    ///
    /// Panics if a sample references an unwired channel.
    pub fn feed_expanded_emission<I>(&mut self, samples: I)
    where
        I: IntoIterator<Item = ProbeSample>,
    {
        self.ingest.pattern_path += 1;
        for sample in samples {
            self.feed(sample);
        }
    }

    /// How many emissions took each ingest path so far.
    pub fn ingest_counts(&self) -> IngestCounts {
        self.ingest
    }

    /// Ends the measurement: per recorder, the DPU runs its FIFO/drain
    /// model; the CEC then merges the local traces on the globally valid
    /// timestamps.
    pub fn finish(self) -> Measurement {
        let detector_stats = self.detectors.into_iter().map(|d| d.into_stats()).collect();
        let mut local_traces = Vec::with_capacity(self.dpus.len());
        let mut recorder_stats = Vec::with_capacity(self.dpus.len());
        for dpu in self.dpus {
            let (stored, stats) = dpu.record();
            local_traces.push(stored);
            recorder_stats.push(stats);
        }
        Measurement {
            trace: merge_traces(&local_traces),
            recorder_stats,
            detector_stats,
        }
    }
}

impl Zm4 {
    /// Builds the streaming monitor: detectors for every channel and
    /// DPUs for every recorder, recorder clocks drawn from the seed.
    pub fn observer(&self) -> Observer {
        let rng = DetRng::new(self.config().seed);
        Observer {
            streams_per_recorder: self.config().streams_per_recorder,
            detectors: (0..self.channels())
                .map(|ch| EventDetector::new(ch, self.config().detector_latency))
                .collect(),
            dpus: (0..self.recorders())
                .map(|r| Dpu::new(r, self.config(), &rng))
                .collect(),
            ingest: IngestCounts::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Zm4Config;
    use des::time::SimTime;
    use hybridmon::encode::encode;
    use hybridmon::MonEvent;

    /// Per-channel event streams, patterns spaced so channels overlap in
    /// time (the shape of a simulation's signal log), each channel's
    /// samples in time order.
    fn per_channel(channels: usize, events_per_channel: usize) -> Vec<Vec<ProbeSample>> {
        (0..channels)
            .map(|ch| {
                let mut t = 1_000 + (ch as u64) * 137;
                let mut samples = Vec::new();
                for k in 0..events_per_channel {
                    let ev = MonEvent::new((ch * 100 + k) as u16 & 0xFF, k as u32 & 0xFF);
                    for pattern in encode(ev) {
                        samples.push(ProbeSample {
                            time: SimTime::from_nanos(t),
                            channel: ch,
                            pattern,
                        });
                        t += 3_400 + (ch as u64 % 5) * 17;
                    }
                }
                samples
            })
            .collect()
    }

    /// Detection is per channel and every DPU sorts its queue before
    /// recording, so the order channels interleave in is immaterial:
    /// channel-by-channel and time-interleaved feeds measure the same.
    #[test]
    fn channel_interleaving_does_not_change_the_measurement() {
        let streams = per_channel(10, 6);
        let zm4 = Zm4::new(Zm4Config::default(), 10, 77);
        let mut by_channel = zm4.observer();
        for s in streams.iter().flatten() {
            by_channel.feed(*s);
        }
        let mut interleaved: Vec<ProbeSample> = streams.into_iter().flatten().collect();
        interleaved.sort_by_key(|s| s.time);
        let mut by_time = zm4.observer();
        for s in &interleaved {
            by_time.feed(*s);
        }
        let (a, b) = (by_channel.finish(), by_time.finish());
        assert_eq!(a.trace.len(), 60);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.recorder_stats, b.recorder_stats);
        assert_eq!(a.detector_stats, b.detector_stats);
    }

    #[test]
    #[should_panic(expected = "unwired channel")]
    fn feeding_an_unwired_channel_panics() {
        let zm4 = Zm4::new(Zm4Config::default(), 4, 1);
        zm4.observer().feed(ProbeSample {
            time: SimTime::ZERO,
            channel: 4,
            pattern: hybridmon::Pattern::new(0).unwrap(),
        });
    }
}
