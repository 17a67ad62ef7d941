//! Sharding the monitor plane: partitioning one ZM4 measurement across
//! independent observer shards.
//!
//! The real ZM4 is parallel by construction — every DPU decodes and
//! records its own channels; only the CEC merge is global. This module
//! exposes that structure to the simulation: [`Zm4::shard_observers`]
//! splits the monitor into [`ObserverShard`]s, each owning a contiguous
//! range of event recorders together with the per-channel detectors
//! wired to them. Shards consume disjoint channel subsets and never
//! share state, so they can run on separate threads;
//! [`Zm4::assemble`] reunites the finished shards into the exact
//! [`Measurement`] the sequential [`Zm4::observe_iter`] path produces.
//!
//! Bit-identity rests on three properties of the sequential monitor:
//!
//! 1. detection is per-channel ([`EventDetector::feed`] holds no
//!    cross-channel state);
//! 2. recording is per-recorder, and [`Dpu::record`] sorts its queue by
//!    `(time, channel)` before the FIFO model runs — cross-channel
//!    interleaving of `queue_event` calls is immaterial;
//! 3. the CEC merge sorts globally by `(ts, channel, token)` with ties
//!    keeping recorder order, and recorder indices here are *global*
//!    (the shard knows its offset), as are the `DetRng` streams keyed by
//!    those indices.
//!
//! Shard boundaries are snapped to recorder boundaries so every
//! recorder — and hence every channel — belongs to exactly one shard.

use std::ops::Range;

use des::rng::DetRng;

use crate::cec::merge_traces;
use crate::detector::{EventDetector, ProbeSample};
use crate::dpu::Dpu;
use crate::measurement::Measurement;
use crate::Zm4;

/// One independent slice of the monitor: the detectors and recorders for
/// a contiguous channel range. Created by [`Zm4::shard_observers`]; fed
/// probe samples via [`ObserverShard::feed`]; turned back into a global
/// [`Measurement`] by [`Zm4::assemble`].
#[derive(Debug)]
pub struct ObserverShard {
    /// Global channel range this shard serves.
    channels: Range<usize>,
    /// Global recorder range this shard serves.
    recorders: Range<usize>,
    streams_per_recorder: usize,
    /// Detectors, indexed by `channel - channels.start`.
    detectors: Vec<EventDetector>,
    /// DPUs, indexed by `recorder - recorders.start`.
    dpus: Vec<Dpu>,
}

impl ObserverShard {
    /// The global channel range this shard serves.
    pub fn channels(&self) -> Range<usize> {
        self.channels.clone()
    }

    /// The global recorder range this shard serves.
    pub fn recorders(&self) -> Range<usize> {
        self.recorders.clone()
    }

    /// Whether `channel` is wired to this shard.
    pub fn serves(&self, channel: usize) -> bool {
        self.channels.contains(&channel)
    }

    /// Feeds one probed pattern through this shard's detector for its
    /// channel, queueing any completed event on the owning DPU. Each
    /// channel's samples must arrive in non-decreasing time order, same
    /// as [`Zm4::observe_iter`].
    ///
    /// # Panics
    ///
    /// Panics if the sample's channel belongs to another shard.
    #[inline]
    pub fn feed(&mut self, sample: ProbeSample) {
        assert!(
            self.serves(sample.channel),
            "channel {} is outside shard range {:?}",
            sample.channel,
            self.channels
        );
        let det = &mut self.detectors[sample.channel - self.channels.start];
        if let Some(event) = det.feed(sample) {
            let recorder = sample.channel / self.streams_per_recorder;
            self.dpus[recorder - self.recorders.start].queue_event(event);
        }
    }
}

impl Zm4 {
    /// Partitions the monitor into at most `num_shards` independent
    /// observer shards, boundaries snapped to event-recorder boundaries
    /// (a recorder's channels always land in the same shard). Fewer
    /// shards are returned when there are fewer recorders than
    /// requested; the shards partition all channels in order.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero.
    pub fn shard_observers(&self, num_shards: usize) -> Vec<ObserverShard> {
        assert!(num_shards > 0, "monitor plane needs at least one shard");
        let n_rec = self.recorders();
        let spr = self.config().streams_per_recorder;
        let shards = num_shards.min(n_rec);
        // Each shard rebuilds the root stream locally: Dpu clocks depend
        // only on (seed, global recorder index), so the draws match the
        // sequential path exactly.
        let rng = DetRng::new(self.config().seed);
        (0..shards)
            .map(|i| {
                let rec_lo = i * n_rec / shards;
                let rec_hi = (i + 1) * n_rec / shards;
                let ch_lo = rec_lo * spr;
                let ch_hi = (rec_hi * spr).min(self.channels());
                ObserverShard {
                    channels: ch_lo..ch_hi,
                    recorders: rec_lo..rec_hi,
                    streams_per_recorder: spr,
                    detectors: (ch_lo..ch_hi)
                        .map(|ch| EventDetector::new(ch, self.config().detector_latency))
                        .collect(),
                    dpus: (rec_lo..rec_hi)
                        .map(|r| Dpu::new(r, self.config(), &rng))
                        .collect(),
                }
            })
            .collect()
    }

    /// Reunites finished shards into the global [`Measurement`]: per
    /// recorder, the DPU runs its FIFO/drain model; the CEC then merges
    /// the local traces on the globally valid timestamps. The result is
    /// bit-identical to [`Zm4::observe_iter`] over the union of the
    /// shards' sample streams.
    ///
    /// Shards may be passed in any order (they are re-sorted by channel
    /// range), but must be exactly the set produced by one
    /// [`Zm4::shard_observers`] call on an identically configured
    /// monitor.
    ///
    /// # Panics
    ///
    /// Panics if the shards do not partition this monitor's channels.
    pub fn assemble(&self, mut shards: Vec<ObserverShard>) -> Measurement {
        shards.sort_by_key(|s| s.channels.start);
        let mut next_ch = 0;
        let mut next_rec = 0;
        for s in &shards {
            assert!(
                s.channels.start == next_ch && s.recorders.start == next_rec,
                "shard range {:?} does not continue the partition at channel {next_ch}",
                s.channels
            );
            next_ch = s.channels.end;
            next_rec = s.recorders.end;
        }
        assert!(
            next_ch == self.channels() && next_rec == self.recorders(),
            "shard partition covers {next_ch} of {} channels",
            self.channels()
        );

        let n_rec = self.recorders();
        let mut detector_stats = Vec::with_capacity(self.channels());
        let mut local_traces = Vec::with_capacity(n_rec);
        let mut recorder_stats = Vec::with_capacity(n_rec);
        for shard in shards {
            detector_stats.extend(shard.detectors.into_iter().map(|d| d.into_stats()));
            for dpu in shard.dpus {
                let (stored, stats) = dpu.record();
                local_traces.push(stored);
                recorder_stats.push(stats);
            }
        }

        let trace = merge_traces(&local_traces);
        Measurement {
            trace,
            recorder_stats,
            detector_stats,
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

    /// An interleaved multi-channel sample stream: each channel carries
    /// its own event sequence, patterns spaced so channels overlap in
    /// time (the realistic shape of a simulation's signal log).
    fn workload(channels: usize, events_per_channel: usize) -> Vec<ProbeSample> {
        let mut samples = Vec::new();
        for ch in 0..channels {
            let mut t = 1_000 + (ch as u64) * 137;
            for k in 0..events_per_channel {
                let ev = MonEvent::new((ch * 100 + k) as u16 & 0xFF, k as u32 & 0xFF);
                for p in encode(ev) {
                    samples.push(ProbeSample {
                        time: SimTime::from_nanos(t),
                        channel: ch,
                        pattern: p,
                    });
                    t += 3_400 + (ch as u64 % 5) * 17;
                }
            }
        }
        // Interleave channels by time, keeping per-channel order.
        samples.sort_by_key(|s| s.time);
        samples
    }

    fn feed_sharded(zm4: &Zm4, num_shards: usize, samples: &[ProbeSample]) -> Measurement {
        let mut shards = zm4.shard_observers(num_shards);
        for &s in samples {
            let shard = shards
                .iter_mut()
                .find(|sh| sh.serves(s.channel))
                .expect("every channel belongs to a shard");
            shard.feed(s);
        }
        zm4.assemble(shards)
    }

    fn assert_measurements_identical(a: &Measurement, b: &Measurement) {
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.recorder_stats, b.recorder_stats);
        assert_eq!(a.detector_stats, b.detector_stats);
    }

    #[test]
    fn partition_snaps_to_recorder_boundaries() {
        let zm4 = Zm4::new(Zm4Config::default(), 10, 1); // 3 recorders (4 ch each)
        for n in 1..=8 {
            let shards = zm4.shard_observers(n);
            assert!(shards.len() <= n.min(zm4.recorders()));
            let mut next = 0;
            for s in &shards {
                assert_eq!(s.channels().start, next);
                assert_eq!(s.channels().start % 4, 0, "not on a recorder boundary");
                next = s.channels().end;
            }
            assert_eq!(next, 10);
        }
    }

    #[test]
    fn sharded_observation_matches_sequential_bit_for_bit() {
        let samples = workload(10, 6);
        for seed in [1, 77] {
            let zm4 = Zm4::new(Zm4Config::default(), 10, seed);
            let reference = zm4.observe(&samples);
            assert!(!reference.trace.is_empty());
            for shards in 1..=5 {
                let m = feed_sharded(&zm4, shards, &samples);
                assert_measurements_identical(&m, &reference);
            }
        }
    }

    #[test]
    fn sharded_matches_even_with_free_running_clocks() {
        // The skew draws are keyed by global recorder index, so the
        // ablation's random clocks must survive sharding too.
        let cfg = Zm4Config {
            mtg_synchronized: false,
            ..Zm4Config::default()
        };
        let samples = workload(8, 4);
        let zm4 = Zm4::new(cfg, 8, 42);
        let reference = zm4.observe(&samples);
        for shards in [1, 2, 4] {
            let m = feed_sharded(&zm4, shards, &samples);
            assert_measurements_identical(&m, &reference);
        }
    }

    #[test]
    fn sharded_matches_under_fifo_overflow() {
        // A burst dense enough to overflow the FIFO model: loss accounting
        // is per recorder and must be unaffected by sharding.
        let cfg = Zm4Config {
            fifo_capacity: 4,
            ..Zm4Config::default()
        };
        let samples = workload(8, 32);
        let zm4 = Zm4::new(cfg, 8, 9);
        let reference = zm4.observe(&samples);
        assert!(reference.total_lost() > 0, "workload must overflow");
        for shards in [2, 3] {
            let m = feed_sharded(&zm4, shards, &samples);
            assert_measurements_identical(&m, &reference);
        }
    }

    #[test]
    fn assemble_accepts_shards_in_any_order() {
        let samples = workload(8, 3);
        let zm4 = Zm4::new(Zm4Config::default(), 8, 5);
        let reference = zm4.observe(&samples);
        let mut shards = zm4.shard_observers(2);
        for &s in &samples {
            let shard = shards.iter_mut().find(|sh| sh.serves(s.channel)).unwrap();
            shard.feed(s);
        }
        shards.reverse();
        assert_measurements_identical(&zm4.assemble(shards), &reference);
    }

    #[test]
    #[should_panic(expected = "outside shard range")]
    fn feeding_a_foreign_channel_panics() {
        let zm4 = Zm4::new(Zm4Config::default(), 8, 1);
        let mut shards = zm4.shard_observers(2);
        let foreign = shards[1].channels().start;
        shards[0].feed(ProbeSample {
            time: SimTime::ZERO,
            channel: foreign,
            pattern: hybridmon::Pattern::new(0).unwrap(),
        });
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn assembling_an_incomplete_partition_panics() {
        let zm4 = Zm4::new(Zm4Config::default(), 8, 1);
        let mut shards = zm4.shard_observers(2);
        shards.pop();
        let _ = zm4.assemble(shards);
    }
}
