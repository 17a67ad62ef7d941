//! Deterministic fault injection on the probe plane.
//!
//! The monitor hardware the paper describes is passive and assumed
//! perfect; the scheduling-fuzz studies need the opposite assumption —
//! probes that drop writes, corrupt patterns, and recorders whose
//! clocks drift. [`FaultConfig`] injects exactly those failures into
//! the probe-sample stream *between* the machine's displays and the
//! ZM4, so the simulated machine itself stays untouched and
//! bit-identical.
//!
//! Every decision is a pure function of the sample and the fault seed
//! (an FNV-1a hash of `(channel, time, pattern, seed)`), never of
//! iteration order or shard assignment — so faulted measurements are
//! reproducible per seed and identical across monitor-shard and
//! engine-shard counts, exactly like the un-faulted pipeline.

use des::digest::Fnv64;
use hybridmon::Pattern;
use zm4::ProbeSample;

/// Probe-plane fault knobs. The default injects nothing and is
/// behaviourally invisible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultConfig {
    /// Per-mille probability that a display write never reaches the
    /// detector (a dropped probe sample). `0..=1000`.
    pub probe_drop_permille: u16,
    /// Per-mille probability that a display write arrives with some of
    /// its pattern bits flipped (the decoder then sees a different —
    /// still valid — pattern word). `0..=1000`.
    pub probe_corrupt_permille: u16,
    /// Recorder clock drift in parts per million. Each channel's
    /// recorder clock runs fast or slow by its own per-channel fraction
    /// of this bound, scaling timestamps linearly — monotone per
    /// channel, so the detector's feed-order precondition still holds.
    pub clock_drift_ppm: u32,
    /// Seed of the fault pattern. Two runs with equal seeds inject
    /// identical faults; changing the seed moves every fault site.
    pub seed: u64,
}

impl FaultConfig {
    /// `true` when no fault can ever fire — the pipeline then behaves
    /// exactly as if no fault layer existed.
    pub fn is_noop(&self) -> bool {
        self.probe_drop_permille == 0
            && self.probe_corrupt_permille == 0
            && self.clock_drift_ppm == 0
    }

    /// Checks the knobs are in range.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first out-of-range knob.
    pub fn validate(&self) -> Result<(), String> {
        if self.probe_drop_permille > 1000 {
            return Err("probe_drop_permille must be at most 1000".into());
        }
        if self.probe_corrupt_permille > 1000 {
            return Err("probe_corrupt_permille must be at most 1000".into());
        }
        if self.clock_drift_ppm >= 500_000 {
            return Err(
                "clock_drift_ppm must stay below 500000 (clocks must keep running forward)".into(),
            );
        }
        Ok(())
    }

    /// Applies the fault model to one probe sample: `None` when the
    /// write is dropped, otherwise the (possibly corrupted and
    /// clock-shifted) sample. Pure per sample — the verdict depends
    /// only on the sample's identity and the fault seed.
    pub fn apply(&self, sample: ProbeSample) -> Option<ProbeSample> {
        if self.is_noop() {
            return Some(sample);
        }
        let mut h = Fnv64::new();
        h.write_u64(self.seed);
        h.write_u64(sample.channel as u64);
        h.write_u64(sample.time.as_nanos());
        h.write_u64(u64::from(sample.pattern.index()));
        let verdict = h.finish();

        if verdict % 1000 < u64::from(self.probe_drop_permille) {
            return None;
        }

        let mut out = sample;
        if (verdict >> 16) % 1000 < u64::from(self.probe_corrupt_permille) {
            // A nonzero 4-bit XOR mask: the corrupted word is always a
            // *different* valid pattern (possibly the trigger word —
            // exactly the failure a real flaky probe line produces).
            let mask = ((verdict >> 32) % 15 + 1) as u8;
            out.pattern = Pattern::new(sample.pattern.index() ^ mask)
                .expect("xor of two 4-bit pattern indices is a 4-bit pattern index");
        }
        if self.clock_drift_ppm > 0 {
            out.time = des::time::SimTime::from_nanos(
                self.drifted_nanos(out.channel, out.time.as_nanos()),
            );
        }
        Some(out)
    }

    /// The per-channel drifted clock: channel `c` reads
    /// `t × (1 + f(c) × ppm / 1e6)` where `f(c) ∈ [-1, 1]` is a pure
    /// hash of the channel and the seed. Linear with positive slope, so
    /// each channel's samples stay in feed order.
    fn drifted_nanos(&self, channel: usize, nanos: u64) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.seed ^ 0x5eed_c10c);
        h.write_u64(channel as u64);
        // Signed per-channel rate in [-ppm, +ppm].
        let span = i64::from(self.clock_drift_ppm) * 2 + 1;
        let rate = (h.finish() % span as u64) as i64 - i64::from(self.clock_drift_ppm);
        let shift = (nanos as i128 * i128::from(rate) / 1_000_000) as i64;
        nanos.saturating_add_signed(shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::time::SimTime;

    fn sample(channel: usize, nanos: u64, pattern: u8) -> ProbeSample {
        ProbeSample {
            time: SimTime::from_nanos(nanos),
            channel,
            pattern: Pattern::new(pattern).unwrap(),
        }
    }

    #[test]
    fn noop_config_is_identity() {
        let f = FaultConfig::default();
        assert!(f.is_noop());
        let s = sample(3, 1234, 7);
        assert_eq!(f.apply(s), Some(s));
    }

    #[test]
    fn decisions_are_pure_and_seed_dependent() {
        let f = FaultConfig {
            probe_drop_permille: 300,
            probe_corrupt_permille: 300,
            clock_drift_ppm: 500,
            seed: 42,
        };
        let samples: Vec<ProbeSample> = (0..500)
            .map(|i| sample(i % 7, 1000 * i as u64, (i % 16) as u8))
            .collect();
        let once: Vec<_> = samples.iter().map(|&s| f.apply(s)).collect();
        let twice: Vec<_> = samples.iter().map(|&s| f.apply(s)).collect();
        assert_eq!(once, twice, "fault decisions must be pure");
        assert!(once.iter().any(Option::is_none), "some samples drop");
        assert!(
            once.iter()
                .flatten()
                .zip(&samples)
                .any(|(out, orig)| out.pattern != orig.pattern),
            "some samples corrupt"
        );
        let other = FaultConfig { seed: 43, ..f };
        let moved: Vec<_> = samples.iter().map(|&s| other.apply(s)).collect();
        assert_ne!(once, moved, "a different seed moves the fault sites");
    }

    #[test]
    fn clock_drift_is_monotone_per_channel() {
        let f = FaultConfig {
            clock_drift_ppm: 400_000,
            seed: 9,
            ..FaultConfig::default()
        };
        for channel in 0..16 {
            let mut last = 0u64;
            for nanos in [0u64, 10, 1_000, 1_000_000, 5_000_000_000] {
                let out = f.apply(sample(channel, nanos, 1)).unwrap();
                assert!(
                    out.time.as_nanos() >= last,
                    "channel {channel} went backwards at {nanos}"
                );
                last = out.time.as_nanos();
            }
        }
    }

    #[test]
    fn validation_bounds_the_knobs() {
        assert!(FaultConfig::default().validate().is_ok());
        let bad = FaultConfig {
            probe_drop_permille: 1001,
            ..FaultConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = FaultConfig {
            clock_drift_ppm: 600_000,
            ..FaultConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("clock_drift_ppm"));
    }
}
