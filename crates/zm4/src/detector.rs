//! The probe + event-detector front end of a DPU.
//!
//! The probes are clipped into the seven-segment display socket; the
//! event detector is the recognition state machine (realized in
//! programmable logic on the real interface) that spots the triggerword
//! and reassembles 48-bit events. The protocol state machine itself is
//! [`hybridmon::Decoder`] — the same logic the instrumentation side was
//! designed against.
//!
//! A detector takes input at two granularities. [`EventDetector::feed`]
//! takes one probed pattern at a time and is exact for any stream —
//! firmware traffic, truncated or corrupted sequences included.
//! [`EventDetector::feed_event`] takes one whole emission, the 32
//! patterns `T m0 … T m15` of one event written `spacing` apart; on an
//! idle decoder it hands the event straight to the recorder, as the
//! interface's hardware detector does (paper §3.2), and otherwise it
//! expands the patterns through `feed`. Both give the same detected
//! events and the same [`DecodeStats`].

use des::time::{SimDuration, SimTime};
use hybridmon::decode::DecodeStats;
use hybridmon::encode::{encode, WRITES_PER_EVENT};
use hybridmon::{Decoder, MonEvent, Pattern};

/// One probed display write: what the interface sees on its 7-bit input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeSample {
    /// True global time of the write.
    pub time: SimTime,
    /// The monitor channel (object node) the probe is attached to.
    pub channel: usize,
    /// The displayed pattern.
    pub pattern: Pattern,
}

/// A fully assembled 48-bit event, ready for the event recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectedEvent {
    /// When the recorder's request signal fires (last pattern time plus
    /// detector latency).
    pub time: SimTime,
    /// The source channel.
    pub channel: usize,
    /// The decoded event.
    pub event: MonEvent,
}

/// Per-channel event detector, fed probed patterns
/// ([`EventDetector::feed`]) or whole emissions
/// ([`EventDetector::feed_event`]) in non-decreasing time order.
///
/// # Examples
///
/// ```
/// use des::time::{SimDuration, SimTime};
/// use hybridmon::{encode::encode, MonEvent};
/// use zm4::{EventDetector, ProbeSample};
///
/// let mut det = EventDetector::new(0, SimDuration::from_nanos(500));
/// let samples: Vec<ProbeSample> = encode(MonEvent::new(3, 4))
///     .into_iter()
///     .enumerate()
///     .map(|(i, p)| ProbeSample {
///         time: SimTime::from_micros(i as u64),
///         channel: 0,
///         pattern: p,
///     })
///     .collect();
/// let events = det.detect(&samples);
/// assert_eq!(events.len(), 1);
/// assert_eq!(events[0].event, MonEvent::new(3, 4));
/// // Request fires detector-latency after the 32nd pattern.
/// assert_eq!(events[0].time, SimTime::from_micros(31) + SimDuration::from_nanos(500));
/// ```
#[derive(Debug)]
pub struct EventDetector {
    channel: usize,
    latency: SimDuration,
    decoder: Decoder,
    /// Time of the last fed sample, for the feed-order check.
    #[cfg(debug_assertions)]
    last_time: SimTime,
}

impl EventDetector {
    /// Creates a detector for `channel` with the given request latency.
    pub fn new(channel: usize, latency: SimDuration) -> Self {
        EventDetector {
            channel,
            latency,
            decoder: Decoder::new(),
            #[cfg(debug_assertions)]
            last_time: SimTime::ZERO,
        }
    }

    /// Feeds one probed pattern; returns a detected event if this pattern
    /// completed one. Samples must arrive in non-decreasing time order —
    /// the only ordering the monitor plane relies on.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the sample belongs to another channel or
    /// is earlier than the previous sample.
    #[inline]
    pub fn feed(&mut self, sample: ProbeSample) -> Option<DetectedEvent> {
        debug_assert_eq!(sample.channel, self.channel, "sample fed to wrong detector");
        #[cfg(debug_assertions)]
        {
            assert!(
                sample.time >= self.last_time,
                "channel {} sample at {} fed after one at {}",
                self.channel,
                sample.time,
                self.last_time
            );
            self.last_time = sample.time;
        }
        self.decoder
            .feed(sample.pattern)
            .map(|event| DetectedEvent {
                time: sample.time + self.latency,
                channel: self.channel,
                event,
            })
    }

    /// Feeds one whole emission: the 32 patterns of `event`'s encoding,
    /// the first at `first_write` and each next one `spacing` later.
    /// Returns the detected event if the emission completed one.
    ///
    /// On an idle decoder the patterns decode to exactly `event`, so it
    /// is returned at the 32nd pattern's time plus the latency, with
    /// [`DecodeStats`] advanced as the patterns would have advanced them
    /// and no pattern expanded. With an event partially assembled (stray
    /// or damaged patterns fed through [`EventDetector::feed`] before),
    /// the 32 patterns are fed one by one; from any decoder state they
    /// complete at most one event.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `first_write` is earlier than the
    /// previous fed pattern — the emission must not overlap what the
    /// channel already received.
    #[inline]
    pub fn feed_event(
        &mut self,
        first_write: SimTime,
        spacing: SimDuration,
        event: MonEvent,
    ) -> Option<DetectedEvent> {
        if self.decoder.in_progress() {
            let mut detected = None;
            for (i, pattern) in encode(event).into_iter().enumerate() {
                let sample = ProbeSample {
                    time: first_write + spacing * i as u64,
                    channel: self.channel,
                    pattern,
                };
                if let Some(d) = self.feed(sample) {
                    debug_assert!(detected.is_none(), "one emission completed two events");
                    detected = Some(d);
                }
            }
            return detected;
        }
        let last_write = first_write + spacing * (WRITES_PER_EVENT as u64 - 1);
        #[cfg(debug_assertions)]
        {
            assert!(
                first_write >= self.last_time,
                "channel {} emission at {} fed after one at {}",
                self.channel,
                first_write,
                self.last_time
            );
            self.last_time = last_write;
        }
        self.decoder.account_event();
        Some(DetectedEvent {
            time: last_write + self.latency,
            channel: self.channel,
            event,
        })
    }

    /// Returns `true` if the decoder holds a partially assembled event,
    /// i.e. [`EventDetector::feed_event`] would expand its patterns.
    pub(crate) fn in_progress(&self) -> bool {
        self.decoder.in_progress()
    }

    /// Processes a whole time-ordered sample stream.
    pub fn detect(&mut self, samples: &[ProbeSample]) -> Vec<DetectedEvent> {
        samples.iter().filter_map(|&s| self.feed(s)).collect()
    }

    /// The protocol-health counters accumulated so far.
    pub fn stats(&self) -> DecodeStats {
        self.decoder.stats()
    }

    /// Consumes the detector, returning its final counters.
    pub fn into_stats(self) -> DecodeStats {
        self.decoder.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridmon::encode::encode;

    fn stream(
        channel: usize,
        events: &[MonEvent],
        start_us: u64,
        spacing_ns: u64,
    ) -> Vec<ProbeSample> {
        let mut t = start_us * 1_000;
        let mut out = Vec::new();
        for &ev in events {
            for p in encode(ev) {
                out.push(ProbeSample {
                    time: SimTime::from_nanos(t),
                    channel,
                    pattern: p,
                });
                t += spacing_ns;
            }
        }
        out
    }

    #[test]
    fn detects_sequence_in_order() {
        let events = [
            MonEvent::new(1, 10),
            MonEvent::new(2, 20),
            MonEvent::new(3, 30),
        ];
        let mut det = EventDetector::new(0, SimDuration::from_nanos(500));
        let detected = det.detect(&stream(0, &events, 5, 3_400));
        assert_eq!(detected.len(), 3);
        for (d, e) in detected.iter().zip(events) {
            assert_eq!(d.event, e);
            assert_eq!(d.channel, 0);
        }
        assert!(detected.windows(2).all(|w| w[0].time < w[1].time));
        assert_eq!(det.stats().events, 3);
    }

    #[test]
    fn tolerates_firmware_noise() {
        let ev = MonEvent::new(0xFF, 0xFF);
        let mut samples = stream(0, &[ev], 0, 1_000);
        // Inject a firmware pattern between two pairs (offset after the
        // 2nd pair = after sample index 3).
        samples.insert(
            4,
            ProbeSample {
                time: SimTime::from_nanos(3_500),
                channel: 0,
                pattern: Pattern::new(10).unwrap(),
            },
        );
        let mut det = EventDetector::new(0, SimDuration::ZERO);
        let detected = det.detect(&samples);
        assert_eq!(detected.len(), 1);
        assert_eq!(detected[0].event, ev);
        assert_eq!(det.stats().stray_patterns, 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "fed after")]
    fn out_of_order_sample_panics_in_debug_builds() {
        let mut samples = stream(0, &[MonEvent::new(1, 1)], 5, 1_000);
        samples.swap(2, 3);
        EventDetector::new(0, SimDuration::ZERO).detect(&samples);
    }

    /// The 32 samples of `ev` written from `first` every `spacing`.
    fn emission(
        channel: usize,
        ev: MonEvent,
        first: SimTime,
        spacing: SimDuration,
    ) -> Vec<ProbeSample> {
        encode(ev)
            .into_iter()
            .enumerate()
            .map(|(i, pattern)| ProbeSample {
                time: first + spacing * i as u64,
                channel,
                pattern,
            })
            .collect()
    }

    #[test]
    fn idle_feed_event_equals_its_patterns() {
        let spacing = SimDuration::from_nanos(3_400);
        let latency = SimDuration::from_nanos(500);
        let mut by_event = EventDetector::new(2, latency);
        let mut by_pattern = EventDetector::new(2, latency);
        for (k, ev) in [MonEvent::new(1, 10), MonEvent::new(0xFFFF, u32::MAX)]
            .into_iter()
            .enumerate()
        {
            let first = SimTime::from_micros(200 * k as u64 + 7);
            assert!(!by_event.in_progress());
            let fast = by_event.feed_event(first, spacing, ev);
            let slow = by_pattern.detect(&emission(2, ev, first, spacing));
            assert_eq!(fast.as_slice(), slow.as_slice());
            assert_eq!(fast.unwrap().time, first + spacing * 31 + latency);
            assert_eq!(by_event.stats(), by_pattern.stats());
        }
    }

    #[test]
    fn mid_event_feed_event_equals_its_patterns() {
        let spacing = SimDuration::from_nanos(1_000);
        let ev = MonEvent::new(0x1234, 0xDEAD_BEEF);
        let truncated = emission(0, MonEvent::new(9, 9), SimTime::ZERO, spacing);
        // Every truncation point leaves the decoder in another state:
        // awaiting data, or between pairs with 1..=15 groups.
        for cut in 1..32 {
            let mut by_event = EventDetector::new(0, SimDuration::ZERO);
            let mut by_pattern = EventDetector::new(0, SimDuration::ZERO);
            assert!(by_event.detect(&truncated[..cut]).is_empty());
            by_pattern.detect(&truncated[..cut]);
            assert!(by_event.in_progress());
            let first = SimTime::from_micros(100);
            let fast = by_event.feed_event(first, spacing, ev);
            let slow = by_pattern.detect(&emission(0, ev, first, spacing));
            assert_eq!(fast.as_slice(), slow.as_slice(), "cut {cut}");
            assert_eq!(by_event.stats(), by_pattern.stats(), "cut {cut}");
            assert_eq!(
                by_event.in_progress(),
                by_pattern.in_progress(),
                "cut {cut}"
            );
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "fed after")]
    fn overlapping_emission_panics_in_debug_builds() {
        let spacing = SimDuration::from_nanos(1_000);
        let mut det = EventDetector::new(0, SimDuration::ZERO);
        det.feed_event(SimTime::from_micros(10), spacing, MonEvent::new(1, 1));
        // The first emission's last pattern is at 41 us.
        det.feed_event(SimTime::from_micros(40), spacing, MonEvent::new(2, 2));
    }

    #[test]
    fn empty_stream_detects_nothing() {
        let mut det = EventDetector::new(3, SimDuration::ZERO);
        assert!(det.detect(&[]).is_empty());
        assert_eq!(det.into_stats().events, 0);
    }
}
