//! The event-detector state machine.
//!
//! This is the recognition logic the paper implements in programmable
//! logic inside the SUPRENUM↔ZM4 interface: it watches the raw pattern
//! stream coming off the seven-segment display socket, recognizes the
//! triggerword, and reassembles the original 48-bit events from the
//! `T m0 T m1 … T m15` sequence.
//!
//! The decoder tolerates exactly the traffic the protocol permits:
//!
//! * **Between pairs**, patterns other than the triggerword may appear
//!   (the communication firmware's own status display) and are skipped.
//! * **Within a pair** — between `T` and its `mᵢ` — nothing may intervene;
//!   the paper requires the pair to be output atomically. Any intervening
//!   pattern is counted as an atomicity violation and the partial event is
//!   discarded, mirroring how the real state machine would lose sync.

use crate::encode::{assemble_groups, PAIRS_PER_EVENT};
use crate::event::MonEvent;
use crate::pattern::Pattern;

/// Counters describing what the detector saw besides clean events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Complete 48-bit events assembled.
    pub events: u64,
    /// Patterns skipped while no pair was in progress (legal firmware
    /// traffic between pairs, or before any event started).
    pub stray_patterns: u64,
    /// Patterns that intervened between a triggerword and its data
    /// pattern — violations of the protocol's atomicity condition.
    pub atomicity_violations: u64,
    /// Partially assembled events discarded after a violation.
    pub discarded_partials: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// No pair in progress; `groups` holds the data groups collected so
    /// far for the current event (empty when idle).
    BetweenPairs,
    /// A triggerword was seen; the next pattern must be a data pattern.
    AwaitData,
}

/// Incremental decoder for the seven-segment monitoring protocol.
///
/// Feed it every pattern written to the display, in order; it returns a
/// [`MonEvent`] whenever the 16th pair completes.
///
/// # Examples
///
/// ```
/// use hybridmon::{decode::Decoder, encode::encode, MonEvent, Pattern};
///
/// let mut d = Decoder::new();
/// // Firmware status traffic before the event is ignored…
/// assert_eq!(d.feed(Pattern::new(9).unwrap()), None);
/// // …then a full event decodes.
/// let ev = MonEvent::new(1, 2);
/// let decoded: Vec<_> = encode(ev).into_iter().filter_map(|p| d.feed(p)).collect();
/// assert_eq!(decoded, vec![ev]);
/// assert_eq!(d.stats().stray_patterns, 1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Decoder {
    state: State,
    /// The data groups collected so far — a fixed inline array (an
    /// event is at most [`PAIRS_PER_EVENT`] groups), so a decoder never
    /// touches the heap and is freely `Copy`able.
    groups: [u8; PAIRS_PER_EVENT],
    group_len: usize,
    stats: DecodeStats,
}

impl Decoder {
    /// Creates a decoder in the idle state.
    pub fn new() -> Self {
        Decoder {
            state: State::BetweenPairs,
            groups: [0; PAIRS_PER_EVENT],
            group_len: 0,
            stats: DecodeStats::default(),
        }
    }

    /// Consumes one display pattern; returns a complete event if this
    /// pattern finished one.
    #[inline]
    pub fn feed(&mut self, pattern: Pattern) -> Option<MonEvent> {
        match self.state {
            State::BetweenPairs => {
                if pattern.is_trigger() {
                    self.state = State::AwaitData;
                } else {
                    self.stats.stray_patterns += 1;
                }
                None
            }
            State::AwaitData => match pattern.payload() {
                Some(bits) => {
                    self.state = State::BetweenPairs;
                    self.groups[self.group_len] = bits;
                    self.group_len += 1;
                    if self.group_len == PAIRS_PER_EVENT {
                        let raw = assemble_groups(&self.groups);
                        self.group_len = 0;
                        self.stats.events += 1;
                        Some(MonEvent::from_raw48(raw))
                    } else {
                        None
                    }
                }
                None => {
                    // Something intervened between T and its data pattern.
                    self.stats.atomicity_violations += 1;
                    if self.group_len > 0 {
                        self.stats.discarded_partials += 1;
                        self.group_len = 0;
                    }
                    // A second triggerword may itself start a fresh pair;
                    // anything else drops us back between pairs.
                    self.state = if pattern.is_trigger() {
                        State::AwaitData
                    } else {
                        State::BetweenPairs
                    };
                    None
                }
            },
        }
    }

    /// Accounts one complete, clean event without feeding its patterns:
    /// on an idle decoder, the 32 patterns of [`encode`](crate::encode::encode)
    /// fed back to back decode to exactly the event they encode, touch
    /// no counter but [`DecodeStats::events`] and leave the decoder idle.
    /// This is that state change, for a caller that already holds the
    /// event (the ZM4's event-granular ingest).
    ///
    /// # Panics
    ///
    /// Panics if an event is partially assembled: the patterns would
    /// then not decode cleanly, so they must be fed one by one.
    #[inline]
    pub fn account_event(&mut self) {
        assert!(
            !self.in_progress(),
            "a clean event can only be accounted on an idle decoder"
        );
        self.stats.events += 1;
    }

    /// Decodes a whole pattern sequence, returning every completed event.
    pub fn feed_all<I>(&mut self, patterns: I) -> Vec<MonEvent>
    where
        I: IntoIterator<Item = Pattern>,
    {
        patterns.into_iter().filter_map(|p| self.feed(p)).collect()
    }

    /// Returns the detector's health counters.
    pub fn stats(&self) -> DecodeStats {
        self.stats
    }

    /// Returns `true` if an event is partially assembled.
    pub fn in_progress(&self) -> bool {
        self.group_len > 0 || self.state == State::AwaitData
    }

    /// Abandons any partial assembly and returns to idle, as the hardware
    /// would on a watchdog timeout.
    pub fn reset(&mut self) {
        if self.in_progress() {
            self.stats.discarded_partials += 1;
        }
        self.group_len = 0;
        self.state = State::BetweenPairs;
    }
}

impl Default for Decoder {
    fn default() -> Self {
        Decoder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use proptest::prelude::*;

    fn firmware(i: u8) -> Pattern {
        // Indices 8..=14: displayable but neither trigger nor data.
        Pattern::new(8 + (i % 7)).unwrap()
    }

    #[test]
    fn decodes_back_to_back_events() {
        let evs = [
            MonEvent::new(1, 10),
            MonEvent::new(2, 20),
            MonEvent::new(3, 30),
        ];
        let mut d = Decoder::new();
        let mut out = Vec::new();
        for ev in evs {
            out.extend(d.feed_all(encode(ev)));
        }
        assert_eq!(out, evs);
        assert_eq!(d.stats().events, 3);
        assert_eq!(d.stats().atomicity_violations, 0);
        assert!(!d.in_progress());
    }

    #[test]
    fn firmware_traffic_between_pairs_is_tolerated() {
        let ev = MonEvent::new(0x1234, 0xCAFE_F00D);
        let seq = encode(ev);
        let mut d = Decoder::new();
        let mut out = Vec::new();
        for (i, pair) in seq.chunks(2).enumerate() {
            // Inject firmware noise before every pair.
            assert_eq!(d.feed(firmware(i as u8)), None);
            for &p in pair {
                if let Some(e) = d.feed(p) {
                    out.push(e);
                }
            }
        }
        assert_eq!(out, vec![ev]);
        assert_eq!(d.stats().stray_patterns, 16);
        assert_eq!(d.stats().atomicity_violations, 0);
    }

    #[test]
    fn violation_within_pair_discards_event() {
        let ev = MonEvent::new(7, 7);
        let seq = encode(ev);
        let mut d = Decoder::new();
        // Feed the first pair cleanly, then break the second pair.
        assert_eq!(d.feed(seq[0]), None);
        assert_eq!(d.feed(seq[1]), None);
        assert_eq!(d.feed(seq[2]), None); // T
        assert_eq!(d.feed(firmware(0)), None); // intervening pattern!
        assert_eq!(d.stats().atomicity_violations, 1);
        assert_eq!(d.stats().discarded_partials, 1);
        // The rest of the sequence no longer assembles a full event.
        let out = d.feed_all(seq[4..].iter().copied());
        assert!(out.is_empty());
    }

    #[test]
    fn double_trigger_restarts_pair() {
        let mut d = Decoder::new();
        d.feed(Pattern::TRIGGER);
        d.feed(Pattern::TRIGGER); // violation, but T can open a new pair
        assert_eq!(d.stats().atomicity_violations, 1);
        // Now a data pattern is accepted as part of the new pair.
        assert_eq!(d.feed(Pattern::data(3)), None);
        assert!(d.in_progress());
    }

    #[test]
    fn accounting_an_event_equals_feeding_its_patterns_from_idle() {
        // From a fresh decoder and from one with history (stray
        // traffic, a discarded partial, a decoded event) but idle again.
        let mut warm = Decoder::new();
        warm.feed(firmware(3));
        warm.feed(Pattern::TRIGGER);
        warm.feed(Pattern::data(5));
        warm.feed(Pattern::TRIGGER);
        warm.feed(firmware(1));
        warm.feed_all(encode(MonEvent::new(4, 4)));
        assert!(!warm.in_progress());
        for start in [Decoder::new(), warm] {
            for ev in [MonEvent::new(0, 0), MonEvent::new(0xFFFF, u32::MAX)] {
                let mut fed = start;
                assert_eq!(fed.feed_all(encode(ev)), vec![ev]);
                let mut accounted = start;
                accounted.account_event();
                assert_eq!(accounted.stats(), fed.stats());
                assert_eq!(accounted.in_progress(), fed.in_progress());
                // Both decode the next event identically.
                let next = MonEvent::new(7, 7);
                assert_eq!(accounted.feed_all(encode(next)), fed.feed_all(encode(next)));
                assert_eq!(accounted.stats(), fed.stats());
            }
        }
    }

    #[test]
    #[should_panic(expected = "idle decoder")]
    fn accounting_an_event_mid_event_panics() {
        let mut d = Decoder::new();
        d.feed(Pattern::TRIGGER);
        d.account_event();
    }

    #[test]
    fn reset_discards_partial() {
        let mut d = Decoder::new();
        let seq = encode(MonEvent::new(1, 1));
        for &p in &seq[..6] {
            d.feed(p);
        }
        assert!(d.in_progress());
        d.reset();
        assert!(!d.in_progress());
        assert_eq!(d.stats().discarded_partials, 1);
        // A clean event decodes fine afterwards.
        let ev = MonEvent::new(9, 9);
        assert_eq!(d.feed_all(encode(ev)), vec![ev]);
    }

    proptest! {
        /// Round trip through encode → decode for arbitrary events,
        /// optionally with firmware noise between pairs.
        #[test]
        fn roundtrip_with_noise(
            token in any::<u16>(),
            param in any::<u32>(),
            noise in proptest::collection::vec(8u8..15, 0..8),
        ) {
            let ev = MonEvent::new(token, param);
            let seq = encode(ev);
            let mut d = Decoder::new();
            let mut out = Vec::new();
            for (i, pair) in seq.chunks(2).enumerate() {
                if i < noise.len() {
                    d.feed(Pattern::new(noise[i]).unwrap());
                }
                for &p in pair {
                    out.extend(d.feed(p));
                }
            }
            prop_assert_eq!(out, vec![ev]);
            prop_assert_eq!(d.stats().atomicity_violations, 0);
        }

        /// The protocol carries no checksum, so a single dropped display
        /// write desynchronizes event framing: events before the drop
        /// decode exactly; events after it may be garbled — until the
        /// watchdog [`Decoder::reset`] realigns the detector at an idle
        /// boundary, after which everything decodes exactly again. (The
        /// ZM4's probe path is lossless, so this documents the failure
        /// mode and its hardware remedy rather than a live hazard.)
        #[test]
        fn dropped_pattern_desyncs_until_watchdog_reset(
            drop_event in 0usize..3,
            drop_offset in 0usize..32,
            base in any::<u16>(),
        ) {
            let events: Vec<MonEvent> =
                (0..8u32).map(|i| MonEvent::new(base.wrapping_add(i as u16), i)).collect();
            let mut d = Decoder::new();

            // Events before the drop decode exactly.
            let mut decoded_before = Vec::new();
            for ev in &events[..drop_event] {
                decoded_before.extend(d.feed_all(encode(*ev)));
            }
            prop_assert_eq!(decoded_before.as_slice(), &events[..drop_event]);

            // The damaged event plus one successor fed continuously.
            let mut damaged: Vec<Pattern> = encode(events[drop_event]).to_vec();
            damaged.remove(drop_offset);
            damaged.extend(encode(events[drop_event + 1]));
            let garbled = d.feed_all(damaged);
            // At most one (possibly fabricated) event can emerge from the
            // two damaged events' worth of patterns.
            prop_assert!(garbled.len() <= 1, "impossibly many events: {garbled:?}");

            // Watchdog: the display goes quiet, the detector resets...
            d.reset();
            // ...and every later event decodes exactly.
            for ev in &events[drop_event + 2..] {
                let out = d.feed_all(encode(*ev));
                prop_assert_eq!(out.as_slice(), std::slice::from_ref(ev));
            }
        }

        /// Arbitrary pattern streams — any of the 16 display patterns,
        /// any length, cut off anywhere (including mid-event) — never
        /// panic the detector, never yield more events than the
        /// triggerwords could frame, and a watchdog reset always
        /// resynchronizes it for the next clean event.
        #[test]
        fn arbitrary_streams_never_panic_and_resync_after_reset(
            // Segments of random patterns mixed with whole encoded
            // events, so some events do frame; the stream is then cut
            // at an arbitrary point.
            segments in proptest::collection::vec(
                (
                    any::<bool>(),
                    proptest::collection::vec(0u8..16, 0..40),
                    any::<u16>(),
                    any::<u32>(),
                ),
                0..12,
            ),
            cut in any::<usize>(),
            token in any::<u16>(),
            param in any::<u32>(),
        ) {
            let mut stream: Vec<Pattern> = Vec::new();
            for (noise, indices, t, p) in segments {
                if noise {
                    stream.extend(indices.into_iter().map(|i| Pattern::new(i).unwrap()));
                } else {
                    stream.extend(encode(MonEvent::new(t, p)));
                }
            }
            stream.truncate(cut % (stream.len() + 1));
            let mut d = Decoder::new();
            let decoded = d.feed_all(stream.iter().copied());
            let triggers = stream.iter().filter(|p| p.is_trigger()).count() as u64;
            prop_assert_eq!(decoded.len() as u64, d.stats().events);
            prop_assert!(
                d.stats().events <= triggers / PAIRS_PER_EVENT as u64,
                "{} events from {} triggerwords", d.stats().events, triggers
            );
            d.reset();
            prop_assert!(!d.in_progress());
            let ev = MonEvent::new(token, param);
            prop_assert_eq!(d.feed_all(encode(ev)), vec![ev]);
        }

        /// A stream of many events interleaved with inter-pair noise
        /// decodes every event exactly once, in order.
        #[test]
        fn stream_of_events(params in proptest::collection::vec(any::<u32>(), 1..20)) {
            let evs: Vec<MonEvent> =
                params.iter().enumerate().map(|(i, &p)| MonEvent::new(i as u16, p)).collect();
            let mut d = Decoder::new();
            let mut out = Vec::new();
            for ev in &evs {
                out.extend(d.feed_all(encode(*ev)));
            }
            prop_assert_eq!(out, evs);
        }
    }
}
