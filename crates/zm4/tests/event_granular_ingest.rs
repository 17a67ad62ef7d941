//! The event-granular ingest against its oracle, the pattern path.
//!
//! [`Observer::feed_emission`] may skip an emission's 32 patterns when
//! the channel's decoder is idle. These tests build random per-channel
//! streams shaped like the kernel's display serializer (emissions that
//! never overlap on their channel) and mix in raw pattern segments the
//! kernel never writes but a probe could see: firmware/stray patterns,
//! truncated emissions and emissions with a corrupted pair. Those
//! segments leave decoders mid-event when the next emission arrives, so
//! the fallback that expands the patterns runs too. Feeding emissions
//! whole must measure exactly what feeding every pattern measures.

use des::time::{SimDuration, SimTime};
use hybridmon::encode::encode;
use hybridmon::{MonEvent, Pattern};
use proptest::prelude::*;
use zm4::{IngestCounts, Measurement, Observer, ProbeSample, Zm4, Zm4Config};

/// One piece of a channel's stream. It starts a gap after the channel's
/// previous piece ended (see [`place`]).
#[derive(Debug, Clone)]
enum Segment {
    /// A clean emission: the 32 patterns of `event`, `spacing_ns` apart.
    Emission { spacing_ns: u64, event: MonEvent },
    /// Arbitrary display patterns (firmware status traffic, noise).
    Stray(Vec<u8>),
    /// The first `keep` patterns of an emission.
    Truncated { event: MonEvent, keep: usize },
    /// An emission with pattern `at` XOR-ed by a nonzero mask, so one
    /// pair carries a different (still valid) pattern word.
    Corrupted {
        event: MonEvent,
        at: usize,
        mask: u8,
    },
}

/// Pattern spacing of the raw segments.
const RAW_SPACING: SimDuration = SimDuration::from_nanos(700);

fn event() -> impl Strategy<Value = MonEvent> {
    (any::<u16>(), any::<u32>()).prop_map(|(token, param)| MonEvent::new(token, param))
}

/// A segment and the gap before it, in nanoseconds. A zero gap puts
/// the segment's first pattern at the time of the previous last one.
/// Two thirds of the segments are clean emissions; the rest split
/// evenly among the three raw kinds.
fn gapped_segment() -> impl Strategy<Value = (u64, Segment)> {
    (
        0u64..20_000,
        0u8..9,
        1u64..4_000,
        event(),
        proptest::collection::vec(0u8..16, 1..6),
        (1usize..32, 0usize..32, 1u8..16),
    )
        .prop_map(|(gap, kind, spacing_ns, event, stray, (keep, at, mask))| {
            let segment = match kind {
                0 => Segment::Stray(stray),
                1 => Segment::Truncated { event, keep },
                2 => Segment::Corrupted { event, at, mask },
                _ => Segment::Emission { spacing_ns, event },
            };
            (gap, segment)
        })
}

/// One segment placed on its channel's timeline.
#[derive(Debug, Clone)]
struct Placed {
    channel: usize,
    start: SimTime,
    /// `Some((spacing, event))` for a clean emission.
    emission: Option<(SimDuration, MonEvent)>,
    /// Every probe sample of the segment, in time order.
    samples: Vec<ProbeSample>,
}

/// Lays every channel's segments end to end: each piece starts at or
/// after the previous piece's last pattern, never before. Channels
/// then interleave by segment start, as the kernel's windows drain the
/// records of every node; per-channel order is kept.
fn place(channels: &[Vec<(u64, Segment)>]) -> Vec<Placed> {
    let mut placed = Vec::new();
    for (channel, segments) in channels.iter().enumerate() {
        let mut end = SimTime::from_nanos(1_000 + 311 * channel as u64);
        for (gap_ns, seg) in segments {
            let start = end + SimDuration::from_nanos(*gap_ns);
            let (emission, spacing, patterns) = match *seg {
                Segment::Emission { spacing_ns, event } => {
                    let spacing = SimDuration::from_nanos(spacing_ns);
                    (Some((spacing, event)), spacing, encode(event).to_vec())
                }
                Segment::Stray(ref indices) => {
                    let patterns = indices.iter().map(|&i| Pattern::new(i).unwrap());
                    (None, RAW_SPACING, patterns.collect())
                }
                Segment::Truncated { event, keep } => {
                    (None, RAW_SPACING, encode(event)[..keep].to_vec())
                }
                Segment::Corrupted { event, at, mask } => {
                    let mut patterns = encode(event);
                    patterns[at] = Pattern::new(patterns[at].index() ^ mask).unwrap();
                    (None, RAW_SPACING, patterns.to_vec())
                }
            };
            let samples: Vec<ProbeSample> = patterns
                .into_iter()
                .enumerate()
                .map(|(i, pattern)| ProbeSample {
                    time: start + spacing * i as u64,
                    channel,
                    pattern,
                })
                .collect();
            end = samples.last().expect("segments are never empty").time;
            placed.push(Placed {
                channel,
                start,
                emission,
                samples,
            });
        }
    }
    placed.sort_by_key(|p| p.start);
    placed
}

/// Feeds every clean emission whole and every raw segment pattern by
/// pattern.
fn mixed_feed(zm4: &Zm4, placed: &[Placed]) -> (Measurement, IngestCounts) {
    let mut observer: Observer = zm4.observer();
    for p in placed {
        match p.emission {
            Some((spacing, event)) => {
                observer.feed_emission(p.channel, p.start, spacing, event);
            }
            None => p.samples.iter().for_each(|&s| observer.feed(s)),
        }
    }
    let counts = observer.ingest_counts();
    (observer.finish(), counts)
}

/// The oracle: every pattern of every segment through `feed`.
fn pattern_feed(zm4: &Zm4, placed: &[Placed]) -> Measurement {
    let mut observer = zm4.observer();
    for s in placed.iter().flat_map(|p| &p.samples) {
        observer.feed(*s);
    }
    observer.finish()
}

fn assert_same(a: &Measurement, b: &Measurement) {
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.detector_stats, b.detector_stats);
    assert_eq!(a.recorder_stats, b.recorder_stats);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Mixed event/pattern feeds measure bit-identically to the
    /// all-pattern feed: same merged trace, same per-channel decode
    /// counters, same per-recorder FIFO statistics — with synchronized
    /// or free-running clocks and with FIFOs small enough to overflow.
    #[test]
    fn event_granular_ingest_matches_the_pattern_path(
        channels in proptest::collection::vec(
            proptest::collection::vec(gapped_segment(), 0..24),
            1..7,
        ),
        streams_per_recorder in 1usize..4,
        // The paper's FIFO, or one small enough to overflow.
        fifo_capacity in (any::<bool>(), 1usize..6)
            .prop_map(|(full, small)| if full { 32 * 1024 } else { small }),
        mtg_synchronized in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let cfg = Zm4Config {
            streams_per_recorder,
            fifo_capacity,
            mtg_synchronized,
            ..Zm4Config::default()
        };
        let zm4 = Zm4::new(cfg, channels.len(), seed);
        let placed = place(&channels);
        let emissions = placed.iter().filter(|p| p.emission.is_some()).count() as u64;

        let (mixed, counts) = mixed_feed(&zm4, &placed);
        let oracle = pattern_feed(&zm4, &placed);
        prop_assert_eq!(&mixed.trace, &oracle.trace);
        prop_assert_eq!(&mixed.detector_stats, &oracle.detector_stats);
        prop_assert_eq!(&mixed.recorder_stats, &oracle.recorder_stats);
        prop_assert_eq!(counts.event_path + counts.pattern_path, emissions);
    }
}

fn emission(token: u16) -> (u64, Segment) {
    let event = MonEvent::new(token, 9);
    (
        1_000,
        Segment::Emission {
            spacing_ns: 3_400,
            event,
        },
    )
}

/// A truncated emission leaves the decoder mid-event; the next clean
/// emission then takes the pattern path and both feeds still agree.
#[test]
fn an_emission_after_a_truncated_one_falls_back_to_patterns() {
    let truncated = Segment::Truncated {
        event: MonEvent::new(2, 2),
        keep: 7,
    };
    let channels = vec![
        vec![emission(1), (1_000, truncated), emission(3), emission(4)],
        vec![emission(5), emission(6)],
    ];
    let zm4 = Zm4::new(Zm4Config::default(), 2, 11);
    let placed = place(&channels);
    let (mixed, counts) = mixed_feed(&zm4, &placed);
    assert_eq!(
        counts,
        IngestCounts {
            event_path: 4,
            pattern_path: 1,
        }
    );
    let oracle = pattern_feed(&zm4, &placed);
    assert_same(&mixed, &oracle);
    // Seven patterns leave a triggerword awaiting its data: emission 3's
    // first triggerword is a violation that discards the partial, and
    // emission 3 itself still decodes.
    assert_eq!(mixed.detector_stats[0].atomicity_violations, 1);
    assert_eq!(mixed.detector_stats[0].discarded_partials, 1);
    assert_eq!(mixed.trace.len(), 5);
}

/// Without any raw segment every emission takes the event path, and
/// the measurement equals the one `Zm4::observe` makes of the
/// materialized samples.
#[test]
fn clean_streams_take_the_event_path_only() {
    let channels: Vec<Vec<(u64, Segment)>> = (0..5u16)
        .map(|ch| (0..20u16).map(|k| emission(ch << 8 | k)).collect())
        .collect();
    let zm4 = Zm4::new(Zm4Config::default(), 5, 3);
    let placed = place(&channels);
    let (mixed, counts) = mixed_feed(&zm4, &placed);
    assert_eq!(
        counts,
        IngestCounts {
            event_path: 100,
            pattern_path: 0,
        }
    );
    assert_eq!(mixed.trace.len(), 100);
    let samples: Vec<ProbeSample> = placed.iter().flat_map(|p| p.samples.clone()).collect();
    assert_same(&mixed, &zm4.observe(&samples));
}
