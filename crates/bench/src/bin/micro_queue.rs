//! Hot-path microbenchmarks: event queue, trace codec, recorder ingest.
//!
//! Run with `cargo run --release -p bench --bin micro_queue`. Covers the
//! hot paths of the event and monitor planes:
//!
//! * `EventQueue` (calendar) vs `queue::reference::ReferenceQueue`
//!   (binary heap) under the classic hold model, equal-timestamp bursts,
//!   and horizon-spanning delays;
//! * hybridmon encode → decode round trips;
//! * recorder ingest into a `Vec` sink vs the incremental `DigestSink`;
//! * monitor ingest over the same compact kernel `EmissionRecord`s,
//!   three ways: each record handed whole to `Observer::feed_emission`
//!   (the pipeline's fault-free monitor plane: one detected event per
//!   emission, no pattern expanded); each record expanded into its 32
//!   probe samples and fed to `Observer::feed` (the pattern path the
//!   pipeline takes under probe faults, minus the fault layer); and
//!   `Zm4::observe_iter` over the same samples pre-expanded. Throughput
//!   is per emission.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use suprenum_monitor::des::clock::ClockModel;
use suprenum_monitor::des::queue::reference::ReferenceQueue;
use suprenum_monitor::des::queue::EventQueue;
use suprenum_monitor::des::time::{SimDuration, SimTime};
use suprenum_monitor::hybridmon::encode::encode;
use suprenum_monitor::hybridmon::{Decoder, MonEvent};
use suprenum_monitor::suprenum::{EmissionRecord, NodeId};
use suprenum_monitor::zm4::{
    DetectedEvent, DigestSink, EventRecorder, Observer, ProbeSample, Zm4, Zm4Config,
};

/// Deterministic xorshift so both queue implementations see the same
/// delay sequence (no external RNG dependency in a bench bin).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// The hold model: seed the queue with `population` events, then
/// repeatedly pop the minimum and push a successor a pseudo-random
/// `delay` later. Steady-state churn — the access pattern a simulation
/// kernel produces.
fn hold<Q>(
    push: impl Fn(&mut Q, SimTime, u64),
    pop: impl Fn(&mut Q) -> Option<(SimTime, u64)>,
    queue: &mut Q,
    population: u64,
    holds: u64,
    max_delay_ns: u64,
) -> u64 {
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    for k in 0..population {
        push(queue, SimTime::from_nanos(rng.next() % max_delay_ns), k);
    }
    let mut acc = 0u64;
    for k in 0..holds {
        let (t, id) = pop(queue).expect("population never drains");
        acc = acc.wrapping_add(t.as_nanos()).wrapping_add(id);
        push(
            queue,
            t + SimDuration::from_nanos(rng.next() % max_delay_ns),
            k,
        );
    }
    acc
}

fn bench_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    const HOLDS: u64 = 20_000;
    g.throughput(Throughput::Elements(HOLDS));
    // Delay shapes: short (fits the calendar window), burst (all equal
    // timestamps — FIFO tie-break stress), spanning (delays far beyond
    // the calendar window, forcing the far heap + re-anchor path).
    for &(label, max_delay) in &[
        ("short_delays", 5_000u64),
        ("equal_time_bursts", 1),
        ("horizon_spanning", 40_000_000_000),
    ] {
        g.bench_function(&format!("calendar/{label}"), |b| {
            b.iter(|| {
                let mut q = EventQueue::with_capacity(1_024);
                hold(
                    |q: &mut EventQueue<u64>, t, e| q.push(t, e),
                    EventQueue::pop,
                    &mut q,
                    1_024,
                    HOLDS,
                    max_delay.max(1),
                )
            });
        });
        g.bench_function(&format!("reference_heap/{label}"), |b| {
            b.iter(|| {
                let mut q = ReferenceQueue::with_capacity(1_024);
                hold(
                    |q: &mut ReferenceQueue<u64>, t, e| q.push(t, e),
                    ReferenceQueue::pop,
                    &mut q,
                    1_024,
                    HOLDS,
                    max_delay.max(1),
                )
            });
        });
    }
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    const EVENTS: u64 = 2_000;
    g.throughput(Throughput::Elements(EVENTS));
    let events: Vec<MonEvent> = (0..EVENTS)
        .map(|k| MonEvent::new((k % 65_536) as u16, k as u32))
        .collect();
    g.bench_function("encode_decode_roundtrip", |b| {
        b.iter(|| {
            let mut decoder = Decoder::new();
            let mut decoded = 0u64;
            for &ev in &events {
                for p in encode(ev) {
                    if let Some(out) = decoder.feed(p) {
                        debug_assert_eq!(out, ev);
                        decoded += 1;
                    }
                }
            }
            black_box(decoded)
        });
    });
    g.finish();
}

fn bench_recorder_sinks(c: &mut Criterion) {
    let mut g = c.benchmark_group("recorder_ingest");
    const EVENTS: u64 = 10_000;
    g.throughput(Throughput::Elements(EVENTS));
    let events: Vec<DetectedEvent> = (0..EVENTS)
        .map(|k| DetectedEvent {
            time: SimTime::from_nanos(1_000 + k * 150_000),
            channel: (k % 4) as usize,
            event: MonEvent::new((k % 65_536) as u16, k as u32),
        })
        .collect();
    g.bench_function("vec_sink", |b| {
        b.iter(|| {
            let clock = ClockModel::synchronized(SimDuration::from_nanos(100));
            let mut rec = EventRecorder::new(clock, 32 * 1024, SimDuration::from_micros(100));
            for &ev in &events {
                rec.record(ev);
            }
            black_box(rec.finish())
        });
    });
    g.bench_function("digest_sink", |b| {
        b.iter(|| {
            let clock = ClockModel::synchronized(SimDuration::from_nanos(100));
            let mut rec = EventRecorder::with_sink(
                clock,
                32 * 1024,
                SimDuration::from_micros(100),
                DigestSink::new(),
            );
            for &ev in &events {
                rec.record(ev);
            }
            black_box(rec.finish())
        });
    });
    g.finish();
}

/// Expands one emission into its probe samples and feeds them, as the
/// pipeline's monitor plane does under probe faults (minus the faults).
fn feed_expanded(observer: &mut Observer, rec: &EmissionRecord) {
    for w in rec.writes() {
        observer.feed(ProbeSample {
            time: w.time,
            channel: w.node.index() as usize,
            pattern: w.pattern,
        });
    }
}

fn bench_monitor_ingest(c: &mut Criterion) {
    let mut g = c.benchmark_group("monitor_ingest");
    const EMISSIONS: u64 = 2_000;
    const CHANNELS: u16 = 16;
    g.throughput(Throughput::Elements(EMISSIONS));
    // A deterministic emission stream over 16 nodes: each node's
    // emissions are serialized at least 33 pattern spacings apart (the
    // kernel's display serializer), with jitter so channels interleave.
    let spacing = SimDuration::from_nanos(3_400);
    let mut rng = XorShift(0x2545_f491_4f6c_dd1d);
    let mut next_start = vec![SimTime::ZERO; usize::from(CHANNELS)];
    let records: Vec<EmissionRecord> = (0..EMISSIONS)
        .map(|k| {
            let node = (k % u64::from(CHANNELS)) as u16;
            let slot = &mut next_start[usize::from(node)];
            let start = *slot + SimDuration::from_nanos(rng.next() % 50_000);
            *slot = start + spacing * 33;
            EmissionRecord {
                start,
                spacing,
                node: NodeId::new(node),
                token: (k % 1_024) as u16,
                param: k as u32,
            }
        })
        .collect();
    let samples: Vec<ProbeSample> = records
        .iter()
        .flat_map(|rec| {
            rec.writes().map(|w| ProbeSample {
                time: w.time,
                channel: w.node.index() as usize,
                pattern: w.pattern,
            })
        })
        .collect();
    let zm4 = Zm4::new(Zm4Config::default(), usize::from(CHANNELS), 1992);
    // Hands one emission to the observer whole, as the pipeline's
    // fault-free monitor plane does.
    let feed_whole = |observer: &mut Observer, rec: &EmissionRecord| {
        observer.feed_emission(
            rec.node.index() as usize,
            rec.first_write_at(),
            rec.spacing,
            rec.event(),
        );
    };
    // All three paths must measure the same thing before they are timed.
    let mut observer = zm4.observer();
    for rec in &records {
        feed_expanded(&mut observer, rec);
    }
    let streamed = observer.finish();
    assert_eq!(streamed.trace.len(), EMISSIONS as usize);
    assert_eq!(
        streamed.trace,
        zm4.observe_iter(samples.iter().copied()).trace
    );
    let mut observer = zm4.observer();
    for rec in &records {
        feed_whole(&mut observer, rec);
    }
    assert_eq!(observer.ingest_counts().event_path, EMISSIONS);
    let granular = observer.finish();
    assert_eq!(granular.trace, streamed.trace);
    assert_eq!(granular.detector_stats, streamed.detector_stats);
    assert_eq!(granular.recorder_stats, streamed.recorder_stats);

    g.bench_function("observer_feed_from_emissions", |b| {
        b.iter(|| {
            let mut observer = zm4.observer();
            for rec in &records {
                feed_expanded(&mut observer, rec);
            }
            black_box(observer.finish())
        });
    });
    g.bench_function("observer_feed_event_granular", |b| {
        b.iter(|| {
            let mut observer = zm4.observer();
            for rec in &records {
                feed_whole(&mut observer, black_box(rec));
            }
            black_box(observer.finish())
        });
    });
    g.bench_function("observe_iter_pre_expanded", |b| {
        b.iter(|| black_box(zm4.observe_iter(samples.iter().copied())));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_queue,
    bench_codec,
    bench_recorder_sinks,
    bench_monitor_ingest
);
criterion_main!(benches);
