//! From machine signals to monitor samples to SIMPLE traces.
//!
//! These conversions are the glue the pipeline owns: every workload's
//! seven-segment display writes become ZM4 probe samples (channel =
//! node index), and every ZM4 measurement's merged trace becomes
//! SIMPLE events ready for evaluation.

use suprenum::Machine;
use zm4::{Measurement, ProbeSample};

use simple::Trace;

/// Streams a machine's display signal log as ZM4 probe samples without
/// copying them (channel = node index). The signal log is globally
/// time-sorted, hence per-channel time-sorted — exactly the
/// precondition of [`zm4::Zm4::observe_iter`].
///
/// This reads the log a direct [`Machine::run`] materializes: it is the
/// materialized oracle of the pipeline's streamed monitor plane, not a
/// hot path. A machine run by [`crate::run_workload`] keeps no display
/// writes, so the iterator is empty there.
pub fn probe_sample_iter(machine: &Machine) -> impl Iterator<Item = ProbeSample> + '_ {
    machine
        .signals()
        .display_writes()
        .iter()
        .map(|w| ProbeSample {
            time: w.time,
            channel: w.node.index() as usize,
            pattern: w.pattern,
        })
}

/// Converts a machine's display signal log into ZM4 probe samples
/// (channel = node index), collected into a vector; see
/// [`probe_sample_iter`].
pub fn probe_samples(machine: &Machine) -> Vec<ProbeSample> {
    probe_sample_iter(machine).collect()
}

/// Converts a ZM4 measurement's merged trace into SIMPLE events.
pub fn to_simple_trace(measurement: &Measurement) -> Trace {
    measurement
        .trace
        .iter()
        .map(|r| {
            simple::Event::new(
                r.ts_ns,
                r.channel,
                r.event.token.value(),
                r.event.param.value(),
            )
        })
        .collect()
}
