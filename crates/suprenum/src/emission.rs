//! Deferred display emissions: the compact form of a hybrid-monitoring
//! instrumentation event before its 32-pattern display sequence exists.
//!
//! Materializing every [`DisplayWrite`] inline dominates the kernel's
//! run time and memory on instrumented workloads (each emission expands
//! to [`WRITES_PER_EVENT`] log entries, which the run then sorts). With
//! [`MachineConfig::deferred_display`](crate::MachineConfig::deferred_display)
//! set, the kernel instead records one [`EmissionRecord`] per emission —
//! the start time, pattern spacing, node, and 48-bit payload. A
//! consumer of [`Machine::run_observed`](crate::Machine::run_observed)
//! drains the records while the machine runs, so the display writes are
//! never stored. The measurement pipeline does this on every run: it
//! hands each record to the monitor as one event (its first write
//! [`EmissionRecord::first_write_at`], its spacing and its
//! [`EmissionRecord::event`]), and expands it with
//! [`EmissionRecord::writes`] only when probe faults must act on the
//! single patterns. Records nobody drains expand into the signal log
//! when the run ends.
//!
//! [`EmissionRecord::writes`] reproduces the inline path's arithmetic
//! exactly — same start, same spacing, same pattern sequence — so the
//! expanded log is bit-identical to what the inline path would have
//! pushed, and every downstream digest is unchanged.

use des::time::{SimDuration, SimTime};
use hybridmon::encode::{encode, WRITES_PER_EVENT};
use hybridmon::MonEvent;

use crate::ids::NodeId;
use crate::signals::DisplayWrite;

/// One hybrid-monitoring emission in compact (unexpanded) form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmissionRecord {
    /// When the node's display became available for this emission (the
    /// per-node serialization point; the first pattern lands one
    /// `spacing` later).
    pub start: SimTime,
    /// Time between consecutive pattern writes of this emission.
    pub spacing: SimDuration,
    /// The emitting node (= monitor channel).
    pub node: NodeId,
    /// Event token.
    pub token: u16,
    /// Event parameter.
    pub param: u32,
}

impl EmissionRecord {
    /// Time of the first display write of this emission. Per node,
    /// first-write times are strictly increasing (the kernel's display
    /// serializer spaces emissions at least `spacing × 33` apart), which
    /// makes them a valid per-channel release order for the monitor
    /// plane.
    pub fn first_write_at(&self) -> SimTime {
        self.start + self.spacing
    }

    /// The event this emission encodes.
    pub fn event(&self) -> MonEvent {
        MonEvent::new(self.token, self.param)
    }

    /// Expands the emission into its exact display-write sequence —
    /// bit-identical to what the inline (non-deferred) kernel path
    /// pushes into the signal log.
    pub fn writes(&self) -> impl Iterator<Item = DisplayWrite> + '_ {
        encode(self.event())
            .into_iter()
            .enumerate()
            .map(move |(i, pattern)| DisplayWrite {
                time: self.start + self.spacing * (i as u64 + 1),
                node: self.node,
                pattern,
            })
    }

    /// Number of display writes this record expands to.
    pub const fn write_count() -> usize {
        WRITES_PER_EVENT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_matches_inline_arithmetic() {
        let rec = EmissionRecord {
            start: SimTime::from_micros(10),
            spacing: SimDuration::from_nanos(250),
            node: NodeId::new(3),
            token: 0x42,
            param: 7,
        };
        let writes: Vec<DisplayWrite> = rec.writes().collect();
        assert_eq!(writes.len(), WRITES_PER_EVENT);
        assert_eq!(rec.first_write_at(), writes[0].time);
        for (i, w) in writes.iter().enumerate() {
            assert_eq!(
                w.time,
                rec.start + rec.spacing * (i as u64 + 1),
                "write {i} off the inline grid"
            );
            assert_eq!(w.node, rec.node);
        }
        // The pattern sequence is the canonical encoding.
        let expected = encode(MonEvent::new(0x42, 7));
        for (w, p) in writes.iter().zip(expected) {
            assert_eq!(w.pattern, p);
        }
    }
}
