//! One-stop facade for the SUPRENUM monitoring reproduction.
//!
//! This crate re-exports every subsystem of the workspace and provides
//! [`experiments`] — one-call functions that regenerate each figure and
//! in-text result of *Monitoring Program Behaviour on SUPRENUM*
//! (Siegle & Hofmann, ISCA 1992):
//!
//! | id | paper artifact | function |
//! |----|----------------|----------|
//! | F7 | Fig. 7: mailbox Gantt chart, 2 processors | [`experiments::fig7_mailbox_gantt`] |
//! | F8 | Fig. 8: ≈15 % servant utilization, 16 processors | [`experiments::fig8_mailbox_utilization`] |
//! | F9 | Fig. 9: communication agents, ≈29 % | [`experiments::fig9_agents`] |
//! | F10 | Fig. 10: 15/29/46/60 % version ladder | [`experiments::fig10_versions`] |
//! | E1 | complex scene: >99 % utilization | [`experiments::complex_scene`] |
//! | E2 | §3.2 intrusion: hybrid vs terminal vs software | [`experiments::intrusion_comparison`] |
//! | E3 | §3.1 event-recorder FIFO behaviour | [`experiments::fifo_stress`] |
//! | E4 | global-clock ablation (MTG on/off) | [`experiments::clock_sync_ablation`] |
//! | E5 | mailbox send anatomy (de-facto synchrony) | [`experiments::mailbox_anatomy`] |
//!
//! # Examples
//!
//! ```
//! use suprenum_monitor::experiments;
//!
//! // The mailbox microbenchmark: sending to a busy receiver blocks the
//! // sender for (almost) the receiver's whole compute phase.
//! let result = experiments::mailbox_anatomy(7);
//! assert!(result.busy_receiver_block > result.idle_receiver_block * 10);
//! ```

pub use analyzer;
pub use des;
pub use harness;
pub use hybridmon;
pub use pipeline;
pub use raysim;
pub use raytracer;
pub use simple;
pub use suprenum;
pub use zm4;

pub mod experiments;
