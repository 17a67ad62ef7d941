//! Machine configuration with paper-anchored defaults.
//!
//! Every timing constant of the simulated machine lives here. Values
//! marked *anchor* come straight from the paper or its references; values
//! marked *calibrated* were chosen so the reproduction's behavioural
//! results (utilization ladder, Gantt shapes) match the published ones —
//! see `DESIGN.md` §2 and `EXPERIMENTS.md`.

use des::time::SimDuration;
use hybridmon::{MonitorCosts, MonitoringMode};

use crate::sched::SchedulerKind;

/// Full configuration of a simulated SUPRENUM machine.
///
/// Use [`MachineConfig::single_cluster`] or the [`Default`] impl as a
/// starting point and adjust fields as needed.
///
/// # Examples
///
/// ```
/// use suprenum::MachineConfig;
///
/// let cfg = MachineConfig::single_cluster(16);
/// assert_eq!(cfg.total_nodes(), 16);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of clusters, arranged in a torus of
    /// [`torus_cols`](Self::torus_cols) columns. *anchor*: the full
    /// machine has 16 clusters in a 4×4 torus.
    pub clusters: u8,
    /// Columns of the cluster torus.
    pub torus_cols: u8,
    /// Processing nodes per cluster. *anchor*: up to 16.
    pub nodes_per_cluster: u8,

    /// Per-rail cluster-bus bandwidth. *anchor*: 160 MByte/s, two rails.
    pub cluster_bus_bandwidth: u64,
    /// Number of independent parallel cluster-bus rails. *anchor*: 2.
    pub cluster_bus_rails: u8,
    /// Fixed protocol overhead per cluster-bus transfer (arbitration,
    /// protocol checks by the communication unit). *calibrated*.
    pub cluster_bus_overhead: SimDuration,

    /// SUPRENUM-bus (inter-cluster token ring) bandwidth. *anchor*:
    /// 25 MByte/s.
    pub ring_bandwidth: u64,
    /// Mean token acquisition latency on the ring. *calibrated*.
    pub ring_token_latency: SimDuration,
    /// Per-cluster-hop forwarding latency on the ring. *calibrated*.
    pub ring_hop_latency: SimDuration,

    /// Communication-unit DMA setup time per outgoing transfer.
    /// *calibrated*: the CU is microprogrammable and handles the entire
    /// transfer including bus request/release.
    pub cu_setup: SimDuration,
    /// Kernel latency for a node-local (same node) message. *calibrated*.
    pub local_message_latency: SimDuration,
    /// Latency of the small acknowledgement that unblocks a sender after
    /// its message is accepted. *calibrated*.
    pub ack_latency: SimDuration,
    /// CPU time the mailbox LWP spends accepting one message into the
    /// owner's queue. *calibrated*.
    pub mailbox_accept_cost: SimDuration,

    /// Context-switch time between LWPs of the same team. *anchor*:
    /// "context-switching between light-weight processes belonging to
    /// the same team is cheap (less than 1 ms)".
    pub ctx_switch: SimDuration,
    /// Context-switch time across team boundaries (full address-space
    /// switch). *calibrated*: the paper only bounds the intra-team case.
    pub ctx_switch_inter_team: SimDuration,
    /// CPU cost of creating a process on the local node. *calibrated*.
    pub spawn_cost: SimDuration,
    /// Additional latency before a remotely spawned process becomes
    /// runnable (code download, kernel round trip). *calibrated*.
    pub remote_spawn_latency: SimDuration,

    /// Fixed latency of a disk-node write (request + seek amortized).
    /// *calibrated* for late-1980s disk hardware.
    pub disk_latency: SimDuration,
    /// Disk-node streaming bandwidth. *calibrated*.
    pub disk_bandwidth: u64,

    /// Operator-set job time limit "after which the resources assigned
    /// to a user are released, even if that user's job is not yet
    /// completed … to prevent monopolization" (paper §2.2). `None`
    /// disables the limit.
    pub job_time_limit: Option<SimDuration>,
    /// Which monitoring technique instruments the run.
    pub monitoring: MonitoringMode,
    /// The per-node LWP scheduling policy. *anchor*: the real machine's
    /// kernel was non-preemptive round-robin
    /// ([`SchedulerKind::RoundRobin`], the default); the other policies
    /// explore the design space the paper's effective-synchrony finding
    /// depends on. See [`crate::sched`].
    pub scheduler: SchedulerKind,
    /// Whether the node kernel itself emits monitoring events at
    /// scheduler transitions (dispatch, block, mailbox service, exit) —
    /// the paper's stated future work ("instrumenting SUPRENUM's
    /// operating system to find more detailed information about the
    /// behaviour of the node scheduling algorithm"). Effective only
    /// under hybrid monitoring.
    pub kernel_instrumentation: bool,
    /// Extra kernel time per instrumented scheduler transition, added
    /// to the context-switch cost when kernel instrumentation is on.
    pub kernel_event_cost: SimDuration,
    /// Per-event intrusion costs.
    pub monitor_costs: MonitorCosts,
    /// Defer hybrid-monitoring display materialization: instead of
    /// pushing every pattern write into the signal log inline, the
    /// kernel records compact
    /// [`EmissionRecord`](crate::emission::EmissionRecord)s that a
    /// monitor-plane consumer drains during the run (or that expand
    /// lazily when the run ends). Behaviourally invisible — the expanded
    /// log is bit-identical — but a consumer that drains every window
    /// never stores the 32×-expanded log at all; the measurement
    /// pipeline always sets it. Only meaningful under hybrid
    /// monitoring.
    pub deferred_display: bool,
    /// Capacity of each node's software-monitoring buffer (records).
    pub software_buffer_capacity: usize,
    /// Maximum initial offset of a node's local clock (software
    /// monitoring stamps with this clock). *anchor*: multiprocessors lack
    /// a global high-resolution clock.
    pub node_clock_max_offset: SimDuration,
    /// Maximum drift of a node's local clock in parts per million.
    pub node_clock_max_drift_ppm: f64,
    /// Resolution of a node's local clock.
    pub node_clock_resolution: SimDuration,
}

impl MachineConfig {
    /// A single-cluster machine with `nodes` processing nodes — the
    /// configuration of all the paper's measurements (2 and 16 nodes).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is 0 or exceeds 16 (a cluster holds at most 16
    /// processing nodes).
    pub fn single_cluster(nodes: u8) -> Self {
        assert!(
            (1..=16).contains(&nodes),
            "a cluster holds 1..=16 processing nodes"
        );
        MachineConfig {
            clusters: 1,
            torus_cols: 1,
            nodes_per_cluster: nodes,
            ..Self::base()
        }
    }

    /// The full 16-cluster, 256-node machine in a 4×4 torus.
    pub fn full_machine() -> Self {
        MachineConfig {
            clusters: 16,
            torus_cols: 4,
            nodes_per_cluster: 16,
            ..Self::base()
        }
    }

    fn base() -> Self {
        MachineConfig {
            clusters: 1,
            torus_cols: 1,
            nodes_per_cluster: 16,
            cluster_bus_bandwidth: 160_000_000,
            cluster_bus_rails: 2,
            cluster_bus_overhead: SimDuration::from_micros(100),
            ring_bandwidth: 25_000_000,
            ring_token_latency: SimDuration::from_micros(40),
            ring_hop_latency: SimDuration::from_micros(8),
            cu_setup: SimDuration::from_micros(400),
            local_message_latency: SimDuration::from_micros(40),
            ack_latency: SimDuration::from_micros(30),
            mailbox_accept_cost: SimDuration::from_micros(300),
            ctx_switch: SimDuration::from_micros(250),
            ctx_switch_inter_team: SimDuration::from_micros(900),
            spawn_cost: SimDuration::from_micros(500),
            remote_spawn_latency: SimDuration::from_millis(2),
            disk_latency: SimDuration::from_millis(5),
            disk_bandwidth: 1_000_000,
            job_time_limit: None,
            monitoring: MonitoringMode::Hybrid,
            scheduler: SchedulerKind::RoundRobin,
            kernel_instrumentation: false,
            kernel_event_cost: SimDuration::from_micros(110),
            monitor_costs: MonitorCosts::paper_defaults(),
            deferred_display: false,
            software_buffer_capacity: 1 << 16,
            node_clock_max_offset: SimDuration::from_millis(5),
            node_clock_max_drift_ppm: 50.0,
            node_clock_resolution: SimDuration::from_micros(10),
        }
    }

    /// Total processing nodes in the machine.
    pub fn total_nodes(&self) -> u16 {
        self.clusters as u16 * self.nodes_per_cluster as u16
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.clusters == 0 {
            return Err(ConfigError::new("machine needs at least one cluster"));
        }
        if self.nodes_per_cluster == 0 || self.nodes_per_cluster > 16 {
            return Err(ConfigError::new("a cluster holds 1..=16 processing nodes"));
        }
        if self.torus_cols == 0 || !self.clusters.is_multiple_of(self.torus_cols) {
            return Err(ConfigError::new(
                "cluster count must be a multiple of torus columns",
            ));
        }
        if self.cluster_bus_rails == 0 {
            return Err(ConfigError::new("cluster bus needs at least one rail"));
        }
        if self.cluster_bus_bandwidth == 0 || self.ring_bandwidth == 0 || self.disk_bandwidth == 0 {
            return Err(ConfigError::new("bandwidths must be nonzero"));
        }
        if self.node_clock_resolution.is_zero() {
            return Err(ConfigError::new("node clock resolution must be nonzero"));
        }
        if self.software_buffer_capacity == 0 {
            return Err(ConfigError::new("software monitor buffer must be nonzero"));
        }
        if self.scheduler.validate().is_err() {
            return Err(ConfigError::new(
                "invalid scheduler selection (zero quantum or nested fuzz wrapper)",
            ));
        }
        if self.clusters > 1 {
            // Multi-cluster machines execute one engine shard per cluster
            // under a conservative-lookahead window of `ring_token_latency
            // + ring_hop_latency`: every cross-cluster effect must lie at
            // least that far in the future.
            let lookahead = self.ring_token_latency + self.ring_hop_latency;
            if lookahead.is_zero() {
                return Err(ConfigError::new(
                    "multi-cluster machines need nonzero ring token + hop latency",
                ));
            }
            if self.remote_spawn_latency < lookahead {
                return Err(ConfigError::new(
                    "remote spawn latency must cover the ring token + hop latency",
                ));
            }
        }
        Ok(())
    }
}

impl Default for MachineConfig {
    /// The paper's main measurement platform: one cluster of 16 nodes
    /// with hybrid monitoring.
    fn default() -> Self {
        MachineConfig::single_cluster(16)
    }
}

/// Error describing an invalid [`MachineConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    reason: &'static str,
}

impl ConfigError {
    fn new(reason: &'static str) -> Self {
        ConfigError { reason }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid machine configuration: {}", self.reason)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        MachineConfig::default().validate().unwrap();
        MachineConfig::single_cluster(2).validate().unwrap();
        MachineConfig::full_machine().validate().unwrap();
    }

    #[test]
    fn full_machine_shape() {
        let cfg = MachineConfig::full_machine();
        assert_eq!(cfg.total_nodes(), 256);
        assert_eq!(cfg.clusters, 16);
        assert_eq!(cfg.torus_cols, 4);
    }

    #[test]
    #[should_panic(expected = "1..=16")]
    fn oversize_cluster_panics() {
        MachineConfig::single_cluster(17);
    }

    #[test]
    fn validation_catches_bad_torus() {
        let cfg = MachineConfig {
            clusters: 6,
            torus_cols: 4,
            ..MachineConfig::full_machine()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("torus"));
    }

    #[test]
    fn validation_catches_bad_scheduler() {
        let cfg = MachineConfig {
            scheduler: SchedulerKind::Cfs {
                quantum: SimDuration::ZERO,
            },
            ..MachineConfig::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("scheduler"));
    }

    #[test]
    fn validation_catches_zero_bandwidth() {
        let cfg = MachineConfig {
            ring_bandwidth: 0,
            ..MachineConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn paper_anchor_bandwidths() {
        let cfg = MachineConfig::default();
        assert_eq!(cfg.cluster_bus_bandwidth, 160_000_000);
        assert_eq!(cfg.cluster_bus_rails, 2);
        assert_eq!(cfg.ring_bandwidth, 25_000_000);
        assert!(cfg.ctx_switch < SimDuration::from_millis(1));
    }
}
