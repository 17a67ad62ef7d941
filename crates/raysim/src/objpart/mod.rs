//! Object partitioning — the other parallelization scheme of §4.1.
//!
//! "Using object partitioning, each processor takes care of a certain
//! fraction of the objects in the scene to be rendered." The paper chose
//! ray partitioning instead, trading replicated scene storage for
//! independence; this module implements the road not taken so the
//! trade-off can actually be measured:
//!
//! * each servant stores only `1/N` of the geometry
//!   ([`partition::PartitionIndex`]) — the memory win;
//! * every ray of every generation is broadcast to all servants and
//!   their answers reduced ([`wavefront`]) — the communication and
//!   master-reduction cost.
//!
//! [`run_object_partitioned`] executes the scheme on the simulated
//! machine under the same monitoring as the ray-partitioned versions,
//! so Gantt charts and utilization numbers are directly comparable
//! (`ablation_object_partitioning`).

pub mod master;
pub mod partition;
pub mod servant;
pub mod wavefront;

use std::sync::Arc;

use des::time::{SimDuration, SimTime};
use raytracer::Framebuffer;
use suprenum::NodeId;

use crate::config::AppConfig;
use crate::context::{AppStats, RenderContext, Shared};

/// Configuration of an object-partitioned run.
#[derive(Debug, Clone)]
pub struct ObjPartConfig {
    /// Scene, image and shared cost constants. `servants` is the number
    /// of partitions; version/bundle/window fields are ignored.
    pub app: AppConfig,
    /// Master cost to reduce one partition answer.
    pub reduce_per_answer: SimDuration,
    /// Master cost to shade one hit.
    pub shade_per_hit: SimDuration,
    /// Wire bytes per broadcast task.
    pub bytes_per_task: u32,
    /// Wire bytes per partition answer.
    pub bytes_per_answer: u32,
}

impl ObjPartConfig {
    /// Defaults mirroring the ray-partitioned cost model.
    pub fn new(app: AppConfig) -> ObjPartConfig {
        ObjPartConfig {
            app,
            reduce_per_answer: SimDuration::from_micros(40),
            shade_per_hit: SimDuration::from_micros(250),
            bytes_per_task: 48,
            bytes_per_answer: 40,
        }
    }
}

/// Result of an object-partitioned run.
#[derive(Debug)]
pub struct ObjRunResult {
    /// How the run ended.
    pub outcome: suprenum::RunOutcome,
    /// The rendered image.
    pub image: Framebuffer,
    /// The merged monitoring trace.
    pub trace: simple::Trace,
    /// Broadcast rounds executed.
    pub rounds: u32,
    /// The machine (ground truth, stats, interconnect counters).
    pub machine: suprenum::Machine,
    /// Largest per-servant geometry footprint, in objects — the memory
    /// argument for this scheme.
    pub max_objects_per_servant: usize,
}

impl ObjRunResult {
    /// Returns `true` if the run completed.
    pub fn completed(&self) -> bool {
        self.outcome.reason == suprenum::RunEnd::Completed
    }
}

/// Runs the object-partitioned renderer on the simulated machine.
///
/// # Panics
///
/// Panics if the application configuration is invalid.
pub fn run_object_partitioned(cfg: ObjPartConfig, seed: u64, horizon: SimTime) -> ObjRunResult {
    cfg.app
        .validate()
        .expect("invalid application configuration");
    let machine_cfg = pipeline::machine_for(u32::from(cfg.app.servants) + 1);
    let mut machine = suprenum::Machine::new(machine_cfg, seed).expect("valid machine");

    let cfg = Arc::new(cfg);
    let ctx = RenderContext::new(&cfg.app);
    let stats = Shared::new(AppStats::default());
    let fb = Shared::new(Framebuffer::new(cfg.app.width, cfg.app.height));
    let rounds = Shared::new(0u32);
    let max_objects = ctx
        .scene()
        .primitive_count()
        .div_ceil(cfg.app.servants as usize);

    let master = master::ObjMaster::new(cfg.clone(), ctx, stats, fb.clone(), rounds.clone());
    machine.add_process(NodeId::new(0), master);
    let outcome = machine.run(horizon);

    let samples = pipeline::probe_samples(&machine);
    let channels = machine.topology().total_nodes() as usize;
    let measurement = zm4::Zm4::new(zm4::Zm4Config::default(), channels, seed).observe(&samples);
    let trace = pipeline::to_simple_trace(&measurement);

    let image = fb.unwrap_or_clone();
    let rounds = *rounds.borrow();
    ObjRunResult {
        outcome,
        image,
        trace,
        rounds,
        machine,
        max_objects_per_servant: max_objects,
    }
}
