//! Static ray partitioning — the baseline the paper's §4.1 argues
//! against.
//!
//! "With ray partitioning, it may either be predetermined which rays are
//! processed by a particular processor (static ray partitioning) … The
//! performance of static ray partitioning is often quite poor because
//! the computation time for a single ray varies significantly … This
//! results in a load balancing problem which can be at least partly
//! solved by assigning discontinuous subsets of rays to the processors,
//! instead of assigning continuous subsets such as rectangular patches."
//!
//! [`StaticScheme::Contiguous`] assigns each servant a horizontal band
//! of the image (a continuous subset); [`StaticScheme::Interleaved`]
//! assigns pixel `i` to servant `i mod N` (a discontinuous subset). Both
//! send each servant its entire partition as one job up front — there is
//! no flow control and no load balancing, which is the point.

use std::sync::Arc;

use raytracer::Framebuffer;
use suprenum::{Action, Message, NodeId, ProcCtx, Process, ProcessId, Resume};

use crate::config::AppConfig;
use crate::context::{AppStats, RenderContext, Shared};
use crate::protocol::{JobMsg, ReadyMsg, ResultMsg};
use crate::servant::Servant;
use crate::tokens;

/// How pixels are statically assigned to servants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticScheme {
    /// Continuous bands (rectangular patches): poor balance, because
    /// scene content concentrates work in some bands.
    Contiguous,
    /// Discontinuous (interleaved) subsets: pixel `i` goes to servant
    /// `i mod N`, spreading expensive regions across all servants.
    Interleaved,
}

impl std::fmt::Display for StaticScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StaticScheme::Contiguous => f.write_str("static contiguous"),
            StaticScheme::Interleaved => f.write_str("static interleaved"),
        }
    }
}

/// Computes the per-servant pixel lists.
pub fn partition(total: u32, servants: u32, scheme: StaticScheme) -> Vec<Vec<u32>> {
    assert!(servants > 0, "need at least one servant");
    match scheme {
        StaticScheme::Contiguous => {
            let base = total / servants;
            let extra = total % servants;
            let mut out = Vec::with_capacity(servants as usize);
            let mut next = 0u32;
            for s in 0..servants {
                let len = base + u32::from(s < extra);
                out.push((next..next + len).collect());
                next += len;
            }
            out
        }
        StaticScheme::Interleaved => {
            let mut out = vec![Vec::new(); servants as usize];
            for i in 0..total {
                out[(i % servants) as usize].push(i);
            }
            out
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SmState {
    Boot,
    InitCompute,
    Spawning,
    AwaitReady,
    SendEmit,
    SendCompute,
    SendBlocked,
    SendEmitEnd,
    WaitEmit,
    WaitRecv,
    ReceiveEmit,
    ReceiveCompute,
    WriteEmit,
    WriteDisk,
    WriteEmitEnd,
}

/// The static-partitioning master: distributes the predetermined
/// partitions, waits for every servant's single result, writes the
/// image once, and exits.
pub struct StaticMaster {
    cfg: Arc<AppConfig>,
    ctx: Arc<RenderContext>,
    stats: Shared<AppStats>,
    fb: Shared<Framebuffer>,
    scheme: StaticScheme,
    state: SmState,
    servants: Vec<ProcessId>,
    ready: u32,
    partitions: Vec<Vec<u32>>,
    next_to_send: usize,
    results_pending: u32,
    collected: Vec<(u32, raytracer::Color)>,
    current_result_len: usize,
}

impl StaticMaster {
    /// Creates the static master for `scheme`.
    pub fn new(
        cfg: Arc<AppConfig>,
        ctx: Arc<RenderContext>,
        stats: Shared<AppStats>,
        fb: Shared<Framebuffer>,
        scheme: StaticScheme,
    ) -> Box<StaticMaster> {
        let partitions = partition(cfg.total_pixels(), cfg.servants as u32, scheme);
        Box::new(StaticMaster {
            cfg,
            ctx,
            stats,
            fb,
            scheme,
            state: SmState::Boot,
            servants: Vec::new(),
            ready: 0,
            partitions,
            next_to_send: 0,
            results_pending: 0,
            collected: Vec::new(),
            current_result_len: 0,
        })
    }

    /// The scheme in use.
    pub fn scheme(&self) -> StaticScheme {
        self.scheme
    }

    fn emit(&self, token: u16, param: u32) -> Action {
        Action::Emit { token, param }
    }

    fn next_send_or_wait(&mut self) -> Action {
        if self.next_to_send < self.partitions.len() {
            self.state = SmState::SendEmit;
            self.emit(tokens::SEND_JOBS_BEGIN, self.next_to_send as u32)
        } else {
            self.state = SmState::WaitEmit;
            self.emit(tokens::WAIT_RESULTS_BEGIN, 0)
        }
    }
}

impl Process for StaticMaster {
    fn resume(&mut self, ctx: &ProcCtx, why: Resume) -> Action {
        match (self.state, why) {
            (SmState::Boot, Resume::Start) => {
                self.state = SmState::InitCompute;
                Action::Compute(self.cfg.master_init)
            }
            (SmState::InitCompute, Resume::ComputeDone) => {
                self.state = SmState::Spawning;
                let body = Servant::new(
                    1,
                    self.cfg.clone(),
                    self.ctx.clone(),
                    self.stats.clone(),
                    ctx.pid,
                );
                Action::Spawn {
                    node: NodeId::new(1),
                    body,
                }
            }
            (SmState::Spawning, Resume::Spawned(pid)) => {
                self.servants.push(pid);
                let next = self.servants.len() as u32 + 1;
                if next <= self.cfg.servants as u32 {
                    let body = Servant::new(
                        next,
                        self.cfg.clone(),
                        self.ctx.clone(),
                        self.stats.clone(),
                        ctx.pid,
                    );
                    Action::Spawn {
                        node: NodeId::new(next as u16),
                        body,
                    }
                } else {
                    self.state = SmState::AwaitReady;
                    Action::MailboxRecv
                }
            }
            (SmState::AwaitReady, Resume::MailboxMsg(msg)) => {
                assert!(
                    msg.payload::<ReadyMsg>().is_some(),
                    "expected ready notification"
                );
                self.ready += 1;
                if self.ready < self.cfg.servants as u32 {
                    self.state = SmState::AwaitReady;
                    Action::MailboxRecv
                } else {
                    self.next_send_or_wait()
                }
            }
            (SmState::SendEmit, Resume::EmitDone) => {
                let pixels = self.partitions[self.next_to_send].len();
                self.state = SmState::SendCompute;
                Action::Compute(self.cfg.send_base + self.cfg.send_per_pixel * pixels as u64)
            }
            (SmState::SendCompute, Resume::ComputeDone) => {
                let idx = self.next_to_send;
                self.next_to_send += 1;
                let job = JobMsg {
                    job_id: idx as u32,
                    pixels: self.partitions[idx].clone(),
                };
                let bytes = job.wire_bytes();
                self.stats.borrow_mut().jobs_sent += 1;
                self.results_pending += 1;
                self.state = SmState::SendBlocked;
                Action::MailboxSend {
                    to: self.servants[idx],
                    msg: Message::new(ctx.pid, bytes, job),
                }
            }
            (SmState::SendBlocked, Resume::Sent) => {
                self.state = SmState::SendEmitEnd;
                self.emit(tokens::SEND_JOBS_END, (self.next_to_send - 1) as u32)
            }
            (SmState::SendEmitEnd, Resume::EmitDone) => self.next_send_or_wait(),
            (SmState::WaitEmit, Resume::EmitDone) => {
                self.state = SmState::WaitRecv;
                Action::MailboxRecv
            }
            (SmState::WaitRecv, Resume::MailboxMsg(msg)) => {
                let result = msg
                    .payload::<ResultMsg>()
                    .expect("static master expects results")
                    .clone();
                self.state = SmState::ReceiveEmit;
                let job_id = result.job_id;
                self.current_result_len = result.pixels.len();
                self.collected.extend(result.pixels.iter().copied());
                self.stats.borrow_mut().results_received += 1;
                self.results_pending -= 1;
                self.emit(tokens::RECEIVE_RESULTS_BEGIN, job_id)
            }
            (SmState::ReceiveEmit, Resume::EmitDone) => {
                self.state = SmState::ReceiveCompute;
                Action::Compute(
                    self.cfg.receive_base
                        + self.cfg.receive_per_pixel * self.current_result_len as u64,
                )
            }
            (SmState::ReceiveCompute, Resume::ComputeDone) => {
                if self.results_pending > 0 {
                    self.state = SmState::WaitEmit;
                    self.emit(tokens::WAIT_RESULTS_BEGIN, 0)
                } else {
                    self.state = SmState::WriteEmit;
                    self.emit(tokens::WRITE_PIXELS_BEGIN, self.collected.len() as u32)
                }
            }
            (SmState::WriteEmit, Resume::EmitDone) => {
                let mut fb = self.fb.borrow_mut();
                for &(idx, color) in &self.collected {
                    fb.set_linear(idx, color);
                }
                let bytes = self.collected.len() as u32 * self.cfg.write_bytes_per_pixel;
                self.stats.borrow_mut().disk_writes += 1;
                self.state = SmState::WriteDisk;
                Action::DiskWrite { bytes }
            }
            (SmState::WriteDisk, Resume::DiskDone) => {
                self.state = SmState::WriteEmitEnd;
                self.emit(tokens::WRITE_PIXELS_END, 0)
            }
            (SmState::WriteEmitEnd, Resume::EmitDone) => Action::Exit,
            (state, why) => panic!("static master in state {state:?} cannot handle {why:?}"),
        }
    }

    fn label(&self) -> String {
        "static-master".to_owned()
    }
}

/// Runs the static-partitioning baseline with the given scheme. The
/// `app` configuration supplies the scene, image and cost constants;
/// its version/bundle/window fields are ignored (static partitioning
/// has none). Servants deliver results directly (version-1 mechanics).
pub fn run_static(
    mut app: AppConfig,
    scheme: StaticScheme,
    seed: u64,
    horizon: des::time::SimTime,
) -> pipeline::PipelineResult<AppConfig> {
    app.version = crate::config::Version::V1;
    app.validate().expect("invalid application configuration");
    let machine_cfg = suprenum::MachineConfig::single_cluster((app.servants + 1) as u8);
    let mut machine = suprenum::Machine::new(machine_cfg, seed).expect("valid machine");

    let app = Arc::new(app);
    let ctx = RenderContext::new(&app);
    let stats = Shared::new(AppStats::default());
    let fb = Shared::new(Framebuffer::new(app.width, app.height));
    let master = StaticMaster::new(app.clone(), ctx, stats.clone(), fb.clone(), scheme);
    machine.add_process(NodeId::new(0), master);
    let outcome = machine.run(horizon);

    let samples = pipeline::probe_samples(&machine);
    let channels = machine.topology().total_nodes() as usize;
    let measurement = zm4::Zm4::new(zm4::Zm4Config::default(), channels, seed).observe(&samples);
    let trace = pipeline::to_simple_trace(&measurement);

    let output = crate::workload::RenderOutput {
        image: fb.unwrap_or_clone(),
        stats: *stats.borrow(),
    };
    let intrusion = *machine.intrusion();
    pipeline::PipelineResult {
        analysis: std::time::Duration::ZERO,
        preflight: None,
        outcome,
        measurement,
        // The samples went through `Zm4::observe`, not as emissions.
        ingest: zm4::IngestCounts::default(),
        trace,
        output,
        machine,
        intrusion,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_partition_covers_image_in_bands() {
        let parts = partition(10, 3, StaticScheme::Contiguous);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], vec![0, 1, 2, 3]);
        assert_eq!(parts[1], vec![4, 5, 6]);
        assert_eq!(parts[2], vec![7, 8, 9]);
    }

    #[test]
    fn interleaved_partition_is_discontinuous() {
        let parts = partition(10, 3, StaticScheme::Interleaved);
        assert_eq!(parts[0], vec![0, 3, 6, 9]);
        assert_eq!(parts[1], vec![1, 4, 7]);
        assert_eq!(parts[2], vec![2, 5, 8]);
    }

    #[test]
    fn partitions_are_exact_covers() {
        for scheme in [StaticScheme::Contiguous, StaticScheme::Interleaved] {
            let parts = partition(97, 5, scheme);
            let mut all: Vec<u32> = parts.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..97).collect::<Vec<_>>(), "{scheme} does not cover");
        }
    }

    #[test]
    #[should_panic(expected = "at least one servant")]
    fn zero_servants_panics() {
        partition(10, 0, StaticScheme::Contiguous);
    }
}
