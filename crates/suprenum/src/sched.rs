//! Pluggable per-node LWP scheduling policies.
//!
//! SUPRENUM's kernel scheduled light-weight processes with a
//! non-preemptive round-robin policy, and the paper's headline finding
//! — "asynchronous" mailboxes are effectively synchronous — is a direct
//! consequence of that choice: the mailbox LWP must *win the CPU*
//! before it can accept a message, and nothing ever takes the CPU away
//! from the running process. The analyzer proves statically that the
//! property collapses under preemption (the race explorer's
//! [`AN-RACE-002`]/[`AN-RACE-004`] witnesses); this module lets the
//! simulator confirm those counterexamples *dynamically* by swapping
//! the policy out from under the kernel.
//!
//! The kernel sees a policy only through [`Scheduler`]: a ready-set it
//! may reorder, a [`Scheduler::pick_next`] decision, and two narrow
//! preemption hooks ([`Scheduler::time_slice`],
//! [`Scheduler::preempts`]) consulted exclusively while the running
//! user LWP is inside a timed compute section — kernel sections,
//! message routing, and display emissions stay atomic, mirroring the
//! real kernel's non-interruptible supervisor mode.
//!
//! Four policies ship:
//!
//! * [`RoundRobinScheduler`] — the stock machine. FIFO ready queue, no
//!   preemption. Bit-identical to the pre-trait kernel (the trace
//!   digest goldens gate this).
//! * [`PreemptiveScheduler`] — fixed priority (mailbox LWPs above user
//!   LWPs) with a configurable quantum. A mailbox arrival seizes the
//!   CPU from a computing user process, which is exactly the transition
//!   the analyzer's race explorer adds under its preemptive toggle.
//! * [`CfsScheduler`] — a CFS-style weighted-fair policy: ready LWPs
//!   are picked by minimum virtual runtime with deterministic
//!   tie-breaking, sleepers are clamped to the floor on wakeup, and
//!   mailbox wakeups preempt like CFS wakeup preemption.
//! * [`FuzzScheduler`] — seeded concurrency fuzzing as a policy: wraps
//!   any base policy and perturbs its decisions (ready-pick shuffling,
//!   injected preemption points, random slices) from a [`DetRng`]
//!   stream. Deterministic per seed: each node owns a stream derived
//!   from the machine seed and the node index, so digests reproduce
//!   across worker counts and shard settings.
//!
//! [`AN-RACE-002`]: ../../analyzer/race/index.html
//! [`AN-RACE-004`]: ../../analyzer/race/index.html

use std::collections::{HashMap, VecDeque};
use std::fmt;

use des::rng::DetRng;
use des::time::{SimDuration, SimTime};

use crate::ids::{LwpId, NodeId};

/// Default preemption quantum for the preemptive and CFS policies.
///
/// 5 ms sits well above the kernel's context-switch cost (250 µs) —
/// so quantum churn does not drown the workload — and well below the
/// paper's compute phases, so preemption points actually land inside
/// them.
pub const DEFAULT_QUANTUM: SimDuration = SimDuration::from_millis(5);

/// The narrow view of per-node kernel state a [`Scheduler`] may consult.
///
/// Policies never see the process table, mailboxes, or message queues —
/// only where they are, what time it is, and who (if anyone) holds the
/// CPU. This keeps the trait boundary honest: a policy can reorder and
/// preempt, but cannot reach around the kernel.
#[derive(Debug, Clone, Copy)]
pub struct KernelCtx {
    /// The node this scheduler instance serves.
    pub node: NodeId,
    /// Current simulation time on this node's event loop.
    pub now: SimTime,
    /// The LWP currently holding the CPU, if any.
    pub running: Option<LwpId>,
}

/// A per-node LWP scheduling policy.
///
/// One instance exists per node; the kernel routes every ready-queue
/// mutation through it. Implementations must be deterministic functions
/// of their call sequence (plus, for [`FuzzScheduler`], a seeded RNG) —
/// trace digests are gated on cross-worker reproducibility.
pub trait Scheduler {
    /// `lwp` became runnable and joins the ready set.
    fn on_ready(&mut self, lwp: LwpId, ctx: &KernelCtx);

    /// Pick and remove the next LWP to dispatch, or `None` if the ready
    /// set is empty.
    fn pick_next(&mut self, ctx: &KernelCtx) -> Option<LwpId>;

    /// `lwp` was granted the CPU (dispatch completed).
    fn on_run(&mut self, _lwp: LwpId, _ctx: &KernelCtx) {}

    /// `lwp` released the CPU: it blocked, yielded, exited, or was
    /// preempted. Not called for LWPs that never ran.
    fn on_block(&mut self, _lwp: LwpId, _ctx: &KernelCtx) {}

    /// CPU budget for the dispatch being granted; `None` means run
    /// until the LWP blocks (the stock kernel's behaviour). The kernel
    /// only enforces expiry inside timed compute sections.
    fn time_slice(&mut self, _lwp: LwpId, _ctx: &KernelCtx) -> Option<SimDuration> {
        None
    }

    /// Should `incoming`, which just became ready, preempt `running`?
    ///
    /// Consulted only while `running` is a **user** LWP inside a timed
    /// compute section and no dispatch is in flight; kernel sections
    /// and display emissions are atomic.
    fn preempts(&mut self, _running: LwpId, _incoming: LwpId, _ctx: &KernelCtx) -> bool {
        false
    }

    /// `true` if at least one LWP waits for the CPU.
    fn has_ready(&self) -> bool {
        self.ready_len() > 0
    }

    /// Number of LWPs waiting for the CPU.
    fn ready_len(&self) -> usize;

    /// Snapshot of the ready set in the policy's internal order.
    fn ready_lwps(&self) -> Vec<LwpId>;

    /// Remove `lwp` from the ready set out of band (the fuzz wrapper's
    /// steal hook). Returns `false` if it was not present.
    fn steal(&mut self, lwp: LwpId) -> bool;
}

/// Declarative scheduler selection, carried by
/// [`MachineConfig`](crate::config::MachineConfig) and threaded through
/// the pipeline, harness CLI, and artifacts.
///
/// The canonical [`name`](SchedulerKind::name) round-trips through
/// [`parse`](SchedulerKind::parse), so artifacts can record the string
/// and comparisons can match on it.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum SchedulerKind {
    /// Non-preemptive FIFO round-robin — the stock SUPRENUM kernel.
    #[default]
    RoundRobin,
    /// Fixed-priority (mailbox over user) with quantum preemption.
    Preemptive {
        /// Time slice granted to user LWPs.
        quantum: SimDuration,
    },
    /// CFS-style minimum-vruntime policy with wakeup preemption.
    Cfs {
        /// Time slice granted to user LWPs.
        quantum: SimDuration,
    },
    /// Seeded fuzzing wrapper perturbing a base policy's decisions.
    Fuzz {
        /// The policy whose decisions are perturbed.
        base: Box<SchedulerKind>,
        /// Seed for the perturbation stream (combined with the machine
        /// seed and node index, so distinct nodes draw independently).
        seed: u64,
    },
}

impl SchedulerKind {
    /// Canonical textual name: `rr`, `preempt:<quantum_us>`,
    /// `cfs:<quantum_us>`, or `fuzz:<base>:<seed>`. Round-trips through
    /// [`parse`](SchedulerKind::parse) and is the identity recorded in
    /// harness artifacts.
    pub fn name(&self) -> String {
        match self {
            SchedulerKind::RoundRobin => "rr".to_owned(),
            SchedulerKind::Preemptive { quantum } => {
                format!("preempt:{}", quantum.as_nanos() / 1_000)
            }
            SchedulerKind::Cfs { quantum } => format!("cfs:{}", quantum.as_nanos() / 1_000),
            SchedulerKind::Fuzz { base, seed } => format!("fuzz:{}:{seed}", base.name()),
        }
    }

    /// Parses a scheduler spec as accepted by the `--scheduler` CLI
    /// knob:
    ///
    /// * `rr` (or `round-robin`)
    /// * `preempt` / `preempt:<quantum_us>`
    /// * `cfs` / `cfs:<quantum_us>`
    /// * `fuzz` / `fuzz:<base>` / `fuzz:<base>:<seed>` — the trailing
    ///   integer is the seed, so a base with its own quantum needs the
    ///   seed spelled out (`fuzz:preempt:5000:7`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown policies, malformed
    /// quantums/seeds, or nested fuzz wrappers.
    pub fn parse(spec: &str) -> Result<SchedulerKind, String> {
        let (head, rest) = match spec.split_once(':') {
            Some((h, r)) => (h, Some(r)),
            None => (spec, None),
        };
        let quantum_of = |rest: Option<&str>| -> Result<SimDuration, String> {
            match rest {
                None => Ok(DEFAULT_QUANTUM),
                Some(us) => us
                    .parse::<u64>()
                    .map(SimDuration::from_micros)
                    .map_err(|_| format!("bad quantum '{us}' (want microseconds)")),
            }
        };
        match head {
            "rr" | "round-robin" => match rest {
                None => Ok(SchedulerKind::RoundRobin),
                Some(r) => Err(format!("round-robin takes no parameter (got '{r}')")),
            },
            "preempt" | "priority" => Ok(SchedulerKind::Preemptive {
                quantum: quantum_of(rest)?,
            }),
            "cfs" => Ok(SchedulerKind::Cfs {
                quantum: quantum_of(rest)?,
            }),
            "fuzz" => {
                let (base, seed) = match rest {
                    None => (SchedulerKind::RoundRobin, 0),
                    Some(r) => match r.rsplit_once(':') {
                        Some((base, seed)) if seed.parse::<u64>().is_ok() => (
                            SchedulerKind::parse(base)?,
                            seed.parse::<u64>().expect("checked above"),
                        ),
                        _ => (SchedulerKind::parse(r)?, 0),
                    },
                };
                if matches!(base, SchedulerKind::Fuzz { .. }) {
                    return Err("fuzz wrappers do not nest".to_owned());
                }
                Ok(SchedulerKind::Fuzz {
                    base: Box::new(base),
                    seed,
                })
            }
            other => Err(format!(
                "unknown scheduler '{other}' (want rr, preempt[:us], cfs[:us], or fuzz[:base[:seed]])"
            )),
        }
    }

    /// `true` for every policy that can take the CPU away from a
    /// running user LWP — everything except the stock round-robin.
    pub fn is_preemptive(&self) -> bool {
        !matches!(self, SchedulerKind::RoundRobin)
    }

    /// The fuzz seed, when this is a fuzz wrapper.
    pub fn fuzz_seed(&self) -> Option<u64> {
        match self {
            SchedulerKind::Fuzz { seed, .. } => Some(*seed),
            _ => None,
        }
    }

    /// Validates the selection (no nested fuzz wrappers, non-zero
    /// quantums).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message describing the first problem.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            SchedulerKind::RoundRobin => Ok(()),
            SchedulerKind::Preemptive { quantum } | SchedulerKind::Cfs { quantum } => {
                if quantum.is_zero() {
                    Err("scheduler quantum must be non-zero".to_owned())
                } else {
                    Ok(())
                }
            }
            SchedulerKind::Fuzz { base, .. } => {
                if matches!(**base, SchedulerKind::Fuzz { .. }) {
                    Err("fuzz wrappers do not nest".to_owned())
                } else {
                    base.validate()
                }
            }
        }
    }

    /// Builds one per-node policy instance. `rng` seeds the fuzz
    /// wrapper's perturbation stream and is ignored by deterministic
    /// policies; the kernel derives it from the machine seed and the
    /// global node index.
    pub fn build(&self, rng: DetRng) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::RoundRobin => Box::new(RoundRobinScheduler::new()),
            SchedulerKind::Preemptive { quantum } => Box::new(PreemptiveScheduler::new(*quantum)),
            SchedulerKind::Cfs { quantum } => Box::new(CfsScheduler::new(*quantum)),
            SchedulerKind::Fuzz { base, seed } => Box::new(FuzzScheduler::new(
                base.build(rng.derive("fuzz-base")),
                rng.derive_indexed("fuzz", *seed),
            )),
        }
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// The stock SUPRENUM policy: FIFO ready queue, no preemption.
///
/// Every hook is the identity the pre-trait kernel hard-wired, so runs
/// under this policy are bit-identical to the pre-refactor goldens.
#[derive(Debug, Default)]
pub struct RoundRobinScheduler {
    ready: VecDeque<LwpId>,
}

impl RoundRobinScheduler {
    /// Creates an empty round-robin ready queue.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RoundRobinScheduler {
    fn on_ready(&mut self, lwp: LwpId, _ctx: &KernelCtx) {
        self.ready.push_back(lwp);
    }

    fn pick_next(&mut self, _ctx: &KernelCtx) -> Option<LwpId> {
        self.ready.pop_front()
    }

    fn ready_len(&self) -> usize {
        self.ready.len()
    }

    fn ready_lwps(&self) -> Vec<LwpId> {
        self.ready.iter().copied().collect()
    }

    fn steal(&mut self, lwp: LwpId) -> bool {
        match self.ready.iter().position(|&l| l == lwp) {
            Some(idx) => {
                self.ready.remove(idx);
                true
            }
            None => false,
        }
    }
}

/// Fixed-priority preemptive policy: mailbox LWPs outrank user LWPs,
/// and a mailbox arrival seizes the CPU from a computing user process.
///
/// This is precisely the scheduler the analyzer's race explorer's
/// preemptive toggle describes — under it the kernel no longer keeps
/// the sender blocked until the receiver's mailbox wins the CPU
/// round-robin style, so the paper's effective-synchrony property
/// collapses and the AN-RACE-004 monitoring interleaving becomes
/// observable in recorded traces.
#[derive(Debug)]
pub struct PreemptiveScheduler {
    quantum: SimDuration,
    ready: VecDeque<LwpId>,
}

impl PreemptiveScheduler {
    /// Creates the policy with the given user-LWP quantum.
    pub fn new(quantum: SimDuration) -> Self {
        PreemptiveScheduler {
            quantum,
            ready: VecDeque::new(),
        }
    }
}

impl Scheduler for PreemptiveScheduler {
    fn on_ready(&mut self, lwp: LwpId, _ctx: &KernelCtx) {
        self.ready.push_back(lwp);
    }

    fn pick_next(&mut self, _ctx: &KernelCtx) -> Option<LwpId> {
        match self.ready.iter().position(|l| l.is_mailbox()) {
            Some(idx) => self.ready.remove(idx),
            None => self.ready.pop_front(),
        }
    }

    fn time_slice(&mut self, lwp: LwpId, _ctx: &KernelCtx) -> Option<SimDuration> {
        (!lwp.is_mailbox()).then_some(self.quantum)
    }

    fn preempts(&mut self, running: LwpId, incoming: LwpId, _ctx: &KernelCtx) -> bool {
        incoming.is_mailbox() && !running.is_mailbox()
    }

    fn ready_len(&self) -> usize {
        self.ready.len()
    }

    fn ready_lwps(&self) -> Vec<LwpId> {
        self.ready.iter().copied().collect()
    }

    fn steal(&mut self, lwp: LwpId) -> bool {
        match self.ready.iter().position(|&l| l == lwp) {
            Some(idx) => {
                self.ready.remove(idx);
                true
            }
            None => false,
        }
    }
}

/// CFS-style policy: pick the ready LWP with the minimum virtual
/// runtime, deterministic tie-break by enqueue order.
///
/// Virtual runtime is charged wall-clock (all weights equal) between
/// [`Scheduler::on_run`] and [`Scheduler::on_block`]. Wakers are
/// clamped to the policy's monotonic vruntime floor so long sleepers
/// cannot monopolise the CPU afterwards, and a waking mailbox LWP
/// preempts a computing user LWP — CFS wakeup preemption, which keeps
/// this policy in the same preemptive family as
/// [`PreemptiveScheduler`] for race-model purposes.
#[derive(Debug)]
pub struct CfsScheduler {
    quantum: SimDuration,
    /// Ready set with enqueue sequence numbers for deterministic ties.
    ready: Vec<(LwpId, u64)>,
    /// Accumulated virtual runtime per LWP, surviving blocks.
    vruntime: HashMap<LwpId, u64>,
    /// `(lwp, since)` while an LWP holds the CPU.
    run_start: Option<(LwpId, SimTime)>,
    /// Monotonic floor: new and waking LWPs never enqueue below this.
    min_vruntime: u64,
    next_seq: u64,
}

impl CfsScheduler {
    /// Creates the policy with the given user-LWP quantum.
    pub fn new(quantum: SimDuration) -> Self {
        CfsScheduler {
            quantum,
            ready: Vec::new(),
            vruntime: HashMap::new(),
            run_start: None,
            min_vruntime: 0,
            next_seq: 0,
        }
    }

    fn vrt(&self, lwp: LwpId) -> u64 {
        self.vruntime
            .get(&lwp)
            .copied()
            .unwrap_or(self.min_vruntime)
    }
}

impl Scheduler for CfsScheduler {
    fn on_ready(&mut self, lwp: LwpId, _ctx: &KernelCtx) {
        let clamped = self.vrt(lwp).max(self.min_vruntime);
        self.vruntime.insert(lwp, clamped);
        self.ready.push((lwp, self.next_seq));
        self.next_seq += 1;
    }

    fn pick_next(&mut self, _ctx: &KernelCtx) -> Option<LwpId> {
        let best = self
            .ready
            .iter()
            .enumerate()
            .min_by_key(|(_, &(lwp, seq))| (self.vrt(lwp), seq))
            .map(|(idx, _)| idx)?;
        let (lwp, _) = self.ready.remove(best);
        self.min_vruntime = self.min_vruntime.max(self.vrt(lwp));
        Some(lwp)
    }

    fn on_run(&mut self, lwp: LwpId, ctx: &KernelCtx) {
        self.run_start = Some((lwp, ctx.now));
    }

    fn on_block(&mut self, lwp: LwpId, ctx: &KernelCtx) {
        if let Some((running, since)) = self.run_start.take() {
            if running == lwp {
                let charge = (ctx.now - since).as_nanos();
                *self.vruntime.entry(lwp).or_insert(self.min_vruntime) += charge;
            } else {
                self.run_start = Some((running, since));
            }
        }
    }

    fn time_slice(&mut self, lwp: LwpId, _ctx: &KernelCtx) -> Option<SimDuration> {
        (!lwp.is_mailbox()).then_some(self.quantum)
    }

    fn preempts(&mut self, running: LwpId, incoming: LwpId, _ctx: &KernelCtx) -> bool {
        incoming.is_mailbox() && !running.is_mailbox()
    }

    fn ready_len(&self) -> usize {
        self.ready.len()
    }

    fn ready_lwps(&self) -> Vec<LwpId> {
        self.ready.iter().map(|&(lwp, _)| lwp).collect()
    }

    fn steal(&mut self, lwp: LwpId) -> bool {
        match self.ready.iter().position(|&(l, _)| l == lwp) {
            Some(idx) => {
                self.ready.remove(idx);
                true
            }
            None => false,
        }
    }
}

/// Probability the fuzz wrapper overrides the base policy's pick with a
/// uniformly random ready LWP.
const FUZZ_SHUFFLE_P: f64 = 0.25;
/// Probability an injected preemption point fires on a wakeup the base
/// policy would let run to completion.
const FUZZ_PREEMPT_P: f64 = 0.125;
/// Probability a dispatch the base policy left unbounded gets a random
/// time slice.
const FUZZ_SLICE_P: f64 = 0.25;

/// Seeded concurrency fuzzing as a first-class policy.
///
/// Wraps any base policy and perturbs its decisions from a [`DetRng`]
/// stream: ready-queue picks are shuffled, preemption points are
/// injected on wakeups, and random time slices bound dispatches the
/// base left unbounded. Every perturbation is a pure function of the
/// (machine seed, fuzz seed, node index) stream and the per-node call
/// sequence — which the engine keeps deterministic across worker
/// counts — so a fuzz run's trace digest reproduces exactly for a given
/// seed.
pub struct FuzzScheduler {
    base: Box<dyn Scheduler>,
    rng: DetRng,
}

impl FuzzScheduler {
    /// Wraps `base`, drawing perturbations from `rng`.
    pub fn new(base: Box<dyn Scheduler>, rng: DetRng) -> Self {
        FuzzScheduler { base, rng }
    }
}

impl fmt::Debug for FuzzScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FuzzScheduler")
            .field("seed", &self.rng.seed())
            .finish_non_exhaustive()
    }
}

impl Scheduler for FuzzScheduler {
    fn on_ready(&mut self, lwp: LwpId, ctx: &KernelCtx) {
        self.base.on_ready(lwp, ctx);
    }

    fn pick_next(&mut self, ctx: &KernelCtx) -> Option<LwpId> {
        let len = self.base.ready_len();
        if len > 1 && self.rng.uniform() < FUZZ_SHUFFLE_P {
            let victims = self.base.ready_lwps();
            let pick = victims[self.rng.uniform_u64(0, victims.len() as u64) as usize];
            if self.base.steal(pick) {
                return Some(pick);
            }
        }
        self.base.pick_next(ctx)
    }

    fn on_run(&mut self, lwp: LwpId, ctx: &KernelCtx) {
        self.base.on_run(lwp, ctx);
    }

    fn on_block(&mut self, lwp: LwpId, ctx: &KernelCtx) {
        self.base.on_block(lwp, ctx);
    }

    fn time_slice(&mut self, lwp: LwpId, ctx: &KernelCtx) -> Option<SimDuration> {
        match self.base.time_slice(lwp, ctx) {
            Some(q) => Some(q),
            None if !lwp.is_mailbox() && self.rng.uniform() < FUZZ_SLICE_P => {
                Some(SimDuration::from_micros(self.rng.uniform_u64(500, 8_000)))
            }
            None => None,
        }
    }

    fn preempts(&mut self, running: LwpId, incoming: LwpId, ctx: &KernelCtx) -> bool {
        // Draw unconditionally so the stream does not depend on the
        // base policy's answer.
        let injected = self.rng.uniform() < FUZZ_PREEMPT_P;
        self.base.preempts(running, incoming, ctx) || (injected && !running.is_mailbox())
    }

    fn ready_len(&self) -> usize {
        self.base.ready_len()
    }

    fn ready_lwps(&self) -> Vec<LwpId> {
        self.base.ready_lwps()
    }

    fn steal(&mut self, lwp: LwpId) -> bool {
        self.base.steal(lwp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProcessId;

    fn ctx() -> KernelCtx {
        KernelCtx {
            node: NodeId::new(0),
            now: SimTime::ZERO,
            running: None,
        }
    }

    fn user(raw: u32) -> LwpId {
        LwpId::User(ProcessId::new(raw))
    }

    fn mbox(raw: u32) -> LwpId {
        LwpId::Mailbox(ProcessId::new(raw))
    }

    #[test]
    fn names_round_trip_through_parse() {
        let kinds = [
            SchedulerKind::RoundRobin,
            SchedulerKind::Preemptive {
                quantum: SimDuration::from_micros(5_000),
            },
            SchedulerKind::Cfs {
                quantum: SimDuration::from_micros(1_250),
            },
            SchedulerKind::Fuzz {
                base: Box::new(SchedulerKind::Preemptive {
                    quantum: SimDuration::from_micros(5_000),
                }),
                seed: 7,
            },
        ];
        for kind in kinds {
            let reparsed = SchedulerKind::parse(&kind.name()).expect("canonical name parses");
            assert_eq!(reparsed, kind, "{} did not round-trip", kind.name());
        }
    }

    #[test]
    fn parse_accepts_shorthand() {
        assert_eq!(
            SchedulerKind::parse("rr").unwrap(),
            SchedulerKind::RoundRobin
        );
        assert_eq!(
            SchedulerKind::parse("preempt").unwrap(),
            SchedulerKind::Preemptive {
                quantum: DEFAULT_QUANTUM
            }
        );
        assert_eq!(
            SchedulerKind::parse("cfs:250").unwrap(),
            SchedulerKind::Cfs {
                quantum: SimDuration::from_micros(250)
            }
        );
        assert_eq!(
            SchedulerKind::parse("fuzz").unwrap(),
            SchedulerKind::Fuzz {
                base: Box::new(SchedulerKind::RoundRobin),
                seed: 0
            }
        );
        assert_eq!(
            SchedulerKind::parse("fuzz:cfs:9").unwrap(),
            SchedulerKind::Fuzz {
                base: Box::new(SchedulerKind::Cfs {
                    quantum: DEFAULT_QUANTUM
                }),
                seed: 9
            }
        );
    }

    #[test]
    fn parse_rejects_nonsense() {
        assert!(SchedulerKind::parse("fifo").is_err());
        assert!(SchedulerKind::parse("preempt:abc").is_err());
        assert!(SchedulerKind::parse("fuzz:fuzz:rr:1").is_err());
        assert!(SchedulerKind::parse("rr:5").is_err());
    }

    #[test]
    fn validate_rejects_zero_quantum() {
        assert!(SchedulerKind::Preemptive {
            quantum: SimDuration::ZERO
        }
        .validate()
        .is_err());
        assert!(SchedulerKind::default().validate().is_ok());
    }

    #[test]
    fn round_robin_is_fifo_and_never_preempts() {
        let mut s = RoundRobinScheduler::new();
        let c = ctx();
        s.on_ready(user(1), &c);
        s.on_ready(mbox(2), &c);
        s.on_ready(user(3), &c);
        assert_eq!(s.time_slice(user(1), &c), None);
        assert!(!s.preempts(user(1), mbox(2), &c));
        assert_eq!(s.pick_next(&c), Some(user(1)));
        assert_eq!(s.pick_next(&c), Some(mbox(2)));
        assert_eq!(s.pick_next(&c), Some(user(3)));
        assert_eq!(s.pick_next(&c), None);
    }

    #[test]
    fn preemptive_prioritises_mailboxes() {
        let mut s = PreemptiveScheduler::new(DEFAULT_QUANTUM);
        let c = ctx();
        s.on_ready(user(1), &c);
        s.on_ready(mbox(2), &c);
        assert_eq!(s.pick_next(&c), Some(mbox(2)), "mailbox outranks user");
        assert_eq!(s.pick_next(&c), Some(user(1)));
        assert!(s.preempts(user(1), mbox(2), &c));
        assert!(!s.preempts(mbox(2), mbox(3), &c));
        assert_eq!(s.time_slice(user(1), &c), Some(DEFAULT_QUANTUM));
        assert_eq!(s.time_slice(mbox(2), &c), None);
    }

    #[test]
    fn cfs_picks_minimum_vruntime_with_stable_ties() {
        let mut s = CfsScheduler::new(DEFAULT_QUANTUM);
        let c = ctx();
        s.on_ready(user(1), &c);
        s.on_ready(user(2), &c);
        // Equal vruntime: enqueue order breaks the tie.
        assert_eq!(s.pick_next(&c), Some(user(1)));
        s.on_run(user(1), &c);
        let later = KernelCtx {
            now: SimTime::from_millis(10),
            ..c
        };
        s.on_block(user(1), &later);
        s.on_ready(user(1), &later);
        // User 1 accumulated 10ms of vruntime; user 2 has none.
        assert_eq!(s.pick_next(&later), Some(user(2)));
    }

    #[test]
    fn fuzz_is_deterministic_per_seed_and_diverges_across_seeds() {
        let run = |seed: u64| -> Vec<LwpId> {
            let kind = SchedulerKind::Fuzz {
                base: Box::new(SchedulerKind::RoundRobin),
                seed,
            };
            let mut s = kind.build(DetRng::new(42).derive_indexed("sched", 0));
            let c = ctx();
            let mut picked = Vec::new();
            for round in 0..64u32 {
                s.on_ready(user(round * 2 + 1), &c);
                s.on_ready(mbox(round * 2 + 2), &c);
                picked.extend(s.pick_next(&c));
                picked.extend(s.pick_next(&c));
            }
            picked
        };
        assert_eq!(run(7), run(7), "same seed must replay identically");
        assert_ne!(run(7), run(8), "different seeds should perturb picks");
    }
}
