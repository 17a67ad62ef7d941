//! The process programming model.
//!
//! SUPRENUM user programs consist of processes that compute, exchange
//! messages (synchronously or through mailboxes) and may create further
//! processes. The simulator expresses a process as a resumable state
//! machine: the kernel calls [`Process::resume`] with the reason the
//! process woke up ([`Resume`]) and the process answers with its next
//! action ([`Action`]). Actions that take simulated time (compute, I/O,
//! blocking communication) suspend the process until the kernel resumes
//! it again.
//!
//! This is the classic "process = explicit continuation" encoding of
//! discrete-event simulation; it keeps the whole machine single-threaded
//! and deterministic.
//!
//! # Examples
//!
//! A process that computes for 1 ms, emits a monitoring event, and exits:
//!
//! ```
//! use des::time::SimDuration;
//! use suprenum::{Action, ProcCtx, Process, Resume};
//!
//! struct OneShot {
//!     step: u8,
//! }
//!
//! impl Process for OneShot {
//!     fn resume(&mut self, _ctx: &ProcCtx, _why: Resume) -> Action {
//!         self.step += 1;
//!         match self.step {
//!             1 => Action::Compute(SimDuration::from_millis(1)),
//!             2 => Action::Emit { token: 0x10, param: 0 },
//!             _ => Action::Exit,
//!         }
//!     }
//! }
//! ```

use des::time::{SimDuration, SimTime};

use crate::ids::{CondId, NodeId, ProcessId};
use crate::message::Message;

/// Read-only context the kernel passes to every [`Process::resume`] call.
#[derive(Debug, Clone, Copy)]
pub struct ProcCtx {
    /// The process's own id.
    pub pid: ProcessId,
    /// The node the process runs on.
    pub node: NodeId,
    /// Current simulated time.
    pub now: SimTime,
}

/// Why the kernel resumed a process.
#[derive(Debug)]
pub enum Resume {
    /// First activation after the process was created.
    Start,
    /// A [`Action::Compute`] span finished.
    ComputeDone,
    /// A blocking send completed: the message was accepted by the
    /// receiver (synchronous send) or by the receiver's mailbox process
    /// (mailbox send).
    Sent,
    /// A synchronous receive completed with this message.
    Msg(Message),
    /// A mailbox read completed with this message.
    MailboxMsg(Message),
    /// A spawned child process was created with this id.
    Spawned(ProcessId),
    /// An [`Action::Emit`] instrumentation call finished.
    EmitDone,
    /// An [`Action::Sleep`] elapsed.
    Slept,
    /// A disk write completed.
    DiskDone,
    /// The awaited condition was signalled.
    Signalled,
    /// A [`Action::SignalCond`] completed (the signaller continues
    /// immediately).
    SignalSent,
    /// A yield completed and the process was rescheduled.
    Yielded,
}

/// The next thing a process wants the kernel to do.
#[derive(Debug)]
pub enum Action {
    /// Occupy the CPU for the given time, then resume with
    /// [`Resume::ComputeDone`].
    Compute(SimDuration),
    /// Synchronous send: block until the receiver accepts the message in
    /// a [`Action::Recv`], then resume with [`Resume::Sent`].
    SendSync {
        /// Destination process.
        to: ProcessId,
        /// The message.
        msg: Message,
    },
    /// Blocking synchronous receive from any sender; resumes with
    /// [`Resume::Msg`].
    Recv,
    /// Asynchronous send via the destination's mailbox. **Observed
    /// SUPRENUM semantics**: the sender still blocks until the receiving
    /// node's mailbox LWP is actually *scheduled* and accepts the
    /// message — which under non-preemptive round-robin only happens
    /// once the currently running process on that node blocks or yields.
    /// Resumes with [`Resume::Sent`].
    MailboxSend {
        /// Destination process (owner of the mailbox).
        to: ProcessId,
        /// The message.
        msg: Message,
    },
    /// Read own mailbox; blocks if empty. Resumes with
    /// [`Resume::MailboxMsg`].
    MailboxRecv,
    /// Relinquish the CPU; rejoin the back of the ready queue. Resumes
    /// with [`Resume::Yielded`].
    Yield,
    /// Block for the given simulated time; resumes with [`Resume::Slept`].
    Sleep(SimDuration),
    /// Create a new process on `node`; resumes with [`Resume::Spawned`].
    Spawn {
        /// Node to create the process on.
        node: NodeId,
        /// The process body.
        body: Box<dyn Process>,
    },
    /// Call `hybrid_mon(token, param)` (or the configured monitoring
    /// technique's equivalent); resumes with [`Resume::EmitDone`].
    Emit {
        /// The 16-bit event token.
        token: u16,
        /// The 32-bit parameter.
        param: u32,
    },
    /// Write `bytes` to the cluster's disk node; blocks until complete
    /// (the CPU is free for other LWPs meanwhile). Resumes with
    /// [`Resume::DiskDone`].
    DiskWrite {
        /// Payload size in bytes.
        bytes: u32,
    },
    /// Block until another process signals `cond`; resumes with
    /// [`Resume::Signalled`].
    WaitCond(CondId),
    /// Wake every process waiting on `cond`; continues immediately with
    /// [`Resume::SignalSent`].
    SignalCond(CondId),
    /// Terminate. If the *initial* process exits, the whole application
    /// terminates (paper §2.2).
    Exit,
}

/// A resumable process body.
///
/// Implementations are state machines: each [`resume`](Process::resume)
/// call advances the process to its next blocking action. The kernel
/// guarantees that between two `resume` calls of the *same* process no
/// other process runs on that node unless the action blocks — matching
/// SUPRENUM's non-preemptive scheduling.
///
/// Bodies must be `Send`, a bound that dates from a threaded engine:
/// every run now executes in one thread, and remote spawns carry the
/// boxed body across the cluster-partition boundary within it. `Sync`
/// is not required and per-process interior mutability needs no
/// locking.
pub trait Process: Send {
    /// Advances the process and returns its next action.
    fn resume(&mut self, ctx: &ProcCtx, why: Resume) -> Action;

    /// A short label for traces and ground-truth records.
    fn label(&self) -> String {
        "process".to_owned()
    }
}

impl std::fmt::Debug for dyn Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Process({})", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl Process for Nop {
        fn resume(&mut self, _ctx: &ProcCtx, _why: Resume) -> Action {
            Action::Exit
        }
    }

    #[test]
    fn default_label() {
        let p = Nop;
        assert_eq!(p.label(), "process");
        let boxed: Box<dyn Process> = Box::new(Nop);
        assert_eq!(format!("{boxed:?}"), "Process(process)");
    }

    #[test]
    fn ctx_is_copy() {
        let ctx = ProcCtx {
            pid: ProcessId::new(1),
            node: NodeId::new(0),
            now: SimTime::ZERO,
        };
        let copy = ctx;
        assert_eq!(copy.pid, ctx.pid);
    }
}
