//! # sim-core
//!
//! The execution substrate for the reproduction of *Abusing Cache Line Dirty
//! States to Leak Information in Commercial Processors* (HPCA 2022): a
//! simulated hyper-threaded core with a time-stamp counter, OS noise and
//! per-process address spaces, sitting on top of the [`sim_cache`]
//! hierarchy.
//!
//! The paper's attack environment is two Linux processes pinned to the two
//! hyper-threads of one Xeon E5-2650 core.  The pieces of that environment
//! that matter for the channel are modelled here:
//!
//! * [`machine::Machine`] — the core itself: a cycle clock, the cache
//!   hierarchy and the interleaving session executor
//!   ([`machine::Machine::run_session`]) for concurrent hardware threads.
//!   Each thread's [`session::ProgramReport`] carries its access counts
//!   (the simulator's version of Linux `perf`).
//! * [`tsc`] — the `rdtscp` measurement model (serialisation overhead,
//!   granularity, jitter) used for all latency measurements.
//! * [`process`] / [`memlayout`] — separate address spaces (no shared memory)
//!   and the construction of target-set lines and replacement sets from
//!   virtual addresses.
//! * [`memlayout::Sweeps`],
//!   [`session::TraceProgram::chase_shuffled`] and
//!   [`machine::Machine::measured_chase`] — the randomly permuted,
//!   serialised pointer-chasing measurement walk of the paper's Figure 3.
//! * [`sched`] — OS interruption noise, the source of bit-insertion and
//!   bit-loss errors.
//! * [`noise`] / [`workload`] — noisy-cache-line injectors (Figure 8) and the
//!   `g++`-like benign co-runner used for the stealthiness baselines
//!   (Tables VI and VII).
//! * [`session`] — compiled [`session::TraceProgram`]s and the reports of
//!   [`machine::Machine::run_session`], the one multi-thread executor: the
//!   covert channel, the noise processes and the stealth runs all compile
//!   onto it (the `g++` co-runner as a stream refilled chunk by chunk).
//! * [`telemetry`] — cycle-domain span/counter tracing: a
//!   zero-overhead-when-disabled [`telemetry::TraceSink`] recorded by the
//!   session executor, exported as Chrome trace-event JSON.
//!
//! ## Example: measuring a replacement sweep
//!
//! ```rust
//! use sim_core::machine::{Machine, MachineConfig};
//! use sim_core::memlayout::SetLines;
//! use sim_core::process::{AddressSpace, ProcessId};
//! use sim_cache::policy::PolicyKind;
//! use sim_cache::trace::TraceOp;
//!
//! # fn main() -> Result<(), sim_cache::Error> {
//! let mut machine = Machine::new(MachineConfig::ideal(PolicyKind::TrueLru, 1))?;
//! let geometry = machine.l1_geometry();
//! let receiver = AddressSpace::new(ProcessId(1));
//! let replacement = SetLines::build(receiver, geometry, 13, 10, 1_000);
//!
//! // Warm the lines, then measure a sweep of the target set.
//! let warm: Vec<TraceOp> = replacement.lines().iter().map(|&l| TraceOp::read(l)).collect();
//! machine.run_trace(1, &warm);
//! let (measured, _true_latency) = machine.measured_chase(1, replacement.lines());
//! assert!(measured > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod machine;
pub mod memlayout;
pub mod noise;
pub mod process;
pub mod sched;
pub mod session;
pub mod telemetry;
pub mod tsc;
pub mod verify;
pub mod workload;

/// Convenient glob-import of the most frequently used types.
pub mod prelude {
    pub use crate::machine::{Machine, MachineConfig};
    pub use crate::memlayout::{ChannelLayout, SetLines};
    pub use crate::process::{AddressSpace, ProcessId};
    pub use crate::sched::InterruptConfig;
    pub use crate::session::{Measurement, ProgramReport, SessionReport, TraceProgram, TraceStep};
    pub use crate::telemetry::{BitDecision, Phase, PhaseCycles, TraceEvent, TraceSink};
    pub use crate::tsc::{TscConfig, TscModel};
    pub use crate::verify::{ProgramDiagnostic, ProgramStats, Severity};
}
