//! Compiled trace programs: the data the session executor runs.
//!
//! A [`TraceProgram`] is the *compiled* form of one party of an experiment —
//! the WB sender's per-symbol store bursts, the receiver's init loads,
//! measured sweeps and period waits, a noise process's periodic touches —
//! expressed as a flat step list over two arenas (batched [`TraceOp`]s and
//! chase addresses).  [`crate::machine::Machine::run_session`] interleaves
//! several programs (plus any [`crate::workload::CompilerWorkload`]
//! co-runners, whose open-loop streams it refills chunk by chunk) on the
//! shared cache hierarchy: one scheduling turn per operation, per-turn
//! OS-interrupt polls, earliest-ready-first with lowest-index tie-breaking,
//! and a cycle deadline.  Consecutive operations of one program run
//! back-to-back whenever nothing else could be scheduled between them —
//! which is what makes full covert-channel frames run at batch speed (see
//! the `wb-channel` row of `repro bench-sim`).
//!
//! ## Timing vocabulary
//!
//! Programs reference times three ways:
//!
//! * **absolute** — [`TraceStep::WaitEpoch`] targets a fixed cycle (the
//!   agreed rendezvous epoch) and latches it as the anchor;
//! * **anchored** — [`TraceStep::Anchor`] latches the issue time of the next
//!   operation into the program's anchor register, and
//!   [`TraceStep::WaitAnchor`] waits until `anchor + offset`.  This is the
//!   `Tlast` discipline of the paper's Algorithm 3: a period begins when its
//!   first action issues (interrupt stalls included), not when the previous
//!   wait nominally expired;
//! * **relative** — [`TraceStep::WaitRel`] waits `offset` cycles from the
//!   step's own issue time (a noise process's touch interval).

use crate::telemetry::{Phase, PhaseCycles};
use rand::seq::SliceRandom;
use rand::Rng;
use sim_cache::addr::PhysAddr;
use sim_cache::line::DomainId;
use sim_cache::trace::{TraceOp, TraceSummary};

/// One step of a compiled [`TraceProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceStep {
    /// Execute the ops-arena range `start..end`, one scheduling turn per op
    /// (identical interleaving to issuing each op as its own action).
    Ops {
        /// First op (inclusive) in the program's op arena.
        start: usize,
        /// One past the last op.
        end: usize,
    },
    /// A measured, fully serialised pointer chase over the chase-arena range
    /// `start..end` — one scheduling turn, one `rdtscp` measurement.
    Chase {
        /// First address (inclusive) in the program's chase arena.
        start: usize,
        /// One past the last address.
        end: usize,
    },
    /// Spin until the absolute cycle `target` **and** latch `target` as the
    /// program's anchor — the rendezvous-epoch wait of the WB sender, whose
    /// first period starts at the epoch regardless of when the wait ends.
    WaitEpoch {
        /// Absolute target cycle, also the new anchor value.
        target: u64,
    },
    /// Spin until `anchor + offset` (one transmission period after the
    /// current period's start).
    WaitAnchor {
        /// Offset past the anchor, in cycles.
        offset: u64,
    },
    /// Latch `max(issue time, floor)` as the anchor and spin until
    /// `anchor + offset` — the receiver's first-sample alignment (`floor` is
    /// the agreed epoch, `offset` the sampling phase).
    WaitFloor {
        /// Lower bound on the anchor (the rendezvous epoch).
        floor: u64,
        /// Offset past the anchor, in cycles.
        offset: u64,
    },
    /// Spin for `offset` cycles from this step's own issue time.
    WaitRel {
        /// Relative wait length in cycles.
        offset: u64,
    },
    /// Latch the issue time of the next operation as the program's anchor.
    /// Markers consume no scheduling turn: the anchor is read at the moment
    /// the *following* step issues, after any interrupt stalls.
    Anchor,
}

/// A compiled per-domain schedule: steps over an op arena and a chase arena.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceProgram {
    name: String,
    domain: DomainId,
    ops: Vec<TraceOp>,
    chase_addrs: Vec<PhysAddr>,
    steps: Vec<TraceStep>,
    /// Telemetry phase of each step, parallel to `steps` — the compiler's
    /// span annotations, consulted by the session executor when a trace
    /// sink is recording and by `repro check --verbose` for coverage.
    phases: Vec<Phase>,
    /// The phase subsequently appended steps are attributed to.
    current_phase: Phase,
}

impl TraceProgram {
    /// Creates an empty program for `domain`.
    pub fn new<S: Into<String>>(name: S, domain: DomainId) -> TraceProgram {
        TraceProgram {
            name: name.into(),
            domain,
            ops: Vec::new(),
            chase_addrs: Vec::new(),
            steps: Vec::new(),
            phases: Vec::new(),
            current_phase: Phase::Other,
        }
    }

    /// Short name used in reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cache attribution domain this program runs as.
    pub fn domain(&self) -> DomainId {
        self.domain
    }

    /// The compiled steps.
    pub fn steps(&self) -> &[TraceStep] {
        &self.steps
    }

    /// The telemetry phase of step `index` ([`Phase::Other`] out of range).
    pub fn step_phase(&self, index: usize) -> Phase {
        self.phases.get(index).copied().unwrap_or(Phase::Other)
    }

    /// Span-coverage profile: `(attributed, total)` step counts, where a
    /// step is *attributed* when the compiler tagged it with a phase other
    /// than [`Phase::Other`]. Anything unattributed is a protocol phase the
    /// telemetry layer cannot see — `repro check --verbose` warns on it.
    pub fn phase_coverage(&self) -> (usize, usize) {
        let attributed = self.phases.iter().filter(|&&p| p != Phase::Other).count();
        (attributed, self.steps.len())
    }

    /// The op arena that [`TraceStep::Ops`] ranges index.
    pub fn op_arena(&self) -> &[TraceOp] {
        &self.ops
    }

    /// The address arena that [`TraceStep::Chase`] ranges index.
    pub fn chase_arena(&self) -> &[PhysAddr] {
        &self.chase_addrs
    }

    /// Total scheduling turns this program will take (one per op, chase,
    /// wait and the final Done), assuming it runs to completion.
    pub fn action_count(&self) -> u64 {
        let turns: u64 = self
            .steps
            .iter()
            .map(|step| match step {
                TraceStep::Ops { start, end } => (end - start) as u64,
                TraceStep::Anchor => 0,
                _ => 1,
            })
            .sum();
        turns + 1 // the Done turn
    }

    /// Sets the telemetry phase subsequently appended steps are attributed
    /// to (sticky until the next call).
    pub fn phase(&mut self, phase: Phase) -> &mut Self {
        self.current_phase = phase;
        self
    }

    /// Reserves room for at least `steps` more steps, `ops` more ops and
    /// `chase` more chase addresses, so a compile that knows its size up
    /// front grows no arena while it appends.
    pub fn reserve(&mut self, steps: usize, ops: usize, chase: usize) -> &mut Self {
        self.steps.reserve(steps);
        self.phases.reserve(steps);
        self.ops.reserve(ops);
        self.chase_addrs.reserve(chase);
        self
    }

    /// Appends one step, tagging it with the current telemetry phase.
    fn push_step(&mut self, step: TraceStep) {
        self.steps.push(step);
        self.phases.push(self.current_phase);
    }

    /// Appends a batch of ops (one scheduling turn each).
    pub fn ops<I: IntoIterator<Item = TraceOp>>(&mut self, ops: I) -> &mut Self {
        let start = self.ops.len();
        self.ops.extend(ops);
        let end = self.ops.len();
        if end > start {
            self.push_step(TraceStep::Ops { start, end });
        }
        self
    }

    /// Appends a single demand load.
    pub fn load(&mut self, addr: PhysAddr) -> &mut Self {
        self.ops([TraceOp::read(addr)])
    }

    /// Appends a single demand store.
    pub fn store(&mut self, addr: PhysAddr) -> &mut Self {
        self.ops([TraceOp::write(addr)])
    }

    /// Appends a measured pointer chase over `addrs`.
    pub fn chase(&mut self, addrs: &[PhysAddr]) -> &mut Self {
        let start = self.chase_addrs.len();
        self.chase_addrs.extend_from_slice(addrs);
        self.push_step(TraceStep::Chase {
            start,
            end: self.chase_addrs.len(),
        });
        self
    }

    /// Appends a measured pointer chase over `lines` in a random order: the
    /// lines are copied into the chase arena and the appended slice is
    /// shuffled in place with `rng`.  The draws and the resulting order are
    /// those of shuffling a copy of `lines`, without the intermediate copy.
    pub fn chase_shuffled<R: Rng + ?Sized>(
        &mut self,
        lines: &[PhysAddr],
        rng: &mut R,
    ) -> &mut Self {
        let start = self.chase_addrs.len();
        self.chase(lines);
        self.chase_addrs[start..].shuffle(rng);
        self
    }

    /// Appends the rendezvous-epoch wait (absolute wait that also anchors).
    pub fn wait_epoch(&mut self, target: u64) -> &mut Self {
        self.push_step(TraceStep::WaitEpoch { target });
        self
    }

    /// Appends a wait until `anchor + offset`.
    pub fn wait_anchor(&mut self, offset: u64) -> &mut Self {
        self.push_step(TraceStep::WaitAnchor { offset });
        self
    }

    /// Appends the anchored floor wait (`anchor := max(now, floor)`, wait
    /// until `anchor + offset`).
    pub fn wait_floor(&mut self, floor: u64, offset: u64) -> &mut Self {
        self.push_step(TraceStep::WaitFloor { floor, offset });
        self
    }

    /// Appends a wait of `offset` cycles relative to its own issue time.
    pub fn wait_rel(&mut self, offset: u64) -> &mut Self {
        self.push_step(TraceStep::WaitRel { offset });
        self
    }

    /// Appends an anchor marker (no scheduling turn).
    pub fn anchor(&mut self) -> &mut Self {
        self.push_step(TraceStep::Anchor);
        self
    }

    /// Empties the arenas and steps (keeping their capacity, the name and
    /// the domain) and resets the phase to [`Phase::Other`].  Every
    /// in-place compile starts here: the reused chunk arena of a refilled
    /// co-runner stream, and the per-frame programs a channel session keeps
    /// for its whole life.
    pub fn clear(&mut self) {
        self.ops.clear();
        self.chase_addrs.clear();
        self.steps.clear();
        self.phases.clear();
        self.current_phase = Phase::Other;
    }

    /// Appends a raw step without the builder's arena bookkeeping — the
    /// escape hatch [`crate::verify`]'s negative-path tests use to build
    /// ill-formed programs the safe builder cannot express.
    #[cfg(test)]
    pub(crate) fn push_raw_step(&mut self, step: TraceStep) -> &mut Self {
        self.push_step(step);
        self
    }
}

/// One `rdtscp` measurement taken by a program's [`TraceStep::Chase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Measurement {
    /// Cycle at which the measured operation finished.
    pub at: u64,
    /// The value the `rdtscp` pair reported (noise model applied).
    pub measured: u64,
}

/// Per-program outcome of one [`crate::machine::Machine::run_session`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramReport {
    /// The program's name.
    pub name: String,
    /// The program's domain.
    pub domain: DomainId,
    /// Aggregate of every memory operation the program executed: its
    /// loads, stores and per-level hits and misses (Tables VI and VII read
    /// the sender's).
    pub summary: TraceSummary,
    /// The measurements taken by `Chase` steps, in order.
    pub measurements: Vec<Measurement>,
    /// Scheduling turns consumed (ops + chases + waits + Done).
    pub actions: u64,
    /// Cycles spent stalled by OS interruptions.
    pub stalled_cycles: u64,
    /// Whether the program ran to completion before the deadline.
    pub finished: bool,
    /// Simulated cycles attributed to each telemetry phase, from the
    /// program's step annotations. Pure sim-cycle arithmetic: identical
    /// whether or not a trace sink was recording.
    pub phase_cycles: PhaseCycles,
}

impl ProgramReport {
    /// The measured latencies only, in observation order.
    pub fn latencies(&self) -> Vec<u64> {
        self.measurements.iter().map(|m| m.measured).collect()
    }
}

/// Outcome of one [`crate::machine::Machine::run_session`] invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Cycle at which the session stopped.
    pub finished_at: u64,
    /// Whether the cycle limit ended the session (rather than every thread
    /// finishing).
    pub hit_limit: bool,
    /// One report per compiled program, in input order, followed by one per
    /// co-runner.
    pub programs: Vec<ProgramReport>,
}

impl SessionReport {
    /// Per-phase cycle attribution summed over every program.
    pub fn phase_cycles(&self) -> PhaseCycles {
        let mut total = PhaseCycles::default();
        for program in &self.programs {
            total.merge(&program.phase_cycles);
        }
        total
    }
}

impl SessionReport {
    /// The report of the program named `name`, if any.
    pub fn program(&self, name: &str) -> Option<&ProgramReport> {
        self.programs.iter().find(|p| p.name == name)
    }

    /// Sum of all program summaries (simulated work of the whole session).
    pub fn total_summary(&self) -> TraceSummary {
        let mut total = TraceSummary::default();
        for program in &self.programs {
            total.merge(&program.summary);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_steps_and_arenas() {
        let mut program = TraceProgram::new("p", 3);
        program
            .load(PhysAddr(0x40))
            .store(PhysAddr(0x80))
            .wait_epoch(1_000)
            .anchor()
            .chase(&[PhysAddr(0xc0), PhysAddr(0x100)])
            .wait_anchor(500)
            .wait_rel(10)
            .wait_floor(2_000, 250)
            .wait_epoch(9_000);
        assert_eq!(program.name(), "p");
        assert_eq!(program.domain(), 3);
        assert_eq!(program.steps().len(), 9);
        assert_eq!(program.op_arena().len(), 2);
        assert_eq!(program.chase_arena().len(), 2);
        // 2 ops + 1 chase + 5 waits + Done; the anchor marker is free.
        assert_eq!(program.action_count(), 9);
    }

    #[test]
    fn phase_annotations_are_sticky_and_cover_steps() {
        let mut program = TraceProgram::new("p", 1);
        program
            .phase(Phase::Prime)
            .load(PhysAddr(0x40))
            .phase(Phase::Wait)
            .wait_rel(100)
            .phase(Phase::Decode)
            .anchor()
            .chase(&[PhysAddr(0x80)]);
        assert_eq!(program.step_phase(0), Phase::Prime);
        assert_eq!(program.step_phase(1), Phase::Wait);
        assert_eq!(program.step_phase(2), Phase::Decode);
        assert_eq!(program.step_phase(3), Phase::Decode);
        assert_eq!(program.step_phase(99), Phase::Other, "out of range");
        assert_eq!(program.phase_coverage(), (4, 4));

        // A builder that never sets a phase reports zero coverage.
        let mut bare = TraceProgram::new("bare", 1);
        bare.load(PhysAddr(0x40)).wait_rel(10);
        assert_eq!(bare.phase_coverage(), (0, 2));
    }

    #[test]
    fn chase_shuffled_draws_the_order_set_lines_shuffled_returns() {
        use crate::memlayout::SetLines;
        use crate::process::{AddressSpace, ProcessId};
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};
        use sim_cache::addr::CacheGeometry;

        let lines = SetLines::build(
            AddressSpace::new(ProcessId(1)),
            CacheGeometry::xeon_l1d(),
            9,
            10,
            1_000,
        );
        let mut program = TraceProgram::new("p", 1);
        // A chase already in the arena: the shuffle touches only the new slice.
        program.chase(&lines.lines()[..3]);
        for seed in [0, 7, 2022] {
            let mut in_place = StdRng::seed_from_u64(seed);
            let mut copied = StdRng::seed_from_u64(seed);
            program.chase_shuffled(lines.lines(), &mut in_place);
            let Some(&TraceStep::Chase { start, end }) = program.steps().last() else {
                panic!("chase_shuffled appends a Chase step");
            };
            assert_eq!(end - start, lines.len());
            assert_eq!(
                program.chase_arena()[start..end],
                lines.shuffled(&mut copied)[..]
            );
            assert_eq!(in_place.next_u64(), copied.next_u64(), "same draws");
        }
        assert_eq!(program.chase_arena()[..3], lines.lines()[..3]);
    }

    #[test]
    fn reserved_arenas_do_not_move_while_the_program_fills_them() {
        let mut program = TraceProgram::new("p", 1);
        program.reserve(3, 2, 2);
        let (ops, chase) = (program.op_arena().as_ptr(), program.chase_arena().as_ptr());
        program
            .load(PhysAddr(0x40))
            .store(PhysAddr(0x80))
            .chase(&[PhysAddr(0xc0), PhysAddr(0x100)]);
        assert_eq!(program.steps().len(), 3);
        assert_eq!(program.op_arena().as_ptr(), ops);
        assert_eq!(program.chase_arena().as_ptr(), chase);
    }

    #[test]
    fn empty_ops_batch_adds_no_step() {
        let mut program = TraceProgram::new("p", 1);
        program.ops(std::iter::empty());
        assert!(program.steps().is_empty());
        assert_eq!(program.action_count(), 1, "only the Done turn");
    }

    #[test]
    fn session_report_finds_programs_and_merges_summaries() {
        let a = TraceSummary {
            ops: 3,
            cycles: 30,
            ..TraceSummary::default()
        };
        let b = TraceSummary {
            ops: 2,
            cycles: 12,
            ..TraceSummary::default()
        };
        let report = SessionReport {
            finished_at: 42,
            hit_limit: false,
            programs: vec![
                ProgramReport {
                    name: "sender".into(),
                    domain: 2,
                    summary: a,
                    measurements: vec![],
                    actions: 4,
                    stalled_cycles: 0,
                    finished: true,
                    phase_cycles: PhaseCycles::default(),
                },
                ProgramReport {
                    name: "receiver".into(),
                    domain: 1,
                    summary: b,
                    measurements: vec![Measurement {
                        at: 7,
                        measured: 120,
                    }],
                    actions: 3,
                    stalled_cycles: 0,
                    finished: true,
                    phase_cycles: PhaseCycles::default(),
                },
            ],
        };
        assert_eq!(report.program("receiver").unwrap().latencies(), vec![120]);
        assert!(report.program("nope").is_none());
        let total = report.total_summary();
        assert_eq!(total.ops, 5);
        assert_eq!(total.cycles, 42);
    }
}
