//! Static verification of compiled [`TraceProgram`]s.
//!
//! A [`TraceProgram`] is bytecode for the session executor
//! ([`crate::machine::Machine::run_session`]): flat steps over an op arena
//! and a chase arena, with three flavours of time reference (absolute,
//! anchored, relative — see [`crate::session`]).  Like any bytecode, an
//! ill-formed program fails late and confusingly — an out-of-range arena
//! index panics mid-session, a `WaitAnchor` with no preceding anchor
//! silently measures from the session start, a dead absolute wait shifts
//! every later sample by one period.  [`TraceProgram::verify`] catches these
//! *before* a single simulated cycle runs.
//!
//! ## Rules
//!
//! | rule | severity | meaning |
//! |---|---|---|
//! | `op-range` | error | an `Ops` step's `start..end` must lie inside the op arena |
//! | `chase-range` | error | a `Chase` step's range must lie inside the chase arena |
//! | `chase-empty` | error | a measured chase must walk at least one line |
//! | `chase-alias` | error | the lines of one measured chase must be distinct (an aliased walk re-measures an L1 hit and corrupts the sweep latency) |
//! | `anchor-before-wait` | error | `WaitAnchor` needs an earlier `Anchor`, `WaitEpoch` or `WaitFloor`; relying on the implicit session-start anchor is a compiler bug |
//! | `wait-monotone` | error | an absolute wait (`WaitEpoch`) whose target is below the program's lower-bound clock is provably dead for every execution |
//! | `address-space` | error | every op and chase address must carry one owning address space (ASID bits, [`crate::process::ASID_SHIFT`]) that fits a [`crate::process::ProcessId`] |
//! | `domain-valid` | error | the program's [`DomainId`] must be nonzero — domain 0 is the unowned-line sentinel of the cache model |
//! | `empty-program` | warning | a program with no steps still consumes its Done turn |
//! | `duplicate-anchor` | warning | consecutive `Anchor` markers latch the same instant; the first is redundant |
//! | `unreachable-step` | warning | a trailing `Anchor` (no turn-consuming step after it) latches a value no step can read |
//!
//! The monotonicity model is deliberately a *lower bound*: operations take at
//! least one cycle each and waits end no earlier than their target, so a
//! violation reported here holds for every schedule, interrupt pattern and
//! hierarchy.  Anchored waits are never flagged — under the paper's `Tlast`
//! discipline a period may legitimately end "in the past" after an interrupt
//! stall (the executor saturates the spin to zero), which is exactly why the
//! sender re-anchors per symbol.
//!
//! Compile paths (`WbSender::compile`, `WbReceiver::compile`,
//! `NoisyNeighbor::compile`) call [`TraceProgram::assert_valid`] under
//! `debug_assertions`; `repro check` runs the same pass over every registry
//! scenario's programs across hierarchy presets as a CI gate.

use std::collections::BTreeSet;
use std::fmt;

use crate::process::ASID_SHIFT;
use crate::session::{TraceProgram, TraceStep};
use sim_cache::line::DomainId;

/// How bad a [`ProgramDiagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but executable; the session will run as compiled.
    Warning,
    /// The program is ill-formed: it would panic, hang or silently
    /// mis-measure under the session executor.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding of [`TraceProgram::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramDiagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// The offending step index into [`TraceProgram::steps`], when the
    /// finding is attached to one step (program-wide findings carry `None`).
    pub step_index: Option<usize>,
    /// Stable rule identifier (the table in the module docs).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for ProgramDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.step_index {
            Some(step) => write!(
                f,
                "{} [{}] step {}: {}",
                self.severity, self.rule, step, self.message
            ),
            None => write!(f, "{} [{}] {}", self.severity, self.rule, self.message),
        }
    }
}

/// Size profile of a compiled program, for `repro check --verbose` and
/// program-growth regression tracking in CI logs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramStats {
    /// Number of compiled steps.
    pub steps: usize,
    /// Total ops in the op arena (demand loads + stores).
    pub ops: usize,
    /// Number of measured `Chase` steps.
    pub chases: usize,
    /// Total addresses in the chase arena.
    pub chase_addrs: usize,
    /// Number of `Anchor` markers.
    pub anchors: usize,
    /// Number of wait steps of any flavour.
    pub waits: usize,
}

impl ProgramStats {
    /// Accumulates another program's stats into this one.
    pub fn merge(&mut self, other: &ProgramStats) {
        self.steps += other.steps;
        self.ops += other.ops;
        self.chases += other.chases;
        self.chase_addrs += other.chase_addrs;
        self.anchors += other.anchors;
        self.waits += other.waits;
    }
}

impl TraceProgram {
    /// Statically verifies this program against every rule in the
    /// [module docs](crate::verify), returning all findings (empty means
    /// clean).  Never executes a simulated cycle.
    pub fn verify(&self) -> Vec<ProgramDiagnostic> {
        Verifier::new(self).run()
    }

    /// Panics with every `Error`-severity finding if [`verify`] reports any.
    ///
    /// Compile paths call this under `debug_assertions` so an ill-formed
    /// program is rejected at compile time (of the *program*, not the
    /// crate) instead of mis-executing.
    ///
    /// [`verify`]: TraceProgram::verify
    ///
    /// # Panics
    ///
    /// Panics when the program has at least one `Error` diagnostic.
    pub fn assert_valid(&self) {
        let errors: Vec<String> = self
            .verify()
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.to_string())
            .collect();
        assert!(
            errors.is_empty(),
            "TraceProgram `{}` failed verification:\n  {}",
            self.name(),
            errors.join("\n  ")
        );
    }

    /// The program's size profile (steps, ops, chases, anchors, waits).
    pub fn stats(&self) -> ProgramStats {
        let mut stats = ProgramStats {
            ops: self.op_arena().len(),
            chase_addrs: self.chase_arena().len(),
            ..ProgramStats::default()
        };
        stats.steps = self.steps().len();
        for step in self.steps() {
            match step {
                TraceStep::Chase { .. } => stats.chases += 1,
                TraceStep::Anchor => stats.anchors += 1,
                TraceStep::Ops { .. } => {}
                _ => stats.waits += 1,
            }
        }
        stats
    }
}

/// The verification pass: a single forward walk over the steps carrying a
/// lower-bound clock (`t_min`), a lower bound on the anchor register
/// (`anchor_lb`) and whether any anchoring step has run yet.
struct Verifier<'a> {
    program: &'a TraceProgram,
    findings: Vec<ProgramDiagnostic>,
    /// Lower bound on the cycle clock at the current step, valid for every
    /// execution: ops/chases take ≥ 1 cycle per turn, waits end no earlier
    /// than their target.
    t_min: u64,
    /// Lower bound on the anchor register, tracked the same way.
    anchor_lb: u64,
    /// Whether an `Anchor`, `WaitEpoch` or `WaitFloor` has executed.
    anchored: bool,
}

impl<'a> Verifier<'a> {
    fn new(program: &'a TraceProgram) -> Verifier<'a> {
        Verifier {
            program,
            findings: Vec::new(),
            t_min: 0,
            anchor_lb: 0,
            anchored: false,
        }
    }

    fn push(
        &mut self,
        severity: Severity,
        step: Option<usize>,
        rule: &'static str,
        message: String,
    ) {
        self.findings.push(ProgramDiagnostic {
            severity,
            step_index: step,
            rule,
            message,
        });
    }

    fn run(mut self) -> Vec<ProgramDiagnostic> {
        self.check_domain();
        self.check_address_space();
        if self.program.steps().is_empty() {
            self.push(
                Severity::Warning,
                None,
                "empty-program",
                "program has no steps (only the Done turn)".to_owned(),
            );
        }
        for (index, step) in self.program.steps().iter().enumerate() {
            self.check_step(index, step);
        }
        self.check_trailing_anchors();
        self.findings
    }

    fn check_domain(&mut self) {
        let domain: DomainId = self.program.domain();
        if domain == 0 {
            self.push(
                Severity::Error,
                None,
                "domain-valid",
                "domain 0 is the unowned-line sentinel and cannot own cache lines".to_owned(),
            );
        }
    }

    /// All op and chase addresses must carry exactly one owning address
    /// space in their ASID bits, and that ASID must fit a `ProcessId`.
    fn check_address_space(&mut self) {
        let asids: BTreeSet<u64> = self
            .program
            .op_arena()
            .iter()
            .map(|op| op.addr.0 >> ASID_SHIFT)
            .chain(
                self.program
                    .chase_arena()
                    .iter()
                    .map(|addr| addr.0 >> ASID_SHIFT),
            )
            .collect();
        if asids.len() > 1 {
            let list: Vec<String> = asids.iter().map(|a| a.to_string()).collect();
            self.push(
                Severity::Error,
                None,
                "address-space",
                format!(
                    "addresses span {} owning address spaces (ASIDs {}); a program runs as one process",
                    asids.len(),
                    list.join(", ")
                ),
            );
        }
        if let Some(&asid) = asids.iter().next_back() {
            if asid > u64::from(u16::MAX) {
                self.push(
                    Severity::Error,
                    None,
                    "address-space",
                    format!("ASID {asid} does not fit a ProcessId (u16)"),
                );
            }
        }
    }

    fn check_step(&mut self, index: usize, step: &TraceStep) {
        match *step {
            TraceStep::Ops { start, end } => {
                let len = self.program.op_arena().len();
                if start > end || end > len {
                    self.push(
                        Severity::Error,
                        Some(index),
                        "op-range",
                        format!("op range {start}..{end} outside op arena of length {len}"),
                    );
                } else {
                    self.t_min = self.t_min.saturating_add((end - start) as u64);
                }
            }
            TraceStep::Chase { start, end } => {
                let len = self.program.chase_arena().len();
                if start > end || end > len {
                    self.push(
                        Severity::Error,
                        Some(index),
                        "chase-range",
                        format!("chase range {start}..{end} outside chase arena of length {len}"),
                    );
                } else if start == end {
                    self.push(
                        Severity::Error,
                        Some(index),
                        "chase-empty",
                        "measured chase walks zero lines".to_owned(),
                    );
                } else {
                    let walk = &self.program.chase_arena()[start..end];
                    let distinct: BTreeSet<u64> = walk.iter().map(|addr| addr.0).collect();
                    if distinct.len() != walk.len() {
                        self.push(
                            Severity::Error,
                            Some(index),
                            "chase-alias",
                            format!(
                                "measured chase repeats {} of its {} lines; an aliased walk re-measures L1 hits",
                                walk.len() - distinct.len(),
                                walk.len()
                            ),
                        );
                    }
                    self.t_min = self.t_min.saturating_add((end - start) as u64);
                }
            }
            TraceStep::WaitEpoch { target } => {
                // The target must not be provably in the past.
                if target < self.t_min {
                    self.push(
                        Severity::Error,
                        Some(index),
                        "wait-monotone",
                        format!(
                            "WaitEpoch({target}) is dead: the program clock is already ≥ {} on every execution",
                            self.t_min
                        ),
                    );
                }
                self.t_min = self.t_min.max(target);
                self.anchor_lb = target;
                self.anchored = true;
            }
            TraceStep::WaitAnchor { offset } => {
                if !self.anchored {
                    self.push(
                        Severity::Error,
                        Some(index),
                        "anchor-before-wait",
                        format!(
                            "WaitAnchor(+{offset}) has no preceding Anchor/WaitEpoch/WaitFloor; \
                             it would measure from the session start"
                        ),
                    );
                }
                // Tlast discipline: the wait saturates to zero when the
                // anchor + offset is already past — never an error.
                self.t_min = self.t_min.max(self.anchor_lb.saturating_add(offset));
            }
            TraceStep::WaitFloor { floor, offset } => {
                self.anchor_lb = self.t_min.max(floor);
                self.anchored = true;
                self.t_min = self.anchor_lb.saturating_add(offset);
            }
            TraceStep::WaitRel { offset } => {
                self.t_min = self.t_min.saturating_add(offset);
            }
            TraceStep::Anchor => {
                if let Some(TraceStep::Anchor) = index
                    .checked_sub(1)
                    .and_then(|prev| self.program.steps().get(prev))
                {
                    self.push(
                        Severity::Warning,
                        Some(index),
                        "duplicate-anchor",
                        "consecutive Anchor markers latch the same instant".to_owned(),
                    );
                }
                self.anchor_lb = self.t_min;
                self.anchored = true;
            }
        }
    }

    /// A trailing `Anchor` (only anchors after it) latches a value nothing
    /// reads.
    fn check_trailing_anchors(&mut self) {
        let steps = self.program.steps();
        let tail = steps
            .iter()
            .rev()
            .take_while(|step| matches!(step, TraceStep::Anchor))
            .count();
        if tail > 0 {
            self.push(
                Severity::Warning,
                Some(steps.len() - tail),
                "unreachable-step",
                format!(
                    "trailing Anchor marker{} never followed by a turn-consuming step",
                    if tail > 1 { "s" } else { "" }
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cache::addr::PhysAddr;
    use sim_cache::trace::TraceOp;

    fn addr(vaddr: u64) -> PhysAddr {
        PhysAddr((1u64 << ASID_SHIFT) | vaddr)
    }

    fn rules(diags: &[ProgramDiagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    fn errors(diags: &[ProgramDiagnostic]) -> Vec<&'static str> {
        diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.rule)
            .collect()
    }

    /// A realistic sender-shaped program: epoch wait, store burst, anchored
    /// period wait per symbol.
    fn sender_like() -> TraceProgram {
        let mut program = TraceProgram::new("sender", 2);
        program.wait_epoch(50_000);
        for symbol in 0..3u64 {
            if symbol > 0 {
                program.anchor();
            }
            program.ops((0..4).map(|i| TraceOp::write(addr(0x1000 + 0x40 * (8 * symbol + i)))));
            program.wait_anchor(5_500);
        }
        program
    }

    #[test]
    fn well_formed_sender_program_is_clean() {
        assert_eq!(sender_like().verify(), Vec::new());
        sender_like().assert_valid();
    }

    #[test]
    fn well_formed_receiver_program_is_clean() {
        let mut program = TraceProgram::new("receiver", 1);
        program.ops((0..10).map(|i| TraceOp::read(addr(0x8000 + 0x40 * i))));
        program.wait_floor(50_000, 2_750);
        for sample in 0..2u64 {
            program.anchor();
            let walk: Vec<PhysAddr> = (0..10).map(|i| addr(0x8000 + 0x40 * i)).collect();
            program.chase(&walk);
            if sample == 0 {
                program.wait_anchor(5_500);
            }
        }
        assert_eq!(program.verify(), Vec::new());
    }

    #[test]
    fn out_of_bounds_op_index_is_rejected() {
        let mut program = TraceProgram::new("corrupt", 1);
        program.load(addr(0x40));
        program.push_raw_step(TraceStep::Ops { start: 0, end: 9 });
        assert_eq!(errors(&program.verify()), vec!["op-range"]);
    }

    #[test]
    fn inverted_op_range_is_rejected() {
        let mut program = TraceProgram::new("corrupt", 1);
        program.ops((0..4).map(|i| TraceOp::read(addr(0x40 * i))));
        program.push_raw_step(TraceStep::Ops { start: 3, end: 1 });
        assert_eq!(errors(&program.verify()), vec!["op-range"]);
    }

    #[test]
    fn out_of_bounds_chase_range_is_rejected() {
        let mut program = TraceProgram::new("corrupt", 1);
        program.chase(&[addr(0x40), addr(0x80)]);
        program.push_raw_step(TraceStep::Chase { start: 1, end: 5 });
        assert_eq!(errors(&program.verify()), vec!["chase-range"]);
    }

    #[test]
    fn empty_chase_is_rejected() {
        let mut program = TraceProgram::new("corrupt", 1);
        program.chase(&[]);
        assert_eq!(errors(&program.verify()), vec!["chase-empty"]);
    }

    #[test]
    fn aliased_chase_is_rejected() {
        let mut program = TraceProgram::new("corrupt", 1);
        program.chase(&[addr(0x40), addr(0x80), addr(0x40)]);
        let diags = program.verify();
        assert_eq!(errors(&diags), vec!["chase-alias"]);
        assert_eq!(diags[0].step_index, Some(0));
    }

    #[test]
    fn anchored_wait_before_any_anchor_is_rejected() {
        let mut program = TraceProgram::new("corrupt", 2);
        program.load(addr(0x40)).wait_anchor(5_500);
        let diags = program.verify();
        assert_eq!(errors(&diags), vec!["anchor-before-wait"]);
        assert_eq!(diags[0].step_index, Some(1));
    }

    #[test]
    fn non_monotone_absolute_wait_is_rejected() {
        let mut program = TraceProgram::new("corrupt", 1);
        program.wait_epoch(1_000).wait_epoch(400);
        let diags = program.verify();
        assert_eq!(errors(&diags), vec!["wait-monotone"]);
        assert_eq!(diags[0].step_index, Some(1));
    }

    #[test]
    fn ops_advance_the_lower_bound_clock() {
        // 10 ops take ≥ 10 cycles, so an epoch of 5 is provably dead.
        let mut program = TraceProgram::new("corrupt", 1);
        program.ops((0..10).map(|i| TraceOp::read(addr(0x40 * i))));
        program.wait_epoch(5);
        assert_eq!(errors(&program.verify()), vec!["wait-monotone"]);
    }

    #[test]
    fn tlast_saturation_is_not_flagged() {
        // Anchored waits may end in the past after stalls — never an error,
        // even when the anchored target is below the lower-bound clock.
        let mut program = TraceProgram::new("tlast", 2);
        program.anchor();
        program.ops((0..100).map(|i| TraceOp::write(addr(0x40 * i))));
        program.wait_anchor(10);
        assert_eq!(program.verify(), Vec::new());
    }

    #[test]
    fn mixed_address_spaces_are_rejected() {
        let mut program = TraceProgram::new("corrupt", 1);
        program.load(PhysAddr(1u64 << ASID_SHIFT));
        program.store(PhysAddr(2u64 << ASID_SHIFT));
        assert_eq!(errors(&program.verify()), vec!["address-space"]);
    }

    #[test]
    fn oversized_asid_is_rejected() {
        let mut program = TraceProgram::new("corrupt", 1);
        program.load(PhysAddr((u64::from(u16::MAX) + 1) << ASID_SHIFT));
        assert_eq!(errors(&program.verify()), vec!["address-space"]);
    }

    #[test]
    fn domain_zero_is_rejected() {
        let mut program = TraceProgram::new("corrupt", 0);
        program.load(addr(0x40));
        assert_eq!(errors(&program.verify()), vec!["domain-valid"]);
    }

    #[test]
    fn empty_program_warns() {
        let program = TraceProgram::new("empty", 1);
        let diags = program.verify();
        assert_eq!(rules(&diags), vec!["empty-program"]);
        assert_eq!(diags[0].severity, Severity::Warning);
        // Warnings do not trip the debug assertion.
        program.assert_valid();
    }

    #[test]
    fn duplicate_and_trailing_anchors_warn() {
        let mut program = TraceProgram::new("anchors", 1);
        program.load(addr(0x40)).anchor().anchor();
        let diags = program.verify();
        assert_eq!(rules(&diags), vec!["duplicate-anchor", "unreachable-step"]);
        assert!(diags.iter().all(|d| d.severity == Severity::Warning));
    }

    #[test]
    fn assert_valid_panics_on_errors() {
        let mut program = TraceProgram::new("corrupt", 1);
        program.wait_anchor(100);
        let panic = std::panic::catch_unwind(|| program.assert_valid());
        let message = *panic.expect_err("must panic").downcast::<String>().unwrap();
        assert!(message.contains("anchor-before-wait"), "{message}");
    }

    #[test]
    fn stats_profile_the_program() {
        let stats = sender_like().stats();
        assert_eq!(
            stats,
            ProgramStats {
                steps: 9, // epoch + 3×(ops, wait) + 2 anchors
                ops: 12,
                chases: 0,
                chase_addrs: 0,
                anchors: 2,
                waits: 4,
            }
        );
        let mut total = ProgramStats::default();
        total.merge(&stats);
        total.merge(&stats);
        assert_eq!(total.ops, 24);
    }

    #[test]
    fn diagnostics_render_with_rule_and_step() {
        let mut program = TraceProgram::new("corrupt", 1);
        program.wait_epoch(1_000).wait_epoch(400);
        let diags = program.verify();
        let rendered = diags[0].to_string();
        assert!(
            rendered.starts_with("error [wait-monotone] step 1:"),
            "{rendered}"
        );
    }
}
