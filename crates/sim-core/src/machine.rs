//! The simulated machine: a hyper-threaded core in front of the cache
//! hierarchy.
//!
//! [`Machine`] owns the [`sim_cache::hierarchy::CacheHierarchy`], a global
//! cycle counter (the simulated time-stamp counter), the measurement-noise
//! model and the OS-interrupt noise model.  It can be driven in two ways:
//!
//! * **directly** — experiment code calls [`Machine::run_trace`] (a batch of
//!   loads, stores and flushes: a program's `Ops` step) and
//!   [`Machine::measured_chase`] (a timed pointer chase: a program's `Chase`
//!   step); each call advances the clock by the latency.  This is how the
//!   single-threaded calibration experiments (Table IV, Figure 4), the
//!   defense evaluation, the side channel and the baselines run.
//! * **as an SMT core** — [`Machine::run_session`] interleaves compiled
//!   [`TraceProgram`]s (sender, receiver, noise processes) and refilled
//!   [`CompilerWorkload`] co-runners on the shared hierarchy in event order,
//!   which is how the covert-channel transmissions and the stealthiness
//!   experiments run.  This mirrors the paper's setup of two hyper-threads
//!   pinned to one physical core with `sched_setaffinity`.

use crate::sched::{InterruptConfig, InterruptModel};
use crate::session::{Measurement, ProgramReport, SessionReport, TraceProgram, TraceStep};
use crate::telemetry::{Phase, PhaseCycles, TraceEvent, TraceSink};
use crate::tsc::{TscConfig, TscModel};
use crate::workload::CompilerWorkload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_cache::addr::{CacheGeometry, PhysAddr};
use sim_cache::cache::AccessContext;
use sim_cache::hierarchy::{CacheHierarchy, HierarchyConfig};
use sim_cache::line::DomainId;
use sim_cache::policy::PolicyKind;
use sim_cache::trace::{TraceKind, TraceOp, TraceSummary};

/// Core clock of the paper's Xeon E5-2650 in GHz: the one conversion from
/// simulated cycles to seconds, milliseconds and kbps.
pub const CLOCK_GHZ: f64 = 2.2;

/// Configuration of a [`Machine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Cache-hierarchy configuration.
    pub hierarchy: HierarchyConfig,
    /// Measurement (rdtscp) model.
    pub tsc: TscConfig,
    /// OS interruption noise applied to every hardware thread.
    pub interrupts: InterruptConfig,
    /// Master seed for all machine-level randomness.
    pub seed: u64,
}

impl MachineConfig {
    /// The paper's evaluation machine: Xeon E5-2650 caches, realistic
    /// rdtscp noise and a quiet pinned-core interrupt profile.
    pub fn xeon_e5_2650(l1_policy: PolicyKind, seed: u64) -> MachineConfig {
        MachineConfig {
            hierarchy: HierarchyConfig::xeon_e5_2650(l1_policy, seed),
            tsc: TscConfig::xeon_e5_2650(),
            interrupts: InterruptConfig::pinned_quiet(),
            seed,
        }
    }

    /// A noiseless machine for unit tests and latency calibration.
    pub fn ideal(l1_policy: PolicyKind, seed: u64) -> MachineConfig {
        MachineConfig {
            hierarchy: HierarchyConfig::xeon_e5_2650(l1_policy, seed),
            tsc: TscConfig::ideal(),
            interrupts: InterruptConfig::none(),
            seed,
        }
    }

    /// Checks the rules the measurement and interrupt models rely on;
    /// [`Machine::new`] and [`Machine::reset`] run it.
    ///
    /// # Errors
    ///
    /// Returns [`sim_cache::Error::InvalidConfig`] for `tsc` when its jitter
    /// or overhead exceeds `i64::MAX` (the measurement adds them as signed
    /// cycles), and for `interrupts` when a period's or duration's mean plus
    /// jitter, the largest value a draw can take, overflows `u64`.
    pub fn check(&self) -> Result<(), sim_cache::Error> {
        let (tsc, irq) = (self.tsc, self.interrupts);
        let overflow = [
            ("period", irq.period, irq.period_jitter),
            ("duration", irq.duration, irq.duration_jitter),
        ]
        .into_iter()
        .find(|&(_, mean, jitter)| mean.checked_add(jitter).is_none());
        let (field, reason) = if tsc.jitter.max(tsc.overhead) > i64::MAX as u64 {
            let (jitter, overhead) = (tsc.jitter, tsc.overhead);
            let reason = format!("jitter {jitter} and overhead {overhead} must be <= i64::MAX");
            ("tsc", reason)
        } else if let Some((what, mean, jitter)) = overflow {
            let reason = format!("{what} {mean} plus its jitter {jitter} overflows u64");
            ("interrupts", reason)
        } else {
            return Ok(());
        };
        Err(sim_cache::Error::InvalidConfig { field, reason })
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::xeon_e5_2650(PolicyKind::TreePlru, 0)
    }
}

/// Per-thread scheduling state of an in-flight session run (one compiled
/// program or co-runner).
#[derive(Debug)]
struct SessionThread {
    ready_at: u64,
    done: bool,
    interrupts: InterruptModel,
    actions: u64,
    stalled: u64,
    /// Next step index.
    step: usize,
    /// Offset within the current `Ops` step.
    op_cursor: usize,
    /// The program's anchor register (`Tlast` of Algorithm 3).
    anchor: u64,
    /// The open telemetry phase span.
    span: Option<Phase>,
}

/// The simulated machine.
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    hierarchy: CacheHierarchy,
    tsc: TscModel,
    rng: StdRng,
    now: u64,
    /// Telemetry sink (disabled by default). The sink only *observes*
    /// sim-cycle timestamps already computed by the executors — it never
    /// touches the RNG, the TSC or the scheduler, so an enabled sink
    /// records exactly the run a disabled sink would have produced.
    sink: TraceSink,
}

impl Machine {
    /// Builds a machine from its configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MachineConfig::check`]'s error, then cache-configuration ones.
    pub fn new(config: MachineConfig) -> Result<Machine, sim_cache::Error> {
        config.check()?;
        Ok(Machine {
            hierarchy: CacheHierarchy::new(config.hierarchy)?,
            tsc: TscModel::new(config.tsc),
            rng: StdRng::seed_from_u64(config.seed ^ 0x6d61_6368),
            now: 0,
            sink: TraceSink::disabled(),
            config,
        })
    }

    /// Resets this machine to the state [`Machine::new`] would produce for
    /// `config`, in place when the cache geometries and policy kinds are
    /// unchanged.
    /// Behaviourally indistinguishable from a fresh construction, and its
    /// cost is O(sets touched since the last reset): each cache clears only
    /// the sets it filled (see [`sim_cache::cache::Cache::reset`]).  A
    /// channel session calibrates every symbol level and runs every frame on
    /// one machine reset this way.
    ///
    /// # Errors
    ///
    /// Returns [`MachineConfig::check`]'s error, then cache-configuration ones.
    pub fn reset(&mut self, config: MachineConfig) -> Result<(), sim_cache::Error> {
        config.check()?;
        self.hierarchy.reset(config.hierarchy)?;
        self.tsc = TscModel::new(config.tsc);
        self.rng = StdRng::seed_from_u64(config.seed ^ 0x6d61_6368);
        self.now = 0;
        self.config = config;
        Ok(())
    }

    /// The configuration this machine was built from.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Current cycle (the simulated time-stamp counter).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The L1 data-cache geometry.
    pub fn l1_geometry(&self) -> CacheGeometry {
        self.hierarchy.l1_geometry()
    }

    /// Shared access to the cache hierarchy.
    pub fn hierarchy(&self) -> &CacheHierarchy {
        &self.hierarchy
    }

    /// Exclusive access to the cache hierarchy (defense configuration,
    /// direct state inspection in tests).
    pub fn hierarchy_mut(&mut self) -> &mut CacheHierarchy {
        &mut self.hierarchy
    }

    /// Enables telemetry recording (replaces the sink with an active one).
    /// The sink survives [`Machine::reset`]: a session reusing one machine
    /// across frames enables tracing once and drains events per frame with
    /// [`Machine::take_trace`].
    pub fn enable_tracing(&mut self) {
        self.sink = TraceSink::active();
    }

    /// Whether the telemetry sink is recording.
    pub fn tracing_enabled(&self) -> bool {
        self.sink.is_enabled()
    }

    /// The telemetry events recorded so far, in recording order.
    pub fn trace_events(&self) -> &[TraceEvent] {
        self.sink.events()
    }

    /// Drains the recorded telemetry events (the sink stays enabled).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.sink.take()
    }

    /// Executes a batched trace for `domain` and advances the clock once.
    ///
    /// Per-op semantics are those of a session's `Ops` step: one access
    /// after the other, each outcome folded into the returned summary.  A
    /// single access is a one-op trace.
    pub fn run_trace(&mut self, domain: DomainId, ops: &[TraceOp]) -> TraceSummary {
        let summary = self
            .hierarchy
            .run_trace(ops, AccessContext::for_domain(domain));
        self.now += summary.cycles;
        summary
    }

    /// Executes a serialised pointer-chasing walk and returns
    /// `(measured, true_latency)`: the value the attacker's `rdtscp` pair
    /// reports and the underlying true latency.
    ///
    /// The walk is a session's `Chase` step: the loads run back to back and
    /// one `rdtscp` pair times all of them.  A single measured load is a
    /// one-address chase.
    pub fn measured_chase(&mut self, domain: DomainId, addrs: &[PhysAddr]) -> (u64, u64) {
        let summary = self
            .hierarchy
            .run_read_trace(addrs, AccessContext::for_domain(domain));
        self.now += summary.cycles;
        let measured = self.tsc.measure(summary.cycles, &mut self.rng);
        (measured, summary.cycles)
    }

    /// Runs a set of compiled [`TraceProgram`]s and `co_runners` (one
    /// hardware thread each) until every program is done or `limit` cycles
    /// have elapsed.
    ///
    /// Operations execute atomically in global time order; each thread's
    /// next operation starts when its previous one finished, so the threads
    /// genuinely overlap in time on the shared cache hierarchy, as two
    /// hyper-threads do.  The scheduling rules:
    ///
    /// 1. one scheduling turn per operation (each op of an `Ops` step, each
    ///    chase, each wait, and a final turn when a program runs out);
    /// 2. an OS-interrupt poll (the machine's [`InterruptConfig`]) before
    ///    every turn;
    /// 3. earliest-ready-first order with lowest-index tie-breaking, the
    ///    programs first and the co-runners after them, in argument order;
    /// 4. a minimum advance of one cycle per turn, and no turn starts at or
    ///    past the deadline.
    ///
    /// Consecutive operations of one thread run back-to-back whenever no
    /// other thread, interrupt or deadline could be scheduled between them,
    /// and each thread's accesses are folded into one [`TraceSummary`], its
    /// [`ProgramReport::summary`].
    ///
    /// A co-runner's open-loop stream runs from a reused chunk arena: when a
    /// chunk is drained the co-runner refills it in place
    /// ([`CompilerWorkload::refill`]).  A refill is not a turn — no
    /// interrupt poll, no action count — so the co-runner behaves exactly
    /// like one unbounded program and never finishes.  Its report follows
    /// the programs' in [`SessionReport::programs`].
    pub fn run_session(
        &mut self,
        programs: &[TraceProgram],
        co_runners: &mut [CompilerWorkload],
        limit: u64,
    ) -> SessionReport {
        let fixed = programs.len();
        let mut chunks: Vec<TraceProgram> =
            co_runners.iter().map(CompilerWorkload::chunk).collect();
        let mut threads: Vec<SessionThread> = (0..fixed + chunks.len())
            .map(|_| SessionThread {
                ready_at: self.now,
                done: false,
                interrupts: InterruptModel::new(&self.config.interrupts, &mut self.rng),
                actions: 0,
                stalled: 0,
                step: 0,
                op_cursor: 0,
                anchor: self.now,
                span: None,
            })
            .collect();
        let mut reports: Vec<ProgramReport> = programs
            .iter()
            .chain(&chunks)
            .map(|p| ProgramReport {
                name: p.name().to_owned(),
                domain: p.domain(),
                summary: TraceSummary::default(),
                measurements: Vec::new(),
                actions: 0,
                stalled_cycles: 0,
                finished: false,
                phase_cycles: PhaseCycles::default(),
            })
            .collect();
        let deadline = self.now + limit;
        let mut hit_limit = false;

        loop {
            // Pick the runnable thread with the earliest ready time (the
            // first minimum, i.e. the lowest index on ties).
            let next = threads
                .iter()
                .enumerate()
                .filter(|(_, t)| !t.done)
                .min_by_key(|(_, t)| t.ready_at)
                .map(|(i, t)| (i, t.ready_at));
            let Some((idx, ready_at)) = next else {
                break; // every thread finished
            };
            if ready_at >= deadline {
                hit_limit = true;
                break;
            }
            self.now = self.now.max(ready_at);

            // OS interruption?
            if let Some(stall) =
                threads[idx]
                    .interrupts
                    .poll(self.now, &self.config.interrupts, &mut self.rng)
            {
                threads[idx].ready_at = self.now.saturating_add(stall);
                threads[idx].stalled = threads[idx].stalled.saturating_add(stall);
                continue;
            }

            let domain = reports[idx].domain;
            let ctx = AccessContext::for_domain(domain);
            // The earliest other live thread bounds how far this thread may
            // run without rescheduling; a tie goes to the lower index.
            let mut other_min = u64::MAX;
            let mut other_idx = usize::MAX;
            for (j, t) in threads.iter().enumerate() {
                if j != idx && !t.done && t.ready_at < other_min {
                    other_min = t.ready_at;
                    other_idx = j;
                }
            }
            let runs_before_others =
                |at: u64| at < other_min || (at == other_min && idx < other_idx);

            loop {
                let program = match idx.checked_sub(fixed) {
                    None => &programs[idx],
                    Some(j) => &chunks[j],
                };
                let thread = &mut threads[idx];
                // Anchor markers are free: the anchor is the issue time of
                // the next real operation (interrupt stalls included).
                while let Some(TraceStep::Anchor) = program.steps().get(thread.step) {
                    thread.anchor = self.now;
                    thread.step += 1;
                }
                let Some(&step) = program.steps().get(thread.step) else {
                    if let Some(j) = idx.checked_sub(fixed) {
                        // A drained co-runner chunk: refill it in place and
                        // carry on with the same turn.
                        co_runners[j].refill(&mut chunks[j]);
                        thread.step = 0;
                        continue;
                    }
                    // The Done turn.
                    thread.actions += 1;
                    thread.done = true;
                    reports[idx].finished = true;
                    if let Some(prev) = thread.span.take() {
                        self.sink.end(domain, prev.label(), self.now);
                    }
                    break;
                };
                let step_index = thread.step;
                let started = self.now;
                let mut measured = None;
                let latency = match step {
                    TraceStep::Ops { start, end } => {
                        let op = program.op_arena()[start + thread.op_cursor];
                        thread.op_cursor += 1;
                        if start + thread.op_cursor == end {
                            thread.step += 1;
                            thread.op_cursor = 0;
                        }
                        let outcome = match op.kind {
                            TraceKind::Read => self.hierarchy.read(op.addr, ctx),
                            TraceKind::Write => self.hierarchy.write(op.addr, ctx),
                            TraceKind::Flush => self.hierarchy.flush(op.addr),
                        };
                        reports[idx].summary.absorb(&outcome);
                        outcome.cycles
                    }
                    TraceStep::Chase { start, end } => {
                        thread.step += 1;
                        let summary = self
                            .hierarchy
                            .run_read_trace(&program.chase_arena()[start..end], ctx);
                        reports[idx].summary.merge(&summary);
                        measured = Some(self.tsc.measure(summary.cycles, &mut self.rng));
                        summary.cycles
                    }
                    TraceStep::WaitEpoch { target } => {
                        thread.step += 1;
                        thread.anchor = target;
                        target.saturating_sub(started)
                    }
                    TraceStep::WaitAnchor { offset } => {
                        thread.step += 1;
                        (thread.anchor + offset).saturating_sub(started)
                    }
                    TraceStep::WaitFloor { floor, offset } => {
                        thread.step += 1;
                        thread.anchor = started.max(floor);
                        (thread.anchor + offset).saturating_sub(started)
                    }
                    TraceStep::WaitRel { offset } => {
                        thread.step += 1;
                        offset
                    }
                    TraceStep::Anchor => unreachable!("markers are consumed above"),
                };
                let thread = &mut threads[idx];
                let finished_at = started + latency.max(1);
                // Per-phase cycle attribution from the compiler's step
                // annotations — sim-cycle arithmetic, always on, identical
                // whether or not the sink records.
                let phase = program.step_phase(step_index);
                reports[idx].phase_cycles.add(phase, finished_at - started);
                if self.sink.is_enabled() && thread.span != Some(phase) {
                    // One batched append per span switch: no per-event
                    // allocation (phase labels are 'static) and a single
                    // enabled check for the end/begin pair.
                    self.sink
                        .phase_switch(domain, thread.span.take(), phase, started);
                    thread.span = Some(phase);
                }
                thread.ready_at = finished_at;
                thread.actions += 1;
                if let Some(measured) = measured {
                    reports[idx].measurements.push(Measurement {
                        at: finished_at,
                        measured,
                    });
                }

                // Continue back-to-back only while (a) the next turn would be
                // scheduled before every other thread, (b) no interrupt is
                // due, and (c) the deadline is not reached — i.e. exactly
                // when the outer scheduler would pick this thread again with
                // nothing observable in between.
                let next_at = finished_at;
                if !(runs_before_others(next_at)
                    && next_at < thread.interrupts.next_at()
                    && next_at < deadline)
                {
                    break;
                }
                self.now = next_at;
            }
        }

        // The machine clock ends at the latest point any thread reached (or
        // the deadline when the limit was hit).
        let end = threads
            .iter()
            .map(|t| t.ready_at)
            .max()
            .unwrap_or(self.now)
            .min(deadline);
        self.now = self.now.max(end);

        for (thread, report) in threads.iter_mut().zip(reports.iter_mut()) {
            report.actions = thread.actions;
            report.stalled_cycles = thread.stalled;
            if self.sink.is_enabled() {
                // Close the span the deadline cut off, then sample the
                // thread's counters.
                if let Some(prev) = thread.span.take() {
                    self.sink.end(report.domain, prev.label(), self.now);
                }
                self.sink
                    .counter(report.domain, "actions", thread.actions, self.now);
                self.sink
                    .counter(report.domain, "stalled_cycles", thread.stalled, self.now);
            }
        }

        SessionReport {
            finished_at: self.now,
            hit_limit,
            programs: reports,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memlayout::SetLines;
    use crate::process::{AddressSpace, ProcessId};
    use crate::workload::CHUNK_ACCESSES;
    use proptest::prelude::*;

    fn ideal_machine() -> Machine {
        Machine::new(MachineConfig::ideal(PolicyKind::TrueLru, 7)).unwrap()
    }

    #[test]
    fn direct_reads_advance_the_clock_by_the_latency() {
        let mut m = ideal_machine();
        let addr = PhysAddr(0x4000);
        let t0 = m.now();
        let miss = m.run_trace(1, &[TraceOp::read(addr)]);
        assert_eq!(miss.memory_accesses, 1);
        assert_eq!(m.now() - t0, miss.cycles);
        let t1 = m.now();
        let hit = m.run_trace(1, &[TraceOp::read(addr)]);
        assert_eq!(hit.l1_hits, 1);
        assert_eq!(m.now() - t1, hit.cycles);
    }

    #[test]
    fn measured_chase_reflects_dirty_lines_in_the_target_set() {
        let mut m = ideal_machine();
        let g = m.l1_geometry();
        let receiver = AddressSpace::new(ProcessId(1));
        let sender = AddressSpace::new(ProcessId(2));
        let set = 17;
        let replacement_a = SetLines::build(receiver, g, set, 10, 1000);
        let replacement_b = SetLines::build(receiver, g, set, 10, 2000);
        let target = SetLines::build(sender, g, set, 8, 0);

        // Warm every line so later accesses are L2 hits, then initialise the
        // target set with the receiver's clean lines.
        let reads = |lines: &[PhysAddr]| -> Vec<TraceOp> {
            lines.iter().map(|&a| TraceOp::read(a)).collect()
        };
        m.run_trace(1, &reads(replacement_a.lines()));
        m.run_trace(1, &reads(replacement_b.lines()));
        m.run_trace(2, &reads(target.lines()));
        let (clean, _) = m.measured_chase(1, replacement_a.lines());

        // Refill the set with sender lines, then dirty 4 of them.
        m.run_trace(2, &reads(target.lines()));
        let stores: Vec<TraceOp> = target.lines()[..4]
            .iter()
            .map(|&a| TraceOp::write(a))
            .collect();
        m.run_trace(2, &stores);
        let (dirty, _) = m.measured_chase(1, replacement_b.lines());
        let penalty = m.hierarchy().latency_model().per_dirty_line_penalty();
        assert!(
            dirty >= clean + 3 * penalty,
            "4 dirty lines must slow the sweep: clean={clean} dirty={dirty}"
        );
    }

    #[test]
    fn run_trace_matches_per_access_calls() {
        let ops: Vec<TraceOp> = (0..60u64)
            .map(|i| {
                let a = PhysAddr(0x4000 + (i % 13) * 64);
                if i % 4 == 0 {
                    TraceOp::write(a)
                } else {
                    TraceOp::read(a)
                }
            })
            .collect();
        let mut batched = ideal_machine();
        let summary = batched.run_trace(5, &ops);

        let mut serial = ideal_machine();
        let mut expected = TraceSummary::default();
        for op in &ops {
            expected.merge(&serial.run_trace(5, std::slice::from_ref(op)));
        }
        assert_eq!(summary, expected);
        assert_eq!(batched.now(), serial.now());
    }

    #[test]
    fn run_interleaves_two_actors_in_time() {
        let mut m = ideal_machine();
        let a_addr = PhysAddr(0x10_0000);
        let b_addr = PhysAddr(0x20_0000);
        let mut a = TraceProgram::new("a", 1);
        a.load(a_addr).wait_rel(50).load(a_addr);
        let mut b = TraceProgram::new("b", 2);
        b.wait_rel(10).load(b_addr);
        let report = m.run_session(&[a, b], &mut [], 1_000_000);
        assert!(!report.hit_limit);
        let actions: Vec<u64> = report.programs.iter().map(|p| p.actions).collect();
        assert_eq!(actions, vec![4, 3], "each program runs its steps plus Done");
        assert!(report.programs.iter().all(|p| p.finished));
        // The second load of `a` is an L1 hit because the first one filled it.
        let a = &report.programs[0].summary;
        assert_eq!((a.reads, a.l1_hits), (2, 1));
        // `b`'s miss overlaps `a`'s: the session ends when the slower
        // thread does, not after the sum of both.
        let b = &report.programs[1].summary;
        let a_alone = a.cycles + 50;
        let b_alone = b.cycles + 10;
        assert_eq!(report.finished_at, a_alone.max(b_alone));
    }

    #[test]
    fn run_honours_the_cycle_limit() {
        let mut m = ideal_machine();
        // A program that computes far longer than the limit.
        let mut spinner = TraceProgram::new("spinner", 9);
        for _ in 0..1_000 {
            spinner.wait_rel(100);
        }
        let report = m.run_session(std::slice::from_ref(&spinner), &mut [], 10_000);
        assert!(report.hit_limit);
        assert!(!report.programs[0].finished);
        assert_eq!(report.finished_at, 10_000);
        assert_eq!(m.now(), 10_000);
        assert_eq!(report.programs[0].actions, 100);
    }

    #[test]
    fn wait_epoch_lands_on_the_requested_cycle() {
        let mut m = ideal_machine();
        let mut program = TraceProgram::new("w", 1);
        program.wait_epoch(5_000).wait_rel(1);
        let report = m.run_session(std::slice::from_ref(&program), &mut [], 100_000);
        // The wait ends exactly at 5 000; the one-cycle step right after.
        assert_eq!(report.finished_at, 5_001);
        // A wait for a cycle already passed still costs one cycle.
        let mut late = TraceProgram::new("late", 1);
        late.wait_epoch(100);
        let report = m.run_session(std::slice::from_ref(&late), &mut [], 100_000);
        assert_eq!(report.finished_at, 5_002);
    }

    #[test]
    fn interruptions_stall_actors_when_enabled() {
        let mut config = MachineConfig::ideal(PolicyKind::TreePlru, 3);
        config.interrupts = InterruptConfig {
            period: 1_000,
            period_jitter: 0,
            duration: 500,
            duration_jitter: 0,
        };
        let mut m = Machine::new(config).unwrap();
        let mut busy = TraceProgram::new("busy", 1);
        for _ in 0..100 {
            busy.wait_rel(100);
        }
        let report = m.run_session(std::slice::from_ref(&busy), &mut [], 1_000_000);
        let busy = &report.programs[0];
        assert!(
            busy.stalled_cycles > 0,
            "the program must have been preempted"
        );
        assert!(busy.finished);
        assert_eq!(report.finished_at, 100 * 100 + busy.stalled_cycles);
    }

    /// What the reference scheduler observed of one program.
    #[derive(Debug, PartialEq)]
    struct TurnLog {
        summary: TraceSummary,
        actions: u64,
        stalled_cycles: u64,
        finished: bool,
        measurements: Vec<Measurement>,
    }

    /// The per-turn reference scheduler that [`Machine::run_session`] must
    /// be indistinguishable from: one turn per op, chase, wait and final
    /// Done; an interrupt poll before every turn; earliest-ready-first with
    /// lowest-index tie-breaking; every access absorbed into its program's
    /// summary as it happens and every chase walked access by access. It
    /// covers every step: `Ops`, `Chase`, the relative `WaitRel`, and the
    /// anchored vocabulary — an `Anchor` marker takes no turn and latches
    /// the issue time of the program's next turn, after that turn's
    /// interrupt poll; `WaitEpoch` latches its target, `WaitFloor` the
    /// later of its issue time and its floor, and `WaitAnchor` waits past
    /// the latched value (the session start until something is latched).
    /// Returns the session's end cycle, whether the limit ended it, and one
    /// log per program.
    fn run(m: &mut Machine, programs: &[TraceProgram], limit: u64) -> (u64, bool, Vec<TurnLog>) {
        struct Thread {
            ready_at: u64,
            interrupts: InterruptModel,
            step: usize,
            op: usize,
            anchor: u64,
        }
        let mut threads: Vec<Thread> = programs
            .iter()
            .map(|_| Thread {
                ready_at: m.now,
                interrupts: InterruptModel::new(&m.config.interrupts, &mut m.rng),
                step: 0,
                op: 0,
                anchor: m.now,
            })
            .collect();
        let mut logs: Vec<TurnLog> = programs
            .iter()
            .map(|_| TurnLog {
                summary: TraceSummary::default(),
                actions: 0,
                stalled_cycles: 0,
                finished: false,
                measurements: Vec::new(),
            })
            .collect();
        let deadline = m.now + limit;
        let mut hit_limit = false;
        loop {
            let next = (0..programs.len())
                .filter(|&i| !logs[i].finished)
                .min_by_key(|&i| threads[i].ready_at);
            let Some(idx) = next else { break };
            let thread = &mut threads[idx];
            if thread.ready_at >= deadline {
                hit_limit = true;
                break;
            }
            m.now = m.now.max(thread.ready_at);
            if let Some(stall) = thread
                .interrupts
                .poll(m.now, &m.config.interrupts, &mut m.rng)
            {
                thread.ready_at = m.now + stall;
                logs[idx].stalled_cycles += stall;
                continue;
            }
            logs[idx].actions += 1;
            let program = &programs[idx];
            while let Some(TraceStep::Anchor) = program.steps().get(thread.step) {
                thread.anchor = m.now;
                thread.step += 1;
            }
            let domain = program.domain();
            let ctx = AccessContext::for_domain(domain);
            let Some(&step) = program.steps().get(thread.step) else {
                logs[idx].finished = true;
                continue;
            };
            let mut access = |kind: TraceKind, addr: PhysAddr| {
                let outcome = match kind {
                    TraceKind::Read => m.hierarchy.read(addr, ctx),
                    TraceKind::Write => m.hierarchy.write(addr, ctx),
                    TraceKind::Flush => m.hierarchy.flush(addr),
                };
                logs[idx].summary.absorb(&outcome);
                outcome.cycles
            };
            let mut measured = None;
            let latency = match step {
                TraceStep::Ops { start, end } => {
                    let op = program.op_arena()[start + thread.op];
                    thread.op += 1;
                    if start + thread.op == end {
                        (thread.step, thread.op) = (thread.step + 1, 0);
                    }
                    access(op.kind, op.addr)
                }
                TraceStep::Chase { start, end } => {
                    thread.step += 1;
                    let cycles = program.chase_arena()[start..end]
                        .iter()
                        .map(|&addr| access(TraceKind::Read, addr))
                        .sum();
                    measured = Some(m.tsc.measure(cycles, &mut m.rng));
                    cycles
                }
                TraceStep::WaitEpoch { target } => {
                    thread.step += 1;
                    thread.anchor = target;
                    target.saturating_sub(m.now)
                }
                TraceStep::WaitAnchor { offset } => {
                    thread.step += 1;
                    (thread.anchor + offset).saturating_sub(m.now)
                }
                TraceStep::WaitFloor { floor, offset } => {
                    thread.step += 1;
                    thread.anchor = m.now.max(floor);
                    (thread.anchor + offset).saturating_sub(m.now)
                }
                TraceStep::WaitRel { offset } => {
                    thread.step += 1;
                    offset
                }
                TraceStep::Anchor => unreachable!("markers are latched above"),
            };
            thread.ready_at = m.now + latency.max(1);
            if let Some(measured) = measured {
                logs[idx].measurements.push(Measurement {
                    at: thread.ready_at,
                    measured,
                });
            }
        }
        let end = threads.iter().map(|t| t.ready_at).max().unwrap_or(m.now);
        m.now = m.now.max(end.min(deadline));
        (m.now, hit_limit, logs)
    }

    /// Runs `programs` through the reference on one machine and through
    /// [`Machine::run_session`] (with `co_runners` after the programs) on
    /// another, asserts both observe identical sessions and machines, and
    /// returns the session's report. `flat` holds the co-runners' streams as
    /// ordinary programs for the reference, long enough to outlast the limit.
    fn assert_session_matches_run(
        config: MachineConfig,
        programs: &[TraceProgram],
        co_runners: &mut [CompilerWorkload],
        flat: &[TraceProgram],
        limit: u64,
    ) -> SessionReport {
        let mut reference = Machine::new(config).unwrap();
        let everything: Vec<TraceProgram> = programs.iter().chain(flat).cloned().collect();
        let (finished_at, hit_limit, logs) = run(&mut reference, &everything, limit);
        let mut session = Machine::new(config).unwrap();
        let report = session.run_session(programs, co_runners, limit);

        assert_eq!(report.finished_at, finished_at);
        assert_eq!(report.hit_limit, hit_limit);
        assert_eq!(session.now(), reference.now());
        assert_eq!(report.programs.len(), logs.len());
        for (program, log) in report.programs.iter().zip(&logs) {
            let observed = TurnLog {
                summary: program.summary,
                actions: program.actions,
                stalled_cycles: program.stalled_cycles,
                finished: program.finished,
                measurements: program.measurements.clone(),
            };
            assert_eq!(&observed, log, "{}", program.name);
        }
        for log in &logs[programs.len()..] {
            assert!(
                !log.finished,
                "a flat co-runner stream ran dry: lengthen it"
            );
        }
        report
    }

    /// One generated step of a random program.
    #[derive(Debug, Clone)]
    enum GenStep {
        Ops(Vec<(u8, usize, u64)>),
        Chase(Vec<(usize, u64)>),
        WaitRel(u64),
        Anchor,
        WaitEpoch(u64),
        WaitAnchor(u64),
        WaitFloor(u64, u64),
    }

    fn gen_step() -> impl Strategy<Value = GenStep> {
        // Three sets and a dozen tags per set, so the threads contend.
        let line = (0usize..3, 0u64..12);
        prop_oneof![
            proptest::collection::vec((0u8..3, 0usize..3, 0u64..12), 1..5).prop_map(GenStep::Ops),
            proptest::collection::vec(line, 1..10).prop_map(GenStep::Chase),
            (0u64..3_000).prop_map(GenStep::WaitRel),
            Just(GenStep::Anchor),
            // Targets and offsets on a 250-cycle grid, so threads often
            // become ready on the same cycle as each other and as a
            // periodic interrupt.
            (0u64..48).prop_map(|k| GenStep::WaitEpoch(250 * k)),
            (0u64..12).prop_map(|k| GenStep::WaitAnchor(250 * k)),
            ((0u64..48), (0u64..12)).prop_map(|(k, j)| GenStep::WaitFloor(250 * k, 250 * j)),
        ]
    }

    fn gen_mix() -> impl Strategy<Value = Vec<Vec<GenStep>>> {
        proptest::collection::vec(proptest::collection::vec(gen_step(), 1..12), 2..4)
    }

    fn build(mix: &[Vec<GenStep>]) -> Vec<TraceProgram> {
        let g = CacheGeometry::xeon_l1d();
        let line = |set: usize, tag: u64| PhysAddr::from_set_and_tag(7 * set + 3, tag, g);
        mix.iter()
            .enumerate()
            .map(|(i, steps)| {
                let mut program = TraceProgram::new(format!("p{i}"), i as DomainId + 1);
                for step in steps {
                    match step {
                        GenStep::Ops(ops) => {
                            program.ops(ops.iter().map(|&(kind, set, tag)| match kind {
                                0 => TraceOp::read(line(set, tag)),
                                1 => TraceOp::write(line(set, tag)),
                                _ => TraceOp::flush(line(set, tag)),
                            }));
                        }
                        GenStep::Chase(lines) => {
                            let addrs: Vec<PhysAddr> =
                                lines.iter().map(|&(set, tag)| line(set, tag)).collect();
                            program.chase(&addrs);
                        }
                        GenStep::WaitRel(offset) => {
                            program.wait_rel(*offset);
                        }
                        GenStep::Anchor => {
                            program.anchor();
                        }
                        GenStep::WaitEpoch(target) => {
                            program.wait_epoch(*target);
                        }
                        GenStep::WaitAnchor(offset) => {
                            program.wait_anchor(*offset);
                        }
                        GenStep::WaitFloor(floor, offset) => {
                            program.wait_floor(*floor, *offset);
                        }
                    }
                }
                program
            })
            .collect()
    }

    /// Interrupts every 1 000 cycles, each stalling 500.
    fn periodic_interrupts() -> InterruptConfig {
        InterruptConfig {
            period: 1_000,
            period_jitter: 0,
            duration: 500,
            duration_jitter: 0,
        }
    }

    /// The realistic machine with jittered interrupts: it draws RNG for
    /// interrupt scheduling and for every rdtscp measurement, so identical
    /// results prove the executors consume the stream in the same order.
    fn noisy_config(seed: u64) -> MachineConfig {
        let mut config = MachineConfig::xeon_e5_2650(PolicyKind::TreePlru, seed);
        config.interrupts = InterruptConfig {
            period: 3_000,
            period_jitter: 1_000,
            duration: 400,
            duration_jitter: 150,
        };
        config
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn run_session_matches_run_on_an_ideal_machine(mix in gen_mix(), seed in 0u64..1_000) {
            let config = MachineConfig::ideal(PolicyKind::TreePlru, seed);
            assert_session_matches_run(config, &build(&mix), &mut [], &[], 1_000_000);
        }

        #[test]
        fn run_session_matches_run_with_interrupts_and_tsc_noise(
            mix in gen_mix(),
            seed in 0u64..1_000,
        ) {
            assert_session_matches_run(noisy_config(seed), &build(&mix), &mut [], &[], 1_000_000);
        }

        #[test]
        fn run_session_honours_the_deadline_like_run(
            mix in gen_mix(),
            seed in 0u64..1_000,
            limit in 1u64..6_000,
        ) {
            let mut config = MachineConfig::ideal(PolicyKind::TreePlru, seed);
            config.interrupts = periodic_interrupts();
            assert_session_matches_run(config, &build(&mix), &mut [], &[], limit);
        }
    }

    #[test]
    fn run_session_refills_a_co_runner_invisibly() {
        // A g++ co-runner beside two fixed programs, against the same
        // stream as one flat program: the chunk refills must not show.
        const LIMIT: u64 = 1_000_000;
        const CHUNKS: usize = 8;
        let space = AddressSpace::new(ProcessId(4));
        let mut flat_source = CompilerWorkload::new(space, 4, 77);
        let mut chunk = flat_source.chunk();
        let mut flat = flat_source.chunk();
        for _ in 0..CHUNKS {
            flat_source.refill(&mut chunk);
            for &step in chunk.steps() {
                match step {
                    TraceStep::Ops { start, end } => {
                        flat.ops(chunk.op_arena()[start..end].iter().copied());
                    }
                    TraceStep::WaitRel { offset } => {
                        flat.wait_rel(offset);
                    }
                    other => unreachable!("g++ emits accesses and waits, not {other:?}"),
                }
            }
        }
        let mix = vec![
            vec![
                GenStep::Ops(vec![(0, 0, 1), (1, 0, 2), (0, 1, 3)]),
                GenStep::WaitEpoch(40_000),
                GenStep::Chase((0..10).map(|t| (0, t)).collect()),
                GenStep::WaitRel(2_000),
                GenStep::Chase((0..10).map(|t| (1, t)).collect()),
            ],
            vec![
                GenStep::WaitRel(1_500),
                GenStep::Ops(vec![(1, 0, 4), (1, 1, 5)]),
                GenStep::WaitEpoch(300_000),
                GenStep::Ops(vec![(0, 0, 4), (2, 1, 5)]),
            ],
        ];
        let report = assert_session_matches_run(
            noisy_config(21),
            &build(&mix),
            &mut [CompilerWorkload::new(space, 4, 77)],
            std::slice::from_ref(&flat),
            LIMIT,
        );
        // The co-runner really refilled its arena twice: two turns (an
        // access and a wait) per access of the stream.
        let gpp = &report.programs[2];
        assert_eq!(gpp.name, "g++");
        assert!(
            gpp.actions > 2 * 2 * CHUNK_ACCESSES as u64,
            "only {} turns: raise LIMIT",
            gpp.actions
        );
    }

    #[test]
    fn anchored_waits_follow_the_tlast_discipline() {
        // A program that anchors at its first operation and waits one period
        // per symbol must land its operations exactly one period apart.
        let mut machine = ideal_machine();
        let addr = PhysAddr(0x8000);
        let mut program = TraceProgram::new("sender", 2);
        program
            .wait_epoch(10_000)
            .store(addr)
            .wait_anchor(5_000)
            .anchor()
            .store(addr)
            .wait_anchor(5_000);
        let report = machine.run_session(std::slice::from_ref(&program), &mut [], 1_000_000);
        assert!(report.programs[0].finished);
        // First store issues at the epoch; the first period's wait ends at
        // epoch + period; the second period's wait is anchored at the second
        // store's issue time.
        assert_eq!(report.finished_at, 20_000);
        assert_eq!(report.programs[0].summary.writes, 2);
    }

    #[test]
    fn tracing_neither_perturbs_the_session_nor_breaks_span_nesting() {
        use crate::telemetry::export;

        let config = MachineConfig::xeon_e5_2650(PolicyKind::TreePlru, 13);
        let chase: Vec<PhysAddr> = (0..8).map(|i| PhysAddr(0x4000 + i * 64)).collect();
        let build = || {
            let mut program = TraceProgram::new("receiver", 1);
            program
                .phase(Phase::Prime)
                .load(PhysAddr(0x4000))
                .store(PhysAddr(0x4040))
                .phase(Phase::Wait)
                .wait_epoch(2_000)
                .phase(Phase::Decode)
                .anchor()
                .chase(&chase)
                .phase(Phase::Wait)
                .wait_anchor(1_500);
            program
        };

        let mut plain = Machine::new(config).unwrap();
        let silent = plain.run_session(std::slice::from_ref(&build()), &mut [], 100_000);
        assert!(plain.take_trace().is_empty(), "null sink records nothing");

        let mut traced = Machine::new(config).unwrap();
        traced.enable_tracing();
        let observed = traced.run_session(std::slice::from_ref(&build()), &mut [], 100_000);

        // Bit-identical results: the sink only observes.
        assert_eq!(observed, silent);
        assert_eq!(traced.now(), plain.now());

        // The recorded spans nest, run monotone and name every phase the
        // program declared.
        let events = traced.take_trace();
        assert!(!events.is_empty());
        export::validate(&events).unwrap();
        for label in ["prime", "wait", "decode"] {
            assert!(
                events.iter().any(|e| matches!(
                    &e.kind,
                    crate::telemetry::EventKind::Begin { name, .. } if name == label
                )),
                "missing span {label}"
            );
        }

        // Phase attribution covers every executed cycle of the program and
        // is identical with the sink on or off.
        let profile = observed.programs[0].phase_cycles;
        assert_eq!(profile, silent.programs[0].phase_cycles);
        assert!(profile.get(Phase::Prime) > 0);
        assert!(profile.get(Phase::Wait) > 0);
        assert!(profile.get(Phase::Decode) > 0);
        assert_eq!(profile.get(Phase::Other), 0);
    }

    #[test]
    fn reset_is_indistinguishable_from_a_fresh_machine() {
        // Dirty a machine thoroughly under one config, reset it to another,
        // and require identical behaviour to a truly fresh machine: same
        // outcomes, same measured values (RNG stream), same clock.
        let mut reused =
            Machine::new(MachineConfig::xeon_e5_2650(PolicyKind::TreePlru, 1)).unwrap();
        let warm: Vec<TraceOp> = (0..500u64)
            .map(|i| {
                let addr = PhysAddr(((i * 131) % (1 << 18)) & !63);
                if i % 3 == 0 {
                    TraceOp::write(addr)
                } else {
                    TraceOp::read(addr)
                }
            })
            .collect();
        reused.run_trace(4, &warm);
        let target = MachineConfig::xeon_e5_2650(PolicyKind::IntelLike, 99);
        reused.reset(target).unwrap();
        let mut fresh = Machine::new(target).unwrap();
        assert_eq!(reused.now(), 0);
        for i in 0..400u64 {
            let addr = PhysAddr(((i * 197) % (1 << 16)) & !63);
            let op = [if i % 4 == 0 {
                TraceOp::write(addr)
            } else {
                TraceOp::read(addr)
            }];
            let (a, b) = (reused.run_trace(2, &op), fresh.run_trace(2, &op));
            assert_eq!(a, b, "outcome diverged at access {i}");
            let measured = (
                reused.measured_chase(2, &[addr]),
                fresh.measured_chase(2, &[addr]),
            );
            assert_eq!(measured.0, measured.1, "measurement diverged at access {i}");
        }
        assert_eq!(reused.now(), fresh.now());
    }

    /// Configs the measurement or the interrupt model cannot compute with,
    /// each with the field `check` names: a TSC jitter or overhead above
    /// `i64::MAX`, and an interrupt mean plus jitter past `u64::MAX`.
    fn unusable_configs() -> Vec<(MachineConfig, &'static str)> {
        let base = MachineConfig::xeon_e5_2650(PolicyKind::TreePlru, 3);
        let mut configs = Vec::new();
        for value in [i64::MAX as u64 + 1, u64::MAX] {
            let mut config = base;
            config.tsc.jitter = value;
            configs.push((config, "tsc"));
            config = base;
            config.tsc.overhead = value;
            configs.push((config, "tsc"));
        }
        let mut config = base;
        config.interrupts.period = u64::MAX;
        configs.push((config, "interrupts"));
        config = base;
        config.interrupts.duration = u64::MAX;
        config.interrupts.duration_jitter = 1;
        configs.push((config, "interrupts"));
        configs
    }

    #[test]
    fn new_rejects_what_the_models_cannot_compute_with() {
        for (config, field) in unusable_configs() {
            match Machine::new(config) {
                Err(sim_cache::Error::InvalidConfig { field: named, .. }) => {
                    assert_eq!(named, field, "{config:?}")
                }
                other => panic!("{config:?}: expected InvalidConfig, got {other:?}"),
            }
        }
        // The limits themselves are accepted.
        let mut config = MachineConfig::xeon_e5_2650(PolicyKind::TreePlru, 3);
        config.tsc.jitter = i64::MAX as u64;
        config.tsc.overhead = i64::MAX as u64;
        config.interrupts.duration = u64::MAX - 1;
        config.interrupts.duration_jitter = 1;
        assert!(Machine::new(config).is_ok());
    }

    #[test]
    fn reset_rejects_the_same_configs_and_keeps_the_machine() {
        let config = MachineConfig::xeon_e5_2650(PolicyKind::TreePlru, 3);
        let mut machine = Machine::new(config).unwrap();
        machine.run_trace(1, &[TraceOp::write(PhysAddr(0x40))]);
        let now = machine.now();
        for (bad, field) in unusable_configs() {
            match machine.reset(bad) {
                Err(sim_cache::Error::InvalidConfig { field: named, .. }) => {
                    assert_eq!(named, field, "{bad:?}")
                }
                other => panic!("{bad:?}: expected InvalidConfig, got {other:?}"),
            }
            assert_eq!(machine.config(), &config);
            assert_eq!(machine.now(), now);
        }
    }
}
