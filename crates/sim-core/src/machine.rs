//! The simulated machine: a hyper-threaded core in front of the cache
//! hierarchy.
//!
//! [`Machine`] owns the [`sim_cache::hierarchy::CacheHierarchy`], a global
//! cycle counter (the simulated time-stamp counter), the measurement-noise
//! model, per-domain perf counters and the OS-interrupt noise model.  It can
//! be driven in two ways:
//!
//! * **directly** — experiment code calls [`Machine::read`],
//!   [`Machine::write`], [`Machine::measured_chase`] etc.; each call advances
//!   the clock by the access latency.  This is how the single-threaded
//!   calibration experiments (Table IV, Figure 4) run.
//! * **as an SMT core** — [`Machine::run`] interleaves a set of [`Actor`]s
//!   (sender, receiver, noise processes, benign co-runners) on the shared
//!   hierarchy in event order, which is how the covert-channel transmissions
//!   and the stealthiness experiments run.  This mirrors the paper's setup of
//!   two hyper-threads pinned to one physical core with `sched_setaffinity`.

use crate::perf::{PerfCounters, PerfStore};
use crate::program::{Action, Actor, Completion};
use crate::sched::{InterruptConfig, InterruptModel};
use crate::session::{Measurement, ProgramReport, SessionReport, TraceProgram, TraceStep};
use crate::telemetry::{Phase, PhaseCycles, TraceEvent, TraceSink};
use crate::tsc::{TscConfig, TscModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_cache::addr::{CacheGeometry, PhysAddr};
use sim_cache::cache::AccessContext;
use sim_cache::hierarchy::{CacheHierarchy, HierarchyConfig};
use sim_cache::line::DomainId;
use sim_cache::outcome::AccessOutcome;
use sim_cache::policy::PolicyKind;
use sim_cache::trace::{TraceKind, TraceOp, TraceSummary};

/// Configuration of a [`Machine`].
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MachineConfig {
    /// Cache-hierarchy configuration.
    pub hierarchy: HierarchyConfig,
    /// Measurement (rdtscp) model.
    pub tsc: TscConfig,
    /// OS interruption noise applied to every hardware thread.
    pub interrupts: InterruptConfig,
    /// Core clock in GHz, used to convert cycles into seconds/kbps
    /// (the paper's machine runs at 2.2 GHz).
    pub clock_ghz: f64,
    /// Master seed for all machine-level randomness.
    pub seed: u64,
}

impl MachineConfig {
    /// The paper's evaluation machine: Xeon E5-2650 caches, 2.2 GHz clock,
    /// realistic rdtscp noise and a quiet pinned-core interrupt profile.
    pub fn xeon_e5_2650(l1_policy: PolicyKind, seed: u64) -> MachineConfig {
        MachineConfig {
            hierarchy: HierarchyConfig::xeon_e5_2650(l1_policy, seed),
            tsc: TscConfig::xeon_e5_2650(),
            interrupts: InterruptConfig::pinned_quiet(),
            clock_ghz: 2.2,
            seed,
        }
    }

    /// A noiseless machine for unit tests and latency calibration.
    pub fn ideal(l1_policy: PolicyKind, seed: u64) -> MachineConfig {
        MachineConfig {
            hierarchy: HierarchyConfig::xeon_e5_2650(l1_policy, seed),
            tsc: TscConfig::ideal(),
            interrupts: InterruptConfig::none(),
            clock_ghz: 2.2,
            seed,
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::xeon_e5_2650(PolicyKind::TreePlru, 0)
    }
}

/// Summary of one [`Machine::run`] invocation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RunSummary {
    /// Cycle at which the run stopped.
    pub finished_at: u64,
    /// Number of actions executed per actor (same order as passed to `run`).
    pub actions: Vec<u64>,
    /// Cycles each actor spent stalled by OS interruptions.
    pub stalled_cycles: Vec<u64>,
    /// Whether the run ended because the cycle limit was reached (rather than
    /// all actors finishing).
    pub hit_limit: bool,
}

/// Per-thread scheduling state of an in-flight session run (one compiled
/// program or dynamic actor).
#[derive(Debug)]
struct SessionThread {
    ready_at: u64,
    done: bool,
    interrupts: InterruptModel,
    actions: u64,
    stalled: u64,
    /// Compiled-program cursor: next step index.
    step: usize,
    /// Offset within the current `Ops` step.
    op_cursor: usize,
    /// The program's anchor register (`Tlast` of Algorithm 3).
    anchor: u64,
    /// The open telemetry phase span (compiled programs only).
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
    perf: PerfStore,
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
    /// Propagates cache-configuration errors.
    pub fn new(config: MachineConfig) -> Result<Machine, sim_cache::Error> {
        Ok(Machine {
            hierarchy: CacheHierarchy::new(config.hierarchy)?,
            tsc: TscModel::new(config.tsc),
            rng: StdRng::seed_from_u64(config.seed ^ 0x6d61_6368),
            now: 0,
            perf: PerfStore::new(),
            sink: TraceSink::disabled(),
            config,
        })
    }

    /// Convenience constructor for the paper's machine.
    ///
    /// # Panics
    ///
    /// Never panics; the built-in configuration is valid.
    pub fn xeon_e5_2650(l1_policy: PolicyKind, seed: u64) -> Machine {
        Machine::new(MachineConfig::xeon_e5_2650(l1_policy, seed))
            .expect("built-in configuration is valid")
    }

    /// Resets this machine to the state [`Machine::new`] would produce for
    /// `config`, reusing the cache arenas when geometries are unchanged.
    /// Behaviourally indistinguishable from a fresh construction — the
    /// per-frame transmit loop uses this to stop paying the hierarchy
    /// allocation for every frame.
    ///
    /// # Errors
    ///
    /// Propagates cache-configuration errors.
    pub fn reset(&mut self, config: MachineConfig) -> Result<(), sim_cache::Error> {
        self.hierarchy.reset(config.hierarchy)?;
        self.tsc = TscModel::new(config.tsc);
        self.rng = StdRng::seed_from_u64(config.seed ^ 0x6d61_6368);
        self.now = 0;
        self.perf.reset();
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

    /// Core clock in GHz.
    pub fn clock_ghz(&self) -> f64 {
        self.config.clock_ghz
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

    /// Perf counters of `domain`.
    pub fn perf(&self, domain: DomainId) -> PerfCounters {
        self.perf.counters(domain)
    }

    /// Resets all perf counters and hierarchy statistics.
    pub fn reset_counters(&mut self) {
        self.perf.reset();
        self.hierarchy.reset_stats();
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

    /// Advances the clock without doing anything (models pure compute).
    pub fn advance(&mut self, cycles: u64) {
        self.now += cycles;
    }

    /// Performs a demand load for `domain` and advances the clock.
    pub fn read(&mut self, domain: DomainId, addr: PhysAddr) -> AccessOutcome {
        let outcome = self.hierarchy.read(addr, AccessContext::for_domain(domain));
        self.perf.record(domain, &outcome);
        self.now += outcome.cycles;
        outcome
    }

    /// Performs a demand store for `domain` and advances the clock.
    pub fn write(&mut self, domain: DomainId, addr: PhysAddr) -> AccessOutcome {
        let outcome = self
            .hierarchy
            .write(addr, AccessContext::for_domain(domain));
        self.perf.record(domain, &outcome);
        self.now += outcome.cycles;
        outcome
    }

    /// Executes a batched trace for `domain` and advances the clock once.
    ///
    /// Per-op semantics are identical to issuing the operations through
    /// [`Machine::read`] / [`Machine::write`] / [`Machine::flush`] in
    /// sequence — same cache-state evolution, cycle attribution and perf
    /// counters — but the per-access [`AccessOutcome`] handling and perf
    /// bookkeeping are folded into one summary.  The warm-up and refill
    /// loops of the calibration and defense harnesses run through this.
    pub fn run_trace(&mut self, domain: DomainId, ops: &[TraceOp]) -> TraceSummary {
        let summary = self
            .hierarchy
            .run_trace(ops, AccessContext::for_domain(domain));
        self.perf.record_trace(domain, &summary);
        self.now += summary.cycles;
        summary
    }

    /// Flushes a line for `domain` and advances the clock.
    pub fn flush(&mut self, domain: DomainId, addr: PhysAddr) -> AccessOutcome {
        let outcome = self
            .hierarchy
            .flush(addr, AccessContext::for_domain(domain));
        self.perf.record(domain, &outcome);
        self.now += outcome.cycles;
        outcome
    }

    /// Executes a serialised pointer-chasing walk and returns
    /// `(measured, true_latency)`: the value the attacker's `rdtscp` pair
    /// reports and the underlying true latency.
    ///
    /// The walk — the receiver's decode hot loop — runs through the batched
    /// trace engine: per-line semantics are unchanged but no per-access
    /// outcome is materialised.
    pub fn measured_chase(&mut self, domain: DomainId, addrs: &[PhysAddr]) -> (u64, u64) {
        let summary = self
            .hierarchy
            .run_read_trace(addrs, AccessContext::for_domain(domain));
        self.perf.record_trace(domain, &summary);
        self.now += summary.cycles;
        let measured = self.tsc.measure(summary.cycles, &mut self.rng);
        (measured, summary.cycles)
    }

    /// Executes a single measured load, returning `(measured, outcome)`.
    pub fn measured_read(&mut self, domain: DomainId, addr: PhysAddr) -> (u64, AccessOutcome) {
        let outcome = self.hierarchy.read(addr, AccessContext::for_domain(domain));
        self.perf.record(domain, &outcome);
        self.now += outcome.cycles;
        let measured = self.tsc.measure(outcome.cycles, &mut self.rng);
        (measured, outcome)
    }

    /// Runs a set of actors concurrently (one hardware thread each) until
    /// every actor is done or `limit` cycles have elapsed.
    ///
    /// Actions execute atomically in global time order; each actor's next
    /// action starts when its previous one finished, so the actors genuinely
    /// overlap in time on the shared cache hierarchy, as two hyper-threads
    /// do.  OS interruptions stall individual actors according to the
    /// machine's [`InterruptConfig`].
    pub fn run(&mut self, actors: &mut [&mut dyn Actor], limit: u64) -> RunSummary {
        struct ThreadState {
            ready_at: u64,
            done: bool,
            interrupts: InterruptModel,
            actions: u64,
            stalled: u64,
        }

        let mut threads: Vec<ThreadState> = (0..actors.len())
            .map(|_| ThreadState {
                ready_at: self.now,
                done: false,
                interrupts: InterruptModel::new(&self.config.interrupts, &mut self.rng),
                actions: 0,
                stalled: 0,
            })
            .collect();
        let deadline = self.now + limit;
        let mut hit_limit = false;
        if self.sink.is_enabled() {
            // The stepped executor traces at actor granularity: one span per
            // hardware thread for the lifetime of its script.
            for actor in actors.iter() {
                self.sink.begin(
                    actor.domain(),
                    actor.name().to_owned(),
                    Phase::Other,
                    self.now,
                );
            }
        }

        loop {
            // Pick the runnable thread with the earliest ready time.
            let next = threads
                .iter()
                .enumerate()
                .filter(|(_, t)| !t.done)
                .min_by_key(|(_, t)| t.ready_at)
                .map(|(i, t)| (i, t.ready_at));
            let Some((idx, ready_at)) = next else {
                break; // every actor finished
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
                threads[idx].ready_at = self.now + stall;
                threads[idx].stalled += stall;
                continue;
            }

            let action = actors[idx].next_action(self.now);
            threads[idx].actions += 1;
            let domain = actors[idx].domain();
            let started = self.now;

            if matches!(action, Action::Done) {
                threads[idx].done = true;
                self.sink
                    .end(domain, actors[idx].name().to_owned(), self.now);
                continue;
            }
            let completion = self.execute_action(domain, action, started);
            threads[idx].ready_at = completion.finished_at;
            actors[idx].on_completion(&completion);
        }

        // The machine clock ends at the latest point any actor reached (or
        // the deadline when the limit was hit).
        let end = threads
            .iter()
            .map(|t| t.ready_at)
            .max()
            .unwrap_or(self.now)
            .min(deadline);
        self.now = self.now.max(end);
        if self.sink.is_enabled() {
            // Close the spans of actors the deadline cut off, and sample
            // each actor's turn/stall counters at the end clock.
            for (idx, thread) in threads.iter().enumerate() {
                let domain = actors[idx].domain();
                if !thread.done {
                    self.sink
                        .end(domain, actors[idx].name().to_owned(), self.now);
                }
                self.sink
                    .counter(domain, "actions", thread.actions, self.now);
                self.sink
                    .counter(domain, "stalled_cycles", thread.stalled, self.now);
            }
        }

        RunSummary {
            finished_at: self.now,
            actions: threads.iter().map(|t| t.actions).collect(),
            stalled_cycles: threads.iter().map(|t| t.stalled).collect(),
            hit_limit,
        }
    }

    /// Executes one non-`Done` action for `domain` starting at `started` and
    /// returns its completion — the single implementation behind both
    /// [`Machine::run`]'s actor turns and the dynamic-actor turns of
    /// [`Machine::run_session`].
    fn execute_action(&mut self, domain: DomainId, action: Action, started: u64) -> Completion {
        let mut completion = Completion {
            finished_at: started,
            latency: 0,
            measured: None,
            outcomes: Vec::new(),
        };
        match action {
            Action::Done => unreachable!("Done is handled by the scheduler"),
            Action::Load(addr) => {
                let outcome = self.hierarchy.read(addr, AccessContext::for_domain(domain));
                self.perf.record(domain, &outcome);
                completion.latency = outcome.cycles;
                completion.outcomes.push(outcome);
            }
            Action::Store(addr) => {
                let outcome = self
                    .hierarchy
                    .write(addr, AccessContext::for_domain(domain));
                self.perf.record(domain, &outcome);
                completion.latency = outcome.cycles;
                completion.outcomes.push(outcome);
            }
            Action::Flush(addr) => {
                let outcome = self
                    .hierarchy
                    .flush(addr, AccessContext::for_domain(domain));
                self.perf.record(domain, &outcome);
                completion.latency = outcome.cycles;
                completion.outcomes.push(outcome);
            }
            Action::MeasuredChase(addrs) => {
                // The chase is the receiver's bulk decode path: execute
                // it as one batched trace.  Per-line semantics (ordering,
                // latency, perf counters) are identical, but no
                // per-access outcome is materialised — `outcomes` stays
                // empty for chases (see [`Completion::outcomes`]).
                let summary = self
                    .hierarchy
                    .run_read_trace(&addrs, AccessContext::for_domain(domain));
                self.perf.record_trace(domain, &summary);
                completion.latency = summary.cycles;
                completion.measured = Some(self.tsc.measure(summary.cycles, &mut self.rng));
            }
            Action::WaitUntil(target) => {
                completion.latency = target.saturating_sub(started);
            }
            Action::Compute(cycles) => {
                completion.latency = cycles;
            }
        }
        // Every action costs at least one cycle of issue bandwidth; this
        // also guarantees forward progress for zero-length waits.
        completion.finished_at = started + completion.latency.max(1);
        completion
    }

    /// Runs a set of compiled [`TraceProgram`]s — optionally alongside
    /// dynamic [`Actor`]s — until every thread is done or `limit` cycles
    /// have elapsed.
    ///
    /// The scheduling semantics are **identical** to [`Machine::run`] with
    /// the programs' operations issued as individual actions by actors
    /// listed before `extras`: one scheduling turn per operation, an
    /// OS-interrupt poll before every turn, earliest-ready-first order with
    /// lowest-index tie-breaking, a minimum advance of one cycle per action,
    /// and the same deadline rule.  What changes is purely mechanical: no
    /// per-action allocation or virtual dispatch for compiled programs,
    /// per-program perf accounting folded into one [`TraceSummary`] (the
    /// batched [`PerfCounters::record_trace`] path), and consecutive
    /// operations of one program executed back-to-back whenever no other
    /// thread, interrupt or deadline could be scheduled between them.
    pub fn run_session(
        &mut self,
        programs: &[TraceProgram],
        extras: &mut [&mut dyn Actor],
        limit: u64,
    ) -> SessionReport {
        let total = programs.len() + extras.len();
        let mut threads: Vec<SessionThread> = (0..total)
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
        if self.sink.is_enabled() {
            // Dynamic actors trace at actor granularity, like Machine::run;
            // compiled programs get phase spans from their step annotations.
            for actor in extras.iter() {
                self.sink.begin(
                    actor.domain(),
                    actor.name().to_owned(),
                    Phase::Other,
                    self.now,
                );
            }
        }

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
                threads[idx].ready_at = self.now + stall;
                threads[idx].stalled += stall;
                continue;
            }

            if idx >= programs.len() {
                // ---- dynamic actor turn (identical to Machine::run) ------
                let actor = &mut extras[idx - programs.len()];
                let action = actor.next_action(self.now);
                threads[idx].actions += 1;
                let domain = actor.domain();
                let started = self.now;
                if matches!(action, Action::Done) {
                    threads[idx].done = true;
                    self.sink.end(domain, actor.name().to_owned(), self.now);
                    continue;
                }
                let completion = self.execute_action(domain, action, started);
                threads[idx].ready_at = completion.finished_at;
                actor.on_completion(&completion);
                continue;
            }

            // ---- compiled program turn -------------------------------------
            let program = &programs[idx];
            let ctx = AccessContext::for_domain(program.domain());
            // The earliest other live thread bounds how far this program may
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
                let thread = &mut threads[idx];
                // Anchor markers are free: the anchor is the issue time of
                // the next real operation (interrupt stalls included).
                while let Some(TraceStep::Anchor) = program.steps().get(thread.step) {
                    thread.anchor = self.now;
                    thread.step += 1;
                }
                let Some(&step) = program.steps().get(thread.step) else {
                    // The Done turn.
                    thread.actions += 1;
                    thread.done = true;
                    reports[idx].finished = true;
                    if let Some(prev) = thread.span.take() {
                        self.sink.end(program.domain(), prev.label(), self.now);
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
                            TraceKind::Flush => self.hierarchy.flush(op.addr, ctx),
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
                    TraceStep::WaitUntil { target } => {
                        thread.step += 1;
                        target.saturating_sub(started)
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
                        .phase_switch(program.domain(), thread.span.take(), phase, started);
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

        // Fold each program's aggregate into the perf counters — the batched
        // equivalent of the per-access recording the actor path performs.
        for (program, report) in programs.iter().zip(reports.iter_mut()) {
            self.perf.record_trace(program.domain(), &report.summary);
        }
        for (thread, report) in threads.iter().zip(reports.iter_mut()) {
            report.actions = thread.actions;
            report.stalled_cycles = thread.stalled;
        }
        if self.sink.is_enabled() {
            // Close the spans the deadline cut off (program phase spans and
            // unfinished dynamic actors), then sample per-thread counters.
            for (idx, thread) in threads.iter_mut().enumerate() {
                let (domain, name) = if idx < programs.len() {
                    (programs[idx].domain(), programs[idx].name())
                } else {
                    let actor = &extras[idx - programs.len()];
                    (actor.domain(), actor.name())
                };
                if let Some(prev) = thread.span.take() {
                    self.sink.end(domain, prev.label(), self.now);
                } else if idx >= programs.len() && !thread.done {
                    self.sink.end(domain, name.to_owned(), self.now);
                }
                self.sink
                    .counter(domain, "actions", thread.actions, self.now);
                self.sink
                    .counter(domain, "stalled_cycles", thread.stalled, self.now);
            }
        }

        SessionReport {
            finished_at: self.now,
            hit_limit,
            programs: reports,
            actor_actions: threads[programs.len()..]
                .iter()
                .map(|t| t.actions)
                .collect(),
            actor_stalled: threads[programs.len()..]
                .iter()
                .map(|t| t.stalled)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memlayout::SetLines;
    use crate::process::{AddressSpace, ProcessId};
    use crate::program::ScriptedActor;
    use sim_cache::outcome::HitLevel;

    fn ideal_machine() -> Machine {
        Machine::new(MachineConfig::ideal(PolicyKind::TrueLru, 7)).unwrap()
    }

    #[test]
    fn direct_reads_advance_the_clock_by_the_latency() {
        let mut m = ideal_machine();
        let addr = PhysAddr(0x4000);
        let t0 = m.now();
        let miss = m.read(1, addr);
        assert_eq!(m.now() - t0, miss.cycles);
        let t1 = m.now();
        let hit = m.read(1, addr);
        assert_eq!(hit.hit, HitLevel::L1D);
        assert_eq!(m.now() - t1, hit.cycles);
        assert_eq!(m.perf(1).l1_loads, 2);
        assert_eq!(m.perf(1).l1_load_misses, 1);
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
        for &a in replacement_a.lines().iter().chain(replacement_b.lines()) {
            m.read(1, a);
        }
        for &a in target.lines() {
            m.read(2, a);
        }
        let (clean, _) = m.measured_chase(1, replacement_a.lines());

        // Sender dirties 4 of its lines that are still resident.
        for &a in target.lines().iter().take(4) {
            m.read(2, a); // ensure residency
        }
        // Refill the set with sender lines, then dirty 4 of them.
        for &a in target.lines() {
            m.read(2, a);
        }
        for &a in target.lines().iter().take(4) {
            m.write(2, a);
        }
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
        let mut cycles = 0u64;
        for op in &ops {
            use sim_cache::trace::TraceKind;
            let outcome = match op.kind {
                TraceKind::Read => serial.read(5, op.addr),
                TraceKind::Write => serial.write(5, op.addr),
                TraceKind::Flush => serial.flush(5, op.addr),
            };
            cycles += outcome.cycles;
        }
        assert_eq!(summary.cycles, cycles);
        assert_eq!(batched.now(), serial.now());
        assert_eq!(batched.perf(5), serial.perf(5));
        assert_eq!(batched.hierarchy().stats(), serial.hierarchy().stats());
    }

    #[test]
    fn run_interleaves_two_actors_in_time() {
        let mut m = ideal_machine();
        let a_addr = PhysAddr(0x10_0000);
        let b_addr = PhysAddr(0x20_0000);
        let mut a = ScriptedActor::new(
            "a",
            1,
            vec![
                Action::Load(a_addr),
                Action::Compute(50),
                Action::Load(a_addr),
            ],
        );
        let mut b = ScriptedActor::new("b", 2, vec![Action::Compute(10), Action::Load(b_addr)]);
        let summary = {
            let mut actors: Vec<&mut dyn Actor> = vec![&mut a, &mut b];
            m.run(&mut actors, 1_000_000)
        };
        assert!(!summary.hit_limit);
        assert_eq!(
            summary.actions,
            vec![4, 3],
            "each actor runs its script plus Done"
        );
        assert_eq!(a.completions().len(), 3);
        assert_eq!(b.completions().len(), 2);
        // The second load of `a` is an L1 hit because the first one filled it.
        assert_eq!(a.completions()[2].outcomes[0].hit, HitLevel::L1D);
        // Completion times are monotone per actor.
        assert!(a.completions()[0].finished_at < a.completions()[1].finished_at);
    }

    #[test]
    fn run_honours_the_cycle_limit() {
        let mut m = ideal_machine();
        // An actor that computes forever.
        struct Spinner;
        impl Actor for Spinner {
            fn name(&self) -> &str {
                "spinner"
            }
            fn domain(&self) -> DomainId {
                9
            }
            fn next_action(&mut self, _now: u64) -> Action {
                Action::Compute(100)
            }
            fn on_completion(&mut self, _completion: &Completion) {}
        }
        let mut spinner = Spinner;
        let summary = {
            let mut actors: Vec<&mut dyn Actor> = vec![&mut spinner];
            m.run(&mut actors, 10_000)
        };
        assert!(summary.hit_limit);
        assert!(summary.finished_at <= 10_000);
        assert!(summary.actions[0] >= 90);
    }

    #[test]
    fn wait_until_lands_on_the_requested_cycle() {
        let mut m = ideal_machine();
        let mut actor =
            ScriptedActor::new("w", 1, vec![Action::WaitUntil(5_000), Action::Compute(1)]);
        {
            let mut actors: Vec<&mut dyn Actor> = vec![&mut actor];
            m.run(&mut actors, 100_000);
        }
        assert_eq!(actor.completions()[0].finished_at, 5_000);
        assert_eq!(actor.completions()[1].finished_at, 5_001);
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
        let script = vec![Action::Compute(100); 100];
        let mut actor = ScriptedActor::new("busy", 1, script);
        let summary = {
            let mut actors: Vec<&mut dyn Actor> = vec![&mut actor];
            m.run(&mut actors, 1_000_000)
        };
        assert!(
            summary.stalled_cycles[0] > 0,
            "the actor must have been preempted"
        );
    }

    /// Builds the same workload twice — scripted actors for [`Machine::run`]
    /// and compiled programs for [`Machine::run_session`] — and asserts the
    /// two executors observe identical machines afterwards.
    fn assert_session_matches_run(config: MachineConfig, limit: u64) {
        let g = CacheGeometry::xeon_l1d();
        let line = |set: usize, tag: u64| PhysAddr::from_set_and_tag(set, tag, g);

        // Thread 0: loads, an absolute wait, a measured chase, stores.
        let chase: Vec<PhysAddr> = (0..10).map(|t| line(21, 1_000 + t)).collect();
        let script_a = vec![
            Action::Load(line(21, 0)),
            Action::Load(line(21, 1)),
            Action::WaitUntil(4_000),
            Action::MeasuredChase(chase.clone()),
            Action::Store(line(21, 2)),
            Action::Flush(line(21, 1)),
        ];
        // Thread 1: interleaved loads and waits on another set.
        let script_b = vec![
            Action::Load(line(7, 0)),
            Action::WaitUntil(2_500),
            Action::Store(line(7, 1)),
            Action::Load(line(7, 0)),
        ];

        let mut run_machine = Machine::new(config).unwrap();
        let mut a = ScriptedActor::new("a", 1, script_a);
        let mut b = ScriptedActor::new("b", 2, script_b.clone());
        let summary = {
            let mut actors: Vec<&mut dyn Actor> = vec![&mut a, &mut b];
            run_machine.run(&mut actors, limit)
        };

        let mut program = TraceProgram::new("a", 1);
        program
            .load(line(21, 0))
            .load(line(21, 1))
            .wait_until(4_000)
            .chase(&chase)
            .store(line(21, 2))
            .ops([TraceOp::flush(line(21, 1))]);
        let mut session_machine = Machine::new(config).unwrap();
        let mut b2 = ScriptedActor::new("b", 2, script_b);
        let report = {
            let mut extras: Vec<&mut dyn Actor> = vec![&mut b2];
            session_machine.run_session(std::slice::from_ref(&program), &mut extras, limit)
        };

        assert_eq!(report.finished_at, summary.finished_at);
        assert_eq!(report.hit_limit, summary.hit_limit);
        assert_eq!(session_machine.now(), run_machine.now());
        assert_eq!(session_machine.perf(1), run_machine.perf(1));
        assert_eq!(session_machine.perf(2), run_machine.perf(2));
        assert_eq!(
            session_machine.hierarchy().stats(),
            run_machine.hierarchy().stats()
        );
        assert_eq!(report.programs[0].latencies(), a.measurements());
        assert_eq!(report.programs[0].actions, summary.actions[0]);
        assert_eq!(report.actor_actions, vec![summary.actions[1]]);
        assert_eq!(
            report.programs[0].stalled_cycles + report.actor_stalled[0],
            summary.stalled_cycles.iter().sum::<u64>()
        );
    }

    #[test]
    fn run_session_matches_run_on_an_ideal_machine() {
        assert_session_matches_run(MachineConfig::ideal(PolicyKind::TreePlru, 5), 1_000_000);
    }

    #[test]
    fn run_session_matches_run_with_interrupts_and_tsc_noise() {
        // The realistic machine draws RNG for interrupt scheduling and for
        // every rdtscp measurement; identical results prove the executors
        // consume the stream in the same order.
        let mut config = MachineConfig::xeon_e5_2650(PolicyKind::TreePlru, 11);
        config.interrupts = InterruptConfig {
            period: 3_000,
            period_jitter: 1_000,
            duration: 400,
            duration_jitter: 150,
        };
        assert_session_matches_run(config, 1_000_000);
    }

    #[test]
    fn run_session_honours_the_deadline_like_run() {
        let mut config = MachineConfig::ideal(PolicyKind::TreePlru, 3);
        config.interrupts = InterruptConfig {
            period: 1_000,
            period_jitter: 0,
            duration: 500,
            duration_jitter: 0,
        };
        assert_session_matches_run(config, 3_000);
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
                .wait_until(2_000)
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
        assert_eq!(traced.perf(1), plain.perf(1));

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
        // outcomes, same measured values (RNG stream), same perf and stats.
        let mut reused =
            Machine::new(MachineConfig::xeon_e5_2650(PolicyKind::TreePlru, 1)).unwrap();
        for i in 0..500u64 {
            let addr = PhysAddr(((i * 131) % (1 << 18)) & !63);
            if i % 3 == 0 {
                reused.write(4, addr);
            } else {
                reused.read(4, addr);
            }
        }
        let target = MachineConfig::xeon_e5_2650(PolicyKind::IntelLike, 99);
        reused.reset(target).unwrap();
        let mut fresh = Machine::new(target).unwrap();
        assert_eq!(reused.now(), 0);
        assert_eq!(reused.perf(4), PerfCounters::default());
        for i in 0..400u64 {
            let addr = PhysAddr(((i * 197) % (1 << 16)) & !63);
            let (a, b) = if i % 4 == 0 {
                (reused.write(2, addr), fresh.write(2, addr))
            } else {
                (reused.read(2, addr), fresh.read(2, addr))
            };
            assert_eq!(a, b, "outcome diverged at access {i}");
            let (ma, _) = reused.measured_read(2, addr);
            let (mb, _) = fresh.measured_read(2, addr);
            assert_eq!(ma, mb, "measurement diverged at access {i}");
        }
        assert_eq!(reused.hierarchy().stats(), fresh.hierarchy().stats());
        assert_eq!(reused.perf(2), fresh.perf(2));
        assert_eq!(reused.now(), fresh.now());
    }

    #[test]
    fn reset_counters_clears_perf_and_stats() {
        let mut m = ideal_machine();
        m.read(1, PhysAddr(0));
        assert_eq!(m.perf(1).l1_loads, 1);
        m.reset_counters();
        assert_eq!(m.perf(1).l1_loads, 0);
        assert_eq!(m.hierarchy().stats().l1d.accesses(), 0);
    }
}
