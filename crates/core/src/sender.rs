//! The WB-channel sender (Algorithm 1 + the sender half of Algorithm 3).
//!
//! For every symbol the sender stores to `d` of its own cache lines that map
//! to the target set, putting them into the dirty state, and then busy-waits
//! until the next sending period.  Transmitting a binary `0` requires no
//! memory access at all, which is what makes the sender so quiet in the
//! perf-counter profiles of Tables VI and VII.

use crate::encoding::SymbolEncoding;
use sim_cache::line::DomainId;
use sim_cache::trace::TraceOp;
use sim_core::memlayout::SetLines;
use sim_core::session::TraceProgram;
use sim_core::telemetry::Phase;

/// The covert-channel sender: a symbol stream and the lines it dirties,
/// compiled into a [`TraceProgram`] for the simulated SMT core.
#[derive(Debug)]
pub struct WbSender {
    name: String,
    domain: DomainId,
    /// The sender's own lines mapping to the target set (the paper's
    /// "lines 0–N"); disjoint from the receiver's lines because the two
    /// processes share no memory.
    target_lines: SetLines,
    encoding: SymbolEncoding,
    /// The symbol stream to transmit.
    symbols: Vec<usize>,
    /// Sending period `Ts` in cycles.
    period: u64,
    /// Optional private hot lines touched every period, modelling the
    /// spin-loop/stack footprint of the real sender process.  Used by the
    /// stealthiness experiments (Tables VI and VII); plain channel
    /// transmissions leave this empty.
    spin_lines: Option<SetLines>,
    spin_loads_per_period: usize,
    /// Cycle at which the first symbol period starts (the rendezvous time the
    /// two parties agreed on).  Zero means "start immediately".
    start_at: u64,
}

impl WbSender {
    /// Creates a sender that will transmit `symbols` (already encoded symbol
    /// values) at one symbol per `period` cycles.
    ///
    /// # Panics
    ///
    /// Panics if any symbol value is out of range for the encoding, or if the
    /// encoding needs more dirty lines than `target_lines` provides.  Neither
    /// is reachable through a [`crate::channel::ChannelConfig`] from the
    /// builder or [`crate::session::ChannelSession::new`]: both validate the
    /// encoding ([`SymbolEncoding::validate`]), so its levels are at most 8,
    /// the target set's 8 lines, and a frame packs whole symbols of
    /// `bits_per_symbol` bits, each below `num_symbols`.
    pub fn new(
        domain: DomainId,
        target_lines: SetLines,
        encoding: SymbolEncoding,
        symbols: Vec<usize>,
        period: u64,
    ) -> WbSender {
        let max_level = encoding
            .levels()
            .into_iter()
            .max()
            .expect("encodings always have at least two symbols");
        assert!(
            max_level <= target_lines.len(),
            "encoding needs {max_level} lines but the layout provides {}",
            target_lines.len()
        );
        assert!(
            symbols.iter().all(|&s| s < encoding.num_symbols()),
            "symbol value out of range for {encoding}"
        );
        WbSender {
            name: "wb-sender".to_owned(),
            domain,
            target_lines,
            encoding,
            symbols,
            period: period.max(1),
            spin_lines: None,
            spin_loads_per_period: 0,
            start_at: 0,
        }
    }

    /// Delays the first symbol period until the given absolute cycle — the
    /// rendezvous time the sender and receiver agreed on out of band.
    #[must_use]
    pub fn with_start_epoch(mut self, start_at: u64) -> WbSender {
        self.start_at = start_at;
        self
    }

    /// Adds a private spin-loop footprint: `loads_per_period` loads over
    /// `lines` are issued every period, modelling the stack and loop
    /// variables the real sender process keeps touching while it busy-waits.
    #[must_use]
    pub fn with_spin_footprint(mut self, lines: SetLines, loads_per_period: usize) -> WbSender {
        self.spin_lines = Some(lines);
        self.spin_loads_per_period = loads_per_period;
        self
    }

    /// Compiles the sender's full transmission into a [`TraceProgram`] for
    /// [`sim_core::machine::Machine::run_session`]: the rendezvous wait, then
    /// per symbol the `d` encoding stores, the optional spin-loop loads, and
    /// the period wait anchored at the period's first operation — the
    /// `Tlast` discipline of Algorithm 3.
    ///
    /// The compiled rendezvous assumes the session starts at a machine time
    /// of at most [`WbSender::with_start_epoch`]'s epoch (a fresh machine
    /// starts at cycle zero), matching how transmissions construct their
    /// machines.
    pub fn compile(&self) -> TraceProgram {
        let mut program = TraceProgram::new(self.name.clone(), self.domain);
        self.compile_into(&mut program);
        program
    }

    /// [`WbSender::compile`] into an existing program: clears it and
    /// rebuilds the transmission in place, keeping its name, domain and
    /// arena capacity.
    pub fn compile_into(&self, program: &mut TraceProgram) {
        program.clear();
        let stores: usize = self
            .symbols
            .iter()
            .map(|&symbol| self.encoding.dirty_lines_for(symbol))
            .sum();
        let spin = if self.spin_lines.as_ref().is_some_and(|s| !s.is_empty()) {
            self.spin_loads_per_period
        } else {
            0
        };
        // Steps: the rendezvous wait or anchor, then per symbol at most an
        // anchor, the stores, the spin loads and the period wait.
        program.reserve(
            1 + 4 * self.symbols.len(),
            stores + spin * self.symbols.len(),
            0,
        );
        if self.start_at > 0 {
            // `Tlast` is the epoch itself, however late the wait completes.
            program.phase(Phase::Wait).wait_epoch(self.start_at);
        } else {
            // `Tlast` is the time the first operation issues.
            program.phase(Phase::Encode).anchor();
        }
        for (index, &symbol) in self.symbols.iter().enumerate() {
            program.phase(Phase::Encode);
            if index > 0 {
                // Each later period re-reads `Tlast` when its first
                // operation issues.
                program.anchor();
            }
            let d = self.encoding.dirty_lines_for(symbol);
            program.ops((0..d).map(|i| TraceOp::write(self.target_lines.line(i))));
            if let Some(spin) = &self.spin_lines {
                if !spin.is_empty() {
                    program.ops(
                        (0..self.spin_loads_per_period)
                            .map(|i| TraceOp::read(spin.line(i % spin.len()))),
                    );
                }
            }
            program.phase(Phase::Wait).wait_anchor(self.period);
        }
        if cfg!(debug_assertions) {
            program.assert_valid();
        }
    }

    /// The symbol stream this sender transmits.
    pub fn symbols(&self) -> &[usize] {
        &self.symbols
    }

    /// The bit stream corresponding to the symbol stream.
    pub fn bits(&self) -> Vec<bool> {
        self.encoding.symbols_to_bits(&self.symbols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cache::addr::CacheGeometry;
    use sim_cache::policy::PolicyKind;
    use sim_cache::trace::TraceKind;
    use sim_core::machine::{Machine, MachineConfig};
    use sim_core::process::{AddressSpace, ProcessId};
    use sim_core::session::TraceStep;

    fn lines() -> SetLines {
        crate::PartyLines::build(CacheGeometry::xeon_l1d(), crate::REPLACEMENT_SIZE).sender
    }

    /// `(stores, loads)` the compiled program issues in each period, split
    /// at the period waits.
    fn per_period(program: &TraceProgram) -> Vec<(usize, usize)> {
        let mut periods = Vec::new();
        let (mut stores, mut loads) = (0, 0);
        for &step in program.steps() {
            match step {
                TraceStep::Ops { start, end } => {
                    for op in &program.op_arena()[start..end] {
                        match op.kind {
                            TraceKind::Write => stores += 1,
                            TraceKind::Read => loads += 1,
                            TraceKind::Flush => unreachable!("the sender never flushes"),
                        }
                    }
                }
                TraceStep::WaitAnchor { .. } => {
                    periods.push((stores, loads));
                    (stores, loads) = (0, 0);
                }
                _ => {}
            }
        }
        periods
    }

    #[test]
    fn binary_one_stores_d_lines_and_zero_stores_none() {
        let encoding = SymbolEncoding::binary(3).unwrap();
        let sender = WbSender::new(2, lines(), encoding, vec![1, 0, 1], 1_000);
        let program = sender.compile();
        // One wait per symbol; two '1' symbols at d=3.
        assert_eq!(per_period(&program), vec![(3, 0), (0, 0), (3, 0)]);
        let stored: Vec<u64> = program
            .op_arena()
            .iter()
            .map(|op| op.addr.value())
            .collect();
        let first_three: Vec<u64> = lines().lines()[..3].iter().map(|a| a.value()).collect();
        assert_eq!(stored[..3], first_three[..], "a symbol dirties lines 0..d");
        assert_eq!(stored[3..], first_three[..]);
    }

    #[test]
    fn multi_bit_symbols_store_their_level() {
        let encoding = SymbolEncoding::paper_two_bit();
        let sender = WbSender::new(2, lines(), encoding, vec![0, 1, 2, 3], 2_000);
        let stores: Vec<usize> = per_period(&sender.compile())
            .into_iter()
            .map(|(stores, _)| stores)
            .collect();
        assert_eq!(stores, vec![0, 3, 5, 8]);
    }

    #[test]
    fn waits_target_consecutive_period_boundaries() {
        let encoding = SymbolEncoding::binary(1).unwrap();
        let sender = WbSender::new(2, lines(), encoding, vec![0, 0, 0], 5_000);
        let program = sender.compile();
        // Every period re-anchors at its first operation and waits one
        // period past it.
        let expected = [TraceStep::Anchor, TraceStep::WaitAnchor { offset: 5_000 }].repeat(3);
        assert_eq!(program.steps(), &expected[..]);
        // Started at cycle 100, the three periods end on 5 100, 10 100 and
        // 15 100.
        let mut machine = Machine::new(MachineConfig::ideal(PolicyKind::TreePlru, 0)).unwrap();
        let mut start = TraceProgram::new("start", 2);
        start.wait_epoch(100);
        machine.run_session(std::slice::from_ref(&start), &mut [], 1_000);
        let report = machine.run_session(std::slice::from_ref(&program), &mut [], 1_000_000);
        assert_eq!(report.finished_at, 15_100);
        // With a rendezvous epoch the first period starts at the epoch.
        let epoch = WbSender::new(
            2,
            lines(),
            SymbolEncoding::binary(1).unwrap(),
            vec![0],
            5_000,
        )
        .with_start_epoch(20_000)
        .compile();
        assert_eq!(
            epoch.steps(),
            &[
                TraceStep::WaitEpoch { target: 20_000 },
                TraceStep::WaitAnchor { offset: 5_000 }
            ]
        );
    }

    #[test]
    fn bits_round_trip_through_the_encoding() {
        let encoding = SymbolEncoding::binary(4).unwrap();
        let sender = WbSender::new(2, lines(), encoding, vec![1, 0, 1, 1], 100);
        assert_eq!(sender.bits(), vec![true, false, true, true]);
        assert_eq!(sender.symbols(), &[1, 0, 1, 1]);
        let program = sender.compile();
        assert_eq!(program.name(), "wb-sender");
        assert_eq!(program.domain(), 2);
    }

    #[test]
    #[should_panic(expected = "symbol value out of range")]
    fn rejects_out_of_range_symbols() {
        let encoding = SymbolEncoding::binary(1).unwrap();
        let _ = WbSender::new(2, lines(), encoding, vec![2], 100);
    }

    #[test]
    fn spin_footprint_adds_loads_every_period() {
        let spin = SetLines::build(
            AddressSpace::new(ProcessId(2)),
            CacheGeometry::xeon_l1d(),
            40,
            4,
            500,
        );
        let encoding = SymbolEncoding::binary(1).unwrap();
        let sender =
            WbSender::new(2, lines(), encoding, vec![0, 1, 0], 1_000).with_spin_footprint(spin, 6);
        // 6 spin loads per period over 3 symbols, after the period's stores.
        assert_eq!(per_period(&sender.compile()), vec![(0, 6), (1, 6), (0, 6)]);
    }
}
