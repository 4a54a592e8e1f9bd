//! # wb-channel
//!
//! The primary contribution of *Abusing Cache Line Dirty States to Leak
//! Information in Commercial Processors* (Cui, Yang, Cheng — HPCA 2022),
//! reproduced end-to-end on the `sim-cache` / `sim-core` substrate: a
//! **Miss+Miss covert channel** that encodes information in the number of
//! dirty cache lines of one L1 target set and decodes it from the latency of
//! replacing that set.
//!
//! ## Module map
//!
//! | module | paper artefact |
//! |---|---|
//! | [`encoding`] | Algorithm 1's binary and multi-bit symbol encodings |
//! | [`sender`] | Algorithm 1 + the sender half of Algorithm 3 |
//! | [`receiver`] | Algorithm 2 + the receiver half of Algorithm 3 |
//! | [`protocol`] | framing, 16-bit preamble, latency decoding, edit-distance scoring |
//! | [`channel`] | channel configuration and transmission reports (Figures 5–7, Section V bandwidths) |
//! | [`session`] | the compile→execute→decode transmit engine on the batched trace executor |
//! | [`calibration`] | Table IV access-latency classes, Figure 4 CDFs, threshold training |
//! | [`eviction`] | Table II replacement-set sizing, Table V random replacement |
//! | [`capacity`] | cycle-period → kbps conversion at [`sim_core::machine::CLOCK_GHZ`] |
//! | [`stealth`] | Tables VI and VII perf-counter profiles |
//! | [`side_channel`] | Section IX / Figure 9 gadget attacks |
//!
//! ## Quickstart
//!
//! Transmissions run through the session layer ([`session::ChannelSession`]):
//! each frame is compiled into per-domain trace programs and executed by the
//! batched session executor.
//!
//! ```rust
//! use wb_channel::encoding::SymbolEncoding;
//! use wb_channel::channel::ChannelConfig;
//! use wb_channel::session::ChannelSession;
//! use sim_core::sched::InterruptConfig;
//! use sim_core::tsc::TscConfig;
//!
//! # fn main() -> Result<(), wb_channel::Error> {
//! // A quiet machine so the doctest is deterministic; the defaults model the
//! // paper's noisy hyper-threaded environment instead.
//! let config = ChannelConfig::builder()
//!     .encoding(SymbolEncoding::binary(1)?)
//!     .period_cycles(5_500) // 400 kbps at the paper's clock
//!     .interrupts(InterruptConfig::none())
//!     .tsc(TscConfig::ideal())
//!     .calibration_samples(40)
//!     .build()?;
//! let mut session = ChannelSession::new(config)?;
//! let secret = [true, false, true, true, false, false, true, false];
//! let report = session.transmit_bits(&secret)?;
//! assert_eq!(report.bit_error_rate(), 0.0);
//! assert!(session.sim_usage().accesses() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod calibration;
pub mod capacity;
pub mod channel;
pub mod encoding;
pub mod eviction;
pub mod protocol;
pub mod receiver;
pub mod sender;
pub mod session;
pub mod side_channel;
pub mod stealth;

mod error;

use sim_cache::addr::CacheGeometry;
use sim_core::memlayout::{ChannelLayout, SetLines};
use sim_core::process::{AddressSpace, ProcessId};

pub use channel::{ChannelConfig, EvaluationReport, TransmissionReport};
pub use encoding::SymbolEncoding;
pub use error::Error;
pub use session::ChannelSession;

/// The L1 set the channel modulates, in every harness that runs it.
pub const TARGET_SET: usize = 21;
/// Lines in each of the receiver's two replacement sets: the size at which
/// Table II's Intel-like policy always evicts the set (see
/// [`eviction::line0_eviction_probability`]).
pub const REPLACEMENT_SIZE: usize = 10;

/// Protection domain (and process id) of the receiver in every harness.
pub const RECEIVER_DOMAIN: u16 = 1;
/// Protection domain (and process id) of the sender in every harness.
pub const SENDER_DOMAIN: u16 = 2;

/// The two parties' lines in set [`TARGET_SET`], laid out the same way by
/// every harness that runs the channel: the session's frames, calibration,
/// the stealth runs and the defense evaluation.
#[derive(Debug)]
pub struct PartyLines {
    /// The receiver's layout in [`RECEIVER_DOMAIN`]'s address space: one
    /// target line per way and two replacement sets.
    pub receiver: ChannelLayout,
    /// The sender's lines 0..N in [`SENDER_DOMAIN`]'s address space, one
    /// per way.
    pub sender: SetLines,
}

impl PartyLines {
    /// Lays out both parties on an L1 of `geometry`, with receiver
    /// replacement sets of `replacement_size` lines.
    ///
    /// # Panics
    ///
    /// Panics if the L1 has no set [`TARGET_SET`] or `replacement_size`
    /// exceeds [`sim_core::memlayout::MAX_REPLACEMENT_SIZE`].
    pub fn build(geometry: CacheGeometry, replacement_size: usize) -> PartyLines {
        let ways = geometry.associativity;
        PartyLines {
            receiver: ChannelLayout::build(
                AddressSpace::new(ProcessId(RECEIVER_DOMAIN)),
                geometry,
                TARGET_SET,
                ways,
                replacement_size,
            ),
            sender: SetLines::build(
                AddressSpace::new(ProcessId(SENDER_DOMAIN)),
                geometry,
                TARGET_SET,
                ways,
                0,
            ),
        }
    }
}

/// Convenient glob-import of the most frequently used types.
pub mod prelude {
    pub use crate::calibration::CalibrationConfig;
    pub use crate::channel::{
        ChannelConfig, ChannelConfigBuilder, EvaluationReport, NoiseConfig, TransmissionReport,
    };
    pub use crate::encoding::SymbolEncoding;
    pub use crate::error::Error;
    pub use crate::protocol::{Decoder, Frame};
    pub use crate::receiver::WbReceiver;
    pub use crate::sender::WbSender;
    pub use crate::session::{ChannelSession, SimUsage};
}
