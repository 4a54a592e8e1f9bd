//! Quickstart: send a secret message over the WB covert channel.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! This sets up the paper's environment — two processes without shared
//! memory, pinned to the two hyper-threads of a simulated Xeon E5-2650 —
//! and transmits a short ASCII message through the dirty-state timing channel
//! at 400 kbps (binary symbols, `Ts = Tr = 5500` cycles).  The transmission
//! runs through the session layer: the whole frame is compiled into
//! per-domain trace programs and executed by the batched session executor.

use analysis::edit_distance::{bits_to_bytes, bytes_to_bits};
use dirty_cache_repro::wb_channel::channel::ChannelConfig;
use dirty_cache_repro::wb_channel::encoding::SymbolEncoding;
use dirty_cache_repro::wb_channel::session::ChannelSession;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let secret = b"dirty bits leak!";
    println!(
        "sender wants to exfiltrate: {:?}",
        String::from_utf8_lossy(secret)
    );

    // One dirty line per '1' bit: the stealthiest configuration.
    let config = ChannelConfig::builder()
        .encoding(SymbolEncoding::binary(1)?)
        .period_cycles(5_500) // 400 kbps at the paper's clock
        .seed(42)
        .build()?;
    let mut session = ChannelSession::new(config)?;
    println!(
        "calibrated threshold: {:.0} cycles (clean sweep vs one dirty line)",
        session.decoder().binary_threshold().unwrap_or(f64::NAN)
    );

    let payload = bytes_to_bits(secret);
    let report = session.transmit_bits(&payload)?;

    // Strip the 16-bit preamble before turning the payload back into bytes.
    let received_payload: Vec<bool> = report
        .received_bits
        .iter()
        .skip(16)
        .copied()
        .take(payload.len())
        .collect();
    let recovered = bits_to_bytes(&received_payload);

    println!("transmission rate : {:.0} kbps", report.rate_kbps);
    println!(
        "bit error rate    : {:.2}%",
        report.bit_error_rate() * 100.0
    );
    println!("edit distance     : {}", report.edit_distance);
    println!(
        "receiver recovered: {:?}",
        String::from_utf8_lossy(&recovered)
    );
    println!(
        "latency samples (first 16): {:?}",
        &report.latencies[..16.min(report.latencies.len())]
    );
    let usage = session.sim_usage();
    println!(
        "simulated work     : {} accesses, {} cycles over {} frame(s)",
        usage.accesses(),
        usage.cycles(),
        usage.frames
    );
    Ok(())
}
