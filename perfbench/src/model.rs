//! The paper anchor: wire bytes per clock of the staged 32-bit cycle
//! model on a workload's own corpus.  Line rate = this × fMax.

use p5_core::{DatapathWidth, TxQueueFull, P5};
use p5_stream::WireBuf;

use crate::corpus::{Checker, Corpus, Flow, IPV4};

/// Cycles run between refill attempts while the transmit queue is full.
const REFILL_CYCLES: u64 = 256;
const DRAIN_BUDGET: u64 = 1 << 32;

/// Clock the whole corpus through a staged (fused paths off) 32-bit
/// transmitter, keeping its queue non-empty, and return wire bytes per
/// cycle.  The wire is decoded by a second device and every frame is
/// checked byte for byte, so a cycle-model change that breaks framing
/// fails the run instead of moving the anchor.
pub fn bytes_per_cycle(corpus: &Corpus) -> Result<f64, String> {
    let mut tx = P5::new(DatapathWidth::W32);
    tx.fused_enabled = false;
    let mut wire = Vec::new();
    let mut buf = Vec::new();
    let start = tx.cycles;
    for seq in 0..corpus.len() as u64 {
        let mut payload = corpus.stamped(seq, &mut buf).to_vec();
        loop {
            match tx.submit(IPV4, payload) {
                Ok(()) => break,
                Err(TxQueueFull(desc)) => {
                    payload = desc.payload;
                    tx.run(REFILL_CYCLES);
                    wire.extend_from_slice(&tx.take_wire_out());
                }
            }
        }
    }
    tx.run_until_idle(DRAIN_BUDGET);
    let cycles = tx.cycles - start;
    wire.extend_from_slice(&tx.take_wire_out());

    let mut rx = P5::new(DatapathWidth::W32);
    let mut input = WireBuf::new();
    input.push_slice(&wire);
    rx.fused_ingest_wire(&mut input, usize::MAX)
        .ok_or("receiver refused the model's wire")?;
    let mut flow = Flow {
        offered: corpus.len() as u64,
        ..Flow::default()
    };
    let mut chk = Checker::default();
    for f in rx.take_received() {
        chk.check(corpus, &mut flow, f.protocol, &f.payload);
    }
    chk.finish(&mut flow, corpus.len() as u64);
    if flow.delivered != corpus.len() as u64 || flow.corrupt != 0 {
        return Err(format!(
            "cycle model wire failed its decode check: {flow:?}"
        ));
    }
    Ok(wire.len() as f64 / cycles as f64)
}
