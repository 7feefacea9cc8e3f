//! The [`Port`] contract under random interleavings of offer, drain,
//! carrier backlog and a full device TX queue:
//!
//! * `offered == accepted + shed + rejected + queued` after every step;
//! * frames come out of the peer in the order they went into the device
//!   (FIFO — PPP preserves order), exactly the frames the port accepted;
//! * a `fused_enabled = false` device delivers the same frames as a
//!   fused one — the fused paths are an optimisation, not a behaviour.

use p5_core::{Carriage, DatapathWidth, Port, TxQueueFull, P5};
use p5_stream::Offer;
use proptest::prelude::*;
use std::collections::VecDeque;

const PROTO: u16 = 0x0021;
/// A carrier backlog at the port's high-water mark: holds the FIFO.
const CONGESTED: usize = 1 << 20;
/// Frames per burst offer: 48 near-MRU frames overrun the 64 KiB mark.
const BURST: usize = 48;

#[derive(Debug, PartialEq)]
struct Run {
    delivered: Vec<Vec<u8>>,
    /// Frames the port moved into the device, in the order it did so.
    accepted: Vec<Vec<u8>>,
}

/// The test's model of the port FIFO, checked against the port itself.
struct Model {
    fifo: VecDeque<Vec<u8>>,
    accepted: Vec<Vec<u8>>,
}

/// Settle a refusal by the carrier's policy, mirroring it in the model.
/// The refused frame is the model FIFO's head (pushed there first for
/// an offer's fast-path refusal).
fn settle(port: &mut Port, model: &mut Model, refused: TxQueueFull, drop_refused: bool) {
    if drop_refused {
        port.reject(refused);
        model.fifo.pop_front();
    } else {
        port.requeue(refused);
    }
}

fn check(port: &Port, model: &Model) {
    let f = port.flow();
    assert_eq!(
        f.offered,
        f.accepted + f.shed + f.rejected + port.queued() as u64,
        "port leaks frames: {f:?}"
    );
    assert_eq!(port.queued(), model.fifo.len());
    assert_eq!(f.accepted, model.accepted.len() as u64);
}

/// Drive one port pair through `ops`: `(kind, len)` with kind 0 =
/// offer one `len`-octet frame, 1 = offer a burst of them, 2 = drain,
/// 3 = toggle a congested carrier, 4 = clock, carry and collect.
fn run(fused: bool, ops: &[(u8, usize)], depth: usize, tx_queue: usize, drop_refused: bool) -> Run {
    let mut dev = P5::new(DatapathWidth::W32);
    dev.fused_enabled = fused;
    dev.tx.control.queue_depth = tx_queue;
    let mut tx = Port::new(dev, depth);
    let mut peer = P5::new(DatapathWidth::W32);
    peer.fused_enabled = fused;
    let mut rx = Port::new(peer, 0);
    let mut wire = Carriage::new(None, None);
    let mut model = Model {
        fifo: VecDeque::new(),
        accepted: Vec::new(),
    };
    let mut delivered = Vec::new();
    let mut backlog = 0;
    let mut seq = 0u32;

    let mut pump = |tx: &mut Port, rx: &mut Port, delivered: &mut Vec<Vec<u8>>| {
        let dev = tx.device_mut();
        if dev.staged_busy() {
            dev.run(512);
        }
        wire.carry(tx.device_mut());
        wire.deliver(rx, usize::MAX);
        if rx.device().staged_busy() {
            rx.device_mut().run(4096);
        }
        rx.collect(|f| {
            delivered.push(f.payload);
            None
        });
    };
    let drain = |tx: &mut Port, model: &mut Model, backlog: usize| {
        let before = tx.flow().accepted;
        let res = tx.drain(backlog);
        let moved = (tx.flow().accepted - before) as usize;
        model.accepted.extend(model.fifo.drain(..moved));
        if let Err(refused) = res {
            settle(tx, model, refused, drop_refused);
        }
    };

    for &(kind, len) in ops {
        match kind {
            0 | 1 => {
                // A burst offers many frames with no pump between them,
                // running the device's wire out past the high-water mark.
                let frames = if kind == 0 { 1 } else { BURST };
                for _ in 0..frames {
                    seq += 1;
                    let mut frame = seq.to_be_bytes().to_vec();
                    frame.resize(4 + len, (seq % 251) as u8);
                    match tx.offer(PROTO, &frame, backlog) {
                        Ok(Offer::Accepted) => model.accepted.push(frame),
                        Ok(Offer::Queued) => model.fifo.push_back(frame),
                        Ok(_) => {}
                        Err(refused) => {
                            model.fifo.push_front(frame);
                            settle(&mut tx, &mut model, refused, drop_refused);
                        }
                    }
                    check(&tx, &model);
                }
            }
            2 => drain(&mut tx, &mut model, backlog),
            3 => backlog = if backlog == 0 { CONGESTED } else { 0 },
            _ => pump(&mut tx, &mut rx, &mut delivered),
        }
        check(&tx, &model);
    }
    // Flush: an uncongested carrier, pumped until both ends go idle.
    for _ in 0..100_000 {
        drain(&mut tx, &mut model, 0);
        check(&tx, &model);
        pump(&mut tx, &mut rx, &mut delivered);
        if tx.queued() == 0 && tx.is_idle() && rx.is_idle() {
            break;
        }
    }
    assert_eq!(tx.queued(), 0, "flush left frames queued");
    assert_eq!(rx.flow().delivered, delivered.len() as u64);
    Run {
        delivered,
        accepted: model.accepted,
    }
}

fn ops_strategy() -> impl Strategy<Value = Vec<(u8, usize)>> {
    // Frames up to the default 1500-octet MRU.
    proptest::collection::vec((0u8..5, 0usize..1400), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn port_conserves_and_keeps_fifo_order(
        ops in ops_strategy(),
        depth in 0usize..6,
        tx_queue in 1usize..4,
        drop_refused in any::<bool>(),
        fused in any::<bool>(),
    ) {
        let r = run(fused, &ops, depth, tx_queue, drop_refused);
        prop_assert_eq!(&r.delivered, &r.accepted, "delivery is not the accepted FIFO");
    }

    #[test]
    fn staged_port_delivers_what_fused_delivers(
        ops in ops_strategy(),
        tx_queue in 1usize..4,
    ) {
        // Nothing shed, nothing dropped: every offered frame must come
        // out, in offer order, whichever path carried it.
        let depth = usize::MAX;
        let fused = run(true, &ops, depth, tx_queue, false);
        let staged = run(false, &ops, depth, tx_queue, false);
        let offered: usize = ops
            .iter()
            .map(|&(kind, _)| match kind {
                0 => 1,
                1 => BURST,
                _ => 0,
            })
            .sum();
        prop_assert_eq!(staged.delivered.len(), offered);
        prop_assert_eq!(fused, staged);
    }
}
