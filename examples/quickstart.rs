//! Quickstart: encode one IP datagram into a PPP frame, push it through
//! the cycle-accurate 32-bit P⁵, and decode it on the other side — the
//! whole link assembled by [`LinkBuilder`], the paved road every
//! example, test and bench binary uses.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use p5::prelude::*;

fn main() {
    // Two P⁵ devices wired back to back (Figure 2, both directions):
    // transmit port → wire → receive port, with the OAM handles kept
    // reachable for the counter read-out at the end.
    let mut link = LinkBuilder::new()
        .width(DatapathWidth::W32)
        .build()
        .expect("a clean link always builds");

    // A datagram with bytes that need escaping (the paper's example
    // sequence 31 33 7E 96 is in there).
    let datagram = vec![0x31, 0x33, 0x7E, 0x96, 0x7D, 0x00, 0x42];
    println!("datagram:   {:02X?}", datagram);

    link.send(0x0021, &datagram);
    link.run(500).expect("link must drain");

    let deliveries = link.deliveries();
    let (protocol, payload) = deliveries.first().expect("exactly one frame must arrive");
    println!("received:   protocol={protocol:#06X} payload={payload:02X?}");
    assert_eq!(payload, &datagram);
    assert_eq!(*protocol, 0x0021);
    println!(
        "counters:   rx_ok={} fcs_err={} tx_frames={}",
        link.rx_oam().read(regs::RX_FRAMES),
        link.rx_oam().read(regs::FCS_ERRORS),
        link.tx_oam().read(regs::TX_FRAMES),
    );
    println!("round trip OK — flag 7E was stuffed to 7D 5E on the wire and restored.");

    // The same counters, as the observability layer exports them: one
    // Snapshot per part of the link (see DESIGN.md §13).
    println!(
        "\nfinal metrics snapshot:\n{}",
        render_table(&link.snapshots())
    );

    // Chaos quickstart: the same link, seeded bit errors on the wire.
    // Nothing corrupt is ever delivered — broken frames land in the
    // error counters instead (DESIGN.md §14).
    let plan = FaultSpec::clean().ber(1e-4).compile(7).expect("valid spec");
    let mut noisy = LinkBuilder::new().fault(plan).build().expect("valid plan");
    for i in 0..50u8 {
        noisy.send(0x0021, &[i; 64]);
    }
    noisy.run(5_000).expect("noisy link still drains");
    let ok = noisy.deliveries().len() as u64;
    println!(
        "\nchaos run:  sent=50 delivered={} counted-drops={}",
        ok,
        noisy.rx_errors()
    );
    // One-sided accounting: a corrupted flag can merge two frames into
    // one FCS error, so the sum can undershoot by a few (DESIGN.md §14).
    assert!(ok + noisy.rx_errors() >= 50 - 4);
}
