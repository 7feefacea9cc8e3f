//! Gigabit IP over SDH/SONET — the paper's title scenario, end to end:
//!
//!   IP datagrams → 32-bit P⁵ transmitter (cycle accurate)
//!     → x⁴³+1 payload scrambler → STM-16 framing (A1/A2, B1/B2, POH)
//!     → bit-error channel → frame delineation + descrambling
//!     → 32-bit P⁵ receiver → shared memory,
//!
//! with the Protocol OAM counters read out over the register bus at the
//! end, exactly as a host microprocessor would.  The whole assembly —
//! the STM-16 path, its drive step and the seeded error channel — comes
//! from [`LinkBuilder`] (DESIGN.md §14).
//!
//! ```sh
//! cargo run --release --example ip_over_sonet
//! ```

use p5::prelude::*;

fn main() {
    // An OC-48 path with a 1e-6 bit error rate (a poor-quality section).
    // The path runs as many 125 µs frames as the queued wire needs, and
    // fills every SPE octet the transmitter leaves empty with the HDLC
    // flag, so delineation holds between frames.
    let plan = FaultSpec::clean()
        .ber(1e-6)
        .compile(42)
        .expect("valid fault spec");
    let mut link = LinkBuilder::new()
        .width(DatapathWidth::W32)
        .sonet(StmLevel::Stm16)
        .fault(plan)
        .build()
        .expect("link assembles");

    // Offer an IMIX of IP datagrams.
    let sizes = p5_bench::imix_sizes(300, 7);
    let mut sent = Vec::new();
    for (i, len) in sizes.iter().enumerate() {
        let d = p5_bench::ip_like_datagram(*len, i as u64);
        link.send(0x0021, &d);
        sent.push(d);
    }
    link.run(10_000).expect("link did not drain");

    // Compare deliveries (in order; corrupted frames never surface).
    let got: Vec<Vec<u8>> = link.deliveries().into_iter().map(|(_, p)| p).collect();
    let mut delivered = 0usize;
    let mut gi = 0usize;
    for d in &sent {
        if gi < got.len() && &got[gi] == d {
            delivered += 1;
            gi += 1;
        }
    }
    // Where the wire went: each part's non-zero headline counters
    // (DESIGN.md §13; `render_table(&link.snapshots())` adds the
    // per-unit tallies) and the faults the channel injected.
    for snap in link.snapshots() {
        let headline: Vec<String> = snap
            .counters
            .iter()
            .filter(|(name, v)| {
                *v > 0
                    && !["control_", "crc_", "escape_"]
                        .iter()
                        .any(|u| name.starts_with(u))
            })
            .map(|(name, v)| format!("{name}={v}"))
            .collect();
        println!("{:>8}: {}", snap.scope, headline.join(" "));
    }
    let faults = link.fault_stats();
    println!(
        "injected: bit_errors={} bursts={} over {} line octets",
        faults.bit_errors, faults.bursts, faults.bytes_processed
    );

    // The link's health verdict, from the same OAM counters the live
    // collector scores (DESIGN.md §17) — here as a one-shot end-of-run
    // judgment over the whole run as a single window.
    let hc = link.health_counters();
    let verdict = HealthPolicy::default().snap_judgment(&p5::obs::HealthSample {
        delivered: hc.rx_frames,
        offered: sent.len() as u64,
        errors: hc.rx_errors,
        ..Default::default()
    });
    println!("\nlink health:");
    println!("  link  state     rx_frames  errors  tx_rejects");
    println!(
        "  {:>4}  {:<8}  {:>9}  {:>6}  {:>10}",
        0,
        verdict.name(),
        hc.rx_frames,
        hc.rx_errors,
        hc.tx_rejects
    );

    // Read the OAM over the bus, as firmware would.
    let bus = link.rx_oam();
    println!(
        "OAM: rx_frames={} fcs_errors={} aborts={} giants={} runts={}",
        bus.read(regs::RX_FRAMES),
        bus.read(regs::FCS_ERRORS),
        bus.read(regs::ABORTS),
        bus.read(regs::GIANTS),
        bus.read(regs::RUNTS),
    );
    println!(
        "datagrams: sent={} delivered-in-order={} corrupted-and-dropped={}",
        sent.len(),
        delivered,
        bus.read(regs::FCS_ERRORS),
    );
    // Every datagram is either delivered intact or shows up in an error
    // counter.  (A corrupted flag can merge two frames into one FCS
    // error, or split one frame into two — hence the ±few tolerance.)
    let accounted = delivered as i64 + link.rx_errors() as i64;
    assert!(
        (accounted - sent.len() as i64).abs() <= 4,
        "accounting hole: {accounted} vs {} sent",
        sent.len()
    );
    assert!(
        delivered > sent.len() * 8 / 10,
        "most frames survive 1e-6 BER"
    );
    println!("end-to-end integrity holds: no silent corruption.");
}
