//! Satellite: graceful-overload conservation, property-tested.
//!
//! For any fleet shape and any degree of line over-subscription:
//!
//! * `offered == accepted + shed + rejected` once drained (nothing
//!   still queued, nothing unaccounted);
//! * every `rejected` frame shows up in the devices' `submit_rejects`
//!   AND the OAM `TX_REJECTS` registers — the reject path is never
//!   bypassed;
//! * no accepted frame is dropped: `delivered == accepted` on clean
//!   links, with receivers confirming every delivery (`frames_ok`,
//!   zero FCS/abort/header errors);
//! * all of it is byte-identical across worker counts;
//! * and it holds on every carrier: bare wire, a per-link STM-N path,
//!   and tributaries sharing a channelized envelope.

use p5_runtime::{Carrier, Fleet, FleetConfig, Sharding, TrafficSpec};
use p5_sonet::StmLevel;
use proptest::prelude::*;

fn drained(cfg: FleetConfig) -> Fleet {
    let mut fleet = Fleet::new(cfg).expect("valid config");
    assert!(fleet.run_until_drained(400_000), "fleet failed to drain");
    fleet
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn overload_conserves_every_frame(
        links in 1usize..8,
        ingress_depth in 1usize..16,
        cap_selector in 0usize..4,
        frames_per_tick in 1u32..8,
        ticks in 1u64..64,
        payload_len in 1usize..512,
        duplex in any::<bool>(),
        seed in any::<u64>(),
        carrier_selector in 0usize..3,
    ) {
        // None = uncapped; small caps over-subscribe the line hard.
        let wire_cap = [None, Some(64), Some(256), Some(4096)][cap_selector];
        // One envelope tributary is an STM-1, so the smallest valid
        // channelized envelope is an STM-4.
        let carrier = [
            Carrier::Raw,
            Carrier::Sonet(StmLevel::Stm1),
            Carrier::Channelized(StmLevel::Stm4),
        ][carrier_selector];
        let fleet = drained(FleetConfig {
            links,
            workers: 3,
            carrier,
            ingress_depth,
            wire_bytes_per_tick: wire_cap,
            seed,
            traffic: Some(TrafficSpec {
                frames_per_tick,
                payload_len,
                duplex,
                ticks,
                ..TrafficSpec::default()
            }),
            ..FleetConfig::default()
        });
        let st = fleet.stats();

        let dirs = if duplex { 2 } else { 1 };
        prop_assert_eq!(
            st.flow.offered,
            links as u64 * frames_per_tick as u64 * ticks * dirs
        );
        // Conservation at fleet scope: a drained fleet holds nothing.
        prop_assert_eq!(st.queued(), 0);
        prop_assert_eq!(
            st.flow.offered,
            st.flow.accepted + st.flow.shed + st.flow.rejected
        );
        // Every reject is accounted by the device AND its OAM mirror.
        prop_assert_eq!(st.device_tx_rejects, st.flow.rejected);
        prop_assert_eq!(st.oam_tx_rejects, st.flow.rejected);
        // No accepted frame is ever dropped on a clean line.
        prop_assert_eq!(st.flow.delivered, st.flow.accepted);
        prop_assert_eq!(st.rx.frames_ok, st.flow.delivered);
        prop_assert_eq!(
            st.rx.fcs_errors + st.rx.aborts + st.rx.runts + st.rx.giants
                + st.rx.header_errors + st.rx.address_mismatches,
            0
        );
        // Per-link conservation too — shedding is a local decision.
        for r in fleet.link_reports() {
            prop_assert_eq!(
                r.flow.offered,
                r.flow.accepted + r.flow.shed + r.flow.rejected,
                "link {} leaks frames", r.link
            );
            prop_assert_eq!(r.flow.delivered, r.flow.accepted);
        }
    }

    #[test]
    fn shedding_is_deterministic_across_workers(
        links in 1usize..8,
        ingress_depth in 1usize..8,
        frames_per_tick in 2u32..8,
        ticks in 8u64..48,
        seed in any::<u64>(),
    ) {
        // A hard 64-octet/tick cap forces the full shed/reject chain.
        let report = |workers: usize, sharding: Sharding| {
            drained(FleetConfig {
                links,
                workers,
                sharding,
                ingress_depth,
                wire_bytes_per_tick: Some(64),
                seed,
                traffic: Some(TrafficSpec {
                    frames_per_tick,
                    payload_len: 256,
                    ticks,
                    ..TrafficSpec::default()
                }),
                ..FleetConfig::default()
            })
            .link_reports()
            .into_iter()
            .map(|r| (r.link, r.flow))
            .collect::<Vec<_>>()
        };
        let reference = report(1, Sharding::Static);
        prop_assert_eq!(&report(4, Sharding::WorkStealing), &reference);
        prop_assert_eq!(&report(7, Sharding::Static), &reference);
    }
}
