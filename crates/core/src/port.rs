//! [`Port`]: the one host-side core every link shell is built on, and
//! [`Carriage`]: the one self-carried wire between two ports.
//!
//! The paper's P⁵ is a single device: the host writes frames into a
//! bounded shared-memory TX queue and the PHY side moves wire octets.
//! Every host around it needs the same loop, so it lives here once:
//!
//! ```text
//!   offer() ─→ [Offer admission vs carrier backlog] ─→ FIFO ─→ drain()
//!                        │ fast path (FIFO empty)               │
//!                        └──────────→ P5::transmit ←────────────┘
//!                                          │ Err(TxQueueFull) → carrier:
//!                                          │   reject() or requeue()
//!   collect() ←─ P5 deliveries ←─ P5::ingest ←─ wire from the carrier
//! ```
//!
//! What stays with each carrier is only what is really its own: the
//! backlog figure it passes in (its line or socket backlog), its
//! refusal policy (the fleet drops into `rejected`, a transport engine
//! requeues control frames) and its wire — a [`Carriage`], a
//! channelized envelope, or a socket.
//!
//! Conservation holds per port at every instant:
//! `offered == accepted + shed + rejected + queued`.

use std::collections::VecDeque;

use p5_fault::{FaultKind, FaultPlan, FaultStats};
use p5_sonet::{ByteLink, OcPath};
use p5_stream::{Event, EventKind, Offer, TraceSink, WireBuf};

use crate::p5::{ReceivedFrame, FUSED_WIRE_HIGH_WATER, P5};
use crate::tx::TxQueueFull;

/// Flow accounting at a host boundary: one [`Port`]'s counters, or a
/// duplex link's (the sum of its two ports).  Before a drain,
/// `offered == accepted + shed + rejected + queued`; after one, on a
/// clean line, `delivered == accepted`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkCounters {
    /// Frames offered for transmission.
    pub offered: u64,
    /// Frames that entered the device (fused fast path or the staged
    /// bounded TX queue).
    pub accepted: u64,
    /// Frames refused at the bounded FIFO.
    pub shed: u64,
    /// Frames the device's bounded TX queue refused and the carrier
    /// dropped — each one is counted by the device in `TX_REJECTS`.
    pub rejected: u64,
    /// Frames delivered out of the device.
    pub delivered: u64,
    /// Payload octets delivered.
    pub delivered_bytes: u64,
}

impl LinkCounters {
    /// Accumulate another port's or link's counters.
    pub fn add(&mut self, o: &LinkCounters) {
        self.offered += o.offered;
        self.accepted += o.accepted;
        self.shed += o.shed;
        self.rejected += o.rejected;
        self.delivered += o.delivered;
        self.delivered_bytes += o.delivered_bytes;
    }
}

/// A device plus the host side of its shared memory: a bounded FIFO of
/// frames waiting for a device slot, [`Offer`] admission against a
/// backlog figure the carrier supplies, delivery collection and flow
/// counters.
///
/// The carrier's backlog is the wire it has accepted from this device
/// but not yet moved on.  At or above [`FUSED_WIRE_HIGH_WATER`] the port
/// holds its FIFO (blocked, not dropped) and new offers queue behind it.
pub struct Port {
    dev: P5,
    fifo: VecDeque<(u16, Vec<u8>)>,
    depth: usize,
    flow: LinkCounters,
}

impl Port {
    /// A port whose FIFO admits up to `depth` frames.  Depth 0 gives a
    /// port that only takes frames the device accepts immediately.
    pub fn new(dev: P5, depth: usize) -> Self {
        Port {
            dev,
            fifo: VecDeque::new(),
            depth,
            flow: LinkCounters::default(),
        }
    }

    pub fn device(&self) -> &P5 {
        &self.dev
    }

    pub fn device_mut(&mut self) -> &mut P5 {
        &mut self.dev
    }

    pub fn set_depth(&mut self, depth: usize) {
        self.depth = depth;
    }

    pub fn flow(&self) -> LinkCounters {
        self.flow
    }

    /// Frames admitted but not yet in the device.
    pub fn queued(&self) -> usize {
        self.fifo.len()
    }

    /// Nothing queued, nothing produced awaiting the carrier, and no
    /// staged work left to clock.
    pub fn is_idle(&self) -> bool {
        self.fifo.is_empty() && !self.dev.has_wire_out() && !self.dev.staged_busy()
    }

    /// Offer one frame.  With nothing queued ahead and the carrier
    /// below the high-water mark the device takes it now
    /// ([`Offer::Accepted`]); otherwise it queues ([`Offer::Queued`]) or,
    /// with the FIFO full, is shed ([`Offer::Shed`]).  A frame the
    /// device refuses comes back as `Err`: the carrier settles it with
    /// [`Port::reject`] or [`Port::requeue`].
    pub fn offer(
        &mut self,
        protocol: u16,
        payload: &[u8],
        backlog: usize,
    ) -> Result<Offer, TxQueueFull> {
        self.flow.offered += 1;
        if self.fifo.is_empty() && backlog < FUSED_WIRE_HIGH_WATER {
            self.dev.transmit(protocol, payload, 0)?;
            self.flow.accepted += 1;
            return Ok(Offer::Accepted);
        }
        if self.fifo.len() >= self.depth {
            self.flow.shed += 1;
            return Ok(Offer::Shed);
        }
        let mut buf = self.dev.lease_tx_buf();
        buf.extend_from_slice(payload);
        self.fifo.push_back((protocol, buf));
        Ok(Offer::Queued)
    }

    /// Queue a frame admitted elsewhere (a control plane's own output)
    /// behind the FIFO, past the depth bound: such frames are never
    /// shed.
    pub fn push(&mut self, protocol: u16, payload: Vec<u8>) {
        self.flow.offered += 1;
        self.fifo.push_back((protocol, payload));
    }

    /// Move queued frames into the device, in order, while the carrier
    /// is below the high-water mark.  Stops at the first frame the
    /// device refuses and hands it back for the carrier's policy.
    pub fn drain(&mut self, backlog: usize) -> Result<(), TxQueueFull> {
        if backlog >= FUSED_WIRE_HIGH_WATER {
            return Ok(());
        }
        while let Some((protocol, payload)) = self.fifo.pop_front() {
            let res = self.dev.transmit(protocol, &payload, 0);
            self.dev.buf_pool().recycle_vec(payload);
            res?;
            self.flow.accepted += 1;
        }
        Ok(())
    }

    /// Drop a refused frame: counted in `rejected`, storage recycled.
    pub fn reject(&mut self, refused: TxQueueFull) {
        self.flow.rejected += 1;
        self.dev.buf_pool().recycle_vec(refused.0.payload);
    }

    /// Put a refused frame back at the head of the FIFO, to retry once
    /// the device has drained.
    pub fn requeue(&mut self, refused: TxQueueFull) {
        let TxQueueFull(desc) = refused;
        self.fifo.push_front((desc.protocol, desc.payload));
    }

    /// Deliver up to `max` octets of `wire` into the device (see
    /// [`P5::ingest`]).
    pub fn ingest(&mut self, wire: &mut WireBuf, max: usize) -> usize {
        self.dev.ingest(wire, max)
    }

    /// Hand every frame the device delivered to `each`, in order,
    /// counting it into `delivered`/`delivered_bytes`.  Storage `each`
    /// hands back is recycled into the device pool.  Returns the number
    /// of frames collected.
    pub fn collect(&mut self, mut each: impl FnMut(ReceivedFrame) -> Option<Vec<u8>>) -> usize {
        let frames = self.dev.take_received();
        let n = frames.len();
        for f in frames {
            self.flow.delivered += 1;
            self.flow.delivered_bytes += f.payload.len() as u64;
            if let Some(buf) = each(f) {
                self.dev.recycle_rx_payload(buf);
            }
        }
        n
    }
}

/// Octets one handshake moves from a [`Carriage`] into its sink while
/// the fault plan draws stall storms.
const STALL_HANDSHAKE: usize = 256;

/// One direction of self-carried wire: the source device's octets go
/// through an optional STM-N path, then an optional fault plan, into a
/// backlog awaiting the sink [`Port`].  The plan's stall storms hold
/// the backlog at the sink (a deasserted ready); storms are bounded, so
/// a carrier that keeps delivering always drains.
pub struct Carriage {
    /// Boxed: an `OcPath` holds whole-frame buffers.
    path: Option<Box<OcPath>>,
    plan: Option<FaultPlan>,
    /// Carried octets not yet taken by the sink (the backlog figure).
    wire: WireBuf,
    scratch: Vec<u8>,
    sink: Option<Box<dyn TraceSink + Send>>,
    /// `carry`/`impair`/`deliver` calls, the trace clock.
    calls: u64,
}

impl Carriage {
    pub fn new(path: Option<OcPath>, plan: Option<FaultPlan>) -> Self {
        Carriage {
            path: path.map(Box::new),
            plan,
            wire: WireBuf::new(),
            scratch: Vec::new(),
            sink: None,
            calls: 0,
        }
    }

    /// Install a trace sink: each injected fault (the plan's and the
    /// STM-N channel's) becomes an `EventKind::Fault { kind }` event
    /// stamped with the carriage's call count.
    pub fn set_trace(&mut self, sink: Box<dyn TraceSink + Send>) {
        self.sink = sink.enabled().then_some(sink);
    }

    /// Octets carried but not yet delivered to the sink.
    pub fn backlog(&self) -> usize {
        self.wire.len()
    }

    pub fn path(&self) -> Option<&OcPath> {
        self.path.as_deref()
    }

    pub fn plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// Replace (or, with `None`, clear) the fault plan mid-run.
    pub fn set_plan(&mut self, plan: Option<FaultPlan>) {
        self.plan = plan;
    }

    /// Injected faults: the plan's plus the STM-N path channel's.
    pub fn fault_stats(&self) -> FaultStats {
        let mut s = self.plan.as_ref().map(FaultPlan::stats).unwrap_or_default();
        if let Some(path) = &self.path {
            s.absorb(&path.channel().plan().stats());
        }
        s
    }

    /// Carry what `src` has produced: through the STM-N path (running
    /// enough line frames to flush it), then the fault plan, into the
    /// backlog.
    pub fn carry(&mut self, src: &mut P5) {
        let before = self.begin_call();
        match &mut self.path {
            None if self.plan.is_none() => {
                src.drain_wire_into(&mut self.wire);
            }
            None => {
                if src.has_wire_out() {
                    let bytes = src.take_wire_out();
                    self.push_impaired(&bytes);
                    src.recycle_wire_vec(bytes);
                }
            }
            Some(path) => {
                if src.has_wire_out() {
                    let bytes = src.take_wire_out();
                    path.send(&bytes);
                    src.recycle_wire_vec(bytes);
                }
                let k = path.frames_to_drain();
                if k > 0 {
                    // +2: delineation hunts across a frame boundary.
                    path.run_frames(k + 2);
                }
                let out = path.recv();
                self.push_impaired(&out);
            }
        }
        self.trace_faults(before);
    }

    /// Append one transfer through the fault plan: whole-transfer loss
    /// first, then the corruption pipeline.  Bytes recovered by a
    /// carrier of its own (a channelized envelope) enter here.
    pub fn impair(&mut self, bytes: &[u8]) {
        let before = self.begin_call();
        self.push_impaired(bytes);
        self.trace_faults(before);
    }

    fn push_impaired(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        match &mut self.plan {
            None => self.wire.push_slice(bytes),
            Some(plan) => {
                if plan.lose_transfer() {
                    return;
                }
                self.scratch.clear();
                plan.corrupt_into(bytes, &mut self.scratch);
                self.wire.push_slice(&self.scratch);
            }
        }
    }

    /// Deliver up to `max` backlog octets into the sink port.  Under a
    /// plan with stall storms the octets cross in handshakes of up to
    /// 256 octets, one gate draw each; a refused handshake ends the
    /// call and holds the rest of the backlog, so a storm of `n`
    /// refusals holds it for `n` calls.
    pub fn deliver(&mut self, dst: &mut Port, max: usize) -> usize {
        if self.plan.as_ref().is_none_or(|p| p.spec().stall.is_none()) {
            return dst.ingest(&mut self.wire, max);
        }
        let before = self.begin_call();
        let mut moved = 0;
        while moved < max && !self.wire.is_empty() {
            if self.plan.as_mut().is_some_and(FaultPlan::stall_gate) {
                break;
            }
            moved += dst.ingest(&mut self.wire, STALL_HANDSHAKE.min(max - moved));
        }
        self.trace_faults(before);
        moved
    }

    /// Count one call; with tracing on, the fault counts before it.
    fn begin_call(&mut self) -> Option<FaultStats> {
        self.calls += 1;
        self.sink.is_some().then(|| self.fault_stats())
    }

    /// Emit one `Fault` event per kind that fired since `before`.
    fn trace_faults(&mut self, before: Option<FaultStats>) {
        let Some(before) = before else {
            return;
        };
        let after = self.fault_stats();
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        for kind in FaultKind::ALL {
            for _ in before.count(kind)..after.count(kind) {
                sink.record(Event {
                    cycle: self.calls,
                    kind: EventKind::Fault { kind: kind.name() },
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::p5::DatapathWidth;
    use p5_fault::FaultSpec;
    use p5_stream::SharedRecorder;

    /// Carry one frame from a fresh transmitter across `wire` into a
    /// fresh receiving port, delivering until the backlog is gone.
    fn carry_frame(wire: &mut Carriage, payload: &[u8]) -> Vec<Vec<u8>> {
        let mut src = P5::new(DatapathWidth::W32);
        let mut dst = Port::new(P5::new(DatapathWidth::W32), 0);
        src.transmit(0x0021, payload, 0).unwrap();
        wire.carry(&mut src);
        for _ in 0..10_000 {
            if wire.backlog() == 0 {
                break;
            }
            wire.deliver(&mut dst, usize::MAX);
        }
        let mut got = Vec::new();
        dst.collect(|f| {
            got.push(f.payload);
            None
        });
        got
    }

    #[test]
    fn clean_plan_is_transparent() {
        let mut wire = Carriage::new(None, Some(FaultPlan::clean(1)));
        let got = carry_frame(&mut wire, b"across the boundary");
        assert_eq!(got, vec![b"across the boundary".to_vec()]);
        assert_eq!(wire.backlog(), 0);
        assert_eq!(wire.fault_stats().total_injected(), 0);
    }

    #[test]
    fn storms_hold_the_backlog_and_bounded_storms_drain() {
        // p_start = 1: every delivery attempt is refused as storms re-arm.
        let plan = FaultSpec::clean().stall(1.0, 4).compile(2).unwrap();
        let mut wire = Carriage::new(None, Some(plan));
        let mut dst = Port::new(P5::new(DatapathWidth::W32), 0);
        wire.impair(b"held");
        assert_eq!(wire.deliver(&mut dst, usize::MAX), 0);
        assert_eq!(wire.backlog(), 4, "a storm holds the backlog");
        // Storms are bounded, so a carrier that keeps delivering drains.
        let plan = FaultSpec::clean().stall(0.5, 4).compile(3).unwrap();
        let mut wire = Carriage::new(None, Some(plan));
        let payload = vec![0x55u8; 1000];
        assert_eq!(carry_frame(&mut wire, &payload), vec![payload]);
        let stats = wire.fault_stats();
        assert!(stats.stalls > 0 && stats.stall_cycles >= stats.stalls);
    }

    #[test]
    fn injected_faults_become_trace_events() {
        let plan = FaultSpec::clean().spurious_flag(0.05).compile(9).unwrap();
        let rec = SharedRecorder::with_capacity(512);
        let mut wire = Carriage::new(None, Some(plan));
        wire.set_trace(Box::new(rec.clone()));
        wire.impair(&[0u8; 500]);
        let events = rec.events();
        assert!(!events.is_empty(), "flag injections traced");
        assert!(events.iter().all(|e| e.kind
            == EventKind::Fault {
                kind: "spurious_flag"
            }));
        assert_eq!(
            events.len() as u64,
            wire.fault_stats().flags_injected,
            "one event per injection"
        );
    }

    #[test]
    fn fault_snapshot_counts_traffic_and_injections() {
        let plan = FaultSpec::clean().ber(1e-2).compile(4).unwrap();
        let mut wire = Carriage::new(None, Some(plan));
        wire.impair(&[0xFFu8; 2000]);
        let snap = wire.fault_stats().snapshot();
        assert_eq!(snap.scope, "fault");
        assert_eq!(snap.get("fault_bytes_processed"), Some(2000));
        assert!(snap.get("fault_bit_error").unwrap() > 0);
        assert_eq!(wire.backlog(), 2000, "bit errors preserve length");
    }
}
