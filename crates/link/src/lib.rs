//! p5-link — the one way to assemble a P⁵ link.
//!
//! Every example, integration test and bench binary used to hand-wire
//! its own link: pick the devices, the SONET path and the fault plan,
//! decide how the wire is driven, keep the OAM handles reachable.
//! [`LinkBuilder`] owns that recipe once:
//!
//! ```
//! use p5_link::LinkBuilder;
//! use p5_core::DatapathWidth;
//! use p5_sonet::StmLevel;
//! use p5_fault::FaultSpec;
//!
//! let plan = FaultSpec::clean().ber(1e-6).compile(42).unwrap();
//! let mut link = LinkBuilder::new()
//!     .width(DatapathWidth::W32)
//!     .sonet(StmLevel::Stm16)     // OC-48
//!     .fault(plan)
//!     .build()
//!     .unwrap();
//! link.send(0x0021, &[0x45, 0x00, 0x00, 0x14]);
//! link.run(10_000).unwrap();
//! let got = link.deliveries();
//! assert_eq!(got.len() as u64 + link.rx_errors(), 1);
//! ```
//!
//! [`LinkBuilder::build`] yields a simplex [`Link`]: a transmit
//! [`Port`], a [`Carriage`] (the optional STM-N path and fault plan) and
//! a receive [`Port`] — the same core every link shell is built on
//! (DESIGN.md §19).  [`LinkBuilder::build_duplex`] yields a
//! [`DuplexLink`] — two devices and one carriage per direction — for
//! the control-plane (LCP/IPCP) scenarios that need traffic both ways.
//!
//! The raw `stack!` macro remains the supported low-level escape hatch
//! for custom topologies; this crate is the paved road.

use p5_core::oam::{regs, MmioBus, Oam};
use p5_core::{Carriage, DatapathWidth, Port, ReceivedFrame, TxQueueFull, P5};
use p5_fault::{FaultError, FaultPlan, FaultSpec, FaultStats};
use p5_ppp::NegotiationProfile;
use p5_sonet::{BitErrorChannel, OcPath, StmLevel};
use p5_stream::{Observable, Offer, SharedRecorder, Snapshot, Topology};
use p5_xport::{LinkEngine, SessionDriver, Transport};
use std::error::Error;
use std::fmt;

/// Why a link could not be built or run.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinkError {
    /// The fault spec attached to the builder failed to compile.
    Fault(FaultError),
    /// The link did not drain within the step budget.
    Stalled { steps: usize },
    /// [`LinkBuilder::build_remote`] needs a transport
    /// ([`LinkBuilder::transport`]).
    MissingTransport,
    /// The requested option combination isn't available on this
    /// topology (e.g. SONET carriage or fault injection on a remote
    /// endpoint — the OS pipe *is* the wire there).
    Unsupported(&'static str),
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::Fault(e) => write!(f, "link fault plan: {e}"),
            LinkError::Stalled { steps } => {
                write!(f, "link did not drain within {steps} steps")
            }
            LinkError::MissingTransport => {
                write!(f, "build_remote requires LinkBuilder::transport(...)")
            }
            LinkError::Unsupported(what) => write!(f, "unsupported on this topology: {what}"),
        }
    }
}

impl Error for LinkError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LinkError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FaultError> for LinkError {
    fn from(e: FaultError) -> Self {
        LinkError::Fault(e)
    }
}

/// Fluent description of a link, turned into a running assembly by
/// [`LinkBuilder::build`] (simplex) or [`LinkBuilder::build_duplex`].
#[derive(Default)]
pub struct LinkBuilder {
    width: Option<DatapathWidth>,
    sonet: Option<StmLevel>,
    fault: Option<FaultPlan>,
    trace: Option<SharedRecorder>,
    profile: Option<NegotiationProfile>,
    transport: Option<Box<dyn Transport>>,
}

impl LinkBuilder {
    pub fn new() -> Self {
        LinkBuilder::default()
    }

    /// Datapath width of both devices (default [`DatapathWidth::W32`]).
    pub fn width(mut self, width: DatapathWidth) -> Self {
        self.width = Some(width);
        self
    }

    /// Carry the wire over an STM-N path (scramble → frame → channel →
    /// delineate → descramble).
    pub fn sonet(mut self, level: StmLevel) -> Self {
        self.sonet = Some(level);
        self
    }

    /// Impair the wire with a compiled fault plan.  Over an STM-N path
    /// the length-preserving faults (BER, bursts) apply inside the
    /// transmission channel and the rest (structural faults, stall
    /// storms, transfer loss) on the delineated byte stream; a raw wire
    /// takes the whole plan.
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Record frame-lifecycle and fault events into `rec`.
    pub fn trace(mut self, rec: SharedRecorder) -> Self {
        self.trace = Some(rec);
        self
    }

    /// PPP negotiation posture for [`LinkBuilder::build_remote`]
    /// (magic number, IP address, auth policy, restart budgets).
    pub fn profile(mut self, profile: NegotiationProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Carry the wire over a real OS byte pipe
    /// ([`p5_xport::TcpTransport`], `UnixTransport`) or a deterministic
    /// in-process [`p5_xport::PipeTransport`].  Required by
    /// [`LinkBuilder::build_remote`].
    pub fn transport(mut self, transport: impl Transport + 'static) -> Self {
        self.transport = Some(Box::new(transport));
        self
    }

    fn width_or_default(&self) -> DatapathWidth {
        self.width.unwrap_or(DatapathWidth::W32)
    }

    /// Split the configured plan into its STM-N channel (bit-level) and
    /// carriage (structural, stall, loss) halves, each compiled from the
    /// plan's own seed on a distinct lane.  A raw wire has no channel:
    /// the carriage takes the whole plan.
    fn split_fault(&self) -> Result<(Option<FaultPlan>, Option<FaultPlan>), LinkError> {
        let Some(plan) = &self.fault else {
            return Ok((None, None));
        };
        if self.sonet.is_none() {
            return Ok((None, Some(plan.clone())));
        }
        let spec = plan.spec().clone();
        let bit = if spec.ber > 0.0 || spec.burst.is_some() {
            let bit_spec = FaultSpec {
                ber: spec.ber,
                burst: spec.burst,
                ..FaultSpec::default()
            };
            Some(bit_spec.compile(plan.seed())?)
        } else {
            None
        };
        let structural = if spec.is_structural() || spec.stall.is_some() || spec.transfer_loss > 0.0
        {
            let st_spec = FaultSpec {
                ber: 0.0,
                burst: None,
                ..spec
            };
            Some(st_spec.compile(plan.seed().wrapping_add(1))?)
        } else {
            None
        };
        Ok((bit, structural))
    }

    /// The wire of one direction, from the [`LinkBuilder::split_fault`]
    /// halves: taken as they are (`lane` `None`, the simplex link) or
    /// forked per direction.
    fn carriage(
        &self,
        (bit, wire): &(Option<FaultPlan>, Option<FaultPlan>),
        lane: Option<u64>,
    ) -> Carriage {
        let fork = |plan: &FaultPlan| match lane {
            Some(lane) => plan.fork(lane),
            None => plan.clone(),
        };
        let path = self.sonet.map(|level| {
            let channel = match bit {
                Some(plan) => BitErrorChannel::from_plan(fork(plan)),
                None => BitErrorChannel::clean(),
            };
            OcPath::new(level, channel)
        });
        let mut carriage = Carriage::new(path, wire.as_ref().map(fork));
        if let Some(rec) = &self.trace {
            carriage.set_trace(Box::new(rec.clone()));
        }
        carriage
    }

    fn new_device(&self) -> P5 {
        let mut dev = P5::new(self.width_or_default());
        if let Some(rec) = &self.trace {
            dev.set_trace(Box::new(rec.clone()));
        }
        dev
    }

    /// A transmit port, one carriage and a receive port.
    pub fn build(self) -> Result<Link, LinkError> {
        let split = self.split_fault()?;
        Ok(Link {
            tx: Port::new(self.new_device(), usize::MAX),
            wire: self.carriage(&split, None),
            rx: Port::new(self.new_device(), 0),
            delivered: Vec::new(),
        })
    }

    /// Two devices and a seeded carriage between them, for control-plane
    /// scenarios (LCP/IPCP) where traffic flows both ways.  The fault
    /// plan, if any, is forked per direction; with [`LinkBuilder::sonet`]
    /// each direction carries its own STM-N path.
    pub fn build_duplex(self) -> Result<DuplexLink, LinkError> {
        let split = self.split_fault()?;
        Ok(DuplexLink {
            a: LinkEnd::new(self.new_device()),
            b: LinkEnd::new(self.new_device()),
            ab: self.carriage(&split, Some(0)),
            ba: self.carriage(&split, Some(1)),
        })
    }

    /// One *real* endpoint: a device plus a PPP session bound to the
    /// configured [`LinkBuilder::transport`], pumped by a dedicated
    /// thread.  The peer is whatever answers on the other end of the
    /// byte pipe — another thread, another process, another machine.
    ///
    /// SONET carriage and fault plans don't compose here (the OS pipe
    /// *is* the wire, and it misbehaves on its own schedule); asking
    /// for them is [`LinkError::Unsupported`] rather than silently
    /// ignored.
    pub fn build_remote(self) -> Result<SessionDriver, LinkError> {
        if self.sonet.is_some() {
            return Err(LinkError::Unsupported(
                "SONET carriage on a remote endpoint",
            ));
        }
        if self.fault.is_some() {
            return Err(LinkError::Unsupported(
                "fault injection on a remote endpoint",
            ));
        }
        let transport = self.transport.ok_or(LinkError::MissingTransport)?;
        let profile = self.profile.unwrap_or_default();
        let mut engine = LinkEngine::new(
            self.width.unwrap_or(DatapathWidth::W32),
            &profile,
            transport,
        );
        if let Some(rec) = self.trace {
            engine.set_trace(Box::new(rec));
        }
        Ok(SessionDriver::spawn(engine))
    }
}

/// Device clocks per burst while a device's staged pipeline holds work
/// (the fused paths need none).
const STEP_CYCLES: u64 = 256;

/// Bursts one [`Link::run`] step may spend clocking the transmitter
/// through its staged work; a bound only for a device that cannot
/// finish (its transmitter disabled over OAM).
const MAX_TX_BURSTS: usize = 1 << 16;

/// A simplex link: a transmit [`Port`] with an unbounded FIFO (so
/// [`Link::send`] never refuses), a [`Carriage`] and a receive [`Port`].
pub struct Link {
    tx: Port,
    wire: Carriage,
    rx: Port,
    delivered: Vec<(u16, Vec<u8>)>,
}

impl Link {
    /// Queue one datagram for transmission: straight to wire bytes when
    /// the device is clear, otherwise into the transmit FIFO.
    pub fn send(&mut self, protocol: u16, payload: &[u8]) {
        if let Err(refused) = self.tx.offer(protocol, payload, self.wire.backlog()) {
            self.tx.requeue(refused);
        }
    }

    /// Step the link until both ports and the wire are idle.  Each step
    /// drains the transmit FIFO, clocks a device only while its staged
    /// pipeline holds work, carries the wire, delivers it and collects
    /// the received frames, which wait in [`Link::deliveries`].
    pub fn run(&mut self, max_steps: usize) -> Result<(), LinkError> {
        let mut steps = 0;
        while !self.is_idle() {
            if steps == max_steps {
                return Err(LinkError::Stalled { steps });
            }
            self.step();
            steps += 1;
        }
        Ok(())
    }

    fn is_idle(&self) -> bool {
        self.tx.is_idle() && self.wire.backlog() == 0 && self.rx.is_idle()
    }

    fn step(&mut self) {
        // A device refusal goes back to the head of the FIFO: a simplex
        // link never drops what `send` took.
        if let Err(refused) = self.tx.drain(self.wire.backlog()) {
            self.tx.requeue(refused);
        }
        // Staged transmit work is clocked through before the wire moves,
        // so the carriage only ever takes whole frames: an STM-N path
        // pads what it is handed with fill, which would split a frame.
        let tx = self.tx.device_mut();
        for _ in 0..MAX_TX_BURSTS {
            if !tx.staged_busy() {
                break;
            }
            tx.run(STEP_CYCLES);
        }
        let rx = self.rx.device_mut();
        if rx.staged_busy() {
            rx.run(STEP_CYCLES);
        }
        self.wire.carry(self.tx.device_mut());
        self.wire.deliver(&mut self.rx, usize::MAX);
        let delivered = &mut self.delivered;
        self.rx.collect(|f| {
            delivered.push((f.protocol, f.payload.to_vec()));
            Some(f.payload)
        });
    }

    /// Everything delivered so far, decapsulated to `(protocol,
    /// payload)` in arrival order.
    pub fn deliveries(&mut self) -> Vec<(u16, Vec<u8>)> {
        std::mem::take(&mut self.delivered)
    }

    /// Register-bus view of the transmit device's OAM block.
    pub fn tx_oam(&self) -> Oam {
        Oam::new(self.tx.device().oam.clone())
    }

    /// Register-bus view of the receive device's OAM block.
    pub fn rx_oam(&self) -> Oam {
        Oam::new(self.rx.device().oam.clone())
    }

    /// Total receive-side error count, summed over the OAM error
    /// registers — the "counted drops" half of the paper's no-silent-
    /// corruption contract.
    pub fn rx_errors(&self) -> u64 {
        self.health_counters().rx_errors
    }

    /// The health-relevant OAM counters in one read — the raw inputs a
    /// health scorer (`p5::obs::HealthSample`) windows into per-link
    /// verdicts.  Reads both ends' register buses; monotone.
    pub fn health_counters(&self) -> HealthCounters {
        HealthCounters::read(&self.rx_oam(), &self.tx_oam())
    }

    /// Injected faults: the carriage plan's plus the STM-N channel's.
    pub fn fault_stats(&self) -> FaultStats {
        self.wire.fault_stats()
    }

    /// Metrics snapshot of each part, in wire order: `p5-tx`, `oc-path`
    /// (with an STM-N path), `fault` (with a carriage fault plan) and
    /// `p5-rx`.
    pub fn snapshots(&self) -> Vec<Snapshot> {
        let (tx, rx) = (self.tx.device(), self.rx.device());
        let (tx_flow, rx_flow) = (self.tx.flow(), self.rx.flow());
        let mut snaps = vec![device_snapshot("p5-tx", tx.cycles, &tx.tx)
            .counter("offered", tx_flow.offered)
            .counter("accepted", tx_flow.accepted)];
        if let Some(path) = self.wire.path() {
            let mut s = Snapshot::new("oc-path");
            s.merge(&path.section_stats().snapshot());
            s.merge(&path.channel().stats().snapshot());
            snaps.push(s);
        }
        if self.wire.plan().is_some() {
            snaps.push(self.fault_stats().snapshot());
        }
        snaps.push(
            device_snapshot("p5-rx", rx.cycles, &rx.rx)
                .counter("delivered", rx_flow.delivered)
                .counter("delivered_bytes", rx_flow.delivered_bytes),
        );
        snaps
    }

    /// The stage topology of this link (`p5-tx → wire → p5-rx`), for
    /// link-level static analysis (p5-lint composes per-stage handshake
    /// contracts over it).  The carriage holds whole transfers, so
    /// analysis treats it as a buffered stage.
    pub fn topology(&self) -> Topology {
        let wire = if self.wire.path().is_some() {
            "oc-path"
        } else {
            "wire"
        };
        Topology::chain(
            "simplex link",
            vec!["p5-tx".into(), wire.into(), "p5-rx".into()],
        )
    }
}

/// One device half as a snapshot under `scope`: the device clock plus
/// the pipeline's own tallies (whose `cycles` the device clock replaces).
fn device_snapshot(scope: &str, cycles: u64, pipeline: &dyn Observable) -> Snapshot {
    let mut s = Snapshot::new(scope).counter("cycles", cycles);
    for (name, value) in pipeline.snapshot().counters {
        if name != "cycles" {
            s.push_counter(name, value);
        }
    }
    s
}

/// The health-relevant OAM counters of one link, read in one pass via
/// [`Link::health_counters`] / [`LinkEnd::health_counters`].  All
/// fields are monotone run totals; a health scorer diffs successive
/// reads into windows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthCounters {
    /// Frames accepted by the receive side.
    pub rx_frames: u64,
    /// Receive-side errors (FCS + aborts + runts + giants + header +
    /// address mismatches) — the counted-drop total.
    pub rx_errors: u64,
    /// Frames sent by the transmit side.
    pub tx_frames: u64,
    /// Submissions refused at the transmit queue (backpressure shed).
    pub tx_rejects: u64,
}

impl HealthCounters {
    /// Read the receive side's counters from `rx` and the transmit
    /// side's from `tx` (one end of a duplex link passes its own OAM
    /// block twice).
    pub fn read(rx: &Oam, tx: &Oam) -> Self {
        let errors = [
            regs::FCS_ERRORS,
            regs::ABORTS,
            regs::RUNTS,
            regs::GIANTS,
            regs::HEADER_ERRORS,
            regs::ADDR_MISMATCHES,
        ];
        HealthCounters {
            rx_frames: u64::from(rx.read(regs::RX_FRAMES)),
            rx_errors: errors.iter().map(|&r| u64::from(rx.read(r))).sum(),
            tx_frames: u64::from(tx.read(regs::TX_FRAMES)),
            tx_rejects: u64::from(tx.read(regs::TX_REJECTS)),
        }
    }
}

/// One side of a [`DuplexLink`]: a [`Port`] whose FIFO depth is 0, so
/// a frame either enters the device now or is refused.
pub struct LinkEnd {
    port: Port,
}

impl LinkEnd {
    fn new(dev: P5) -> Self {
        LinkEnd {
            port: Port::new(dev, 0),
        }
    }

    pub fn device(&self) -> &P5 {
        self.port.device()
    }

    pub fn device_mut(&mut self) -> &mut P5 {
        self.port.device_mut()
    }

    /// Hand one frame to the device: straight to wire bytes when the
    /// device is clear, otherwise into its bounded TX queue, which
    /// refuses with the descriptor handed back when full.
    pub fn submit(&mut self, protocol: u16, payload: Vec<u8>) -> Result<(), TxQueueFull> {
        let res = self.port.offer(protocol, &payload, 0).map(drop);
        self.port.device().buf_pool().recycle_vec(payload);
        res
    }

    /// [`LinkEnd::submit`] under the unified admission dialect: the
    /// device either takes the frame now ([`Offer::Accepted`]) or
    /// refuses it ([`Offer::Rejected`]), never blocks.  A refused
    /// payload is recycled into the device's buffer pool rather than
    /// handed back — same contract as the fleet and session-driver
    /// ingress boundaries.
    pub fn offer(&mut self, protocol: u16, payload: Vec<u8>) -> Offer {
        match self.submit(protocol, payload) {
            Ok(()) => Offer::Accepted,
            Err(refused) => {
                self.port.reject(refused);
                Offer::Rejected
            }
        }
    }

    pub fn run(&mut self, cycles: u64) {
        self.port.device_mut().run(cycles);
    }

    pub fn take_received(&mut self) -> Vec<ReceivedFrame> {
        let mut frames = Vec::new();
        self.port.collect(|f| {
            frames.push(f);
            None
        });
        frames
    }

    /// Register-bus view of this end's OAM block.
    pub fn oam(&self) -> Oam {
        Oam::new(self.device().oam.clone())
    }

    /// The health-relevant OAM counters of this end (its own transmit
    /// and receive sides — the duplex peer has its own).
    pub fn health_counters(&self) -> HealthCounters {
        let bus = self.oam();
        HealthCounters::read(&bus, &bus)
    }
}

/// Two devices and the (optionally impaired) wire between them.  The
/// ends are public so control-plane drivers can pump their own
/// endpoints; [`DuplexLink::exchange`] moves the wire both ways.
pub struct DuplexLink {
    pub a: LinkEnd,
    pub b: LinkEnd,
    ab: Carriage,
    ba: Carriage,
}

impl DuplexLink {
    /// Carry pending wire bytes a → b and b → a, applying each
    /// direction's fault plan, and hand them to the receiving device.
    pub fn exchange(&mut self) {
        self.ab.carry(self.a.port.device_mut());
        self.ab.deliver(&mut self.b.port, usize::MAX);
        self.ba.carry(self.b.port.device_mut());
        self.ba.deliver(&mut self.a.port, usize::MAX);
    }

    /// Impair both directions with forks of `plan` (deterministic per
    /// direction).  Replaces any existing plan — `clear_fault` heals the
    /// link mid-run, the "outage then recovery" scenario.
    pub fn set_fault(&mut self, plan: &FaultPlan) {
        self.ab.set_plan(Some(plan.fork(2)));
        self.ba.set_plan(Some(plan.fork(3)));
    }

    pub fn clear_fault(&mut self) {
        self.ab.set_plan(None);
        self.ba.set_plan(None);
    }

    /// Injected-fault counters summed over both directions (carriage
    /// plans plus the per-direction channel plans).
    pub fn fault_stats(&self) -> FaultStats {
        let mut s = self.ab.fault_stats();
        s.absorb(&self.ba.fault_stats());
        s
    }

    /// The duplex stage topology: both devices and both wire carriages
    /// as a ring (`a → wire → b → wire → a`), for link-level static
    /// analysis.  The carriages hold whole transfers, so analysis treats
    /// them as buffered stages.
    pub fn topology(&self) -> Topology {
        let mut t = Topology::new("duplex link");
        let a = t.push_stage("device a");
        let ab = t.push_stage("wire a->b");
        let b = t.push_stage("device b");
        let ba = t.push_stage("wire b->a");
        t.connect(a, ab);
        t.connect(ab, b);
        t.connect(b, ba);
        t.connect(ba, a);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p5_stream::EventKind;

    #[test]
    fn build_remote_negotiates_over_a_pipe_pair() {
        use p5_xport::PipeTransport;
        let (ta, tb) = PipeTransport::pair();
        let a = LinkBuilder::new()
            .profile(NegotiationProfile::new().magic(0xA11CE).ip([10, 0, 0, 1]))
            .transport(ta)
            .build_remote()
            .unwrap();
        let b = LinkBuilder::new()
            .profile(NegotiationProfile::new().magic(0xB0B).ip([10, 0, 0, 2]))
            .transport(tb)
            .build_remote()
            .unwrap();
        assert!(a.await_network_up(std::time::Duration::from_secs(10)));
        assert!(b.await_network_up(std::time::Duration::from_secs(10)));
        let payload = vec![0x42u8; 128];
        assert!(a.offer(0x0021, &payload).is_admitted());
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mut got = Vec::new();
        while got.is_empty() && std::time::Instant::now() < deadline {
            got = b.take_deliveries();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(got, vec![(0x0021, payload)]);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn build_remote_rejects_incoherent_topologies() {
        let (ta, _tb) = p5_xport::PipeTransport::pair();
        assert!(matches!(
            LinkBuilder::new().build_remote().err(),
            Some(LinkError::MissingTransport)
        ));
        assert!(matches!(
            LinkBuilder::new()
                .sonet(StmLevel::Stm1)
                .transport(ta)
                .build_remote()
                .err(),
            Some(LinkError::Unsupported(_))
        ));
    }

    #[test]
    fn simplex_clean_link_round_trips() {
        let mut link = LinkBuilder::new().build().unwrap();
        link.send(0x0021, &[0x31, 0x33, 0x7E, 0x96, 0x7D, 0x00, 0x42]);
        link.run(2_000).unwrap();
        let got = link.deliveries();
        assert_eq!(
            got,
            vec![(0x0021, vec![0x31, 0x33, 0x7E, 0x96, 0x7D, 0x00, 0x42])]
        );
        assert_eq!(link.rx_errors(), 0);
        assert_eq!(link.rx_oam().read(regs::RX_FRAMES), 1);
        assert_eq!(link.tx_oam().read(regs::TX_FRAMES), 1);
        let hc = link.health_counters();
        assert_eq!(
            hc,
            HealthCounters {
                rx_frames: 1,
                rx_errors: 0,
                tx_frames: 1,
                tx_rejects: 0,
            }
        );
    }

    #[test]
    fn sonet_link_uses_the_canonical_recipe() {
        // ~100 KB of wire: past the 64 KiB fused mark, so part of the
        // burst runs through the staged transmitter too.
        let payloads: Vec<Vec<u8>> = (0..100u32)
            .map(|i| vec![(i * 7) as u8; 900 + i as usize])
            .collect();
        for level in [
            None,
            Some(StmLevel::Stm1),
            Some(StmLevel::Stm4),
            Some(StmLevel::Stm16),
        ] {
            for width in [DatapathWidth::W8, DatapathWidth::W32] {
                let mut builder = LinkBuilder::new().width(width);
                if let Some(level) = level {
                    builder = builder.sonet(level);
                }
                let mut link = builder.build().unwrap();
                for p in &payloads {
                    link.send(0x0021, p);
                }
                link.run(5_000).unwrap();
                let got: Vec<Vec<u8>> = link.deliveries().into_iter().map(|(_, p)| p).collect();
                assert!(
                    got == payloads,
                    "{level:?} {width:?}: {} delivered",
                    got.len()
                );
                assert_eq!(link.rx_errors(), 0, "{level:?} {width:?}");
            }
        }
    }

    #[test]
    fn transfer_loss_is_honoured_on_the_simplex_link() {
        let plan = FaultSpec::clean().transfer_loss(1.0).compile(5).unwrap();
        let mut link = LinkBuilder::new().fault(plan).build().unwrap();
        for i in 0..10u8 {
            link.send(0x0021, &[i; 64]);
        }
        link.run(1_000).unwrap();
        assert!(link.deliveries().is_empty(), "every transfer lost");
        assert!(link.fault_stats().transfers_lost > 0);
        assert_eq!(link.rx_errors(), 0, "lost, not corrupted");
    }

    #[test]
    fn stall_storms_delay_but_never_lose() {
        let spec = FaultSpec::clean().stall(0.3, 16);
        for sonet in [None, Some(StmLevel::Stm4)] {
            let mut builder = LinkBuilder::new().fault(spec.clone().compile(8).unwrap());
            if let Some(level) = sonet {
                builder = builder.sonet(level);
            }
            let mut link = builder.build().unwrap();
            for i in 0..30u8 {
                link.send(0x0021, &[i; 200]);
                link.run(1_000).unwrap();
            }
            assert_eq!(link.deliveries().len(), 30, "{sonet:?}");
            assert!(link.fault_stats().stalls > 0, "{sonet:?}: storms injected");
            let fault = link.snapshots().into_iter().find(|s| s.scope == "fault");
            assert!(fault.unwrap().get("fault_stall").unwrap() > 0);
        }
    }

    #[test]
    fn faulted_link_counts_every_drop() {
        let plan = FaultSpec::clean().ber(5e-5).compile(11).unwrap();
        let mut link = LinkBuilder::new()
            .sonet(StmLevel::Stm4)
            .fault(plan)
            .build()
            .unwrap();
        let sent = 60u64;
        for i in 0..sent {
            link.send(0x0021, &[i as u8; 120]);
        }
        link.run(10_000).unwrap();
        let delivered = link.deliveries();
        let errors = link.rx_errors();
        assert!(errors > 0, "5e-5 BER over the line must break frames");
        // Corrupted idle fill adds spurious runts, so the error count can
        // exceed the shortfall — the contract is one-sided: nothing
        // vanishes unaccounted, and nothing corrupt is delivered.
        assert!(delivered.len() as u64 + errors >= sent - 4);
        for (_, p) in &delivered {
            assert!(p.iter().all(|&b| b == p[0]), "silent corruption");
        }
    }

    #[test]
    fn structural_faults_get_a_stage() {
        // Most line octets are flag fill (slipping a flag is harmless),
        // so the rate is set to hit payload bytes a handful of times.
        let plan = FaultSpec::clean().slip(2e-3).compile(3).unwrap();
        let mut link = LinkBuilder::new()
            .sonet(StmLevel::Stm4)
            .fault(plan)
            .build()
            .unwrap();
        for i in 0..40u8 {
            link.send(0x0021, &[i; 100]);
        }
        link.run(10_000).unwrap();
        let snaps = link.snapshots();
        let fault = snaps
            .iter()
            .find(|s| s.scope == "fault")
            .expect("fault stage present");
        assert!(fault.get("fault_slip").unwrap() > 0, "slips injected");
        assert!(link.rx_errors() > 0, "slips break frames");
    }

    #[test]
    fn trace_records_the_carriage_faults() {
        let spec = FaultSpec::clean().spurious_flag(0.01);
        let rec = SharedRecorder::with_capacity(1 << 14);
        let mut link = LinkBuilder::new()
            .fault(spec.clone().compile(12).unwrap())
            .trace(rec.clone())
            .build()
            .unwrap();
        for i in 0..20u8 {
            link.send(0x0021, &[i; 100]);
        }
        link.run(1_000).unwrap();
        let faults = |rec: &SharedRecorder| {
            rec.events()
                .iter()
                .filter(|e| {
                    e.kind
                        == EventKind::Fault {
                            kind: "spurious_flag",
                        }
                })
                .count() as u64
        };
        assert!(link.fault_stats().flags_injected > 0);
        assert_eq!(faults(&rec), link.fault_stats().flags_injected);

        let rec = SharedRecorder::with_capacity(1 << 14);
        let mut duplex = LinkBuilder::new()
            .fault(spec.compile(13).unwrap())
            .trace(rec.clone())
            .build_duplex()
            .unwrap();
        for i in 0..20u8 {
            duplex.a.submit(0x0021, vec![i; 100]).unwrap();
            duplex.exchange();
        }
        assert!(duplex.fault_stats().flags_injected > 0);
        assert_eq!(faults(&rec), duplex.fault_stats().flags_injected);
    }

    #[test]
    fn duplex_link_carries_traffic_both_ways() {
        let mut link = LinkBuilder::new().build_duplex().unwrap();
        link.a.submit(0x0021, vec![1, 2, 3]).unwrap();
        link.b.submit(0x0021, vec![9, 8, 7]).unwrap();
        for _ in 0..50 {
            link.a.run(64);
            link.b.run(64);
            link.exchange();
        }
        let at_b = link.b.take_received();
        let at_a = link.a.take_received();
        assert_eq!(at_b.len(), 1);
        assert_eq!(at_b[0].payload, vec![1, 2, 3]);
        assert_eq!(at_a[0].payload, vec![9, 8, 7]);
    }

    #[test]
    fn duplex_stall_storms_are_honoured() {
        let plan = FaultSpec::clean().stall(0.1, 16).compile(6).unwrap();
        let mut link = LinkBuilder::new().fault(plan).build_duplex().unwrap();
        let mut got = (0, 0);
        for i in 0..2_000u32 {
            if i < 20 {
                link.a.submit(0x0021, vec![i as u8; 300]).unwrap();
                link.b.submit(0x0021, vec![i as u8; 300]).unwrap();
            }
            link.a.run(64);
            link.b.run(64);
            link.exchange();
            got.0 += link.b.take_received().len();
            got.1 += link.a.take_received().len();
            if got == (20, 20) {
                break;
            }
        }
        assert_eq!(got, (20, 20), "storms delay, they do not drop");
        let stats = link.fault_stats();
        assert!(stats.stalls > 0 && stats.stall_cycles >= stats.stalls);
    }

    #[test]
    fn duplex_transfer_loss_is_counted_and_healable() {
        let plan = FaultSpec::clean().transfer_loss(1.0).compile(4).unwrap();
        let mut link = LinkBuilder::new().fault(plan).build_duplex().unwrap();
        link.a.submit(0x0021, vec![5; 10]).unwrap();
        for _ in 0..20 {
            link.a.run(64);
            link.b.run(64);
            link.exchange();
        }
        assert!(link.b.take_received().is_empty(), "all transfers lost");
        assert!(link.fault_stats().transfers_lost > 0);
        link.clear_fault();
        link.a.submit(0x0021, vec![6; 10]).unwrap();
        for _ in 0..20 {
            link.a.run(64);
            link.b.run(64);
            link.exchange();
        }
        let got = link.b.take_received();
        assert_eq!(got.len(), 1, "healed link delivers");
        assert_eq!(got[0].payload, vec![6; 10]);
    }
}
