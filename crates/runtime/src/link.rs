//! One sharded duplex link and the cohort (schedulable unit) that owns
//! it.  Everything here is *single-threaded per cohort*: a worker that
//! claims a cohort runs its whole tick batch, so no state is shared
//! between links and per-link results are a pure function of
//! `(fleet config, link id)` — independent of worker count, sharding
//! mode and claim order.

use std::collections::VecDeque;

use p5_core::{Carriage, LinkCounters, Port, P5};
use p5_fault::{FaultPlan, FaultStats};
use p5_sonet::{BitErrorChannel, OcPath, StmLevel, TributaryGroup};
use p5_stream::{Histogram, Offer, SharedRecorder};
use p5_xport::LinkEngine;

use crate::fleet::TickParams;
use crate::traffic::template_payload;

/// Direction of travel on a duplex link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    AtoB,
    BtoA,
}

/// One direction of a link: the sending port, the carriage towards the
/// peer port, and the submit tick of each accepted-but-undelivered
/// frame (FIFO — PPP links preserve order), popped as the peer
/// delivers.  Stamps are only kept on fault-free links, where no
/// accepted frame can vanish.
struct Lane {
    port: Port,
    carriage: Carriage,
    stamps: VecDeque<u64>,
}

impl Lane {
    /// Offer one frame; the fleet's refusal policy is to drop it into
    /// `rejected` (the device already counted it in `TX_REJECTS`).
    fn offer(&mut self, protocol: u16, payload: &[u8], stamp: Option<u64>) -> Offer {
        let accepted = self.port.flow().accepted;
        let outcome = match self.port.offer(protocol, payload, self.carriage.backlog()) {
            Ok(outcome) => outcome,
            Err(refused) => {
                self.port.reject(refused);
                Offer::Rejected
            }
        };
        self.stamp(accepted, stamp);
        outcome
    }

    /// Move queued frames into the device.  While the carriage backlog
    /// is at the high-water mark the queue is held (the "blocked" leg of
    /// the conservation law, retried next tick); a device refusal is
    /// dropped, one per tick, so the TX queue gets to drain before the
    /// next probe.
    fn drain(&mut self, stamp: Option<u64>) {
        let accepted = self.port.flow().accepted;
        if let Err(refused) = self.port.drain(self.carriage.backlog()) {
            self.port.reject(refused);
        }
        self.stamp(accepted, stamp);
    }

    /// Stamp every frame accepted since the `before` reading.
    fn stamp(&mut self, before: u64, stamp: Option<u64>) {
        if let Some(now) = stamp {
            for _ in before..self.port.flow().accepted {
                self.stamps.push_back(now);
            }
        }
    }
}

/// One duplex link in the fleet: two ports, each with its outbound
/// carriage, plus a frame-latency histogram.
pub(crate) struct ShardLink {
    pub id: usize,
    /// Device a sends on `ab`; device b on `ba`.
    ab: Lane,
    ba: Lane,
    pub latency: Histogram,
    track_latency: bool,
    template: Vec<u8>,
    /// This link's private clock, in ticks.  Advanced only by
    /// [`ShardLink::finish_tick`], never by the fleet — the per-link
    /// schedule is what worker interleavings cannot touch.
    tick: u64,
}

impl ShardLink {
    pub fn new(
        id: usize,
        width: p5_core::DatapathWidth,
        sonet: Option<StmLevel>,
        base_fault: Option<&FaultPlan>,
        seed: u64,
        payload_len: usize,
        ingress_depth: usize,
    ) -> Self {
        let link_id = id as u64;
        let lane = |lane: u64| Lane {
            port: Port::new(P5::new(width), ingress_depth),
            carriage: Carriage::new(
                sonet.map(|level| OcPath::new(level, BitErrorChannel::clean())),
                base_fault.map(|p| p.fork_link(link_id, lane)),
            ),
            stamps: VecDeque::new(),
        };
        ShardLink {
            id,
            ab: lane(0),
            ba: lane(1),
            latency: Histogram::new(),
            track_latency: base_fault.is_none(),
            template: template_payload(payload_len, seed, link_id),
            tick: 0,
        }
    }

    fn a(&self) -> &P5 {
        self.ab.port.device()
    }

    fn b(&self) -> &P5 {
        self.ba.port.device()
    }

    fn lane(&mut self, dir: Dir) -> &mut Lane {
        match dir {
            Dir::AtoB => &mut self.ab,
            Dir::BtoA => &mut self.ba,
        }
    }

    /// Flow counters of both directions.
    pub fn counters(&self) -> LinkCounters {
        let mut c = self.ab.port.flow();
        c.add(&self.ba.port.flow());
        c
    }

    /// Injected faults of both directions' plans (the per-link STM-N
    /// channels are always clean).
    pub fn fault_stats(&self) -> FaultStats {
        let mut s = FaultStats::default();
        for lane in [&self.ab, &self.ba] {
            if let Some(p) = lane.carriage.plan() {
                s.absorb(&p.stats());
            }
        }
        s
    }

    /// Device-truth TX-queue refusals, both ends (mirrored to the OAM
    /// `TX_REJECTS` registers by `sync_oam`).
    pub fn device_tx_rejects(&self) -> u64 {
        self.a().tx.control.submit_rejects + self.b().tx.control.submit_rejects
    }

    /// Both ends' OAM handles (register-bus views for tests/telemetry).
    pub fn oam_handles(&self) -> (p5_core::OamHandle, p5_core::OamHandle) {
        (self.a().oam.clone(), self.b().oam.clone())
    }

    /// The same refusals as the OAM `TX_REJECTS` registers mirror them
    /// (`sync_oam` runs on the next staged clock after the reject, so
    /// this matches [`ShardLink::device_tx_rejects`] once drained).
    pub fn oam_tx_rejects(&self) -> u64 {
        use p5_core::oam::regs;
        use p5_core::{MmioBus, Oam};
        let (a, b) = self.oam_handles();
        Oam::new(a).read(regs::TX_REJECTS) as u64 + Oam::new(b).read(regs::TX_REJECTS) as u64
    }

    /// Receive counters merged over both ends.
    pub fn rx_totals(&self) -> p5_core::rx::RxCounters {
        let mut rx = *self.a().rx_counters();
        rx.add(self.b().rx_counters());
        rx
    }

    /// Receiver resynchronisation cost, both ends: octets skipped while
    /// hunting for a flag after losing delineation — the health
    /// scorer's "resync events" input.
    pub fn resync_bytes(&self) -> u64 {
        self.a().rx.control.resync_bytes_skipped + self.b().rx.control.resync_bytes_skipped
    }

    /// This link's private clock (ticks it has actually executed).
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// Attach frame-lifecycle tracing to both devices, returning the
    /// `(a, b)` recorders.  Each is a shared ring of `cap` events —
    /// the flight-recorder tap for a link picked out of the fleet.
    pub fn attach_recorders(&mut self, cap: usize) -> (SharedRecorder, SharedRecorder) {
        let ra = SharedRecorder::with_capacity(cap);
        let rb = SharedRecorder::with_capacity(cap);
        self.ab.port.device_mut().set_trace(Box::new(ra.clone()));
        self.ba.port.device_mut().set_trace(Box::new(rb.clone()));
        (ra, rb)
    }

    pub fn tx_frames_sent(&self) -> u64 {
        self.a().tx.control.frames_sent + self.b().tx.control.frames_sent
    }

    /// Offer one frame in `dir`; the external ingress API.
    pub fn offer(&mut self, dir: Dir, protocol: u16, payload: &[u8]) -> Offer {
        let stamp = self.track_latency.then_some(self.tick);
        self.lane(dir).offer(protocol, payload, stamp)
    }

    /// Tick phase 1 — everything up to the device producing wire bytes:
    /// generated load, FIFO drain, staged clocking.
    pub fn begin_tick(&mut self, p: &TickParams) {
        let stamp = self.track_latency.then_some(self.tick);
        if let Some(t) = &p.traffic {
            if self.tick < t.ticks {
                for _ in 0..t.frames_per_tick {
                    self.ab.offer(t.protocol, &self.template, stamp);
                    if t.duplex {
                        self.ba.offer(t.protocol, &self.template, stamp);
                    }
                }
            }
        }
        for lane in [&mut self.ab, &mut self.ba] {
            lane.drain(stamp);
            let dev = lane.port.device_mut();
            if dev.staged_busy() {
                dev.run(p.cycles_per_tick);
            }
        }
    }

    /// Tick phase 2 for self-carried links (Raw wire or per-link
    /// STM-N): carry both directions.  Channelized cohorts do this leg
    /// through their shared envelope instead.
    pub fn carry_own_wire(&mut self) {
        for lane in [&mut self.ab, &mut self.ba] {
            lane.carriage.carry(lane.port.device_mut());
        }
    }

    /// Channelized egress: hand one direction's produced wire bytes to
    /// the shared envelope (tributary `slot`).
    pub fn egress_to_envelope(&mut self, dir: Dir, env: &mut TributaryGroup, slot: usize) {
        let dev = self.lane(dir).port.device_mut();
        if dev.has_wire_out() {
            let bytes = dev.take_wire_out();
            env.send(slot, &bytes);
            dev.recycle_wire_vec(bytes);
        }
    }

    /// Channelized ingress: accept one direction's bytes recovered from
    /// the shared envelope (fault plan applied here, per link).
    pub fn ingress_from_envelope(&mut self, dir: Dir, bytes: &[u8]) {
        self.lane(dir).carriage.impair(bytes);
    }

    /// Tick phase 3 — deliver wire into the sink devices (budgeted),
    /// collect received frames, advance the link clock.
    pub fn finish_tick(&mut self, p: &TickParams) {
        self.ab.carriage.deliver(&mut self.ba.port, p.wire_budget);
        self.ba.carriage.deliver(&mut self.ab.port, p.wire_budget);
        // b delivers what a sent, closing a's stamps, and vice versa.
        let n = self.ba.port.collect(|f| Some(f.payload));
        self.close_stamps(Dir::AtoB, n);
        let n = self.ab.port.collect(|f| Some(f.payload));
        self.close_stamps(Dir::BtoA, n);
        self.tick += 1;
    }

    /// `n` frames sent in `dir` were delivered this tick.
    fn close_stamps(&mut self, dir: Dir, n: usize) {
        let now = self.tick;
        let stamps = match dir {
            Dir::AtoB => &mut self.ab.stamps,
            Dir::BtoA => &mut self.ba.stamps,
        };
        for t0 in stamps.drain(..n.min(stamps.len())) {
            self.latency.observe(now.saturating_sub(t0));
        }
    }

    /// Anything left for this link to do?  (Generated load pending,
    /// frames queued, staged state in flight, or wire in transit.)
    pub fn has_work(&self, p: &TickParams) -> bool {
        if let Some(t) = &p.traffic {
            if self.tick < t.ticks {
                return true;
            }
        }
        [&self.ab, &self.ba].iter().any(|lane| {
            !lane.port.is_idle()
                || lane.carriage.backlog() > 0
                || !lane.port.device().fused_rx_idle()
        })
    }
}

/// The schedulable unit a worker claims: one self-carried link, a
/// channel group — up to N tributary links sharing an STM-N envelope
/// pair, which must advance in lockstep (one envelope frame carries a
/// column of every tributary) — or one *remote* endpoint (a
/// [`LinkEngine`] bound to a real OS transport, pumped by fleet
/// workers instead of a dedicated `SessionDriver` thread).
pub(crate) struct Cohort {
    pub links: Vec<ShardLink>,
    envelope: Option<Box<(TributaryGroup, TributaryGroup)>>,
    /// A transport-backed endpoint riding the worker pool.  Mutually
    /// exclusive with `links` — a remote cohort's "ticks" are engine
    /// service passes.
    pub remote: Option<Box<LinkEngine>>,
    /// Non-idle ticks this cohort has actually executed — the load-skew
    /// signal dynamic rebalancing needs (idle-skipped ticks don't
    /// count).
    pub work_ticks: u64,
}

impl Cohort {
    pub fn single(link: ShardLink) -> Self {
        Cohort {
            links: vec![link],
            envelope: None,
            remote: None,
            work_ticks: 0,
        }
    }

    pub fn channel_group(links: Vec<ShardLink>, level: StmLevel) -> Self {
        debug_assert!(links.len() <= level.n());
        Cohort {
            links,
            envelope: Some(Box::new((
                TributaryGroup::new(level, BitErrorChannel::clean()),
                TributaryGroup::new(level, BitErrorChannel::clean()),
            ))),
            remote: None,
            work_ticks: 0,
        }
    }

    pub fn remote(engine: LinkEngine) -> Self {
        Cohort {
            links: Vec::new(),
            envelope: None,
            remote: Some(Box::new(engine)),
            work_ticks: 0,
        }
    }

    pub fn has_work(&self, p: &TickParams) -> bool {
        self.links.iter().any(|l| l.has_work(p))
            || self
                .envelope
                .as_ref()
                .is_some_and(|e| e.0.frames_to_drain() > 0 || e.1.frames_to_drain() > 0)
            || self.remote.as_ref().is_some_and(|e| e.has_local_work())
    }

    /// One tick for every link in the cohort.
    pub fn tick(&mut self, p: &TickParams) {
        for l in &mut self.links {
            l.begin_tick(p);
        }
        match &mut self.envelope {
            None => {
                for l in &mut self.links {
                    l.carry_own_wire();
                }
            }
            Some(env) => {
                let (ab, ba) = &mut **env;
                for (slot, l) in self.links.iter_mut().enumerate() {
                    l.egress_to_envelope(Dir::AtoB, ab, slot);
                    l.egress_to_envelope(Dir::BtoA, ba, slot);
                }
                let k = ab.frames_to_drain().max(ba.frames_to_drain());
                if k > 0 {
                    // +2: tributary delineation hunts across a boundary.
                    ab.run_frames(k + 2);
                    ba.run_frames(k + 2);
                }
                for (slot, l) in self.links.iter_mut().enumerate() {
                    let bytes = ab.recv(slot);
                    l.ingress_from_envelope(Dir::AtoB, &bytes);
                    let bytes = ba.recv(slot);
                    l.ingress_from_envelope(Dir::BtoA, &bytes);
                }
            }
        }
        for l in &mut self.links {
            l.finish_tick(p);
        }
    }

    /// Run up to `n` ticks, stopping early once idle.  Returns the
    /// ticks actually executed (the worker's busy time on this claim).
    pub fn drive(&mut self, p: &TickParams, n: u64) -> u64 {
        if let Some(engine) = &mut self.remote {
            // A remote cohort's tick is one engine service pass; stop
            // as soon as the pass moves nothing (the socket decides
            // when more work exists, not the tick budget).
            let mut done = 0;
            while done < n && engine.service() {
                done += 1;
            }
            self.work_ticks += done;
            return done;
        }
        for done in 0..n {
            if !self.has_work(p) {
                self.work_ticks += done;
                return done;
            }
            self.tick(p);
        }
        self.work_ticks += n;
        n
    }
}

// The whole point of the runtime is moving cohorts across threads.
fn _assert_cohort_is_send() {
    fn is_send<T: Send>() {}
    is_send::<Cohort>();
}
