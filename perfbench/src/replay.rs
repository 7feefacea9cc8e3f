//! The layer ledger: a workload's own corpus replayed through each
//! lower layer's public entry point, for bytes per second per layer and
//! a predicted cost of each end-to-end path.
//!
//! Every replay runs in a fixed time slice, cycling over the corpus,
//! and checks its output against the input (a layer that drops or
//! alters bytes fails the run).  Frame payloads carry their corpus
//! index, and delivery `d` of a replay must equal frame `d mod n`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use p5_core::{DatapathWidth, P5};
use p5_crc::engine::{EngineKind, FcsEngine};
use p5_crc::{fcs32_wire_bytes, CrcEngine, FCS32};
use p5_hdlc::scan::clean_prefix_len;
use p5_hdlc::{destuff, stuff_into, Accm, DeframeEvent, Deframer, DeframerConfig, DestuffOutcome};
use p5_ppp::{Session, SessionEvent};
use p5_sonet::{
    BitErrorChannel, ByteLink, FrameReceiver, FrameScrambler, FrameTransmitter, OcPath,
    PayloadScrambler, StmLevel,
};
use p5_stream::WireBuf;
use p5_xport::{IoOp, TcpTransport, Transport};

use crate::corpus::{Corpus, IPV4};
use crate::fleet_path::FRAMES_PER_TICK;
use crate::link_path::BATCH;
use crate::report::Metrics;

const FLAG: u8 = 0x7E;
const PPP_HEADER: [u8; 4] = [0xFF, 0x03, (IPV4 >> 8) as u8, IPV4 as u8];
/// Wire bytes per step of the stream-shaped replays.
const CHUNK: usize = 16 * 1024;
/// Steps between clock reads.
const CLOCK_EVERY: usize = 16;
const STM: StmLevel = StmLevel::Stm16;
/// Ticks over which `sonet.line_bytes_per_payload_byte` is counted
/// (fixed, so the figure repeats exactly).
const ANCHOR_TICKS: usize = 64;

/// The corpus in every shape a layer consumes.
pub struct Inputs {
    /// Payloads stamped with their corpus index.
    frames: Vec<Vec<u8>>,
    /// PPP header + payload (the FCS input).
    bodies: Vec<Vec<u8>>,
    /// Body + FCS-32 (the stuffing input).
    framed: Vec<Vec<u8>>,
    /// Stuffed `framed`, one flag-free region per frame.
    regions: Vec<Vec<u8>>,
    /// `FLAG region₀ FLAG region₁ FLAG …`, flags shared.
    wire: Vec<u8>,
    /// Start of each region in `wire` (plus `wire.len()` at the end).
    offsets: Vec<usize>,
    payload_bytes: u64,
}

impl Inputs {
    pub fn new(corpus: &Corpus) -> Self {
        let mut buf = Vec::new();
        let frames: Vec<Vec<u8>> = (0..corpus.len() as u64)
            .map(|i| corpus.stamped(i, &mut buf).to_vec())
            .collect();
        let mut crc = FcsEngine::new(EngineKind::Slice, FCS32, 4);
        let bodies: Vec<Vec<u8>> = frames
            .iter()
            .map(|f| [&PPP_HEADER[..], f].concat())
            .collect();
        let framed: Vec<Vec<u8>> = bodies
            .iter()
            .map(|b| {
                crc.reset();
                crc.update(b);
                [&b[..], &fcs32_wire_bytes(crc.value())].concat()
            })
            .collect();
        let regions: Vec<Vec<u8>> = framed
            .iter()
            .map(|f| {
                let mut out = Vec::new();
                stuff_into(f, Accm::SONET, &mut out);
                out
            })
            .collect();
        let mut wire = vec![FLAG];
        let mut offsets = Vec::with_capacity(regions.len() + 1);
        for r in &regions {
            offsets.push(wire.len());
            wire.extend_from_slice(r);
            wire.push(FLAG);
        }
        offsets.push(wire.len());
        let payload_bytes = frames.iter().map(|f| f.len() as u64).sum();
        Inputs {
            frames,
            bodies,
            framed,
            regions,
            wire,
            offsets,
            payload_bytes,
        }
    }

    fn n(&self) -> usize {
        self.frames.len()
    }

    /// Wire octets over unstuffed frame octets (header, payload, FCS),
    /// flags included: protocol-defined, so it never moves.
    pub fn expansion(&self) -> f64 {
        let framed: usize = self.framed.iter().map(Vec::len).sum();
        self.wire.len() as f64 / framed as f64
    }

    /// Wire of frames `i .. i + k` (mod n): each region with its
    /// closing flag.
    fn segments(&self, i: usize, k: usize, out: &mut Vec<u8>) {
        out.clear();
        for j in i..i + k {
            let j = j % self.n();
            out.extend_from_slice(&self.wire[self.offsets[j]..self.offsets[j + 1]]);
        }
    }

    /// Wire chunk `step` of the cycled wire image.
    fn chunk(&self, step: usize) -> &[u8] {
        let chunks = self.wire.len().div_ceil(CHUNK);
        let at = (step % chunks) * CHUNK;
        &self.wire[at..(at + CHUNK).min(self.wire.len())]
    }

    /// Payload bytes carried per wire byte of this corpus.
    fn payload_per_wire_byte(&self) -> f64 {
        self.payload_bytes as f64 / self.wire.len() as f64
    }
}

/// One replay's measurement: `units` of its natural measure (bytes) in
/// `secs`, plus the payload-byte equivalent for the ledger.
struct Timed {
    units: u64,
    payload: f64,
    secs: f64,
}

impl Timed {
    fn gbps(&self) -> f64 {
        self.units as f64 * 8.0 / self.secs / 1e9
    }

    fn ns_per_payload_byte(&self) -> f64 {
        self.secs * 1e9 / self.payload
    }
}

/// Call `step(k)` for k = 0, 1, … until `slice` has elapsed (at least
/// once).  `step` returns the units it processed and may return an
/// error.  Only time inside `step` counts when it reports its own via
/// the returned `Option<Duration>`.
fn timed(
    slice: Duration,
    payload_per_unit: f64,
    mut step: impl FnMut(usize) -> Result<(u64, Option<Duration>), String>,
) -> Result<Timed, String> {
    let t0 = Instant::now();
    let mut units = 0u64;
    let mut own = Duration::ZERO;
    let mut own_all = true;
    let mut k = 0usize;
    loop {
        let (u, d) = step(k)?;
        units += u;
        match d {
            Some(d) => own += d,
            None => own_all = false,
        }
        k += 1;
        if k.is_multiple_of(CLOCK_EVERY) && t0.elapsed() >= slice {
            break;
        }
    }
    let secs = if own_all {
        own.as_secs_f64()
    } else {
        t0.elapsed().as_secs_f64()
    };
    Ok(Timed {
        units,
        payload: units as f64 * payload_per_unit,
        secs,
    })
}

fn check_delivery(inputs: &Inputs, d: u64, payload: &[u8], what: &str) -> Result<(), String> {
    if payload != inputs.frames[(d % inputs.n() as u64) as usize] {
        return Err(format!(
            "{what}: delivery {d} differs from the frame offered"
        ));
    }
    Ok(())
}

/// What the ledger measured for one corpus.
pub struct Ledger {
    pub metrics: Metrics,
    /// Serial cost of each layer replay, ns per payload byte.
    pub cost: Vec<(&'static str, f64)>,
}

impl Ledger {
    pub fn cost_of(&self, layer: &str) -> f64 {
        self.cost
            .iter()
            .find(|(n, _)| *n == layer)
            .map_or(f64::NAN, |(_, c)| *c)
    }
}

pub fn run(corpus: &Corpus, slice: Duration) -> Result<Ledger, String> {
    let inputs = Inputs::new(corpus);
    let mut m = Metrics::default();
    let mut cost = Vec::new();
    let n = inputs.n();
    let wire_ratio = inputs.payload_per_wire_byte();

    // crc: slicing-by-8 over each PPP body.
    let mut crc = FcsEngine::new(EngineKind::Slice, FCS32, 4);
    let body_ratio =
        inputs.payload_bytes as f64 / inputs.bodies.iter().map(Vec::len).sum::<usize>() as f64;
    let t = timed(slice, body_ratio, |k| {
        let b = &inputs.bodies[k % n];
        crc.reset();
        crc.update(b);
        black_box(crc.value());
        Ok((b.len() as u64, None))
    })?;
    m.put("crc.slice8.gbps", t.gbps(), "Gbps");
    cost.push(("crc", t.ns_per_payload_byte()));

    // hdlc: stuff, destuff, scan, deframe.
    let framed_ratio =
        inputs.payload_bytes as f64 / inputs.framed.iter().map(Vec::len).sum::<usize>() as f64;
    let mut out = Vec::with_capacity(4096);
    let t = timed(slice, framed_ratio, |k| {
        let f = &inputs.framed[k % n];
        out.clear();
        stuff_into(f, Accm::SONET, &mut out);
        Ok((f.len() as u64, None))
    })?;
    m.put("hdlc.stuff.gbps", t.gbps(), "Gbps");
    cost.push(("hdlc.stuff", t.ns_per_payload_byte()));

    let region_ratio =
        inputs.payload_bytes as f64 / inputs.regions.iter().map(Vec::len).sum::<usize>() as f64;
    let t = timed(slice, region_ratio, |k| {
        let r = &inputs.regions[k % n];
        match destuff(r) {
            // Checked on the first pass; later passes repeat the bytes.
            DestuffOutcome::Ok(v) if k >= n || v == inputs.framed[k] => Ok((r.len() as u64, None)),
            _ => Err(format!("hdlc destuff: frame {} did not round-trip", k % n)),
        }
    })?;
    m.put("hdlc.destuff.gbps", t.gbps(), "Gbps");
    cost.push(("hdlc.destuff", t.ns_per_payload_byte()));

    let t = timed(slice, wire_ratio, |k| {
        let c = inputs.chunk(k);
        let mut i = 0;
        let mut specials = 0u64;
        while i < c.len() {
            i += clean_prefix_len(&c[i..]);
            if i < c.len() {
                specials += 1;
                i += 1;
            }
        }
        black_box(specials);
        Ok((c.len() as u64, None))
    })?;
    m.put("hdlc.scan.gbps", t.gbps(), "Gbps");
    cost.push(("hdlc.scan", t.ns_per_payload_byte()));

    let mut deframer = Deframer::new(DeframerConfig::default());
    let mut delivered = 0u64;
    let t = timed(slice, wire_ratio, |k| {
        let c = inputs.chunk(k);
        for ev in deframer.push_bytes(c) {
            match ev {
                DeframeEvent::Frame(body) if body[..4] == PPP_HEADER => {
                    if delivered < n as u64 {
                        check_delivery(&inputs, delivered, &body[4..], "hdlc deframe")?;
                    }
                    delivered += 1;
                }
                _ => return Err("hdlc deframe: discarded a good frame".into()),
            }
        }
        Ok((c.len() as u64, None))
    })?;
    m.put("hdlc.deframe.gbps", t.gbps(), "Gbps");
    cost.push(("hdlc.deframe", t.ns_per_payload_byte()));
    m.put("hdlc.expansion", inputs.expansion(), "ratio");

    // core: the fused transmit and receive paths of one device each.
    core(&inputs, slice, &mut m, &mut cost)?;
    // sonet: both scramblers, framer → receiver, and the OC path.
    sonet(&inputs, slice, &mut m, &mut cost)?;
    // ppp: an opened session pair.
    let t = session_hop(&inputs, slice)?;
    m.put(
        "ppp.session_hop.ns_per_frame",
        t.secs * 1e9 / (t.units as f64).max(1.0),
        "ns",
    );
    cost.push(("ppp.session_hop", t.secs * 1e9 / t.payload));
    // xport: the transport's ceiling on this corpus's wire.
    let t = tcp_raw(&inputs, slice)?;
    m.put("xport.tcp_raw.gbps", t.gbps(), "Gbps");
    cost.push(("xport.tcp_raw", t.ns_per_payload_byte()));
    Ok(Ledger { metrics: m, cost })
}

fn core(
    inputs: &Inputs,
    slice: Duration,
    m: &mut Metrics,
    cost: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let n = inputs.n();
    let batches = n.div_ceil(BATCH as usize);
    let batch = |k: usize| {
        let b = k % batches;
        (b * BATCH as usize)..((b + 1) * BATCH as usize).min(n)
    };
    // Transmit: a batch of fused submits, then the wire is drained.
    let mut tx = P5::new(DatapathWidth::W32);
    let mut wire = WireBuf::new();
    let mut first_pass = Vec::new();
    let (mut calls, mut fused) = (0u64, 0u64);
    let t = timed(slice, 1.0, |k| {
        let t0 = Instant::now();
        let mut bytes = 0;
        for i in batch(k) {
            let f = &inputs.frames[i];
            calls += 1;
            if tx.fused_submit_wire(IPV4, f, 0) {
                fused += 1;
            } else {
                // Not eligible: drain and retry once (counted as a miss).
                tx.drain_wire_into(&mut wire);
                if !tx.fused_submit_wire(IPV4, f, 0) {
                    return Err("core fused tx: refused on a drained device".into());
                }
            }
            bytes += f.len() as u64;
        }
        tx.drain_wire_into(&mut wire);
        let d = t0.elapsed();
        if k < batches {
            first_pass.extend_from_slice(wire.as_slice());
        }
        wire.clear();
        Ok((bytes, Some(d)))
    })?;
    if first_pass.is_empty() || !inputs.wire.starts_with(&first_pass) {
        return Err("core fused tx: wire differs from HDLC framing of the same frames".into());
    }
    m.put("core.fused_tx.gbps", t.gbps(), "Gbps");
    m.put(
        "core.fused_tx_frac",
        fused as f64 / calls.max(1) as f64,
        "frac",
    );
    cost.push(("core.fused_tx", t.ns_per_payload_byte()));

    // Receive: one batch's wire per fused ingest.
    let mut rx = P5::new(DatapathWidth::W32);
    let mut input = WireBuf::new();
    let mut seg = Vec::new();
    let mut delivered = 0u64;
    let t = timed(slice, 1.0, |k| {
        let r = batch(k);
        let bytes: u64 = r.clone().map(|i| inputs.frames[i].len() as u64).sum();
        inputs.segments(r.start, r.len(), &mut seg);
        if k == 0 {
            input.push_slice(&[FLAG]);
        }
        input.push_slice(&seg);
        let t0 = Instant::now();
        rx.fused_ingest_wire(&mut input, usize::MAX)
            .ok_or("core fused rx: device refused the fused path")?;
        let got = rx.take_received();
        let d = t0.elapsed();
        for f in got {
            check_delivery(inputs, delivered, &f.payload, "core fused rx")?;
            delivered += 1;
            rx.recycle_rx_payload(f.payload);
        }
        Ok((bytes, Some(d)))
    })?;
    m.put("core.fused_rx.gbps", t.gbps(), "Gbps");
    cost.push(("core.fused_rx", t.ns_per_payload_byte()));
    Ok(())
}

fn sonet(
    inputs: &Inputs,
    slice: Duration,
    m: &mut Metrics,
    cost: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let wire_ratio = inputs.payload_per_wire_byte();
    let chunks = inputs.wire.len().div_ceil(CHUNK);

    // x43+1: scramble the cycled wire, then descramble what came out.
    let mut scr = PayloadScrambler::new();
    let mut scrambled: Vec<Vec<u8>> = Vec::with_capacity(chunks);
    let mut buf = Vec::with_capacity(CHUNK);
    let t = timed(slice, wire_ratio, |k| {
        buf.clear();
        buf.extend_from_slice(inputs.chunk(k));
        let t0 = Instant::now();
        scr.scramble(&mut buf);
        let d = t0.elapsed();
        if k < chunks {
            scrambled.push(buf.clone());
        }
        Ok((buf.len() as u64, Some(d)))
    })?;
    m.put("sonet.x43_scramble.gbps", t.gbps(), "Gbps");
    cost.push(("sonet.x43_scramble", t.ns_per_payload_byte()));
    if scrambled.len() < chunks {
        return Err("sonet x43: slice too short for one pass over the wire".into());
    }
    let mut des = PayloadScrambler::new();
    let t = timed(slice, wire_ratio, |k| {
        buf.clear();
        buf.extend_from_slice(&scrambled[k % chunks]);
        let t0 = Instant::now();
        des.descramble(&mut buf);
        let d = t0.elapsed();
        if k < chunks && buf != inputs.chunk(k) {
            return Err("sonet x43: descramble did not restore the wire".into());
        }
        Ok((buf.len() as u64, Some(d)))
    })?;
    m.put("sonet.x43_descramble.gbps", t.gbps(), "Gbps");
    cost.push(("sonet.x43_descramble", t.ns_per_payload_byte()));

    // G.707 frame scrambler, one STM-16 frame per step.
    let frame = STM.frame_bytes();
    let mut g707 = FrameScrambler::new();
    let mut fbuf = vec![0u8; frame];
    let t = timed(slice, wire_ratio, |k| {
        let at = (k * frame) % inputs.wire.len();
        for (j, b) in fbuf.iter_mut().enumerate() {
            *b = inputs.wire[(at + j) % inputs.wire.len()];
        }
        let t0 = Instant::now();
        g707.reset();
        g707.apply(&mut fbuf);
        let d = t0.elapsed();
        black_box(&fbuf);
        Ok((frame as u64, Some(d)))
    })?;
    m.put("sonet.g707_scramble.gbps", t.gbps(), "Gbps");
    cost.push(("sonet.g707_scramble", t.ns_per_payload_byte()));

    // Framer → receiver: one SPE of wire per emitted frame.
    let spe = STM.payload_per_frame();
    let mut txf = FrameTransmitter::new(STM);
    let mut rxf = FrameReceiver::new(STM);
    // Two frames of fill first, so the receiver has locked before data.
    for _ in 0..2 {
        let line = txf.emit_frame();
        rxf.push(&line);
    }
    let mut recovered = Vec::new();
    let line_ratio =
        inputs.payload_bytes as f64 / inputs.wire.len() as f64 * spe as f64 / frame as f64;
    let t = timed(slice, line_ratio, |k| {
        let at = (k * spe) % inputs.wire.len();
        let end = (at + spe).min(inputs.wire.len());
        let t0 = Instant::now();
        txf.offer_payload(&inputs.wire[at..end]);
        let line = txf.emit_frame();
        let out = rxf.push(&line);
        let d = t0.elapsed();
        if recovered.len() < inputs.wire.len() {
            recovered.extend_from_slice(&out);
        }
        Ok((line.len() as u64, Some(d)))
    })?;
    let strip = |v: &[u8]| v.iter().position(|&b| b != FLAG).unwrap_or(v.len());
    let got = &recovered[strip(&recovered)..];
    let want = &inputs.wire[strip(&inputs.wire)..];
    let k = got.len().min(want.len());
    if k == 0 || got[..k] != want[..k] {
        return Err("sonet framer→receiver: payload not recovered intact".into());
    }
    m.put("sonet.framer_receiver.line_gbps", t.gbps(), "Gbps");
    cost.push(("sonet.framer_receiver", t.ns_per_payload_byte()));

    // OcPath, driven per tick as the fleet's carrier drives it.
    let mut path = OcPath::new(STM, BitErrorChannel::clean());
    let mut rx = P5::new(DatapathWidth::W32);
    let mut input = WireBuf::new();
    input.push_slice(&[FLAG]);
    let mut seg = Vec::new();
    let mut delivered = 0u64;
    let mut anchor = None;
    let mut path_payload = 0u64;
    let t = timed(slice, 1.0, |k| {
        let first = k * FRAMES_PER_TICK;
        inputs.segments(first, FRAMES_PER_TICK, &mut seg);
        if k == 0 {
            seg.insert(0, FLAG);
        }
        let bytes: u64 = (first..first + FRAMES_PER_TICK)
            .map(|i| inputs.frames[i % inputs.n()].len() as u64)
            .sum();
        let t0 = Instant::now();
        path.send(&seg);
        let frames = path.frames_to_drain();
        if frames > 0 {
            path.run_frames(frames + 2);
        }
        let out = path.recv();
        let d = t0.elapsed();
        input.push_slice(&out);
        rx.fused_ingest_wire(&mut input, usize::MAX)
            .ok_or("sonet ocpath: receiver refused the fused path")?;
        for f in rx.take_received() {
            check_delivery(inputs, delivered, &f.payload, "sonet ocpath")?;
            delivered += 1;
            rx.recycle_rx_payload(f.payload);
        }
        path_payload += bytes;
        if k + 1 == ANCHOR_TICKS {
            let line = path.transmitter().frames_emitted() * STM.frame_bytes() as u64;
            anchor = Some(line as f64 / path_payload as f64);
        }
        Ok((bytes, Some(d)))
    })?;
    m.put("sonet.ocpath.payload_gbps", t.gbps(), "Gbps");
    cost.push(("sonet.ocpath", t.ns_per_payload_byte()));
    // Ticks run short of the anchor window only on a very slow host;
    // finish the count outside the timed slice so it always exists.
    let anchor = match anchor {
        Some(a) => a,
        None => ocpath_anchor(inputs),
    };
    m.put("sonet.line_bytes_per_payload_byte", anchor, "ratio");
    Ok(())
}

/// `sonet.line_bytes_per_payload_byte` over exactly [`ANCHOR_TICKS`].
fn ocpath_anchor(inputs: &Inputs) -> f64 {
    let mut path = OcPath::new(STM, BitErrorChannel::clean());
    let mut seg = Vec::new();
    let mut payload = 0u64;
    for k in 0..ANCHOR_TICKS {
        let first = k * FRAMES_PER_TICK;
        inputs.segments(first, FRAMES_PER_TICK, &mut seg);
        if k == 0 {
            seg.insert(0, FLAG);
        }
        payload += (first..first + FRAMES_PER_TICK)
            .map(|i| inputs.frames[i % inputs.n()].len() as u64)
            .sum::<u64>();
        path.send(&seg);
        let frames = path.frames_to_drain();
        if frames > 0 {
            path.run_frames(frames + 2);
        }
        path.recv();
    }
    (path.transmitter().frames_emitted() * STM.frame_bytes() as u64) as f64 / payload as f64
}

/// An opened in-memory session pair: `a.send_datagram → a.poll_output →
/// b.receive → b.poll_events` per frame.
fn session_hop(inputs: &Inputs, slice: Duration) -> Result<Timed, String> {
    let mut a = Session::new(0x1ED6_E001, [10, 77, 0, 1]);
    let mut b = Session::new(0x1ED6_E002, [10, 77, 0, 2]);
    a.start();
    b.start();
    for now in 0..200 {
        a.tick(now);
        b.tick(now);
        for (p, info) in a.poll_output() {
            b.receive(p, &info);
        }
        for (p, info) in b.poll_output() {
            a.receive(p, &info);
        }
        if a.is_network_up() && b.is_network_up() {
            break;
        }
    }
    if !(a.is_network_up() && b.is_network_up()) {
        return Err("ppp: in-memory session pair did not open".into());
    }
    a.poll_events();
    b.poll_events();
    let mut delivered = 0u64;
    let n = inputs.n();
    let mut payload = 0f64;
    let t = timed(slice, 1.0, |k| {
        let f = &inputs.frames[k % n];
        let t0 = Instant::now();
        a.send_datagram(f.clone());
        for (p, info) in a.poll_output() {
            b.receive(p, &info);
        }
        let events = b.poll_events();
        let d = t0.elapsed();
        for ev in events {
            match ev {
                SessionEvent::Datagram(data) => {
                    check_delivery(inputs, delivered, &data, "ppp session hop")?;
                    delivered += 1;
                }
                other => return Err(format!("ppp session hop: unexpected event {other:?}")),
            }
        }
        payload += f.len() as f64;
        Ok((1, Some(d)))
    })?;
    Ok(Timed { payload, ..t })
}

/// The corpus's wire through `TcpTransport::send`/`recv` alone, one
/// thread, loopback.
fn tcp_raw(inputs: &Inputs, slice: Duration) -> Result<Timed, String> {
    let mut server = TcpTransport::listen("127.0.0.1:0").map_err(|e| format!("tcp raw: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("tcp raw: {e}"))?;
    let mut client = TcpTransport::connect(addr).map_err(|e| format!("tcp raw: {e}"))?;
    let limit = Instant::now() + Duration::from_secs(5);
    while !server
        .establish()
        .map_err(|e| format!("tcp raw accept: {e}"))?
    {
        if Instant::now() > limit {
            return Err("tcp raw: accept timed out".into());
        }
        std::thread::yield_now();
    }
    let mut rbuf = vec![0u8; 64 * 1024];
    let io = |e: std::io::Error| format!("tcp raw: {e}");
    let chunks = inputs.wire.len().div_ceil(CHUNK);
    timed(slice, inputs.payload_per_wire_byte(), |k| {
        let c = inputs.chunk(k);
        let (mut sent, mut got) = (0, 0);
        let deadline = Instant::now() + Duration::from_secs(5);
        while got < c.len() {
            if sent < c.len() {
                match client.send(&c[sent..]).map_err(io)? {
                    IoOp::Did(n) => sent += n,
                    IoOp::WouldBlock => {}
                    IoOp::Closed => return Err("tcp raw: peer closed".into()),
                }
            }
            match server.recv(&mut rbuf).map_err(io)? {
                IoOp::Did(n) => {
                    // Checked on the first pass; later passes repeat it.
                    if k < chunks && rbuf[..n] != c[got..got + n] {
                        return Err("tcp raw: bytes differ".into());
                    }
                    got += n;
                }
                IoOp::WouldBlock => {
                    if Instant::now() > deadline {
                        return Err("tcp raw: stalled".into());
                    }
                }
                IoOp::Closed => return Err("tcp raw: peer closed".into()),
            }
        }
        Ok((c.len() as u64, None))
    })
}
