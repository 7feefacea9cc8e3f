//! `tcp_endpoint`: one PPP session over one TCP loopback connection.
//!
//! The sender is a `SessionDriver` (its own pump thread) built with
//! `LinkBuilder::profile(..).transport(TcpTransport::listen(..))
//! .build_remote()`; the receiver is a `LinkEngine` over
//! `TcpTransport::connect(..)` that the generator thread services
//! itself: two busy threads, one connection.
//!
//! * Phase A — open loop at a fixed [`OPEN_LOOP_FPS`].  Latency runs
//!   from each frame's due time, so a stall is charged to every frame
//!   it delays.  A refused offer is retried (the frame keeps its due
//!   time): a stall shows as latency, not as loss.
//! * Phase B — closed loop: offer until refused or [`WINDOW_FRAMES`]
//!   are in flight, service, repeat.  Its delivered rate is the path's
//!   `payload_gbps`.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use p5_core::DatapathWidth;
use p5_link::LinkBuilder;
use p5_ppp::NegotiationProfile;
use p5_stream::pool::alloc_count;
use p5_stream::Observable;
use p5_xport::{LinkEngine, SessionDriver, TcpTransport};

use crate::corpus::{Checker, Corpus, Counted, Flow, IPV4};
use crate::report::{Metrics, PathResult, Timing};
use crate::span::Tracer;
use crate::stats::{percentile, SetupClock, Windows};

pub const OPEN_LOOP_FPS: f64 = 20_000.0;
/// Phase B's window of admitted, undelivered frames: the sender's
/// ingress depth.  `SessionDriver`'s own refusal does not bound the backlog
/// (its pump moves admitted frames on into the session's unbounded
/// control queue), so the generator holds the window itself.
const WINDOW_FRAMES: usize = 64;
/// Share of the measured time given to Phase A.
const PHASE_A_SHARE: f64 = 0.6;
const WINDOW: Duration = Duration::from_millis(100);
/// Phase A latency windows: 1000 frames at the open-loop rate, the
/// fewest that support a window's own p99.
const LATENCY_WINDOW: Duration = Duration::from_millis(50);
const BRING_UP_LIMIT: Duration = Duration::from_secs(10);
const DRAIN_LIMIT: Duration = Duration::from_secs(5);

fn profile(magic: u32, ip: [u8; 4]) -> NegotiationProfile {
    NegotiationProfile::new().magic(magic).ip(ip)
}

pub struct Pair {
    tx: SessionDriver,
    rx: LinkEngine,
}

/// Listen, build the sender, dial the receiver, and service the
/// receiver until LCP and IPCP are open on both ends.
pub fn bring_up() -> Result<(Pair, Duration), String> {
    let t0 = Instant::now();
    let server = TcpTransport::listen("127.0.0.1:0").map_err(|e| format!("listen: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    let tx = LinkBuilder::new()
        .width(DatapathWidth::W32)
        .profile(profile(0x5E4D_0001, [10, 55, 0, 1]))
        .transport(server)
        .build_remote()
        .map_err(|e| format!("sender: {e}"))?;
    let client = TcpTransport::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut rx = LinkEngine::new(
        DatapathWidth::W32,
        &profile(0x5E4D_0002, [10, 55, 0, 2]),
        Box::new(client),
    );
    while !(rx.is_network_up() && tx.is_network_up()) {
        if t0.elapsed() > BRING_UP_LIMIT {
            return Err("TCP session bring-up timed out".into());
        }
        if !rx.service() {
            std::thread::yield_now();
        }
    }
    Ok((Pair { tx, rx }, t0.elapsed()))
}

/// Extra bring-ups timed at each phase boundary of a run.
const SETUP_SAMPLES_PER_BOUNDARY: usize = 10;

/// Time `n` throwaway bring-ups into `setup`.
fn sample_setup(setup: &mut SetupClock, n: usize) -> Result<(), String> {
    if !setup.is_on() {
        return Ok(());
    }
    for _ in 0..n {
        let (pair, took) = bring_up()?;
        setup.push(took);
        pair.close();
    }
    Ok(())
}

impl Pair {
    /// Stop the pump thread (joined) and drop both sockets.
    pub fn close(self) {
        drop(self.tx.shutdown());
        drop(self.rx);
    }
}

/// Generator state shared by both phases.
struct Gen<'a> {
    corpus: &'a Corpus,
    pair: &'a mut Pair,
    buf: Vec<u8>,
    next: u64,
    checker: Checker,
    /// (sequence, due time) of admitted, undelivered frames.
    inflight: VecDeque<(u64, Instant)>,
    /// Duration of every offer call (traced runs only), ns.
    offer_ns: Vec<u64>,
    service_calls: u64,
    idle_passes: u64,
}

impl Gen<'_> {
    /// Offer frame `self.next`; true when admitted.
    fn offer(&mut self, due: Instant, tr: &mut Tracer) -> bool {
        let payload = self.corpus.stamped(self.next, &mut self.buf);
        let t = Instant::now();
        tr.begin("xport.offer", self.next);
        let admitted = self.pair.tx.offer(IPV4, payload).is_admitted();
        tr.end();
        if tr.is_on() {
            self.offer_ns.push(t.elapsed().as_nanos() as u64);
        }
        if admitted {
            self.inflight.push_back((self.next, due));
            self.next += 1;
        }
        admitted
    }

    /// One receiver pass plus delivery check; returns delivered bytes.
    fn service(&mut self, flow: &mut Flow, win: &mut Windows, tr: &mut Tracer) {
        tr.begin("xport.service", self.service_calls);
        let moved = self.pair.rx.service();
        tr.end();
        self.service_calls += 1;
        if !moved {
            self.idle_passes += 1;
            // Hand the core over: when the scheduler has put the pump
            // thread on this core, a spinning generator would starve it
            // for a whole time slice.
            std::thread::yield_now();
        }
        let got = self.pair.rx.take_deliveries();
        let now = Instant::now();
        let before = flow.delivered_bytes;
        for (proto, payload) in &got {
            if let Some(seq) = self.checker.check(self.corpus, flow, *proto, payload) {
                while let Some(&(s, due)) = self.inflight.front() {
                    if s > seq {
                        break;
                    }
                    self.inflight.pop_front();
                    if s == seq {
                        win.latency(due_latency(due, now));
                    }
                }
            }
        }
        win.add((flow.delivered_bytes - before) as f64 * 8.0, now);
    }

    /// Stop offering and service until every admitted frame arrived
    /// (or the drain limit passes: the rest are lost).
    fn drain(&mut self, flow: &mut Flow, tr: &mut Tracer) {
        let limit = Instant::now() + DRAIN_LIMIT;
        let mut spill = Windows::new(WINDOW);
        while !self.inflight.is_empty() && Instant::now() < limit {
            self.service(flow, &mut spill, tr);
        }
        self.checker.finish(flow, self.next);
        self.inflight.clear();
    }
}

/// An open-loop schedule: frame `i` is due at `start + i / fps`.
#[derive(Clone, Copy)]
struct Schedule {
    start: Instant,
    period_ns: f64,
}

impl Schedule {
    fn new(start: Instant, fps: f64) -> Self {
        Schedule {
            start,
            period_ns: 1e9 / fps,
        }
    }

    fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_nanos((i as f64 * self.period_ns) as u64)
    }
}

/// Latency of a frame due at `due` and seen delivered at `at`: the
/// wait a stall imposes on every frame it delays counts in full.
fn due_latency(due: Instant, at: Instant) -> Duration {
    at.saturating_duration_since(due)
}

/// Open loop at `fps` for `secs`: latency from due time, generator
/// lateness (ns) at admission.
fn phase_a(g: &mut Gen, secs: f64, fps: f64, tr: &mut Tracer) -> (Flow, Windows, Vec<u64>) {
    let mut flow = Flow::default();
    let mut win = Windows::new(LATENCY_WINDOW);
    let mut late = Vec::new();
    let first = g.next;
    let schedule = Schedule::new(Instant::now(), fps);
    win.restart();
    let total = (secs * fps) as u64;
    let mut i = 0u64;
    while i < total {
        let now = Instant::now();
        while i < total {
            let due = schedule.due(i);
            if due > now {
                break;
            }
            if !g.offer(due, tr) {
                break; // retried on the next pass, same due time
            }
            late.push(due_latency(due, now).as_nanos() as u64);
            i += 1;
        }
        g.service(&mut flow, &mut win, tr);
    }
    flow.offered = g.next - first;
    g.drain(&mut flow, tr);
    (flow, win, late)
}

/// Closed loop for `secs`: offer until refused or the window is full,
/// service, repeat.
fn phase_b(g: &mut Gen, secs: f64, tr: &mut Tracer) -> (Flow, Windows) {
    let mut flow = Flow::default();
    let mut win = Windows::new(WINDOW);
    let first = g.next;
    let end = Instant::now() + Duration::from_secs_f64(secs);
    win.restart();
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        while g.inflight.len() < WINDOW_FRAMES && g.offer(now, tr) {}
        g.service(&mut flow, &mut win, tr);
    }
    flow.offered = g.next - first;
    g.drain(&mut flow, tr);
    (flow, win)
}

/// Both phases over an open pair; closes the pair.
/// Bring a pair up and run both phases over it.  Set-up is timed on
/// that bring-up and on throwaway ones at each phase boundary, so the
/// samples spread over the run.
pub fn run(
    corpus: &Corpus,
    secs: f64,
    tr: &mut Tracer,
    setup: &mut SetupClock,
) -> Result<PathResult, String> {
    let (mut pair, took) = bring_up()?;
    if setup.is_on() {
        setup.push(took);
    }
    let mut g = Gen {
        corpus,
        pair: &mut pair,
        buf: Vec::new(),
        next: 0,
        checker: Checker::default(),
        inflight: VecDeque::new(),
        offer_ns: Vec::new(),
        service_calls: 0,
        idle_passes: 0,
    };
    // Warm-up: a short closed loop stocks pools and socket buffers.
    let (warm, _) = phase_b(&mut g, 0.2, &mut Tracer::off());
    sample_setup(setup, SETUP_SAMPLES_PER_BOUNDARY)?;

    let misses0 = alloc_count::events();
    let t0 = Instant::now();
    let (flow_a, lat_win, mut late) = phase_a(&mut g, secs * PHASE_A_SHARE, OPEN_LOOP_FPS, tr);
    let misses_a = alloc_count::events() - misses0;
    sample_setup(setup, SETUP_SAMPLES_PER_BOUNDARY)?;
    let misses_b0 = alloc_count::events();
    let passes_b0 = g.pair.rx.passes();
    let service_b0 = tr.totals("xport.service");
    let (calls_b0, idle_b0) = (g.service_calls, g.idle_passes);
    let (flow_b, win) = phase_b(&mut g, secs * (1.0 - PHASE_A_SHARE), tr);
    let pool_misses = misses_a + (alloc_count::events() - misses_b0);
    let measured = t0.elapsed();

    let mut flow = warm;
    flow.add(&flow_a);
    flow.add(&flow_b);

    let mut layers = Metrics::default();
    let b_frames = flow_b.delivered.max(1) as f64;
    if tr.is_on() {
        let service = tr.totals("xport.service");
        layers.put(
            "xport.service.ns_per_frame",
            (service.total_ns - service_b0.total_ns) as f64 / b_frames,
            "ns",
        );
        layers.put(
            "xport.offer.ns_p50",
            percentile(&mut g.offer_ns, 50.0),
            "ns",
        );
        layers.put(
            "xport.offer.ns_p99",
            percentile(&mut g.offer_ns, 99.0),
            "ns",
        );
    }
    layers.put(
        "xport.passes_per_frame",
        (g.pair.rx.passes() - passes_b0) as f64 / b_frames,
        "count",
    );
    layers.put(
        "xport.idle_pass_frac",
        (g.idle_passes - idle_b0) as f64 / (g.service_calls - calls_b0).max(1) as f64,
        "frac",
    );
    let snap = g.pair.tx.snapshot();
    let tx = |k: &str| snap.get(k).unwrap_or(0) as f64;
    let rxc = g.pair.rx.counters;
    // A refused offer is retried until admitted, so every offered frame
    // counts as taken once the sender admitted it.
    let counted = Counted {
        sent: (tx("offered") - tx("shed") - tx("rejected")) as u64,
        refused: 0,
        received: rxc.delivered,
    };
    layers.put(
        "xport.short_writes_per_mb",
        tx("short_writes") / (tx("bytes_out") / 1e6).max(1e-9),
        "1/MB",
    );
    layers.put(
        "xport.short_reads_per_mb",
        rxc.short_reads as f64 / (rxc.bytes_in as f64 / 1e6).max(1e-9),
        "1/MB",
    );
    layers.put(
        "xport.shed_frac",
        tx("shed") / tx("offered").max(1.0),
        "frac",
    );
    layers.put(
        "xport.driver_stalls",
        g.pair.tx.driver_stalls() as f64,
        "count",
    );
    layers.put("gen.late_us_p99", percentile(&mut late, 99.0) / 1e3, "us");
    drop(g);
    pair.close();
    sample_setup(setup, SETUP_SAMPLES_PER_BOUNDARY)?;
    Ok(PathResult {
        flow,
        counted,
        timing: Timing::new(&win, &lat_win),
        pool_misses,
        measured_frames: flow_a.delivered + flow_b.delivered,
        measured,
        threads: 2usize.min(crate::nproc()) as f64,
        layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_runs_from_due_time() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, OPEN_LOOP_FPS);
        assert_eq!(s.due(0), t0);
        assert_eq!(s.due(3) - t0, Duration::from_micros(150));
        // A 1 ms stall: frames 0..20 (due every 50 µs) all go out after
        // it and arrive together at t0 + 1.01 ms.  Timed from its due
        // time, each frame is charged the part of the stall it waited.
        let at = t0 + Duration::from_micros(1010);
        let lat: Vec<Duration> = (0..20).map(|i| due_latency(s.due(i), at)).collect();
        assert_eq!(lat[0], Duration::from_micros(1010));
        assert_eq!(lat[19], Duration::from_micros(60));
        assert!(lat.windows(2).all(|w| w[0] > w[1]));
        // Timed from the (late) offer instead, every frame would read the
        // same 10 µs and the stall would vanish.
        // A frame seen before it was due reads zero, never negative.
        assert_eq!(due_latency(s.due(100), at), Duration::ZERO);
    }
}
