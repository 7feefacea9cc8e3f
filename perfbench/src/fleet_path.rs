//! `sdh_fleet`: four links over their own STM-16 paths, one worker.  A
//! traced run adds a short scheduler probe of the same fleet (see
//! [`Shape::Probe`]).
//!
//! Each tick the generator offers four frames per link with
//! `Fleet::offer`, then grants the tick with `Fleet::run_ticks(1)`;
//! ticks run back to back for a fixed wall-clock window.
//!
//! The fleet recycles delivered payloads internally and exposes only
//! counters, so this path cannot compare payload bytes.  It checks
//! instead that every admitted frame is delivered (per link, in
//! order), that the delivered byte total equals the offered one
//! exactly, and that no receiver counted a defective frame (FCS, abort,
//! runt, giant, header): the receiving device's FCS-32 check is the
//! per-frame integrity check.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use p5_core::DatapathWidth;
use p5_runtime::{Carrier, Fleet, FleetConfig};
use p5_sonet::StmLevel;
use p5_stream::pool::alloc_count;
use p5_stream::Offer;

use crate::corpus::{mix, Corpus, Counted, Flow, IPV4};
use crate::report::{Metrics, PathResult, Timing};
use crate::span::Tracer;
use crate::stats::{SetupClock, Windows};

pub const LINKS: usize = 4;
/// How the fleet is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The workload: one worker, every link offered its frames every
    /// tick.  (With two busy workers on a shared two-core host, whole
    /// runs sped up or slowed down with the neighbours' load; see
    /// README, *How the figures are kept steady*.)
    Timed,
    /// The scheduler probe: two workers claim the cohorts, and each
    /// link is offered its frames on a seeded half of the ticks, so
    /// claims find idle links and cohorts do unequal work.
    Probe,
}

impl Shape {
    pub fn workers(self) -> usize {
        match self {
            Shape::Timed => 1,
            Shape::Probe => 2,
        }
    }
}
/// Frames offered per link per tick.
pub const FRAMES_PER_TICK: usize = 4;
/// A tick carries 16 IMIX frames, so its payload varies widely; a
/// 500 ms window spans ~50 ticks and averages that out.
const WINDOW: Duration = Duration::from_millis(500);
const DRAIN_TICKS: u64 = 10_000;

fn config(seed: u64, workers: usize) -> FleetConfig {
    FleetConfig {
        links: LINKS,
        workers,
        width: DatapathWidth::W32,
        carrier: Carrier::Sonet(StmLevel::Stm16),
        seed,
        ..FleetConfig::default()
    }
}

fn build(seed: u64, workers: usize) -> Result<Fleet, String> {
    Fleet::new(config(seed, workers)).map_err(|e| format!("fleet build: {e}"))
}

struct Gen {
    fleet: Fleet,
    /// Seed of the ticks each link sits out ([`Shape::Probe`]).
    sparse: Option<u64>,
    seq: u64,
    tick: u64,
    buf: Vec<u8>,
    /// Per link: (offer instant, payload length) of admitted frames not
    /// yet delivered, in order.
    inflight: Vec<VecDeque<(Instant, usize)>>,
    /// Per link: deliveries the fleet had reported at the last look.
    seen: Vec<u64>,
}

impl Gen {
    /// Offer one tick's frames and run the tick.
    fn tick(&mut self, corpus: &Corpus, flow: &mut Flow, tr: &mut Tracer) {
        self.tick += 1;
        tr.begin("fleet.tick", self.tick);
        for link in 0..LINKS {
            let idx = self.tick * LINKS as u64 + link as u64;
            if self.sparse.is_some_and(|s| mix(s, idx) & 1 == 1) {
                continue;
            }
            for _ in 0..FRAMES_PER_TICK {
                let payload = corpus.stamped(self.seq, &mut self.buf);
                self.seq += 1;
                let at = Instant::now();
                tr.begin("fleet.offer", self.tick);
                let outcome = self.fleet.offer(link, IPV4, payload);
                tr.end();
                flow.offered += 1;
                match outcome {
                    Offer::Shed => flow.shed += 1,
                    Offer::Rejected => flow.rejected += 1,
                    _ => self.inflight[link].push_back((at, payload.len())),
                }
            }
        }
        tr.begin("fleet.run_ticks", self.tick);
        self.fleet.run_ticks(1);
        tr.end();
        tr.end();
    }

    /// Account the deliveries the fleet reports since the last look;
    /// returns delivered payload bytes.
    fn collect(&mut self, flow: &mut Flow, win: &mut Windows) {
        let now = Instant::now();
        let mut bytes = 0;
        for r in self.fleet.link_reports() {
            let fresh = r.flow.delivered - self.seen[r.link];
            self.seen[r.link] = r.flow.delivered;
            for _ in 0..fresh {
                match self.inflight[r.link].pop_front() {
                    Some((at, len)) => {
                        win.latency(now - at);
                        bytes += len as u64;
                        flow.delivered += 1;
                    }
                    // More deliveries than admitted frames.
                    None => flow.corrupt += 1,
                }
            }
        }
        flow.delivered_bytes += bytes;
        win.add(bytes as f64 * 8.0, now);
    }
}

/// Run ticks for `secs` after a short warm-up, timing a `Fleet::new`
/// whenever `setup` asks for one.  Only the probe reports the scheduler
/// counters: under the timed load every claim finds work and every
/// cohort does the same, so they would be constants.
pub fn run(
    corpus: &Corpus,
    seed: u64,
    shape: Shape,
    secs: f64,
    tr: &mut Tracer,
    setup: &mut SetupClock,
) -> Result<PathResult, String> {
    let workers = shape.workers();
    let mut g = Gen {
        fleet: build(seed, workers)?,
        sparse: (shape == Shape::Probe).then_some(seed),
        seq: 0,
        tick: 0,
        buf: Vec::new(),
        inflight: vec![VecDeque::new(); LINKS],
        seen: vec![0; LINKS],
    };
    let mut warm = Flow::default();
    let mut warm_win = Windows::new(WINDOW);
    let warm_end = Instant::now() + Duration::from_millis(200);
    while Instant::now() < warm_end {
        g.tick(corpus, &mut warm, &mut Tracer::off());
        g.collect(&mut warm, &mut warm_win);
    }
    let mut flow = Flow::default();
    let mut win = Windows::new(WINDOW);
    let misses0 = alloc_count::events();
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(secs);
    win.restart();
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        if setup.due(now) {
            let fleet = build(seed, workers)?;
            setup.push(now.elapsed());
            drop(std::hint::black_box(fleet));
        }
        g.tick(corpus, &mut flow, tr);
        g.collect(&mut flow, &mut win);
    }
    let measured = t0.elapsed();
    let pool_misses = alloc_count::events() - misses0;
    let measured_frames = flow.delivered;

    // Drain, then hold the fleet's own counters to ours.
    if !g.fleet.run_until_drained(DRAIN_TICKS) {
        return Err("fleet failed to drain".into());
    }
    let timing = Timing::new(&win, &win);
    g.collect(&mut flow, &mut win);
    for q in &mut g.inflight {
        flow.lost += q.len() as u64;
        q.clear();
    }
    let st = g.fleet.stats();
    flow.add(&warm);
    let counted = Counted {
        sent: st.flow.accepted,
        refused: st.flow.shed + st.flow.rejected,
        received: st.flow.delivered,
    };
    // Beyond the counts: the fleet saw the same offers and refusals,
    // delivered exactly the offered payload bytes, and no receiver
    // counted a defective frame.
    if st.rx.errors() != 0
        || st.flow.offered != flow.offered
        || st.flow.shed != flow.shed
        || st.flow.rejected != flow.rejected
        || st.flow.delivered_bytes != flow.delivered_bytes
    {
        flow.corrupt += st.rx.errors().max(1);
    }

    let mut layers = Metrics::default();
    if tr.is_on() {
        let frames = measured_frames.max(1) as f64;
        layers.put(
            "runtime.run_ticks.ns_per_frame",
            tr.totals("fleet.run_ticks").self_ns as f64 / frames,
            "ns",
        );
        layers.put(
            "runtime.offer.ns_per_frame",
            tr.totals("fleet.offer").self_ns as f64 / frames,
            "ns",
        );
    }
    if shape == Shape::Probe {
        let w = st.worker_totals();
        let claims = w.claims.max(1) as f64;
        layers.put(
            "runtime.busy_tick_frac",
            w.busy_ticks as f64 / claims,
            "frac",
        );
        layers.put(
            "runtime.idle_claim_frac",
            w.idle_claims as f64 / claims,
            "frac",
        );
        layers.put(
            "runtime.load_skew_milli",
            st.load_skew_milli as f64,
            "milli",
        );
        layers.put(
            "runtime.p99_latency_ticks",
            st.p99_latency_ticks().map_or(f64::NAN, |t| t as f64),
            "ticks",
        );
    }
    Ok(PathResult {
        flow,
        counted,
        timing,
        pool_misses,
        measured_frames,
        measured,
        threads: workers as f64,
        layers,
    })
}
