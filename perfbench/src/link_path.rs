//! `imix_link` / `escape_link`: the fused 32-bit link, closed loop.
//!
//! One thread sends a batch through `Link::send`, sweeps it with
//! `Link::run`, collects it with `Link::deliveries`, checks every
//! delivery, and only then sends the next batch.

use std::time::{Duration, Instant};

use p5_core::DatapathWidth;
use p5_link::{Link, LinkBuilder};
use p5_stream::pool::alloc_count;

use crate::corpus::{Checker, Corpus, Counted, Flow, IPV4};
use crate::report::{Metrics, PathResult, Timing};
use crate::span::Tracer;
use crate::stats::{SetupClock, Windows};

/// Frames per closed-loop batch: ~22 KB of IMIX payload, below the
/// fused transmitter's 64 KiB high-water mark.
pub const BATCH: u64 = 64;
const MAX_STEPS: usize = 1 << 24;
const WINDOW: Duration = Duration::from_millis(100);

fn build() -> Result<Link, String> {
    LinkBuilder::new()
        .width(DatapathWidth::W32)
        .build()
        .map_err(|e| format!("link build: {e}"))
}

struct Loop {
    link: Link,
    seq: u64,
    checker: Checker,
    buf: Vec<u8>,
    sent_at: Vec<Instant>,
}

impl Loop {
    /// One closed-loop batch; returns delivered payload bytes.
    fn batch(
        &mut self,
        corpus: &Corpus,
        flow: &mut Flow,
        win: &mut Windows,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let first = self.seq;
        tr.begin("link.batch", first);
        tr.begin("link.send", first);
        self.sent_at.clear();
        for _ in 0..BATCH {
            let payload = corpus.stamped(self.seq, &mut self.buf);
            self.sent_at.push(Instant::now());
            self.link.send(IPV4, payload);
            self.seq += 1;
        }
        tr.end();
        tr.begin("link.run", first);
        let ran = self.link.run(MAX_STEPS);
        tr.end();
        ran.map_err(|e| format!("link run: {e}"))?;
        tr.begin("link.deliveries", first);
        let got = self.link.deliveries();
        tr.end();
        tr.end();
        let now = Instant::now();
        flow.offered += BATCH;
        let before = flow.delivered_bytes;
        for (proto, payload) in &got {
            if let Some(seq) = self.checker.check(corpus, flow, *proto, payload) {
                win.latency(now - self.sent_at[(seq - first) as usize]);
            }
        }
        // Closed loop: the whole batch is in, or it is lost.
        self.checker.finish(flow, self.seq);
        win.add((flow.delivered_bytes - before) as f64 * 8.0, now);
        Ok(())
    }
}

/// Run the closed loop for `secs` after a short warm-up, timing a
/// link construction whenever `setup` asks for one.
pub fn run(
    corpus: &Corpus,
    secs: f64,
    tr: &mut Tracer,
    setup: &mut SetupClock,
) -> Result<PathResult, String> {
    let mut lp = Loop {
        link: build()?,
        seq: 0,
        checker: Checker::default(),
        buf: Vec::new(),
        sent_at: Vec::with_capacity(BATCH as usize),
    };
    // Warm-up: stock the buffer pools and caches; not measured.
    let mut warm_flow = Flow::default();
    let mut warm_win = Windows::new(WINDOW);
    let warm_end = Instant::now() + Duration::from_millis(200);
    while Instant::now() < warm_end {
        lp.batch(corpus, &mut warm_flow, &mut warm_win, &mut Tracer::off())?;
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
            let link = build()?;
            setup.push(now.elapsed());
            drop(std::hint::black_box(link));
        }
        lp.batch(corpus, &mut flow, &mut win, tr)?;
    }
    let measured = t0.elapsed();
    let pool_misses = alloc_count::events() - misses0;
    let measured_frames = flow.delivered;
    let h = lp.link.health_counters();
    let counted = Counted {
        sent: h.tx_frames,
        refused: h.tx_rejects,
        received: h.rx_frames,
    };
    flow.add(&warm_flow);

    let mut layers = Metrics::default();
    if tr.is_on() {
        let frames = measured_frames.max(1) as f64;
        for (span, metric) in [
            ("link.send", "link.send.ns_per_frame"),
            ("link.run", "link.run.ns_per_frame"),
            ("link.deliveries", "link.deliveries.ns_per_frame"),
        ] {
            layers.put(metric, tr.totals(span).self_ns as f64 / frames, "ns");
        }
    }
    Ok(PathResult {
        flow,
        counted,
        timing: Timing::new(&win, &win),
        pool_misses,
        measured_frames,
        measured,
        threads: 1.0,
        layers,
    })
}
