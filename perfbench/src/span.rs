//! In-memory span tracer for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! each layer's public functions.  Every span has a name, a start, an
//! end, a parent and a frame or batch id.  Self time — a span's length
//! minus the part of it its children cover — is accumulated online per
//! name, so the per-layer figures cost no post-processing; the raw
//! spans are kept (up to a cap) and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Raw spans kept for the trace file; later spans still count in the
/// per-name totals.
const KEEP_SPANS: usize = 200_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the kept list, `None` for a root
    /// (or a parent that was not kept).
    pub parent: Option<usize>,
    /// Frame sequence number or batch/tick number.
    pub id: u64,
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    kept: Option<usize>,
}

/// A tracer that is either recording or a no-op (`Tracer::off`): the
/// untraced run passes the same code through a disabled tracer.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    open: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    totals: BTreeMap<&'static str, SpanTotals>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
            totals: BTreeMap::new(),
        }
    }

    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now; it nests under the innermost open span.
    #[inline]
    pub fn begin(&mut self, name: &'static str, id: u64) {
        if self.on {
            let t = self.now_ns();
            self.begin_at(name, id, t);
        }
    }

    /// Close the innermost open span now.
    #[inline]
    pub fn end(&mut self) {
        if self.on {
            let t = self.now_ns();
            self.end_at(t);
        }
    }

    pub fn begin_at(&mut self, name: &'static str, id: u64, start_ns: u64) {
        let parent = self.open.last().and_then(|o| o.kept);
        let kept = if self.spans.len() < KEEP_SPANS {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                id,
            });
            Some(self.spans.len() - 1)
        } else {
            self.dropped += 1;
            None
        };
        self.open.push(Open {
            name,
            start_ns,
            child_ns: 0,
            kept,
        });
    }

    pub fn end_at(&mut self, end_ns: u64) {
        let o = self.open.pop().expect("end without begin");
        let dur = end_ns.saturating_sub(o.start_ns);
        if let Some(i) = o.kept {
            self.spans[i].end_ns = end_ns;
        }
        let t = self.totals.entry(o.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(o.child_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
    }

    pub fn totals(&self, name: &str) -> SpanTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Write the kept spans (CSV) and the per-name totals to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 * self.spans.len() + 1024);
        out.push_str("# per-name totals: name,count,total_ns,self_ns\n");
        for (name, t) in &self.totals {
            let _ = writeln!(out, "# {name},{},{},{}", t.count, t.total_ns, t.self_ns);
        }
        let _ = writeln!(
            out,
            "# spans kept: {}, dropped past the cap: {}",
            self.spans.len(),
            self.dropped
        );
        out.push_str("index,name,start_ns,end_ns,parent,id\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i},{},{},{},{parent},{}",
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children() {
        let mut t = Tracer::new(true);
        // batch [0, 100): send [10, 30), run [30, 80) ⊃ inner [40, 50),
        // deliveries [80, 95).
        t.begin_at("batch", 1, 0);
        t.begin_at("send", 1, 10);
        t.end_at(30);
        t.begin_at("run", 1, 30);
        t.begin_at("inner", 1, 40);
        t.end_at(50);
        t.end_at(80);
        t.begin_at("deliveries", 1, 80);
        t.end_at(95);
        t.end_at(100);
        let batch = t.totals("batch");
        assert_eq!(batch.total_ns, 100);
        assert_eq!(batch.self_ns, 100 - 20 - 50 - 15);
        let run = t.totals("run");
        assert_eq!((run.total_ns, run.self_ns), (50, 40));
        assert_eq!(t.totals("inner").self_ns, 10);
        // Parents are recorded by index.
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[3].parent, Some(2));
        assert_eq!(t.spans[0].parent, None);
    }

    #[test]
    fn repeated_spans_accumulate_per_name() {
        let mut t = Tracer::new(true);
        for i in 0..3 {
            t.begin_at("tick", i, i * 10);
            t.begin_at("offer", i, i * 10 + 1);
            t.end_at(i * 10 + 4);
            t.end_at(i * 10 + 9);
        }
        assert_eq!(
            t.totals("tick"),
            SpanTotals {
                count: 3,
                total_ns: 27,
                self_ns: 18
            }
        );
        assert_eq!(t.totals("offer").total_ns, 9);
        assert!(t
            .spans
            .iter()
            .filter(|s| s.name == "offer")
            .all(|s| s.end_ns - s.start_ns == 3));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.begin("x", 0);
        t.end();
        assert_eq!(t.totals("x"), SpanTotals::default());
    }
}
