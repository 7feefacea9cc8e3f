//! The P⁵ benchmark: one command per workload, every end-to-end metric
//! by name with its unit, and a separate traced run for the per-layer
//! ledger.  See `perfbench/README.md` for the glossary.
//!
//! ```text
//! p5-perfbench --workload <imix_link|escape_link|sdh_fleet|tcp_endpoint>
//!              --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! The last line of standard output is the result object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod corpus;
mod fleet_path;
mod link_path;
mod model;
mod replay;
mod report;
mod span;
mod stats;
mod tcp_path;

use std::path::PathBuf;
use std::time::Duration;

use corpus::{Corpus, Flow, Payloads, CORPUS_FRAMES};
use report::{result_line, Metrics, PathResult};
use span::Tracer;
use stats::{highest_supported_percentile, peak_rss_mib, SetupClock};

/// Added to `failed_frac` so that a clean run reads a small positive
/// number rather than 0 (regression checks divide by the median).  One
/// failure in a billion frames: below the resolution of any run, so a
/// single lost frame still shows.
const FAILED_FLOOR: f64 = 1e-9;

/// Added to `pool_misses_per_frame` for the same reason.  One miss per
/// hundred frames: transient misses when a path's buffer demand shifts
/// (about 1e-4 per frame on `tcp_endpoint`, varying run to run) stay
/// below it, while a per-frame allocation moves the figure 100-fold.
const POOL_FLOOR: f64 = 1e-2;

/// Fewest latency windows (each with its own p99) a run must yield.
const MIN_LATENCY_WINDOWS: usize = 5;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ImixLink,
    EscapeLink,
    SdhFleet,
    TcpEndpoint,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ImixLink,
        Workload::EscapeLink,
        Workload::SdhFleet,
        Workload::TcpEndpoint,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ImixLink => "imix_link",
            Workload::EscapeLink => "escape_link",
            Workload::SdhFleet => "sdh_fleet",
            Workload::TcpEndpoint => "tcp_endpoint",
        }
    }

    fn payloads(self) -> Payloads {
        match self {
            Workload::EscapeLink => Payloads::FlagDense,
            _ => Payloads::IpLike,
        }
    }

    fn path(self) -> Path {
        match self {
            Workload::ImixLink | Workload::EscapeLink => Path::Link,
            Workload::SdhFleet => Path::Fleet,
            Workload::TcpEndpoint => Path::Tcp,
        }
    }
}

/// The three end-to-end paths the workloads drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    Link,
    Fleet,
    Tcp,
}

impl Path {
    const ALL: [Path; 3] = [Path::Link, Path::Fleet, Path::Tcp];

    fn name(self) -> &'static str {
        match self {
            Path::Link => "link",
            Path::Fleet => "fleet",
            Path::Tcp => "tcp",
        }
    }

    /// Replayed layers whose serial cost predicts this path's cost.
    fn ledger(self) -> &'static [&'static str] {
        match self {
            Path::Link => &["core.fused_tx", "core.fused_rx"],
            Path::Fleet => &["core.fused_tx", "sonet.ocpath", "core.fused_rx"],
            Path::Tcp => &[
                "core.fused_tx",
                "ppp.session_hop",
                "xport.tcp_raw",
                "core.fused_rx",
            ],
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    for (i, a) in argv.iter().enumerate() {
        let is_value = i > 0 && argv[i - 1].starts_with("--");
        if !is_value
            && !matches!(
                a.as_str(),
                "--workload" | "--seed" | "--seconds" | "--trace" | "--out-dir"
            )
        {
            return Err(format!("unknown argument `{a}`"));
        }
    }
    let name = value("--workload").ok_or("--workload is required")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = value("--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not `{t}`")),
    };
    let out_dir = PathBuf::from(value("--out-dir").unwrap_or("perfbench/out"));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out_dir,
    })
}

/// Set-up samples per run, spread evenly over the measured time (the
/// TCP path times its own bring-ups at its phase boundaries).
const SETUP_SAMPLES: usize = 101;

fn run_path(
    path: Path,
    corpus: &Corpus,
    seed: u64,
    secs: f64,
    tr: &mut Tracer,
    setup: &mut SetupClock,
) -> Result<PathResult, String> {
    match path {
        Path::Link => link_path::run(corpus, secs, tr, setup),
        Path::Fleet => fleet_path::run(corpus, seed, fleet_path::Shape::Timed, secs, tr, setup),
        Path::Tcp => tcp_path::run(corpus, secs, tr, setup),
    }
}

fn print_path(label: &str, r: &PathResult) {
    let (t, f) = (&r.timing, &r.flow);
    println!(
        "# {label}: {:.4} Gbps payload (median of {} windows; slowest {:.4}, \
         p10 {:.4}, p90 {:.4}, fastest {:.4}) over {:.2} s",
        t.payload_bps / 1e9,
        t.windows,
        t.window_rates[0] / 1e9,
        t.window_rates[1] / 1e9,
        t.window_rates[2] / 1e9,
        t.window_rates[3] / 1e9,
        r.measured.as_secs_f64(),
    );
    println!(
        "# {label}: latency p50 {:.3} us p99 {:.3} us (median over {} windows; window p99 \
         p10 {:.3} us, p90 {:.3} us; {} samples, which support up to p{})",
        t.latency_p50_ns / 1e3,
        t.latency_p99_ns / 1e3,
        t.latency_windows,
        t.window_p99[0] / 1e3,
        t.window_p99[1] / 1e3,
        t.latency_samples,
        highest_supported_percentile(t.latency_samples).unwrap_or(0.0)
    );
    println!(
        "# {label}: offered {} delivered {} shed {} rejected {} lost {} corrupt {}",
        f.offered, f.delivered, f.shed, f.rejected, f.lost, f.corrupt
    );
}

/// Problems that make a path's run incorrect.
fn path_problems(label: &str, r: &PathResult) -> Vec<String> {
    let mut p = Vec::new();
    if r.flow.corrupt != 0 {
        p.push(format!("{label}: {} corrupt deliveries", r.flow.corrupt));
    }
    if !r.flow.conserved(&r.counted) {
        p.push(format!(
            "{label}: flow not conserved {:?} against {:?}",
            r.flow, r.counted
        ));
    }
    if r.flow.delivered == 0 {
        p.push(format!("{label}: nothing delivered"));
    }
    p
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("p5-perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("p5-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let path = w.path();
    let corpus = Corpus::new(w.payloads(), args.seed, CORPUS_FRAMES);
    println!(
        "# workload {} seed {} seconds {} trace {} nproc {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );

    // The traced run splits its time between an untraced and a traced
    // pass of the same path (their difference is the tracing overhead).
    let e2e_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut setup = SetupClock::new(SETUP_SAMPLES, Duration::from_secs_f64(e2e_secs));
    let e2e = run_path(
        path,
        &corpus,
        args.seed,
        e2e_secs,
        &mut Tracer::off(),
        &mut setup,
    )?;
    println!(
        "# set-up: p10 of {} samples spread over the run (median {:.4e} s)",
        setup.samples(),
        setup.median()
    );
    print_path(path.name(), &e2e);
    let mut problems = path_problems(path.name(), &e2e);
    let mut flow = e2e.flow;

    let model_bpc = model::bytes_per_cycle(&corpus)?;
    let t = &e2e.timing;
    if t.latency_windows < MIN_LATENCY_WINDOWS {
        problems.push(format!(
            "only {} windows held enough samples for their own p99",
            t.latency_windows
        ));
    }

    let mut e2e_metrics = Metrics::default();
    e2e_metrics.put("payload_gbps", t.payload_bps / 1e9, "Gbps");
    e2e_metrics.put("latency_p50_us", t.latency_p50_ns / 1e3, "us");
    e2e_metrics.put("latency_p99_us", t.latency_p99_ns / 1e3, "us");
    e2e_metrics.put(
        "failed_frac",
        e2e.flow.failed() as f64 / e2e.flow.offered.max(1) as f64 + FAILED_FLOOR,
        "frac",
    );
    e2e_metrics.put("setup_s", setup.quiet(), "s");
    e2e_metrics.put(
        "pool_misses_per_frame",
        e2e.pool_misses as f64 / e2e.measured_frames.max(1) as f64 + POOL_FLOOR,
        "count",
    );
    e2e_metrics.put("model_bytes_per_cycle", model_bpc, "B/cycle");
    e2e_metrics.put("peak_rss_mib", peak_rss_mib(), "MiB");

    let metrics = if args.trace {
        let layers = traced(args, &corpus, &e2e, &mut flow, &mut problems)?;
        for m in &e2e_metrics.0 {
            println!("# e2e {} = {} {}", m.name, m.value, m.unit);
        }
        layers
    } else {
        e2e_metrics
    };
    for p in &problems {
        eprintln!("p5-perfbench: INCORRECT: {p}");
    }
    for m in &metrics.0 {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    Ok(result_line(
        problems.is_empty(),
        flow.offered.max(1),
        flow.failed(),
        &metrics,
    ))
}

/// The traced run: the workload's own path with spans on, a short
/// traced probe of every other path on the same corpus, and the layer
/// replays.  Returns every per-layer metric.
fn traced(
    args: &Args,
    corpus: &Corpus,
    untraced: &PathResult,
    flow: &mut Flow,
    problems: &mut Vec<String>,
) -> Result<Metrics, String> {
    let own = args.workload.path();
    let probe_secs = (args.seconds * 0.1).clamp(0.3, 1.0);
    let mut layers = Metrics::default();
    for path in Path::ALL {
        let secs = if path == own {
            args.seconds / 2.0
        } else {
            probe_secs
        };
        let mut tr = Tracer::new(true);
        let r = run_path(
            path,
            corpus,
            args.seed,
            secs,
            &mut tr,
            &mut SetupClock::none(),
        )?;
        let label = format!("traced {}", path.name());
        print_path(&label, &r);
        problems.extend(path_problems(&label, &r));
        if path == own {
            flow.add(&r.flow);
            layers.put(
                "trace.overhead_frac",
                1.0 - r.timing.payload_bps / untraced.timing.payload_bps,
                "frac",
            );
        }
        layers.extend(r.layers);
        let file = args.out_dir.join(format!(
            "{}-seed{}-{}.spans.csv",
            args.workload.name(),
            args.seed,
            path.name()
        ));
        tr.write(&file)
            .map_err(|e| format!("write {}: {e}", file.display()))?;
    }

    // The scheduler counters come from a probe of the fleet on two
    // workers with uneven load.
    let r = fleet_path::run(
        corpus,
        args.seed,
        fleet_path::Shape::Probe,
        probe_secs,
        &mut Tracer::off(),
        &mut SetupClock::none(),
    )?;
    let label = "fleet scheduler probe";
    print_path(label, &r);
    problems.extend(path_problems(label, &r));
    layers.extend(r.layers);

    let slice = Duration::from_secs_f64((args.seconds / 40.0).clamp(0.05, 0.25));
    let ledger = replay::run(corpus, slice)?;
    // Serial cost the replayed layers predict for one payload byte of
    // the path, over what the untraced path spent per payload byte per
    // busy thread.
    let predicted: f64 = own.ledger().iter().map(|l| ledger.cost_of(l)).sum();
    let measured = 8e9 / untraced.timing.payload_bps * untraced.threads;
    layers.put("path.explained_frac", predicted / measured, "frac");
    for (layer, ns) in &ledger.cost {
        println!("# ledger {layer}: {ns:.4} ns per payload byte");
    }
    println!(
        "# ledger path {}: predicted {predicted:.4} ns/B, measured {measured:.4} ns/B x thread",
        own.name()
    );
    layers.extend(ledger.metrics);
    Ok(layers)
}
