//! End-to-end and per-layer routing benchmark.
//!
//! ```text
//! perfbench --workload <congested-l|open-h|congested-cugr> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Generates the workload's design from the seed, hands the router only
//! the design text, and routes it with `Router::run` in a closed loop (one
//! design at a time) for `S` seconds. Every outcome passes the correctness
//! gate of `check.rs`. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` adds the traced run of `layers.rs` and reports the
//! per-layer metrics. Human-readable lines come first; the last line of
//! stdout is the JSON result. See README.md.

mod check;
mod layers;
mod report;
mod workload;

use std::collections::BTreeSet;
use std::hint::black_box;
use std::process::ExitCode;

use fastgr_core::{Router, RouterConfig};
use fastgr_design::Design;
use fastgr_grid::Route;
use fastgr_telemetry::Stopwatch;

use report::{median, Report, END_TO_END, PER_LAYER};
use workload::{Workload, WORKLOADS};

/// `Design::from_text` calls timed for `setup_s` before the first route,
/// and again after every route: the samples then span the whole run, as
/// the route times do, so a slow minute on a shared host moves both
/// medians alike instead of only the few set-up samples it happens to hit.
const SETUP_REPS: usize = 10;
const SETUP_REPS_PER_ROUTE: usize = 3;

/// Timed `Router::run` calls at least, whatever `--seconds` says.
const MIN_TIMED_REPS: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::find(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set size of this process so far, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the checkout was made from, if `.git` is present.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// Parses `text`, appending the time taken to `samples`.
fn timed_parse(text: &str, samples: &mut Vec<f64>) -> Result<Design, String> {
    let t = Stopwatch::start();
    let design = Design::from_text(black_box(text)).map_err(|e| e.to_string())?;
    samples.push(t.elapsed_seconds());
    Ok(design)
}

/// Per-repetition end-to-end samples of the untraced loop.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    route_s: Vec<f64>,
    /// Peak RSS of the process after its first `Router::run`.
    peak_rss_mb: f64,
    wirelength: Vec<f64>,
    vias: Vec<f64>,
    shorts: Vec<f64>,
    score: Vec<f64>,
    hashes: BTreeSet<u64>,
    /// Routes of the first correct outcome (kept only when asked).
    first_routes: Option<Vec<Route>>,
}

/// Parses `text`, then routes the design in a closed loop: one untimed
/// warm-up, then timed repetitions until `seconds` have passed (at least
/// `MIN_TIMED_REPS`).
fn untraced_loop(
    text: &str,
    config: &RouterConfig,
    seconds: f64,
    keep_routes: bool,
    report: &mut Report,
) -> Result<(Design, Samples), String> {
    let router = Router::new(*config);
    let mut s = Samples::default();
    let mut design = timed_parse(text, &mut s.setup_s)?;
    for _ in 1..SETUP_REPS {
        design = timed_parse(text, &mut s.setup_s)?;
    }
    let start = Stopwatch::start();
    for rep in 0.. {
        let timed = rep > 0;
        if timed && rep > MIN_TIMED_REPS && start.elapsed_seconds() >= seconds {
            break;
        }
        if timed {
            for _ in 0..SETUP_REPS_PER_ROUTE {
                black_box(timed_parse(text, &mut s.setup_s)?);
            }
        }
        let t = Stopwatch::start();
        let result = router.run(black_box(&design));
        let route_s = t.elapsed_seconds();
        if rep == 0 {
            // A fresh process routing the design once, as a CLI run does.
            // Later repetitions would add the allocator's retained memory.
            s.peak_rss_mb = peak_rss_mb();
        }
        report.attempted += 1;
        let outcome = match result {
            Ok(o) => o,
            Err(e) => {
                eprintln!("rep {rep}: route error: {e}");
                report.failed += 1;
                continue;
            }
        };
        if let Err(e) = check::verify(&design, config.cost, &outcome) {
            eprintln!("rep {rep}: correctness check failed: {e}");
            report.failed += 1;
            continue;
        }
        s.hashes.insert(check::route_hash(&outcome.routes));
        if timed {
            let m = outcome.metrics;
            s.route_s.push(route_s);
            s.wirelength.push(m.wirelength as f64);
            s.vias.push(m.vias as f64);
            s.shorts.push(m.shorts);
            s.score.push(m.score());
        }
        if keep_routes && s.first_routes.is_none() {
            s.first_routes = Some(outcome.routes);
        }
    }
    Ok((design, s))
}

fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let config = (w.config)();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pattern_workers = layers::pattern_pool(config.engine).workers();
    let rrr_threads = layers::rrr_threads(&config);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# host nproc={nproc} pattern_workers={pattern_workers} rrr_threads={rrr_threads} \
         commit={}",
        commit()
    );

    let text = w.design_text(args.seed);
    let mut report = Report::default();
    let (design, s) = untraced_loop(&text, &config, args.seconds, args.trace, &mut report)?;
    println!(
        "# design {}: {} nets, {}x{} G-cells, {} layers",
        design.name(),
        design.nets().len(),
        design.width(),
        design.height(),
        design.layers()
    );

    if s.route_s.is_empty() {
        return Err("no repetition routed correctly".into());
    }
    let route_s = median(&s.route_s);
    report.set("route_s", route_s);
    report.set("setup_s", median(&s.setup_s));
    report.set("peak_rss_mb", s.peak_rss_mb);
    report.set("wirelength", median(&s.wirelength));
    report.set("vias", median(&s.vias));
    report.set("score", median(&s.score));
    report.set("quality.shorts", median(&s.shorts));
    report.set("quality.route_hash_distinct", s.hashes.len() as f64);
    let mut correct = true;
    if w.deterministic && s.hashes.len() != 1 {
        eprintln!("{} route sets differ across repetitions", s.hashes.len());
        correct = false;
    }

    if args.trace {
        report.attempted += 1;
        match layers::run(&design, &config, &mut report) {
            Ok(traced) => {
                report.set("trace.overhead_frac", traced.wall_s / route_s - 1.0);
                let reproduced = s.first_routes.as_deref() == Some(&traced.routes[..]);
                println!("# traced routes identical to Router::run: {reproduced}");
                if w.deterministic && !reproduced {
                    eprintln!("the traced pipeline routed differently from Router::run");
                    report.failed += 1;
                }
            }
            Err(e) => {
                eprintln!("traced run failed: {e}");
                report.failed += 1;
            }
        }
        report.set("host.nproc", nproc as f64);
        report.set("host.pattern_workers", pattern_workers as f64);
        report.set("host.rrr_threads", rrr_threads as f64);
    }

    println!(
        "# reps {} timed + 1 warm-up, route_s {route_s}, fail_ratio {}, route_hash_distinct {}, \
         shorts {}",
        s.route_s.len(),
        report.failed as f64 / report.attempted as f64,
        s.hashes.len(),
        median(&s.shorts)
    );
    report.correct = correct && report.failed == 0;
    report.select(if args.trace { PER_LAYER } else { END_TO_END })?;
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            print!("{}", report.table());
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
