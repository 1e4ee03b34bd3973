//! The `fastgr` command-line router.
//!
//! ```text
//! fastgr suite
//!     List the built-in benchmark suite.
//!
//! fastgr generate <suite-name | tiny> [--seed N] [--out design.txt]
//!     Generate a synthetic design and write it in the text format.
//!
//! fastgr info <design.txt>
//!     Print design statistics.
//!
//! fastgr route <design.txt | suite-name>
//!        [--preset cugr|fastgr-l|fastgr-h] [--guides out.guide]
//!        [--sort pins-asc|pins-desc|hpwl-asc|hpwl-desc|area-asc|area-desc]
//!        [--iterations N] [--svg out.svg] [--trace out.json]
//!     Route the design and print quality metrics, measured stage times and
//!     (on their own line) modelled seconds; optionally write ISPD-style
//!     routing guides, an SVG rendering, or a Chrome `trace_event` profile
//!     (load in Perfetto / chrome://tracing).
//! ```

use std::fs;
use std::process::ExitCode;

use fastgr::core::{Router, RouterConfig, SortingScheme};
use fastgr::design::{BenchmarkSpec, Design, Generator};
use fastgr::Recorder;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  fastgr suite\n  fastgr generate <suite-name|tiny> [--seed N] [--out FILE]\n  \
         fastgr info <design.txt>\n  fastgr route <design.txt|suite-name> [--preset P] \
         [--guides FILE] [--sort SCHEME] [--iterations N] [--svg FILE] [--trace FILE]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "suite" => cmd_suite(),
        "generate" => cmd_generate(&args[1..]),
        "info" => cmd_info(&args[1..]),
        "route" => cmd_route(&args[1..]),
        _ => usage(),
    }
}

fn cmd_suite() -> ExitCode {
    println!(
        "{:<9} {:>7} {:>9} {:>7}  analogue",
        "name", "nets", "grid", "layers"
    );
    for s in fastgr::design::suite() {
        println!(
            "{:<9} {:>7} {:>6}x{:<3} {:>6}  {} ({} nets)",
            s.name,
            s.nets,
            s.grid,
            s.grid,
            s.layers - 1,
            s.paper_analogue,
            s.paper_nets
        );
    }
    ExitCode::SUCCESS
}

/// Loads a design from a file path (native text format or an ISPD2008
/// `.gr` benchmark, selected by extension) or a suite benchmark name.
fn load_design(source: &str) -> Result<Design, String> {
    if let Some(spec) = BenchmarkSpec::find(source) {
        return Ok(spec.generate());
    }
    let text = fs::read_to_string(source)
        .map_err(|e| format!("cannot read {source:?} (and it is not a suite name): {e}"))?;
    if source.ends_with(".gr") {
        let name = source
            .rsplit('/')
            .next()
            .unwrap_or(source)
            .trim_end_matches(".gr");
        Design::from_ispd2008(name, &text).map_err(|e| format!("parse ispd {source}: {e}"))
    } else {
        Design::from_text(&text).map_err(|e| format!("parse {source}: {e}"))
    }
}

/// Whether every argument after the positional one is a `--flag value`
/// pair with `flag` in `known`; reports the first one that is not.
fn flags_ok(args: &[String], known: &[&str]) -> bool {
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if !known.contains(&arg.as_str()) {
            eprintln!("unknown argument {arg:?}");
            return false;
        }
        if rest.next().is_none() {
            eprintln!("{arg} expects a value");
            return false;
        }
    }
    true
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

fn cmd_generate(args: &[String]) -> ExitCode {
    let Some(name) = args.first() else {
        return usage();
    };
    if !flags_ok(args, &["--seed", "--out"]) {
        return usage();
    }
    let seed_text = flag_value(args, "--seed").unwrap_or("1");
    let Ok(seed) = seed_text.parse::<u64>() else {
        eprintln!("--seed expects a number, got {seed_text:?}");
        return ExitCode::FAILURE;
    };
    let design = if name == "tiny" {
        Generator::tiny(seed).generate()
    } else if let Some(spec) = BenchmarkSpec::find(name) {
        spec.generate()
    } else {
        eprintln!("unknown design {name:?}; use `fastgr suite` or `tiny`");
        return ExitCode::FAILURE;
    };
    let text = design.to_text();
    match flag_value(args, "--out") {
        Some(path) => {
            if let Err(e) = fs::write(path, &text) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {} ({} bytes)", path, text.len());
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}

fn cmd_info(args: &[String]) -> ExitCode {
    let Some(source) = args.first() else {
        return usage();
    };
    if !flags_ok(args, &[]) {
        return usage();
    }
    let design = match load_design(source) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{design}");
    println!("pins: {}", design.pin_count());
    println!("blockages: {}", design.blockages().len());
    let mut by_pins = std::collections::BTreeMap::new();
    for net in design.nets() {
        *by_pins.entry(net.pin_count().min(9)).or_insert(0u32) += 1;
    }
    for (pins, count) in by_pins {
        let label = if pins == 9 {
            "9+".to_string()
        } else {
            pins.to_string()
        };
        println!("  {label}-pin nets: {count}");
    }
    let max_hpwl = design.nets().iter().map(|n| n.hpwl()).max().unwrap_or(0);
    println!("largest net HPWL: {max_hpwl}");
    ExitCode::SUCCESS
}

fn cmd_route(args: &[String]) -> ExitCode {
    let Some(source) = args.first() else {
        return usage();
    };
    let known = [
        "--preset",
        "--guides",
        "--sort",
        "--iterations",
        "--svg",
        "--trace",
    ];
    if !flags_ok(args, &known) {
        return usage();
    }
    let design = match load_design(source) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let mut config = match flag_value(args, "--preset").unwrap_or("fastgr-l") {
        "cugr" => RouterConfig::cugr(),
        "fastgr-l" => RouterConfig::fastgr_l(),
        "fastgr-h" => RouterConfig::fastgr_h(),
        other => {
            eprintln!("unknown preset {other:?} (cugr | fastgr-l | fastgr-h)");
            return ExitCode::FAILURE;
        }
    };
    if let Some(sort) = flag_value(args, "--sort") {
        let scheme = match sort {
            "pins-asc" => SortingScheme::PinsAscending,
            "pins-desc" => SortingScheme::PinsDescending,
            "hpwl-asc" => SortingScheme::HpwlAscending,
            "hpwl-desc" => SortingScheme::HpwlDescending,
            "area-asc" => SortingScheme::AreaAscending,
            "area-desc" => SortingScheme::AreaDescending,
            other => {
                eprintln!("unknown sorting scheme {other:?}");
                return ExitCode::FAILURE;
            }
        };
        config.sorting = scheme;
    }
    if let Some(iters) = flag_value(args, "--iterations") {
        match iters.parse() {
            Ok(n) => config.rrr_iterations = n,
            Err(_) => {
                eprintln!("--iterations expects a number, got {iters:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    let trace_path = flag_value(args, "--trace");

    println!("{design}");
    let outcome = match Router::new(config).run_with_recorder(&design, &Recorder::enabled()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("routing failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = &outcome.trace;
    let ripped = trace.nets_ripped();
    let ms = |span: &str| trace.span_seconds(span) * 1e3;
    let rrr = (0..ripped.len()).fold(0.0, |total, i| total + ms(&format!("rrr.iter{i}")));
    let (planning, pattern) = (ms("planning"), ms("pattern"));
    let device = trace.modeled_device_seconds() * 1e3;
    let parallel = trace.sample_total("rrr.modeled_parallel_s") * 1e3;
    println!("quality:  {}", outcome.metrics);
    println!("measured: planning {planning:.3} ms, pattern {pattern:.3} ms, rrr {rrr:.3} ms");
    println!("modelled: device {device:.3} ms, rrr parallel {parallel:.3} ms");
    println!("batches:  {}", trace.pattern_batches());
    println!("ripped:   {ripped:?}");
    println!("congestion: {}", outcome.report);
    if let Some(path) = trace_path {
        let json = trace.to_chrome_trace_json();
        if let Err(e) = fs::write(path, &json) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote trace to {path} ({} bytes)", json.len());
        print!("{}", trace.summary_table());
    }

    if let Some(path) = flag_value(args, "--svg") {
        let svg = fastgr::viz::SvgRenderer::new().render_routes(&design, &outcome.routes);
        if let Err(e) = fs::write(path, &svg) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote rendering to {path}");
    }
    if let Some(path) = flag_value(args, "--guides") {
        let text = outcome.guides.to_guide_text(&design);
        if let Err(e) = fs::write(path, &text) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "wrote guides to {path} ({} boxes)",
            outcome.guides.box_count()
        );
    }
    ExitCode::SUCCESS
}
