//! `netrs-analyze` — turn `simulate` JSONL artifacts into reports.
//!
//! ```text
//! # compare two schemes
//! simulate --scheme clirs --trace clirs.jsonl --trace-hops --devices clirs-dev.jsonl
//! simulate --scheme netrs-ilp --trace ilp.jsonl --trace-hops --devices ilp-dev.jsonl
//! netrs-analyze report --trace clirs=clirs.jsonl --trace netrs-ilp=ilp.jsonl \
//!     --devices ilp-dev.jsonl
//!
//! # validate a perf artifact, then gate it against a baseline
//! simulate --scheme netrs-ilp --perf perf.json
//! netrs-analyze check-bench perf.json
//! netrs-analyze check-bench perf.json BENCH_PERF.json
//! ```

use netrs_analyze::{
    availability_report, check_bench, compare_bench, comparison_report, control_report,
    hotspot_report, load_control, load_devices, load_stats, load_sweep, load_timeseries,
    load_trace, perf_report, rw_report, split_label, sweep_report, tail_report, timeseries_report,
    LabeledTrace,
};
use serde::Value;

fn usage() -> ! {
    eprintln!(
        "usage: netrs-analyze report --trace [LABEL=]FILE [--trace [LABEL=]FILE ...] \
         [--devices FILE] [--timeseries FILE] [--top N]\n\
         \x20      netrs-analyze control [LABEL=]FILE [[LABEL=]FILE ...]\n\
         \x20      netrs-analyze availability --stats [LABEL=]FILE [--stats [LABEL=]FILE ...]\n\
         \x20      netrs-analyze rw --stats [LABEL=]FILE [--stats [LABEL=]FILE ...] [--devices FILE]\n\
         \x20      netrs-analyze perf [LABEL=]FILE [[LABEL=]FILE ...]\n\
         \x20      netrs-analyze sweep FILE\n\
         \x20      netrs-analyze check-bench FILE [BASELINE] [--threshold F]"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("netrs-analyze: {msg}");
    std::process::exit(1);
}

fn report(args: &[String]) {
    let mut traces: Vec<LabeledTrace> = Vec::new();
    let mut devices_path: Option<String> = None;
    let mut timeseries_path: Option<String> = None;
    let mut top = 10usize;

    let mut i = 0;
    while i < args.len() {
        let arg = args[i].clone();
        let mut next = || {
            i += 1;
            args.get(i).cloned().unwrap_or_else(|| usage())
        };
        match arg.as_str() {
            "--trace" => {
                let spec = next();
                let (label, path) = split_label(&spec);
                let records =
                    load_trace(path).unwrap_or_else(|e| fail(&format!("cannot load {path}: {e}")));
                traces.push(LabeledTrace { label, records });
            }
            "--devices" => devices_path = Some(next()),
            "--timeseries" => timeseries_path = Some(next()),
            "--top" => top = next().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
        i += 1;
    }
    if traces.is_empty() {
        usage();
    }

    print!("{}", comparison_report(&traces));
    for t in &traces {
        println!();
        print!("{}", tail_report(&t.label, &t.records, top));
    }
    if let Some(path) = devices_path.as_deref() {
        let devices =
            load_devices(path).unwrap_or_else(|e| fail(&format!("cannot load {path}: {e}")));
        println!();
        print!("{}", hotspot_report(&devices, top));
    }
    if let Some(path) = timeseries_path.as_deref() {
        let points =
            load_timeseries(path).unwrap_or_else(|e| fail(&format!("cannot load {path}: {e}")));
        println!();
        print!("{}", timeseries_report(&points));
    }
}

fn availability(args: &[String]) {
    let mut entries = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--stats" => {
                i += 1;
                let spec = args.get(i).cloned().unwrap_or_else(|| usage());
                let (label, path) = split_label(&spec);
                let stats =
                    load_stats(path).unwrap_or_else(|e| fail(&format!("cannot load {path}: {e}")));
                entries.push((label, stats));
            }
            _ => usage(),
        }
        i += 1;
    }
    if entries.is_empty() {
        usage();
    }
    print!("{}", availability_report(&entries));
}

fn rw(args: &[String]) {
    let mut entries = Vec::new();
    let mut devices = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--stats" => {
                i += 1;
                let spec = args.get(i).cloned().unwrap_or_else(|| usage());
                let (label, path) = split_label(&spec);
                let stats =
                    load_stats(path).unwrap_or_else(|e| fail(&format!("cannot load {path}: {e}")));
                entries.push((label, stats));
            }
            "--devices" => {
                i += 1;
                let path = args.get(i).cloned().unwrap_or_else(|| usage());
                devices = load_devices(&path)
                    .unwrap_or_else(|e| fail(&format!("cannot load {path}: {e}")));
            }
            _ => usage(),
        }
        i += 1;
    }
    if entries.is_empty() {
        usage();
    }
    print!("{}", rw_report(&entries, &devices));
}

fn control(args: &[String]) {
    let mut entries = Vec::new();
    for spec in args {
        let (label, path) = split_label(spec);
        let records =
            load_control(path).unwrap_or_else(|e| fail(&format!("cannot load {path}: {e}")));
        entries.push((label, records));
    }
    if entries.is_empty() {
        usage();
    }
    print!("{}", control_report(&entries));
}

/// `perf FILE [FILE...]` renders the host-perf report for one or more
/// perf artifacts (versioned histories or bare `simulate --perf`
/// profiles) that pass `check-bench`.
fn perf(args: &[String]) {
    let mut entries = Vec::new();
    for spec in args {
        let (label, path) = split_label(spec);
        let art =
            check_bench(&load_artifact(path)).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        entries.push((label, art));
    }
    if entries.is_empty() {
        usage();
    }
    print!("{}", perf_report(&entries));
}

/// `sweep FILE` renders the merged (config × seed) sweep artifact
/// written by `simulate sweep`.
fn sweep(args: &[String]) {
    let [path] = args else { usage() };
    let report = load_sweep(path).unwrap_or_else(|e| fail(&format!("cannot load {path}: {e}")));
    print!("{}", sweep_report(&report));
}

fn load_artifact(path: &str) -> Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    serde_json::from_str(&text).unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")))
}

/// `check-bench FILE` validates the artifact's shape; `check-bench FILE
/// BASELINE` additionally compares it against the baseline and fails on
/// throughput regressions beyond `--threshold` (default 10%).
fn check_bench_cmd(args: &[String]) {
    let mut paths: Vec<String> = Vec::new();
    let mut threshold = 0.1f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threshold" => {
                i += 1;
                threshold = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                if !(0.0..1.0).contains(&threshold) {
                    fail("--threshold must be a fraction in [0, 1)");
                }
            }
            other if !other.starts_with('-') => paths.push(other.to_string()),
            _ => usage(),
        }
        i += 1;
    }
    let (path, baseline) = match paths.as_slice() {
        [path] => (path.clone(), None),
        [path, base] => (path.clone(), Some(base.clone())),
        _ => usage(),
    };
    let artifact = load_artifact(&path);
    let art = check_bench(&artifact).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    println!("{path}: valid perf artifact (runs: {})", art.runs.len());
    if let Some(base_path) = baseline {
        let base = load_artifact(&base_path);
        let cmp = compare_bench(&base, &artifact, threshold)
            .unwrap_or_else(|e| fail(&format!("{base_path} vs {path}: {e}")));
        print!("{}", cmp.report);
        if !cmp.regressions.is_empty() {
            for r in &cmp.regressions {
                eprintln!("netrs-analyze: regression: {r}");
            }
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("report") => report(&args[1..]),
        Some("control") => control(&args[1..]),
        Some("availability") => availability(&args[1..]),
        Some("rw") => rw(&args[1..]),
        Some("perf") => perf(&args[1..]),
        Some("sweep") => sweep(&args[1..]),
        Some("check-bench") => check_bench_cmd(&args[1..]),
        _ => usage(),
    }
}
