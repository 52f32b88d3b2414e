//! `netrs-analyze` — turn `simulate` artifacts into reports.
//!
//! ```text
//! # compare two schemes
//! simulate --scheme clirs --trace clirs.jsonl --trace-hops --devices clirs-dev.jsonl
//! simulate --scheme netrs-ilp --trace ilp.jsonl --trace-hops --devices ilp-dev.jsonl
//! netrs-analyze report --trace clirs=clirs.jsonl --trace netrs-ilp=ilp.jsonl \
//!     --devices ilp-dev.jsonl
//!
//! # validate a perf artifact; gate this tree's perf rows against the parent's
//! netrs-analyze check-bench perf.json
//! git show HEAD:BENCH_PERF.json > parent-perf.json
//! repro perf --tag after --out BENCH_PERF.json
//! netrs-analyze check-bench BENCH_PERF.json parent-perf.json
//! ```
//!
//! Argv is read by `netrs_sim::cli` against the synopsis lines below: a
//! misused flag exits 2 naming it, a file that cannot be read, parsed or
//! trusted exits 1 naming it.

use netrs_analyze::{
    availability_report, check_bench, compare_bench, comparison_report, control_report,
    hotspot_report, load_json, load_jsonl, perf_report, rw_report, split_label, sweep_report,
    tail_report, timeseries_report, LabeledTrace,
};
use netrs_sim::cli::{Cli, CliError, Command};
use serde::Value;

/// Every subcommand's synopsis: the usage text, and the flags and files
/// each subcommand takes.
const SYNOPSES: &[&str] = &[
    "netrs-analyze report --trace [LABEL=]FILE [--trace [LABEL=]FILE ...] \
     [--devices FILE] [--timeseries FILE] [--top N]",
    "netrs-analyze control [LABEL=]FILE [[LABEL=]FILE ...]",
    "netrs-analyze availability --stats [LABEL=]FILE [--stats [LABEL=]FILE ...]",
    "netrs-analyze rw --stats [LABEL=]FILE [--stats [LABEL=]FILE ...] [--devices FILE]",
    "netrs-analyze perf [LABEL=]FILE [[LABEL=]FILE ...]",
    "netrs-analyze sweep FILE",
    "netrs-analyze check-bench FILE [BASELINE] [--threshold F]",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("", String::as_str);
    let cmd = Command {
        prog: "netrs-analyze",
        name,
        synopses: SYNOPSES,
        synopsis: 0,
    };
    let Some(synopsis) = SYNOPSES
        .iter()
        .position(|line| line.split_whitespace().nth(1) == Some(name))
    else {
        CliError::misuse(cmd.usage()).exit()
    };
    let cmd = Command { synopsis, ..cmd };
    match Cli::parse(&args[1..], &cmd).and_then(|cli| run(name, &cli)) {
        Ok(report) => print!("{report}"),
        Err(e) => e.exit(),
    }
}

/// A file the reports cannot use: exit 1 naming it.
fn invalid(message: String) -> CliError {
    CliError::invalid(format!("netrs-analyze: {message}"))
}

/// Loads each `[LABEL=]FILE` with `load`, labelled by [`split_label`].
fn labeled<'a, T>(
    specs: impl IntoIterator<Item = &'a str>,
    load: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<(String, T)>, CliError> {
    specs
        .into_iter()
        .map(|spec| {
            let (label, path) = split_label(spec);
            Ok((label, load(path).map_err(invalid)?))
        })
        .collect()
}

/// The subcommand's report.
fn run(name: &str, cli: &Cli) -> Result<String, CliError> {
    let files = || cli.files().iter().map(String::as_str);
    let report = match name {
        "report" => {
            let top = cli.get("--top")?.unwrap_or(10);
            let traces: Vec<LabeledTrace> = labeled(cli.all("--trace"), load_jsonl)?
                .into_iter()
                .map(|(label, records)| LabeledTrace { label, records })
                .collect();
            let mut out = comparison_report(&traces);
            for t in &traces {
                out = out + "\n" + &tail_report(&t.label, &t.records, top);
            }
            if let Some(path) = cli.str("--devices") {
                out = out + "\n" + &hotspot_report(&load_jsonl(path).map_err(invalid)?, top);
            }
            if let Some(path) = cli.str("--timeseries") {
                out = out + "\n" + &timeseries_report(&load_jsonl(path).map_err(invalid)?);
            }
            out
        }
        "control" => control_report(&labeled(files(), load_jsonl)?),
        "availability" => availability_report(&labeled(cli.all("--stats"), load_json)?),
        "rw" => {
            let devices = match cli.str("--devices") {
                Some(path) => load_jsonl(path).map_err(invalid)?,
                None => Vec::new(),
            };
            rw_report(&labeled(cli.all("--stats"), load_json)?, &devices)
        }
        "perf" => perf_report(&labeled(files(), |path| {
            check_bench(&load_json(path)?).map_err(|e| format!("{path}: {e}"))
        })?),
        "sweep" => sweep_report(&load_json(&cli.files()[0]).map_err(invalid)?),
        _ => check_bench_cmd(cli)?,
    };
    Ok(report)
}

/// `check-bench FILE` validates a perf artifact; `check-bench FILE
/// BASELINE` also compares it with the baseline, workload by workload, and
/// exits 1 on a throughput drop beyond `--threshold` (default 10%).
fn check_bench_cmd(cli: &Cli) -> Result<String, CliError> {
    let threshold = cli.get("--threshold")?.unwrap_or(0.1);
    if !(0.0..1.0).contains(&threshold) {
        return Err(invalid(
            "--threshold must be a fraction in [0, 1)".to_string(),
        ));
    }
    let path = &cli.files()[0];
    let artifact: Value = load_json(path).map_err(invalid)?;
    let art = check_bench(&artifact).map_err(|e| invalid(format!("{path}: {e}")))?;
    let mut out = format!("{path}: valid perf artifact (runs: {})\n", art.runs.len());
    let Some(base_path) = cli.files().get(1) else {
        return Ok(out);
    };
    let base = load_json(base_path).map_err(invalid)?;
    let cmp = compare_bench(&base, &artifact, threshold)
        .map_err(|e| invalid(format!("{base_path} vs {path}: {e}")))?;
    out += &cmp.report;
    if cmp.regressions.is_empty() {
        return Ok(out);
    }
    print!("{out}");
    let lines: Vec<String> = cmp
        .regressions
        .iter()
        .map(|r| format!("netrs-analyze: regression: {r}"))
        .collect();
    Err(CliError::invalid(lines.join("\n")))
}
