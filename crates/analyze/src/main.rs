//! `netrs-analyze` — turn `simulate` artifacts into reports.
//!
//! ```text
//! # compare two schemes
//! simulate --scheme clirs --trace clirs.jsonl --trace-hops --devices clirs-dev.jsonl
//! simulate --scheme netrs-ilp --trace ilp.jsonl --trace-hops --devices ilp-dev.jsonl
//! netrs-analyze report --trace clirs=clirs.jsonl --trace netrs-ilp=ilp.jsonl \
//!     --devices ilp-dev.jsonl
//!
//! # profile one scheme before and after a change, and read them side by side
//! simulate --scheme netrs-ilp --perf before.json --json > /dev/null
//! simulate --scheme netrs-ilp --perf after.json --json > /dev/null
//! netrs-analyze perf before.json after.json
//! ```
//!
//! Argv is read by `netrs_sim::cli` against the synopsis lines below: a
//! misused flag exits 2 naming it, a file that cannot be read, parsed or
//! trusted exits 1 naming it.

use netrs_analyze::{
    availability_report, comparison_report, control_report, hotspot_report, load_json, load_jsonl,
    perf_report, rw_report, split_label, sweep_report, tail_report, timeseries_report,
    LabeledTrace,
};
use netrs_sim::cli::{Cli, CliError, Command};

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
        "perf" => perf_report(&labeled(files(), load_json)?),
        _ => sweep_report(&load_json(&cli.files()[0]).map_err(invalid)?),
    };
    Ok(report)
}
