//! `repro` — regenerate the NetRS paper's evaluation figures.
//!
//! ```text
//! cargo run --release -p netrs-bench --bin repro -- fig4
//! cargo run --release -p netrs-bench --bin repro -- all --requests 100000 --seeds 1,2
//! cargo run --release -p netrs-bench --bin repro -- rsp
//! cargo run --release -p netrs-bench --bin repro -- fig6 --paper-scale
//! ```
//!
//! Results print as the four text panels of each figure. Each figure's
//! grid runs as one sweep, written to `target/repro/<id>.json` as a
//! `SweepReport` that `netrs-analyze sweep` reads; a run log accumulates
//! in `target/repro/repro.log`.

use std::io::Write as _;

use netrs_bench::{
    ablate_c3, ablate_cap, ablate_group, ablate_hops, fig4, fig5, fig6, fig7, paper_base,
    render_tables, rsp_experiment, FigureSpec,
};
use netrs_sim::cli::{Cli, CliError, Command};
use netrs_sim::{run_sweep, SimConfig, SweepJob};

/// `repro`'s usage, one synopsis line each for the figure commands and
/// `rsp`; a subcommand's `Command` names it and picks its line.
const REPRO: Command<'static> = Command {
    prog: "repro",
    name: "",
    synopses: &[
        "repro <fig4|fig5|fig6|fig7|ablate-hops|ablate-cap|ablate-group|ablate-c3|all> \
         [--requests N] [--seeds a,b,c] [--paper-scale]",
        "repro rsp",
    ],
    synopsis: 0,
};

/// A figure command's name and the grid it runs over a base config.
type Figure = (&'static str, fn(&SimConfig) -> FigureSpec);

/// The figure commands, in `all`'s order.
const FIGURES: [Figure; 8] = [
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("ablate-hops", ablate_hops),
    ("ablate-cap", ablate_cap),
    ("ablate-group", ablate_group),
    ("ablate-c3", ablate_c3),
];

/// Logs a progress line to stderr and to the persistent run log under
/// `target/repro/` (best-effort: a read-only tree only loses the file
/// copy).
fn log_line(msg: &str) {
    eprintln!("{msg}");
    std::fs::create_dir_all("target/repro").ok();
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open("target/repro/repro.log")
    {
        let _ = writeln!(f, "{msg}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map_or("", String::as_str);
    let synopsis = match command {
        "rsp" => 1,
        _ if command == "all" || FIGURES.iter().any(|(id, _)| *id == command) => 0,
        _ => CliError::misuse(REPRO.usage()).exit(),
    };
    let cmd = Command {
        name: command,
        synopsis,
        ..REPRO
    };
    Cli::parse(&args[1..], &cmd)
        .and_then(|cli| run(command, &cli))
        .unwrap_or_else(|e| e.exit());
}

fn run(command: &str, cli: &Cli) -> Result<(), CliError> {
    let base = match command {
        "rsp" => {
            println!("{}", rsp_experiment(2018));
            return Ok(());
        }
        _ => cli.config(paper_base(200_000), SimConfig::small())?,
    };
    let seeds = cli.list("--seeds")?.unwrap_or_else(|| vec![1, 2, 3]);
    let figures = FIGURES
        .iter()
        .filter(|(id, _)| command == "all" || *id == command)
        .map(|(_, figure)| figure(&base));

    std::fs::create_dir_all("target/repro").ok();
    for spec in figures {
        // Open the artifact before the grid runs: a run that cannot keep
        // its JSON fails in seconds, not after the simulations.
        let path = format!("target/repro/{}.json", spec.id);
        let mut file = std::fs::File::create(&path)
            .map_err(|e| CliError::invalid(format!("repro: cannot create {path}: {e}")))?;
        let started = std::time::Instant::now();
        log_line(&format!(
            "running {} ({} points x {} schemes x {} seeds, {} requests each)...",
            spec.id,
            spec.points.len(),
            spec.schemes.len(),
            seeds.len(),
            base.requests
        ));
        let jobs = SweepJob::grid(&spec.points, &spec.schemes, &seeds);
        let report = run_sweep(jobs, 0, false);
        println!("{}", render_tables(&spec, &report, &seeds));
        let json = serde_json::to_string_pretty(&report).expect("sweep report serializes");
        writeln!(file, "{json}")
            .and_then(|()| file.flush())
            .map_err(|e| CliError::invalid(format!("repro: cannot write {path}: {e}")))?;
        log_line(&format!("wrote {path}"));
        log_line(&format!(
            "{} finished in {:.1}s",
            spec.id,
            started.elapsed().as_secs_f64()
        ));
    }
    Ok(())
}
