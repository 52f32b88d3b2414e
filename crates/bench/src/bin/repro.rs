//! `repro` — regenerate the NetRS paper's evaluation figures.
//!
//! ```text
//! cargo run --release -p netrs-bench --bin repro -- fig4
//! cargo run --release -p netrs-bench --bin repro -- all --requests 100000 --seeds 1,2
//! cargo run --release -p netrs-bench --bin repro -- rsp
//! cargo run --release -p netrs-bench --bin repro -- fig6 --paper-scale
//! cargo run --release -p netrs-bench --bin repro -- perf --tag after
//! ```
//!
//! Results print as the four text panels of each figure. Each figure's
//! grid runs as one sweep, written to `target/repro/<id>.json` as a
//! `SweepReport` that `netrs-analyze sweep` reads; a run log accumulates
//! in `target/repro/repro.log`.

use std::io::Write as _;

use netrs_bench::{
    ablate_c3, ablate_cap, ablate_group, ablate_hops, append_perf_artifact, fig4, fig5, fig6, fig7,
    paper_base, render_tables, rsp_experiment, run_perf_suite, FigureSpec,
};
use netrs_sim::{run_sweep, SimConfig, SweepJob};

struct Options {
    requests: u64,
    seeds: Vec<u64>,
    /// `perf`: shrink the fixed perf config to the tiny test scale (CI
    /// schema smoke, not a meaningful measurement).
    small: bool,
    /// `perf`: label prefix distinguishing suites in one artifact.
    tag: Option<String>,
    /// `perf`: artifact path (default `target/repro/BENCH_PERF.json`).
    out: Option<String>,
}

/// Every flag `repro` knows: the figure commands' three, then `perf`'s
/// three (`rsp` takes none).
const FLAGS: [&str; 6] = [
    "--requests",
    "--seeds",
    "--paper-scale",
    "--small",
    "--tag",
    "--out",
];

fn usage() -> ! {
    eprintln!(
        "usage: repro <fig4|fig5|fig6|fig7|ablate-hops|ablate-cap|ablate-group|ablate-c3|all> \
         [--requests N] [--seeds a,b,c] [--paper-scale]\n\
         \x20      repro perf [--small] [--tag NAME] [--out FILE]\n\
         \x20      repro rsp"
    );
    std::process::exit(2);
}

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
    if args.is_empty() {
        usage();
    }
    let command = args[0].clone();
    let accepted: &[&str] = match command.as_str() {
        "perf" => &FLAGS[3..],
        "rsp" => &[],
        "fig4" | "fig5" | "fig6" | "fig7" | "ablate-hops" | "ablate-cap" | "ablate-group"
        | "ablate-c3" | "all" => &FLAGS[..3],
        _ => usage(),
    };
    let mut opts = Options {
        requests: 200_000,
        seeds: vec![1, 2, 3],
        small: false,
        tag: None,
        out: None,
    };
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        if !accepted.contains(&flag) {
            if FLAGS.contains(&flag) {
                eprintln!("repro: {flag} does not apply to `{command}`");
                std::process::exit(2);
            }
            usage();
        }
        match flag {
            "--requests" => {
                i += 1;
                opts.requests = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--seeds" => {
                i += 1;
                opts.seeds = args
                    .get(i)
                    .map(|v| {
                        v.split(',')
                            .map(|s| s.parse().unwrap_or_else(|_| usage()))
                            .collect()
                    })
                    .unwrap_or_else(|| usage());
            }
            "--paper-scale" => {
                opts.requests = 6_000_000;
            }
            "--small" => opts.small = true,
            "--tag" => {
                i += 1;
                opts.tag = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--out" => {
                i += 1;
                opts.out = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
        i += 1;
    }

    if command == "perf" {
        run_perf(&opts);
        return;
    }

    let base = paper_base(opts.requests);
    let figures: Vec<FigureSpec> = match command.as_str() {
        "fig4" => vec![fig4(&base)],
        "fig5" => vec![fig5(&base)],
        "fig6" => vec![fig6(&base)],
        "fig7" => vec![fig7(&base)],
        "ablate-hops" => vec![ablate_hops(&base)],
        "ablate-cap" => vec![ablate_cap(&base)],
        "ablate-group" => vec![ablate_group(&base)],
        "ablate-c3" => vec![ablate_c3(&base)],
        "all" => vec![
            fig4(&base),
            fig5(&base),
            fig6(&base),
            fig7(&base),
            ablate_hops(&base),
            ablate_cap(&base),
            ablate_group(&base),
            ablate_c3(&base),
        ],
        "rsp" => {
            println!("{}", rsp_experiment(2018));
            return;
        }
        _ => unreachable!("the command was checked before the flags"),
    };

    std::fs::create_dir_all("target/repro").ok();
    for spec in figures {
        // Open the artifact before the grid runs: a run that cannot keep
        // its JSON fails in seconds, not after the simulations.
        let path = format!("target/repro/{}.json", spec.id);
        let mut file = std::fs::File::create(&path).unwrap_or_else(|e| {
            eprintln!("repro: cannot create {path}: {e}");
            std::process::exit(1);
        });
        let started = std::time::Instant::now();
        log_line(&format!(
            "running {} ({} points x {} schemes x {} seeds, {} requests each)...",
            spec.id,
            spec.points.len(),
            spec.schemes.len(),
            opts.seeds.len(),
            opts.requests
        ));
        let jobs = SweepJob::grid(&spec.points, &spec.schemes, &opts.seeds);
        let report = run_sweep(jobs, 0, false);
        println!("{}", render_tables(&spec, &report, &opts.seeds));
        let json = serde_json::to_string_pretty(&report).expect("sweep report serializes");
        writeln!(file, "{json}")
            .and_then(|()| file.flush())
            .unwrap_or_else(|e| {
                eprintln!("repro: cannot write {path}: {e}");
                std::process::exit(1);
            });
        log_line(&format!("wrote {path}"));
        log_line(&format!(
            "{} finished in {:.1}s",
            spec.id,
            started.elapsed().as_secs_f64()
        ));
    }
}

/// The `perf` subcommand: run every scheme on the fixed perf config, and
/// the paper-topology `rw-cache` write/cache profile at the same request
/// count, with the host profiler attached and append the run records to
/// the bench artifact (`--out`, default `target/repro/BENCH_PERF.json`).
/// `--tag before|after` prefixes the run labels so successive
/// suites coexist; `--small` substitutes the tiny test config for CI
/// schema smoke.
fn run_perf(opts: &Options) {
    let mut cfg = if opts.small {
        let mut c = SimConfig::small();
        c.requests = 2_000;
        c
    } else {
        SimConfig::perf()
    };
    cfg.seed = 1;
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| "target/repro/BENCH_PERF.json".to_string());
    let runs = run_perf_suite(&cfg, opts.tag.as_deref());
    for r in &runs {
        log_line(&format!(
            "perf: {}: {:.3}s wall, {} events, {:.0} events/s, {:.1}% attributed, peak RSS {} kB",
            r.label,
            r.wall_s,
            r.events,
            r.events_per_sec,
            if r.wall_s > 0.0 {
                r.attributed_ns as f64 / (r.wall_s * 1e9) * 100.0
            } else {
                0.0
            },
            r.peak_rss_kb
        ));
    }
    let existing = std::fs::read_to_string(&out).ok();
    let artifact = append_perf_artifact(existing.as_deref(), runs).unwrap_or_else(|e| {
        eprintln!("cannot append into {out}: {e}");
        std::process::exit(1);
    });
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(&out, artifact + "\n").unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    log_line(&format!("wrote {out}"));
}
