//! `repro` — regenerate the NetRS paper's evaluation figures.
//!
//! ```text
//! cargo run --release -p netrs-bench --bin repro -- fig4
//! cargo run --release -p netrs-bench --bin repro -- all --requests 100000 --seeds 1,2
//! cargo run --release -p netrs-bench --bin repro -- fig6 --paper-scale
//! ```
//!
//! Each evaluation figure of the paper (Fig. 4–7) and each ablation of
//! DESIGN.md is one row of [`FIGURES`]: one parameter swept over the
//! compared schemes. Results print as the four text panels the paper
//! plots (average, 95th, 99th and 99.9th percentile response latency).
//! Each figure's grid runs as one sweep, written to
//! `target/repro/<id>.json` as a `SweepReport` that `netrs-analyze sweep`
//! reads; a run log accumulates in `target/repro/repro.log`. The §V-A
//! worked RSP example is `examples/placement_planner.rs`.

#![forbid(unsafe_code)]

use std::io::Write as _;

use netrs::{Granularity, PlanSolver};
use netrs_sim::cli::{Cli, CliError, Command};
use netrs_sim::{
    cell_label, run_sweep, MeanStats, Scheme, SimConfig, SweepJob, SweepPoint, SweepReport,
};
use netrs_simcore::SimDuration;

/// `repro`'s usage: one synopsis line, whose command list is
/// [`FIGURES`]' ids in order, then `all`.
const REPRO: Command<'static> = Command {
    prog: "repro",
    name: "",
    synopses: &[
        "repro <fig4|fig5|fig6|fig7|ablate-hops|ablate-cap|ablate-group|ablate-c3|all> \
         [--requests N] [--seeds a,b,c] [--paper-scale]",
    ],
    synopsis: 0,
};

/// One sweep point: its axis label and what it changes in the base config.
type Point = (&'static str, fn(&mut SimConfig));

/// A figure to regenerate: one parameter swept over the compared schemes.
struct Figure {
    /// The command that runs it (`fig4` … `fig7`, `ablate-…`).
    id: &'static str,
    /// The caption (the paper's, for Fig. 4–7).
    title: &'static str,
    /// What the sweep varies: the first column's header.
    sweep: &'static str,
    /// The schemes compared at every point.
    schemes: &'static [Scheme],
    /// The sweep points, in row order.
    points: &'static [Point],
}

/// Clears the NetRS-ILP hop budget, so that each run derives `E = 20 %·A`
/// from its point's own arrival rate, and returns `c` for the point's own
/// change.
fn derived_budget(c: &mut SimConfig) -> &mut SimConfig {
    c.plan.extra_hop_budget = None;
    c
}

/// Plans with the greedy solver, and returns `c` for the point's own
/// change: finer traffic groups explode the exact model (the paper makes
/// the same flexibility/effort trade-off).
fn greedy(c: &mut SimConfig) -> &mut SimConfig {
    c.plan_solver = PlanSolver::Greedy;
    c
}

/// Every figure, in `all`'s order.
const FIGURES: [Figure; 8] = [
    Figure {
        id: "fig4",
        title: "Impact of the number of clients (Fig. 4)",
        sweep: "clients",
        schemes: &Scheme::ALL,
        points: &[
            ("100", |c| c.clients = 100),
            ("300", |c| c.clients = 300),
            ("500", |c| c.clients = 500),
            ("700", |c| c.clients = 700),
        ],
    },
    Figure {
        id: "fig5",
        title: "Impact of demand skewness (Fig. 5)",
        sweep: "demand skew",
        schemes: &Scheme::ALL,
        points: &[
            ("70%", |c| c.demand_skew = Some(0.70)),
            ("80%", |c| c.demand_skew = Some(0.80)),
            ("90%", |c| c.demand_skew = Some(0.90)),
            ("95%", |c| c.demand_skew = Some(0.95)),
        ],
    },
    Figure {
        id: "fig6",
        title: "Impact of system utilization (Fig. 6)",
        sweep: "utilization",
        schemes: &Scheme::ALL,
        points: &[
            ("30%", |c| derived_budget(c).utilization = 0.3),
            ("50%", |c| derived_budget(c).utilization = 0.5),
            ("70%", |c| derived_budget(c).utilization = 0.7),
            ("90%", |c| derived_budget(c).utilization = 0.9),
        ],
    },
    Figure {
        id: "fig7",
        title: "Impact of the service time (Fig. 7)",
        sweep: "service time (ms)",
        schemes: &Scheme::ALL,
        points: &[
            ("0.1", |c| {
                derived_budget(c).server.base_service_time = SimDuration::from_micros(100)
            }),
            ("0.5", |c| {
                derived_budget(c).server.base_service_time = SimDuration::from_micros(500)
            }),
            ("1.0", |c| {
                derived_budget(c).server.base_service_time = SimDuration::from_micros(1_000)
            }),
            ("2.0", |c| {
                derived_budget(c).server.base_service_time = SimDuration::from_micros(2_000)
            }),
            ("4.0", |c| {
                derived_budget(c).server.base_service_time = SimDuration::from_micros(4_000)
            }),
        ],
    },
    Figure {
        id: "ablate-hops",
        title: "Ablation: extra-hop budget E (NetRS-ILP)",
        sweep: "hop budget",
        schemes: &[Scheme::NetRsIlp],
        points: &[
            ("0%A", |c| c.plan.extra_hop_budget = Some(0.0)),
            ("2%A", |c| {
                c.plan.extra_hop_budget = Some(0.02 * c.arrival_rate())
            }),
            ("20%A", |c| {
                c.plan.extra_hop_budget = Some(0.2 * c.arrival_rate())
            }),
            ("100%A", |c| {
                c.plan.extra_hop_budget = Some(c.arrival_rate())
            }),
        ],
    },
    Figure {
        id: "ablate-cap",
        title: "Ablation: accelerator utilization cap U (NetRS-ILP)",
        sweep: "capacity cap",
        schemes: &[Scheme::NetRsIlp],
        points: &[
            ("U=10%", |c| c.plan.max_utilization = 0.1),
            ("U=25%", |c| c.plan.max_utilization = 0.25),
            ("U=50%", |c| c.plan.max_utilization = 0.5),
            ("U=90%", |c| c.plan.max_utilization = 0.9),
        ],
    },
    Figure {
        id: "ablate-group",
        title: "Ablation: traffic-group granularity (NetRS-ILP)",
        sweep: "granularity",
        schemes: &[Scheme::NetRsIlp],
        points: &[
            ("host", |c| greedy(c).granularity = Granularity::Host),
            ("sub-rack(2)", |c| {
                greedy(c).granularity = Granularity::SubRack(2)
            }),
            ("rack", |c| c.granularity = Granularity::Rack),
        ],
    },
    Figure {
        id: "ablate-c3",
        title: "Ablation: C3 scoring exponent (CliRS)",
        sweep: "C3 variant",
        schemes: &[Scheme::CliRs],
        points: &[
            ("b=1", |c| c.c3.exponent = 1.0),
            ("b=2", |c| c.c3.exponent = 2.0),
            ("b=3", |c| c.c3.exponent = 3.0),
        ],
    },
];

impl Figure {
    /// The figure's sweep points over `base`, in row order.
    fn points(&self, base: &SimConfig) -> Vec<SweepPoint> {
        let point = |&(label, set): &Point| {
            let mut config = base.clone();
            set(&mut config);
            SweepPoint {
                label: label.into(),
                config,
            }
        };
        self.points.iter().map(point).collect()
    }
}

/// Renders a figure's sweep as the four text panels the paper plots
/// (Avg / 95th / 99th / 99.9th, all in milliseconds). Each (point,
/// scheme) entry is [`SweepReport::mean`] over `seeds`.
///
/// # Panics
///
/// Panics if `report` lacks a (point, scheme, seed) cell of the figure.
fn render_tables(figure: &Figure, report: &SweepReport, seeds: &[u64]) -> String {
    use std::fmt::Write;
    type Pick = fn(&MeanStats) -> f64;
    let rows: Vec<(&str, Vec<MeanStats>)> = figure
        .points
        .iter()
        .map(|&(label, _)| {
            let means = figure
                .schemes
                .iter()
                .map(|&s| report.mean(&cell_label(label, s), seeds))
                .collect();
            (label, means)
        })
        .collect();
    let mut out = String::new();
    let panels: [(&str, Pick); 4] = [
        ("Avg.", |m| m.mean_ms),
        ("95th Percentile", |m| m.p95_ms),
        ("99th Percentile", |m| m.p99_ms),
        ("99.9th Percentile", |m| m.p999_ms),
    ];
    let _ = writeln!(out, "== {} ==", figure.title);
    for (panel, pick) in panels {
        let _ = writeln!(out, "\n-- {panel} latency (ms) --");
        let _ = write!(out, "{:<14}", figure.sweep);
        for scheme in figure.schemes {
            let _ = write!(out, "{:>12}", scheme.label());
        }
        let _ = writeln!(out);
        for (label, row) in &rows {
            let _ = write!(out, "{label:<14}");
            for cell in row {
                let _ = write!(out, "{:>12.3}", pick(cell));
            }
            let _ = writeln!(out);
        }
    }
    // Plan shape / duplicates context row.
    let _ = writeln!(out, "\n-- RSNodes (mean) / duplicates (mean) --");
    for (label, row) in &rows {
        let _ = write!(out, "{label:<14}");
        for cell in row {
            let _ = write!(out, "{:>7.1}/{:<5.0}", cell.rsnodes, cell.duplicates);
        }
        let _ = writeln!(out);
    }
    out
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
    let command = args.first().map_or("", String::as_str);
    if command != "all" && !FIGURES.iter().any(|f| f.id == command) {
        CliError::misuse(REPRO.usage()).exit();
    }
    let cmd = Command {
        name: command,
        ..REPRO
    };
    Cli::parse(&args[1..], &cmd)
        .and_then(|cli| run(command, &cli))
        .unwrap_or_else(|e| e.exit());
}

fn run(command: &str, cli: &Cli) -> Result<(), CliError> {
    // The paper's setup at a harness budget: the paper runs 6 M requests
    // (`--paper-scale`), the default trades smoothness for wall time.
    let paper = SimConfig {
        requests: 200_000,
        ..SimConfig::paper()
    };
    let base = cli.config(paper, SimConfig::small())?;
    let seeds = cli.list("--seeds")?.unwrap_or_else(|| vec![1, 2, 3]);

    std::fs::create_dir_all("target/repro").ok();
    for figure in FIGURES
        .iter()
        .filter(|f| command == "all" || f.id == command)
    {
        // Open the artifact before the grid runs: a run that cannot keep
        // its JSON fails in seconds, not after the simulations.
        let path = format!("target/repro/{}.json", figure.id);
        let mut file = std::fs::File::create(&path)
            .map_err(|e| CliError::invalid(format!("repro: cannot create {path}: {e}")))?;
        let started = std::time::Instant::now();
        log_line(&format!(
            "running {} ({} points x {} schemes x {} seeds, {} requests each)...",
            figure.id,
            figure.points.len(),
            figure.schemes.len(),
            seeds.len(),
            base.requests
        ));
        let jobs = SweepJob::grid(&figure.points(&base), figure.schemes, &seeds);
        let report = run_sweep(jobs, 0, false);
        println!("{}", render_tables(figure, &report, &seeds));
        let json = serde_json::to_string_pretty(&report).expect("sweep report serializes");
        writeln!(file, "{json}")
            .and_then(|()| file.flush())
            .map_err(|e| CliError::invalid(format!("repro: cannot write {path}: {e}")))?;
        log_line(&format!("wrote {path}"));
        log_line(&format!(
            "{} finished in {:.1}s",
            figure.id,
            started.elapsed().as_secs_f64()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn figure_ids_are_the_usage_commands_in_order() {
        let usage = REPRO.synopses[0];
        let list = &usage[usage.find('<').unwrap() + 1..usage.find('>').unwrap()];
        let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).chain(["all"]).collect();
        assert_eq!(list.split('|').collect::<Vec<_>>(), ids);
    }

    /// Each figure row's id, schemes and point labels.
    fn rows(figures: &[Figure]) -> Vec<(&str, &[Scheme], Vec<&str>)> {
        figures
            .iter()
            .map(|f| {
                let labels = f.points.iter().map(|&(label, _)| label).collect();
                (f.id, f.schemes, labels)
            })
            .collect()
    }

    #[test]
    fn figure_specs_cover_paper_sweeps() {
        let all = &Scheme::ALL[..];
        assert_eq!(
            rows(&FIGURES[..4]),
            [
                ("fig4", all, vec!["100", "300", "500", "700"]),
                ("fig5", all, vec!["70%", "80%", "90%", "95%"]),
                ("fig6", all, vec!["30%", "50%", "70%", "90%"]),
                ("fig7", all, vec!["0.1", "0.5", "1.0", "2.0", "4.0"]),
            ]
        );
        // A label names the value its point sets (Fig. 4: clients).
        let clients = FIGURES[0]
            .points(&SimConfig::paper())
            .iter()
            .map(|p| p.config.clients)
            .collect::<Vec<_>>();
        assert_eq!(clients, [100, 300, 500, 700]);
    }

    #[test]
    fn ablations_target_single_schemes() {
        let (ilp, clirs) = (&[Scheme::NetRsIlp][..], &[Scheme::CliRs][..]);
        assert_eq!(
            rows(&FIGURES[4..]),
            [
                ("ablate-hops", ilp, vec!["0%A", "2%A", "20%A", "100%A"]),
                ("ablate-cap", ilp, vec!["U=10%", "U=25%", "U=50%", "U=90%"]),
                ("ablate-group", ilp, vec!["host", "sub-rack(2)", "rack"]),
                ("ablate-c3", clirs, vec!["b=1", "b=2", "b=3"]),
            ]
        );
    }

    #[test]
    fn every_point_is_a_valid_distinct_config_over_the_paper_base() {
        let base = SimConfig::paper().finalize();
        for figure in &FIGURES {
            let (mut labels, mut configs) = (HashSet::new(), HashSet::new());
            for point in figure.points(&base) {
                let at = format!("{} {}", figure.id, point.label);
                assert!(labels.insert(point.label), "{at} repeats a label");
                let config = point.config.finalize();
                assert_eq!(config.validate(), Ok(()), "{at}");
                let json = serde_json::to_string(&config).unwrap();
                assert!(configs.insert(json), "{at} repeats another point's config");
            }
        }
    }

    #[test]
    fn figure_tables_match_across_threads_and_solo_runs() {
        use netrs_sim::{run, SweepCell, SWEEP_SCHEMA_VERSION};
        let figure = Figure {
            id: "test",
            title: "tiny",
            sweep: "x",
            schemes: &[Scheme::CliRs, Scheme::NetRsToR],
            points: &[("a", |_| {}), ("b", |c| c.utilization = 0.5)],
        };
        let base = SimConfig {
            requests: 300,
            ..SimConfig::small()
        };
        let seeds = [2, 1];
        let jobs = SweepJob::grid(&figure.points(&base), figure.schemes, &seeds);
        assert_eq!(jobs.len(), 8);
        let one = render_tables(&figure, &run_sweep(jobs.clone(), 1, false), &seeds);
        let three = render_tables(&figure, &run_sweep(jobs.clone(), 3, false), &seeds);
        let solo = SweepReport {
            schema_version: SWEEP_SCHEMA_VERSION,
            threads: 1,
            wall_s: 0.0,
            sequential_wall_s: None,
            speedup: None,
            cells: jobs
                .into_iter()
                .map(|job| {
                    let mut cfg = job.cfg;
                    cfg.seed = job.seed;
                    SweepCell {
                        label: job.label,
                        seed: job.seed,
                        wall_s: 0.0,
                        stats: run(cfg),
                    }
                })
                .collect(),
        };
        assert_eq!(one, three);
        assert_eq!(one, render_tables(&figure, &solo, &seeds));
        assert!(one.contains("Avg."));
        assert!(one.contains("99.9th"));
        assert!(one.contains("CliRS"));
    }
}
