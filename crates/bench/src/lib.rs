//! The figure-reproduction harness.
//!
//! One [`FigureSpec`] per evaluation figure of the paper (Fig. 4–7), each
//! sweeping the same parameter over the same values, plus the §V-A RSP
//! worked example and the ablations called out in DESIGN.md. The `repro`
//! binary drives these; the library form keeps the sweep definitions
//! testable.
//!
//! Figures report, per scheme per sweep point, the same four statistics
//! as the paper's panels: average, 95th, 99th and 99.9th percentile
//! response latency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use netrs::{PlacementProblem, PlanConstraints, PlanSolver, TrafficGroups, TrafficMatrix};
use netrs_sim::{cell_label, MeanStats, Scheme, SimConfig, SweepReport};
use netrs_simcore::{SimDuration, SimRng};
use netrs_topology::{FatTree, HostId};

pub use netrs_sim::SweepPoint;
pub use netrs_simcore::peak_rss_kb;

/// A figure to regenerate: an id, a caption and its sweep.
#[derive(Debug, Clone)]
pub struct FigureSpec {
    /// Identifier (`fig4` … `fig7`, `ablate-…`).
    pub id: &'static str,
    /// Human-readable caption (matches the paper's).
    pub title: &'static str,
    /// What the sweep varies.
    pub sweep: &'static str,
    /// The sweep points.
    pub points: Vec<SweepPoint>,
    /// The schemes compared at every point.
    pub schemes: Vec<Scheme>,
}

/// The paper's base setup with a configurable request budget (the paper
/// uses 6 M; the default harness budget trades absolute smoothness for
/// wall-clock time and is set by the caller).
#[must_use]
pub fn paper_base(requests: u64) -> SimConfig {
    let mut cfg = SimConfig::paper();
    cfg.requests = requests;
    cfg
}

/// Fig. 4: impact of the number of clients (100–700), 90 % utilization,
/// no skew.
#[must_use]
pub fn fig4(base: &SimConfig) -> FigureSpec {
    let points = [100u32, 300, 500, 700]
        .into_iter()
        .map(|clients| {
            let mut cfg = base.clone();
            cfg.clients = clients;
            SweepPoint {
                label: clients.to_string(),
                config: cfg,
            }
        })
        .collect();
    FigureSpec {
        id: "fig4",
        title: "Impact of the number of clients (Fig. 4)",
        sweep: "clients",
        points,
        schemes: Scheme::ALL.to_vec(),
    }
}

/// Fig. 5: impact of demand skewness (top-20 % clients issue 70–95 % of
/// requests), 500 clients.
#[must_use]
pub fn fig5(base: &SimConfig) -> FigureSpec {
    let points = [0.70f64, 0.80, 0.90, 0.95]
        .into_iter()
        .map(|skew| {
            let mut cfg = base.clone();
            cfg.demand_skew = Some(skew);
            SweepPoint {
                label: format!("{:.0}%", skew * 100.0),
                config: cfg,
            }
        })
        .collect();
    FigureSpec {
        id: "fig5",
        title: "Impact of demand skewness (Fig. 5)",
        sweep: "demand skew",
        points,
        schemes: Scheme::ALL.to_vec(),
    }
}

/// Fig. 6: impact of system utilization (30–90 %).
#[must_use]
pub fn fig6(base: &SimConfig) -> FigureSpec {
    let points = [0.3f64, 0.5, 0.7, 0.9]
        .into_iter()
        .map(|util| {
            let mut cfg = base.clone();
            cfg.utilization = util;
            // E = 20%·A must track the changed arrival rate.
            cfg.plan.extra_hop_budget = None;
            SweepPoint {
                label: format!("{:.0}%", util * 100.0),
                config: cfg,
            }
        })
        .collect();
    FigureSpec {
        id: "fig6",
        title: "Impact of system utilization (Fig. 6)",
        sweep: "utilization",
        points,
        schemes: Scheme::ALL.to_vec(),
    }
}

/// Fig. 7: impact of the mean service time (0.1–4 ms).
#[must_use]
pub fn fig7(base: &SimConfig) -> FigureSpec {
    let points = [100u64, 500, 1_000, 2_000, 4_000]
        .into_iter()
        .map(|micros| {
            let mut cfg = base.clone();
            cfg.server.base_service_time = SimDuration::from_micros(micros);
            cfg.plan.extra_hop_budget = None; // re-derive 20%·A
            SweepPoint {
                label: format!("{:.1}", micros as f64 / 1_000.0),
                config: cfg,
            }
        })
        .collect();
    FigureSpec {
        id: "fig7",
        title: "Impact of the service time (Fig. 7)",
        sweep: "service time (ms)",
        points,
        schemes: Scheme::ALL.to_vec(),
    }
}

/// ABL-E: sweep the extra-hop budget E for NetRS-ILP.
#[must_use]
pub fn ablate_hops(base: &SimConfig) -> FigureSpec {
    let a = base.arrival_rate();
    let points = [0.0f64, 0.02, 0.2, 1.0]
        .into_iter()
        .map(|frac| {
            let mut cfg = base.clone();
            cfg.plan.extra_hop_budget = Some(frac * a);
            SweepPoint {
                label: format!("{:.0}%A", frac * 100.0),
                config: cfg,
            }
        })
        .collect();
    FigureSpec {
        id: "ablate-hops",
        title: "Ablation: extra-hop budget E (NetRS-ILP)",
        sweep: "hop budget",
        points,
        schemes: vec![Scheme::NetRsIlp],
    }
}

/// ABL-U: sweep the accelerator utilization cap U for NetRS-ILP.
#[must_use]
pub fn ablate_cap(base: &SimConfig) -> FigureSpec {
    let points = [0.1f64, 0.25, 0.5, 0.9]
        .into_iter()
        .map(|u| {
            let mut cfg = base.clone();
            cfg.plan.max_utilization = u;
            SweepPoint {
                label: format!("U={:.0}%", u * 100.0),
                config: cfg,
            }
        })
        .collect();
    FigureSpec {
        id: "ablate-cap",
        title: "Ablation: accelerator utilization cap U (NetRS-ILP)",
        sweep: "capacity cap",
        points,
        schemes: vec![Scheme::NetRsIlp],
    }
}

/// ABL-G: traffic-group granularity for NetRS-ILP.
#[must_use]
pub fn ablate_group(base: &SimConfig) -> FigureSpec {
    use netrs::Granularity;
    let grans = [
        ("host", Granularity::Host),
        ("sub-rack(2)", Granularity::SubRack(2)),
        ("rack", Granularity::Rack),
    ];
    let points = grans
        .into_iter()
        .map(|(label, g)| {
            let mut cfg = base.clone();
            cfg.granularity = g;
            // Finer groups explode the exact model; greedy handles them
            // (the paper makes the same flexibility/effort trade-off).
            if !matches!(g, Granularity::Rack) {
                cfg.plan_solver = PlanSolver::Greedy;
            }
            SweepPoint {
                label: label.to_string(),
                config: cfg,
            }
        })
        .collect();
    FigureSpec {
        id: "ablate-group",
        title: "Ablation: traffic-group granularity (NetRS-ILP)",
        sweep: "granularity",
        points,
        schemes: vec![Scheme::NetRsIlp],
    }
}

/// ABL-B: C3's scoring exponent b under CliRS.
#[must_use]
pub fn ablate_c3(base: &SimConfig) -> FigureSpec {
    let points = [1.0, 2.0, 3.0]
        .into_iter()
        .map(|b| {
            let mut cfg = base.clone();
            cfg.c3.exponent = b;
            SweepPoint {
                label: format!("b={b}"),
                config: cfg,
            }
        })
        .collect();
    FigureSpec {
        id: "ablate-c3",
        title: "Ablation: C3 scoring exponent (CliRS)",
        sweep: "C3 variant",
        points,
        schemes: vec![Scheme::CliRs],
    }
}

/// Renders a figure's sweep as the four text panels the paper plots
/// (Avg / 95th / 99th / 99.9th, all in milliseconds). Each (point,
/// scheme) entry is [`SweepReport::mean`] over `seeds`.
///
/// # Panics
///
/// Panics if `report` lacks a (point, scheme, seed) cell of the figure.
#[must_use]
pub fn render_tables(spec: &FigureSpec, report: &SweepReport, seeds: &[u64]) -> String {
    use std::fmt::Write;
    type Pick = fn(&MeanStats) -> f64;
    let rows: Vec<(&str, Vec<MeanStats>)> = spec
        .points
        .iter()
        .map(|point| {
            let means = spec
                .schemes
                .iter()
                .map(|&s| report.mean(&cell_label(&point.label, s), seeds))
                .collect();
            (point.label.as_str(), means)
        })
        .collect();
    let mut out = String::new();
    let panels: [(&str, Pick); 4] = [
        ("Avg.", |m| m.mean_ms),
        ("95th Percentile", |m| m.p95_ms),
        ("99th Percentile", |m| m.p99_ms),
        ("99.9th Percentile", |m| m.p999_ms),
    ];
    let _ = writeln!(out, "== {} ==", spec.title);
    for (panel, pick) in panels {
        let _ = writeln!(out, "\n-- {panel} latency (ms) --");
        let _ = write!(out, "{:<14}", spec.sweep);
        for scheme in &spec.schemes {
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

/// The §V-A worked RSP example: solve the placement at paper scale under
/// several constraint settings and report the plan shapes.
#[must_use]
pub fn rsp_experiment(seed: u64) -> String {
    use std::fmt::Write;
    let topo = FatTree::new(16).expect("even arity");
    let mut rng = SimRng::from_seed(seed);
    let picks = rng.sample_indices(topo.num_hosts() as usize, 600);
    let hosts: Vec<HostId> = picks.into_iter().map(|h| HostId(h as u32)).collect();
    let (servers, clients) = hosts.split_at(100);
    let groups = TrafficGroups::rack_level(&topo, clients);
    let a = 90_000.0;
    let rates: Vec<(HostId, f64)> = clients
        .iter()
        .map(|&h| (h, a / clients.len() as f64))
        .collect();
    let traffic = TrafficMatrix::oracle(&topo, &groups, &rates, servers);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "== RSP worked example (paper: \"6 RSNodes on aggregation switches and 1 on a core switch\") =="
    );
    let _ = writeln!(
        out,
        "16-ary fat-tree, {} groups, A = {:.0} req/s, seed {}\n",
        groups.len(),
        a,
        seed
    );

    let mut shared = PlanConstraints {
        extra_hop_budget: Some(0.2 * a),
        ..PlanConstraints::default()
    };
    for sw in topo.switches() {
        shared.capacity_overrides.insert(sw.0, 15_000.0);
    }
    let scenarios: Vec<(&str, PlanConstraints)> = vec![
        (
            "paper constants: U=50%, E=20%A, dedicated accelerators",
            PlanConstraints {
                extra_hop_budget: Some(0.2 * a),
                ..PlanConstraints::default()
            },
        ),
        (
            "tight hop budget: U=50%, E=2%A",
            PlanConstraints {
                extra_hop_budget: Some(0.02 * a),
                ..PlanConstraints::default()
            },
        ),
        ("shared accelerators (15k tasks/s each), E=20%A", shared),
    ];
    for (name, cons) in scenarios {
        let problem = PlacementProblem::new(&topo, &groups, &traffic, &cons);
        let rsp = problem.solve(PlanSolver::Auto { node_limit: 50 });
        let census = rsp.tier_census(&topo);
        let _ = writeln!(
            out,
            "{name}\n  -> {} RSNodes: {} core, {} agg, {} tor; DRS groups: {}\n",
            rsp.rsnodes().len(),
            census[0],
            census[1],
            census[2],
            rsp.drs.len()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_specs_cover_paper_sweeps() {
        let base = paper_base(1_000);
        assert_eq!(fig4(&base).points.len(), 4);
        assert_eq!(fig5(&base).points.len(), 4);
        assert_eq!(fig6(&base).points.len(), 4);
        assert_eq!(fig7(&base).points.len(), 5);
        assert_eq!(fig4(&base).schemes.len(), 4);
        // Fig. 4 sweeps clients, holding the rest at §V-A defaults.
        let f4 = fig4(&base);
        assert_eq!(f4.points[2].config.clients, 500);
        assert_eq!(f4.points[0].config.clients, 100);
        // Fig. 7's service-time labels are in ms.
        let f7 = fig7(&base);
        assert_eq!(f7.points[0].label, "0.1");
        assert_eq!(f7.points[4].label, "4.0");
    }

    #[test]
    fn figure_tables_match_across_threads_and_solo_runs() {
        use netrs_sim::{run, run_sweep, SweepCell, SweepJob, SWEEP_SCHEMA_VERSION};
        let mut base = SimConfig::small();
        base.requests = 300;
        let mut busy = base.clone();
        busy.utilization = 0.5;
        let spec = FigureSpec {
            id: "test",
            title: "tiny",
            sweep: "x",
            points: vec![
                SweepPoint {
                    label: "a".into(),
                    config: base,
                },
                SweepPoint {
                    label: "b".into(),
                    config: busy,
                },
            ],
            schemes: vec![Scheme::CliRs, Scheme::NetRsToR],
        };
        let seeds = [2, 1];
        let jobs = SweepJob::grid(&spec.points, &spec.schemes, &seeds);
        assert_eq!(jobs.len(), 8);
        let one = render_tables(&spec, &run_sweep(jobs.clone(), 1, false), &seeds);
        let three = render_tables(&spec, &run_sweep(jobs.clone(), 3, false), &seeds);
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
        assert_eq!(one, render_tables(&spec, &solo, &seeds));
        assert!(one.contains("Avg."));
        assert!(one.contains("99.9th"));
        assert!(one.contains("CliRS"));
    }

    #[test]
    fn every_figure_has_unique_point_labels() {
        let base = paper_base(1_000);
        for spec in [
            fig4(&base),
            fig5(&base),
            fig6(&base),
            fig7(&base),
            ablate_hops(&base),
            ablate_cap(&base),
            ablate_group(&base),
            ablate_c3(&base),
        ] {
            let labels: std::collections::HashSet<&str> =
                spec.points.iter().map(|p| p.label.as_str()).collect();
            assert_eq!(labels.len(), spec.points.len(), "{}", spec.id);
        }
    }

    #[test]
    fn ablations_target_single_schemes() {
        let base = paper_base(1_000);
        assert_eq!(ablate_hops(&base).schemes, vec![Scheme::NetRsIlp]);
        assert_eq!(ablate_cap(&base).schemes, vec![Scheme::NetRsIlp]);
        assert_eq!(ablate_c3(&base).schemes, vec![Scheme::CliRs]);
        let g = ablate_group(&base);
        assert_eq!(g.points.len(), 3);
    }
}
