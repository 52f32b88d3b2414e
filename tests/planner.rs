//! Integration tests of the placement stack: traffic measurement →
//! ILP → plan → deployed rules, against topologies of several sizes.

use std::collections::BTreeSet;
use std::io::Write;
use std::sync::{Arc, Mutex};

use netrs::{
    ControllerConfig, NetRsController, PlacementProblem, PlanConstraints, PlanSolver,
    TrafficGroups, TrafficMatrix,
};
use netrs_ilp::{solve_lp, LpStatus};
use netrs_sim::{
    run_observed, ControlRecord, ObsOptions, OraclePlacement, PlanEventRecord, PlanSource,
    RunStats, Scheme, SimConfig, SnapshotRecord, TraceRecord,
};
use netrs_simcore::{SimDuration, SimRng};
use netrs_topology::{FatTree, HostId, Tier};

fn random_deployment(
    arity: u32,
    servers: usize,
    clients: usize,
    seed: u64,
) -> (FatTree, Vec<HostId>, Vec<HostId>) {
    let topo = FatTree::new(arity).unwrap();
    let mut rng = SimRng::from_seed(seed);
    let picks = rng.sample_indices(topo.num_hosts() as usize, servers + clients);
    let hosts: Vec<HostId> = picks.into_iter().map(|h| HostId(h as u32)).collect();
    let (s, c) = hosts.split_at(servers);
    (topo, s.to_vec(), c.to_vec())
}

#[test]
fn exact_plan_is_never_larger_than_greedy_across_seeds() {
    for seed in 0..5u64 {
        let (topo, servers, clients) = random_deployment(4, 5, 6, seed);
        let groups = TrafficGroups::rack_level(&topo, &clients);
        let rates: Vec<(HostId, f64)> = clients.iter().map(|&h| (h, 200.0)).collect();
        let traffic = TrafficMatrix::oracle(&topo, &groups, &rates, &servers);
        let mut cons = PlanConstraints::default();
        // Moderate capacity so consolidation is non-trivial.
        for sw in topo.switches() {
            cons.capacity_overrides.insert(sw.0, 900.0);
        }
        let p = PlacementProblem::new(&topo, &groups, &traffic, &cons);
        let greedy = p.solve_greedy();
        let exact = p.solve(PlanSolver::Exact { node_limit: 50_000 });
        assert!(exact.proven_optimal, "seed {seed}");
        assert!(
            exact.rsnodes().len() <= greedy.rsnodes().len(),
            "seed {seed}: exact {} > greedy {}",
            exact.rsnodes().len(),
            greedy.rsnodes().len()
        );
        // Both must satisfy the capacity constraint.
        for plan in [&greedy, &exact] {
            let mut load = std::collections::HashMap::new();
            for (&g, &sw) in &plan.assignment {
                *load.entry(sw).or_insert(0.0) += p.load_of(g);
            }
            for (sw, l) in load {
                assert!(
                    l <= p.capacity_of(sw) + 1e-6,
                    "seed {seed}: {sw} over capacity"
                );
            }
        }
    }
}

#[test]
fn plans_respect_the_hop_budget() {
    let (topo, servers, clients) = random_deployment(4, 5, 8, 3);
    let groups = TrafficGroups::rack_level(&topo, &clients);
    let rates: Vec<(HostId, f64)> = clients.iter().map(|&h| (h, 300.0)).collect();
    let traffic = TrafficMatrix::oracle(&topo, &groups, &rates, &servers);
    for budget in [0.0, 100.0, 5_000.0] {
        let cons = PlanConstraints {
            extra_hop_budget: Some(budget),
            ..PlanConstraints::default()
        };
        let p = PlacementProblem::new(&topo, &groups, &traffic, &cons);
        for solver in [PlanSolver::Greedy, PlanSolver::Exact { node_limit: 20_000 }] {
            let plan = p.solve(solver);
            let spent: f64 = plan
                .assignment
                .iter()
                .map(|(&g, &sw)| p.extra_hop_rate(g, sw))
                .sum();
            assert!(
                spent <= budget + 1e-6,
                "budget {budget}, solver {solver:?}: spent {spent}"
            );
        }
    }
}

#[test]
fn lp_relaxation_of_placement_is_feasible_and_bounds_plan_size() {
    let (topo, servers, clients) = random_deployment(8, 12, 24, 9);
    let groups = TrafficGroups::rack_level(&topo, &clients);
    let rates: Vec<(HostId, f64)> = clients.iter().map(|&h| (h, 150.0)).collect();
    let traffic = TrafficMatrix::oracle(&topo, &groups, &rates, &servers);
    let mut cons = PlanConstraints::default();
    for sw in topo.switches() {
        cons.capacity_overrides.insert(sw.0, 2_000.0);
    }
    let p = PlacementProblem::new(&topo, &groups, &traffic, &cons);
    let (ilp, _, _) = p.to_ilp(&BTreeSet::new());
    let lp = solve_lp(&ilp);
    assert_eq!(lp.status, LpStatus::Optimal);
    let plan = p.solve(PlanSolver::Auto { node_limit: 500 });
    assert!(plan.drs.is_empty());
    assert!(
        lp.objective <= plan.rsnodes().len() as f64 + 1e-6,
        "LP bound {} above plan size {}",
        lp.objective,
        plan.rsnodes().len()
    );
}

#[test]
fn monitored_traffic_agrees_with_oracle_shape() {
    // The oracle matrix and a matrix built from simulated monitor counts
    // must put each group's traffic in the same dominant tier.
    use netrs_netdev::Monitor;
    use netrs_wire::SourceMarker;

    let (topo, servers, clients) = random_deployment(4, 6, 4, 21);
    let groups = TrafficGroups::rack_level(&topo, &clients);
    let rates: Vec<(HostId, f64)> = clients.iter().map(|&h| (h, 1_000.0)).collect();
    let oracle = TrafficMatrix::oracle(&topo, &groups, &rates, &servers);

    // Simulate uniform responses from every server to every client.
    let controller = NetRsController::new(topo.clone(), ControllerConfig::default());
    let mut monitors: std::collections::HashMap<u32, Monitor> = groups
        .iter()
        .map(|info| {
            (
                info.tor.0,
                Monitor::new(controller.marker_of_rack(info.tor.0)),
            )
        })
        .collect();
    for info in groups.iter() {
        for &client in &info.hosts {
            let tor = topo.tor_of_host(client);
            for &server in &servers {
                let sm = SourceMarker {
                    pod: topo.pod_of_host(server) as u16,
                    rack: topo.rack_of_host(server) as u16,
                };
                for _ in 0..10 {
                    monitors.get_mut(&tor.0).unwrap().record(info.id, sm);
                }
            }
        }
    }
    let snaps: Vec<_> = monitors
        .values_mut()
        .map(|m| m.snapshot(netrs_simcore::SimTime::from_nanos(1_000_000_000)))
        .collect();
    let measured = TrafficMatrix::from_snapshots(groups.len(), &snaps).unwrap();

    for g in 0..groups.len() as u32 {
        let o = oracle.tier_rates(g);
        let m = measured.tier_rates(g);
        let dominant = |r: [f64; 3]| {
            (0..3)
                .max_by(|&a, &b| r[a].partial_cmp(&r[b]).unwrap())
                .unwrap()
        };
        assert_eq!(
            dominant(o),
            dominant(m),
            "group {g}: oracle {o:?} vs measured {m:?}"
        );
    }
}

#[test]
fn deployed_rules_route_every_group_to_a_live_operator() {
    let (topo, servers, clients) = random_deployment(8, 10, 30, 4);
    let groups = TrafficGroups::rack_level(&topo, &clients);
    let rates: Vec<(HostId, f64)> = clients.iter().map(|&h| (h, 100.0)).collect();
    let traffic = TrafficMatrix::oracle(&topo, &groups, &rates, &servers);
    let mut controller = NetRsController::new(topo.clone(), ControllerConfig::default());
    let plan = controller
        .plan(&groups, &traffic, PlanSolver::Auto { node_limit: 100 })
        .clone();
    let rules = controller.deploy(&groups);
    for info in groups.iter() {
        let tor = rules[&info.tor].tor.as_ref().expect("tor rules");
        let rid = tor.rsnode_of_group[&info.id];
        let sw = controller.switch_of_rsnode(rid).expect("legal id");
        assert_eq!(plan.assignment[&info.id], sw);
        // Candidate legality (the R matrix): the RSNode is the group's
        // ToR, an agg of its pod, or a core switch.
        match topo.tier(sw) {
            Tier::Tor => assert_eq!(sw, info.tor),
            Tier::Agg => assert_eq!(topo.pod_of_switch(sw), topo.pod_of_switch(info.tor)),
            Tier::Core => {}
        }
    }
}

/// A paper-scale placement instance: topology, groups, oracle traffic.
type Instance = (FatTree, TrafficGroups, TrafficMatrix);

/// The instance a default (16-ary, §V-A) NetRS-ILP run plans for at
/// deployment `seed`, with its finalized constraints, as the simulator
/// itself builds it.
fn paper_instance(seed: u64) -> (Instance, PlanConstraints) {
    let run = OraclePlacement::of(SimConfig {
        seed,
        ..SimConfig::default()
    });
    ((run.topo, run.groups, run.traffic), run.constraints)
}

/// The RSP-EX worked example of EXPERIMENTS.md (`repro rsp`, seed 2018):
/// one instance under the paper's constants, a tight hop budget, and
/// 15k-tasks/s accelerators.
fn rsp_ex_scenarios() -> (Instance, [(&'static str, PlanConstraints); 3]) {
    let (topo, servers, clients) = random_deployment(16, 100, 500, 2018);
    let groups = TrafficGroups::rack_level(&topo, &clients);
    let a = 90_000.0;
    let rates: Vec<(HostId, f64)> = clients
        .iter()
        .map(|&h| (h, a / clients.len() as f64))
        .collect();
    let traffic = TrafficMatrix::oracle(&topo, &groups, &rates, &servers);
    let with_budget = |share: f64| PlanConstraints {
        extra_hop_budget: Some(share * a),
        ..PlanConstraints::default()
    };
    let mut small_accelerators = with_budget(0.2);
    for sw in topo.switches() {
        small_accelerators.capacity_overrides.insert(sw.0, 15_000.0);
    }
    let scenarios = [
        ("paper constants", with_budget(0.2)),
        ("tight hop budget", with_budget(0.02)),
        ("15k accelerators", small_accelerators),
    ];
    ((topo, groups, traffic), scenarios)
}

/// FNV-1a over a plan's `(group, operator)` pairs and DRS set.
fn plan_digest(plan: &netrs::Rsp) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = plan
        .assignment
        .iter()
        .flat_map(|(&g, &sw)| [g, sw.0])
        .chain(plan.drs.iter().copied());
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn greedy_plans_are_pinned_at_paper_scale() {
    // Digests of the plans the per-call candidate enumeration produced
    // before candidate sets were cached per problem.
    let ((topo, groups, traffic), cons) = paper_instance(1);
    let p = PlacementProblem::new(&topo, &groups, &traffic, &cons);
    assert_eq!(
        plan_digest(&p.solve_greedy()),
        0x4cfb_a013_da26_f6dc,
        "paper config"
    );

    let ((topo, groups, traffic), scenarios) = rsp_ex_scenarios();
    let pinned = [
        0x81c5_03e4_86b7_5069u64,
        0x6e6e_de77_8891_7557,
        0x6cde_d154_b2e9_1e34,
    ];
    for ((name, cons), want) in scenarios.iter().zip(pinned) {
        let p = PlacementProblem::new(&topo, &groups, &traffic, cons);
        assert_eq!(plan_digest(&p.solve_greedy()), want, "{name}");
    }
}

#[test]
fn paper_config_is_proven_at_the_root_on_every_deployment() {
    for seed in 1..=10 {
        let ((topo, groups, traffic), cons) = paper_instance(seed);
        let p = PlacementProblem::new(&topo, &groups, &traffic, &cons);
        let (plan, stats) = p.solve_with_stats(PlanSolver::default());
        assert!(
            !stats.greedy,
            "seed {seed}: the greedy plan must come back proven, not as a fallback"
        );
        assert_eq!(stats.objective, 2.0, "seed {seed}");
        // The cover bound meets the greedy plan: no tableau is built.
        assert_eq!(stats.bound, 2.0, "seed {seed}: {stats:?}");
        assert_eq!(stats.lp_iterations, 0, "seed {seed}: {stats:?}");
        assert_eq!(stats.branch_nodes, 0, "seed {seed}: {stats:?}");
        assert!(plan.proven_optimal, "seed {seed}");
        assert_eq!(plan.rsnodes().len(), 2, "seed {seed}");
        assert_eq!(
            plan_digest(&plan),
            plan_digest(&p.solve_greedy()),
            "seed {seed}"
        );
    }
}

#[test]
fn cover_bound_never_exceeds_the_exact_optimum() {
    // Random instances where every rack fits at its own ToR (capacity at
    // least the heaviest group, and a ToR RSNode costs no extra hops), so
    // neither solver degrades a group and the objectives compare.
    let mut rng = SimRng::from_seed(30);
    let (mut by_bound, mut by_search) = (0, 0);
    for (arity, instances, servers, clients) in [(4, 24, 4, 6), (8, 8, 10, 12)] {
        for i in 0..instances {
            let (topo, servers, clients) =
                random_deployment(arity, servers, clients, rng.next_u64());
            let groups = TrafficGroups::rack_level(&topo, &clients);
            let rates: Vec<(HostId, f64)> = clients
                .iter()
                .map(|&h| (h, 50.0 + 450.0 * rng.f64()))
                .collect();
            let traffic = TrafficMatrix::oracle(&topo, &groups, &rates, &servers);
            let mut cons = PlanConstraints {
                extra_hop_budget: [Some(0.0), Some(200.0), Some(2_000.0), None][rng.index(4)],
                ..PlanConstraints::default()
            };
            let heaviest = (0..groups.len() as u32)
                .map(|g| traffic.group_total(g) * (1.0 + cons.response_load_factor))
                .fold(0.0, f64::max);
            for sw in topo.switches() {
                let cap = heaviest * (1.0 + 3.0 * rng.f64());
                cons.capacity_overrides.insert(sw.0, cap);
            }
            let p = PlacementProblem::new(&topo, &groups, &traffic, &cons);
            let at = format!("arity {arity} instance {i}");

            let load: f64 = (0..groups.len() as u32).map(|g| p.load_of(g)).sum();
            let cap = (0..groups.len() as u32)
                .flat_map(|g| p.candidates(g))
                .map(|&sw| p.capacity_of(sw))
                .fold(0.0, f64::max);
            let cover = (load / cap - 1e-6).ceil().max(1.0);

            let (exact, exact_stats) = p.solve_with_stats(PlanSolver::Exact { node_limit: 10_000 });
            let (auto, auto_stats) = p.solve_with_stats(PlanSolver::default());
            assert!(exact.drs.is_empty() && auto.drs.is_empty(), "{at}");
            assert!(!auto_stats.greedy, "{at}: {auto_stats:?}");
            if exact.proven_optimal {
                assert!(
                    cover <= exact_stats.objective + 1e-9,
                    "{at}: cover bound {cover} above the optimum {}",
                    exact_stats.objective
                );
            }
            if auto.proven_optimal {
                let matches = if exact.proven_optimal {
                    auto_stats.objective == exact_stats.objective
                } else {
                    auto_stats.objective <= exact_stats.objective
                };
                assert!(matches, "{at}: auto {auto_stats:?} exact {exact_stats:?}");
            }
            if auto_stats.lp_iterations == 0 {
                // Proven by the bound alone.
                assert!(auto.proven_optimal, "{at}");
                assert_eq!(auto_stats.bound, cover, "{at}");
                assert_eq!(plan_digest(&auto), plan_digest(&p.solve_greedy()), "{at}");
                by_bound += 1;
            } else {
                by_search += 1;
            }
        }
    }
    assert!(by_bound > 0 && by_search > 0, "{by_bound} / {by_search}");
}

#[test]
fn rsp_ex_objectives_and_effort_do_not_regress() {
    let ((topo, groups, traffic), scenarios) = rsp_ex_scenarios();
    // Objective caps are the plans of the parent search; iteration caps
    // hold the branching path to a third of its 73 299. The paper
    // constants' greedy plan meets the cover bound and builds no tableau;
    // the third scenario's model is past Auto's size cut-off and stays
    // greedy.
    let caps = [(2.0, 0), (42.0, 24_000), (13.0, 0)];
    let mut effort = Vec::new();
    for ((name, cons), (at_most, max_iterations)) in scenarios.iter().zip(caps) {
        let p = PlacementProblem::new(&topo, &groups, &traffic, cons);
        let (plan, stats) = p.solve_with_stats(PlanSolver::Auto { node_limit: 50 });
        println!("{name}: {stats:?} census {:?}", plan.tier_census(&topo));
        assert!(plan.drs.is_empty(), "{name}");
        assert!(
            stats.objective <= at_most,
            "{name}: objective {} above {at_most}",
            stats.objective
        );
        assert_eq!(plan.rsnodes().len() as f64, stats.objective, "{name}");
        assert!(stats.lp_iterations <= max_iterations, "{name}: {stats:?}");
        effort.push(stats);
    }
    // The tight hop budget leaves greedy at 42 against a cover bound of 2:
    // the search runs, and its root bound is the one reported.
    assert!(effort[1].lp_iterations > 0, "{:?}", effort[1]);
    assert_eq!(effort[1].bound, 8.0, "{:?}", effort[1]);
}

/// A `Write` sink the test can read back after the run consumed the box.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    fn lines(&self) -> Vec<String> {
        let bytes = self.0.lock().unwrap();
        let text = std::str::from_utf8(&bytes).expect("JSONL is UTF-8");
        text.lines().map(str::to_owned).collect()
    }
}

/// What a `PlanSource::Monitored` run measured and decided.
struct MonitoredRun {
    groups: TrafficGroups,
    snapshots: Vec<SnapshotRecord>,
    replans: Vec<PlanEventRecord>,
    stats: RunStats,
}

/// Runs `cfg` under NetRS-ILP re-planned from its monitors every
/// `interval_ms`, and checks the two laws of monitor accounting on the
/// way out: a ToR's monitor counts only traffic groups homed at that ToR,
/// and each window's counts, summed over the monitors, are the reads that
/// first completed in the window — nothing dropped, nothing counted twice.
fn monitored_run(mut cfg: SimConfig, interval_ms: u64) -> MonitoredRun {
    cfg.scheme = Scheme::NetRsIlp;
    cfg.plan_source = PlanSource::Monitored {
        interval: SimDuration::from_millis(interval_ms),
    };
    let groups = OraclePlacement::of(cfg.clone()).groups;
    let (trace, control) = (SharedBuf::default(), SharedBuf::default());
    let out = run_observed(
        cfg,
        ObsOptions {
            trace: Some(Box::new(trace.clone())),
            control: Some(Box::new(control.clone())),
            ..ObsOptions::default()
        },
    );
    let mut snapshots = Vec::new();
    let mut replans = Vec::new();
    for line in control.lines() {
        match serde_json::from_str(&line).expect("control line parses") {
            ControlRecord::Snapshot(s) => snapshots.push(s),
            ControlRecord::Plan(p) if p.trigger == "replan" => replans.push(p),
            _ => {}
        }
    }
    assert!(!snapshots.is_empty(), "the run must outlast one interval");

    for snap in &snapshots {
        for g in &snap.groups {
            assert!(
                (g.group as usize) < groups.len(),
                "ToR {} counted under id {}, which is no traffic group",
                snap.tor,
                g.group
            );
            assert_eq!(
                groups.info(g.group).tor.0,
                snap.tor,
                "ToR {} counted group {}, homed elsewhere",
                snap.tor,
                g.group
            );
        }
    }

    let mut first_reads: Vec<u64> = trace
        .lines()
        .iter()
        .map(|l| serde_json::from_str::<TraceRecord>(l).expect("trace line parses"))
        .filter(|r| r.first && !r.write)
        .map(|r| r.received_ns)
        .collect();
    first_reads.sort_unstable();
    let window_ends: BTreeSet<u64> = snapshots.iter().map(|s| s.to_ns).collect();
    let mut counted = 0u64;
    for end in window_ends {
        counted += snapshots
            .iter()
            .filter(|s| s.to_ns == end)
            .flat_map(|s| &s.groups)
            .map(|g| g.counts.iter().sum::<u64>())
            .sum::<u64>();
        // A response landing on the snapshot instant itself falls on
        // either side, by event order.
        let before = first_reads.partition_point(|&t| t < end) as u64;
        let through = first_reads.partition_point(|&t| t <= end) as u64;
        assert!(
            (before..=through).contains(&counted),
            "monitors counted {counted} responses up to {end} ns, \
             {before}..={through} reads first-completed by then"
        );
    }
    MonitoredRun {
        groups,
        snapshots,
        replans,
        stats: out.stats,
    }
}

#[test]
fn monitors_count_each_first_read_once_under_its_own_group() {
    // The golden `netrs-ilp-monitored` deployment.
    let run = monitored_run(
        SimConfig {
            seed: 7,
            ..SimConfig::small()
        },
        500,
    );
    assert_eq!(run.stats.replans, 1);
    assert_eq!(run.replans.len(), 1);
}

#[test]
fn monitored_replans_reach_the_oracle_plan_at_paper_scale() {
    // At paper scale every rack group sends enough in 200 ms for the
    // measured rates to sit close to the analytic ones, so the control
    // loop must end up where the oracle starts: same instance, same
    // number of RSNodes, accelerators inside their utilization cap.
    let cfg = SimConfig {
        requests: 60_000,
        ..SimConfig::default()
    };
    let oracle = OraclePlacement::of(cfg.clone());
    let (_, want) = PlacementProblem::new(
        &oracle.topo,
        &oracle.groups,
        &oracle.traffic,
        &oracle.constraints,
    )
    .solve_with_stats(cfg.plan_solver);
    assert_eq!((want.variables, want.constraints), (1_769, 641));

    let run = monitored_run(cfg, 200);
    let first_window: Vec<&SnapshotRecord> =
        run.snapshots.iter().filter(|s| s.from_ns == 0).collect();
    assert_eq!(first_window.len(), run.groups.len(), "one monitor per rack");
    for snap in first_window {
        assert_eq!(
            snap.groups.len(),
            1,
            "ToR {}: one key per monitor",
            snap.tor
        );
    }
    assert!(run.replans.len() >= 2, "{} re-plans", run.replans.len());
    for plan in &run.replans {
        let solve = plan.solve.as_ref().expect("a re-plan solves");
        assert_eq!(
            (solve.variables, solve.constraints),
            (want.variables as u64, want.constraints as u64),
            "re-plan at {} ns solved another instance than the oracle's",
            plan.t_ns
        );
        assert_eq!(solve.objective, want.objective, "at {} ns", plan.t_ns);
        assert_eq!(f64::from(plan.rsnodes), want.objective);
        assert_eq!(plan.drs_groups, 0);
    }
    // End-of-run utilization is busy time over the whole run, bootstrap
    // window included, so it may not exceed the cap the planner was given
    // by more than measurement noise: 5 points of slack.
    let cap = oracle.constraints.max_utilization;
    assert!(
        run.stats.max_accel_utilization <= cap + 0.05,
        "an accelerator ran at {:.1} % against a {:.0} % cap",
        100.0 * run.stats.max_accel_utilization,
        100.0 * cap
    );
}
