//! Solve the RSNode placement ILP of §III-B at the paper's scale and
//! print the resulting Replica Selection Plan.
//!
//! This reproduces the paper's worked RSP example ("an RSP from NetRS-ILP
//! consists of 6 RSNodes on aggregation switches and 1 RSNode on a core
//! switch") under capacity settings that make aggregation placement
//! attractive, and shows how the plan shape responds to the constraints.
//!
//! Run with:
//! ```text
//! cargo run --release --example placement_planner
//! ```

use netrs::{PlacementProblem, PlanConstraints, PlanSolver, TrafficGroups, TrafficMatrix};
use netrs_simcore::SimRng;
use netrs_topology::{FatTree, HostId};

fn main() {
    // The paper's network: a 16-ary fat-tree with 1024 hosts; 100 servers
    // and 500 clients placed at random.
    let topo = FatTree::new(16).expect("even arity");
    let mut rng = SimRng::from_seed(2018);
    let picks = rng.sample_indices(topo.num_hosts() as usize, 600);
    let hosts: Vec<HostId> = picks.into_iter().map(|h| HostId(h as u32)).collect();
    let (server_hosts, client_hosts) = hosts.split_at(100);

    let groups = TrafficGroups::rack_level(&topo, client_hosts);
    // A = 90% utilization of 100 servers x 4 slots / 4ms = 90k req/s.
    let a = 90_000.0;
    let rates: Vec<(HostId, f64)> = client_hosts
        .iter()
        .map(|&h| (h, a / client_hosts.len() as f64))
        .collect();
    let traffic = TrafficMatrix::oracle(&topo, &groups, &rates, server_hosts);

    println!(
        "topology: 16-ary fat-tree, {} switches, {} traffic groups, A = {:.0} req/s\n",
        topo.num_switches(),
        groups.len(),
        traffic.total()
    );

    let scenarios: [(&str, PlanConstraints); 3] = [
        (
            "paper constants (U=50%, E=20%A, dedicated accelerators)",
            PlanConstraints {
                extra_hop_budget: Some(0.2 * a),
                ..PlanConstraints::default()
            },
        ),
        ("shared accelerators (~15k tasks/s each), E=20%A", {
            let mut c = PlanConstraints {
                extra_hop_budget: Some(0.2 * a),
                ..PlanConstraints::default()
            };
            for sw in topo.switches() {
                c.capacity_overrides.insert(sw.0, 15_000.0);
            }
            c
        }),
        (
            "tight hop budget (E=2%A)",
            PlanConstraints {
                extra_hop_budget: Some(0.02 * a),
                ..PlanConstraints::default()
            },
        ),
    ];

    for (name, cons) in scenarios {
        let problem = PlacementProblem::new(&topo, &groups, &traffic, &cons);
        let rsp = problem.solve(PlanSolver::Auto { node_limit: 50 });
        let census = rsp.tier_census(&topo);
        println!("scenario: {name}");
        println!(
            "  RSNodes: {} total -> {} core, {} agg, {} tor{}",
            rsp.rsnodes().len(),
            census[0],
            census[1],
            census[2],
            if rsp.proven_optimal {
                " (proven optimal)"
            } else {
                " (anytime solution)"
            }
        );
        if !rsp.drs.is_empty() {
            println!(
                "  {} groups degraded to client-side backup (DRS)",
                rsp.drs.len()
            );
        }
        println!();
    }
}
