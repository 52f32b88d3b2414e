//! Time the one-time set-up of a paper-scale NetRS-ILP run, phase by
//! phase, in-process: the consistent-hash ring, the traffic groups, the
//! oracle traffic matrix, the placement problem, the greedy plan, the ILP
//! model and the whole solve (greedy, model and cover-bound proof).
//!
//! Each phase is run 41 times and its median printed, so a one-off page
//! fault or timer tick does not decide the number. The public calls are
//! the ones the simulator makes, so the same file builds against older
//! checkouts for a before/after table.
//!
//! Run with:
//! ```text
//! cargo run --release --example setup_phases
//! ```

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use netrs::{PlacementProblem, PlanSolver, TrafficGroups, TrafficMatrix};
use netrs_kvstore::Ring;
use netrs_sim::SimConfig;
use netrs_simcore::SimRng;
use netrs_topology::{FatTree, HostId};

/// Median wall time of `f` over 41 calls, in milliseconds.
fn median_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut ms: Vec<f64> = (0..41)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}

fn main() {
    // The paper configuration (16-ary fat-tree, 100 servers, 500
    // clients, 64 vnodes, replication 3) on a random host placement.
    let cfg = SimConfig::default().finalize();
    let topo = FatTree::new(cfg.arity).expect("even arity");
    let mut rng = SimRng::from_seed(cfg.seed);
    let picks = rng.sample_indices(
        topo.num_hosts() as usize,
        (cfg.servers + cfg.clients) as usize,
    );
    let hosts: Vec<HostId> = picks.into_iter().map(|h| HostId(h as u32)).collect();
    let (servers, clients) = hosts.split_at(cfg.servers as usize);
    let rate = cfg.arrival_rate() / f64::from(cfg.clients);
    let rates: Vec<(HostId, f64)> = clients.iter().map(|&h| (h, rate)).collect();

    let groups = TrafficGroups::build(&topo, clients, cfg.granularity);
    let traffic = TrafficMatrix::oracle(&topo, &groups, &rates, servers);
    let problem = PlacementProblem::new(&topo, &groups, &traffic, &cfg.plan);
    let phases = [
        (
            "ring",
            median_ms(|| Ring::new(cfg.servers, cfg.vnodes, cfg.replication, 1)),
        ),
        (
            "groups",
            median_ms(|| TrafficGroups::build(&topo, clients, cfg.granularity)),
        ),
        (
            "oracle",
            median_ms(|| TrafficMatrix::oracle(&topo, &groups, &rates, servers)),
        ),
        (
            "problem",
            median_ms(|| PlacementProblem::new(&topo, &groups, &traffic, &cfg.plan).load_of(0)),
        ),
        ("greedy", median_ms(|| problem.solve_greedy())),
        ("to_ilp", median_ms(|| problem.to_ilp(&BTreeSet::new()))),
        (
            "solve",
            median_ms(|| problem.solve_with_stats(PlanSolver::default())),
        ),
    ];
    println!(
        "{} groups, {} candidate pairs; median of 41 calls:",
        groups.len(),
        (0..groups.len() as u32)
            .map(|g| problem.candidates(g).len())
            .sum::<usize>()
    );
    for (name, ms) in phases {
        println!("  {name:<8} {ms:>8.3} ms");
    }
}
