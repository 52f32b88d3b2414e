//! Behavioural comparisons between schemes: the directional claims of the
//! paper's evaluation must hold in miniature (deterministic seeds).

use netrs_sim::{run, run_sweep, Scheme, SimConfig, SweepJob, SweepPoint};

/// A mid-size cluster big enough for scheme differences to show.
fn base() -> SimConfig {
    let mut cfg = SimConfig::small();
    cfg.arity = 8;
    cfg.servers = 24;
    cfg.clients = 64;
    cfg.generators = 16;
    cfg.requests = 25_000;
    cfg.utilization = 0.9;
    cfg.seed = 1;
    cfg
}

fn mean_of(scheme: Scheme) -> f64 {
    let point = SweepPoint {
        label: String::new(),
        config: base(),
    };
    let report = run_sweep(SweepJob::grid(&[point], &[scheme], &[1, 2]), 0, false);
    report.mean(scheme.label(), &[1, 2]).mean_ms
}

#[test]
fn netrs_ilp_beats_clirs_in_mean_latency() {
    let clirs = mean_of(Scheme::CliRs);
    let ilp = mean_of(Scheme::NetRsIlp);
    assert!(
        ilp < clirs,
        "paper's headline: NetRS-ILP ({ilp:.3} ms) must beat CliRS ({clirs:.3} ms)"
    );
}

#[test]
fn netrs_ilp_beats_netrs_tor() {
    let tor = mean_of(Scheme::NetRsToR);
    let ilp = mean_of(Scheme::NetRsIlp);
    assert!(
        ilp < tor,
        "the ILP placement ({ilp:.3} ms) must beat one-RSNode-per-rack ({tor:.3} ms)"
    );
}

#[test]
fn ilp_uses_fewer_rsnodes_than_tor() {
    let mut tor_cfg = base();
    tor_cfg.scheme = Scheme::NetRsToR;
    let mut ilp_cfg = base();
    ilp_cfg.scheme = Scheme::NetRsIlp;
    let tor = run(tor_cfg);
    let ilp = run(ilp_cfg);
    assert!(
        ilp.rsnode_count < tor.rsnode_count,
        "ILP consolidates RSNodes: {} vs {}",
        ilp.rsnode_count,
        tor.rsnode_count
    );
}

#[test]
fn latency_grows_with_utilization() {
    // Fig. 6's x-axis: higher system utilization → higher latency. We
    // assert it for the schemes whose RSNodes see partial traffic
    // (NetRS-ILP's aggregated view makes it nearly flat in our model —
    // see EXPERIMENTS.md).
    for scheme in [Scheme::CliRs, Scheme::CliRsR95, Scheme::NetRsToR] {
        let mut lows = base();
        lows.scheme = scheme;
        lows.utilization = 0.3;
        lows.requests = 40_000;
        let mut highs = lows.clone();
        highs.utilization = 0.95;
        let low = run(lows).latency.mean;
        let high = run(highs).latency.mean;
        assert!(
            low < high,
            "{scheme}: mean at 30% util ({low}) must be below 95% util ({high})"
        );
    }
}

#[test]
fn r95_wins_the_tail_at_low_utilization_only() {
    // Fig. 6 observation (iii): redundant requests cut tail latency when
    // utilization is low, but stop paying at high utilization.
    let mut r95_low = base();
    r95_low.scheme = Scheme::CliRsR95;
    r95_low.utilization = 0.3;
    r95_low.requests = 40_000;
    let mut clirs_low = r95_low.clone();
    clirs_low.scheme = Scheme::CliRs;
    let r95 = run(r95_low).latency.p99;
    let clirs = run(clirs_low).latency.p99;
    assert!(
        r95 < clirs,
        "at 30% util R95 p99 ({r95}) must beat CliRS p99 ({clirs})"
    );

    let mut r95_high = base();
    r95_high.scheme = Scheme::CliRsR95;
    r95_high.utilization = 0.95;
    r95_high.requests = 40_000;
    let mut clirs_high = r95_high.clone();
    clirs_high.scheme = Scheme::CliRs;
    let r95 = run(r95_high).latency.mean;
    let clirs = run(clirs_high).latency.mean;
    assert!(
        r95 > clirs,
        "at 95% util R95 mean ({r95}) must degrade past CliRS ({clirs})"
    );
}

#[test]
fn faster_servers_mean_lower_latency() {
    // Fig. 7's x-axis: shorter service times → shorter latencies.
    let mut fast = base();
    fast.scheme = Scheme::NetRsIlp;
    fast.server.base_service_time = netrs_simcore::SimDuration::from_micros(500);
    let mut slow = base();
    slow.scheme = Scheme::NetRsIlp;
    slow.server.base_service_time = netrs_simcore::SimDuration::from_millis(4);
    let f = run(fast).latency.mean;
    let s = run(slow).latency.mean;
    assert!(f < s, "0.5ms service ({f}) must beat 4ms service ({s})");
}

#[test]
fn demand_skew_runs_and_preserves_completion() {
    for skew in [0.7, 0.95] {
        let mut cfg = base();
        cfg.scheme = Scheme::NetRsIlp;
        cfg.demand_skew = Some(skew);
        cfg.requests = 10_000;
        let stats = run(cfg);
        assert_eq!(stats.completed, 10_000, "skew {skew}");
    }
}
