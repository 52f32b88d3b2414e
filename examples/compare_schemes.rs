//! Compare all four replica-selection schemes of the paper (Fig. 4's
//! 500-client column, scaled down to run in seconds).
//!
//! Run with:
//! ```text
//! cargo run --release --example compare_schemes
//! ```

use netrs_sim::{run_sweep, Scheme, SimConfig, SweepJob, SweepPoint};

fn main() {
    let mut cfg = SimConfig::small();
    cfg.arity = 8; // 128 hosts
    cfg.servers = 24;
    cfg.clients = 64;
    cfg.generators = 16;
    cfg.requests = 60_000;
    cfg.utilization = 0.9;

    println!(
        "comparing schemes: {} servers, {} clients, {:.0} req/s, {} requests\n",
        cfg.servers,
        cfg.clients,
        cfg.arrival_rate(),
        cfg.requests
    );
    println!(
        "{:<12} {:>9} {:>9} {:>9} {:>9} {:>8} {:>7}",
        "scheme", "mean(ms)", "p95(ms)", "p99(ms)", "p99.9", "rsnodes", "dups"
    );

    let point = SweepPoint {
        label: String::new(),
        config: cfg,
    };
    let seeds = [1, 2, 3];
    let report = run_sweep(SweepJob::grid(&[point], &Scheme::ALL, &seeds), 0, false);
    for scheme in Scheme::ALL {
        let m = report.mean(scheme.label(), &seeds);
        println!(
            "{:<12} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>8.1} {:>7.0}",
            scheme.label(),
            m.mean_ms,
            m.p95_ms,
            m.p99_ms,
            m.p999_ms,
            m.rsnodes,
            m.duplicates
        );
    }

    println!("\n(The paper's ordering: NetRS-ILP < NetRS-ToR < CliRS in latency,");
    println!(" with CliRS-R95 degrading at high utilization.)");
}
