//! `simulate` — run one NetRS experiment from the command line.
//!
//! ```text
//! # paper-scale NetRS-ILP run, 100k requests
//! cargo run --release -p netrs-sim --bin simulate -- --scheme netrs-ilp --requests 100000
//!
//! # emit the full §V-A default configuration for editing
//! cargo run --release -p netrs-sim --bin simulate -- --emit-config > cfg.json
//!
//! # run an edited configuration
//! cargo run --release -p netrs-sim --bin simulate -- --config cfg.json --json
//! ```
//!
//! The config is one base (the paper's, `--small` or `--config FILE`)
//! with every other config flag applied over it; flag order does not
//! matter ([`netrs_sim::cli`]).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::num::{NonZeroU32, NonZeroU64};

use netrs_sim::cli::{Cli, CliError, SIMULATE, SWEEP};
use netrs_sim::{
    run_observed_sharded_parallel, run_sweep, ObsOptions, ParallelOptions, PerfOptions,
    SamplerSpec, Scheme, SimConfig, SweepJob, SweepPoint,
};
use netrs_simcore::SimDuration;

// With `--features alloc-profile` the binary registers the counting
// allocator, so `--perf` profiles gain per-run allocation counters.
// (The crate-level `forbid(unsafe_code)` applies to the library target;
// this registration is safe code — the unsafe impl lives in
// netrs-allocprobe.)
#[cfg(feature = "alloc-profile")]
#[global_allocator]
static ALLOC: netrs_allocprobe::CountingAllocator = netrs_allocprobe::CountingAllocator;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((sub, rest)) if sub == "sweep" => sweep(rest),
        _ => simulate(&args),
    }
    .unwrap_or_else(|e| e.exit());
}

/// The run's config over the paper's or `--small`'s, both at 100 000
/// requests unless `--requests` says otherwise.
fn cli_config(cli: &Cli) -> Result<SimConfig, CliError> {
    let at = |cfg| SimConfig {
        requests: 100_000,
        ..cfg
    };
    cli.config(at(SimConfig::paper()), at(SimConfig::small()))
}

/// `simulate sweep`: run a (scheme × seed) grid across cores and write
/// the merged [`netrs_sim::SweepReport`] artifact.
fn sweep(args: &[String]) -> Result<(), CliError> {
    let cli = Cli::parse(args, &SWEEP)?;
    let config = cli_config(&cli)?;
    let schemes: Vec<Scheme> = match cli.str("--schemes") {
        None | Some("all") => Scheme::ALL.to_vec(),
        Some(_) => cli.list("--schemes")?.unwrap_or_default(),
    };
    let seeds = cli.list("--seeds")?.unwrap_or_else(|| vec![1, 2, 3]);
    let point = SweepPoint {
        label: String::new(),
        config,
    };
    let jobs = SweepJob::grid(&[point], &schemes, &seeds);
    eprintln!(
        "[sweep] {} cells ({} schemes × {} seeds)",
        jobs.len(),
        schemes.len(),
        seeds.len(),
    );
    let threads = cli.get("--threads")?.unwrap_or(0);
    let report = run_sweep(jobs, threads, cli.has("--baseline"));
    eprintln!(
        "[sweep] parallel {:.2}s on {} threads{}",
        report.wall_s,
        report.threads,
        match (report.sequential_wall_s, report.speedup) {
            (Some(seq), Some(s)) => format!(" · sequential {seq:.2}s · speedup {s:.2}x"),
            _ => String::new(),
        },
    );
    let json = serde_json::to_string_pretty(&report).expect("sweep report serializes");
    match cli.str("--out") {
        Some(path) => std::fs::write(path, json + "\n")
            .map_err(|e| CliError::invalid(format!("cannot write {path}: {e}"))),
        None => {
            println!("{json}");
            Ok(())
        }
    }
}

fn simulate(args: &[String]) -> Result<(), CliError> {
    let cli = Cli::parse(args, &SIMULATE)?;
    let cfg = cli_config(&cli)?;
    if cli.has("--emit-config") {
        let json = serde_json::to_string_pretty(&cfg).expect("config serializes");
        println!("{json}");
        return Ok(());
    }
    let shards: u32 = cli.get("--shards")?.unwrap_or(1);
    let par = ParallelOptions {
        threads: cli.get("--threads")?.unwrap_or(1),
        lookahead_mult: cli.get("--lookahead-mult")?.map_or(1, NonZeroU32::get),
    };
    let sample_every = cli
        .get("--sample-every-us")?
        .map_or(10_000, NonZeroU64::get);
    let perf_stride = cli.get("--perf-stride")?.map(NonZeroU32::get);
    // Open every output file before the run so a bad path fails in
    // milliseconds, not after minutes of simulation.
    let open = |flag| {
        let create = |path| match File::create(path) {
            Ok(file) => Ok((path, BufWriter::new(file))),
            Err(e) => Err(CliError::invalid(format!("cannot create {path}: {e}"))),
        };
        cli.str(flag).map(create).transpose()
    };
    let mut timeseries_file = open("--timeseries")?;
    let mut devices_file = open("--devices")?;
    let mut perf_file = open("--perf")?;
    let obs = ObsOptions {
        trace: open("--trace")?.map(|(_, w)| Box::new(w) as _),
        trace_hops: cli.has("--trace-hops"),
        timeseries: timeseries_file.as_ref().map(|_| SamplerSpec {
            interval: SimDuration::from_micros(sample_every),
            ..SamplerSpec::default()
        }),
        device_stats: devices_file.is_some(),
        control: open("--control")?.map(|(_, w)| Box::new(w) as _),
        perf: perf_file.as_ref().map(|_| PerfOptions {
            stride: perf_stride.unwrap_or(PerfOptions::default().stride),
        }),
        progress: cli.has("--progress"),
    };
    let out = run_observed_sharded_parallel(cfg, shards, par, obs);
    if let Some(reason) = out.shards_not_applied {
        eprintln!("--shards {shards} not applied: {reason}; sequential engine");
    }
    let stats = out.stats;
    let written = |path: &str, r: std::io::Result<()>| {
        r.map_err(|e| CliError::invalid(format!("cannot write {path}: {e}")))
    };
    if let (Some((path, w)), Some(perf)) = (perf_file.as_mut(), out.perf.as_ref()) {
        let json = serde_json::to_string_pretty(perf).expect("perf profile serializes");
        written(path, writeln!(w, "{json}"))?;
        eprintln!(
            "perf: {} events · {:.1}% of wall attributed across {} kinds · stride {}",
            perf.events,
            if perf.wall_s > 0.0 {
                perf.attributed_ns as f64 / (perf.wall_s * 1e9) * 100.0
            } else {
                0.0
            },
            perf.kinds.iter().filter(|k| k.count > 0).count(),
            perf.stride,
        );
    }
    if let (Some((path, w)), Some(ts)) = (timeseries_file.as_mut(), out.timeseries.as_ref()) {
        written(path, ts.write_jsonl(w))?;
    }
    if let (Some((path, w)), Some(report)) = (devices_file.as_mut(), out.devices.as_ref()) {
        written(path, report.write_jsonl(w))?;
    }
    if cli.has("--json") {
        // Keep stdout pure JSON; the profile goes to stderr.
        eprintln!("engine: {}", out.profile);
        println!(
            "{}",
            serde_json::to_string_pretty(&stats).expect("stats serialize")
        );
    } else {
        println!("scheme              : {}", stats.scheme);
        println!(
            "requests            : {} issued, {} completed",
            stats.issued, stats.completed
        );
        println!("mean latency        : {}", stats.latency.mean);
        println!("median              : {}", stats.latency.p50);
        println!("95th percentile     : {}", stats.latency.p95);
        println!("99th percentile     : {}", stats.latency.p99);
        println!("99.9th percentile   : {}", stats.latency.p999);
        let b = &stats.breakdown;
        if b.count > 0 {
            println!(
                "latency breakdown   : network {} · selection {} · server queue {} · service {}",
                b.network.mean, b.selection.mean, b.server_queue.mean, b.service.mean
            );
        }
        if stats.rsnode_count > 0 {
            println!(
                "RSNodes             : {} (core/agg/tor = {:?}), {} DRS groups",
                stats.rsnode_count, stats.rsnode_census, stats.drs_groups
            );
            println!(
                "accelerator util    : {:.1}% mean / {:.1}% max, mean wait {}",
                stats.mean_accel_utilization * 100.0,
                stats.max_accel_utilization * 100.0,
                stats.mean_selection_wait
            );
        }
        if stats.duplicates > 0 {
            println!("redundant copies    : {}", stats.duplicates);
        }
        if stats.writes_issued > 0 {
            println!(
                "writes              : {} (mean {})",
                stats.writes_issued, stats.write_latency.mean
            );
        }
        if let Some(rw) = stats.rw.as_ref() {
            let gets = rw.cache_hits + rw.cache_misses;
            let ratio = if gets > 0 {
                rw.cache_hits as f64 / gets as f64 * 100.0
            } else {
                0.0
            };
            println!(
                "rw                  : {} writes committed · cache {}/{} hits ({ratio:.1}%) · {} stale · {} evicted · {} invalidated",
                rw.writes_completed,
                rw.cache_hits,
                gets,
                rw.stale_reads,
                rw.cache_evictions,
                rw.cache_invalidations
            );
        }
        if let Some(a) = stats.availability.as_ref() {
            println!(
                "availability        : {} fault(s), {} timeouts, {} retries, {} copies dropped",
                a.faults_injected, a.timeouts, a.retries, a.copies_dropped
            );
            println!("failed-window p99   : {}", a.failed_window_p99);
            match a.time_to_recover {
                Some(t) => println!("time to recover     : {t}"),
                None => println!("time to recover     : never (run ended degraded)"),
            }
        }
        println!(
            "server utilization  : {:.1}%",
            stats.mean_server_utilization * 100.0
        );
        if let Some(p) = stats.parallel.as_ref() {
            println!(
                "parallel            : {} shards · {} windows · {} mailbox posts ({} late)",
                p.shards, p.windows, p.mailbox_posted, p.mailbox_late
            );
        }
        println!(
            "events              : {} over {} simulated",
            stats.events, stats.sim_end
        );
        println!("engine              : {}", out.profile);
        if let Some(ts) = out.timeseries.as_ref() {
            println!(
                "timeseries          : {} samples retained ({} taken)",
                ts.len(),
                ts.accel_util.total_pushed()
            );
        }
    }
    Ok(())
}
