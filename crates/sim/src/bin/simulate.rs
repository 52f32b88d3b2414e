//! `simulate` — run one NetRS experiment from the command line.
//!
//! ```text
//! # paper-scale CliRS run, 100k requests
//! cargo run --release -p netrs-sim --bin simulate -- --scheme netrs-ilp --requests 100000
//!
//! # emit the full §V-A default configuration for editing
//! cargo run --release -p netrs-sim --bin simulate -- --emit-config > cfg.json
//!
//! # run an edited configuration
//! cargo run --release -p netrs-sim --bin simulate -- --config cfg.json --json
//! ```

use std::fs::File;
use std::io::BufWriter;

use netrs_sim::{
    run_observed_sharded_parallel, run_sweep, CacheAdmission, CacheWritePolicy, FaultPlan,
    HotCacheConfig, ObsOptions, ParallelOptions, PerfOptions, SamplerSpec, Scheme, SimConfig,
    SweepJob, SweepPoint, WriteConsistency,
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

fn usage() -> ! {
    eprintln!(
        "usage: simulate [--config FILE] [--scheme clirs|clirs-r95|netrs-tor|netrs-ilp] \
         [--requests N] [--clients N] [--utilization F] [--skew F] [--seed N] \
         [--shards N] [--threads N] [--lookahead-mult N] [--small] [--faults FILE] \
         [--emit-config] [--json] \
         [--write-fraction F] [--consistency all|quorum:W|chain] [--hot-cache CAP] \
         [--cache-admission lru|freq:N] [--cache-write invalidate|through] \
         [--trace FILE] [--trace-hops] [--timeseries FILE] [--sample-every-us N] \
         [--devices FILE] [--control FILE] [--perf FILE] [--perf-stride N] [--progress]\n\
         \n\
         simulate sweep --out FILE [--config FILE] [--schemes all|s1,s2,...] \
         [--seeds s1,s2,...] [--requests N] [--utilization F] [--small] \
         [--threads N] [--baseline]"
    );
    std::process::exit(2);
}

fn parse_consistency(spec: &str) -> Option<WriteConsistency> {
    match spec {
        "all" => Some(WriteConsistency::All),
        "chain" => Some(WriteConsistency::Chain),
        _ => {
            let w = spec.strip_prefix("quorum:")?.parse().ok()?;
            Some(WriteConsistency::Quorum { w })
        }
    }
}

fn parse_admission(spec: &str) -> Option<CacheAdmission> {
    match spec {
        "lru" => Some(CacheAdmission::Lru),
        _ => {
            let threshold = spec.strip_prefix("freq:")?.parse().ok()?;
            Some(CacheAdmission::Frequency { threshold })
        }
    }
}

fn create(path: &str) -> BufWriter<File> {
    BufWriter::new(File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create {path}: {e}");
        std::process::exit(1);
    }))
}

/// `simulate sweep`: run a (scheme × seed) grid across cores and write
/// the merged [`netrs_sim::SweepReport`] artifact.
fn sweep_main(args: &[String]) -> ! {
    let mut cfg = SimConfig::paper();
    cfg.requests = 100_000;
    let mut out_path: Option<String> = None;
    let mut schemes: Vec<Scheme> = Scheme::ALL.to_vec();
    let mut seeds: Vec<u64> = vec![1, 2, 3];
    let mut threads: usize = 0;
    let mut baseline = false;

    let mut i = 0;
    while i < args.len() {
        let arg = args[i].clone();
        let mut next = || {
            i += 1;
            args.get(i).cloned().unwrap_or_else(|| usage())
        };
        match arg.as_str() {
            "--out" => out_path = Some(next()),
            "--config" => {
                let path = next();
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(1);
                });
                cfg = serde_json::from_str(&text).unwrap_or_else(|e| {
                    eprintln!("cannot parse {path}: {e}");
                    std::process::exit(1);
                });
            }
            "--schemes" => {
                let spec = next();
                if spec != "all" {
                    schemes = spec
                        .split(',')
                        .map(|s| {
                            s.parse().unwrap_or_else(|e| {
                                eprintln!("{e}");
                                usage()
                            })
                        })
                        .collect();
                }
            }
            "--seeds" => {
                seeds = next()
                    .split(',')
                    .map(|s| s.parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--requests" => cfg.requests = next().parse().unwrap_or_else(|_| usage()),
            "--utilization" => cfg.utilization = next().parse().unwrap_or_else(|_| usage()),
            "--small" => {
                let requests = cfg.requests;
                cfg = SimConfig::small();
                cfg.requests = requests;
            }
            "--threads" => threads = next().parse().unwrap_or_else(|_| usage()),
            "--baseline" => baseline = true,
            _ => usage(),
        }
        i += 1;
    }
    if schemes.is_empty() || seeds.is_empty() {
        eprintln!("sweep needs at least one scheme and one seed");
        std::process::exit(2);
    }
    if let Err(msg) = cfg.clone().finalize().validate() {
        eprintln!("invalid configuration: {msg}");
        std::process::exit(1);
    }

    let point = SweepPoint {
        label: String::new(),
        config: cfg,
    };
    let jobs = SweepJob::grid(&[point], &schemes, &seeds);
    eprintln!(
        "[sweep] {} cells ({} schemes × {} seeds)",
        jobs.len(),
        schemes.len(),
        seeds.len(),
    );
    let report = run_sweep(jobs, threads, baseline);
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
    match out_path.as_deref() {
        Some(path) => std::fs::write(path, json + "\n").unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }),
        None => println!("{json}"),
    }
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("sweep") {
        sweep_main(&args[1..]);
    }
    let mut cfg = SimConfig::paper();
    cfg.requests = 100_000;
    let mut json_out = false;
    let mut trace_path: Option<String> = None;
    let mut trace_hops = false;
    let mut timeseries_path: Option<String> = None;
    let mut devices_path: Option<String> = None;
    let mut control_path: Option<String> = None;
    let mut perf_path: Option<String> = None;
    let mut perf_stride: u32 = PerfOptions::default().stride;
    let mut sample_every_us: u64 = 10_000;
    let mut progress = false;
    let mut shards: u32 = 1;
    let mut threads: usize = 1;
    let mut lookahead_mult: u32 = 1;

    let mut i = 0;
    while i < args.len() {
        let arg = args[i].clone();
        let mut next = || {
            i += 1;
            args.get(i).cloned().unwrap_or_else(|| usage())
        };
        match arg.as_str() {
            "--config" => {
                let path = next();
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(1);
                });
                cfg = serde_json::from_str(&text).unwrap_or_else(|e| {
                    eprintln!("cannot parse {path}: {e}");
                    std::process::exit(1);
                });
            }
            "--scheme" => {
                cfg.scheme = next().parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                });
            }
            "--requests" => cfg.requests = next().parse().unwrap_or_else(|_| usage()),
            "--clients" => cfg.clients = next().parse().unwrap_or_else(|_| usage()),
            "--utilization" => cfg.utilization = next().parse().unwrap_or_else(|_| usage()),
            "--skew" => cfg.demand_skew = Some(next().parse().unwrap_or_else(|_| usage())),
            "--seed" => cfg.seed = next().parse().unwrap_or_else(|_| usage()),
            "--small" => {
                let requests = cfg.requests;
                cfg = SimConfig::small();
                cfg.requests = requests;
            }
            "--faults" => {
                let path = next();
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(1);
                });
                cfg.faults = Some(FaultPlan::from_json(&text).unwrap_or_else(|e| {
                    eprintln!("cannot parse fault plan {path}: {e}");
                    std::process::exit(1);
                }));
            }
            "--emit-config" => {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&cfg.finalize()).expect("config serializes")
                );
                return;
            }
            "--write-fraction" => {
                cfg.write_fraction = next().parse().unwrap_or_else(|_| usage());
            }
            "--consistency" => {
                let spec = next();
                cfg.write_consistency = parse_consistency(&spec).unwrap_or_else(|| {
                    eprintln!("bad --consistency {spec:?}: want all, quorum:W or chain");
                    std::process::exit(2);
                });
            }
            "--hot-cache" => {
                let capacity: usize = next().parse().unwrap_or_else(|_| usage());
                cfg.hot_cache = match capacity {
                    0 => None,
                    _ => Some(HotCacheConfig {
                        capacity,
                        ..cfg.hot_cache.unwrap_or_default()
                    }),
                };
            }
            "--cache-admission" => {
                let spec = next();
                let admission = parse_admission(&spec).unwrap_or_else(|| {
                    eprintln!("bad --cache-admission {spec:?}: want lru or freq:N");
                    std::process::exit(2);
                });
                let cache = cfg.hot_cache.get_or_insert_with(HotCacheConfig::default);
                cache.admission = admission;
            }
            "--cache-write" => {
                let spec = next();
                let policy = match spec.as_str() {
                    "invalidate" => CacheWritePolicy::Invalidate,
                    "through" => CacheWritePolicy::Through,
                    _ => {
                        eprintln!("bad --cache-write {spec:?}: want invalidate or through");
                        std::process::exit(2);
                    }
                };
                let cache = cfg.hot_cache.get_or_insert_with(HotCacheConfig::default);
                cache.write_policy = policy;
            }
            "--json" => json_out = true,
            "--trace" => trace_path = Some(next()),
            "--trace-hops" => trace_hops = true,
            "--timeseries" => timeseries_path = Some(next()),
            "--devices" => devices_path = Some(next()),
            "--control" => control_path = Some(next()),
            "--perf" => perf_path = Some(next()),
            "--perf-stride" => {
                perf_stride = next().parse().unwrap_or_else(|_| usage());
                if perf_stride == 0 {
                    eprintln!("--perf-stride must be at least 1");
                    std::process::exit(2);
                }
            }
            "--sample-every-us" => {
                sample_every_us = next().parse().unwrap_or_else(|_| usage());
                if sample_every_us == 0 {
                    eprintln!("--sample-every-us must be at least 1");
                    std::process::exit(2);
                }
            }
            "--progress" => progress = true,
            "--shards" => shards = next().parse().unwrap_or_else(|_| usage()),
            "--threads" => threads = next().parse().unwrap_or_else(|_| usage()),
            "--lookahead-mult" => {
                lookahead_mult = next().parse().unwrap_or_else(|_| usage());
                if lookahead_mult == 0 {
                    eprintln!("--lookahead-mult must be at least 1");
                    std::process::exit(2);
                }
            }
            _ => usage(),
        }
        i += 1;
    }

    if let Err(msg) = cfg.clone().finalize().validate() {
        eprintln!("invalid configuration: {msg}");
        std::process::exit(1);
    }

    let scheme = cfg.scheme;
    // Open every output file before the run so a bad path fails in
    // milliseconds, not after minutes of simulation.
    let mut timeseries_file = timeseries_path.as_deref().map(create);
    let mut devices_file = devices_path.as_deref().map(create);
    let mut perf_file = perf_path.as_deref().map(create);
    let obs = ObsOptions {
        trace: trace_path
            .as_deref()
            .map(|p| Box::new(create(p)) as Box<dyn std::io::Write + Send>),
        trace_hops,
        timeseries: timeseries_path.as_deref().map(|_| SamplerSpec {
            interval: SimDuration::from_micros(sample_every_us),
            ..SamplerSpec::default()
        }),
        device_stats: devices_path.is_some(),
        control: control_path
            .as_deref()
            .map(|p| Box::new(create(p)) as Box<dyn std::io::Write + Send>),
        perf: perf_path.as_deref().map(|_| PerfOptions {
            stride: perf_stride,
        }),
        progress,
    };
    let par = ParallelOptions {
        threads,
        lookahead_mult,
    };
    let out = run_observed_sharded_parallel(cfg, shards, par, obs);
    if let Some(reason) = out.shards_not_applied {
        eprintln!("--shards {shards} not applied: {reason}; sequential engine");
    }
    let stats = out.stats;
    if let (Some(w), Some(perf)) = (perf_file.as_mut(), out.perf.as_ref()) {
        use std::io::Write;
        writeln!(
            w,
            "{}",
            serde_json::to_string_pretty(perf).expect("perf profile serializes")
        )
        .unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", perf_path.as_deref().unwrap());
            std::process::exit(1);
        });
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
    if let (Some(w), Some(ts)) = (timeseries_file.as_mut(), out.timeseries.as_ref()) {
        ts.write_jsonl(w).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", timeseries_path.as_deref().unwrap());
            std::process::exit(1);
        });
    }
    if let (Some(w), Some(report)) = (devices_file.as_mut(), out.devices.as_ref()) {
        report.write_jsonl(w).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", devices_path.as_deref().unwrap());
            std::process::exit(1);
        });
    }
    if json_out {
        // Keep stdout pure JSON; the profile goes to stderr.
        eprintln!("engine: {}", out.profile);
        println!(
            "{}",
            serde_json::to_string_pretty(&stats).expect("stats serialize")
        );
    } else {
        println!("scheme              : {scheme}");
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
}
