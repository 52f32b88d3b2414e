//! Single-run execution: one configuration, instrumented or not, on the
//! sequential engine or the replica engine. Grids of runs (seeds,
//! schemes, sweep points) go through [`crate::sweep::run_sweep`].

use std::time::{Duration, Instant};

use netrs_simcore::{
    DeviceProbe, DeviceStatsRegistry, Engine, EngineProfile, NoDeviceProbe, NoProbe,
    ParallelEngine, PerfProbe, PerfReport, Probe,
};

use crate::cluster::Cluster;
use crate::config::{Scheme, SimConfig};
use crate::obs::{DeviceStatsReport, ObsOptions, TimeSeries};
use crate::perf::{
    self, AllocStats, HostMeta, HostProfile, QueueStats, RequestTableStats, PERF_SCHEMA_VERSION,
};
use crate::stats::{ParallelStats, RunStats};

/// Everything an observed run produces.
#[derive(Debug)]
pub struct RunOutput {
    /// The run's statistics (identical to what [`run`] returns).
    pub stats: RunStats,
    /// The engine's self-measurement.
    pub profile: EngineProfile,
    /// The sampler's time series, if [`ObsOptions::timeseries`] was set.
    pub timeseries: Option<TimeSeries>,
    /// Per-device telemetry, if [`ObsOptions::device_stats`] was set.
    pub devices: Option<DeviceStatsReport>,
    /// The host-performance profile, if [`ObsOptions::perf`] was set.
    pub perf: Option<HostProfile>,
    /// Per-shard busy wall-time (ns) from the replica engine's worker
    /// pool; `None` on every other path. Wall-clock data — never folded
    /// into [`RunStats`].
    pub busy_ns: Option<Vec<u64>>,
    /// Why a request for more than one shard ran on the sequential
    /// engine instead; `None` when the shards were honoured or not asked
    /// for.
    pub shards_not_applied: Option<&'static str>,
}

/// Checks, in debug builds, that a drained run accounted for every
/// request: each one completed or, on a fault run, timed out.
fn debug_assert_accounted(stats: &RunStats) {
    let timeouts = stats.availability.as_ref().map_or(0, |a| a.timeouts);
    debug_assert_eq!(
        stats.completed + timeouts,
        stats.issued,
        "a request was neither completed nor timed out"
    );
}

/// Runs one configuration to completion and returns its statistics.
///
/// # Panics
///
/// Panics if the configuration is invalid (see [`SimConfig::validate`]).
///
/// # Examples
///
/// ```
/// use netrs_sim::{run, SimConfig};
///
/// let mut cfg = SimConfig::small();
/// cfg.requests = 500;
/// let stats = run(cfg);
/// assert_eq!(stats.completed, 500);
/// ```
#[must_use]
pub fn run(cfg: SimConfig) -> RunStats {
    run_observed(cfg, ObsOptions::default()).stats
}

/// Runs one configuration with observability attached: an optional JSONL
/// request tracer, the virtual-time sampler, and a stderr progress
/// heartbeat. With default options this is exactly [`run`].
///
/// # Panics
///
/// Panics if the configuration is invalid (see [`SimConfig::validate`]).
#[must_use]
pub fn run_observed(cfg: SimConfig, obs: ObsOptions) -> RunOutput {
    // Dispatch once on the probe type so the default path keeps the
    // monomorphized no-op probe (acceptance: disabled telemetry is
    // byte-for-byte the uninstrumented simulation).
    if obs.device_stats {
        run_observed_with(cfg, obs, DeviceStatsRegistry::default())
    } else {
        run_observed_with(cfg, obs, NoDeviceProbe)
    }
}

fn run_observed_with<D: DeviceProbe>(cfg: SimConfig, mut obs: ObsOptions, devices: D) -> RunOutput {
    // Second dispatch: the perf probe is monomorphized in exactly like
    // the device probe, so a non-profiled run keeps NoProbe and its
    // compiled-away hooks.
    match obs.perf.take() {
        Some(popt) => {
            let scheme = cfg.scheme;
            let seed = cfg.seed;
            let requests = cfg.requests;
            let alloc_before = alloc_mark();
            let probe = PerfProbe::new(perf::kind_names(), popt.stride);
            let (mut out, probe, table) = run_engine(cfg, obs, devices, probe);
            out.perf = Some(host_profile(
                scheme,
                seed,
                requests,
                &out.profile,
                &probe.report(),
                alloc_since(alloc_before),
                table,
            ));
            out
        }
        None => run_engine(cfg, obs, devices, NoProbe).0,
    }
}

fn run_engine<D: DeviceProbe, P: Probe>(
    cfg: SimConfig,
    obs: ObsOptions,
    devices: D,
    probe: P,
) -> (RunOutput, P, RequestTableStats) {
    let total_requests = cfg.requests;
    let mut cluster = Cluster::with_device_probe(cfg, devices);
    if let Some(w) = obs.trace {
        cluster.set_tracer(w);
    }
    if let Some(spec) = obs.timeseries {
        cluster.enable_sampler(spec);
    }
    if obs.trace_hops {
        cluster.enable_hop_tracing();
    }
    if let Some(w) = obs.control {
        cluster.set_control(w);
    }
    let mut engine = Engine::with_probe(cluster, probe);
    {
        // Split borrows: prime needs the world and the queue.
        let engine = &mut engine;
        let mut queue = std::mem::take(engine.queue_mut());
        engine.world_mut().prime(&mut queue);
        *engine.queue_mut() = queue;
    }
    if obs.progress {
        run_with_heartbeat(&mut engine, total_requests);
    } else {
        engine.run();
    }
    let profile = engine.profile();
    let now = engine.now();
    let events = engine.processed();
    let (mut cluster, probe) = engine.into_parts();
    debug_assert!(cluster.drained(), "simulation ended with work outstanding");
    debug_assert_eq!(cluster.copies_in_flight(), 0, "a copy was never freed");
    debug_assert_eq!(cluster.walks_in_flight(), 0, "a hop walk was never drained");
    cluster.flush_tracer();
    cluster.flush_control(now);
    let timeseries = cluster.take_timeseries();
    let devices = cluster.take_device_report(now);
    let stats = cluster.stats(now, events);
    debug_assert_accounted(&stats);
    (
        RunOutput {
            stats,
            profile,
            timeseries,
            devices,
            perf: None,
            busy_ns: None,
            shards_not_applied: None,
        },
        probe,
        cluster.request_table_stats(),
    )
}

/// Options for truly parallel sharded execution
/// ([`run_observed_sharded_parallel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelOptions {
    /// Worker threads draining shards concurrently (clamped to the shard
    /// count; 1 executes the identical schedule on the calling thread).
    pub threads: usize,
    /// Conservative-window width in link latencies (default 1, the
    /// provably safe lookahead; wider windows mean fewer barriers but
    /// may clamp late cross-shard events, counted as `mailbox_late`).
    pub lookahead_mult: u32,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions {
            threads: 1,
            lookahead_mult: 1,
        }
    }
}

/// Whether a run can execute as per-shard SPMD replicas, or why not:
/// every flow must stay shard-local (token-routed replies), which holds
/// for the client-side schemes without cross-cutting machinery, and each
/// shard's generators need local clients to draw from.
fn replica_eligible(cfg: &SimConfig, shards: u32, obs: &ObsOptions) -> Result<(), &'static str> {
    if cfg.scheme.is_in_network() {
        return Err("in-network scheme");
    }
    if cfg.faults.as_ref().is_some_and(|p| p.is_active()) {
        return Err("active fault plan");
    }
    if cfg.hot_cache.is_some() {
        return Err("hot-key cache");
    }
    if obs.device_stats || obs.trace_hops || obs.timeseries.is_some() || obs.perf.is_some() {
        return Err("device / hop / timeseries / perf instrumentation");
    }
    // Copy tokens store request ids as `u32`. Shard `r` issues ids
    // `r + k·shards` for `k` below its quota, and a shard with more
    // generators than the others has a quota above `requests / shards`.
    let quotas = replica_quotas(cfg.requests, cfg.generators, shards);
    let fits = |(r, quota): (u32, u64)| {
        quota == 0 || u64::from(r) + (quota - 1) * u64::from(shards) <= u64::from(u32::MAX)
    };
    if !(0..shards).zip(quotas).all(fits) {
        return Err("strided request ids past u32::MAX");
    }
    // Placement is deterministic per config, so one throwaway replica
    // answers the coverage question for all of them.
    let probe: Cluster = Cluster::with_shards(cfg.clone(), shards, NoDeviceProbe);
    if !probe.replica_coverage_ok() {
        return Err("a shard with generators but no clients to draw from");
    }
    Ok(())
}

/// Runs one configuration partitioned into `shards` event shards on the
/// replica engine ([`ParallelEngine`]): one SPMD [`Cluster`] replica per
/// shard, drained on `par.threads` workers under the conservative-window
/// protocol, with output byte-identical across thread counts. With
/// `shards <= 1`, or for a run that is not replica-eligible, this is
/// exactly [`run_observed`] — the sequential engine, the same bytes — and
/// in the latter case [`RunOutput::shards_not_applied`] says why.
///
/// # Panics
///
/// Panics if the configuration is invalid (see [`SimConfig::validate`]).
#[must_use]
pub fn run_observed_sharded_parallel(
    cfg: SimConfig,
    shards: u32,
    par: ParallelOptions,
    obs: ObsOptions,
) -> RunOutput {
    if shards <= 1 {
        return run_observed(cfg, obs);
    }
    if let Err(reason) = replica_eligible(&cfg, shards, &obs) {
        let mut out = run_observed(cfg, obs);
        out.shards_not_applied = Some(reason);
        return out;
    }
    run_replicated(cfg, shards, par, obs)
}

/// The replica-engine run: N SPMD [`Cluster`] replicas (one per shard)
/// under the barrier/merge window driver, then the deterministic fold of
/// per-replica results (counters, histograms, owned servers, buffered
/// trace lines) into replica 0.
fn run_replicated(
    cfg: SimConfig,
    shards: u32,
    par: ParallelOptions,
    mut obs: ObsOptions,
) -> RunOutput {
    let started = Instant::now();
    // Requests split across shards in proportion to their generator
    // counts (generators round-robin to shards; shards without a
    // generator issue nothing), remainders to the lowest shards.
    let quotas = replica_quotas(cfg.requests, cfg.generators, shards);
    let mut worlds: Vec<Cluster> = Vec::with_capacity(shards as usize);
    for r in 0..shards {
        let mut cl: Cluster = Cluster::with_shards(cfg.clone(), shards, NoDeviceProbe);
        cl.enable_replica(r, quotas[r as usize], par.lookahead_mult);
        if obs.trace.is_some() {
            cl.buffer_trace();
        }
        worlds.push(cl);
    }
    if let Some(w) = obs.control.take() {
        // Eligible runs emit no mid-run control records; the end-of-run
        // flush happens on replica 0 after the merge.
        worlds[0].set_control(w);
    }
    let mut engine = ParallelEngine::new(worlds, par.threads);
    engine.prime_each(|_, world, queue| world.prime(queue));
    engine.run();
    let wstats = engine.stats();
    let busy = engine.busy_ns();
    let now = engine.now();
    let threads = engine.threads();
    let mut rest = engine.into_worlds();
    let mut first = rest.remove(0);
    debug_assert!(
        first.drained() && rest.iter().all(Cluster::drained),
        "replica ended with work outstanding"
    );
    debug_assert!(
        std::iter::once(&first)
            .chain(&rest)
            .all(|w| w.copies_in_flight() == 0),
        "a replica never freed a copy"
    );
    if let Some(mut sink) = obs.trace.take() {
        use std::io::Write as _;
        // Canonical trace order: (receive time, shard), with each
        // shard's own processing order preserved by the stable sort —
        // the same total order however many threads drained the shards.
        let mut lines: Vec<(u64, u32, String)> = first
            .take_trace_buf()
            .into_iter()
            .map(|(t, l)| (t, 0, l))
            .collect();
        for (i, w) in rest.iter_mut().enumerate() {
            lines.extend(
                w.take_trace_buf()
                    .into_iter()
                    .map(|(t, l)| (t, i as u32 + 1, l)),
            );
        }
        lines.sort_by_key(|l| (l.0, l.1));
        for (_, _, l) in &lines {
            let _ = writeln!(sink, "{l}");
        }
        let _ = sink.flush();
    }
    for other in rest.iter_mut() {
        first.absorb_replica(other);
    }
    first.flush_control(now);
    let events = wstats.processed;
    let mut stats = first.stats(now, events);
    debug_assert_accounted(&stats);
    stats.parallel = Some(ParallelStats {
        shards,
        windows: wstats.windows,
        mailbox_posted: wstats.mailbox_posted,
        mailbox_late: wstats.mailbox_late,
    });
    if obs.progress {
        // The end-of-run heartbeat: the intra-run parallelism diagnosis
        // (windows, batch size, late posts, busy-time imbalance).
        let busy_max = busy.iter().copied().max().unwrap_or(0) as f64;
        let busy_mean = busy.iter().copied().sum::<u64>() as f64 / busy.len().max(1) as f64;
        let imbalance = if busy_mean > 0.0 {
            busy_max / busy_mean
        } else {
            0.0
        };
        let wall = started.elapsed().as_secs_f64();
        eprintln!(
            "[simulate] parallel run: {} shards × {} threads · {} events in {:.2}s \
             ({:.0}/s) · {} windows ({:.1} events/window) · {} mailbox posts / {} late · \
             busy imbalance {:.2}× · peak RSS {} kB",
            shards,
            threads,
            events,
            wall,
            events as f64 / wall.max(1e-9),
            wstats.windows,
            wstats.events_per_window(),
            wstats.mailbox_posted,
            wstats.mailbox_late,
            imbalance,
            netrs_simcore::peak_rss_kb(),
        );
    }
    let profile = EngineProfile::capture(events, 0, 0, 0, started);
    RunOutput {
        stats,
        profile,
        timeseries: None,
        devices: None,
        perf: None,
        busy_ns: Some(busy),
        shards_not_applied: None,
    }
}

/// Splits `requests` across `shards` in proportion to each shard's
/// generator count, distributing the remainder to the lowest generator-
/// bearing shards so the quotas sum exactly to `requests`.
fn replica_quotas(requests: u64, generators: u32, shards: u32) -> Vec<u64> {
    let g_total = u64::from(generators);
    let gens_of = |r: u32| u64::from(generators / shards + u32::from(r < generators % shards));
    let mut quotas: Vec<u64> = (0..shards)
        .map(|r| requests * gens_of(r) / g_total)
        .collect();
    let mut rem = requests - quotas.iter().sum::<u64>();
    let mut r = 0usize;
    while rem > 0 {
        if gens_of(r as u32) > 0 {
            quotas[r] += 1;
            rem -= 1;
        }
        r = (r + 1) % shards as usize;
    }
    quotas
}

/// Assembles the versioned run profile from the engine's
/// self-measurement and the perf probe's report.
fn host_profile(
    scheme: Scheme,
    seed: u64,
    requests: u64,
    profile: &EngineProfile,
    report: &PerfReport,
    alloc: Option<AllocStats>,
    request_table: RequestTableStats,
) -> HostProfile {
    HostProfile {
        schema_version: PERF_SCHEMA_VERSION,
        scheme: scheme.label().into(),
        seed,
        requests,
        events: profile.events,
        wall_s: profile.wall_seconds,
        events_per_sec: profile.events_per_sec,
        peak_rss_kb: profile.peak_rss_kb,
        stride: u64::from(report.stride),
        attributed_ns: report.attributed_ns(),
        host: HostMeta::detect(),
        queue: QueueStats {
            pushes: profile.pushes,
            pops: profile.pops,
            high_water: profile.queue_high_water as u64,
            depth_hist: HostProfile::trim_depth_hist(&report.depth_hist),
        },
        alloc,
        request_table,
        clock_pair_ns: report.clock_ns,
        kinds: HostProfile::kinds_from_report(report),
    }
}

#[cfg(feature = "alloc-profile")]
fn alloc_mark() -> netrs_allocprobe::AllocSnapshot {
    netrs_allocprobe::snapshot()
}

/// Allocation activity since `mark`, or `None` when the counting
/// allocator was never registered (all counters zero — a real process
/// always allocates at startup).
#[cfg(feature = "alloc-profile")]
fn alloc_since(mark: netrs_allocprobe::AllocSnapshot) -> Option<AllocStats> {
    let now = netrs_allocprobe::snapshot();
    if now.is_empty() {
        return None;
    }
    let delta = now.delta(&mark);
    Some(AllocStats {
        allocs: delta.allocs,
        deallocs: delta.deallocs,
        peak_bytes: delta.peak_bytes,
    })
}

#[cfg(not(feature = "alloc-profile"))]
struct AllocMark;

#[cfg(not(feature = "alloc-profile"))]
fn alloc_mark() -> AllocMark {
    AllocMark
}

#[cfg(not(feature = "alloc-profile"))]
fn alloc_since(_mark: AllocMark) -> Option<AllocStats> {
    None
}

/// Drains the engine while printing a once-per-second progress line to
/// stderr (issued/completed counts, sim time, wall-clock event rate,
/// queue churn and peak RSS).
fn run_with_heartbeat<D: DeviceProbe, P: Probe>(
    engine: &mut Engine<Cluster<D>, P>,
    total_requests: u64,
) {
    const CHUNK: u32 = 16_384;
    let start = Instant::now();
    let mut last_beat = Instant::now();
    loop {
        let mut exhausted = false;
        for _ in 0..CHUNK {
            if engine.step().is_none() {
                exhausted = true;
                break;
            }
        }
        if last_beat.elapsed() >= Duration::from_secs(1) {
            last_beat = Instant::now();
            let w = engine.world();
            let q = engine.queue();
            let rate = engine.processed() as f64 / start.elapsed().as_secs_f64().max(1e-9);
            eprintln!(
                "[simulate] issued {}/{} · completed {} · sim {} · {} events ({:.0}/s) · \
                 queue {} ({} pushes / {} pops) · peak RSS {} kB",
                w.issued(),
                total_requests,
                w.completed(),
                engine.now(),
                engine.processed(),
                rate,
                q.len(),
                q.pushes(),
                q.pops(),
                netrs_simcore::peak_rss_kb(),
            );
        }
        if exhausted {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(scheme: Scheme) -> SimConfig {
        let mut cfg = SimConfig::small();
        cfg.requests = 2_000;
        cfg.scheme = scheme;
        cfg.seed = 7;
        cfg
    }

    #[test]
    fn replica_engine_refuses_strided_ids_past_u32() {
        // `u32::MAX` requests over two shards: even generator counts
        // split them evenly and the last strided id fits; with three
        // generators, shard 0 issues two thirds of them at stride 2.
        let mut cfg = tiny(Scheme::CliRs);
        cfg.requests = u64::from(u32::MAX);
        cfg.generators = 4;
        let obs = ObsOptions::default();
        assert_eq!(replica_eligible(&cfg, 2, &obs), Ok(()));
        cfg.generators = 3;
        assert_eq!(
            replica_eligible(&cfg, 2, &obs),
            Err("strided request ids past u32::MAX")
        );
    }

    #[test]
    fn clirs_run_completes_all_requests() {
        let stats = run(tiny(Scheme::CliRs));
        assert_eq!(stats.issued, 2_000);
        assert_eq!(stats.completed, 2_000);
        assert!(stats.latency.count > 0);
        assert!(stats.latency.mean > netrs_simcore::SimDuration::ZERO);
        assert_eq!(stats.rsnode_count, 0);
        assert_eq!(stats.duplicates, 0);
    }

    #[test]
    fn netrs_tor_run_completes_with_rsnodes() {
        let stats = run(tiny(Scheme::NetRsToR));
        assert_eq!(stats.completed, 2_000);
        assert!(stats.rsnode_count > 0);
        assert_eq!(
            stats.rsnode_census[2], stats.rsnode_count,
            "NetRS-ToR places every RSNode on a ToR: {:?}",
            stats.rsnode_census
        );
        assert!(stats.mean_accel_utilization > 0.0);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = run(tiny(Scheme::NetRsIlp));
        let b = run(tiny(Scheme::NetRsIlp));
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.events, b.events);
        let mut other = tiny(Scheme::NetRsIlp);
        other.seed = 8;
        let c = run(other);
        assert_ne!(a.latency, c.latency, "different seeds should differ");
    }

    #[test]
    fn perf_profile_counts_sum_to_total_events() {
        let obs = ObsOptions {
            perf: Some(crate::obs::PerfOptions::default()),
            ..ObsOptions::default()
        };
        let out = run_observed(tiny(Scheme::NetRsToR), obs);
        let perf = out.perf.expect("perf requested");
        assert_eq!(perf.events, out.stats.events);
        assert_eq!(perf.kind_count_sum(), out.stats.events);
        assert_eq!(perf.queue.pops, out.stats.events);
        assert!(perf.queue.pushes >= perf.queue.pops);
        assert_eq!(perf.schema_version, PERF_SCHEMA_VERSION);
        // The profiler observes; it must not perturb the simulation.
        let plain = run(tiny(Scheme::NetRsToR));
        assert_eq!(out.stats.latency, plain.latency);
        assert_eq!(out.stats.events, plain.events);
    }
}
