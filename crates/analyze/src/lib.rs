//! Offline analysis of NetRS simulation artifacts.
//!
//! The `simulate` binary emits three JSONL artifact kinds: per-request
//! traces (`--trace`, one [`TraceRecord`] per copy), virtual-time series
//! (`--timeseries`, one [`SamplePoint`] per tick) and end-of-run device
//! telemetry (`--devices`, one [`DeviceRecord`] per device). This crate —
//! and its `netrs-analyze` CLI — turns those files into the reports the
//! paper's evaluation is built from:
//!
//! * **scheme comparison** — mean / median / p95 / p99 per latency phase,
//!   side by side across labeled traces (CliRS vs NetRS-ILP, …);
//! * **tail attribution** — which phases and which servers the slowest
//!   1% of requests spend their time in;
//! * **hotspot tables** — the busiest devices per kind, per-tier traffic
//!   totals, and ECMP path skew from per-link packet counts;
//! * **perf profiles** — per-event-kind host-cost tables from
//!   `simulate --perf` / `repro perf` artifacts, validated and compared
//!   run for run by `check-bench`;
//! * **availability tables** — timeout rate, retries and time-to-recover
//!   per scheme from `simulate --faults … --json` stats files.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::Path;

use netrs_sim::{
    ControlRecord, DeviceRecord, HostProfile, KindRecord, PerfArtifact, RunStats, SamplePoint,
    Scheme, SnapshotRecord, SweepReport, TraceRecord, SWEEP_SCHEMA_VERSION,
};
use netrs_simcore::{Histogram, SimDuration, SimTime, Summary};
use serde::Value;

/// One labeled trace: a scheme (or experiment) name plus its records.
#[derive(Debug, Clone)]
pub struct LabeledTrace {
    /// Column label in comparison tables.
    pub label: String,
    /// Every record of the trace file, in file order.
    pub records: Vec<TraceRecord>,
}

/// Pulls one phase duration (ns) out of a trace record.
pub type PhaseExtractor = fn(&TraceRecord) -> u64;

/// The six phases of the request-latency decomposition, in causal order,
/// each paired with its extractor. `e2e` is reported separately.
pub const PHASES: [(&str, PhaseExtractor); 6] = [
    ("steer", |r| r.steer_ns),
    ("selection", |r| r.selection_ns),
    ("to-server", |r| r.to_server_ns),
    ("server-queue", |r| r.server_queue_ns),
    ("service", |r| r.service_ns),
    ("reply", |r| r.reply_ns),
];

/// Parses a `[LABEL=]PATH` trace argument: an explicit label before the
/// first `=`, otherwise the file stem. Labels naming one of the four
/// schemes (in any case) are canonicalized to the paper spelling, so
/// `clirs=a.jsonl` and `netrs-ilp.jsonl` line up with `CliRS` /
/// `NetRS-ILP` columns from other runs.
#[must_use]
pub fn split_label(arg: &str) -> (String, &str) {
    if let Some((label, path)) = arg.split_once('=') {
        if !label.is_empty() && !label.contains(['/', '\\']) {
            return (canonical_label(label), path);
        }
    }
    let stem = Path::new(arg)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(arg);
    (canonical_label(stem), arg)
}

/// Rewrites scheme-name labels to their paper spelling; anything that is
/// not a scheme name passes through untouched.
fn canonical_label(label: &str) -> String {
    label
        .parse::<Scheme>()
        .map_or_else(|_| label.to_string(), |s| s.label().to_string())
}

fn parse_jsonl<T: serde::Deserialize>(path: &str) -> io::Result<Vec<T>> {
    let file = BufReader::new(File::open(path)?);
    let mut out = Vec::new();
    for (i, line) in file.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let item = serde_json::from_str(&line).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("{path}:{}: {e}", i + 1))
        })?;
        out.push(item);
    }
    Ok(out)
}

/// Loads a `--trace` JSONL file.
///
/// # Errors
///
/// Returns the underlying I/O error, or [`io::ErrorKind::InvalidData`]
/// naming the offending line when a line fails to parse.
pub fn load_trace(path: &str) -> io::Result<Vec<TraceRecord>> {
    parse_jsonl(path)
}

/// Loads a `--devices` JSONL file (same error contract as
/// [`load_trace`]).
///
/// # Errors
///
/// See [`load_trace`].
pub fn load_devices(path: &str) -> io::Result<Vec<DeviceRecord>> {
    parse_jsonl(path)
}

/// Loads a `--timeseries` JSONL file (same error contract as
/// [`load_trace`]).
///
/// # Errors
///
/// See [`load_trace`].
pub fn load_timeseries(path: &str) -> io::Result<Vec<SamplePoint>> {
    parse_jsonl(path)
}

/// The records the latency analysis is over: winning read copies — the
/// same population as `RunStats::latency`.
#[must_use]
pub fn winning_reads(records: &[TraceRecord]) -> Vec<&TraceRecord> {
    records.iter().filter(|r| r.first && !r.write).collect()
}

fn summarize(records: &[&TraceRecord], extract: fn(&TraceRecord) -> u64) -> Summary {
    let mut h = Histogram::new();
    for r in records {
        h.record_nanos(extract(r));
    }
    h.summary()
}

fn fmt_dur(ns: SimDuration) -> String {
    ns.to_string()
}

/// Renders the side-by-side per-phase comparison: one table per
/// statistic (mean, median, p95, p99), phases as rows, labels as
/// columns. Statistics are over winning reads.
#[must_use]
pub fn comparison_report(traces: &[LabeledTrace]) -> String {
    let per_label: Vec<(String, Vec<Summary>, Summary)> = traces
        .iter()
        .map(|t| {
            let reads = winning_reads(&t.records);
            let phases = PHASES.iter().map(|&(_, f)| summarize(&reads, f)).collect();
            (t.label.clone(), phases, summarize(&reads, |r| r.e2e_ns))
        })
        .collect();

    let mut out = String::new();
    let _ = writeln!(out, "## Per-phase latency comparison (winning reads)");
    for (label, _, e2e) in &per_label {
        let _ = writeln!(out, "   {label}: {} requests", e2e.count);
    }
    type StatPick = fn(&Summary) -> SimDuration;
    let stats: [(&str, StatPick); 4] = [
        ("mean", |s| s.mean),
        ("median", |s| s.p50),
        ("p95", |s| s.p95),
        ("p99", |s| s.p99),
    ];
    for (stat_name, pick) in stats {
        let _ = writeln!(out);
        let _ = write!(out, "{:<14}", stat_name);
        for (label, _, _) in &per_label {
            let _ = write!(out, " {:>14}", label);
        }
        let _ = writeln!(out);
        for (pi, &(phase, _)) in PHASES.iter().enumerate() {
            let _ = write!(out, "{:<14}", phase);
            for (_, phases, _) in &per_label {
                let _ = write!(out, " {:>14}", fmt_dur(pick(&phases[pi])));
            }
            let _ = writeln!(out);
        }
        let _ = write!(out, "{:<14}", "e2e");
        for (_, _, e2e) in &per_label {
            let _ = write!(out, " {:>14}", fmt_dur(pick(e2e)));
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders the tail attribution for one trace: over the winning reads at
/// or above the e2e 99th percentile, the share of tail time each phase
/// accounts for, plus the servers that serve the most tail requests.
#[must_use]
pub fn tail_report(label: &str, records: &[TraceRecord], top: usize) -> String {
    let reads = winning_reads(records);
    let mut out = String::new();
    let _ = writeln!(out, "## Tail attribution: {label}");
    if reads.is_empty() {
        let _ = writeln!(out, "   (no winning reads in trace)");
        return out;
    }
    let mut h = Histogram::new();
    for r in &reads {
        h.record_nanos(r.e2e_ns);
    }
    let p99 = h.percentile(99.0).as_nanos();
    let tail: Vec<&&TraceRecord> = reads.iter().filter(|r| r.e2e_ns >= p99).collect();
    let _ = writeln!(
        out,
        "   p99 = {} · {} requests at or above it",
        fmt_dur(SimDuration::from_nanos(p99)),
        tail.len()
    );
    let tail_e2e: u128 = tail.iter().map(|r| u128::from(r.e2e_ns)).sum();
    if tail_e2e > 0 {
        let _ = writeln!(out, "   phase shares of tail time:");
        for (phase, extract) in PHASES {
            let spent: u128 = tail.iter().map(|r| u128::from(extract(r))).sum();
            let share = spent as f64 / tail_e2e as f64 * 100.0;
            let _ = writeln!(out, "     {phase:<14} {share:5.1}%");
        }
    }
    let mut by_server: Vec<(u32, u64)> = Vec::new();
    for r in &tail {
        match by_server.iter_mut().find(|(s, _)| *s == r.server) {
            Some((_, n)) => *n += 1,
            None => by_server.push((r.server, 1)),
        }
    }
    by_server.sort_by_key(|&(s, n)| (std::cmp::Reverse(n), s));
    let _ = writeln!(out, "   top tail servers (server · tail requests):");
    for (server, n) in by_server.iter().take(top) {
        let _ = writeln!(out, "     server:{server:<8} {n}");
    }
    out
}

fn link_source(dev: &str) -> Option<&str> {
    dev.strip_prefix("link:")?.split('>').next()
}

/// Renders the device hotspot tables: busiest devices per kind, per-tier
/// traffic totals, and ECMP skew (how unevenly an endpoint's outgoing
/// links are loaded).
#[must_use]
pub fn hotspot_report(devices: &[DeviceRecord], top: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Device hotspots");

    // Per-tier traffic totals across all devices that forward traffic.
    let mut tier_packets = [0u64; 3];
    let mut tier_bytes = [0u64; 3];
    for d in devices.iter().filter(|d| d.kind == "link") {
        for t in 0..3 {
            tier_packets[t] += d.packets[t];
            tier_bytes[t] += d.bytes[t];
        }
    }
    let _ = writeln!(out, "   link traffic per tier (packets · bytes):");
    for t in 0..3 {
        let _ = writeln!(
            out,
            "     Tier-{t}          {:>12} · {:>12}",
            tier_packets[t], tier_bytes[t]
        );
    }

    for (kind, plural) in [
        ("switch", "switches"),
        ("accel", "accelerators"),
        ("server", "servers"),
        ("link", "links"),
    ] {
        let mut of_kind: Vec<&DeviceRecord> = devices.iter().filter(|d| d.kind == kind).collect();
        if of_kind.is_empty() {
            continue;
        }
        of_kind.sort_by(|a, b| {
            b.utilization
                .total_cmp(&a.utilization)
                .then_with(|| b.total_packets().cmp(&a.total_packets()))
                .then_with(|| a.dev.cmp(&b.dev))
        });
        let _ = writeln!(
            out,
            "   top {plural} (device · util · packets · ops/selections · max queue):"
        );
        for d in of_kind.iter().take(top) {
            let work = if kind == "accel" { d.selections } else { d.ops };
            let _ = writeln!(
                out,
                "     {:<14} {:6.2}% {:>10} {:>8} {:>6}",
                d.dev,
                d.utilization * 100.0,
                d.total_packets(),
                work,
                d.max_queue_depth
            );
        }
    }

    // ECMP skew: group directed links by source endpoint; endpoints with
    // several outgoing links (hosts have one) show hash imbalance as
    // max/mean packet ratio.
    let mut groups: Vec<(&str, Vec<u64>)> = Vec::new();
    for d in devices.iter().filter(|d| d.kind == "link") {
        if let Some(src) = link_source(&d.dev) {
            match groups.iter_mut().find(|(s, _)| *s == src) {
                Some((_, counts)) => counts.push(d.total_packets()),
                None => groups.push((src, vec![d.total_packets()])),
            }
        }
    }
    let mut skews: Vec<(&str, usize, f64)> = groups
        .iter()
        .filter(|(_, c)| c.len() > 1 && c.iter().sum::<u64>() > 0)
        .map(|(src, counts)| {
            let max = *counts.iter().max().unwrap() as f64;
            let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
            (*src, counts.len(), max / mean)
        })
        .collect();
    skews.sort_by(|a, b| b.2.total_cmp(&a.2).then_with(|| a.0.cmp(b.0)));
    let _ = writeln!(
        out,
        "   ECMP skew (endpoint · outgoing links · max/mean packets):"
    );
    for (src, fanout, skew) in skews.iter().take(top) {
        let _ = writeln!(out, "     {src:<8} {fanout:>3} {skew:8.3}");
    }
    out
}

/// Renders a short summary of a `--timeseries` file: sample count, span,
/// and the peak / mean of each sampled series.
#[must_use]
pub fn timeseries_report(points: &[SamplePoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Time series");
    if points.is_empty() {
        let _ = writeln!(out, "   (no samples)");
        return out;
    }
    let span = points.last().unwrap().t_ns - points.first().unwrap().t_ns;
    let _ = writeln!(
        out,
        "   {} samples over {}",
        points.len(),
        fmt_dur(SimDuration::from_nanos(span))
    );
    type SeriesPick = fn(&SamplePoint) -> f64;
    let series: [(&str, SeriesPick); 4] = [
        ("accel util", |p| p.accel_util),
        ("server occupancy", |p| p.server_occupancy),
        ("outstanding", |p| p.outstanding),
        ("DRS groups", |p| p.drs_groups),
    ];
    for (name, pick) in series {
        let mean = points.iter().map(pick).sum::<f64>() / points.len() as f64;
        let peak = points.iter().map(pick).fold(f64::MIN, f64::max);
        let _ = writeln!(out, "   {name:<18} mean {mean:8.3} · peak {peak:8.3}");
    }
    out
}

/// Loads a `simulate --json` stats file (one [`RunStats`] JSON object).
///
/// # Errors
///
/// Returns the underlying I/O error, or [`io::ErrorKind::InvalidData`]
/// when the file is not a stats JSON.
pub fn load_stats(path: &str) -> io::Result<RunStats> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{path}: {e}")))
}

/// Renders the per-run availability table: timeout rate, retries,
/// dropped copies, the p99 of the failed window and the time back to the
/// steady-state latency band, one row per labeled stats file. Runs
/// without a fault plan report as fault-free.
#[must_use]
pub fn availability_report(entries: &[(String, RunStats)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Availability under faults");
    let _ = writeln!(
        out,
        "{:<14} {:>8} {:>9} {:>12} {:>8} {:>9} {:>12} {:>12}",
        "label",
        "issued",
        "timeouts",
        "timeout-rate",
        "retries",
        "dropped",
        "failed-p99",
        "recover"
    );
    for (label, stats) in entries {
        match stats.availability.as_ref() {
            Some(a) => {
                let rate = if stats.issued > 0 {
                    a.timeouts as f64 / stats.issued as f64 * 100.0
                } else {
                    0.0
                };
                let recover = a
                    .time_to_recover
                    .map_or_else(|| "never".to_string(), |t| t.to_string());
                let _ = writeln!(
                    out,
                    "{label:<14} {:>8} {:>9} {:>11.3}% {:>8} {:>9} {:>12} {:>12}",
                    stats.issued,
                    a.timeouts,
                    rate,
                    a.retries,
                    a.copies_dropped,
                    fmt_dur(a.failed_window_p99),
                    recover
                );
            }
            None => {
                let _ = writeln!(out, "{label:<14} {:>8} (fault-free run)", stats.issued);
            }
        }
    }
    out
}

/// Renders the read/write-mix report: per-label read vs write latency
/// percentiles, the hot-key-cache hit ratio and the stale-read count.
/// Labels without an `rw` stats block (read-only runs, or legacy
/// all-replica writes with no cache) render as a read-only row. When
/// `devices` is non-empty a per-operator cache table follows, one row
/// per switch that recorded cache traffic, in file order.
#[must_use]
pub fn rw_report(entries: &[(String, RunStats)], devices: &[DeviceRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Read/write mix");
    let _ = writeln!(
        out,
        "{:<14} {:>8} {:>12} {:>12} {:>8} {:>12} {:>12} {:>10} {:>8}",
        "label", "reads", "r-mean", "r-p99", "writes", "w-mean", "w-p99", "hit-ratio", "stale"
    );
    for (label, stats) in entries {
        let reads = stats.issued - stats.writes_issued;
        let _ = write!(
            out,
            "{label:<14} {reads:>8} {:>12} {:>12}",
            fmt_dur(stats.latency.mean),
            fmt_dur(stats.latency.p99)
        );
        if stats.writes_issued == 0 {
            let _ = writeln!(out, " {:>8} (read-only run)", 0);
            continue;
        }
        let _ = write!(
            out,
            " {:>8} {:>12} {:>12}",
            stats.writes_issued,
            fmt_dur(stats.write_latency.mean),
            fmt_dur(stats.write_latency.p99)
        );
        match stats.rw.as_ref() {
            Some(rw) => {
                let gets = rw.cache_hits + rw.cache_misses;
                let ratio = if gets > 0 {
                    format!("{:.1}%", rw.cache_hits as f64 / gets as f64 * 100.0)
                } else {
                    "-".to_string()
                };
                let _ = writeln!(out, " {ratio:>10} {:>8}", rw.stale_reads);
            }
            None => {
                let _ = writeln!(out, " {:>10} {:>8}", "-", "-");
            }
        }
    }
    let cached: Vec<&DeviceRecord> = devices
        .iter()
        .filter(|d| d.cache_hits + d.cache_misses + d.cache_invalidations > 0)
        .collect();
    if !cached.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "## Per-operator cache");
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>8} {:>10} {:>8} {:>9} {:>13}",
            "operator", "hits", "misses", "hit-ratio", "stale", "evicted", "invalidated"
        );
        for d in cached {
            let gets = d.cache_hits + d.cache_misses;
            let ratio = if gets > 0 {
                format!("{:.1}%", d.cache_hits as f64 / gets as f64 * 100.0)
            } else {
                "-".to_string()
            };
            let _ = writeln!(
                out,
                "{:<12} {:>8} {:>8} {ratio:>10} {:>8} {:>9} {:>13}",
                d.dev,
                d.cache_hits,
                d.cache_misses,
                d.cache_stale_hits,
                d.cache_evictions,
                d.cache_invalidations
            );
        }
    }
    out
}

/// Loads a `--control` JSONL file (same error contract as
/// [`load_trace`]).
///
/// # Errors
///
/// See [`load_trace`].
pub fn load_control(path: &str) -> io::Result<Vec<ControlRecord>> {
    parse_jsonl(path)
}

fn fmt_time(ns: u64) -> String {
    SimTime::from_nanos(ns).to_string()
}

/// One batch of monitor windows consumed by the plan decision that
/// follows it in the stream: window count, reporting ToRs, and the
/// summed response rates per tier (exactly what the controller's
/// `TrafficMatrix` aggregation sums them into).
struct SnapshotBatch {
    windows: usize,
    tors: usize,
    tier_rates: [f64; 3],
}

fn batch_of(snaps: &[&SnapshotRecord]) -> SnapshotBatch {
    let mut tors: Vec<u32> = snaps.iter().map(|s| s.tor).collect();
    tors.sort_unstable();
    tors.dedup();
    let mut tier_rates = [0.0f64; 3];
    for s in snaps {
        for g in &s.groups {
            for (t, r) in g.rates.iter().enumerate() {
                tier_rates[t] += r;
            }
        }
    }
    SnapshotBatch {
        windows: snaps.len(),
        tors: tors.len(),
        tier_rates,
    }
}

/// Renders the control-plane report for labeled `--control` streams:
/// the traffic-matrix evolution (one row per snapshot batch), the plan
/// churn table (one row per controller decision, with solver effort),
/// and the DRS span timeline. With more than one label, a side-by-side
/// summary table closes the report.
#[must_use]
pub fn control_report(entries: &[(String, Vec<ControlRecord>)]) -> String {
    let mut out = String::new();
    for (i, (label, records)) in entries.iter().enumerate() {
        if i > 0 {
            let _ = writeln!(out);
        }
        let snapshots = records
            .iter()
            .filter(|r| matches!(r, ControlRecord::Snapshot(_)))
            .count();
        let plans = records
            .iter()
            .filter(|r| matches!(r, ControlRecord::Plan(_)))
            .count();
        let spans = records
            .iter()
            .filter(|r| matches!(r, ControlRecord::DrsSpan(_)))
            .count();
        let _ = writeln!(out, "## Control plane: {label}");
        let _ = writeln!(
            out,
            "   {} records: {snapshots} snapshots · {plans} plan events · {spans} DRS spans",
            records.len()
        );

        // Traffic-matrix evolution: consecutive snapshots form a batch;
        // the plan decision that follows consumed exactly that batch.
        let mut batches: Vec<SnapshotBatch> = Vec::new();
        let mut pending: Vec<&SnapshotRecord> = Vec::new();
        for rec in records {
            match rec {
                ControlRecord::Snapshot(s) => pending.push(s),
                ControlRecord::Plan(_) if !pending.is_empty() => {
                    batches.push(batch_of(&pending));
                    pending.clear();
                }
                _ => {}
            }
        }
        if !pending.is_empty() {
            batches.push(batch_of(&pending));
        }
        if !batches.is_empty() {
            let _ = writeln!(
                out,
                "   traffic evolution (batch · windows · ToRs · resp/s by tier):"
            );
            for (bi, b) in batches.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "     {:<5} {:>7} {:>5} {:>10.1} {:>10.1} {:>10.1}",
                    bi + 1,
                    b.windows,
                    b.tors,
                    b.tier_rates[0],
                    b.tier_rates[1],
                    b.tier_rates[2]
                );
            }
        }

        let _ = writeln!(
            out,
            "   plan churn (t · trigger · groups re/new/un · RSNodes +/- · DRS · rules · solve):"
        );
        for rec in records {
            let ControlRecord::Plan(p) = rec else {
                continue;
            };
            let trigger = match p.switch {
                Some(sw) => format!("{}(sw{sw})", p.trigger),
                None => p.trigger.clone(),
            };
            let solve = match &p.solve {
                Some(s) if s.greedy => "greedy".to_string(),
                Some(s) => {
                    // How far a budget-capped solve stayed from a proof;
                    // older streams carry neither field.
                    let gap = match (s.proven_optimal, s.bound) {
                        (Some(true), _) => " · proven".to_string(),
                        (_, Some(bound)) => format!(" · gap {}", s.objective - bound),
                        _ => String::new(),
                    };
                    format!(
                        "ilp {} it · {} nodes · obj {}{gap}",
                        s.lp_iterations, s.branch_nodes, s.objective
                    )
                }
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "     {:<11} {:<20} {:>3}/{:>3}/{:>3}  {:>3} (+{}/-{}) {:>4} {:>6}  {solve}",
                fmt_time(p.t_ns),
                trigger,
                p.reassigned.len(),
                p.newly_assigned.len(),
                p.unassigned.len(),
                p.rsnodes,
                p.rsnodes_added.len(),
                p.rsnodes_removed.len(),
                p.drs_groups,
                p.rules_recompiled
            );
        }

        if spans > 0 {
            let _ = writeln!(
                out,
                "   DRS spans (switch · fail · detect-lag · recover · groups · displaced):"
            );
            for rec in records {
                let ControlRecord::DrsSpan(s) = rec else {
                    continue;
                };
                let detect = s.detect_ns.map_or_else(
                    || "-".to_string(),
                    |d| format!("+{}", fmt_dur(SimDuration::from_nanos(d - s.fail_ns))),
                );
                let recover = s.recover_ns.map_or_else(|| "open".to_string(), fmt_time);
                let _ = writeln!(
                    out,
                    "     sw{:<4} {:>11} {:>11} {:>11} {:>3} {:>11}",
                    s.switch,
                    fmt_time(s.fail_ns),
                    detect,
                    recover,
                    s.groups.len(),
                    fmt_dur(SimDuration::from_nanos(s.total_displaced_ns()))
                );
            }
        }

        // Hot-key cache audits, only present when a cache was configured
        // (cache-off reports are byte-identical to the pre-cache format).
        let caches = records
            .iter()
            .filter(|r| matches!(r, ControlRecord::Cache(_)))
            .count();
        if caches > 0 {
            let _ = writeln!(
                out,
                "   cache audits (operator · resident · hits/misses · stale · evicted · invalidated):"
            );
            for rec in records {
                let ControlRecord::Cache(c) = rec else {
                    continue;
                };
                let operator = c
                    .switch
                    .map_or_else(|| "retired".to_string(), |sw| format!("sw{sw}"));
                let _ = writeln!(
                    out,
                    "     {operator:<8} {:>8} {:>8}/{:<8} {:>5} {:>7} {:>11}",
                    c.len, c.hits, c.misses, c.stale_hits, c.evictions, c.invalidations
                );
            }
        }
    }

    // Side-by-side: how much the control plane worked per run.
    if entries.len() > 1 {
        let _ = writeln!(out);
        let _ = writeln!(out, "## Control plane comparison");
        let _ = writeln!(
            out,
            "{:<14} {:>6} {:>8} {:>7} {:>12} {:>10} {:>6} {:>12}",
            "label", "plans", "replans", "solves", "lp-it/solve", "snapshots", "spans", "displaced"
        );
        for (label, records) in entries {
            let mut plans = 0usize;
            let mut replans = 0usize;
            let mut solves = 0usize;
            let mut lp_iterations = 0u64;
            let mut snapshots = 0usize;
            let mut spans = 0usize;
            let mut displaced = 0u64;
            for rec in records {
                match rec {
                    ControlRecord::Snapshot(_) => snapshots += 1,
                    ControlRecord::Plan(p) => {
                        plans += 1;
                        if p.trigger == "replan" {
                            replans += 1;
                        }
                        if let Some(s) = &p.solve {
                            if !s.greedy {
                                solves += 1;
                                lp_iterations += s.lp_iterations;
                            }
                        }
                    }
                    ControlRecord::DrsSpan(s) => {
                        spans += 1;
                        displaced += s.total_displaced_ns();
                    }
                    // Cache audits have their own table in `rw_report`;
                    // the control comparison stays cache-agnostic.
                    ControlRecord::Cache(_) => {}
                }
            }
            let mean_it = if solves > 0 {
                format!("{:.1}", lp_iterations as f64 / solves as f64)
            } else {
                "-".to_string()
            };
            let _ = writeln!(
                out,
                "{label:<14} {plans:>6} {replans:>8} {solves:>7} {mean_it:>12} {snapshots:>10} \
                 {spans:>6} {:>12}",
                fmt_dur(SimDuration::from_nanos(displaced))
            );
        }
    }
    out
}

/// Validates a perf artifact — the versioned history (`schema_version` +
/// `runs`) or a bare `simulate --perf` profile — and returns it parsed.
/// It must carry at least one run, and every run a per-event-kind table
/// whose counts sum exactly to the run's event total.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn check_bench(artifact: &Value) -> Result<PerfArtifact, String> {
    let art = PerfArtifact::from_value(artifact)?;
    if art.runs.is_empty() {
        return Err("perf artifact has no runs".to_string());
    }
    for run in &art.runs {
        if run.kinds.is_empty() {
            return Err(format!("run {:?} has no kind table", run.label));
        }
        if run.kind_count_sum() != run.events {
            return Err(format!(
                "run {:?}: kind counts sum to {} but events is {}",
                run.label,
                run.kind_count_sum(),
                run.events
            ));
        }
    }
    Ok(art)
}

/// The outcome of a two-artifact bench comparison: the rendered table
/// plus the labels that regressed beyond the threshold (empty → pass).
#[derive(Debug)]
pub struct BenchComparison {
    /// The comparison table, one row per label present in both artifacts.
    pub report: String,
    /// `label: old → new (−x%)` lines for throughput drops beyond the
    /// threshold.
    pub regressions: Vec<String>,
}

/// Compares two perf artifacts label by label on `events_per_sec` (the
/// latest run per label: an artifact is an append-only history) and flags
/// drops beyond `threshold` (a fraction: 0.1 → a 10% drop fails). The
/// candidate must pass [`check_bench`]; the baseline need only parse, since
/// it may predate the rules `check_bench` enforces. Labels present in only
/// one artifact are reported but never fail the gate.
///
/// # Errors
///
/// Returns a description when either artifact is malformed or when the
/// two artifacts share no label.
pub fn compare_bench(base: &Value, new: &Value, threshold: f64) -> Result<BenchComparison, String> {
    let base = PerfArtifact::from_value(base).map_err(|e| format!("baseline: {e}"))?;
    let new = check_bench(new).map_err(|e| format!("candidate: {e}"))?;
    let base_rows = latest_by_label(&base.runs);
    let new_rows = latest_by_label(&new.runs);

    let mut out = String::new();
    let mut regressions = Vec::new();
    let mut shared = 0usize;
    let _ = writeln!(
        out,
        "## Bench comparison (threshold {:.1}%)",
        threshold * 100.0
    );
    let _ = writeln!(
        out,
        "{:<18} {:>14} {:>14} {:>14} {:>8}  verdict",
        "label", "metric", "baseline", "candidate", "delta"
    );
    let metric = "events_per_sec";
    for row in &base_rows {
        let label = &row.label;
        let Some(n_row) = new_rows.iter().find(|r| &r.label == label) else {
            let _ = writeln!(out, "{label:<18} (only in baseline)");
            continue;
        };
        let (b, n) = (row.events_per_sec, n_row.events_per_sec);
        shared += 1;
        let delta = if b > 0.0 { (n - b) / b } else { 0.0 };
        let regressed = delta < -threshold;
        let verdict = if regressed { "REGRESSION" } else { "ok" };
        // The bench metrics shorten to fit the row; full precision lives
        // in the artifacts themselves.
        let _ = writeln!(
            out,
            "{label:<18} {metric:>14} {b:>14.1} {n:>14.1} {:>7.1}%  {verdict}",
            delta * 100.0
        );
        if regressed {
            regressions.push(format!(
                "{label}: {metric} {b:.1} -> {n:.1} ({:.1}%)",
                delta * 100.0
            ));
        }
    }
    for row in &new_rows {
        if !base_rows.iter().any(|b| b.label == row.label) {
            let _ = writeln!(out, "{:<18} (only in candidate)", row.label);
        }
    }
    if shared == 0 {
        return Err("the two artifacts share no comparable label".to_string());
    }
    Ok(BenchComparison {
        report: out,
        regressions,
    })
}

/// The latest run per label, in first-appearance order. A perf artifact
/// is an append-only history, so the last record under a label is the
/// current measurement.
fn latest_by_label(runs: &[HostProfile]) -> Vec<&HostProfile> {
    let mut out: Vec<&HostProfile> = Vec::new();
    for run in runs {
        match out.iter_mut().find(|r| r.label == run.label) {
            Some(slot) => *slot = run,
            None => out.push(run),
        }
    }
    out
}

fn coverage_pct(run: &HostProfile) -> f64 {
    if run.wall_s > 0.0 {
        run.attributed_ns as f64 / (run.wall_s * 1e9) * 100.0
    } else {
        0.0
    }
}

fn kind_table(out: &mut String, run: &HostProfile) {
    let wall_ns = run.wall_s * 1e9;
    let _ = writeln!(
        out,
        "   {:<16} {:<8} {:>12} {:>10} {:>8} {:>10}",
        "kind", "layer", "count", "self-ms", "% wall", "ns/event"
    );
    let mut kinds: Vec<&KindRecord> = run.kinds.iter().filter(|k| k.count > 0).collect();
    kinds.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.kind.cmp(&b.kind)));
    for k in kinds {
        let pct = if wall_ns > 0.0 {
            k.self_ns as f64 / wall_ns * 100.0
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "   {:<16} {:<8} {:>12} {:>10.3} {:>7.1}% {:>10.1}",
            k.kind,
            k.layer,
            k.count,
            k.self_ns as f64 / 1e6,
            pct,
            k.self_ns as f64 / k.count as f64
        );
    }
    // Layer rollup: shares of the *attributed* time, so the column sums
    // to ~100% regardless of sampling coverage.
    let mut layers: Vec<(&str, u64, u64)> = Vec::new();
    for k in &run.kinds {
        match layers.iter_mut().find(|(l, _, _)| *l == k.layer.as_str()) {
            Some((_, ns, n)) => {
                *ns += k.self_ns;
                *n += k.count;
            }
            None => layers.push((k.layer.as_str(), k.self_ns, k.count)),
        }
    }
    layers.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    let _ = writeln!(out, "   by layer (self-ms · % of attributed · events):");
    for (layer, ns, n) in layers.iter().filter(|(_, _, n)| *n > 0) {
        let share = if run.attributed_ns > 0 {
            *ns as f64 / run.attributed_ns as f64 * 100.0
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "     {:<14} {:>10.3} {:>7.1}% {:>12}",
            layer,
            *ns as f64 / 1e6,
            share,
            n
        );
    }
    let _ = writeln!(
        out,
        "   queue: {} pushes · {} pops · high-water {} · depth log2-hist {:?}",
        run.queue.pushes, run.queue.pops, run.queue.high_water, run.queue.depth_hist
    );
    if let Some(t) = &run.request_table {
        let _ = writeln!(
            out,
            "   request table: {} slots · live high-water {} · overflow high-water {}",
            t.slots, t.live_high_water, t.overflow_high_water
        );
    }
    if let Some(a) = &run.alloc {
        let _ = writeln!(
            out,
            "   alloc: {} allocs · {} deallocs · peak {} bytes ({:.3} allocs/event)",
            a.allocs,
            a.deallocs,
            a.peak_bytes,
            if run.events > 0 {
                a.allocs as f64 / run.events as f64
            } else {
                0.0
            }
        );
    }
}

/// Renders the host-perf report for labeled perf artifacts: one
/// per-event-kind cost table per (latest) profiled run — self-time, % of
/// wall, ns/event, a layer rollup, queue churn and allocation counters —
/// plus each file's run-history trajectory and, with more than one
/// profiled run overall, a side-by-side throughput comparison.
#[must_use]
pub fn perf_report(entries: &[(String, PerfArtifact)]) -> String {
    let mut out = String::new();
    for (i, (name, art)) in entries.iter().enumerate() {
        if i > 0 {
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "## Perf profile: {name}");
        let _ = writeln!(out, "   {} runs", art.runs.len());
        for run in latest_by_label(&art.runs) {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "### {} — scheme {} · seed {} · {} requests",
                run.label, run.scheme, run.seed, run.requests
            );
            let _ = writeln!(
                out,
                "   host: {} · {} cores · commit {}",
                run.host.cpu, run.host.cores, run.host.commit
            );
            let _ = writeln!(
                out,
                "   {} events in {:.3}s wall ({:.0} events/s) · stride {} · {:.1}% of wall attributed · peak RSS {} kB",
                run.events,
                run.wall_s,
                run.events_per_sec,
                run.stride,
                coverage_pct(run),
                run.peak_rss_kb
            );
            kind_table(&mut out, run);
        }
        if art.runs.len() > 1 {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "   trajectory (run · label · events/s · peak RSS kB · attributed):"
            );
            for (ri, run) in art.runs.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "     {:<4} {:<18} {:>12.0} {:>12} {:>9.1}%",
                    ri + 1,
                    run.label,
                    run.events_per_sec,
                    run.peak_rss_kb,
                    coverage_pct(run)
                );
            }
        }
    }

    // Side-by-side across files: the latest run per (file, label).
    let rows: Vec<(&str, &HostProfile)> = entries
        .iter()
        .flat_map(|(name, art)| {
            latest_by_label(&art.runs)
                .into_iter()
                .map(move |run| (name.as_str(), run))
        })
        .collect();
    if rows.len() > 1 {
        let _ = writeln!(out);
        let _ = writeln!(out, "## Perf comparison");
        let _ = writeln!(
            out,
            "{:<12} {:<18} {:>12} {:>10} {:>12} {:>10}",
            "file", "label", "events/s", "ns/event", "peak RSS kB", "attributed"
        );
        for (name, run) in rows {
            let per_event = if run.events > 0 {
                run.wall_s * 1e9 / run.events as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{name:<12} {:<18} {:>12.0} {:>10.1} {:>12} {:>9.1}%",
                run.label,
                run.events_per_sec,
                per_event,
                run.peak_rss_kb,
                coverage_pct(run)
            );
        }
    }
    out
}

/// Loads a `simulate sweep` artifact (one pretty-printed
/// [`SweepReport`] JSON document), rejecting unknown schema versions.
///
/// # Errors
///
/// Returns an error when the file cannot be read or parsed, or carries
/// a schema version this build does not understand.
pub fn load_sweep(path: &str) -> io::Result<SweepReport> {
    let text = std::fs::read_to_string(path)?;
    let report: SweepReport = serde_json::from_str(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
    if report.schema_version != SWEEP_SCHEMA_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "sweep artifact schema v{} (this build reads v{})",
                report.schema_version, SWEEP_SCHEMA_VERSION
            ),
        ));
    }
    Ok(report)
}

/// Renders a merged sweep artifact: the (config × seed) grid with each
/// cell's completion count, mean and p99 latency and wall-clock cost,
/// headed by the sweep's parallel wall-clock and — when a baseline pass
/// was measured — the sequential wall-clock and speedup.
#[must_use]
pub fn sweep_report(report: &SweepReport) -> String {
    let mut out = String::new();
    let configs: std::collections::BTreeSet<&str> =
        report.cells.iter().map(|c| c.label.as_str()).collect();
    let seeds: std::collections::BTreeSet<u64> = report.cells.iter().map(|c| c.seed).collect();
    let _ = writeln!(
        out,
        "## Sweep: {} cells ({} configs × {} seeds) · {} thread(s)",
        report.cells.len(),
        configs.len(),
        seeds.len(),
        report.threads
    );
    let timing = match (report.sequential_wall_s, report.speedup) {
        (Some(seq), Some(s)) => format!(
            "   parallel {:.2}s · sequential {seq:.2}s · speedup {s:.2}x",
            report.wall_s
        ),
        _ => format!("   parallel {:.2}s (no sequential baseline)", report.wall_s),
    };
    let _ = writeln!(out, "{timing}");
    let _ = writeln!(out);
    // `repro` labels cells `<point>/<scheme>`; the column fits the longest.
    let width = configs
        .iter()
        .map(|l| l.chars().count())
        .fold(16, usize::max);
    let _ = writeln!(
        out,
        "{:<width$} {:>6} {:>10} {:>10} {:>10} {:>9}",
        "label", "seed", "completed", "mean", "p99", "wall_s"
    );
    for cell in &report.cells {
        let _ = writeln!(
            out,
            "{:<width$} {:>6} {:>10} {:>10} {:>10} {:>9.3}",
            cell.label,
            cell.seed,
            cell.stats.completed,
            fmt_dur(cell.stats.latency.mean),
            fmt_dur(cell.stats.latency.p99),
            cell.wall_s
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(req: u64, server: u32, e2e: u64) -> TraceRecord {
        // Split e2e across phases so shares and sums are non-trivial.
        let part = e2e / 6;
        TraceRecord {
            req,
            server,
            first: true,
            write: false,
            issued_ns: 1_000,
            received_ns: 1_000 + e2e,
            steer_ns: part,
            selection_ns: part,
            selection_wait_ns: part / 2,
            to_server_ns: part,
            server_queue_ns: part,
            service_ns: part,
            reply_ns: e2e - 5 * part,
            e2e_ns: e2e,
            hops: Vec::new(),
        }
    }

    fn trace(label: &str, e2es: &[u64]) -> LabeledTrace {
        LabeledTrace {
            label: label.to_string(),
            records: e2es
                .iter()
                .enumerate()
                .map(|(i, &e)| record(i as u64, (i % 3) as u32, e))
                .collect(),
        }
    }

    #[test]
    fn parse_jsonl_names_the_truncated_line() {
        // A run killed mid-write leaves a last line cut off anywhere; a
        // corrupt one may open brackets without end.
        let full = serde_json::to_string(&record(1, 0, 600)).unwrap();
        let path = std::env::temp_dir().join(format!("netrs-trunc-{}.jsonl", std::process::id()));
        let path_str = path.to_str().unwrap();
        for cut in [&full[..full.len() / 2], "{\"req\":", &"[".repeat(1_000_000)] {
            std::fs::write(&path, format!("{full}\n\n{cut}\n")).unwrap();
            let err = load_trace(path_str).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(msg.starts_with(&format!("{path_str}:3: ")), "{msg}");
        }
        std::fs::write(&path, format!("{full}\n")).unwrap();
        assert_eq!(load_trace(path_str).unwrap().len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn split_label_prefers_explicit_label() {
        // Scheme-name labels canonicalize to the paper spelling.
        assert_eq!(
            split_label("clirs=/tmp/a.jsonl"),
            ("CliRS".into(), "/tmp/a.jsonl")
        );
        assert_eq!(
            split_label("/tmp/netrs-ilp.jsonl"),
            ("NetRS-ILP".into(), "/tmp/netrs-ilp.jsonl")
        );
        // Non-scheme labels pass through untouched.
        assert_eq!(
            split_label("baseline=/tmp/b.jsonl"),
            ("baseline".into(), "/tmp/b.jsonl")
        );
        assert_eq!(
            split_label("/tmp/run-42.jsonl"),
            ("run-42".into(), "/tmp/run-42.jsonl")
        );
        // A path containing '=' only in a directory name is not a label.
        assert_eq!(split_label("/tmp/x=y/t.jsonl").1, "/tmp/x=y/t.jsonl");
    }

    #[test]
    fn winning_reads_filters_losers_and_writes() {
        let mut records = vec![record(0, 0, 600)];
        let mut loser = record(0, 1, 900);
        loser.first = false;
        let mut write = record(1, 0, 600);
        write.write = true;
        records.push(loser);
        records.push(write);
        assert_eq!(winning_reads(&records).len(), 1);
    }

    #[test]
    fn comparison_report_lists_all_labels_and_phases() {
        let traces = vec![
            trace("clirs", &[600, 1_200, 2_400]),
            trace("netrs-ilp", &[300, 600, 900]),
        ];
        let report = comparison_report(&traces);
        for needle in ["clirs", "netrs-ilp", "mean", "median", "p95", "p99", "e2e"] {
            assert!(report.contains(needle), "missing {needle:?} in:\n{report}");
        }
        for (phase, _) in PHASES {
            assert!(report.contains(phase), "missing phase {phase:?}");
        }
    }

    #[test]
    fn tail_report_attributes_full_tail_time() {
        let t = trace("x", &[600, 600, 600, 600, 60_000]);
        let report = tail_report("x", &t.records, 5);
        assert!(report.contains("phase shares"));
        assert!(report.contains("server:"), "top servers listed:\n{report}");
        // The slowest request defines the tail; its phases sum to its
        // e2e, so the printed shares must sum to ~100%.
        let total: f64 = report
            .lines()
            .filter_map(|l| l.trim().strip_suffix('%'))
            .filter_map(|l| l.rsplit(' ').next())
            .filter_map(|n| n.parse::<f64>().ok())
            .sum();
        assert!((total - 100.0).abs() < 0.5, "shares sum to {total}");
    }

    #[test]
    fn link_source_parses_device_keys() {
        assert_eq!(link_source("link:h3>s0"), Some("h3"));
        assert_eq!(link_source("link:s12>h40"), Some("s12"));
        assert_eq!(link_source("server:3"), None);
    }

    #[test]
    fn availability_report_pins_its_format() {
        use netrs_sim::AvailabilityStats;
        use netrs_simcore::SimTime;

        fn stats(issued: u64, avail: Option<AvailabilityStats>) -> RunStats {
            RunStats {
                scheme: Scheme::CliRs,
                latency: Summary::default(),
                breakdown: Default::default(),
                issued,
                completed: issued,
                duplicates: 0,
                rsnode_count: 0,
                rsnode_census: [0, 0, 0],
                drs_groups: 0,
                mean_accel_utilization: 0.0,
                max_accel_utilization: 0.0,
                mean_selection_wait: SimDuration::ZERO,
                mean_server_utilization: 0.0,
                replans: 0,
                writes_issued: 0,
                write_latency: Summary::default(),
                overload_events: 0,
                sim_end: SimTime::ZERO,
                events: 0,
                availability: avail,
                rw: None,
                parallel: None,
            }
        }

        let entries = vec![
            (
                "CliRS".to_string(),
                stats(
                    8_000,
                    Some(AvailabilityStats {
                        faults_injected: 1,
                        timeouts: 40,
                        retries: 120,
                        duplicate_drops: 3,
                        copies_dropped: 160,
                        failed_window_p99: SimDuration::from_micros(11_534),
                        time_to_recover: Some(SimDuration::from_micros(20_022)),
                    }),
                ),
            ),
            (
                "NetRS-ToR".to_string(),
                stats(
                    8_000,
                    Some(AvailabilityStats {
                        faults_injected: 1,
                        timeouts: 0,
                        retries: 9,
                        duplicate_drops: 0,
                        copies_dropped: 9,
                        failed_window_p99: SimDuration::from_micros(2_100),
                        time_to_recover: None,
                    }),
                ),
            ),
            ("baseline".to_string(), stats(8_000, None)),
        ];
        let expected = "\
## Availability under faults
label            issued  timeouts timeout-rate  retries   dropped   failed-p99      recover
CliRS              8000        40       0.500%      120       160     11.534ms     20.022ms
NetRS-ToR          8000         0       0.000%        9         9      2.100ms        never
baseline           8000 (fault-free run)
";
        assert_eq!(availability_report(&entries), expected);
    }

    #[test]
    fn rw_report_pins_its_format() {
        use netrs_sim::RwStats;
        use netrs_simcore::SimTime;

        fn stats(writes: u64, rw: Option<RwStats>) -> RunStats {
            RunStats {
                scheme: Scheme::NetRsToR,
                latency: Summary {
                    count: 3_600,
                    mean: SimDuration::from_micros(1_950),
                    p50: SimDuration::ZERO,
                    p95: SimDuration::ZERO,
                    p99: SimDuration::from_micros(12_400),
                    p999: SimDuration::ZERO,
                    max: SimDuration::ZERO,
                },
                breakdown: Default::default(),
                issued: 4_000,
                completed: 4_000,
                duplicates: 0,
                rsnode_count: 7,
                rsnode_census: [0, 0, 7],
                drs_groups: 0,
                mean_accel_utilization: 0.0,
                max_accel_utilization: 0.0,
                mean_selection_wait: SimDuration::ZERO,
                mean_server_utilization: 0.0,
                replans: 0,
                writes_issued: writes,
                write_latency: Summary {
                    count: writes,
                    mean: SimDuration::from_micros(2_720),
                    p50: SimDuration::ZERO,
                    p95: SimDuration::ZERO,
                    p99: SimDuration::from_micros(15_800),
                    p999: SimDuration::ZERO,
                    max: SimDuration::ZERO,
                },
                overload_events: 0,
                sim_end: SimTime::ZERO,
                events: 0,
                availability: None,
                rw,
                parallel: None,
            }
        }

        let entries = vec![
            (
                "cache-on".to_string(),
                stats(
                    400,
                    Some(RwStats {
                        writes_completed: 400,
                        cache_hits: 880,
                        cache_misses: 2_714,
                        stale_reads: 2,
                        cache_evictions: 1_084,
                        cache_invalidations: 688,
                    }),
                ),
            ),
            ("legacy-writes".to_string(), stats(400, None)),
            ("read-only".to_string(), stats(0, None)),
        ];
        let devices = vec![
            DeviceRecord {
                dev: "switch:20".into(),
                kind: "switch".into(),
                tier: 2,
                packets: [0, 0, 0],
                bytes: [0, 0, 0],
                ops: 0,
                selections: 0,
                mean_selection_wait_ns: 0,
                clone_updates: 0,
                busy_ns: 0,
                utilization: 0.0,
                mean_queue_depth: 0.0,
                max_queue_depth: 0,
                drops: 0,
                clamps: 0,
                cache_hits: 500,
                cache_misses: 1_500,
                cache_stale_hits: 1,
                cache_evictions: 600,
                cache_invalidations: 350,
            },
            // No cache traffic: stays out of the per-operator table.
            DeviceRecord {
                dev: "switch:21".into(),
                cache_hits: 0,
                cache_misses: 0,
                cache_stale_hits: 0,
                cache_evictions: 0,
                cache_invalidations: 0,
                ..devices_proto()
            },
        ];
        let expected = "\
## Read/write mix
label             reads       r-mean        r-p99   writes       w-mean        w-p99  hit-ratio    stale
cache-on           3600      1.950ms     12.400ms      400      2.720ms     15.800ms      24.5%        2
legacy-writes      3600      1.950ms     12.400ms      400      2.720ms     15.800ms          -        -
read-only          4000      1.950ms     12.400ms        0 (read-only run)

## Per-operator cache
operator         hits   misses  hit-ratio    stale   evicted   invalidated
switch:20         500     1500      25.0%        1       600           350
";
        assert_eq!(rw_report(&entries, &devices), expected);
        // Without device telemetry the per-operator table is absent.
        assert!(!rw_report(&entries, &[]).contains("Per-operator"));
    }

    fn devices_proto() -> DeviceRecord {
        DeviceRecord {
            dev: String::new(),
            kind: "switch".into(),
            tier: 2,
            packets: [0, 0, 0],
            bytes: [0, 0, 0],
            ops: 0,
            selections: 0,
            mean_selection_wait_ns: 0,
            clone_updates: 0,
            busy_ns: 0,
            utilization: 0.0,
            mean_queue_depth: 0.0,
            max_queue_depth: 0,
            drops: 0,
            clamps: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_stale_hits: 0,
            cache_evictions: 0,
            cache_invalidations: 0,
        }
    }

    #[test]
    fn sweep_report_pins_its_format() {
        use netrs_sim::SweepCell;
        use netrs_simcore::SimTime;

        fn cell(label: &str, seed: u64, mean_us: u64, p99_us: u64, wall_s: f64) -> SweepCell {
            SweepCell {
                label: label.to_string(),
                seed,
                wall_s,
                stats: RunStats {
                    scheme: Scheme::CliRs,
                    latency: Summary {
                        count: 8_000,
                        mean: SimDuration::from_micros(mean_us),
                        p50: SimDuration::ZERO,
                        p95: SimDuration::ZERO,
                        p99: SimDuration::from_micros(p99_us),
                        p999: SimDuration::ZERO,
                        max: SimDuration::ZERO,
                    },
                    breakdown: Default::default(),
                    issued: 8_000,
                    completed: 8_000,
                    duplicates: 0,
                    rsnode_count: 0,
                    rsnode_census: [0, 0, 0],
                    drs_groups: 0,
                    mean_accel_utilization: 0.0,
                    max_accel_utilization: 0.0,
                    mean_selection_wait: SimDuration::ZERO,
                    mean_server_utilization: 0.0,
                    replans: 0,
                    writes_issued: 0,
                    write_latency: Summary::default(),
                    overload_events: 0,
                    sim_end: SimTime::ZERO,
                    events: 0,
                    availability: None,
                    rw: None,
                    parallel: None,
                },
            }
        }

        let report = SweepReport {
            schema_version: SWEEP_SCHEMA_VERSION,
            threads: 4,
            wall_s: 12.5,
            sequential_wall_s: Some(48.0),
            speedup: Some(3.84),
            cells: vec![
                cell("CliRS", 1, 3_668, 16_908, 0.251),
                cell("NetRS-ToR", 2, 1_234, 7_777, 1.5),
            ],
        };
        let expected = "\
## Sweep: 2 cells (2 configs × 2 seeds) · 4 thread(s)
   parallel 12.50s · sequential 48.00s · speedup 3.84x

label              seed  completed       mean        p99    wall_s
CliRS                 1       8000    3.668ms   16.908ms     0.251
NetRS-ToR             2       8000    1.234ms    7.777ms     1.500
";
        assert_eq!(sweep_report(&report), expected);

        let no_baseline = SweepReport {
            sequential_wall_s: None,
            speedup: None,
            ..report
        };
        assert!(
            sweep_report(&no_baseline).contains("parallel 12.50s (no sequential baseline)"),
            "baseline-free sweeps must say so"
        );
    }

    #[test]
    fn control_report_pins_its_format() {
        use netrs_sim::{
            DisplacedGroup, DrsSpanRecord, PlanEventRecord, SnapshotGroup, SolveRecord,
        };

        let snapshot = |tor: u32, from_ns: u64, to_ns: u64| {
            ControlRecord::Snapshot(SnapshotRecord {
                tor,
                pod: tor / 2,
                from_ns,
                to_ns,
                groups: vec![SnapshotGroup {
                    group: 0,
                    counts: [50, 100, 350],
                    rates: [100.0, 200.0, 700.0],
                }],
            })
        };
        let records = vec![
            ControlRecord::Plan(PlanEventRecord {
                t_ns: 0,
                trigger: "initial".into(),
                switch: None,
                solve: Some(SolveRecord {
                    greedy: false,
                    variables: 52,
                    constraints: 42,
                    lp_iterations: 13_766,
                    branch_nodes: 200,
                    objective: 4.0,
                    bound: Some(3.0),
                    proven_optimal: Some(false),
                }),
                reassigned: vec![],
                newly_assigned: vec![0, 1, 2, 3, 4, 5, 6],
                unassigned: vec![],
                rsnodes_added: vec![3, 4, 5, 16],
                rsnodes_removed: vec![],
                rsnodes: 4,
                drs_groups: 0,
                rules_recompiled: 20,
            }),
            snapshot(0, 0, 500_000_000),
            snapshot(1, 0, 500_000_000),
            ControlRecord::Plan(PlanEventRecord {
                t_ns: 500_000_000,
                trigger: "operator_fail".into(),
                switch: Some(16),
                solve: None,
                reassigned: vec![],
                newly_assigned: vec![],
                unassigned: vec![5, 6],
                rsnodes_added: vec![],
                rsnodes_removed: vec![16],
                rsnodes: 4,
                drs_groups: 2,
                rules_recompiled: 20,
            }),
            ControlRecord::DrsSpan(DrsSpanRecord {
                switch: 16,
                fail_ns: 490_000_000,
                detect_ns: Some(500_000_000),
                recover_ns: Some(900_000_000),
                groups: vec![
                    DisplacedGroup {
                        group: 5,
                        displaced_ns: 400_000_000,
                    },
                    DisplacedGroup {
                        group: 6,
                        displaced_ns: 400_000_000,
                    },
                ],
            }),
        ];
        let expected = "\
## Control plane: NetRS-ILP
   5 records: 2 snapshots · 2 plan events · 1 DRS spans
   traffic evolution (batch · windows · ToRs · resp/s by tier):
     1           2     2      200.0      400.0     1400.0
   plan churn (t · trigger · groups re/new/un · RSNodes +/- · DRS · rules · solve):
     0.000000s   initial                0/  7/  0    4 (+4/-0)    0     20  ilp 13766 it · 200 nodes · obj 4 · gap 1
     0.500000s   operator_fail(sw16)    0/  0/  2    4 (+0/-1)    2     20  -
   DRS spans (switch · fail · detect-lag · recover · groups · displaced):
     sw16     0.490000s   +10.000ms   0.900000s   2   800.000ms
";
        let mut entries = vec![("NetRS-ILP".to_string(), records)];
        assert_eq!(control_report(&entries), expected);
        // A proven plan says so; a stream from before the bound was
        // recorded renders without the suffix.
        let mut set_proof = |bound, proven_optimal| {
            let ControlRecord::Plan(plan) = &mut entries[0].1[0] else {
                unreachable!("the first record is the initial plan");
            };
            let solve = plan.solve.as_mut().expect("the initial plan was solved");
            (solve.bound, solve.proven_optimal) = (bound, proven_optimal);
            control_report(&entries)
        };
        assert!(set_proof(Some(4.0), Some(true)).contains("obj 4 · proven\n"));
        assert!(set_proof(None, None).contains("obj 4\n"));
        // A second label appends the side-by-side summary.
        let two = vec![entries[0].clone(), ("NetRS-ToR".to_string(), Vec::new())];
        let report = control_report(&two);
        assert!(report.contains("## Control plane comparison"));
        assert!(report.contains("lp-it/solve"));
        assert!(report.contains("800.000ms"), "displaced total:\n{report}");
    }

    #[test]
    fn compare_bench_flags_regressions_beyond_threshold() {
        let art = |rows: &[(&str, f64)]| {
            to_value(&PerfArtifact {
                runs: rows
                    .iter()
                    .map(|&(label, eps)| host_profile(label, 18_000, eps))
                    .collect(),
            })
        };
        let base = art(&[
            ("CliRS", 1_000_000.0),
            ("NetRS-ILP", 800_000.0),
            ("gone", 1.0),
        ]);
        let ok_new = art(&[("CliRS", 950_000.0), ("NetRS-ILP", 850_000.0)]);
        let cmp = compare_bench(&base, &ok_new, 0.1).expect("valid artifacts compare");
        assert!(cmp.regressions.is_empty(), "5% drop is within 10%");
        assert!(cmp.report.contains("only in baseline"));
        assert!(cmp.report.contains("ok"));

        let bad_new = art(&[("CliRS", 850_000.0), ("NetRS-ILP", 850_000.0)]);
        let cmp = compare_bench(&base, &bad_new, 0.1).expect("valid artifacts compare");
        assert_eq!(cmp.regressions.len(), 1, "15% drop fails a 10% gate");
        assert!(cmp.regressions[0].contains("CliRS"));
        assert!(cmp.report.contains("REGRESSION"));

        // Tightening the threshold flags the 5% drop too.
        let cmp = compare_bench(&base, &ok_new, 0.01).expect("valid artifacts compare");
        assert_eq!(cmp.regressions.len(), 1);

        // Malformed or disjoint artifacts are errors, not empty passes.
        assert!(compare_bench(&Value::Arr(vec![]), &ok_new, 0.1).is_err());
        assert!(compare_bench(&base, &Value::Arr(vec![]), 0.1).is_err());
        let disjoint = art(&[("other", 1.0)]);
        assert!(compare_bench(&base, &disjoint, 0.1)
            .unwrap_err()
            .contains("no comparable label"));
    }

    fn host_profile(label: &str, events: u64, eps: f64) -> HostProfile {
        use netrs_sim::{AllocStats, HostMeta, QueueStats, RequestTableStats, PERF_SCHEMA_VERSION};
        HostProfile {
            label: label.into(),
            schema_version: PERF_SCHEMA_VERSION,
            scheme: label.rsplit('/').next().unwrap_or(label).into(),
            seed: 1,
            requests: 2_000,
            events,
            wall_s: 0.006,
            events_per_sec: eps,
            peak_rss_kb: 6_900,
            stride: 7,
            attributed_ns: 4_500_000,
            host: HostMeta {
                commit: "ab12cd3".into(),
                cpu: "Test CPU".into(),
                cores: 8,
            },
            queue: QueueStats {
                pushes: events,
                pops: events,
                high_water: 420,
                depth_hist: vec![1, 2, 4],
            },
            alloc: Some(AllocStats {
                allocs: 120,
                deallocs: 100,
                peak_bytes: 9_000_000,
            }),
            request_table: Some(RequestTableStats {
                slots: 1_024,
                live_high_water: 310,
                overflow_high_water: 4,
            }),
            clock_pair_ns: None,
            kinds: vec![
                KindRecord {
                    kind: "Generate".into(),
                    layer: "state".into(),
                    count: 2_000,
                    sampled: 290,
                    self_ns: 1_500_000,
                },
                KindRecord {
                    kind: "ServerDone".into(),
                    layer: "server".into(),
                    count: events - 2_000,
                    sampled: 2_282,
                    self_ns: 3_000_000,
                },
            ],
        }
    }

    fn to_value(artifact: &PerfArtifact) -> Value {
        let text = serde_json::to_string(artifact).unwrap();
        serde_json::from_str(&text).unwrap()
    }

    #[test]
    fn check_bench_detects_and_validates_versioned_artifacts() {
        let art = PerfArtifact {
            runs: vec![
                host_profile("smoke/CliRS", 18_000, 2_500_000.0),
                host_profile("smoke/CliRS", 18_000, 3_000_000.0),
            ],
        };
        assert_eq!(check_bench(&to_value(&art)).unwrap(), art);
        // A bare `simulate --perf` profile is a one-run artifact.
        let bare: Value = serde_json::from_str(
            &serde_json::to_string(&host_profile("CliRS", 18_000, 3e6)).unwrap(),
        )
        .unwrap();
        assert_eq!(check_bench(&bare).unwrap().runs.len(), 1);
        // A flat map of wall-clock entries carries no version: not a perf
        // artifact.
        let flat: Value = serde_json::from_str(
            r#"{"x": {"events": 1, "events_per_sec": 1.0, "peak_rss_kb": 1, "wall_clock_s": 1.0}}"#,
        )
        .unwrap();
        assert!(check_bench(&flat)
            .unwrap_err()
            .contains("missing field `schema_version`"));
        // Kind counts that do not sum to the event total are rejected.
        let mut bad = host_profile("CliRS", 18_000, 3e6);
        bad.kinds[0].count += 1;
        let err = check_bench(&to_value(&PerfArtifact { runs: vec![bad] })).unwrap_err();
        assert!(err.contains("sum"), "{err}");
        // Empty histories and unknown versions are rejected.
        let empty: Value = serde_json::from_str(r#"{"schema_version": 1, "runs": []}"#).unwrap();
        assert!(check_bench(&empty).unwrap_err().contains("no runs"));
        let future: Value = serde_json::from_str(r#"{"schema_version": 99, "runs": []}"#).unwrap();
        assert!(check_bench(&future).unwrap_err().contains("unsupported"));
    }

    #[test]
    fn compare_bench_takes_the_latest_run_per_label() {
        let base = PerfArtifact {
            runs: vec![host_profile("smoke/CliRS", 18_000, 1_000_000.0)],
        };
        // The candidate's history: an old slow run, then the current one —
        // the latest run per label must win.
        let ok = PerfArtifact {
            runs: vec![
                host_profile("smoke/CliRS", 18_000, 500_000.0),
                host_profile("smoke/CliRS", 18_000, 980_000.0),
            ],
        };
        let cmp = compare_bench(&to_value(&base), &to_value(&ok), 0.1).expect("both validate");
        assert!(cmp.regressions.is_empty(), "{:?}", cmp.regressions);
        assert!(cmp.report.contains("events_per_sec"));

        let bad = PerfArtifact {
            runs: vec![host_profile("smoke/CliRS", 18_000, 800_000.0)],
        };
        let cmp = compare_bench(&to_value(&base), &to_value(&bad), 0.1).expect("both validate");
        assert_eq!(cmp.regressions.len(), 1, "20% drop fails a 10% gate");
    }

    #[test]
    fn perf_report_pins_its_format() {
        let older = HostProfile {
            peak_rss_kb: 6_000,
            ..host_profile("smoke/CliRS", 18_000, 2_500_000.0)
        };
        let art = PerfArtifact {
            runs: vec![older, host_profile("smoke/CliRS", 18_000, 3_000_000.0)],
        };
        let report = perf_report(&[("bench".to_string(), art.clone())]);
        let expected = "\
## Perf profile: bench
   2 runs

### smoke/CliRS — scheme CliRS · seed 1 · 2000 requests
   host: Test CPU · 8 cores · commit ab12cd3
   18000 events in 0.006s wall (3000000 events/s) · stride 7 · 75.0% of wall attributed · peak RSS 6900 kB
   kind             layer           count    self-ms   % wall   ns/event
   ServerDone       server          16000      3.000    50.0%      187.5
   Generate         state            2000      1.500    25.0%      750.0
   by layer (self-ms · % of attributed · events):
     server              3.000    66.7%        16000
     state               1.500    33.3%         2000
   queue: 18000 pushes · 18000 pops · high-water 420 · depth log2-hist [1, 2, 4]
   request table: 1024 slots · live high-water 310 · overflow high-water 4
   alloc: 120 allocs · 100 deallocs · peak 9000000 bytes (0.007 allocs/event)

   trajectory (run · label · events/s · peak RSS kB · attributed):
     1    smoke/CliRS             2500000         6000      75.0%
     2    smoke/CliRS             3000000         6900      75.0%
";
        assert_eq!(report, expected);
        // Two files close with the side-by-side comparison.
        let report = perf_report(&[
            ("before".to_string(), art.clone()),
            ("after".to_string(), art),
        ]);
        assert!(report.contains("## Perf comparison"), "{report}");
        assert!(report.contains("ns/event"), "{report}");
    }

    #[test]
    fn check_bench_rejects_malformed_artifacts() {
        assert!(check_bench(&Value::Arr(vec![])).is_err());
        assert!(check_bench(&Value::Obj(vec![])).is_err());
        // A row without a kind table — what an unprofiled measurement
        // would write — is rejected, wherever it sits in the history.
        let unprofiled = HostProfile {
            stride: 0,
            attributed_ns: 0,
            kinds: Vec::new(),
            ..host_profile("smoke/seq", 18_000, 3e6)
        };
        let art = PerfArtifact {
            runs: vec![host_profile("smoke/CliRS", 18_000, 3e6), unprofiled],
        };
        let err = check_bench(&to_value(&art)).unwrap_err();
        assert!(err.contains("\"smoke/seq\" has no kind table"), "{err}");
        // A run missing a required key, or carrying a wrong-typed one.
        let bare: Value = serde_json::from_str(
            &serde_json::to_string(&host_profile("CliRS", 18_000, 3e6)).unwrap(),
        )
        .unwrap();
        let run = bare.as_obj().expect("a profile is an object");
        let without_events: Vec<_> = run.iter().filter(|(k, _)| k != "events").cloned().collect();
        assert!(check_bench(&Value::Obj(without_events))
            .unwrap_err()
            .contains("`events`"));
        let wrong_type: Vec<_> = run
            .iter()
            .map(|(k, v)| match k.as_str() {
                "events" => (k.clone(), Value::Str("nope".into())),
                _ => (k.clone(), v.clone()),
            })
            .collect();
        assert!(check_bench(&Value::Obj(wrong_type)).is_err());
    }

    #[test]
    fn repo_bench_perf_artifact_holds_only_profiled_rows() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PERF.json");
        let text = std::fs::read_to_string(path).expect("BENCH_PERF.json is readable");
        let v: Value = serde_json::from_str(&text).expect("BENCH_PERF.json parses");
        let art = check_bench(&v).unwrap_or_else(|e| panic!("BENCH_PERF.json: {e}"));
        for run in &art.runs {
            assert!(!run.kinds.is_empty(), "{} has no kind table", run.label);
        }
        let raw = v
            .get("runs")
            .and_then(Value::as_arr)
            .expect("BENCH_PERF.json is a versioned history");
        assert_eq!(raw.len(), art.runs.len());
        for run in raw {
            assert!(
                run.get("parallel").is_none(),
                "{run:?} has a parallel block"
            );
        }
    }
}
