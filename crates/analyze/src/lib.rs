//! Offline analysis of NetRS simulation artifacts.
//!
//! This crate — and its `netrs-analyze` CLI — reads back seven artifacts
//! that `simulate` and `repro` write, and turns them into the reports the
//! paper's evaluation is built from:
//!
//! | artifact | written by | read by |
//! |---|---|---|
//! | per-copy traces, one [`TraceRecord`] a line | `simulate --trace` | `report --trace` |
//! | device telemetry, one [`DeviceRecord`] a line | `simulate --devices` | `report --devices`, `rw --devices` |
//! | virtual-time samples, one [`SamplePoint`] a line | `simulate --timeseries` | `report --timeseries` |
//! | the control-plane stream, one [`ControlRecord`] a line | `simulate --control` | `control` |
//! | run stats, one [`RunStats`] document | `simulate --json` | `availability --stats`, `rw --stats` |
//! | a (config × seed) grid, one [`SweepReport`] | `simulate sweep`, `repro fig4` … | `sweep` |
//! | a host-perf profile, one [`HostProfile`] | `simulate --perf` | `perf` |
//!
//! The reports:
//!
//! * **scheme comparison** — mean / median / p95 / p99 per latency phase,
//!   side by side across labeled traces (CliRS vs NetRS-ILP, …);
//! * **tail attribution** — which phases and which servers the slowest
//!   1% of requests spend their time in;
//! * **hotspot tables** — the busiest devices per kind, per-tier traffic
//!   totals, and ECMP path skew from per-link packet counts;
//! * **control-plane tables** — traffic-matrix batches, plan churn with
//!   solver effort, DRS spans and cache audits per `--control` stream;
//! * **availability and read/write tables** — timeout rate, retries and
//!   time-to-recover, read vs write latency and cache hit ratio per stats
//!   file;
//! * **perf profiles** — per-event-kind host-cost tables with a layer
//!   rollup per profile, and profiles side by side across files;
//! * **sweep grids** — completion, mean and p99 per (config, seed) cell.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{Display, Write as _};
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use netrs_sim::{
    CacheRecord, ControlRecord, DeviceRecord, DrsSpanRecord, HostProfile, KindRecord,
    PlanEventRecord, RunStats, SamplePoint, Scheme, SnapshotRecord, SweepReport, TraceRecord,
    PERF_SCHEMA_VERSION, SWEEP_SCHEMA_VERSION,
};
use netrs_simcore::{Histogram, SimDuration, SimTime, Summary};

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

/// An artifact record the reports can rely on: [`load_jsonl`] and
/// [`load_json`] refuse a file holding one that fails [`Checked::check`],
/// so no report subtracts its way to a wrapped number.
pub trait Checked: serde::Deserialize {
    /// Why this record, read after `prev` in the same file, cannot be
    /// reported on.
    ///
    /// # Errors
    ///
    /// A message naming the offending field.
    fn check(&self, _prev: Option<&Self>) -> Result<(), String> {
        Ok(())
    }
}

impl Checked for TraceRecord {}

/// Why `field`'s `counts` cannot be summed in a `u64`, if they cannot.
fn check_sum(field: &str, counts: &[u64]) -> Result<(), String> {
    let sum = counts
        .iter()
        .try_fold(0u64, |total, &n| total.checked_add(n));
    sum.map(drop)
        .ok_or_else(|| format!("{field} {counts:?} sum past u64::MAX"))
}

impl Checked for DeviceRecord {
    /// The reports add a record's tiers (`total_packets`) and its cache
    /// counters.
    fn check(&self, _prev: Option<&Self>) -> Result<(), String> {
        check_sum("packets", &self.packets)?;
        check_sum(
            "cache_hits + cache_misses + cache_invalidations",
            &[self.cache_hits, self.cache_misses, self.cache_invalidations],
        )
    }
}

impl Checked for SamplePoint {
    /// The report spans first to last sample.
    fn check(&self, prev: Option<&Self>) -> Result<(), String> {
        match prev {
            Some(p) if self.t_ns < p.t_ns => {
                Err(format!("t_ns {} goes back from {}", self.t_ns, p.t_ns))
            }
            _ => Ok(()),
        }
    }
}

impl Checked for ControlRecord {
    /// The report prints a DRS span's detection lag and its displaced
    /// time summed over its groups.
    fn check(&self, _prev: Option<&Self>) -> Result<(), String> {
        let ControlRecord::DrsSpan(s) = self else {
            return Ok(());
        };
        if s.detect_ns.is_some_and(|d| d < s.fail_ns) {
            return Err(format!(
                "DRS span detect_ns {} precedes its fail_ns {}",
                s.detect_ns.unwrap_or_default(),
                s.fail_ns
            ));
        }
        let displaced: Vec<u64> = s.groups.iter().map(|g| g.displaced_ns).collect();
        check_sum("DRS span displaced_ns", &displaced)
    }
}

impl Checked for RunStats {
    /// The read/write report counts `issued - writes_issued` reads.
    fn check(&self, _prev: Option<&Self>) -> Result<(), String> {
        if self.writes_issued > self.issued {
            return Err(format!(
                "writes_issued {} exceeds issued {}",
                self.writes_issued, self.issued
            ));
        }
        Ok(())
    }
}

impl Checked for SweepReport {
    fn check(&self, _prev: Option<&Self>) -> Result<(), String> {
        if self.schema_version != SWEEP_SCHEMA_VERSION {
            return Err(format!(
                "sweep artifact schema v{} (this build reads v{SWEEP_SCHEMA_VERSION})",
                self.schema_version
            ));
        }
        Ok(())
    }
}

impl Checked for HostProfile {
    /// The report reads the kind table as a partition of `events` and
    /// adds its self-times into layers.
    fn check(&self, _prev: Option<&Self>) -> Result<(), String> {
        if self.schema_version != PERF_SCHEMA_VERSION {
            return Err(format!(
                "perf profile schema v{} (this build reads v{PERF_SCHEMA_VERSION})",
                self.schema_version
            ));
        }
        if self.kinds.is_empty() {
            return Err("kinds is empty: the profile has no kind table".to_string());
        }
        let counts: Vec<u64> = self.kinds.iter().map(|k| k.count).collect();
        check_sum("kind counts", &counts)?;
        let self_ns: Vec<u64> = self.kinds.iter().map(|k| k.self_ns).collect();
        check_sum("kind self_ns", &self_ns)?;
        if self.kind_count_sum() != self.events {
            return Err(format!(
                "kind counts sum to {} but events is {}",
                self.kind_count_sum(),
                self.events
            ));
        }
        Ok(())
    }
}

/// Loads a JSONL artifact (`--trace`, `--devices`, `--timeseries`,
/// `--control`): one record per non-blank line, each passing
/// [`Checked::check`].
///
/// # Errors
///
/// Names the file when it cannot be opened, and the file and line of the
/// first line that cannot be read, parsed or checked.
pub fn load_jsonl<T: Checked>(path: &str) -> Result<Vec<T>, String> {
    let file = File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut out: Vec<T> = Vec::new();
    for (i, line) in BufReader::new(file).lines().enumerate() {
        let at = |e: &dyn Display| format!("{path}:{}: {e}", i + 1);
        let line = line.map_err(|e| at(&e))?;
        if line.trim().is_empty() {
            continue;
        }
        let record: T = serde_json::from_str(&line).map_err(|e| at(&e))?;
        record.check(out.last()).map_err(|e| at(&e))?;
        out.push(record);
    }
    Ok(out)
}

/// Loads a JSON artifact (`--json` stats, a sweep, a perf profile): one
/// document passing [`Checked::check`].
///
/// # Errors
///
/// Names the file when it cannot be read, parsed or checked.
pub fn load_json<T: Checked>(path: &str) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc: T = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.check(None).map_err(|e| format!("{path}: {e}"))?;
    Ok(doc)
}

/// An aligned table, given as its row template: literal text with one
/// slot per column, `{HEADER<WIDTH}` left-aligned or
/// `{HEADER>WIDTH.PRECISION}` right-aligned (width and precision
/// optional). The text before the first slot is the indent. The header
/// row and every data row are written through the same template, so the
/// two cannot drift apart; a table under a title line leaves its headers
/// empty.
struct Table<'a>(&'a str);

impl Table<'_> {
    /// Writes the header row: each column's header in its slot.
    fn header(&self, out: &mut String) {
        self.write(out, None);
    }

    /// Writes one data row. A row with fewer cells than the template has
    /// slots ends after its last cell.
    fn row(&self, out: &mut String, cells: &[&dyn Display]) {
        self.write(out, Some(cells));
    }

    fn write(&self, out: &mut String, cells: Option<&[&dyn Display]>) {
        let mut rest = self.0;
        for n in 0.. {
            let Some((text, tail)) = rest.split_once('{') else {
                break;
            };
            if cells.is_some_and(|cells| n == cells.len()) {
                rest = "";
                break;
            }
            let (slot, tail) = tail.split_once('}').expect("a table slot is closed");
            let (head, spec) = slot.split_at(slot.find(['<', '>']).unwrap_or(slot.len()));
            let (width, precision) = spec
                .get(1..)
                .map_or(("", ""), |s| s.split_once('.').unwrap_or((s, "")));
            let cell = match (cells, precision.parse::<usize>()) {
                (None, _) => head.to_string(),
                (Some(cells), Ok(p)) => format!("{:.p$}", cells[n]),
                (Some(cells), Err(_)) => cells[n].to_string(),
            };
            // An empty width is 0: the cell as it is.
            let width = width.parse().unwrap_or(0);
            out.push_str(text);
            let _ = match spec.starts_with('<') {
                true => write!(out, "{cell:<width$}"),
                false => write!(out, "{cell:>width$}"),
            };
            rest = tail;
        }
        out.push_str(rest);
        out.push('\n');
    }
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

/// Renders the side-by-side per-phase comparison: one table per
/// statistic (mean, median, p95, p99), phases as rows, labels as
/// columns. Statistics are over winning reads.
#[must_use]
pub fn comparison_report(traces: &[LabeledTrace]) -> String {
    // Per label: the six phases' summaries, then end to end's.
    let per_label: Vec<(&str, Vec<Summary>)> = traces
        .iter()
        .map(|t| {
            let reads = winning_reads(&t.records);
            let mut summaries: Vec<Summary> =
                PHASES.iter().map(|&(_, f)| summarize(&reads, f)).collect();
            summaries.push(summarize(&reads, |r| r.e2e_ns));
            (t.label.as_str(), summaries)
        })
        .collect();
    let rows = PHASES.iter().map(|&(phase, _)| phase).chain(["e2e"]);

    let mut out = String::new();
    let _ = writeln!(out, "## Per-phase latency comparison (winning reads)");
    for (label, summaries) in &per_label {
        let _ = writeln!(
            out,
            "   {label}: {} requests",
            summaries[PHASES.len()].count
        );
    }
    let table = format!("{{<14}}{}", " {>14}".repeat(per_label.len()));
    let table = Table(&table);
    type StatPick = fn(&Summary) -> SimDuration;
    let stats: [(&str, StatPick); 4] = [
        ("mean", |s| s.mean),
        ("median", |s| s.p50),
        ("p95", |s| s.p95),
        ("p99", |s| s.p99),
    ];
    for (stat_name, pick) in stats {
        out.push('\n');
        let mut header: Vec<&dyn Display> = vec![&stat_name];
        header.extend(per_label.iter().map(|(label, _)| label as &dyn Display));
        table.row(&mut out, &header);
        for (i, name) in rows.clone().enumerate() {
            let values: Vec<SimDuration> = per_label.iter().map(|(_, s)| pick(&s[i])).collect();
            let mut row: Vec<&dyn Display> = vec![&name];
            row.extend(values.iter().map(|v| v as &dyn Display));
            table.row(&mut out, &row);
        }
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
    let p99 = h.percentile(99.0);
    let tail: Vec<&&TraceRecord> = reads
        .iter()
        .filter(|r| r.e2e_ns >= p99.as_nanos())
        .collect();
    let _ = writeln!(
        out,
        "   p99 = {p99} · {} requests at or above it",
        tail.len()
    );
    let tail_e2e: u128 = tail.iter().map(|r| u128::from(r.e2e_ns)).sum();
    if tail_e2e > 0 {
        let _ = writeln!(out, "   phase shares of tail time:");
        let shares = Table("     {<14} {>5.1}%");
        for (phase, extract) in PHASES {
            let spent: u128 = tail.iter().map(|r| u128::from(extract(r))).sum();
            shares.row(
                &mut out,
                &[&phase, &(spent as f64 / tail_e2e as f64 * 100.0)],
            );
        }
    }
    let mut by_server: BTreeMap<u32, u64> = BTreeMap::new();
    for r in &tail {
        *by_server.entry(r.server).or_default() += 1;
    }
    let mut by_server: Vec<(u32, u64)> = by_server.into_iter().collect();
    by_server.sort_by_key(|&(s, n)| (std::cmp::Reverse(n), s));
    let _ = writeln!(out, "   top tail servers (server · tail requests):");
    let servers = Table("     server:{<8} {}");
    for (server, n) in by_server.iter().take(top) {
        servers.row(&mut out, &[server, n]);
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
    let links: Vec<&DeviceRecord> = devices.iter().filter(|d| d.kind == "link").collect();
    let _ = writeln!(out, "   link traffic per tier (packets · bytes):");
    let tiers = Table("     Tier-{}          {>12} · {>12}");
    for t in 0..3 {
        let packets: u128 = links.iter().map(|d| u128::from(d.packets[t])).sum();
        let bytes: u128 = links.iter().map(|d| u128::from(d.bytes[t])).sum();
        tiers.row(&mut out, &[&t, &packets, &bytes]);
    }

    let busiest = Table("     {<14} {>6.2}% {>10} {>8} {>6}");
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
            busiest.row(
                &mut out,
                &[
                    &d.dev,
                    &(d.utilization * 100.0),
                    &d.total_packets(),
                    &work,
                    &d.max_queue_depth,
                ],
            );
        }
    }

    // ECMP skew: group directed links by source endpoint; endpoints with
    // several outgoing links (hosts have one) show hash imbalance as
    // max/mean packet ratio.
    let mut groups: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for d in &links {
        if let Some(src) = link_source(&d.dev) {
            groups.entry(src).or_default().push(d.total_packets());
        }
    }
    let sum = |counts: &[u64]| counts.iter().map(|&n| u128::from(n)).sum::<u128>();
    let mut skews: Vec<(&str, usize, f64)> = groups
        .iter()
        .filter(|(_, c)| c.len() > 1 && sum(c) > 0)
        .map(|(src, counts)| {
            let max = *counts.iter().max().unwrap() as f64;
            let mean = sum(counts) as f64 / counts.len() as f64;
            (*src, counts.len(), max / mean)
        })
        .collect();
    skews.sort_by(|a, b| b.2.total_cmp(&a.2).then_with(|| a.0.cmp(b.0)));
    let _ = writeln!(
        out,
        "   ECMP skew (endpoint · outgoing links · max/mean packets):"
    );
    let skew_rows = Table("     {<8} {>3} {>8.3}");
    for (src, fanout, skew) in skews.iter().take(top) {
        skew_rows.row(&mut out, &[src, fanout, skew]);
    }
    out
}

/// Renders a short summary of a `--timeseries` file: sample count, span,
/// and the peak / mean of each sampled series. The samples are in time
/// order, as [`load_jsonl`] checks.
#[must_use]
pub fn timeseries_report(points: &[SamplePoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Time series");
    let (Some(first), Some(last)) = (points.first(), points.last()) else {
        let _ = writeln!(out, "   (no samples)");
        return out;
    };
    let span = SimDuration::from_nanos(last.t_ns - first.t_ns);
    let _ = writeln!(out, "   {} samples over {span}", points.len());
    type SeriesPick = fn(&SamplePoint) -> f64;
    let series: [(&str, SeriesPick); 4] = [
        ("accel util", |p| p.accel_util),
        ("server occupancy", |p| p.server_occupancy),
        ("outstanding", |p| p.outstanding),
        ("DRS groups", |p| p.drs_groups),
    ];
    let rows = Table("   {<18} mean {>8.3} · peak {>8.3}");
    for (name, pick) in series {
        let mean = points.iter().map(pick).sum::<f64>() / points.len() as f64;
        let peak = points.iter().map(pick).fold(f64::MIN, f64::max);
        rows.row(&mut out, &[&name, &mean, &peak]);
    }
    out
}

/// Renders the per-run availability table: timeout rate, retries,
/// dropped copies, the p99 of the failed window and the time back to the
/// steady-state latency band, one row per labeled stats file. Runs
/// without a fault plan report as fault-free.
#[must_use]
pub fn availability_report(entries: &[(String, RunStats)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Availability under faults");
    let table = Table(
        "{label<14} {issued>8} {timeouts>9} {timeout-rate>12} {retries>8} {dropped>9} \
         {failed-p99>12} {recover>12}",
    );
    table.header(&mut out);
    for (label, stats) in entries {
        let Some(a) = stats.availability.as_ref() else {
            table.row(&mut out, &[label, &stats.issued, &"(fault-free run)"]);
            continue;
        };
        let rate = if stats.issued > 0 {
            a.timeouts as f64 / stats.issued as f64 * 100.0
        } else {
            0.0
        };
        let recover = a
            .time_to_recover
            .map_or_else(|| "never".to_string(), |t| t.to_string());
        table.row(
            &mut out,
            &[
                label,
                &stats.issued,
                &a.timeouts,
                &format!("{rate:.3}%"),
                &a.retries,
                &a.copies_dropped,
                &a.failed_window_p99,
                &recover,
            ],
        );
    }
    out
}

/// `hits / (hits + misses)` as a percentage, `-` before the first lookup.
fn hit_ratio(hits: u64, misses: u64) -> String {
    match hits + misses {
        0 => "-".to_string(),
        gets => format!("{:.1}%", hits as f64 / gets as f64 * 100.0),
    }
}

/// Renders the read/write-mix report: per-label read vs write latency
/// percentiles, the hot-key-cache hit ratio and the stale-read count.
/// Labels without an `rw` stats block (read-only runs, or legacy
/// all-replica writes with no cache) render as a read-only row. When
/// `devices` is non-empty a per-operator cache table follows, one row
/// per switch that recorded cache traffic, in file order. Each run's
/// `writes_issued` is at most its `issued`, as [`load_json`] checks.
#[must_use]
pub fn rw_report(entries: &[(String, RunStats)], devices: &[DeviceRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Read/write mix");
    let table = Table(
        "{label<14} {reads>8} {r-mean>12} {r-p99>12} {writes>8} {w-mean>12} {w-p99>12} \
         {hit-ratio>10} {stale>8}",
    );
    table.header(&mut out);
    for (label, stats) in entries {
        let reads = stats.issued - stats.writes_issued;
        let (mean, p99) = (&stats.latency.mean, &stats.latency.p99);
        if stats.writes_issued == 0 {
            table.row(
                &mut out,
                &[label, &reads, mean, p99, &0, &"(read-only run)"],
            );
            continue;
        }
        let (ratio, stale) = match stats.rw.as_ref() {
            Some(rw) => (
                hit_ratio(rw.cache_hits, rw.cache_misses),
                rw.stale_reads.to_string(),
            ),
            None => ("-".to_string(), "-".to_string()),
        };
        table.row(
            &mut out,
            &[
                label,
                &reads,
                mean,
                p99,
                &stats.writes_issued,
                &stats.write_latency.mean,
                &stats.write_latency.p99,
                &ratio,
                &stale,
            ],
        );
    }
    let cached: Vec<&DeviceRecord> = devices
        .iter()
        .filter(|d| d.cache_hits + d.cache_misses + d.cache_invalidations > 0)
        .collect();
    if !cached.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "## Per-operator cache");
        let table = Table(
            "{operator<12} {hits>8} {misses>8} {hit-ratio>10} {stale>8} {evicted>9} \
             {invalidated>13}",
        );
        table.header(&mut out);
        for d in cached {
            table.row(
                &mut out,
                &[
                    &d.dev,
                    &d.cache_hits,
                    &d.cache_misses,
                    &hit_ratio(d.cache_hits, d.cache_misses),
                    &d.cache_stale_hits,
                    &d.cache_evictions,
                    &d.cache_invalidations,
                ],
            );
        }
    }
    out
}

/// A `--control` stream's records by kind, each in stream order.
type ControlSplit<'a> = (
    Vec<&'a SnapshotRecord>,
    Vec<&'a PlanEventRecord>,
    Vec<&'a DrsSpanRecord>,
    Vec<&'a CacheRecord>,
);

fn split_control(records: &[ControlRecord]) -> ControlSplit<'_> {
    let mut split: ControlSplit = Default::default();
    for record in records {
        match record {
            ControlRecord::Snapshot(s) => split.0.push(s),
            ControlRecord::Plan(p) => split.1.push(p),
            ControlRecord::DrsSpan(s) => split.2.push(s),
            ControlRecord::Cache(c) => split.3.push(c),
        }
    }
    split
}

/// Renders the control-plane report for labeled `--control` streams:
/// the traffic-matrix evolution (one row per snapshot batch), the plan
/// churn table (one row per controller decision, with solver effort),
/// and the DRS span timeline. With more than one label, a side-by-side
/// summary table closes the report. Every DRS span is detected no
/// earlier than it failed, as [`load_jsonl`] checks.
#[must_use]
pub fn control_report(entries: &[(String, Vec<ControlRecord>)]) -> String {
    let batches_table = Table("     {<5} {>7} {>5} {>10.1} {>10.1} {>10.1}");
    let plans_table = Table("     {<11} {<20} {>3}/{>3}/{>3}  {>3} (+{}/-{}) {>4} {>6}  {}");
    let spans_table = Table("     sw{<4} {>11} {>11} {>11} {>3} {>11}");
    let caches_table = Table("     {<8} {>8} {>8}/{<8} {>5} {>7} {>11}");
    let mut out = String::new();
    for (i, (label, records)) in entries.iter().enumerate() {
        if i > 0 {
            let _ = writeln!(out);
        }
        let (snapshots, plans, spans, caches) = split_control(records);
        let _ = writeln!(out, "## Control plane: {label}");
        let _ = writeln!(
            out,
            "   {} records: {} snapshots · {} plan events · {} DRS spans",
            records.len(),
            snapshots.len(),
            plans.len(),
            spans.len()
        );

        // Traffic-matrix evolution: the snapshots since the previous plan
        // decision form a batch, which the next decision consumes.
        let batches: Vec<Vec<&SnapshotRecord>> = records
            .split(|r| matches!(r, ControlRecord::Plan(_)))
            .map(|between| split_control(between).0)
            .filter(|batch| !batch.is_empty())
            .collect();
        if !batches.is_empty() {
            let _ = writeln!(
                out,
                "   traffic evolution (batch · windows · ToRs · resp/s by tier):"
            );
        }
        for (bi, batch) in batches.iter().enumerate() {
            let tors: BTreeSet<u32> = batch.iter().map(|s| s.tor).collect();
            // Summed per tier, as the controller's `TrafficMatrix` sums them.
            let mut rates = [0.0f64; 3];
            for group in batch.iter().flat_map(|s| &s.groups) {
                for (t, r) in group.rates.iter().enumerate() {
                    rates[t] += r;
                }
            }
            let [t0, t1, t2] = &rates;
            batches_table.row(
                &mut out,
                &[&(bi + 1), &batch.len(), &tors.len(), t0, t1, t2],
            );
        }

        let _ = writeln!(
            out,
            "   plan churn (t · trigger · groups re/new/un · RSNodes +/- · DRS · rules · solve):"
        );
        for p in &plans {
            let trigger = match p.switch {
                Some(sw) => format!("{}(sw{sw})", p.trigger),
                None => p.trigger.clone(),
            };
            let solve = match &p.solve {
                Some(s) if s.greedy => "greedy".to_string(),
                Some(s) => {
                    // How far a budget-capped solve stayed from a proof.
                    let gap = if s.proven_optimal {
                        " · proven".to_string()
                    } else {
                        format!(" · gap {}", s.objective - s.bound)
                    };
                    format!(
                        "ilp {} it · {} nodes · obj {}{gap}",
                        s.lp_iterations, s.branch_nodes, s.objective
                    )
                }
                None => "-".to_string(),
            };
            plans_table.row(
                &mut out,
                &[
                    &SimTime::from_nanos(p.t_ns),
                    &trigger,
                    &p.reassigned.len(),
                    &p.newly_assigned.len(),
                    &p.unassigned.len(),
                    &p.rsnodes,
                    &p.rsnodes_added.len(),
                    &p.rsnodes_removed.len(),
                    &p.drs_groups,
                    &p.rules_recompiled,
                    &solve,
                ],
            );
        }

        if !spans.is_empty() {
            let _ = writeln!(
                out,
                "   DRS spans (switch · fail · detect-lag · recover · groups · displaced):"
            );
        }
        for s in &spans {
            let detect = s.detect_ns.map_or_else(
                || "-".to_string(),
                |d| format!("+{}", SimDuration::from_nanos(d - s.fail_ns)),
            );
            let recover = s.recover_ns.map_or_else(
                || "open".to_string(),
                |t| SimTime::from_nanos(t).to_string(),
            );
            spans_table.row(
                &mut out,
                &[
                    &s.switch,
                    &SimTime::from_nanos(s.fail_ns),
                    &detect,
                    &recover,
                    &s.groups.len(),
                    &SimDuration::from_nanos(s.total_displaced_ns()),
                ],
            );
        }

        // Hot-key cache audits, only present when a cache was configured
        // (cache-off reports are byte-identical to the pre-cache format).
        if !caches.is_empty() {
            let _ = writeln!(
                out,
                "   cache audits (operator · resident · hits/misses · stale · evicted · invalidated):"
            );
        }
        for c in &caches {
            let operator = c
                .switch
                .map_or_else(|| "retired".to_string(), |sw| format!("sw{sw}"));
            caches_table.row(
                &mut out,
                &[
                    &operator,
                    &c.len,
                    &c.hits,
                    &c.misses,
                    &c.stale_hits,
                    &c.evictions,
                    &c.invalidations,
                ],
            );
        }
    }

    // Side-by-side: how much the control plane worked per run. Cache
    // audits have their own table in `rw_report`; this one stays
    // cache-agnostic.
    if entries.len() > 1 {
        let _ = writeln!(out);
        let _ = writeln!(out, "## Control plane comparison");
        let table = Table(
            "{label<14} {plans>6} {replans>8} {solves>7} {lp-it/solve>12} {snapshots>10} \
             {spans>6} {displaced>12}",
        );
        table.header(&mut out);
        for (label, records) in entries {
            let (snapshots, plans, spans, _) = split_control(records);
            let replans = plans.iter().filter(|p| p.trigger == "replan").count();
            let solves: Vec<u64> = plans
                .iter()
                .filter_map(|p| p.solve.as_ref().filter(|s| !s.greedy))
                .map(|s| s.lp_iterations)
                .collect();
            let mean_it = match solves.len() {
                0 => "-".to_string(),
                n => format!("{:.1}", solves.iter().sum::<u64>() as f64 / n as f64),
            };
            // Each span's own sum is checked at load; theirs may still not
            // fit in u64 nanoseconds.
            let displaced = spans
                .iter()
                .try_fold(0u64, |total, s| total.checked_add(s.total_displaced_ns()))
                .map_or_else(
                    || "overflow".to_string(),
                    |ns| SimDuration::from_nanos(ns).to_string(),
                );
            table.row(
                &mut out,
                &[
                    label,
                    &plans.len(),
                    &replans,
                    &solves.len(),
                    &mean_it,
                    &snapshots.len(),
                    &spans.len(),
                    &displaced,
                ],
            );
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
    let table =
        Table("   {kind<16} {layer<8} {count>12} {self-ms>10.3} {% wall>8} {ns/event>10.1}");
    table.header(out);
    let mut kinds: Vec<&KindRecord> = run.kinds.iter().filter(|k| k.count > 0).collect();
    kinds.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.kind.cmp(&b.kind)));
    for k in kinds {
        let pct = if wall_ns > 0.0 {
            k.self_ns as f64 / wall_ns * 100.0
        } else {
            0.0
        };
        table.row(
            out,
            &[
                &k.kind,
                &k.layer,
                &k.count,
                &(k.self_ns as f64 / 1e6),
                &format!("{pct:.1}%"),
                &(k.self_ns as f64 / k.count as f64),
            ],
        );
    }
    // Layer rollup: shares of the *attributed* time, so the column sums
    // to ~100% regardless of sampling coverage.
    let mut layers: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for k in &run.kinds {
        let (ns, n) = layers.entry(&k.layer).or_default();
        (*ns, *n) = (*ns + k.self_ns, *n + k.count);
    }
    let mut layers: Vec<(&str, u64, u64)> =
        layers.into_iter().map(|(l, (ns, n))| (l, ns, n)).collect();
    layers.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    let _ = writeln!(out, "   by layer (self-ms · % of attributed · events):");
    let layer_rows = Table("     {<14} {>10.3} {>7.1}% {>12}");
    for (layer, ns, n) in layers.iter().filter(|(_, _, n)| *n > 0) {
        let share = if run.attributed_ns > 0 {
            *ns as f64 / run.attributed_ns as f64 * 100.0
        } else {
            0.0
        };
        layer_rows.row(out, &[layer, &(*ns as f64 / 1e6), &share, n]);
    }
    let _ = writeln!(
        out,
        "   queue: {} pushes · {} pops · high-water {} · depth log2-hist {:?}",
        run.queue.pushes, run.queue.pops, run.queue.high_water, run.queue.depth_hist
    );
    let t = &run.request_table;
    let _ = writeln!(
        out,
        "   request table: {} slots · live high-water {} · overflow high-water {}",
        t.slots, t.live_high_water, t.overflow_high_water
    );
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

/// Renders the host-perf report for labeled `simulate --perf` profiles:
/// one per-event-kind cost table per profile — self-time, % of wall,
/// ns/event, a layer rollup, queue churn, the request table and
/// allocation counters — and, with more than one profile, a side-by-side
/// throughput comparison.
#[must_use]
pub fn perf_report(entries: &[(String, HostProfile)]) -> String {
    let mut out = String::new();
    for (i, (name, run)) in entries.iter().enumerate() {
        if i > 0 {
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "## Perf profile: {name}");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "### {} · seed {} · {} requests",
            run.scheme, run.seed, run.requests
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

    // Side by side across files: the same-session A/B view.
    if entries.len() > 1 {
        let _ = writeln!(out);
        let _ = writeln!(out, "## Perf comparison");
        let table = Table(
            "{file<12} {scheme<18} {events/s>12.0} {ns/event>10.1} {peak RSS kB>12} {attributed>10}",
        );
        table.header(&mut out);
        for (name, run) in entries {
            let per_event = if run.events > 0 {
                run.wall_s * 1e9 / run.events as f64
            } else {
                0.0
            };
            let attributed = format!("{:.1}%", coverage_pct(run));
            table.row(
                &mut out,
                &[
                    name,
                    &run.scheme,
                    &run.events_per_sec,
                    &per_event,
                    &run.peak_rss_kb,
                    &attributed,
                ],
            );
        }
    }
    out
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
    let table = format!(
        "{{label<{width}}} {{seed>6}} {{completed>10}} {{mean>10}} {{p99>10}} {{wall_s>9.3}}"
    );
    let table = Table(&table);
    table.header(&mut out);
    for cell in &report.cells {
        table.row(
            &mut out,
            &[
                &cell.label,
                &cell.seed,
                &cell.stats.completed,
                &cell.stats.latency.mean,
                &cell.stats.latency.p99,
                &cell.wall_s,
            ],
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
            let msg = load_jsonl::<TraceRecord>(path_str).unwrap_err();
            assert!(msg.starts_with(&format!("{path_str}:3: ")), "{msg}");
        }
        std::fs::write(&path, format!("{full}\n")).unwrap();
        assert_eq!(load_jsonl::<TraceRecord>(path_str).unwrap().len(), 1);
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
    fn comparison_report_pins_its_format() {
        // A label wider than its column shifts the row; nothing is cut.
        let traces = vec![
            trace("clirs", &[600, 1_200, 2_400]),
            trace("netrs-ilp-with-hops", &[300, 600, 900]),
        ];
        let expected = "\
## Per-phase latency comparison (winning reads)
   clirs: 3 requests
   netrs-ilp-with-hops: 3 requests

mean                    clirs netrs-ilp-with-hops
steer                   233ns          100ns
selection               233ns          100ns
to-server               233ns          100ns
server-queue            233ns          100ns
service                 233ns          100ns
reply                   233ns          100ns
e2e                   1.400us          600ns

median                  clirs netrs-ilp-with-hops
steer                   200ns          100ns
selection               200ns          100ns
to-server               200ns          100ns
server-queue            200ns          100ns
service                 200ns          100ns
reply                   200ns          100ns
e2e                   1.207us          603ns

p95                     clirs netrs-ilp-with-hops
steer                   400ns          150ns
selection               400ns          150ns
to-server               400ns          150ns
server-queue            400ns          150ns
service                 400ns          150ns
reply                   400ns          150ns
e2e                   2.400us          900ns

p99                     clirs netrs-ilp-with-hops
steer                   400ns          150ns
selection               400ns          150ns
to-server               400ns          150ns
server-queue            400ns          150ns
service                 400ns          150ns
reply                   400ns          150ns
e2e                   2.400us          900ns
";
        assert_eq!(comparison_report(&traces), expected);
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
    fn tail_report_pins_its_format() {
        let t = trace("x", &[600, 600, 600, 600, 60_000]);
        let expected = "\
## Tail attribution: x
   p99 = 60.000us · 1 requests at or above it
   phase shares of tail time:
     steer           16.7%
     selection       16.7%
     to-server       16.7%
     server-queue    16.7%
     service         16.7%
     reply           16.7%
   top tail servers (server · tail requests):
     server:1        1
";
        assert_eq!(tail_report("x", &t.records, 5), expected);
        let expected = "\
## Tail attribution: none
   (no winning reads in trace)
";
        assert_eq!(tail_report("none", &[], 5), expected);
    }

    fn pin_devices() -> Vec<DeviceRecord> {
        let dev = |dev: &str, kind: &str, packets: [u64; 3], util: f64| DeviceRecord {
            dev: dev.into(),
            kind: kind.into(),
            packets,
            bytes: packets.map(|p| p * 64),
            ops: packets[0] / 2,
            selections: packets[1] / 3,
            utilization: util,
            max_queue_depth: (packets[2] % 7) as u32,
            ..devices_proto()
        };
        vec![
            dev("switch:0", "switch", [1_200, 300, 0], 0.0),
            dev("switch:1", "switch", [900, 450, 12], 0.0),
            dev("accel:0", "accel", [0, 600, 0], 0.4321),
            dev("accel:1", "accel", [0, 300, 0], 0.8765),
            dev("server:3", "server", [500, 0, 0], 0.91),
            dev("server:4", "server", [700, 0, 0], 0.91),
            dev("link:h0>s0", "link", [400, 20, 3], 0.05),
            dev("link:s0>s4", "link", [0, 900, 40], 0.2),
            dev("link:s0>s5", "link", [0, 300, 10], 0.1),
            dev("link:s4>s8", "link", [0, 0, 250], 0.3),
            dev("link:s4>s9", "link", [0, 0, 250], 0.3),
            dev("link:s5>s8", "link", [0, 0, 0], 0.0),
            // Wider than its column: the row shifts, nothing is cut.
            dev("link:s0>agg-switch-17", "link", [0, 60, 0], 0.35),
        ]
    }

    fn pin_points() -> Vec<SamplePoint> {
        (0..4u32)
            .map(|i| SamplePoint {
                t_ns: 10_000_000 * u64::from(i + 1),
                accel_util: 0.125 * f64::from(i),
                server_occupancy: 0.9 - 0.2 * f64::from(i),
                outstanding: f64::from(40 + 7 * i),
                drs_groups: f64::from(i / 2),
            })
            .collect()
    }

    #[test]
    fn hotspot_report_pins_its_format() {
        let expected = "\
## Device hotspots
   link traffic per tier (packets · bytes):
     Tier-0                   400 ·        25600
     Tier-1                  1280 ·        81920
     Tier-2                   553 ·        35392
   top switches (device · util · packets · ops/selections · max queue):
     switch:0         0.00%       1500      600      0
     switch:1         0.00%       1362      450      5
   top accelerators (device · util · packets · ops/selections · max queue):
     accel:1         87.65%        300      100      0
     accel:0         43.21%        600      200      0
   top servers (device · util · packets · ops/selections · max queue):
     server:4        91.00%        700      350      0
     server:3        91.00%        500      250      0
   top links (device · util · packets · ops/selections · max queue):
     link:s0>agg-switch-17  35.00%         60        0      0
     link:s4>s8      30.00%        250        0      5
     link:s4>s9      30.00%        250        0      5
   ECMP skew (endpoint · outgoing links · max/mean packets):
     s0         3    2.153
     s4         2    1.000
";
        assert_eq!(hotspot_report(&pin_devices(), 3), expected);
    }

    #[test]
    fn timeseries_report_pins_its_format() {
        let expected = "\
## Time series
   4 samples over 30.000ms
   accel util         mean    0.188 · peak    0.375
   server occupancy   mean    0.600 · peak    0.900
   outstanding        mean   50.500 · peak   61.000
   DRS groups         mean    0.500 · peak    1.000
";
        assert_eq!(timeseries_report(&pin_points()), expected);
        let expected = "\
## Time series
   (no samples)
";
        assert_eq!(timeseries_report(&[]), expected);
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
                    bound: 3.0,
                    proven_optimal: false,
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
        // A proven plan says so.
        let ControlRecord::Plan(plan) = &mut entries[0].1[0] else {
            unreachable!("the first record is the initial plan");
        };
        let solve = plan.solve.as_mut().expect("the initial plan was solved");
        (solve.bound, solve.proven_optimal) = (4.0, true);
        assert!(control_report(&entries).contains("obj 4 · proven\n"));
        // A second label appends the side-by-side summary.
        let two = vec![entries[0].clone(), ("NetRS-ToR".to_string(), Vec::new())];
        let report = control_report(&two);
        assert!(report.contains("## Control plane comparison"));
        assert!(report.contains("lp-it/solve"));
        assert!(report.contains("800.000ms"), "displaced total:\n{report}");
    }

    fn host_profile(scheme: &str, events: u64, eps: f64) -> HostProfile {
        use netrs_sim::{AllocStats, HostMeta, QueueStats, RequestTableStats, PERF_SCHEMA_VERSION};
        HostProfile {
            schema_version: PERF_SCHEMA_VERSION,
            scheme: scheme.into(),
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
            request_table: RequestTableStats {
                slots: 1_024,
                live_high_water: 310,
                overflow_high_water: 4,
            },
            clock_pair_ns: 27,
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

    #[test]
    fn perf_report_pins_its_format() {
        let run = host_profile("CliRS", 18_000, 3_000_000.0);
        let report = perf_report(&[("bench".to_string(), run.clone())]);
        let expected = "\
## Perf profile: bench

### CliRS · seed 1 · 2000 requests
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
";
        assert_eq!(report, expected);
        // Two files close with the side-by-side comparison.
        let before = HostProfile {
            peak_rss_kb: 6_000,
            ..host_profile("CliRS", 18_000, 2_500_000.0)
        };
        let report = perf_report(&[("before".to_string(), before), ("after".to_string(), run)]);
        let comparison = "\
## Perf comparison
file         scheme                 events/s   ns/event  peak RSS kB attributed
before       CliRS                   2500000      333.3         6000      75.0%
after        CliRS                   3000000      333.3         6900      75.0%
";
        assert!(report.ends_with(comparison), "{report}");
    }

    #[test]
    fn host_profile_check_accepts_a_profile_whose_kinds_partition_events() {
        assert_eq!(host_profile("CliRS", 18_000, 3e6).check(None), Ok(()));
        // Kind counts that do not partition the event total.
        let mut off = host_profile("CliRS", 18_000, 3e6);
        off.kinds[0].count += 1;
        let err = off.check(None).unwrap_err();
        assert!(err.contains("sum to 18001 but events is 18000"), "{err}");
    }

    #[test]
    fn host_profile_check_refuses_an_empty_or_wrapping_kind_table() {
        // A profile without a kind table — what an unprofiled measurement
        // would write.
        let unprofiled = HostProfile {
            kinds: Vec::new(),
            ..host_profile("CliRS", 18_000, 3e6)
        };
        assert!(unprofiled
            .check(None)
            .unwrap_err()
            .contains("no kind table"));
        // Counts or self-times the report could not add without wrapping.
        for field in ["count", "self_ns"] {
            let mut wraps = host_profile("CliRS", 18_000, 3e6);
            match field {
                "count" => wraps.kinds[1].count = u64::MAX,
                _ => wraps.kinds[1].self_ns = u64::MAX,
            }
            let err = wraps.check(None).unwrap_err();
            assert!(err.contains(field) && err.contains("u64::MAX"), "{err}");
        }
    }

    #[test]
    fn host_profile_check_refuses_an_unknown_schema_version() {
        let future = HostProfile {
            schema_version: PERF_SCHEMA_VERSION + 1,
            ..host_profile("CliRS", 18_000, 3e6)
        };
        let err = future.check(None).unwrap_err();
        let (read, wrote) = (PERF_SCHEMA_VERSION, PERF_SCHEMA_VERSION + 1);
        assert!(
            err.contains(&format!("schema v{wrote} (this build reads v{read})")),
            "{err}"
        );
    }
}
