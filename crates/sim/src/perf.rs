//! Host-performance profiles: the versioned artifact emitted by
//! `simulate --perf` and accumulated by the bench harness.
//!
//! A [`HostProfile`] describes one run of the simulator *as a program on
//! the host machine*: per-event-kind dispatch counts and estimated
//! wall-clock self-time (from [`netrs_simcore::PerfProbe`]'s strided
//! sampling), event-queue churn, peak RSS, optional allocation counters,
//! and host metadata (commit, CPU model, core count) so numbers from
//! different machines are never compared blind. [`PerfArtifact`] is the
//! on-disk history: `schema_version` plus an append-only list of runs.
//!
//! Serialization is hand-written to pin the JSON schema: field order is
//! fixed and the optional `alloc` block is omitted (never null) when
//! allocation tracking was unavailable. The legacy pre-versioned
//! BENCH_PERF.json shape (a flat label → throughput-entry map) upgrades
//! losslessly into v1 runs via [`PerfArtifact::from_value`].

use netrs_simcore::{PerfReport, DEPTH_BUCKETS};
use serde::{DeError, Deserialize, Serialize, Value};

use crate::cluster::Ev;

/// Version tag carried by every [`HostProfile`] and [`PerfArtifact`].
pub const PERF_SCHEMA_VERSION: u64 = 1;

/// `(kind name, layer)` for every [`Ev`] variant, indexed by
/// [`Ev::kind_index`]. The layer tags map attribution onto the layered
/// architecture (DESIGN.md §7): `state` (workload generation, request
/// bookkeeping, client machinery), `policy` (scheme decision points and
/// control plane), `server` (queueing + service), `fabric` (packet
/// transit — no entries today because hop timing is closed-form inside
/// the steer/route handlers, so fabric cost surfaces inside the policy
/// and server kinds that invoke it). A `CacheInvalidate` event is a
/// batch of coherence messages (every operator one write reaches at one
/// instant), so its count is batches and its ns/event covers a walk over
/// the batch.
pub const EV_KINDS: [(&str, &str); 17] = [
    ("Generate", "state"),
    ("GatedSend", "policy"),
    ("RsnodeArrive", "policy"),
    ("Select", "policy"),
    ("ServerArrive", "server"),
    ("ServerDone", "server"),
    ("SelectorUpdate", "policy"),
    ("ClientReceive", "state"),
    ("R95Check", "policy"),
    ("Fluctuate", "server"),
    ("OverloadCheck", "policy"),
    ("Replan", "policy"),
    ("Sample", "state"),
    ("Fault", "state"),
    ("RetryCheck", "state"),
    ("OperatorDetect", "policy"),
    ("CacheInvalidate", "policy"),
];

/// The kind names alone, in [`Ev::kind_index`] order — the table handed
/// to [`netrs_simcore::PerfProbe::new`].
#[must_use]
pub fn kind_names() -> &'static [&'static str] {
    static NAMES: [&str; 17] = [
        EV_KINDS[0].0,
        EV_KINDS[1].0,
        EV_KINDS[2].0,
        EV_KINDS[3].0,
        EV_KINDS[4].0,
        EV_KINDS[5].0,
        EV_KINDS[6].0,
        EV_KINDS[7].0,
        EV_KINDS[8].0,
        EV_KINDS[9].0,
        EV_KINDS[10].0,
        EV_KINDS[11].0,
        EV_KINDS[12].0,
        EV_KINDS[13].0,
        EV_KINDS[14].0,
        EV_KINDS[15].0,
        EV_KINDS[16].0,
    ];
    &NAMES
}

impl Ev {
    /// Dense kind index into [`EV_KINDS`] (the discriminant order).
    #[must_use]
    pub fn kind_index(&self) -> u32 {
        match self {
            Ev::Generate { .. } => 0,
            Ev::GatedSend { .. } => 1,
            Ev::RsnodeArrive { .. } => 2,
            Ev::Select { .. } => 3,
            Ev::ServerArrive { .. } => 4,
            Ev::ServerDone { .. } => 5,
            Ev::SelectorUpdate { .. } => 6,
            Ev::ClientReceive { .. } => 7,
            Ev::R95Check { .. } => 8,
            Ev::Fluctuate { .. } => 9,
            Ev::OverloadCheck => 10,
            Ev::Replan => 11,
            Ev::Sample => 12,
            Ev::Fault { .. } => 13,
            Ev::RetryCheck { .. } => 14,
            Ev::OperatorDetect { .. } => 15,
            Ev::CacheInvalidate { .. } => 16,
        }
    }
}

/// Where a profile was measured: enough host metadata to make
/// cross-machine comparisons visible instead of silent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostMeta {
    /// Short git commit of the build tree (`unknown` outside a repo).
    pub commit: String,
    /// CPU model string from `/proc/cpuinfo` (`unknown` elsewhere).
    pub cpu: String,
    /// Logical cores available to the process.
    pub cores: u32,
}

impl HostMeta {
    /// Placeholder metadata for upgraded legacy records and tests.
    #[must_use]
    pub fn unknown() -> Self {
        HostMeta {
            commit: "unknown".into(),
            cpu: "unknown".into(),
            cores: 0,
        }
    }

    /// Probes the current host. Every field degrades to its `unknown`
    /// value rather than failing.
    #[must_use]
    pub fn detect() -> Self {
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines().find_map(|line| {
                    let rest = line.strip_prefix("model name")?;
                    Some(rest.split_once(':')?.1.trim().to_string())
                })
            })
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into());
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get() as u32);
        HostMeta { commit, cpu, cores }
    }
}

impl Serialize for HostMeta {
    fn ser(&self) -> Value {
        Value::Obj(vec![
            ("commit".into(), Value::Str(self.commit.clone())),
            ("cpu".into(), Value::Str(self.cpu.clone())),
            ("cores".into(), Value::U(u128::from(self.cores))),
        ])
    }
}

impl Deserialize for HostMeta {
    fn deser(v: &Value) -> Result<Self, DeError> {
        let entries = v
            .as_obj()
            .ok_or_else(|| DeError::custom("expected object for HostMeta"))?;
        Ok(HostMeta {
            commit: serde::field(entries, "commit", "HostMeta").and_then(String::deser)?,
            cpu: serde::field(entries, "cpu", "HostMeta").and_then(String::deser)?,
            cores: serde::field(entries, "cores", "HostMeta").and_then(u32::deser)?,
        })
    }
}

/// Event-queue churn over one run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Events ever scheduled.
    pub pushes: u64,
    /// Events ever popped.
    pub pops: u64,
    /// Deepest the pending-event list ever got.
    pub high_water: u64,
    /// Log2 histogram of post-event queue depths: entry `i` counts
    /// events whose pending depth was in `[2^i, 2^(i+1))` (entry 0 also
    /// holds depth 0). Trailing zero buckets are trimmed.
    pub depth_hist: Vec<u64>,
}

impl Serialize for QueueStats {
    fn ser(&self) -> Value {
        Value::Obj(vec![
            ("pushes".into(), Value::U(u128::from(self.pushes))),
            ("pops".into(), Value::U(u128::from(self.pops))),
            ("high_water".into(), Value::U(u128::from(self.high_water))),
            (
                "depth_hist".into(),
                Value::Arr(
                    self.depth_hist
                        .iter()
                        .map(|&n| Value::U(u128::from(n)))
                        .collect(),
                ),
            ),
        ])
    }
}

impl Deserialize for QueueStats {
    fn deser(v: &Value) -> Result<Self, DeError> {
        let entries = v
            .as_obj()
            .ok_or_else(|| DeError::custom("expected object for QueueStats"))?;
        let f = |name: &str| serde::field(entries, name, "QueueStats");
        Ok(QueueStats {
            pushes: f("pushes").and_then(u64::deser)?,
            pops: f("pops").and_then(u64::deser)?,
            high_water: f("high_water").and_then(u64::deser)?,
            depth_hist: f("depth_hist").and_then(Vec::<u64>::deser)?,
        })
    }
}

/// Allocation counters for one run, present only when the binary
/// registered [`netrs_allocprobe`]'s counting allocator (the
/// `alloc-profile` feature).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Heap allocations during the run.
    pub allocs: u64,
    /// Heap deallocations during the run.
    pub deallocs: u64,
    /// Peak live heap bytes over the whole process so far.
    pub peak_bytes: u64,
}

impl Serialize for AllocStats {
    fn ser(&self) -> Value {
        Value::Obj(vec![
            ("allocs".into(), Value::U(u128::from(self.allocs))),
            ("deallocs".into(), Value::U(u128::from(self.deallocs))),
            ("peak_bytes".into(), Value::U(u128::from(self.peak_bytes))),
        ])
    }
}

impl Deserialize for AllocStats {
    fn deser(v: &Value) -> Result<Self, DeError> {
        let entries = v
            .as_obj()
            .ok_or_else(|| DeError::custom("expected object for AllocStats"))?;
        let f = |name: &str| serde::field(entries, name, "AllocStats");
        Ok(AllocStats {
            allocs: f("allocs").and_then(u64::deser)?,
            deallocs: f("deallocs").and_then(u64::deser)?,
            peak_bytes: f("peak_bytes").and_then(u64::deser)?,
        })
    }
}

/// Window-driver shape of one parallel sharded run — the
/// `sharded-parallel` suite's extra columns. Unlike [`QueueStats`] these
/// mix schedule facts (shards, windows, events/window) with wall-clock
/// facts (threads, busy imbalance), which is why they live in the perf
/// artifact and never in `RunStats`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelPerf {
    /// Event shards the run was partitioned into (after pod clamping).
    pub shards: u32,
    /// Worker threads that drained the shards (clamped to the shard
    /// count).
    pub threads: u32,
    /// Conservative lookahead windows the driver executed.
    pub windows: u64,
    /// Mean events drained per window across all shards.
    pub events_per_window: f64,
    /// Max/mean per-shard busy wall-time — 1.0 is a perfectly balanced
    /// drain, higher means idle workers at the barrier.
    pub busy_imbalance: f64,
}

impl Serialize for ParallelPerf {
    fn ser(&self) -> Value {
        Value::Obj(vec![
            ("shards".into(), Value::U(u128::from(self.shards))),
            ("threads".into(), Value::U(u128::from(self.threads))),
            ("windows".into(), Value::U(u128::from(self.windows))),
            ("events_per_window".into(), Value::F(self.events_per_window)),
            ("busy_imbalance".into(), Value::F(self.busy_imbalance)),
        ])
    }
}

impl Deserialize for ParallelPerf {
    fn deser(v: &Value) -> Result<Self, DeError> {
        let entries = v
            .as_obj()
            .ok_or_else(|| DeError::custom("expected object for ParallelPerf"))?;
        let f = |name: &str| serde::field(entries, name, "ParallelPerf");
        Ok(ParallelPerf {
            shards: f("shards").and_then(u32::deser)?,
            threads: f("threads").and_then(u32::deser)?,
            windows: f("windows").and_then(u64::deser)?,
            events_per_window: f("events_per_window").and_then(f64::deser)?,
            busy_imbalance: f("busy_imbalance").and_then(f64::deser)?,
        })
    }
}

/// One row of the per-event-kind attribution table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindRecord {
    /// Event-kind name (an [`Ev`] variant).
    pub kind: String,
    /// Architectural layer (`state` / `policy` / `server` / `fabric`).
    pub layer: String,
    /// Events of this kind processed.
    pub count: u64,
    /// Events of this kind whose step was wall-clock timed.
    pub sampled: u64,
    /// Estimated total self-time (ns): mean sampled step time scaled to
    /// the full count.
    pub self_ns: u64,
}

impl Serialize for KindRecord {
    fn ser(&self) -> Value {
        Value::Obj(vec![
            ("kind".into(), Value::Str(self.kind.clone())),
            ("layer".into(), Value::Str(self.layer.clone())),
            ("count".into(), Value::U(u128::from(self.count))),
            ("sampled".into(), Value::U(u128::from(self.sampled))),
            ("self_ns".into(), Value::U(u128::from(self.self_ns))),
        ])
    }
}

impl Deserialize for KindRecord {
    fn deser(v: &Value) -> Result<Self, DeError> {
        let entries = v
            .as_obj()
            .ok_or_else(|| DeError::custom("expected object for KindRecord"))?;
        let f = |name: &str| serde::field(entries, name, "KindRecord");
        Ok(KindRecord {
            kind: f("kind").and_then(String::deser)?,
            layer: f("layer").and_then(String::deser)?,
            count: f("count").and_then(u64::deser)?,
            sampled: f("sampled").and_then(u64::deser)?,
            self_ns: f("self_ns").and_then(u64::deser)?,
        })
    }
}

/// One run's host-performance profile: what `simulate --perf` writes and
/// what a [`PerfArtifact`] accumulates.
#[derive(Debug, Clone, PartialEq)]
pub struct HostProfile {
    /// Display label (defaults to the scheme label; the bench harness
    /// prefixes its tag).
    pub label: String,
    /// Schema version ([`PERF_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Scheme label the run simulated.
    pub scheme: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// Logical requests the workload issued.
    pub requests: u64,
    /// Engine events processed.
    pub events: u64,
    /// Wall-clock seconds for the whole run.
    pub wall_s: f64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// Peak resident-set size (kB; 0 when unavailable).
    pub peak_rss_kb: u64,
    /// Wall-clock sampling stride the profiler used (0 in runs upgraded
    /// from the legacy schema, which had no profiler).
    pub stride: u64,
    /// Sum of per-kind estimated self-times (ns) — the portion of
    /// `wall_s` the kind table accounts for.
    pub attributed_ns: u64,
    /// Where the run was measured.
    pub host: HostMeta,
    /// Event-queue churn.
    pub queue: QueueStats,
    /// Allocation counters; absent when the counting allocator was not
    /// registered.
    pub alloc: Option<AllocStats>,
    /// Window-driver shape; present only on `sharded-parallel` suite
    /// rows.
    pub parallel: Option<ParallelPerf>,
    /// Per-event-kind attribution, [`EV_KINDS`] order, zero-count kinds
    /// included (empty in upgraded legacy runs).
    pub kinds: Vec<KindRecord>,
}

impl HostProfile {
    /// Builds the kind table and queue stats from a probe report.
    #[must_use]
    pub fn kinds_from_report(report: &PerfReport) -> Vec<KindRecord> {
        report
            .kinds
            .iter()
            .zip(EV_KINDS.iter())
            .map(|(k, &(name, layer))| {
                debug_assert_eq!(k.name, name);
                KindRecord {
                    kind: name.into(),
                    layer: layer.into(),
                    count: k.count,
                    sampled: k.sampled,
                    self_ns: k.est_total_ns(),
                }
            })
            .collect()
    }

    /// Trims trailing zero buckets off a fixed-size depth histogram.
    #[must_use]
    pub fn trim_depth_hist(hist: &[u64; DEPTH_BUCKETS]) -> Vec<u64> {
        let used = hist.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
        hist[..used].to_vec()
    }

    /// Sum of the kind-table counts (equals `events` for profiled runs;
    /// the analyzer validates this).
    #[must_use]
    pub fn kind_count_sum(&self) -> u64 {
        self.kinds.iter().map(|k| k.count).sum()
    }

    /// An upgraded legacy BENCH_PERF.json entry: throughput numbers
    /// carried over, everything the old schema never recorded zeroed or
    /// `unknown` (and `kinds` empty).
    #[must_use]
    pub fn from_legacy(label: &str, events: u64, events_per_sec: f64, rss: u64, wall: f64) -> Self {
        HostProfile {
            label: label.into(),
            schema_version: PERF_SCHEMA_VERSION,
            // Legacy labels were "tag/scheme"; keep the scheme part.
            scheme: label.rsplit('/').next().unwrap_or(label).into(),
            seed: 0,
            requests: 0,
            events,
            wall_s: wall,
            events_per_sec,
            peak_rss_kb: rss,
            stride: 0,
            attributed_ns: 0,
            host: HostMeta::unknown(),
            queue: QueueStats::default(),
            alloc: None,
            parallel: None,
            kinds: Vec::new(),
        }
    }
}

impl Serialize for HostProfile {
    fn ser(&self) -> Value {
        let mut o: Vec<(String, Value)> = vec![
            ("label".into(), Value::Str(self.label.clone())),
            (
                "schema_version".into(),
                Value::U(u128::from(self.schema_version)),
            ),
            ("scheme".into(), Value::Str(self.scheme.clone())),
            ("seed".into(), Value::U(u128::from(self.seed))),
            ("requests".into(), Value::U(u128::from(self.requests))),
            ("events".into(), Value::U(u128::from(self.events))),
            ("wall_s".into(), Value::F(self.wall_s)),
            ("events_per_sec".into(), Value::F(self.events_per_sec)),
            ("peak_rss_kb".into(), Value::U(u128::from(self.peak_rss_kb))),
            ("stride".into(), Value::U(u128::from(self.stride))),
            (
                "attributed_ns".into(),
                Value::U(u128::from(self.attributed_ns)),
            ),
            ("host".into(), self.host.ser()),
            ("queue".into(), self.queue.ser()),
        ];
        if let Some(alloc) = &self.alloc {
            o.push(("alloc".into(), alloc.ser()));
        }
        if let Some(parallel) = &self.parallel {
            o.push(("parallel".into(), parallel.ser()));
        }
        o.push(("kinds".into(), self.kinds.ser()));
        Value::Obj(o)
    }
}

impl Deserialize for HostProfile {
    fn deser(v: &Value) -> Result<Self, DeError> {
        let entries = v
            .as_obj()
            .ok_or_else(|| DeError::custom("expected object for HostProfile"))?;
        let f = |name: &str| serde::field(entries, name, "HostProfile");
        Ok(HostProfile {
            label: f("label").and_then(String::deser)?,
            schema_version: f("schema_version").and_then(u64::deser)?,
            scheme: f("scheme").and_then(String::deser)?,
            seed: f("seed").and_then(u64::deser)?,
            requests: f("requests").and_then(u64::deser)?,
            events: f("events").and_then(u64::deser)?,
            wall_s: f("wall_s").and_then(f64::deser)?,
            events_per_sec: f("events_per_sec").and_then(f64::deser)?,
            peak_rss_kb: f("peak_rss_kb").and_then(u64::deser)?,
            stride: f("stride").and_then(u64::deser)?,
            attributed_ns: f("attributed_ns").and_then(u64::deser)?,
            host: f("host").and_then(HostMeta::deser)?,
            queue: f("queue").and_then(QueueStats::deser)?,
            alloc: match v.get("alloc") {
                Some(alloc) => Some(AllocStats::deser(alloc)?),
                None => None,
            },
            parallel: match v.get("parallel") {
                Some(parallel) => Some(ParallelPerf::deser(parallel)?),
                None => None,
            },
            kinds: f("kinds").and_then(Vec::<KindRecord>::deser)?,
        })
    }
}

/// The on-disk perf history: `schema_version` plus append-only runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PerfArtifact {
    /// The run records, oldest first.
    pub runs: Vec<HostProfile>,
}

impl PerfArtifact {
    /// Parses any shape a BENCH_PERF.json file has ever had:
    ///
    /// * a versioned artifact (`schema_version` + `runs`),
    /// * a single [`HostProfile`] (`schema_version` + `kinds`, as
    ///   written by `simulate --perf`), wrapped as a one-run artifact,
    /// * the legacy flat `label → {events, events_per_sec, peak_rss_kb,
    ///   wall_clock_s}` map, upgraded entry by entry.
    ///
    /// # Errors
    ///
    /// Describes the first shape mismatch.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        if v.get("schema_version").is_some() {
            let version = v
                .get("schema_version")
                .and_then(|n| u64::deser(n).ok())
                .ok_or("schema_version is not an integer")?;
            if version != PERF_SCHEMA_VERSION {
                return Err(format!(
                    "unsupported perf schema_version {version} (expected {PERF_SCHEMA_VERSION})"
                ));
            }
            if let Some(runs) = v.get("runs") {
                let runs = Vec::<HostProfile>::deser(runs).map_err(|e| e.to_string())?;
                return Ok(PerfArtifact { runs });
            }
            // A bare profile file from `simulate --perf`.
            let profile = HostProfile::deser(v).map_err(|e| e.to_string())?;
            return Ok(PerfArtifact {
                runs: vec![profile],
            });
        }
        let entries = v.as_obj().ok_or("perf artifact is not a JSON object")?;
        let mut runs = Vec::with_capacity(entries.len());
        for (label, entry) in entries {
            let num = |name: &str| {
                entry
                    .get(name)
                    .and_then(|n| f64::deser(n).ok())
                    .ok_or_else(|| format!("legacy entry {label:?}: missing number {name:?}"))
            };
            runs.push(HostProfile::from_legacy(
                label,
                num("events")? as u64,
                num("events_per_sec")?,
                num("peak_rss_kb")? as u64,
                num("wall_clock_s")?,
            ));
        }
        Ok(PerfArtifact { runs })
    }
}

impl Serialize for PerfArtifact {
    fn ser(&self) -> Value {
        Value::Obj(vec![
            (
                "schema_version".into(),
                Value::U(u128::from(PERF_SCHEMA_VERSION)),
            ),
            ("runs".into(), self.runs.ser()),
        ])
    }
}

impl Deserialize for PerfArtifact {
    fn deser(v: &Value) -> Result<Self, DeError> {
        PerfArtifact::from_value(v).map_err(DeError::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> HostProfile {
        HostProfile {
            label: "smoke/CliRS".into(),
            schema_version: PERF_SCHEMA_VERSION,
            scheme: "CliRS".into(),
            seed: 1,
            requests: 2_000,
            events: 18_000,
            wall_s: 0.004,
            events_per_sec: 4_500_000.0,
            peak_rss_kb: 6_900,
            stride: 7,
            attributed_ns: 3_800_000,
            host: HostMeta {
                commit: "ab12cd3".into(),
                cpu: "Test CPU".into(),
                cores: 8,
            },
            queue: QueueStats {
                pushes: 18_010,
                pops: 18_010,
                high_water: 420,
                depth_hist: vec![1, 2, 4, 8],
            },
            alloc: None,
            parallel: None,
            kinds: vec![
                KindRecord {
                    kind: "Generate".into(),
                    layer: "state".into(),
                    count: 2_000,
                    sampled: 280,
                    self_ns: 400_000,
                },
                KindRecord {
                    kind: "ServerDone".into(),
                    layer: "server".into(),
                    count: 16_000,
                    sampled: 2_290,
                    self_ns: 3_400_000,
                },
            ],
        }
    }

    #[test]
    fn host_profile_round_trips_and_omits_absent_alloc() {
        let p = profile();
        let line = serde_json::to_string(&p).unwrap();
        assert!(!line.contains("alloc"), "{line}");
        assert!(line.contains("\"schema_version\":1"), "{line}");
        let back: HostProfile = serde_json::from_str(&line).unwrap();
        assert_eq!(back, p);

        let mut with_alloc = p;
        with_alloc.alloc = Some(AllocStats {
            allocs: 120,
            deallocs: 100,
            peak_bytes: 9_000_000,
        });
        let line = serde_json::to_string(&with_alloc).unwrap();
        let back: HostProfile = serde_json::from_str(&line).unwrap();
        assert_eq!(back, with_alloc);
    }

    #[test]
    fn host_profile_round_trips_parallel_block_and_omits_it_when_absent() {
        let p = profile();
        let line = serde_json::to_string(&p).unwrap();
        assert!(!line.contains("parallel"), "{line}");

        let mut with_parallel = p;
        with_parallel.parallel = Some(ParallelPerf {
            shards: 4,
            threads: 2,
            windows: 4_882,
            events_per_window: 1.65,
            busy_imbalance: 1.29,
        });
        let line = serde_json::to_string(&with_parallel).unwrap();
        assert!(line.contains("\"parallel\""), "{line}");
        let back: HostProfile = serde_json::from_str(&line).unwrap();
        assert_eq!(back, with_parallel);
    }

    #[test]
    fn artifact_round_trips_and_wraps_bare_profiles() {
        let art = PerfArtifact {
            runs: vec![profile()],
        };
        let text = serde_json::to_string(&art).unwrap();
        let back: PerfArtifact = serde_json::from_str(&text).unwrap();
        assert_eq!(back, art);

        // A bare `simulate --perf` file parses as a one-run artifact.
        let bare = serde_json::to_string(&profile()).unwrap();
        let v: Value = serde_json::from_str(&bare).unwrap();
        let wrapped = PerfArtifact::from_value(&v).unwrap();
        assert_eq!(wrapped.runs, vec![profile()]);
    }

    #[test]
    fn legacy_map_upgrades_into_v1_runs() {
        let legacy = r#"{
            "before/CliRS": {"events": 100, "events_per_sec": 50.5,
                             "peak_rss_kb": 640, "wall_clock_s": 1.98},
            "after/CliRS": {"events": 100, "events_per_sec": 99.0,
                            "peak_rss_kb": 512, "wall_clock_s": 1.01}
        }"#;
        let v: Value = serde_json::from_str(legacy).unwrap();
        let art = PerfArtifact::from_value(&v).unwrap();
        assert_eq!(art.runs.len(), 2);
        let first = &art.runs[0];
        assert_eq!(first.label, "before/CliRS");
        assert_eq!(first.scheme, "CliRS");
        assert_eq!(first.events, 100);
        assert_eq!(first.peak_rss_kb, 640);
        assert!(first.kinds.is_empty());
        assert_eq!(first.host, HostMeta::unknown());
        assert_eq!(first.stride, 0);
    }

    #[test]
    fn unsupported_schema_version_is_rejected() {
        let v: Value = serde_json::from_str(r#"{"schema_version": 99, "runs": []}"#).unwrap();
        let err = PerfArtifact::from_value(&v).unwrap_err();
        assert!(err.contains("unsupported"), "{err}");
    }

    #[test]
    fn kind_table_matches_ev_variants() {
        // Spot-check the index → (name, layer) mapping against real
        // events at both ends of the enum.
        assert_eq!(Ev::Generate { gen: 0 }.kind_index(), 0);
        assert_eq!(EV_KINDS[0], ("Generate", "state"));
        assert_eq!(Ev::OverloadCheck.kind_index(), 10);
        assert_eq!(EV_KINDS[10], ("OverloadCheck", "policy"));
        assert_eq!(Ev::Sample.kind_index(), 12);
        assert_eq!(EV_KINDS[12], ("Sample", "state"));
        assert_eq!(kind_names().len(), EV_KINDS.len());
        // Names must be unique: the analyzer keys tables on them.
        let mut names: Vec<_> = kind_names().to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EV_KINDS.len());
    }

    #[test]
    fn depth_hist_trimming_drops_trailing_zeroes_only() {
        let mut hist = [0u64; DEPTH_BUCKETS];
        hist[0] = 3;
        hist[2] = 1;
        assert_eq!(HostProfile::trim_depth_hist(&hist), vec![3, 0, 1]);
        assert_eq!(
            HostProfile::trim_depth_hist(&[0; DEPTH_BUCKETS]),
            Vec::<u64>::new()
        );
    }
}
