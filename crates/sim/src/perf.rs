//! Host-performance profiles: the versioned artifact `simulate --perf`
//! writes and `netrs-analyze perf` reads.
//!
//! A [`HostProfile`] describes one run of the simulator *as a program on
//! the host machine*: per-event-kind dispatch counts and estimated
//! wall-clock self-time (from [`netrs_simcore::PerfProbe`]'s strided
//! sampling), event-queue churn, peak RSS, optional allocation counters,
//! and host metadata (commit, CPU model, core count) so numbers from
//! different machines are never compared blind.
//!
//! The JSON schema is the field order of the structs below; the optional
//! `alloc` entry is omitted (never null) when absent.

use netrs_simcore::{PerfReport, DEPTH_BUCKETS};
use serde::{Deserialize, Serialize};

use crate::cluster::Ev;

/// Version tag carried by every [`HostProfile`].
pub const PERF_SCHEMA_VERSION: u64 = 2;

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
pub const EV_KINDS: [(&str, &str); 16] = [
    ("Generate", "state"),
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
    static NAMES: [&str; EV_KINDS.len()] = {
        let mut names = [""; EV_KINDS.len()];
        let mut i = 0;
        while i < names.len() {
            names[i] = EV_KINDS[i].0;
            i += 1;
        }
        names
    };
    &NAMES
}

impl Ev {
    /// Dense kind index into [`EV_KINDS`] (the discriminant order).
    #[must_use]
    pub fn kind_index(&self) -> u32 {
        match self {
            Ev::Generate { .. } => 0,
            Ev::RsnodeArrive { .. } => 1,
            Ev::Select { .. } => 2,
            Ev::ServerArrive { .. } => 3,
            Ev::ServerDone { .. } => 4,
            Ev::SelectorUpdate { .. } => 5,
            Ev::ClientReceive { .. } => 6,
            Ev::R95Check { .. } => 7,
            Ev::Fluctuate { .. } => 8,
            Ev::OverloadCheck => 9,
            Ev::Replan => 10,
            Ev::Sample => 11,
            Ev::Fault { .. } => 12,
            Ev::RetryCheck { .. } => 13,
            Ev::OperatorDetect { .. } => 14,
            Ev::CacheInvalidate { .. } => 15,
        }
    }
}

/// Where a profile was measured: enough host metadata to make
/// cross-machine comparisons visible instead of silent.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostMeta {
    /// Short git commit of the build tree, with `-dirty` when tracked
    /// files differed from it (`unknown` outside a repo).
    pub commit: String,
    /// CPU model string from `/proc/cpuinfo` (`unknown` elsewhere).
    pub cpu: String,
    /// Logical cores available to the process.
    pub cores: u32,
}

impl HostMeta {
    /// Probes the current host. Every field degrades to its `unknown`
    /// value rather than failing.
    #[must_use]
    pub fn detect() -> Self {
        let git = |args: &[&str]| {
            std::process::Command::new("git")
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
        };
        let commit = commit_stamp(
            git(&["rev-parse", "--short", "HEAD"]).as_deref(),
            git(&["status", "--porcelain", "--untracked-files=no"]).as_deref(),
        );
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

/// The `commit` stamp from the outputs of `git rev-parse --short HEAD` and
/// `git status --porcelain --untracked-files=no`: the short hash, with
/// `-dirty` when a tracked file differs from it — a row measured before
/// its change is committed would otherwise carry the parent's hash — and
/// `unknown` without a hash.
fn commit_stamp(head: Option<&str>, status: Option<&str>) -> String {
    match head.map(str::trim).filter(|h| !h.is_empty()) {
        None => "unknown".into(),
        Some(h) if status.is_some_and(|s| !s.trim().is_empty()) => format!("{h}-dirty"),
        Some(h) => h.into(),
    }
}

/// Event-queue churn over one run.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
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

/// Allocation counters for one run, present only when the binary
/// registered `netrs_allocprobe`'s counting allocator (the
/// `alloc-profile` feature).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocStats {
    /// Heap allocations during the run.
    pub allocs: u64,
    /// Heap deallocations during the run.
    pub deallocs: u64,
    /// Peak live heap bytes over the whole process so far.
    pub peak_bytes: u64,
}

/// How big the run's request table got. Counts, not clocks: they repeat
/// exactly for a fixed config, so a table that starts growing with run
/// length again shows on any box.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestTableStats {
    /// Ring slots allocated at the end of the run.
    pub slots: u64,
    /// Most requests ever live at once (ring and overflow together).
    pub live_high_water: u64,
    /// Most stragglers ever held aside in the overflow map at once.
    pub overflow_high_water: u64,
}

/// One row of the per-event-kind attribution table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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

/// One run's host-performance profile: what `simulate --perf` writes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostProfile {
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
    /// Wall-clock sampling stride the profiler used.
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
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub alloc: Option<AllocStats>,
    /// Request-table size.
    pub request_table: RequestTableStats,
    /// Calibrated cost (ns) of the clock pair bracketing each sampled
    /// step, already subtracted from every `self_ns`.
    pub clock_pair_ns: u64,
    /// Per-event-kind attribution, [`EV_KINDS`] order, zero-count kinds
    /// included.
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
}

#[cfg(test)]
mod tests {
    use netrs_kvstore::{ServerId, ServerStatus};
    use netrs_selection::Feedback;
    use netrs_simcore::{SimDuration, SimTime};
    use netrs_topology::SwitchId;

    use super::*;
    use crate::cluster::ReqId;
    use crate::server::{CopySlab, ServerToken};

    fn profile() -> HostProfile {
        HostProfile {
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
        assert!(line.contains("\"schema_version\":2"), "{line}");
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
    fn kind_table_matches_ev_variants() {
        // One real event per variant: its `kind_index` must name its own
        // variant (the `Debug` prefix) in `EV_KINDS`, and together they
        // must cover every row.
        let req = ReqId(0);
        let op = SwitchId(0);
        let server = ServerId(0);
        let copy = CopySlab::new().insert(ServerToken::new(
            req,
            server,
            0,
            0,
            false,
            SimTime::ZERO,
            SimTime::ZERO,
            SimDuration::ZERO,
            SimTime::ZERO,
            None,
        ));
        let events = [
            Ev::Generate { gen: 0 },
            Ev::RsnodeArrive { req, op },
            Ev::Select {
                req,
                op,
                arrived: SimTime::ZERO,
                waited: SimDuration::ZERO,
            },
            Ev::ServerArrive { copy },
            Ev::ServerDone { server, copy },
            Ev::SelectorUpdate {
                op,
                fb: Feedback {
                    server,
                    queue_len: 0,
                    service_time: SimDuration::ZERO,
                    latency: SimDuration::ZERO,
                },
            },
            Ev::ClientReceive {
                copy,
                status: ServerStatus::default(),
            },
            Ev::R95Check { req },
            Ev::Fluctuate { server },
            Ev::OverloadCheck,
            Ev::Replan,
            Ev::Sample,
            Ev::Fault { idx: 0 },
            Ev::RetryCheck { req, attempt: 0 },
            Ev::OperatorDetect { sw: op },
            Ev::CacheInvalidate {
                batch: 0,
                key: 0,
                version: 0,
            },
        ];
        let mut seen: Vec<u32> = events
            .iter()
            .map(|ev| {
                let idx = ev.kind_index();
                let debug = format!("{ev:?}");
                let variant = debug.split([' ', '{']).next().unwrap();
                assert_eq!(EV_KINDS[idx as usize].0, variant);
                assert_eq!(kind_names()[idx as usize], variant);
                idx
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..EV_KINDS.len() as u32).collect::<Vec<_>>());
        assert_eq!(kind_names().len(), EV_KINDS.len());
        // Names must be unique: the analyzer keys tables on them.
        let mut names: Vec<_> = kind_names().to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EV_KINDS.len());
    }

    #[test]
    fn commit_stamp_marks_a_dirty_tree() {
        assert_eq!(commit_stamp(Some("4c3ea17\n"), Some("")), "4c3ea17");
        assert_eq!(
            commit_stamp(Some("4c3ea17\n"), Some(" M crates/sim/src/perf.rs\n")),
            "4c3ea17-dirty"
        );
        // A status that could not be read is no evidence of a dirty tree.
        assert_eq!(commit_stamp(Some("4c3ea17"), None), "4c3ea17");
        for head in [None, Some(""), Some("\n")] {
            assert_eq!(commit_stamp(head, Some(" M x\n")), "unknown");
        }
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
