//! Observability plumbing for the cluster simulation: per-request trace
//! records (JSONL), the virtual-time sampler's time series, and the
//! options block that [`run_observed`](crate::run_observed) takes.
//!
//! Everything here is strictly opt-in: a run with default
//! [`ObsOptions`] executes the exact event sequence an unobserved run
//! does (the sampler adds events only when enabled, and the tracer only
//! writes — it never perturbs timing).

use std::collections::BTreeMap;
use std::io::{self, Write};

use netrs_netdev::TrafficSnapshot;
use netrs_simcore::{RingSeries, SimDuration};
use serde::{Deserialize, Serialize, Value};

/// One hop of a request copy's route: the sim-time interval the copy
/// occupied one device. Emitted under `--trace-hops`.
///
/// Hops are *covering* spans: within one [`TraceRecord`] they are
/// contiguous (`hops[i].depart_ns == hops[i + 1].arrive_ns`), the first
/// arrives at `issued_ns`, the last departs at `received_ns`, and the
/// hop durations therefore telescope to `e2e_ns` exactly. Link hops
/// last one link latency; switch forwarding hops are zero-width
/// (forwarding is free in the timing model); residency hops (client
/// hold, accelerator selection, server queue + service) carry the time
/// the copy actually waited there.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HopSpan {
    /// The device occupied, in [`netrs_simcore::DeviceId`] display form
    /// (`switch:5`, `accel:5`, `server:3`, `client:7`, `link:h3>s0`).
    pub dev: String,
    /// When the copy arrived at the device (sim nanoseconds).
    pub arrive_ns: u64,
    /// When the copy left the device.
    pub depart_ns: u64,
}

impl HopSpan {
    /// Time spent on the device.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.depart_ns - self.arrive_ns
    }
}

/// One JSONL line of `--trace` output: a request copy's full lifecycle,
/// decomposed into consecutive sim-time phases.
///
/// The phases telescope: `steer + selection + to_server + server_queue +
/// service + reply == e2e == received - issued`, exactly, in integer
/// nanoseconds — each phase is the difference of two consecutive event
/// timestamps along the copy's path.
///
/// The JSONL schema is the field order below; `hops` is omitted entirely
/// when empty so traces without `--trace-hops` are byte-identical to the
/// pre-hop format. A golden-file test guards both shapes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// The logical request this copy belongs to.
    pub req: u64,
    /// The server that served the copy.
    pub server: u32,
    /// Whether this copy completed the logical request (first response
    /// for reads, last for writes).
    pub first: bool,
    /// Whether the request was a write.
    pub write: bool,
    /// When the logical request was issued (sim nanoseconds).
    pub issued_ns: u64,
    /// When this copy's response reached the client.
    pub received_ns: u64,
    /// Network time from the client to the selection point (zero for
    /// client-side selection, where no steering hop exists).
    pub steer_ns: u64,
    /// Time spent selecting a replica: the accelerator's half-RTT +
    /// queue wait + processing + half-RTT in-network, or the client-side
    /// hold (duplicate timers) for client schemes.
    pub selection_ns: u64,
    /// Accelerator queue wait alone (a sub-interval of `selection_ns`;
    /// zero for client schemes).
    pub selection_wait_ns: u64,
    /// Network time from the selection point to the server.
    pub to_server_ns: u64,
    /// Time queued at the server before a slot freed up.
    pub server_queue_ns: u64,
    /// Service time at the server.
    pub service_ns: u64,
    /// Network time from the server back to the client (via the RSNode
    /// for in-network schemes).
    pub reply_ns: u64,
    /// End-to-end: `received_ns - issued_ns`.
    pub e2e_ns: u64,
    /// The copy's hop-by-hop route ([`HopSpan`]s, chronological); empty
    /// unless hop tracing was enabled.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub hops: Vec<HopSpan>,
}

impl TraceRecord {
    /// The sum of the six phases; equals [`TraceRecord::e2e_ns`] by
    /// construction (the integration suite asserts it).
    #[must_use]
    pub fn phase_sum_ns(&self) -> u64 {
        self.steer_ns
            + self.selection_ns
            + self.to_server_ns
            + self.server_queue_ns
            + self.service_ns
            + self.reply_ns
    }

    /// The sum of all hop durations; equals [`TraceRecord::e2e_ns`] when
    /// hops were traced (they are contiguous covering spans).
    #[must_use]
    pub fn hop_sum_ns(&self) -> u64 {
        self.hops.iter().map(HopSpan::duration_ns).sum()
    }
}

/// Configuration of the virtual-time sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerSpec {
    /// Sim-time distance between samples.
    pub interval: SimDuration,
    /// Ring-buffer capacity per series (oldest samples evicted beyond
    /// this).
    pub capacity: usize,
}

impl Default for SamplerSpec {
    fn default() -> Self {
        SamplerSpec {
            interval: SimDuration::from_millis(10),
            capacity: 65_536,
        }
    }
}

/// The sampler's output: aligned bounded time series, one sample per
/// tick in each.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    /// Mean accelerator core utilization over the last interval (zero
    /// when the scheme has no accelerators).
    pub accel_util: RingSeries,
    /// Mean instantaneous server slot occupancy.
    pub server_occupancy: RingSeries,
    /// Logical requests outstanding (issued, not yet fully drained).
    pub outstanding: RingSeries,
    /// Traffic groups currently under Degraded Replica Selection.
    pub drs_groups: RingSeries,
}

/// One JSONL line of `--timeseries` output.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplePoint {
    /// Sample time (sim nanoseconds).
    pub t_ns: u64,
    /// Mean accelerator core utilization over the last interval.
    pub accel_util: f64,
    /// Mean instantaneous server slot occupancy.
    pub server_occupancy: f64,
    /// Logical requests outstanding.
    pub outstanding: f64,
    /// Traffic groups under Degraded Replica Selection.
    pub drs_groups: f64,
}

impl TimeSeries {
    /// Creates empty, equally-bounded series.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        TimeSeries {
            accel_util: RingSeries::new(capacity),
            server_occupancy: RingSeries::new(capacity),
            outstanding: RingSeries::new(capacity),
            drs_groups: RingSeries::new(capacity),
        }
    }

    /// Retained samples (identical across the aligned series).
    #[must_use]
    pub fn len(&self) -> usize {
        self.accel_util.len()
    }

    /// Whether no samples were taken.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.accel_util.is_empty()
    }

    /// The retained samples, oldest first, re-zipped into points.
    pub fn points(&self) -> impl Iterator<Item = SamplePoint> + '_ {
        self.accel_util
            .iter()
            .zip(self.server_occupancy.iter())
            .zip(self.outstanding.iter())
            .zip(self.drs_groups.iter())
            .map(|((((t, au), (_, so)), (_, out)), (_, drs))| SamplePoint {
                t_ns: t.as_nanos(),
                accel_util: au,
                server_occupancy: so,
                outstanding: out,
                drs_groups: drs,
            })
    }

    /// Writes the retained samples as JSONL, one [`SamplePoint`] per
    /// line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        for p in self.points() {
            let line = serde_json::to_string(&p).expect("sample point serializes");
            writeln!(w, "{line}")?;
        }
        Ok(())
    }
}

/// One JSONL line of `--devices` output: everything one device
/// accumulated over the run, flattened for offline analysis.
///
/// The JSONL schema is the field order below, except that the five
/// hot-key-cache counters are written all together or (when all zero) not
/// at all, so cache-off reports are byte-identical to the pre-cache
/// format (the golden-run digests guard this). Absent counters read back
/// as zero.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct DeviceRecord {
    /// Stable device key (`switch:5`, `accel:5`, `server:3`,
    /// `client:7`, `link:h3>s0`).
    pub dev: String,
    /// Device kind (`switch`, `accel`, `server`, `client`, `link`).
    pub kind: String,
    /// The device's own tier: 0/1/2 for core/agg/ToR switches (and
    /// their accelerators), the touched switch tier for links, 3 for
    /// end-hosts.
    pub tier: u32,
    /// Packets forwarded per traffic tier (Tier-0/1/2 classification).
    pub packets: [u64; 3],
    /// Bytes forwarded per traffic tier.
    pub bytes: [u64; 3],
    /// Requests handled (server arrivals, client issues).
    pub ops: u64,
    /// Replica selections performed (accelerators only).
    pub selections: u64,
    /// Mean accelerator queue wait per selection (ns).
    pub mean_selection_wait_ns: u64,
    /// Response clones processed for selector state.
    pub clone_updates: u64,
    /// Device busy time (core-ns / slot-ns).
    pub busy_ns: u64,
    /// Busy fraction of the device's capacity over the run.
    pub utilization: f64,
    /// Sim-time-weighted mean queue depth.
    pub mean_queue_depth: f64,
    /// Deepest the device's queue ever got.
    pub max_queue_depth: u32,
    /// Work abandoned at the device (retired-RSNode fallbacks).
    pub drops: u64,
    /// Load-induced degradations (DRS forwarding).
    pub clamps: u64,
    /// Hot-key-cache reads served at the switch (RSNode operators only).
    #[serde(default)]
    pub cache_hits: u64,
    /// Hot-key-cache lookups that missed.
    #[serde(default)]
    pub cache_misses: u64,
    /// Cache hits served with an entry older than the key's committed
    /// version.
    #[serde(default)]
    pub cache_stale_hits: u64,
    /// Cache entries evicted to make room.
    #[serde(default)]
    pub cache_evictions: u64,
    /// Cache entries removed or refreshed by write coherence messages.
    #[serde(default)]
    pub cache_invalidations: u64,
}

// Schema rule no field attribute expresses: the five cache counters are
// written all together or not at all (each one alone could be zero).
impl Serialize for DeviceRecord {
    fn ser(&self) -> Value {
        let mut o: Vec<(String, Value)> = vec![
            ("dev".into(), self.dev.ser()),
            ("kind".into(), self.kind.ser()),
            ("tier".into(), self.tier.ser()),
            ("packets".into(), self.packets.ser()),
            ("bytes".into(), self.bytes.ser()),
            ("ops".into(), self.ops.ser()),
            ("selections".into(), self.selections.ser()),
            (
                "mean_selection_wait_ns".into(),
                self.mean_selection_wait_ns.ser(),
            ),
            ("clone_updates".into(), self.clone_updates.ser()),
            ("busy_ns".into(), self.busy_ns.ser()),
            ("utilization".into(), self.utilization.ser()),
            ("mean_queue_depth".into(), self.mean_queue_depth.ser()),
            ("max_queue_depth".into(), self.max_queue_depth.ser()),
            ("drops".into(), self.drops.ser()),
            ("clamps".into(), self.clamps.ser()),
        ];
        let cache_touched = self.cache_hits
            | self.cache_misses
            | self.cache_stale_hits
            | self.cache_evictions
            | self.cache_invalidations;
        if cache_touched != 0 {
            o.push(("cache_hits".into(), self.cache_hits.ser()));
            o.push(("cache_misses".into(), self.cache_misses.ser()));
            o.push(("cache_stale_hits".into(), self.cache_stale_hits.ser()));
            o.push(("cache_evictions".into(), self.cache_evictions.ser()));
            o.push(("cache_invalidations".into(), self.cache_invalidations.ser()));
        }
        Value::Obj(o)
    }
}

/// End-of-run device telemetry: one [`DeviceRecord`] per device ever
/// touched, in stable device order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceStatsReport {
    /// The per-device records.
    pub records: Vec<DeviceRecord>,
    /// When the run ended (sim nanoseconds) — the utilization /
    /// mean-depth denominator.
    pub sim_end_ns: u64,
}

impl DeviceRecord {
    /// Packets forwarded across all three traffic tiers.
    #[must_use]
    pub fn total_packets(&self) -> u64 {
        self.packets.iter().sum()
    }

    /// Bytes forwarded across all three traffic tiers.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }
}

impl DeviceStatsReport {
    /// Records of one kind, registry order preserved.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a DeviceRecord> {
        self.records.iter().filter(move |r| r.kind == kind)
    }

    /// Writes the report as JSONL, one [`DeviceRecord`] per line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        for r in &self.records {
            let line = serde_json::to_string(r).expect("device record serializes");
            writeln!(w, "{line}")?;
        }
        Ok(())
    }
}

// ---- control-plane observability ------------------------------------------

/// One traffic group's share of a monitor window (a [`SnapshotRecord`]
/// entry): raw per-tier packet counts and the rates the controller's
/// [`TrafficMatrix`](netrs::TrafficMatrix) aggregation derives from them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotGroup {
    /// The traffic group.
    pub group: u32,
    /// `[tier0, tier1, tier2]` responses observed in the window.
    pub counts: [u64; 3],
    /// The per-tier rates (responses/second) over the window.
    pub rates: [f64; 3],
}

/// One `--control` JSONL line of kind `snapshot`: a per-ToR monitor
/// window ([`TrafficSnapshot`]) exactly as the controller consumed it.
/// Windows of one ToR abut (`to_ns` of one window is `from_ns` of the
/// next) and `groups` is sorted by group id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotRecord {
    /// The measuring ToR switch.
    pub tor: u32,
    /// The ToR's pod.
    pub pod: u32,
    /// Window start (sim nanoseconds).
    pub from_ns: u64,
    /// Window end (the snapshot instant).
    pub to_ns: u64,
    /// Per-group counts and rates, ascending group order.
    pub groups: Vec<SnapshotGroup>,
}

impl SnapshotRecord {
    /// Flattens a monitor window into its export record.
    #[must_use]
    pub fn from_snapshot(snap: &TrafficSnapshot) -> Self {
        SnapshotRecord {
            tor: u32::from(snap.local.rack),
            pod: u32::from(snap.local.pod),
            from_ns: snap.from.as_nanos(),
            to_ns: snap.to.as_nanos(),
            groups: snap
                .counts
                .iter()
                .map(|&(g, counts)| SnapshotGroup {
                    group: g,
                    counts,
                    rates: snap.rates(counts),
                })
                .collect(),
        }
    }
}

/// Solver-effort metrics of one plan solve, carried by
/// [`PlanEventRecord`].
///
/// Effort is reported in deterministic units — simplex iterations and
/// branch-and-bound nodes — rather than wall-clock time, so the control
/// stream stays byte-identical across runs of the same seed (wall time
/// is not; DESIGN.md discusses the tradeoff).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolveRecord {
    /// Whether the greedy fallback produced the plan (no ILP ran).
    pub greedy: bool,
    /// ILP decision variables (0 for greedy plans).
    pub variables: u64,
    /// ILP constraint rows (0 for greedy plans).
    pub constraints: u64,
    /// Simplex iterations summed over every LP relaxation solved.
    pub lp_iterations: u64,
    /// Branch-and-bound nodes expanded.
    pub branch_nodes: u64,
    /// The objective value of the installed plan (RSNode count).
    pub objective: f64,
    /// The solver's proven lower bound on the optimum (0 for greedy
    /// plans); `objective − bound` is the gap a budget-capped solve left
    /// open.
    pub bound: f64,
    /// Whether the solver proved the installed plan optimal.
    pub proven_optimal: bool,
}

/// One `--control` JSONL line of kind `plan`: a controller decision —
/// what triggered it, the solver effort (when a solve ran), and the
/// structured diff against the previously installed plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanEventRecord {
    /// When the decision was made (sim nanoseconds).
    pub t_ns: u64,
    /// What prompted it: `initial`, `replan`, `operator_fail`,
    /// `operator_recover` or `overload`.
    pub trigger: String,
    /// The operator switch concerned (fault/overload triggers only).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub switch: Option<u32>,
    /// Solver-effort metrics; absent when no solve ran (fault/overload
    /// degradations and the NetRS-ToR bootstrap edit the plan directly).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub solve: Option<SolveRecord>,
    /// Groups moved from one RSNode to another.
    pub reassigned: Vec<u32>,
    /// Groups that gained an RSNode (previously DRS or unplanned).
    pub newly_assigned: Vec<u32>,
    /// Groups that lost their RSNode (now DRS).
    pub unassigned: Vec<u32>,
    /// Switches that newly host an RSNode.
    pub rsnodes_added: Vec<u32>,
    /// Switches that no longer host one.
    pub rsnodes_removed: Vec<u32>,
    /// RSNodes in the installed plan after the decision.
    pub rsnodes: u32,
    /// Groups under Degraded Replica Selection after the decision.
    pub drs_groups: u32,
    /// Per-switch rule sets recompiled by the redeploy that followed.
    pub rules_recompiled: u32,
}

impl PlanEventRecord {
    /// Groups whose routing the decision changed.
    #[must_use]
    pub fn groups_touched(&self) -> usize {
        self.reassigned.len() + self.newly_assigned.len() + self.unassigned.len()
    }
}

/// One traffic group's displacement inside a [`DrsSpanRecord`]: how long
/// the group routed via Degraded Replica Selection before a re-plan
/// re-homed it or its operator recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DisplacedGroup {
    /// The displaced traffic group.
    pub group: u32,
    /// Total sim time the group spent degraded during the episode.
    pub displaced_ns: u64,
}

/// One `--control` JSONL line of kind `drs_span`: an operator-failure
/// episode joined end-to-end — crash, controller detection (when the
/// affected groups degrade to DRS), and recovery — with per-group
/// displaced-time attribution. Emitted when the operator recovers, or at
/// end of run with `recover_ns` omitted if it never did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrsSpanRecord {
    /// The failed operator's switch.
    pub switch: u32,
    /// When the operator crashed (sim nanoseconds).
    pub fail_ns: u64,
    /// When the controller detected the crash and degraded the groups;
    /// absent if the run ended inside the detection delay.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub detect_ns: Option<u64>,
    /// When the operator recovered; absent if the run ended first.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub recover_ns: Option<u64>,
    /// Displaced groups, ascending group order.
    pub groups: Vec<DisplacedGroup>,
}

impl DrsSpanRecord {
    /// Total group-time displaced over the episode (ns summed across
    /// groups).
    #[must_use]
    pub fn total_displaced_ns(&self) -> u64 {
        self.groups.iter().map(|g| g.displaced_ns).sum()
    }
}

/// One `--control` JSONL line of kind `cache`: an end-of-run audit of
/// one operator's hot-key cache — its resident size and lifetime
/// hit/miss/coherence counters. One record per live operator (ascending
/// switch order) plus, when any operator retired with a cache, one
/// aggregate record with `switch` omitted summing the retired caches.
/// Only emitted when a cache is configured, so cache-off control streams
/// are byte-identical to the pre-cache format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheRecord {
    /// When the audit ran (end of run, sim nanoseconds).
    pub t_ns: u64,
    /// The operator's switch; `None` for the retired-operator aggregate.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub switch: Option<u32>,
    /// Entries resident at audit time (0 for the retired aggregate —
    /// retirement flushes the cache).
    pub len: u64,
    /// Reads served from the cache.
    pub hits: u64,
    /// Reads that missed and proceeded to replica selection.
    pub misses: u64,
    /// Hits whose entry was older than the key's committed version.
    pub stale_hits: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries removed or refreshed by write coherence messages.
    pub invalidations: u64,
}

/// One `--control` JSONL line. The `kind` key that leads every line is
/// this enum's tag (`snapshot`, `plan`, `drs_span`, `cache`); the record
/// structs carry only their own fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum ControlRecord {
    /// A per-ToR monitor window (`kind: "snapshot"`).
    Snapshot(SnapshotRecord),
    /// A controller decision (`kind: "plan"`).
    Plan(PlanEventRecord),
    /// A joined operator-failure episode (`kind: "drs_span"`).
    DrsSpan(DrsSpanRecord),
    /// An end-of-run per-operator cache audit (`kind: "cache"`).
    Cache(CacheRecord),
}

/// An operator-failure episode still in flight.
struct OpenSpan {
    fail_ns: u64,
    detect_ns: Option<u64>,
    /// Degraded groups still displaced → when each entered DRS.
    in_drs: BTreeMap<u32, u64>,
    /// Groups whose displacement already ended (a re-plan re-homed
    /// them), with their accumulated displaced time.
    displaced: Vec<DisplacedGroup>,
}

/// The control-plane observability sink: serializes snapshot, plan and
/// DRS-span records to one JSONL stream and joins operator-failure
/// episodes across crash / detection / recovery so each is emitted as a
/// single span.
///
/// Like the tracer, the sink only writes — it never perturbs event
/// timing, randomness or the controller's decisions.
pub struct ControlLog {
    w: Box<dyn Write + Send>,
    open: BTreeMap<u32, OpenSpan>,
}

impl ControlLog {
    pub(crate) fn new(w: Box<dyn Write + Send>) -> Self {
        ControlLog {
            w,
            open: BTreeMap::new(),
        }
    }

    fn write(&mut self, rec: &ControlRecord) {
        let line = serde_json::to_string(rec).expect("control record serializes");
        let _ = writeln!(self.w, "{line}");
    }

    /// Emits one monitor window.
    pub(crate) fn snapshot(&mut self, snap: &TrafficSnapshot) {
        let rec = ControlRecord::Snapshot(SnapshotRecord::from_snapshot(snap));
        self.write(&rec);
    }

    /// Emits one end-of-run cache audit record.
    pub(crate) fn cache(&mut self, rec: CacheRecord) {
        self.write(&ControlRecord::Cache(rec));
    }

    /// Emits one controller decision. Groups the decision (re)assigned
    /// stop accruing displaced time in any open failure episode.
    pub(crate) fn plan_event(&mut self, rec: PlanEventRecord) {
        for &g in rec.newly_assigned.iter().chain(rec.reassigned.iter()) {
            for span in self.open.values_mut() {
                if let Some(since) = span.in_drs.remove(&g) {
                    span.displaced.push(DisplacedGroup {
                        group: g,
                        displaced_ns: rec.t_ns - since,
                    });
                }
            }
        }
        self.write(&ControlRecord::Plan(rec));
    }

    /// Opens a failure episode: the operator at `sw` crashed (the
    /// controller does not know yet).
    pub(crate) fn operator_failed(&mut self, t_ns: u64, sw: u32) {
        self.open.entry(sw).or_insert(OpenSpan {
            fail_ns: t_ns,
            detect_ns: None,
            in_drs: BTreeMap::new(),
            displaced: Vec::new(),
        });
    }

    /// The controller detected the crash: records the detection instant
    /// and the groups that started routing via DRS, then emits the
    /// decision record.
    pub(crate) fn operator_detected(&mut self, rec: PlanEventRecord, affected: &[u32]) {
        let sw = rec.switch.expect("failure records name their switch");
        let t_ns = rec.t_ns;
        let span = self.open.entry(sw).or_insert(OpenSpan {
            fail_ns: t_ns,
            detect_ns: None,
            in_drs: BTreeMap::new(),
            displaced: Vec::new(),
        });
        span.detect_ns = Some(t_ns);
        for &g in affected {
            span.in_drs.insert(g, t_ns);
        }
        self.plan_event(rec);
    }

    /// The operator recovered: emits the decision record, closes the
    /// episode and emits its joined span. No-op if no episode was open
    /// (recover faults against never-failed operators).
    pub(crate) fn operator_recovered(&mut self, rec: PlanEventRecord) {
        let sw = rec.switch.expect("recovery records name their switch");
        if !self.open.contains_key(&sw) {
            return;
        }
        let t_ns = rec.t_ns;
        // plan_event closes the restored groups' displacement windows.
        self.plan_event(rec);
        let span = self.open.remove(&sw).expect("episode checked above");
        self.emit_span(sw, span, Some(t_ns), t_ns);
    }

    /// Emits spans for episodes still open at end of run (never
    /// recovered) and flushes the sink.
    pub(crate) fn finish(&mut self, t_ns: u64) {
        for (sw, span) in std::mem::take(&mut self.open) {
            self.emit_span(sw, span, None, t_ns);
        }
        let _ = self.w.flush();
    }

    fn emit_span(&mut self, sw: u32, mut span: OpenSpan, recover_ns: Option<u64>, t_ns: u64) {
        for (g, since) in std::mem::take(&mut span.in_drs) {
            span.displaced.push(DisplacedGroup {
                group: g,
                displaced_ns: t_ns - since,
            });
        }
        span.displaced.sort_unstable_by_key(|d| d.group);
        self.write(&ControlRecord::DrsSpan(DrsSpanRecord {
            switch: sw,
            fail_ns: span.fail_ns,
            detect_ns: span.detect_ns,
            recover_ns,
            groups: span.displaced,
        }));
    }
}

/// Configuration of the host-performance profiler (`--perf`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfOptions {
    /// Wall-clock sampling stride: every `stride`-th engine step is
    /// timed (clamped to at least 1). The default,
    /// [`PerfProbe::DEFAULT_STRIDE`](netrs_simcore::PerfProbe::DEFAULT_STRIDE),
    /// bounds profiling overhead at a few percent.
    pub stride: u32,
}

impl Default for PerfOptions {
    fn default() -> Self {
        PerfOptions {
            stride: netrs_simcore::PerfProbe::DEFAULT_STRIDE,
        }
    }
}

/// What to observe during a run. The default observes nothing and is
/// exactly the classic [`run`](crate::run).
#[derive(Default)]
pub struct ObsOptions {
    /// JSONL sink for per-request [`TraceRecord`] lines.
    pub trace: Option<Box<dyn Write + Send>>,
    /// Attach hop-by-hop route spans to each trace record (requires
    /// `trace`; adds a `hops` array per line).
    pub trace_hops: bool,
    /// Enable the virtual-time sampler.
    pub timeseries: Option<SamplerSpec>,
    /// Accumulate the per-device telemetry registry and return a
    /// [`DeviceStatsReport`].
    pub device_stats: bool,
    /// JSONL sink for control-plane [`ControlRecord`] lines: monitor
    /// snapshot windows, controller decision audits and DRS failure
    /// spans.
    pub control: Option<Box<dyn Write + Send>>,
    /// Attach the host-performance profiler and return a
    /// [`HostProfile`](crate::HostProfile) on the run output.
    pub perf: Option<PerfOptions>,
    /// Print a once-per-second heartbeat to stderr while running.
    pub progress: bool,
}

impl std::fmt::Debug for ObsOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsOptions")
            .field("trace", &self.trace.is_some())
            .field("trace_hops", &self.trace_hops)
            .field("timeseries", &self.timeseries)
            .field("device_stats", &self.device_stats)
            .field("control", &self.control.is_some())
            .field("perf", &self.perf)
            .field("progress", &self.progress)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use netrs_simcore::SimTime;

    use super::*;

    #[test]
    fn trace_record_round_trips_through_json() {
        let rec = TraceRecord {
            req: 42,
            server: 3,
            first: true,
            write: false,
            issued_ns: 1_000,
            received_ns: 9_000,
            steer_ns: 1_000,
            selection_ns: 2_000,
            selection_wait_ns: 500,
            to_server_ns: 1_500,
            server_queue_ns: 1_000,
            service_ns: 2_000,
            reply_ns: 500,
            e2e_ns: 8_000,
            hops: Vec::new(),
        };
        assert_eq!(rec.phase_sum_ns(), rec.e2e_ns);
        let line = serde_json::to_string(&rec).unwrap();
        assert!(
            !line.contains("hops"),
            "empty hops must be omitted for schema stability: {line}"
        );
        let back: TraceRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back, rec);

        let mut with_hops = rec;
        with_hops.hops = vec![
            HopSpan {
                dev: "client:0".into(),
                arrive_ns: 1_000,
                depart_ns: 3_000,
            },
            HopSpan {
                dev: "link:h0>s1".into(),
                arrive_ns: 3_000,
                depart_ns: 4_500,
            },
        ];
        assert_eq!(with_hops.hop_sum_ns(), 3_500);
        let line = serde_json::to_string(&with_hops).unwrap();
        let back: TraceRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back, with_hops);
    }

    #[test]
    fn timeseries_points_zip_aligned_series() {
        let mut ts = TimeSeries::new(8);
        for i in 0..3u64 {
            let t = SimTime::from_nanos(i * 100);
            ts.accel_util.push(t, 0.1 * i as f64);
            ts.server_occupancy.push(t, 0.2 * i as f64);
            ts.outstanding.push(t, i as f64);
            ts.drs_groups.push(t, 0.0);
        }
        let pts: Vec<_> = ts.points().collect();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[2].t_ns, 200);
        assert!((pts[2].outstanding - 2.0).abs() < 1e-12);
        let mut buf = Vec::new();
        ts.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        let p0: SamplePoint = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        assert_eq!(p0.t_ns, 0);
    }

    fn plan_rec(t_ns: u64, trigger: &str, switch: Option<u32>) -> PlanEventRecord {
        PlanEventRecord {
            t_ns,
            trigger: trigger.into(),
            switch,
            solve: None,
            reassigned: Vec::new(),
            newly_assigned: Vec::new(),
            unassigned: Vec::new(),
            rsnodes_added: Vec::new(),
            rsnodes_removed: Vec::new(),
            rsnodes: 2,
            drs_groups: 0,
            rules_recompiled: 20,
        }
    }

    #[test]
    fn control_records_round_trip_through_json() {
        let snap = ControlRecord::Snapshot(SnapshotRecord {
            tor: 3,
            pod: 1,
            from_ns: 0,
            to_ns: 500_000_000,
            groups: vec![SnapshotGroup {
                group: 2,
                counts: [1, 2, 3],
                rates: [2.0, 4.0, 6.0],
            }],
        });
        let mut plan = plan_rec(500_000_000, "replan", None);
        plan.solve = Some(SolveRecord {
            greedy: false,
            variables: 40,
            constraints: 21,
            lp_iterations: 37,
            branch_nodes: 1,
            objective: 2.0,
            bound: 2.0,
            proven_optimal: true,
        });
        plan.reassigned = vec![1];
        let span = ControlRecord::DrsSpan(DrsSpanRecord {
            switch: 5,
            fail_ns: 100,
            detect_ns: Some(200),
            recover_ns: None,
            groups: vec![DisplacedGroup {
                group: 1,
                displaced_ns: 300,
            }],
        });
        for rec in [snap, ControlRecord::Plan(plan), span] {
            let line = serde_json::to_string(&rec).unwrap();
            let back: ControlRecord = serde_json::from_str(&line).unwrap();
            assert_eq!(back, rec);
        }
        // Optional fields are omitted, not null.
        let bare = ControlRecord::Plan(plan_rec(0, "initial", None));
        let line = serde_json::to_string(&bare).unwrap();
        assert!(
            !line.contains("switch") && !line.contains("solve"),
            "{line}"
        );
    }

    #[test]
    fn control_log_joins_failure_episodes_into_spans() {
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let buf = Buf(Arc::new(Mutex::new(Vec::new())));
        let mut log = ControlLog::new(Box::new(buf.clone()));
        log.operator_failed(100, 5);
        let mut detect = plan_rec(200, "operator_fail", Some(5));
        detect.unassigned = vec![1, 2];
        log.operator_detected(detect, &[1, 2]);
        // A re-plan re-homes group 1 mid-episode.
        let mut replan = plan_rec(600, "replan", None);
        replan.newly_assigned = vec![1];
        log.plan_event(replan);
        let mut recover = plan_rec(1_000, "operator_recover", Some(5));
        recover.newly_assigned = vec![2];
        log.operator_recovered(recover);
        log.finish(1_000);

        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let recs: Vec<ControlRecord> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(recs.len(), 4, "{text}");
        let ControlRecord::DrsSpan(span) = &recs[3] else {
            panic!("last record is the joined span: {text}");
        };
        assert_eq!(span.switch, 5);
        assert_eq!(span.fail_ns, 100);
        assert_eq!(span.detect_ns, Some(200));
        assert_eq!(span.recover_ns, Some(1_000));
        assert_eq!(
            span.groups,
            vec![
                DisplacedGroup {
                    group: 1,
                    displaced_ns: 400, // re-homed at the 600 ns re-plan
                },
                DisplacedGroup {
                    group: 2,
                    displaced_ns: 800, // displaced until recovery
                },
            ]
        );
        assert_eq!(span.total_displaced_ns(), 1_200);

        // Recover faults against never-failed operators emit nothing.
        log.operator_recovered(plan_rec(2_000, "operator_recover", Some(9)));
        log.finish(2_000);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn default_obs_options_observe_nothing() {
        let obs = ObsOptions::default();
        assert!(obs.trace.is_none());
        assert!(obs.timeseries.is_none());
        assert!(obs.control.is_none());
        assert!(obs.perf.is_none());
        assert!(!obs.progress);
        assert!(format!("{obs:?}").contains("trace: false"));
        assert!(format!("{obs:?}").contains("control: false"));
        assert!(format!("{obs:?}").contains("perf: None"));
    }
}
