//! Run statistics: what one simulated experiment reports.

use netrs_faults::AvailabilityStats;
use netrs_simcore::{SimDuration, SimTime, Summary};
use serde::{Deserialize, Serialize};

use crate::config::Scheme;

/// Where response latency accrues, phase by phase, over post-warmup
/// first-completion reads — the decomposition behind the paper's Fig. 7/9
/// panels (client-side selection vs. in-network selection wait vs. server
/// queueing).
///
/// Each request's phases are differences of consecutive event timestamps
/// along the winning copy's path, so per request they sum exactly to the
/// end-to-end latency; the per-phase [`Summary`] means therefore sum to
/// the end-to-end mean up to integer-division rounding.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    /// Requests decomposed (equals `latency.count`).
    pub count: u64,
    /// Network propagation: client → selection point → server → client.
    pub network: Summary,
    /// Replica selection: the accelerator's half-RTT + queue wait +
    /// processing + half-RTT in-network, or the client-side hold (rate
    /// gating, duplicate timers) for client schemes.
    pub selection: Summary,
    /// Time queued at the server before a slot freed up.
    pub server_queue: Summary,
    /// Service time at the server.
    pub service: Summary,
}

/// Read/write-mix outcome: write commits and aggregate hot-key-cache
/// counters. Present only on runs that opted into the extension (a
/// per-operator cache, or a non-default write-consistency mode), and
/// omitted — not `null` — from the JSON otherwise, so read-only stats
/// files stay byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RwStats {
    /// Writes acknowledged under the configured consistency mode.
    pub writes_completed: u64,
    /// Reads served directly from an RSNode's hot-key cache.
    pub cache_hits: u64,
    /// Cache lookups that fell through to replica selection.
    pub cache_misses: u64,
    /// Cache hits whose version lagged the store's committed one (a
    /// coherence message was lost or still in flight).
    pub stale_reads: u64,
    /// Cache entries displaced by capacity pressure.
    pub cache_evictions: u64,
    /// Coherence messages that found a cached entry to remove/refresh.
    pub cache_invalidations: u64,
}

/// Replica-engine execution outcome: the conservative-window driver's
/// schedule-level accounting. Present only on runs the replica engine
/// executed and omitted — not `null` — otherwise, so every other stats
/// file stays byte-identical to the sequential engine's.
///
/// Deliberately **schedule-deterministic**: it never records the thread
/// count or any wall-clock quantity, so the same run at `--threads 1`
/// and `--threads N` serializes byte-identically (the acceptance
/// invariant). Wall-clock facts (speedup, busy-time imbalance) belong in
/// the heartbeat and the perf artifact instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ParallelStats {
    /// Event shards the run was partitioned into.
    pub shards: u32,
    /// Conservative windows the driver advanced through.
    pub windows: u64,
    /// Cross-shard events buffered and delivered by the merge phase.
    pub mailbox_posted: u64,
    /// Cross-shard events that arrived past the destination clock and
    /// were clamped (lookahead-contract violations; always 0 at the
    /// default 1× lookahead).
    pub mailbox_late: u64,
}

impl ParallelStats {
    /// Mean in-window events per barrier round.
    #[must_use]
    pub fn events_per_window(&self, events: u64) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            events as f64 / self.windows as f64
        }
    }
}

/// The results of one simulation run.
///
/// The optional blocks ([`availability`](RunStats::availability), `rw`,
/// `parallel`) are *omitted* when absent rather than emitted as `null`:
/// stats JSON from before each subsystem existed — including the pinned
/// golden fixtures — stays byte-identical, and parses.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunStats {
    /// The scheme that ran.
    pub scheme: Scheme,
    /// End-to-end response-latency statistics over post-warmup requests
    /// (the paper's Avg / 95th / 99th / 99.9th panels).
    pub latency: Summary,
    /// Per-phase latency decomposition of the same requests.
    pub breakdown: LatencyBreakdown,
    /// Logical requests issued.
    pub issued: u64,
    /// Logical requests completed.
    pub completed: u64,
    /// Redundant copies sent (CliRS-R95 only).
    pub duplicates: u64,
    /// RSNodes in the final plan (0 for client schemes).
    pub rsnode_count: usize,
    /// RSNodes per tier `[core, agg, tor]`.
    pub rsnode_census: [usize; 3],
    /// Traffic groups under Degraded Replica Selection at the end.
    pub drs_groups: usize,
    /// Mean accelerator core utilization across operators.
    pub mean_accel_utilization: f64,
    /// Maximum accelerator core utilization across operators.
    pub max_accel_utilization: f64,
    /// Mean queueing wait of replica selections at accelerators.
    pub mean_selection_wait: SimDuration,
    /// Mean storage-server slot utilization.
    pub mean_server_utilization: f64,
    /// Controller re-plans performed (monitored plan source).
    pub replans: u64,
    /// Write requests issued (the read/write-mix extension).
    pub writes_issued: u64,
    /// Write-latency statistics (last-replica completion).
    pub write_latency: Summary,
    /// Operators degraded for overload (§III-C(ii)).
    pub overload_events: u64,
    /// Simulated time at drain.
    pub sim_end: SimTime,
    /// Discrete events processed. A unit of engine work, not of
    /// simulated traffic: a write's coherence messages count once per
    /// arrival-time batch ([`Ev::CacheInvalidate`](crate::Ev)), not once
    /// per message.
    pub events: u64,
    /// Availability outcome under the run's fault plan; `None` (and
    /// absent from the JSON) for fault-free runs.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub availability: Option<AvailabilityStats>,
    /// Read/write-mix outcome; `None` (and absent from the JSON) unless
    /// the run enabled a hot-key cache or a non-default consistency
    /// mode.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub rw: Option<RwStats>,
    /// Sharded/parallel window accounting; `None` (and absent from the
    /// JSON) for single-shard runs.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub parallel: Option<ParallelStats>,
}

impl RunStats {
    /// Merges latency summaries across seeds by averaging each reported
    /// statistic (the paper plots the mean of repeated runs).
    #[must_use]
    pub fn mean_of(runs: &[RunStats]) -> MeanStats {
        assert!(!runs.is_empty(), "need at least one run");
        let n = runs.len() as f64;
        let avg = |f: fn(&RunStats) -> f64| runs.iter().map(f).sum::<f64>() / n;
        MeanStats {
            runs: runs.len(),
            mean_ms: avg(|r| r.latency.mean.as_millis_f64()),
            p95_ms: avg(|r| r.latency.p95.as_millis_f64()),
            p99_ms: avg(|r| r.latency.p99.as_millis_f64()),
            p999_ms: avg(|r| r.latency.p999.as_millis_f64()),
            rsnodes: avg(|r| r.rsnode_count as f64),
            duplicates: avg(|r| r.duplicates as f64),
        }
    }
}

/// Seed-averaged statistics for one (scheme, sweep-point) cell: what
/// `repro`'s tables print (artifacts carry the per-seed cells instead).
#[derive(Debug, Clone, Copy)]
pub struct MeanStats {
    /// Number of seeds averaged.
    pub runs: usize,
    /// Mean latency (ms).
    pub mean_ms: f64,
    /// 95th percentile latency (ms).
    pub p95_ms: f64,
    /// 99th percentile latency (ms).
    pub p99_ms: f64,
    /// 99.9th percentile latency (ms).
    pub p999_ms: f64,
    /// Mean RSNode count.
    pub rsnodes: f64,
    /// Mean redundant copies.
    pub duplicates: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(mean_ms: u64) -> RunStats {
        let mut h = netrs_simcore::Histogram::new();
        h.record(SimDuration::from_millis(mean_ms));
        RunStats {
            scheme: Scheme::CliRs,
            latency: h.summary(),
            breakdown: LatencyBreakdown::default(),
            issued: 1,
            completed: 1,
            duplicates: 0,
            rsnode_count: 2,
            rsnode_census: [1, 1, 0],
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
        }
    }

    #[test]
    fn mean_of_averages_each_stat() {
        let stats = RunStats::mean_of(&[run(2), run(4)]);
        assert_eq!(stats.runs, 2);
        assert!((stats.mean_ms - 3.0).abs() < 1e-9);
        assert!((stats.rsnodes - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn mean_of_rejects_empty() {
        let _ = RunStats::mean_of(&[]);
    }

    #[test]
    fn availability_is_omitted_when_absent_and_round_trips_when_present() {
        let fault_free = run(2);
        let json = serde_json::to_string(&fault_free.ser()).unwrap();
        assert!(!json.contains("availability"));
        let back = RunStats::deser(&fault_free.ser()).unwrap();
        assert!(back.availability.is_none());

        let mut faulted = run(2);
        faulted.availability = Some(AvailabilityStats {
            faults_injected: 1,
            timeouts: 2,
            retries: 3,
            duplicate_drops: 4,
            copies_dropped: 5,
            failed_window_p99: SimDuration::from_millis(7),
            time_to_recover: Some(SimDuration::from_millis(9)),
        });
        let json = serde_json::to_string(&faulted.ser()).unwrap();
        assert!(json.contains("availability"));
        let back = RunStats::deser(&faulted.ser()).unwrap();
        assert_eq!(back.availability, faulted.availability);
    }

    #[test]
    fn rw_is_omitted_when_absent_and_round_trips_when_present() {
        let read_only = run(2);
        let json = serde_json::to_string(&read_only.ser()).unwrap();
        assert!(!json.contains("\"rw\""));
        assert!(RunStats::deser(&read_only.ser()).unwrap().rw.is_none());

        let mut cached = run(2);
        cached.rw = Some(RwStats {
            writes_completed: 10,
            cache_hits: 40,
            cache_misses: 9,
            stale_reads: 2,
            cache_evictions: 3,
            cache_invalidations: 5,
        });
        let json = serde_json::to_string(&cached.ser()).unwrap();
        assert!(json.contains("\"rw\""));
        let back = RunStats::deser(&cached.ser()).unwrap();
        assert_eq!(back.rw, cached.rw);
    }
}
