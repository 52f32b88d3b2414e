//! Parallel multi-core sweep execution: a (point × scheme × seed) grid
//! fanned out across worker threads, merged into one deterministic
//! artifact. [`run_sweep`] is the only fan-out of simulations across
//! threads: `simulate sweep`, `repro`'s figures and the scheme
//! comparisons all build their jobs with [`SweepJob::grid`] and run them
//! here.
//!
//! The executor is a work-stealing-free job pool: jobs sit in a fixed
//! vector, workers claim the next index from an atomic counter, and
//! each result lands in its job's slot — so the merged output order is
//! the job order, independent of thread scheduling. [`run_sweep`] sorts
//! the grid by `(label, seed)` before running, which makes the
//! artifact's cell order — and therefore its bytes, modulo wall-clock
//! fields — deterministic for a given grid.
//!
//! Each cell is an independent full simulation on the sequential engine
//! (its own [`Cluster`], RNG tree, and engine) — this fan-out is the only
//! parallelism a sweep has — so it cannot perturb results: the
//! per-cell statistics are byte-identical to running the same
//! configuration alone.
//!
//! [`Cluster`]: crate::cluster::Cluster

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::config::{Scheme, SimConfig};
use crate::runner::run;
use crate::stats::{MeanStats, RunStats};

/// Version stamp on every [`SweepReport`] artifact; bump on any schema
/// change so offline consumers can reject files they don't understand.
pub const SWEEP_SCHEMA_VERSION: u32 = 2;

/// One (config, seed) job of a sweep grid.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Config key the artifact is sorted and rendered by
    /// ([`cell_label`] for a [`SweepJob::grid`] job).
    pub label: String,
    /// The configuration to run (its `seed` is overwritten per job).
    pub cfg: SimConfig,
    /// The seed for this cell.
    pub seed: u64,
}

/// One point of a sweep: an x-axis label and the configuration that
/// realizes it (its scheme and seed are set per job).
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// X-axis label (e.g. `"500"` clients, `"70%"` skew); empty for a
    /// sweep over schemes and seeds alone.
    pub label: String,
    /// The fully materialized configuration of this point.
    pub config: SimConfig,
}

/// The label of a `(point, scheme)` cell: the scheme label for an unnamed
/// point, `"<point>/<scheme>"` otherwise.
#[must_use]
pub fn cell_label(point: &str, scheme: Scheme) -> String {
    if point.is_empty() {
        scheme.label().to_string()
    } else {
        format!("{point}/{}", scheme.label())
    }
}

impl SweepJob {
    /// Builds the point × scheme × seed grid, one job per combination,
    /// labelled by [`cell_label`].
    #[must_use]
    pub fn grid(points: &[SweepPoint], schemes: &[Scheme], seeds: &[u64]) -> Vec<SweepJob> {
        let mut jobs = Vec::with_capacity(points.len() * schemes.len() * seeds.len());
        for point in points {
            for &scheme in schemes {
                let label = cell_label(&point.label, scheme);
                let mut cfg = point.config.clone();
                cfg.scheme = scheme;
                jobs.extend(seeds.iter().map(|&seed| SweepJob {
                    label: label.clone(),
                    cfg: cfg.clone(),
                    seed,
                }));
            }
        }
        jobs
    }
}

/// One completed cell of the sweep grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepCell {
    /// The job's config key.
    pub label: String,
    /// The seed the cell ran under.
    pub seed: u64,
    /// Wall-clock seconds this cell's simulation took.
    pub wall_s: f64,
    /// The run's full statistics.
    pub stats: RunStats,
}

/// The merged sweep artifact: every cell of the grid plus the sweep's
/// own wall-clock accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepReport {
    /// Artifact schema version ([`SWEEP_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Worker threads the parallel pass used.
    pub threads: u64,
    /// Wall-clock seconds for the parallel pass over the grid.
    pub wall_s: f64,
    /// Wall-clock seconds for the single-threaded baseline pass, if one
    /// was measured.
    pub sequential_wall_s: Option<f64>,
    /// `sequential_wall_s / wall_s`, if a baseline was measured.
    pub speedup: Option<f64>,
    /// The grid cells, sorted by `(label, seed)`.
    pub cells: Vec<SweepCell>,
}

impl SweepReport {
    /// Seed-averaged statistics of the cells labelled `label`, summed in
    /// `seeds` order (so a report renders the same numbers whatever
    /// order its cells are sorted in).
    ///
    /// # Panics
    ///
    /// Panics if a seed has no cell under `label`.
    #[must_use]
    pub fn mean(&self, label: &str, seeds: &[u64]) -> MeanStats {
        let runs: Vec<RunStats> = seeds
            .iter()
            .map(|&seed| {
                let cell = self
                    .cells
                    .iter()
                    .find(|c| c.label == label && c.seed == seed);
                cell.unwrap_or_else(|| panic!("sweep has no cell {label} seed {seed}"))
                    .stats
                    .clone()
            })
            .collect();
        RunStats::mean_of(&runs)
    }
}

/// Resolves a worker-count request: `0` means one worker per available
/// core, and there is never a point in more workers than jobs.
fn effective_threads(requested: usize, jobs: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let t = if requested == 0 { cores } else { requested };
    t.min(jobs).max(1)
}

/// Runs every job of the grid on `threads` workers (`0` = one per
/// core). `out[i]` is `jobs[i]`'s cell — output order is job order, so
/// thread scheduling never reaches the artifact.
///
/// # Panics
///
/// Panics if a job's configuration is invalid or a worker panics.
#[must_use]
fn run_grid(jobs: &[SweepJob], threads: usize) -> Vec<SweepCell> {
    let threads = effective_threads(threads, jobs.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<SweepCell>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let started = Instant::now();
                let mut cfg = job.cfg.clone();
                cfg.seed = job.seed;
                let stats = run(cfg);
                *slots[i].lock().expect("sweep slot") = Some(SweepCell {
                    label: job.label.clone(),
                    seed: job.seed,
                    wall_s: started.elapsed().as_secs_f64(),
                    stats,
                });
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("sweep slot").expect("every job ran"))
        .collect()
}

/// Runs a sweep grid in parallel and merges the results into one
/// [`SweepReport`]. The grid is sorted by `(label, seed)` first, so the
/// artifact's cell order is deterministic regardless of the order jobs
/// were declared in or finished in. With `baseline` set, the same grid
/// runs again on one worker and the report carries the measured
/// wall-clock speedup.
///
/// # Panics
///
/// Panics if a job's configuration is invalid or a worker panics.
#[must_use]
pub fn run_sweep(mut jobs: Vec<SweepJob>, threads: usize, baseline: bool) -> SweepReport {
    jobs.sort_by(|a, b| (a.label.as_str(), a.seed).cmp(&(b.label.as_str(), b.seed)));
    let threads = effective_threads(threads, jobs.len());
    let started = Instant::now();
    let cells = run_grid(&jobs, threads);
    let wall_s = started.elapsed().as_secs_f64();
    let (sequential_wall_s, speedup) = if baseline {
        let started = Instant::now();
        let _ = run_grid(&jobs, 1);
        let seq = started.elapsed().as_secs_f64();
        (Some(seq), (wall_s > 0.0).then(|| seq / wall_s))
    } else {
        (None, None)
    };
    SweepReport {
        schema_version: SWEEP_SCHEMA_VERSION,
        threads: threads as u64,
        wall_s,
        sequential_wall_s,
        speedup,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(scheme: Scheme, seed: u64) -> SimConfig {
        let mut cfg = SimConfig::small();
        cfg.requests = 800;
        cfg.scheme = scheme;
        cfg.seed = seed;
        cfg
    }

    fn unnamed(config: SimConfig) -> SweepPoint {
        SweepPoint {
            label: String::new(),
            config,
        }
    }

    fn grid() -> Vec<SweepJob> {
        SweepJob::grid(
            &[unnamed(tiny(Scheme::CliRs, 1))],
            &[Scheme::NetRsToR, Scheme::CliRs],
            &[5, 4, 3],
        )
    }

    #[test]
    fn grid_labels_points_and_runs_one_cell_per_seed() {
        let jobs = grid();
        let keys: Vec<(&str, u64)> = jobs.iter().map(|j| (j.label.as_str(), j.seed)).collect();
        assert_eq!(
            keys,
            [
                ("NetRS-ToR", 5),
                ("NetRS-ToR", 4),
                ("NetRS-ToR", 3),
                ("CliRS", 5),
                ("CliRS", 4),
                ("CliRS", 3)
            ]
        );
        assert!(jobs.iter().all(|j| j.cfg.scheme.label() == j.label));

        let points: Vec<SweepPoint> = ["100", "300"]
            .into_iter()
            .map(|label| SweepPoint {
                label: label.into(),
                config: tiny(Scheme::NetRsToR, 1),
            })
            .collect();
        let named = SweepJob::grid(&points, &[Scheme::CliRs, Scheme::NetRsIlp], &[2]);
        let labels: Vec<&str> = named.iter().map(|j| j.label.as_str()).collect();
        assert_eq!(
            labels,
            ["100/CliRS", "100/NetRS-ILP", "300/CliRS", "300/NetRS-ILP"]
        );

        let report = run_sweep(
            SweepJob::grid(&points[..1], &[Scheme::CliRs], &[1, 2, 3]),
            0,
            false,
        );
        assert_eq!(report.cells.len(), 3);
        assert!(report.cells.iter().all(|c| c.stats.completed == 800));
        let means: std::collections::HashSet<u64> = report
            .cells
            .iter()
            .map(|c| c.stats.latency.mean.as_nanos())
            .collect();
        assert!(means.len() > 1, "seeds should differ");
    }

    #[test]
    fn cells_serialize_equal_to_solo_runs() {
        // Thread scheduling must not leak into results: each cell is
        // self-contained, so the parallel fan-out serializes to the same
        // bytes as running each configuration alone.
        let report = run_sweep(grid(), 3, false);
        for cell in &report.cells {
            let scheme: Scheme = cell.label.parse().expect("a scheme label");
            assert_eq!(
                serde_json::to_string_pretty(&cell.stats).expect("stats serialize"),
                serde_json::to_string_pretty(&run(tiny(scheme, cell.seed)))
                    .expect("stats serialize"),
                "{} seed {}: parallel and solo runs diverged",
                cell.label,
                cell.seed
            );
        }
    }

    #[test]
    fn grid_output_order_is_job_order() {
        let jobs = grid();
        let cells = run_grid(&jobs, 3);
        assert_eq!(cells.len(), jobs.len());
        for (job, cell) in jobs.iter().zip(&cells) {
            assert_eq!(job.label, cell.label);
            assert_eq!(job.seed, cell.seed);
            assert_eq!(cell.stats.completed, 800);
        }
    }

    #[test]
    fn sweep_cells_are_sorted_and_deterministic() {
        let a = run_sweep(grid(), 4, false);
        let b = run_sweep(grid(), 2, false);
        assert_eq!(a.schema_version, SWEEP_SCHEMA_VERSION);
        let keys: Vec<(&str, u64)> = a.cells.iter().map(|c| (c.label.as_str(), c.seed)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "cells must be sorted by (label, seed)");
        // Same grid, different thread counts: identical simulation bytes.
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(
                serde_json::to_string(&x.stats).expect("stats serialize"),
                serde_json::to_string(&y.stats).expect("stats serialize"),
                "{} seed {}: thread count leaked into results",
                x.label,
                x.seed
            );
        }
    }

    #[test]
    fn an_invalid_job_panics_the_grid_instead_of_returning_part_of_it() {
        // `run_grid`'s documented `# Panics`: the worker that runs the bad
        // config panics, and the scope re-raises it on the calling thread
        // once every worker has joined.
        let mut jobs = grid();
        jobs[2].cfg.servers = 0;
        assert!(jobs[2].cfg.validate().is_err());
        let grid = std::panic::catch_unwind(|| run_grid(&jobs, 2));
        assert!(grid.is_err(), "a grid with an invalid job returned");
    }

    #[test]
    fn baseline_pass_records_speedup_fields() {
        let mut jobs = grid();
        jobs.truncate(2);
        let report = run_sweep(jobs, 2, true);
        let seq = report.sequential_wall_s.expect("baseline measured");
        let speedup = report.speedup.expect("speedup derived");
        assert!(seq > 0.0);
        assert!(speedup > 0.0);
        assert!((speedup - seq / report.wall_s).abs() < 1e-9);
    }

    #[test]
    fn worker_count_follows_request_cores_and_jobs() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(effective_threads(0, 64), cores.min(64));
        // An explicit request is honoured, over-subscription included.
        assert_eq!(effective_threads(8, 64), 8);
        // Never more workers than jobs, never fewer than one.
        assert_eq!(effective_threads(0, 1), 1);
        assert_eq!(effective_threads(8, 0), 1);
    }
}
