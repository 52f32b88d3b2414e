//! Metric names and units, the small statistics the report needs, and the
//! JSON the passes emit.

use std::collections::BTreeMap;

use serde::Value;

/// End-to-end metrics, in `BENCHMARK.json` order: `(name, unit)`.
/// `ms_simulated` is simulated time; `s` and `MB` are the host's.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_mean_ms", "ms_simulated"),
    ("sim_p99_ms", "ms_simulated"),
    ("completed_share", "ratio"),
];

/// Per-layer metrics, in `BENCHMARK.json` order: `(name, unit)`. A layer
/// that does not run on a workload reports 0 there.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("sim.run_s", "s"),
    ("sim.build_s", "s"),
    ("sim.prime_s", "s"),
    ("sim.loop_s", "s"),
    ("sim.stats_s", "s"),
    ("sim.serialize_s", "s"),
    ("sim.teardown_s", "s"),
    ("sim.unattributed_share", "ratio"),
    ("sim.tracing_overhead_share", "ratio"),
    ("sim.events_per_request", "ratio"),
    ("sim.loop_ns_per_event", "ns"),
    ("simcore.events", "count"),
    ("simcore.queue_high_water", "count"),
    ("simcore.queue_ns_per_op", "ns"),
    ("simcore.windows", "count"),
    ("simcore.events_per_window", "ratio"),
    ("simcore.mailbox_posted", "count"),
    ("simcore.mailbox_late", "count"),
    ("simcore.window_overhead_share", "ratio"),
    ("simcore.threads2_wall_s", "s"),
    ("simcore.threads2_speedup", "ratio"),
    ("simcore.threads2_busy_share", "ratio"),
    ("topology.build_s", "s"),
    ("topology.hops_ns", "ns"),
    ("kvstore.ring_build_s", "s"),
    ("kvstore.replicas_ns", "ns"),
    ("kvstore.server_utilization", "ratio"),
    ("kvstore.write_mean_ms", "ms_simulated"),
    ("kvstore.writes_completed", "count"),
    ("selection.c3_select_ns", "ns"),
    ("selection.c3_feedback_ns", "ns"),
    ("netdev.cache_ns_per_op", "ns"),
    ("netdev.cache_hit_ratio", "ratio"),
    ("netdev.cache_evictions", "count"),
    ("netdev.cache_invalidations", "count"),
    ("netdev.stale_reads", "count"),
    ("netdev.accel_schedule_ns", "ns"),
    ("netdev.ingress_ns", "ns"),
    ("netdev.accel_utilization", "ratio"),
    ("netdev.selection_wait_us", "us_simulated"),
    ("faults.timeouts", "count"),
    ("faults.retries", "count"),
    ("faults.copies_dropped", "count"),
    ("core.problem_build_s", "s"),
    ("core.greedy_s", "s"),
    ("core.rsnodes", "count"),
    ("ilp.solve_s", "s"),
    ("ilp.lp_root_s", "s"),
    ("ilp.variables", "count"),
    ("ilp.constraints", "count"),
    ("ilp.lp_iterations", "count"),
    ("ilp.branch_nodes", "count"),
    ("ilp.objective", "count"),
    ("ilp.greedy", "count"),
];

/// One reported number. `samples` holds the repeats a host timing is the
/// median of; exact (simulated) values carry none.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

/// What one pass over one workload found.
#[derive(Default)]
pub struct PassResult {
    pub metrics: Vec<Metric>,
    /// `simulate` invocations and in-process runs checked.
    pub attempted: u64,
    /// One line per invocation or run that exited non-zero or failed a
    /// check.
    pub failures: Vec<String>,
    /// FNV-1a of the stats bytes every repeat agreed on.
    pub stats_digest: String,
}

impl PassResult {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The driver's result line.
    pub fn driver_line(&self) -> String {
        let line = Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U(self.attempted.into())),
            ("failed".into(), Value::U(self.failures.len() as u128)),
            ("metrics".into(), self.metrics_value(false)),
        ]);
        serde_json::to_string(&line).expect("a Value serializes")
    }

    /// The metrics as `{name: {value, unit}}`; the results file also
    /// stores the samples.
    pub fn metrics_value(&self, with_samples: bool) -> Value {
        Value::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let mut entry = vec![
                        ("value".to_string(), Value::F(m.value)),
                        ("unit".to_string(), Value::Str(m.unit.into())),
                    ];
                    if with_samples && !m.samples.is_empty() {
                        let samples = m.samples.iter().map(|&s| Value::F(s)).collect();
                        entry.push(("samples".to_string(), Value::Arr(samples)));
                    }
                    (m.name.to_string(), Value::Obj(entry))
                })
                .collect(),
        )
    }

    /// Prints every metric by name with its unit, then every failed check.
    pub fn print(&self, workload: &str, pass: &str) {
        println!(
            "== {workload} · {pass} pass · stats_digest {}",
            self.stats_digest
        );
        for m in &self.metrics {
            if m.samples.is_empty() {
                println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
            } else {
                let min = m.samples.iter().copied().fold(f64::INFINITY, f64::min);
                let max = m.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                println!(
                    "{:<32} {:>16.6} {}  (median of {}, min {:.6}, max {:.6})",
                    m.name,
                    m.value,
                    m.unit,
                    m.samples.len(),
                    min,
                    max
                );
            }
        }
        for f in &self.failures {
            println!("CHECK FAILED: {f}");
        }
    }
}

/// Measured values by metric name, each with the samples it is the
/// median of (none for an exact value).
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, (f64, Vec<f64>)>);

impl Values {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, (value, Vec::new()));
    }

    /// Stores and returns the median of `samples`; 0 if there are none.
    pub fn put_median(&mut self, name: &'static str, samples: Vec<f64>) -> f64 {
        let m = if samples.is_empty() {
            0.0
        } else {
            median(&samples)
        };
        self.0.insert(name, (m, samples));
        m
    }
}

/// Fills the metric table from measured values; a name the table lacks is
/// a bug here, a table entry nothing measured is a layer that did not run.
pub fn tabulate(table: &'static [(&'static str, &'static str)], values: &Values) -> Vec<Metric> {
    let values = &values.0;
    for name in values.keys() {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric `{name}` is not in the table"
        );
    }
    table
        .iter()
        .map(|&(name, unit)| {
            let (value, samples) = values.get(name).cloned().unwrap_or((0.0, Vec::new()));
            Metric {
                name,
                unit,
                value,
                samples,
            }
        })
        .collect()
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method); `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// 64-bit FNV-1a, printed as hex: enough to compare two commits by eye.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}

/// Follows `keys` through nested objects.
pub fn at<'a>(v: &'a Value, keys: &[&str]) -> Option<&'a Value> {
    keys.iter().try_fold(v, |v, key| v.get(key))
}

/// A JSON number as `f64` (integers included).
pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::U(n) => Some(*n as f64),
        Value::I(n) => Some(*n as f64),
        Value::F(f) => Some(*f),
        _ => None,
    }
}

/// The number at a dotted path (for keys that hold no dot themselves).
pub fn number_at(v: &Value, dotted: &str) -> Result<f64, String> {
    at(v, &dotted.split('.').collect::<Vec<_>>())
        .and_then(number)
        .ok_or_else(|| format!("no number at `{dotted}`"))
}
