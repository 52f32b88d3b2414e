//! `compare.sh A.json B.json`: applies `BENCHMARK.json`'s bounds to two
//! results files, one row per (workload, end-to-end metric).

use std::fs;
use std::path::Path;

use serde::Value;

use crate::report::{at, number, number_at, quartiles, END_TO_END, PER_LAYER};

fn load(p: &Path) -> Result<Value, String> {
    let text = fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{} does not parse: {e}", p.display()))
}

/// `(name, better, bound)` of every end-to-end metric in the manifest.
fn bounds(manifest: &Value) -> Result<Vec<(String, bool, f64)>, String> {
    let list = manifest
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("the manifest has no `end_to_end` list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("a metric has no name")?;
            let lower = match m.get("better").and_then(Value::as_str) {
                Some("lower") => true,
                Some("higher") => false,
                _ => return Err(format!("`{name}` has no direction")),
            };
            Ok((name.to_string(), lower, number_at(m, "bound")?))
        })
        .collect()
}

/// Interquartile range of a metric's repeats as a share of its median; 0
/// for an exact value, which has no repeats.
fn spread(metric: &Value) -> f64 {
    let samples: Vec<f64> = metric
        .get("samples")
        .and_then(Value::as_arr)
        .map(|a| a.iter().filter_map(number).collect())
        .unwrap_or_default();
    let median = metric.get("value").and_then(number).unwrap_or(0.0);
    match quartiles(&samples) {
        Some((q1, q3)) if median != 0.0 => (q3 - q1) / median.abs(),
        _ => 0.0,
    }
}

/// Checks that the harness's metric tables and the manifest name the same
/// metrics with the same units, in the same order.
pub fn check_manifest(manifest: &Path) -> Result<(), String> {
    let manifest = load(manifest)?;
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<(&str, &str)> = manifest
            .get(key)
            .and_then(Value::as_arr)
            .ok_or(format!("the manifest has no `{key}` list"))?
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Value::as_str).unwrap_or(""),
                    m.get("unit").and_then(Value::as_str).unwrap_or(""),
                )
            })
            .collect();
        if listed != table {
            return Err(format!("`{key}` in the manifest and in the harness differ"));
        }
    }
    let listed: Vec<&str> = manifest
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("the manifest has no `workloads` list")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    let ours: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name).collect();
    if listed != ours {
        return Err("`workloads` in the manifest and in the harness differ".into());
    }
    Ok(())
}

/// Prints the comparison of B against A; `Ok(false)` if any row is worse.
pub fn run(manifest: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let bounds = bounds(&load(manifest)?)?;
    let (a, b) = (load(a)?, load(b)?);
    let workloads = a
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or("A has no workloads")?;
    let mut all_ok = true;
    println!(
        "{:<22} {:<16} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "spread", "bound"
    );
    for (workload, wa) in workloads {
        let Some(wb) = at(&b, &["workloads", workload]) else {
            println!("{workload:<22} missing from B");
            all_ok = false;
            continue;
        };
        for (name, lower, bound) in &bounds {
            let key = ["end_to_end", name];
            let (Some(ma), Some(mb)) = (at(wa, &key), at(wb, &key)) else {
                continue;
            };
            let (va, vb) = (number_at(ma, "value")?, number_at(mb, "value")?);
            // Positive = B is worse, as a share of A.
            let change = if *lower { vb - va } else { va - vb } / va.abs();
            let spread = spread(ma).max(spread(mb));
            let verdict = if spread > *bound {
                "unresolved"
            } else if change > *bound {
                all_ok = false;
                "worse"
            } else {
                "ok"
            };
            println!(
                "{workload:<22} {name:<16} {va:>14.6} {vb:>14.6} {:>+8.2}% {:>7.2}% {:>6.1}%  {verdict}",
                change * 100.0,
                spread * 100.0,
                bound * 100.0
            );
        }
        let same = |keys: &[&str]| at(wa, keys).is_some() && at(wa, keys) == at(wb, keys);
        println!(
            "{workload:<22} stats_digest {}",
            if same(&["stats_digest"]) {
                "identical"
            } else {
                "DIFFERENT"
            }
        );
        // Counts are made by the program and repeat exactly for a seed.
        let moved: Vec<&str> = PER_LAYER
            .iter()
            .filter(|(name, unit)| *unit == "count" && !same(&["per_layer", name, "value"]))
            .map(|(name, _)| *name)
            .collect();
        if !moved.is_empty() {
            println!("{workload:<22} counts that differ: {}", moved.join(", "));
        }
    }
    Ok(all_ok)
}
