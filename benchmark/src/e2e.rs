//! The end-to-end pass: whole `simulate --config FILE --json` child
//! processes, timed from outside, one at a time.

use std::fs::{self, File};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use serde::Value;

use crate::report::{self, digest, number_at, PassResult, Values, END_TO_END};
use crate::workloads::{self, Inputs, Workload};
use crate::Ctx;

/// One finished child.
pub struct Child {
    /// Spawn to exit.
    pub wall_s: f64,
    /// Highest `VmHWM` seen while it ran.
    pub peak_rss_mb: f64,
    /// What it printed, without the trailing newline.
    pub stdout: String,
    pub exit_ok: bool,
}

fn vm_hwm_kb(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Runs `simulate` with `args`, stdout to `stdout_path`, and waits for it.
/// A second thread polls the child's high-water RSS every 20 ms; the
/// calling thread blocks in `wait`, so the wall time is not quantized.
pub fn run_child(simulate: &Path, args: &[String], stdout_path: &Path) -> Result<Child, String> {
    let out = File::create(stdout_path)
        .map_err(|e| format!("cannot create {}: {e}", stdout_path.display()))?;
    let start = Instant::now();
    let mut child = Command::new(simulate)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot run {}: {e}", simulate.display()))?;
    let pid = child.id();
    let (done, poll) = mpsc::channel::<()>();
    let (status, wall_s, peak_kb) = thread::scope(|s| {
        let poller = s.spawn(move || {
            let mut peak: f64 = 0.0;
            loop {
                if let Some(kb) = vm_hwm_kb(pid) {
                    peak = peak.max(kb);
                }
                if poll.recv_timeout(Duration::from_millis(20))
                    != Err(mpsc::RecvTimeoutError::Timeout)
                {
                    return peak;
                }
            }
        });
        let status = child.wait();
        let wall_s = start.elapsed().as_secs_f64();
        drop(done);
        (
            status,
            wall_s,
            poller.join().expect("the RSS poller does not panic"),
        )
    });
    let status = status.map_err(|e| format!("cannot wait for simulate: {e}"))?;
    let stdout = fs::read_to_string(stdout_path)
        .map_err(|e| format!("cannot read {}: {e}", stdout_path.display()))?;
    Ok(Child {
        wall_s,
        peak_rss_mb: peak_kb / 1024.0,
        stdout: stdout.trim_end().to_string(),
        exit_ok: status.success(),
    })
}

/// Checks one child's stats against what its config asked for. Returns
/// the parsed stats, or what was wrong.
pub fn check_stats(w: &Workload, child: &Child, requests: u64) -> Result<Value, String> {
    if !child.exit_ok {
        return Err("simulate exited non-zero".into());
    }
    let stats: Value =
        serde_json::from_str(&child.stdout).map_err(|e| format!("stats do not parse: {e}"))?;
    let issued = number_at(&stats, "issued")?;
    let completed = number_at(&stats, "completed")?;
    if issued != requests as f64 {
        return Err(format!("issued {issued} of {requests} requests"));
    }
    if !w.rw_faults && completed != issued {
        return Err(format!(
            "completed {completed} of {issued} on a fault-free workload"
        ));
    }
    if w.rw_faults && number_at(&stats, "availability.faults_injected")? != 3.0 {
        return Err("the fault plan's three events did not all fire".into());
    }
    match w.name {
        workloads::READ_CLIRS_WINDOWED => {
            if number_at(&stats, "parallel.shards")? != 2.0 {
                return Err("parallel.shards is not 2".into());
            }
            if number_at(&stats, "parallel.mailbox_late")? != 0.0 {
                return Err("mailbox_late is not 0: the window clamped an event".into());
            }
        }
        workloads::READ_NETRS_ILP => {
            if number_at(&stats, "rsnode_count")? <= 0.0 {
                return Err("NetRS-ILP placed no RSNode".into());
            }
            if number_at(&stats, "drs_groups")? != 0.0 {
                return Err("NetRS-ILP degraded a traffic group".into());
            }
        }
        _ => {}
    }
    Ok(stats)
}

/// Alternates full and set-up runs of the workload for about `ctx.seconds`
/// seconds (three rounds at least) and reports the medians.
pub fn run(ctx: &Ctx, w: &Workload, inputs: &Inputs, dir: &Path) -> Result<PassResult, String> {
    let mut res = PassResult::default();
    let (mut walls, mut setups, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference: Option<(String, Value)> = None;
    let min_rounds = if ctx.scale.small { 1 } else { 3 };
    let budget = Duration::from_secs(ctx.seconds);
    let started = Instant::now();
    let mut rounds = 0u32;
    loop {
        let full = run_child(
            &ctx.simulate,
            &inputs.child_args(w, false),
            &dir.join("stats.json"),
        )?;
        res.attempted += 1;
        match check_stats(w, &full, inputs.requests) {
            Ok(stats) => {
                walls.push(full.wall_s);
                rss.push(full.peak_rss_mb);
                match &reference {
                    None => reference = Some((full.stdout, stats)),
                    Some((first, _)) if *first != full.stdout => {
                        res.failures
                            .push(format!("{}: stats differ between repeats", w.name));
                    }
                    Some(_) => {}
                }
            }
            Err(e) => {
                res.failures.push(format!("{}: {e}", w.name));
            }
        }
        let setup = run_child(
            &ctx.simulate,
            &inputs.child_args(w, true),
            &dir.join("stats-setup.json"),
        )?;
        res.attempted += 1;
        if setup.exit_ok && number_at_stdout(&setup, "issued") == Some(inputs.setup_requests as f64)
        {
            setups.push(setup.wall_s);
        } else {
            res.failures
                .push(format!("{}: the set-up run failed", w.name));
        }
        rounds += 1;
        let elapsed = started.elapsed();
        // A failed check will fail again: stop and report it.
        if !res.failures.is_empty() || (rounds >= min_rounds && elapsed + elapsed / rounds > budget)
        {
            break;
        }
    }

    let Some((stdout, stats)) = reference else {
        return Ok(res);
    };
    if setups.is_empty() {
        return Ok(res);
    }
    res.stats_digest = digest(stdout.as_bytes());
    let mean_ms = number_at(&stats, "latency.mean")? / 1e6;
    let p99_ms = number_at(&stats, "latency.p99")? / 1e6;
    let completed_share = number_at(&stats, "completed")? / number_at(&stats, "issued")?;
    if w.name == workloads::READ_NETRS_ILP {
        paper_shape(ctx, inputs, dir, mean_ms, p99_ms, &mut res)?;
    }

    let mut values = Values::default();
    values.put_median("wall_s", walls);
    values.put_median("setup_s", setups);
    values.put_median("peak_rss_mb", rss);
    values.put("sim_mean_ms", mean_ms);
    values.put("sim_p99_ms", p99_ms);
    values.put("completed_share", completed_share);
    res.metrics = report::tabulate(&END_TO_END, &values);
    Ok(res)
}

fn number_at_stdout(child: &Child, dotted: &str) -> Option<f64> {
    let stats: Value = serde_json::from_str(&child.stdout).ok()?;
    number_at(&stats, dotted).ok()
}

/// The paper's headline beside ours: `read-netrs-ilp` shares config, seed
/// and request count with `read-clirs`, so one untimed CliRS run of the
/// same inputs gives the reductions directly.
fn paper_shape(
    ctx: &Ctx,
    ilp: &Inputs,
    dir: &Path,
    ilp_mean_ms: f64,
    ilp_p99_ms: f64,
    res: &mut PassResult,
) -> Result<(), String> {
    let clirs = workloads::find(workloads::READ_CLIRS).expect("read-clirs is a workload");
    let inputs = workloads::generate(
        &ctx.simulate,
        clirs,
        ctx.seeds,
        ctx.scale,
        &dir.join("clirs"),
    )?;
    assert_eq!(
        inputs.requests, ilp.requests,
        "the two workloads share their inputs"
    );
    let child = run_child(
        &ctx.simulate,
        &inputs.child_args(clirs, false),
        &dir.join("clirs").join("stats.json"),
    )?;
    res.attempted += 1;
    let stats = match check_stats(clirs, &child, inputs.requests) {
        Ok(stats) => stats,
        Err(e) => {
            res.failures
                .push(format!("paper shape: CliRS baseline: {e}"));
            return Ok(());
        }
    };
    let mean = number_at(&stats, "latency.mean")? / 1e6;
    let p99 = number_at(&stats, "latency.p99")? / 1e6;
    println!(
        "paper shape: NetRS-ILP vs CliRS mean {:.3} vs {:.3} ms_simulated = {:.1} % lower (paper 48.4 %), \
         p99 {:.3} vs {:.3} ms_simulated = {:.1} % lower (paper 68.7 %)",
        ilp_mean_ms,
        mean,
        (1.0 - ilp_mean_ms / mean) * 100.0,
        ilp_p99_ms,
        p99,
        (1.0 - ilp_p99_ms / p99) * 100.0,
    );
    // At SimConfig::small() scale the ordering is not the paper's claim.
    if !ctx.scale.small && (ilp_mean_ms >= mean || ilp_p99_ms >= p99) {
        res.failures
            .push("paper shape: NetRS-ILP is not lower than CliRS on both mean and p99".into());
    }
    Ok(())
}
