//! The repo benchmark harness (see `benchmark/README.md`).
//!
//! One process, one child at a time: generates a workload's input files
//! from the seed, then runs either the end-to-end pass (whole `simulate`
//! children timed from outside) or the traced pass (the same inputs
//! in-process, spans around the calls into each crate), checks the
//! outputs, and prints every metric by name with its unit.

mod compare;
mod e2e;
mod layers;
mod report;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde::Value;

use report::PassResult;
use workloads::{Scale, Seeds, Workload};

/// What every pass needs to know.
pub struct Ctx {
    /// The `simulate` binary under test.
    pub simulate: PathBuf,
    /// How long one pass measures.
    pub seconds: u64,
    pub seeds: Seeds,
    pub scale: Scale,
}

const USAGE: &str = "usage:
  netrs-benchmark --simulate BIN [--out DIR] [--workload NAME] [--trace 0|1]
                  [--seed N] [--seconds N] [--deployment-seed N] [--small]
      With --workload and --trace: one pass over one workload; the last
      line printed is the result as one JSON object. With neither: every
      workload, both passes, results written to DIR/results.json.
  netrs-benchmark compare MANIFEST A.json B.json
  netrs-benchmark check-manifest MANIFEST";

struct Args {
    ctx: Ctx,
    out: PathBuf,
    workload: Option<String>,
    trace: Option<bool>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut simulate = None;
    let mut out = PathBuf::from("benchmark/out");
    let mut workload = None;
    let mut trace = None;
    let (mut seed, mut deployment, mut seconds, mut small) = (1u64, 1u64, 20u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v}"))
        };
        match flag.as_str() {
            "--simulate" => simulate = Some(PathBuf::from(value()?)),
            "--out" => out = PathBuf::from(value()?),
            "--workload" => workload = Some(value()?.clone()),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--seed" => seed = number(value()?)?,
            "--deployment-seed" => deployment = number(value()?)?,
            "--seconds" => seconds = number(value()?)?,
            "--small" => small = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        ctx: Ctx {
            simulate: simulate.ok_or("--simulate is required")?,
            seconds,
            seeds: Seeds {
                input: seed,
                deployment,
            },
            scale: Scale { small },
        },
        out,
        workload,
        trace,
    })
}

fn pass(ctx: &Ctx, w: &Workload, traced: bool, out: &Path) -> Result<PassResult, String> {
    let dir = out.join(w.name);
    let inputs = workloads::generate(&ctx.simulate, w, ctx.seeds, ctx.scale, &dir)?;
    let res = if traced {
        layers::run(ctx, w, &inputs, &dir)?
    } else {
        e2e::run(ctx, w, &inputs, &dir)?
    };
    res.print(w.name, if traced { "traced" } else { "end-to-end" });
    Ok(res)
}

/// Every workload, both passes; writes `results.json` under `out`.
fn run_all(ctx: &Ctx, out: &Path) -> Result<bool, String> {
    let mut correct = true;
    let mut workloads = Vec::new();
    for w in &workloads::ALL {
        let mut entry = Vec::new();
        for traced in [false, true] {
            let res = pass(ctx, w, traced, out)?;
            correct &= res.correct();
            // Both passes digest the same bytes; the traced pass checked so.
            if entry.is_empty() {
                entry.push((
                    "stats_digest".to_string(),
                    Value::Str(res.stats_digest.clone()),
                ));
            }
            let key = if traced { "per_layer" } else { "end_to_end" };
            entry.push((key.to_string(), res.metrics_value(true)));
        }
        workloads.push((w.name.to_string(), Value::Obj(entry)));
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let results = Value::Obj(vec![
        ("seed".into(), Value::U(ctx.seeds.input.into())),
        (
            "deployment_seed".into(),
            Value::U(ctx.seeds.deployment.into()),
        ),
        ("seconds".into(), Value::U(ctx.seconds.into())),
        ("cores".into(), Value::U(cores as u128)),
        ("workloads".into(), Value::Obj(workloads)),
    ]);
    let path = out.join("results.json");
    let text = serde_json::to_string_pretty(&results).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(correct)
}

fn run(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [manifest, a, b] => compare::run(Path::new(manifest), Path::new(a), Path::new(b)),
            _ => Err(USAGE.into()),
        },
        Some("check-manifest") => match &args[1..] {
            [manifest] => compare::check_manifest(Path::new(manifest)).map(|()| true),
            _ => Err(USAGE.into()),
        },
        _ => {
            let args = parse(args).map_err(|e| format!("{e}\n{USAGE}"))?;
            let (name, traced) = match (&args.workload, args.trace) {
                (None, None) => return run_all(&args.ctx, &args.out),
                (Some(name), Some(traced)) => (name, traced),
                _ => return Err(format!("--workload and --trace go together\n{USAGE}")),
            };
            let w = workloads::find(name).ok_or(format!("unknown workload {name}"))?;
            let res = pass(&args.ctx, w, traced, &args.out)?;
            println!("{}", res.driver_line());
            Ok(res.correct())
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("netrs-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
