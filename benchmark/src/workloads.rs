//! The four workloads and their seeded input files.
//!
//! Every input the program under test sees is a file written here: a
//! `SimConfig` JSON made by patching `simulate --emit-config` output (so a
//! new config field with a default does not break the benchmark) and, on
//! the fault workload, a fault plan of its own.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

/// One benchmark workload: what to patch into the emitted config and
/// which engine flags to pass.
pub struct Workload {
    pub name: &'static str,
    /// `SimConfig::scheme` as it serializes.
    scheme: &'static str,
    /// Requests at paper scale, before the seed's jitter.
    requests: u64,
    utilization: f64,
    /// Engine selection: the only non-file input `simulate` receives.
    pub engine_flags: &'static [&'static str],
    /// Writes, hot-key cache and a fault plan ride along.
    pub rw_faults: bool,
}

pub const READ_CLIRS: &str = "read-clirs";
pub const READ_CLIRS_WINDOWED: &str = "read-clirs-windowed";
pub const READ_NETRS_ILP: &str = "read-netrs-ilp";
pub const RW_FAULTS_NETRS_TOR: &str = "rw-faults-netrs-tor";

pub const ALL: [Workload; 4] = [
    Workload {
        name: READ_CLIRS,
        scheme: "CliRs",
        requests: 1_000_000,
        utilization: 0.9,
        engine_flags: &[],
        rw_faults: false,
    },
    Workload {
        name: READ_CLIRS_WINDOWED,
        scheme: "CliRs",
        requests: 1_000_000,
        utilization: 0.9,
        engine_flags: &["--shards", "2", "--threads", "1"],
        rw_faults: false,
    },
    Workload {
        name: READ_NETRS_ILP,
        scheme: "NetRsIlp",
        requests: 1_000_000,
        utilization: 0.9,
        engine_flags: &[],
        rw_faults: false,
    },
    Workload {
        name: RW_FAULTS_NETRS_TOR,
        scheme: "NetRsToR",
        requests: 400_000,
        utilization: 0.7,
        engine_flags: &[],
        rw_faults: true,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// Paper scale, or the `SimConfig::small()` scale `smoke.sh` runs to
/// check schema and checks in seconds (its numbers mean nothing).
#[derive(Clone, Copy)]
pub struct Scale {
    pub small: bool,
}

impl Scale {
    /// Scales a request or iteration count.
    pub fn count(self, paper: u64) -> u64 {
        if self.small {
            (paper / 250).max(1)
        } else {
            paper
        }
    }

    /// Scales a fault time so the plan still fires inside the shorter run.
    fn fault_ns(self, paper: u64) -> u64 {
        if self.small {
            paper / 10
        } else {
            paper
        }
    }
}

/// What `--seed` and `--deployment-seed` select.
#[derive(Clone, Copy)]
pub struct Seeds {
    /// The driver's `--seed`: jitters the request count by up to 0.1 % and
    /// picks the crashed server. It deliberately does not reach
    /// `SimConfig::seed` — see `deployment`.
    pub input: u64,
    /// `SimConfig::seed`. The simulator forks placement, ring, workload
    /// and service times from this one root, and across deployments the
    /// NetRS-ILP solve alone ranges 4–48 s on this box and CliRS p99
    /// 34–56 ms, which would bury any per-commit difference. Pinned at 1
    /// unless a held-out deployment is asked for.
    pub deployment: u64,
}

/// The generated input files of one workload.
pub struct Inputs {
    pub config: PathBuf,
    /// The same config with a token request count: a run of it is the
    /// program's set-up (process start, config, topology, ring, plan
    /// build and solve, prime).
    pub setup_config: PathBuf,
    pub faults: Option<PathBuf>,
    pub requests: u64,
    pub setup_requests: u64,
}

impl Inputs {
    /// The full `simulate` argument list for this workload.
    pub fn child_args(&self, w: &Workload, setup: bool) -> Vec<String> {
        let config = if setup {
            &self.setup_config
        } else {
            &self.config
        };
        let mut args = vec!["--config".to_string(), config.display().to_string()];
        if let Some(f) = &self.faults {
            args.push("--faults".into());
            args.push(f.display().to_string());
        }
        args.extend(w.engine_flags.iter().map(|s| s.to_string()));
        args.push("--json".into());
        args
    }
}

/// SplitMix64: spreads the driver's small consecutive seeds.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Replaces an existing key; a missing key means the config schema moved
/// and the patch would silently be ignored by the parser.
fn set(obj: &mut Value, key: &str, value: Value) -> Result<(), String> {
    let Value::Obj(entries) = obj else {
        return Err("emitted config is not an object".into());
    };
    match entries.iter_mut().find(|(k, _)| k == key) {
        Some((_, slot)) => {
            *slot = value;
            Ok(())
        }
        None => Err(format!("emitted config has no field `{key}`")),
    }
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn write_json(path: &Path, v: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(v).map_err(|e| e.to_string())?;
    fs::write(path, text + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Writes the workload's input files under `dir` and returns their paths.
pub fn generate(
    simulate: &Path,
    w: &Workload,
    seeds: Seeds,
    scale: Scale,
    dir: &Path,
) -> Result<Inputs, String> {
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut emit = Command::new(simulate);
    if scale.small {
        emit.arg("--small");
    }
    let out = emit
        .arg("--emit-config")
        .output()
        .map_err(|e| format!("cannot run {}: {e}", simulate.display()))?;
    if !out.status.success() {
        return Err(format!("simulate --emit-config exited {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| e.to_string())?;
    let mut cfg: Value =
        serde_json::from_str(&text).map_err(|e| format!("emitted config does not parse: {e}"))?;

    let h = mix(seeds.input);
    let base = scale.count(w.requests);
    let requests = base - h % (base / 1000 + 1);
    set(&mut cfg, "scheme", Value::Str(w.scheme.into()))?;
    set(&mut cfg, "utilization", Value::F(w.utilization))?;
    set(&mut cfg, "seed", Value::U(seeds.deployment.into()))?;
    let mut faults = None;
    if w.rw_faults {
        set(&mut cfg, "write_fraction", Value::F(0.1))?;
        set(
            &mut cfg,
            "write_consistency",
            obj(vec![("Quorum", obj(vec![("w", Value::U(2))]))]),
        )?;
        set(
            &mut cfg,
            "hot_cache",
            obj(vec![
                ("capacity", Value::U(1024)),
                ("admission", Value::Str("Lru".into())),
                ("write_policy", Value::Str("Invalidate".into())),
            ]),
        )?;
        let servers = match cfg.get("servers") {
            Some(Value::U(n)) if *n > 0 => *n as u64,
            _ => return Err("emitted config has no positive `servers`".into()),
        };
        let victim = Value::U(((h >> 32) % servers).into());
        let at = |ns: u64, fault: Value| {
            obj(vec![
                ("at", Value::U(scale.fault_ns(ns).into())),
                ("fault", fault),
            ])
        };
        // Retry and recovery policies are left to the plan's defaults.
        let plan = obj(vec![(
            "events",
            Value::Arr(vec![
                at(
                    1_000_000_000,
                    obj(vec![("ServerCrash", obj(vec![("server", victim.clone())]))]),
                ),
                at(
                    2_000_000_000,
                    obj(vec![("ServerRecover", obj(vec![("server", victim)]))]),
                ),
                at(
                    3_000_000_000,
                    obj(vec![(
                        "PacketLossBurst",
                        obj(vec![
                            ("probability", Value::F(0.02)),
                            ("duration", Value::U(scale.fault_ns(500_000_000).into())),
                        ]),
                    )]),
                ),
            ]),
        )]);
        let path = dir.join("faults.json");
        write_json(&path, &plan)?;
        faults = Some(path);
    }

    let setup_requests = scale.count(1_000).max(100);
    let config = dir.join("config.json");
    set(&mut cfg, "requests", Value::U(requests.into()))?;
    write_json(&config, &cfg)?;
    let setup_config = dir.join("config-setup.json");
    set(&mut cfg, "requests", Value::U(setup_requests.into()))?;
    write_json(&setup_config, &cfg)?;
    Ok(Inputs {
        config,
        setup_config,
        faults,
        requests,
        setup_requests,
    })
}
