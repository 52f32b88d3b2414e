//! The command line means the same experiment whatever the order of its
//! flags: `simulate` builds one config from one base plus overrides
//! (`netrs_sim::cli`), and refuses a command line it would have to guess
//! at.

use netrs_sim::cli::{Cli, CliError, SIMULATE};
use netrs_sim::{CacheAdmission, CacheWritePolicy, Scheme, SimConfig, WriteConsistency};

const SMOKE_PLAN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/faults/smoke.json"
);

/// Builds `simulate`'s config from `args` in-process, over the binary's
/// bases (the paper's and `--small`'s, both at 100 000 requests).
fn build(args: &[&str]) -> Result<SimConfig, CliError> {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let at = |cfg| SimConfig {
        requests: 100_000,
        ..cfg
    };
    Cli::parse(&args, &SIMULATE)?.config(at(SimConfig::paper()), at(SimConfig::small()))
}

/// Every ordering of `groups` (Heap's algorithm), each flattened into one
/// argument list.
fn permutations<'a>(groups: &[&[&'a str]]) -> Vec<Vec<&'a str>> {
    let mut order: Vec<usize> = (0..groups.len()).collect();
    let mut counters = vec![0; order.len()];
    let flatten = |order: &[usize]| order.iter().flat_map(|&g| groups[g].to_vec()).collect();
    let mut out = vec![flatten(&order)];
    let mut i = 0;
    while i < order.len() {
        if counters[i] < i {
            order.swap(if i % 2 == 0 { 0 } else { counters[i] }, i);
            out.push(flatten(&order));
            counters[i] += 1;
            i = 0;
        } else {
            counters[i] = 0;
            i += 1;
        }
    }
    out
}

/// Builds every permutation of `groups` and asserts they all give the
/// first one's config, which it returns.
fn same_config_in_every_order(groups: &[&[&str]]) -> SimConfig {
    let orders = permutations(groups);
    let count: usize = (1..=groups.len()).product();
    assert_eq!(orders.len(), count);
    let first = build(&orders[0]).unwrap_or_else(|e| panic!("{:?}: {}", orders[0], e.message));
    for args in &orders[1..] {
        assert_eq!(build(args).as_ref(), Ok(&first), "{args:?}");
    }
    first
}

#[test]
fn every_order_of_the_flags_builds_the_same_config() {
    for scheme in ["clirs", "clirs-r95", "netrs-tor", "netrs-ilp"] {
        let cfg = same_config_in_every_order(&[
            &["--scheme", scheme],
            &["--requests", "2000"],
            &["--clients", "300"],
            &["--utilization", "0.7"],
            &["--skew", "0.5"],
            &["--seed", "5"],
        ]);
        assert_eq!(cfg.scheme, scheme.parse::<Scheme>().unwrap());
        assert_eq!(
            (cfg.arity, cfg.requests, cfg.clients, cfg.seed),
            (16, 2000, 300, 5)
        );
        assert_eq!((cfg.utilization, cfg.demand_skew), (0.7, Some(0.5)));
    }

    let cfg = same_config_in_every_order(&[
        &["--small"],
        &["--faults", SMOKE_PLAN],
        &["--scheme", "netrs-tor"],
        &["--seed", "7"],
        &["--json"],
    ]);
    assert!(cfg.faults.is_some_and(|plan| !plan.events.is_empty()));

    // The cache flags are the ones whose effects overlap: the capacity
    // builds the cache the policies then configure.
    let cfg = same_config_in_every_order(&[
        &["--write-fraction", "0.2"],
        &["--consistency", "quorum:2"],
        &["--hot-cache", "128"],
        &["--cache-admission", "freq:3"],
        &["--cache-write", "through"],
        &["--scheme", "netrs-ilp"],
        &["--small"],
    ]);
    assert_eq!(cfg.write_fraction, 0.2);
    assert_eq!(cfg.write_consistency, WriteConsistency::Quorum { w: 2 });
    let cache = cfg.hot_cache.expect("a cache");
    assert_eq!(cache.capacity, 128);
    assert_eq!(cache.admission, CacheAdmission::Frequency { threshold: 3 });
    assert_eq!(cache.write_policy, CacheWritePolicy::Through);

    let cfg = same_config_in_every_order(&[
        &["--small"],
        &["--scheme", "netrs-ilp"],
        &["--seed", "5"],
        &["--emit-config"],
    ]);
    assert_eq!((cfg.arity, cfg.scheme, cfg.seed), (4, Scheme::NetRsIlp, 5));
    assert_eq!(cfg.requests, 100_000);

    // A config file with an explicit hop budget keeps it.
    let mut file = SimConfig::small().finalize();
    file.requests = 7_000;
    file.hot_cache = Some(Default::default());
    let path = std::env::temp_dir().join(format!("netrs-cli-{}.json", std::process::id()));
    std::fs::write(&path, serde_json::to_string(&file).unwrap()).unwrap();
    let cfg = same_config_in_every_order(&[
        &["--config", path.to_str().unwrap()],
        &["--scheme", "clirs-r95"],
        &["--utilization", "0.6"],
        &["--hot-cache", "0"],
        &["--seed", "11"],
    ]);
    std::fs::remove_file(&path).unwrap();
    let expected = SimConfig {
        scheme: Scheme::CliRsR95,
        utilization: 0.6,
        hot_cache: None,
        seed: 11,
        ..file
    };
    assert_eq!(cfg, expected);
}

#[test]
fn a_command_line_that_contradicts_itself_exits_2_naming_the_flags() {
    for (args, flags) in [
        (
            &["--small", "--config", "cfg.json"][..],
            &["--small", "--config"][..],
        ),
        (
            &["--config", "cfg.json", "--small"][..],
            &["--small", "--config"][..],
        ),
        (&["--seed", "1", "--seed", "2"][..], &["--seed"][..]),
        (&["--small", "--small"][..], &["--small"][..]),
        (
            &["--hot-cache", "0", "--cache-write", "through"][..],
            &["--hot-cache 0", "--cache-write"][..],
        ),
        (
            &["--cache-admission", "lru", "--hot-cache", "0"][..],
            &["--hot-cache 0", "--cache-admission"][..],
        ),
        (&["--out", "x.json"][..], &["--out", "`simulate`"][..]),
        (&["--seed"][..], &["--seed"][..]),
        (&["--requests", "many"][..], &["--requests", "\"many\""][..]),
        (
            &["--consistency", "most"][..],
            &["--consistency", "\"most\""][..],
        ),
        (&["--bogus"][..], &["usage: simulate", "--bogus"][..]),
    ] {
        let err = build(args).expect_err(&format!("{args:?}"));
        assert_eq!(err.code, 2, "{args:?}: {}", err.message);
        for flag in flags {
            assert!(err.message.contains(flag), "{args:?}: {}", err.message);
        }
    }
    // A cache flag with a non-zero capacity is no contradiction.
    assert!(build(&["--hot-cache", "64", "--cache-write", "through"]).is_ok());
}

#[test]
fn emit_config_prints_the_same_bytes_wherever_it_stands() {
    let emit = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_simulate"))
            .args(args)
            .output()
            .expect("simulate runs");
        assert!(out.status.success(), "{args:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let last = emit(&[
        "--scheme",
        "netrs-ilp",
        "--seed",
        "5",
        "--small",
        "--emit-config",
    ]);
    let first = emit(&[
        "--emit-config",
        "--small",
        "--seed",
        "5",
        "--scheme",
        "netrs-ilp",
    ]);
    assert_eq!(first, last);
    let printed: SimConfig = serde_json::from_str(&last).unwrap();
    assert_eq!(
        (printed.arity, printed.scheme, printed.seed),
        (4, Scheme::NetRsIlp, 5)
    );
}

/// `simulate ARGS`'s stdout; the run must succeed.
fn simulate_stdout(args: &[&str]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .output()
        .expect("simulate runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: {stderr}");
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn a_config_file_re_derives_the_hop_budget_at_its_own_utilization() {
    // `--emit-config` prints the budget unset, so a file patched to
    // another utilization plans NetRS-ILP with E = 20 % of its own
    // arrival rate, not of the emitting run's.
    let emitted = simulate_stdout(&["--emit-config"]);
    assert!(emitted.contains("\"extra_hop_budget\": null"), "{emitted}");
    let path = std::env::temp_dir().join(format!("netrs-cli-emitted-{}.json", std::process::id()));
    std::fs::write(&path, &emitted).unwrap();
    let path = path.to_str().unwrap();
    let direct = simulate_stdout(&["--utilization", "0.5", "--emit-config"]);
    let via_file = simulate_stdout(&["--config", path, "--utilization", "0.5", "--emit-config"]);
    assert_eq!(via_file, direct);
    let cfg = build(&["--config", path, "--utilization", "0.5"]).unwrap();
    std::fs::remove_file(path).unwrap();
    // A = 0.5 × 100 servers × 4 slots / 4 ms = 50 000 requests/s.
    assert_eq!(cfg.finalize().plan.extra_hop_budget, Some(10_000.0));
}

#[test]
fn an_unfinalized_config_round_trips_through_a_config_file() {
    // The unset budget is written as `null` and must read back unset,
    // not as NaN (which `validate` refuses).
    for base in [SimConfig::small(), SimConfig::paper()] {
        assert_eq!(base.plan.extra_hop_budget, None);
        let path =
            std::env::temp_dir().join(format!("netrs-cli-unset-{}.json", std::process::id()));
        std::fs::write(&path, serde_json::to_string(&base).unwrap()).unwrap();
        let cfg = build(&["--config", path.to_str().unwrap()]);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(cfg, Ok(base));
    }
}
