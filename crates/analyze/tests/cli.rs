//! `netrs-analyze` refuses what it cannot report on: a misused flag exits
//! 2 naming it, and a file that cannot be read, parsed or trusted exits 1
//! naming the file (and the line and field) — never a panic, never a
//! wrapped number on stdout.

use std::path::PathBuf;
use std::process::Command;

/// Runs `netrs-analyze` with `args`: exit code, stdout, stderr.
fn analyze(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_netrs-analyze"))
        .args(args)
        .output()
        .expect("netrs-analyze runs");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("utf-8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

/// Writes `text` to a file of this test's own, and returns its path.
fn artifact(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("netrs-analyze-{}-{name}", std::process::id()));
    std::fs::write(&path, text).expect("temp file is writable");
    path
}

/// Asserts `args` exit 1 with one stderr line naming every needle, and
/// print nothing.
fn refused(args: &[&str], needles: &[&str]) {
    let (code, stdout, stderr) = analyze(args);
    assert_eq!(code, Some(1), "{args:?}: {stderr}");
    assert_eq!(stdout, "", "{args:?}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    for needle in needles {
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}

#[test]
fn misuse_exits_2_naming_the_flag() {
    for (args, named) in [
        (
            &[
                "report",
                "--trace",
                "t.jsonl",
                "--devices",
                "a",
                "--devices",
                "b",
            ][..],
            &["--devices", "twice"][..],
        ),
        (
            &["report", "--trace", "t.jsonl", "--stats", "s"],
            &["--stats", "`report`"],
        ),
        (
            &["report", "--trace", "t.jsonl", "--top", "many"],
            &["--top", "\"many\""],
        ),
        (&["report", "--trace"], &["--trace", "needs a value"]),
        (
            &["report", "--devices", "d.jsonl"],
            &["`report`", "needs --trace"],
        ),
        (&["rw", "--devices", "d.jsonl"], &["`rw`", "needs --stats"]),
        (&["availability"], &["`availability`", "needs --stats"]),
        (&["sweep"], &["`sweep`", "needs a file"]),
        (&["control"], &["`control`", "needs a file"]),
        (&["perf"], &["`perf`", "needs a file"]),
    ] {
        let (code, stdout, stderr) = analyze(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert_eq!(stdout, "", "{args:?}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        for name in named {
            assert!(stderr.contains(name), "{args:?}: {stderr}");
        }
    }
    // Unknown flags and subcommands, and one file too many, print the
    // usage and name the argument.
    for (args, named) in [
        (
            &["report", "--trace", "t.jsonl", "--bogus"][..],
            "\"--bogus\"",
        ),
        (&["sweep", "a.json", "b.json"], "\"b.json\""),
        (&["perf", "a.json", "--threshold", "0.2"], "\"--threshold\""),
        (&["frobnicate"], "usage"),
        (&[], "usage"),
    ] {
        let (code, _, stderr) = analyze(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("usage: netrs-analyze report"),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains(named), "{args:?}: {stderr}");
    }
    // `check-bench` is no subcommand: in either of its old forms it exits
    // 2 with the usage, which does not offer it.
    for args in [
        &["check-bench", "a.json"][..],
        &["check-bench", "a.json", "b.json", "--threshold", "0.2"],
    ] {
        let (code, stdout, stderr) = analyze(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert_eq!(stdout, "", "{args:?}");
        assert!(
            stderr.starts_with("usage: netrs-analyze report"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("check-bench"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_missing_file_exits_1_naming_it() {
    let missing = std::env::temp_dir().join("netrs-analyze-no-such-file.jsonl");
    let missing = missing.to_str().unwrap();
    refused(&["control", missing], &[missing]);
    refused(&["sweep", missing], &[missing]);
    refused(&["report", "--trace", missing], &[missing]);
}

/// The schema golden of a `simulate --perf` profile.
const PROFILE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/golden/host-profile.perf.json"
);

#[test]
fn a_perf_profile_whose_kind_counts_miss_events_exits_1_naming_file_and_field() {
    let profile = std::fs::read_to_string(PROFILE).expect("the golden profile is readable");
    assert!(profile.contains("\"events\": 18000,"));
    let path = artifact(
        "perf.json",
        &profile.replace("\"events\": 18000,", "\"events\": 18001,"),
    );
    let path = path.to_str().unwrap();
    refused(&["perf", path], &[path, "events"]);
    std::fs::remove_file(path).unwrap();
    // The profile as the simulator wrote it renders.
    let (code, stdout, stderr) = analyze(&["perf", PROFILE]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("by layer"), "{stdout}");
}

#[test]
fn a_perf_history_exits_1_naming_the_file() {
    // The retired multi-run history: `schema_version` plus `runs`.
    let profile = std::fs::read_to_string(PROFILE).expect("the golden profile is readable");
    let history = format!("{{\"schema_version\": 1, \"runs\": [{profile}]}}");
    let path = artifact("history.json", &history);
    let path = path.to_str().unwrap();
    refused(&["perf", path], &[path]);
    refused(&["perf", PROFILE, path], &[path]);
    std::fs::remove_file(path).unwrap();
    // A schema v1 profile, which carried the scheme twice (`label` too).
    let (v2, v1) = (
        "  \"schema_version\": 2,",
        "  \"label\": \"smoke/NetRS-ILP\",\n  \"schema_version\": 1,",
    );
    assert!(profile.contains(v2));
    let path = artifact("perf-v1.json", &profile.replace(v2, v1));
    let path = path.to_str().unwrap();
    refused(&["perf", path], &[path, "schema v1"]);
    std::fs::remove_file(path).unwrap();
}

#[test]
fn a_drs_span_detected_before_it_failed_exits_1_naming_file_and_field() {
    let path = artifact(
        "control.jsonl",
        "{\"kind\":\"drs_span\",\"switch\":16,\"fail_ns\":1200000000,\
         \"detect_ns\":1190000000,\"groups\":[]}\n",
    );
    let path = path.to_str().unwrap();
    refused(
        &["control", path],
        &[&format!("{path}:1:"), "detect_ns", "fail_ns"],
    );
    std::fs::remove_file(path).unwrap();
}

#[test]
fn a_timeseries_going_back_in_time_exits_1_naming_file_and_field() {
    let sample = |t_ns: u64| {
        format!(
            "{{\"t_ns\":{t_ns},\"accel_util\":0.5,\"server_occupancy\":0.25,\
             \"outstanding\":12,\"drs_groups\":0}}\n"
        )
    };
    let trace = artifact("ts-trace.jsonl", "");
    let series = artifact("ts.jsonl", &(sample(20_000_000) + &sample(10_000_000)));
    let (trace, series) = (trace.to_str().unwrap(), series.to_str().unwrap());
    refused(
        &["report", "--trace", trace, "--timeseries", series],
        &[&format!("{series}:2:"), "t_ns"],
    );
    std::fs::remove_file(trace).unwrap();
    std::fs::remove_file(series).unwrap();
}

#[test]
fn stats_with_more_writes_than_requests_exit_1_naming_file_and_field() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/golden/netrs-tor-rw-cache.stats.json"
    );
    let stats = std::fs::read_to_string(golden).expect("the golden stats file is readable");
    assert!(stats.contains("\"issued\": 5000,"));
    let stats = stats.replace("\"writes_issued\": 488,", "\"writes_issued\": 5005,");
    let path = artifact("stats.json", &stats);
    let path = path.to_str().unwrap();
    for subcommand in ["rw", "availability"] {
        refused(&[subcommand, "--stats", path], &[path, "writes_issued"]);
    }
    std::fs::remove_file(path).unwrap();
    // The file as the simulator wrote it renders.
    let (code, stdout, stderr) = analyze(&["rw", "--stats", golden]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("## Read/write mix"), "{stdout}");
}

#[test]
fn device_counters_past_u64_max_exit_1_naming_file_and_field() {
    let link = |dev: &str, packets: &str, tail: &str| {
        format!(
            "{{\"dev\":\"link:{dev}\",\"kind\":\"link\",\"tier\":2,\"packets\":{packets},\
             \"bytes\":[16,0,0],\"ops\":0,\"selections\":0,\"mean_selection_wait_ns\":0,\
             \"clone_updates\":0,\"busy_ns\":30000,\"utilization\":0.5,\
             \"mean_queue_depth\":0,\"max_queue_depth\":0,\"drops\":0,\"clamps\":0{tail}}}\n"
        )
    };
    let trace = artifact("dev-trace.jsonl", "");
    let trace = trace.to_str().unwrap();
    let stats = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/golden/netrs-tor-rw-cache.stats.json"
    );
    let max = u64::MAX;
    for (name, line, field) in [
        (
            "tiers",
            link("h0>s0", &format!("[{max},1,0]"), ""),
            "packets",
        ),
        (
            "cache",
            link(
                "h0>s0",
                "[1,0,0]",
                &format!(
                    ",\"cache_hits\":{max},\"cache_misses\":1,\"cache_stale_hits\":0,\
                     \"cache_evictions\":0,\"cache_invalidations\":0"
                ),
            ),
            "cache_hits",
        ),
    ] {
        let devices = artifact(
            &format!("dev-{name}.jsonl"),
            &(link("h1>s0", "[2,0,0]", "") + &line),
        );
        let devices = devices.to_str().unwrap();
        refused(
            &["report", "--trace", trace, "--devices", devices],
            &[&format!("{devices}:2:"), field],
        );
        refused(
            &["rw", "--stats", stats, "--devices", devices],
            &[&format!("{devices}:2:"), field],
        );
        std::fs::remove_file(devices).unwrap();
    }
    // Each record fits; the per-tier totals across them are u128.
    let devices = artifact(
        "dev-tiers-sum.jsonl",
        &(link("h0>s0", &format!("[{max},0,0]"), "") + &link("h1>s0", &format!("[{max},0,0]"), "")),
    );
    let devices = devices.to_str().unwrap();
    let (code, stdout, stderr) = analyze(&["report", "--trace", trace, "--devices", devices]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("36893488147419103230"), "{stdout}");
    std::fs::remove_file(devices).unwrap();
    std::fs::remove_file(trace).unwrap();
}

#[test]
fn a_drs_span_displacing_past_u64_max_exits_1_naming_file_and_field() {
    let span = |groups: &str| {
        format!(
            "{{\"kind\":\"drs_span\",\"switch\":16,\"fail_ns\":1200000000,\
             \"detect_ns\":1300000000,\"groups\":{groups}}}\n"
        )
    };
    let max = u64::MAX;
    let path = artifact(
        "control-displaced.jsonl",
        &span(&format!(
            "[{{\"group\":0,\"displaced_ns\":{max}}},{{\"group\":1,\"displaced_ns\":1}}]"
        )),
    );
    let path = path.to_str().unwrap();
    refused(&["control", path], &[&format!("{path}:1:"), "displaced_ns"]);
    std::fs::remove_file(path).unwrap();
    // Two spans that fit alone but not together: the comparison table
    // says so instead of wrapping.
    let one = span(&format!("[{{\"group\":0,\"displaced_ns\":{max}}}]"));
    let path = artifact("control-displaced-sum.jsonl", &(one.clone() + &one));
    let path = path.to_str().unwrap();
    let (code, stdout, stderr) = analyze(&["control", &format!("a={path}"), &format!("b={path}")]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("overflow"), "{stdout}");
    std::fs::remove_file(path).unwrap();
}
