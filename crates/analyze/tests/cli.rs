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
        (
            &["check-bench", "--threshold", "0.2"],
            &["`check-bench`", "needs a file"],
        ),
        (
            &["check-bench", "a.json", "--threshold", "x"],
            &["--threshold", "\"x\""],
        ),
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
        (&["check-bench", "a.json", "b.json", "c.json"], "\"c.json\""),
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
}

#[test]
fn a_missing_file_exits_1_naming_it() {
    let missing = std::env::temp_dir().join("netrs-analyze-no-such-file.jsonl");
    let missing = missing.to_str().unwrap();
    refused(&["control", missing], &[missing]);
    refused(&["sweep", missing], &[missing]);
    refused(&["report", "--trace", missing], &[missing]);
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
