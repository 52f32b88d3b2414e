//! `repro` refuses a flag its subcommand would ignore instead of running
//! something other than what was asked for.

use std::process::Command;

/// Runs `repro` with `args` and returns its exit code and stderr.
fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn ignored_flags_exit_2_naming_flag_and_subcommand() {
    for (args, flag, command) in [
        (&["perf", "--requests", "10"][..], "--requests", "perf"),
        (&["perf", "--small", "--seeds", "2"][..], "--seeds", "perf"),
        (&["rsp", "--tag", "x"][..], "--tag", "rsp"),
        (&["fig4", "--small"][..], "--small", "fig4"),
        (&["all", "--out", "x.json"][..], "--out", "all"),
    ] {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(
            stderr.contains(flag) && stderr.contains(command),
            "{args:?}: {stderr}"
        );
    }
    // Unknown subcommands and flags still print the usage.
    for args in [&["fig9"][..], &["perf", "--bogus"][..]] {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(stderr.starts_with("usage: repro"), "{args:?}: {stderr}");
    }
}
