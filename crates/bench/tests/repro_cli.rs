//! `repro` refuses a flag its subcommand would ignore instead of running
//! something other than what was asked for, and an artifact it cannot
//! write instead of running without one.

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
    // Each row: the command line, then what its one stderr line must name
    // (the flag and the subcommand it does not apply to, or both flags of
    // a conflict).
    for (args, named) in [
        (
            &["fig4", "--requests", "10", "--paper-scale"][..],
            ["--requests", "--paper-scale"],
        ),
        (
            &["fig4", "--seeds", "1", "--seeds", "2"][..],
            ["--seeds", "twice"],
        ),
    ] {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(
            named.iter().all(|n| stderr.contains(n)),
            "{args:?}: {stderr}"
        );
    }
    // Unknown subcommands and flags still print the usage: `perf`, `rsp`
    // and their flags are gone.
    for args in [
        &["fig9"][..],
        &["perf"][..],
        &["rsp"][..],
        &["rsp", "--seeds", "2"][..],
        &["fig4", "--small"][..],
        &["all", "--out", "x.json"][..],
        &["fig4", "--tag", "x"][..],
    ] {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(stderr.starts_with("usage: repro"), "{args:?}: {stderr}");
        assert!(!stderr.contains("perf"), "{args:?}: {stderr}");
        assert!(!stderr.contains("rsp"), "{args:?}: {stderr}");
    }
}

#[test]
fn an_unwritable_artifact_exits_1_before_the_grid_runs() {
    // `target` is a regular file, so `target/repro/fig4.json` cannot be
    // created; the full fig4 grid would run for minutes.
    let dir = std::env::temp_dir().join(format!("netrs-repro-ro-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("target"), "not a directory").unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("fig4")
        .current_dir(&dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("repro runs");
    let budget = std::time::Duration::from_secs(20);
    let started = std::time::Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on repro") {
            break status;
        }
        if started.elapsed() > budget {
            child.kill().expect("kill repro");
            child.wait().expect("reap repro");
            std::fs::remove_dir_all(&dir).unwrap();
            panic!("repro still running after {budget:?}");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    std::fs::remove_dir_all(&dir).unwrap();
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
    assert_eq!(status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("cannot create target/repro/fig4.json"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
