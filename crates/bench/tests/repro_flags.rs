//! The `repro` command line, driven as a user drives it: one process per
//! invocation.
//!
//! Every flag a subcommand does not take is a usage error (exit status 2),
//! never silently ignored, and the error names the flag. The accepted flags
//! below are written out independently of the binary's own flag table, so a
//! drift in either shows up here.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Every flag `repro` knows (apart from `--help`), with a valid value for
/// the ones that take one, so only the subcommand can make it an error.
fn flags(scratch: &Path) -> Vec<(&'static str, Option<String>)> {
    let path = |name: &str| Some(scratch.join(name).display().to_string());
    vec![
        ("--quick", None),
        ("--full", None),
        ("--no-progress", None),
        ("--verbose", None),
        ("--threads", Some("1".to_owned())),
        ("--seed", Some("7".to_owned())),
        ("--out", path("out")),
        ("--baseline", path("baseline.json")),
        ("--max-regress", Some("30".to_owned())),
        ("--addr", Some("127.0.0.1:0".to_owned())),
        ("--cache-dir", path("cache")),
        ("--workers", Some("1".to_owned())),
    ]
}

/// Each subcommand, positionals that make it otherwise valid, and the flags
/// it accepts.
const SUBCOMMANDS: [(&str, &[&str], &[&str]); 7] = [
    ("list", &[], &["--quick", "--full"]),
    (
        "run",
        &["table1"],
        &[
            "--quick",
            "--full",
            "--no-progress",
            "--verbose",
            "--threads",
            "--seed",
            "--out",
        ],
    ),
    ("check", &[], &["--verbose"]),
    ("trace", &["fig5-7"], &["--quick", "--full", "--out"]),
    ("lint", &[], &[]),
    (
        "bench-sim",
        &[],
        &["--quick", "--full", "--out", "--baseline", "--max-regress"],
    ),
    (
        "serve",
        &[],
        &["--threads", "--seed", "--addr", "--cache-dir", "--workers"],
    ),
];

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `repro` with `args` and returns its exit code and stderr. A run
/// that outlives the deadline (an invocation that was wrongly accepted and
/// started working, or serving) is killed and fails the test.
fn repro(args: &[String]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start repro");
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll repro") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("repro {args:?} was still running after 60 s");
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().expect("piped"), &mut stderr)
        .expect("read stderr");
    (status.code(), stderr)
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|a| (*a).to_owned()).collect()
}

#[test]
fn every_flag_a_subcommand_does_not_take_is_a_usage_error() {
    let scratch = scratch_dir();
    let mut checked = 0;
    for (command, positionals, accepted) in SUBCOMMANDS {
        for (flag, value) in flags(&scratch) {
            if accepted.contains(&flag) {
                continue;
            }
            let mut args = strings(&[command]);
            args.extend(strings(positionals));
            args.push(flag.to_owned());
            args.extend(value);
            let (code, stderr) = repro(&args);
            assert_eq!(code, Some(2), "repro {args:?}");
            assert!(
                stderr.contains(&format!("{flag} does not apply to `repro {command}`")),
                "repro {args:?}: {stderr}"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 61);
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn positional_rules_and_malformed_flags_are_usage_errors() {
    for args in [
        &[][..],
        &["frobnicate"],
        &["list", "table1"],
        &["bench-sim", "table1"],
        &["serve", "table1"],
        &["run"],
        &["trace"],
        &["lint", "a", "b"],
        &["run", "table1", "--bogus"],
        &["run", "table1", "--threads", "0"],
        &["run", "table1", "--seed", "-1"],
        &["run", "table1", "--out", "--no-progress"],
        &["bench-sim", "--max-regress", "101"],
        &["run", "table1", "--out"],
    ] {
        let args = strings(args);
        assert_eq!(repro(&args).0, Some(2), "repro {args:?}");
    }
}

#[cfg(unix)]
#[test]
fn an_argument_that_is_not_utf8_is_a_usage_error_not_a_panic() {
    use std::os::unix::ffi::OsStrExt;
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("lint")
        .arg(std::ffi::OsStr::from_bytes(b"\xff"))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run repro");
    assert_eq!(status.code(), Some(2));
}

#[test]
fn help_exits_zero() {
    for args in [
        &["--help"][..],
        &["-h"],
        &["run", "--help"],
        &["list", "-h"],
    ] {
        let args = strings(args);
        assert_eq!(repro(&args).0, Some(0), "repro {args:?}");
    }
}
