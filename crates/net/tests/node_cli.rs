//! `basil-node` rejects bad command lines with a usage error (exit 2)
//! instead of running with a default, a truncated id, or panicking.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `basil-node` with a complete, valid command line, with `overrides`
/// replacing or adding flags, and returns the exit code and stderr. The
/// cases below all exit while parsing arguments, so no port is bound and
/// no results file is written; each run still gets its own results path.
fn run_with(overrides: &[(&str, &str)]) -> (Option<i32>, String) {
    static RUN: AtomicUsize = AtomicUsize::new(0);
    let run = RUN.fetch_add(1, Ordering::Relaxed);
    let results = std::env::temp_dir()
        .join(format!(
            "basil-node-cli-{}-{run}.results",
            std::process::id()
        ))
        .display()
        .to_string();
    let base_port = (63_000 + std::process::id() % 1_000).to_string();
    let mut args: Vec<(&str, String)> = vec![
        ("--role", "replica".into()),
        ("--who", "0".into()),
        ("--clients", "1".into()),
        ("--seed", "42".into()),
        ("--base-port", base_port),
        ("--epoch-nanos", "0".into()),
        ("--duration-ms", "10".into()),
        ("--results", results.clone()),
    ];
    for (flag, value) in overrides {
        match args.iter_mut().find(|(f, _)| f == flag) {
            Some(slot) => slot.1 = value.to_string(),
            None => args.push((flag, value.to_string())),
        }
    }
    let out = Command::new(env!("CARGO_BIN_EXE_basil-node"))
        .args(args.iter().flat_map(|(f, v)| [f.to_string(), v.clone()]))
        .output()
        .expect("basil-node starts");
    let _ = std::fs::remove_file(&results);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_error(overrides: &[(&str, &str)]) {
    let (code, stderr) = run_with(overrides);
    assert_eq!(
        code,
        Some(2),
        "{overrides:?}: exit {code:?}, stderr: {stderr}"
    );
    assert!(stderr.contains("usage:"), "{overrides:?}: stderr: {stderr}");
    assert!(
        !stderr.contains("panicked"),
        "{overrides:?}: stderr: {stderr}"
    );
}

#[test]
fn malformed_numbers_are_usage_errors() {
    for flag in ["--seed", "--duration-ms", "--keys", "--reads", "--writes"] {
        assert_usage_error(&[(flag, "4x2")]);
    }
}

#[test]
fn replica_index_must_name_a_replica() {
    // 2^32 would truncate to replica 0; 6 is one past the last of n = 6.
    assert_usage_error(&[("--who", "4294967296")]);
    assert_usage_error(&[("--who", "6")]);
}

#[test]
fn client_id_must_be_below_the_client_count() {
    assert_usage_error(&[("--role", "client"), ("--who", "1"), ("--clients", "1")]);
}

#[test]
fn every_client_port_must_exist() {
    // Client 0 would listen at 65_500 + 100, past the last port.
    assert_usage_error(&[("--base-port", "65500")]);
}
