//! tablegen CLI contract: a table prints, and a bad command line is a
//! usage error (exit 2) before any experiment runs.

use std::process::{Command, Output};

fn tablegen(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tablegen")).args(args).output().expect("run tablegen")
}

#[test]
fn a_static_table_prints() {
    let out = tablegen(&["tab1"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("== tab1:"), "{out:?}");
}

#[test]
fn bad_command_lines_are_usage_errors() {
    for args in [
        &[][..],
        &["nosuch"],
        &["tab1", "--wokers", "1"],
        &["tab1", "--resume"],
        &["tab1", "--videos", "nosuch"],
        &["tab1", "--job-deadline", "0"],
    ] {
        let out = tablegen(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
    }
}
