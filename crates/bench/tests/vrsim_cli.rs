//! `vrsim` turns bad input into an `error:` line and exit status 1,
//! never a panic: configurations an organization does not model, and
//! malformed numbers on the `layout` command.

use std::process::{Command, Output};

fn vrsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vrsim"))
        .args(args)
        .output()
        .expect("vrsim runs")
}

fn assert_rejected(args: &[&str], message: &str) {
    let out = vrsim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains(message),
        "{args:?}: {stderr}"
    );
}

#[test]
fn run_rejects_every_unmodeled_configuration_before_building() {
    for (kind, flags) in [
        ("rr", &["--split"][..]),
        ("rr", &["--write-through"]),
        ("rr", &["--update-protocol"]),
        ("rr-noincl", &["--split"]),
        ("rr-noincl", &["--write-through"]),
        ("rr-noincl", &["--update-protocol"]),
        ("goodman", &["--split"]),
        ("goodman", &["--write-through"]),
        ("goodman", &["--eager-flush"]),
        ("goodman", &["--asid-tags"]),
        ("goodman", &["--update-protocol"]),
        ("vr", &["--update-protocol", "--write-through"]),
    ] {
        let mut args = vec![
            "run", "--preset", "pops", "--scale", "0.001", "--kind", kind,
        ];
        args.extend_from_slice(flags);
        assert_rejected(&args, "is not modeled by");
    }
}

#[test]
fn layout_rejects_malformed_numbers() {
    for flag in ["--l1", "--l2", "--block", "--block2"] {
        assert_rejected(&["layout", flag, "abc"], &format!("bad {flag}: abc"));
    }
    let out = vrsim(&["layout", "--l1", "8192"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("strict-inclusion bound"));
}
