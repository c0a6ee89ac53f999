//! `vrsim` turns bad input into an `error:` line and exit status 1,
//! never a panic: configurations an organization does not model,
//! malformed numbers on the `layout` command, and damaged trace files.
//! A stored trace, in either format version, replays exactly like the
//! preset it was generated from.

#[path = "../../trace/tests/v1/mod.rs"]
mod v1;

use std::path::PathBuf;
use std::process::{Command, Output};

use vrcache_trace::presets::TracePreset;

const KINDS: [&str; 4] = ["vr", "rr", "rr-noincl", "goodman"];

fn vrsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vrsim"))
        .args(args)
        .output()
        .expect("vrsim runs")
}

fn assert_rejected(args: &[&str], message: &str) -> Output {
    let out = vrsim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains(message),
        "{args:?}: {stderr}"
    );
    out
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

#[test]
fn bad_scales_are_rejected() {
    assert_rejected(
        &["inspect", "--preset", "pops", "--scale", "x"],
        "bad scale: \"x\" is not a number",
    );
    assert_rejected(
        &["inspect", "--preset", "pops", "--scale", "2"],
        "scale must be in (0, 1], got 2",
    );
}

/// A scratch path for this test binary's trace files.
fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// `vrsim run` stdout for `source` on organization `kind`, which must
/// succeed.
fn run_stdout(source: &[&str], kind: &str) -> String {
    let mut args = vec!["run", "--kind", kind];
    args.extend_from_slice(source);
    let out = vrsim(&args);
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 report")
}

/// Writes `pops` at scale 0.005 with `vrsim gen` and returns its path.
fn generated(name: &str) -> PathBuf {
    let path = scratch(name);
    let out = vrsim(&[
        "gen",
        "--preset",
        "pops",
        "--scale",
        "0.005",
        "--out",
        path.to_str().expect("utf-8 path"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

const PRESET: [&str; 4] = ["--preset", "pops", "--scale", "0.005"];

#[test]
fn a_stored_trace_replays_like_its_preset() {
    let path = generated("stored.vrt");
    let file = ["--trace-file", path.to_str().expect("utf-8 path")];
    for kind in KINDS {
        let want = run_stdout(&PRESET, kind);
        assert!(want.starts_with("trace: pops: 4 cpus"), "{want}");
        assert_eq!(run_stdout(&file, kind), want, "--kind {kind}");
    }
}

#[test]
fn a_version_1_trace_replays_identically() {
    let path = scratch("v1.vrt");
    let trace = TracePreset::Pops.generate_scaled(0.005);
    std::fs::write(&path, v1::encode(&trace)).expect("write v1 trace");
    let file = ["--trace-file", path.to_str().expect("utf-8 path")];
    for kind in KINDS {
        assert_eq!(
            run_stdout(&file, kind),
            run_stdout(&PRESET, kind),
            "--kind {kind}"
        );
    }
}

#[test]
fn damaged_trace_files_are_decoding_errors() {
    let path = generated("damaged-source.vrt");
    let bytes = std::fs::read(&path).expect("read trace");
    let truncated = scratch("truncated.vrt");
    std::fs::write(&truncated, &bytes[..bytes.len() - 3]).expect("write");
    // A header that holds, and an invalid escape word half way through:
    // the replay has already started when the decoder fails.
    let header = 4 + 2 + 2 + 8 + 2 + "pops".len() + 8;
    let mut corrupt = bytes.clone();
    let middle = header + (bytes.len() - header) / 16 * 8;
    corrupt[middle] = 0xFF;
    let mid_stream = scratch("mid-stream.vrt");
    std::fs::write(&mid_stream, &corrupt).expect("write");
    for (file, message) in [
        (&truncated, "trace buffer ended early"),
        (&mid_stream, "corrupt trace field: event tag"),
    ] {
        let file = file.to_str().expect("utf-8 path");
        let out = assert_rejected(
            &["run", "--trace-file", file],
            &format!("decoding {file}: {message}"),
        );
        assert!(out.stdout.is_empty(), "{file}: nothing is reported");
    }
}
