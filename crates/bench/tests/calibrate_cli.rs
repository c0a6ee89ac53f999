//! `calibrate` turns a bad scale into an `error:` line and exit status
//! 1: neither a silent fallback to the default scale nor a panic.

use std::process::{Command, Output};

fn calibrate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_calibrate"))
        .args(args)
        .output()
        .expect("calibrate runs")
}

#[test]
fn bad_scales_are_rejected() {
    for (scale, message) in [
        ("0,05", "bad scale: \"0,05\" is not a number"),
        ("abc", "bad scale: \"abc\" is not a number"),
        ("0", "scale must be in (0, 1], got 0"),
        ("1.5", "scale must be in (0, 1], got 1.5"),
        ("-0.1", "scale must be in (0, 1], got -0.1"),
    ] {
        let out = calibrate(&[scale]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{scale}: {stderr}");
        assert_eq!(stderr.trim_end(), format!("error: {message}"), "{scale}");
        assert!(out.stdout.is_empty(), "{scale}: nothing is calibrated");
    }
}

#[test]
fn a_good_scale_reports_every_preset_and_pair() {
    let out = calibrate(&["0.001"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("calibration at scale 0.001\n"));
    // 3 presets x 6 size pairs.
    assert_eq!(stdout.matches("h1VR=").count(), 18, "{stdout}");
}
