//! Byte-golden pin of the reproduction.
//!
//! Renders every artifact with one worker at the scale named in the
//! golden file's header and compares the bytes with
//! `tests/golden/repro.txt`. The rendering is exactly what
//! `repro --scale S --jobs 1` prints on stdout, so after an intended
//! change in the numbers the golden is regenerated with
//!
//! ```text
//! cargo run --release -p vrcache-bench --bin repro -- --scale 0.005 --jobs 1 > tests/golden/repro.txt
//! ```

use vrcache_bench::Artifact;

const GOLDEN: &str = include_str!("golden/repro.txt");

/// The scale recorded in the golden's `# vrcache reproduction (scale S)`
/// header line.
fn golden_scale() -> f64 {
    let header = GOLDEN.lines().next().unwrap_or_default();
    header
        .strip_prefix("# vrcache reproduction (scale ")
        .and_then(|rest| rest.strip_suffix(')'))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("golden header names no scale: {header:?}"))
}

#[test]
fn every_artifact_matches_the_golden_bytes() {
    let scale = golden_scale();
    let mut rendered = format!("# vrcache reproduction (scale {scale})\n\n");
    for artifact in Artifact::ALL {
        rendered.push_str(&artifact.render(scale));
    }
    if rendered == GOLDEN {
        return;
    }
    let first_diff = rendered
        .lines()
        .zip(GOLDEN.lines())
        .position(|(got, want)| got != want)
        .unwrap_or_else(|| rendered.lines().count().min(GOLDEN.lines().count()));
    panic!(
        "reproduction output diverged from tests/golden/repro.txt at line {}:\n  got:  {:?}\n  want: {:?}",
        first_diff + 1,
        rendered.lines().nth(first_diff),
        GOLDEN.lines().nth(first_diff),
    );
}
