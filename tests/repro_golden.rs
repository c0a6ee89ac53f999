//! Byte-golden pin of the reproduction.
//!
//! Renders every artifact at the scale named in the golden file's
//! header and compares the bytes with `tests/golden/repro.txt`. The
//! rendering is exactly what `repro --scale S --jobs N` prints on
//! stdout for any `N`, so after an intended change in the numbers the
//! golden is regenerated with
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

/// The work each artifact does at the golden's scale: (cells simulated,
/// references replayed), in `Artifact::ALL` order. Deterministic on any
/// host and at any worker count, so a simulation that is added or
/// duplicated fails here before it shows up as wall clock. Figures 4–6
/// each simulate only their own trace's Table 6 row: 3 size pairs × 2
/// organizations.
const WORK: [(Artifact, u64, u64); 18] = [
    (Artifact::Table1, 0, 0),
    (Artifact::Table2, 0, 0),
    (Artifact::Table3, 1, 16_430),
    (Artifact::Table5, 0, 0),
    (Artifact::Table6, 18, 232_950),
    (Artifact::Table7, 18, 232_950),
    (Artifact::Fig4, 6, 98_490),
    (Artifact::Fig5, 6, 98_580),
    (Artifact::Fig6, 6, 35_880),
    (Artifact::Tables8To10, 18, 232_950),
    (Artifact::Tables11To13, 27, 349_425),
    (Artifact::Inclusion, 1, 16_430),
    (Artifact::Ablations, 11, 149_380),
    (Artifact::Scaling, 8, 300_000),
    (Artifact::Traffic, 9, 116_475),
    (Artifact::SingleLevel, 18, 232_950),
    (Artifact::Assoc, 8, 131_440),
    (Artifact::Protocols, 6, 77_650),
];

#[test]
fn every_artifact_does_its_pinned_work() {
    use vrcache_sim::experiments::ExperimentCtx;

    let scale = golden_scale();
    assert_eq!(
        WORK.map(|(a, _, _)| a),
        Artifact::ALL,
        "one pin per artifact"
    );
    for (artifact, cells, refs) in WORK {
        let mut ctx = ExperimentCtx::new(scale);
        artifact.render_in(&mut ctx);
        let work = ctx.work();
        assert_eq!(
            (work.cells, work.refs),
            (cells, refs),
            "{artifact:?}: (cells, refs) at scale {scale}"
        );
    }
}
