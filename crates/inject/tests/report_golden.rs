//! Byte-golden pin of the CI-sized campaign reports.
//!
//! Runs the `smoke` (128 rows) and `pairs-smoke` (264 rows) campaigns
//! with one worker and compares the rendered report with
//! `tests/golden/<campaign>.txt`. Every row's outcome and detail string
//! is pinned, so a change to how a hierarchy corrupts, detects or
//! recovers state shows up here even when the SDC id set is unchanged.
//!
//! A build with debug assertions classifies one `smoke` row differently:
//! an unprotected r-pointer flip trips a `debug_assert_eq!` (a
//! detected-fatal panic) where a release build runs on and masks it. That
//! build compares against `smoke.debug.txt` instead. After an intended
//! change the goldens are regenerated with
//!
//! ```text
//! cargo run --release -p vrcache-inject -- --campaign smoke --jobs 1 --report crates/inject/tests/golden/smoke.txt
//! cargo run -p vrcache-inject -- --campaign smoke --jobs 1 --report crates/inject/tests/golden/smoke.debug.txt
//! cargo run --release -p vrcache-inject -- --campaign pairs-smoke --jobs 1 --report crates/inject/tests/golden/pairs-smoke.txt
//! ```

use vrcache_inject::campaign::Campaign;
use vrcache_inject::report::render;

fn assert_matches_golden(campaign: &Campaign, golden: &str) {
    let rendered = render(&campaign.run("", 1, |_| {}));
    if rendered == golden {
        return;
    }
    let first_diff = rendered
        .lines()
        .zip(golden.lines())
        .position(|(got, want)| got != want)
        .unwrap_or_else(|| rendered.lines().count().min(golden.lines().count()));
    panic!(
        "campaign '{}' diverged from its golden at line {}:\n  got:  {:?}\n  want: {:?}",
        campaign.name,
        first_diff + 1,
        rendered.lines().nth(first_diff),
        golden.lines().nth(first_diff),
    );
}

#[test]
fn smoke_report_matches_the_golden_bytes() {
    let golden = if cfg!(debug_assertions) {
        include_str!("golden/smoke.debug.txt")
    } else {
        include_str!("golden/smoke.txt")
    };
    assert_matches_golden(&Campaign::smoke(), golden);
}

#[test]
fn pairs_smoke_report_matches_the_golden_bytes() {
    assert_matches_golden(
        &Campaign::pairs_smoke(),
        include_str!("golden/pairs-smoke.txt"),
    );
}
