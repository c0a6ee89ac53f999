//! Transition-coverage scenarios for the protocol-spec lint.
//!
//! `protocol-spec` cross-checks `crates/model/coverage.txt` — the
//! (hierarchy, pre-snoop context, op) rows the model checker drove
//! through the real snoop code — against the snoop arms in both
//! directions. The tests here pin that half of the lint: an exercised
//! transition with no arm, an arm no scope exercises, a coherence
//! context no scope reaches, and a missing or malformed table.

#[cfg(test)]
mod tests {
    use crate::lints::protocol::check;
    use crate::protocol::{self, kebab_case};
    use crate::{SourceFile, Workspace};

    const COVERAGE_PATH: &str = "crates/model/coverage.txt";

    /// A V-R snoop with the given arms plus one read-miss issue site.
    fn vr_snoop(arms: &[&str]) -> String {
        let mut body = String::from(
            "impl VrHierarchy {\n    fn snoop(&mut self, txn: &BusTransaction) -> SnoopReply {\n        match txn.op {\n",
        );
        for arm in arms {
            body.push_str(&format!(
                "            BusOp::{arm} => self.handle(txn.block),\n"
            ));
        }
        body.push_str(
            "        }\n    }\n    fn miss(&mut self) {\n        \
             self.bus.issue(BusRequest::ReadMiss { block });\n    }\n}\n",
        );
        body
    }

    fn rcache_enum(variants: &str) -> SourceFile {
        SourceFile::new(
            "crates/core/src/rcache.rs",
            format!("pub enum CohState {{\n{variants}}}\n"),
        )
    }

    /// Every transition the five-arm snoop specifies, as the model
    /// checker exercises it: all snoop rows except the ones a peer can
    /// never originate against a private line, plus the issue row.
    const FULL_COVERAGE: &str = "vr absent read-miss\nvr shared read-miss\nvr private read-miss\n\
                                 vr shared invalidate\nvr absent invalidate\n\
                                 vr absent read-modified-write\nvr private read-modified-write\n\
                                 vr shared read-modified-write\n\
                                 vr absent write-back\nvr shared write-back\n\
                                 vr absent update\nvr shared update\n\
                                 vr issue read-miss\n";

    const ALL_ARMS: &[&str] = &[
        "ReadMiss",
        "Invalidate",
        "ReadModifiedWrite",
        "WriteBack",
        "Update",
    ];

    /// A workspace over `arms` with today's extraction pinned, so only
    /// the coverage cross-check and the matrix can speak.
    fn ws_with(coverage: &str, arms: &[&str]) -> Workspace {
        let mut ws = Workspace {
            sources: vec![
                SourceFile::new("crates/core/src/vr.rs", vr_snoop(arms)),
                rcache_enum("    Shared,\n    Private,\n"),
                SourceFile::new("crates/model/src/lib.rs", ""),
            ],
            model_coverage: Some(coverage.to_string()),
            ..Workspace::default()
        };
        ws.protocol_spec = Some(protocol::render(&protocol::extract(&ws)));
        ws
    }

    fn coverage_without(needle: &str) -> String {
        FULL_COVERAGE
            .lines()
            .filter(|l| !l.contains(needle))
            .map(|l| format!("{l}\n"))
            .collect()
    }

    #[test]
    fn complete_table_and_arms_are_clean() {
        assert_eq!(check(&ws_with(FULL_COVERAGE, ALL_ARMS)), vec![]);
    }

    #[test]
    fn removed_match_arm_is_an_unhandled_transition() {
        // Drop the Invalidate arm: the checker exercised `invalidate`
        // snoops, so those rows now lack a spec row.
        let arms: Vec<&str> = ALL_ARMS
            .iter()
            .copied()
            .filter(|a| *a != "Invalidate")
            .collect();
        let diags = check(&ws_with(FULL_COVERAGE, &arms));
        assert!(
            diags.iter().any(|d| d.message.contains("has no spec row")
                && d.message.contains("`vr shared invalidate`")
                && d.file == COVERAGE_PATH),
            "{diags:#?}"
        );
    }

    #[test]
    fn unexercised_arm_is_a_dead_arm() {
        // Coverage missing every `update` row: the Update arm is dead.
        let diags = check(&ws_with(&coverage_without("update"), ALL_ARMS));
        assert!(
            diags.iter().any(|d| d.message.contains("never exercised")
                && d.message.contains("`vr shared update`")),
            "{diags:#?}"
        );
        // A model-checked hierarchy with no row at all is not exempt.
        let diags = check(&ws_with("# no rows\n", ALL_ARMS));
        assert!(
            diags.iter().any(|d| d.message.contains("never exercised")
                && d.message.contains("`vr absent read-miss`")),
            "{diags:#?}"
        );
    }

    #[test]
    fn goodman_update_arm_is_allowlisted() {
        // The snoop rejects Update behind a `debug_assert!(false …)`, so
        // the extractor derives (goodman, update) as dead by design and
        // no update row needs exercising.
        let mut ws = Workspace {
            sources: vec![SourceFile::new(
                "crates/core/src/goodman.rs",
                "impl CacheHierarchy for GoodmanHierarchy {\n    \
                 fn snoop(&mut self, txn: &BusTransaction) -> SnoopReply {\n        \
                 if txn.op == BusOp::Update {\n            \
                 debug_assert!(false, \"update is a V-R-only configuration\");\n            \
                 return SnoopReply::default();\n        }\n        \
                 match txn.op {\n            BusOp::ReadMiss => self.r(),\n            \
                 BusOp::Invalidate | BusOp::ReadModifiedWrite => self.i(),\n            \
                 BusOp::WriteBack => SnoopReply::default(),\n            \
                 BusOp::Update => unreachable!(\"rejected above\"),\n        }\n    }\n}\n",
            )],
            model_coverage: Some(
                "goodman absent read-miss\ngoodman shared read-miss\ngoodman private read-miss\n\
                 goodman absent invalidate\ngoodman shared invalidate\n\
                 goodman absent read-modified-write\ngoodman shared read-modified-write\n\
                 goodman private read-modified-write\n\
                 goodman absent write-back\n"
                    .to_string(),
            ),
            ..Workspace::default()
        };
        let surface = protocol::extract(&ws);
        assert!(surface.dead.contains(&("goodman".into(), "update".into())));
        ws.protocol_spec = Some(protocol::render(&surface));
        assert_eq!(check(&ws), vec![], "update must be dead-by-design");
    }

    #[test]
    fn missing_context_is_flagged() {
        // No row ever snoops vr while `private`.
        let diags = check(&ws_with(&coverage_without("private"), ALL_ARMS));
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("context `private`")),
            "{diags:#?}"
        );
        // Nor while in a `CohState` variant the extractor does not model.
        let mut ws = ws_with(FULL_COVERAGE, ALL_ARMS);
        ws.sources[1] = rcache_enum("    Shared,\n    Private,\n    Owned,\n");
        let diags = check(&ws);
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(diags[0].message.contains("context `owned`"), "{diags:#?}");
    }

    #[test]
    fn missing_table_is_flagged_only_when_model_crate_exists() {
        let with_model = Workspace {
            sources: vec![SourceFile::new("crates/model/src/lib.rs", "")],
            ..Workspace::default()
        };
        let diags = check(&with_model);
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(diags[0].message.contains("missing transition table"));
        assert_eq!(diags[0].file, COVERAGE_PATH);

        let without = Workspace::default();
        assert_eq!(check(&without), vec![]);
    }

    #[test]
    fn malformed_rows_are_reported() {
        let ws = Workspace {
            model_coverage: Some("# ok\nvr shared\n".to_string()),
            ..Workspace::default()
        };
        let diags = check(&ws);
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(diags[0].message.contains("malformed row"));
        assert_eq!((diags[0].file.as_str(), diags[0].line), (COVERAGE_PATH, 2));
        // Also alongside a hierarchy to cross-check.
        let cov = format!("{FULL_COVERAGE}vr shared\n");
        let diags = check(&ws_with(&cov, ALL_ARMS));
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(diags[0].message.contains("malformed row"));
    }

    #[test]
    fn kebab_matches_model_labels() {
        // Bus ops and `CohState` variants both map onto the labels the
        // model checker writes into the coverage table.
        assert_eq!(kebab_case("ReadMiss"), "read-miss");
        assert_eq!(kebab_case("ReadModifiedWrite"), "read-modified-write");
        assert_eq!(kebab_case("Update"), "update");
        assert_eq!(kebab_case("Shared"), "shared");
        assert_eq!(kebab_case("Private"), "private");
    }

    #[test]
    fn snoop_region_skips_helper_methods() {
        // A `snoop_*` helper that `snoop` never calls must not leak its
        // ops into the handled set.
        let ws = Workspace {
            sources: vec![SourceFile::new(
                "crates/core/src/vr.rs",
                "impl VrHierarchy {\n    fn snoop_read(&mut self) {\n        BusOp::Update;\n    }\n    \
                 fn snoop(&mut self, txn: &BusTransaction) -> SnoopReply {\n        \
                 match txn.op { BusOp::ReadMiss => x() }\n    }\n}\n",
            )],
            ..Workspace::default()
        };
        let surface = protocol::extract(&ws);
        let key = |op: &str| ("vr".to_string(), "shared".to_string(), op.to_string());
        assert!(
            surface.snoop_keys.contains(&key("read-miss")),
            "{surface:#?}"
        );
        assert!(
            !surface.snoop_keys.contains(&key("update")),
            "helper must not leak in"
        );
        assert!(surface.dead.contains(&("vr".into(), "update".into())));
    }

    #[test]
    fn real_workspace_is_clean() {
        let root = crate::walk::find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root");
        let ws = crate::walk::load(&root).expect("load workspace");
        assert!(
            ws.model_coverage.is_some(),
            "crates/model/coverage.txt must be checked in"
        );
        let diags = check(&ws);
        assert!(diags.is_empty(), "{diags:#?}");
    }
}
