//! Fault-site coverage lint: every [`FaultKind`] must be handled — or
//! explicitly declined — by every `FaultPort` implementation.
//!
//! The fault-injection campaign sweeps `FaultKind::ALL` over every
//! hierarchy organization, relying on each `inject_fault` to either
//! corrupt a live target or return `None` (not-applicable). Rust's
//! exhaustiveness checking keeps a `match` total, but a wildcard arm
//! (`_ => None`) would silently swallow a newly added kind: the
//! campaign would report it as not-applicable everywhere and the sweep
//! would quietly stop meaning anything. This lint cross-checks the
//! `FaultKind` enum in `crates/core/src/fault.rs` against the
//! `fn inject_fault` body of every `impl FaultPort for` site:
//!
//! 1. **Unwired kind** — every enum variant must be textually mentioned
//!    as `FaultKind::Variant` inside each implementation, whether it is
//!    handled or declined with an explicit `=> None` arm.
//! 2. **Wildcard arm** — `_ =>` is forbidden inside `fn inject_fault`:
//!    a decline must name the kinds it declines.
//! 3. **Unknown kind** — a `FaultKind::Variant` mention with no matching
//!    enum variant (a rename that left a stale arm behind) is flagged.
//!
//! The same dead-knob argument applies to the protection axis: a
//! `DataProtection` variant that no campaign enumerates is a scheme
//! whose containment claims are never tested. Every variant of the
//! `DataProtection` enum in `crates/core/src/config.rs` must be
//! mentioned somewhere under `crates/inject/` (the campaign
//! enumeration), and every `DataProtection::Variant` mention there must
//! name a real variant.

use std::collections::BTreeSet;

use crate::{code_portion, Diagnostic, Workspace};

/// Where the fault model (the `FaultKind` enum) lives.
pub const FAULT_PATH: &str = "crates/core/src/fault.rs";
/// Where the protection knob (the `DataProtection` enum) lives.
pub const CONFIG_PATH: &str = "crates/core/src/config.rs";
/// The crate whose sources must exercise every protection scheme.
const INJECT_PREFIX: &str = "crates/inject/";

// Needles are concat!-split so this file's own string literals do not
// register as implementation sites when the workspace is scanned.
const ENUM_NEEDLE: &str = concat!("pub enum Fault", "Kind");
const IMPL_NEEDLE: &str = concat!("impl Fault", "Port for ");
const FN_NEEDLE: &str = concat!("fn inject_", "fault(");
const KIND_NEEDLE: &str = concat!("Fault", "Kind::");
const DP_ENUM_NEEDLE: &str = concat!("pub enum Data", "Protection");
const DP_NEEDLE: &str = concat!("Data", "Protection::");

/// Counts `{`/`}` on a line, ignoring comment tails and string literals.
fn brace_delta(raw: &str) -> i32 {
    let line = code_portion(raw);
    let mut delta = 0;
    let mut in_str = false;
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'{' if !in_str => delta += 1,
            b'}' if !in_str => delta -= 1,
            _ => {}
        }
        i += 1;
    }
    delta
}

/// The unit-variant names of the enum introduced by `needle` in `text`,
/// plus the 1-based line the enum starts on. Empty when not found.
fn enum_variants(text: &str, needle: &str) -> (BTreeSet<String>, usize) {
    let mut out = BTreeSet::new();
    let mut enum_line = 0;
    let mut in_enum = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = code_portion(raw);
        if line.contains(needle) {
            in_enum = true;
            enum_line = idx + 1;
            continue;
        }
        if in_enum {
            let trimmed = line.trim().trim_end_matches(',');
            if trimmed == "}" {
                break;
            }
            if !trimmed.is_empty()
                && trimmed
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_uppercase())
                && trimmed.chars().all(|c| c.is_ascii_alphanumeric())
            {
                out.insert(trimmed.to_string());
            }
        }
    }
    (out, enum_line)
}

/// The `FaultKind` variant names parsed from the enum body in
/// `crates/core/src/fault.rs`, or an empty set if the enum cannot be
/// found.
fn fault_kinds(ws: &Workspace) -> BTreeSet<String> {
    ws.file(FAULT_PATH)
        .map(|f| enum_variants(&f.text, ENUM_NEEDLE).0)
        .unwrap_or_default()
}

/// One `impl FaultPort for <Type>` site: the implementing type, the
/// 1-based line `fn inject_fault(` starts on, and its brace region.
struct PortImpl {
    type_name: String,
    fn_line: usize,
    region: String,
}

/// Extracts every `impl FaultPort for` site in `text` together with its
/// `fn inject_fault` body. A site whose body cannot be found yields a
/// region-less entry (`fn_line` 0) so the caller can flag it.
fn port_impls(text: &str) -> Vec<PortImpl> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    for (idx, raw) in lines.iter().enumerate() {
        let line = code_portion(raw);
        let Some(pos) = line.find(IMPL_NEEDLE) else {
            continue;
        };
        let after = &line[pos + IMPL_NEEDLE.len()..];
        let type_name: String = after
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        // The trait definition (`pub trait FaultPort`) never matches this
        // needle, so every hit is an implementation site.
        let Some(fn_offset) = lines[idx..]
            .iter()
            .position(|l| code_portion(l).contains(FN_NEEDLE))
        else {
            out.push(PortImpl {
                type_name,
                fn_line: 0,
                region: String::new(),
            });
            continue;
        };
        let start = idx + fn_offset;
        let mut depth = 0;
        let mut opened = false;
        let mut region = String::new();
        for raw in &lines[start..] {
            region.push_str(raw);
            region.push('\n');
            depth += brace_delta(raw);
            if depth > 0 {
                opened = true;
            }
            if opened && depth <= 0 {
                break;
            }
        }
        out.push(PortImpl {
            type_name,
            fn_line: start + 1,
            region,
        });
    }
    out
}

/// Collects every `<needle>Variant` path mentioned in `region` (comments
/// and doc lines stripped).
fn mentions(region: &str, needle: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for raw in region.lines() {
        let line = code_portion(raw);
        let mut rest = line;
        while let Some(pos) = rest.find(needle) {
            let after = &rest[pos + needle.len()..];
            let ident: String = after
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !ident.is_empty() {
                out.insert(ident);
            }
            rest = after;
        }
    }
    out
}

/// Collects every `FaultKind::Variant` mentioned in `region`.
fn mentioned_kinds(region: &str) -> BTreeSet<String> {
    mentions(region, KIND_NEEDLE)
}

/// True when `region` contains a wildcard match arm (`_ =>`).
fn has_wildcard_arm(region: &str) -> bool {
    region.lines().any(|raw| {
        let line = code_portion(raw);
        let trimmed = line.trim_start();
        trimmed.starts_with("_ =>") || trimmed.starts_with("_ | ") || line.contains(" | _ =>")
    })
}

/// Cross-checks the `DataProtection` enum against the campaign crate:
/// every protection scheme must be enumerated under `crates/inject/`
/// (a variant no campaign sweeps is a dead knob whose containment
/// claims are never tested), and no campaign source may name a scheme
/// the enum no longer has.
fn check_protection_exercise(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let Some(config) = ws.file(CONFIG_PATH) else {
        return;
    };
    let (variants, enum_line) = enum_variants(&config.text, DP_ENUM_NEEDLE);
    if variants.is_empty() {
        return;
    }
    let mut exercised = BTreeSet::new();
    for file in &ws.sources {
        if !file.rel_path.starts_with(INJECT_PREFIX) {
            continue;
        }
        for ident in mentions(&file.text, DP_NEEDLE) {
            // Associated consts (`DataProtection::ALL`) are
            // SCREAMING_CASE; only CamelCase paths are variant mentions.
            if ident.chars().all(|c| c.is_ascii_uppercase() || c == '_') {
                continue;
            }
            if !variants.contains(&ident) {
                out.push(Diagnostic {
                    file: file.rel_path.clone(),
                    line: 0,
                    lint: "fault-coverage",
                    message: format!(
                        "unknown protection scheme: `{DP_NEEDLE}{ident}` is mentioned under \
                         {INJECT_PREFIX} but the enum has no such variant"
                    ),
                });
            }
            exercised.insert(ident);
        }
    }
    for variant in &variants {
        if !exercised.contains(variant) {
            out.push(Diagnostic {
                file: CONFIG_PATH.into(),
                line: enum_line,
                lint: "fault-coverage",
                message: format!(
                    "unexercised protection scheme: `{DP_NEEDLE}{variant}` never appears \
                     under {INJECT_PREFIX} — every data-protection variant must be swept \
                     by a campaign's protection axis"
                ),
            });
        }
    }
}

/// Runs the fault-site coverage lint.
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_protection_exercise(ws, &mut out);
    let kinds = fault_kinds(ws);
    if kinds.is_empty() {
        // No fault model in this tree (or the enum moved): nothing to
        // cross-check — but if the file exists and we failed to parse it,
        // that is itself a finding.
        if ws.file(FAULT_PATH).is_some() {
            out.push(Diagnostic {
                file: FAULT_PATH.into(),
                line: 0,
                lint: "fault-coverage",
                message: "cannot parse the `FaultKind` enum; the fault-site coverage \
                          lint needs its variant list"
                    .into(),
            });
        }
        return out;
    }

    let mut impl_count = 0;
    for file in &ws.sources {
        for site in port_impls(&file.text) {
            impl_count += 1;
            if site.fn_line == 0 {
                out.push(Diagnostic {
                    file: file.rel_path.clone(),
                    line: 0,
                    lint: "fault-coverage",
                    message: format!(
                        "`{IMPL_NEEDLE}{}` has no `{FN_NEEDLE}` body to cross-check",
                        site.type_name
                    ),
                });
                continue;
            }
            let mentioned = mentioned_kinds(&site.region);
            for kind in &kinds {
                if !mentioned.contains(kind) {
                    out.push(Diagnostic {
                        file: file.rel_path.clone(),
                        line: site.fn_line,
                        lint: "fault-coverage",
                        message: format!(
                            "unwired fault kind: `FaultKind::{kind}` is never mentioned in \
                             {}'s `inject_fault` — handle it or decline it with an explicit \
                             `=> None` arm",
                            site.type_name
                        ),
                    });
                }
            }
            for kind in &mentioned {
                if !kinds.contains(kind) {
                    out.push(Diagnostic {
                        file: file.rel_path.clone(),
                        line: site.fn_line,
                        lint: "fault-coverage",
                        message: format!(
                            "unknown fault kind: {}'s `inject_fault` mentions \
                             `FaultKind::{kind}` but the enum has no such variant",
                            site.type_name
                        ),
                    });
                }
            }
            if has_wildcard_arm(&site.region) {
                out.push(Diagnostic {
                    file: file.rel_path.clone(),
                    line: site.fn_line,
                    lint: "fault-coverage",
                    message: format!(
                        "wildcard arm in {}'s `inject_fault`: declines must name the kinds \
                         they decline so a new `FaultKind` cannot be swallowed silently",
                        site.type_name
                    ),
                });
            }
        }
    }

    if impl_count == 0 {
        out.push(Diagnostic {
            file: FAULT_PATH.into(),
            line: 0,
            lint: "fault-coverage",
            message: "`FaultKind` exists but no `impl FaultPort for` site was found; \
                      the fault model is dead code"
                .into(),
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    // Fixtures assemble the needles from the consts so this file's own
    // literals never register as implementation sites.
    fn fault_enum() -> SourceFile {
        SourceFile::new(
            FAULT_PATH,
            format!(
                "{ENUM_NEEDLE} {{\n    /// doc\n    VTagFlip,\n    TlbEntryFlip,\n    \
                 BusDropTxn,\n}}\n"
            ),
        )
    }

    fn impl_with(body: &str) -> String {
        format!(
            "{IMPL_NEEDLE}VrHierarchy {{\n    {FN_NEEDLE}&mut self, kind: FaultKind, \
             seed: u64) -> Option<FaultRecord> {{\n        match kind {{\n{body}        }}\n    \
             }}\n}}\n"
        )
    }

    fn ws_with(body: &str) -> Workspace {
        Workspace {
            sources: vec![
                fault_enum(),
                SourceFile::new("crates/core/src/vr.rs", impl_with(body)),
            ],
            ..Workspace::default()
        }
    }

    #[test]
    fn complete_match_is_clean() {
        let ws = ws_with(
            "            FaultKind::VTagFlip => self.flip(seed),\n            \
             FaultKind::TlbEntryFlip => None,\n            \
             FaultKind::BusDropTxn => None,\n",
        );
        assert_eq!(check(&ws), vec![]);
    }

    #[test]
    fn missing_kind_is_unwired() {
        let ws = ws_with(
            "            FaultKind::VTagFlip => self.flip(seed),\n            \
             FaultKind::BusDropTxn => None,\n",
        );
        let diags = check(&ws);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("unwired fault kind")
                    && d.message.contains("TlbEntryFlip")
                    && d.file == "crates/core/src/vr.rs"),
            "{diags:?}"
        );
    }

    #[test]
    fn wildcard_arm_is_flagged() {
        let ws = ws_with(
            "            FaultKind::VTagFlip => self.flip(seed),\n            \
             FaultKind::TlbEntryFlip => None,\n            \
             FaultKind::BusDropTxn => None,\n            _ => None,\n",
        );
        let diags = check(&ws);
        assert!(
            diags.iter().any(|d| d.message.contains("wildcard arm")),
            "{diags:?}"
        );
    }

    #[test]
    fn stale_variant_mention_is_unknown() {
        let ws = ws_with(
            "            FaultKind::VTagFlip => self.flip(seed),\n            \
             FaultKind::TlbEntryFlip => None,\n            \
             FaultKind::BusDropTxn => None,\n            \
             FaultKind::Retired => None,\n",
        );
        let diags = check(&ws);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("unknown fault kind") && d.message.contains("Retired")),
            "{diags:?}"
        );
    }

    #[test]
    fn enum_without_impls_is_dead_code() {
        let ws = Workspace {
            sources: vec![fault_enum()],
            ..Workspace::default()
        };
        let diags = check(&ws);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("no `impl FaultPort for`"));
    }

    #[test]
    fn absent_fault_model_is_silent() {
        assert_eq!(check(&Workspace::default()), vec![]);
    }

    #[test]
    fn comments_do_not_count_as_mentions() {
        let ws = ws_with(
            "            FaultKind::VTagFlip => self.flip(seed), // not FaultKind::Retired\n            \
             FaultKind::TlbEntryFlip => None,\n            \
             FaultKind::BusDropTxn => None,\n",
        );
        assert_eq!(check(&ws), vec![]);
    }

    fn protection_enum() -> SourceFile {
        SourceFile::new(
            CONFIG_PATH,
            format!("{DP_ENUM_NEEDLE} {{\n    /// doc\n    None,\n    Parity,\n    Secded,\n}}\n"),
        )
    }

    #[test]
    fn exercised_protection_axis_is_clean() {
        let ws = Workspace {
            sources: vec![
                protection_enum(),
                SourceFile::new(
                    "crates/inject/src/campaign.rs",
                    format!(
                        "fn axis() {{\n    let _ = ({DP_NEEDLE}None, {DP_NEEDLE}Parity, \
                         {DP_NEEDLE}Secded);\n}}\n"
                    ),
                ),
            ],
            ..Workspace::default()
        };
        assert_eq!(check(&ws), vec![]);
    }

    #[test]
    fn unswept_protection_variant_is_flagged() {
        let ws = Workspace {
            sources: vec![
                protection_enum(),
                SourceFile::new(
                    "crates/inject/src/campaign.rs",
                    format!(
                        "fn axis() {{\n    let _ = ({DP_NEEDLE}None, {DP_NEEDLE}Parity);\n}}\n"
                    ),
                ),
            ],
            ..Workspace::default()
        };
        let diags = check(&ws);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("unexercised protection scheme")
                    && d.message.contains("Secded")
                    && d.file == CONFIG_PATH),
            "{diags:?}"
        );
    }

    #[test]
    fn mentions_outside_the_inject_crate_do_not_count() {
        let ws = Workspace {
            sources: vec![
                protection_enum(),
                SourceFile::new(
                    "crates/core/src/vr.rs",
                    format!("fn scrub() {{\n    let _ = {DP_NEEDLE}Secded;\n}}\n"),
                ),
                SourceFile::new(
                    "crates/inject/src/campaign.rs",
                    format!(
                        "fn axis() {{\n    let _ = ({DP_NEEDLE}None, {DP_NEEDLE}Parity);\n}}\n"
                    ),
                ),
            ],
            ..Workspace::default()
        };
        let diags = check(&ws);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("unexercised") && d.message.contains("Secded")),
            "{diags:?}"
        );
    }

    #[test]
    fn stale_protection_mention_is_unknown() {
        let ws = Workspace {
            sources: vec![
                protection_enum(),
                SourceFile::new(
                    "crates/inject/src/campaign.rs",
                    format!(
                        "fn axis() {{\n    let _ = {DP_NEEDLE}ALL;\n    let _ = \
                         ({DP_NEEDLE}None, {DP_NEEDLE}Parity, {DP_NEEDLE}Secded, \
                         {DP_NEEDLE}Chipkill);\n}}\n"
                    ),
                ),
            ],
            ..Workspace::default()
        };
        let diags = check(&ws);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("unknown protection scheme")
                    && d.message.contains("Chipkill")),
            "{diags:?}"
        );
        assert!(
            !diags.iter().any(|d| d.message.contains("ALL")),
            "associated consts are not variant mentions: {diags:?}"
        );
    }

    #[test]
    fn real_workspace_is_clean() {
        use crate::walk;
        use std::path::Path;
        let root = walk::find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("root");
        let ws = walk::load(&root).expect("load");
        assert!(
            ws.file(FAULT_PATH).is_some(),
            "the fault model must be tracked"
        );
        assert_eq!(check(&ws), vec![]);
    }
}
