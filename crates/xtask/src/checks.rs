//! The auditor's checks.
//!
//! Each check is a pure function from source text to a list of violations,
//! so the unit tests can feed in fixtures — including deliberately seeded
//! violations — without touching the real tree. `main.rs` wires the checks
//! to the actual workspace files.

use crate::lexer::{line_of, out_of_line_test_modules, scrub};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// File the violation was found in (workspace-relative label).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the broken rule.
    pub what: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.file, self.line, self.what)
    }
}

/// Module names a crate declares as out-of-line `#[cfg(test)]` modules;
/// the walker skips the corresponding `<name>.rs` files.
pub fn test_module_files(src: &str) -> Vec<String> {
    out_of_line_test_modules(&scrub(src))
}

/// A field parsed out of `pub struct Config`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigField {
    /// Field identifier.
    pub name: String,
    /// 1-based line of the declaration.
    pub line: usize,
    /// Whether a `///` doc comment immediately precedes it.
    pub has_doc: bool,
    /// Name of the field's type, or of its element type for a `Vec<…>`
    /// (`FaultConfig`, `CutWindow`, `u32`); empty for tuple types.
    pub ty: String,
}

/// Extracts the public fields of `pub struct <name> { … }` with their
/// doc-comment status. The match requires an identifier boundary after
/// `name`, so asking for `Config` does not land on `ConfigField`.
pub fn struct_fields(config_src: &str, name: &str) -> Vec<ConfigField> {
    let scrubbed = scrub(config_src);
    let pat = format!("pub struct {name}");
    let mut start = None;
    let mut search = 0;
    while let Some(rel) = scrubbed.get(search..).and_then(|s| s.find(&pat)) {
        let pos = search + rel;
        search = pos + 1;
        let boundary = !scrubbed
            .as_bytes()
            .get(pos + pat.len())
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_');
        if boundary {
            start = Some(pos);
            break;
        }
    }
    let Some(start) = start else {
        return Vec::new();
    };
    let bytes = scrubbed.as_bytes();
    let Some(body_open_rel) = scrubbed.get(start..).and_then(|s| s.find('{')) else {
        return Vec::new();
    };
    let body_open = start + body_open_rel;
    let mut depth = 0usize;
    let mut body_close = bytes.len();
    let mut i = body_open;
    while i < bytes.len() {
        match bytes.get(i) {
            Some(b'{') => depth += 1,
            Some(b'}') => {
                depth -= 1;
                if depth == 0 {
                    body_close = i;
                    break;
                }
            }
            _ => {}
        }
        i += 1;
    }

    // Walk the *raw* lines of the body so doc comments are visible.
    let first_line = line_of(config_src, body_open);
    let last_line = line_of(config_src, body_close);
    let mut fields = Vec::new();
    let mut prev_was_doc = false;
    for (idx, raw) in config_src.lines().enumerate() {
        let lineno = idx + 1;
        if lineno <= first_line || lineno >= last_line {
            continue;
        }
        let t = raw.trim();
        if t.starts_with("///") {
            prev_was_doc = true;
            continue;
        }
        if t.starts_with("#[") || t.is_empty() {
            continue; // attributes/blank lines don't break a doc run
        }
        if let Some(rest) = t.strip_prefix("pub ") {
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            let after = rest.get(name.len()..).map_or("", str::trim_start);
            if let Some(ty) = after.strip_prefix(':').filter(|_| !name.is_empty()) {
                let ty = ty.trim_start();
                let ty = ty.strip_prefix("Vec<").unwrap_or(ty);
                fields.push(ConfigField {
                    name,
                    line: lineno,
                    has_doc: prev_was_doc,
                    ty: ty
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect(),
                });
            }
        }
        prev_was_doc = false;
    }
    fields
}

/// Every field of a named config struct (`Config` itself plus the
/// failure-model sub-structs) must carry a doc comment and be mentioned
/// by name in DESIGN.md (the configuration reference is part of the
/// design contract: a knob nobody documented is a knob nobody decoded
/// from the paper).
pub fn check_struct_docs(config_src: &str, design_md: &str, name: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let fields = struct_fields(config_src, name);
    if fields.is_empty() {
        out.push(Violation {
            file: "crates/terradir/src/config.rs".into(),
            line: 1,
            what: format!("auditor found no `pub struct {name}` fields (parser drift?)"),
        });
        return out;
    }
    for f in &fields {
        if !f.has_doc {
            out.push(Violation {
                file: "crates/terradir/src/config.rs".into(),
                line: f.line,
                what: format!("{name} field `{}` has no doc comment", f.name),
            });
        }
        if !design_md.contains(&f.name) {
            out.push(Violation {
                file: "DESIGN.md".into(),
                line: 1,
                what: format!("{name} field `{}` is not documented in DESIGN.md", f.name),
            });
        }
    }
    out
}

/// The reverse half of the config-docs audit: every backticked field path
/// in the first cell of a DESIGN.md §10 table row (`faults.loss_prob`,
/// `tenants.specs[].weight`) must still resolve, segment by segment, from
/// `Config` through the named sub-struct fields. A row left behind by a
/// deleted or renamed field is reported at its DESIGN.md line. The audit
/// covers §10 up to its first sub-heading.
pub fn check_design_rows(config_src: &str, design_md: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut in_section = false;
    for (idx, line) in design_md.lines().enumerate() {
        if line.starts_with('#') {
            if in_section {
                break;
            }
            in_section = line.starts_with("## 10.");
            continue;
        }
        if !in_section {
            continue;
        }
        let Some(first_cell) = line.strip_prefix('|').and_then(|r| r.split('|').next()) else {
            continue;
        };
        for path in first_cell.split('`').skip(1).step_by(2) {
            if let Some(what) = unresolved_segment(config_src, path) {
                out.push(Violation {
                    file: "DESIGN.md".into(),
                    line: idx + 1,
                    what: format!("§10 row `{path}` names no config field: {what}"),
                });
            }
        }
    }
    out
}

/// Walks `path` from `Config`; describes the first segment that is not a
/// field of the struct reached so far.
fn unresolved_segment(config_src: &str, path: &str) -> Option<String> {
    let mut owner = "Config".to_string();
    for seg in path.split('.') {
        let seg = seg.trim_end_matches("[]");
        let Some(field) = struct_fields(config_src, &owner)
            .into_iter()
            .find(|f| f.name == seg)
        else {
            return Some(format!("`{seg}` is not a field of `{owner}`"));
        };
        owner = field.ty;
    }
    None
}

/// Variant names of `pub enum Message { … }`.
pub fn message_variants(messages_src: &str) -> Vec<String> {
    enum_variants(messages_src, "Message")
}

/// Variant names of any `enum <name> { … }`, public or private (the
/// exhaustiveness pass audits the simulator's private `Event` enum too).
/// The match requires an identifier boundary on both sides of `name`, so
/// `DropKind` does not land on a hypothetical `DropKindSet`.
pub fn enum_variants(src: &str, name: &str) -> Vec<String> {
    let scrubbed = scrub(src);
    let pat = format!("enum {name}");
    let mut start_at = None;
    let mut search = 0;
    while let Some(rel) = scrubbed.get(search..).and_then(|s| s.find(&pat)) {
        let pos = search + rel;
        search = pos + 1;
        let boundary = !scrubbed
            .as_bytes()
            .get(pos + pat.len())
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_');
        if boundary {
            start_at = Some(pos);
            break;
        }
    }
    let Some(start) = start_at else {
        return Vec::new();
    };
    let bytes = scrubbed.as_bytes();
    let Some(open_rel) = scrubbed.get(start..).and_then(|s| s.find('{')) else {
        return Vec::new();
    };
    let mut variants = Vec::new();
    let mut depth = 0usize;
    let mut i = start + open_rel;
    let mut at_variant_start = false;
    while i < bytes.len() {
        match bytes.get(i) {
            Some(b'{') => {
                depth += 1;
                at_variant_start = depth == 1;
            }
            Some(b'}') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
                at_variant_start = depth == 1;
            }
            Some(b',') if depth == 1 => at_variant_start = true,
            Some(c) if depth == 1 && at_variant_start => {
                if c.is_ascii_uppercase() {
                    let mut j = i;
                    while bytes
                        .get(j)
                        .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
                    {
                        j += 1;
                    }
                    if let Some(name) = scrubbed.get(i..j) {
                        variants.push(name.to_string());
                    }
                    i = j;
                    at_variant_start = false;
                    continue;
                } else if !c.is_ascii_whitespace() && *c != b'(' {
                    at_variant_start = false;
                }
            }
            _ => {}
        }
        i += 1;
    }
    variants
}

/// Every `DropKind` variant must be named in the drop-taxonomy test
/// (`tests/partitions.rs::drop_taxonomy_is_fully_accounted`) — a drop
/// class missing from that test is a drop class that could silently
/// fall out of the accounting identity `resolved + dropped == injected`.
pub fn check_drop_kind_accounting(stats_src: &str, test_src: &str) -> Vec<Violation> {
    let variants = enum_variants(stats_src, "DropKind");
    let mut out = Vec::new();
    if variants.is_empty() {
        out.push(Violation {
            file: "crates/terradir/src/stats.rs".into(),
            line: 1,
            what: "auditor found no `pub enum DropKind` variants (parser drift?)".into(),
        });
        return out;
    }
    let scrubbed = scrub(test_src);
    for v in &variants {
        let pat = format!("DropKind::{v}");
        let named = scrubbed.match_indices(&pat).any(|(pos, _)| {
            // Token boundary, so `DropKind::Ttl` is not satisfied by a
            // hypothetical `DropKind::TtlExceeded`.
            !scrubbed
                .as_bytes()
                .get(pos + pat.len())
                .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
        });
        if !named {
            out.push(Violation {
                file: "tests/partitions.rs".into(),
                line: 1,
                what: format!("DropKind::{v} is never named in the drop-taxonomy test"),
            });
        }
    }
    out
}

/// Every `Message` variant must be matched somewhere in `server.rs` —
/// an unhandled variant means a protocol message that silently vanishes
/// (soft state hides the bug: the system still "works", just worse).
pub fn check_message_handlers(messages_src: &str, server_src: &str) -> Vec<Violation> {
    let variants = message_variants(messages_src);
    let mut out = Vec::new();
    if variants.is_empty() {
        out.push(Violation {
            file: "crates/terradir/src/messages.rs".into(),
            line: 1,
            what: "auditor found no `pub enum Message` variants (parser drift?)".into(),
        });
        return out;
    }
    let scrubbed = scrub(server_src);
    for v in &variants {
        let pat = format!("Message::{v}");
        let handled = scrubbed.match_indices(&pat).any(|(pos, _)| {
            // Require a token boundary after the variant name, so
            // `Message::Query` is not satisfied by `Message::QueryResult`.
            !scrubbed
                .as_bytes()
                .get(pos + pat.len())
                .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
        });
        if !handled {
            out.push(Violation {
                file: "crates/terradir/src/server.rs".into(),
                line: 1,
                what: format!("Message::{v} is never matched in server.rs handlers"),
            });
        }
    }
    out
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]
mod tests {
    use super::*;

    // ---- config docs ---------------------------------------------------

    const CONFIG_OK: &str = r"
/// Knobs.
pub struct Config {
    /// Documented.
    pub alpha: u32,
    /// Also documented.
    pub beta: f64,
}
";

    #[test]
    fn documented_fields_in_design_pass() {
        let design = "DESIGN: alpha is the count, beta the rate.";
        assert!(check_struct_docs(CONFIG_OK, design, "Config").is_empty());
    }

    #[test]
    fn missing_doc_comment_is_caught() {
        let src = "pub struct Config {\n    pub naked: u32,\n}\n";
        let vs = check_struct_docs(src, "naked", "Config");
        assert_eq!(vs.len(), 1);
        assert!(vs[0].what.contains("no doc comment"));
        assert_eq!(vs[0].line, 2);
    }

    #[test]
    fn field_absent_from_design_is_caught() {
        let design = "only alpha is described here";
        let vs = check_struct_docs(CONFIG_OK, design, "Config");
        assert_eq!(vs.len(), 1);
        assert!(vs[0].what.contains("beta"));
        assert!(vs[0].what.contains("DESIGN.md"));
    }

    #[test]
    fn parser_drift_is_loud_not_silent() {
        // If Config is renamed the check must fail, not vacuously pass.
        let vs = check_struct_docs("pub struct Settings { pub a: u32 }", "a", "Config");
        assert_eq!(vs.len(), 1);
        assert!(vs[0].what.contains("parser drift"));
    }

    #[test]
    fn struct_fields_respects_identifier_boundaries() {
        // Asking for `Config` must skip `ConfigField` and land on the
        // real struct even when the decoy comes first.
        let src = "pub struct ConfigField {\n    pub decoy: u32,\n}\npub struct Config {\n    /// Doc.\n    pub real: u32,\n}\n";
        let fields = struct_fields(src, "Config");
        assert_eq!(fields.len(), 1);
        assert_eq!(fields[0].name, "real");
        let sub = struct_fields(src, "ConfigField");
        assert_eq!(sub.len(), 1);
        assert_eq!(sub[0].name, "decoy");
    }

    #[test]
    fn sub_struct_docs_are_audited_by_name() {
        let src = "pub struct FaultConfig {\n    /// Documented.\n    pub loss_prob: f64,\n    pub jitter: f64,\n}\n";
        let vs = check_struct_docs(src, "loss_prob jitter", "FaultConfig");
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].what.contains("FaultConfig field `jitter`"));
        // A missing struct is loud, not vacuous.
        let vs = check_struct_docs(src, "", "RetryConfig");
        assert_eq!(vs.len(), 1);
        assert!(vs[0].what.contains("parser drift"));
    }

    #[test]
    fn design_rows_resolve_through_sub_structs() {
        let src = "pub struct Config {\n    /// F.\n    pub faults: FaultConfig,\n    /// S.\n    pub specs: Vec<TenantSpec>,\n}\npub struct FaultConfig {\n    /// L.\n    pub loss_prob: f64,\n}\npub struct TenantSpec {\n    /// W.\n    pub weight: f64,\n}\n";
        let design = "## 10. Config\n| `faults.loss_prob` | x |\n| `specs[].weight`, `faults` | y |\n| `faults.dead_ttl` | z |\n| `specs[].weight.bits` | w |\n";
        let vs = check_design_rows(src, design);
        assert_eq!(vs.len(), 2, "{vs:?}");
        assert_eq!(vs[0].line, 4);
        assert!(vs[0]
            .what
            .contains("`dead_ttl` is not a field of `FaultConfig`"));
        assert_eq!(vs[1].line, 5);
        assert!(vs[1].what.contains("`bits` is not a field of `f64`"));
    }

    #[test]
    fn attributes_do_not_break_a_doc_run() {
        let src =
            "pub struct Config {\n    /// Doc.\n    #[allow(dead_code)]\n    pub a: u32,\n}\n";
        assert!(check_struct_docs(src, "a", "Config").is_empty());
    }

    // ---- message handlers ----------------------------------------------

    const MESSAGES: &str = r"
pub enum Message {
    Query(u32),
    QueryResult { id: u64 },
    LoadProbe { from: u32 },
}
";

    #[test]
    fn all_variants_handled_passes() {
        let server = "match m { Message::Query(_) => {} Message::QueryResult { .. } => {} Message::LoadProbe { .. } => {} }";
        assert!(check_message_handlers(MESSAGES, server).is_empty());
    }

    #[test]
    fn unhandled_variant_is_caught() {
        let server =
            "match m { Message::Query(_) => {} Message::QueryResult { .. } => {} _ => {} }";
        let vs = check_message_handlers(MESSAGES, server);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].what.contains("LoadProbe"));
    }

    #[test]
    fn prefix_variant_names_are_not_confused() {
        // `Message::Query` handled must not satisfy `QueryResult`, and
        // vice versa: `QueryResult` alone must not satisfy `Query`.
        let server = "match m { Message::QueryResult { .. } => {} _ => {} }";
        let vs = check_message_handlers(MESSAGES, server);
        let names: Vec<&str> = vs.iter().map(|v| v.what.as_str()).collect();
        assert!(names.iter().any(|w| w.contains("Message::Query is")));
        assert!(names.iter().any(|w| w.contains("Message::LoadProbe")));
        assert_eq!(vs.len(), 2);
    }

    #[test]
    fn variant_parser_reads_real_shape() {
        let vs = message_variants(MESSAGES);
        assert_eq!(vs, vec!["Query", "QueryResult", "LoadProbe"]);
    }

    // ---- drop-kind accounting -------------------------------------------

    const STATS: &str = r"
pub enum DropKind {
    Queue,
    Ttl,
    Shed,
}
";

    #[test]
    fn enum_variants_respects_identifier_boundaries() {
        let src = "pub enum DropKindSet { Decoy }\npub enum DropKind { Queue, Ttl }\n";
        assert_eq!(enum_variants(src, "DropKind"), vec!["Queue", "Ttl"]);
        assert_eq!(enum_variants(src, "DropKindSet"), vec!["Decoy"]);
    }

    #[test]
    fn fully_named_taxonomy_passes() {
        let test = "let ks = [DropKind::Queue, DropKind::Ttl, DropKind::Shed];";
        assert!(check_drop_kind_accounting(STATS, test).is_empty());
    }

    #[test]
    fn missing_taxonomy_variant_is_caught() {
        let test = "let ks = [DropKind::Queue, DropKind::Ttl];";
        let vs = check_drop_kind_accounting(STATS, test);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].what.contains("DropKind::Shed"));
    }

    #[test]
    fn taxonomy_prefix_names_are_not_confused() {
        // `DropKind::TtlExceeded` must not satisfy `DropKind::Ttl`.
        let test = "[DropKind::Queue, DropKind::TtlExceeded, DropKind::Shed]";
        let vs = check_drop_kind_accounting(STATS, test);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].what.contains("DropKind::Ttl is"));
    }

    #[test]
    fn drop_kind_parser_drift_is_loud_not_silent() {
        let vs = check_drop_kind_accounting("pub enum Drops { A }", "DropKind::A");
        assert_eq!(vs.len(), 1);
        assert!(vs[0].what.contains("parser drift"));
    }
}
