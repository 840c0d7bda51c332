//! What the passes share: the [`Violation`] record they report and the
//! struct-field parser the conservation and dead-config passes walk.

use crate::lexer::{line_of, scrub};

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

/// A field parsed out of a `pub struct` (`Config`, `RunStats`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigField {
    /// Field identifier.
    pub name: String,
    /// 1-based line of the declaration.
    pub line: usize,
}

/// Extracts the public fields of `pub struct <name> { … }`. The match
/// requires an identifier boundary after `name`, so asking for `Config`
/// does not land on `ConfigField`.
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

    // Walk the scrubbed lines of the body: comments and attributes are
    // blank or non-`pub`, so each `pub name:` line is one field.
    let first_line = line_of(config_src, body_open);
    let last_line = line_of(config_src, body_close);
    let mut fields = Vec::new();
    for (idx, line) in scrubbed.lines().enumerate() {
        let lineno = idx + 1;
        if lineno <= first_line || lineno >= last_line {
            continue;
        }
        let Some(rest) = line.trim().strip_prefix("pub ") else {
            continue;
        };
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        let after = rest.get(name.len()..).map_or("", str::trim_start);
        if !name.is_empty() && after.starts_with(':') {
            fields.push(ConfigField { name, line: lineno });
        }
    }
    fields
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
    fn attributes_and_comments_do_not_hide_or_fake_a_field() {
        let src = "pub struct Config {\n    /// Doc naming pub ghost: u32.\n    #[allow(dead_code)]\n    pub a: u32,\n    /* pub b: u32, */\n    pub c: Vec<(u32, u32)>,\n}\n";
        let fields = struct_fields(src, "Config");
        let got: Vec<(&str, usize)> = fields.iter().map(|f| (f.name.as_str(), f.line)).collect();
        assert_eq!(got, vec![("a", 4), ("c", 6)]);
    }
}
