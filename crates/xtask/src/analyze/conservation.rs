//! Counter-conservation pass: every statistic flows from behavior code
//! into an observable artifact, with no dead counters.
//!
//! The accounting identity (`resolved + dropped == injected`, attempt
//! decomposition, the draw ledger) is only trustworthy if every counter
//! in [`RunStats`] is (a) actually *fed* by behavior code and (b)
//! *emitted*: read by a row of the `summary!` table in `stats.rs` (and
//! hence every `BENCH_*.json` / `--json` output, since that table
//! generates `Summary` and its single JSON emitter) or directly by the
//! bench/CLI harnesses. Drift in either direction is an error:
//!
//! - fed but never emitted: a counter nobody can observe,
//! - emitted but never fed: a column of zeros masquerading as data.
//!
//! rustc cannot catch either, because every field is `pub`. What the
//! table itself guarantees — `Summary` fields, `to_json` keys and row
//! sources agree — is left to the compiler, and field documentation to
//! `missing_docs`.
//!
//! "Fed" and "emitted" each tolerate one transitive level through
//! `stats.rs` itself: a field mutated only inside a recorder method
//! (e.g. `on_drop`) counts as fed when that recorder is called from
//! behavior code, and a field read only inside an accessor
//! (e.g. `dropped_total`, `availability`) counts as emitted when a table
//! row or a harness calls that accessor.

use crate::checks::{struct_fields, Violation};
use crate::lexer::{cfg_test_ranges, scrub};

/// Scrubs a source file and blanks its `#[cfg(test)]` module bodies, so
/// token searches see only behavior code.
pub fn behavior_text(src: &str) -> String {
    let mut scrubbed = scrub(src);
    let ranges = cfg_test_ranges(&scrubbed);
    let mut bytes = scrubbed.as_bytes().to_vec();
    for (lo, hi) in ranges {
        for b in bytes.iter_mut().take(hi).skip(lo) {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    }
    scrubbed = String::from_utf8_lossy(&bytes).into_owned();
    scrubbed
}

fn ident_boundary_after(text: &str, end: usize) -> bool {
    !text
        .as_bytes()
        .get(end)
        .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
}

/// Whether `.field` appears as a complete token (field access) in `text`.
pub fn has_field_access(text: &str, field: &str) -> bool {
    let pat = format!(".{field}");
    let mut search = 0;
    while let Some(rel) = text.get(search..).and_then(|s| s.find(&pat)) {
        let pos = search + rel;
        search = pos + 1;
        if ident_boundary_after(text, pos + pat.len()) {
            return true;
        }
    }
    false
}

/// Whether `.name(` appears in `text` (a method call on something).
pub fn has_method_call(text: &str, name: &str) -> bool {
    text.contains(&format!(".{name}("))
}

/// The brace-balanced block of scrubbed source opening at byte `open`
/// (to the end of the text if it never closes).
fn block_at(scrubbed: &str, open: usize) -> &str {
    let mut depth = 0usize;
    for (j, b) in scrubbed.bytes().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return scrubbed.get(open..=j).unwrap_or("");
                }
            }
            _ => {}
        }
    }
    scrubbed.get(open..).unwrap_or("")
}

/// `(name, body)` for every `fn` with a block body in scrubbed source.
pub fn fn_bodies(scrubbed: &str) -> Vec<(String, String)> {
    let bytes = scrubbed.as_bytes();
    let mut out = Vec::new();
    let mut search = 0;
    while let Some(rel) = scrubbed.get(search..).and_then(|s| s.find("fn ")) {
        let pos = search + rel;
        search = pos + 3;
        let bounded = pos == 0
            || !bytes
                .get(pos - 1)
                .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_');
        if !bounded {
            continue;
        }
        let name: String = scrubbed
            .get(pos + 3..)
            .map(|s| {
                s.chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect()
            })
            .unwrap_or_default();
        if name.is_empty() {
            continue;
        }
        // Find the body opener, stopping at `;` (a bodiless signature).
        let mut i = pos + 3 + name.len();
        let mut paren = 0usize;
        let mut open = None;
        while i < bytes.len() {
            match bytes[i] {
                b'(' => paren += 1,
                b')' => paren = paren.saturating_sub(1),
                b'{' if paren == 0 => {
                    open = Some(i);
                    break;
                }
                b';' if paren == 0 => break,
                _ => {}
            }
            i += 1;
        }
        let Some(open) = open else { continue };
        out.push((name, block_at(scrubbed, open).to_string()));
        search = open;
    }
    out
}

/// The body of the `summary!` table invocation in scrubbed source: the
/// rows whose value expressions are the `Summary`'s reads of `RunStats`.
pub fn summary_table(scrubbed: &str) -> Option<&str> {
    let bytes = scrubbed.as_bytes();
    let mut search = 0;
    while let Some(rel) = scrubbed.get(search..).and_then(|s| s.find("summary!")) {
        let pos = search + rel;
        search = pos + 1;
        let bounded = pos == 0
            || !bytes
                .get(pos - 1)
                .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_');
        let rest = scrubbed.get(pos + "summary!".len()..).unwrap_or("");
        if bounded && rest.trim_start().starts_with('{') {
            let open = scrubbed.len() - rest.trim_start().len();
            return Some(block_at(scrubbed, open));
        }
    }
    None
}

/// Runs the conservation pass.
///
/// - `stats_src`: raw `crates/terradir/src/stats.rs`;
/// - `writers`: `(label, source)` for every non-test behavior file that
///   may feed counters (protocol, simulator, live substrate — everything
///   except `stats.rs` itself);
/// - `emitters`: `(label, source)` for the bench and CLI harnesses.
pub fn check_conservation(
    stats_src: &str,
    writers: &[(String, String)],
    emitters: &[(String, String)],
) -> Vec<Violation> {
    let mut out = Vec::new();
    let stats_label = "crates/terradir/src/stats.rs";
    let fields = struct_fields(stats_src, "RunStats");
    let stats_text = behavior_text(stats_src);
    let table = summary_table(&stats_text).unwrap_or_default();
    if fields.is_empty() || table.is_empty() {
        out.push(Violation {
            file: stats_label.into(),
            line: 1,
            what: "auditor found no RunStats fields or summary! table (parser drift?)".into(),
        });
        return out;
    }

    let writer_texts: Vec<String> = writers.iter().map(|(_, s)| behavior_text(s)).collect();
    // The summary! rows read RunStats exactly as a harness would.
    let mut emitter_texts: Vec<String> = emitters.iter().map(|(_, s)| behavior_text(s)).collect();
    emitter_texts.push(table.to_string());
    let stats_fns = fn_bodies(&stats_text);

    // Stats fns invoked from behavior code / from the table or harnesses.
    let fed_fns: Vec<&(String, String)> = stats_fns
        .iter()
        .filter(|(name, _)| writer_texts.iter().any(|t| has_method_call(t, name)))
        .collect();
    let emitting_fns: Vec<&(String, String)> = stats_fns
        .iter()
        .filter(|(name, _)| emitter_texts.iter().any(|t| has_method_call(t, name)))
        .collect();

    for f in &fields {
        let fed_direct = writer_texts.iter().any(|t| has_field_access(t, &f.name));
        let fed_via_recorder = fed_fns
            .iter()
            .any(|(_, body)| has_field_access(body, &f.name));
        if !fed_direct && !fed_via_recorder {
            out.push(Violation {
                file: stats_label.into(),
                line: f.line,
                what: format!(
                    "RunStats field `{}` is never fed: no behavior code writes it, \
                     directly or via a stats.rs recorder",
                    f.name
                ),
            });
        }

        let read_direct = emitter_texts.iter().any(|t| has_field_access(t, &f.name));
        let read_via_accessor = emitting_fns
            .iter()
            .any(|(_, body)| has_field_access(body, &f.name));
        if !read_direct && !read_via_accessor {
            out.push(Violation {
                file: stats_label.into(),
                line: f.line,
                what: format!(
                    "RunStats field `{}` is never emitted: no summary! row and \
                     no bench/CLI harness reads it",
                    f.name
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATS_OK: &str = r#"
pub struct RunStats {
    /// A.
    pub injected: u64,
    /// B.
    pub dropped_queue: u64,
}
impl RunStats {
    pub fn dropped_total(&self) -> u64 { self.dropped_queue }
    pub fn on_drop(&mut self) { self.dropped_queue += 1; }
}
summary! {
    s;
    /// A.
    injected: u64 = s.injected, "{}";
}
"#;

    fn src(label: &str, s: &str) -> Vec<(String, String)> {
        vec![(label.to_string(), s.to_string())]
    }

    #[test]
    fn conserved_counters_pass() {
        let writers = src(
            "sys.rs",
            "fn f(st: &mut RunStats) { st.injected += 1; st.on_drop(); }",
        );
        let emitters = src(
            "bench.rs",
            "fn g(st: &RunStats) { let _ = st.dropped_total(); }",
        );
        let vs = check_conservation(STATS_OK, &writers, &emitters);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn unfed_and_unemitted_counters_are_caught() {
        let writers = src("sys.rs", "fn f(st: &mut RunStats) { st.injected += 1; }");
        let emitters = src("bench.rs", "fn g() {}");
        let vs = check_conservation(STATS_OK, &writers, &emitters);
        let whats: Vec<&str> = vs.iter().map(|v| v.what.as_str()).collect();
        assert!(
            whats
                .iter()
                .any(|w| w.contains("`dropped_queue` is never fed")),
            "{whats:?}"
        );
        assert!(
            whats
                .iter()
                .any(|w| w.contains("`dropped_queue` is never emitted")),
            "{whats:?}"
        );
        // The violation points at the field's declaration line.
        let v = vs.iter().find(|v| v.what.contains("never fed")).unwrap();
        assert_eq!(v.line, 6);
    }

    #[test]
    fn table_rows_emit_through_fields_and_accessors() {
        // A row that calls an accessor emits what the accessor reads.
        let stats = STATS_OK.replace(
            "injected: u64 = s.injected",
            "injected: u64 = s.injected + s.dropped_total()",
        );
        let writers = src(
            "sys.rs",
            "fn f(st: &mut RunStats) { st.injected += 1; st.on_drop(); }",
        );
        let vs = check_conservation(&stats, &writers, &src("bench.rs", "fn g() {}"));
        assert!(vs.is_empty(), "{vs:?}");
        // The macro definition's pattern is not mistaken for the table.
        let scrubbed = behavior_text(&format!("macro_rules! summary {{ () => {{}} }}\n{stats}"));
        assert!(summary_table(&scrubbed).unwrap().contains("s.injected"));
        // No table at all is loud, not vacuous.
        let vs = check_conservation("pub struct RunStats {\n    pub a: u64,\n}", &[], &[]);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].what.contains("parser drift"), "{vs:?}");
    }

    #[test]
    fn fn_bodies_finds_recorders() {
        let fns = fn_bodies(&behavior_text(STATS_OK));
        let names: Vec<&str> = fns.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"on_drop"));
        assert!(names.contains(&"dropped_total"));
        let on_drop = fns.iter().find(|(n, _)| n == "on_drop").unwrap();
        assert!(has_field_access(&on_drop.1, "dropped_queue"));
    }
}
