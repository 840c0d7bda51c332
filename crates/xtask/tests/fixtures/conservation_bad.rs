// Fixture: a miniature stats.rs with a seeded conservation violation.
// `ghost_counter` (line 9) is fed by nothing and read by no summary!
// row and no harness. `injected` is fed by the fixture's writer and
// read by the table, so it stays clean.
pub struct RunStats {
    /// Queries injected.
    pub injected: u64,
    /// A counter nothing feeds and nothing emits.
    pub ghost_counter: u64,
}

summary! {
    s;
    /// Queries injected.
    injected: u64 = s.injected, "{}";
}
