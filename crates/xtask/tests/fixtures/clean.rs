// Fixture: behavior code that every pass must accept — a fully
// conserved counter and a live knob.
pub struct RunStats {
    /// Fed below and read by the summary! table.
    pub injected: u64,
}

impl RunStats {
    pub fn on_inject(&mut self) {
        self.injected += 1;
    }
}

summary! {
    s;
    /// Queries injected.
    injected: u64 = s.injected, "{}";
}

pub struct Config {
    /// Read by `drive` below.
    pub live_knob: bool,
}

pub fn drive(cfg: &Config, st: &mut RunStats) -> &'static str {
    if cfg.live_knob {
        st.on_inject();
    }
    "HashMap::new in a string is fine"
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_are_exempt() {
        let _ = std::collections::HashMap::<u8, u8>::new();
    }
}
