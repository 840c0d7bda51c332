// Fixture: behavior code that every pass must accept — a fully
// conserved counter, a live knob, and an exhaustively consumed enum.
pub struct RunStats {
    /// Fed below, mirrored in Summary, documented in the fixture table.
    pub injected: u64,
}

impl RunStats {
    pub fn on_inject(&mut self) {
        self.injected += 1;
    }

    pub fn summary(&self) -> Summary {
        Summary {
            injected: self.injected,
        }
    }
}

pub struct Summary {
    /// Queries injected.
    pub injected: u64,
}

impl Summary {
    pub fn to_json(&self) -> String {
        format!("{{\"injected\":{}}}", self.injected)
    }
}

pub struct Config {
    /// Read by `drive` below.
    pub live_knob: bool,
}

enum Event {
    Inject,
    Deliver,
}

pub fn drive(cfg: &Config, st: &mut RunStats, e: Event) -> &'static str {
    if cfg.live_knob {
        match e {
            Event::Inject => st.on_inject(),
            Event::Deliver => {}
        }
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
