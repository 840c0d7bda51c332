//! The benchmark's own guarantees: slicing the event loop changes
//! nothing, and the traced run's probes leave behaviour unchanged.

use terradir::System;
use terradir_simbench::run::run;
use terradir_simbench::trace::Tracer;
use terradir_simbench::workloads::{adapt_bcr, base_unif, churn_store, Workload};

/// Runs `w`'s injection phase in `run_until` calls of `step` simulated
/// seconds and returns the Summary, the RNG-draw ledger and the
/// allocation ledger.
fn sliced(w: &Workload, seed: u64, step: f64) -> (String, Vec<u64>, u64, u64) {
    let mut sys = System::new(w.namespace(), w.config(seed), w.plan.clone(), w.rate);
    let horizon = f64::from(w.horizon);
    let mut i = 1.0;
    while i * step < horizon {
        sys.run_until(i * step);
        i += 1.0;
    }
    sys.run_until(horizon);
    let st = sys.stats();
    (
        st.summary().to_json(),
        st.rng_draws.clone(),
        st.alloc_events,
        st.alloc_bytes,
    )
}

#[test]
fn slicing_run_until_changes_nothing() {
    let w = adapt_bcr(256, 4, 3);
    let whole = sliced(&w, 42, f64::from(w.horizon));
    assert!(whole.2 > 0, "the allocation ledger is installed");
    for step in [1.0, 0.1] {
        assert_eq!(sliced(&w, 42, step), whole, "slices of {step} s");
    }
}

#[test]
fn traced_and_untraced_runs_agree() {
    for w in [adapt_bcr(64, 3, 2), base_unif(64, 4), churn_store(64, 40)] {
        let plain = run(&w, 7, 0.0, None);
        let mut tracer = Tracer::new(w.name.clone());
        let traced = run(&w, 7, 0.0, Some(&mut tracer));
        assert_eq!(plain.gate_failures, Vec::<String>::new(), "{}", w.name);
        assert_eq!(traced.gate_failures, Vec::<String>::new(), "{}", w.name);
        assert_eq!(
            plain.first().fingerprint,
            traced.first().fingerprint,
            "{}: probes changed the simulation",
            w.name
        );
        assert!(tracer.named("probe").count() > 0, "{}", w.name);
        assert!(traced.probes.is_some() && plain.probes.is_none());
    }
}
