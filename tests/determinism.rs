// Integration surface: panicking on unexpected state is the correct failure mode here.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]

//! Whole-run determinism: identical seeds must reproduce identical
//! statistics bit-for-bit across every subsystem combination — the property
//! that makes every number in EXPERIMENTS.md reproducible.

use terradir_repro::namespace::{balanced_tree, coda_like, CodaParams, ServerId};
use terradir_repro::protocol::{Config, System};
use terradir_repro::workload::{seeded_rng, StreamPlan};

/// Fingerprint of a run: headline counters plus the full per-tag RNG draw
/// ledger, so the replay arms of every test below also assert that each
/// tagged stream was consumed *exactly* as often — the runtime cross-check
/// behind `cargo xtask analyze`'s static stream discipline (DESIGN.md §15).
#[allow(clippy::type_complexity)]
fn fingerprint(sys: &System) -> (u64, u64, u64, u64, u64, Option<f64>, Option<f64>, Vec<u64>) {
    let st = sys.stats();
    (
        st.injected,
        st.resolved,
        st.dropped_total(),
        st.replicas_created,
        st.control_messages,
        st.latency.mean(),
        st.hops.mean(),
        st.rng_draws.clone(),
    )
}

#[test]
fn full_protocol_run_is_bit_reproducible() {
    let run = || {
        let ns = balanced_tree(2, 6);
        let cfg = Config::paper_default(16).with_seed(77);
        let mut sys = System::new(ns, cfg, StreamPlan::adaptation(1.25, 5.0, 2, 10.0), 150.0);
        sys.run_until(25.0);
        fingerprint(&sys)
    };
    assert_eq!(run(), run());
}

#[test]
fn coda_namespace_runs_are_reproducible() {
    let run = || {
        let params = CodaParams {
            nodes: 1000,
            ..CodaParams::default()
        };
        let mut rng = seeded_rng(5, 8);
        let ns = coda_like(&params, &mut rng);
        let cfg = Config::paper_default(8).with_seed(5);
        let mut sys = System::new(ns, cfg, StreamPlan::uzipf(1.0, 15.0), 60.0);
        sys.run_until(15.0);
        fingerprint(&sys)
    };
    assert_eq!(run(), run());
}

#[test]
fn failure_injection_is_reproducible() {
    let run = || {
        let ns = balanced_tree(2, 5);
        let cfg = Config::paper_default(8).with_seed(3);
        let mut sys = System::new(ns, cfg, StreamPlan::unif(20.0), 60.0);
        sys.run_until(8.0);
        sys.fail_server(ServerId(2));
        sys.run_until(20.0);
        fingerprint(&sys)
    };
    assert_eq!(run(), run());
}

#[test]
fn heterogeneity_and_static_bootstrap_are_reproducible() {
    let run = || {
        let ns = balanced_tree(2, 5);
        let mut cfg = Config::paper_default(8).with_seed(11);
        cfg.speed_spread = 3.0;
        cfg.static_top_levels = 2;
        let mut sys = System::new(ns, cfg, StreamPlan::uzipf(1.2, 15.0), 60.0);
        sys.run_until(15.0);
        fingerprint(&sys)
    };
    assert_eq!(run(), run());
}

#[test]
fn lease_sweep_and_misroute_repair_replay_bitwise() {
    use terradir_repro::protocol::{ChaosAction, ScenarioEvent};
    let run = || {
        let ns = balanced_tree(2, 6);
        let mut cfg = Config::paper_default(16).with_seed(21);
        cfg.retry.enabled = true;
        cfg.leases.enabled = true;
        cfg.leases.ttl = 6.0;
        cfg.leases.misroute = true;
        cfg.reconcile.enabled = true;
        cfg.partitions.n_groups = 2;
        cfg.scenario.events = vec![
            ScenarioEvent {
                at: 5.0,
                action: ChaosAction::Cut { groups: vec![1] },
            },
            ScenarioEvent {
                at: 10.0,
                action: ChaosAction::Heal,
            },
            ScenarioEvent {
                at: 14.0,
                action: ChaosAction::CorrelatedCrash { fraction: 0.4 },
            },
            ScenarioEvent {
                at: 18.0,
                action: ChaosAction::Recover,
            },
        ];
        let mut sys = System::new(ns, cfg, StreamPlan::unif(25.0), 80.0);
        sys.run_until(25.0);
        let st = sys.stats();
        (
            fingerprint(&sys),
            st.misroutes,
            st.detour_hops,
            st.lease_evictions,
            st.reconcile_pushes,
        )
    };
    let a = run();
    assert_eq!(a, run());
    // The replayed run must actually exercise the self-healing machinery:
    // the sweep fires (ttl 6 < horizon) and the heal/recover pushes flow.
    assert!(a.3 > 0, "lease sweep never evicted: {a:?}");
    assert!(a.4 > 0, "reconciliation never pushed: {a:?}");
}

/// The full `RunStats` debug rendering minus the trailing allocation
/// ledger, which counts host allocator activity: one-time lazy
/// initialization lands in whichever arm runs first on a thread.
fn stats_debug(sys: &System) -> String {
    let full = format!("{:?}", sys.stats());
    full.split(", alloc_events:").next().unwrap().to_string()
}

#[test]
fn disabled_gossip_ignores_every_gossip_knob() {
    use terradir_repro::protocol::GossipCulture;
    let run = |culture: GossipCulture, fanout: u32, window: u32| {
        let ns = balanced_tree(2, 5);
        let mut cfg = Config::paper_default(16).with_seed(17);
        cfg.retry.enabled = true;
        cfg.storage.enabled = true;
        cfg.storage.write_rate = 10.0;
        cfg.churn.enabled = true;
        cfg.churn.start = 2.0;
        cfg.churn.stop = 14.0;
        cfg.churn.mean_uptime = 10.0;
        cfg.churn.mean_downtime = 2.0;
        cfg.gossip.enabled = false;
        cfg.gossip.culture = culture;
        cfg.gossip.fanout = fanout;
        cfg.gossip.window = window;
        cfg.gossip.interval = 0.05;
        let mut sys = System::new(ns, cfg, StreamPlan::uzipf(1.0, 20.0), 80.0);
        sys.run_until(15.0);
        sys.set_injection(false);
        sys.run_until(20.0);
        assert_eq!(sys.stats().gossip_bytes, 0, "gossip-off run sent gossip");
        stats_debug(&sys)
    };
    assert_eq!(
        run(GossipCulture::Chatty, 1, 1),
        run(GossipCulture::Hybrid, 7, 512),
        "gossip knobs leaked into a disabled subsystem"
    );
}

#[test]
fn roles_tenants_and_flash_crowd_replay_bitwise() {
    use terradir_repro::protocol::{ChaosAction, ScenarioEvent, TenantSpec};
    let run = || {
        let ns = balanced_tree(2, 6);
        let mut cfg = Config::paper_default(16).with_seed(31);
        cfg.retry.enabled = true;
        cfg.roles.enabled = true;
        cfg.tenants.enabled = true;
        cfg.tenants.cut_depth = 2;
        for (weight, zipf_theta) in [(4.0, 0.9), (2.0, 0.5), (1.0, 0.0)] {
            cfg.tenants.specs.push(TenantSpec {
                weight,
                zipf_theta,
                slo_availability: 0.9,
            });
        }
        cfg.scenario.events = vec![
            ScenarioEvent {
                at: 4.0,
                action: ChaosAction::FlashCrowd {
                    node: 7,
                    rate_multiplier: 4.0,
                },
            },
            ScenarioEvent {
                at: 9.0,
                action: ChaosAction::FlashCrowd {
                    node: 7,
                    rate_multiplier: 1.0,
                },
            },
        ];
        cfg.validate().unwrap();
        let mut sys = System::new(ns, cfg, StreamPlan::unif(15.0), 120.0);
        sys.run_until(12.0);
        sys.set_injection(false);
        sys.run_until(15.0);
        assert!(sys.stats().flash_injected > 0, "flash crowd never fired");
        stats_debug(&sys)
    };
    assert_eq!(run(), run(), "roles+tenants crowd run is not replayable");
}

#[test]
fn draw_ledger_is_equal_across_replay_and_accounts_every_stream() {
    use terradir_repro::workload::seed::tags;
    let run = || {
        let ns = balanced_tree(2, 6);
        let mut cfg = Config::paper_default(16).with_seed(42);
        cfg.speed_spread = 2.0;
        cfg.static_top_levels = 1;
        let mut sys = System::new(ns, cfg, StreamPlan::adaptation(1.2, 3.0, 2, 5.0), 120.0);
        sys.run_until(14.0);
        sys.stats().rng_draws.clone()
    };
    let ledger = run();
    assert_eq!(ledger, run(), "per-tag draw counts must replay identically");
    assert_eq!(ledger.len(), tags::LEDGER_SLOTS);
    // Every stream this configuration exercises must actually be drawn
    // from — a silently idle stream means the ledger is not wired up.
    for tag in [
        tags::MAPPING,
        tags::ARRIVALS,
        tags::DESTINATIONS,
        tags::SERVICE,
        tags::RANKING,
        tags::PROTOCOL,
        tags::SOURCES,
        tags::SPEEDS,
        tags::STATIC,
    ] {
        let n = ledger.get(tag as usize).copied().unwrap_or(0);
        assert!(
            n > 0,
            "stream `{}` drew nothing: {ledger:?}",
            tags::name(tag)
        );
    }
    // The fault stream must stay silent on a fault-free run: drawing from
    // it would perturb replay of every chaos scenario sharing the seed.
    assert_eq!(
        ledger.get(tags::FAULTS as usize).copied(),
        Some(0),
        "fault stream consumed on a fault-free run: {ledger:?}"
    );
}

#[test]
fn faulty_runs_spend_fault_randomness_reproducibly() {
    use terradir_repro::workload::seed::tags;
    let run = || {
        let ns = balanced_tree(2, 5);
        let mut cfg = Config::paper_default(8).with_seed(13);
        cfg.faults.loss_prob = 0.05;
        cfg.retry.enabled = true;
        let mut sys = System::new(ns, cfg, StreamPlan::unif(20.0), 60.0);
        sys.run_until(12.0);
        sys.stats().rng_draws.clone()
    };
    let ledger = run();
    assert_eq!(ledger, run());
    let faults = ledger.get(tags::FAULTS as usize).copied().unwrap_or(0);
    assert!(faults > 0, "loss injection must draw from the fault stream");
}

#[test]
fn alloc_ledger_replays_bitwise() {
    let run = || {
        let ns = balanced_tree(2, 6);
        let cfg = Config::paper_default(16).with_seed(99);
        let mut sys = System::new(ns, cfg, StreamPlan::adaptation(1.25, 5.0, 2, 10.0), 150.0);
        sys.run_until(20.0);
        let st = sys.stats();
        (st.alloc_events, st.alloc_bytes, fingerprint(&sys))
    };
    // Warm-up arm: absorbs one-time lazy initialization on this thread
    // (allocator internals, interner pools, TLS registration) so the two
    // measured arms start from identical allocator-visible state.
    let _ = run();
    let a = run();
    let b = run();
    assert_eq!(
        a, b,
        "identical seeds must charge the allocation ledger identically"
    );
    // The workspace enables the `alloc-ledger` feature through the façade,
    // so the counting allocator is installed here: a zero ledger would mean
    // the run_until snapshot delta is not wired up.
    assert!(
        a.0 > 0,
        "alloc_events stayed zero with the ledger installed"
    );
    assert!(a.1 > 0, "alloc_bytes stayed zero with the ledger installed");
}

#[test]
fn different_seeds_give_different_runs() {
    let run = |seed| {
        let ns = balanced_tree(2, 5);
        let cfg = Config::paper_default(8).with_seed(seed);
        let mut sys = System::new(ns, cfg, StreamPlan::uzipf(1.0, 10.0), 60.0);
        sys.run_until(10.0);
        fingerprint(&sys)
    };
    assert_ne!(run(1), run(2));
}
