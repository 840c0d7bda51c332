// Experiment harness binary: aborting on unexpected state is the correct failure mode.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]
// Wall-clock throughput is the quantity this bench measures.
#![allow(clippy::disallowed_methods)]

//! **Speed baseline** — simulator throughput and allocation pressure
//! (DESIGN.md §16).
//!
//! Runs the paper-default adaptation workload at 256 and 1024 servers
//! (override with `--servers N` for one size; `--full` adds 4096) and
//! reports, per size:
//!
//! - `events_per_sec` — simulated events processed per wall-clock second;
//! - `wall_s_per_sim_s` — wall-clock seconds spent per simulated second;
//! - `allocs_per_event` / `alloc_bytes_per_event` — allocation-ledger
//!   pressure per event (the bench crate installs the counting global
//!   allocator, so these are live, not zeros).
//!
//! Emits `BENCH_speed.json` so CI artifacts track throughput and
//! allocation regressions run over run. Wall-clock numbers vary with the
//! host; the allocation numbers are seed-deterministic, and the spliced
//! protocol summary proves the measured runs did real routing work.

use std::time::Instant;

use terradir::System;
use terradir_bench::{tsv_header, tsv_row, write_bench_json, Args, JsonObj, Scale, ShapeChecks};
use terradir_workload::StreamPlan;

struct Measurement {
    servers: u32,
    events: u64,
    sim_s: f64,
    wall_s: f64,
    alloc_events: u64,
    alloc_bytes: u64,
    json: JsonObj,
}

fn measure(servers: u32, time_mult: f64, seed: u64) -> Measurement {
    let scale = Scale::for_servers(servers, time_mult);
    let rate = scale.rate(20_000.0);
    let total = scale.duration(30.0);
    let warmup = scale.duration(10.0).min(total / 2.0);
    let plan = StreamPlan::adaptation(1.25, warmup, 2, ((total - warmup) / 2.0).max(1.0));
    // Construction (namespace build, bootstrap assignment) happens before
    // the clock starts: the baseline prices the event loop, not setup.
    let mut sys = System::new(scale.ts_namespace(), scale.config(seed), plan, rate);
    let wall = Instant::now();
    sys.run_until(total);
    let wall_s = wall.elapsed().as_secs_f64();
    let events = sys.events_processed();
    let st = sys.stats();
    let per_event = |x: u64| {
        if events == 0 {
            0.0
        } else {
            x as f64 / events as f64
        }
    };
    let json = JsonObj::new()
        .int("servers", u64::from(scale.servers))
        .num("sim_s", total)
        .num("wall_s", wall_s)
        .int("events", events)
        .num("events_per_sec", events as f64 / wall_s.max(1e-9))
        .num("wall_s_per_sim_s", wall_s / total)
        .int("alloc_events", st.alloc_events)
        .int("alloc_bytes", st.alloc_bytes)
        .num("allocs_per_event", per_event(st.alloc_events))
        .num("alloc_bytes_per_event", per_event(st.alloc_bytes))
        .raw("summary", &st.summary().to_json());
    Measurement {
        servers: scale.servers,
        events,
        sim_s: total,
        wall_s,
        alloc_events: st.alloc_events,
        alloc_bytes: st.alloc_bytes,
        json,
    }
}

fn main() {
    let args = Args::parse();
    let sizes: Vec<u32> = match args.servers {
        Some(n) => vec![n],
        None if args.full => vec![256, 1024, 4096],
        None => vec![256, 1024],
    };

    tsv_header(&[
        "servers",
        "events",
        "events_per_sec",
        "wall_s_per_sim_s",
        "allocs_per_event",
        "alloc_bytes_per_event",
    ]);
    let mut runs: Vec<Measurement> = Vec::new();
    for &servers in &sizes {
        let m = measure(servers, args.time_mult, args.seed);
        tsv_row(
            &format!("{}", m.servers),
            &[
                m.events as f64,
                m.events as f64 / m.wall_s.max(1e-9),
                m.wall_s / m.sim_s,
                m.alloc_events as f64 / m.events.max(1) as f64,
                m.alloc_bytes as f64 / m.events.max(1) as f64,
            ],
        );
        runs.push(m);
    }

    let rendered: Vec<String> = runs.iter().map(|m| m.json.render()).collect();
    let out = JsonObj::new()
        .str("bench", "speed")
        .int("seed", args.seed)
        .int(
            "ledger_installed",
            u64::from(terradir_allocledger::installed()),
        )
        .raw("runs", &format!("[{}]", rendered.join(",")));
    write_bench_json("speed", &out);

    let mut checks = ShapeChecks::new();
    for m in &runs {
        checks.check(
            &format!("{} servers processed events", m.servers),
            m.events > 0,
            format!("{} events in {:.3} wall s", m.events, m.wall_s),
        );
        checks.check(
            &format!("{} servers: ledger charged the run", m.servers),
            m.alloc_events > 0 && m.alloc_bytes > 0,
            format!("{} alloc events, {} bytes", m.alloc_events, m.alloc_bytes),
        );
    }
    std::process::exit(i32::from(!checks.finish()));
}
