//! `bench_slo` — overhead and detection benchmark for the online SLO
//! engine.
//!
//! Two faulted workloads, each run with the SLO engine off (baseline) and
//! on, across shard counts:
//!
//! * **fig9**: an ESlurm cluster under the fig9-style job stream
//!   (power-law sizes, exponential inter-arrival/runtimes) with injected
//!   compute-node outages, SLO specs tight enough that the sweep-p99
//!   objective breaches deterministically — measuring detection latency.
//! * **multi_tenant**: the centralized-RM harness under `submit_stream`
//!   with outages, utilization-floor and inbox-depth objectives plus an
//!   EWMA anomaly detector over the master's memory footprint.
//!
//! The benchmark asserts the engine is non-perturbing (identical outcome
//! fingerprints with SLOs off/on at every shard count) and writes breach
//! counts, time-to-detect, and evaluation overhead to `BENCH_SLO.json` at
//! the repository root, gated by the `slo` CI job.

use emu::{FaultPlan, FaultPlanBuilder, NodeId, Outage};
use eslurm::{EslurmConfig, EslurmSystemBuilder};
use eslurm_bench::{f, fnv64, print_table, ExpArgs};
use obs::{AnomalySpec, MetricId, Sampler, SloEngine, SloReport, SloSpec};
use rm::{RmClusterBuilder, RmProfile};
use serde::{Number, Value};
use simclock::rng::{exponential, stream_rng};
use simclock::{SimSpan, SimTime};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

struct Scale {
    n_slaves: usize,
    satellites: usize,
    horizon: SimSpan,
    jobs_target: u64,
    max_job: u32,
    fault_events: usize,
    shard_counts: &'static [usize],
    rm_slaves: usize,
}

struct RunResult {
    shards: usize,
    slo_on: bool,
    wall_s: f64,
    events: u64,
    fingerprint: u64,
    report: Option<SloReport>,
}

/// Outages on the compute nodes, shifted past master + satellites into
/// the deployment's global id space (same recipe as `eslurm slo-report`).
fn fault_plan(n_slaves: usize, satellites: usize, horizon: SimSpan, events: usize) -> FaultPlan {
    let plan = FaultPlanBuilder::new(n_slaves, horizon, 0xFA17)
        .small_events(events, 4)
        .mean_outage(SimSpan::from_secs(120))
        .build();
    let offset = (1 + satellites) as u32;
    let shifted: Vec<Outage> = plan
        .outages()
        .iter()
        .map(|o| Outage {
            node: NodeId(o.node.0 + offset),
            ..*o
        })
        .collect();
    FaultPlan::from_outages(1 + satellites + n_slaves, shifted)
}

/// The fig9 scenario's spec set: a deliberately unreachable sweep-p99
/// target (deterministic breach, so time-to-detect is always measured)
/// next to a generous inbox bound that must stay green.
fn fig9_slo() -> SloEngine {
    SloEngine::with_config(
        vec![SloSpec::sweep_p99(1.0), SloSpec::master_inbox(100_000.0)],
        vec![AnomalySpec::new(
            "inbox_shift",
            MetricId::new("tasks_in_flight"),
        )],
        false,
    )
}

fn run_fig9(scale: &Scale, seed: u64, shards: usize, slo_on: bool) -> RunResult {
    let cfg = EslurmConfig {
        n_satellites: scale.satellites,
        eq1_width: 64,
        relay_width: 8,
        hb_sweep_interval: SimSpan::from_secs(120),
        sat_hb_interval: SimSpan::from_secs(30),
        ..Default::default()
    };
    let slo = if slo_on {
        fig9_slo()
    } else {
        SloEngine::disabled()
    };
    // The baseline keeps the same sampling cadence (ticks count as
    // events), so off/on runs see an identical event stream by design.
    let sampler = Sampler::every_until(SimSpan::from_secs(1), SimTime::ZERO + scale.horizon);
    let rec = obs::Recorder::metrics_only();
    let mut sys = EslurmSystemBuilder::new(cfg, scale.n_slaves, seed)
        .shards(shards)
        .obs(rec)
        .sampler(sampler)
        .faults(fault_plan(
            scale.n_slaves,
            scale.satellites,
            scale.horizon,
            scale.fault_events,
        ))
        .slo(slo)
        .build();

    let horizon_s = scale.horizon.as_secs_f64();
    let rate = scale.jobs_target as f64 / horizon_s;
    let mut rng = stream_rng(seed + 1, 0x10B5);
    let n = scale.n_slaves as u32;
    let max_exp = (scale.max_job.min(n) as f64).log2();
    let mut t = 0.0f64;
    let mut jobs = 0u64;
    let mut idxs: Vec<usize> = Vec::with_capacity(scale.max_job as usize);
    loop {
        t += exponential(&mut rng, rate);
        if t >= horizon_s {
            break;
        }
        let count = 2f64
            .powf(rand::RngExt::random::<f64>(&mut rng) * max_exp)
            .round()
            .max(1.0) as u32;
        let start = rand::RngExt::random_range(&mut rng, 0..n - count.min(n - 1));
        idxs.clear();
        idxs.extend((start..start + count).map(|i| i as usize));
        let rt = SimSpan::from_secs_f64(exponential(&mut rng, 1.0 / 600.0).max(5.0));
        sys.submit(SimTime::from_secs_f64(t), jobs, &idxs, rt);
        jobs += 1;
    }

    let wall = Instant::now();
    sys.sim.run_until(SimTime::ZERO + scale.horizon);
    let wall_s = wall.elapsed().as_secs_f64();

    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = fnv64(&sys.sim.now().as_micros().to_le_bytes(), h);
    h = fnv64(&sys.sim.events_processed().to_le_bytes(), h);
    h = fnv64(&sys.sim.dropped_messages().to_le_bytes(), h);
    for r in &sys.master().records {
        h = fnv64(format!("{r:?}").as_bytes(), h);
    }
    for i in 0..=scale.satellites {
        let m = sys.sim.meter(NodeId(i as u32));
        h = fnv64(
            format!(
                "{:?}|{:?}|{}|{}|{:?}",
                m.cpu_time(),
                m.msg_counts(),
                m.sockets(),
                m.peak_sockets(),
                m.peak_mem()
            )
            .as_bytes(),
            h,
        );
    }

    RunResult {
        shards,
        slo_on,
        wall_s,
        events: sys.sim.events_processed(),
        fingerprint: h,
        report: sys.sim.slo_engine().report(),
    }
}

fn run_multi_tenant(scale: &Scale, seed: u64, slo_on: bool) -> RunResult {
    let n = 1 + scale.rm_slaves;
    let horizon = SimTime::ZERO + scale.horizon;
    let slo = if slo_on {
        SloEngine::with_config(
            vec![
                SloSpec::master_inbox(100_000.0),
                SloSpec::utilization_floor(
                    MetricId::new("footprint_cpu_util").with("node", "master"),
                    0.0,
                ),
            ],
            vec![AnomalySpec::new(
                "master_mem_shift",
                MetricId::new("footprint_real_bytes").with("node", "master"),
            )],
            false,
        )
    } else {
        SloEngine::disabled()
    };
    let mut harness = RmClusterBuilder::new(RmProfile::slurm(), n)
        .seed(seed)
        .obs(obs::Recorder::metrics_only())
        .sampler(Sampler::every_until(SimSpan::from_secs(1), horizon))
        .faults(
            FaultPlanBuilder::new(n, scale.horizon, 0xFA17)
                .small_events(scale.fault_events, 4)
                .mean_outage(SimSpan::from_secs(120))
                .build(),
        )
        .slo(slo)
        .build();
    harness.submit_stream(
        scale.rm_slaves as u32,
        scale.horizon,
        240.0,
        64,
        SimSpan::from_secs(600),
        seed,
    );
    let wall = Instant::now();
    harness.sim.run_until(horizon);
    let wall_s = wall.elapsed().as_secs_f64();

    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = fnv64(&harness.sim.now().as_micros().to_le_bytes(), h);
    h = fnv64(&harness.sim.events_processed().to_le_bytes(), h);
    h = fnv64(&harness.sim.dropped_messages().to_le_bytes(), h);
    let m = harness.sim.meter(NodeId::MASTER);
    h = fnv64(
        format!(
            "{:?}|{:?}|{}|{}",
            m.cpu_time(),
            m.msg_counts(),
            m.sockets(),
            m.peak_sockets()
        )
        .as_bytes(),
        h,
    );

    RunResult {
        shards: 1,
        slo_on,
        wall_s,
        events: harness.sim.events_processed(),
        fingerprint: h,
        report: harness.sim.slo_engine().report(),
    }
}

fn run_json(r: &RunResult, workload: &str) -> Value {
    let mut o = BTreeMap::new();
    o.insert("workload".to_string(), Value::String(workload.to_string()));
    o.insert(
        "shards".to_string(),
        Value::Number(Number::U64(r.shards as u64)),
    );
    o.insert("slo_enabled".to_string(), Value::Bool(r.slo_on));
    o.insert("wall_s".to_string(), Value::Number(Number::F64(r.wall_s)));
    o.insert("events".to_string(), Value::Number(Number::U64(r.events)));
    o.insert(
        "events_per_sec".to_string(),
        Value::Number(Number::F64(r.events as f64 / r.wall_s.max(1e-9))),
    );
    o.insert(
        "fingerprint".to_string(),
        Value::String(format!("{:016x}", r.fingerprint)),
    );
    if let Some(rep) = &r.report {
        o.insert(
            "breach_count".to_string(),
            Value::Number(Number::U64(rep.total_breaches())),
        );
        o.insert(
            "unmet_specs".to_string(),
            Value::Number(Number::U64(rep.unmet() as u64)),
        );
        o.insert(
            "anomalies".to_string(),
            Value::Number(Number::U64(rep.anomalies.iter().map(|a| a.anomalies).sum())),
        );
        o.insert(
            "evals_total".to_string(),
            Value::Number(Number::U64(rep.evals_total)),
        );
        o.insert(
            "eval_wall_ns".to_string(),
            Value::Number(Number::U64(rep.eval_wall_ns)),
        );
        o.insert(
            "eval_overhead_fraction".to_string(),
            Value::Number(Number::F64(
                rep.eval_wall_ns as f64 / 1e9 / r.wall_s.max(1e-9),
            )),
        );
        let detect: Vec<Value> = rep
            .specs
            .iter()
            .filter_map(|s| s.detect_us)
            .map(|d| Value::Number(Number::U64(d)))
            .collect();
        if let Some(Value::Number(Number::U64(first))) = detect.first().cloned() {
            o.insert(
                "time_to_detect_us".to_string(),
                Value::Number(Number::U64(first)),
            );
        }
        o.insert("detect_us".to_string(), Value::Array(detect));
    }
    Value::Object(o)
}

fn main() {
    let args = ExpArgs::parse();
    let scale = if args.quick {
        Scale {
            n_slaves: 2_000,
            satellites: 4,
            horizon: SimSpan::from_secs(900),
            jobs_target: 300,
            max_job: 64,
            fault_events: 4,
            shard_counts: &[1, 2],
            rm_slaves: 400,
        }
    } else {
        Scale {
            n_slaves: 20_000,
            satellites: 8,
            horizon: SimSpan::from_secs(3600),
            jobs_target: 3_000,
            max_job: 128,
            fault_events: 8,
            shard_counts: &[1, 2, 4, 8],
            rm_slaves: 2_000,
        }
    };
    println!(
        "bench_slo: {} + {} nodes (fig9), {} nodes (multi_tenant), {} s horizon, {} outage events",
        scale.n_slaves,
        scale.satellites,
        scale.rm_slaves,
        scale.horizon.as_secs(),
        scale.fault_events
    );

    // fig9: SLOs off at 1 shard (the reference), then on at every shard
    // count. All fingerprints must agree — the non-perturbation proof at
    // benchmark scale.
    let mut fig9: Vec<RunResult> = Vec::new();
    print!("  fig9 baseline (slo off, 1 shard) ... ");
    flush();
    fig9.push(run_fig9(&scale, args.seed, 1, false));
    println!("{} events", fig9[0].events);
    for &shards in scale.shard_counts {
        print!("  fig9 slo on, {shards} shard(s) ... ");
        flush();
        let r = run_fig9(&scale, args.seed, shards, true);
        println!(
            "{} events in {:.2} s ({:.0} ev/s)",
            r.events,
            r.wall_s,
            r.events as f64 / r.wall_s.max(1e-9)
        );
        fig9.push(r);
    }
    let fig9_match = fig9.iter().all(|r| r.fingerprint == fig9[0].fingerprint);

    print!("  multi_tenant baseline (slo off) ... ");
    flush();
    let mt_base = run_multi_tenant(&scale, args.seed, false);
    println!("{} events", mt_base.events);
    print!("  multi_tenant slo on ... ");
    flush();
    let mt = run_multi_tenant(&scale, args.seed, true);
    println!(
        "{} events in {:.2} s ({:.0} ev/s)",
        mt.events,
        mt.wall_s,
        mt.events as f64 / mt.wall_s.max(1e-9)
    );
    let mt_match = mt.fingerprint == mt_base.fingerprint;
    let outcomes_match = fig9_match && mt_match;

    let rows: Vec<Vec<String>> = fig9
        .iter()
        .map(|r| ("fig9", r))
        .chain([("multi_tenant", &mt_base), ("multi_tenant", &mt)])
        .map(|(w, r)| {
            let (breaches, detect, ov) = match &r.report {
                Some(rep) => (
                    rep.total_breaches().to_string(),
                    rep.specs
                        .iter()
                        .find_map(|s| s.detect_us)
                        .map(|d| format!("{:.1}s", d as f64 / 1e6))
                        .unwrap_or_else(|| "-".to_string()),
                    format!("{:.3}%", rep.eval_wall_ns as f64 / 1e7 / r.wall_s.max(1e-9)),
                ),
                None => ("-".to_string(), "-".to_string(), "-".to_string()),
            };
            vec![
                w.to_string(),
                r.shards.to_string(),
                if r.slo_on { "on" } else { "off" }.to_string(),
                f(r.wall_s, 2),
                f(r.events as f64 / r.wall_s.max(1e-9), 0),
                breaches,
                detect,
                ov,
                format!("{:016x}", r.fingerprint),
            ]
        })
        .collect();
    print_table(
        "bench_slo — online SLO evaluation overhead and detection",
        &[
            "workload",
            "shards",
            "slo",
            "wall s",
            "events/s",
            "breaches",
            "detect",
            "overhead",
            "fingerprint",
        ],
        &rows,
    );
    println!(
        "\n  outcomes {}",
        if outcomes_match {
            "IDENTICAL with SLOs off/on at every shard count"
        } else {
            "DIVERGED — the SLO engine perturbed the run"
        }
    );

    let mut root = BTreeMap::new();
    root.insert(
        "generated_by".to_string(),
        Value::String("cargo run --release -p eslurm-bench --bin bench_slo".to_string()),
    );
    root.insert("quick".to_string(), Value::Bool(args.quick));
    root.insert("seed".to_string(), Value::Number(Number::U64(args.seed)));
    root.insert("outcomes_match".to_string(), Value::Bool(outcomes_match));
    // Headline fields the CI gate reads, from the serial slo-on fig9 run.
    let head = &fig9[1];
    let head_rep = head.report.as_ref().expect("slo-on run has a report");
    root.insert(
        "breach_count".to_string(),
        Value::Number(Number::U64(head_rep.total_breaches())),
    );
    root.insert(
        "time_to_detect_us".to_string(),
        match head_rep.specs.iter().find_map(|s| s.detect_us) {
            Some(d) => Value::Number(Number::U64(d)),
            None => Value::Null,
        },
    );
    root.insert(
        "eval_wall_ns".to_string(),
        Value::Number(Number::U64(head_rep.eval_wall_ns)),
    );
    root.insert(
        "evals_total".to_string(),
        Value::Number(Number::U64(head_rep.evals_total)),
    );
    root.insert(
        "events_per_sec".to_string(),
        Value::Number(Number::F64(head.events as f64 / head.wall_s.max(1e-9))),
    );
    let runs: Vec<Value> = fig9
        .iter()
        .map(|r| run_json(r, "fig9"))
        .chain([
            run_json(&mt_base, "multi_tenant"),
            run_json(&mt, "multi_tenant"),
        ])
        .collect();
    root.insert("runs".to_string(), Value::Array(runs));

    let json = serde_json::to_string(&Value::Object(root)).expect("serialize report");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_SLO.json");
    std::fs::write(&path, json + "\n").expect("write BENCH_SLO.json");
    println!("  [json] {}", path.display());

    assert!(outcomes_match, "the SLO engine perturbed run outcomes");
    assert!(
        head_rep.total_breaches() > 0,
        "the unreachable sweep objective must breach"
    );
}

fn flush() {
    use std::io::Write as _;
    std::io::stdout().flush().ok();
}
