//! The online SLO engine's non-perturbation guarantee, end to end: the
//! same fixed-seed faulted ESlurm scenario as `engine_profile.rs` produces
//! **bit-identical outcomes** and **byte-identical virtual-time exports**
//! (Chrome trace, event JSONL, metrics CSV) with the SLO engine armed or
//! not, at every shard count — plus the detection behaviour itself: a
//! tight objective breaches with a sane detection latency, breaches land
//! as instants on their own export track, a breach snapshots the flight
//! ring with a reason-tagged header, and health folding is
//! order-independent (proptest).

use eslurm_suite::emu::{FaultPlan, NodeId, Outage};
use eslurm_suite::eslurm::{EslurmConfig, EslurmSystem, EslurmSystemBuilder};
use eslurm_suite::obs::{
    export, FlightConfig, Recorder, Sampler, SloEngine, SloEventKind, SloSpec,
};
use eslurm_suite::simclock::{SimSpan, SimTime};
use proptest::prelude::*;

fn cfg(m: usize) -> EslurmConfig {
    EslurmConfig {
        n_satellites: m,
        eq1_width: 48,
        relay_width: 8,
        hb_sweep_interval: SimSpan::from_secs(60),
        sat_hb_interval: SimSpan::from_secs(5),
        ..Default::default()
    }
}

/// The `engine_profile.rs` scenario — 3 satellites, 180 compute nodes,
/// two mid-run outages, 12 jobs, run to t=600s — with an SLO engine
/// threaded through the builder.
fn run(shards: usize, obs: Recorder, sampler: Sampler, slo: SloEngine) -> EslurmSystem {
    let m = 3;
    let n_slaves = 180;
    let total = 1 + m + n_slaves;
    let plan = FaultPlan::from_outages(
        total,
        vec![
            Outage {
                node: NodeId((1 + m + 17) as u32),
                down_at: SimTime::from_secs(90),
                up_at: SimTime::from_secs(400),
            },
            Outage {
                node: NodeId((1 + m + 101) as u32),
                down_at: SimTime::from_secs(150),
                up_at: SimTime::from_secs(2000),
            },
        ],
    );
    let mut sys = EslurmSystemBuilder::new(cfg(m), n_slaves, 33)
        .faults(plan)
        .obs(obs)
        .sampler(sampler)
        .shards(shards)
        .slo(slo)
        .build();
    for j in 0..12u64 {
        let start = (j as usize * 13) % (n_slaves - 48);
        sys.submit(
            SimTime::from_secs(10 + j * 25),
            j,
            &(start..start + 40).collect::<Vec<_>>(),
            SimSpan::from_secs(20 + (j % 4) * 15),
        );
    }
    sys.sim.run_until(SimTime::from_secs(600));
    sys
}

fn outcome_fingerprint(sys: &EslurmSystem) -> (SimTime, u64, u64, Vec<String>, Vec<String>) {
    let records: Vec<String> = sys
        .master()
        .records
        .iter()
        .map(|r| format!("{:?}", r))
        .collect();
    let meters: Vec<String> = (0..1 + sys.n_satellites + sys.n_slaves)
        .map(|i| {
            let m = sys.sim.meter(NodeId(i as u32));
            format!(
                "{:?}|{:?}|{:?}|{:?}|{:?}",
                m.cpu_time(),
                m.msg_counts(),
                m.peak_sockets(),
                m.sockets(),
                m.peak_mem()
            )
        })
        .collect();
    (
        sys.sim.now(),
        sys.sim.events_processed(),
        sys.sim.dropped_messages(),
        records,
        meters,
    )
}

/// A spec set with one objective tight enough to breach in this scenario
/// (sweeps take milliseconds, the target is 1µs) and one that must stay
/// green. Flight dumps off — the export tests arm no ring.
fn tight_slo() -> SloEngine {
    SloEngine::with_config(
        vec![SloSpec::sweep_p99(1.0), SloSpec::master_inbox(100_000.0)],
        Vec::new(),
        false,
    )
}

/// SLOs on vs. off changes nothing the simulation can observe: same
/// outcomes and a byte-identical sampler CSV, at every shard count.
#[test]
fn slo_runs_are_bit_identical_to_plain() {
    for shards in [1usize, 2, 4, 8] {
        let make = |slo: SloEngine| {
            let s = Sampler::every_until(SimSpan::from_secs(1), SimTime::from_secs(300));
            let sys = run(shards, Recorder::metrics_only(), s.clone(), slo);
            (outcome_fingerprint(&sys), s.to_csv())
        };
        let (plain_fp, plain_csv) = make(SloEngine::disabled());
        let slo = tight_slo();
        let (slo_fp, slo_csv) = make(slo.clone());
        assert_eq!(
            slo_fp, plain_fp,
            "{shards}-shard outcomes changed under SLO evaluation"
        );
        assert_eq!(
            slo_csv, plain_csv,
            "{shards}-shard sampler CSV changed under SLO evaluation"
        );
        let report = slo.report().expect("armed engine reports");
        assert!(report.evals_total > 0, "{shards}-shard engine never ticked");
        assert!(
            report.total_breaches() > 0,
            "{shards}-shard tight objective never breached"
        );
    }
}

/// The virtual-time trace exports (base Chrome JSON, event JSONL) are
/// byte-identical with the SLO engine armed, and the combined export only
/// *adds* the pid-3 SLO track with the breach instants.
#[test]
fn slo_trace_exports_are_byte_identical_plus_breach_track() {
    let make = |slo: SloEngine| {
        let rec = Recorder::full();
        let s = Sampler::every_until(SimSpan::from_secs(1), SimTime::from_secs(300));
        run(1, rec.clone(), s, slo);
        rec
    };
    let plain_rec = make(SloEngine::disabled());
    let plain_chrome = export::to_chrome_trace(&plain_rec.events());
    let plain_jsonl = export::to_jsonl(&plain_rec.events());
    assert!(plain_rec.events().len() > 1000, "trace suspiciously small");

    let slo = tight_slo();
    let rec = make(slo.clone());
    assert_eq!(
        export::to_chrome_trace(&rec.events()),
        plain_chrome,
        "base Chrome trace differs with SLOs armed"
    );
    assert_eq!(
        export::to_jsonl(&rec.events()),
        plain_jsonl,
        "event JSONL differs with SLOs armed"
    );

    // An empty SLO event list leaves even the combined export unchanged.
    let combined_empty = export::to_chrome_trace_with_slo(&rec.events(), &[], &[], &[], &[]);
    assert_eq!(
        combined_empty,
        export::to_chrome_trace_full(&rec.events(), &[], &[], &[]),
        "empty SLO track must not change the combined export"
    );

    // With events, the combined export gains the named SLO track and a
    // breach instant; the SLO JSONL names the breached spec.
    let events = slo.events();
    assert!(!events.is_empty());
    let combined = export::to_chrome_trace_with_slo(&rec.events(), &[], &[], &[], &events);
    assert!(combined.contains("\"name\":\"slo\""), "missing slo track");
    assert!(
        combined.contains("breach:sweep_p99_us"),
        "missing breach instant"
    );
    let jsonl = export::slo_to_jsonl(&events);
    assert!(jsonl.contains("\"kind\":\"breach\""));
    assert!(jsonl.contains("\"slo\":\"sweep_p99_us\""));
}

/// The detection behaviour itself: the tight objective breaches, the
/// green objective does not, and detection latency is positive and
/// bounded by the slow window.
#[test]
fn tight_objective_breaches_with_sane_latency() {
    let slo = tight_slo();
    let s = Sampler::every_until(SimSpan::from_secs(1), SimTime::from_secs(300));
    run(1, Recorder::metrics_only(), s, slo.clone());
    let report = slo.report().expect("armed engine reports");
    let sweep = &report.specs[0];
    assert_eq!(sweep.name, "sweep_p99_us");
    assert!(sweep.breaches > 0, "tight sweep objective must breach");
    let detect = sweep.detect_us.expect("breach records detect latency");
    assert!(
        detect > 0 && detect <= 300_000_000,
        "detect_us={detect} outside (0, slow window]"
    );
    let inbox = &report.specs[1];
    assert_eq!(inbox.breaches, 0, "generous inbox bound must stay green");
    assert!(report
        .events
        .iter()
        .any(|e| e.kind == SloEventKind::Breach && e.name == "sweep_p99_us"));
    assert_eq!(report.unmet(), 1);
    let health = slo.health(std::iter::empty::<(u32, &str)>());
    assert!(
        health.cluster < 100.0,
        "an active breach must depress cluster health"
    );
}

/// A breach snapshots the flight ring with a reason-tagged header — the
/// forensics hook. Fault-free variant of the scenario so the one dump on
/// disk is the breach dump, not a node-down dump.
#[test]
fn breach_dumps_the_flight_ring_with_a_reason_tag() {
    let dir = std::env::temp_dir().join("slo-engine-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("breach_dump.jsonl");
    let _ = std::fs::remove_file(&path);

    let rec = Recorder::with_flight(
        FlightConfig::dumping_to(&path).with_cooldown(SimSpan::from_secs(3600)),
    );
    let slo = SloEngine::new(vec![SloSpec::sweep_p99(1.0)]);
    let m = 2;
    let mut sys = EslurmSystemBuilder::new(cfg(m), 60, 7)
        .obs(rec)
        .sampler(Sampler::every_until(
            SimSpan::from_secs(1),
            SimTime::from_secs(300),
        ))
        .slo(slo.clone())
        .build();
    sys.submit(
        SimTime::from_secs(5),
        1,
        &[0, 1, 2, 3],
        SimSpan::from_secs(30),
    );
    sys.sim.run_until(SimTime::from_secs(300));

    assert!(
        slo.report().unwrap().total_breaches() > 0,
        "scenario must breach"
    );
    let text = std::fs::read_to_string(&path).expect("breach dump written");
    assert!(
        text.starts_with("{\"flight_dump\":{\"reason\":\"slo_breach:sweep_p99_us\""),
        "dump header missing the breach reason: {}",
        text.lines().next().unwrap_or("")
    );
    let _ = std::fs::remove_file(&path);
}

proptest! {
    /// Health-score folding is order-independent over same-tick alerts:
    /// any permutation (here: rotation + optional reversal) and any
    /// duplication of the suspicion list folds to the same score.
    #[test]
    fn health_folding_is_order_independent(
        pairs in prop::collection::vec((0u32..40, 0usize..4), 0..24),
        rot in 0usize..24,
        rev in any::<bool>(),
        dup in 0usize..24,
    ) {
        const KINDS: [&str; 4] = ["temperature", "voltage", "ecc", "fan"];
        let engine = SloEngine::new(vec![SloSpec::master_inbox(10.0)]);
        let base: Vec<(u32, &str)> = pairs.iter().map(|&(n, k)| (n, KINDS[k])).collect();
        let mut perm = base.clone();
        if !perm.is_empty() {
            let n = perm.len();
            perm.rotate_left(rot % n);
            if rev {
                perm.reverse();
            }
            // Duplicates must not change the fold either.
            perm.push(perm[dup % n]);
        }
        let a = engine.health(base);
        let b = engine.health(perm);
        prop_assert_eq!(a, b);
    }
}
