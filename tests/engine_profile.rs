//! The wall-clock engine profiler's non-perturbation guarantee, end to
//! end: the shared fixed-seed ESlurm scenario (`tests/common`) produces
//! **bit-identical outcomes** and **byte-identical virtual-time exports**
//! (Chrome trace, event JSONL, metrics CSV) with the profiler on or off,
//! for every shard count — and the profile itself satisfies its own
//! accounting invariants (phase buckets never exceed measured wall time,
//! per-shard event counts sum to the engine's total).

mod common;

use common::{outcome_fingerprint, run};
use eslurm_suite::obs::export::{self, ChromeTrace};
use eslurm_suite::obs::{EngineMode, EngineProfiler, Recorder, Sampler};
use eslurm_suite::simclock::{SimSpan, SimTime};

/// Profiling on vs. off changes nothing the simulation can observe: same
/// outcomes and a byte-identical sampler CSV, at every shard count.
#[test]
fn profiled_runs_are_bit_identical_to_unprofiled() {
    for shards in [1usize, 2, 4, 8] {
        let make = |engine: EngineProfiler| {
            let s = Sampler::every_until(SimSpan::from_secs(1), SimTime::from_secs(300));
            let sys = run(shards, |b| {
                b.obs(Recorder::metrics_only())
                    .sampler(s.clone())
                    .engine_profile(engine)
            });
            (outcome_fingerprint(&sys), s.to_csv())
        };
        let (plain_fp, plain_csv) = make(EngineProfiler::disabled());
        let profiler = EngineProfiler::enabled();
        let (prof_fp, prof_csv) = make(profiler.clone());
        assert_eq!(
            prof_fp, plain_fp,
            "{shards}-shard outcomes changed under profiling"
        );
        assert_eq!(
            prof_csv, plain_csv,
            "{shards}-shard sampler CSV changed under profiling"
        );
        assert!(
            profiler.report().is_some(),
            "{shards}-shard profiler produced no report"
        );
    }
}

/// The virtual-time trace exports (Chrome JSON without the engine track,
/// event JSONL) are byte-identical with the profiler armed — the
/// wall-clock domain cannot leak into them.
#[test]
fn profiled_trace_exports_are_byte_identical() {
    let plain_rec = Recorder::full();
    let _ = run(1, |b| b.obs(plain_rec.clone()));
    let plain_chrome = export::to_chrome_trace(&plain_rec.events());
    let plain_jsonl = export::to_jsonl(&plain_rec.events());
    assert!(plain_rec.events().len() > 1000, "trace suspiciously small");

    for shards in [1usize, 4] {
        let rec = Recorder::full();
        let profiler = EngineProfiler::enabled();
        run(shards, |b| {
            b.obs(rec.clone()).engine_profile(profiler.clone())
        });
        assert_eq!(
            export::to_chrome_trace(&rec.events()),
            plain_chrome,
            "{shards}-shard profiled Chrome trace differs"
        );
        assert_eq!(
            export::to_jsonl(&rec.events()),
            plain_jsonl,
            "{shards}-shard profiled event JSONL differs"
        );
        // The combined export only *adds* the pid-2 engine track; the
        // virtual-time lanes stay untouched inside it.
        let combined = ChromeTrace {
            events: &rec.events(),
            engine: &profiler.spans(),
            ..ChromeTrace::default()
        }
        .render();
        assert!(
            combined.contains("engine (wall-clock)"),
            "combined export is missing the engine track"
        );
    }
}

/// The profile's own accounting: phase buckets are disjoint sub-intervals
/// of measured wall time, and per-shard event counts sum to the engine
/// total, at one shard and at four.
#[test]
fn profiler_accounting_invariants_hold() {
    for shards in [1usize, 4] {
        let profiler = EngineProfiler::enabled();
        let sys = run(shards, |b| b.engine_profile(profiler.clone()));
        let report = profiler.report().expect("profiler attached");
        assert_eq!(report.mode, EngineMode::Merged);
        assert_eq!(report.shards.len(), shards);
        assert_eq!(
            report.total_events(),
            sys.sim.events_processed(),
            "per-shard event counts must sum to the engine total"
        );
        for s in &report.shards {
            assert!(
                s.accounted_ns() <= s.wall_ns,
                "shard {}: accounted {} > wall {}",
                s.shard,
                s.accounted_ns(),
                s.wall_ns
            );
        }
        assert_eq!(report.sync_fraction(), 0.0, "merged run has no sync cost");
        assert!(report.imbalance() >= 1.0);
    }
}
