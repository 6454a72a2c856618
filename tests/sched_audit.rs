//! The scheduler decision audit log, end to end: non-perturbation
//! (bit-identical outcomes with auditing on/off, byte-identical logs for
//! the same seed), timeline completeness, the kill→resubmit estimate
//! hand-off, and reconciliation of the audit accuracy numbers against
//! `estimate::eval`'s percentile rule.

use eslurm_suite::eslurm::PredictiveLimit;
use eslurm_suite::estimate::{signed_error_percentiles, EstimatorConfig};
use eslurm_suite::obs::audit::{
    AuditReport, Decision, DecisionLog, DecisionRecord, EstSource, SkipReason,
};
use eslurm_suite::sched::prelude::{
    simulate, BackfillConfig, FairShareLedger, MultifactorPriority, OracleLimit, Partition,
    PartitionSet, SchedAlgo, SchedPolicies, ScheduleReport, UserLimit,
};
use eslurm_suite::simclock::SimSpan;
use eslurm_suite::workload::TraceConfig;
use std::collections::BTreeMap;

/// The pinned audit scenario: the same fixed-seed workload the CLI's
/// `sched-report` defaults to, chosen because it exercises every decision
/// variant (backfills, both skip reasons, kills, resubmissions).
fn audited_run(audit: DecisionLog) -> ScheduleReport {
    let jobs = TraceConfig::small(400, 42).generate();
    let mut policy = PredictiveLimit::new(EstimatorConfig::default());
    let cfg = BackfillConfig {
        algo: SchedAlgo::Easy,
        audit,
        ..BackfillConfig::new(64)
    };
    simulate(&jobs, &mut policy, &cfg)
}

fn assert_reports_identical(a: &ScheduleReport, b: &ScheduleReport) {
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.killed, b.killed);
    assert_eq!(a.abandoned, b.abandoned);
    assert_eq!(
        a.occupied_node_secs.to_bits(),
        b.occupied_node_secs.to_bits()
    );
    assert_eq!(a.useful_node_secs.to_bits(), b.useful_node_secs.to_bits());
    assert_eq!(a.total_wait, b.total_wait);
    assert_eq!(a.total_slowdown.to_bits(), b.total_slowdown.to_bits());
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.nodes, b.nodes);
    assert_eq!(a.per_user, b.per_user);
}

#[test]
fn auditing_does_not_perturb_the_simulation() {
    let plain = audited_run(DecisionLog::disabled());
    let log = DecisionLog::unbounded();
    let audited = audited_run(log.clone());
    assert_reports_identical(&plain, &audited);
    assert!(!log.is_empty(), "enabled audit log stayed empty");
}

#[test]
fn same_seed_produces_byte_identical_logs() {
    let a = DecisionLog::unbounded();
    let b = DecisionLog::unbounded();
    audited_run(a.clone());
    audited_run(b.clone());
    let ja = a.to_jsonl();
    assert_eq!(ja, b.to_jsonl());
    assert!(!ja.is_empty());
    // Every line is one decision object with the mandatory fields.
    for line in ja.lines() {
        assert!(line.starts_with("{\"t_us\":"), "bad line {line}");
        assert!(line.contains("\"decision\":"), "bad line {line}");
        assert!(line.contains("\"est_us\":"), "bad line {line}");
        assert!(line.contains("\"source\":"), "bad line {line}");
    }
}

#[test]
fn conservative_auditing_is_also_non_perturbing() {
    let jobs = TraceConfig::small(300, 17).generate();
    let run = |audit: DecisionLog| {
        let mut policy = PredictiveLimit::new(EstimatorConfig::default());
        let cfg = BackfillConfig {
            algo: SchedAlgo::Conservative,
            audit,
            ..BackfillConfig::new(48)
        };
        simulate(&jobs, &mut policy, &cfg)
    };
    let log = DecisionLog::unbounded();
    assert_reports_identical(&run(DecisionLog::disabled()), &run(log.clone()));
    assert!(!log.is_empty());
}

#[test]
fn timelines_are_complete_and_ordered() {
    let log = DecisionLog::unbounded();
    let report = audited_run(log.clone());
    let records = log.records();

    let submitted: Vec<u64> = records
        .iter()
        .filter(|r| matches!(r.decision, Decision::Submitted))
        .map(|r| r.job)
        .collect();
    assert_eq!(submitted.len(), 400, "one Submitted per trace job");

    // Exercise coverage: this scenario hits every decision variant.
    let rep = AuditReport::from_records(&records);
    assert!(rep.backfills > 0, "no Backfilled decisions");
    assert!(rep.reservations > 0, "no ReservationPlaced decisions");
    assert!(rep.kills > 0, "no KilledAtLimit decisions");
    assert_eq!(rep.kills, report.killed);
    assert_eq!(rep.completions, report.completed);
    assert!(
        rep.skips.contains_key(SkipReason::NoFreeNodes.name()),
        "no no_free_nodes skips"
    );
    assert!(
        rep.skips.contains_key(SkipReason::WouldDelayHead.name()),
        "no would_delay_head skips"
    );

    for &job in &submitted {
        let tl: Vec<DecisionRecord> = records.iter().filter(|r| r.job == job).cloned().collect();
        // Virtual timestamps never go backwards within a job's timeline.
        assert!(
            tl.windows(2).all(|w| w[0].t_us <= w[1].t_us),
            "job {job} timeline out of order"
        );
        assert!(
            matches!(tl.first().map(|r| &r.decision), Some(Decision::Submitted)),
            "job {job} does not open with Submitted"
        );
        let started = tl
            .iter()
            .any(|r| matches!(r.decision, Decision::Started { .. }));
        let completed = tl
            .iter()
            .any(|r| matches!(r.decision, Decision::Completed { .. }));
        assert!(started, "job {job} never started");
        assert!(completed, "job {job} never completed");
        // A reservation always names at least one blocking running job —
        // that is the counterfactual `why-job` prints.
        for r in &tl {
            if let Decision::ReservationPlaced { blockers, .. } = &r.decision {
                assert!(
                    !blockers.is_empty(),
                    "job {job} reservation with no blockers"
                );
            }
        }
    }
}

#[test]
fn kill_resubmit_hands_the_estimate_off() {
    let log = DecisionLog::unbounded();
    audited_run(log.clone());
    let records = log.records();

    let mut kills = 0;
    let mut model_abandoned = 0;
    for (i, r) in records.iter().enumerate() {
        let Decision::KilledAtLimit {
            limit_us,
            actual_us,
        } = r.decision
        else {
            continue;
        };
        kills += 1;
        // The kill record carries the offending estimate, and the job
        // provably overran the limit derived from it.
        assert!(actual_us >= limit_us, "kill before the limit elapsed");
        assert!(r.est.value_us > 0);
        // The resubmission follows at the same instant, with a raised
        // limit; a model misprediction is abandoned for another source.
        let resub = records[i..]
            .iter()
            .find(|n| n.job == r.job && matches!(n.decision, Decision::Resubmitted { .. }))
            .unwrap_or_else(|| panic!("job {} killed but never resubmitted", r.job));
        let Decision::Resubmitted { new_limit_us, .. } = resub.decision else {
            unreachable!()
        };
        assert!(new_limit_us > limit_us, "resubmit limit did not grow");
        if r.est.source == EstSource::Model {
            assert_ne!(
                resub.est.source,
                EstSource::Model,
                "job {} kept a chronically underestimating model source",
                r.job
            );
            model_abandoned += 1;
        }
    }
    assert!(kills > 0, "scenario produced no kills");
    assert!(
        model_abandoned > 0,
        "scenario never exercised model-estimate abandonment"
    );
}

#[test]
fn report_accuracy_reconciles_with_estimate_eval_percentiles() {
    let log = DecisionLog::unbounded();
    audited_run(log.clone());
    let records = log.records();
    let rep = AuditReport::from_records(&records);

    // Rebuild each source's signed-error sample straight from the raw
    // decisions and push it through `estimate`'s percentile rule: the
    // audit report must agree exactly, so `eslurm sched-report` numbers
    // reconcile with `estimate::evaluate` on the same joined pairs.
    for (src, stats) in &rep.by_source {
        let mut errs: Vec<f64> = records
            .iter()
            .filter(|r| r.est.source.name() == *src)
            .filter_map(|r| match r.decision {
                Decision::Completed { est_error_us } => Some(est_error_us as f64 / 1e6),
                Decision::KilledAtLimit { actual_us, .. } => {
                    Some((r.est.value_us as f64 - actual_us as f64) / 1e6)
                }
                _ => None,
            })
            .collect();
        assert_eq!(stats.n, errs.len(), "sample size mismatch for {src}");
        let (p10, p50, p90) = signed_error_percentiles(&mut errs);
        assert_eq!(stats.p10_err_s.to_bits(), p10.to_bits(), "{src} p10");
        assert_eq!(stats.p50_err_s.to_bits(), p50.to_bits(), "{src} p50");
        assert_eq!(stats.p90_err_s.to_bits(), p90.to_bits(), "{src} p90");
        assert_eq!(
            stats.underestimates,
            errs.iter().filter(|&&e| e < 0.0).count(),
            "{src} underestimate count"
        );
    }
    // The model source joined predictions in this scenario.
    assert!(rep.by_source.get("model").map(|s| s.n).unwrap_or(0) > 0);
    // Every cluster row in the report came from model estimates only.
    let cluster_n: usize = rep.by_cluster.values().map(|s| s.n).sum();
    let model_n = rep.by_source.get("model").map(|s| s.n).unwrap_or(0);
    assert!(cluster_n <= model_n);
    assert!(cluster_n > 0, "no per-cluster accuracy rows");
}

#[test]
fn ring_cap_drops_oldest_but_keeps_counting() {
    let capped = DecisionLog::with_cap(64);
    audited_run(capped.clone());
    let full = DecisionLog::unbounded();
    audited_run(full.clone());
    assert_eq!(capped.len(), 64);
    assert!(capped.dropped() > 0);
    assert_eq!(capped.len() as u64 + capped.dropped(), full.len() as u64);
    // The capped ring holds exactly the newest suffix of the full log.
    let tail = &full.records()[full.len() - 64..];
    assert_eq!(eslurm_suite::obs::audit::to_jsonl(tail), capped.to_jsonl());
}

/// One trace that kills at the limit, resubmits, abandons and straddles
/// an RM outage: every 5th job underestimates its runtime 3× (killed,
/// then completes on a raised limit) and every 13th 20× (killed past the
/// resubmission budget and abandoned).
fn pinned_trace() -> Vec<eslurm_suite::workload::Job> {
    let mut jobs = TraceConfig::small(300, 11).generate();
    for (i, j) in jobs.iter_mut().enumerate() {
        if i % 13 == 0 {
            j.user_estimate = Some(j.actual_runtime / 20);
        } else if i % 5 == 0 {
            j.user_estimate = Some(j.actual_runtime / 3);
        }
    }
    jobs
}

/// Two partitions (a capped small-job partition and a default batch
/// partition), multifactor priority, and a fair-share ledger.
fn tenant_policies() -> SchedPolicies {
    SchedPolicies::default()
        .with_partitions(PartitionSet::new(vec![
            Partition::named("small")
                .job_nodes(1, Some(8))
                .capacity(24)
                .max_time(SimSpan::from_hours(4))
                .default_time(SimSpan::from_hours(1)),
            Partition::named("batch")
                .default_time(SimSpan::from_hours(2))
                .qos(2.0),
        ]))
        .with_priority(MultifactorPriority::slurm_default())
        .with_fairshare(FairShareLedger::new(SimSpan::from_hours(24), 4))
}

/// One line per run: every `ScheduleReport` field (f64s as raw bits,
/// `per_user` as an FNV-1a hash of its debug form), the audit record
/// count per decision kind, and the JSONL byte length.
fn outcome_line(algo: SchedAlgo, oracle: bool, tenants: bool) -> String {
    let jobs = pinned_trace();
    let outage_at = jobs[jobs.len() / 2].submit;
    let audit = DecisionLog::unbounded();
    let mut cfg = BackfillConfig {
        algo,
        audit: audit.clone(),
        rm_outages: vec![(outage_at, SimSpan::from_hours(2))],
        ..BackfillConfig::new(64)
    };
    if tenants {
        cfg.policies = tenant_policies();
    }
    let r = if oracle {
        simulate(&jobs, &mut OracleLimit, &cfg)
    } else {
        simulate(&jobs, &mut UserLimit::default(), &cfg)
    };
    let mut per_user = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("{:?}", r.per_user).bytes() {
        per_user = (per_user ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut kinds: BTreeMap<&str, usize> = BTreeMap::new();
    for rec in audit.records() {
        *kinds.entry(rec.decision.name()).or_default() += 1;
    }
    format!(
        "{algo:?}/{}/{}: c={} k={} a={} occ={:x} use={:x} wait={} sd={:x} mk={} n={} pu={per_user:x} \
         audit={kinds:?} jsonl={}",
        if oracle { "oracle" } else { "user" },
        if tenants { "tenants" } else { "default" },
        r.completed,
        r.killed,
        r.abandoned,
        r.occupied_node_secs.to_bits(),
        r.useful_node_secs.to_bits(),
        r.total_wait.as_micros(),
        r.total_slowdown.to_bits(),
        r.makespan.as_micros(),
        r.nodes,
        audit.to_jsonl().len(),
    )
}

/// Pinned scheduler outcomes: every discipline × {user, oracle} limits ×
/// {default, multi-tenant} policies on one kill/resubmit/outage trace.
/// The expected lines were recorded from the scheduler as it stood when
/// the test was added; any change to event order, policy call order or
/// audit emission shows up here.
#[test]
fn scheduler_outcomes_are_pinned() {
    const EXPECTED: &[&str] = &[
        r#"Fcfs/user/default: c=276 k=218 a=24 occ=416240f12d3ff8ab use=415b959b2c7f8011 wait=2204097303196 sd=40a57871c5838a43 mk=650353520336 n=64 pu=9cd93341ed3b7758 audit={"completed": 276, "killed_at_limit": 218, "resubmitted": 194, "started": 494, "submitted": 300} jsonl=162672"#,
        r#"Fcfs/user/tenants: c=273 k=228 a=27 occ=41624ff0b3941c83 use=415b2ead3b729f5a wait=3136151556781 sd=40a4a110ce741610 mk=677417569208 n=64 pu=317aa9356de72bb1 audit={"completed": 273, "killed_at_limit": 228, "priority_ranked": 942, "resubmitted": 201, "started": 501, "submitted": 300} jsonl=354929"#,
        r#"Fcfs/oracle/default: c=300 k=0 a=0 occ=415de4a81ba860db use=415de3e9b43c7d5d wait=1351023468129 sd=409ea98805f291e5 mk=636808858296 n=64 pu=93f6e2b40352fefc audit={"completed": 300, "started": 300, "submitted": 300} jsonl=90241"#,
        r#"Fcfs/oracle/tenants: c=297 k=12 a=3 occ=415e267a643affb0 use=415d7cfbc32f9ca6 wait=2118469573847 sd=409cf528b41fab32 mk=654469286415 n=64 pu=d562e53b1f8a74cf audit={"completed": 297, "killed_at_limit": 12, "priority_ranked": 716, "resubmitted": 9, "started": 309, "submitted": 300} jsonl=238632"#,
        r#"Easy/user/default: c=276 k=218 a=24 occ=416240f12d3ff8ab use=415b959b2c7f8011 wait=1173239287055 sd=4096126e7b6fc475 mk=641919732314 n=64 pu=3343145b0df012e1 audit={"backfilled": 102, "completed": 276, "head_of_queue": 175, "killed_at_limit": 218, "reservation_placed": 187, "resubmitted": 194, "skipped_backfill": 185, "started": 494, "submitted": 300} jsonl=240482"#,
        r#"Easy/user/tenants: c=273 k=228 a=27 occ=41624ff0b3941c83 use=415b2ead3b729f5a wait=2002243947653 sd=40a0a757f193448f mk=659799724686 n=64 pu=e5cd470c6be71f89 audit={"backfilled": 51, "completed": 273, "head_of_queue": 142, "killed_at_limit": 228, "priority_ranked": 738, "reservation_placed": 217, "resubmitted": 201, "skipped_backfill": 186, "started": 501, "submitted": 300} jsonl=386089"#,
        r#"Easy/oracle/default: c=300 k=0 a=0 occ=415de4a81ba860db use=415de3e9b43c7d5d wait=842730274921 sd=4094cb3e199a566c mk=636808858296 n=64 pu=30d4cf97725e8dd audit={"backfilled": 49, "completed": 300, "head_of_queue": 106, "reservation_placed": 106, "skipped_backfill": 131, "started": 300, "submitted": 300} jsonl=137651"#,
        r#"Easy/oracle/tenants: c=297 k=12 a=3 occ=415e267a643affb0 use=415d7cfbc32f9ca6 wait=1136842296678 sd=4098b4b5d06bcd25 mk=652310344942 n=64 pu=180c00cdbe808e45 audit={"backfilled": 29, "completed": 297, "head_of_queue": 127, "killed_at_limit": 12, "priority_ranked": 514, "reservation_placed": 136, "resubmitted": 9, "skipped_backfill": 131, "started": 309, "submitted": 300} jsonl=248207"#,
        r#"Conservative/user/default: c=276 k=218 a=24 occ=416240f12d3ff8ab use=415b959b2c7f8011 wait=1201679599388 sd=409817cdf86dd196 mk=641919732314 n=64 pu=f7a221c74d31a3aa audit={"backfilled": 102, "completed": 276, "head_of_queue": 175, "killed_at_limit": 218, "reservation_placed": 188, "resubmitted": 194, "skipped_backfill": 198, "started": 494, "submitted": 300} jsonl=241266"#,
        r#"Conservative/user/tenants: c=273 k=228 a=27 occ=41624ff0b3941c83 use=415b2ead3b729f5a wait=2002243947653 sd=40a0a757f193448f mk=659799724686 n=64 pu=e5cd470c6be71f89 audit={"backfilled": 51, "completed": 273, "head_of_queue": 133, "killed_at_limit": 228, "priority_ranked": 738, "reservation_placed": 206, "resubmitted": 201, "skipped_backfill": 183, "started": 501, "submitted": 300} jsonl=383176"#,
        r#"Conservative/oracle/default: c=300 k=0 a=0 occ=415de4a81ba860db use=415de3e9b43c7d5d wait=842730274921 sd=4094cb3e199a566c mk=636808858296 n=64 pu=30d4cf97725e8dd audit={"backfilled": 49, "completed": 300, "head_of_queue": 106, "reservation_placed": 106, "skipped_backfill": 131, "started": 300, "submitted": 300} jsonl=137252"#,
        r#"Conservative/oracle/tenants: c=297 k=12 a=3 occ=415e267a643affb0 use=415d7cfbc32f9ca6 wait=1136842296678 sd=4098b4b5d06bcd25 mk=652310344942 n=64 pu=180c00cdbe808e45 audit={"backfilled": 29, "completed": 297, "head_of_queue": 118, "killed_at_limit": 12, "priority_ranked": 514, "reservation_placed": 126, "resubmitted": 9, "skipped_backfill": 146, "started": 309, "submitted": 300} jsonl=247671"#,
    ];
    let mut got = Vec::new();
    for algo in [SchedAlgo::Fcfs, SchedAlgo::Easy, SchedAlgo::Conservative] {
        for oracle in [false, true] {
            for tenants in [false, true] {
                got.push(outcome_line(algo, oracle, tenants));
            }
        }
    }
    assert_eq!(got, EXPECTED, "\n{}", got.join("\n"));
}
