//! The traced pass must measure the same program the untraced pass runs:
//! its decorators forward every trait method (defaulted ones included) and
//! its hand-assembled clusters mirror the builders, so on a small instance
//! of every workload the outcome fingerprints must match bit for bit.

use rmbench::workloads::{Scale, Workload};

const SEED: u64 = 7;

fn traced_matches_untraced(w: Workload) -> (u64, rmbench::workloads::Rep) {
    let plain = w.run(SEED, Scale::Small, false);
    let traced = w.run(SEED, Scale::Small, true);
    assert!(plain.checks.failures.is_empty(), "{:?}", plain.checks);
    assert!(traced.checks.failures.is_empty(), "{:?}", traced.checks);
    assert!(
        plain.jobs > 0 && plain.events > 0,
        "{} did no work",
        w.name()
    );
    assert_eq!(
        plain.fingerprint,
        traced.fingerprint,
        "{}: traced outcome differs from untraced",
        w.name()
    );
    (plain.fingerprint, traced)
}

#[test]
fn eslurm_faults_traced_matches_untraced() {
    let (_, traced) = traced_matches_untraced(Workload::EslurmFaults);
    assert!(traced.layers["monitoring.suspects.calls"] > 0.0);
    assert!(traced.layers["eslurm.satellite.BcastTask.calls"] > 0.0);
}

#[test]
fn slurm_fanin_traced_matches_untraced() {
    let (_, traced) = traced_matches_untraced(Workload::SlurmFanin);
    assert!(traced.layers["rm.master.Heartbeat.calls"] > 0.0);
    assert!(traced.layers["obs.sampler.points"] > 0.0);
}

#[test]
fn sched_replay_traced_matches_untraced() {
    let (_, traced) = traced_matches_untraced(Workload::SchedReplay);
    // The predictive policy's overridden methods are all exercised, so a
    // wrapper falling back to a trait default would change the outcome.
    for name in [
        "estimate.predict.calls",
        "estimate.retrain.count",
        "estimate.observe.calls",
        "estimate.resubmit.calls",
    ] {
        assert!(traced.layers[name] > 0.0, "{name} is 0");
    }
}

#[test]
fn eslurm_sharded_traced_matches_untraced_and_serial() {
    let (fingerprint, traced) = traced_matches_untraced(Workload::EslurmSharded);
    assert!(traced.layers["emu.cross_shard_msgs"] > 0.0);
    let serial = Workload::EslurmSharded
        .serial_reference(SEED, Scale::Small)
        .expect("sharded workload has a serial reference");
    assert_eq!(
        serial.fingerprint, fingerprint,
        "shard count changed outcomes"
    );
}
