//! The fixed-seed ESlurm scenario the non-perturbation suites share, and
//! the outcome fingerprint they compare runs by.
//!
//! Each suite compiles this module on its own and uses only part of it.
#![allow(dead_code)]

use eslurm_suite::emu::{FaultPlan, NodeId, Outage};
use eslurm_suite::eslurm::{EslurmConfig, EslurmSystem, EslurmSystemBuilder};
use eslurm_suite::simclock::{SimSpan, SimTime};

/// ESlurm with `m` satellites, tuned for small clusters: narrow relay
/// trees and a one-minute heartbeat sweep.
pub fn cfg(m: usize) -> EslurmConfig {
    EslurmConfig {
        n_satellites: m,
        eq1_width: 48,
        relay_width: 8,
        hb_sweep_interval: SimSpan::from_secs(60),
        sat_hb_interval: SimSpan::from_secs(5),
        ..Default::default()
    }
}

/// The shared scenario: 3 satellites, 180 compute nodes, two mid-run
/// outages, 12 jobs, run to t=600s over `shards` event-queue shards.
/// `arm` installs the instruments the suite compares on and off.
pub fn run(
    shards: usize,
    arm: impl FnOnce(EslurmSystemBuilder) -> EslurmSystemBuilder,
) -> EslurmSystem {
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
    let builder = EslurmSystemBuilder::new(cfg(m), n_slaves, 33)
        .faults(plan)
        .shards(shards);
    let mut sys = arm(builder).build();
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

/// Everything a run's outcome is judged by: final clock, event and drop
/// counts, the master's job records and every node's meters.
pub type Fingerprint = (SimTime, u64, u64, Vec<String>, Vec<String>);

pub fn outcome_fingerprint(sys: &EslurmSystem) -> Fingerprint {
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
