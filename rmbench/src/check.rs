//! Outcome fingerprints and correctness checks.
//!
//! One FNV-1a helper covers every workload, so a change that only speeds
//! the program up can be seen to leave every simulated statistic — the
//! printed fingerprints — bit-identical.

use emu::{Actor, NodeId, SimCluster};
use rm::{JobRecord, RmMsg};
use sched::prelude::ScheduleReport;
use std::collections::HashSet;

/// FNV-1a offset basis.
pub(crate) const FNV_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Stable 64-bit FNV-1a over a byte stream (fingerprints must not depend
/// on the process' hash seeds).
fn fnv64(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of a DES run: clock, event count, drops, every master job
/// record, and the meters of the management nodes (master and satellites,
/// `0..mgmt_nodes`) — what the paper's figures read.
pub(crate) fn des_fingerprint<A: Actor<RmMsg>>(
    sim: &SimCluster<RmMsg, A>,
    records: &[JobRecord],
    mgmt_nodes: usize,
) -> u64 {
    let mut h = FNV_INIT;
    h = fnv64(&sim.now().as_micros().to_le_bytes(), h);
    h = fnv64(&sim.events_processed().to_le_bytes(), h);
    h = fnv64(&sim.dropped_messages().to_le_bytes(), h);
    for r in records {
        h = fnv64(format!("{r:?}").as_bytes(), h);
    }
    for i in 0..mgmt_nodes {
        let m = sim.meter(NodeId(i as u32));
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
    h
}

/// Fingerprint of one scheduling run: every `ScheduleReport` field.
pub(crate) fn sched_fingerprint(r: &ScheduleReport, h: u64) -> u64 {
    let text = format!(
        "{}|{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{:?}",
        r.completed,
        r.killed,
        r.abandoned,
        r.occupied_node_secs.to_bits(),
        r.useful_node_secs.to_bits(),
        r.total_wait,
        r.total_slowdown.to_bits(),
        r.makespan,
        r.nodes,
        r.per_user
    );
    fnv64(text.as_bytes(), h)
}

/// Tally of correctness checks; each failure keeps its description.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// DES invariants over the master's job records: no job recorded twice,
/// no more records than submissions, and every record's occupation at
/// least the runtime the job was submitted with (`runtime_us[job]`).
pub(crate) fn des_invariants(records: &[JobRecord], runtime_us: &[u64], c: &mut Checks) {
    let mut seen = HashSet::with_capacity(records.len());
    let dup = records.iter().find(|r| !seen.insert(r.job));
    c.check(dup.is_none(), || format!("job {:?} recorded twice", dup));
    c.check(records.len() <= runtime_us.len(), || {
        format!(
            "{} records for {} submitted jobs",
            records.len(),
            runtime_us.len()
        )
    });
    let short = records.iter().find(|r| {
        runtime_us
            .get(r.job as usize)
            .is_none_or(|&rt| r.occupation().as_micros() < rt)
    });
    c.check(short.is_none(), || {
        format!("record shorter than its runtime or unknown job: {short:?}")
    });
}

/// Scheduler invariants: every job completes or is abandoned, utilization
/// lies in `[0, 1]`, and useful node-time never exceeds occupied.
pub(crate) fn sched_invariants(r: &ScheduleReport, jobs: usize, c: &mut Checks) {
    c.check(r.completed + r.abandoned == jobs, || {
        format!(
            "completed {} + abandoned {} != {jobs} jobs",
            r.completed, r.abandoned
        )
    });
    let u = r.utilization();
    c.check((0.0..=1.0).contains(&u), || format!("utilization {u}"));
    c.check(r.useful_node_secs <= r.occupied_node_secs, || {
        format!(
            "useful {} > occupied {} node-seconds",
            r.useful_node_secs, r.occupied_node_secs
        )
    });
}
