//! Workload inputs, generated up front from the seed alone: job streams,
//! fault plans and scheduler traces. The program under test receives only
//! these generated inputs.

use emu::{FaultPlan, FaultPlanBuilder, NodeId, Outage};
use rand::RngExt;
use simclock::rng::{exponential, stream_rng};
use simclock::{SimSpan, SimTime};
use workload::{Job, TraceConfig};

/// One submission: `count` consecutive compute nodes starting at the
/// 0-based compute-node index `first`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct JobSpec {
    pub(crate) at: SimTime,
    pub(crate) first: u32,
    pub(crate) count: u32,
    pub(crate) runtime: SimSpan,
}

/// The fig9 / `bench_des` stream shape with a fixed job count: `jobs`
/// arrivals spread over the horizon as a Poisson process conditioned on
/// its count (so run-to-run work differs only in the jobs' shapes),
/// log-uniform sizes in `1..=max_nodes`, exponential runtimes with mean
/// `mean_runtime` and a 5 s floor, over `n` compute nodes.
pub(crate) fn job_stream(
    seed: u64,
    n: u32,
    horizon: SimSpan,
    jobs: usize,
    max_nodes: u32,
    mean_runtime: SimSpan,
) -> Vec<JobSpec> {
    let mut rng = stream_rng(seed, 0x10B5);
    let gaps: Vec<f64> = (0..=jobs).map(|_| exponential(&mut rng, 1.0)).collect();
    let scale = horizon.as_secs_f64() / gaps.iter().sum::<f64>();
    let max_exp = (max_nodes.min(n) as f64).log2();
    let mut t = 0.0f64;
    gaps[..jobs]
        .iter()
        .map(|gap| {
            t += gap * scale;
            let count = 2f64.powf(rng.random::<f64>() * max_exp).round().max(1.0) as u32;
            let first = rng.random_range(0..n - count.min(n - 1));
            let runtime = SimSpan::from_secs_f64(
                exponential(&mut rng, 1.0 / mean_runtime.as_secs_f64()).max(5.0),
            );
            JobSpec {
                at: SimTime::from_secs_f64(t),
                first,
                count,
                runtime,
            }
        })
        .collect()
}

/// A failure storm on the compute nodes: `small` outages of 1..=8 nodes
/// at random times, plus a maintenance event taking `large` consecutive
/// nodes down from a quarter into the horizon to past its end (fixed in
/// time so every seed runs the predictor against it equally long), all
/// shifted past the `mgmt` management nodes (master and satellites) into
/// the deployment's global id space.
pub(crate) fn fault_storm(
    seed: u64,
    n_slaves: usize,
    mgmt: usize,
    horizon: SimSpan,
    small: usize,
    large: usize,
) -> FaultPlan {
    let plan = FaultPlanBuilder::new(n_slaves, horizon, seed ^ 0xFA17)
        .small_events(small, 8)
        .mean_outage(SimSpan::from_secs(300))
        .build();
    let mut outages: Vec<Outage> = plan.outages().to_vec();
    let first = stream_rng(seed, 0xFA17).random_range(0..(n_slaves - large) as u32);
    let down_at = SimTime::ZERO + horizon / 4;
    outages.extend((first..first + large as u32).map(|node| Outage {
        node: NodeId(node),
        down_at,
        up_at: SimTime::ZERO + horizon * 2,
    }));
    for o in &mut outages {
        o.node = NodeId(o.node.0 + mgmt as u32);
    }
    FaultPlan::from_outages(mgmt + n_slaves, outages)
}

/// Fig. 10's Tianhe-2A-like trace, a third of its jobs without a walltime
/// request, but with 1000 users of Zipf-1 activity (the preset's 120 users
/// at Zipf 2 let one user's few templates set the whole job mix, so cost
/// swung tenfold between seeds) and a fixed job count: the submissions
/// are stretched in time so the offered load on `nodes` nodes is 105 %,
/// whatever mix of job sizes the seed drew. Returns the trace and its
/// horizon.
pub(crate) fn sched_trace(seed: u64, nodes: u32, jobs: usize) -> (Vec<Job>, SimSpan) {
    let mut cfg = TraceConfig::tianhe2a()
        .with_seed(seed)
        .with_jobs(jobs)
        .with_users(1000);
    cfg.user_zipf = 1.0;
    cfg.max_nodes = (nodes / 2).max(64);
    cfg.horizon = SimSpan::from_hours(28 * 24);
    cfg.no_estimate_prob = 0.33;
    let mut trace = cfg.generate();
    let work: f64 = trace
        .iter()
        .map(|j| j.nodes.min(nodes) as f64 * j.actual_runtime.as_secs_f64())
        .sum();
    let horizon = SimSpan::from_secs_f64(work / (nodes as f64 * 1.05));
    let stretch = horizon.as_secs_f64() / cfg.horizon.as_secs_f64();
    for j in &mut trace {
        j.submit = SimTime::from_secs_f64(j.submit.as_secs_f64() * stretch);
    }
    (trace, horizon)
}
