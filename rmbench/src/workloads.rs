//! The four workloads, each runnable untraced (through the repository's
//! own builders, as a user would) or traced (the same actors built with
//! the same public constructors, wrapped in the bench-side decorators).

use crate::check::{des_fingerprint, des_invariants, sched_fingerprint, sched_invariants};
use crate::check::{Checks, FNV_INIT};
use crate::inputs::{fault_storm, job_stream, sched_trace, JobSpec};
use crate::trace::{Agg, TracedActor, TracedLimit, TracedPredictor, Tracer};
use emu::{FaultPlan, NodeId, SimCluster, SimConfig};
use eslurm::SatelliteDaemon;
use eslurm::{EslurmConfig, EslurmMaster, EslurmNode, EslurmSystemBuilder, PredictiveLimit};
use estimate::EstimatorConfig;
use monitoring::{FailurePredictor, OraclePredictor};
use obs::{EngineProfiler, Sampler};
use rm::{CentralizedMaster, HeartbeatMode, NodeSlice, RmClusterBuilder, RmMsg, RmNode};
use rm::{RmProfile, SlaveConfig, SlaveDaemon, SlaveHeartbeat};
use sched::prelude::{simulate, BackfillConfig, ScheduleReport, UserLimit};
use simclock::rng::derive_seed;
use simclock::{SimSpan, SimTime};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use workload::Job;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// ESlurm at ~100k nodes under a failure storm with an oracle
    /// predictor: tree dispatch, FP-Tree placement, timeout/retry.
    EslurmFaults,
    /// Slurm at fig9's 16,384 nodes: synchronized heartbeat fan-in and
    /// ephemeral-socket churn at one master, 1 Hz sampler on.
    SlurmFanin,
    /// A fig10-style trace through EASY backfill under the user-limit and
    /// the predictive policy: scheduler and estimator only.
    SchedReplay,
    /// `EslurmFaults`' stream without faults or predictor, on the parallel
    /// worker engine with two shards.
    EslurmSharded,
}

/// Input sizes: `Full` is what the benchmark measures, `Small` a quick
/// instance of the same shape for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::EslurmFaults,
        Workload::SlurmFanin,
        Workload::SchedReplay,
        Workload::EslurmSharded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EslurmFaults => "eslurm_faults",
            Workload::SlurmFanin => "slurm_fanin",
            Workload::SchedReplay => "sched_replay",
            Workload::EslurmSharded => "eslurm_sharded",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One repetition: generate the inputs from `seed`, set up, run, check.
    pub fn run(self, seed: u64, scale: Scale, traced: bool) -> Rep {
        match self {
            Workload::EslurmFaults | Workload::EslurmSharded => {
                let p = EslurmParams::of(self, scale);
                if traced {
                    eslurm_traced(&p, seed, p.shards)
                } else {
                    eslurm_untraced(&p, seed, true)
                }
            }
            Workload::SlurmFanin => {
                let p = FaninParams::of(scale);
                if traced {
                    fanin_traced(&p, seed)
                } else {
                    fanin_untraced(&p, seed, true)
                }
            }
            Workload::SchedReplay => {
                let p = SchedParams::of(scale);
                if traced {
                    sched_traced(&p, seed)
                } else {
                    sched_untraced(&p, seed, true)
                }
            }
        }
    }

    /// The untraced repetition's set-up alone (inputs, build, injection),
    /// in seconds; the built cluster is dropped unrun.
    pub fn setup_only(self, seed: u64, scale: Scale) -> f64 {
        let rep = match self {
            Workload::EslurmFaults | Workload::EslurmSharded => {
                eslurm_untraced(&EslurmParams::of(self, scale), seed, false)
            }
            Workload::SlurmFanin => fanin_untraced(&FaninParams::of(scale), seed, false),
            Workload::SchedReplay => sched_untraced(&SchedParams::of(scale), seed, false),
        };
        rep.setup_s
    }

    /// The sharded workload's inputs run on the serial engine (traced, so
    /// its per-layer numbers come with it) — the shard-invariance reference.
    pub fn serial_reference(self, seed: u64, scale: Scale) -> Option<Rep> {
        (self == Workload::EslurmSharded)
            .then(|| eslurm_traced(&EslurmParams::of(self, scale), seed, 1))
    }
}

/// Result of one repetition.
#[derive(Debug, Default)]
pub struct Rep {
    /// Input generation, cluster build and job injection.
    pub setup_s: f64,
    /// Host time inside `run_until` / `simulate`.
    pub run_s: f64,
    /// Simulation events processed.
    pub events: u64,
    /// Jobs handled: submitted over the horizon (DES) or started by the
    /// scheduler, restarts included (both policies).
    pub jobs: u64,
    pub fingerprint: u64,
    pub checks: Checks,
    /// Per-layer metrics (traced repetitions only).
    pub layers: BTreeMap<String, f64>,
    /// Aggregates and sampled spans as JSON (traced repetitions only).
    pub trace_json: Option<String>,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------- ESlurm

struct EslurmParams {
    n_slaves: usize,
    satellites: usize,
    horizon: SimSpan,
    jobs: usize,
    max_job: u32,
    mean_runtime: SimSpan,
    /// `(small outages, nodes in the maintenance event)`; `None` runs
    /// fault- and predictor-free.
    faults: Option<(usize, usize)>,
    shards: usize,
}

impl EslurmParams {
    fn of(w: Workload, scale: Scale) -> Self {
        let (n_slaves, satellites, horizon_s) = match scale {
            Scale::Full => (100_000, 16, 240),
            Scale::Small => (2_000, 4, 240),
        };
        let faulted = w == Workload::EslurmFaults;
        EslurmParams {
            n_slaves,
            satellites,
            horizon: SimSpan::from_secs(horizon_s),
            // About one job per node-hour.
            jobs: n_slaves * horizon_s as usize / 3600,
            max_job: 256,
            mean_runtime: SimSpan::from_secs(120),
            faults: faulted.then_some((n_slaves / 200, n_slaves / 100)),
            shards: if faulted { 1 } else { 2 },
        }
    }

    fn config(&self) -> EslurmConfig {
        EslurmConfig {
            n_satellites: self.satellites,
            eq1_width: 64,
            relay_width: 8,
            hb_sweep_interval: SimSpan::from_secs(120),
            sat_hb_interval: SimSpan::from_secs(30),
            ..Default::default()
        }
    }
}

struct EslurmInputs {
    stream: Vec<JobSpec>,
    faults: Option<FaultPlan>,
}

impl EslurmInputs {
    fn generate(p: &EslurmParams, seed: u64) -> Self {
        EslurmInputs {
            stream: job_stream(
                seed,
                p.n_slaves as u32,
                p.horizon,
                p.jobs,
                p.max_job,
                p.mean_runtime,
            ),
            faults: p.faults.map(|(small, large)| {
                fault_storm(seed, p.n_slaves, 1 + p.satellites, p.horizon, small, large)
            }),
        }
    }
}

/// Oracle over the storm: 300 s lead, recall 0.8, four false positives
/// per query.
fn oracle(plan: &FaultPlan, seed: u64) -> OraclePredictor {
    OraclePredictor::new(plan.clone(), SimSpan::from_secs(300), seed)
        .with_recall(0.8)
        .with_false_positives(4)
}

fn runtimes(stream: &[JobSpec]) -> Vec<u64> {
    stream.iter().map(|j| j.runtime.as_micros()).collect()
}

fn eslurm_untraced(p: &EslurmParams, seed: u64, run: bool) -> Rep {
    let t0 = Instant::now();
    let inputs = EslurmInputs::generate(p, seed);
    let mut b = EslurmSystemBuilder::new(p.config(), p.n_slaves, seed).shards(p.shards);
    if let Some(plan) = &inputs.faults {
        b = b
            .faults(plan.clone())
            .predictor(Arc::new(Mutex::new(oracle(plan, seed))));
    }
    let mut sys = b.build();
    let mut idxs = Vec::new();
    for (job, j) in inputs.stream.iter().enumerate() {
        idxs.clear();
        idxs.extend(j.first as usize..(j.first + j.count) as usize);
        sys.submit(j.at, job as u64, &idxs, j.runtime);
    }
    let setup_s = secs(t0);
    if !run {
        return Rep {
            setup_s,
            ..Rep::default()
        };
    }
    let t1 = Instant::now();
    sys.sim.run_until(SimTime::ZERO + p.horizon);
    let run_s = secs(t1);
    let records = &sys.master().records;
    let mut checks = Checks::default();
    des_invariants(records, &runtimes(&inputs.stream), &mut checks);
    Rep {
        setup_s,
        run_s,
        events: sys.sim.events_processed(),
        jobs: inputs.stream.len() as u64,
        fingerprint: des_fingerprint(&sys.sim, records, 1 + p.satellites),
        checks,
        ..Rep::default()
    }
}

/// The ESlurm cluster `EslurmSystemBuilder::build` makes, assembled from
/// the same public constructors with every node wrapped for tracing.
fn eslurm_traced(p: &EslurmParams, seed: u64, shards: usize) -> Rep {
    let tracer = Tracer::new();
    let t0 = Instant::now();
    let inputs = EslurmInputs::generate(p, seed);
    let generate_s = secs(t0);

    let t1 = Instant::now();
    let cfg = p.config();
    let m = p.satellites;
    let total = 1 + m + p.n_slaves;
    let sat_ids: Vec<u32> = (1..=m as u32).collect();
    let slave_ids: Vec<u32> = (m as u32 + 1..total as u32).collect();
    let predictor: Option<Arc<Mutex<dyn FailurePredictor>>> = inputs.faults.as_ref().map(|plan| {
        Arc::new(Mutex::new(TracedPredictor::new(
            oracle(plan, seed),
            tracer.clone(),
        ))) as Arc<Mutex<dyn FailurePredictor>>
    });
    let mut actors = Vec::with_capacity(total);
    actors.push(TracedActor::new(
        EslurmNode::Master(EslurmMaster::new(cfg.clone(), slave_ids, sat_ids)),
        "eslurm.master",
        tracer.clone(),
    ));
    for _ in 0..m {
        actors.push(TracedActor::new(
            EslurmNode::Satellite(SatelliteDaemon::new(cfg.clone(), predictor.clone())),
            "eslurm.satellite",
            tracer.clone(),
        ));
    }
    for _ in 0..p.n_slaves {
        actors.push(TracedActor::new(
            EslurmNode::Slave(SlaveDaemon::new(SlaveConfig {
                master: NodeId::MASTER,
                heartbeat: SlaveHeartbeat::None,
                conn_lifetime: cfg.conn_lifetime,
                ..SlaveConfig::default()
            })),
            "rm.slave",
            tracer.clone(),
        ));
    }
    let mut config = SimConfig::new(total, seed);
    config.shards = shards;
    if shards > 1 {
        // The builder's FP-Tree partition: satellite i on shard i mod k,
        // its block of compute nodes with it, the master on shard 0.
        let k = shards.min(m.max(1));
        let mut part = vec![0u32; total];
        for i in 0..m {
            part[1 + i] = (i % k) as u32;
        }
        for (i, &(start, len)) in eslurm::config::partition(p.n_slaves, m.max(1))
            .iter()
            .enumerate()
        {
            for j in start..start + len {
                part[1 + m + j] = (i % k) as u32;
            }
        }
        config.partition = Some(part);
    }
    if let Some(plan) = inputs.faults.clone() {
        config.faults = plan;
    }
    let profiler = EngineProfiler::enabled();
    config.engine = profiler.clone();
    let mut sim = SimCluster::new(actors, config);
    let build_s = secs(t1);

    let t2 = Instant::now();
    let first_slave = (1 + m) as u32;
    for (job, j) in inputs.stream.iter().enumerate() {
        sim.inject(
            j.at,
            NodeId::MASTER,
            NodeId::MASTER,
            RmMsg::SubmitJob {
                job: job as u64,
                nodes: NodeSlice::from_nodes((j.first..j.first + j.count).map(|i| first_slave + i)),
                runtime_us: j.runtime.as_micros(),
            },
        );
    }
    let inject_s = secs(t2);
    let setup_s = secs(t0);

    let t3 = Instant::now();
    sim.run_until(SimTime::ZERO + p.horizon);
    let run_s = secs(t3);

    let EslurmNode::Master(master) = &sim.actor(NodeId::MASTER).inner else {
        unreachable!("node 0 is the master")
    };
    let records = &master.records;
    let mut checks = Checks::default();
    des_invariants(records, &runtimes(&inputs.stream), &mut checks);
    let mut layers = des_layers(
        &tracer,
        &profiler,
        run_s,
        sim.events_processed(),
        inputs.stream.len(),
    );
    layers.insert("workload.generate_s".into(), generate_s);
    layers.insert("builder.build_s".into(), build_s);
    layers.insert("builder.inject_s".into(), inject_s);
    Rep {
        setup_s,
        run_s,
        events: sim.events_processed(),
        jobs: inputs.stream.len() as u64,
        fingerprint: des_fingerprint(&sim, records, 1 + m),
        checks,
        layers,
        trace_json: Some(tracer.to_json()),
    }
}

// ------------------------------------------------------------ Slurm fan-in

struct FaninParams {
    n_slaves: usize,
    horizon: SimSpan,
    jobs: usize,
    mean_runtime: SimSpan,
}

impl FaninParams {
    fn of(scale: Scale) -> Self {
        let (n_slaves, horizon_s) = match scale {
            Scale::Full => (16_384, 1200),
            Scale::Small => (512, 300),
        };
        FaninParams {
            n_slaves,
            horizon: SimSpan::from_secs(horizon_s),
            // Fig. 9's 60 jobs per hour.
            jobs: horizon_s as usize / 60,
            mean_runtime: SimSpan::from_secs(1500),
        }
    }

    fn stream(&self, seed: u64) -> Vec<JobSpec> {
        let n = self.n_slaves as u32;
        job_stream(seed, n, self.horizon, self.jobs, n, self.mean_runtime)
    }

    fn sampler(&self) -> Sampler {
        Sampler::every_until(SimSpan::from_secs(1), SimTime::ZERO + self.horizon)
    }
}

/// Compute-node ids of a spec on a centralized cluster (slaves are
/// `1..=n`).
fn rm_nodes(j: &JobSpec) -> Vec<u32> {
    (j.first + 1..j.first + 1 + j.count).collect()
}

fn fanin_untraced(p: &FaninParams, seed: u64, run: bool) -> Rep {
    let t0 = Instant::now();
    let stream = p.stream(seed);
    let mut h = RmClusterBuilder::new(RmProfile::slurm(), p.n_slaves + 1)
        .seed(seed)
        .sampler(p.sampler())
        .build();
    for (job, j) in stream.iter().enumerate() {
        h.submit(j.at, job as u64, rm_nodes(j), j.runtime);
    }
    let setup_s = secs(t0);
    if !run {
        return Rep {
            setup_s,
            ..Rep::default()
        };
    }
    let t1 = Instant::now();
    h.sim.run_until(SimTime::ZERO + p.horizon);
    let run_s = secs(t1);
    let records = &h.master_actor().records;
    let mut checks = Checks::default();
    des_invariants(records, &runtimes(&stream), &mut checks);
    Rep {
        setup_s,
        run_s,
        events: h.sim.events_processed(),
        jobs: stream.len() as u64,
        fingerprint: des_fingerprint(&h.sim, records, 1),
        checks,
        ..Rep::default()
    }
}

/// The cluster `RmClusterBuilder::build` makes for the Slurm profile,
/// assembled from the same public constructors with every node wrapped.
fn fanin_traced(p: &FaninParams, seed: u64) -> Rep {
    let tracer = Tracer::new();
    let t0 = Instant::now();
    let stream = p.stream(seed);
    let generate_s = secs(t0);

    let t1 = Instant::now();
    let n = p.n_slaves + 1;
    let profile = RmProfile::slurm();
    let heartbeat = match profile.heartbeat {
        HeartbeatMode::MasterPolls { .. } => SlaveHeartbeat::None,
        HeartbeatMode::SlavePush {
            interval,
            synchronized,
        } => SlaveHeartbeat::Push {
            interval,
            synchronized,
        },
    };
    let slave_cfg = SlaveConfig {
        master: NodeId::MASTER,
        heartbeat,
        conn_lifetime: profile.conn_lifetime,
        ..SlaveConfig::default()
    };
    let mut actors = Vec::with_capacity(n);
    actors.push(TracedActor::new(
        RmNode::Master(CentralizedMaster::new(profile, (1..n as u32).collect())),
        "rm.master",
        tracer.clone(),
    ));
    for _ in 1..n {
        actors.push(TracedActor::new(
            RmNode::Slave(SlaveDaemon::new(slave_cfg.clone())),
            "rm.slave",
            tracer.clone(),
        ));
    }
    let mut config = SimConfig::new(n, seed);
    let sampler = p.sampler();
    sampler.name_node(NodeId::MASTER.0, "master");
    config.sampler = sampler.clone();
    let profiler = EngineProfiler::enabled();
    config.engine = profiler.clone();
    let mut sim = SimCluster::new(actors, config);
    let build_s = secs(t1);

    let t2 = Instant::now();
    for (job, j) in stream.iter().enumerate() {
        sim.inject(
            j.at,
            NodeId::MASTER,
            NodeId::MASTER,
            RmMsg::SubmitJob {
                job: job as u64,
                nodes: NodeSlice::new(rm_nodes(j)),
                runtime_us: j.runtime.as_micros(),
            },
        );
    }
    let inject_s = secs(t2);
    let setup_s = secs(t0);

    let t3 = Instant::now();
    sim.run_until(SimTime::ZERO + p.horizon);
    let run_s = secs(t3);

    let RmNode::Master(master) = &sim.actor(NodeId::MASTER).inner else {
        unreachable!("node 0 is the master")
    };
    let records = &master.records;
    let mut checks = Checks::default();
    des_invariants(records, &runtimes(&stream), &mut checks);
    let mut layers = des_layers(
        &tracer,
        &profiler,
        run_s,
        sim.events_processed(),
        stream.len(),
    );
    layers.insert("workload.generate_s".into(), generate_s);
    layers.insert("builder.build_s".into(), build_s);
    layers.insert("builder.inject_s".into(), inject_s);
    layers.insert(
        "obs.sampler.points".into(),
        sampler.store().n_points() as f64,
    );
    Rep {
        setup_s,
        run_s,
        events: sim.events_processed(),
        jobs: stream.len() as u64,
        fingerprint: des_fingerprint(&sim, records, 1),
        checks,
        layers,
        trace_json: Some(tracer.to_json()),
    }
}

/// Handler layers of the DES actors.
const ACTOR_LAYERS: [&str; 4] = ["eslurm.master", "eslurm.satellite", "rm.master", "rm.slave"];

/// Per-layer metrics of a traced DES run.
fn des_layers(
    tracer: &Tracer,
    profiler: &EngineProfiler,
    run_s: f64,
    events: u64,
    injected: usize,
) -> BTreeMap<String, f64> {
    let agg = tracer.aggregates();
    let get = |layer, kind| -> Agg { agg.get(&(layer, kind)).copied().unwrap_or_default() };
    let mut out = BTreeMap::new();
    out.insert("workload.jobs".into(), injected as f64);
    out.insert("emu.events".into(), events as f64);

    let mut handler_ns = 0u64;
    let mut delivered = 0u64;
    for (&(layer, kind), a) in &agg {
        if !ACTOR_LAYERS.contains(&layer) {
            continue;
        }
        handler_ns += a.total_ns;
        if kind != "timer" && kind != "start" {
            delivered += a.calls;
        }
        out.insert(format!("{layer}.{kind}.calls"), a.calls as f64);
        out.insert(format!("{layer}.{kind}.ns"), a.self_ns as f64);
    }
    out.insert("emu.self_s".into(), run_s - handler_ns as f64 / 1e9);
    let sent = get("emu.ctx", "send").calls;
    out.insert(
        "emu.delivered_frac".into(),
        delivered.saturating_sub(injected as u64) as f64 / sent.max(1) as f64,
    );
    for kind in ["send", "timer", "socket"] {
        let a = get("emu.ctx", kind);
        out.insert(format!("emu.ctx.{kind}.calls"), a.calls as f64);
        out.insert(format!("emu.ctx.{kind}.ns"), a.self_ns as f64);
    }
    let s = get("monitoring", "suspects");
    out.insert("monitoring.suspects.calls".into(), s.calls as f64);
    out.insert("monitoring.suspects.ns".into(), s.self_ns as f64);
    out.insert(
        "monitoring.suspects.set_size_mean".into(),
        s.value / s.calls.max(1) as f64,
    );

    if let Some(r) = profiler.report() {
        let queue_ns: u64 = r.shards.iter().map(|s| s.queue_ns).sum();
        out.insert(
            "simclock.queue_ns_per_event".into(),
            queue_ns as f64 / r.total_events().max(1) as f64,
        );
        out.insert(
            "simclock.max_queue_depth".into(),
            r.shards
                .iter()
                .map(|s| s.max_queue_depth)
                .max()
                .unwrap_or(0) as f64,
        );
        out.insert("emu.sync_fraction".into(), r.sync_fraction());
        out.insert("emu.null_window_fraction".into(), r.null_window_fraction());
        out.insert("emu.imbalance".into(), r.imbalance());
        out.insert("emu.cross_shard_msgs".into(), r.cross_shard_total() as f64);
    }
    out
}

// ------------------------------------------------------------ Scheduler

struct SchedParams {
    nodes: u32,
    /// Independent traces per repetition, so one trace's job mix does not
    /// set the repetition's cost.
    traces: u64,
    jobs_per_trace: usize,
}

impl SchedParams {
    fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => SchedParams {
                nodes: 20_480,
                traces: 16,
                jobs_per_trace: 1_000,
            },
            Scale::Small => SchedParams {
                nodes: 1_024,
                traces: 2,
                jobs_per_trace: 800,
            },
        }
    }

    fn generate(&self, seed: u64) -> Vec<(Vec<Job>, SimSpan)> {
        (0..self.traces)
            .map(|k| sched_trace(derive_seed(seed, k), self.nodes, self.jobs_per_trace))
            .collect()
    }
}

/// Fig. 10's ESlurm estimator settings, except that the model is due for
/// regeneration every fortieth of the trace's `horizon` (whose length
/// depends on the seed) instead of every 15 h, and trained on one thread
/// so the scheduler workload stays a single thread.
fn predictive(horizon: SimSpan) -> PredictiveLimit {
    PredictiveLimit::new(EstimatorConfig {
        window: 2000,
        retrain_every: horizon / 40,
        train_threads: 1,
        ..Default::default()
    })
}

/// Tallies the reports of both policies over every trace: invariants,
/// fingerprint, events (one arrival per job plus one end per start) and
/// jobs started.
#[derive(Default)]
struct SchedTally {
    checks: Checks,
    fingerprint: u64,
    events: u64,
    started: u64,
}

impl SchedTally {
    fn new() -> Self {
        SchedTally {
            fingerprint: FNV_INIT,
            ..Default::default()
        }
    }

    fn add(&mut self, r: &ScheduleReport, jobs: usize) {
        sched_invariants(r, jobs, &mut self.checks);
        self.fingerprint = sched_fingerprint(r, self.fingerprint);
        self.events += (jobs + r.completed + r.killed) as u64;
        self.started += (r.completed + r.killed) as u64;
    }

    fn into_rep(self, setup_s: f64, run_s: f64) -> Rep {
        Rep {
            setup_s,
            run_s,
            events: self.events,
            jobs: self.started,
            fingerprint: self.fingerprint,
            checks: self.checks,
            ..Rep::default()
        }
    }
}

fn sched_untraced(p: &SchedParams, seed: u64, run: bool) -> Rep {
    let t0 = Instant::now();
    let traces = p.generate(seed);
    let setup_s = secs(t0);
    if !run {
        return Rep {
            setup_s,
            ..Rep::default()
        };
    }
    let cfg = BackfillConfig::new(p.nodes);
    let mut tally = SchedTally::new();
    let mut run_s = 0.0;
    for (jobs, horizon) in &traces {
        let t1 = Instant::now();
        let user = simulate(jobs, &mut UserLimit::default(), &cfg);
        let pred = simulate(jobs, &mut predictive(*horizon), &cfg);
        run_s += secs(t1);
        tally.add(&user, jobs.len());
        tally.add(&pred, jobs.len());
    }
    tally.into_rep(setup_s, run_s)
}

fn sched_traced(p: &SchedParams, seed: u64) -> Rep {
    let tracer = Tracer::new();
    let t0 = Instant::now();
    let traces = p.generate(seed);
    let setup_s = secs(t0);
    let cfg = BackfillConfig::new(p.nodes);
    let mut tally = SchedTally::new();
    let mut run_s = 0.0;
    let (mut useful, mut occupied) = (0.0, 0.0);
    let (mut completed, mut killed, mut abandoned) = (0, 0, 0);
    let (mut model_limits, mut jobs_total) = (0u64, 0usize);
    for (jobs, horizon) in &traces {
        let t1 = Instant::now();
        let mut user = TracedLimit::new(
            UserLimit::default(),
            "sched.user_limit",
            |_| 0,
            tracer.clone(),
        );
        let ru = tracer.span("sched.simulate", "user", None, || {
            simulate(jobs, &mut user, &cfg)
        });
        let mut pred = TracedLimit::new(
            predictive(*horizon),
            "estimate",
            |p: &PredictiveLimit| p.estimator().retrain_count(),
            tracer.clone(),
        );
        let rp = tracer.span("sched.simulate", "predictive", None, || {
            simulate(jobs, &mut pred, &cfg)
        });
        run_s += secs(t1);
        for r in [&ru, &rp] {
            tally.add(r, jobs.len());
            useful += r.useful_node_secs;
            occupied += r.occupied_node_secs;
            completed += r.completed;
            killed += r.killed;
            abandoned += r.abandoned;
        }
        model_limits += pred.inner.model_limits;
        jobs_total += jobs.len();
    }

    let mut rep = tally.into_rep(setup_s, run_s);
    let agg = tracer.aggregates();
    let get = |layer, kind| -> Agg { agg.get(&(layer, kind)).copied().unwrap_or_default() };
    let l = &mut rep.layers;
    l.insert("workload.generate_s".into(), setup_s);
    l.insert("workload.jobs".into(), jobs_total as f64);
    let (su, sp) = (
        get("sched.simulate", "user"),
        get("sched.simulate", "predictive"),
    );
    l.insert("sched.simulate_s.user".into(), su.total_ns as f64 / 1e9);
    l.insert(
        "sched.simulate_s.predictive".into(),
        sp.total_ns as f64 / 1e9,
    );
    l.insert(
        "sched.backfill_self_s".into(),
        (su.self_ns + sp.self_ns) as f64 / 1e9,
    );
    l.insert("sched.useful_frac".into(), useful / occupied.max(1e-9));
    l.insert("sched.completed".into(), completed as f64);
    l.insert("sched.killed".into(), killed as f64);
    l.insert("sched.abandoned".into(), abandoned as f64);
    for (kind, calls) in [
        ("predict", "calls"),
        ("retrain", "count"),
        ("observe", "calls"),
        ("resubmit", "calls"),
    ] {
        let a = get("estimate", kind);
        l.insert(format!("estimate.{kind}.{calls}"), a.calls as f64);
        l.insert(format!("estimate.{kind}.ns"), a.self_ns as f64);
    }
    let limits = get("estimate", "predict").calls + get("estimate", "retrain").calls;
    l.insert(
        "estimate.model_frac".into(),
        model_limits as f64 / limits.max(1) as f64,
    );
    rep.trace_json = Some(tracer.to_json());
    rep
}
