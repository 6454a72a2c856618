//! Whole-system wiring: build an emulated ESlurm cluster (master +
//! satellites + compute nodes) on the DES, inject job streams, and read
//! back records and meters.
//!
//! Node layout convention: node 0 is the master, nodes `1..=m` are the
//! satellites, and nodes `m+1..` are compute (slave) nodes.

use crate::config::EslurmConfig;
use crate::master::EslurmMaster;
use crate::satellite::SatelliteDaemon;
use emu::{Actor, Context, FaultPlan, NodeId, Sampling, SimCluster, SimConfig};
use monitoring::FailurePredictor;
use obs::{tag_scope, EngineProfiler, MemProfiler, MemTag, Recorder, Sampler, SloEngine};
use rm::proto::{NodeSlice, RmMsg};
use rm::slave::{SlaveConfig, SlaveDaemon, SlaveHeartbeat};
use sched::prelude::*;
use simclock::{SimSpan, SimTime};
use std::sync::{Arc, Mutex};

/// A node of an ESlurm cluster.
#[allow(clippy::large_enum_variant)] // one value per emulated node; size is fine
pub enum EslurmNode {
    /// The master daemon (node 0).
    Master(EslurmMaster),
    /// A satellite daemon.
    Satellite(SatelliteDaemon),
    /// A compute-node daemon.
    Slave(SlaveDaemon),
}

impl Actor<RmMsg> for EslurmNode {
    // Master and satellite FSMs are the management stack — their handlers
    // run under their own heap tag. Compute-node daemons keep the ambient
    // tag (the engine's `des-shard{n}` scope), so engine-vs-stack cost
    // stays separable in `mem-report`.
    fn on_start(&mut self, ctx: &mut dyn Context<RmMsg>) {
        match self {
            EslurmNode::Master(m) => {
                let _mem = tag_scope(MemTag::Master);
                m.on_start(ctx)
            }
            EslurmNode::Satellite(s) => {
                let _mem = tag_scope(MemTag::Satellite);
                s.on_start(ctx)
            }
            EslurmNode::Slave(s) => s.on_start(ctx),
        }
    }
    fn on_message(&mut self, ctx: &mut dyn Context<RmMsg>, from: NodeId, msg: RmMsg) {
        match self {
            EslurmNode::Master(m) => {
                let _mem = tag_scope(MemTag::Master);
                m.on_message(ctx, from, msg)
            }
            EslurmNode::Satellite(s) => {
                let _mem = tag_scope(MemTag::Satellite);
                s.on_message(ctx, from, msg)
            }
            EslurmNode::Slave(s) => s.on_message(ctx, from, msg),
        }
    }
    fn on_timer(&mut self, ctx: &mut dyn Context<RmMsg>, token: u64) {
        match self {
            EslurmNode::Master(m) => {
                let _mem = tag_scope(MemTag::Master);
                m.on_timer(ctx, token)
            }
            EslurmNode::Satellite(s) => {
                let _mem = tag_scope(MemTag::Satellite);
                s.on_timer(ctx, token)
            }
            EslurmNode::Slave(s) => s.on_timer(ctx, token),
        }
    }
}

/// A built ESlurm cluster.
pub struct EslurmSystem {
    /// The running simulation.
    pub sim: SimCluster<RmMsg, EslurmNode>,
    /// Number of satellites (nodes `1..=n_satellites`).
    pub n_satellites: usize,
    /// Number of compute nodes.
    pub n_slaves: usize,
    /// Multi-tenant policy layers for scheduling runs over this cluster
    /// (see [`EslurmSystem::backfill_config`]).
    pub policies: SchedPolicies,
}

/// Builder for [`EslurmSystem`].
pub struct EslurmSystemBuilder {
    cfg: EslurmConfig,
    n_slaves: usize,
    seed: u64,
    faults: Option<FaultPlan>,
    predictor: Option<Arc<Mutex<dyn FailurePredictor>>>,
    sample_until: Option<SimTime>,
    track_satellites: bool,
    obs: Recorder,
    sampler: Sampler,
    shards: usize,
    policies: SchedPolicies,
    engine: EngineProfiler,
    slo: SloEngine,
    mem: MemProfiler,
}

impl EslurmSystemBuilder {
    /// Start building a cluster of `n_slaves` compute nodes.
    pub fn new(cfg: EslurmConfig, n_slaves: usize, seed: u64) -> Self {
        EslurmSystemBuilder {
            cfg,
            n_slaves,
            seed,
            faults: None,
            predictor: None,
            sample_until: None,
            track_satellites: false,
            obs: Recorder::disabled(),
            sampler: Sampler::disabled(),
            shards: 1,
            policies: SchedPolicies::default(),
            engine: EngineProfiler::disabled(),
            slo: SloEngine::disabled(),
            mem: MemProfiler::disabled(),
        }
    }

    /// Install a partition set for scheduling runs over this cluster
    /// (mirrored verbatim on `RmClusterBuilder` — the builder-parity
    /// convention). The default single unconstrained partition leaves
    /// outcomes bit-identical to a partition-unaware scheduler.
    pub fn partitions(mut self, partitions: PartitionSet) -> Self {
        self.policies.partitions = partitions;
        self
    }

    /// Install a fair-share ledger (mirrored on `RmClusterBuilder`). The
    /// default disabled ledger charges nothing and scores everyone 1.0.
    pub fn fairshare(mut self, fairshare: FairShareLedger) -> Self {
        self.policies.fairshare = fairshare;
        self
    }

    /// Install a priority composition (mirrored on `RmClusterBuilder`).
    /// The default uniform composer never reorders the queue.
    pub fn priority(mut self, priority: MultifactorPriority) -> Self {
        self.policies.priority = priority;
        self
    }

    /// Run the DES over `n` event-queue shards (see [`SimConfig::shards`]).
    /// The partition follows the FP-Tree: the master keeps shard 0,
    /// satellite `i` takes shard `i mod k` (where `k = min(n, satellites)`),
    /// and the `i`-th balanced contiguous block of compute nodes — the block
    /// satellite `i` serves in the master's dispatch split — rides on its
    /// satellite's shard. Outcomes are bit-identical for every `n`; only
    /// wall-clock changes (the shard queues are merged on one thread).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Record transport and daemon telemetry into `recorder`: the DES
    /// traces message flow and fault marks, the master traces job/task/FSM
    /// activity, and every satellite traces task service times.
    pub fn obs(mut self, recorder: Recorder) -> Self {
        self.obs = recorder;
        self
    }

    /// Profile the engine's *wall-clock* behaviour into `profiler`
    /// (mirrored on `RmClusterBuilder`): per-shard busy and queue time,
    /// queue depth, and cross-shard traffic. Unlike
    /// every other sink on this builder the profiler measures real time —
    /// it never touches the virtual-time path, so enabling it changes no
    /// outcome and no trace/CSV byte. Read it back via
    /// [`SimCluster::engine_profiler`] after the run.
    pub fn engine_profile(mut self, profiler: EngineProfiler) -> Self {
        self.engine = profiler;
        self
    }

    /// Evaluate SLO specs online against this run's telemetry (mirrored on
    /// `RmClusterBuilder`). The engine runs on the sampling cadence, so a
    /// sampler or `sample_until` bound must also be configured for it to
    /// tick. Like the profiler it is strictly observational: it reads the
    /// recorder/sampler and writes only its own state, so enabling it
    /// changes no outcome and no base trace/CSV byte. Read results back
    /// via [`SimCluster::slo_engine`] after the run.
    pub fn slo(mut self, engine: SloEngine) -> Self {
        self.slo = engine;
        self
    }

    /// Profile the reproduction's *own heap* into `profiler` (host-memory
    /// domain, DESIGN §15). Requires the `mem-profile` feature to measure
    /// anything — without it the handle is inert. Like the wall-clock
    /// profiler it never touches the virtual-time path: outcomes and base
    /// exports are byte-identical with it armed or not; the per-tag
    /// `mem_host_*` series land in the sampler's separate host store.
    /// Read results back via [`SimCluster::mem_profiler`] after the run.
    pub fn mem_profile(mut self, profiler: MemProfiler) -> Self {
        self.mem = profiler;
        self
    }

    /// Inject the given outage schedule (indices refer to the final node
    /// layout: 0 = master, 1..=m satellites, then compute nodes).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Install a failure predictor shared by all satellites.
    pub fn predictor(mut self, p: Arc<Mutex<dyn FailurePredictor>>) -> Self {
        self.predictor = Some(p);
        self
    }

    /// Record 1 Hz meter samples for the master (and optionally the
    /// satellites) until `until`.
    pub fn sample_until(mut self, until: SimTime, satellites_too: bool) -> Self {
        self.sample_until = Some(until);
        self.track_satellites = satellites_too;
        self
    }

    /// Feed labeled footprint time series into `sampler` on the metering
    /// cadence. Tracked nodes get stable labels: the master is
    /// `node=master`, satellites `node=sat<i>`. Combine with
    /// [`Self::sample_until`] to set cadence and tracking, or let the
    /// sampler's own `every_until` configuration drive both.
    pub fn sampler(mut self, sampler: Sampler) -> Self {
        self.sampler = sampler;
        self
    }

    /// Materialize the system.
    pub fn build(self) -> EslurmSystem {
        let m = self.cfg.n_satellites;
        let total = 1 + m + self.n_slaves;
        let sat_ids: Vec<u32> = (1..=m as u32).collect();
        let slave_ids: Vec<u32> = (m as u32 + 1..total as u32).collect();

        let mut actors: Vec<EslurmNode> = Vec::with_capacity(total);
        actors.push(EslurmNode::Master(
            EslurmMaster::new(self.cfg.clone(), slave_ids, sat_ids.clone())
                .with_obs(self.obs.clone()),
        ));
        for _ in 0..m {
            actors.push(EslurmNode::Satellite(
                SatelliteDaemon::new(self.cfg.clone(), self.predictor.clone())
                    .with_obs(self.obs.clone()),
            ));
        }
        for _ in 0..self.n_slaves {
            // ESlurm compute nodes don't push heartbeats to the master;
            // liveness is collected through satellite Ping sweeps.
            actors.push(EslurmNode::Slave(SlaveDaemon::new(SlaveConfig {
                master: NodeId::MASTER,
                heartbeat: SlaveHeartbeat::None,
                conn_lifetime: self.cfg.conn_lifetime,
                ..SlaveConfig::default()
            })));
        }

        let mut config = SimConfig::new(total, self.seed);
        config.shards = self.shards;
        if self.shards > 1 {
            let k = self.shards.min(m.max(1));
            let mut part = vec![0u32; total];
            for i in 0..m {
                part[1 + i] = (i % k) as u32;
            }
            for (i, &(start, len)) in crate::config::partition(self.n_slaves, m.max(1))
                .iter()
                .enumerate()
            {
                for j in start..start + len {
                    part[1 + m + j] = (i % k) as u32;
                }
            }
            config.partition = Some(part);
        }
        config.obs = self.obs;
        config.engine = self.engine;
        config.slo = self.slo;
        config.mem = self.mem;
        if self.sampler.enabled() {
            self.sampler.name_node(NodeId::MASTER.0, "master");
            for (i, &s) in sat_ids.iter().enumerate() {
                self.sampler.name_node(s, &format!("sat{}", i + 1));
            }
            config.sampler = self.sampler;
        }
        if let Some(f) = self.faults {
            config.faults = f;
        }
        if let Some(until) = self.sample_until {
            let mut tracked = vec![NodeId::MASTER];
            if self.track_satellites {
                tracked.extend(sat_ids.iter().map(|&s| NodeId(s)));
            }
            config.sampling = Some(Sampling {
                interval: SimSpan::from_secs(1),
                tracked,
                until,
            });
        }
        EslurmSystem {
            sim: SimCluster::new(actors, config),
            n_satellites: m,
            n_slaves: self.n_slaves,
            policies: self.policies,
        }
    }
}

impl EslurmSystem {
    /// The master's actor state.
    pub fn master(&self) -> &EslurmMaster {
        match self.sim.actor(NodeId::MASTER) {
            EslurmNode::Master(m) => m,
            _ => unreachable!("node 0 is the master"),
        }
    }

    /// Satellite `idx` (0-based) actor state.
    pub fn satellite(&self, idx: usize) -> &SatelliteDaemon {
        match self.sim.actor(NodeId(1 + idx as u32)) {
            EslurmNode::Satellite(s) => s,
            _ => unreachable!("nodes 1..=m are satellites"),
        }
    }

    /// The node id of compute node `i` (0-based).
    pub fn slave_id(&self, i: usize) -> u32 {
        (1 + self.n_satellites + i) as u32
    }

    /// A [`BackfillConfig`] sized to this cluster's compute nodes with the
    /// builder's policy layers installed — the bridge from the emulated
    /// system to `sched::simulate` scheduling runs.
    pub fn backfill_config(&self) -> BackfillConfig {
        let mut cfg = BackfillConfig::new(self.n_slaves as u32);
        cfg.policies = self.policies.clone();
        cfg
    }

    /// Submit a job over the given compute-node indices (0-based) at `at`.
    pub fn submit(&mut self, at: SimTime, job: u64, slave_idxs: &[usize], runtime: SimSpan) {
        let nodes = NodeSlice::from_nodes(slave_idxs.iter().map(|&i| self.slave_id(i)));
        self.sim.inject(
            at,
            NodeId::MASTER,
            NodeId::MASTER,
            RmMsg::SubmitJob {
                job,
                nodes,
                runtime_us: runtime.as_micros(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsm::SatState;

    fn small_cfg(m: usize) -> EslurmConfig {
        EslurmConfig {
            n_satellites: m,
            eq1_width: 16,
            relay_width: 8,
            hb_sweep_interval: SimSpan::from_secs(60),
            sat_hb_interval: SimSpan::from_secs(5),
            ..Default::default()
        }
    }

    #[test]
    fn job_lifecycle_completes() {
        let mut sys = EslurmSystemBuilder::new(small_cfg(2), 64, 3).build();
        sys.submit(
            SimTime::from_secs(1),
            42,
            &(0..32).collect::<Vec<_>>(),
            SimSpan::from_secs(10),
        );
        sys.sim.run_until(SimTime::from_secs(30));
        let master = sys.master();
        assert_eq!(master.records.len(), 1);
        let r = master.records[0];
        assert_eq!(r.job, 42);
        assert_eq!(r.nodes, 32);
        let occ = r.occupation();
        assert!(
            occ >= SimSpan::from_secs(10) && occ < SimSpan::from_secs(13),
            "{occ}"
        );
        assert_eq!(master.takeovers, 0);
    }

    #[test]
    fn heartbeat_sweeps_cover_all_slaves() {
        let mut sys = EslurmSystemBuilder::new(small_cfg(2), 100, 5).build();
        sys.sim.run_until(SimTime::from_secs(200));
        let master = sys.master();
        assert!(!master.sweeps.is_empty(), "no sweeps completed");
        for s in &master.sweeps {
            assert_eq!(s.reached, 100, "sweep missed nodes");
        }
    }

    #[test]
    fn master_has_few_sockets_satellites_share_load() {
        let mut sys = EslurmSystemBuilder::new(small_cfg(4), 400, 7).build();
        sys.sim.run_until(SimTime::from_secs(300));
        // The master only ever talks to satellites: its socket peak stays
        // tiny even while sweeps cover 400 nodes.
        assert!(
            sys.sim.meter(NodeId::MASTER).peak_sockets() <= 8,
            "master peak sockets {}",
            sys.sim.meter(NodeId::MASTER).peak_sockets()
        );
        // All satellites processed work.
        for i in 0..4 {
            assert!(sys.satellite(i).tasks_done > 0, "satellite {i} idle");
        }
    }

    #[test]
    fn eq1_splits_large_jobs_across_satellites() {
        let mut sys = EslurmSystemBuilder::new(
            EslurmConfig {
                eq1_width: 16,
                ..small_cfg(4)
            },
            128,
            9,
        )
        .build();
        // 64 nodes, width 16 => Eq. 1 gives 4 satellites.
        sys.submit(
            SimTime::from_secs(1),
            1,
            &(0..64).collect::<Vec<_>>(),
            SimSpan::from_secs(5),
        );
        sys.sim.run_until(SimTime::from_secs(20));
        let with_work = (0..4).filter(|&i| sys.satellite(i).tasks_done > 0).count();
        assert_eq!(with_work, 4, "expected all satellites to carry a share");
        assert_eq!(sys.master().records.len(), 1);
    }

    #[test]
    fn dead_satellite_triggers_reassignment_not_loss() {
        let m = 2;
        // Satellite node 1 dies just before the job is submitted and stays
        // dead; satellite 2 (or the master) must pick up the work.
        let total = 1 + m + 64;
        let faults = FaultPlan::from_outages(
            total,
            vec![emu::Outage {
                node: NodeId(1),
                down_at: SimTime::from_millis(500),
                up_at: SimTime::from_secs(100_000),
            }],
        );
        let mut sys = EslurmSystemBuilder::new(small_cfg(m), 64, 11)
            .faults(faults)
            .build();
        sys.submit(
            SimTime::from_secs(1),
            77,
            &(0..48).collect::<Vec<_>>(),
            SimSpan::from_secs(5),
        );
        sys.sim.run_until(SimTime::from_secs(120));
        let master = sys.master();
        assert_eq!(master.records.len(), 1, "job lost after satellite failure");
        assert!(
            master.reassignments > 0 || master.takeovers > 0,
            "failure was never detected"
        );
        // The dead satellite ends up FAULT/DOWN on the master's FSM.
        let st = master.satellite_state(0, sys.sim.now());
        assert!(matches!(st, SatState::Fault | SatState::Down), "{st:?}");
    }

    #[test]
    fn cancellation_cuts_a_running_job_short() {
        let mut sys = EslurmSystemBuilder::new(small_cfg(2), 64, 15).build();
        // A ten-minute job, cancelled two minutes in.
        sys.submit(
            SimTime::from_secs(1),
            9,
            &(0..32).collect::<Vec<_>>(),
            SimSpan::from_secs(600),
        );
        sys.sim.inject(
            SimTime::from_secs(120),
            NodeId(1),
            NodeId::MASTER,
            rm::proto::RmMsg::CancelJob { job: 9 },
        );
        sys.sim.run_until(SimTime::from_secs(400));
        let master = sys.master();
        assert_eq!(master.records.len(), 1, "cancelled job never cleaned up");
        let occ = master.records[0].occupation().as_secs_f64();
        assert!(
            (119.0..140.0).contains(&occ),
            "occupation {occ}s should reflect the cancellation, not the 600s runtime"
        );
    }

    #[test]
    fn cancelling_unknown_job_is_harmless() {
        let mut sys = EslurmSystemBuilder::new(small_cfg(2), 16, 15).build();
        sys.sim.inject(
            SimTime::from_secs(5),
            NodeId(1),
            NodeId::MASTER,
            rm::proto::RmMsg::CancelJob { job: 12345 },
        );
        sys.sim.run_until(SimTime::from_secs(60));
        assert!(sys.master().records.is_empty());
    }

    #[test]
    fn deterministic_run() {
        let build = || {
            let mut sys = EslurmSystemBuilder::new(small_cfg(2), 64, 13).build();
            sys.submit(
                SimTime::from_secs(2),
                5,
                &(0..16).collect::<Vec<_>>(),
                SimSpan::from_secs(7),
            );
            sys.sim.run_until(SimTime::from_secs(60));
            (
                sys.sim.events_processed(),
                sys.master().records.len(),
                sys.master().sweeps.len(),
            )
        };
        assert_eq!(build(), build());
    }
}
