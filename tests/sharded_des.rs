//! The tentpole guarantee of the sharded DES, end to end: a full ESlurm
//! deployment run over 1/2/4/8 event-queue shards produces **bit-identical
//! outcomes** (job records, clocks, event counts, meters) and
//! **byte-identical observability exports** (Chrome trace, event JSONL,
//! metrics CSV) — the obs pipeline must not be able to tell the shard
//! counts apart. The engine merges the shard queues on the calling
//! thread, which the last test pins.

mod common;

use common::{cfg, outcome_fingerprint, run};
use eslurm_suite::emu::{Actor, Context, NodeId, SimCluster, SimConfig};
use eslurm_suite::eslurm::{EslurmMaster, EslurmNode, SatelliteDaemon};
use eslurm_suite::obs::{export, EngineMode, EngineProfiler, Recorder, Sampler};
use eslurm_suite::rm::{NodeSlice, RmMsg, SlaveConfig, SlaveDaemon, SlaveHeartbeat};
use eslurm_suite::simclock::{SimSpan, SimTime};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

/// Sharded runs (metrics-only recorder) reproduce the serial outcomes
/// exactly, for every shard count.
#[test]
fn sharded_eslurm_outcomes_are_bit_identical() {
    let serial = run(1, |b| b.obs(Recorder::metrics_only()));
    let baseline = outcome_fingerprint(&serial);
    assert_eq!(baseline.3.len(), 12, "jobs lost in the baseline run");
    for shards in [2usize, 4, 8] {
        let sys = run(shards, |b| b.obs(Recorder::metrics_only()));
        assert_eq!(
            outcome_fingerprint(&sys),
            baseline,
            "{shards}-shard outcomes diverged from serial"
        );
    }
}

/// The sampler CSV of a metrics-only run is byte-identical across shard
/// counts.
#[test]
fn sharded_metrics_csv_is_byte_identical() {
    let make = |shards| {
        let s = Sampler::every_until(SimSpan::from_secs(1), SimTime::from_secs(300));
        run(shards, |b| {
            b.obs(Recorder::metrics_only()).sampler(s.clone())
        });
        s.to_csv()
    };
    let serial_csv = make(1);
    assert!(serial_csv.lines().count() > 100, "expected a dense CSV");
    for shards in [2usize, 4] {
        assert_eq!(
            make(shards),
            serial_csv,
            "{shards}-shard sampler CSV differs from serial"
        );
    }
}

/// Under full tracing the Chrome trace and event JSONL of a sharded run
/// come out byte-identical to the 1-shard run (the exports "must not
/// notice").
#[test]
fn sharded_trace_exports_are_byte_identical() {
    let serial_rec = Recorder::full();
    let _serial = run(1, |b| b.obs(serial_rec.clone()));
    let serial_chrome = export::to_chrome_trace(&serial_rec.events());
    let serial_jsonl = export::to_jsonl(&serial_rec.events());
    assert!(serial_rec.events().len() > 1000, "trace suspiciously small");

    for shards in [4usize, 8] {
        let rec = Recorder::full();
        let _sys = run(shards, |b| b.obs(rec.clone()));
        assert_eq!(
            export::to_chrome_trace(&rec.events()),
            serial_chrome,
            "{shards}-shard Chrome trace differs"
        );
        assert_eq!(
            export::to_jsonl(&rec.events()),
            serial_jsonl,
            "{shards}-shard event JSONL differs"
        );
    }
}

/// An ESlurm node that records the thread each of its handlers runs on.
struct ThreadSpy {
    inner: EslurmNode,
    threads: Arc<Mutex<HashSet<ThreadId>>>,
}

impl ThreadSpy {
    fn note(&self) {
        self.threads
            .lock()
            .unwrap()
            .insert(std::thread::current().id());
    }
}

impl Actor<RmMsg> for ThreadSpy {
    fn on_start(&mut self, ctx: &mut dyn Context<RmMsg>) {
        self.note();
        self.inner.on_start(ctx);
    }
    fn on_message(&mut self, ctx: &mut dyn Context<RmMsg>, from: NodeId, msg: RmMsg) {
        self.note();
        self.inner.on_message(ctx, from, msg);
    }
    fn on_timer(&mut self, ctx: &mut dyn Context<RmMsg>, token: u64) {
        self.note();
        self.inner.on_timer(ctx, token);
    }
}

/// A 4-shard metrics-only run executes every handler on the calling
/// thread: the sharded engine is a single-threaded merge, and the profiler
/// says so.
#[test]
fn sharded_run_executes_every_handler_on_the_calling_thread() {
    let m = 3;
    let n_slaves = 120;
    let cfg = cfg(m);
    let threads = Arc::new(Mutex::new(HashSet::new()));
    let spy = |inner| ThreadSpy {
        inner,
        threads: threads.clone(),
    };
    let sat_ids: Vec<u32> = (1..=m as u32).collect();
    let slave_ids: Vec<u32> = (1 + m as u32..(1 + m + n_slaves) as u32).collect();
    let mut actors = vec![spy(EslurmNode::Master(EslurmMaster::new(
        cfg.clone(),
        slave_ids,
        sat_ids,
    )))];
    for _ in 0..m {
        actors.push(spy(EslurmNode::Satellite(SatelliteDaemon::new(
            cfg.clone(),
            None,
        ))));
    }
    for _ in 0..n_slaves {
        actors.push(spy(EslurmNode::Slave(SlaveDaemon::new(SlaveConfig {
            master: NodeId::MASTER,
            heartbeat: SlaveHeartbeat::None,
            conn_lifetime: cfg.conn_lifetime,
            ..SlaveConfig::default()
        }))));
    }
    let profiler = EngineProfiler::enabled();
    let mut config = SimConfig::new(actors.len(), 33);
    config.shards = 4;
    config.obs = Recorder::metrics_only();
    config.engine = profiler.clone();
    let mut sim = SimCluster::new(actors, config);
    for j in 0..6u64 {
        let first = 1 + m as u32 + (j as u32 * 17) % 80;
        sim.inject(
            SimTime::from_secs(10 + j * 20),
            NodeId::MASTER,
            NodeId::MASTER,
            RmMsg::SubmitJob {
                job: j,
                nodes: NodeSlice::from_nodes(first..first + 32),
                runtime_us: SimSpan::from_secs(30).as_micros(),
            },
        );
    }
    sim.run_until(SimTime::from_secs(300));

    let EslurmNode::Master(master) = &sim.actor(NodeId::MASTER).inner else {
        unreachable!("node 0 is the master");
    };
    assert_eq!(master.records.len(), 6, "jobs lost in the sharded run");
    let seen = threads.lock().unwrap();
    assert_eq!(
        *seen,
        HashSet::from([std::thread::current().id()]),
        "handlers ran off the calling thread"
    );
    let report = profiler.report().expect("profiler attached");
    assert_eq!(report.mode, EngineMode::Merged);
    assert_eq!(report.shards.len(), 4);
    assert!(
        report.cross_shard_total() > 0,
        "no cross-shard traffic seen"
    );
}
