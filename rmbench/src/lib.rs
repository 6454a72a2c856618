//! Host-time benchmark of the emulated resource-manager stacks and the
//! scheduler. See `README.md` for the workloads and the metric map.

pub mod check;
mod inputs;
mod trace;
pub mod workloads;

/// End-to-end metrics, `(name, unit)`, as listed in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("events_per_s", "events/s"),
    ("jobs_per_s", "jobs/s"),
    ("peak_rss_mb", "MiB"),
    ("check_pass_frac", "ratio"),
];

/// Per-layer metrics, `(name, unit)`, as listed in `BENCHMARK.json`.
/// Every workload reports all of them; a layer a workload does not
/// exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace_overhead_frac", "ratio"),
    ("workload.generate_s", "s"),
    ("workload.jobs", "count"),
    ("builder.build_s", "s"),
    ("builder.inject_s", "s"),
    ("emu.events", "count"),
    ("emu.delivered_frac", "ratio"),
    ("emu.self_s", "s"),
    ("emu.ctx.send.calls", "count"),
    ("emu.ctx.send.ns", "ns"),
    ("emu.ctx.timer.calls", "count"),
    ("emu.ctx.timer.ns", "ns"),
    ("emu.ctx.socket.calls", "count"),
    ("emu.ctx.socket.ns", "ns"),
    ("simclock.queue_ns_per_event", "ns"),
    ("simclock.max_queue_depth", "count"),
    ("emu.sync_fraction", "ratio"),
    ("emu.null_window_fraction", "ratio"),
    ("emu.imbalance", "ratio"),
    ("emu.cross_shard_msgs", "count"),
    ("monitoring.suspects.calls", "count"),
    ("monitoring.suspects.ns", "ns"),
    ("monitoring.suspects.set_size_mean", "count"),
    ("obs.sampler.points", "count"),
    ("sched.simulate_s.user", "s"),
    ("sched.simulate_s.predictive", "s"),
    ("sched.backfill_self_s", "s"),
    ("sched.useful_frac", "ratio"),
    ("sched.completed", "count"),
    ("sched.killed", "count"),
    ("sched.abandoned", "count"),
    ("estimate.predict.calls", "count"),
    ("estimate.predict.ns", "ns"),
    ("estimate.retrain.count", "count"),
    ("estimate.retrain.ns", "ns"),
    ("estimate.observe.calls", "count"),
    ("estimate.observe.ns", "ns"),
    ("estimate.resubmit.calls", "count"),
    ("estimate.resubmit.ns", "ns"),
    ("estimate.model_frac", "ratio"),
    // Handler self time per message kind (`timer` = timer handlers); the
    // kinds listed are those some workload delivers.
    ("eslurm.master.BcastDone.calls", "count"),
    ("eslurm.master.BcastDone.ns", "ns"),
    ("eslurm.master.CtlAck.calls", "count"),
    ("eslurm.master.CtlAck.ns", "ns"),
    ("eslurm.master.SatHeartbeatAck.calls", "count"),
    ("eslurm.master.SatHeartbeatAck.ns", "ns"),
    ("eslurm.master.SubmitJob.calls", "count"),
    ("eslurm.master.SubmitJob.ns", "ns"),
    ("eslurm.master.timer.calls", "count"),
    ("eslurm.master.timer.ns", "ns"),
    ("eslurm.satellite.BcastTask.calls", "count"),
    ("eslurm.satellite.BcastTask.ns", "ns"),
    ("eslurm.satellite.CtlAck.calls", "count"),
    ("eslurm.satellite.CtlAck.ns", "ns"),
    ("eslurm.satellite.SatHeartbeat.calls", "count"),
    ("eslurm.satellite.SatHeartbeat.ns", "ns"),
    ("eslurm.satellite.timer.calls", "count"),
    ("eslurm.satellite.timer.ns", "ns"),
    ("rm.master.CtlAck.calls", "count"),
    ("rm.master.CtlAck.ns", "ns"),
    ("rm.master.Heartbeat.calls", "count"),
    ("rm.master.Heartbeat.ns", "ns"),
    ("rm.master.SubmitJob.calls", "count"),
    ("rm.master.SubmitJob.ns", "ns"),
    ("rm.master.timer.calls", "count"),
    ("rm.master.timer.ns", "ns"),
    ("rm.slave.CtlAck.calls", "count"),
    ("rm.slave.CtlAck.ns", "ns"),
    ("rm.slave.HeartbeatAck.calls", "count"),
    ("rm.slave.HeartbeatAck.ns", "ns"),
    ("rm.slave.JobCtl.calls", "count"),
    ("rm.slave.JobCtl.ns", "ns"),
    ("rm.slave.timer.calls", "count"),
    ("rm.slave.timer.ns", "ns"),
];
