//! An event-driven cluster scheduling simulator with EASY backfill — the
//! algorithm the paper uses for every RM in §VII-D ("we use the backfill
//! scheduling algorithm for all RMs").
//!
//! The simulator charges each job an RM-dependent dispatch and cleanup
//! overhead (nodes are occupied while the RM launches processes and
//! reclaims resources — the "job occupation time" of Fig. 7(f)), plans
//! backfill reservations from walltime *limits* supplied by a
//! [`LimitPolicy`], kills jobs that exceed their limit (with
//! resubmission), and can suspend scheduling during RM outages (the
//! Slurm crash/reboot cycles observed in §II-B).
//!
//! It is split into a core and a driver. The core, `Scheduler`, holds one
//! run's queue, running set, free nodes and report, and owns no clock,
//! queue of events or loop: `submit` takes an arrival, `finish` a job's
//! end, and `plan` runs one scheduling pass and hands back the end event
//! of every job it started. [`simulate`] is the driver: it keeps the
//! event queue, pushes arrivals and outage wake-ups, catches up the
//! sampler cadence, applies the outage gate, and pushes the ends `plan`
//! returns.

use crate::metrics::{bounded_slowdown, ScheduleReport};
use crate::policy::{LimitInfo, LimitPolicy};
use crate::priority::{FactorCtx, FactorShare};
use crate::profile_resv::AvailabilityProfile;
use crate::SchedPolicies;
use obs::audit::{Decision, DecisionLog, EstSource, EstimateRef, SkipReason};
use obs::{Counter, EventKind, Gauge, Hist, MetricId, Recorder, Sampler};
use simclock::{EventKey, KeyedQueue, SimSpan, SimTime};
use std::collections::VecDeque;
use workload::Job;

/// Per-RM dispatch cost model: how long nodes stay occupied around the
/// actual computation.
#[derive(Clone, Debug)]
pub struct DispatchModel {
    /// Fixed resource-allocation + process-spawn latency per job.
    pub dispatch: SimSpan,
    /// Additional launch latency per node of the job (fan-out cost).
    pub dispatch_per_node: SimSpan,
    /// Fixed resource-reclaim latency at job end.
    pub cleanup: SimSpan,
    /// Additional reclaim latency per node.
    pub cleanup_per_node: SimSpan,
}

impl DispatchModel {
    /// A near-ideal RM (negligible overhead).
    pub fn ideal() -> Self {
        DispatchModel {
            dispatch: SimSpan::from_millis(50),
            dispatch_per_node: SimSpan::from_micros(20),
            cleanup: SimSpan::from_millis(50),
            cleanup_per_node: SimSpan::from_micros(20),
        }
    }

    /// Launch overhead for a job of `nodes` nodes.
    pub fn launch(&self, nodes: u32) -> SimSpan {
        self.dispatch + self.dispatch_per_node * nodes as u64
    }

    /// Cleanup overhead for a job of `nodes` nodes.
    pub fn teardown(&self, nodes: u32) -> SimSpan {
        self.cleanup + self.cleanup_per_node * nodes as u64
    }

    /// Total occupation time of a job that computes for `run`.
    pub fn occupation(&self, nodes: u32, run: SimSpan) -> SimSpan {
        self.launch(nodes) + run + self.teardown(nodes)
    }
}

/// Scheduling discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SchedAlgo {
    /// Strict FIFO: nothing runs ahead of the queue head.
    Fcfs,
    /// EASY backfill (reservation for the head only) — the paper's
    /// configuration for every RM.
    #[default]
    Easy,
    /// Conservative backfill: every queued job holds a reservation; a
    /// candidate may start only where it delays nobody's reservation.
    Conservative,
}

/// Configuration of one scheduling simulation.
#[derive(Clone, Debug)]
pub struct BackfillConfig {
    /// Cluster size in nodes.
    pub nodes: u32,
    /// Scheduling discipline (EASY backfill by default).
    pub algo: SchedAlgo,
    /// RM overhead model.
    pub dispatch: DispatchModel,
    /// Kill jobs at their walltime limit (all production RMs do).
    pub kill_at_limit: bool,
    /// Resubmissions allowed after a kill before the job is abandoned.
    /// Each resubmission doubles the previous limit.
    pub max_resubmits: u32,
    /// Windows during which the RM is down and cannot schedule
    /// (running jobs continue; queued work accumulates).
    pub rm_outages: Vec<(SimTime, SimSpan)>,
    /// Telemetry sink for scheduling decisions (disabled by default).
    pub obs: Recorder,
    /// Virtual-time series sink: on the sampler's cadence the simulator
    /// records `sched_busy_nodes` and snapshots `obs` (queue depth, jobs
    /// running, reservations). Disabled by default.
    pub sampler: Sampler,
    /// Optional `run=<label>` attached to sampled series, so several
    /// simulations (e.g. the Fig. 10 RM sweep) can share one store.
    pub run_label: Option<String>,
    /// Per-job decision audit log (disabled by default). Auditing is
    /// non-perturbing: the simulation makes identical policy calls and
    /// produces bit-identical outcomes whether the log is enabled or not.
    pub audit: DecisionLog,
    /// Multi-tenant policy layers: partition routing/limits, fair-share
    /// accounting, and queue-ordering priority. The default bundle is
    /// bit-identical to a policy-unaware scheduler.
    pub policies: SchedPolicies,
}

impl BackfillConfig {
    /// A clean configuration for `nodes` nodes.
    pub fn new(nodes: u32) -> Self {
        BackfillConfig {
            nodes,
            algo: SchedAlgo::Easy,
            dispatch: DispatchModel::ideal(),
            kill_at_limit: true,
            max_resubmits: 3,
            rm_outages: Vec::new(),
            obs: Recorder::disabled(),
            sampler: Sampler::disabled(),
            run_label: None,
            audit: DecisionLog::disabled(),
            policies: SchedPolicies::default(),
        }
    }
}

#[derive(Clone, Copy)]
struct Queued {
    job: usize,
    limit: SimSpan,
    resubmits: u32,
    original_submit: SimTime,
    /// The estimate the current limit was derived from (audit provenance).
    est: EstimateRef,
    /// Last skip reason logged for this queue entry — audit deduplication
    /// only (queue scans re-derive the same verdict every event, so only
    /// changes are logged). Written solely when auditing is enabled and
    /// never read by scheduling decisions.
    last_skip: Option<SkipReason>,
    /// Index of the partition the job routed to (0 under the trivial set).
    part: u32,
    /// Composed priority in milli-units, recomputed before each
    /// scheduling pass when the priority layer is non-uniform; the queue
    /// sorts on this integer (stable, descending).
    prio_milli: i64,
    /// Last priority recorded in the audit log (`i64::MIN` = never) —
    /// audit deduplication only, in the `last_skip` style.
    logged_prio: i64,
}

#[derive(Clone, Copy)]
struct Running {
    nodes: u32,
    /// When the scheduler believes the nodes free up (limit-based).
    planned_end: SimTime,
    /// Job id, so reservations can name their blockers.
    job_id: u64,
    /// Partition holding the nodes (releases its capacity at end).
    part: u32,
}

/// Deduplication state for the audit log: steady-state scheduling passes
/// re-derive the same blocked head and reservation every event, so only
/// *changes* are recorded (per-job skip dedup lives on the [`Queued`]
/// entry itself, keeping the queue scan allocation- and lookup-free).
/// Touched only when auditing is enabled; never feeds back into
/// scheduling decisions.
#[derive(Default)]
struct AuditCursor {
    /// Last job recorded as the blocked head of the queue.
    last_head: Option<u64>,
    /// Last `(head job, reservation start µs)` recorded.
    last_resv: Option<(u64, u64)>,
}

impl AuditCursor {
    /// A job left the queue (started or was resubmitted): forget its
    /// deduplication state so fresh decisions are recorded next pass.
    fn forget(&mut self, job_id: u64) {
        if self.last_head == Some(job_id) {
            self.last_head = None;
        }
        if self.last_resv.is_some_and(|(j, _)| j == job_id) {
            self.last_resv = None;
        }
    }
}

/// The end of one started job: the payload [`Scheduler::plan`] hands the
/// driver for each start, and the driver hands back to
/// [`Scheduler::finish`] when the job's nodes release.
pub(crate) struct End {
    slot: usize,
    queued: Queued,
    started: SimTime,
    killed: bool,
}

enum Ev {
    Arrive(usize),
    End(End),
    RmUp,
}

/// Run the simulation: `jobs` through a cluster of `cfg.nodes` nodes with
/// walltime limits from `policy`.
///
/// ```
/// use sched::prelude::{simulate, BackfillConfig, UserLimit};
/// use workload::TraceConfig;
///
/// let jobs = TraceConfig::small(200, 7).generate();
/// let report = simulate(&jobs, &mut UserLimit::default(), &BackfillConfig::new(256));
/// assert_eq!(report.completed + report.abandoned, 200);
/// assert!(report.utilization() <= 1.0);
/// ```
pub fn simulate(
    jobs: &[Job],
    policy: &mut dyn LimitPolicy,
    cfg: &BackfillConfig,
) -> ScheduleReport {
    let _mem = obs::tag_scope(obs::MemTag::Sched);
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| jobs[i].submit);

    // One system-lane sequence for the whole run: events pop by
    // `(time, push order)`, so arrivals precede equal-time ends.
    let mut events: KeyedQueue<Ev> = KeyedQueue::with_capacity(jobs.len() * 2);
    let mut seq = 0u64;
    let mut key = |t: SimTime| {
        seq += 1;
        EventKey::system(t, seq)
    };
    for &i in &order {
        events.push(key(jobs[i].submit), Ev::Arrive(i));
    }
    for &(at, dur) in &cfg.rm_outages {
        events.push(key(at + dur), Ev::RmUp);
    }

    let in_outage = |t: SimTime| {
        cfg.rm_outages
            .iter()
            .any(|&(at, dur)| t >= at && t < at + dur)
    };
    let tick = cfg.sampler.interval();
    let mut next_due = tick.map(|i| SimTime::ZERO + i);
    let mut sched = Scheduler::new(jobs, cfg);

    while let Some((EventKey { time: now, .. }, ev)) = events.pop() {
        // Catch the sampling cadence up to `now`: each tick records the
        // state as of the last event processed before it.
        if let (Some(i), Some(due)) = (tick, next_due.as_mut()) {
            while *due <= now && cfg.sampler.due(*due) {
                sched.sample_tick(*due);
                *due += i;
            }
        }
        match ev {
            Ev::Arrive(i) => sched.submit(now, i, policy),
            Ev::End(end) => sched.finish(now, end, policy),
            Ev::RmUp => {}
        }
        if in_outage(now) {
            continue; // the RM is down: no scheduling decisions
        }
        for (t, end) in sched.plan(now) {
            events.push(key(t), Ev::End(end));
        }
    }
    sched.report
}

/// One scheduler's state between events: the loop-free core under
/// [`simulate`]. It never reads a clock or pushes an event; every entry
/// point takes `now` from its caller.
pub(crate) struct Scheduler<'a> {
    jobs: &'a [Job],
    cfg: &'a BackfillConfig,
    free: u32,
    queue: VecDeque<Queued>,
    running: Vec<Option<Running>>,
    /// Nodes each partition currently occupies (all in partition 0 under
    /// the trivial set, where no capacity is ever consulted).
    part_busy: Vec<u32>,
    report: ScheduleReport,
    cursor: AuditCursor,
    /// End events of the jobs the current pass started, in start order;
    /// drained by `plan`'s caller, so the buffer is reused across passes.
    ends: Vec<(SimTime, End)>,
}

impl<'a> Scheduler<'a> {
    /// An idle cluster of `cfg.nodes` nodes for `jobs`.
    pub(crate) fn new(jobs: &'a [Job], cfg: &'a BackfillConfig) -> Self {
        Scheduler {
            jobs,
            cfg,
            free: cfg.nodes,
            queue: VecDeque::new(),
            running: Vec::new(),
            part_busy: vec![0; cfg.policies.partitions.len()],
            report: ScheduleReport {
                nodes: cfg.nodes,
                ..Default::default()
            },
            cursor: AuditCursor::default(),
            ends: Vec::new(),
        }
    }

    /// Job `i` arrives at `now`: take its limit from `policy`, route it to
    /// a partition, and queue it.
    pub(crate) fn submit(&mut self, now: SimTime, i: usize, policy: &mut dyn LimitPolicy) {
        let (job, cfg) = (&self.jobs[i], self.cfg);
        let mut info = policy.limit_info(job);
        let mut part = 0u32;
        if !cfg.policies.partitions.is_trivial() {
            part = cfg.policies.partitions.route(job.nodes.min(cfg.nodes)) as u32;
            apply_partition_limits(cfg, part, &mut info);
        }
        if cfg.audit.enabled() {
            cfg.audit
                .record(now.as_micros(), job.id.0, info.est, Decision::Submitted);
        }
        self.queue.push_back(Queued {
            job: i,
            limit: info.limit,
            resubmits: 0,
            original_submit: job.submit,
            est: info.est,
            last_skip: None,
            part,
            prio_milli: 0,
            logged_prio: i64::MIN,
        });
    }

    /// A job's nodes release at `now`: account a completion (telling
    /// `policy`), or a kill at the limit followed by a resubmission with a
    /// limit from `policy` or, past the budget, abandonment.
    pub(crate) fn finish(&mut self, now: SimTime, end: End, policy: &mut dyn LimitPolicy) {
        let End {
            slot,
            queued,
            started,
            killed,
        } = end;
        let cfg = self.cfg;
        let r = self.running[slot].take().expect("ending a job twice");
        self.free += r.nodes;
        self.part_busy[r.part as usize] -= r.nodes;
        let job = &self.jobs[queued.job];
        // The machine time was consumed whether the job completed or was
        // killed: fair-share charges both.
        if cfg.policies.fairshare.enabled() {
            let cores = r.nodes as u64 * job.cores_per_node.max(1) as u64;
            cfg.policies
                .fairshare
                .charge(job.user.0, cores, now - started, now);
        }
        let err_us = queued.est.value_us as i64 - job.actual_runtime.as_micros() as i64;
        let report = &mut self.report;
        if killed {
            report.killed += 1;
            cfg.obs.inc(Counter::JobsKilled);
            cfg.obs.event_at(now, 0, EventKind::JobKill, job.id.0, 0);
            if cfg.audit.enabled() {
                cfg.audit.record(
                    now.as_micros(),
                    job.id.0,
                    queued.est,
                    Decision::KilledAtLimit {
                        limit_us: queued.limit.as_micros(),
                        actual_us: job.actual_runtime.as_micros(),
                    },
                );
            }
            record_accuracy(cfg, &queued.est, err_us, true);
            if queued.resubmits < cfg.max_resubmits {
                let attempt = queued.resubmits + 1;
                cfg.obs.inc(Counter::JobsResubmitted);
                cfg.obs
                    .event_at(now, 0, EventKind::JobResubmit, job.id.0, attempt as u64);
                // The policy is consulted unconditionally so its internal
                // state cannot diverge with auditing off.
                let prev = LimitInfo {
                    limit: queued.limit,
                    est: queued.est,
                };
                let mut next = policy.resubmit_info(job, prev, attempt);
                if !cfg.policies.partitions.is_trivial() {
                    // The resubmission ladder cannot climb past the
                    // partition's hard cap.
                    if let Some(m) = cfg.policies.partitions.get(queued.part as usize).max_time {
                        next.limit = next.limit.min(m);
                    }
                }
                if cfg.audit.enabled() {
                    self.cursor.forget(job.id.0);
                    cfg.audit.record(
                        now.as_micros(),
                        job.id.0,
                        next.est,
                        Decision::Resubmitted {
                            attempt,
                            new_limit_us: next.limit.as_micros(),
                        },
                    );
                }
                self.queue.push_back(Queued {
                    limit: next.limit,
                    est: next.est,
                    resubmits: attempt,
                    last_skip: None,
                    ..queued
                });
            } else {
                report.abandoned += 1;
            }
        } else {
            report.completed += 1;
            let wait = started - queued.original_submit;
            cfg.obs
                .observe(Hist::JobWaitS, wait.as_micros() / 1_000_000);
            report.total_wait += wait;
            let e = report.per_user.entry(job.user.0).or_default();
            e.0 += 1;
            e.1 += wait;
            let sd = bounded_slowdown(wait, job.actual_runtime);
            report.total_slowdown += sd;
            cfg.obs
                .observe(Hist::BoundedSlowdownMilli, (sd * 1000.0) as u64);
            // r.nodes is the clamped allocation actually held.
            report.useful_node_secs += r.nodes as f64 * job.actual_runtime.as_secs_f64();
            if cfg.audit.enabled() {
                cfg.audit.record(
                    now.as_micros(),
                    job.id.0,
                    queued.est,
                    Decision::Completed {
                        est_error_us: err_us,
                    },
                );
            }
            record_accuracy(cfg, &queued.est, err_us, false);
            policy.on_complete(job, now);
        }
        report.makespan = report.makespan.max(now);
    }

    /// One scheduling pass at `now` under the configured discipline.
    /// Yields the end event `(time, payload)` of every job it started, in
    /// start order.
    pub(crate) fn plan(&mut self, now: SimTime) -> std::vec::Drain<'_, (SimTime, End)> {
        // A non-uniform priority layer re-sorts the queue before every
        // pass; the uniform default returns immediately, leaving arrival
        // order.
        self.reorder_by_priority(now);
        self.start_heads(now);
        let reservations = match self.cfg.algo {
            // FIFO plans no reservations at all.
            SchedAlgo::Fcfs => 0,
            SchedAlgo::Easy => self.easy_pass(now),
            SchedAlgo::Conservative => {
                self.conservative_pass(now);
                // Every job still queued holds a profile reservation.
                self.queue.len() as i64
            }
        };
        if self.cfg.obs.enabled() {
            let obs = &self.cfg.obs;
            obs.gauge_set(Gauge::QueueDepth, self.queue.len() as i64);
            let running = self.running.iter().flatten().count();
            obs.gauge_set(Gauge::JobsRunning, running as i64);
            obs.gauge_set(Gauge::Reservations, reservations);
        }
        self.ends.drain(..)
    }

    /// Start jobs in queue order while they fit (cluster + partition).
    fn start_heads(&mut self, now: SimTime) {
        while let Some(&head) = self.queue.front() {
            let nodes = self.nodes_of(&head);
            if nodes > self.free || nodes > self.headroom(head.part) {
                break;
            }
            self.queue.pop_front();
            self.start(now, head, None);
        }
    }

    /// EASY backfill behind the blocked head: reserve the head's earliest
    /// start, then start every later job that cannot delay it. Returns the
    /// number of reservations held (one blocked head, or none).
    fn easy_pass(&mut self, now: SimTime) -> i64 {
        let Some(&head) = self.queue.front() else {
            return 0;
        };
        let head_nodes = self.nodes_of(&head);

        // Reservation for the head: walk planned ends until enough nodes
        // accumulate — both cluster-wide and, when the head's partition is
        // capped, within that partition (releases from other partitions
        // do not relieve a partition-full head).
        let mut ends: Vec<(SimTime, u32, u32)> = self
            .running
            .iter()
            .flatten()
            .map(|r| (r.planned_end, r.nodes, r.part))
            .collect();
        ends.sort_by_key(|e| e.0);
        let mut acc = self.free;
        let mut part_acc = self.headroom(head.part);
        let mut shadow = SimTime(u64::MAX);
        let mut extra = 0u32;
        for (t, n, p) in ends {
            acc += n;
            if p == head.part {
                part_acc = part_acc.saturating_add(n);
            }
            if acc >= head_nodes && part_acc >= head_nodes {
                shadow = t;
                extra = acc - head_nodes;
                break;
            }
        }
        self.audit_head(now, head, (shadow != SimTime(u64::MAX)).then_some(shadow));

        // Backfill the rest of the queue.
        let head_id = self.jobs[head.job].id.0;
        let mut i = 1;
        while i < self.queue.len() {
            let cand = self.queue[i];
            let nodes = self.nodes_of(&cand);
            if nodes > self.free {
                self.record_skip(now, i, SkipReason::NoFreeNodes);
            } else if nodes > self.headroom(cand.part) {
                self.record_skip(now, i, SkipReason::PartitionFull);
            } else {
                let occupied = self.cfg.dispatch.occupation(nodes, cand.limit);
                let fits_before_shadow = now + occupied <= shadow;
                if fits_before_shadow || nodes <= extra {
                    self.queue.remove(i);
                    // Slack left before the head's reservation (zero when
                    // the job rode the reservation's spare nodes instead).
                    let slack_us = if fits_before_shadow {
                        shadow.as_micros() - (now + occupied).as_micros()
                    } else {
                        extra -= nodes;
                        0
                    };
                    self.start(now, cand, Some((slack_us, head_id)));
                    continue; // same index now holds the next candidate
                }
                self.record_skip(now, i, SkipReason::WouldDelayHead);
            }
            i += 1;
        }
        // EASY holds exactly one reservation: the blocked head's.
        1
    }

    /// Conservative backfill: walk the queue in order, give every job its
    /// earliest profile reservation, and start the ones whose reservation
    /// is *now*.
    fn conservative_pass(&mut self, now: SimTime) {
        let mut profile = AvailabilityProfile::new(now, self.cfg.nodes);
        for r in self.running.iter().flatten() {
            // A job whose planned end coincides with `now` still holds its
            // nodes: its End event sits at the same timestamp later in the
            // event order, and `free` is only incremented when it
            // processes. Keep such nodes reserved for an instant so this
            // pass cannot hand them out before they are physically
            // released.
            let end = r.planned_end.max(now + SimSpan::from_micros(1));
            profile.reserve(now, end, r.nodes);
        }
        let mut i = 0;
        while i < self.queue.len() {
            let q = self.queue[i];
            let nodes = self.nodes_of(&q);
            let occupied = self.cfg.dispatch.occupation(nodes, q.limit);
            let start_at = profile.earliest_fit(now, nodes, occupied);
            profile.reserve(start_at, start_at + occupied, nodes);
            if start_at == now && nodes > self.headroom(q.part) {
                // The cluster-wide profile found room now, but the job's
                // partition is at capacity (reservations are
                // partition-blind planning constructs; actual starts are
                // not).
                self.record_skip(now, i, SkipReason::PartitionFull);
            } else if start_at == now {
                self.queue.remove(i);
                // Started out of queue order: a conservative backfill. The
                // profile guarantees zero slack is stolen from any
                // reservation, so slack is reported against the head's.
                let backfill = (i > 0).then(|| (0, self.jobs[self.queue[0].job].id.0));
                self.start(now, q, backfill);
                continue;
            } else if i == 0 {
                self.audit_head(now, q, Some(start_at));
            } else if nodes > self.free {
                self.record_skip(now, i, SkipReason::NoFreeNodes);
            } else {
                // Nodes are physically free, but starting now would push
                // back someone's profile reservation.
                self.record_skip(now, i, SkipReason::WouldDelayReservation);
            }
            i += 1;
        }
    }

    /// Start `q` at `now`: as the queue head when `backfill` is `None`,
    /// else as a backfill of `(slack µs, head job id)`. Books the nodes,
    /// records the start, and queues its end event for `plan`'s caller.
    fn start(&mut self, now: SimTime, q: Queued, backfill: Option<(u64, u64)>) {
        let (job, cfg) = (&self.jobs[q.job], self.cfg);
        let nodes = self.nodes_of(&q);
        let (counter, kind) = match backfill {
            None => (Counter::BackfillHeadStarts, EventKind::BackfillHeadStart),
            Some(_) => (Counter::BackfillFills, EventKind::BackfillFill),
        };
        cfg.obs.inc(counter);
        cfg.obs.event_at(now, 0, kind, job.id.0, nodes as u64);
        debug_assert!(nodes <= self.free);
        self.free -= nodes;
        self.part_busy[q.part as usize] += nodes;

        if cfg.audit.enabled() {
            if let Some((slack_us, head_job)) = backfill {
                let d = Decision::Backfilled { slack_us, head_job };
                cfg.audit.record(now.as_micros(), job.id.0, q.est, d);
            }
            self.cursor.forget(job.id.0);
            cfg.audit.record(
                now.as_micros(),
                job.id.0,
                q.est,
                Decision::Started { nodes },
            );
        }

        let killed = cfg.kill_at_limit && job.actual_runtime > q.limit;
        let run = if killed { q.limit } else { job.actual_runtime };
        let occupied = cfg.dispatch.occupation(nodes, run);
        let planned = cfg.dispatch.occupation(nodes, q.limit);

        // Root-only dispatch trace: queue wait is submission→start,
        // processing is the modelled launch overhead, so `eslurm
        // critical-path` can rank scheduler-level dispatches alongside the
        // RM broadcast trees.
        cfg.obs.causal_root(
            obs::FlowKind::Dispatch,
            0,
            q.original_submit.as_micros(),
            (now - q.original_submit).as_micros(),
            cfg.dispatch.launch(nodes).as_micros(),
        );

        self.report.occupied_node_secs += nodes as f64 * occupied.as_secs_f64();

        let slot = match self.running.iter().position(|r| r.is_none()) {
            Some(s) => s,
            None => {
                self.running.push(None);
                self.running.len() - 1
            }
        };
        self.running[slot] = Some(Running {
            nodes,
            planned_end: now + planned,
            job_id: job.id.0,
            part: q.part,
        });
        let end = End {
            slot,
            queued: q,
            started: now,
            killed,
        };
        self.ends.push((now + occupied, end));
    }

    /// Nodes `q` takes: its request clamped to the cluster.
    fn nodes_of(&self, q: &Queued) -> u32 {
        self.jobs[q.job].nodes.min(self.cfg.nodes)
    }

    /// Nodes a partition may still take on (`u32::MAX` when uncapped —
    /// the trivial-set fast path, where this never binds before `free`).
    fn headroom(&self, part: u32) -> u32 {
        match self.cfg.policies.partitions.get(part as usize).capacity {
            Some(cap) => cap.saturating_sub(self.part_busy[part as usize]),
            None => u32::MAX,
        }
    }

    /// Audit the blocked head `head` and its reservation at `resv`, if it
    /// has one — deduplicated, so only a new head or a moved reservation
    /// is recorded.
    fn audit_head(&mut self, now: SimTime, head: Queued, resv: Option<SimTime>) {
        let audit = &self.cfg.audit;
        if !audit.enabled() {
            return;
        }
        let head_id = self.jobs[head.job].id.0;
        if self.cursor.last_head != Some(head_id) {
            self.cursor.last_head = Some(head_id);
            audit.record(now.as_micros(), head_id, head.est, Decision::HeadOfQueue);
        }
        let Some(at) = resv else { return };
        if self.cursor.last_resv != Some((head_id, at.as_micros())) {
            self.cursor.last_resv = Some((head_id, at.as_micros()));
            // The counterfactual blocker set: the running jobs whose
            // planned ends the reservation waits behind, in deterministic
            // (end time, job id) order.
            let mut blockers: Vec<(SimTime, u64)> = self
                .running
                .iter()
                .flatten()
                .filter(|r| r.planned_end <= at)
                .map(|r| (r.planned_end, r.job_id))
                .collect();
            blockers.sort();
            let blockers = blockers.into_iter().map(|(_, id)| id).collect();
            let d = Decision::ReservationPlaced {
                at_us: at.as_micros(),
                blockers,
            };
            audit.record(now.as_micros(), head_id, head.est, d);
        }
    }

    /// Record a backfill skip of queue entry `i`, deduplicated per entry
    /// by reason — queue scans re-derive the same verdict every event, so
    /// only changes are logged. The dedup marker lives on the entry
    /// itself, so the steady-state cost on an audited scan is one `Copy`
    /// field compare.
    fn record_skip(&mut self, now: SimTime, i: usize, reason: SkipReason) {
        let q = &mut self.queue[i];
        if !self.cfg.audit.enabled() || q.last_skip == Some(reason) {
            return;
        }
        q.last_skip = Some(reason);
        let d = Decision::SkippedBackfill { reason };
        let job_id = self.jobs[q.job].id.0;
        self.cfg.audit.record(now.as_micros(), job_id, q.est, d);
    }

    /// Recompute every queued job's multifactor priority and keep the
    /// queue sorted by it (descending; the sort is stable, so equal
    /// priorities keep arrival order — and the uniform composer returns
    /// without touching the queue at all, preserving bit-identical FIFO
    /// behavior). Material priority changes are recorded in the audit log
    /// with each factor's weighted contribution.
    fn reorder_by_priority(&mut self, now: SimTime) {
        let (jobs, cfg) = (self.jobs, self.cfg);
        if cfg.policies.priority.is_uniform() || self.queue.is_empty() {
            return;
        }
        let ctx = |q: &Queued| FactorCtx {
            now,
            submit: q.original_submit,
            cluster_nodes: cfg.nodes,
            partition: cfg.policies.partitions.get(q.part as usize),
            fairshare: &cfg.policies.fairshare,
        };
        for q in self.queue.iter_mut() {
            q.prio_milli = cfg.policies.priority.priority_milli(&jobs[q.job], &ctx(q));
        }
        self.queue
            .make_contiguous()
            .sort_by_key(|q| std::cmp::Reverse(q.prio_milli));
        if !cfg.audit.enabled() {
            return;
        }
        // Log first rankings and drifts past ~1.5% of the last logged
        // value: enough for `why-job` to show why a job ranked where it
        // did, without re-logging every age tick. Never read by
        // scheduling decisions.
        let mut shares: Vec<FactorShare> = Vec::new();
        for (rank, q) in self.queue.iter_mut().enumerate() {
            if q.logged_prio != i64::MIN
                && (q.prio_milli - q.logged_prio).abs() < (q.logged_prio.abs() / 64).max(1)
            {
                continue;
            }
            let total = cfg
                .policies
                .priority
                .score_into(&jobs[q.job], &ctx(q), &mut shares);
            debug_assert_eq!(total, q.prio_milli);
            q.logged_prio = q.prio_milli;
            cfg.audit.record(
                now.as_micros(),
                jobs[q.job].id.0,
                q.est,
                Decision::PriorityRanked {
                    priority_milli: q.prio_milli,
                    rank: rank as u32,
                    factors: shares.iter().map(|s| (s.name, s.milli)).collect(),
                },
            );
        }
    }

    /// One sampling-cadence tick: the busy-node series plus a snapshot of
    /// the scheduling gauges/counters living in `cfg.obs`.
    fn sample_tick(&self, t: SimTime) {
        let cfg = self.cfg;
        let mut id = MetricId::new("sched_busy_nodes");
        if let Some(run) = &cfg.run_label {
            id = id.with("run", run.clone());
        }
        cfg.sampler.record(t, id, (cfg.nodes - self.free) as f64);
        cfg.sampler.snapshot(t, &cfg.obs);
    }
}

/// Apply the routed partition's time policies to a fresh limit: the
/// default walltime replaces a policy default, and the hard cap clamps
/// whatever survives. Only called under a non-trivial partition set.
fn apply_partition_limits(cfg: &BackfillConfig, part: u32, info: &mut LimitInfo) {
    let p = cfg.policies.partitions.get(part as usize);
    if info.est.source == EstSource::Default {
        if let Some(d) = p.default_time {
            info.limit = d;
            info.est = EstimateRef::new(d.as_micros(), EstSource::Default);
        }
    }
    if let Some(m) = p.max_time {
        info.limit = info.limit.min(m);
    }
}

/// Per-source / per-cluster estimator accuracy into the labeled metric
/// registry, from where `Sampler::snapshot` feeds the SeriesStore and
/// `export::to_prometheus` the text exposition. Signed error is
/// estimate − actual in µs; a kill joins the estimate to a lower bound of
/// the actual runtime.
fn record_accuracy(cfg: &BackfillConfig, est: &EstimateRef, err_us: i64, killed: bool) {
    if !cfg.obs.enabled() {
        return;
    }
    let src = est.source.name();
    let family = if err_us < 0 {
        "est_underestimates"
    } else {
        "est_overestimates"
    };
    cfg.obs
        .labeled_counter(MetricId::new(family).with("source", src))
        .inc();
    if killed {
        cfg.obs
            .labeled_counter(MetricId::new("est_kills").with("source", src))
            .inc();
    }
    let abs_s = err_us.unsigned_abs() / 1_000_000;
    cfg.obs
        .labeled_hist(
            MetricId::new("est_abs_err_s").with("source", src),
            EST_ERR_BOUNDS,
        )
        .observe(abs_s);
    if let Some(c) = est.cluster {
        cfg.obs
            .labeled_hist(
                MetricId::new("est_abs_err_s").with("cluster", c.to_string()),
                EST_ERR_BOUNDS,
            )
            .observe(abs_s);
    }
}

/// Bucket ladder for absolute estimate error, seconds (same shape as the
/// job-wait ladder).
const EST_ERR_BOUNDS: &[u64] = &[
    1, 5, 15, 60, 300, 900, 1_800, 3_600, 7_200, 14_400, 43_200, 86_400,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{OracleLimit, UserLimit};
    use workload::{JobId, TraceConfig, UserId};

    fn job(id: u64, nodes: u32, submit_s: u64, runtime_s: u64, est_s: u64) -> Job {
        Job {
            id: JobId(id),
            name: format!("j{id}"),
            user: UserId(0),
            nodes,
            cores_per_node: 1,
            submit: SimTime::from_secs(submit_s),
            user_estimate: Some(SimSpan::from_secs(est_s)),
            actual_runtime: SimSpan::from_secs(runtime_s),
        }
    }

    fn zero_overhead(nodes: u32) -> BackfillConfig {
        BackfillConfig {
            dispatch: DispatchModel {
                dispatch: SimSpan::ZERO,
                dispatch_per_node: SimSpan::ZERO,
                cleanup: SimSpan::ZERO,
                cleanup_per_node: SimSpan::ZERO,
            },
            ..BackfillConfig::new(nodes)
        }
    }

    #[test]
    fn fifo_when_no_backfill_possible() {
        // Two full-cluster jobs: strictly sequential.
        let jobs = vec![job(0, 4, 0, 100, 200), job(1, 4, 0, 100, 200)];
        let r = simulate(&jobs, &mut UserLimit::default(), &zero_overhead(4));
        assert_eq!(r.completed, 2);
        assert_eq!(r.makespan, SimTime::from_secs(200));
        // Second job waited 100 s.
        assert_eq!(r.total_wait, SimSpan::from_secs(100));
    }

    #[test]
    fn arrivals_are_handled_before_equal_time_ends() {
        // B arrives at exactly the instant A ends. The arrival is handled
        // first, so B queues behind A as the blocked head with a
        // reservation at that instant, and starts once A's end releases
        // the nodes — all at t = 100 s.
        let jobs = vec![job(0, 4, 0, 100, 100), job(1, 4, 100, 50, 50)];
        let mut cfg = zero_overhead(4);
        cfg.audit = DecisionLog::unbounded();
        simulate(&jobs, &mut UserLimit::default(), &cfg);
        let at = SimTime::from_secs(100).as_micros();
        let timeline: Vec<(u64, Decision)> = cfg
            .audit
            .for_job(1)
            .into_iter()
            .map(|r| (r.t_us, r.decision))
            .take(4)
            .collect();
        assert_eq!(
            timeline,
            vec![
                (at, Decision::Submitted),
                (at, Decision::HeadOfQueue),
                (
                    at,
                    Decision::ReservationPlaced {
                        at_us: at,
                        blockers: vec![0],
                    }
                ),
                (at, Decision::Started { nodes: 4 }),
            ]
        );
    }

    #[test]
    fn backfill_lets_short_job_jump_without_delaying_head() {
        // t=0: big job takes all 4 nodes for 100 s.
        // t=1: another 4-node job queues (head, reserved at t=100).
        // t=2: a 1-node 50 s job arrives — it fits before the reservation
        //      and must backfill... but 0 nodes are free while the big job
        //      runs, so it cannot. Give the first job 3 nodes instead.
        let jobs = vec![
            job(0, 3, 0, 100, 100),
            job(1, 4, 1, 100, 100),
            job(2, 1, 2, 50, 50),
        ];
        let r = simulate(&jobs, &mut UserLimit::default(), &zero_overhead(4));
        assert_eq!(r.completed, 3);
        // Job 2 backfills at t=2 on the free node, done by t=52 < 100.
        // Head (job 1) starts at t=100: wait 99. Job 2 wait: 0.
        assert_eq!(r.total_wait, SimSpan::from_secs(99));
        assert_eq!(r.makespan, SimTime::from_secs(200));
    }

    #[test]
    fn backfill_does_not_delay_reserved_head() {
        // A long job that WOULD delay the head must not backfill.
        let jobs = vec![
            job(0, 3, 0, 100, 100),
            job(1, 4, 1, 100, 100),
            job(2, 1, 2, 500, 500), // too long to finish before t=100
        ];
        let r = simulate(&jobs, &mut UserLimit::default(), &zero_overhead(4));
        // Head starts at t=100 (wait 99); job 2 runs after at t=200 (the
        // extra-nodes condition fails because head needs the whole
        // cluster).
        assert_eq!(r.completed, 3);
        assert_eq!(r.makespan, SimTime::from_secs(700));
    }

    #[test]
    fn extra_nodes_backfill_allows_long_narrow_jobs() {
        // Head needs 2 of 4 nodes; a long 1-node job can run on the spare
        // capacity without delaying it.
        let jobs = vec![
            job(0, 4, 0, 100, 100),
            job(1, 2, 1, 100, 100),   // head after job0
            job(2, 1, 2, 1000, 1000), // narrow + long
        ];
        let r = simulate(&jobs, &mut UserLimit::default(), &zero_overhead(4));
        assert_eq!(r.completed, 3);
        // Job 2 starts right when job 0 ends (t=100) alongside the head,
        // running on the spare two nodes until t=1100.
        assert_eq!(r.makespan, SimTime::from_secs(1100));
    }

    #[test]
    fn kill_at_limit_and_resubmit() {
        // Job underestimates: killed at 50 s, resubmitted with 100 s limit,
        // completes on the second attempt.
        let jobs = vec![job(0, 1, 0, 80, 50)];
        let r = simulate(&jobs, &mut UserLimit::default(), &zero_overhead(2));
        assert_eq!(r.killed, 1);
        assert_eq!(r.completed, 1);
        assert_eq!(r.abandoned, 0);
        // 50 wasted + 80 useful node-seconds occupied.
        assert!((r.occupied_node_secs - 130.0).abs() < 1e-6);
        assert!((r.useful_node_secs - 80.0).abs() < 1e-6);
    }

    #[test]
    fn chronic_underestimate_is_abandoned() {
        let jobs = vec![job(0, 1, 0, 10_000, 1)];
        let mut cfg = zero_overhead(1);
        cfg.max_resubmits = 2;
        let r = simulate(&jobs, &mut UserLimit::default(), &cfg);
        // Limits 1, 2, 4 — all kills, then abandoned.
        assert_eq!(r.killed, 3);
        assert_eq!(r.abandoned, 1);
        assert_eq!(r.completed, 0);
    }

    #[test]
    fn oracle_limits_avoid_kills() {
        let jobs = TraceConfig::small(300, 17).generate();
        let r = simulate(&jobs, &mut OracleLimit, &BackfillConfig::new(1024));
        assert_eq!(r.killed, 0);
        assert_eq!(r.completed, 300);
    }

    #[test]
    fn dispatch_overhead_inflates_occupation() {
        let mut cfg = zero_overhead(1);
        cfg.dispatch = DispatchModel {
            dispatch: SimSpan::from_secs(5),
            dispatch_per_node: SimSpan::ZERO,
            cleanup: SimSpan::from_secs(5),
            cleanup_per_node: SimSpan::ZERO,
        };
        let jobs = vec![job(0, 1, 0, 100, 200)];
        let r = simulate(&jobs, &mut UserLimit::default(), &cfg);
        assert!((r.occupied_node_secs - 110.0).abs() < 1e-6);
        assert_eq!(r.makespan, SimTime::from_secs(110));
    }

    #[test]
    fn rm_outage_delays_scheduling() {
        let mut cfg = zero_overhead(4);
        cfg.rm_outages = vec![(SimTime::from_secs(10), SimSpan::from_secs(100))];
        // Job arrives during the outage; it can only start once the RM is
        // back at t=110.
        let jobs = vec![job(0, 1, 50, 10, 20)];
        let r = simulate(&jobs, &mut UserLimit::default(), &cfg);
        assert_eq!(r.completed, 1);
        assert_eq!(r.total_wait, SimSpan::from_secs(60));
    }

    #[test]
    fn oversized_jobs_clamp_to_cluster() {
        // A job requesting more nodes than exist still runs (clamped),
        // rather than deadlocking the queue.
        let jobs = vec![job(0, 100, 0, 10, 20)];
        let r = simulate(&jobs, &mut UserLimit::default(), &zero_overhead(4));
        assert_eq!(r.completed, 1);
    }

    #[test]
    fn per_user_stats_accumulate() {
        let jobs = TraceConfig::small(400, 71).generate();
        let r = simulate(&jobs, &mut UserLimit::default(), &BackfillConfig::new(256));
        let total: usize = r.per_user.values().map(|(n, _)| n).sum();
        assert_eq!(total, r.completed);
        assert!(r.wait_unfairness() >= 1.0);
        assert!(!r.user_mean_waits().is_empty());
    }

    #[test]
    fn utilization_saturates_under_load() {
        let jobs: Vec<Job> = (0..200).map(|i| job(i, 1, 0, 1000, 1500)).collect();
        let r = simulate(&jobs, &mut UserLimit::default(), &zero_overhead(50));
        // 200 jobs × 1000 s on 50 nodes = 4 batches, fully packed.
        assert!(r.utilization() > 0.99, "{}", r.utilization());
        assert_eq!(r.completed, 200);
    }

    #[test]
    fn fcfs_never_backfills() {
        // The EASY backfill scenario: under FCFS the short job must wait
        // behind the blocked head instead of jumping ahead.
        let jobs = vec![
            job(0, 3, 0, 100, 100),
            job(1, 4, 1, 100, 100),
            job(2, 1, 2, 50, 50),
        ];
        let mut cfg = zero_overhead(4);
        cfg.algo = SchedAlgo::Fcfs;
        let r = simulate(&jobs, &mut UserLimit::default(), &cfg);
        assert_eq!(r.completed, 3);
        // Job 2 runs only after the head (100..200): total waits 99 + 198.
        assert_eq!(r.total_wait, SimSpan::from_secs(99 + 198));
    }

    #[test]
    fn conservative_backfills_harmless_jobs() {
        // Same scenario: the 50 s job delays nobody, so conservative
        // backfill starts it immediately, like EASY.
        let jobs = vec![
            job(0, 3, 0, 100, 100),
            job(1, 4, 1, 100, 100),
            job(2, 1, 2, 50, 50),
        ];
        let mut cfg = zero_overhead(4);
        cfg.algo = SchedAlgo::Conservative;
        let r = simulate(&jobs, &mut UserLimit::default(), &cfg);
        assert_eq!(r.completed, 3);
        assert_eq!(r.total_wait, SimSpan::from_secs(99));
    }

    #[test]
    fn conservative_respects_all_reservations() {
        // Queue: head B needs the whole cluster (reserved at t=100);
        // C (2 nodes, 100 s) is reserved right after B; a 1-node job D
        // with a 250 s limit would fit the idle node now under EASY's
        // extra-node rule only if it spares the head — but it would push
        // C's reservation back, which conservative backfill must refuse.
        let jobs = vec![
            job(0, 3, 0, 100, 100), // running
            job(1, 4, 1, 100, 100), // head, reserved [100, 200)
            job(2, 2, 2, 100, 100), // reserved [200, 300)
            job(3, 1, 3, 250, 250), // would overlap C's reservation
        ];
        let mut cfg = zero_overhead(4);
        cfg.algo = SchedAlgo::Conservative;
        let r = simulate(&jobs, &mut UserLimit::default(), &cfg);
        assert_eq!(r.completed, 4);
        // D fits alongside C at t=200 (C takes 2 nodes of 4, D takes 1):
        // waits: B 99, C 198, D 197.
        assert_eq!(r.total_wait, SimSpan::from_secs(99 + 198 + 197));
    }

    #[test]
    fn algorithms_conserve_jobs_on_random_traces() {
        let jobs = TraceConfig::small(800, 61).generate();
        for algo in [SchedAlgo::Fcfs, SchedAlgo::Easy, SchedAlgo::Conservative] {
            let mut cfg = BackfillConfig::new(256);
            cfg.algo = algo;
            let r = simulate(&jobs, &mut UserLimit::default(), &cfg);
            assert_eq!(r.completed + r.abandoned, 800, "{algo:?}");
        }
    }

    #[test]
    fn backfilling_beats_fcfs_on_wait() {
        let jobs = TraceConfig::small(1200, 62).generate();
        let wait_for = |algo| {
            let mut cfg = BackfillConfig::new(128);
            cfg.algo = algo;
            simulate(&jobs, &mut UserLimit::default(), &cfg).avg_wait()
        };
        let fcfs = wait_for(SchedAlgo::Fcfs);
        let easy = wait_for(SchedAlgo::Easy);
        assert!(easy < fcfs, "EASY {easy} should beat FCFS {fcfs}");
    }

    #[test]
    fn better_estimates_dont_hurt_throughput() {
        let jobs = TraceConfig::small(1500, 23).generate();
        let cfg = BackfillConfig::new(256);
        let user = simulate(&jobs, &mut UserLimit::default(), &cfg);
        let oracle = simulate(&jobs, &mut OracleLimit, &cfg);
        assert!(oracle.avg_wait() <= user.avg_wait().mul_f64(1.2));
        assert_eq!(oracle.killed, 0);
    }

    #[test]
    fn accuracy_series_reach_the_metrics_registry() {
        // One chronic underestimate (killed, then resubmitted to
        // completion) and one overestimate: the prediction-vs-actual joins
        // must land in the labeled registry the sampler snapshots.
        let jobs = vec![job(0, 2, 0, 300, 100), job(1, 2, 0, 100, 200)];
        let mut cfg = zero_overhead(4);
        cfg.obs = Recorder::full();
        let r = simulate(&jobs, &mut UserLimit::default(), &cfg);
        assert!(r.killed >= 1, "scenario must kill the underestimate");
        assert_eq!(r.completed, 2);
        let snap = cfg.obs.labeled_snapshot();
        let has = |name: &str| snap.iter().any(|(id, _)| id.name() == name);
        assert!(has("est_underestimates"));
        assert!(has("est_overestimates"));
        assert!(has("est_kills"));
        assert!(has("est_abs_err_s"));
        // Every accuracy series carries a source attribution label.
        for (id, _) in snap.iter().filter(|(id, _)| id.name().starts_with("est_")) {
            assert!(
                id.labels()
                    .iter()
                    .any(|(k, _)| *k == "source" || *k == "cluster"),
                "{} lost its attribution label",
                id.name()
            );
        }
    }
}
