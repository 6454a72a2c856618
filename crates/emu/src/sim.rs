//! The discrete-event transport: deterministic, fast, and scalable to the
//! million-node clusters the paper's FP-Tree argument targets.
//!
//! ## Sharded execution
//!
//! The event population is partitioned into `shards` independent
//! [`KeyedQueue`]s, each with its own struct-of-arrays node store
//! (`emu::state`) covering the nodes assigned to it. Every
//! event carries a canonical [`EventKey`] `(time, lane, seq)` stamped at
//! creation (lane = creator node + 1, or 0 for external injections and
//! fault markers; seq = the creator's own counter), which is identical no
//! matter how many shards exist — so sorting by key yields the *same*
//! total order for every shard count, and `shards = 1` is a special case
//! rather than a preserved fork.
//!
//! The engine runs on one thread: it repeatedly pops the globally minimal
//! key across the shard queues and dispatches it inline (a k-way merge).
//! With one shard this is the plain serial loop; with several, outcomes —
//! meters, drops, clock, event counts, metric snapshots, trace exports —
//! are bit-identical to it by construction. The shard layout serves as
//! the unit of per-shard profiling, memory tagging and cross-shard
//! traffic counting.
//!
//! Meter sampling is an engine-level tick (not a queued event): ticks fire
//! at multiples of the interval, before any event at the same instant, and
//! one final "kill tick" past `until` retires the cadence (matching the
//! retired event-based scheduling, including its event count and clock
//! effect).

use crate::actor::{Actor, Context, Payload};
use crate::fault::FaultPlan;
use crate::meter::{Meter, SampleSeries};
use crate::network::LatencyModel;
use crate::node::NodeId;
use crate::state::NodeStore;
use obs::engine::{EngineMode, EngineSpan, ShardSlot};
use obs::{
    tag_scope, CausalRecord, Counter, EngineProfiler, EventKind, FlowKind, Hist, HopSend,
    MemProfiler, MemTag, Recorder, Sampler, SloEngine, TraceContext,
};
use rand::rngs::StdRng;
use simclock::{EventKey, KeyedQueue, SimSpan, SimTime};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of a simulated cluster.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Master seed; every node derives an independent RNG stream from it.
    pub seed: u64,
    /// Link model shared by all node pairs.
    pub latency: LatencyModel,
    /// Ground-truth outage schedule.
    pub faults: FaultPlan,
    /// Optional metering: `(interval, tracked nodes, stop time)`. Samples
    /// are recorded for the tracked nodes only — at 20K nodes a 1 Hz series
    /// for everyone would dwarf the experiment itself.
    pub sampling: Option<Sampling>,
    /// Observability sink. Disabled by default; when enabled the transport
    /// records message counters/latency histograms (and, in full-trace
    /// mode, send/recv/process spans plus fault-plan node up/down marks).
    pub obs: Recorder,
    /// Time-series sink. Disabled by default; when enabled, each meter
    /// sampling tick also records per-node `footprint_*{node=...}` series
    /// and snapshots the recorder's metrics into the sampler's store. When
    /// no explicit [`Sampling`] is configured, one is synthesized from the
    /// sampler's cadence over its named nodes (the sampler must then have
    /// an end time, or no ticks are scheduled).
    pub sampler: Sampler,
    /// Number of event-queue shards (clamped to `[1, nodes]`). `1` runs
    /// the classic serial loop; `> 1` merges the shard queues on the same
    /// thread, with outcomes and exports identical to `1`.
    pub shards: usize,
    /// Node → shard assignment (`partition[node] < shards`). `None`
    /// partitions nodes into contiguous balanced blocks. Outcomes never
    /// depend on the partition; it decides only which queue holds a node's
    /// events and which messages the profiler counts as cross-shard.
    pub partition: Option<Vec<u32>>,
    /// Wall-clock engine profiler. Disabled by default; when enabled the
    /// engine attributes *real* time per shard (event execution, queue
    /// ops) and counts cross-shard traffic. Strictly outside the
    /// virtual-time path: it writes only to its own atomics, so enabling
    /// it changes no outcome and no virtual-time export byte.
    pub engine: EngineProfiler,
    /// Online SLO engine. Disabled by default; when enabled it evaluates
    /// its specs on every sampling tick (it needs the sampling cadence to
    /// run — configure a [`Sampling`] or an end-bounded sampler). It reads
    /// the recorder and sampler and writes only its own state, so enabling
    /// it perturbs no outcome and no base export byte.
    pub slo: SloEngine,
    /// Host-memory profiler handle ([`obs::MemProfiler`]). Disabled by
    /// default, and inert unless the `mem-profile` feature compiled the
    /// tracking allocator in. When armed, each sampling tick also records
    /// per-tag `mem_host_*` series into the sampler's *host* store —
    /// never the default virtual-time store, so base exports stay
    /// byte-identical with profiling on or off.
    pub mem: MemProfiler,
}

/// Periodic meter sampling configuration.
#[derive(Clone, Debug)]
pub struct Sampling {
    /// Sampling period (the paper samples once per second).
    pub interval: SimSpan,
    /// Nodes whose meters are recorded.
    pub tracked: Vec<NodeId>,
    /// No samples are taken after this time.
    pub until: SimTime,
}

impl SimConfig {
    /// A default config for `n` fault-free nodes.
    pub fn new(n: usize, seed: u64) -> Self {
        SimConfig {
            seed,
            latency: LatencyModel::default(),
            faults: FaultPlan::none(n),
            sampling: None,
            obs: Recorder::disabled(),
            sampler: Sampler::disabled(),
            shards: 1,
            partition: None,
            engine: EngineProfiler::disabled(),
            slo: SloEngine::disabled(),
            mem: MemProfiler::disabled(),
        }
    }
}

enum Ev<M> {
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: M,
        /// Causal-trace envelope: `Some` only while a trace is current on
        /// the sender *and* the recorder keeps causal records. Riding the
        /// envelope (not the payload) keeps modelled wire sizes — and so
        /// every latency draw and event time — identical with tracing on.
        hop: Option<HopSend>,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    SocketClose {
        a: NodeId,
        b: NodeId,
    },
    /// Fault-plan marker so the trace shows outages at their virtual time.
    /// Only queued when the recorder is enabled, so un-observed runs see
    /// an identical event stream.
    Fault {
        node: NodeId,
        up: bool,
    },
}

/// One shard: its event queue, the state of the nodes it owns, and its
/// share of the run counters.
struct Shard<M> {
    queue: KeyedQueue<Ev<M>>,
    nodes: NodeStore,
    events: u64,
    drops: u64,
}

/// State shared read-only by every shard during dispatch.
struct SimShared {
    latency: LatencyModel,
    faults: FaultPlan,
    obs: Recorder,
    /// `node → (shard, local index)`.
    map: Vec<(u32, u32)>,
    nshards: usize,
    /// Wall-clock profiler (disabled by default; never read by handlers).
    engine: EngineProfiler,
}

struct DesCtx<'a, M> {
    shards: &'a mut [Shard<M>],
    shared: &'a SimShared,
    me: NodeId,
    now: SimTime,
    /// The causal context current for the running handler (set from the
    /// delivered envelope or by `trace_begin`/`trace_adopt`). Always
    /// `None` when the recorder keeps no causal records.
    cur_ctx: Option<TraceContext>,
}

impl<M: Payload> DesCtx<'_, M> {
    /// The store and local index of `node`.
    fn store(&mut self, node: NodeId) -> (&mut NodeStore, usize) {
        let (s, l) = self.shared.map[node.index()];
        (&mut self.shards[s as usize].nodes, l as usize)
    }

    /// Route an event to the shard that owns its execution.
    fn push_event(&mut self, key: EventKey, dst_shard: u32, ev: Ev<M>) {
        if self.shared.engine.is_enabled() {
            // Cross-shard traffic gauge: which shard pairs talk, and how
            // much, so the profile answers partition-locality questions.
            let src = self.shared.map[self.me.index()].0;
            if src != dst_shard {
                self.shared
                    .engine
                    .count_cross_shard(src as usize, dst_shard as usize);
            }
        }
        self.shards[dst_shard as usize].queue.push(key, ev);
    }

    /// Apply one socket open/close to `node`'s meter.
    fn sock_op(&mut self, node: NodeId, open: bool) {
        let (store, li) = self.store(node);
        if open {
            store.open_socket(li);
        } else {
            store.close_socket(li);
        }
    }

    /// Schedule an event on `me`'s own shard at absolute time `at`,
    /// stamped with `me`'s lane and next sequence number.
    fn push_self(&mut self, at: SimTime, ev: Ev<M>) {
        let me = self.me;
        let seq = {
            let (store, li) = self.store(me);
            store.take_seq(li)
        };
        let sid = self.shared.map[me.index()].0;
        self.push_event(EventKey::for_node(at, me.0, seq), sid, ev);
    }
}

impl<M: Payload> Context<M> for DesCtx<'_, M> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn me(&self) -> NodeId {
        self.me
    }

    fn send(&mut self, to: NodeId, msg: M) {
        let shared = self.shared;
        let now = self.now;
        let me = self.me;
        let size = msg.size_bytes();
        let cur_ctx = self.cur_ctx;
        let (depart, arrive, seq) = {
            let (store, li) = self.store(me);
            let depart = store.tx_free(li).max(now) + shared.latency.tx_gap(size);
            store.set_tx_free(li, depart);
            let arrive = depart + shared.latency.latency(size, store.rng(li));
            store.count_sent(li);
            (depart, arrive, store.take_seq(li))
        };
        // Allocate the hop's child span while the sender's context is
        // current; the queue/link split falls out of the DES send math
        // (backlog + transmit gap until departure, wire latency after).
        let hop = cur_ctx.and_then(|ctx| {
            shared.obs.causal_child(ctx).map(|child| HopSend {
                ctx: child,
                parent: ctx.span,
                send_us: now.as_micros(),
                queue_us: depart.as_micros() - now.as_micros(),
            })
        });
        if shared.obs.enabled() {
            let flight = arrive.as_micros() - now.as_micros();
            shared.obs.inc(Counter::MsgsSent);
            shared.obs.add(Counter::BytesSent, size as u64);
            shared.obs.observe(Hist::HopLatencyUs, flight);
            shared.obs.span(
                now.as_micros(),
                flight,
                me.0,
                EventKind::MsgSend,
                to.0 as u64,
                size as u64,
            );
        }
        let dst = shared.map[to.index()].0;
        self.push_event(
            EventKey::for_node(arrive, me.0, seq),
            dst,
            Ev::Deliver {
                from: me,
                to,
                msg,
                hop,
            },
        );
    }

    fn set_timer(&mut self, after: SimSpan, token: u64) {
        let at = self.now + after;
        let node = self.me;
        self.push_self(at, Ev::Timer { node, token });
    }

    fn charge_cpu(&mut self, span: SimSpan) {
        let me = self.me;
        let (store, li) = self.store(me);
        store.charge_cpu(li, span);
    }

    fn alloc_virt(&mut self, delta: i64) {
        let me = self.me;
        let (store, li) = self.store(me);
        store.alloc_virt(li, delta);
    }

    fn alloc_real(&mut self, delta: i64) {
        let me = self.me;
        let (store, li) = self.store(me);
        store.alloc_real(li, delta);
    }

    fn open_socket(&mut self, peer: NodeId) {
        self.shared.obs.inc(Counter::SocketsOpened);
        let me = self.me;
        self.sock_op(me, true);
        self.sock_op(peer, true);
    }

    fn close_socket(&mut self, peer: NodeId) {
        self.shared.obs.inc(Counter::SocketsClosed);
        let me = self.me;
        self.sock_op(me, false);
        self.sock_op(peer, false);
    }

    fn open_socket_for(&mut self, peer: NodeId, dur: SimSpan) {
        self.open_socket(peer);
        let at = self.now + dur;
        let a = self.me;
        self.push_self(at, Ev::SocketClose { a, b: peer });
    }

    fn rng(&mut self) -> &mut StdRng {
        let me = self.me;
        let (store, li) = self.store(me);
        store.rng(li)
    }

    fn is_up(&self, node: NodeId) -> bool {
        self.shared.faults.is_up(node, self.now)
    }

    fn trace_begin(&mut self, flow: FlowKind) -> Option<TraceContext> {
        let ctx = self
            .shared
            .obs
            .causal_begin(flow, self.me.0, self.now.as_micros());
        if ctx.is_some() {
            self.cur_ctx = ctx;
        }
        ctx
    }

    fn trace_current(&self) -> Option<TraceContext> {
        self.cur_ctx
    }

    fn trace_adopt(&mut self, ctx: Option<TraceContext>) {
        if self.shared.obs.causal_enabled() {
            self.cur_ctx = ctx;
        }
    }

    fn trace_backoff(&mut self, ctx: &TraceContext, start: SimTime) {
        self.shared
            .obs
            .causal_backoff(ctx, self.me.0, start.as_micros(), self.now.as_micros());
    }
}

/// Dispatch one event due at `now`. `actors` is the actor group of the
/// shard the event executes on (deliveries and timers always run on the
/// shard that owns the target node). Returns whether a message was dropped.
fn exec_event<M: Payload, A: Actor<M>>(
    now: SimTime,
    ev: Ev<M>,
    shards: &mut [Shard<M>],
    actors: &mut [A],
    shared: &SimShared,
) -> bool {
    match ev {
        Ev::Deliver { from, to, msg, hop } => {
            if !shared.faults.is_up(to, now) {
                shared.obs.inc(Counter::MsgsDropped);
                shared
                    .obs
                    .event_at(now, to.0, EventKind::MsgDrop, from.0 as u64, 0);
                return true;
            }
            let li = shared.map[to.index()].1 as usize;
            // The delivered context becomes current for the handler, so
            // any sends it makes chain as children of this hop.
            let mut ctx = DesCtx {
                shards,
                shared,
                me: to,
                now,
                cur_ctx: hop.map(|h| h.ctx),
            };
            {
                let (store, i) = ctx.store(to);
                store.count_received(i);
            }
            let tracing = shared.obs.events_enabled();
            let (size, cpu_before) = if tracing {
                let s = msg.size_bytes() as u64;
                let c = {
                    let (store, i) = ctx.store(to);
                    store.cpu_time(i).as_micros()
                };
                shared
                    .obs
                    .event_at(now, to.0, EventKind::MsgRecv, from.0 as u64, s);
                (s, c)
            } else {
                (0, 0)
            };
            actors[li].on_message(&mut ctx, from, msg);
            if tracing {
                let cpu = {
                    let (store, i) = ctx.store(to);
                    store.cpu_time(i).as_micros()
                } - cpu_before;
                shared.obs.observe(Hist::MsgProcessUs, cpu);
                shared.obs.span(
                    now.as_micros(),
                    cpu,
                    to.0,
                    EventKind::MsgProcess,
                    from.0 as u64,
                    size,
                );
                if let Some(h) = hop {
                    // Close the hop: queue/link were fixed at send time,
                    // processing is the CPU the handler just charged.
                    let recv_us = now.as_micros();
                    shared.obs.causal_record(CausalRecord::Hop {
                        trace: h.ctx.trace,
                        span: h.ctx.span,
                        parent: h.parent,
                        flow: h.ctx.flow,
                        depth: h.ctx.depth,
                        from: from.0,
                        to: to.0,
                        send_us: h.send_us,
                        queue_us: h.queue_us,
                        link_us: recv_us.saturating_sub(h.send_us + h.queue_us),
                        recv_us,
                        process_us: cpu,
                    });
                }
            }
            false
        }
        Ev::Timer { node, token } => {
            let li = shared.map[node.index()].1 as usize;
            let mut ctx = DesCtx {
                shards,
                shared,
                me: node,
                now,
                cur_ctx: None,
            };
            if !shared.faults.is_up(node, now) {
                // The daemon is down; its periodic work resumes when the
                // node reboots (state is preserved, as for a restarted
                // slurmd). Re-arm the timer for the reboot instant.
                if let Some(up) = shared.faults.next_up_after(node, now) {
                    ctx.push_self(up, Ev::Timer { node, token });
                }
                return false;
            }
            actors[li].on_timer(&mut ctx, token);
            false
        }
        Ev::SocketClose { a, b } => {
            let mut ctx = DesCtx {
                shards,
                shared,
                me: a,
                now,
                cur_ctx: None,
            };
            ctx.close_socket(b);
            false
        }
        Ev::Fault { node, up } => {
            if up {
                shared.obs.inc(Counter::NodeUps);
                shared.obs.event_at(now, node.0, EventKind::NodeUp, 0, 0);
            } else {
                shared.obs.inc(Counter::NodeDowns);
                shared.obs.event_at(now, node.0, EventKind::NodeDown, 0, 0);
            }
            false
        }
    }
}

/// A cluster of actors driven by the discrete-event engine.
///
/// ```
/// use emu::{Actor, Context, NodeId, SimCluster, SimConfig};
/// use simclock::SimTime;
///
/// struct Counter(u32);
/// impl Actor<u64> for Counter {
///     fn on_message(&mut self, ctx: &mut dyn Context<u64>, from: NodeId, msg: u64) {
///         self.0 += 1;
///         if msg > 0 {
///             ctx.send(from, msg - 1); // bounce it back, decremented
///         }
///     }
/// }
///
/// let mut cluster = SimCluster::new(vec![Counter(0), Counter(0)], SimConfig::new(2, 1));
/// cluster.inject(SimTime::ZERO, NodeId(0), NodeId(1), 4);
/// cluster.run_to_quiescence();
/// assert_eq!(cluster.actor(NodeId(1)).0 + cluster.actor(NodeId(0)).0, 5);
/// ```
pub struct SimCluster<M: Payload, A: Actor<M>> {
    /// Actor groups, `actors[shard][local]`.
    actors: Vec<Vec<A>>,
    shards: Vec<Shard<M>>,
    shared: SimShared,
    sampler: Sampler,
    slo: SloEngine,
    mem: MemProfiler,
    sampling: Option<Sampling>,
    /// One series per entry of `sampling.tracked`, in the same order, so
    /// the per-sample hot path is a plain index instead of a hash lookup.
    series: Vec<SampleSeries>,
    /// Next engine-level sampling tick; `None` once the cadence retired.
    sample_next: Option<SimTime>,
    started: bool,
    events_processed: u64,
    now: SimTime,
    /// Creation counter of the system lane (injections, fault markers).
    sys_seq: u64,
    n: usize,
}

impl<M: Payload, A: Actor<M>> SimCluster<M, A> {
    /// Build a cluster where node `i` runs `actors[i]`.
    pub fn new(actors: Vec<A>, config: SimConfig) -> Self {
        let n = actors.len();
        assert!(
            config.faults.cluster_size() == 0 || config.faults.cluster_size() >= n,
            "fault plan covers fewer nodes than the cluster"
        );
        let nshards = config.shards.clamp(1, n.max(1));
        let part: Vec<u32> = match config.partition {
            Some(p) => {
                assert_eq!(p.len(), n, "partition length != node count");
                assert!(
                    p.iter().all(|&s| (s as usize) < nshards),
                    "partition references shard >= shards"
                );
                p
            }
            None => (0..n).map(|i| (i * nshards / n.max(1)) as u32).collect(),
        };
        let mut sampling = config.sampling;
        if sampling.is_none() && config.sampler.enabled() {
            // The sampler alone can drive the sampling cadence, tracking
            // the nodes it was given names for. An end time is required —
            // an open-ended tick would keep the run alive forever.
            if let (Some(interval), Some(until)) =
                (config.sampler.interval(), config.sampler.until())
            {
                sampling = Some(Sampling {
                    interval,
                    tracked: config
                        .sampler
                        .named_nodes()
                        .into_iter()
                        .map(NodeId)
                        .collect(),
                    until,
                });
            }
        }
        let series = sampling
            .as_ref()
            .map(|s| vec![SampleSeries::default(); s.tracked.len()])
            .unwrap_or_default();
        let sample_next = sampling.as_ref().map(|s| SimTime::ZERO + s.interval);

        // Group actors by shard, recording each node's (shard, local).
        let mut map = vec![(0u32, 0u32); n];
        let mut ids: Vec<Vec<u32>> = vec![Vec::new(); nshards];
        let mut groups: Vec<Vec<A>> = (0..nshards).map(|_| Vec::new()).collect();
        for (i, a) in actors.into_iter().enumerate() {
            let s = part[i] as usize;
            map[i] = (part[i], groups[s].len() as u32);
            ids[s].push(i as u32);
            groups[s].push(a);
        }
        let mut shards: Vec<Shard<M>> = ids
            .iter()
            .map(|ids| Shard {
                queue: KeyedQueue::with_capacity(ids.len() * 4 + 16),
                nodes: NodeStore::new(config.seed, ids),
                events: 0,
                drops: 0,
            })
            .collect();

        let mut sys_seq = 0u64;
        if config.obs.enabled() {
            // Fault-plan markers ride the queues so node_down/node_up land
            // in the trace at their exact virtual time. Skipped entirely
            // when un-observed, keeping the event stream identical.
            for o in config.faults.outages() {
                let s = map[o.node.index()].0 as usize;
                shards[s].queue.push(
                    EventKey::system(o.down_at, sys_seq),
                    Ev::Fault {
                        node: o.node,
                        up: false,
                    },
                );
                sys_seq += 1;
                shards[s].queue.push(
                    EventKey::system(o.up_at, sys_seq),
                    Ev::Fault {
                        node: o.node,
                        up: true,
                    },
                );
                sys_seq += 1;
            }
        }

        config.engine.attach(nshards);
        SimCluster {
            actors: groups,
            shards,
            shared: SimShared {
                latency: config.latency,
                faults: config.faults,
                obs: config.obs,
                map,
                nshards,
                engine: config.engine,
            },
            sampler: config.sampler,
            slo: config.slo,
            mem: config.mem,
            sampling,
            series,
            sample_next,
            started: false,
            events_processed: 0,
            now: SimTime::ZERO,
            sys_seq,
            n,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the cluster has zero nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of event-queue shards.
    pub fn shard_count(&self) -> usize {
        self.shared.nshards
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Inject an external message (e.g. a user's job submission arriving at
    /// the master) at absolute time `at`, appearing to come from `from`.
    pub fn inject(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: M) {
        let at = at.max(self.now);
        let key = EventKey::system(at, self.sys_seq);
        self.sys_seq += 1;
        let dst = self.shared.map[to.index()].0 as usize;
        self.shards[dst].queue.push(
            key,
            Ev::Deliver {
                from,
                to,
                msg,
                hop: None,
            },
        );
    }

    /// Run until the queue is exhausted or `horizon` is reached, whichever
    /// comes first. Returns the number of events processed by this call.
    /// Every handler runs on the calling thread, whatever the shard count.
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        self.ensure_started();
        let before: u64 = self.shards.iter().map(|s| s.events).sum();
        let mut ticks = 0u64;
        self.shared.engine.set_mode(EngineMode::Merged);
        self.run_merged(horizon, &mut ticks);
        if self.shared.engine.is_enabled() {
            // Queue-depth and slab-occupancy gauges, read once per run:
            // the queues track their own high-water marks, so sampling at
            // run end loses nothing.
            for (si, sh) in self.shards.iter().enumerate() {
                if let Some(slot) = self.shared.engine.shard_slot(si) {
                    slot.observe_queue_depth(sh.queue.high_water() as u64);
                    slot.set_pool(sh.queue.slab_slots() as u64, sh.queue.free_slots() as u64);
                }
            }
        }
        let after: u64 = self.shards.iter().map(|s| s.events).sum();
        let n = after - before + ticks;
        self.events_processed += n;
        n
    }

    /// Run until no events remain. Panics if sampling is configured without
    /// an `until` bound reachable from pending work — use `run_until` then.
    pub fn run_to_quiescence(&mut self) -> u64 {
        self.run_until(SimTime(u64::MAX))
    }

    /// A snapshot of the resource meter of `node`.
    pub fn meter(&self, node: NodeId) -> Meter {
        let (s, l) = self.shared.map[node.index()];
        self.shards[s as usize].nodes.meter(l as usize)
    }

    /// Recorded sample series for a tracked node.
    pub fn series(&self, node: NodeId) -> Option<&SampleSeries> {
        let s = self.sampling.as_ref()?;
        let i = s.tracked.iter().position(|&t| t == node)?;
        self.series.get(i)
    }

    /// Immutable access to an actor (for extracting results after a run).
    pub fn actor(&self, node: NodeId) -> &A {
        let (s, l) = self.shared.map[node.index()];
        &self.actors[s as usize][l as usize]
    }

    /// Mutable access to an actor (for reconfiguring between phases).
    pub fn actor_mut(&mut self, node: NodeId) -> &mut A {
        let (s, l) = self.shared.map[node.index()];
        &mut self.actors[s as usize][l as usize]
    }

    /// Messages dropped because the destination was down at delivery time.
    pub fn dropped_messages(&self) -> u64 {
        self.shards.iter().map(|s| s.drops).sum()
    }

    /// The observability recorder this cluster records into (disabled
    /// unless one was supplied via [`SimConfig`]).
    pub fn obs(&self) -> &Recorder {
        &self.shared.obs
    }

    /// The time-series sampler this cluster feeds (disabled unless one
    /// was supplied via [`SimConfig`]).
    pub fn sampler(&self) -> &Sampler {
        &self.sampler
    }

    /// The wall-clock engine profiler this cluster reports into (disabled
    /// unless one was supplied via [`SimConfig`]).
    pub fn engine_profiler(&self) -> &EngineProfiler {
        &self.shared.engine
    }

    /// The online SLO engine this cluster evaluates on each sampling tick
    /// (disabled unless one was supplied via [`SimConfig`]).
    pub fn slo_engine(&self) -> &SloEngine {
        &self.slo
    }

    /// The host-memory profiler this cluster samples on each sampling
    /// tick (disabled unless one was supplied via [`SimConfig`]).
    pub fn mem_profiler(&self) -> &MemProfiler {
        &self.mem
    }

    /// Total events processed so far (queue events plus sampling ticks).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.n {
            let me = NodeId(i as u32);
            let mut ctx = DesCtx {
                shards: &mut self.shards,
                shared: &self.shared,
                me,
                now: SimTime::ZERO,
                cur_ctx: None,
            };
            let (s, l) = self.shared.map[i];
            self.actors[s as usize][l as usize].on_start(&mut ctx);
        }
    }

    /// Fire one engine-level sampling tick at `t`. A tick past `until`
    /// retires the cadence without sampling (the "kill tick"), but still
    /// counts as an event and advances the clock — exactly what the
    /// retired event-based scheduling did.
    fn fire_sample(&mut self, t: SimTime) {
        self.now = self.now.max(t);
        let Some(s) = &self.sampling else {
            self.sample_next = None;
            return;
        };
        if t > s.until {
            self.sample_next = None;
            return;
        }
        let feed = self.sampler.due(t);
        for (series, &node) in self.series.iter_mut().zip(&s.tracked) {
            let (sh, li) = self.shared.map[node.index()];
            let sample = self.shards[sh as usize].nodes.sample(li as usize, t);
            if feed {
                let id = node.0;
                self.sampler
                    .record_node(t, id, "footprint_cpu_util", sample.cpu_util);
                self.sampler.record_node(
                    t,
                    id,
                    "footprint_cpu_time_s",
                    sample.cpu_time.as_secs_f64(),
                );
                self.sampler
                    .record_node(t, id, "footprint_virt_bytes", sample.virt_mem as f64);
                self.sampler
                    .record_node(t, id, "footprint_real_bytes", sample.real_mem as f64);
                self.sampler
                    .record_node(t, id, "footprint_sockets", sample.sockets as f64);
            }
            series.push(sample);
        }
        if feed {
            self.sampler.snapshot(t, &self.shared.obs);
        }
        // SLO evaluation rides the sampling cadence, after the snapshot so
        // hist/gauge signals see this tick's state.
        self.slo.evaluate(t, &self.shared.obs, &self.sampler);
        // Host-memory series ride the same cadence into the sampler's
        // *host* store — the virtual-time store and its exports never see
        // them, so base exports stay byte-identical under profiling.
        if feed {
            let _mem_scope = tag_scope(MemTag::Obs);
            self.mem.sample_into(&self.sampler, t);
        }
        self.sample_next = Some(t + s.interval);
    }

    /// Pop the globally minimal key across the shard queues and dispatch
    /// it inline. With one shard this *is* the serial engine.
    fn run_merged(&mut self, horizon: SimTime, ticks: &mut u64) {
        let mut prof = MergedProf::new(&self.shared.engine, self.shared.nshards);
        loop {
            let mut best: Option<(EventKey, usize)> = None;
            for (si, sh) in self.shards.iter().enumerate() {
                if let Some(k) = sh.queue.peek_key() {
                    if best.is_none_or(|(bk, _)| k < bk) {
                        best = Some((k, si));
                    }
                }
            }
            // Sampling ticks fire before any event at the same instant.
            if let Some(st) = self.sample_next {
                if st <= horizon && best.is_none_or(|(bk, _)| st <= bk.time) {
                    self.fire_sample(st);
                    *ticks += 1;
                    if let Some(p) = prof.as_mut() {
                        // Tick time belongs to the sampler, not a shard.
                        p.resync();
                    }
                    continue;
                }
            }
            let Some((bk, si)) = best else { break };
            if bk.time > horizon {
                break;
            }
            let (key, ev) = self.shards[si].queue.pop().expect("peeked event vanished");
            let t_pop = prof.as_ref().map(|_| Instant::now());
            debug_assert!(key.time >= self.now, "event time went backwards");
            self.now = key.time;
            let dropped = {
                // Heap traffic inside event execution belongs to the
                // owning shard's `des-shard{n}` tag (FSM dispatch narrows
                // it further); a no-op without `mem-profile`.
                let _mem_scope = tag_scope(MemTag::DesShard(si));
                exec_event(
                    key.time,
                    ev,
                    &mut self.shards,
                    &mut self.actors[si],
                    &self.shared,
                )
            };
            if let (Some(p), Some(t_pop)) = (prof.as_mut(), t_pop) {
                p.on_event(si, t_pop);
            }
            let sh = &mut self.shards[si];
            sh.events += 1;
            if dropped {
                sh.drops += 1;
            }
        }
        if let Some(p) = prof.as_mut() {
            p.finish();
        }
    }
}

/// Wall-clock bookkeeping for the merged loop: splits each iteration into
/// queue time (best-key scan + pop) and busy time (handler execution),
/// attributed to the shard that owned the event, and batches contiguous
/// same-shard stretches into one `exec` span for the engine track.
///
/// `None` when profiling is off, so the disabled loop pays one `Option`
/// discriminant check per event and reads no clocks.
struct MergedProf {
    slots: Vec<Arc<ShardSlot>>,
    span_cap: usize,
    /// Maps `Instant`s onto the profiler's epoch-relative nanoseconds
    /// without re-reading the profiler clock per event.
    base_ns: u64,
    base: Instant,
    /// End of the previous attribution (exec end, loop start, or sampler
    /// resync): the next event's queue time starts here.
    last: Instant,
    /// Open exec-span batch: `(shard, span start, events in batch)`.
    batch: Option<(usize, Instant, u32)>,
}

/// Contiguous same-shard events folded into one engine-track span before
/// a flush (also flushed on any shard switch).
const MERGED_SPAN_BATCH: u32 = 8_192;

impl MergedProf {
    fn new(engine: &EngineProfiler, nshards: usize) -> Option<MergedProf> {
        if !engine.is_enabled() {
            return None;
        }
        let slots: Option<Vec<Arc<ShardSlot>>> =
            (0..nshards).map(|si| engine.shard_slot(si)).collect();
        let base_ns = engine.now_ns();
        let now = Instant::now();
        Some(MergedProf {
            slots: slots?,
            span_cap: engine.span_cap(),
            base_ns,
            base: now,
            last: now,
            batch: None,
        })
    }

    fn ns_of(&self, t: Instant) -> u64 {
        self.base_ns + (t - self.base).as_nanos() as u64
    }

    /// Drop wall time that belongs to no shard (sampling ticks).
    fn resync(&mut self) {
        self.flush_span();
        self.last = Instant::now();
    }

    /// Account one executed event: popped at `t_pop`, finished now.
    fn on_event(&mut self, si: usize, t_pop: Instant) {
        let t_done = Instant::now();
        let slot = &self.slots[si];
        slot.add_queue((t_pop - self.last).as_nanos() as u64);
        slot.add_busy((t_done - t_pop).as_nanos() as u64);
        slot.add_wall((t_done - self.last).as_nanos() as u64);
        slot.add_events(1);
        match &mut self.batch {
            Some((shard, _, n)) if *shard == si && *n < MERGED_SPAN_BATCH => *n += 1,
            _ => {
                self.flush_span();
                self.batch = Some((si, self.last, 1));
            }
        }
        self.last = t_done;
    }

    fn flush_span(&mut self) {
        if let Some((si, start, _)) = self.batch.take() {
            let start_ns = self.ns_of(start);
            self.slots[si].push_span(
                self.span_cap,
                EngineSpan {
                    shard: si as u32,
                    start_ns,
                    dur_ns: self.ns_of(self.last).saturating_sub(start_ns),
                },
            );
        }
    }

    fn finish(&mut self) {
        self.flush_span();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, Outage};

    /// Ping-pong: node 0 sends `k`, receiver replies `k-1`, until zero.
    struct PingPong {
        peer: NodeId,
        initial: Option<u64>,
        received: Vec<u64>,
    }

    impl Actor<u64> for PingPong {
        fn on_start(&mut self, ctx: &mut dyn Context<u64>) {
            if let Some(k) = self.initial {
                ctx.send(self.peer, k);
            }
        }
        fn on_message(&mut self, ctx: &mut dyn Context<u64>, from: NodeId, msg: u64) {
            self.received.push(msg);
            ctx.charge_cpu(SimSpan::from_micros(5));
            if msg > 0 {
                ctx.send(from, msg - 1);
            }
        }
    }

    fn pingpong_cluster_sharded(shards: usize) -> SimCluster<u64, PingPong> {
        let actors = vec![
            PingPong {
                peer: NodeId(1),
                initial: Some(10),
                received: vec![],
            },
            PingPong {
                peer: NodeId(0),
                initial: None,
                received: vec![],
            },
        ];
        let cfg = SimConfig {
            shards,
            ..SimConfig::new(2, 1)
        };
        SimCluster::new(actors, cfg)
    }

    fn pingpong_cluster() -> SimCluster<u64, PingPong> {
        pingpong_cluster_sharded(1)
    }

    #[test]
    fn ping_pong_runs_to_completion() {
        let mut c = pingpong_cluster();
        c.run_to_quiescence();
        assert_eq!(c.actor(NodeId(1)).received, vec![10, 8, 6, 4, 2, 0]);
        assert_eq!(c.actor(NodeId(0)).received, vec![9, 7, 5, 3, 1]);
        assert!(c.now() > SimTime::ZERO);
        // Each delivery charged 5 µs.
        assert_eq!(c.meter(NodeId(1)).cpu_time(), SimSpan::from_micros(30));
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = pingpong_cluster();
        let mut b = pingpong_cluster();
        a.run_to_quiescence();
        b.run_to_quiescence();
        assert_eq!(a.now(), b.now());
        assert_eq!(a.events_processed(), b.events_processed());
    }

    /// The tentpole invariant at its smallest: a 2-shard run (every
    /// message crosses the shard boundary) matches the serial engine
    /// bit-for-bit in outcomes.
    #[test]
    fn sharded_ping_pong_matches_serial() {
        let mut serial = pingpong_cluster();
        let mut sharded = pingpong_cluster_sharded(2);
        assert_eq!(sharded.shard_count(), 2);
        serial.run_to_quiescence();
        sharded.run_to_quiescence();
        assert_eq!(serial.now(), sharded.now());
        assert_eq!(serial.events_processed(), sharded.events_processed());
        for node in [NodeId(0), NodeId(1)] {
            assert_eq!(serial.actor(node).received, sharded.actor(node).received);
            assert_eq!(
                serial.meter(node).cpu_time(),
                sharded.meter(node).cpu_time()
            );
            assert_eq!(
                serial.meter(node).msg_counts(),
                sharded.meter(node).msg_counts()
            );
        }
    }

    #[test]
    fn horizon_stops_execution() {
        let mut c = pingpong_cluster();
        c.run_until(SimTime(40));
        let total: usize = c.actor(NodeId(0)).received.len() + c.actor(NodeId(1)).received.len();
        assert!(total < 11, "horizon did not stop the run");
        // Continuing finishes the exchange.
        c.run_to_quiescence();
        let total: usize = c.actor(NodeId(0)).received.len() + c.actor(NodeId(1)).received.len();
        assert_eq!(total, 11);
    }

    #[test]
    fn messages_to_down_nodes_are_dropped() {
        let faults = FaultPlan::from_outages(
            2,
            vec![Outage {
                node: NodeId(1),
                down_at: SimTime::ZERO,
                up_at: SimTime::from_secs(1000),
            }],
        );
        let cfg = SimConfig {
            faults,
            ..SimConfig::new(2, 1)
        };
        let actors = vec![
            PingPong {
                peer: NodeId(1),
                initial: Some(3),
                received: vec![],
            },
            PingPong {
                peer: NodeId(0),
                initial: None,
                received: vec![],
            },
        ];
        let mut c = SimCluster::new(actors, cfg);
        c.run_to_quiescence();
        assert!(c.actor(NodeId(1)).received.is_empty());
        assert_eq!(c.dropped_messages(), 1);
    }

    /// An actor that re-arms a periodic timer and counts fires.
    struct Ticker {
        period: SimSpan,
        fires: u32,
    }
    impl Actor<u64> for Ticker {
        fn on_start(&mut self, ctx: &mut dyn Context<u64>) {
            ctx.set_timer(self.period, 0);
        }
        fn on_message(&mut self, _: &mut dyn Context<u64>, _: NodeId, _: u64) {}
        fn on_timer(&mut self, ctx: &mut dyn Context<u64>, _: u64) {
            self.fires += 1;
            ctx.set_timer(self.period, 0);
        }
    }

    #[test]
    fn periodic_timers_fire_until_horizon() {
        let actors = vec![Ticker {
            period: SimSpan::from_secs(10),
            fires: 0,
        }];
        let mut c = SimCluster::new(actors, SimConfig::new(1, 3));
        c.run_until(SimTime::from_secs(95));
        assert_eq!(c.actor(NodeId(0)).fires, 9);
    }

    #[test]
    fn timer_during_outage_resumes_at_reboot() {
        let faults = FaultPlan::from_outages(
            1,
            vec![Outage {
                node: NodeId(0),
                down_at: SimTime::from_secs(5),
                up_at: SimTime::from_secs(100),
            }],
        );
        let cfg = SimConfig {
            faults,
            ..SimConfig::new(1, 3)
        };
        let actors = vec![Ticker {
            period: SimSpan::from_secs(10),
            fires: 0,
        }];
        let mut c = SimCluster::new(actors, cfg);
        c.run_until(SimTime::from_secs(125));
        // First fire would land at t=10s (node down) -> deferred to t=100s,
        // then fires at 100, 110, 120.
        assert_eq!(c.actor(NodeId(0)).fires, 3);
    }

    #[test]
    fn sampling_records_tracked_series() {
        let mut cfg = SimConfig::new(2, 5);
        cfg.sampling = Some(Sampling {
            interval: SimSpan::from_secs(1),
            tracked: vec![NodeId(0)],
            until: SimTime::from_secs(5),
        });
        let actors = vec![
            Ticker {
                period: SimSpan::from_secs(1),
                fires: 0,
            },
            Ticker {
                period: SimSpan::from_secs(1),
                fires: 0,
            },
        ];
        let mut c = SimCluster::new(actors, cfg);
        c.run_until(SimTime::from_secs(10));
        let series = c.series(NodeId(0)).unwrap();
        assert_eq!(series.samples.len(), 5);
        assert!(c.series(NodeId(1)).is_none());
    }

    #[test]
    fn sampler_rides_the_sampling_cadence() {
        let mut cfg = SimConfig::new(2, 5);
        let sampler = Sampler::every_until(SimSpan::from_secs(1), SimTime::from_secs(5));
        sampler.name_node(0, "master");
        cfg.sampler = sampler.clone();
        cfg.obs = Recorder::metrics_only();
        // No explicit Sampling: one is synthesized from the sampler.
        let actors = vec![
            Ticker {
                period: SimSpan::from_secs(1),
                fires: 0,
            },
            Ticker {
                period: SimSpan::from_secs(1),
                fires: 0,
            },
        ];
        let mut c = SimCluster::new(actors, cfg);
        c.run_until(SimTime::from_secs(10));
        let store = sampler.store();
        let pts = store
            .get(&obs::MetricId::new("footprint_sockets").with("node", "master"))
            .expect("footprint series for the named node");
        assert_eq!(pts.len(), 5);
        assert!(
            store.get(&obs::MetricId::new("msgs_sent")).is_some(),
            "recorder snapshot series missing"
        );
        // The synthesized sampling also feeds the classic meter series.
        assert_eq!(c.series(NodeId(0)).expect("meter series").samples.len(), 5);
    }

    #[test]
    fn ephemeral_sockets_autoclose() {
        struct Opener;
        impl Actor<u64> for Opener {
            fn on_start(&mut self, ctx: &mut dyn Context<u64>) {
                if ctx.me() == NodeId(0) {
                    ctx.open_socket_for(NodeId(1), SimSpan::from_secs(2));
                }
            }
            fn on_message(&mut self, _: &mut dyn Context<u64>, _: NodeId, _: u64) {}
        }
        let mut c = SimCluster::new(vec![Opener, Opener], SimConfig::new(2, 1));
        c.run_until(SimTime::from_secs(1));
        assert_eq!(c.meter(NodeId(0)).sockets(), 1);
        assert_eq!(c.meter(NodeId(1)).sockets(), 1);
        c.run_until(SimTime::from_secs(3));
        assert_eq!(c.meter(NodeId(0)).sockets(), 0);
        assert_eq!(c.meter(NodeId(0)).peak_sockets(), 1);
    }

    /// A chatty mesh: every node runs a periodic timer, messages a few
    /// peers, charges CPU, opens ephemeral sockets, and some nodes fail —
    /// exercising every event kind across shard boundaries.
    struct Mesh {
        n: u32,
        received: u64,
        sent: u64,
    }
    impl Actor<u64> for Mesh {
        fn on_start(&mut self, ctx: &mut dyn Context<u64>) {
            let me = ctx.me().0 as u64;
            ctx.set_timer(SimSpan::from_millis(50 + (me % 7) * 13), me);
            ctx.alloc_virt(1_000_000 + me as i64);
            ctx.alloc_real(100_000);
        }
        fn on_message(&mut self, ctx: &mut dyn Context<u64>, from: NodeId, msg: u64) {
            self.received += 1;
            ctx.charge_cpu(SimSpan::from_micros(7));
            if msg.is_multiple_of(5) {
                ctx.open_socket_for(from, SimSpan::from_millis(3));
            }
            if msg > 0 && !msg.is_multiple_of(3) {
                ctx.send(from, msg / 2);
                self.sent += 1;
            }
        }
        fn on_timer(&mut self, ctx: &mut dyn Context<u64>, token: u64) {
            let me = ctx.me().0;
            let peer = NodeId((me + 3) % self.n);
            let peer2 = NodeId((me * 7 + 1) % self.n);
            ctx.send(peer, token + 20);
            ctx.send(peer2, token + 11);
            self.sent += 2;
            ctx.charge_cpu(SimSpan::from_micros(3));
            if ctx.now() < SimTime::from_secs(3) {
                ctx.set_timer(SimSpan::from_millis(100 + (me as u64 % 5) * 17), token);
            }
        }
    }

    fn mesh_cluster(n: usize, shards: usize, seed: u64) -> SimCluster<u64, Mesh> {
        let faults = FaultPlan::from_outages(
            n,
            vec![
                Outage {
                    node: NodeId(2),
                    down_at: SimTime::from_millis(400),
                    up_at: SimTime::from_millis(1900),
                },
                Outage {
                    node: NodeId((n - 1) as u32),
                    down_at: SimTime::from_millis(1200),
                    up_at: SimTime::from_millis(2500),
                },
            ],
        );
        let cfg = SimConfig {
            shards,
            faults,
            ..SimConfig::new(n, seed)
        };
        let actors = (0..n)
            .map(|_| Mesh {
                n: n as u32,
                received: 0,
                sent: 0,
            })
            .collect();
        SimCluster::new(actors, cfg)
    }

    /// The full parity sweep: 2/4/8-shard runs reproduce the 1-shard
    /// outcomes bit-for-bit — meters (including socket peaks, whose
    /// order-sensitivity is the hardest case), drops, clock, event counts.
    #[test]
    fn sharded_mesh_matches_serial_across_shard_counts() {
        let n = 16;
        let mut serial = mesh_cluster(n, 1, 42);
        serial.run_until(SimTime::from_secs(4));
        for shards in [2usize, 4, 8] {
            let mut par = mesh_cluster(n, shards, 42);
            par.run_until(SimTime::from_secs(4));
            assert_eq!(par.now(), serial.now(), "{shards} shards: clock differs");
            assert_eq!(
                par.events_processed(),
                serial.events_processed(),
                "{shards} shards: event count differs"
            );
            assert_eq!(par.dropped_messages(), serial.dropped_messages());
            for i in 0..n {
                let node = NodeId(i as u32);
                let (a, b) = (serial.meter(node), par.meter(node));
                assert_eq!(a.cpu_time(), b.cpu_time(), "node {i} cpu");
                assert_eq!(a.msg_counts(), b.msg_counts(), "node {i} msgs");
                assert_eq!(a.peak_sockets(), b.peak_sockets(), "node {i} socket peak");
                assert_eq!(a.sockets(), b.sockets(), "node {i} sockets");
                assert_eq!(a.peak_mem(), b.peak_mem(), "node {i} mem peaks");
                assert_eq!(
                    serial.actor(node).received,
                    par.actor(node).received,
                    "node {i} received count"
                );
                assert_eq!(serial.actor(node).sent, par.actor(node).sent);
            }
        }
    }

    /// Resuming a horizon-bounded sharded run in more horizons yields the
    /// same final state as one long serial run.
    #[test]
    fn sharded_run_in_phases_matches_serial() {
        let mut serial = mesh_cluster(12, 1, 7);
        serial.run_until(SimTime::from_secs(4));
        let mut par = mesh_cluster(12, 4, 7);
        par.run_until(SimTime::from_millis(700));
        par.run_until(SimTime::from_millis(1900));
        par.run_until(SimTime::from_secs(4));
        assert_eq!(par.now(), serial.now());
        assert_eq!(par.events_processed(), serial.events_processed());
        for i in 0..12 {
            let node = NodeId(i as u32);
            assert_eq!(serial.meter(node).cpu_time(), par.meter(node).cpu_time());
            assert_eq!(serial.actor(node).received, par.actor(node).received);
        }
    }

    /// Sampling ticks interleave identically with events at every shard
    /// count, and the tracked series come out bit-identical.
    #[test]
    fn sharded_sampling_matches_serial() {
        let make = |shards: usize| {
            let mut c = {
                let mut cfg = SimConfig {
                    shards,
                    faults: FaultPlan::none(10),
                    ..SimConfig::new(10, 9)
                };
                cfg.sampling = Some(Sampling {
                    interval: SimSpan::from_secs(1),
                    tracked: vec![NodeId(0), NodeId(5), NodeId(9)],
                    until: SimTime::from_secs(3),
                });
                let actors = (0..10)
                    .map(|_| Mesh {
                        n: 10,
                        received: 0,
                        sent: 0,
                    })
                    .collect();
                SimCluster::new(actors, cfg)
            };
            c.run_until(SimTime::from_secs(5));
            c
        };
        let serial = make(1);
        let par = make(4);
        assert_eq!(serial.now(), par.now());
        assert_eq!(serial.events_processed(), par.events_processed());
        for node in [NodeId(0), NodeId(5), NodeId(9)] {
            assert_eq!(
                serial.series(node).unwrap().samples,
                par.series(node).unwrap().samples
            );
        }
    }

    /// A fully traced sharded run matches the untraced 1-shard run exactly.
    #[test]
    fn traced_sharded_run_matches_serial() {
        let mut cfg = SimConfig {
            shards: 4,
            ..SimConfig::new(8, 11)
        };
        cfg.obs = Recorder::full();
        let actors = (0..8)
            .map(|_| Mesh {
                n: 8,
                received: 0,
                sent: 0,
            })
            .collect();
        let mut traced = SimCluster::new(actors, cfg);
        traced.run_until(SimTime::from_secs(2));

        // mesh_cluster has faults; build fault-free to mirror the traced cfg.
        let mut plain = {
            let actors = (0..8)
                .map(|_| Mesh {
                    n: 8,
                    received: 0,
                    sent: 0,
                })
                .collect();
            SimCluster::new(actors, SimConfig::new(8, 11))
        };
        plain.run_until(SimTime::from_secs(2));
        assert_eq!(traced.now(), plain.now());
        for i in 0..8 {
            let node = NodeId(i as u32);
            assert_eq!(traced.meter(node).cpu_time(), plain.meter(node).cpu_time());
            assert_eq!(traced.actor(node).received, plain.actor(node).received);
        }
    }

    /// An explicit partition overrides the contiguous default.
    #[test]
    fn custom_partition_is_honored_and_matches() {
        let n = 9;
        let mut serial = mesh_cluster(n, 1, 13);
        serial.run_until(SimTime::from_secs(2));
        let cfg = SimConfig {
            shards: 3,
            partition: Some((0..n).map(|i| ((i * 5 + 2) % 3) as u32).collect()),
            faults: FaultPlan::from_outages(
                n,
                vec![
                    Outage {
                        node: NodeId(2),
                        down_at: SimTime::from_millis(400),
                        up_at: SimTime::from_millis(1900),
                    },
                    Outage {
                        node: NodeId((n - 1) as u32),
                        down_at: SimTime::from_millis(1200),
                        up_at: SimTime::from_millis(2500),
                    },
                ],
            ),
            ..SimConfig::new(n, 13)
        };
        let actors = (0..n)
            .map(|_| Mesh {
                n: n as u32,
                received: 0,
                sent: 0,
            })
            .collect();
        let mut scattered = SimCluster::new(actors, cfg);
        scattered.run_until(SimTime::from_secs(2));
        assert_eq!(serial.now(), scattered.now());
        for i in 0..n {
            let node = NodeId(i as u32);
            assert_eq!(serial.actor(node).received, scattered.actor(node).received);
            assert_eq!(
                serial.meter(node).peak_sockets(),
                scattered.meter(node).peak_sockets()
            );
        }
    }

    #[test]
    #[should_panic(expected = "partition length")]
    fn bad_partition_length_panics() {
        let cfg = SimConfig {
            shards: 2,
            partition: Some(vec![0]),
            ..SimConfig::new(2, 1)
        };
        let _ = SimCluster::new(
            vec![
                Ticker {
                    period: SimSpan::from_secs(1),
                    fires: 0,
                },
                Ticker {
                    period: SimSpan::from_secs(1),
                    fires: 0,
                },
            ],
            cfg,
        );
    }
}
