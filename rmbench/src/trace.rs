//! Bench-side tracing: a span recorder and transparent decorators around
//! the program's public traits.
//!
//! The decorators time calls at each layer boundary — actor handler →
//! `Context` call or predictor call, and `sched::simulate` → policy call —
//! and forward every trait method, defaulted ones included, so a traced
//! run makes exactly the calls an untraced one does (the benchmark's own
//! test compares outcome fingerprints to prove it). Spans are aggregated
//! per (layer, kind) in memory with a bounded sample of raw spans kept for
//! the trace file; self time is a span's duration minus its child spans.

use emu::{Actor, Context, NodeId};
use monitoring::FailurePredictor;
use obs::{FlowKind, TraceContext};
use rand::rngs::StdRng;
use rm::RmMsg;
use sched::prelude::{LimitInfo, LimitPolicy};
use simclock::{SimSpan, SimTime};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use workload::Job;

/// Raw spans always kept from the start of a run.
const SAMPLE_HEAD: u64 = 4096;
/// After the head, one span in this many is kept...
const SAMPLE_STRIDE: u64 = 1024;
/// ...up to this many raw spans in total.
const SAMPLE_CAP: usize = 16_384;

/// Per-(layer, kind) totals.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Agg {
    pub(crate) calls: u64,
    /// Sum of span durations.
    pub(crate) total_ns: u64,
    /// Sum of span durations minus their child spans.
    pub(crate) self_ns: u64,
    /// Sum of a per-call value (e.g. a returned set's size).
    pub(crate) value: f64,
}

/// One recorded span; `parent == 0` marks a root.
#[derive(Clone, Copy, Debug)]
struct SpanRec {
    id: u64,
    parent: u64,
    layer: &'static str,
    kind: &'static str,
    start_ns: u64,
    end_ns: u64,
    job: Option<u64>,
}

#[derive(Default)]
struct State {
    agg: BTreeMap<(&'static str, &'static str), Agg>,
    samples: Vec<SpanRec>,
    seen: u64,
}

struct Frame {
    id: u64,
    child_ns: u64,
}

thread_local! {
    /// Open spans of the current thread, innermost last. A handler runs
    /// wholly on one thread, so parents and children always share a stack.
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// An open span, returned by [`Tracer::enter`].
pub(crate) struct Open {
    id: u64,
    parent: u64,
    start: Instant,
}

/// In-memory span recorder shared by every decorator of one run.
pub(crate) struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            state: Mutex::new(State::default()),
        }
    }
}

impl Tracer {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Tracer::default())
    }

    /// Open a span as a child of the thread's innermost open span.
    pub(crate) fn enter(&self) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().map_or(0, |f| f.id);
            s.push(Frame { id, child_ns: 0 });
            parent
        });
        Open {
            id,
            parent,
            start: Instant::now(),
        }
    }

    /// Close `open` (which must be the innermost open span) under
    /// `(layer, kind)`, optionally tagged with a job id.
    pub(crate) fn exit(
        &self,
        open: Open,
        layer: &'static str,
        kind: &'static str,
        job: Option<u64>,
    ) {
        let end = Instant::now();
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let child_ns = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let f = s.pop().expect("span exit without enter");
            debug_assert_eq!(f.id, open.id, "spans closed out of order");
            if let Some(p) = s.last_mut() {
                p.child_ns += dur;
            }
            f.child_ns
        });
        let mut st = self.state.lock().expect("tracer poisoned");
        let a = st.agg.entry((layer, kind)).or_default();
        a.calls += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(child_ns);
        let n = st.seen;
        st.seen += 1;
        if (n < SAMPLE_HEAD || n.is_multiple_of(SAMPLE_STRIDE)) && st.samples.len() < SAMPLE_CAP {
            st.samples.push(SpanRec {
                id: open.id,
                parent: open.parent,
                layer,
                kind,
                start_ns: open.start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.duration_since(self.epoch).as_nanos() as u64,
                job,
            });
        }
    }

    /// Time `f` as one span.
    pub(crate) fn span<R>(
        &self,
        layer: &'static str,
        kind: &'static str,
        job: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.enter();
        let r = f();
        self.exit(open, layer, kind, job);
        r
    }

    /// Add `v` to the per-call value sum of `(layer, kind)`.
    pub(crate) fn add_value(&self, layer: &'static str, kind: &'static str, v: f64) {
        let mut st = self.state.lock().expect("tracer poisoned");
        st.agg.entry((layer, kind)).or_default().value += v;
    }

    /// A copy of the per-(layer, kind) totals.
    pub(crate) fn aggregates(&self) -> BTreeMap<(&'static str, &'static str), Agg> {
        self.state.lock().expect("tracer poisoned").agg.clone()
    }

    /// Totals and the sampled raw spans as one JSON object.
    pub(crate) fn to_json(&self) -> String {
        let st = self.state.lock().expect("tracer poisoned");
        let mut out = String::from("{\"aggregates\":[");
        for (i, ((layer, kind), a)) in st.agg.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"layer\":\"{layer}\",\"kind\":\"{kind}\",\"calls\":{},\"total_ns\":{},\"self_ns\":{},\"value\":{:?}}}",
                a.calls, a.total_ns, a.self_ns, a.value
            );
        }
        let _ = write!(out, "],\"spans_seen\":{},\"spans\":[", st.seen);
        for (i, s) in st.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let job = s.job.map_or("null".to_string(), |j| j.to_string());
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}.{}\",\"start_ns\":{},\"end_ns\":{},\"job\":{job}}}",
                s.id, s.parent, s.layer, s.kind, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}");
        out
    }
}

/// The span kind of a message: its `RmMsg` variant name.
pub(crate) fn msg_kind(msg: &RmMsg) -> &'static str {
    match msg {
        RmMsg::Register { .. } => "Register",
        RmMsg::Poll => "Poll",
        RmMsg::PollReply { .. } => "PollReply",
        RmMsg::Heartbeat { .. } => "Heartbeat",
        RmMsg::HeartbeatAck => "HeartbeatAck",
        RmMsg::SubmitJob { .. } => "SubmitJob",
        RmMsg::JobCtl { .. } => "JobCtl",
        RmMsg::CtlAck { .. } => "CtlAck",
        RmMsg::BcastTask { .. } => "BcastTask",
        RmMsg::BcastDone { .. } => "BcastDone",
        RmMsg::SatHeartbeat => "SatHeartbeat",
        RmMsg::SatHeartbeatAck { .. } => "SatHeartbeatAck",
        RmMsg::Shutdown => "Shutdown",
        RmMsg::CancelJob { .. } => "CancelJob",
        RmMsg::StatusQuery { .. } => "StatusQuery",
        RmMsg::StatusReply { .. } => "StatusReply",
    }
}

/// The job a message concerns, if it carries one.
pub(crate) fn msg_job(msg: &RmMsg) -> Option<u64> {
    match msg {
        RmMsg::SubmitJob { job, .. }
        | RmMsg::JobCtl { job, .. }
        | RmMsg::CtlAck { job, .. }
        | RmMsg::BcastTask { job, .. }
        | RmMsg::BcastDone { job, .. }
        | RmMsg::CancelJob { job } => Some(*job),
        _ => None,
    }
}

/// An actor whose handlers are timed as spans of `layer`, with a traced
/// [`Context`] handed to the wrapped handler.
pub(crate) struct TracedActor<A> {
    pub(crate) inner: A,
    layer: &'static str,
    tracer: Arc<Tracer>,
}

impl<A> TracedActor<A> {
    pub(crate) fn new(inner: A, layer: &'static str, tracer: Arc<Tracer>) -> Self {
        TracedActor {
            inner,
            layer,
            tracer,
        }
    }
}

impl<A: Actor<RmMsg>> Actor<RmMsg> for TracedActor<A> {
    fn on_start(&mut self, ctx: &mut dyn Context<RmMsg>) {
        let open = self.tracer.enter();
        self.inner.on_start(&mut TracedCtx {
            inner: ctx,
            tracer: &self.tracer,
        });
        self.tracer.exit(open, self.layer, "start", None);
    }

    fn on_message(&mut self, ctx: &mut dyn Context<RmMsg>, from: NodeId, msg: RmMsg) {
        let (kind, job) = (msg_kind(&msg), msg_job(&msg));
        let open = self.tracer.enter();
        self.inner.on_message(
            &mut TracedCtx {
                inner: ctx,
                tracer: &self.tracer,
            },
            from,
            msg,
        );
        self.tracer.exit(open, self.layer, kind, job);
    }

    fn on_timer(&mut self, ctx: &mut dyn Context<RmMsg>, token: u64) {
        let open = self.tracer.enter();
        self.inner.on_timer(
            &mut TracedCtx {
                inner: ctx,
                tracer: &self.tracer,
            },
            token,
        );
        self.tracer.exit(open, self.layer, "timer", None);
    }
}

/// A [`Context`] that times messaging, timer and socket calls as `emu.ctx`
/// spans and forwards everything else untouched.
pub(crate) struct TracedCtx<'a, 'c> {
    inner: &'a mut (dyn Context<RmMsg> + 'c),
    tracer: &'a Tracer,
}

impl Context<RmMsg> for TracedCtx<'_, '_> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn me(&self) -> NodeId {
        self.inner.me()
    }
    fn send(&mut self, to: NodeId, msg: RmMsg) {
        let job = msg_job(&msg);
        let open = self.tracer.enter();
        self.inner.send(to, msg);
        self.tracer.exit(open, "emu.ctx", "send", job);
    }
    fn set_timer(&mut self, after: SimSpan, token: u64) {
        let open = self.tracer.enter();
        self.inner.set_timer(after, token);
        self.tracer.exit(open, "emu.ctx", "timer", None);
    }
    fn charge_cpu(&mut self, span: SimSpan) {
        self.inner.charge_cpu(span)
    }
    fn alloc_virt(&mut self, delta: i64) {
        self.inner.alloc_virt(delta)
    }
    fn alloc_real(&mut self, delta: i64) {
        self.inner.alloc_real(delta)
    }
    fn open_socket(&mut self, peer: NodeId) {
        let open = self.tracer.enter();
        self.inner.open_socket(peer);
        self.tracer.exit(open, "emu.ctx", "socket", None);
    }
    fn close_socket(&mut self, peer: NodeId) {
        let open = self.tracer.enter();
        self.inner.close_socket(peer);
        self.tracer.exit(open, "emu.ctx", "socket", None);
    }
    fn open_socket_for(&mut self, peer: NodeId, dur: SimSpan) {
        let open = self.tracer.enter();
        self.inner.open_socket_for(peer, dur);
        self.tracer.exit(open, "emu.ctx", "socket", None);
    }
    fn rng(&mut self) -> &mut StdRng {
        self.inner.rng()
    }
    fn is_up(&self, node: NodeId) -> bool {
        self.inner.is_up(node)
    }
    fn trace_begin(&mut self, flow: FlowKind) -> Option<TraceContext> {
        self.inner.trace_begin(flow)
    }
    fn trace_current(&self) -> Option<TraceContext> {
        self.inner.trace_current()
    }
    fn trace_adopt(&mut self, ctx: Option<TraceContext>) {
        self.inner.trace_adopt(ctx)
    }
    fn trace_backoff(&mut self, ctx: &TraceContext, start: SimTime) {
        self.inner.trace_backoff(ctx, start)
    }
}

/// A failure predictor whose `suspects` calls are `monitoring` spans; the
/// returned set sizes are summed alongside.
pub(crate) struct TracedPredictor<P> {
    inner: P,
    tracer: Arc<Tracer>,
}

impl<P> TracedPredictor<P> {
    pub(crate) fn new(inner: P, tracer: Arc<Tracer>) -> Self {
        TracedPredictor { inner, tracer }
    }
}

impl<P: FailurePredictor> FailurePredictor for TracedPredictor<P> {
    fn suspects(&mut self, now: SimTime) -> HashSet<u32> {
        let set = self
            .tracer
            .span("monitoring", "suspects", None, || self.inner.suspects(now));
        self.tracer
            .add_value("monitoring", "suspects", set.len() as f64);
        set
    }
}

/// A walltime-limit policy whose calls are spans of `layer`. A
/// `limit_info` call during which `retrains` advanced is recorded as
/// `retrain`, any other as `predict`.
pub(crate) struct TracedLimit<P> {
    pub(crate) inner: P,
    layer: &'static str,
    retrains: fn(&P) -> u64,
    tracer: Arc<Tracer>,
}

impl<P> TracedLimit<P> {
    pub(crate) fn new(
        inner: P,
        layer: &'static str,
        retrains: fn(&P) -> u64,
        tracer: Arc<Tracer>,
    ) -> Self {
        TracedLimit {
            inner,
            layer,
            retrains,
            tracer,
        }
    }
}

impl<P: LimitPolicy> LimitPolicy for TracedLimit<P> {
    fn limit(&mut self, job: &Job) -> SimSpan {
        self.tracer.span(self.layer, "limit", Some(job.id.0), || {
            self.inner.limit(job)
        })
    }

    fn limit_info(&mut self, job: &Job) -> LimitInfo {
        let before = (self.retrains)(&self.inner);
        let open = self.tracer.enter();
        let info = self.inner.limit_info(job);
        let kind = if (self.retrains)(&self.inner) > before {
            "retrain"
        } else {
            "predict"
        };
        self.tracer.exit(open, self.layer, kind, Some(job.id.0));
        info
    }

    fn resubmit_info(&mut self, job: &Job, prev: LimitInfo, attempt: u32) -> LimitInfo {
        self.tracer
            .span(self.layer, "resubmit", Some(job.id.0), || {
                self.inner.resubmit_info(job, prev, attempt)
            })
    }

    fn on_complete(&mut self, job: &Job, now: SimTime) {
        self.tracer.span(self.layer, "observe", Some(job.id.0), || {
            self.inner.on_complete(job, now)
        })
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}
