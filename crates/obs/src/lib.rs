//! # eslurm-obs
//!
//! The virtual-time observability layer for the ESlurm reproduction:
//! a lock-cheap metrics [`Recorder`] (counters / gauges / fixed-bucket
//! histograms keyed by static ids, plus a labeled per-entity registry),
//! span-style event tracing with a bounded flight ring, and a
//! virtual-time [`Sampler`] feeding CSV / Prometheus expositions — shared
//! by the DES and real-thread transports.
//!
//! ## Design
//!
//! - **Handles are free to clone and free to disable.** [`Recorder`] and
//!   [`Sampler`] are `Option<Arc<..>>`; the defaults ([`Recorder::disabled`],
//!   [`Sampler::disabled`]) make every recording call an inlined branch, so
//!   instrumented hot paths cost nothing in un-observed runs.
//! - **Metrics are relaxed atomics.** Counters, gauges, and histogram
//!   buckets are `fetch_add`/`store` with `Ordering::Relaxed` — safe from
//!   any thread, no lock on the recording path. Labeled metrics pay a
//!   registry lock once per entity ([`Recorder::labeled_counter`]); the
//!   returned handle records with one relaxed atomic thereafter.
//! - **Events are virtual-time stamped.** Timestamps are `SimTime` µs in
//!   DES mode; in real-thread mode the transport's clock already reports
//!   wall time since run start, so the same call sites work unchanged. The
//!   [`flight::FlightRecorder`] bounds retention per node and by bytes,
//!   dumping on `node_down` or panic for post-mortems.
//! - **Exports are deterministic.** [`export::to_chrome_trace`] renders a
//!   `chrome://tracing` / Perfetto-loadable document, [`export::to_jsonl`]
//!   one object per line, [`export::to_prometheus`] the text exposition
//!   format, and [`series::SeriesStore::to_csv`] the sampler's time series
//!   — all byte-for-byte reproducible for a seed, which is what lets
//!   [`series::compare_csv`] gate regressions with a zero self-diff.
//!
//! ## Example
//!
//! ```
//! use obs::{MetricId, Recorder, Sampler, Counter, Hist, EventKind};
//! use simclock::{SimSpan, SimTime};
//!
//! let rec = Recorder::full();
//! rec.inc(Counter::MsgsSent);
//! rec.observe(Hist::HopLatencyUs, 120);
//! rec.labeled_counter(MetricId::new("rpcs").with("node", "master")).inc();
//! rec.span(1_000, 120, 3, EventKind::MsgSend, 5, 0);
//!
//! let sampler = Sampler::every(SimSpan::from_secs(1));
//! sampler.snapshot(SimTime::from_secs(1), &rec);
//! assert!(sampler.to_csv().starts_with("metric,t_us,value\n"));
//!
//! let doc = obs::export::to_chrome_trace(&rec.events());
//! assert!(doc.starts_with("{\"traceEvents\":["));
//! ```

pub mod alloc;
pub mod audit;
pub mod causal;
pub mod engine;
pub mod event;
pub mod export;
pub mod expose;
pub mod flight;
pub mod label;
pub mod metric;
pub mod recorder;
pub mod sampler;
pub mod series;
pub mod slo;

pub use alloc::{
    mem_profile_compiled, tag_scope, MemProfiler, MemReport, MemTag, MemTagReport, TagScope,
    HOSTMEM_PREFIX,
};
pub use audit::{
    AccuracyStats, AuditReport, Decision, DecisionLog, DecisionRecord, EstSource, EstimateRef,
    SkipReason,
};
pub use causal::{
    build_traces, flow_summaries, CausalRecord, CriticalPath, FlowKind, FlowSummary, Hop, HopSend,
    PathStep, TraceContext, TraceTree,
};
pub use engine::{
    EngineMode, EngineProfiler, EngineReport, EngineSpan, ShardReport, WALLCLOCK_PREFIX,
};
pub use event::{EventKind, TraceEvent};
pub use flight::{FlightConfig, FlightRecorder};
pub use label::MetricId;
pub use metric::{bucket_index, Counter, Gauge, Hist, HistSnapshot, Histogram};
pub use recorder::{
    LabeledCounter, LabeledGauge, LabeledHist, LabeledValue, MetricsSummary, Recorder,
};
pub use sampler::Sampler;
pub use series::{
    compare_csv, metric_domain, parse_csv, DiffOptions, DiffReport, MetricDelta, SeriesPoint,
    SeriesStore, SeriesSummary,
};
pub use slo::{
    AnomalySpec, HealthScore, HostMemStat, SloEngine, SloEvent, SloEventKind, SloOp, SloReport,
    SloSignal, SloSpec, SloStat, SLO_TRACK_PID,
};
