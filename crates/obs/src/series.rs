//! In-memory metric time series: the sampler's store, its CSV exposition,
//! and the run-diff comparison used as a regression gate.
//!
//! A [`SeriesStore`] maps a [`MetricId`] to its sampled points in time
//! order. Everything downstream is deterministic: the store iterates in
//! id order (a `BTreeMap`), values render with Rust's shortest-round-trip
//! `f64` formatting, and the CSV writer quotes fields RFC-4180 style — so
//! two same-seed runs produce byte-identical files and
//! [`compare_csv`] of a run against itself is always empty.

use std::collections::BTreeMap;

use simclock::SimTime;

use crate::label::MetricId;

/// One sampled value of one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesPoint {
    /// Virtual time of the sample, µs.
    pub t_us: u64,
    /// Sampled value.
    pub value: f64,
}

/// Time series keyed by metric id, in deterministic (id) order.
#[derive(Clone, Debug, Default)]
pub struct SeriesStore {
    series: BTreeMap<MetricId, Vec<SeriesPoint>>,
}

impl SeriesStore {
    /// An empty store.
    pub fn new() -> Self {
        SeriesStore::default()
    }

    /// Append one point to `id`'s series.
    pub fn record(&mut self, id: MetricId, t: SimTime, value: f64) {
        self.series.entry(id).or_default().push(SeriesPoint {
            t_us: t.as_micros(),
            value,
        });
    }

    /// The points recorded for `id`, if any.
    pub fn get(&self, id: &MetricId) -> Option<&[SeriesPoint]> {
        self.series.get(id).map(|v| v.as_slice())
    }

    /// Iterate `(id, points)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricId, &[SeriesPoint])> {
        self.series.iter().map(|(k, v)| (k, v.as_slice()))
    }

    /// Number of distinct series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether the store holds no series at all.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Total points across all series.
    pub fn n_points(&self) -> usize {
        self.series.values().map(Vec::len).sum()
    }

    /// Merge another store into this one (points append in time order as
    /// long as both stores were recorded in time order).
    pub fn merge(&mut self, other: &SeriesStore) {
        for (id, pts) in &other.series {
            self.series
                .entry(id.clone())
                .or_default()
                .extend(pts.iter().copied());
        }
    }

    /// Render the store as CSV: header `metric,t_us,value`, one row per
    /// point, series in id order. The metric column is the Prometheus-style
    /// rendering of the id, quoted when it contains a comma or quote.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(32 + self.n_points() * 32);
        out.push_str("metric,t_us,value\n");
        for (id, pts) in &self.series {
            let name = csv_field(&id.prom());
            for p in pts {
                out.push_str(&name);
                out.push(',');
                out.push_str(&p.t_us.to_string());
                out.push(',');
                out.push_str(&fmt_value(p.value));
                out.push('\n');
            }
        }
        out
    }

    /// Per-series summaries, in id order.
    pub fn summaries(&self) -> Vec<(MetricId, SeriesSummary)> {
        self.series
            .iter()
            .map(|(id, pts)| (id.clone(), SeriesSummary::of(pts.iter().map(|p| p.value))))
            .collect()
    }
}

/// Deterministic `f64` rendering for exports: finite values use Rust's
/// shortest round-trip formatting; NaN/inf are clamped to literal names.
fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "inf".to_string()
    } else {
        "-inf".to_string()
    }
}

/// Quote a CSV field RFC-4180 style when it contains a comma, quote, or
/// newline; otherwise pass it through untouched.
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
        out
    } else {
        s.to_string()
    }
}

/// Order statistics of one series (nearest-rank percentiles over the
/// sampled values, not interpolated).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesSummary {
    /// Number of points.
    pub count: usize,
    /// Smallest value (0.0 when empty).
    pub min: f64,
    /// Largest value (0.0 when empty).
    pub max: f64,
    /// Arithmetic mean (0.0 when empty).
    pub mean: f64,
    /// Last sampled value (0.0 when empty).
    pub last: f64,
    /// 50th percentile, nearest rank.
    pub p50: f64,
    /// 90th percentile, nearest rank.
    pub p90: f64,
    /// 99th percentile, nearest rank.
    pub p99: f64,
}

impl SeriesSummary {
    /// Summarize an ordered sequence of values.
    pub fn of(values: impl Iterator<Item = f64>) -> Self {
        let vals: Vec<f64> = values.collect();
        if vals.is_empty() {
            return SeriesSummary {
                count: 0,
                min: 0.0,
                max: 0.0,
                mean: 0.0,
                last: 0.0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
            };
        }
        let mut sorted = vals.clone();
        sorted.sort_by(f64::total_cmp);
        let pct = |q: f64| -> f64 {
            let rank = (q * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        SeriesSummary {
            count: vals.len(),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            mean: vals.iter().sum::<f64>() / vals.len() as f64,
            last: *vals.last().expect("non-empty"),
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
        }
    }
}

/// Parse a store CSV back into `(metric name, points)` keyed by the
/// rendered metric string. Accepts exactly the format [`SeriesStore::to_csv`]
/// writes (header required, RFC-4180 quoting on the metric column).
pub fn parse_csv(text: &str) -> Result<BTreeMap<String, Vec<SeriesPoint>>, String> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, "metric,t_us,value")) => {}
        Some((_, h)) => return Err(format!("bad header {h:?}, want \"metric,t_us,value\"")),
        None => return Err("empty file".to_string()),
    }
    let mut out: BTreeMap<String, Vec<SeriesPoint>> = BTreeMap::new();
    for (i, line) in lines {
        if line.is_empty() {
            continue;
        }
        let fields = split_csv_row(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if fields.len() != 3 {
            return Err(format!(
                "line {}: want 3 fields, got {}",
                i + 1,
                fields.len()
            ));
        }
        let t_us: u64 = fields[1]
            .parse()
            .map_err(|_| format!("line {}: bad t_us {:?}", i + 1, fields[1]))?;
        let value: f64 = match fields[2].as_str() {
            "NaN" => f64::NAN,
            "inf" => f64::INFINITY,
            "-inf" => f64::NEG_INFINITY,
            v => v
                .parse()
                .map_err(|_| format!("line {}: bad value {:?}", i + 1, v))?,
        };
        out.entry(fields[0].clone())
            .or_default()
            .push(SeriesPoint { t_us, value });
    }
    Ok(out)
}

/// Split one CSV row into fields, honoring RFC-4180 double-quote quoting.
fn split_csv_row(line: &str) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    loop {
        if chars.peek() == Some(&'"') {
            chars.next();
            loop {
                match chars.next() {
                    Some('"') if chars.peek() == Some(&'"') => {
                        chars.next();
                        cur.push('"');
                    }
                    Some('"') => break,
                    Some(c) => cur.push(c),
                    None => return Err("unterminated quoted field".to_string()),
                }
            }
        }
        match chars.next() {
            Some(',') => {
                fields.push(std::mem::take(&mut cur));
            }
            Some('"') => return Err("stray quote inside unquoted field".to_string()),
            Some(c) => cur.push(c),
            None => {
                fields.push(cur);
                return Ok(fields);
            }
        }
    }
}

/// What `compare_csv` gates on and how strictly.
#[derive(Clone, Debug)]
pub struct DiffOptions {
    /// Allowed relative increase, percent, for gated metrics without a
    /// per-metric override.
    pub default_threshold_pct: f64,
    /// Per-metric threshold overrides, keyed by rendered metric name.
    /// Listing a metric here also gates it regardless of its name.
    pub per_metric: BTreeMap<String, f64>,
    /// Gate every shared metric instead of only footprint metrics.
    pub gate_all: bool,
    /// Also gate wall-clock engine metrics ([`crate::engine::WALLCLOCK_PREFIX`]).
    /// Off by default: wall-clock timings vary run-to-run by design, so
    /// gating them (even under `gate_all`) would make the regression gate
    /// flaky. A per-metric override still wins over this exclusion.
    pub include_wallclock: bool,
    /// Also gate host-memory metrics ([`crate::alloc::HOSTMEM_PREFIX`]).
    /// Off by default for the same reason as wall clock: real heap sizes
    /// vary run-to-run (allocator, OS, concurrency), so only an explicit
    /// opt-in (or a per-metric override) puts them in the gate.
    pub include_hostmem: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            default_threshold_pct: 5.0,
            per_metric: BTreeMap::new(),
            gate_all: false,
            include_wallclock: false,
            include_hostmem: false,
        }
    }
}

impl DiffOptions {
    fn gates(&self, metric: &str) -> Option<f64> {
        if let Some(&t) = self.per_metric.get(metric) {
            return Some(t);
        }
        if !self.include_wallclock && metric.starts_with(crate::engine::WALLCLOCK_PREFIX) {
            return None;
        }
        if !self.include_hostmem && metric.starts_with(crate::alloc::HOSTMEM_PREFIX) {
            return None;
        }
        if self.gate_all || metric.starts_with("footprint_") {
            return Some(self.default_threshold_pct);
        }
        None
    }
}

/// The measurement domain a metric name belongs to: `"wallclock"` for
/// [`crate::engine::WALLCLOCK_PREFIX`] series, `"host"` for
/// [`crate::alloc::HOSTMEM_PREFIX`] series, `"virtual"` for everything
/// else (DESIGN §15). Gate-failure messages carry this so a tripped gate
/// says which clock it came from.
pub fn metric_domain(name: &str) -> &'static str {
    if name.starts_with(crate::engine::WALLCLOCK_PREFIX) {
        "wallclock"
    } else if name.starts_with(crate::alloc::HOSTMEM_PREFIX) {
        "host"
    } else {
        "virtual"
    }
}

/// One compared statistic of one metric shared by both runs.
#[derive(Clone, Debug)]
pub struct MetricDelta {
    /// Rendered metric name.
    pub metric: String,
    /// Measurement domain of the metric (see [`metric_domain`]).
    pub domain: &'static str,
    /// Which statistic was compared (`mean` or `max`).
    pub stat: &'static str,
    /// Baseline value (run A).
    pub base: f64,
    /// Candidate value (run B).
    pub new: f64,
    /// Relative change in percent (`inf` when the baseline is zero and the
    /// candidate is not).
    pub pct: f64,
    /// Threshold applied, when the metric is gated.
    pub threshold_pct: Option<f64>,
    /// Whether this delta exceeds its threshold (increase only — a
    /// footprint shrinking is an improvement, never a regression).
    pub regressed: bool,
}

/// Result of comparing two series CSVs.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Compared statistics for metrics present in both runs, in metric
    /// order (mean before max within a metric).
    pub deltas: Vec<MetricDelta>,
    /// Metrics only the baseline has. Gated metrics in this list also
    /// appear in `deltas` as a regressed `presence` entry — a gated metric
    /// vanishing from the candidate run is a gate failure, not a skip.
    pub only_in_base: Vec<String>,
    /// Metrics only the candidate has (gated ones regress, as above).
    pub only_in_new: Vec<String>,
}

impl DiffReport {
    /// The deltas that exceeded their thresholds.
    pub fn regressions(&self) -> Vec<&MetricDelta> {
        self.deltas.iter().filter(|d| d.regressed).collect()
    }
}

/// Compare two series CSVs (baseline `a`, candidate `b`) per
/// [`DiffOptions`]. Identical inputs always produce a report with no
/// regressions and all-zero percent deltas.
pub fn compare_csv(a: &str, b: &str, opts: &DiffOptions) -> Result<DiffReport, String> {
    let base = parse_csv(a).map_err(|e| format!("baseline: {e}"))?;
    let cand = parse_csv(b).map_err(|e| format!("candidate: {e}"))?;
    let mut report = DiffReport::default();
    for name in base.keys() {
        if !cand.contains_key(name) {
            report.only_in_base.push(name.clone());
        }
    }
    for name in cand.keys() {
        if !base.contains_key(name) {
            report.only_in_new.push(name.clone());
        }
    }
    // A gated metric present in only one run cannot be compared, but
    // silently skipping it would let a regression hide by renaming or
    // dropping its series. Fail the gate by name instead: presence is the
    // compared "statistic", 1 meaning the run has the metric.
    for (names, bv, cv, pct) in [
        (&report.only_in_base, 1.0, 0.0, -100.0),
        (&report.only_in_new, 0.0, 1.0, f64::INFINITY),
    ] {
        for name in names {
            if let Some(t) = opts.gates(name) {
                report.deltas.push(MetricDelta {
                    metric: name.clone(),
                    domain: metric_domain(name),
                    stat: "presence",
                    base: bv,
                    new: cv,
                    pct,
                    threshold_pct: Some(t),
                    regressed: true,
                });
            }
        }
    }
    for (name, base_pts) in &base {
        let Some(cand_pts) = cand.get(name) else {
            continue;
        };
        let bs = SeriesSummary::of(base_pts.iter().map(|p| p.value));
        let cs = SeriesSummary::of(cand_pts.iter().map(|p| p.value));
        let threshold = opts.gates(name);
        for (stat, bv, cv) in [("mean", bs.mean, cs.mean), ("max", bs.max, cs.max)] {
            let pct = if bv != 0.0 {
                (cv - bv) / bv.abs() * 100.0
            } else if cv == 0.0 {
                0.0
            } else {
                f64::INFINITY
            };
            let regressed = threshold.is_some_and(|t| pct > t);
            report.deltas.push(MetricDelta {
                metric: name.clone(),
                domain: metric_domain(name),
                stat,
                base: bv,
                new: cv,
                pct,
                threshold_pct: threshold,
                regressed,
            });
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn csv_round_trips_including_quoted_metrics() {
        let mut store = SeriesStore::new();
        let plain = MetricId::new("queue_depth");
        let fancy = MetricId::new("footprint_sockets").with("node", "a,b\"c");
        store.record(plain.clone(), t(1), 3.0);
        store.record(plain.clone(), t(2), 4.5);
        store.record(fancy.clone(), t(1), 7.0);
        let csv = store.to_csv();
        let parsed = parse_csv(&csv).expect("round trip parses");
        assert_eq!(parsed.len(), 2);
        assert_eq!(
            parsed["queue_depth"],
            vec![
                SeriesPoint {
                    t_us: 1_000_000,
                    value: 3.0
                },
                SeriesPoint {
                    t_us: 2_000_000,
                    value: 4.5
                },
            ]
        );
        assert_eq!(parsed[&fancy.prom()].len(), 1);
        // Re-rendering the parsed rows byte-matches: deterministic format.
        let reparsed = parse_csv(&csv).expect("parses again");
        assert_eq!(parsed, reparsed);
    }

    #[test]
    fn store_iterates_in_id_order() {
        let mut store = SeriesStore::new();
        store.record(MetricId::new("zzz"), t(1), 1.0);
        store.record(MetricId::new("aaa"), t(1), 2.0);
        let names: Vec<&str> = store.iter().map(|(id, _)| id.name()).collect();
        assert_eq!(names, vec!["aaa", "zzz"]);
    }

    #[test]
    fn summary_percentiles_use_nearest_rank() {
        let s = SeriesSummary::of((1..=100).map(|v| v as f64));
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p90, 90.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.last, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = SeriesSummary::of(std::iter::empty());
        assert_eq!(s.count, 0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn self_diff_is_clean() {
        let mut store = SeriesStore::new();
        store.record(
            MetricId::new("footprint_virt_bytes").with("node", "master"),
            t(1),
            1e6,
        );
        store.record(
            MetricId::new("footprint_virt_bytes").with("node", "master"),
            t(2),
            2e6,
        );
        let csv = store.to_csv();
        let report = compare_csv(&csv, &csv, &DiffOptions::default()).expect("diff runs");
        assert!(report.regressions().is_empty());
        assert!(report.only_in_base.is_empty() && report.only_in_new.is_empty());
        assert!(report.deltas.iter().all(|d| d.pct == 0.0));
    }

    #[test]
    fn regression_fires_only_on_gated_increase() {
        let mk = |v: f64| {
            let mut store = SeriesStore::new();
            store.record(
                MetricId::new("footprint_sockets").with("node", "master"),
                t(1),
                v,
            );
            store.record(MetricId::new("jobs_completed"), t(1), v * 10.0);
            store.to_csv()
        };
        let a = mk(100.0);
        let b = mk(110.0);
        let report = compare_csv(&a, &b, &DiffOptions::default()).expect("diff runs");
        // footprint_* is gated at the default 5% and grew 10%.
        let regs = report.regressions();
        assert!(!regs.is_empty());
        assert!(regs
            .iter()
            .all(|d| d.metric.starts_with("footprint_sockets")));
        // jobs_completed grew too but is not a footprint metric.
        assert!(report
            .deltas
            .iter()
            .filter(|d| d.metric == "jobs_completed")
            .all(|d| !d.regressed));
        // The improvement direction never regresses.
        let improved = compare_csv(&b, &a, &DiffOptions::default()).expect("diff runs");
        assert!(improved.regressions().is_empty());
    }

    /// Wall-clock engine metrics vary run-to-run by design: even under
    /// `gate_all` they stay out of the gate unless `include_wallclock` (or
    /// a per-metric override, which always wins) opts them in.
    #[test]
    fn wallclock_metrics_are_ungated_by_default() {
        let mk = |v: f64| {
            let mut store = SeriesStore::new();
            store.record(
                MetricId::new("engine_wall_busy_ns").with("shard", "0"),
                t(1),
                v,
            );
            store.record(MetricId::new("footprint_sockets"), t(1), 3.0);
            store.to_csv()
        };
        let a = mk(100.0);
        let b = mk(900.0); // 9x wall-clock jitter: must not trip the gate
        let strict = DiffOptions {
            gate_all: true,
            ..DiffOptions::default()
        };
        let report = compare_csv(&a, &b, &strict).expect("diff runs");
        assert!(
            report.regressions().is_empty(),
            "wall-clock metric tripped the gate"
        );
        let included = DiffOptions {
            gate_all: true,
            include_wallclock: true,
            ..DiffOptions::default()
        };
        let report = compare_csv(&a, &b, &included).expect("diff runs");
        assert!(report
            .regressions()
            .iter()
            .all(|d| d.metric.starts_with(crate::engine::WALLCLOCK_PREFIX)));
        assert!(!report.regressions().is_empty());
        let overridden = DiffOptions {
            per_metric: [("engine_wall_busy_ns{shard=\"0\"}".to_string(), 5.0)]
                .into_iter()
                .collect(),
            ..DiffOptions::default()
        };
        let report = compare_csv(&a, &b, &overridden).expect("diff runs");
        assert!(
            !report.regressions().is_empty(),
            "per-metric override must win"
        );
    }

    /// Host-memory metrics are the third excluded-by-default domain: real
    /// heap sizes vary run-to-run, so only `include_hostmem` (or a
    /// per-metric override) gates them — and every delta names its
    /// domain.
    #[test]
    fn hostmem_metrics_are_ungated_by_default() {
        let mk = |v: f64| {
            let mut store = SeriesStore::new();
            store.record(
                MetricId::new("mem_host_live_bytes").with("tag", "master"),
                t(1),
                v,
            );
            store.record(MetricId::new("footprint_sockets"), t(1), 3.0);
            store.to_csv()
        };
        let a = mk(1e6);
        let b = mk(9e6); // 9x host jitter: must not trip the gate
        let strict = DiffOptions {
            gate_all: true,
            ..DiffOptions::default()
        };
        let report = compare_csv(&a, &b, &strict).expect("diff runs");
        assert!(
            report.regressions().is_empty(),
            "host-memory metric tripped the gate"
        );
        let included = DiffOptions {
            gate_all: true,
            include_hostmem: true,
            ..DiffOptions::default()
        };
        let report = compare_csv(&a, &b, &included).expect("diff runs");
        let regs = report.regressions();
        assert!(!regs.is_empty());
        assert!(regs
            .iter()
            .all(|d| d.metric.starts_with(crate::alloc::HOSTMEM_PREFIX)));
        assert!(regs.iter().all(|d| d.domain == "host"));
    }

    #[test]
    fn deltas_carry_their_metric_domain() {
        assert_eq!(metric_domain("footprint_sockets"), "virtual");
        assert_eq!(metric_domain("engine_wall_busy_ns"), "wallclock");
        assert_eq!(metric_domain("mem_host_live_bytes"), "host");
        let mk = |v: f64| {
            let mut store = SeriesStore::new();
            store.record(MetricId::new("footprint_sockets"), t(1), v);
            store.record(MetricId::new("engine_wall_exec_ns"), t(1), v);
            store.to_csv()
        };
        let report = compare_csv(&mk(1.0), &mk(2.0), &DiffOptions::default()).expect("diff runs");
        for d in &report.deltas {
            assert_eq!(
                d.domain,
                metric_domain(&d.metric),
                "{} mislabeled",
                d.metric
            );
        }
    }

    /// A gated metric present in only one of the two runs is a named gate
    /// failure, not a silent skip; ungated one-sided metrics still only
    /// show up in the `only_in_*` lists.
    #[test]
    fn one_sided_gated_metric_fails_the_gate_by_name() {
        let mk = |with_sockets: bool| {
            let mut store = SeriesStore::new();
            store.record(MetricId::new("footprint_cpu_util"), t(1), 0.5);
            store.record(MetricId::new("uninteresting"), t(1), 1.0);
            if with_sockets {
                store.record(MetricId::new("footprint_sockets"), t(1), 3.0);
            } else {
                store.record(MetricId::new("unwatched_extra"), t(1), 9.0);
            }
            store.to_csv()
        };
        let report =
            compare_csv(&mk(true), &mk(false), &DiffOptions::default()).expect("diff runs");
        let regs = report.regressions();
        assert_eq!(regs.len(), 1, "exactly the vanished gated metric fails");
        assert_eq!(regs[0].metric, "footprint_sockets");
        assert_eq!(regs[0].stat, "presence");
        assert_eq!(report.only_in_base, vec!["footprint_sockets".to_string()]);
        assert_eq!(report.only_in_new, vec!["unwatched_extra".to_string()]);

        // The other direction fails too: a gated metric appearing from
        // nowhere means the baseline never covered it.
        let appeared =
            compare_csv(&mk(false), &mk(true), &DiffOptions::default()).expect("diff runs");
        let regs = appeared.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "footprint_sockets");
        assert!(regs[0].pct.is_infinite());
    }

    #[test]
    fn per_metric_threshold_gates_any_metric() {
        let mk = |v: f64| {
            let mut store = SeriesStore::new();
            store.record(MetricId::new("queue_depth"), t(1), v);
            store.to_csv()
        };
        let mut opts = DiffOptions::default();
        opts.per_metric.insert("queue_depth".to_string(), 1.0);
        let report = compare_csv(&mk(50.0), &mk(52.0), &opts).expect("diff runs");
        assert_eq!(report.regressions().len(), 2); // mean and max both grew 4%
    }

    #[test]
    fn zero_baseline_increase_is_infinite_pct() {
        let mk = |v: f64| {
            let mut store = SeriesStore::new();
            store.record(MetricId::new("footprint_real_bytes"), t(1), v);
            store.to_csv()
        };
        let report = compare_csv(&mk(0.0), &mk(1.0), &DiffOptions::default()).expect("diff runs");
        assert!(!report.regressions().is_empty());
        assert!(report.deltas[0].pct.is_infinite());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse_csv("").is_err());
        assert!(parse_csv("wrong,header,here\n").is_err());
        assert!(parse_csv("metric,t_us,value\nm,notanumber,1\n").is_err());
        assert!(parse_csv("metric,t_us,value\n\"unterminated,1,2\n").is_err());
    }
}
