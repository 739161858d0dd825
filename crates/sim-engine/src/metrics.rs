//! The unified telemetry layer: a hierarchical metrics registry with
//! counters, gauges, and log-bucketed latency histograms, snapshotted
//! into machine-readable exports (JSON, Prometheus text, human text).
//!
//! Every modelled component registers its observables under a stable
//! dotted path (`controller.slt.hits`, `mem.l1.hit_rate`,
//! `core.instr.q_run.latency`), so one [`MetricsSnapshot`] captures the
//! whole system and experiments can diff structured telemetry instead of
//! parsing stdout. The batch scheduler's fleet-level observables live
//! under `jobs.*` (queue depth, wait/turnaround histograms, pool shape,
//! throughput) in their own registry, keeping per-job system trees
//! byte-stable while the schedule's wall-clock telemetry varies freely.
//!
//! # Examples
//!
//! ```
//! use qtenon_sim_engine::metrics::MetricsRegistry;
//!
//! let mut m = MetricsRegistry::new();
//! m.counter("controller.slt.hits", 42);
//! m.gauge("mem.l1.hit_rate", 0.97);
//! m.observe("controller.bus.latency", 21);
//! m.observe("controller.bus.latency", 35);
//! let snap = m.snapshot();
//! assert_eq!(snap.len(), 3);
//! assert!(snap.to_json().contains("controller.slt.hits"));
//! assert!(snap.to_prometheus().contains("controller_slt_hits 42"));
//! ```

use std::collections::BTreeMap;
use std::fmt;

/// Number of histogram buckets: bucket 0 holds zero-valued samples and
/// bucket `k` (1..=64) holds samples whose bit length is `k`, i.e. the
/// range `[2^(k-1), 2^k - 1]`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log-bucketed latency histogram over unsigned integer samples
/// (conventionally nanoseconds).
///
/// Buckets are powers of two, so recording is O(1), memory is constant,
/// and two histograms merge bucket-for-bucket. Percentiles are estimated
/// as the upper bound of the bucket containing the requested rank,
/// clamped to the observed maximum — so `p50 <= p90 <= p99 <= max`
/// always holds.
///
/// # Examples
///
/// ```
/// use qtenon_sim_engine::metrics::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [10, 20, 30, 1000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.max(), Some(1000));
/// assert!(h.p50().unwrap() <= h.p99().unwrap());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: vec![0; HISTOGRAM_BUCKETS],
        }
    }

    /// The bucket index a sample falls into (its bit length).
    pub fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// The largest value bucket `index` can hold.
    pub fn bucket_upper_bound(index: usize) -> u64 {
        if index == 0 {
            0
        } else if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[Self::bucket_index(value)] += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean sample, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Per-bucket counts (length [`HISTOGRAM_BUCKETS`]).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Estimated value at quantile `q` in `[0, 1]`: the upper bound of
    /// the bucket holding the rank-`q` sample, clamped to the observed
    /// maximum. Returns `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * (self.count - 1) as f64).floor() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Some(Self::bucket_upper_bound(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Median estimate.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> Option<u64> {
        self.quantile(0.9)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Folds another histogram into this one bucket-for-bucket.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (b, &o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Forgets all samples.
    pub fn reset(&mut self) {
        *self = Histogram::new();
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return write!(f, "n=0");
        }
        write!(
            f,
            "n={} p50={} p90={} p99={} max={}",
            self.count,
            self.p50().unwrap_or(0),
            self.p90().unwrap_or(0),
            self.p99().unwrap_or(0),
            self.max,
        )
    }
}

/// One registered metric's value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonic event count.
    Counter(u64),
    /// An instantaneous level (rate, occupancy, cost, ...).
    Gauge(f64),
    /// A latency distribution.
    Histogram(Histogram),
}

/// A hierarchical registry of named metrics.
///
/// Paths are dotted lower-case identifiers (`mem.l1.hits`); the dots are
/// the hierarchy. Registering a path that already exists overwrites the
/// previous value, except [`MetricsRegistry::observe`] which accumulates
/// into an existing histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, MetricValue>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers (or overwrites) a counter at `path`.
    pub fn counter(&mut self, path: &str, value: u64) {
        self.metrics
            .insert(path.to_string(), MetricValue::Counter(value));
    }

    /// Registers (or overwrites) a gauge at `path`. Non-finite values are
    /// recorded as zero so every export stays machine-parseable.
    pub fn gauge(&mut self, path: &str, value: f64) {
        let v = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(path.to_string(), MetricValue::Gauge(v));
    }

    /// Records one sample into the histogram at `path`, creating it on
    /// first use. A non-histogram metric already at `path` is replaced.
    pub fn observe(&mut self, path: &str, sample: u64) {
        match self.metrics.get_mut(path) {
            Some(MetricValue::Histogram(h)) => h.record(sample),
            _ => {
                let mut h = Histogram::new();
                h.record(sample);
                self.metrics
                    .insert(path.to_string(), MetricValue::Histogram(h));
            }
        }
    }

    /// Registers (or overwrites) a copy of an existing histogram at
    /// `path` — the component-export path, where components own their
    /// histograms and publish them at snapshot time.
    pub fn histogram(&mut self, path: &str, h: &Histogram) {
        self.metrics
            .insert(path.to_string(), MetricValue::Histogram(h.clone()));
    }

    /// The value at `path`, if registered.
    pub fn get(&self, path: &str) -> Option<&MetricValue> {
        self.metrics.get(path)
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// All registered paths in sorted order.
    pub fn paths(&self) -> Vec<&str> {
        self.metrics.keys().map(String::as_str).collect()
    }

    /// Iterates `(path, value)` pairs in sorted path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds `other` into this registry, path by path.
    ///
    /// Counters meeting counters add; histograms meeting histograms
    /// bucket-merge (see [`Histogram::merge`]); everything else —
    /// gauges, paths absent on one side, or mismatched kinds — takes
    /// `other`'s value, matching the registry's overwrite semantics.
    /// Addition and bucket-merging are commutative, so this reduction is
    /// deterministic for any merge order; the parallel engine still
    /// merges shards in canonical shard order so that the overwrite
    /// cases (gauges) are well defined too.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (path, value) in &other.metrics {
            match (self.metrics.get_mut(path), value) {
                (Some(MetricValue::Counter(mine)), MetricValue::Counter(theirs)) => {
                    *mine += theirs;
                }
                (Some(MetricValue::Histogram(mine)), MetricValue::Histogram(theirs)) => {
                    mine.merge(theirs);
                }
                _ => {
                    self.metrics.insert(path.clone(), value.clone());
                }
            }
        }
    }

    /// Freezes the current state into a snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            metrics: self.metrics.clone(),
        }
    }
}

/// A frozen, serialisable view of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Path → value, sorted by path.
    pub metrics: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Number of metrics in the snapshot.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// All paths in sorted order.
    pub fn paths(&self) -> Vec<&str> {
        self.metrics.keys().map(String::as_str).collect()
    }

    /// Serialises the snapshot as a JSON object
    /// `{"metrics": {"<path>": {...}, ...}}`.
    ///
    /// Counters carry `{"type":"counter","value":N}`, gauges
    /// `{"type":"gauge","value":X}`, histograms their full bucket table
    /// plus derived percentiles.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\":{");
        for (i, (path, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&crate::json::escape(path));
            out.push_str("\":");
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{{\"type\":\"counter\",\"value\":{v}}}"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(
                        "{{\"type\":\"gauge\",\"value\":{}}}",
                        json_f64(*v)
                    ));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{{\"type\":\"histogram\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                        h.count(),
                        h.sum(),
                        h.min().unwrap_or(0),
                        h.max().unwrap_or(0),
                        h.p50().unwrap_or(0),
                        h.p90().unwrap_or(0),
                        h.p99().unwrap_or(0),
                    ));
                    let mut first = true;
                    for (idx, &c) in h.buckets().iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        if !first {
                            out.push(',');
                        }
                        first = false;
                        out.push_str(&format!("[{idx},{c}]"));
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("}}");
        out
    }

    /// Serialises in the Prometheus text exposition format: one
    /// `name value` (or `name{labels} value`) line per sample. Dotted
    /// paths become underscore-separated metric names; histogram
    /// percentiles are exported as `quantile`-labelled samples alongside
    /// `_count` and `_sum`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (path, value) in &self.metrics {
            let name = prometheus_name(path);
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{name} {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{name} {}\n", json_f64(*v)));
                }
                MetricValue::Histogram(h) => {
                    // Cumulative le-labelled buckets make the exporter
                    // scrape-compatible with Prometheus histogram
                    // queries. Empty buckets are skipped (the running
                    // cumulative count stays correct), and the
                    // mandatory `+Inf` bucket equals `_count`.
                    let mut cumulative = 0u64;
                    for (idx, &c) in h.buckets().iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        cumulative += c;
                        out.push_str(&format!(
                            "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                            Histogram::bucket_upper_bound(idx)
                        ));
                    }
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
                    out.push_str(&format!("{name}_count {}\n", h.count()));
                    out.push_str(&format!("{name}_sum {}\n", h.sum()));
                    for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
                        out.push_str(&format!(
                            "{name}{{quantile=\"{label}\"}} {}\n",
                            h.quantile(q).unwrap_or(0)
                        ));
                    }
                    out.push_str(&format!("{name}_max {}\n", h.max().unwrap_or(0)));
                }
            }
        }
        out
    }

    /// Renders a human-readable end-of-run report, one metric per line.
    pub fn to_text(&self) -> String {
        let width = self.metrics.keys().map(String::len).max().unwrap_or(0);
        let mut out = String::new();
        for (path, value) in &self.metrics {
            let rendered = match value {
                MetricValue::Counter(v) => v.to_string(),
                MetricValue::Gauge(v) => format!("{v:.4}"),
                MetricValue::Histogram(h) => h.to_string(),
            };
            out.push_str(&format!("{path:<width$}  {rendered}\n"));
        }
        out
    }
}

/// Formats a float as a JSON-safe token (`0` for non-finite values).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Maps a dotted metric path onto a Prometheus metric name: dots become
/// underscores and any other character outside `[a-zA-Z0-9_:]` is
/// replaced by `_`. A leading digit gains a `_` prefix.
fn prometheus_name(path: &str) -> String {
    let mut name = String::with_capacity(path.len());
    for c in path.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            name.push(c);
        } else {
            name.push('_');
        }
    }
    if name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        name.insert(0, '_');
    }
    name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_records_and_estimates() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        let p50 = h.p50().unwrap();
        let p90 = h.p90().unwrap();
        let p99 = h.p99().unwrap();
        assert!(p50 <= p90 && p90 <= p99 && p99 <= 100);
        // The median of 1..=100 lives in bucket [32, 63].
        assert!((50..=63).contains(&p50), "p50={p50}");
    }

    #[test]
    fn histogram_zero_and_extremes() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[64], 1);
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
    }

    #[test]
    fn histogram_merge_matches_union() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut union = Histogram::new();
        for v in [3u64, 17, 1000, 5] {
            a.record(v);
            union.record(v);
        }
        for v in [0u64, 250, 99999] {
            b.record(v);
            union.record(v);
        }
        a.merge(&b);
        assert_eq!(a, union);
    }

    #[test]
    fn histogram_merge_into_empty() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        b.record(7);
        a.merge(&b);
        assert_eq!(a, b);
        // Merging an empty histogram changes nothing.
        a.merge(&Histogram::new());
        assert_eq!(a, b);
    }

    #[test]
    fn registry_registers_and_snapshots() {
        let mut m = MetricsRegistry::new();
        m.counter("a.count", 3);
        m.gauge("a.rate", 0.5);
        m.observe("a.lat", 10);
        m.observe("a.lat", 20);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get("a.count"), Some(&MetricValue::Counter(3)));
        let snap = m.snapshot();
        assert_eq!(snap.paths(), vec!["a.count", "a.lat", "a.rate"]);
        match snap.metrics.get("a.lat") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count(), 2),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn registry_merge_sums_counters_and_buckets() {
        let mut a = MetricsRegistry::new();
        a.counter("hits", 3);
        a.observe("lat", 10);
        a.gauge("rate", 0.25);
        a.counter("only_a", 1);
        let mut b = MetricsRegistry::new();
        b.counter("hits", 4);
        b.observe("lat", 20);
        b.gauge("rate", 0.75);
        b.counter("only_b", 2);
        a.merge(&b);
        assert_eq!(a.get("hits"), Some(&MetricValue::Counter(7)));
        assert_eq!(a.get("only_a"), Some(&MetricValue::Counter(1)));
        assert_eq!(a.get("only_b"), Some(&MetricValue::Counter(2)));
        // Gauges take the merged-in value.
        assert_eq!(a.get("rate"), Some(&MetricValue::Gauge(0.75)));
        match a.get("lat") {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.count(), 2);
                assert_eq!(h.sum(), 30);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn registry_merge_equals_serial_recording() {
        // Recording everything into one registry and recording shards
        // then merging must produce identical snapshots (and JSON).
        let samples = [3u64, 17, 1000, 5, 0, 250, 99_999];
        let mut serial = MetricsRegistry::new();
        for &s in &samples {
            serial.observe("lat", s);
        }
        serial.counter("n", samples.len() as u64);
        let mut left = MetricsRegistry::new();
        let mut right = MetricsRegistry::new();
        for &s in &samples[..3] {
            left.observe("lat", s);
        }
        left.counter("n", 3);
        for &s in &samples[3..] {
            right.observe("lat", s);
        }
        right.counter("n", samples.len() as u64 - 3);
        left.merge(&right);
        assert_eq!(left, serial);
        assert_eq!(left.snapshot().to_json(), serial.snapshot().to_json());
    }

    #[test]
    fn registry_iter_walks_sorted_paths() {
        let mut m = MetricsRegistry::new();
        m.counter("b", 2);
        m.counter("a", 1);
        let pairs: Vec<(&str, &MetricValue)> = m.iter().collect();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0], ("a", &MetricValue::Counter(1)));
        assert_eq!(pairs[1], ("b", &MetricValue::Counter(2)));
    }

    #[test]
    fn non_finite_gauges_are_zeroed() {
        let mut m = MetricsRegistry::new();
        m.gauge("bad", f64::NAN);
        m.gauge("inf", f64::INFINITY);
        assert_eq!(m.get("bad"), Some(&MetricValue::Gauge(0.0)));
        assert_eq!(m.get("inf"), Some(&MetricValue::Gauge(0.0)));
    }

    #[test]
    fn json_export_is_well_formed() {
        let mut m = MetricsRegistry::new();
        m.counter("x.hits", 7);
        m.gauge("x.rate", 0.25);
        m.observe("x.lat", 12);
        let json = m.snapshot().to_json();
        assert!(json.starts_with("{\"metrics\":{"));
        assert!(json.ends_with("}}"));
        assert!(json.contains("\"x.hits\":{\"type\":\"counter\",\"value\":7}"));
        assert!(json.contains("\"type\":\"gauge\",\"value\":0.25"));
        assert!(json.contains("\"type\":\"histogram\",\"count\":1"));
        // Balanced braces and brackets.
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }

    #[test]
    fn prometheus_lines_parse_as_name_value() {
        let mut m = MetricsRegistry::new();
        m.counter("mem.l1.hits", 10);
        m.gauge("mem.l1.hit_rate", 0.5);
        m.observe("bus.latency", 21);
        let text = m.snapshot().to_prometheus();
        assert!(text.contains("mem_l1_hits 10\n"));
        assert!(text.contains("bus_latency_count 1\n"));
        assert!(text.contains("bus_latency{quantile=\"0.5\"} 21\n"));
        for line in text.lines() {
            let (name_part, value_part) = line.rsplit_once(' ').expect("name value");
            assert!(!name_part.is_empty());
            assert!(value_part.parse::<f64>().is_ok(), "bad value in {line:?}");
            let bare = name_part.split('{').next().unwrap();
            assert!(
                bare.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad name in {line:?}"
            );
        }
    }

    #[test]
    fn percentiles_on_empty_single_sample_and_single_bucket() {
        // Empty: every quantile is None.
        let empty = Histogram::new();
        assert_eq!(empty.p50(), None);
        assert_eq!(empty.p90(), None);
        assert_eq!(empty.p99(), None);
        // Single sample: p50 = p90 = p99 = the sample (bucket upper
        // bound clamped to max).
        let mut single = Histogram::new();
        single.record(7);
        assert_eq!(single.p50(), Some(7));
        assert_eq!(single.p90(), Some(7));
        assert_eq!(single.p99(), Some(7));
        // Single-sample zero lands in bucket 0.
        let mut zero = Histogram::new();
        zero.record(0);
        assert_eq!(zero.p50(), Some(0));
        assert_eq!(zero.p99(), Some(0));
        // All samples in one bucket: every percentile is that bucket's
        // upper bound clamped to the observed max.
        let mut one_bucket = Histogram::new();
        for v in [4u64, 5, 6] {
            one_bucket.record(v);
        }
        assert_eq!(one_bucket.p50(), Some(6));
        assert_eq!(one_bucket.p90(), Some(6));
        assert_eq!(one_bucket.p99(), Some(6));
    }

    #[test]
    fn registry_merge_disjoint_keys_is_union() {
        let mut a = MetricsRegistry::new();
        a.counter("left.hits", 1);
        a.observe("left.lat", 10);
        let mut b = MetricsRegistry::new();
        b.counter("right.hits", 2);
        b.gauge("right.rate", 0.5);
        a.merge(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.get("left.hits"), Some(&MetricValue::Counter(1)));
        assert_eq!(a.get("right.hits"), Some(&MetricValue::Counter(2)));
        assert_eq!(a.get("right.rate"), Some(&MetricValue::Gauge(0.5)));
    }

    #[test]
    fn registry_merge_type_collisions_take_incoming_value() {
        let mut a = MetricsRegistry::new();
        a.counter("x", 5);
        a.observe("y", 10);
        a.gauge("z", 1.0);
        let mut b = MetricsRegistry::new();
        b.gauge("x", 0.25); // counter ← gauge
        b.counter("y", 3); // histogram ← counter
        b.observe("z", 7); // gauge ← histogram
        a.merge(&b);
        assert_eq!(a.get("x"), Some(&MetricValue::Gauge(0.25)));
        assert_eq!(a.get("y"), Some(&MetricValue::Counter(3)));
        match a.get("z") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count(), 1),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn prometheus_buckets_are_cumulative_and_end_at_inf() {
        let mut m = MetricsRegistry::new();
        for v in [1u64, 2, 3, 100] {
            m.observe("lat", v);
        }
        let text = m.snapshot().to_prometheus();
        // 1 → le="1"; 2,3 → le="3"; 100 → le="127"; cumulative counts.
        assert!(text.contains("lat_bucket{le=\"1\"} 1\n"), "{text}");
        assert!(text.contains("lat_bucket{le=\"3\"} 3\n"), "{text}");
        assert!(text.contains("lat_bucket{le=\"127\"} 4\n"), "{text}");
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 4\n"), "{text}");
        assert!(text.contains("lat_count 4\n"));
        assert!(text.contains("lat_sum 106\n"));
        // Bucket lines come out in ascending le order and never decrease.
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("lat_bucket"))
            .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
    }

    #[test]
    fn text_report_lists_every_metric() {
        let mut m = MetricsRegistry::new();
        m.counter("a", 1);
        m.gauge("b.c", 2.0);
        m.observe("d", 3);
        let text = m.snapshot().to_text();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("a"));
        assert!(text.contains("b.c"));
    }

    #[test]
    fn json_escape_handles_specials() {
        let paths = ["plain", "a\"b", "a\\b", "a\nb\tc", "\u{1}"];
        let mut m = MetricsRegistry::new();
        for p in paths {
            m.counter(p, 1);
        }
        let json = m.snapshot().to_json();
        assert!(json.contains("\"a\\\"b\""), "{json}");
        assert!(json.contains("\"a\\\\b\""), "{json}");
        assert!(json.contains("\"a\\nb\\tc\""), "{json}");
        assert!(json.contains("\"\\u0001\""), "{json}");
        let root = crate::json::parse(&json).unwrap();
        let metrics = root.get("metrics").and_then(|m| m.as_object()).unwrap();
        let mut keys: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let mut want = paths.to_vec();
        keys.sort_unstable();
        want.sort_unstable();
        assert_eq!(keys, want);
    }

    #[test]
    fn prometheus_name_sanitises() {
        assert_eq!(prometheus_name("mem.l1.hits"), "mem_l1_hits");
        assert_eq!(prometheus_name("a-b c"), "a_b_c");
        assert_eq!(prometheus_name("9lives"), "_9lives");
    }
}
