//! Execution tracing: a timestamped event log of system activity,
//! exportable as Chrome trace JSON (`chrome://tracing` /
//! [Perfetto](https://ui.perfetto.dev)).
//!
//! Enable with [`crate::system::QtenonSystem::set_tracing`]; every ISA
//! instruction, controller PUT, and quantum run then records a
//! [`TraceEvent`] with its simulated start/end times. Beyond "X"
//! complete slices the log carries instant markers, counter samples,
//! and flow events that link one logical request (named by its RBQ tag)
//! across lanes — Perfetto draws these as arrows from the host's issue
//! slice through communication and pulse generation to the chip.

use std::borrow::Cow;

use qtenon_sim_engine::json;
use qtenon_sim_engine::{SimDuration, SimTime};

/// The component lane an event belongs to (the "thread" in trace
/// viewers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceLane {
    /// Host core instruction issue.
    Host,
    /// Controller communication paths.
    Communication,
    /// The pulse pipeline.
    PulsePipeline,
    /// The quantum chip.
    QuantumChip,
    /// VQA phase attribution spans (compile, upload, execute, ...).
    Phase,
    /// The causal critical path, highlighted as its own flow lane.
    CritPath,
}

impl TraceLane {
    /// A stable numeric id for trace viewers.
    pub fn tid(self) -> u32 {
        match self {
            TraceLane::Host => 1,
            TraceLane::Communication => 2,
            TraceLane::PulsePipeline => 3,
            TraceLane::QuantumChip => 4,
            TraceLane::Phase => 5,
            TraceLane::CritPath => 6,
        }
    }

    /// The lane's display name.
    pub fn name(self) -> &'static str {
        match self {
            TraceLane::Host => "host",
            TraceLane::Communication => "communication",
            TraceLane::PulsePipeline => "pulse-pipeline",
            TraceLane::QuantumChip => "quantum-chip",
            TraceLane::Phase => "phase",
            TraceLane::CritPath => "critpath",
        }
    }
}

/// Pre-interned `rbq:N` flow labels: the flow helpers are on the
/// per-instruction hot path, and formatting the tag fresh for every
/// event allocated a `String` per event. Tags beyond the interned range
/// fall back to an owned allocation.
static RBQ_NAMES: [&str; 32] = [
    "rbq:0", "rbq:1", "rbq:2", "rbq:3", "rbq:4", "rbq:5", "rbq:6", "rbq:7", "rbq:8", "rbq:9",
    "rbq:10", "rbq:11", "rbq:12", "rbq:13", "rbq:14", "rbq:15", "rbq:16", "rbq:17", "rbq:18",
    "rbq:19", "rbq:20", "rbq:21", "rbq:22", "rbq:23", "rbq:24", "rbq:25", "rbq:26", "rbq:27",
    "rbq:28", "rbq:29", "rbq:30", "rbq:31",
];

static RBQ_ISSUE_NAMES: [&str; 32] = [
    "issue rbq:0",
    "issue rbq:1",
    "issue rbq:2",
    "issue rbq:3",
    "issue rbq:4",
    "issue rbq:5",
    "issue rbq:6",
    "issue rbq:7",
    "issue rbq:8",
    "issue rbq:9",
    "issue rbq:10",
    "issue rbq:11",
    "issue rbq:12",
    "issue rbq:13",
    "issue rbq:14",
    "issue rbq:15",
    "issue rbq:16",
    "issue rbq:17",
    "issue rbq:18",
    "issue rbq:19",
    "issue rbq:20",
    "issue rbq:21",
    "issue rbq:22",
    "issue rbq:23",
    "issue rbq:24",
    "issue rbq:25",
    "issue rbq:26",
    "issue rbq:27",
    "issue rbq:28",
    "issue rbq:29",
    "issue rbq:30",
    "issue rbq:31",
];

/// The interned `rbq:N` flow label for `tag` (allocation-free for tags
/// below the interned range).
pub fn rbq_flow_name(tag: u8) -> Cow<'static, str> {
    match RBQ_NAMES.get(tag as usize) {
        Some(&name) => Cow::Borrowed(name),
        None => Cow::Owned(format!("rbq:{tag}")),
    }
}

/// The interned `issue rbq:N` slice label for `tag`.
pub fn rbq_issue_name(tag: u8) -> Cow<'static, str> {
    match RBQ_ISSUE_NAMES.get(tag as usize) {
        Some(&name) => Cow::Borrowed(name),
        None => Cow::Owned(format!("issue rbq:{tag}")),
    }
}

/// What kind of trace-viewer event a [`TraceEvent`] renders as.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEventKind {
    /// A duration slice (`ph:"X"`).
    Complete,
    /// A zero-duration marker (`ph:"i"`).
    Instant,
    /// A sampled counter value (`ph:"C"`).
    Counter {
        /// The sampled value.
        value: f64,
    },
    /// The start of a flow arrow (`ph:"s"`).
    FlowStart {
        /// Flow id shared by every event of the flow.
        flow: u64,
    },
    /// An intermediate flow point (`ph:"t"`).
    FlowStep {
        /// Flow id shared by every event of the flow.
        flow: u64,
    },
    /// The end of a flow arrow (`ph:"f"`).
    FlowEnd {
        /// Flow id shared by every event of the flow.
        flow: u64,
    },
}

/// One traced event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event label (e.g. `q_set`, `q_run[500]`). Static labels are
    /// borrowed, so the hot path records them without allocating.
    pub name: Cow<'static, str>,
    /// The component lane.
    pub lane: TraceLane,
    /// Start time.
    pub start: SimTime,
    /// Duration (zero for non-slice events).
    pub duration: SimDuration,
    /// The viewer event kind.
    pub kind: TraceEventKind,
}

/// An append-only event log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates an empty trace with room for `capacity` events, so the
    /// first `capacity` records cannot reallocate.
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            events: Vec::with_capacity(capacity),
        }
    }

    /// Reserves room for at least `additional` more events.
    pub fn reserve(&mut self, additional: usize) {
        self.events.reserve(additional);
    }

    /// Appends a complete ("X") slice.
    pub fn record(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        lane: TraceLane,
        start: SimTime,
        duration: SimDuration,
    ) {
        self.events.push(TraceEvent {
            name: name.into(),
            lane,
            start,
            duration,
            kind: TraceEventKind::Complete,
        });
    }

    /// Appends an instant ("i") marker.
    pub fn record_instant(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        lane: TraceLane,
        at: SimTime,
    ) {
        self.events.push(TraceEvent {
            name: name.into(),
            lane,
            start: at,
            duration: SimDuration::ZERO,
            kind: TraceEventKind::Instant,
        });
    }

    /// Appends a counter ("C") sample.
    pub fn record_counter(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        lane: TraceLane,
        at: SimTime,
        value: f64,
    ) {
        self.events.push(TraceEvent {
            name: name.into(),
            lane,
            start: at,
            duration: SimDuration::ZERO,
            kind: TraceEventKind::Counter { value },
        });
    }

    /// Appends a flow-start ("s") event opening flow `flow` on `lane`.
    pub fn record_flow_start(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        lane: TraceLane,
        at: SimTime,
        flow: u64,
    ) {
        self.events.push(TraceEvent {
            name: name.into(),
            lane,
            start: at,
            duration: SimDuration::ZERO,
            kind: TraceEventKind::FlowStart { flow },
        });
    }

    /// Appends a flow-step ("t") event continuing flow `flow` on `lane`.
    pub fn record_flow_step(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        lane: TraceLane,
        at: SimTime,
        flow: u64,
    ) {
        self.events.push(TraceEvent {
            name: name.into(),
            lane,
            start: at,
            duration: SimDuration::ZERO,
            kind: TraceEventKind::FlowStep { flow },
        });
    }

    /// Appends a flow-end ("f") event closing flow `flow` on `lane`.
    pub fn record_flow_end(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        lane: TraceLane,
        at: SimTime,
        flow: u64,
    ) {
        self.events.push(TraceEvent {
            name: name.into(),
            lane,
            start: at,
            duration: SimDuration::ZERO,
            kind: TraceEventKind::FlowEnd { flow },
        });
    }

    /// The recorded events in insertion order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total busy time recorded on one lane (complete slices only; the
    /// zero-duration marker/flow events contribute nothing).
    pub fn lane_busy(&self, lane: TraceLane) -> SimDuration {
        self.events
            .iter()
            .filter(|e| e.lane == lane)
            .map(|e| e.duration)
            .sum()
    }

    /// The distinct lanes that carry events of the flow with id `flow`.
    pub fn flow_lanes(&self, flow: u64) -> Vec<TraceLane> {
        let mut lanes = Vec::new();
        for e in &self.events {
            let belongs = matches!(
                e.kind,
                TraceEventKind::FlowStart { flow: f }
                    | TraceEventKind::FlowStep { flow: f }
                    | TraceEventKind::FlowEnd { flow: f }
                if f == flow
            );
            if belongs && !lanes.contains(&e.lane) {
                lanes.push(e.lane);
            }
        }
        lanes
    }

    /// Serialises to the Chrome trace-event JSON array format
    /// (microsecond timestamps; "X" slices plus "i"/"C"/"s"/"t"/"f"
    /// events for markers, counters, and flows).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let name = json::escape(&e.name);
            let tid = e.lane.tid();
            let ts = e.start.elapsed().as_us();
            match e.kind {
                TraceEventKind::Complete => out.push_str(&format!(
                    "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
                     \"ts\":{ts:.3},\"dur\":{:.3}}}",
                    e.duration.as_us(),
                )),
                TraceEventKind::Instant => out.push_str(&format!(
                    "{{\"name\":\"{name}\",\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\
                     \"ts\":{ts:.3},\"s\":\"t\"}}"
                )),
                TraceEventKind::Counter { value } => out.push_str(&format!(
                    "{{\"name\":\"{name}\",\"ph\":\"C\",\"pid\":1,\"tid\":{tid},\
                     \"ts\":{ts:.3},\"args\":{{\"value\":{}}}}}",
                    if value.is_finite() { value } else { 0.0 },
                )),
                TraceEventKind::FlowStart { flow } => out.push_str(&format!(
                    "{{\"name\":\"{name}\",\"cat\":\"flow\",\"ph\":\"s\",\"pid\":1,\
                     \"tid\":{tid},\"ts\":{ts:.3},\"id\":{flow}}}"
                )),
                TraceEventKind::FlowStep { flow } => out.push_str(&format!(
                    "{{\"name\":\"{name}\",\"cat\":\"flow\",\"ph\":\"t\",\"pid\":1,\
                     \"tid\":{tid},\"ts\":{ts:.3},\"id\":{flow}}}"
                )),
                TraceEventKind::FlowEnd { flow } => out.push_str(&format!(
                    "{{\"name\":\"{name}\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\
                     \"pid\":1,\"tid\":{tid},\"ts\":{ts:.3},\"id\":{flow}}}"
                )),
            }
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_ns(ns)
    }

    #[test]
    fn records_and_sums_lanes() {
        let mut t = Trace::new();
        t.record(
            "q_set",
            TraceLane::Communication,
            at(0),
            SimDuration::from_ns(30),
        );
        t.record(
            "q_run",
            TraceLane::QuantumChip,
            at(30),
            SimDuration::from_us(5),
        );
        t.record(
            "put",
            TraceLane::Communication,
            at(100),
            SimDuration::from_ns(20),
        );
        assert_eq!(t.len(), 3);
        assert_eq!(
            t.lane_busy(TraceLane::Communication),
            SimDuration::from_ns(50)
        );
        assert_eq!(t.lane_busy(TraceLane::Host), SimDuration::ZERO);
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let mut t = Trace::new();
        t.record(
            "q_gen",
            TraceLane::PulsePipeline,
            at(1000),
            SimDuration::from_us(1),
        );
        let json = t.to_chrome_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"name\":\"q_gen\""));
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"dur\":1.000"));
        assert!(json.contains(&format!("\"tid\":{}", TraceLane::PulsePipeline.tid())));
    }

    #[test]
    fn empty_trace_serialises() {
        assert_eq!(Trace::new().to_chrome_json(), "[]");
        assert!(Trace::new().is_empty());
    }

    #[test]
    fn quotes_are_escaped() {
        let mut t = Trace::new();
        t.record("a\"b", TraceLane::Host, at(0), SimDuration::ZERO);
        assert!(!t.to_chrome_json().contains("\"a\"b\""));
    }

    #[test]
    fn backslashes_and_control_chars_are_escaped() {
        let mut t = Trace::new();
        t.record(
            "a\\b\nc\td\u{1}e",
            TraceLane::Host,
            at(0),
            SimDuration::ZERO,
        );
        let json = t.to_chrome_json();
        // Every special byte is replaced by a JSON escape sequence; no
        // raw backslash-without-escape or control byte survives.
        assert!(json.contains(r"a\\b\nc\td\u0001e"), "json={json}");
        assert!(!json.bytes().any(|b| b < 0x20));
    }

    #[test]
    fn instant_counter_and_flow_events_serialise() {
        let mut t = Trace::new();
        t.record_instant("issue", TraceLane::Host, at(0));
        t.record_counter("outstanding", TraceLane::Communication, at(5), 3.0);
        t.record_flow_start("rbq:7", TraceLane::Host, at(0), 7);
        t.record_flow_step("rbq:7", TraceLane::Communication, at(10), 7);
        t.record_flow_end("rbq:7", TraceLane::QuantumChip, at(20), 7);
        let json = t.to_chrome_json();
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"s\":\"t\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"args\":{\"value\":3}"));
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"t\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert!(json.contains("\"bp\":\"e\""));
        assert!(json.contains("\"id\":7"));
        // The flow touches three distinct lanes.
        assert_eq!(t.flow_lanes(7).len(), 3);
        // Balanced braces: a cheap structural validity check.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn lane_ids_are_distinct() {
        let lanes = [
            TraceLane::Host,
            TraceLane::Communication,
            TraceLane::PulsePipeline,
            TraceLane::QuantumChip,
            TraceLane::Phase,
            TraceLane::CritPath,
        ];
        let mut ids: Vec<u32> = lanes.iter().map(|l| l.tid()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 6);
    }

    #[test]
    fn rbq_names_are_interned_and_correct() {
        for tag in 0..40u8 {
            assert_eq!(rbq_flow_name(tag), format!("rbq:{tag}"));
            assert_eq!(rbq_issue_name(tag), format!("issue rbq:{tag}"));
        }
        // In-range tags borrow a static; out-of-range tags fall back to
        // an owned allocation.
        assert!(matches!(rbq_flow_name(31), Cow::Borrowed(_)));
        assert!(matches!(rbq_flow_name(32), Cow::Owned(_)));
        assert!(matches!(rbq_issue_name(0), Cow::Borrowed(_)));
    }

    #[test]
    fn static_names_record_without_copying() {
        let mut t = Trace::with_capacity(2);
        t.record("static-label", TraceLane::Phase, at(0), SimDuration::ZERO);
        t.record_counter("depth", TraceLane::Phase, at(1), 2.0);
        assert!(matches!(t.events()[0].name, Cow::Borrowed("static-label")));
        assert!(matches!(t.events()[1].name, Cow::Borrowed("depth")));
    }
}
