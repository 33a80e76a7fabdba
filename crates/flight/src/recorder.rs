//! The flight recorder proper: process-lifetime rings of recent
//! completed-query summaries and sampled trace events.
//!
//! Aircraft flight recorders answer "what were the last minutes like?"
//! after the fact; this one does the same for the engine. Two rings:
//!
//! * **queries** — a [`QuerySummary`] per completed query (any
//!   outcome), capacity [`QUERY_RING`]. Recording is on by default and
//!   costs one striped-ring push per query; `LYRIC_FLIGHT=0` (or
//!   [`set_enabled`]) turns it off.
//! * **events** — recent [`FlightEvent`]s teed from the engine's
//!   existing `trace_event` instrumentation sites, capacity
//!   [`EVENT_RING`]. Events fire orders of magnitude more often than
//!   queries complete, so this ring is **off by default** and sampled
//!   (1 in [`sample_every`]) when on — the disabled check is one
//!   relaxed atomic load and allocates nothing, preserving the
//!   zero-alloc tracing-off guarantee pinned by
//!   `crates/engine/tests/trace_overhead.rs`.

use crate::ring::Ring;
use lyric_trace::json::Json;
use lyric_trace::model::EventKind;
use lyric_trace::stats::{EngineStats, COUNTER_NAMES};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Once, OnceLock};

/// Completed-query ring capacity.
pub const QUERY_RING: usize = 256;

/// Sampled-event ring capacity.
pub const EVENT_RING: usize = 1024;

static ENABLED: AtomicBool = AtomicBool::new(true);
static ENABLED_ENV: Once = Once::new();

/// True when completed queries are recorded (the default). Initially
/// from `LYRIC_FLIGHT` (`0`/`off`/`false` disables), then [`set_enabled`].
pub fn enabled() -> bool {
    ENABLED_ENV.call_once(|| {
        if let Ok(v) = std::env::var("LYRIC_FLIGHT") {
            let v = v.trim().to_ascii_lowercase();
            if v == "0" || v == "off" || v == "false" {
                ENABLED.store(false, Ordering::Relaxed);
            }
        }
    });
    ENABLED.load(Ordering::Relaxed)
}

/// Enable or disable completed-query recording process-wide.
pub fn set_enabled(on: bool) {
    ENABLED_ENV.call_once(|| {});
    ENABLED.store(on, Ordering::Relaxed);
}

static EVENTS_ENABLED: AtomicBool = AtomicBool::new(false);
static EVENTS_ENV: Once = Once::new();

/// True when trace events are teed into the event ring. **Off by
/// default**; enabled by `LYRIC_FLIGHT_EVENTS=1` or [`set_events_enabled`]
/// (the serve binary and REPL turn it on at startup — they are the
/// surfaces that can show the ring).
pub fn events_enabled() -> bool {
    EVENTS_ENV.call_once(|| {
        if let Ok(v) = std::env::var("LYRIC_FLIGHT_EVENTS") {
            let v = v.trim().to_ascii_lowercase();
            if v == "1" || v == "on" || v == "true" {
                EVENTS_ENABLED.store(true, Ordering::Relaxed);
            }
        }
    });
    EVENTS_ENABLED.load(Ordering::Relaxed)
}

/// Enable or disable the event tee process-wide.
pub fn set_events_enabled(on: bool) {
    EVENTS_ENV.call_once(|| {});
    EVENTS_ENABLED.store(on, Ordering::Relaxed);
}

/// Turn the event tee on *unless* `LYRIC_FLIGHT_EVENTS` was set
/// explicitly. The long-lived surfaces (serve binary, REPL) call this at
/// startup: they can show the ring, so they default the tee on, but an
/// operator's explicit env setting always wins.
pub fn enable_events_default() {
    if std::env::var_os("LYRIC_FLIGHT_EVENTS").is_none() {
        set_events_enabled(true);
    } else {
        let _ = events_enabled();
    }
}

/// 1-in-N event sampling stride; from `LYRIC_FLIGHT_SAMPLE` (default 16,
/// minimum 1).
pub fn sample_every() -> u64 {
    static SAMPLE: OnceLock<u64> = OnceLock::new();
    *SAMPLE.get_or_init(|| {
        std::env::var("LYRIC_FLIGHT_SAMPLE")
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
            .map(|n| n.max(1))
            .unwrap_or(16)
    })
}

/// The engine's per-event-site gate: false (one relaxed load, no
/// allocation) when the tee is off; when on, true for 1 in
/// [`sample_every`] calls. The caller only builds the `EventKind` (and
/// its label string) when this returns true or a tracer is attached.
pub fn event_tick() -> bool {
    if !events_enabled() {
        return false;
    }
    static TICK: AtomicU64 = AtomicU64::new(0);
    TICK.fetch_add(1, Ordering::Relaxed)
        .is_multiple_of(sample_every())
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
pub fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// One sampled trace event in the event ring.
#[derive(Clone)]
pub struct FlightEvent {
    /// Engine context generation of the emitting query.
    pub trace_id: u64,
    /// Wall-clock capture time, ms since the Unix epoch.
    pub unix_ms: u64,
    /// The event's rendered label (`EventKind::label`).
    pub label: String,
}

impl FlightEvent {
    /// The event as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("trace_id", Json::int(self.trace_id)),
            ("unix_ms", Json::int(self.unix_ms)),
            ("label", Json::str(self.label.clone())),
        ])
    }
}

/// The one record of a finished query. Every sink reads it: the query
/// ring ([`record_query`]), the structured query log
/// ([`QuerySummary::log_line`]) and anomaly dumps
/// ([`crate::dump::offender`]).
#[derive(Clone, Debug)]
pub struct QuerySummary {
    /// FNV-1a hash of the full query source.
    pub query_hash: u64,
    /// Truncated query text.
    pub query: String,
    /// `"ok"`, `"budget_exceeded"`, or `"error"`.
    pub outcome: &'static str,
    /// The tripped resource name for budget aborts; empty otherwise.
    pub resource: &'static str,
    /// Result rows (0 on error).
    pub rows: u64,
    /// Wall-clock duration in microseconds.
    pub duration_us: u64,
    /// Thread budget the query ran with.
    pub threads: usize,
    /// Engine context generation (0 when the query was rejected before
    /// a context was installed).
    pub trace_id: u64,
    /// Completion wall-clock time, ms since the Unix epoch.
    pub end_unix_ms: u64,
    /// Per-query engine counters; on a budget abort, the work done up to
    /// the abort.
    pub stats: EngineStats,
    /// Pre-serialized compact explain-analyze summary (the top plan nodes
    /// by exclusive time) when the query ran under slow-query forensics.
    pub plan: Option<String>,
}

impl QuerySummary {
    /// The summary as a JSON object (the `/debug/flight` element).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            (
                "query_hash".to_string(),
                Json::str(format!("{:016x}", self.query_hash)),
            ),
            ("query".to_string(), Json::str(self.query.clone())),
            ("outcome".to_string(), Json::str(self.outcome)),
        ];
        if !self.resource.is_empty() {
            pairs.push(("resource".to_string(), Json::str(self.resource)));
        }
        pairs.extend([
            ("rows".to_string(), Json::int(self.rows)),
            ("duration_us".to_string(), Json::int(self.duration_us)),
            ("threads".to_string(), Json::int(self.threads as u64)),
            ("trace_id".to_string(), Json::int(self.trace_id)),
            ("end_unix_ms".to_string(), Json::int(self.end_unix_ms)),
            (
                "stats".to_string(),
                Json::Obj(
                    COUNTER_NAMES
                        .into_iter()
                        .zip(self.stats.counters())
                        .filter(|(_, v)| *v > 0)
                        .map(|(k, v)| (k.to_string(), Json::int(v)))
                        .collect(),
                ),
            ),
        ]);
        if let Some(plan) = &self.plan {
            let plan = lyric_trace::json::parse(plan).unwrap_or_else(|_| Json::str(plan.clone()));
            pairs.push(("plan".to_string(), plan));
        }
        Json::Obj(pairs)
    }

    /// The record as one structured query-log line, without the trailing
    /// newline (schema v2, documented in `lyric_metrics::querylog`).
    /// `slow` is the slow-threshold verdict, `None` without a threshold.
    pub fn log_line(&self, slow: Option<bool>) -> String {
        let mut out = format!(
            "{{\"v\":{},\"query_hash\":\"{:016x}\",\"git_rev\":{},\"outcome\":\"{}\"",
            lyric_metrics::querylog::SCHEMA_VERSION,
            self.query_hash,
            Json::str(lyric_metrics::build::git_rev()),
            self.outcome
        );
        if !self.resource.is_empty() {
            out.push_str(&format!(",\"resource\":{}", Json::str(self.resource)));
        }
        out.push_str(&format!(
            ",\"rows\":{},\"duration_us\":{},\"threads\":{},\"trace_id\":{}",
            self.rows, self.duration_us, self.threads, self.trace_id
        ));
        if let Some(slow) = slow {
            out.push_str(&format!(",\"slow\":{slow}"));
        }
        if let Some(plan) = &self.plan {
            out.push_str(",\"explain\":");
            out.push_str(plan);
        }
        out.push_str(",\"stats\":{");
        for (i, (name, value)) in COUNTER_NAMES.iter().zip(self.stats.counters()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{value}"));
        }
        out.push_str("}}");
        out
    }
}

fn query_ring() -> &'static Ring<QuerySummary> {
    static R: OnceLock<Ring<QuerySummary>> = OnceLock::new();
    R.get_or_init(|| Ring::new(QUERY_RING))
}

fn event_ring() -> &'static Ring<FlightEvent> {
    static R: OnceLock<Ring<FlightEvent>> = OnceLock::new();
    R.get_or_init(|| Ring::new(EVENT_RING))
}

fn recorded_counter() -> &'static lyric_metrics::Counter {
    static C: OnceLock<lyric_metrics::Counter> = OnceLock::new();
    C.get_or_init(|| {
        lyric_metrics::global().counter(
            "lyric_flight_queries_total",
            "Completed queries recorded in the flight-recorder ring.",
        )
    })
}

/// Record a completed query (no-op while the recorder is disabled).
pub fn record_query(summary: QuerySummary) {
    if !enabled() {
        return;
    }
    query_ring().push(summary);
    recorded_counter().inc();
}

/// Record one sampled trace event. Callers gate on [`event_tick`]
/// first; this function unconditionally pushes.
pub fn record_event(trace_id: u64, kind: &EventKind) {
    event_ring().push(FlightEvent {
        trace_id,
        unix_ms: unix_ms(),
        label: kind.label(),
    });
}

/// The held query summaries, oldest first.
pub fn recent_queries() -> Vec<QuerySummary> {
    query_ring().snapshot()
}

/// The held sampled events, oldest first.
pub fn recent_events() -> Vec<FlightEvent> {
    event_ring().snapshot()
}

/// Empty both rings (tests and the REPL's dump-then-reset flows).
pub fn clear() {
    query_ring().clear();
    event_ring().clear();
}

/// The recorder state as a JSON document (the `/debug/flight` body).
pub fn to_json() -> Json {
    Json::obj([
        ("enabled", Json::Bool(enabled())),
        ("events_enabled", Json::Bool(events_enabled())),
        ("query_capacity", Json::int(query_ring().capacity() as u64)),
        ("event_capacity", Json::int(event_ring().capacity() as u64)),
        ("queries_recorded", Json::int(query_ring().pushed())),
        (
            "queries",
            Json::Arr(recent_queries().iter().map(|q| q.to_json()).collect()),
        ),
        (
            "events",
            Json::Arr(recent_events().iter().map(|e| e.to_json()).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(hash: u64) -> QuerySummary {
        QuerySummary {
            query_hash: hash,
            query: "SELECT X FROM Desk X".to_string(),
            outcome: "ok",
            resource: "",
            rows: 1,
            duration_us: 42,
            threads: 1,
            trace_id: hash,
            end_unix_ms: unix_ms(),
            stats: EngineStats {
                pivots: 3,
                ..Default::default()
            },
            plan: None,
        }
    }

    /// The record the query-log line tests format.
    fn logged() -> QuerySummary {
        QuerySummary {
            query_hash: lyric_metrics::querylog::query_hash("SELECT X FROM Desk X"),
            rows: 3,
            duration_us: 1500,
            threads: 2,
            trace_id: 41,
            stats: EngineStats {
                pivots: 7,
                cache_hits: 2,
                ..Default::default()
            },
            ..summary(0)
        }
    }

    #[test]
    fn record_formats_as_one_json_line() {
        let line = logged().log_line(None);
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"v\":2,\"query_hash\":\"159e09cddc8e355c\""));
        assert!(line.contains("\"git_rev\":\""));
        assert!(line.contains("\"outcome\":\"ok\""));
        assert!(line.contains("\"rows\":3"));
        assert!(line.contains("\"duration_us\":1500"));
        assert!(line.contains("\"threads\":2"));
        assert!(line.contains("\"trace_id\":41"));
        assert!(!line.contains("\"slow\""), "no threshold, no slow member");
        assert!(line.contains(",\"stats\":{\"pivots\":7,"));
        assert!(line.contains(",\"cache_hits\":2,"));
        lyric_trace::json::parse(&line).expect("the line is valid JSON");
    }

    #[test]
    fn v2_members_precede_the_v1_body() {
        // The v2 additions are a prefix extension: everything after
        // `git_rev` is byte-identical to a v1 line, so consumers that
        // scan for `"outcome"`, `"explain"`, or `"stats"` substrings
        // keep working unchanged on both versions.
        let line = logged().log_line(Some(true));
        let outcome_at = line.find("\"outcome\"").unwrap();
        assert!(line.find("\"v\":2").unwrap() < outcome_at);
        assert!(line.find("\"git_rev\"").unwrap() < outcome_at);
        // The v1 body keeps its member order.
        let order = [
            "\"rows\"",
            "\"duration_us\"",
            "\"threads\"",
            "\"trace_id\"",
            "\"slow\"",
            "\"stats\"",
        ];
        let at: Vec<usize> = order.iter().map(|m| line.find(m).unwrap()).collect();
        assert!(at.windows(2).all(|w| w[0] < w[1]), "{line}");
    }

    #[test]
    fn budget_outcome_carries_the_resource() {
        let mut r = logged();
        r.outcome = "budget_exceeded";
        r.resource = "simplex pivots";
        let line = r.log_line(None);
        assert!(line.contains("\"outcome\":\"budget_exceeded\""));
        assert!(line.contains("\"resource\":\"simplex pivots\""));
    }

    #[test]
    fn explain_summary_is_spliced_verbatim() {
        let mut r = logged();
        r.plan = Some("[{\"node\":3,\"op\":\"sat\",\"self_us\":120}]".to_string());
        let line = r.log_line(None);
        assert!(
            line.contains(",\"explain\":[{\"node\":3,\"op\":\"sat\",\"self_us\":120}],\"stats\":{"),
            "{line}"
        );
        let json = r.to_json();
        assert_eq!(json.get("plan").unwrap().as_arr().unwrap().len(), 1);
    }

    #[test]
    fn recorded_queries_round_trip_through_json() {
        set_enabled(true);
        record_query(summary(0xabcd));
        let doc = to_json();
        let text = doc.to_string();
        let parsed = lyric_trace::json::parse(&text).expect("valid JSON");
        let queries = parsed.get("queries").unwrap().as_arr().unwrap();
        assert!(queries
            .iter()
            .any(|q| q.get("query_hash").and_then(Json::as_str) == Some("000000000000abcd")));
        let mine = queries
            .iter()
            .find(|q| q.get("query_hash").and_then(Json::as_str) == Some("000000000000abcd"))
            .unwrap();
        assert_eq!(
            mine.get("stats").unwrap().get("pivots").unwrap().as_f64(),
            Some(3.0)
        );
        assert!(mine.get("resource").is_none(), "empty resource omitted");
    }

    #[test]
    fn disabled_recorder_drops_summaries() {
        set_enabled(false);
        let before = query_ring().pushed();
        record_query(summary(0xfeed));
        assert_eq!(query_ring().pushed(), before);
        set_enabled(true);
    }

    #[test]
    fn event_tick_is_false_while_disabled_and_samples_when_on() {
        set_events_enabled(false);
        assert!(!event_tick());
        set_events_enabled(true);
        let hits = (0..(sample_every() * 4)).filter(|_| event_tick()).count() as u64;
        assert!(
            hits >= 3,
            "roughly 1 in {} sampled, got {hits}",
            sample_every()
        );
        set_events_enabled(false);
    }
}
