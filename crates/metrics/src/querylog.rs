//! A structured JSON query log: one line per executed query.
//!
//! # Schema (v2)
//!
//! Every line is a self-contained JSON object:
//!
//! ```json
//! {"v":2,"query_hash":"b51c3e4f9a21d807","git_rev":"13d0522",
//!  "outcome":"ok","rows":12,"duration_us":1834,"threads":4,
//!  "trace_id":117,"slow":false,"stats":{"pivots":96,"lp_runs":24,...}}
//! ```
//!
//! * `v` — schema version, currently [`SCHEMA_VERSION`] (2). v1 lines
//!   (no `v`, no `git_rev`) remain parseable; consumers should treat a
//!   missing `v` as 1.
//! * `query_hash` — FNV-1a 64-bit hash of the query source, hex; stable
//!   across runs so log lines for the same query aggregate.
//! * `git_rev` — the build's short git revision ([`crate::build`]), so
//!   log lines from mixed deployments attribute to the right build.
//!   New in v2.
//! * `outcome` — `"ok"`, `"budget_exceeded"` (plus a `"resource"`
//!   field), or `"error"`.
//! * `trace_id` — the engine context generation, matching the per-query
//!   memo-cache generation; unique per context within a process run.
//! * `stats` — the per-query engine counters, keyed like
//!   `EngineStats::COUNTER_NAMES`.
//! * `slow` — present and `true` when `LYRIC_SLOW_MS` is configured and
//!   the query met the threshold.
//! * `explain` — present only when slow-query forensics
//!   (`LYRIC_SLOW_EXPLAIN=1` plus a threshold) ran the query explained:
//!   the top plan nodes by exclusive time.
//!
//! Lines are rendered from the finished query's one record,
//! `lyric_flight::QuerySummary::log_line`; this module owns the sink, the
//! thresholds and the schema version.
//!
//! The full member-by-member schema (both versions) is documented in
//! DESIGN.md §4g.
//!
//! # Sinks and thresholds
//!
//! The log is off until a sink is installed — [`set_sink`]/[`capture`]
//! in code, or the `LYRIC_QUERY_LOG` environment variable (`stderr` or a
//! file path, appended). When `LYRIC_SLOW_MS` (or [`set_slow_ms`]) is
//! set, only queries at or above the threshold are written — a classic
//! slow-query log — and each one also bumps the
//! `lyric_slow_queries_total` counter. Lines are written atomically
//! under one mutex, so concurrent queries never interleave bytes.

use std::io::Write;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, OnceLock};

/// The query-log line schema version (the `v` member).
/// Bumped to 2 when `git_rev` (and the `v` member itself) were added;
/// v1 lines carry neither.
pub const SCHEMA_VERSION: u64 = 2;

/// FNV-1a 64-bit hash of a query's source text.
pub fn query_hash(src: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in src.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

type Sink = Box<dyn Write + Send>;

fn sink_slot() -> &'static Mutex<Option<Sink>> {
    static SINK: OnceLock<Mutex<Option<Sink>>> = OnceLock::new();
    static ENV: Once = Once::new();
    let slot = SINK.get_or_init(|| Mutex::new(None));
    ENV.call_once(|| {
        if let Ok(target) = std::env::var("LYRIC_QUERY_LOG") {
            let target = target.trim().to_string();
            let sink: Option<Sink> = if target.is_empty() {
                None
            } else if target == "stderr" || target == "-" {
                Some(Box::new(std::io::stderr()))
            } else {
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&target)
                    .ok()
                    .map(|f| Box::new(f) as Sink)
            };
            if sink.is_some() {
                *lock(slot) = sink;
            }
        }
    });
    slot
}

/// Install (or, with `None`, remove) the query-log sink. Whole lines are
/// written and flushed under one lock, so writers never interleave.
pub fn set_sink(sink: Option<Box<dyn Write + Send>>) {
    *lock(sink_slot()) = sink;
}

/// True when a sink is installed (callers can skip building records).
pub fn active() -> bool {
    lock(sink_slot()).is_some()
}

struct BufSink(Arc<Mutex<Vec<u8>>>);

impl Write for BufSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        lock(&self.0).extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Install an in-memory sink and return the shared buffer — the test and
/// smoke-binary hook for asserting on log output.
pub fn capture() -> Arc<Mutex<Vec<u8>>> {
    let buf = Arc::new(Mutex::new(Vec::new()));
    set_sink(Some(Box::new(BufSink(Arc::clone(&buf)))));
    buf
}

/// Slow threshold in milliseconds; negative = unset. Initialized from
/// `LYRIC_SLOW_MS` once, overridable via [`set_slow_ms`].
fn slow_cell() -> &'static AtomicI64 {
    static SLOW: OnceLock<AtomicI64> = OnceLock::new();
    SLOW.get_or_init(|| {
        let from_env = std::env::var("LYRIC_SLOW_MS")
            .ok()
            .and_then(|s| s.trim().parse::<i64>().ok())
            .filter(|&v| v >= 0);
        AtomicI64::new(from_env.unwrap_or(-1))
    })
}

/// Override the slow-query threshold (`None` clears it, logging every
/// query again).
pub fn set_slow_ms(ms: Option<u64>) {
    slow_cell().store(ms.map_or(-1, |v| v as i64), Ordering::Relaxed);
}

/// The configured slow-query threshold, if any.
pub fn slow_ms() -> Option<u64> {
    let v = slow_cell().load(Ordering::Relaxed);
    (v >= 0).then_some(v as u64)
}

/// Whether slow-query log lines should carry an explain-analyze summary;
/// 0 = off, 1 = on, unset = read `LYRIC_SLOW_EXPLAIN` once.
fn slow_explain_cell() -> &'static AtomicI64 {
    static SLOW_EXPLAIN: OnceLock<AtomicI64> = OnceLock::new();
    SLOW_EXPLAIN.get_or_init(|| {
        let on = std::env::var("LYRIC_SLOW_EXPLAIN")
            .map(|s| {
                let s = s.trim().to_ascii_lowercase();
                s == "1" || s == "on" || s == "true"
            })
            .unwrap_or(false);
        AtomicI64::new(i64::from(on))
    })
}

/// Override the slow-explain gate (the `LYRIC_SLOW_EXPLAIN` default).
pub fn set_slow_explain(on: bool) {
    slow_explain_cell().store(i64::from(on), Ordering::Relaxed);
}

/// True when slow-query lines should carry an explain-analyze summary:
/// the gate is on **and** a slow threshold is configured (without a
/// threshold every query would pay the explain instrumentation).
pub fn slow_explain() -> bool {
    slow_explain_cell().load(Ordering::Relaxed) != 0 && slow_ms().is_some()
}

fn slow_counter() -> &'static crate::Counter {
    static C: OnceLock<crate::Counter> = OnceLock::new();
    C.get_or_init(|| {
        crate::global().counter(
            "lyric_slow_queries_total",
            "Queries at or above the LYRIC_SLOW_MS threshold.",
        )
    })
}

pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Log one query that ran for `duration_us`. A no-op when metrics are
/// disabled or no sink is installed; when a slow threshold is configured,
/// only queries at or above it are written (each also bumping
/// `lyric_slow_queries_total`). `line` renders the JSON line (no trailing
/// newline) from the slow verdict — `None` without a threshold — and runs
/// only when the line is written.
pub fn log(duration_us: u64, line: impl FnOnce(Option<bool>) -> String) {
    if !crate::enabled() || !active() {
        return;
    }
    let slow = slow_ms().map(|thr| duration_us >= thr.saturating_mul(1000));
    match slow {
        Some(false) => return,
        Some(true) => slow_counter().inc(),
        None => {}
    }
    let mut line = line(slow);
    line.push('\n');
    if let Some(sink) = lock(sink_slot()).as_mut() {
        let _ = sink.write_all(line.as_bytes());
        let _ = sink.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_hash_is_stable() {
        assert_eq!(query_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(query_hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(query_hash("SELECT X"), query_hash("SELECT  X"));
    }

    /// One test for everything that touches the process-global sink and
    /// thresholds, so parallel unit tests never race on them.
    #[test]
    fn slow_threshold_gates_lines_and_the_explain_gate() {
        crate::set_enabled(true);
        let buf = capture();
        set_slow_ms(Some(5));
        log(4_999, |_| {
            unreachable!("under the threshold nothing renders")
        });
        log(5_000, |slow| format!("{{\"slow\":{}}}", slow.unwrap()));
        set_slow_ms(None);
        log(1, |slow| format!("{{\"slow\":{}}}", slow.is_some()));
        set_sink(None);
        let text = String::from_utf8(lock(&buf).clone()).unwrap();
        assert_eq!(text, "{\"slow\":true}\n{\"slow\":false}\n");

        set_slow_explain(true);
        assert!(!slow_explain(), "no threshold, nothing to attach to");
        set_slow_ms(Some(5));
        assert!(slow_explain());
        set_slow_explain(false);
        assert!(!slow_explain());
        set_slow_ms(None);
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
