//! Query-log schema compatibility and the pipeline contract.
//!
//! v2 lines carry the version and build members, and consumers written
//! against v1 keep working — pinned by running a v1 fixture line and a
//! freshly captured v2 line through the same parser and the same member
//! probes. The pipeline contract: at every instrumentation level, every
//! source-text query — answered, rejected by the analyzer, or aborted on
//! budget — leaves exactly one record, and the query-log line and the
//! flight-ring entry are that same record. One `#[test]`, because the
//! capture sink is process-global.

use lyric::engine::EngineBudget;
use lyric::metrics::querylog;
use lyric::trace::json::{parse, Json};
use lyric::trace::stats::COUNTER_NAMES;
use lyric::{execute_shared, paper_example, ExecOptions, Instrument, RunSpec};

/// A query-log line as this repo emitted it before the v2 prefix
/// (no `v`, no `git_rev`). Frozen verbatim: if this stops parsing, a
/// consumer of archived logs breaks.
const V1_FIXTURE: &str = "{\"query_hash\":\"159e09cddc8e355c\",\"query\":\"SELECT X FROM Desk X\",\
\"outcome\":\"ok\",\"rows\":1,\"duration_us\":287,\"threads\":1,\"trace_id\":41,\
\"stats\":{\"pivots\":7,\"cache_hits\":2}}";

fn probe_common_members(line: &Json) {
    for key in [
        "query_hash",
        "outcome",
        "rows",
        "duration_us",
        "threads",
        "trace_id",
        "stats",
    ] {
        assert!(line.get(key).is_some(), "missing {key}");
    }
    assert_eq!(line.get("outcome").unwrap().as_str(), Some("ok"));
}

#[test]
fn v1_fixture_and_live_v2_lines_parse_identically() {
    // The archived v1 shape still parses and answers the same probes.
    let v1 = parse(V1_FIXTURE).expect("v1 fixture parses");
    probe_common_members(&v1);
    assert!(v1.get("v").is_none(), "fixture predates the version member");

    // A line captured from the live logger is v2: same body, prefixed
    // with the schema version and the build's git revision.
    let db = paper_example::database();
    lyric::metrics::set_enabled(true);
    let buf = querylog::capture();
    let query = "SELECT X FROM Desk X";
    let res = execute_shared(&db, query, &ExecOptions::default());
    querylog::set_sink(None);
    res.expect("query evaluates");

    let captured = String::from_utf8(buf.lock().unwrap().clone()).expect("log is UTF-8");
    let hash = format!("{:016x}", querylog::query_hash(query));
    let line = captured
        .lines()
        .find(|l| l.contains(&hash))
        .expect("the query logged while captured");
    let v2 = parse(line).expect("v2 line parses");
    probe_common_members(&v2);
    assert_eq!(
        v2.get("v").unwrap().as_f64(),
        Some(querylog::SCHEMA_VERSION as f64),
        "live lines carry the schema version"
    );
    let rev = v2
        .get("git_rev")
        .unwrap()
        .as_str()
        .expect("git_rev is a string");
    assert!(!rev.is_empty());

    pipeline_contract(&db);
}

/// The {Off, Trace, Explain} × {ok, analyzer rejection, budget abort}
/// table: one log line and one ring entry per query, agreeing on every
/// member both carry. Budget aborts carry the work done before the abort.
fn pipeline_contract(db: &lyric::oodb::Database) {
    const OK: &str = "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]";
    const REJECTED: &str = "SELECT X FROM Desk X WHERE X.bogus[Y]";
    const HEAVY: &str = "SELECT CO, ((u,v) | E AND D AND x = 6 AND y = 4)
         FROM Office_Object CO WHERE CO.extent[E] AND CO.translation[D]";
    lyric::flight::recorder::set_enabled(true);
    let buf = querylog::capture();
    let mut cases = Vec::new();
    for (i, instrument) in [Instrument::Off, Instrument::Trace, Instrument::Explain]
        .into_iter()
        .enumerate()
    {
        for (outcome, text, budget) in [
            ("ok", OK, EngineBudget::unlimited()),
            ("error", REJECTED, EngineBudget::unlimited()),
            (
                "budget_exceeded",
                HEAVY,
                EngineBudget::unlimited().with_max_pivots(1),
            ),
        ] {
            // Trailing blanks key every case by a unique query text.
            let src = format!("{text}{}", " ".repeat(i + 1));
            let spec = RunSpec {
                opts: ExecOptions::default().with_threads(2).with_budget(budget),
                instrument,
            };
            let out = lyric::run(db, &src, &spec);
            assert_eq!(
                out.result.is_ok(),
                outcome == "ok",
                "{instrument:?} {outcome}"
            );
            cases.push((src, outcome, instrument));
        }
    }
    querylog::set_sink(None);
    let captured = String::from_utf8(buf.lock().unwrap().clone()).expect("log is UTF-8");
    let ring = lyric::flight::recorder::recent_queries();

    for (src, outcome, instrument) in &cases {
        let case = format!("{instrument:?} {outcome}");
        let hash = querylog::query_hash(src);
        let hex = format!("{hash:016x}");
        let lines: Vec<Json> = captured
            .lines()
            .filter(|l| l.contains(&hex))
            .map(|l| parse(l).expect("log line parses"))
            .collect();
        assert_eq!(lines.len(), 1, "{case}: exactly one log line");
        let entries: Vec<_> = ring.iter().filter(|q| q.query_hash == hash).collect();
        assert_eq!(entries.len(), 1, "{case}: exactly one ring entry");
        let (line, entry) = (&lines[0], entries[0]);

        let num = |key: &str| line.get(key).and_then(Json::as_f64);
        assert_eq!(
            line.get("query_hash").and_then(Json::as_str),
            Some(hex.as_str())
        );
        assert_eq!(
            line.get("outcome").and_then(Json::as_str),
            Some(*outcome),
            "{case}"
        );
        assert_eq!(entry.outcome, *outcome, "{case}");
        assert_eq!(num("rows"), Some(entry.rows as f64), "{case}: rows");
        assert_eq!(num("threads"), Some(2.0), "{case}: threads");
        assert_eq!(entry.threads, 2, "{case}: threads");
        assert_eq!(
            num("trace_id"),
            Some(entry.trace_id as f64),
            "{case}: trace_id"
        );
        let stats = line.get("stats").expect("stats member");
        for (name, value) in COUNTER_NAMES.iter().zip(entry.stats.counters()) {
            assert_eq!(
                stats.get(name).and_then(Json::as_f64),
                Some(value as f64),
                "{case}: stats.{name}"
            );
        }
        match *outcome {
            "ok" => assert!(entry.rows > 0 && entry.trace_id > 0, "{case}"),
            "budget_exceeded" => assert!(entry.stats.pivots > 0, "{case}: partial counters"),
            _ => assert_eq!(entry.rows, 0, "{case}"),
        }
    }
}
