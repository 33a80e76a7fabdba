//! The traced pass: the same op stream, one op at a time, with every
//! layer timed from outside through its public functions. Nothing inside
//! the program is switched on or instrumented beyond the span collector
//! `execute_traced_with_options` already has.

use crate::gen::{check, item_oid, region, Op, Shape};
use crate::http::Client;
use crate::run::{exec_options, reply_rows, rows_text, Program, RunResult};
use crate::{Config, Metric};
use lyric::ast::Query;
use lyric::constraint::Interval;
use lyric::engine::SpanKind;
use lyric::oodb::{Database, Oid};
use lyric::store::{index_for, StoreIndex};
use lyric::trace::stats::COUNTER_NAMES;
use lyric::trace::Trace;
use lyric::AnalyzerOptions;
use lyric_arith::Rational;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Evaluator spans folded into per-op self time, by metric name.
const SPAN_METRICS: [(SpanKind, &str); 11] = [
    (SpanKind::FromBind, "eval.from_bind_ms"),
    (SpanKind::Where, "eval.where_ms"),
    (SpanKind::Compare, "eval.compare_ms"),
    (SpanKind::PathPred, "eval.path_pred_ms"),
    (SpanKind::SatCheck, "eval.sat_check_ms"),
    (SpanKind::EntailCheck, "eval.entail_check_ms"),
    (SpanKind::SelectItem, "eval.select_item_ms"),
    (SpanKind::Instantiate, "eval.instantiate_ms"),
    (SpanKind::Optimize, "eval.optimize_ms"),
    (SpanKind::Worker, "eval.worker_ms"),
    (SpanKind::LpSolve, "simplex.lp_solve_ms"),
];

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Time one call.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// The index probe the engine plans for an op, called directly on the
/// cached index. `None` for shapes with no index-answerable conjunct.
fn probe(idx: &StoreIndex, shape: Shape) -> Option<Duration> {
    let at_least = |lo: i64| Some((Rational::from_int(lo), false));
    let (hits, took) = match shape {
        Shape::WeightEq(k) => timed(|| idx.probe_eq("Item", "weight", &Oid::Int(k))),
        Shape::WeightGe(lo) => {
            let window = Interval::of_bounds(at_least(lo), None);
            timed(|| idx.probe_range("Item", "weight", &window))
        }
        Shape::Window(lo) => {
            let window = [
                Interval::of_bounds(at_least(lo), Some((Rational::from_int(lo + 10), false))),
                Interval::of_bounds(at_least(0), None),
            ];
            timed(|| idx.probe_box("Item", "region", &window))
        }
        Shape::Q4 => timed(|| idx.probe_eq("Desk", "color", &Oid::str("red"))),
        _ => return None,
    };
    black_box(hits);
    Some(took)
}

/// Sums over the pass; divided by the op count at the end.
#[derive(Default)]
struct Sums {
    ops: u64,
    failed: u64,
    requests: u64,
    overhead: f64,
    lex: Duration,
    parse: Duration,
    analyze: Duration,
    extent: Duration,
    extent_members: u64,
    write: Duration,
    probe: Duration,
    rebuilds: u64,
    spans: [f64; SPAN_METRICS.len()],
    eval_wall: Duration,
    traced: Duration,
    untraced: Duration,
    connects: u64,
    counters: [u64; COUNTER_NAMES.len()],
}

impl Sums {
    fn counter(&self, name: &str) -> u64 {
        let i = COUNTER_NAMES.iter().position(|n| *n == name);
        self.counters[i.expect("a counter name")]
    }

    fn fold(&mut self, trace: &Trace) {
        self.eval_wall += trace.total_duration();
        trace.root.walk(&mut |span, _| {
            if let Some(i) = SPAN_METRICS.iter().position(|(k, _)| *k == span.kind) {
                self.spans[i] += ms(span.self_time());
            }
        });
    }
}

/// `part / whole`, or 0 when nothing was counted.
fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The counters in a `POST /query` reply's `stats`, in
/// [`COUNTER_NAMES`] order.
fn reply_counters(json: &lyric::trace::Json) -> Option<[u64; COUNTER_NAMES.len()]> {
    let stats = json.get("stats")?;
    let mut out = [0; COUNTER_NAMES.len()];
    for (slot, name) in out.iter_mut().zip(COUNTER_NAMES) {
        *slot = stats.get(name)?.as_f64()? as u64;
    }
    Some(out)
}

/// The traced pass over `ops` for `--seconds`, against a fresh copy of
/// the database loaded here (timed as the store layer's load and index
/// build). HTTP workloads also send each op to the running server, whose
/// reply gives the serving overhead and the engine counters of the op's
/// first execution.
pub fn traced_pass(
    cfg: &Config,
    program: Program,
    bytes: &[u8],
    ops: &[Op],
) -> Result<RunResult, String> {
    let opts = exec_options(cfg.workload);
    let (db, load) = timed(|| lyric::snapshot::from_bytes(bytes));
    let mut db: Database = db.map_err(|e| format!("load: {e}"))?;
    let (mut index, build) = timed(|| index_for(&db));
    let mut client = match program {
        Program::Http(addr) => Some(Client::new(addr)),
        Program::InProcess(_) => None,
    };
    let mut s = Sums::default();
    let deadline = Instant::now() + Duration::from_secs(cfg.seconds);
    for op in ops {
        if Instant::now() >= deadline {
            break;
        }
        s.ops += 1;
        let (shape, text, expect) = match op {
            Op::Write { item, x, y } => {
                let (oid, value) = (item_oid(*item), region(*x, *y));
                let (res, took) = timed(|| db.set_attr(&oid, "region", value));
                s.write += took;
                s.failed += u64::from(res.is_err());
                continue;
            }
            Op::Read {
                shape,
                text,
                expect,
            } => (*shape, &**text, expect),
        };

        let mut served = None;
        if let Some(client) = client.as_mut() {
            let (reply, rt) = timed(|| client.post("/query", text));
            s.requests += 1;
            let json = reply
                .ok()
                .filter(|r| r.status == 200)
                .and_then(|r| lyric::trace::json::parse(&r.body).ok());
            let duration = json.as_ref().and_then(|j| j.get("duration_ms")?.as_f64());
            match (&json, duration) {
                (Some(json), Some(duration))
                    if reply_rows(json).is_some_and(|rows| check(&rows, expect)) =>
                {
                    s.overhead += ms(rt) - duration;
                    served = reply_counters(json);
                }
                _ => s.failed += 1,
            }
        }

        let (tokens, took) = timed(|| lyric::lex(text));
        s.lex += took;
        black_box(tokens.map_err(|e| e.to_string())?);
        let (query, took) = timed(|| lyric::parse_query(text));
        s.parse += took;
        let query = query.map_err(|e| e.to_string())?;
        let (diags, took) =
            timed(|| lyric::analyze(db.schema(), &query, &AnalyzerOptions::default()));
        s.analyze += took;
        black_box(diags);
        if let Query::Select(select) = &query {
            for from in &select.from {
                let (extent, took) = timed(|| db.extent(&from.class));
                s.extent += took;
                s.extent_members += extent.len() as u64;
            }
        }

        let (traced, took) = timed(|| lyric::execute_traced_with_options(&mut db, text, &opts));
        let (res, trace) = traced.map_err(|e| format!("traced execution: {e}"))?;
        s.fold(&trace);
        let counters = match client {
            Some(_) => served.unwrap_or_default(),
            None => {
                if !check(&rows_text(&res.rows), expect) {
                    s.failed += 1;
                }
                res.stats.counters()
            }
        };
        for (sum, v) in s.counters.iter_mut().zip(counters) {
            *sum += v;
        }

        let current = index_for(&db);
        let rebuilt = !Arc::ptr_eq(&current, &index);
        index = current;
        s.rebuilds += u64::from(rebuilt);
        if let Some(took) = probe(&index, shape) {
            s.probe += took;
        }
        // Tracing distortion, on ops whose traced run did not pay for an
        // index rebuild that the untraced rerun would then skip.
        if !rebuilt {
            let (res, untraced) = timed(|| lyric::execute_with_options(&mut db, text, &opts));
            res.map_err(|e| format!("untraced execution: {e}"))?;
            s.traced += took;
            s.untraced += untraced;
        }
    }
    s.connects = client.map_or(0, |c| c.connects);
    Ok(emit(s, load, build))
}

fn emit(s: Sums, load: Duration, build: Duration) -> RunResult {
    let n = s.ops.max(1) as f64;
    let per_op = |v: f64| v / n;
    let mut metrics = vec![
        Metric::new(
            "serve.overhead_ms",
            s.overhead / s.requests.max(1) as f64,
            "ms",
        ),
        Metric::new(
            "serve.connects_per_request",
            ratio(s.connects, s.requests),
            "count",
        ),
        Metric::new("core.lex_us", per_op(us(s.lex)), "us"),
        Metric::new("core.parse_us", per_op(us(s.parse)), "us"),
        Metric::new("core.analyze_us", per_op(us(s.analyze)), "us"),
        Metric::new("oodb.extent_ms", per_op(ms(s.extent)), "ms"),
        Metric::new("oodb.write_us", per_op(us(s.write)), "us"),
        Metric::new("store.snapshot_load_s", load.as_secs_f64(), "s"),
        Metric::new("store.index_build_s", build.as_secs_f64(), "s"),
        Metric::new("store.probe_us", per_op(us(s.probe)), "us"),
        Metric::new("store.rebuilds_per_op", per_op(s.rebuilds as f64), "count"),
        Metric::new(
            "store.pruned_frac",
            ratio(s.counter("index_pruned"), s.extent_members),
            "ratio",
        ),
    ];
    let attributed: f64 = s.spans.iter().sum();
    for ((_, name), v) in SPAN_METRICS.iter().zip(s.spans) {
        metrics.push(Metric::new(*name, per_op(v), "ms"));
    }
    metrics.push(Metric::new(
        "eval.unattributed_ms",
        per_op(ms(s.eval_wall) - attributed),
        "ms",
    ));
    for (name, v) in COUNTER_NAMES.iter().zip(s.counters) {
        metrics.push(Metric::new(
            format!("engine.{name}"),
            per_op(v as f64),
            "count",
        ));
    }
    metrics.extend([
        Metric::new(
            "engine.box_prune_frac",
            ratio(s.counter("box_prunes"), s.counter("box_checks")),
            "ratio",
        ),
        Metric::new(
            "engine.cache_hit_rate",
            ratio(
                s.counter("cache_hits"),
                s.counter("cache_hits") + s.counter("cache_misses"),
            ),
            "ratio",
        ),
        Metric::new(
            "engine.arith_small_frac",
            ratio(
                s.counter("arith_small_ops"),
                s.counter("arith_small_ops") + s.counter("arith_big_ops"),
            ),
            "ratio",
        ),
        Metric::new(
            "trace.distortion",
            if s.untraced.is_zero() {
                0.0
            } else {
                s.traced.as_secs_f64() / s.untraced.as_secs_f64() - 1.0
            },
            "ratio",
        ),
    ]);
    RunResult {
        attempted: s.ops,
        failed: s.failed,
        metrics,
    }
}
