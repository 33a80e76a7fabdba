//! The program under test: set-up from snapshot bytes, and the untraced
//! closed-loop run that yields the end-to-end metrics.

use crate::gen::{self, check, item_oid, region, Op};
use crate::http::{Client, Reply};
use crate::{Config, Metric, Workload};
use lyric::engine::{EngineBudget, DNF_PARALLEL_MIN_PAIRS, MIN_PARALLEL_ITEMS};
use lyric::oodb::{Database, Oid};
use lyric::trace::Json;
use lyric::ExecOptions;
use lyric_serve::Server;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Ops generated per second of `--seconds`, far above any rate measured
/// so far; a run that exhausts the stream stops early and says so.
const OPS_PER_SECOND_CAP: usize = 3000;

/// The options every workload query runs under, set field by field so
/// no environment default leaks in: `lyric-serve`'s defaults with the
/// thread budget pinned.
pub fn exec_options(workload: Workload) -> ExecOptions {
    ExecOptions::default()
        .with_budget(EngineBudget::unlimited())
        .with_cache(true)
        .with_threads(workload.engine_threads())
        .with_min_parallel(MIN_PARALLEL_ITEMS)
        .with_dnf_min_pairs(DNF_PARALLEL_MIN_PAIRS)
        .with_arith_fast(true)
        .with_boxes(true)
        .with_index(true)
}

/// The reference evaluation behind the `office` oracle: serial, with the
/// memo cache, interval boxes and the store index all off.
fn reference_options() -> ExecOptions {
    exec_options(Workload::Office)
        .with_threads(1)
        .with_cache(false)
        .with_boxes(false)
        .with_index(false)
}

/// The first query of a fresh program: it builds the store index.
fn warm_up_query(workload: Workload) -> String {
    match workload {
        Workload::Office => gen::Q4.to_string(),
        Workload::Probe | Workload::Ingest => lyric_bench::workload::q_weight_eq(0),
    }
}

/// The workload database as snapshot bytes, the form the program loads.
pub fn snapshot_bytes(cfg: &Config) -> Vec<u8> {
    let n = cfg.workload.size(cfg.tiny);
    let db = match cfg.workload {
        Workload::Office => lyric_bench::workload::office_db(n, cfg.seed),
        Workload::Probe | Workload::Ingest => lyric_bench::workload::scaling_db(n, cfg.seed),
    };
    lyric::snapshot::to_bytes(&db).expect("a generated database serializes")
}

/// Rows as the text of each oid, the form `POST /query` replies with.
pub fn rows_text(rows: &[Vec<Oid>]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|row| row.iter().map(Oid::to_string).collect())
        .collect()
}

/// The `rows` of a `POST /query` reply, or `None` if it is not one.
pub fn reply_rows(json: &Json) -> Option<Vec<Vec<String>>> {
    json.get("rows")?
        .as_arr()?
        .iter()
        .map(|row| {
            row.as_arr()?
                .iter()
                .map(|cell| cell.as_str().map(str::to_string))
                .collect()
        })
        .collect()
}

/// Is this reply a 200 whose rows match the expectation?
fn reply_ok(reply: &Reply, expect: &gen::Expect) -> bool {
    reply.status == 200
        && lyric::trace::json::parse(&reply.body)
            .ok()
            .and_then(|json| reply_rows(&json))
            .is_some_and(|rows| check(&rows, expect))
}

/// The op stream of a run, with every expected answer, built before any
/// clock starts.
pub fn ops(cfg: &Config, bytes: &[u8]) -> Vec<Op> {
    let len = cfg.seconds as usize * OPS_PER_SECOND_CAP;
    let n = cfg.workload.size(cfg.tiny);
    match cfg.workload {
        Workload::Office => {
            let db = lyric::snapshot::from_bytes(bytes).expect("snapshot loads");
            let opts = reference_options();
            gen::office_ops(cfg.seed, len, |text| {
                let res = lyric::execute_shared(&db, text, &opts)
                    .unwrap_or_else(|e| panic!("reference evaluation failed: {e}\n{text}"));
                rows_text(&res.rows)
            })
        }
        Workload::Probe => gen::probe_ops(cfg.seed, &gen::draw_items(n, cfg.seed), len),
        Workload::Ingest => gen::ingest_ops(cfg.seed, &gen::draw_items(n, cfg.seed), len),
    }
}

/// A program ready to answer: an HTTP server, or a database in hand.
pub enum Program {
    Http(SocketAddr),
    InProcess(Database),
}

/// Start the program from snapshot bytes: load, bind and spawn the
/// server (HTTP workloads), and run the warm-up query that builds the
/// store index. Returns the program and the seconds this took.
pub fn set_up(workload: Workload, bytes: &[u8]) -> Result<(Program, f64), String> {
    let opts = exec_options(workload);
    let warm_up = warm_up_query(workload);
    let started = Instant::now();
    let mut db = lyric::snapshot::from_bytes(bytes).map_err(|e| format!("load: {e}"))?;
    let program = if workload.http() {
        lyric::metrics::build::register_build_info();
        lyric::flight::recorder::enable_events_default();
        let addr = Server::bind("127.0.0.1:0", Arc::new(db), opts)
            .and_then(Server::spawn)
            .map_err(|e| format!("start the server: {e}"))?;
        let reply = Client::new(addr)
            .post("/query", &warm_up)
            .map_err(|e| format!("warm-up query: {e}"))?;
        if reply.status != 200 {
            return Err(format!("warm-up query answered {}", reply.status));
        }
        Program::Http(addr)
    } else {
        lyric::execute_with_options(&mut db, &warm_up, &opts)
            .map_err(|e| format!("warm-up query: {e}"))?;
        Program::InProcess(db)
    };
    Ok((program, started.elapsed().as_secs_f64()))
}

/// What a closed-loop run saw.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Latency of every verified op, in ms.
    latencies: Vec<f64>,
}

impl Tally {
    fn record(&mut self, ok: bool, started: Instant) {
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.attempted += 1;
        if ok {
            self.latencies.push(ms);
        } else {
            self.failed += 1;
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latencies.extend(other.latencies);
    }
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The result of one run: op counts plus its metrics.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The untraced closed loop: clients send the next op as soon as the
/// previous one is answered, until `--seconds` have passed. Every answer
/// is checked; wrong answers and errors count as failures.
pub fn measure(cfg: &Config, program: Program, ops: &[Op]) -> Result<RunResult, String> {
    let opts = exec_options(cfg.workload);
    let opened = Instant::now();
    let deadline = opened + std::time::Duration::from_secs(cfg.seconds);
    let tally = match program {
        Program::Http(addr) => {
            let next = AtomicUsize::new(0);
            let total = Mutex::new(Tally::default());
            std::thread::scope(|s| {
                for _ in 0..cfg.workload.clients() {
                    s.spawn(|| {
                        let mut client = Client::new(addr);
                        let mut mine = Tally::default();
                        while Instant::now() < deadline {
                            let Some(Op::Read { text, expect, .. }) =
                                ops.get(next.fetch_add(1, Ordering::Relaxed))
                            else {
                                break;
                            };
                            let t = Instant::now();
                            let reply = client.post("/query", text);
                            mine.record(reply.is_ok_and(|r| reply_ok(&r, expect)), t);
                        }
                        total.lock().expect("no client panicked").merge(mine);
                    });
                }
            });
            total.into_inner().expect("no client panicked")
        }
        Program::InProcess(mut db) => {
            let mut tally = Tally::default();
            for op in ops {
                if Instant::now() >= deadline {
                    break;
                }
                match op {
                    Op::Read { text, expect, .. } => {
                        let t = Instant::now();
                        let res = lyric::execute_with_options(&mut db, text, &opts);
                        tally.record(res.is_ok_and(|r| check(&rows_text(&r.rows), expect)), t);
                    }
                    Op::Write { item, x, y } => {
                        let (oid, value) = (item_oid(*item), region(*x, *y));
                        let t = Instant::now();
                        tally.record(db.set_attr(&oid, "region", value).is_ok(), t);
                    }
                }
            }
            tally
        }
    };
    let window = opened.elapsed().as_secs_f64();
    if tally.attempted as usize == ops.len() {
        eprintln!(
            "perfbench: the op stream ran out after {window:.2} s; the window is shorter than --seconds"
        );
    }
    let mut latencies = tally.latencies;
    if latencies.is_empty() {
        return Err(format!(
            "no op succeeded ({} attempted, {} failed)",
            tally.attempted, tally.failed
        ));
    }
    let verified = latencies.len() as f64;
    latencies.sort_by(f64::total_cmp);
    println!(
        "ops: attempted={} failed={} error_frac={} verified={verified} window_s={window:.3}",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted as f64,
    );
    Ok(RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            Metric::new("throughput_ops", verified / window, "ops/s"),
            Metric::new("latency_p50_ms", percentile(&latencies, 0.5), "ms"),
            Metric::new("latency_p90_ms", percentile(&latencies, 0.9), "ms"),
            Metric::new("success_frac", verified / tally.attempted as f64, "ratio"),
            Metric::new("peak_rss_mb", peak_rss_mb()?, "MB"),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: Workload) -> Config {
        Config {
            workload,
            seed: 5,
            seconds: 1,
            trace: false,
            tiny: true,
            role: None,
        }
    }

    /// Ways to spoil a right answer; each must fail the check.
    fn corruptions(rows: &[Vec<String>]) -> Vec<Vec<Vec<String>>> {
        let mut out = vec![];
        let mut extra = rows.to_vec();
        extra.push(
            rows.last()
                .cloned()
                .unwrap_or_else(|| vec!["item_0".into()]),
        );
        out.push(extra);
        if !rows.is_empty() {
            out.push(rows[1..].to_vec());
            let mut changed = rows.to_vec();
            changed[0][0].push('7');
            out.push(changed);
        }
        out
    }

    /// Run every op of a tiny stream through the engine under the
    /// workload's options: the oracle accepts each real answer and
    /// rejects every corruption of it.
    #[test]
    fn the_oracle_accepts_real_answers_and_flags_corrupted_ones() {
        for workload in [Workload::Office, Workload::Probe, Workload::Ingest] {
            let cfg = tiny(workload);
            let bytes = snapshot_bytes(&cfg);
            let mut db = lyric::snapshot::from_bytes(&bytes).unwrap();
            let opts = exec_options(workload);
            let mut corrupted = 0;
            for op in ops(&cfg, &bytes).iter().take(60) {
                match op {
                    Op::Read { text, expect, .. } => {
                        let res = lyric::execute_with_options(&mut db, text, &opts).unwrap();
                        let rows = rows_text(&res.rows);
                        assert!(check(&rows, expect), "{workload:?}: {text}");
                        for bad in corruptions(&rows) {
                            assert!(!check(&bad, expect), "{workload:?}: {bad:?} passed");
                            corrupted += 1;
                        }
                    }
                    Op::Write { item, x, y } => {
                        db.set_attr(&item_oid(*item), "region", region(*x, *y))
                            .unwrap();
                    }
                }
            }
            assert!(corrupted > 0, "{workload:?}");
        }
    }
}
