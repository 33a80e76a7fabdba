//! The repository benchmark: seeded workloads against the real program,
//! end-to-end metrics from an untraced run and per-layer metrics from a
//! separate traced run. See `perfbench/README.md` for the workloads and
//! metrics.
//!
//! ```text
//! perfbench --workload office|probe|ingest --seed N --seconds S --trace 0|1 [--tiny]
//! ```
//!
//! The process that parses these arguments generates the workload
//! database and hands it, as snapshot bytes on stdin, to child processes
//! of this same binary. Each child is one start of the program: some only
//! set up (for the set-up time samples), and one sets up and then runs
//! the workload. The generator's memory therefore never counts toward the
//! measured program's peak RSS, and every set-up starts from a fresh
//! process, as a server start does. The last line of standard output is
//! one JSON object with the results.

mod gen;
mod http;
mod layers;
mod run;

use lyric::trace::Json;
use std::io::{Read, Write};
use std::process::{Command, ExitCode, Stdio};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Office,
    Probe,
    Ingest,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "office" => Some(Workload::Office),
            "probe" => Some(Workload::Probe),
            "ingest" => Some(Workload::Ingest),
            _ => None,
        }
    }

    /// Objects in the workload database (`--tiny` for the self-check).
    pub fn size(self, tiny: bool) -> usize {
        match (self, tiny) {
            (Workload::Office, false) => 24,
            (Workload::Office, true) => 4,
            (Workload::Probe, false) => 50_000,
            (Workload::Probe, true) => 400,
            (Workload::Ingest, false) => 10_000,
            (Workload::Ingest, true) => 300,
        }
    }

    /// Set-up time samples per untraced run, one of them the run's own:
    /// more where a set-up is cheap and so relatively noisier.
    fn setup_samples(self) -> usize {
        match self {
            Workload::Office => 9,
            Workload::Probe => 3,
            Workload::Ingest => 5,
        }
    }

    /// Is the program reached over HTTP (else in process)?
    pub fn http(self) -> bool {
        self != Workload::Ingest
    }

    /// Closed-loop clients.
    pub fn clients(self) -> usize {
        match self {
            Workload::Probe => 2,
            Workload::Office | Workload::Ingest => 1,
        }
    }

    /// The engine's thread budget (`ExecOptions::threads`).
    pub fn engine_threads(self) -> usize {
        match self {
            Workload::Office | Workload::Probe => 2,
            Workload::Ingest => 1,
        }
    }
}

/// The command line.
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub tiny: bool,
    /// Set in child processes: `setup` or `run`.
    role: Option<String>,
}

impl Config {
    fn parse(args: &[String]) -> Result<Config, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (None, None, None);
        let mut tiny = false;
        let mut role = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
                }
                "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
                "--seconds" => seconds = Some(value()?.parse().map_err(|_| "bad --seconds")?),
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                "--tiny" => tiny = true,
                "--child" => role = Some(value()?),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let seconds: u64 = seconds.ok_or("--seconds is required")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Config {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            tiny,
            role,
        })
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let value = Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]);
                (m.name.clone(), value)
            })
            .collect(),
    )
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Start this binary as a child in `role`, feed it the snapshot bytes,
/// pass its output through, and return its last line as JSON.
fn child(args: &[String], role: &str, bytes: &[u8]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this binary: {e}"))?;
    let mut proc = Command::new(exe)
        .args(args)
        .args(["--child", role])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("start a {role} child: {e}"))?;
    let fed = proc.stdin.take().expect("stdin is piped").write_all(bytes);
    let out = proc
        .wait_with_output()
        .map_err(|e| format!("wait for the {role} child: {e}"))?;
    fed.map_err(|e| format!("feed the {role} child: {e}"))?;
    if !out.status.success() {
        return Err(format!("the {role} child failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines
        .pop()
        .ok_or(format!("the {role} child printed nothing"))?;
    for line in lines {
        println!("{line}");
    }
    lyric::trace::json::parse(last).map_err(|e| format!("the {role} child's result: {e}"))
}

/// The process the caller started: generate, start the children, merge.
fn parent(cfg: &Config, args: &[String]) -> Result<(), String> {
    println!(
        "perfbench: workload={:?} seed={} seconds={} trace={} nproc={} git_rev={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        lyric::metrics::build::git_rev(),
    );
    println!("options: {:?}", run::exec_options(cfg.workload));
    let bytes = run::snapshot_bytes(cfg);
    let mut setups = Vec::new();
    if !cfg.trace {
        for _ in 1..cfg.workload.setup_samples() {
            let json = child(args, "setup", &bytes)?;
            setups.push(
                json.get("setup_s")
                    .and_then(Json::as_f64)
                    .ok_or("no setup_s")?,
            );
        }
    }
    let json = child(args, "run", &bytes)?;
    let number = |key: &str| json.get(key).and_then(Json::as_f64);
    setups.push(number("setup_s").ok_or("no setup_s")?);
    let attempted = number("attempted").ok_or("no attempted")?;
    let failed = number("failed").ok_or("no failed")?;
    let Some(Json::Obj(mut metrics)) = json.get("metrics").cloned() else {
        return Err("no metrics".into());
    };
    if !cfg.trace {
        println!("setup_s samples: {setups:?}");
        let setup = Json::obj([
            ("value", Json::Num(median(&mut setups))),
            ("unit", Json::str("s")),
        ]);
        metrics.insert(0, ("setup_s".to_string(), setup));
    }
    let result = Json::obj([
        ("correct", Json::Bool(failed == 0.0)),
        ("attempted", Json::int(attempted as u64)),
        ("failed", Json::int(failed as u64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{result}");
    Ok(())
}

/// One start of the program, reading the snapshot bytes from stdin.
fn child_main(cfg: &Config, role: &str) -> Result<(), String> {
    let mut bytes = Vec::new();
    std::io::stdin()
        .read_to_end(&mut bytes)
        .map_err(|e| format!("read the snapshot: {e}"))?;
    // Resolve the build identity now: the server registers it at start,
    // and it may run `git`, which is no part of the set-up being timed.
    lyric::metrics::build::git_rev();
    let ops = match role {
        "setup" => Vec::new(),
        "run" => run::ops(cfg, &bytes),
        other => return Err(format!("unknown child role {other}")),
    };
    if role == "run" {
        println!(
            "op stream: {} ops, hash {:016x}",
            ops.len(),
            gen::stream_hash(&ops)
        );
    }
    let (program, setup_s) = run::set_up(cfg.workload, &bytes)?;
    let result = match (role, cfg.trace) {
        ("setup", _) => {
            println!("{}", Json::obj([("setup_s", Json::Num(setup_s))]));
            return Ok(());
        }
        (_, false) => run::measure(cfg, program, &ops)?,
        (_, true) => layers::traced_pass(cfg, program, &bytes, &ops)?,
    };
    for m in &result.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    if let Some(m) = result.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not a finite number", m.name));
    }
    let json = Json::obj([
        ("setup_s", Json::Num(setup_s)),
        ("attempted", Json::int(result.attempted)),
        ("failed", Json::int(result.failed)),
        ("metrics", metrics_json(&result.metrics)),
    ]);
    println!("{json}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let lyric_vars: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("LYRIC_"))
        .collect();
    let outcome = if !lyric_vars.is_empty() {
        Err(format!(
            "refusing to run with {} set: the benchmark pins every option itself",
            lyric_vars.join(", ")
        ))
    } else {
        Config::parse(&args).and_then(|cfg| match cfg.role.clone() {
            Some(role) => child_main(&cfg, &role),
            None => parent(&cfg, &args),
        })
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
