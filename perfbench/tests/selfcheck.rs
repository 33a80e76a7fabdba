//! The benchmark's self-check: a tiny run of every workload, untraced and
//! traced, must print exactly the metrics `BENCHMARK.json` names, with
//! their units, and verify every op it sent.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use lyric::trace::json::{self, Json};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["office", "probe", "ingest"];

fn benchmark() -> Json {
    json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric listed under `key`, in file order.
fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// The benchmark binary with no `LYRIC_*` variable in its environment.
fn perfbench(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(args);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("LYRIC_") {
            cmd.env_remove(key);
        }
    }
    cmd
}

/// The last stdout line of a tiny run, parsed.
fn tiny_run(workload: &str, trace: &str) -> Json {
    let out = perfbench(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--tiny",
    ])
    .output()
    .expect("perfbench starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    json::parse(stdout.lines().last().expect("a result line")).expect("the result is JSON")
}

#[test]
fn every_workload_emits_every_declared_metric_and_verifies_every_op() {
    let doc = benchmark();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("a name"))
        .collect();
    assert_eq!(names, WORKLOADS);
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(&doc, key);
        for workload in WORKLOADS {
            let result = tiny_run(workload, trace);
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let unit = m.get("unit").and_then(Json::as_str).expect("a unit");
                    assert!(
                        m.get("value")
                            .and_then(Json::as_f64)
                            .is_some_and(f64::is_finite),
                        "{workload}: {name} has no finite value"
                    );
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(got, want, "{workload} trace={trace}");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            let attempted = result.get("attempted").and_then(Json::as_f64);
            assert!(attempted.is_some_and(|n| n >= 1.0), "{workload}");
        }
    }
}

#[test]
fn refuses_to_run_under_a_lyric_variable() {
    let args = [
        "--workload",
        "office",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ];
    let out = perfbench(&args)
        .arg("--tiny")
        .env("LYRIC_THREADS", "1")
        .output()
        .expect("perfbench starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result may be printed");
}
