//! Smoke test of the benchmark itself: every workload at 1/10 scale
//! with two passes, through the real binaries.

use abrr_benchmark::metrics::{END_TO_END, PER_LAYER};
use abrr_benchmark::workloads::WORKLOADS;
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BENCH: &str = env!("CARGO_BIN_EXE_bench");
const BENCH_TRACED: &str = env!("CARGO_BIN_EXE_bench_traced");

fn run(bin: &str, workload: &str, extra: &[&str]) -> Output {
    let trace = if bin == BENCH { "0" } else { "1" };
    Command::new(bin)
        .args(["--workload", workload, "--trace", trace])
        .args(["--scale-div", "10", "--passes", "2"])
        .args(extra)
        .output()
        .expect("benchmark binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// `(name, unit)` of every `metric NAME VALUE UNIT` line.
fn printed_metrics(text: &str) -> Vec<(String, String)> {
    text.lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| {
            let mut f = l.split(' ');
            let name = f.next().expect("metric name").to_string();
            (name, f.nth(1).expect("metric unit").to_string())
        })
        .collect()
}

/// The last stdout line parsed as JSON.
fn result_line(text: &str) -> Value {
    serde::json::from_str(text.lines().last().expect("a result line")).expect("result is JSON")
}

fn names_and_units(list: &Value) -> Vec<(String, String)> {
    list.as_seq()
        .expect("a JSON list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn owned(defs: &[(&str, &str)]) -> Vec<(String, String)> {
    defs.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn tmp(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn names_match_benchmark_json() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let bench: Value = serde::json::from_str(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(Value::as_seq)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(
        workloads,
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
    );
    assert_eq!(
        names_and_units(bench.get("end_to_end").expect("end_to_end")),
        owned(&END_TO_END)
    );
    assert_eq!(
        names_and_units(bench.get("per_layer").expect("per_layer")),
        owned(&PER_LAYER)
    );
}

#[test]
fn end_to_end_runs_are_correct_and_repeat_exactly() {
    for w in &WORKLOADS {
        let first = run(BENCH, w.name, &[]);
        let text = stdout(&first);
        assert!(first.status.success(), "{}: {text}", w.name);
        assert_eq!(printed_metrics(&text), owned(&END_TO_END), "{}", w.name);
        let result = result_line(&text);
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(result.get("attempted"), Some(&Value::U64(2)));
        assert_eq!(result.get("failed"), Some(&Value::U64(0)));
        let metrics = result
            .get("metrics")
            .and_then(Value::as_map)
            .expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());

        // A second invocation reproduces every simulated count; only
        // host times may differ. (Pass-to-pass identity inside one run
        // is what `failed == 0` already asserts.)
        let again = stdout(&run(BENCH, w.name, &[]));
        let counts = |t: &str| {
            t.lines()
                .filter(|l| l.starts_with("passes ") || l.starts_with("metric updates_per_record"))
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        assert_eq!(counts(&text).len(), 2, "{text}");
        assert_eq!(counts(&text), counts(&again), "{}", w.name);
    }
}

#[test]
fn traced_runs_print_every_layer_metric_and_a_consistent_trace() {
    for w in &WORKLOADS {
        let out_dir = tmp(&format!("trace-{}", w.name));
        let out = run(
            BENCH_TRACED,
            w.name,
            &["--out-dir", out_dir.to_str().expect("utf-8 path")],
        );
        let text = stdout(&out);
        assert!(out.status.success(), "{}: {text}", w.name);
        assert_eq!(printed_metrics(&text), owned(&PER_LAYER), "{}", w.name);
        assert_eq!(result_line(&text).get("failed"), Some(&Value::U64(0)));

        let trace = std::fs::read_to_string(out_dir.join(format!("{}.trace.json", w.name)))
            .expect("trace file");
        let trace: Value = serde::json::from_str(&trace).expect("trace parses");
        let spans = trace.get("spans").and_then(Value::as_seq).expect("spans");
        let num = |s: &Value, k: &str| s.get(k).and_then(Value::as_u64).expect("number");
        let duration = |s: &Value| num(s, "end_ns") - num(s, "start_ns");
        // Self time is duration minus the direct children, span by
        // span, so over the whole tree it adds up to the root.
        let mut children = vec![0u64; spans.len()];
        for s in spans {
            if let Some(parent) = s.get("parent").and_then(Value::as_u64) {
                children[parent as usize] += duration(s);
            }
        }
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(num(s, "id"), i as u64);
            assert_eq!(num(s, "self_ns") + children[i], duration(s), "span {i}");
        }
        let root = &spans[0];
        assert_eq!(root.get("name").and_then(Value::as_str), Some("run"));
        assert_eq!(root.get("parent"), Some(&Value::Null));
        let total_self: u64 = spans.iter().map(|s| num(s, "self_ns")).sum();
        assert_eq!(total_self, duration(root), "{}", w.name);
    }
}

#[test]
fn a_wrong_expected_file_fails_the_run() {
    let w = &WORKLOADS[0];
    let dir = tmp("wrong-expected");
    let file = dir.join(format!("{}.20101220.div10.txt", w.name));
    std::fs::write(&file, "# golden fingerprint v1\nconfig something else\n").expect("write");
    let out = run(
        BENCH,
        w.name,
        &["--expected-dir", dir.to_str().expect("utf-8 path")],
    );
    let text = stdout(&out);
    assert!(!out.status.success(), "{text}");
    assert!(text.contains("ops_failed 2"), "{text}");
    let result = result_line(&text);
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
    assert_eq!(result.get("failed"), Some(&Value::U64(2)));
}
