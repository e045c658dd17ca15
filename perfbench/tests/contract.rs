//! The benchmark's own test, at tiny scale: every metric `BENCHMARK.json`
//! names is printed with its unit, and a traced run's layer self times
//! plus the harness's own add up to its wall time.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 2] = ["paper-suite-16", "serve-flash-64"];

/// Self times and wall agree to 1% of the wall plus 1 ms: the wall is
/// read from its own clock pair, outside the root span.
const TOLERANCE_FRAC: f64 = 0.01;
const TOLERANCE_S: f64 = 0.001;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(entry[at..at + entry[at..].find('"')?].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|e| {
            (
                field(e, "name").expect("name"),
                field(e, "unit").expect("unit"),
            )
        })
        .collect()
}

fn perfbench(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .env_remove("HTM_SIM_SCHEDULER")
        .output()
        .expect("perfbench starts");
    assert!(out.status.success(), "perfbench {args:?} failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn check_result(workload: &str, trace: &str, section: &str) {
    let stdout = perfbench(&[
        "--workload",
        workload,
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--scale",
        "tiny",
    ]);
    let last = stdout.lines().last().expect("some output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": ") && last.contains("\"failed\": 0,"),
        "{workload}: {last}"
    );
    for (name, unit) in declared(section) {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&key)
            .unwrap_or_else(|| panic!("{workload}: {name} missing from {last}"));
        let rest = &last[at + key.len()..];
        let (value, rest) = rest.split_once(',').expect("value, then unit");
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("{workload}: {name} = {value} is not a number"));
        assert!(
            rest.starts_with(&format!(" \"unit\": \"{unit}\"}}")),
            "{workload}: {name} lacks unit {unit}"
        );
    }
}

#[test]
fn every_end_to_end_metric_is_printed_with_its_unit() {
    for w in WORKLOADS {
        check_result(w, "0", "end_to_end");
    }
}

#[test]
fn every_per_layer_metric_is_printed_with_its_unit() {
    for w in WORKLOADS {
        check_result(w, "1", "per_layer");
    }
}

#[test]
fn traced_self_times_add_up_to_the_wall() {
    for w in WORKLOADS {
        let spans = format!("{}/spans-{w}.jsonl", env!("CARGO_TARGET_TMPDIR"));
        let stdout = perfbench(&[
            "--once",
            "--workload",
            w,
            "--seed",
            "1",
            "--scale",
            "tiny",
            "--spans",
            &spans,
        ]);
        let values: BTreeMap<&str, f64> = stdout
            .lines()
            .filter_map(|l| l.strip_prefix("value "))
            .map(|l| {
                let (k, v) = l.split_once(' ').expect("name value");
                (k, v.parse().expect("number"))
            })
            .collect();
        // Span self times: every layer's `*_s` metric except the wall.
        let selfs: Vec<(&str, f64)> = values
            .iter()
            .filter(|(k, _)| k.contains('.') && k.ends_with("_s") && **k != "bench.traced_wall_s")
            .map(|(k, v)| (*k, *v))
            .collect();
        for layer in [
            "tm-ir.",
            "stagger-compiler.",
            "tm-interp.",
            "htm-sim.",
            "workloads.",
            "bench.",
        ] {
            assert!(
                selfs.iter().any(|(k, _)| k.starts_with(layer)),
                "{w}: no span of layer {layer}"
            );
        }
        let sum: f64 = selfs.iter().map(|(_, v)| v).sum();
        let wall = values["wall_s"];
        assert!(
            (sum - wall).abs() <= wall * TOLERANCE_FRAC + TOLERANCE_S,
            "{w}: self times sum to {sum} s, wall is {wall} s"
        );
        let lines = std::fs::read_to_string(&spans).expect("spans written");
        assert!(lines.lines().count() > 1);
        for l in lines.lines() {
            for field in [
                "\"name\":",
                "\"start_ns\":",
                "\"end_ns\":",
                "\"parent\":",
                "\"cell\":",
            ] {
                assert!(l.contains(field), "{w}: span lacks {field}: {l}");
            }
        }
    }
}
