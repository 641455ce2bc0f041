//! Runs every workload at a tiny size, untraced and traced, and checks
//! that each metric `BENCHMARK.json` names is printed with its unit, that
//! the correctness gate ran and passed, and that the seed alone decides
//! the generated inputs.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use std::process::Command;

const WORKLOADS: [&str; 3] = ["spend-peak", "spend-latency", "query-mix"];
const CHECKS: [&str; 6] = [
    "inputs_reproducible",
    "no_violations",
    "coin_total_equals_minted",
    "spends_committed_once",
    "orderer_chains_identical",
    "peer_height_equals_orderer",
];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                let at = entry.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
                let rest = &entry[at..];
                let open = rest.find('"').expect("string value") + 1;
                let close = open + rest[open..].find('"').expect("closed string");
                rest[open..close].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark; returns (details line, result line).
fn run(workload: &str, seed: u64, trace: bool) -> (String, String) {
    let work = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{workload}-{seed}-{trace}"));
    std::fs::create_dir_all(&work).expect("scratch directory");
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
            "--tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(&work)
        .output()
        .expect("run the benchmark");
    let _ = std::fs::remove_dir_all(&work);
    let stdout = String::from_utf8_lossy(&output.stdout).to_string();
    assert!(
        output.status.success(),
        "{workload}: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let mut lines = stdout.lines().rev();
    let result = lines.next().expect("result line").to_string();
    let details = lines.next().expect("details line").to_string();
    (details, result)
}

fn assert_metrics(workload: &str, result: &str, metrics: &[(String, String)]) {
    assert!(
        result.starts_with("{\"correct\": true, \"attempted\": "),
        "{workload}: {result}"
    );
    for (name, unit) in metrics {
        let expected = format!("\"{name}\": {{\"value\": ");
        let at = result
            .find(&expected)
            .unwrap_or_else(|| panic!("{workload}: {name} missing in {result}"));
        let rest = &result[at + expected.len()..];
        let value: f64 = rest[..rest.find(',').expect("value ends")]
            .parse()
            .expect("numeric value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert!(
            rest.contains(&format!("\"unit\": \"{unit}\"")),
            "{workload}: {name} unit"
        );
    }
}

fn digest(details: &str) -> String {
    let at = details
        .find("\"inputs_sha256\": \"")
        .expect("digest printed")
        + 18;
    details[at..at + 64].to_string()
}

#[test]
fn every_workload_emits_every_metric_and_passes_the_gate() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end
        .iter()
        .any(|(name, unit)| name == "setup_s" && unit == "s"));
    for workload in WORKLOADS {
        for trace in [false, true] {
            let (details, result) = run(workload, 1, trace);
            for check in CHECKS {
                assert!(
                    details.contains(&format!("\"{check}\": true")),
                    "{workload}: {check} in {details}"
                );
            }
            assert_metrics(
                workload,
                &result,
                if trace { &per_layer } else { &end_to_end },
            );
        }
    }
}

#[test]
fn the_seed_alone_decides_the_inputs() {
    let (first, _) = run("spend-latency", 7, false);
    let (again, _) = run("spend-latency", 7, false);
    let (other, _) = run("spend-latency", 8, false);
    assert_eq!(digest(&first), digest(&again));
    assert_ne!(digest(&first), digest(&other));
}

#[test]
fn a_bad_argument_fails_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("run the benchmark");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
