//! Smoke test: every workload at `ScenarioConfig::tiny_test` size, untraced
//! and traced, must pass its checks and emit every metric of
//! `BENCHMARK.json` with its unit.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_cisp-perfbench");
const WORKLOADS: [&str; 3] = ["us_design", "us_backbone_sim", "us_weather_replay"];

/// The benchmark table the binary writes, as `BENCHMARK.json` text.
fn benchmark_json(tag: &str) -> String {
    let path = format!("{}/BENCHMARK-{tag}.json", env!("CARGO_TARGET_TMPDIR"));
    let status = Command::new(BIN)
        .args(["--write-benchmark-json", &path])
        .status()
        .expect("run the benchmark");
    assert!(status.success());
    std::fs::read_to_string(&path).expect("read the written table")
}

/// `(name, unit)` of every metric in one section of the table.
fn metrics(table: &str, section: &str) -> Vec<(String, String)> {
    let start = table
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &table[start..start + table[start..].find(']').unwrap()];
    body.lines()
        .filter_map(|line| {
            let field = |key: &str| {
                let tag = format!("\"{key}\": \"");
                let from = line.find(&tag)? + tag.len();
                Some(line[from..from + line[from..].find('"')?].to_string())
            };
            Some((field("name")?, field("unit")?))
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(BIN)
        .args([
            "--workload",
            workload,
            "--seed",
            "42",
            "--seconds",
            "0",
            "--trace",
            &trace.to_string(),
            "--scale",
            "tiny",
        ])
        .output()
        .expect("run the benchmark");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn committed_table_matches_the_binary() {
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    if let Ok(text) = std::fs::read_to_string(committed) {
        assert_eq!(
            text,
            benchmark_json("committed"),
            "regenerate BENCHMARK.json"
        );
    }
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let table = benchmark_json("emitted");
    let end_to_end = metrics(&table, "end_to_end");
    let per_layer = metrics(&table, "per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    assert!(per_layer.len() >= 40);
    for workload in WORKLOADS {
        for (trace, expected) in [(0u8, &end_to_end), (1, &per_layer)] {
            let line = run(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": ")
                    && line.contains("\"failed\": 0, \"metrics\": {"),
                "{workload} --trace {trace}: {line}"
            );
            for (name, unit) in expected.iter() {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}"));
                let rest = &line[at + entry.len()..];
                let value: f64 = rest[..rest.find(',').unwrap()].parse().unwrap();
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                assert!(
                    rest.starts_with(&format!(
                        "{}, \"unit\": \"{unit}\"}}",
                        &rest[..rest.find(',').unwrap()]
                    )),
                    "{workload}: {name} should be in {unit}"
                );
            }
        }
    }
}
