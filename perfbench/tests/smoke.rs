//! Tiny-size smoke run of every workload, bare and traced: each metric
//! `BENCHMARK.json` names must be printed with its unit, with no failed op.

use std::collections::BTreeMap;
use std::process::Command;

/// `(section, name) -> unit` for every metric in `BENCHMARK.json`, which
/// lists one metric object per line.
fn declared() -> BTreeMap<(String, String), String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let field = |line: &str, key: &str| {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    let mut section = String::new();
    let mut out = BTreeMap::new();
    for line in text.lines() {
        for s in ["workloads", "end_to_end", "per_layer"] {
            if line.trim_start().starts_with(&format!("\"{s}\"")) {
                section = s.to_string();
            }
        }
        if let (Some(name), Some(unit)) = (field(line, "name"), field(line, "unit")) {
            out.insert((section.clone(), name), unit);
        }
    }
    out
}

/// `name -> unit` printed on the last line of a run, plus its verdict.
fn run(workload: &str, trace: u8) -> (BTreeMap<String, String>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_orc-perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--tiny"])
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload}/{trace} exited {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line").to_string();
    let mut metrics = BTreeMap::new();
    let body = &last[last.find("\"metrics\"").expect("metrics key")..];
    for part in body
        .split("}, \"")
        .map(|p| p.trim_start_matches("\"metrics\": {\""))
    {
        let name = part[..part.find('"').expect("quoted name")].to_string();
        let u = part.find("\"unit\": \"").expect("a unit") + 9;
        let unit = part[u..u + part[u..].find('"').expect("quoted unit")].to_string();
        metrics.insert(name, unit);
    }
    (metrics, last)
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let declared = declared();
    for w in ["queue-churn", "tree-read", "list-stall"] {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let want: BTreeMap<String, String> = declared
                .iter()
                .filter(|((s, _), _)| s == section)
                .map(|((_, n), u)| (n.clone(), u.clone()))
                .collect();
            assert!(!want.is_empty(), "{section} declared");
            let (got, last) = run(w, trace);
            assert_eq!(got, want, "{w} --trace {trace}");
            assert!(
                last.starts_with("{\"correct\": true,") && last.contains("\"failed\": 0,"),
                "{w} --trace {trace}: {last}"
            );
        }
    }
}
