//! `BENCHMARK.json` at the repository root must name exactly the workloads
//! and metrics the binary reports.

use rmbench::workloads::Workload;
use rmbench::{END_TO_END, PER_LAYER};

#[test]
fn benchmark_json_lists_what_the_binary_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let names: Vec<&str> = Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END.iter().map(|m| m.0))
        .chain(PER_LAYER.iter().map(|m| m.0))
        .collect();
    for name in &names {
        assert!(
            text.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing from BENCHMARK.json"
        );
    }
    assert_eq!(
        text.matches("\"name\":").count(),
        names.len(),
        "BENCHMARK.json names something the binary does not report"
    );
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "{name} should have unit {unit}");
    }
}
