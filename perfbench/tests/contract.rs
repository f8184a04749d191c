//! `BENCHMARK.json` names exactly the metrics the benchmark prints.

use seculator_perfbench::{per_layer, END_TO_END};

fn section<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json
        .find(&format!("\"{key}\": ["))
        .expect("section present");
    let end = start + json[start..].find(']').expect("section closed");
    &json[start..end]
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark");
    let e2e: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|(n, u)| ((*n).to_string(), *u))
        .collect();
    for (key, metrics) in [("end_to_end", e2e), ("per_layer", per_layer())] {
        let s = section(&json, key);
        assert_eq!(s.matches("\"name\"").count(), metrics.len(), "{key}");
        for (name, unit) in metrics {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(s.contains(&entry), "{key} lacks {entry}");
        }
    }
}
