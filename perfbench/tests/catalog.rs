//! `BENCHMARK.json`, `catalog.json` and the binary's metric lists agree.

use goldfish_perfbench::metrics::{END_TO_END, PER_LAYER};

fn read(rel: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn benchmark_json_declares_exactly_the_reported_metrics_in_order() {
    let bench = read("../BENCHMARK.json");
    let declared: Vec<&str> = bench
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("closing quote")])
        .collect();
    let workloads = ["distill-lenet", "fleet-tcp", "shard-durable"];
    let want: Vec<&str> = workloads
        .iter()
        .chain(END_TO_END)
        .chain(PER_LAYER)
        .copied()
        .collect();
    assert_eq!(declared, want);
}

#[test]
fn catalog_documents_every_metric_and_workload() {
    let catalog = read("catalog.json");
    for name in
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .chain(&["distill-lenet", "fleet-tcp", "shard-durable"])
    {
        assert!(
            catalog.contains(&format!("\"{name}\": {{")),
            "{name} is not documented in catalog.json"
        );
    }
}
