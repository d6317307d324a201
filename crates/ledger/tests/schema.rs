//! `BENCHMARK.json` keeps to the benchmark schema, and every workload,
//! run as a library function on a reduced spec, emits exactly the
//! metric names the file declares.

use gve_ledger::catalog::{self, Metric};
use gve_ledger::detect::GraphSpec;
use gve_ledger::serve::SbmSpec;
use gve_ledger::trace::Tracer;
use gve_ledger::{run, spec, RunOptions, Spec, WORKLOADS};
use gve_serve::json::{self, Json};

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn check_metrics(metrics: &[Metric], bounded: bool) {
    for m in metrics {
        assert!(valid_name(&m.name), "bad metric name {:?}", m.name);
        assert!(valid_unit(&m.unit), "{}: bad unit {:?}", m.name, m.unit);
        assert!(
            m.better == "lower" || m.better == "higher",
            "{}: direction {:?}",
            m.name,
            m.better
        );
        if bounded {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
    }
}

fn keys(value: &Json) -> Vec<&str> {
    match value {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("not an object: {value}"),
    }
}

#[test]
fn benchmark_json_follows_the_schema() {
    assert!(catalog::BENCHMARK_JSON.len() <= 64 << 10);
    let root = json::parse(catalog::BENCHMARK_JSON).expect("BENCHMARK.json parses");
    assert_eq!(
        keys(&root),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let strings = |key| -> Vec<String> {
        root.get(key)
            .and_then(Json::as_array)
            .expect("an array")
            .iter()
            .map(|s| s.as_str().expect("strings").to_string())
            .collect()
    };
    let command = strings("command");
    assert!(!command.is_empty() && command.len() <= 32);
    assert!(command
        .iter()
        .all(|a| a.len() <= 200 && !a.starts_with('/') && !a.contains("..")));
    let paths = strings("paths");
    assert!((1..=16).contains(&paths.len()));
    for path in &paths {
        assert!(path.len() <= 200 && !path.starts_with('/') && !path.contains(".."));
        assert!(path
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c)));
    }

    let catalog = catalog::catalog();
    assert!((1..=60).contains(&catalog.run_seconds));
    assert!((2..=8).contains(&catalog.workloads.len()));
    for workload in &root
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .to_vec()
    {
        assert_eq!(keys(workload), ["name", "why"]);
    }
    let names: Vec<&str> = catalog.workloads.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names, WORKLOADS,
        "BENCHMARK.json and the ledger name the same workloads"
    );
    for (name, why) in &catalog.workloads {
        assert!(valid_name(name));
        assert!(spec(name).is_some(), "{name} has no spec");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{name}: why"
        );
    }

    assert!((1..=16).contains(&catalog.end_to_end.len()));
    assert!((1..=128).contains(&catalog.per_layer.len()));
    check_metrics(&catalog.end_to_end, true);
    check_metrics(&catalog.per_layer, false);
    for metric in root.get("end_to_end").and_then(Json::as_array).unwrap() {
        assert_eq!(keys(metric), ["name", "unit", "better", "bound"]);
    }
    for metric in root.get("per_layer").and_then(Json::as_array).unwrap() {
        assert_eq!(keys(metric), ["name", "unit", "better"]);
    }
    let mut all: Vec<&str> = catalog
        .end_to_end
        .iter()
        .chain(&catalog.per_layer)
        .map(|m| m.name.as_str())
        .chain(names)
        .collect();
    let count = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), count, "every name is used once");

    let setup = catalog
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is declared");
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    let largest = catalog
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
}

/// The committed spec shrunk to a second or so: small graphs, short
/// phases, one set-up. Modularity floors drop to 0 because the small
/// graphs cluster differently; every other check stays.
fn reduced(spec: Spec) -> Spec {
    let small = SbmSpec {
        vertices: 2_000,
        ..SbmSpec::default()
    };
    match spec {
        Spec::Detect(mut d) => {
            d.graph = match d.graph {
                GraphSpec::RmatWeb { edge_factor, .. } => GraphSpec::RmatWeb {
                    scale: 10,
                    edge_factor,
                },
                GraphSpec::Suite { name, .. } => GraphSpec::Suite { name, scale: 0.05 },
            };
            d.setup_reps = 1;
            d.modularity_floor = 0.0;
            Spec::Detect(d)
        }
        Spec::Read(mut r) => {
            r.graph = small;
            r.rate = 500.0;
            r.setup_reps = 1;
            r.probes = 5;
            r.replays = 1;
            r.modularity_floor = 0.0;
            Spec::Read(r)
        }
        Spec::Churn(mut c) => {
            c.graph = small;
            c.insert_rate = 40.0;
            c.delete_rate = 10.0;
            c.batch_rate = 100.0;
            c.closed_batches = 10;
            c.delta_depth = 4;
            c.cold_boots = 2;
            c.setup_reps = 1;
            c.replay_batches = 5;
            c.probes = 5;
            c.modularity_floor = 0.0;
            Spec::Churn(c)
        }
    }
}

#[test]
fn each_workload_emits_exactly_its_declared_metrics() {
    let catalog = catalog::catalog();
    let declared = |metrics: &[Metric]| {
        let mut names: Vec<String> = metrics.iter().map(|m| m.name.clone()).collect();
        names.sort();
        names
    };
    let end_to_end = declared(&catalog.end_to_end);
    let per_layer = declared(&catalog.per_layer);
    let opts = RunOptions {
        seed: 7,
        seconds: 1.0,
        work_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("ledger-schema-{}", std::process::id())),
    };
    for workload in WORKLOADS {
        let spec = reduced(spec(workload).expect("declared workload"));
        for traced in [false, true] {
            let report = run(&spec, &opts, &Tracer::new(traced));
            assert!(report.correct(), "{workload}: {:?}", report.problems);
            assert!(report.attempted > 0);
            let mut emitted: Vec<String> = report
                .end_to_end
                .names()
                .into_iter()
                .map(str::to_string)
                .collect();
            emitted.sort();
            assert_eq!(emitted, end_to_end, "{workload} end-to-end names");
            for name in report.per_layer.names() {
                assert!(
                    per_layer.iter().any(|n| n == name),
                    "{workload} emits undeclared {name}"
                );
            }
            // The user-facing metrics too noisy for a bound are measured
            // by every workload, so the traced run reports them all.
            for name in ["op_ms_p50", "op_ms_tail", "work_per_s", "modularity"] {
                assert!(
                    report.per_layer.get(name).is_some_and(f64::is_finite),
                    "{workload} does not measure {name}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&opts.work_dir);
}
