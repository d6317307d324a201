//! End-to-end tests of the `gve` command-line tool: the
//! generate → detect → quality pipeline through the real binary.

use std::path::PathBuf;
use std::process::Command;

fn gve() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gve"))
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gve-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn generate_detect_quality_pipeline() {
    let dir = temp_dir();
    let graph = dir.join("g.mtx");
    let membership = dir.join("g.mem");

    let out = gve()
        .args([
            "generate",
            "--class",
            "web",
            "--vertices",
            "2000",
            "--degree",
            "10",
            "--seed",
            "3",
            "--out",
            graph.to_str().unwrap(),
        ])
        .output()
        .expect("generate failed to spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = gve()
        .args([
            "detect",
            graph.to_str().unwrap(),
            "--algorithm",
            "leiden",
            "--out",
            membership.to_str().unwrap(),
        ])
        .output()
        .expect("detect failed to spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(log.contains("communities"), "{log}");

    let out = gve()
        .args([
            "quality",
            graph.to_str().unwrap(),
            membership.to_str().unwrap(),
            "--detail",
            "3",
        ])
        .output()
        .expect("quality failed to spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("modularity:"), "{text}");
    assert!(text.contains("disconnected:      0 of"), "{text}");
    assert!(text.contains("conductance"), "{text}");
}

#[test]
fn convert_roundtrips_between_formats() {
    let dir = temp_dir();
    let mtx = dir.join("c.mtx");
    let bin = dir.join("c.gveg");
    let txt = dir.join("c.txt");

    assert!(gve()
        .args([
            "generate",
            "--class",
            "kmer",
            "--vertices",
            "1000",
            "--out",
            mtx.to_str().unwrap(),
        ])
        .status()
        .unwrap()
        .success());
    assert!(gve()
        .args(["convert", mtx.to_str().unwrap(), bin.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(gve()
        .args(["convert", bin.to_str().unwrap(), txt.to_str().unwrap()])
        .status()
        .unwrap()
        .success());

    // stats on every format agree on the arc count.
    let arc_line = |path: &std::path::Path| -> String {
        let out = gve()
            .args(["stats", path.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find(|l| l.starts_with("arcs:"))
            .unwrap()
            .to_string()
    };
    assert_eq!(arc_line(&mtx), arc_line(&bin));
    assert_eq!(arc_line(&mtx), arc_line(&txt));
}

#[test]
fn detect_supports_every_algorithm() {
    let dir = temp_dir();
    let graph = dir.join("algos.mtx");
    assert!(gve()
        .args([
            "generate",
            "--class",
            "social",
            "--vertices",
            "1500",
            "--out",
            graph.to_str().unwrap(),
        ])
        .status()
        .unwrap()
        .success());
    for algo in [
        "leiden",
        "louvain",
        "seq-leiden",
        "seq-louvain",
        "nk-leiden",
    ] {
        let out = gve()
            .args(["detect", graph.to_str().unwrap(), "--algorithm", algo])
            .output()
            .unwrap();
        assert!(out.status.success(), "{algo} failed");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("communities"), "{algo}: {stderr}");
    }
}

#[test]
fn cpm_objective_flag_changes_results() {
    let dir = temp_dir();
    let graph = dir.join("cpm.mtx");
    assert!(gve()
        .args([
            "generate",
            "--class",
            "web",
            "--vertices",
            "1500",
            "--out",
            graph.to_str().unwrap(),
        ])
        .status()
        .unwrap()
        .success());
    let count = |extra: &[&str]| -> String {
        let mut args = vec!["detect", graph.to_str().unwrap()];
        args.extend_from_slice(extra);
        let out = gve().args(&args).output().unwrap();
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stderr)
            .lines()
            .find(|l| l.contains("communities"))
            .unwrap()
            .to_string()
    };
    let modularity = count(&[]);
    let cpm_fine = count(&["--objective", "cpm", "--resolution", "0.2"]);
    assert_ne!(modularity, cpm_fine);
}

/// GVE-Louvain runs under the same objective and resolution flags as
/// GVE-Leiden: a CPM run must write a different membership file.
#[test]
fn louvain_honours_objective_and_resolution() {
    let dir = temp_dir();
    let graph = dir.join("louvain-cpm.mtx");
    assert!(gve()
        .args([
            "generate",
            "--class",
            "web",
            "--vertices",
            "2000",
            "--seed",
            "5",
            "--out",
            graph.to_str().unwrap(),
        ])
        .status()
        .unwrap()
        .success());
    let membership = |name: &str, extra: &[&str]| -> Vec<u8> {
        let out = dir.join(name);
        let mut args = vec![
            "detect",
            graph.to_str().unwrap(),
            "--algorithm",
            "louvain",
            "--out",
            out.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        assert!(gve().args(&args).status().unwrap().success());
        std::fs::read(out).unwrap()
    };
    let modularity = membership("louvain-q.mem", &[]);
    let cpm = membership(
        "louvain-cpm.mem",
        &["--objective", "cpm", "--resolution", "0.5"],
    );
    assert!(!modularity.is_empty());
    assert!(
        modularity != cpm,
        "--objective cpm did not reach GVE-Louvain: identical memberships"
    );
}

#[test]
fn detect_trace_emits_parseable_spans_for_every_phase() {
    use gve::serve::json::{parse, Json};

    let dir = temp_dir();
    let graph = dir.join("trace.mtx");
    let trace = dir.join("run.jsonl");
    assert!(gve()
        .args([
            "generate",
            "--class",
            "social",
            "--vertices",
            "1500",
            "--out",
            graph.to_str().unwrap(),
        ])
        .status()
        .unwrap()
        .success());

    let out = gve()
        .args([
            "detect",
            graph.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
            "--out",
            dir.join("trace.mem").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    // The run summary prints the Figure 7 split and the stop reason.
    assert!(stderr.contains("phases: local-move"), "{stderr}");
    assert!(stderr.contains("stop:"), "{stderr}");

    // Every line of the trace is standalone JSON.
    let text = std::fs::read_to_string(&trace).unwrap();
    let events: Vec<Json> = text
        .lines()
        .map(|l| parse(l).unwrap_or_else(|e| panic!("bad trace line: {e}\n{l}")))
        .collect();
    assert!(events.len() >= 6, "suspiciously short trace:\n{text}");
    let kind = |e: &Json| e.get("event").and_then(Json::as_str).unwrap().to_string();
    assert_eq!(kind(&events[0]), "run_start");
    assert_eq!(kind(events.last().unwrap()), "run_end");
    let passes = events
        .last()
        .unwrap()
        .get("passes")
        .and_then(Json::as_u64)
        .unwrap();
    assert!(passes >= 1);

    // Every phase of every pass has a span, and every span carries a
    // timestamp plus a duration.
    for pass in 0..passes {
        for phase in ["local_move", "refinement", "aggregation"] {
            let span = events.iter().find(|e| {
                kind(e) == "phase"
                    && e.get("pass").and_then(Json::as_u64) == Some(pass)
                    && e.get("phase").and_then(Json::as_str) == Some(phase)
            });
            let span = span.unwrap_or_else(|| panic!("missing span pass={pass} {phase}"));
            assert!(span.get("ts_us").and_then(Json::as_u64).is_some());
            assert!(span.get("dur_us").and_then(Json::as_u64).is_some());
        }
        assert!(
            events
                .iter()
                .any(|e| kind(e) == "pass" && e.get("pass").and_then(Json::as_u64) == Some(pass)),
            "missing pass summary for pass {pass}"
        );
    }
}

#[test]
fn bad_usage_exits_nonzero() {
    assert!(!gve().status().unwrap().success());
    assert!(!gve().args(["detect"]).status().unwrap().success());
    assert!(!gve()
        .args(["generate", "--class", "nope", "--out", "/tmp/x"])
        .status()
        .unwrap()
        .success());
}
