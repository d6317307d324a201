//! `ledger run --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Runs one workload of `BENCHMARK.json` in this process and prints a
//! summary, the provenance record and, as the last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` (the
//! default) reports the end-to-end metrics; `--trace 1` is the separate
//! traced run: it reports the per-layer metrics and writes every span to
//! `$CARGO_TARGET_DIR/ledger/` (default `target/ledger/`). Exits 1 when a
//! check fails and 2 on bad usage.

use gve_ledger::catalog::{self, Metric};
use gve_ledger::trace::{self, Tracer};
use gve_ledger::{provenance, Metrics, RunOptions};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: gve_prim::alloc_count::CountingAllocator = gve_prim::alloc_count::CountingAllocator;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String], run_seconds: u64) -> Result<Args, String> {
    let mut iter = raw.iter();
    if iter.next().map(String::as_str) != Some("run") {
        return Err("expected the 'run' subcommand".into());
    }
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: run_seconds as f64,
        trace: false,
    };
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if gve_ledger::spec(&args.workload).is_none() {
        return Err(format!(
            "unknown workload '{}' (one of {})",
            args.workload,
            gve_ledger::WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Renders `declared` metrics from `measured`, noting any the run did
/// not produce. `zero_missing` fills absent ones with 0 (per-layer
/// metrics of layers the workload never calls).
fn render(
    declared: &[Metric],
    measured: &Metrics,
    zero_missing: bool,
    problems: &mut Vec<String>,
) -> String {
    for name in measured.names() {
        if !declared.iter().any(|m| m.name == name) {
            problems.push(format!("metric {name} is not declared in BENCHMARK.json"));
        }
    }
    let mut fields = Vec::new();
    for metric in declared {
        let value = match measured.get(&metric.name) {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                problems.push(format!("metric {} measured {v}", metric.name));
                0.0
            }
            None if zero_missing => 0.0,
            None => {
                problems.push(format!("metric {} was not measured", metric.name));
                0.0
            }
        };
        println!("  {:<36} {value:>16.6} {}", metric.name, metric.unit);
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        ));
    }
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let catalog = catalog::catalog();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw, catalog.run_seconds) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}");
            eprintln!(
                "usage: ledger run --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let spec = gve_ledger::spec(&args.workload).expect("parse_args checked the workload");
    let out_dir =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or("target".into())).join("ledger");
    let opts = RunOptions {
        seed: args.seed,
        seconds: args.seconds,
        work_dir: out_dir.join(format!("work-{}", std::process::id())),
    };
    let provenance =
        provenance::collect().to_json(&args.workload, args.seed, &gve_ledger::describe(&spec));
    println!(
        "ledger: {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("provenance: {provenance}");

    let tracer = Tracer::new(args.trace);
    let started = Instant::now();
    let mut report = gve_ledger::run(&spec, &opts, &tracer);
    let wall = started.elapsed();
    let _ = std::fs::remove_dir_all(&opts.work_dir);

    for note in &report.notes {
        println!("  {note}");
    }
    if report.attempted == 0 {
        report.problem("the run attempted no operation");
    }
    let metrics = if args.trace {
        let mut layers = std::mem::take(&mut report.per_layer);
        let overhead = tracer.len() as f64 * trace::span_cost().as_secs_f64() / wall.as_secs_f64();
        layers.set("trace.overhead_frac", overhead);
        let path = out_dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        let written = std::fs::create_dir_all(&out_dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|file| {
                let mut out = std::io::BufWriter::new(file);
                tracer.write_jsonl(&mut out, &provenance)?;
                std::io::Write::flush(&mut out)
            });
        match written {
            Ok(()) => println!("  spans: {} written to {}", tracer.len(), path.display()),
            Err(e) => report.problem(format!("cannot write {}: {e}", path.display())),
        }
        render(&catalog.per_layer, &layers, true, &mut report.problems)
    } else {
        let measured = std::mem::take(&mut report.end_to_end);
        render(&catalog.end_to_end, &measured, false, &mut report.problems)
    };
    for problem in report.problems.iter().take(20) {
        eprintln!("ledger: FAILED: {problem}");
    }
    let correct = report.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        report.attempted, report.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
