//! The metric catalog, read from the repository's `BENCHMARK.json`.
//!
//! `BENCHMARK.json` is the one place metric names, units, directions
//! and regression bounds are declared; the binary embeds it at build
//! time, so the names a run prints can never drift from the file a
//! comparison reads.

use gve_serve::json::{self, Json};

/// The benchmark definition as committed at the repository root.
pub const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted metric name.
    pub name: String,
    /// Unit printed beside the value.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Allowed relative worsening (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed benchmark definition.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Length of one run's measured phase.
    pub run_seconds: u64,
    /// `(name, why)` of each workload.
    pub workloads: Vec<(String, String)>,
    /// Metrics a user of the system sees, printed by untraced runs.
    pub end_to_end: Vec<Metric>,
    /// Metrics of single layers, printed by traced runs.
    pub per_layer: Vec<Metric>,
}

fn field<'a>(value: &'a Json, key: &str) -> Result<&'a Json, String> {
    value.get(key).ok_or_else(|| format!("missing '{key}'"))
}

fn text(value: &Json, key: &str) -> Result<String, String> {
    field(value, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("'{key}' is not a string"))
}

fn metrics(root: &Json, key: &str, bounded: bool) -> Result<Vec<Metric>, String> {
    field(root, key)?
        .as_array()
        .ok_or_else(|| format!("'{key}' is not an array"))?
        .iter()
        .map(|m| {
            let bound = match bounded {
                true => Some(
                    field(m, "bound")?
                        .as_f64()
                        .ok_or_else(|| "'bound' is not a number".to_string())?,
                ),
                false => None,
            };
            Ok(Metric {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                better: text(m, "better")?,
                bound,
            })
        })
        .collect()
}

/// Parses a benchmark definition.
pub fn parse(source: &str) -> Result<Catalog, String> {
    let root = json::parse(source).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let workloads = field(&root, "workloads")?
        .as_array()
        .ok_or("'workloads' is not an array")?
        .iter()
        .map(|w| Ok((text(w, "name")?, text(w, "why")?)))
        .collect::<Result<_, String>>()?;
    Ok(Catalog {
        run_seconds: field(&root, "run_seconds")?
            .as_u64()
            .ok_or("'run_seconds' is not a whole number")?,
        workloads,
        end_to_end: metrics(&root, "end_to_end", true)?,
        per_layer: metrics(&root, "per_layer", false)?,
    })
}

/// The embedded definition.
pub fn catalog() -> Catalog {
    parse(BENCHMARK_JSON).expect("the embedded BENCHMARK.json is checked by the schema test")
}
