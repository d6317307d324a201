//! Where a result came from: machine, toolchain, commit, seed and
//! workload, printed with every run.

use std::process::Command;

/// The provenance record of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Cores this process may use.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the working directory's checkout.
    pub commit: String,
}

fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(output.stdout).ok()?;
    let line = text.lines().next()?.trim().to_string();
    (output.status.success() && !line.is_empty()).then_some(line)
}

/// Reads the provenance of this process. Missing pieces read `unknown`.
pub fn collect() -> Provenance {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        });
    // Only a checkout with its own `.git` names a commit: git would
    // otherwise search the parent directories.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| first_line("git", &["rev-parse", "HEAD"]))
        .flatten();
    let unknown = || "unknown".to_string();
    Provenance {
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu: cpu.unwrap_or_else(unknown),
        rustc: first_line("rustc", &["-V"]).unwrap_or_else(unknown),
        commit: commit.unwrap_or_else(unknown),
    }
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

impl Provenance {
    /// One JSON object with the run's seed and workload spec added.
    pub fn to_json(&self, workload: &str, seed: u64, spec: &str) -> String {
        format!(
            "{{\"nproc\":{},\"cpu\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\"workload\":\"{}\",\"seed\":{seed},\"spec\":\"{}\"}}",
            self.nproc,
            escape(&self.cpu),
            escape(&self.rustc),
            escape(&self.commit),
            escape(workload),
            escape(spec),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_renders_as_json() {
        let p = Provenance {
            nproc: 2,
            cpu: "Some \"quoted\" CPU".into(),
            rustc: "rustc 1.0".into(),
            commit: "unknown".into(),
        };
        let json = gve_serve::json::parse(&p.to_json("detect_web", 7, "Spec { x: 1 }")).unwrap();
        assert_eq!(json.get("seed").and_then(|s| s.as_u64()), Some(7));
        assert_eq!(
            json.get("cpu").and_then(|s| s.as_str()),
            Some("Some \"quoted\" CPU")
        );
        assert!(collect().nproc >= 1);
    }
}
