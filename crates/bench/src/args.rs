//! Minimal command-line argument parsing shared by the fig/table
//! binaries. Hand-rolled to keep the dependency set to the approved
//! list.

/// Common experiment options.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Dataset scale multiplier (1.0 = the suite's base sizes).
    pub scale: f64,
    /// Timing repetitions to average over (the paper uses 5).
    pub reps: usize,
    /// Base RNG seed for dataset generation.
    pub seed: u64,
    /// Optional CSV output path.
    pub csv: Option<String>,
    /// Optional JSON output path (machine-readable results).
    pub json: Option<String>,
    /// Optional rayon thread count override (builds the global pool).
    pub threads: Option<usize>,
    /// Run only the quick four-graph suite instead of all 13.
    pub quick: bool,
    /// Fail the run if any variant's steady-state (post-warm-up) run
    /// performs more than this many heap allocations. Only meaningful
    /// in binaries that install the counting global allocator (the
    /// `kernels` runner); the CI bench-smoke job uses it as the
    /// zero-steady-state-allocation regression gate.
    pub assert_steady_allocs: Option<u64>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self {
            scale: 1.0,
            reps: 1,
            seed: 42,
            csv: None,
            json: None,
            threads: None,
            quick: false,
            assert_steady_allocs: None,
        }
    }
}

impl BenchArgs {
    /// Parses `std::env::args()`, panicking with a usage message on
    /// malformed input.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses an explicit token stream (testable entry point).
    pub fn parse_from(tokens: impl IntoIterator<Item = String>) -> Self {
        let mut args = Self::default();
        let mut it = tokens.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match flag.as_str() {
                "--scale" => args.scale = value("--scale").parse().expect("bad --scale"),
                "--reps" => args.reps = value("--reps").parse().expect("bad --reps"),
                "--seed" => args.seed = value("--seed").parse().expect("bad --seed"),
                "--csv" => args.csv = Some(value("--csv")),
                "--json" => args.json = Some(value("--json")),
                "--threads" => {
                    args.threads = Some(value("--threads").parse().expect("bad --threads"))
                }
                "--quick" => args.quick = true,
                "--assert-steady-allocs" => {
                    args.assert_steady_allocs = Some(
                        value("--assert-steady-allocs")
                            .parse()
                            .expect("bad --assert-steady-allocs"),
                    )
                }
                "--help" | "-h" => {
                    eprintln!(
                        "options: --scale <f64> --reps <n> --seed <n> --csv <path> --json <path> \
                         --threads <n> --quick --assert-steady-allocs <n>"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}"),
            }
        }
        assert!(args.reps >= 1, "--reps must be at least 1");
        assert!(args.scale > 0.0, "--scale must be positive");
        args
    }

    /// Applies the `--threads` override to the global rayon pool. Call
    /// once, before any parallel work.
    pub fn install_threads(&self) {
        if let Some(t) = self.threads {
            rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build_global()
                .expect("global rayon pool already initialized");
        }
    }

    /// The dataset suite selected by `--quick`.
    pub fn suite(&self) -> Vec<gve_generate::Dataset> {
        if self.quick {
            gve_generate::suite::quick_suite()
        } else {
            gve_generate::suite()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> BenchArgs {
        BenchArgs::parse_from(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.scale, 1.0);
        assert_eq!(a.reps, 1);
        assert_eq!(a.seed, 42);
        assert!(a.csv.is_none());
        assert!(!a.quick);
    }

    #[test]
    fn full_flag_set() {
        let a = parse(&[
            "--scale",
            "0.5",
            "--reps",
            "3",
            "--seed",
            "7",
            "--csv",
            "/tmp/x.csv",
            "--json",
            "/tmp/x.json",
            "--threads",
            "4",
            "--quick",
        ]);
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.reps, 3);
        assert_eq!(a.seed, 7);
        assert_eq!(a.csv.as_deref(), Some("/tmp/x.csv"));
        assert_eq!(a.json.as_deref(), Some("/tmp/x.json"));
        assert_eq!(a.threads, Some(4));
        assert!(a.quick);
    }

    #[test]
    fn steady_alloc_gate_flag() {
        assert_eq!(parse(&[]).assert_steady_allocs, None);
        let a = parse(&["--assert-steady-allocs", "64"]);
        assert_eq!(a.assert_steady_allocs, Some(64));
    }

    #[test]
    #[should_panic(expected = "bad --assert-steady-allocs")]
    fn steady_alloc_gate_rejects_garbage() {
        parse(&["--assert-steady-allocs", "lots"]);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn rejects_unknown() {
        parse(&["--bogus"]);
    }

    #[test]
    #[should_panic(expected = "missing value")]
    fn rejects_missing_value() {
        parse(&["--scale"]);
    }

    #[test]
    fn suite_selection() {
        assert_eq!(parse(&[]).suite().len(), 13);
        assert_eq!(parse(&["--quick"]).suite().len(), 4);
    }
}
