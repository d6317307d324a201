//! `gve` — the command-line graph processing tool the paper names as the
//! home of GVE-Leiden ("a forthcoming command-line graph processing tool
//! named GVE", §4.2).
//!
//! ```text
//! gve generate --class web --vertices 20000 --out crawl.mtx
//! gve detect crawl.mtx --algorithm leiden --out crawl.membership
//! gve quality crawl.mtx crawl.membership
//! ```

use gve::graph::{io, CsrGraph, VertexId};
use gve::quality;
use std::process::exit;

// Count every heap allocation the process makes. This is what turns
// `gve_core_allocs_total` on the serve path into a real measurement
// (a resident `gve serve` flat-lines it once the workspace pool is
// warm) and feeds the per-iteration alloc report of `detect --repeat`.
// Cost: a few relaxed atomic adds per allocator call — and the whole
// point of the arena work is that the hot path makes none.
#[global_allocator]
static ALLOC: gve::prim::alloc_count::CountingAllocator = gve::prim::alloc_count::CountingAllocator;

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         gve generate --class <web|social|road|kmer|er|lfr> --vertices <n> \
         [--degree <f>] [--seed <n>] --out <path>\n  \
         gve detect <graph> [--algorithm <leiden|louvain|seq-leiden|seq-louvain|nk-leiden>] \
         [--objective <modularity|cpm>] [--resolution <f>] [--threads <n>] \
         [--trace <path>] [--repeat <n>] [--out <path>]\n  \
         gve quality <graph> <membership> [--detail <n>]\n  \
         gve stats <graph>\n  \
         gve convert <input> <output>     (formats by extension: .mtx, .gveg, else edge list)\n  \
         gve serve [--addr <host:port>] [--workers <n>] [--shards <n>] \
         [--max-connections <n>] [--portable-poll] \
         [--data-dir <path>] [--snapshot-every <n>] [--no-fsync] [--load <name>=<path>]...\n  \
         gve client <method> <path> [--addr <host:port>] [--body <json>|--body-file <path>]\n  \
         gve top [--addr <host:port>]    (one-shot metrics summary of a running gve-serve)"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("detect") => cmd_detect(&args[1..]),
        Some("quality") => cmd_quality(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        _ => usage(),
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn cmd_generate(args: &[String]) {
    let class = flag_value(args, "--class").unwrap_or_else(|| usage());
    let vertices: usize = flag_value(args, "--vertices")
        .unwrap_or("10000")
        .parse()
        .expect("bad --vertices");
    let degree: f64 = flag_value(args, "--degree")
        .unwrap_or("8")
        .parse()
        .expect("bad --degree");
    let seed: u64 = flag_value(args, "--seed")
        .unwrap_or("0")
        .parse()
        .expect("bad --seed");
    let out = flag_value(args, "--out").unwrap_or_else(|| usage());

    let graph = match class {
        "web" => {
            gve::generate::PlantedPartition::new(
                vertices,
                (vertices / 256).max(4),
                degree * 0.85,
                degree * 0.15,
            )
            .seed(seed)
            .generate()
            .graph
        }
        "social" => {
            gve::generate::PlantedPartition::new(
                vertices,
                (vertices / 512).max(16),
                degree * 0.7,
                degree * 0.3,
            )
            .seed(seed)
            .generate()
            .graph
        }
        "road" => {
            let width = (vertices as f64).sqrt().ceil() as usize;
            gve::generate::grid::road_grid(width, vertices.div_ceil(width), degree, seed)
        }
        "kmer" => gve::generate::kmer::kmer_chains(vertices, 16, 0.05, seed),
        "er" => gve::generate::er::erdos_renyi(
            vertices,
            (vertices as f64 * degree / 2.0) as usize,
            seed,
        ),
        "lfr" => {
            gve::generate::Lfr::new(vertices, degree, 0.3)
                .seed(seed)
                .generate()
                .graph
        }
        other => {
            eprintln!("unknown class {other}");
            usage()
        }
    };
    write_graph(&graph, out);
    let stats = gve::graph::props::stats(&graph);
    eprintln!(
        "wrote {out}: |V| = {}, |E| = {}, avg degree {:.1}",
        stats.vertices, stats.arcs, stats.avg_degree
    );
}

fn write_graph(graph: &CsrGraph, out: &str) {
    let file = std::fs::File::create(out).expect("cannot create output file");
    if out.ends_with(".mtx") {
        io::write_matrix_market(graph, file).expect("write failed");
    } else if out.ends_with(".gveg") {
        io::binary::write_binary(graph, file).expect("write failed");
    } else {
        io::write_edge_list(graph, file).expect("write failed");
    }
}

fn cmd_stats(args: &[String]) {
    let path = args.first().unwrap_or_else(|| usage());
    let graph = load_graph(path);
    let stats = gve::graph::props::stats(&graph);
    let (_, components) = gve::graph::traversal::connected_components(&graph);
    println!("vertices:     {}", stats.vertices);
    println!("arcs:         {}", stats.arcs);
    println!("avg degree:   {:.2}", stats.avg_degree);
    println!("max degree:   {}", stats.max_degree);
    println!("self loops:   {}", stats.self_loops);
    println!("total weight: {:.2}", stats.total_weight);
    println!("components:   {components}");
}

fn cmd_convert(args: &[String]) {
    let (input, output) = match (args.first(), args.get(1)) {
        (Some(i), Some(o)) => (i, o),
        _ => usage(),
    };
    let graph = load_graph(input);
    write_graph(&graph, output);
    eprintln!(
        "converted {input} -> {output} (|V| = {}, |E| = {})",
        graph.num_vertices(),
        graph.num_arcs()
    );
}

fn load_graph(path: &str) -> CsrGraph {
    io::read_path(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read graph {path}: {e}");
        exit(1);
    })
}

fn cmd_detect(args: &[String]) {
    let path = args.first().unwrap_or_else(|| usage());
    let algorithm = flag_value(args, "--algorithm").unwrap_or("leiden");
    let graph = load_graph(path);
    eprintln!(
        "loaded {path}: |V| = {}, |E| = {}",
        graph.num_vertices(),
        graph.num_arcs()
    );

    let resolution: f64 = flag_value(args, "--resolution")
        .unwrap_or("1.0")
        .parse()
        .expect("bad --resolution");
    let objective = match flag_value(args, "--objective").unwrap_or("modularity") {
        "modularity" => gve::leiden::Objective::Modularity { resolution },
        "cpm" => gve::leiden::Objective::Cpm { resolution },
        other => {
            eprintln!("unknown objective {other}");
            usage()
        }
    };
    let leiden_config = gve::leiden::LeidenConfig::default().objective(objective);
    if let Err(e) = leiden_config.validate() {
        eprintln!("error: {e}");
        exit(1);
    }

    // A trace sink: --trace <path> wins, otherwise GVE_TRACE from the
    // environment. Only the leiden algorithm records pass/phase spans.
    let tracer = match flag_value(args, "--trace") {
        Some(trace_path) => match gve::obs::Tracer::to_path(trace_path) {
            Ok(t) => {
                eprintln!("tracing run to {trace_path}");
                Some(t)
            }
            Err(e) => {
                eprintln!("error: cannot create trace file {trace_path}: {e}");
                exit(1);
            }
        },
        None => gve::obs::Tracer::from_env(),
    };
    if tracer.is_some() && algorithm != "leiden" {
        eprintln!(
            "warning: run tracing only covers --algorithm leiden; \
             the {algorithm} run will not be traced"
        );
    }

    // --repeat N runs the detection N times through ONE pass-resident
    // workspace and reports each iteration's wall time and allocator
    // traffic: iteration 1 pays the arena growth, iterations >= 2 are
    // the steady state a resident service sees.
    let repeat: usize = flag_value(args, "--repeat")
        .unwrap_or("1")
        .parse()
        .expect("bad --repeat");
    if repeat == 0 {
        eprintln!("--repeat must be >= 1");
        exit(2);
    }
    if repeat > 1 && algorithm != "leiden" {
        eprintln!(
            "warning: only --algorithm leiden reuses a workspace across \
             repeats; running {algorithm} once"
        );
    }

    enum DetectOutcome {
        Leiden(Box<gve::leiden::LeidenResult>),
        Plain(Vec<VertexId>),
    }

    let run = || -> DetectOutcome {
        match algorithm {
            "leiden" => {
                let leiden = gve::leiden::Leiden::new(leiden_config);
                let mut workspace = gve::leiden::PassWorkspace::new();
                let mut result = None;
                for iteration in 1..=repeat {
                    let alloc_before = gve::prim::alloc_count::snapshot();
                    let start = std::time::Instant::now();
                    let r = match &tracer {
                        Some(t) => leiden.run_observed_in(
                            &graph,
                            &mut workspace,
                            &gve::leiden::RunObserver::with_tracer(t),
                        ),
                        None => leiden.run_in(&graph, &mut workspace),
                    };
                    if repeat > 1 {
                        let alloc_after = gve::prim::alloc_count::snapshot();
                        eprintln!(
                            "iteration {iteration}/{repeat}: {:.3}s, {} allocations \
                             ({} bytes)",
                            start.elapsed().as_secs_f64(),
                            alloc_after.allocs_since(&alloc_before),
                            alloc_after.bytes_since(&alloc_before),
                        );
                    }
                    result = Some(r);
                }
                DetectOutcome::Leiden(Box::new(result.expect("repeat >= 1")))
            }
            "louvain" => DetectOutcome::Plain(gve::louvain::louvain(&graph).membership),
            "seq-leiden" => {
                DetectOutcome::Plain(gve::baselines::seq::sequential_leiden(&graph).membership)
            }
            "seq-louvain" => DetectOutcome::Plain(
                gve::louvain::seq::sequential_louvain(&graph, 1e-6, 10).membership,
            ),
            "nk-leiden" => DetectOutcome::Plain(gve::baselines::nk::nk_leiden(&graph).membership),
            other => {
                eprintln!("unknown algorithm {other}");
                usage()
            }
        }
    };

    let start = std::time::Instant::now();
    let outcome = match flag_value(args, "--threads") {
        Some(raw) => {
            let threads: usize = raw.parse().expect("bad --threads");
            if threads == 0 {
                eprintln!("--threads must be >= 1");
                exit(2);
            }
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("failed to build thread pool");
            eprintln!("running on {threads} threads");
            pool.install(run)
        }
        None => run(),
    };
    let elapsed = start.elapsed();

    let membership: Vec<VertexId> = match outcome {
        DetectOutcome::Leiden(result) => {
            let t = &result.timings;
            let (f_move, f_refine, f_agg, f_other) = t.fractions();
            eprintln!(
                "phases: local-move {:.3}s ({:.0}%), refinement {:.3}s ({:.0}%), \
                 aggregation {:.3}s ({:.0}%), other {:.3}s ({:.0}%)",
                t.local_move.as_secs_f64(),
                f_move * 100.0,
                t.refinement.as_secs_f64(),
                f_refine * 100.0,
                t.aggregation.as_secs_f64(),
                f_agg * 100.0,
                t.other.as_secs_f64(),
                f_other * 100.0,
            );
            let (processed, skipped) = result
                .pass_stats
                .iter()
                .fold((0u64, 0u64), |(p, s), stats| {
                    (p + stats.pruning_processed, s + stats.pruning_skipped)
                });
            let visits = processed + skipped;
            eprintln!(
                "passes {}, {} local-move iterations, pruning skipped {:.1}% \
                 of {} vertex visits, stop: {}",
                result.passes,
                result.move_iterations,
                if visits > 0 {
                    skipped as f64 / visits as f64 * 100.0
                } else {
                    0.0
                },
                visits,
                result.stop.label(),
            );
            result.membership
        }
        DetectOutcome::Plain(membership) => membership,
    };

    let q = quality::modularity(&graph, &membership);
    eprintln!(
        "{algorithm}: {} communities, modularity {q:.4}, {:.3}s \
         ({:.1}M edges/s)",
        quality::community_count(&membership),
        elapsed.as_secs_f64(),
        graph.num_arcs() as f64 / elapsed.as_secs_f64() / 1e6,
    );

    if let Some(out) = flag_value(args, "--out") {
        let mut text = String::with_capacity(membership.len() * 8);
        for (v, c) in membership.iter().enumerate() {
            text.push_str(&format!("{v} {c}\n"));
        }
        std::fs::write(out, text).expect("failed to write membership");
        eprintln!("membership written to {out}");
    } else {
        // Without --out, print the membership to stdout.
        let stdout = std::io::stdout();
        let mut lock = stdout.lock();
        use std::io::Write;
        for (v, c) in membership.iter().enumerate() {
            writeln!(lock, "{v} {c}").expect("stdout write failed");
        }
    }
}

/// The event-loop server is `cfg(unix)`; elsewhere `gve serve` says so
/// and exits.
#[cfg(not(unix))]
fn cmd_serve(_args: &[String]) {
    eprintln!("error: serving needs a unix target (the gve-net event loop is unix-only)");
    exit(1);
}

#[cfg(unix)]
fn cmd_serve(args: &[String]) {
    let addr = flag_value(args, "--addr")
        .unwrap_or("127.0.0.1:7461")
        .to_string();
    let workers: usize = flag_value(args, "--workers")
        .unwrap_or("2")
        .parse()
        .expect("bad --workers");
    let mut config = gve::serve::ServeConfig {
        addr,
        workers,
        ..Default::default()
    };
    if let Some(raw) = flag_value(args, "--max-connections") {
        config.max_connections = raw.parse().expect("bad --max-connections");
        if config.max_connections == 0 {
            eprintln!("--max-connections must be >= 1");
            exit(2);
        }
    }
    if let Some(raw) = flag_value(args, "--shards") {
        config.shards = raw.parse().expect("bad --shards");
        if config.shards == 0 {
            eprintln!("--shards must be >= 1");
            exit(2);
        }
    }
    if args.iter().any(|a| a == "--portable-poll") {
        config.force_portable_poll = true;
    }
    if let Some(dir) = flag_value(args, "--data-dir") {
        config.data_dir = Some(dir.to_string());
    }
    if let Some(raw) = flag_value(args, "--snapshot-every") {
        config.snapshot_every = raw.parse().expect("bad --snapshot-every");
        if config.snapshot_every == 0 {
            eprintln!("--snapshot-every must be >= 1");
            exit(2);
        }
    }
    if args.iter().any(|a| a == "--no-fsync") {
        config.fsync_wal = false;
    }
    let server = gve::serve::Server::start(&config).unwrap_or_else(|e| {
        eprintln!("error: cannot start server on {}: {e}", config.addr);
        exit(1);
    });
    if config.data_dir.is_some() {
        let recovered = server.state().registry.names();
        eprintln!(
            "durability on: {} graph(s) recovered from {}{}",
            recovered.len(),
            config.data_dir.as_deref().unwrap_or(""),
            if config.fsync_wal { "" } else { " (fsync off)" }
        );
    }

    // Preload graphs passed as repeated --load name=path flags.
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if arg != "--load" {
            continue;
        }
        let spec = iter.next().unwrap_or_else(|| usage());
        let (name, path) = spec.split_once('=').unwrap_or_else(|| {
            eprintln!("--load expects name=path, got {spec}");
            exit(2);
        });
        // A graph already restored from the data dir wins over --load:
        // the durable copy carries its applied update batches.
        if server.state().registry.snapshot(name).is_ok() {
            eprintln!("'{name}' already recovered from the data dir; skipping --load");
            continue;
        }
        match server.state().registry.register_from_path(name, path) {
            Ok(entry) => {
                eprintln!(
                    "loaded '{name}' from {path}: |V| = {}, |E| = {}",
                    entry.graph.num_vertices(),
                    entry.graph.num_arcs()
                );
                if let Some(store) = &server.state().durability {
                    if let Err(e) = store.register_graph(name, &entry.graph, &entry.source.label())
                    {
                        eprintln!("error: cannot persist '{name}': {e}");
                        exit(1);
                    }
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                exit(1);
            }
        }
    }

    eprintln!(
        "gve-serve listening on port {} ({} front end, {} shards × {} \
         detection workers; try: curl http://127.0.0.1:{}/healthz)",
        server.port(),
        server.backend(),
        config.shards,
        workers,
        server.port()
    );
    server.join();
}

fn cmd_client(args: &[String]) {
    let (method, path) = match (args.first(), args.get(1)) {
        (Some(m), Some(p)) => (m.to_ascii_uppercase(), p.as_str()),
        _ => usage(),
    };
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:7461");
    let body_owned;
    let body = match (flag_value(args, "--body"), flag_value(args, "--body-file")) {
        (Some(inline), _) => Some(inline),
        (None, Some(file)) => {
            body_owned = std::fs::read_to_string(file).unwrap_or_else(|e| {
                eprintln!("error: cannot read {file}: {e}");
                exit(1);
            });
            Some(body_owned.as_str())
        }
        (None, None) => None,
    };
    match gve::serve::client_request(addr, &method, path, body) {
        Ok((status, response)) => {
            println!("{response}");
            if status >= 400 {
                exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: request to {addr} failed: {e}");
            exit(1);
        }
    }
}

/// Parses Prometheus text-format samples into `(name{labels}, value)`
/// pairs, skipping comment and blank lines.
fn parse_metrics(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .filter_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// `gve top`: one-shot, human-readable summary of a running gve-serve
/// instance, assembled from its `/metrics` endpoint.
fn cmd_top(args: &[String]) {
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:7461");
    let text = match gve::serve::client_request(addr, "GET", "/metrics", None) {
        Ok((200, body)) => body,
        Ok((status, body)) => {
            eprintln!("error: GET /metrics returned {status}: {body}");
            exit(1);
        }
        Err(e) => {
            eprintln!("error: request to {addr} failed: {e}");
            exit(1);
        }
    };
    let samples = parse_metrics(&text);
    // Exact sample lookup (name must include labels when present).
    let get = |name: &str| -> f64 {
        samples
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    // Sum over every sample of a family regardless of labels — used for
    // label-split families such as the per-endpoint request histogram.
    let sum_family = |prefix: &str| -> f64 {
        samples
            .iter()
            .filter(|(n, _)| n.as_str() == prefix || n.starts_with(&format!("{prefix}{{")))
            .map(|(_, v)| v)
            .sum()
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    println!("gve-serve at {addr}");
    println!();
    println!(
        "detections   {} runs, {} passes, {} local-move iterations, {} refinement moves",
        get("gve_leiden_runs_total"),
        get("gve_leiden_passes_total"),
        get("gve_leiden_move_iterations_total"),
        get("gve_leiden_refine_moves_total"),
    );
    println!(
        "phase time   local-move {:.3}s, refinement {:.3}s, aggregation {:.3}s, other {:.3}s",
        get("gve_leiden_phase_seconds_total{phase=\"local_move\"}"),
        get("gve_leiden_phase_seconds_total{phase=\"refinement\"}"),
        get("gve_leiden_phase_seconds_total{phase=\"aggregation\"}"),
        get("gve_leiden_phase_seconds_total{phase=\"other\"}"),
    );
    let processed = get("gve_leiden_pruning_processed_total");
    let skipped = get("gve_leiden_pruning_skipped_total");
    println!(
        "pruning      skipped {:.1}% of {} vertex visits; latest shrink ratio {:.3}, \
         {} tolerance stops",
        ratio(skipped, processed + skipped) * 100.0,
        processed + skipped,
        get("gve_leiden_aggregation_shrink_ratio"),
        get("gve_leiden_tolerance_skips_total"),
    );
    println!(
        "scheduler    {} chunks claimed",
        get("gve_core_chunks_total"),
    );
    let hits = get("gve_cache_hits_total");
    let misses = get("gve_cache_misses_total");
    println!(
        "cache        {hits} hits / {misses} misses ({:.1}% hit rate), {} evictions",
        ratio(hits, hits + misses) * 100.0,
        get("gve_cache_evictions_total"),
    );
    println!(
        "jobs         {} submitted, {} completed, {} failed, depth {}, \
         avg wait {:.1}ms, avg run {:.1}ms",
        get("gve_jobs_submitted_total"),
        get("gve_jobs_completed_total"),
        get("gve_jobs_failed_total"),
        get("gve_jobs_queue_depth"),
        ratio(
            get("gve_jobs_queue_wait_seconds_sum"),
            get("gve_jobs_queue_wait_seconds_count")
        ) * 1e3,
        ratio(
            get("gve_jobs_run_seconds_sum"),
            get("gve_jobs_run_seconds_count")
        ) * 1e3,
    );
    println!(
        "http         {} connections accepted, {} rejected; {} requests, avg latency {:.1}ms",
        get("gve_http_connections_total"),
        get("gve_http_rejected_connections_total"),
        sum_family("gve_http_request_seconds_count"),
        ratio(
            sum_family("gve_http_request_seconds_sum"),
            sum_family("gve_http_request_seconds_count")
        ) * 1e3,
    );
    println!(
        "updates      {} batches, {} edges inserted, {} edges deleted, {} incremental refreshes",
        get("gve_updates_batches_total"),
        get("gve_updates_edges_inserted_total"),
        get("gve_updates_edges_deleted_total"),
        get("gve_updates_incremental_refreshes_total"),
    );
    println!(
        "workspaces   {} checkouts of {} arenas ({} idle); {} hot-path allocations",
        get("gve_workspace_checkouts_total"),
        get("gve_workspace_created_total"),
        get("gve_workspace_idle"),
        get("gve_core_allocs_total"),
    );
}

fn cmd_quality(args: &[String]) {
    let (graph_path, membership_path) = match (args.first(), args.get(1)) {
        (Some(g), Some(m)) => (g, m),
        _ => usage(),
    };
    let graph = load_graph(graph_path);
    let text = std::fs::read_to_string(membership_path).unwrap_or_else(|e| {
        eprintln!("error: cannot read membership {membership_path}: {e}");
        exit(1);
    });
    let mut membership = vec![0 as VertexId; graph.num_vertices()];
    let mut assigned = vec![false; graph.num_vertices()];
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let v: usize = parts
            .next()
            .and_then(|t| t.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("error: bad vertex at line {}", lineno + 1);
                exit(1);
            });
        let c: VertexId = parts
            .next()
            .and_then(|t| t.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("error: bad community at line {}", lineno + 1);
                exit(1);
            });
        if v >= membership.len() {
            eprintln!(
                "error: membership names vertex {v} but the graph has only {} vertices",
                membership.len()
            );
            exit(1);
        }
        membership[v] = c;
        assigned[v] = true;
    }
    let missing = assigned.iter().filter(|&&a| !a).count();
    if missing > 0 {
        eprintln!(
            "error: membership file covers {} of {} vertices ({missing} missing)",
            graph.num_vertices() - missing,
            graph.num_vertices()
        );
        exit(1);
    }
    quality::validate_membership(&membership, graph.num_vertices()).expect("invalid membership");

    let q = quality::modularity(&graph, &membership);
    let report = quality::disconnected_communities(&graph, &membership);
    println!(
        "communities:       {}",
        quality::community_count(&membership)
    );
    println!("modularity:        {q:.4}");
    println!("cpm (gamma=1/2m):  {:.4}", {
        let two_m = graph.total_arc_weight();
        quality::cpm(&graph, &membership, 1.0 / two_m.max(1.0))
    });
    println!(
        "disconnected:      {} of {} ({:.2e})",
        report.disconnected,
        report.communities,
        report.fraction()
    );
    if let Some(limit) = flag_value(args, "--detail") {
        let limit: usize = limit.parse().expect("bad --detail");
        let details = quality::community_report(&graph, &membership);
        println!("\ntop communities:");
        print!("{}", quality::format_report(&details, limit));
    }
}
