//! Footprint budget of the pass-resident workspace arena, measured with
//! an allocation-counting global allocator.
//!
//! `PassWorkspace::with_capacity(n, m)` must allocate at most
//! `36.2·n + 8·m` bytes plus a constant. The per-vertex figure is the sum
//! of the buffers the default asynchronous pass loop needs (see the
//! table in DESIGN.md §10): `membership` 4, `sigma` 8, `penalty` 8,
//! `bounds` 4, `init_labels` 4, `first_seen` 4, the aggregation's member
//! offsets 4 and the pruning bitset's bit. The aggregation's cursors,
//! members and holey offsets add nothing: they live in `first_seen`,
//! `membership` and `sigma` while those are dead. The per-arc figure is
//! the first holey slot set's targets and weights. A buffer added to
//! `ensure` must raise this budget in the same diff.
//!
//! A warm workspace may hold, beyond that budget, only what the runs
//! add lazily: the per-thread scan tables (8 B per key of the largest
//! key bound a phase met: the vertex count when the input has a vertex
//! above the hub threshold, else the community count of an aggregation
//! with a community wider than the stack map, which is at most the
//! first aggregation's, else nothing), the supergraph offsets that come
//! back with each retired slot set, and, once a run aggregates twice, a
//! second slot set sized exactly for the first supergraph's arcs. CPM
//! runs add the vertex size double buffer, color-synchronous runs their
//! plain state, and a pool of more than three workers the count rows of
//! its fourth worker on. Growing the tables or a recycled set's offsets
//! frees the old buffer first, so neither growth holds two at once.
//!
//! `PassWorkspace::resident_bytes` reports what a workspace holds; it
//! must agree with the allocator to within `CONSTANT_BYTES`.

use gve_graph::{AggregateHosts, AggregateScratch, CsrGraph, GraphBuilder};
use gve_leiden::{
    Leiden, LeidenConfig, LeidenResult, Objective, PassStats, PassWorkspace, Scheduling,
    SMALL_DEGREE_THRESHOLD,
};
use gve_prim::alloc_count::{self, CountingAllocator};
use std::sync::atomic::{AtomicU32, AtomicU64};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The allocator counters are process-global; serialize the tests.
static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Bytes per vertex the default arena may hold (36 B of buffers plus
/// the pruning bitset's bit).
const BYTES_PER_VERTEX: f64 = 36.2;
/// Bytes per arc: the holey slot targets and f32 weight bits.
const BYTES_PER_ARC: f64 = 8.0;
/// Size-independent overhead (the shared table-capacity cell and
/// rounding of the bitset to whole words).
const CONSTANT_BYTES: f64 = 1024.0;

fn budget(n: usize, m: usize) -> f64 {
    BYTES_PER_VERTEX * n as f64 + BYTES_PER_ARC * m as f64 + CONSTANT_BYTES
}

/// The counters are process-wide, so the test harness's own threads
/// can add a few bytes to one reading; they only ever add, so the least
/// of three readings is the measured code's.
fn least_of_three(mut measure: impl FnMut() -> u64) -> f64 {
    (0..3).map(|_| measure()).min().unwrap() as f64
}

#[test]
fn with_capacity_stays_within_the_budget() {
    let _guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    for (n, m) in [(1_000, 4_000), (100_000, 210_000), (400_000, 840_000)] {
        let bytes = least_of_three(|| {
            let before = alloc_count::snapshot();
            let ws = PassWorkspace::with_capacity(n, m);
            let bytes = alloc_count::snapshot().bytes_since(&before);
            drop(ws);
            bytes
        });
        assert!(
            bytes <= budget(n, m),
            "with_capacity({n}, {m}) allocated {bytes} B = {:.2} B/vertex + 8 B/arc; budget {:.0} B",
            (bytes - BYTES_PER_ARC * m as f64) / n as f64,
            budget(n, m)
        );
    }
}

/// `resident_bytes` agrees with the allocator, within `CONSTANT_BYTES`:
/// for a presized workspace, and for one that runs have warmed (scan
/// tables, spare slot sets), then grown with CPM and color-synchronous
/// state.
#[test]
fn resident_bytes_match_the_allocator() {
    let _guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    // Counted minus reported bytes; harness noise only adds to the
    // count, so the least of three is the workspace's own.
    let assert_close = |what: &str, mut excess: Box<dyn FnMut() -> i64>| {
        let excess = (0..3).map(|_| excess()).min().unwrap();
        assert!(
            excess.unsigned_abs() as f64 <= CONSTANT_BYTES,
            "{what}: the allocator counts {excess} B more than resident_bytes reports"
        );
    };
    for (n, m) in [(1_000, 4_000), (100_000, 210_000)] {
        assert_close(
            "with_capacity",
            Box::new(move || {
                let before = alloc_count::snapshot().current;
                let ws = PassWorkspace::with_capacity(n, m);
                let held = alloc_count::snapshot().current - before;
                held as i64 - ws.resident_bytes() as i64
            }),
        );
    }

    let graph = gve_generate::rmat::Rmat::web(12, 8.0).seed(5).generate();
    let warm_graph = graph.clone();
    assert_close(
        "warm",
        Box::new(move || {
            let warm = warm_footprint(&warm_graph);
            warm.held as i64 - warm.resident_bytes as i64
        }),
    );

    assert_close(
        "cpm and sync",
        Box::new(move || {
            let before = alloc_count::snapshot().current;
            let mut ws = PassWorkspace::new();
            let config = LeidenConfig::default();
            let cpm = config
                .clone()
                .objective(Objective::Cpm { resolution: 0.01 });
            let runs = [
                Leiden::new(config.clone()).run_in(&graph, &mut ws),
                Leiden::new(cpm).run_in(&graph, &mut ws),
                Leiden::new(config.scheduling(Scheduling::ColorSynchronous))
                    .run_in(&graph, &mut ws),
            ];
            let held = alloc_count::snapshot().current - before;
            let results: u64 = runs.iter().map(result_bytes).sum();
            assert!(ws.sync_capacity() > 0);
            (held - results) as i64 - ws.resident_bytes() as i64
        }),
    );
}

#[test]
fn default_runs_leave_color_sync_state_unallocated() {
    let _guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let graph = gve_generate::sbm::PlantedPartition::new(5_000, 10, 12.0, 1.0)
        .seed(8)
        .generate()
        .graph;
    let n = graph.num_vertices();
    let mut ws = PassWorkspace::with_capacity(n, graph.num_arcs());
    Leiden::default().run_in(&graph, &mut ws);
    Leiden::default().run_in(&GraphBuilder::from_edges(3, &[(0, 1, 1.0)]), &mut ws);
    assert_eq!(ws.sync_capacity(), 0, "default runs sized the sync state");

    // The first color-synchronous run grows it, by at least its 12 B
    // per vertex of plain membership and Σ'.
    let sync = Leiden::new(LeidenConfig::default().scheduling(Scheduling::ColorSynchronous));
    let before = alloc_count::snapshot();
    sync.run_in(&graph, &mut ws);
    let grown = alloc_count::snapshot().bytes_since(&before);
    assert_eq!(ws.sync_capacity(), n);
    assert!(grown >= 12 * n as u64, "sync run allocated only {grown} B");
}

#[test]
fn growth_by_one_vertex_stays_within_the_budget() {
    let _guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (n, m) = (100_000, 200_000);
    let live = least_of_three(|| {
        let before = alloc_count::snapshot().current;
        let mut ws = PassWorkspace::with_capacity(n, m);
        ws.ensure(n + 1, m);
        let live = alloc_count::snapshot().current - before;
        drop(ws);
        live
    });
    assert!(
        live <= budget(n + 1, m),
        "ensure({}, {m}) after with_capacity({n}, {m}) holds {live} B; budget {:.0} B",
        n + 1,
        budget(n + 1, m)
    );
}

/// Heap bytes a result owns: its membership, stats and dendrogram.
fn result_bytes(result: &LeidenResult) -> u64 {
    let stats: usize = result
        .pass_stats
        .iter()
        .map(|s| s.iteration_gains.capacity() * 8)
        .sum();
    let levels: usize = result.dendrogram.iter().map(|l| l.capacity() * 4).sum();
    (result.membership.capacity() * 4
        + result.pass_stats.capacity() * std::mem::size_of_val(&result.pass_stats[0])
        + stats
        + result.dendrogram.capacity() * std::mem::size_of::<Vec<u32>>()
        + levels) as u64
}

/// What a warmed workspace holds: the bytes beyond the warm results,
/// the warm results, the bytes a third run left behind beyond its own
/// result, and the scan tables' key capacity.
struct Warm {
    held: f64,
    runs: Vec<LeidenResult>,
    left: u64,
    table_capacity: usize,
    /// What the workspace reports holding after the warm runs.
    resident_bytes: usize,
}

/// Warms a fresh workspace with a 1-thread and a 2-thread run, as the
/// benchmark ledger does, then runs a third time. The third run has one
/// thread, so it repeats the first exactly: 2-thread runs differ in
/// their supergraph sizes, and one larger than both warm runs' may
/// legitimately grow the workspace.
fn warm_footprint(graph: &CsrGraph) -> Warm {
    let leiden = Leiden::default();
    let pool = |threads| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    };
    let (single, multi) = (pool(1), pool(2));
    let before = alloc_count::snapshot().current;
    let mut ws = PassWorkspace::new();
    let warm = vec![
        single.install(|| leiden.run_in(graph, &mut ws)),
        multi.install(|| leiden.run_in(graph, &mut ws)),
    ];
    let held =
        alloc_count::snapshot().current - before - warm.iter().map(result_bytes).sum::<u64>();
    let resident_bytes = ws.resident_bytes();

    let before_third = alloc_count::snapshot().current;
    let third = single.install(|| leiden.run_in(graph, &mut ws));
    let left =
        (alloc_count::snapshot().current - before_third).saturating_sub(result_bytes(&third));
    Warm {
        held: held as f64,
        runs: warm,
        left,
        table_capacity: ws.table_capacity(),
        resident_bytes,
    }
}

/// Worker threads of the warm runs, hence scan tables in the workspace.
const THREADS: f64 = 2.0;

/// Largest vertex degree of `graph`.
fn max_degree(graph: &CsrGraph) -> usize {
    (0..graph.num_vertices() as u32)
        .map(|u| graph.degree(u))
        .max()
        .unwrap_or(0)
}

/// An upper bound on the key bound the default phases of `warm` met:
/// every community id of the input when it has a hub, else the dense
/// ids of the largest first aggregation (every later graph is no
/// larger). A hub-free run reaches the tables only in an aggregation
/// with a community wider than the stack map, so it may have met none.
fn key_bound(graph: &CsrGraph, warm: &[LeidenResult]) -> usize {
    if max_degree(graph) > SMALL_DEGREE_THRESHOLD {
        return graph.num_vertices();
    }
    warm.iter()
        .filter_map(|r| r.pass_stats.get(1).map(|s| s.vertices))
        .max()
        .unwrap_or(0)
}

/// The resident bound of a warm workspace: the `with_capacity` budget,
/// the scan tables, and the supergraph offsets that came back with the
/// slot set of the largest first aggregation. `second_set` adds the
/// second slot set: exactly the largest first supergraph's arcs, plus
/// the offsets of the second supergraph it was first squeezed into.
fn warm_bound(graph: &CsrGraph, warm: &[LeidenResult], second_set: bool) -> f64 {
    let (n, m) = (graph.num_vertices(), graph.num_arcs());
    let largest = |pass: usize, field: fn(&PassStats) -> usize| {
        warm.iter()
            .filter_map(|r| r.pass_stats.get(pass).map(field))
            .max()
            .unwrap_or(0)
    };
    let k1 = largest(1, |s| s.vertices);
    // A scan table is at most 8 B per key of the key bound plus its key
    // list, which holds the distinct communities of one scan: at most a
    // vertex's degree in the first pass and at most k₁ after it, in a
    // doubling vector.
    let keys = key_bound(graph, warm);
    let table = 8.0 * keys as f64 + 4.0 * max_degree(graph).max(k1).next_power_of_two() as f64;
    let mut bound = budget(n, m) + THREADS * table + 8.0 * (k1 + 1) as f64;
    if second_set {
        bound +=
            8.0 * largest(1, |s| s.arcs) as f64 + 8.0 * (largest(2, |s| s.vertices) + 1) as f64;
    }
    bound + CONSTANT_BYTES
}

/// Asserts the warm bound and that a third run left nothing behind, on
/// a graph whose warm runs aggregate exactly once (`twice == false`) or
/// at least twice.
fn assert_warm_footprint(graph: &CsrGraph, twice: bool) -> Warm {
    let warm = warm_footprint(graph);
    let Warm { held, left, .. } = warm;
    for run in &warm.runs {
        let aggregations = run.pass_stats.len() - 1;
        assert!(
            if twice {
                aggregations >= 2
            } else {
                aggregations == 1
            },
            "a warm run aggregated {aggregations} times"
        );
    }
    let bound = warm_bound(graph, &warm.runs, twice);
    assert!(
        held <= bound,
        "warm workspace holds {held} B; bound {bound:.0} B"
    );
    assert_eq!(left, 0, "a third run grew the workspace by {left} B");
    assert!(
        warm.table_capacity <= key_bound(graph, &warm.runs),
        "scan tables hold {} keys",
        warm.table_capacity
    );
    warm
}

#[test]
fn warm_workspace_holds_one_slot_set_when_runs_aggregate_once() {
    let _guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let graph = gve_generate::rmat::Rmat::web(14, 4.0).seed(1).generate();
    assert_warm_footprint(&graph, false);
}

#[test]
fn warm_workspace_holds_two_slot_sets_when_runs_aggregate_twice() {
    let _guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let graph = gve_generate::rmat::Rmat::web(12, 8.0).seed(5).generate();
    assert_warm_footprint(&graph, true);
}

/// Largest first-aggregation community count of the warm runs.
fn first_communities(warm: &Warm) -> usize {
    warm.runs
        .iter()
        .map(|r| r.pass_stats[0].communities)
        .max()
        .unwrap()
}

/// On a road grid no vertex is above the hub threshold, so local-moving
/// and refinement send every scan to the stack tier, and no community
/// is wider than the stack map, so the aggregation sends none to a
/// table either: the warm workspace holds no table slots at all.
#[test]
fn hub_free_warm_workspace_sizes_tables_by_the_first_aggregation() {
    let _guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let graph = gve_generate::grid::road_grid(200, 100, 2.1, 3);
    assert!(max_degree(&graph) <= SMALL_DEGREE_THRESHOLD);
    let warm = assert_warm_footprint(&graph, true);
    assert_eq!(warm.table_capacity, 0, "an aggregation met a table");
    assert!(
        2 * first_communities(&warm) < graph.num_vertices(),
        "the grid barely coarsened"
    );
}

/// A hub-free graph whose first aggregation has a community wider than
/// the stack map (a ten-clique's total degree is over 90) sends that
/// community to a table: the tables reach that aggregation's dense ids,
/// and no more.
#[test]
fn hub_free_wide_communities_size_tables_by_their_aggregation() {
    let _guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let graph = gve_generate::ring::ring_of_cliques(2_000, 10);
    assert!(max_degree(&graph) <= SMALL_DEGREE_THRESHOLD);
    let warm = assert_warm_footprint(&graph, true);
    let k0 = first_communities(&warm);
    assert!(warm.table_capacity >= 1, "no aggregation met a table");
    assert!(
        warm.table_capacity <= k0,
        "tables hold {} keys; the first aggregation had {k0} communities",
        warm.table_capacity
    );
}

/// Growing a warm workspace's tables frees their old slots first: a
/// run whose hubs grow the tables peaks at most the new slots above the
/// same run on a workspace whose tables already hold its keys. Both
/// runs stop after one pass, so the tables are all that differs.
#[test]
fn table_growth_raises_the_peak_by_at_most_the_new_slots() {
    let _guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    // Hub-free ten-cliques warm the tables to their first aggregation's
    // 7 000 dense ids; every vertex of the 18-cliques is a hub, so their
    // local-moving needs all 7 200 vertex ids.
    let narrow = gve_generate::ring::ring_of_cliques(7_000, 10);
    let hubs = gve_generate::ring::ring_of_cliques(400, 18);
    let (n, m) = (narrow.num_vertices(), narrow.num_arcs());
    let one_pass = Leiden::new(LeidenConfig {
        max_passes: 1,
        ..LeidenConfig::default()
    });
    // Peak rise of a one-pass run on `hubs` after `warm_up` warmed a
    // fresh workspace, and the table capacity before it.
    let rise = |warm_up: &CsrGraph| {
        let mut ws = PassWorkspace::with_capacity(n, m);
        single.install(|| Leiden::default().run_in(warm_up, &mut ws));
        let keys = ws.table_capacity();
        alloc_count::reset_watermarks();
        let before = alloc_count::snapshot().current;
        let result = single.install(|| one_pass.run_in(&hubs, &mut ws));
        let rise = alloc_count::snapshot().peak - before;
        assert_eq!(ws.table_capacity(), hubs.num_vertices());
        drop(result);
        (rise, keys)
    };
    let (_, warm_keys) = rise(&narrow);
    assert!(
        0 < warm_keys && warm_keys < hubs.num_vertices(),
        "the warm-up left {warm_keys} keys"
    );
    let growing = least_of_three(|| rise(&narrow).0);
    let grown = least_of_three(|| rise(&hubs).0);
    let new_slots = 8.0 * (hubs.num_vertices() - warm_keys) as f64;
    assert!(
        growing <= grown + new_slots + CONSTANT_BYTES,
        "growing the tables peaked {growing} B above the run's start, against \
         {grown} B with the tables grown and {new_slots} B of new slots"
    );
}

/// A squeeze into a slot set whose offsets are too short for the epoch's
/// super-vertices frees the old offsets before it allocates the new
/// ones: the peak rises by at most the growth.
#[test]
fn squeeze_grows_the_offsets_without_an_overlap() {
    let _guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (small, large) = (1_000, 5_000);
    let rise = least_of_three(|| {
        // A retired graph of `small` vertices and `large` arcs: room for
        // every arc of the epoch below, but offsets for `small` rows.
        let mut offsets = vec![large as u64; small + 1];
        offsets[0] = 0;
        let retired = CsrGraph::from_raw(offsets, vec![0; large], vec![1.0; large]);
        let mut scratch = AggregateScratch::new();
        scratch.recycle(retired);
        // The identity grouping of `large` keys, one arc per row.
        let keys: Vec<u32> = (0..large as u32).collect();
        let mut cursors: Vec<AtomicU32> = (0..large).map(|_| AtomicU32::new(0)).collect();
        let mut members = vec![0; large];
        let mut holey: Vec<AtomicU64> = (0..=large).map(|_| AtomicU64::new(0)).collect();
        let hosts = AggregateHosts {
            cursors: &mut cursors,
            members: &mut members,
            holey_offsets: &mut holey,
        };
        let epoch = scratch.prepare(hosts, &keys, large, |_| 1);
        for c in 0..large as u32 {
            epoch.write_row(c, [(c, 1.0)]);
        }
        alloc_count::reset_watermarks();
        let before = alloc_count::snapshot().current;
        let supergraph = epoch.squeeze();
        let rise = alloc_count::snapshot().peak - before;
        assert_eq!(supergraph.num_vertices(), large);
        assert_eq!(supergraph.num_arcs(), large);
        rise
    });
    let growth = 8.0 * (large - small) as f64;
    assert!(
        rise <= growth + CONSTANT_BYTES,
        "the squeeze peaked {rise} B above its start; the offsets grew by {growth} B"
    );
}
