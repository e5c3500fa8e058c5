//! The traced run: the per-layer metrics.
//!
//! Every call below `EngineSnapshot::search` that the benchmark makes
//! goes through this file, the single adapter between the benchmark and
//! the layers' own public functions; the untraced run never calls them.
//! Each call is timed from here as a span (name, start, end, query or
//! batch id). Spans stay in memory and are written to
//! `.bench_out/trace-<workload>-<seed>.tsv` when the run ends.
//!
//! The traced run replays the head of the workload's seeded query
//! sequence on the workload's serving snapshot three times: a warm
//! pass, an untraced pass (the search calls alone), and a traced pass
//! with every layer call around each search. The difference between
//! the untraced and traced per-search times is the tracing overhead. Counts come from a fixed number of queries on a
//! fixed snapshot, so they repeat exactly at one seed. A layer that the
//! workload's main loop does not reach is timed on a small side sample
//! at the same size, as the untraced run's side legs are.

use crate::check;
use crate::fixture::{
    options, probe_options, OpStream, Workload, BATCH_OPS, BATCH_PERIOD, EXPANSION_CAP,
    PROBE, TOP_K,
};
use crate::host::HostSpeed;
use crate::mix::{Class, Mix, Query};
use crate::run::{self, Config};
use crate::stats::{
    mean, median, ms, percentile, tail_percentile, us, Metric, Outcome, Tally,
};
use cla_core::{
    banks_search_budgeted, enumerate_mtjnts_budgeted, explain_connection,
    instance_closeness_with_cache, BanksOptions, BanksScratch, EngineSnapshot, SearchEngine,
    SearchResults, SnapshotHandle, WitnessCache,
};
use cla_graph::{
    bounded_bfs_distances_into, for_each_path_to_targets_budgeted, NodeId, TraversalScratch,
};
use cla_index::{InvertedIndex, KeywordQuery};
use cla_relational::Database;
use cla_storage::SnapshotImage;
use std::collections::{HashSet, VecDeque};
use std::fmt::Write as _;
use std::hint::black_box;
use std::ops::ControlFlow;
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

/// Image section ids of the index and the relational rows (the image
/// format is described in the repository's `ANALYSIS.md`).
const SECTION_DATABASE: u32 = 3;
const SECTION_INDEX: u32 = 4;
/// Opens decomposed into their stages.
const TRACE_OPENS: usize = 10;
/// Queries replayed at `threads: 0` and `threads: 1` for the fan-out
/// ratio.
const FANOUT_QUERIES: usize = 30;
/// Three-keyword queries sent to DISCOVER where the mix has none.
const SIDE_DISCOVER: usize = 3;
/// Connections of one answer sent through the per-connection layers.
const CONNECTIONS_PER_ANSWER: usize = 20;
/// `SnapshotHandle::latest` calls per timed pin batch.
const PIN_BATCH: u32 = 256;
/// Pin batches timed where no writer runs.
const PIN_BATCHES: usize = 200;

/// Queries of the traced replay, by workload: about a tenth of what an
/// untraced run answers, so that the replay, its untraced twin and the
/// side samples fit in a minute.
fn replay_queries(workload: Workload) -> usize {
    match workload {
        Workload::TopkLarge => 100,
        Workload::FullSmall => 500,
        Workload::Churn => 400,
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    id: usize,
}

/// Spans of one thread, against a shared start.
#[derive(Debug)]
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(origin: Instant) -> Self {
        Tracer { origin, spans: Vec::new() }
    }

    /// Runs `f` as span `name` of request `id`; returns its value and
    /// duration.
    fn time<T>(
        &mut self,
        name: &'static str,
        id: usize,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = self.origin.elapsed();
        let value = f();
        let end = self.origin.elapsed();
        self.spans.push(Span { name, start, end, id });
        (value, end - start)
    }
}

/// The per-layer samples and counts of one traced run.
#[derive(Debug, Default)]
struct Layers {
    lookup_us: Vec<f64>,
    matched_tuples: u64,
    paths_ms: Vec<f64>,
    paths_expansions: u64,
    search_expansions: u64,
    results: u64,
    truncated: u64,
    topk_expansions: u64,
    full_expansions: u64,
    fanout_threads0: Duration,
    fanout_threads1: Duration,
    banks_ms: Vec<f64>,
    banks_expansions: u64,
    discover_ms: Vec<f64>,
    discover_expansions: u64,
    witness_us: Vec<f64>,
    info_us: Vec<f64>,
    render_us: Vec<f64>,
    read_ms: Vec<f64>,
    parse_ms: Vec<f64>,
    image_bytes: u64,
    decode_ms: Vec<f64>,
    validate_ms: Vec<f64>,
    open_ms: Vec<f64>,
    first_search_ms: Vec<f64>,
    stage_us: Vec<f64>,
    apply_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    pin_ns: Vec<f64>,
    untraced_search_ms: Vec<f64>,
    traced_search_ms: Vec<f64>,
    /// Median time of the host-speed reference loop.
    reference_us: f64,
}

/// Per-keyword node sets of `query` on `snap`, through the index layer.
fn match_sets(
    snap: &EngineSnapshot,
    query: &KeywordQuery,
    id: usize,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Vec<Vec<NodeId>> {
    let (matches, t) = tracer.time("index.lookup", id, || snap.keyword_matches(query));
    layers.lookup_us.push(us(t));
    let dg = snap.data_graph();
    matches
        .iter()
        .map(|(_, tuples)| {
            layers.matched_tuples += tuples.len() as u64;
            tuples.iter().filter_map(|&t| dg.node_of(t)).collect()
        })
        .collect()
}

/// The bounded path traversal between two match sets, under the
/// search's expansion cap: a bounded BFS from the targets, then one
/// pruned DFS per source.
fn paths(snap: &EngineSnapshot, sets: &[Vec<NodeId>], max_edges: usize) -> u64 {
    let csr = snap.data_graph().csr();
    let mut is_target = vec![false; csr.node_count()];
    for &b in &sets[1] {
        is_target[b.index()] = true;
    }
    let mut dist = Vec::new();
    let hops = u32::try_from(max_edges).unwrap_or(u32::MAX);
    bounded_bfs_distances_into(csr, &sets[1], hops, &mut dist, &mut VecDeque::new());
    let mut scratch = TraversalScratch::new();
    let mut expansions = 0u64;
    let mut paths = 0u64;
    for &a in &sets[0] {
        let flow = for_each_path_to_targets_budgeted(
            csr,
            a,
            &is_target,
            &dist,
            max_edges,
            &mut expansions,
            &mut scratch,
            &mut |n| n >= EXPANSION_CAP,
            |_, _| {
                paths += 1;
                ControlFlow::Continue(())
            },
        );
        if flow.is_break() {
            break;
        }
    }
    black_box(paths);
    expansions
}

/// DISCOVER's MTJNT enumeration under the expansion cap.
fn discover(snap: &EngineSnapshot, sets: &[Vec<NodeId>], max_rdb: usize) -> u64 {
    let kw_sets: Vec<HashSet<NodeId>> =
        sets.iter().map(|s| s.iter().copied().collect()).collect();
    let mut expansions = 0u64;
    let networks = enumerate_mtjnts_budgeted(
        snap.data_graph(),
        &kw_sets,
        max_rdb + 1,
        &mut expansions,
        &mut |n| n >= EXPANSION_CAP,
    );
    black_box(networks);
    expansions
}

/// One query through the traced search and every layer it reaches.
fn trace_query(
    snap: &EngineSnapshot,
    q: &Query,
    k: Option<usize>,
    tracer: &mut Tracer,
    layers: &mut Layers,
    tally: &mut Tally,
) {
    let opts = options(q.class, k);
    let (r, t) = tracer.time("snapshot.search", q.id, || snap.search(&q.text, &opts));
    layers.traced_search_ms.push(ms(t));
    let Some(r) = tally.ok("search", r) else { return };
    layers.search_expansions += r.stats.expansions;
    layers.results += (r.connections.len() + r.trees.len()) as u64;
    layers.truncated += u64::from(!check::complete(&r));

    let query = KeywordQuery::parse(&q.text);
    let sets = match_sets(snap, &query, q.id, tracer, layers);
    if sets.iter().any(Vec::is_empty) {
        return;
    }
    match q.class {
        Class::Paths => {
            let (n, t) =
                tracer.time("graph.paths", q.id, || paths(snap, &sets, opts.max_rdb_length));
            layers.paths_ms.push(ms(t));
            layers.paths_expansions += n;
            // Streamed against full work on the same query: the k = None
            // side runs without instance closeness, on which expansions
            // do not depend.
            let other = match k {
                Some(_) => options(q.class, None),
                None => options(q.class, Some(TOP_K)),
            };
            let other =
                cla_core::SearchOptions { compute_instance: other.k.is_some(), ..other };
            if let Some(o) = tally.ok("search", snap.search(&q.text, &other)) {
                let (topk, full) = if k.is_some() { (&r, &o) } else { (&o, &r) };
                layers.topk_expansions += topk.stats.expansions;
                layers.full_expansions += full.stats.expansions;
            }
        }
        Class::Banks => {
            let banks_opts = BanksOptions { k, ..BanksOptions::default() };
            let (work, t) = tracer.time("banks.search", q.id, || {
                banks_search_budgeted(
                    snap.data_graph(),
                    &sets,
                    &banks_opts,
                    &mut BanksScratch::new(),
                    &mut |n| n >= EXPANSION_CAP,
                )
                .1
            });
            layers.banks_ms.push(ms(t));
            layers.banks_expansions += work.expansions;
        }
        Class::Discover => {
            let (n, t) = tracer.time("discover.enumerate", q.id, || {
                discover(snap, &sets, opts.max_rdb_length)
            });
            layers.discover_ms.push(ms(t));
            layers.discover_expansions += n;
        }
    }
    per_connection(snap, &query, &r, opts.max_witness_length, q.id, tracer, layers);
}

/// Witness search, ranking metrics and rendering of the leading
/// connections of one answer, each timed per connection.
fn per_connection(
    snap: &EngineSnapshot,
    query: &KeywordQuery,
    r: &SearchResults,
    max_witness: usize,
    id: usize,
    tracer: &mut Tracer,
    layers: &mut Layers,
) {
    let markers = snap.markers(query, &r.display_keywords);
    let (dg, er, mapping) = (snap.data_graph(), snap.er_schema(), snap.mapping());
    let mut cache = WitnessCache::new();
    for c in r.connections.iter().take(CONNECTIONS_PER_ANSWER) {
        let conn = &c.connection;
        let (w, t) = tracer.time("instance.witness", id, || {
            instance_closeness_with_cache(conn, dg, er, mapping, max_witness, &mut cache)
        });
        layers.witness_us.push(us(t));
        black_box(w);
        let (info, t) = tracer.time("ranking.info", id, || {
            snap.connection_info(conn, query, false, max_witness)
        });
        layers.info_us.push(us(t));
        black_box(info);
        let (text, t) = tracer.time("explain.render", id, || {
            explain_connection(conn, dg, er, mapping, snap.aliases(), &markers)
        });
        layers.render_us.push(us(t));
        black_box(text);
    }
}

/// The open path stage by stage, then the open itself and the probe.
fn trace_opens(
    image: &Path,
    catalog_of: &SearchEngine,
    tracer: &mut Tracer,
    layers: &mut Layers,
    tally: &mut Tally,
) {
    let catalog = catalog_of.db().catalog();
    for id in 0..TRACE_OPENS {
        let (bytes, t) = tracer.time("storage.read", id, || std::fs::read(image));
        layers.read_ms.push(ms(t));
        let Some(bytes) = tally.ok("read", bytes) else { continue };
        layers.image_bytes = bytes.len() as u64;
        let (img, t) = tracer.time("storage.parse", id, || SnapshotImage::parse(bytes));
        layers.parse_ms.push(ms(t));
        let Some(img) = tally.ok("parse", img) else { continue };
        let shared = img.into_shared();
        let index = shared.section(SECTION_INDEX);
        let Some(index) = tally.ok("index section", index) else { continue };
        let (decoded, t) = tracer.time("index.decode", id, || InvertedIndex::decode(index));
        layers.decode_ms.push(ms(t));
        tally.ok("index decode", decoded.map(black_box));
        let Some(rows) = tally.ok("database section", shared.section(SECTION_DATABASE))
        else {
            continue;
        };
        let (summary, t) = tracer.time("relational.validate", id, || {
            Database::validate_flat(catalog, rows.as_slice(), |_, _| Ok(()))
        });
        layers.validate_ms.push(ms(t));
        tally.ok("validate", summary.map(black_box));
        let (engine, t) = tracer.time("persist.open", id, || SearchEngine::open(image));
        layers.open_ms.push(ms(t));
        let Some(engine) = tally.ok("open", engine) else { continue };
        let (probe, t) = tracer
            .time("snapshot.first_search", id, || engine.search(PROBE, &probe_options()));
        layers.first_search_ms.push(ms(t));
        tally.ok("probe", probe.map(black_box));
    }
}

/// `SnapshotHandle::latest`, [`PIN_BATCH`] calls per sample, in ns per
/// call.
fn time_pins(handle: &SnapshotHandle) -> f64 {
    let t = Instant::now();
    for _ in 0..PIN_BATCH {
        black_box(handle.latest());
    }
    t.elapsed().as_nanos() as f64 / f64::from(PIN_BATCH)
}

/// Paced batches with spans around every typed op and apply; records
/// staging, apply and lateness samples.
#[allow(clippy::too_many_arguments)]
fn trace_writes(
    engine: &mut SearchEngine,
    ops: &mut OpStream,
    batches: usize,
    period: Duration,
    stop: Duration,
    tracer: &mut Tracer,
    layers: &mut Layers,
    tally: &mut Tally,
) {
    let offset = tracer.origin.elapsed();
    let mut staged = Vec::new();
    let done = run::paced_writes(engine, ops, batches, period, stop, tally, |end, t| {
        staged.push((end, t))
    });
    for (i, &(end, t)) in staged.iter().enumerate() {
        layers.stage_us.push(us(t));
        let end = offset + end;
        tracer.spans.push(Span {
            name: "relational.stage",
            start: end - t,
            end,
            id: i / BATCH_OPS,
        });
    }
    for (i, b) in done.iter().enumerate() {
        layers.apply_ms.push(ms(b.end - b.apply_start));
        layers.lateness_ms.push(ms(b.start.saturating_sub(b.due)));
        tracer.spans.push(Span {
            name: "writer.apply",
            start: offset + b.apply_start,
            end: offset + b.end,
            id: i,
        });
    }
}

/// The per-layer metrics of one traced run.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut host = HostSpeed::new();
    let mut setup = run::setup(cfg, &mut host)?;
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let mut layers = Layers::default();
    let mut tally = Tally::default();
    let k = cfg.workload.k();
    let mix = run::mix(cfg, &setup.engine);
    let replay: Vec<Query> = mix.clone().take(replay_queries(cfg.workload)).collect();

    // The serving snapshot: the opened image on topk_large, generation 0
    // of the built engine elsewhere.
    let opened = match cfg.workload {
        Workload::TopkLarge => {
            Some(SearchEngine::open(&setup.image).map_err(|e| e.to_string())?)
        }
        _ => None,
    };
    let snap = opened.as_ref().unwrap_or(&setup.engine).snapshot();
    black_box(snap.aliases());

    // A warm pass, then the untraced pass the traced one is compared
    // against.
    for timed in [false, true] {
        for q in &replay {
            if !timed {
                host.poll();
            }
            let t = Instant::now();
            let r = snap.search(&q.text, &options(q.class, k));
            if timed {
                layers.untraced_search_ms.push(ms(t.elapsed()));
            }
            tally.ok("search", r.map(black_box));
        }
    }
    for q in &replay {
        trace_query(&snap, q, k, &mut tracer, &mut layers, &mut tally);
    }
    for q in replay.iter().take(FANOUT_QUERIES) {
        let mut time = |threads| {
            let o = cla_core::SearchOptions { threads, ..options(q.class, k) };
            let t = Instant::now();
            tally.ok("search", snap.search(&q.text, &o).map(black_box));
            t.elapsed()
        };
        layers.fanout_threads0 += time(0);
        layers.fanout_threads1 += time(1);
    }
    if cfg.workload != Workload::FullSmall {
        // DISCOVER is not in this mix: enumerate a few of its
        // three-keyword queries on the same snapshot.
        let side =
            mix.clone().filter(|q| q.class == Class::Banks && !q.dead).take(SIDE_DISCOVER);
        for q in side {
            let query = KeywordQuery::parse(&q.text);
            let sets = match_sets(&snap, &query, q.id, &mut tracer, &mut layers);
            let max_rdb = options(Class::Discover, k).max_rdb_length;
            let (n, t) =
                tracer.time("discover.enumerate", q.id, || discover(&snap, &sets, max_rdb));
            layers.discover_ms.push(ms(t));
            layers.discover_expansions += n;
        }
    }
    drop(snap);

    trace_opens(&setup.image, &setup.engine, &mut tracer, &mut layers, &mut tally);

    match cfg.workload {
        Workload::Churn => {
            churn(cfg, &mut setup.engine, mix, &mut tracer, &mut layers, &mut tally)
        }
        _ => {
            // No writer: pins on an idle handle, then the publish side
            // leg's batches.
            let handle = setup.engine.snapshots();
            layers.pin_ns = (0..PIN_BATCHES).map(|_| time_pins(&handle)).collect();
            let mut engine = opened.unwrap_or(setup.engine);
            let ops = OpStream::new(&engine, cfg.workload.departments());
            if let Some(mut ops) = tally.ok("writer setup", ops) {
                run::paced_writes(
                    &mut engine,
                    &mut ops,
                    1,
                    Duration::ZERO,
                    Duration::MAX,
                    &mut tally,
                    |_, _| {},
                );
                trace_writes(
                    &mut engine,
                    &mut ops,
                    run::Burst::of(cfg.workload).batches * run::BURSTS as usize,
                    Duration::ZERO,
                    Duration::MAX,
                    &mut tracer,
                    &mut layers,
                    &mut tally,
                );
            }
        }
    }
    let _ = std::fs::remove_file(cfg.image());

    let spans = cfg.out_dir.join(format!("trace-{}-{}.tsv", cfg.workload.name(), cfg.seed));
    let mut out = String::from("name\tstart_us\tend_us\tid\n");
    tracer.spans.sort_by_key(|s| s.start);
    for s in &tracer.spans {
        let _ = writeln!(out, "{}\t{:.3}\t{:.3}\t{}", s.name, us(s.start), us(s.end), s.id);
    }
    std::fs::write(&spans, out).map_err(|e| format!("{}: {e}", spans.display()))?;
    eprintln!("perfbench: {} spans written to {}", tracer.spans.len(), spans.display());
    layers.reference_us = host.median_secs() * 1e6;
    Ok(Outcome { tally, metrics: metrics(&layers) })
}

/// The churn trace: the untraced run's writer and reader, for the same
/// time, with spans around every typed op, apply and pin batch.
fn churn(
    cfg: &Config,
    engine: &mut SearchEngine,
    mut mix: Mix,
    tracer: &mut Tracer,
    layers: &mut Layers,
    tally: &mut Tally,
) {
    let k = cfg.workload.k();
    let handle = engine.snapshots();
    let pin = engine.snapshot();
    let Some(mut ops) =
        tally.ok("writer setup", OpStream::new(engine, cfg.workload.departments()))
    else {
        return;
    };
    run::paced_writes(engine, &mut ops, 1, Duration::ZERO, Duration::MAX, tally, |_, _| {});
    let measure = Duration::from_secs_f64(cfg.seconds);
    let mut writer_layers = Layers::default();
    let mut writer_tracer = Tracer::new(tracer.origin);
    let mut writer_tally = Tally::default();
    let joined = thread::scope(|s| {
        let writer = s.spawn(|| {
            trace_writes(
                engine,
                &mut ops,
                usize::MAX,
                BATCH_PERIOD,
                measure,
                &mut writer_tracer,
                &mut writer_layers,
                &mut writer_tally,
            )
        });
        let deadline = Instant::now() + measure;
        while Instant::now() < deadline {
            let Some(q) = mix.next() else { break };
            let (ns, _) = tracer.time("swap.pin", q.id, || time_pins(&handle));
            layers.pin_ns.push(ns);
            let snapshot = handle.latest();
            let (r, _) = tracer.time("snapshot.search", q.id, || {
                snapshot.search(&q.text, &options(q.class, k))
            });
            tally.ok("search", r.map(black_box));
        }
        writer.join()
    });
    tally.record(joined.is_ok());
    black_box(pin);
    tally.absorb(writer_tally);
    tracer.spans.append(&mut writer_tracer.spans);
    layers.stage_us = writer_layers.stage_us;
    layers.apply_ms = writer_layers.apply_ms;
    layers.lateness_ms = writer_layers.lateness_ms;
}

fn metrics(l: &Layers) -> Vec<Metric> {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("index.lookup_us", median(&l.lookup_us), "us"),
        m("index.matched_tuples", l.matched_tuples as f64, "count"),
        m("index.decode_ms", median(&l.decode_ms), "ms"),
        m("graph.paths_ms", median(&l.paths_ms), "ms"),
        m("graph.expansions", l.paths_expansions as f64, "count"),
        m("snapshot.expansions", l.search_expansions as f64, "count"),
        m("snapshot.results", l.results as f64, "count"),
        m("snapshot.truncated", l.truncated as f64, "count"),
        m(
            "snapshot.topk_work_ratio",
            ratio(l.topk_expansions as f64, l.full_expansions as f64),
            "ratio",
        ),
        m(
            "snapshot.fanout_slowdown",
            ratio(l.fanout_threads0.as_secs_f64(), l.fanout_threads1.as_secs_f64()),
            "ratio",
        ),
        m("snapshot.first_search_ms", median(&l.first_search_ms), "ms"),
        m("banks.search_ms", median(&l.banks_ms), "ms"),
        m("banks.expansions", l.banks_expansions as f64, "count"),
        m("discover.enumerate_ms", median(&l.discover_ms), "ms"),
        m("discover.expansions", l.discover_expansions as f64, "count"),
        m("instance.witness_us", median(&l.witness_us), "us"),
        m("ranking.info_us", median(&l.info_us), "us"),
        m("explain.render_us", median(&l.render_us), "us"),
        m("storage.read_ms", median(&l.read_ms), "ms"),
        m("storage.parse_ms", median(&l.parse_ms), "ms"),
        m("storage.image_bytes", l.image_bytes as f64, "B"),
        m("relational.validate_ms", median(&l.validate_ms), "ms"),
        m("relational.stage_us", median(&l.stage_us), "us"),
        m("persist.open_ms", median(&l.open_ms), "ms"),
        m("writer.apply_ms", mean(&l.apply_ms), "ms"),
        m(
            "writer.apply_tail_ms",
            percentile(&l.apply_ms, tail_percentile(l.apply_ms.len())),
            "ms",
        ),
        m(
            "writer.lateness_ms",
            percentile(&l.lateness_ms, tail_percentile(l.lateness_ms.len())),
            "ms",
        ),
        m("swap.pin_ns", median(&l.pin_ns), "ns"),
        m(
            "trace.overhead_p50_us",
            1e3 * (median(&l.traced_search_ms) - median(&l.untraced_search_ms)),
            "us",
        ),
        m(
            "trace.overhead_mean_us",
            1e3 * (mean(&l.traced_search_ms) - mean(&l.untraced_search_ms)),
            "us",
        ),
        m("host.reference_us", l.reference_us, "us"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::build_engine;

    /// The counters a traced replay of the mix's first queries reports
    /// as exact, from an engine built afresh.
    fn counts(seed: u64) -> Vec<u64> {
        let engine = build_engine(16).expect("dept16 builds");
        let snap = engine.snapshot();
        let mut layers = Layers::default();
        let mut tracer = Tracer::new(Instant::now());
        let mut tally = Tally::default();
        let w = Workload::Churn;
        for q in Mix::new(engine.index(), w.shares(), seed).take(80) {
            trace_query(&snap, &q, w.k(), &mut tracer, &mut layers, &mut tally);
        }
        assert_eq!(tally.failed, 0);
        assert!(layers.search_expansions > 0 && layers.results > 0);
        vec![
            layers.search_expansions,
            layers.results,
            layers.truncated,
            layers.matched_tuples,
            layers.paths_expansions,
            layers.banks_expansions,
            layers.topk_expansions,
            layers.full_expansions,
        ]
    }

    #[test]
    fn counts_repeat_exactly_at_one_seed() {
        assert_eq!(counts(4), counts(4));
    }

    #[test]
    fn image_bytes_repeat_exactly() {
        let dir = std::env::temp_dir();
        let bytes = |name: &str| {
            let path = dir.join(format!("perfbench-{}-{name}.img", std::process::id()));
            build_engine(16).expect("dept16 builds").save(&path).expect("image saves");
            let len = std::fs::metadata(&path).expect("image exists").len();
            std::fs::remove_file(&path).expect("image removed");
            len
        };
        assert_eq!(bytes("a"), bytes("b"));
    }
}
