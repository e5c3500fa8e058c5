//! The untraced runs behind the end-to-end metrics. They use only the
//! façade, snapshot, writer and open/save API.
//!
//! Every workload reports every end-to-end metric. Its main loop
//! measures the metrics it exists for; the rest come from side legs at
//! the same size: an open leg (open plus probe) where the main loop
//! does not open, and a publish leg where it does not write. Side legs
//! run in short bursts between the main loop's operations, outside
//! their timed calls.
//!
//! Every timing is reported at the reference host speed (see
//! [`crate::host`]): the run samples a fixed reference loop between its
//! operations and scales each time by the samples taken around it. The
//! unscaled values go to standard error.

use crate::check;
use crate::fixture::{
    build_engine, options, probe_options, OpStream, Workload, BATCH_PERIOD, PROBE,
};
use crate::host::{raw, HostSpeed, Timing};
use crate::mix::{Mix, Query};
use crate::stats::{
    beyond, mean, median, ms, peak_rss_mib, percentile, Metric, Outcome, Tally,
};
use cla_core::{SearchEngine, SearchResults};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

/// Side legs and repeated setup builds run in this many bursts, spread
/// evenly over the timed loop. The shared host switches between fast
/// and slow phases that last seconds. Small operations (an open of a
/// 115 KiB image, a 0.15 ms publish, a 3 ms build) differ by up to 80 %
/// between phases, so done in one block they sampled a single phase
/// and spread by 30–50 % from run to run.
pub const BURSTS: u32 = 40;

/// What each side-leg burst does: setup builds, opens plus probe, and
/// publish-leg batches. The first operation of a burst finds the
/// caches filled by the main loop, so a burst holds enough of them for
/// that one not to set the burst's figures. A dept1024 build takes a
/// third of a second, so `topk_large` builds before the timed loop
/// only; its main loop opens, and its batches take 4 ms each.
#[derive(Debug, Clone, Copy)]
pub struct Burst {
    pub builds: usize,
    pub opens: usize,
    pub batches: usize,
}

impl Burst {
    pub fn of(workload: Workload) -> Self {
        match workload {
            Workload::TopkLarge => Burst { builds: 0, opens: 0, batches: 10 },
            Workload::FullSmall => Burst { builds: 2, opens: 20, batches: 20 },
            Workload::Churn => Burst { builds: 1, opens: 10, batches: 0 },
        }
    }
}
/// Queries answered untimed before the timed loop, so that caches and
/// the allocator are warm when timing starts.
pub const WARMUP_QUERIES: usize = 5 * crate::mix::ROUND;
/// Queries a `topk_large` session answers after its open and probe:
/// one round of the mix, so each session holds the class shares.
pub const SESSION_QUERIES: usize = crate::mix::ROUND;
/// Leading queries of the mix every answer check replays.
pub const CHECK_QUERIES: usize = 24;
/// Tail percentile of the publish latency. The side legs' batches come
/// in bursts of 10–20 that share the host's state, so one slow burst
/// holds that many of the slowest batches: at p98 of `full_small`'s 800
/// (16 beyond) a single burst set the tail, which spread by 19 % over
/// five runs. p95 leaves 20 of `topk_large`'s 400 and 40 of
/// `full_small`'s 800 beyond it. The churn writer publishes 9,000
/// batches in 45 seconds; at p99 host stalls set its tail, which spread
/// by 36 % over ten runs, so it is reported at p98 (180 beyond).
fn publish_tail_percentile(workload: Workload) -> f64 {
    match workload {
        Workload::TopkLarge | Workload::FullSmall => 95.0,
        Workload::Churn => 98.0,
    }
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Where the image and the trace go (inside the checkout).
    pub out_dir: PathBuf,
}

impl Config {
    pub fn image(&self) -> PathBuf {
        self.out_dir.join(format!("{}-{}.img", self.workload.name(), self.seed))
    }

    fn measure_for(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What every run starts from.
pub struct Setup {
    /// The engine the workload serves (for `topk_large`, the one that
    /// saved the image).
    pub engine: SearchEngine,
    /// The engine's image on disk.
    pub image: PathBuf,
    pub image_bytes: u64,
    pub tuples: usize,
    /// Setup build times in seconds; `setup_s` is their median.
    pub setup_times: Vec<Timing>,
}

/// Setup builds timed for `setup_s` before the timed loop; the small
/// workloads add those of their bursts.
fn setup_reps(workload: Workload) -> usize {
    match workload {
        Workload::TopkLarge => 5,
        Workload::FullSmall | Workload::Churn => 1,
    }
}

/// One timed setup build: generate the database and index it, and on
/// `topk_large`, which serves from its image, save the image.
fn build_once(cfg: &Config) -> Result<(SearchEngine, Timing), String> {
    let t = Instant::now();
    let engine = build_engine(cfg.workload.departments()).map_err(|e| e.to_string())?;
    if cfg.workload == Workload::TopkLarge {
        engine.save(cfg.image()).map_err(|e| e.to_string())?;
    }
    Ok((engine, (t, t.elapsed().as_secs_f64())))
}

/// Host-speed samples taken before each setup build that precedes the
/// timed loop, and after the last, so that the builds have samples
/// around them.
const SAMPLES_PER_BUILD: usize = 4;

/// The setup builds before the timed loop; keeps the last engine. The
/// workloads that do not serve from an image save one, untimed, for
/// the open leg.
pub fn setup(cfg: &Config, host: &mut HostSpeed) -> Result<Setup, String> {
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    let mut setup_times = Vec::new();
    let mut engine = None;
    for _ in 0..setup_reps(cfg.workload) {
        // One engine in memory at a time, so the peak RSS is the run's.
        drop(engine.take());
        (0..SAMPLES_PER_BUILD).for_each(|_| host.sample());
        let (built, secs) = build_once(cfg)?;
        setup_times.push(secs);
        engine = Some(built);
    }
    (0..SAMPLES_PER_BUILD).for_each(|_| host.sample());
    let engine = engine.ok_or("no setup build")?;
    let image = cfg.image();
    if cfg.workload != Workload::TopkLarge {
        engine.save(&image).map_err(|e| e.to_string())?;
    }
    let image_bytes =
        std::fs::metadata(&image).map_err(|e| format!("{}: {e}", image.display()))?.len();
    let tuples = engine.db().total_tuples();
    Ok(Setup { engine, image, image_bytes, tuples, setup_times })
}

/// The side legs and repeated setup builds of one run, in [`BURSTS`]
/// bursts spread evenly over the timed loop, and its host-speed
/// samples. The loop calls [`SideLegs::poll`] between its timed
/// operations.
struct SideLegs<'a> {
    cfg: &'a Config,
    every: Duration,
    next: Instant,
    bursts: u32,
    opens: bool,
    /// The publish leg's own engine and write stream.
    writer: Option<(SearchEngine, OpStream)>,
    setup_times: Vec<Timing>,
    open_ms: Vec<Timing>,
    publish_ms: Vec<Timing>,
    /// The run's host-speed samples, also taken between operations.
    host: HostSpeed,
}

impl<'a> SideLegs<'a> {
    fn new(
        cfg: &'a Config,
        setup_times: Vec<Timing>,
        opens: bool,
        writer: Option<(SearchEngine, OpStream)>,
        host: HostSpeed,
    ) -> Self {
        let every = cfg.measure_for() / BURSTS;
        SideLegs {
            cfg,
            every,
            next: Instant::now() + every / 2,
            bursts: 0,
            opens,
            writer,
            setup_times,
            open_ms: Vec::new(),
            publish_ms: Vec::new(),
            host,
        }
    }

    /// Samples the host's speed and runs a burst, each if one is due.
    fn poll(&mut self, tally: &mut Tally) {
        self.host.poll();
        if self.bursts < BURSTS && Instant::now() >= self.next {
            self.burst(tally);
            self.bursts += 1;
            self.next += self.every;
        }
    }

    /// Runs the bursts the timed loop left undone, when its last
    /// operations overran the deadline.
    fn finish(mut self, tally: &mut Tally) -> Self {
        while self.bursts < BURSTS {
            self.burst(tally);
            self.bursts += 1;
        }
        self
    }

    fn burst(&mut self, tally: &mut Tally) {
        let reps = Burst::of(self.cfg.workload);
        for _ in 0..reps.builds {
            if let Some((engine, secs)) = tally.ok("setup", build_once(self.cfg)) {
                self.setup_times.push(secs);
                drop(engine);
            }
        }
        if self.opens {
            self.open_ms.extend(open_leg(&self.cfg.image(), reps.opens, tally));
        }
        if let Some((engine, ops)) = &mut self.writer {
            let batches = paced_writes(
                engine,
                ops,
                reps.batches,
                Duration::ZERO,
                Duration::MAX,
                tally,
                |_, _| {},
            );
            self.publish_ms.extend(publish_timings(&batches));
        }
    }
}

/// The publish leg's engine and stream, after one untimed batch: the
/// first apply materializes lazily opened state and clones the first
/// build buffer. Its batches run back to back, because at dept1024 an
/// apply can take longer than the churn writer's period.
fn side_writer(
    mut engine: SearchEngine,
    cfg: &Config,
    tally: &mut Tally,
) -> Option<(SearchEngine, OpStream)> {
    let mut ops =
        tally.ok("writer setup", OpStream::new(&engine, cfg.workload.departments()))?;
    paced_writes(&mut engine, &mut ops, 1, Duration::ZERO, Duration::MAX, tally, |_, _| {});
    Some((engine, ops))
}

/// The workload's query mix for this run's seed.
pub fn mix(cfg: &Config, engine: &SearchEngine) -> Mix {
    Mix::new(engine.index(), cfg.workload.shares(), cfg.seed)
}

/// Latencies and answer counts of the searches of a main loop.
#[derive(Debug, Default)]
struct Searches {
    latency_ms: Vec<Timing>,
    answers: u64,
    truncated: u64,
}

impl Searches {
    /// Runs `q` against `search`, timing the call alone.
    fn run(
        &mut self,
        q: &Query,
        k: Option<usize>,
        tally: &mut Tally,
        search: impl FnOnce(
            &str,
            &cla_core::SearchOptions,
        ) -> Result<SearchResults, cla_core::CoreError>,
    ) {
        let opts = options(q.class, k);
        let t = Instant::now();
        let r = search(&q.text, &opts);
        self.latency_ms.push((t, ms(t.elapsed())));
        if let Some(r) = tally.ok("search", r) {
            self.answers += 1;
            self.truncated += u64::from(!check::complete(&r));
            black_box(r);
        }
    }
}

/// One write batch: the instant its staging started, and its due
/// time, staging start, apply start and apply end, all relative to the
/// writer's start.
#[derive(Debug, Clone, Copy)]
pub struct Batch {
    pub at: Instant,
    pub due: Duration,
    pub start: Duration,
    pub apply_start: Duration,
    pub end: Duration,
}

/// Publish latency of each batch, in ms: from its due time until its
/// `apply` returns, for a writer that starts every batch the moment it
/// is due and the previous one has returned. Each batch keeps its
/// measured staging and apply time, and a batch that outlasts the
/// period delays the ones after it. The writer thread itself sleeps
/// until a batch is due and often wakes milliseconds late on a shared
/// host (a sleeping core may be descheduled); that lateness belongs to
/// the benchmark, not the engine, and the traced run reports it as
/// `writer.lateness_ms`.
pub fn publish_ms(batches: &[Batch]) -> Vec<f64> {
    let mut free = Duration::ZERO;
    batches
        .iter()
        .map(|b| {
            let start = b.due.max(free);
            free = start + (b.end - b.start);
            ms(free - b.due)
        })
        .collect()
}

/// [`publish_ms`] with the instant each batch started.
fn publish_timings(batches: &[Batch]) -> Vec<Timing> {
    batches.iter().map(|b| b.at).zip(publish_ms(batches)).collect()
}

/// The writer. With a nonzero `period` it is an open loop: batch `i`
/// is due `i × period` after the start, whether or not earlier batches
/// have returned. With a zero `period` each batch is due when the
/// previous one returns. It stops after `batches` batches or once the
/// next batch is due at `stop`, whichever comes first. `staged` sees
/// every typed op's end (since the start) and staging time.
pub fn paced_writes(
    engine: &mut SearchEngine,
    ops: &mut OpStream,
    batches: usize,
    period: Duration,
    stop: Duration,
    tally: &mut Tally,
    mut staged: impl FnMut(Duration, Duration),
) -> Vec<Batch> {
    let start = Instant::now();
    let mut out = Vec::new();
    for i in 0..batches {
        let due = if period.is_zero() { start.elapsed() } else { period * i as u32 };
        if due >= stop {
            break;
        }
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            thread::sleep(wait);
        }
        let at = Instant::now();
        let begin = at - start;
        let staged_ok = ops.stage_batch(engine, |t| staged(start.elapsed(), t));
        if tally.ok("stage", staged_ok).is_none() {
            continue;
        }
        let apply_start = start.elapsed();
        let applied = engine.apply();
        let end = start.elapsed();
        if tally.ok("apply", applied).is_some() {
            out.push(Batch { at, due, start: begin, apply_start, end });
        }
    }
    out
}

/// Answers the next [`WARMUP_QUERIES`] queries of the mix untimed.
fn warm_up(
    mix: &mut Mix,
    k: Option<usize>,
    host: &mut HostSpeed,
    tally: &mut Tally,
    search: impl Fn(&str, &cla_core::SearchOptions) -> Result<SearchResults, cla_core::CoreError>,
) {
    for q in mix.take(WARMUP_QUERIES) {
        host.poll();
        tally.ok("search", search(&q.text, &options(q.class, k)).map(black_box));
    }
}

/// Open plus probe, `reps` times; latencies in ms.
fn open_leg(image: &Path, reps: usize, tally: &mut Tally) -> Vec<Timing> {
    let mut out = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let Some(engine) = tally.ok("open", SearchEngine::open(image)) else { continue };
        let probe = tally.ok("probe", engine.search(PROBE, &probe_options()));
        out.push((t, ms(t.elapsed())));
        black_box(probe);
    }
    out
}

/// Records whether `a` and `b` agree; prints the query when they do not.
fn agree(tally: &mut Tally, what: &str, q: &str, a: &str, b: &str) {
    tally.record(a == b);
    if a != b {
        eprintln!("perfbench: {what} check failed on `{q}`");
    }
}

/// The end-to-end metrics of one untraced run.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut host = HostSpeed::new();
    let mut setup = setup(cfg, &mut host)?;
    let mut tally = Tally::default();
    let mut mix = mix(cfg, &setup.engine);
    let check_sample: Vec<Query> = mix.clone().take(CHECK_QUERIES).collect();
    let k = cfg.workload.k();
    let mut searches = Searches::default();
    let setup_times = std::mem::take(&mut setup.setup_times);

    let (mut legs, open_first_ms, publish) = match cfg.workload {
        Workload::TopkLarge => {
            if let Some(engine) = tally.ok("open", SearchEngine::open(&setup.image)) {
                warm_up(&mut mix, k, &mut host, &mut tally, |text, o| engine.search(text, o));
            }
            let writer = tally
                .ok("open", SearchEngine::open(&setup.image))
                .and_then(|engine| side_writer(engine, cfg, &mut tally));
            let mut legs = SideLegs::new(cfg, setup_times, false, writer, host);
            let mut opens = Vec::new();
            let deadline = Instant::now() + cfg.measure_for();
            'sessions: while Instant::now() < deadline {
                legs.poll(&mut tally);
                let t = Instant::now();
                let Some(engine) = tally.ok("open", SearchEngine::open(&setup.image)) else {
                    break;
                };
                let probe = tally.ok("probe", engine.search(PROBE, &probe_options()));
                opens.push((t, ms(t.elapsed())));
                black_box(probe);
                for q in mix.by_ref().take(SESSION_QUERIES) {
                    if Instant::now() >= deadline {
                        break 'sessions;
                    }
                    legs.host.poll();
                    searches.run(&q, k, &mut tally, |text, o| engine.search(text, o));
                }
            }
            let legs = legs.finish(&mut tally);
            // Opened ≡ the engine that saved the image, on the probe and
            // on the leading queries of the mix.
            if let Some(opened) = tally.ok("open", SearchEngine::open(&setup.image)) {
                let probe = std::iter::once((PROBE.to_owned(), probe_options()));
                let sample =
                    check_sample.iter().map(|q| (q.text.clone(), options(q.class, k)));
                for (text, o) in probe.chain(sample) {
                    let a = opened.search(&text, &o).map(|r| check::answer_and_work(&r));
                    let b =
                        setup.engine.search(&text, &o).map(|r| check::answer_and_work(&r));
                    match (a, b) {
                        (Ok(a), Ok(b)) => agree(&mut tally, "opened ≡ saved", &text, &a, &b),
                        _ => tally.record(false),
                    }
                }
            }
            let publish = legs.publish_ms.clone();
            (legs, opens, publish)
        }
        Workload::FullSmall => {
            warm_up(&mut mix, k, &mut host, &mut tally, |text, o| {
                setup.engine.search(text, o)
            });
            // The publish leg writes to an engine of its own, so the
            // queries keep answering on generation 0.
            let writer = tally
                .ok("setup", build_engine(cfg.workload.departments()))
                .and_then(|engine| side_writer(engine, cfg, &mut tally));
            let mut legs = SideLegs::new(cfg, setup_times, true, writer, host);
            let deadline = Instant::now() + cfg.measure_for();
            while Instant::now() < deadline {
                legs.poll(&mut tally);
                let Some(q) = mix.next() else { break };
                searches.run(&q, k, &mut tally, |text, o| setup.engine.search(text, o));
            }
            let legs = legs.finish(&mut tally);
            // Streamed ≡ full prefix on the sampled Paths queries that
            // completed: k = 10 returns the first 10 of k = None.
            let top = crate::fixture::TOP_K;
            for q in check_sample.iter().filter(|q| q.class == crate::mix::Class::Paths) {
                let full = setup.engine.search(&q.text, &options(q.class, None));
                let streamed = setup.engine.search(&q.text, &options(q.class, Some(top)));
                match (full, streamed) {
                    (Ok(f), Ok(s)) if check::complete(&f) && check::complete(&s) => agree(
                        &mut tally,
                        "streamed ≡ full prefix",
                        &q.text,
                        &check::answer(&s),
                        &check::answer_prefix(&f, top),
                    ),
                    (Ok(_), Ok(_)) => {}
                    _ => tally.record(false),
                }
            }
            let (opens, publish) = (legs.open_ms.clone(), legs.publish_ms.clone());
            (legs, opens, publish)
        }
        Workload::Churn => {
            let mut legs = SideLegs::new(cfg, setup_times, true, None, host);
            let batches = churn(
                cfg,
                &mut setup.engine,
                &mut mix,
                &check_sample,
                &mut searches,
                &mut legs,
                &mut tally,
            );
            let legs = legs.finish(&mut tally);
            let opens = legs.open_ms.clone();
            (legs, opens, publish_timings(&batches))
        }
    };
    let _ = std::fs::remove_file(&setup.image);

    legs.host.sample();
    let host = &legs.host;

    let tail_p = cfg.workload.tail_percentile();
    let publish_tail = publish_tail_percentile(cfg.workload);
    eprintln!(
        "perfbench: {} seed {}: query_tail_ms is p{tail_p} of {} searches ({} beyond); \
         publish_tail_ms is p{publish_tail} of {} batches ({} beyond)",
        cfg.workload.name(),
        cfg.seed,
        searches.latency_ms.len(),
        beyond(&raw(&searches.latency_ms), tail_p),
        publish.len(),
        beyond(&raw(&publish), publish_tail),
    );
    let timings = |adjust: &dyn Fn(&[Timing]) -> Vec<f64>| {
        let latency = adjust(&searches.latency_ms);
        let busy_s: f64 = latency.iter().sum::<f64>() / 1e3;
        let publish = adjust(&publish);
        vec![
            Metric { name: "setup_s", value: median(&adjust(&legs.setup_times)), unit: "s" },
            Metric {
                name: "open_first_answer_ms",
                value: median(&adjust(&open_first_ms)),
                unit: "ms",
            },
            Metric { name: "query_p50_ms", value: median(&latency), unit: "ms" },
            Metric { name: "query_tail_ms", value: percentile(&latency, tail_p), unit: "ms" },
            Metric {
                name: "queries_per_s",
                value: if busy_s > 0.0 { latency.len() as f64 / busy_s } else { 0.0 },
                unit: "1/s",
            },
            Metric { name: "publish_mean_ms", value: mean(&publish), unit: "ms" },
            Metric {
                name: "publish_tail_ms",
                value: percentile(&publish, publish_tail),
                unit: "ms",
            },
        ]
    };
    let unscaled: Vec<String> = timings(&|t: &[Timing]| raw(t))
        .iter()
        .map(|m| format!("{}={:.6}", m.name, m.value))
        .collect();
    eprintln!(
        "perfbench: reference loop median {:.1} us (nominal {:.1} us); unscaled: {}",
        host.median_secs() * 1e6,
        crate::host::NOMINAL_SECS * 1e6,
        unscaled.join(" ")
    );
    let answers = searches.answers.max(1) as f64;
    let mut metrics = timings(&|t: &[Timing]| host.adjust(t));
    metrics.extend([
        Metric {
            name: "complete_share",
            value: 1.0 - searches.truncated as f64 / answers,
            unit: "ratio",
        },
        Metric { name: "peak_rss_mib", value: peak_rss_mib(), unit: "MiB" },
        Metric {
            name: "image_bytes_per_tuple",
            value: setup.image_bytes as f64 / setup.tuples.max(1) as f64,
            unit: "B",
        },
        Metric {
            name: "ok_share",
            value: 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
            unit: "ratio",
        },
    ]);
    Ok(Outcome { tally, metrics })
}

/// The churn main loop: the paced writer on a second thread, the
/// closed-loop reader on this one (which also runs the side-leg
/// bursts), and a pin on generation 0 held throughout. Checks patched ≡
/// rebuilt and the pin's stability after both stop. Returns the
/// writer's batches.
fn churn(
    cfg: &Config,
    engine: &mut SearchEngine,
    mix: &mut Mix,
    check_sample: &[Query],
    searches: &mut Searches,
    legs: &mut SideLegs<'_>,
    tally: &mut Tally,
) -> Vec<Batch> {
    let k = cfg.workload.k();
    let handle = engine.snapshots();
    let pin = engine.snapshot();
    let pinned = |q: &Query| {
        pin.search(&q.text, &options(q.class, k)).map(|r| check::answer_and_work(&r))
    };
    let before: Vec<_> = check_sample.iter().map(pinned).collect();
    let Some(mut ops) =
        tally.ok("writer setup", OpStream::new(engine, cfg.workload.departments()))
    else {
        return Vec::new();
    };
    warm_up(mix, k, &mut legs.host, tally, |text, o| handle.latest().search(text, o));
    // The first apply clones a build buffer; it happens untimed.
    paced_writes(engine, &mut ops, 1, Duration::ZERO, Duration::MAX, tally, |_, _| {});
    let measure = cfg.measure_for();
    let batches = thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut writer_tally = Tally::default();
            let batches = paced_writes(
                engine,
                &mut ops,
                usize::MAX,
                BATCH_PERIOD,
                measure,
                &mut writer_tally,
                |_, _| {},
            );
            (batches, writer_tally)
        });
        let deadline = Instant::now() + measure;
        while Instant::now() < deadline {
            legs.poll(tally);
            let Some(q) = mix.next() else { break };
            let snapshot = handle.latest();
            searches.run(&q, k, tally, |text, o| snapshot.search(text, o));
        }
        writer.join()
    });
    let batches = match batches {
        Ok((batches, writer_tally)) => {
            tally.absorb(writer_tally);
            batches
        }
        Err(_) => {
            tally.record(false);
            Vec::new()
        }
    };

    // Patched ≡ rebuilt: the final generation against an engine built
    // from scratch over the writer's database. Answers cut by the
    // expansion cap depend on node order, so only complete ones count.
    let rebuilt = SearchEngine::new(
        engine.db().clone(),
        engine.er_schema().clone(),
        engine.mapping().clone(),
    )
    .map(|e| e.with_aliases(engine.aliases().clone()));
    if let Some(rebuilt) = tally.ok("rebuild", rebuilt) {
        for q in check_sample {
            let o = options(q.class, k);
            match (engine.search(&q.text, &o), rebuilt.search(&q.text, &o)) {
                (Ok(a), Ok(b)) if check::complete(&a) && check::complete(&b) => agree(
                    tally,
                    "patched ≡ rebuilt",
                    &q.text,
                    &check::answer(&a),
                    &check::answer(&b),
                ),
                (Ok(_), Ok(_)) => {}
                _ => tally.record(false),
            }
        }
    }
    // The generation-0 pin answers as it did before the run.
    for (q, b) in check_sample.iter().zip(before) {
        match (pinned(q), b) {
            (Ok(a), Ok(b)) => agree(tally, "pinned generation", &q.text, &a, &b),
            _ => tally.record(false),
        }
    }
    batches
}
