//! The host's speed, measured alongside each workload.
//!
//! The benchmark runs on a few cores of a shared host whose speed
//! changes in phases that last from seconds to minutes: while another
//! tenant loads the physical core, the same queries take up to 1.8× as
//! long, and a plain arithmetic loop barely slows. Such a phase moves
//! every timing of a run at once and does not average out over a run,
//! so ten runs of the same code spread by up to 30 %.
//!
//! A fixed reference loop, defined here and independent of the engine,
//! runs every `SAMPLE_EVERY` between the workload's operations. It
//! does two kinds of work the engine's queries are made of: a
//! breadth-first search over a seeded random graph that fits in L2
//! (about 0.55 ms), then writing, hashing and sorting 4,000 short
//! strings (about 0.7 ms). Its time follows the host's phases with
//! about the engine's sensitivity (the measurements are in `NOTES.md`).
//! It does not see the memory system beyond L2: an open that streams a
//! large image through DRAM can slow without it (`NOTES.md`, "Known
//! weakness: the open").
//!
//! The loop allocates nothing once built: the graph is two flat arrays
//! and the strings are written into a buffer reserved up front, so its
//! speed depends on the host and not on the engine's heap. A loop with
//! one small vector per node and heap-allocated strings read 2.2–2.9 ms
//! inside `topk_large` runs against 1.9–2.3 ms inside `full_small` runs
//! of the same half hour; this one reads the same with and without a
//! dept1024 engine in the process, within the host's own drift.
//!
//! The end-to-end timings are reported at the reference speed: each
//! measured time is multiplied by [`NOMINAL_SECS`] over the median
//! reference time of the `WINDOW` samples taken nearest to it. On a
//! host running the loop in [`NOMINAL_SECS`] they read as measured. A
//! change to the engine moves the workload's times and not the loop's,
//! so it shows in full. Each run also prints its unscaled timings on
//! standard error.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Seed of the reference graph.
const GRAPH_SEED: u64 = 0x4057_5EED;
/// Nodes of the reference graph.
const NODES: usize = 16_384;
/// Random undirected edges each node adds (mean degree 6).
const EDGES_PER_NODE: usize = 3;
/// Strings written, hashed and sorted per sample.
const STRINGS: usize = 4_000;
/// Bytes reserved for the strings (each is at most 9 bytes).
const TEXT_BYTES: usize = 16 * STRINGS;
/// Slots of the open-addressing table the strings are hashed into.
const SLOTS: usize = 8_192;
/// An empty slot.
const EMPTY: u32 = u32::MAX;
/// Spacing of the samples taken by [`HostSpeed::poll`].
const SAMPLE_EVERY: Duration = Duration::from_millis(150);
/// Samples whose median scales one timing: about three seconds of
/// them. Side-leg timings come in clusters that share one factor, and
/// in five runs on a noisy host a 9-sample window spread the side
/// leg's publish tail by 13 % (unscaled: 5 %; one factor for the whole
/// run: 3 %). In six runs on a calm host, 21 samples gave the query
/// metrics their smallest spreads.
const WINDOW: usize = 21;
/// Untimed samples before the first recorded one.
const WARMUP: usize = 3;
/// Time of one sample, in seconds, at the reference speed: about the
/// median sample on the VM the benchmark was sized on.
pub const NOMINAL_SECS: f64 = 1.15e-3;

/// The reference loop and the samples of its time.
#[derive(Debug)]
pub struct HostSpeed {
    /// The graph in compressed sparse rows: the neighbours of `u` are
    /// `targets[offsets[u]..offsets[u + 1]]`.
    offsets: Vec<u32>,
    targets: Vec<u32>,
    dist: Vec<u32>,
    queue: Vec<u32>,
    /// The strings, back to back, and each one's start and length.
    text: Vec<u8>,
    words: Vec<(u32, u32)>,
    /// Indexes into `words`, or [`EMPTY`].
    slots: Vec<u32>,
    last: Instant,
    /// When each sample started, and its time in seconds, in order.
    samples: Vec<(Instant, f64)>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self::new()
    }
}

impl HostSpeed {
    /// Builds the reference graph (the same on every run) and the
    /// buffers, and warms the loop up.
    pub fn new() -> Self {
        let mut rng = crate::mix::Rng::new(GRAPH_SEED);
        let mut edges = Vec::with_capacity(2 * EDGES_PER_NODE * NODES);
        for u in 0..NODES as u32 {
            for _ in 0..EDGES_PER_NODE {
                let v = rng.below(NODES) as u32;
                edges.extend([(u, v), (v, u)]);
            }
        }
        edges.sort_unstable();
        let mut offsets = vec![0u32; NODES + 1];
        for &(u, _) in &edges {
            offsets[u as usize + 1] += 1;
        }
        for u in 0..NODES {
            offsets[u + 1] += offsets[u];
        }
        let mut host = HostSpeed {
            offsets,
            targets: edges.into_iter().map(|(_, v)| v).collect(),
            dist: vec![0; NODES],
            queue: vec![0; NODES],
            text: Vec::with_capacity(TEXT_BYTES),
            words: Vec::with_capacity(STRINGS),
            slots: vec![EMPTY; SLOTS],
            last: Instant::now(),
            samples: Vec::new(),
        };
        for _ in 0..WARMUP {
            black_box(host.reference());
        }
        host
    }

    /// One breadth-first search; returns the sum of the distances.
    fn bfs(&mut self, source: usize) -> u64 {
        self.dist.fill(u32::MAX);
        self.dist[source] = 0;
        self.queue[0] = source as u32;
        let (mut head, mut tail) = (0, 1);
        while head < tail {
            let u = self.queue[head] as usize;
            head += 1;
            let next = self.dist[u] + 1;
            let (from, to) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
            for &v in &self.targets[from..to] {
                if self.dist[v as usize] == u32::MAX {
                    self.dist[v as usize] = next;
                    self.queue[tail] = v;
                    tail += 1;
                }
            }
        }
        self.dist.iter().map(|&d| u64::from(d)).sum()
    }

    /// Writes [`STRINGS`] short strings, inserts each into the table
    /// under a fixed-key hash (counting the ones already there), and
    /// sorts them.
    fn strings(&mut self) -> u64 {
        self.text.clear();
        self.words.clear();
        self.slots.fill(EMPTY);
        for i in 0..STRINGS {
            let start = self.text.len();
            // Writing into a reserved `Vec<u8>` cannot fail.
            let _ = write!(self.text, "t{}-{}", (i * 7_919) % 2_003, i % 13);
            self.words.push((start as u32, (self.text.len() - start) as u32));
        }
        let text = &self.text;
        let word = |&(start, len): &(u32, u32)| &text[start as usize..(start + len) as usize];
        let mut repeats = 0u64;
        for (i, w) in self.words.iter().enumerate() {
            let mut hasher = DefaultHasher::new();
            word(w).hash(&mut hasher);
            let mut slot = hasher.finish() as usize % SLOTS;
            loop {
                match self.slots[slot] {
                    EMPTY => {
                        self.slots[slot] = i as u32;
                        break;
                    }
                    j if word(&self.words[j as usize]) == word(w) => {
                        repeats += 1;
                        break;
                    }
                    _ => slot = (slot + 1) % SLOTS,
                }
            }
        }
        self.words.sort_unstable_by(|a, b| word(a).cmp(word(b)));
        repeats + u64::from(self.words[0].1)
    }

    /// The timed part of the reference loop: one search from a fixed
    /// source, then the strings.
    fn reference(&mut self) -> u64 {
        self.bfs(NODES / 2) + self.strings()
    }

    /// Runs the reference loop once, after an untimed search that
    /// brings the graph into cache whatever ran before, and records
    /// its time.
    pub fn sample(&mut self) {
        black_box(self.bfs(0));
        let start = Instant::now();
        black_box(self.reference());
        self.samples.push((start, start.elapsed().as_secs_f64()));
        self.last = Instant::now();
    }

    /// Takes a sample if `SAMPLE_EVERY` has passed since the last.
    pub fn poll(&mut self) {
        if self.last.elapsed() >= SAMPLE_EVERY {
            self.sample();
        }
    }

    /// Median time of one sample over the run, in seconds (the nominal
    /// time when nothing was sampled).
    pub fn median_secs(&self) -> f64 {
        if self.samples.is_empty() {
            return NOMINAL_SECS;
        }
        let secs: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        crate::stats::median(&secs)
    }

    /// The factor that brings a time taken at `at` to the reference
    /// speed: [`NOMINAL_SECS`] over the median of the `WINDOW` samples
    /// nearest to `at` (1 when nothing was sampled).
    pub fn scale(&self, at: Instant) -> f64 {
        let n = self.samples.len();
        if n == 0 {
            return 1.0;
        }
        let width = WINDOW.min(n);
        let after = self.samples.partition_point(|s| s.0 <= at);
        let start = after.saturating_sub(width / 2).min(n - width);
        let window: Vec<f64> =
            self.samples[start..start + width].iter().map(|s| s.1).collect();
        NOMINAL_SECS / crate::stats::median(&window)
    }

    /// Timings, each with the instant it was taken, at the reference
    /// speed.
    pub fn adjust(&self, timings: &[Timing]) -> Vec<f64> {
        timings.iter().map(|&(at, v)| v * self.scale(at)).collect()
    }
}

/// One measured time and the instant it was taken.
pub type Timing = (Instant, f64);

/// The measured values of `timings`, unscaled.
pub fn raw(timings: &[Timing]) -> Vec<f64> {
    timings.iter().map(|t| t.1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_samples(secs: &[f64]) -> (HostSpeed, Vec<Instant>) {
        let mut host = HostSpeed::new();
        let origin = Instant::now();
        let at: Vec<Instant> =
            (0..secs.len()).map(|i| origin + Duration::from_millis(100 * i as u64)).collect();
        host.samples = at.iter().copied().zip(secs.iter().copied()).collect();
        (host, at)
    }

    #[test]
    fn the_reference_loop_is_deterministic() {
        let mut a = HostSpeed::new();
        let mut b = HostSpeed::new();
        assert_eq!(a.reference(), b.reference());
        assert!(a.reference() > 0);
    }

    #[test]
    fn a_time_is_scaled_by_the_samples_around_it() {
        // Twenty samples at the nominal speed, then twenty at half of it.
        let mut secs = vec![NOMINAL_SECS; 20];
        secs.extend([2.0 * NOMINAL_SECS; 20]);
        let (host, at) = with_samples(&secs);
        assert_eq!(host.scale(at[3]), 1.0);
        assert_eq!(host.scale(at[30]), 0.5);
        assert_eq!(host.scale(at[0] - Duration::from_secs(1)), 1.0);
        assert_eq!(host.scale(at[39] + Duration::from_secs(1)), 0.5);
        // One stray sample does not move the median of its window.
        let mut secs = vec![NOMINAL_SECS; 20];
        secs[10] = 10.0 * NOMINAL_SECS;
        let (host, at) = with_samples(&secs);
        assert_eq!(host.scale(at[10]), 1.0);
        assert_eq!(host.adjust(&[(at[2], 4.0), (at[12], 6.0)]), vec![4.0, 6.0]);
    }

    #[test]
    fn without_samples_times_read_as_measured() {
        let host = HostSpeed { samples: Vec::new(), ..HostSpeed::new() };
        assert_eq!(host.scale(Instant::now()), 1.0);
        assert_eq!(host.median_secs(), NOMINAL_SECS);
    }
}
