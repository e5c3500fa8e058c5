//! What the workloads are made of: the databases, the search options
//! every query runs with, and the seeded stream of typed write batches.

use crate::mix::{Class, Rng, Shares};
use cla_core::{Algorithm, CoreError, SearchBudget, SearchEngine, SearchOptions};
use cla_datagen::{generate_synthetic, SyntheticConfig};
use cla_relational::{RelationId, TupleId, Value};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Seed of the synthetic databases. It is fixed: the run seed varies
/// the queries and the writes, never the data, so `setup_s` and
/// `image_bytes_per_tuple` measure the same database in every run.
pub const DATA_SEED: u64 = 7;

/// Expansion cap on every search. Without it one pair of head terms
/// can run for tens of seconds and DISCOVER does not finish.
pub const EXPANSION_CAP: u64 = 200_000;

/// The fixed first query after an open.
pub const PROBE: &str = "xml smith";

/// Typed ops per write batch.
pub const BATCH_OPS: usize = 8;

/// Due-time spacing of write batches: 200 batches per second.
pub const BATCH_PERIOD: Duration = Duration::from_millis(5);

/// Result size of the top-k workloads.
pub const TOP_K: usize = 10;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold open and top-k reads on dept1024, an image larger than L2.
    TopkLarge,
    /// Whole answers of all three algorithms on dept16, in cache.
    FullSmall,
    /// A paced writer and a closed-loop reader sharing dept64.
    Churn,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "topk_large" => Some(Workload::TopkLarge),
            "full_small" => Some(Workload::FullSmall),
            "churn" => Some(Workload::Churn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::TopkLarge => "topk_large",
            Workload::FullSmall => "full_small",
            Workload::Churn => "churn",
        }
    }

    pub fn departments(self) -> usize {
        match self {
            Workload::TopkLarge => 1024,
            Workload::FullSmall => 16,
            Workload::Churn => 64,
        }
    }

    /// `k` of the workload's queries.
    pub fn k(self) -> Option<usize> {
        match self {
            Workload::FullSmall => None,
            Workload::TopkLarge | Workload::Churn => Some(TOP_K),
        }
    }

    /// Class shares of the query mix.
    pub fn shares(self) -> Shares {
        match self {
            Workload::FullSmall => Shares([0.65, 0.30, 0.05]),
            Workload::TopkLarge | Workload::Churn => Shares([0.80, 0.20, 0.0]),
        }
    }

    /// The percentile reported as `query_tail_ms`: a high one with at
    /// least ten samples beyond it at the query count a run of the
    /// current code reaches. It is fixed per workload, so that a slower
    /// build is not reported at a lower percentile; the run states its
    /// sample count.
    ///
    /// On `full_small` the heaviest DISCOVER queries (300–400 ms) make
    /// up about 0.5 % of the mix, and below them latencies fall to
    /// 250 ms within a few ranks. p99.5 sat on that edge and flipped
    /// between the two levels, spreading by 15–44 % over ten runs;
    /// p99.8 lies inside the group and leaves 14–23 of the 7,300–11,600
    /// searches of a 45-second run beyond it.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::TopkLarge => 98.0,
            Workload::FullSmall => 99.8,
            Workload::Churn => 99.5,
        }
    }
}

/// The synthetic company database at `departments` scale (8 employees
/// and 3 projects per department), indexed into an engine.
pub fn build_engine(departments: usize) -> Result<SearchEngine, CoreError> {
    let config = SyntheticConfig {
        departments,
        employees_per_department: 8,
        projects_per_department: 3,
        works_on_per_employee: 2,
        dependent_probability: 0.3,
        xml_selectivity: 0.15,
        smith_selectivity: 0.1,
        alice_selectivity: 0.25,
        project_skew: 1.0,
        seed: DATA_SEED,
    };
    let data = generate_synthetic(&config);
    Ok(SearchEngine::new(data.db, data.er_schema, data.mapping)?.with_aliases(data.aliases))
}

/// The options every query of class `class` runs with: one thread, the
/// default close-first ranker, instance closeness, connections of at
/// most four edges and the expansion cap.
pub fn options(class: Class, k: Option<usize>) -> SearchOptions {
    SearchOptions {
        algorithm: match class {
            Class::Paths => Algorithm::Paths,
            Class::Banks => Algorithm::Banks,
            Class::Discover => Algorithm::Discover,
        },
        k,
        threads: 1,
        compute_instance: true,
        max_rdb_length: 4,
        budget: SearchBudget::with_max_expansions(EXPANSION_CAP),
        ..SearchOptions::default()
    }
}

/// The probe's options: a top-k Paths query.
pub fn probe_options() -> SearchOptions {
    options(Class::Paths, Some(TOP_K))
}

/// Seed of the write stream.
const WRITE_SEED: u64 = 0x0057_12EE;

const SURNAMES: [&str; 6] = ["Smith", "Miller", "Walker", "Brown", "Young", "Scott"];
const FIRST_NAMES: [&str; 6] = ["Alice", "John", "Maria", "James", "Linda", "David"];

/// The writer's stream: batches of [`BATCH_OPS`] typed `EMPLOYEE` ops.
/// Each batch inserts three employees, deletes the three oldest the
/// stream inserted (they have no dependents, so no delete is refused)
/// and updates the rest in place, moving an original employee to a new
/// name and department. The database keeps its size.
///
/// The stream is the same for every run seed, like the mix's keyword
/// draws: how many index and adjacency edits a batch makes decides how
/// often an apply folds the overlays, which is what sets publish cost,
/// and a seed-dependent stream moved the mean publish time by 20 %.
#[derive(Debug)]
pub struct OpStream {
    rng: Rng,
    relation: RelationId,
    departments: usize,
    originals: Vec<(TupleId, Value)>,
    inserted: VecDeque<TupleId>,
    serial: usize,
}

impl OpStream {
    pub fn new(engine: &SearchEngine, departments: usize) -> Result<Self, String> {
        let db = engine.db();
        let relation = db
            .catalog()
            .relation_id("EMPLOYEE")
            .ok_or_else(|| "the company schema has no EMPLOYEE relation".to_owned())?;
        let originals = db
            .tuples(relation)
            .filter_map(|(id, row)| row.get(0).map(|pk| (id, pk.clone())))
            .collect();
        Ok(OpStream {
            rng: Rng::new(WRITE_SEED),
            relation,
            departments,
            originals,
            inserted: VecDeque::new(),
            serial: 0,
        })
    }

    fn row(&mut self, pk: Value) -> Vec<Value> {
        let surname = SURNAMES[self.rng.below(SURNAMES.len())];
        let first = FIRST_NAMES[self.rng.below(FIRST_NAMES.len())];
        let dept = format!("d{}", 1 + self.rng.below(self.departments));
        vec![pk, surname.into(), first.into(), dept.into()]
    }

    /// Stage one batch on `engine`'s writer, calling `staged` with each
    /// op's staging time.
    pub fn stage_batch(
        &mut self,
        engine: &mut SearchEngine,
        mut staged: impl FnMut(Duration),
    ) -> Result<(), CoreError> {
        const INSERTS: usize = 3;
        // Only rows inserted by an earlier, applied batch are deleted.
        let deletes = if self.inserted.len() >= INSERTS { INSERTS } else { 0 };
        for _ in 0..INSERTS {
            self.serial += 1;
            let row = self.row(format!("n{}", self.serial).into());
            let t = Instant::now();
            let id = engine.writer_mut().insert(self.relation, row)?;
            staged(t.elapsed());
            self.inserted.push_back(id);
        }
        for _ in 0..deletes {
            if let Some(id) = self.inserted.pop_front() {
                let t = Instant::now();
                engine.writer_mut().delete(id)?;
                staged(t.elapsed());
            }
        }
        for _ in INSERTS + deletes..BATCH_OPS {
            let (id, pk) = self.originals[self.rng.below(self.originals.len())].clone();
            let row = self.row(pk);
            let t = Instant::now();
            engine.writer_mut().update(id, row)?;
            staged(t.elapsed());
        }
        Ok(())
    }
}
