//! The two workloads: their sessions, and every input derived from the
//! workload seed before timing starts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sgf_core::{GenerateRequest, SynthesisEngine, SynthesisSession};
use sgf_data::acs::{acs_bucketizer, acs_schema, generate_acs, AcsGenerator};
use sgf_data::{Bucketizer, Dataset, Record};
use std::collections::{HashMap, VecDeque};

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process closed loop over a large seed set: the mechanism only.
    BulkPaper,
    /// Served streamed generates mixed with ±record updates.
    ServeIngest,
}

impl Workload {
    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "bulk_paper" => Some(Workload::BulkPaper),
            "serve_ingest" => Some(Workload::ServeIngest),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkPaper => "bulk_paper",
            Workload::ServeIngest => "serve_ingest",
        }
    }

    /// ACS draws in the population.
    pub fn population_size(self) -> usize {
        match self {
            Workload::BulkPaper => 192_000,
            Workload::ServeIngest => 48_000,
        }
    }

    /// Records each generate request asks for.
    pub fn target(self) -> usize {
        match self {
            Workload::BulkPaper => 40,
            Workload::ServeIngest => 25,
        }
    }

    /// The engine the workload trains: the paper's experiment
    /// configuration (k = 50, γ = 4, ε₀ = 1, ω = 9).
    pub fn engine(self, seed: u64) -> SynthesisEngine {
        SynthesisEngine::from_config(bench::experiment_pipeline_config(100, seed))
    }
}

/// Everything a run feeds the program, generated from the workload seed.
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// The ACS population the session trains on.
    pub population: Dataset,
    /// The ACS bucketizer.
    pub bucketizer: Bucketizer,
    /// A stream of request seeds.
    request_seeds: StdRng,
    /// A stream of fresh ACS records for update deltas.
    fresh: StdRng,
}

impl Inputs {
    /// Generate the population and seed the request and delta streams.
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        Inputs {
            workload,
            seed,
            population: generate_acs(workload.population_size(), seed),
            bucketizer: acs_bucketizer(&acs_schema()),
            request_seeds: StdRng::seed_from_u64(seed ^ 0x5eed_0f4e_91e5_7500),
            fresh: StdRng::seed_from_u64(seed ^ 0xde17_a5ee_d500_0000),
        }
    }

    /// Train the workload's session on the population.
    pub fn train(&self) -> SynthesisSession {
        self.workload
            .engine(self.seed)
            .train(&self.population, &self.bucketizer)
            .expect("training on the generated population succeeds")
    }

    /// The next request seed.
    pub fn request_seed(&mut self) -> u64 {
        self.request_seeds.gen()
    }

    /// `n` generate requests of the workload's shape.  `bulk_paper` cycles
    /// through the paper's five ω settings on one worker; `serve_ingest`
    /// uses the session's ω.
    pub fn requests(&mut self, n: usize) -> Vec<GenerateRequest> {
        let omegas = bench::paper_omegas();
        (0..n)
            .map(|i| {
                let request =
                    GenerateRequest::new(self.workload.target()).with_seed(self.request_seed());
                match self.workload {
                    Workload::BulkPaper => {
                        request.with_omega(omegas[i % omegas.len()]).with_workers(1)
                    }
                    Workload::ServeIngest => request,
                }
            })
            .collect()
    }

    /// `n` fresh ACS records.
    pub fn fresh_records(&mut self, n: usize) -> Vec<Record> {
        let generator = AcsGenerator::new();
        (0..n)
            .map(|_| generator.generate_record(&mut self.fresh))
            .collect()
    }

    /// `n` distinct-valued population records to delete first, one chain
    /// per `lane` (each lane gets its own).
    pub fn population_victims(&mut self, lane: usize, n: usize) -> Vec<Record> {
        let mut seen = std::collections::HashSet::new();
        let mut victims = Vec::new();
        for record in self.population.records() {
            if seen.insert(record.values().to_vec()) {
                victims.push(record.clone());
            }
            if victims.len() == (lane + 1) * n {
                break;
            }
        }
        victims.split_off(lane * n)
    }
}

/// One ±record delta: `RECORDS_PER_SIDE` fresh inserts and as many deletes.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Records added.
    pub inserts: Vec<Record>,
    /// Records removed (by value).
    pub deletes: Vec<Record>,
}

/// Inserts and deletes per update.
pub const RECORDS_PER_SIDE: usize = 5;

/// A chain of deltas in which each deletes the records the previous one
/// inserted (the first deletes population records), so the population size
/// stays level whatever order separate chains interleave in.
pub struct DeltaChain {
    previous: Vec<Record>,
}

impl DeltaChain {
    /// Chain number `lane`; chains delete disjoint population records.
    pub fn new(inputs: &mut Inputs, lane: usize) -> DeltaChain {
        DeltaChain {
            previous: inputs.population_victims(lane, RECORDS_PER_SIDE),
        }
    }

    /// The next delta of the chain.
    pub fn next(&mut self, inputs: &mut Inputs) -> Delta {
        let inserts = inputs.fresh_records(RECORDS_PER_SIDE);
        let deletes = std::mem::replace(&mut self.previous, inserts.clone());
        Delta { inserts, deletes }
    }

    /// The next `n` deltas.
    pub fn take(&mut self, inputs: &mut Inputs, n: usize) -> Vec<Delta> {
        (0..n).map(|_| self.next(inputs)).collect()
    }
}

/// The dataset `deltas` leave when applied in order to `population`, by
/// `DatasetDelta::apply`'s rule: each delete retracts the first remaining
/// occurrence of its record, inserts are appended.  The chain is folded
/// into one net delta first, so the cost does not grow with the chain
/// length times the population size.
pub fn dataset_after(population: &Dataset, deltas: &[&Delta]) -> Result<Dataset, String> {
    // Positions of the records still present, by value, in ascending order:
    // the population's, then the inserts' in the order they came.
    let mut live: HashMap<Vec<u16>, VecDeque<usize>> = HashMap::new();
    for (at, record) in population.records().iter().enumerate() {
        live.entry(record.values().to_vec())
            .or_default()
            .push_back(at);
    }
    let n = population.len();
    let mut retracted = Vec::new();
    let mut inserted: Vec<Option<&Record>> = Vec::new();
    for delta in deltas {
        for record in &delta.deletes {
            let at = live
                .get_mut(record.values())
                .and_then(VecDeque::pop_front)
                .ok_or_else(|| format!("a delete finds no {:?}", record.values()))?;
            match at.checked_sub(n) {
                Some(k) => inserted[k] = None,
                None => retracted.push(record),
            }
        }
        for record in &delta.inserts {
            live.entry(record.values().to_vec())
                .or_default()
                .push_back(n + inserted.len());
            inserted.push(Some(record));
        }
    }
    let mut net = sgf_data::DatasetDelta::new(population.schema_arc());
    for record in retracted {
        net.delete(record.clone()).map_err(|e| e.to_string())?;
    }
    for record in inserted.into_iter().flatten() {
        net.insert(record.clone()).map_err(|e| e.to_string())?;
    }
    net.apply(population).map_err(|e| e.to_string())
}

/// Turn a delta into the core type.
pub fn dataset_delta(session: &SynthesisSession, delta: &Delta) -> sgf_data::DatasetDelta {
    let mut out = sgf_data::DatasetDelta::new(session.seeds().schema_arc());
    for record in &delta.deletes {
        out.delete(record.clone())
            .expect("ACS records fit the schema");
    }
    for record in &delta.inserts {
        out.insert(record.clone())
            .expect("ACS records fit the schema");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_after_matches_applying_each_delta() {
        let mut inputs = Inputs::new(Workload::ServeIngest, 5);
        let mut deltas = DeltaChain::new(&mut inputs, 0).take(&mut inputs, 6);
        // A delete whose record also sits earlier in the population
        // retracts the population's copy, not the inserted one.
        let twin = inputs.population.record(7).clone();
        deltas.insert(
            2,
            Delta {
                inserts: vec![twin.clone()],
                deletes: Vec::new(),
            },
        );
        deltas.insert(
            4,
            Delta {
                inserts: Vec::new(),
                deletes: vec![twin],
            },
        );
        let session = inputs.train();
        let sequential = deltas
            .iter()
            .fold(inputs.population.clone(), |data, delta| {
                dataset_delta(&session, delta)
                    .apply(&data)
                    .expect("the delta applies")
            });
        let refs: Vec<&Delta> = deltas.iter().collect();
        let folded = dataset_after(&inputs.population, &refs).expect("the chain applies");
        assert_eq!(folded.records(), sequential.records());
        assert_ne!(folded.records(), inputs.population.records());
    }
}
