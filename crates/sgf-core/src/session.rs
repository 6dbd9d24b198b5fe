//! The staged synthesis-session API: **train once, serve many**.
//!
//! The paper's tool (Section 5) separates one expensive phase — structure +
//! parameter learning — from an embarrassingly-parallel synthesis phase.  This
//! module exposes that lifecycle directly:
//!
//! 1. [`SynthesisEngine::builder`] assembles a validated configuration;
//! 2. [`SynthesisEngine::train`] splits the data, learns the models **once**,
//!    and produces an immutable [`SynthesisSession`];
//! 3. the session serves repeated [`SynthesisSession::generate`] calls — each
//!    with its own target, ω, seed, and worker count — while a cumulative
//!    [`BudgetLedger`] composes the per-release (ε, δ) of Theorem 1 across
//!    every request served;
//! 4. [`SynthesisSession::release_iter`] streams released records one at a
//!    time for services that consume them incrementally.
//!
//! The mechanism fan-out is generic over [`GenerativeModel`], so the marginal
//! baseline (or any future model) plugs into the same plausible-deniability
//! test via [`SynthesisSession::generate_with`].
//!
//! The legacy one-shot [`crate::SynthesisPipeline::run`] is a thin wrapper
//! over builder → train → one `generate`.

use crate::dp::BudgetLedger;
use crate::error::{CoreError, Result};
use crate::mechanism::{propose_candidate_with_store, Mechanism, MechanismStats};
use crate::pipeline::{learn_models, marginal_config, PipelineConfig, TrainedModels};
use crate::privacy_test::PrivacyTestConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use sgf_data::{
    apply_deletes, split_dataset_by_hash, split_role, Bucketizer, DataSplit, Dataset, DatasetDelta,
    Record, SplitRole, SplitSpec,
};
use sgf_index::{
    InvertedIndexStore, LinearScanStore, PartitionIndexStore, SeedIndex, SeedStore,
    MAX_INTERSECT_LISTS,
};
use sgf_metrics::{CachePadded, Json, Scope, SpanId, TraceBatch};
use sgf_model::{
    structure_from_correlations, BayesNetModel, CptStore, GenerativeModel, MarginalModel,
    OmegaSpec, ParameterConfig, SeedSynthesizer, StructureConfig,
};
use sgf_stats::DpBudget;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Builder for a [`SynthesisEngine`]: collects the training-time configuration
/// (data split, structure / parameter learning, privacy test, defaults for
/// synthesis) and validates it before any data is touched.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    config: PipelineConfig,
}

impl EngineBuilder {
    fn new() -> Self {
        EngineBuilder {
            config: PipelineConfig::paper_defaults(1),
        }
    }

    /// Start from an explicit full configuration instead of the paper defaults.
    pub fn config(mut self, config: PipelineConfig) -> Self {
        self.config = config;
        self
    }

    /// How to split the input dataset into D_T / D_P / D_S / test.
    pub fn split(mut self, split: SplitSpec) -> Self {
        self.config.split = split;
        self
    }

    /// Structure-learning configuration (Section 3.3).
    pub fn structure(mut self, structure: StructureConfig) -> Self {
        self.config.structure = structure;
        self
    }

    /// Parameter-learning configuration (Section 3.4).
    pub fn parameters(mut self, parameters: ParameterConfig) -> Self {
        self.config.parameters = parameters;
        self
    }

    /// Privacy-test configuration (Section 2).
    pub fn privacy_test(mut self, test: PrivacyTestConfig) -> Self {
        self.config.privacy_test = test;
        self
    }

    /// Default ω for requests that do not override it.
    pub fn omega(mut self, omega: OmegaSpec) -> Self {
        self.config.omega = omega;
        self
    }

    /// Default worker count for requests that do not override it.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Default proposal cap factor (`max_candidate_factor * target` proposals).
    pub fn max_candidate_factor(mut self, factor: usize) -> Self {
        self.config.max_candidate_factor = factor;
        self
    }

    /// Seed-store policy: scan, inverted index, partition store, or automatic
    /// selection.
    pub fn seed_index(mut self, policy: SeedIndex) -> Self {
        self.config.seed_index = policy;
        self
    }

    /// Seed-dataset size above which [`SeedIndex::Auto`] prefers an index
    /// over the linear scan (default [`SeedIndex::AUTO_MIN_SEEDS`]).  Set it
    /// to the measured scan/index crossover of the deployment hardware.
    pub fn auto_index_min_seeds(mut self, min_seeds: usize) -> Self {
        self.config.auto_index_min_seeds = min_seeds;
        self
    }

    /// Whether the session's trained partition store carries a shared
    /// class-match cache (`sgf_index::ClassMatchCache`, default on; the
    /// per-ω stores never do).  Decisions and RNG streams are identical
    /// either way; disabling it only forces every request to re-evaluate the
    /// per-class model probabilities.
    pub fn class_cache(mut self, enabled: bool) -> Self {
        self.config.class_cache = enabled;
        self
    }

    /// Master seed for the data split and model learning.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Structure-drift tolerance of [`SynthesisSession::update`] (default
    /// `0.0`: any correlation-matrix change re-learns the dependency graph,
    /// keeping updates bit-identical to from-scratch retrains).
    pub fn drift_threshold(mut self, threshold: f64) -> Self {
        self.config.drift_threshold = threshold;
        self
    }

    /// Validate the schema-independent parts of the configuration and produce
    /// the engine.  (Schema-dependent checks — ω against the attribute count,
    /// the seed store against k — run at [`SynthesisEngine::train`] time.)
    pub fn build(self) -> Result<SynthesisEngine> {
        self.config.split.validate()?;
        self.config.privacy_test.validate()?;
        if self.config.workers == 0 {
            return Err(CoreError::InvalidParameter(
                "workers must be at least 1".into(),
            ));
        }
        if self.config.max_candidate_factor == 0 {
            return Err(CoreError::InvalidParameter(
                "max_candidate_factor must be at least 1".into(),
            ));
        }
        Ok(SynthesisEngine {
            config: self.config,
        })
    }

    /// Convenience: build the engine and immediately train a session.
    pub fn train(self, dataset: &Dataset, bucketizer: &Bucketizer) -> Result<SynthesisSession> {
        self.build()?.train(dataset, bucketizer)
    }
}

/// A validated synthesis configuration, ready to train sessions.
///
/// The engine is cheap and reusable: each [`train`](SynthesisEngine::train)
/// call pays the expensive learning phase once and yields an immutable
/// [`SynthesisSession`] that serves any number of `generate` requests.
#[derive(Debug, Clone)]
pub struct SynthesisEngine {
    config: PipelineConfig,
}

impl SynthesisEngine {
    /// Start building an engine from the paper's default parameters.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// Wrap an existing full pipeline configuration (the compatibility path
    /// used by [`crate::SynthesisPipeline`]).
    pub fn from_config(config: PipelineConfig) -> Self {
        SynthesisEngine { config }
    }

    /// The engine configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The expensive phase, paid exactly once per session: validate against
    /// the schema, split the dataset into the four disjoint subsets, and learn
    /// structure + parameters (+ the marginal baseline).
    pub fn train(&self, dataset: &Dataset, bucketizer: &Bucketizer) -> Result<SynthesisSession> {
        self.config.validate(dataset.schema().len())?;
        let start = Instant::now();
        // Deterministic value-hash split: each record's subset depends only
        // on its values and the session seed, so the split commutes with
        // dataset deltas — the foundation of `SynthesisSession::update`
        // producing the same subsets as a from-scratch retrain.
        let split = split_dataset_by_hash(dataset, &self.config.split, self.config.seed)?;
        if split.seeds.len() < self.config.privacy_test.k {
            return Err(CoreError::DatasetTooSmall {
                available: split.seeds.len(),
                required: self.config.privacy_test.k,
            });
        }
        let models = learn_models(&self.config, &split, bucketizer)?;
        let per_release = per_release_budget(&self.config.privacy_test);
        let ledger = BudgetLedger::new(models.structure.budget, models.cpts.budget(), per_release);
        let training = start.elapsed();
        // Build the seed indexes once per session (unless the policy pins the
        // scan); every generate request shares them read-only.  The partition
        // store is keyed on the largest likelihood-relevant attribute set of
        // the session's ω spec — the kept attributes at the smallest
        // admissible ω — so it covers every fixed-ω synthesizer the session's
        // default spec can produce.  Each smaller ω gets a slot whose store,
        // keyed on that ω's own kept attributes, is built on first use.
        let lo = trained_omega(self.config.omega);
        let build_start = Instant::now();
        let index = match self.config.seed_index {
            SeedIndex::Scan | SeedIndex::Partition => None,
            SeedIndex::Inverted | SeedIndex::Auto => {
                let weights = models.structure.attribute_weights();
                Some(InvertedIndexStore::build(
                    &split.seeds,
                    bucketizer,
                    &weights,
                    MAX_INTERSECT_LISTS,
                )?)
            }
        };
        let partition = match self.config.seed_index {
            SeedIndex::Scan | SeedIndex::Inverted => None,
            SeedIndex::Partition | SeedIndex::Auto => {
                let synthesizer = SeedSynthesizer::new(Arc::clone(&models.cpts), lo)?;
                let store =
                    PartitionIndexStore::build(&split.seeds, synthesizer.kept_attributes())?;
                Some(if self.config.class_cache {
                    store.with_class_cache()
                } else {
                    store
                })
            }
        };
        let index_build = if index.is_some() || partition.is_some() {
            build_start.elapsed()
        } else {
            Duration::ZERO
        };
        let omega_stores = if partition.is_some() {
            (1..lo)
                .map(|w| (w, omega_store_build(&split.seeds, &models.cpts, w)))
                .collect()
        } else {
            BTreeMap::new()
        };
        sgf_metrics::timer("core.train").observe(training);
        sgf_metrics::timer("core.index_build").observe(index_build);
        let trace = sgf_metrics::trace();
        if trace.enabled() {
            let mut batch = TraceBatch::new();
            let root = batch.span("core.train", SpanId::NONE);
            batch.counter(root, "records", dataset.len() as u64);
            batch.counter(root, "seeds", split.seeds.len() as u64);
            batch.wall(root, training);
            let build = batch.span("core.index_build", root);
            batch.label(build, "inverted", on_off(index.is_some()));
            batch.label(build, "partition", on_off(partition.is_some()));
            if let Some(partition) = &partition {
                batch.counter(build, "classes", partition.class_count() as u64);
            }
            batch.wall(build, index_build);
            trace.commit(batch);
        }
        Ok(SynthesisSession {
            config: self.config,
            shared: Arc::new(SessionShared {
                split,
                models,
                index: StoreSlot::ready(index),
                partition: StoreSlot::ready(partition),
                omega_stores,
                index_build,
                training,
            }),
            per_release,
            ledger: Arc::new(Mutex::new(ledger)),
            scope: None,
            epoch: 0,
        })
    }
}

/// One synthesis request served by a [`SynthesisSession`]: how many records to
/// release and, optionally, per-request overrides of the session defaults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GenerateRequest {
    /// Number of synthetic records to release.
    pub target: usize,
    /// Per-request ω override (`None` uses the session default).
    pub omega: Option<OmegaSpec>,
    /// Per-request worker-count override (`None` uses the session default).
    /// Applies to [`SynthesisSession::generate`] /
    /// [`SynthesisSession::generate_with`] only; the streaming
    /// [`SynthesisSession::release_iter`] always proposes on the calling
    /// thread.
    pub workers: Option<usize>,
    /// Per-request proposal-cap override (`None` uses the session default).
    pub max_candidate_factor: Option<usize>,
    /// Per-request seed-store policy override (`None` uses the session
    /// default).  Scan and index are decision-equivalent, so this only
    /// affects performance — see [`SeedIndex`].
    pub seed_index: Option<SeedIndex>,
    /// Seed for all randomness of this request (two requests with the same
    /// seed and parameters release identical records).
    pub seed: u64,
}

impl GenerateRequest {
    /// A request for `target` records with the session defaults and seed 0.
    pub fn new(target: usize) -> Self {
        GenerateRequest {
            target,
            omega: None,
            workers: None,
            max_candidate_factor: None,
            seed_index: None,
            seed: 0,
        }
    }

    /// Override the number of re-sampled attributes ω for this request.
    pub fn with_omega(mut self, omega: OmegaSpec) -> Self {
        self.omega = Some(omega);
        self
    }

    /// Override the worker count for this request.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Override the proposal cap factor for this request.
    pub fn with_max_candidate_factor(mut self, factor: usize) -> Self {
        self.max_candidate_factor = Some(factor);
        self
    }

    /// Override the seed-store policy for this request.
    pub fn with_seed_index(mut self, policy: SeedIndex) -> Self {
        self.seed_index = Some(policy);
        self
    }

    /// Set the request seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Everything one `generate` request produced.
#[derive(Debug)]
pub struct ReleaseReport {
    /// The released synthetic records.
    pub synthetics: Dataset,
    /// Mechanism statistics for this request.
    pub stats: MechanismStats,
    /// Per-release (ε, δ) bound of Theorem 1 (randomized test only).
    pub per_release: Option<DpBudget>,
    /// Snapshot of the cumulative session ledger *after* this request.
    pub ledger: BudgetLedger,
    /// Wall-clock time spent generating and testing candidates.
    pub synthesis: Duration,
    /// Where this release came from: store, knobs, and budget before/after.
    pub provenance: Provenance,
}

impl ReleaseReport {
    /// Sequential-composition (ε, δ) cost of this request alone.
    pub fn request_budget(&self) -> DpBudget {
        crate::dp::compose_releases(self.per_release, self.stats.released)
    }

    /// The provenance block as canonical JSON (budget before/after pair
    /// resolved against this report's post-request ledger).
    pub fn provenance_json(&self) -> Json {
        self.provenance.to_json(&self.ledger)
    }

    /// Render the report (counters + budgets + provenance) as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"stats\":{},\"synthesis_seconds\":{},\"request_epsilon\":{},\"ledger\":{},\
             \"provenance\":{}}}",
            self.stats.to_json(),
            crate::dp::json_f64(self.synthesis.as_secs_f64()),
            crate::dp::json_f64(self.request_budget().epsilon),
            self.ledger.to_json(),
            self.provenance_json().render(),
        )
    }
}

/// ProvSQL-style provenance of one release: which seed store served the
/// privacy tests, the effective knobs, the request seed, and the budget
/// ledger as admitted — enough to audit (or re-derive) the release without
/// replaying it.
///
/// Attached to every [`ReleaseReport`]; the serve layer forwards it verbatim
/// in protocol responses.  `trace_spans` counts the spans this request
/// committed to the global [`sgf_metrics::trace`] ring (0 when tracing is
/// off): the trace holds the span-level detail, this block the summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Provenance {
    /// Store granularity that served the privacy tests of the request's
    /// smallest-ω model — the largest likelihood set, so the store whose key
    /// is widest (`"scan"`, `"inverted"`, `"partition"` — see
    /// [`SeedStore::kind`]).
    pub store: &'static str,
    /// Seed records the store draws from (`|D_S|`).
    pub seeds: usize,
    /// Likelihood-equivalence classes of that store, when it is a partition
    /// store.
    pub classes: Option<usize>,
    /// Effective ω spec (request override or session default).
    pub omega: OmegaSpec,
    /// Effective worker count.
    pub workers: usize,
    /// Effective proposal cap.
    pub max_candidates: usize,
    /// Privacy-test plausibility threshold `k`.
    pub k: usize,
    /// Privacy-test γ.
    pub gamma: f64,
    /// Randomized-test ε₀ (`None` for the deterministic test).
    pub epsilon0: Option<f64>,
    /// The request seed every stream of request randomness derives from.
    pub request_seed: u64,
    /// Session epoch that served the request: [`update`] steps since the
    /// original train (0 = freshly trained session).
    ///
    /// [`update`]: SynthesisSession::update
    pub epoch: u64,
    /// Ledger snapshot *before* this request committed.
    pub ledger_before: BudgetLedger,
    /// Spans committed to the trace ring for this request (0 = tracing off).
    pub trace_spans: usize,
}

impl Provenance {
    /// Canonical JSON of the provenance block; `ledger_after` (the
    /// post-request ledger of the same release) completes the budget
    /// before/after pair.
    pub fn to_json(&self, ledger_after: &BudgetLedger) -> Json {
        let mut obj = BTreeMap::new();
        obj.insert("store".to_string(), Json::from(self.store));
        obj.insert("seeds".to_string(), Json::Int(self.seeds as i128));
        let classes = match self.classes {
            Some(classes) => Json::Int(classes as i128),
            None => Json::Null,
        };
        obj.insert("classes".to_string(), classes);
        obj.insert("omega".to_string(), Json::Str(render_omega(self.omega)));
        obj.insert("workers".to_string(), Json::Int(self.workers as i128));
        obj.insert(
            "max_candidates".to_string(),
            Json::Int(self.max_candidates as i128),
        );
        obj.insert("k".to_string(), Json::Int(self.k as i128));
        obj.insert("gamma".to_string(), Json::Float(self.gamma));
        let epsilon0 = match self.epsilon0 {
            Some(epsilon0) => Json::Float(epsilon0),
            None => Json::Null,
        };
        obj.insert("epsilon0".to_string(), epsilon0);
        obj.insert(
            "request_seed".to_string(),
            Json::Int(self.request_seed as i128),
        );
        obj.insert("epoch".to_string(), Json::Int(self.epoch as i128));
        let mut ledger = BTreeMap::new();
        ledger.insert("before".to_string(), ledger_side_json(&self.ledger_before));
        ledger.insert("after".to_string(), ledger_side_json(ledger_after));
        obj.insert("ledger".to_string(), Json::Obj(ledger));
        obj.insert(
            "trace_spans".to_string(),
            Json::Int(self.trace_spans as i128),
        );
        Json::Obj(obj)
    }
}

/// Stable string rendering of an ω spec for provenance (`"fixed:9"`,
/// `"uniform:8-11"`).
fn render_omega(omega: OmegaSpec) -> String {
    match omega {
        OmegaSpec::Fixed(w) => format!("fixed:{w}"),
        OmegaSpec::UniformRange { lo, hi } => format!("uniform:{lo}-{hi}"),
    }
}

/// One side of the provenance budget pair: cumulative (ε, δ) plus the release
/// and request totals of the ledger at that point.
fn ledger_side_json(ledger: &BudgetLedger) -> Json {
    let total = ledger.total();
    let mut obj = BTreeMap::new();
    obj.insert("epsilon".to_string(), Json::Float(total.epsilon));
    obj.insert("delta".to_string(), Json::Float(total.delta));
    obj.insert("releases".to_string(), Json::Int(ledger.releases as i128));
    obj.insert("requests".to_string(), Json::Int(ledger.requests as i128));
    Json::Obj(obj)
}

/// One privacy-test observation captured for tracing: which store served the
/// test, at what granularity, and how it decided.  Collection is bounded
/// ([`MAX_TRACE_PROBES`] per request) and only happens when the global trace
/// is enabled — the probes feed `core.privacy_test` spans, never decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateProbe {
    /// Global proposal rank of the candidate (worker-interleaved ordering).
    pub rank: usize,
    /// Store granularity that served this test (`"scan"`, `"inverted"`,
    /// `"partition"`).
    pub store: &'static str,
    /// Whether the candidate passed the privacy test.
    pub passed: bool,
    /// Plausible seeds (or classes, at class granularity) counted before the
    /// test stopped.
    pub plausible_seeds: usize,
    /// Records (or classes) examined by the test.
    pub records_examined: usize,
}

/// Per-request cap on traced privacy tests: each worker keeps its first
/// `MAX_TRACE_PROBES` probes (ranks increase monotonically per worker), the
/// merge keeps the globally smallest-ranked `MAX_TRACE_PROBES` — a
/// deterministic prefix of the proposal order at `workers = 1`.
pub const MAX_TRACE_PROBES: usize = 32;

/// A seed-store slot of [`SessionShared`]: either materialized up front
/// (training builds its stores eagerly) or deferred behind a splice/build
/// closure that the first accessor runs exactly once.
///
/// [`SynthesisSession::update`] defers store maintenance so the ingest
/// critical path stays O(|Δ|): the splice cost amortizes into the first
/// request of the new epoch, which its privacy test dominates anyway.  Every
/// failure mode of the deferred closure is ruled out at update time (schema
/// validation covers insert arity and domains, delete indices are derived
/// ascending, sizes and weights are checked), so materialization is
/// infallible.
struct StoreSlot<S> {
    cell: OnceLock<Option<Arc<S>>>,
    /// The deferred work, consumed by the first materialization.
    pending: Mutex<Option<Box<dyn FnOnce() -> S + Send>>>,
}

impl<S> StoreSlot<S> {
    /// A slot holding `store` (or holding "no store") from the start.
    fn ready(store: Option<S>) -> Self {
        StoreSlot::ready_shared(store.map(Arc::new))
    }

    /// Like [`ready`](StoreSlot::ready) but sharing an existing handle — the
    /// "unchanged state shared via `Arc`" path of an incremental update.
    fn ready_shared(store: Option<Arc<S>>) -> Self {
        let cell = OnceLock::new();
        let _ = cell.set(store);
        StoreSlot {
            cell,
            pending: Mutex::new(None),
        }
    }

    /// A slot that materializes by running `work` on first access.
    fn deferred(work: impl FnOnce() -> S + Send + 'static) -> Self {
        StoreSlot {
            cell: OnceLock::new(),
            pending: Mutex::new(Some(Box::new(work))),
        }
    }

    /// The store, materializing it first if this slot was deferred.  The
    /// `OnceLock` guarantees exactly one thread runs the deferred work; the
    /// rest block and observe the finished store.
    fn get(&self) -> Option<&S> {
        self.cell
            .get_or_init(|| {
                let work = self
                    .pending
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .take()
                    .expect("a deferred slot holds its pending work");
                Some(Arc::new(work()))
            })
            .as_deref()
    }

    /// Materialize (if needed) and return a shared handle.
    fn get_shared(&self) -> Option<Arc<S>> {
        self.get();
        self.cell.get().expect("just materialized").clone()
    }

    /// A shared handle if the slot is already materialized; never runs the
    /// deferred work.
    fn peek(&self) -> Option<Arc<S>> {
        self.cell.get().cloned().flatten()
    }
}

impl<S> std::fmt::Debug for StoreSlot<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.cell.get() {
            Some(Some(_)) => f.write_str("StoreSlot(ready)"),
            Some(None) => f.write_str("StoreSlot(none)"),
            None => f.write_str("StoreSlot(deferred)"),
        }
    }
}

/// The immutable trained artifacts of a session, shared (via `Arc`) across
/// every clone: the data split, the learned models, and the seed stores.
/// Training — and each store build — happen exactly once per
/// [`SynthesisEngine::train`] call no matter how many handles serve requests.
#[derive(Debug)]
struct SessionShared {
    split: DataSplit,
    models: TrainedModels,
    /// The inverted seed index, built at train time (absent when the
    /// session policy is [`SeedIndex::Scan`] or [`SeedIndex::Partition`]) and
    /// spliced lazily after an [`update`](SynthesisSession::update).
    index: StoreSlot<InvertedIndexStore>,
    /// The trained partition store of likelihood-equivalence classes, keyed
    /// on the kept attributes at the session's smallest ω, so it serves
    /// every synthesizer with that ω or more.  Built at train time (absent
    /// when the session policy is [`SeedIndex::Scan`] or
    /// [`SeedIndex::Inverted`]), carries the class-match cache, and is
    /// spliced lazily after an [`update`](SynthesisSession::update).
    partition: StoreSlot<PartitionIndexStore>,
    /// One slot per ω below the trained ω (present exactly when `partition`
    /// is): a partition store keyed on that ω's own kept attributes, so a
    /// synthesizer the trained store cannot cover still tests one class per
    /// candidate.  Nothing is built at train time; the first request that
    /// needs a slot builds it, once, for every clone.  The store carries no
    /// class-match cache: its key equals the synthesizer's likelihood set,
    /// so a lookup finds at most one class and there is no row to share.
    /// [`update`](SynthesisSession::update) splices a store the parent epoch
    /// built and leaves every other slot to build on first use.
    omega_stores: BTreeMap<usize, StoreSlot<PartitionIndexStore>>,
    index_build: Duration,
    training: Duration,
}

/// A trained, immutable synthesis session: the learned models plus the seed
/// store, serving repeated [`generate`](SynthesisSession::generate) requests
/// while a [`BudgetLedger`] accumulates the privacy cost of every release.
///
/// The session is `Send + Sync`; concurrent requests only contend on the
/// ledger mutex for a few nanoseconds per request.
///
/// # Cloning
///
/// `SynthesisSession` is `Clone`, and clones are **handles to the same
/// logical session**: they share the trained models, the seed split, the
/// inverted index (no rebuild — one build per train), *and* the budget
/// ledger.  Sharing the ledger is deliberate: releases from the same seed
/// store compose sequentially no matter which handle served them
/// (Section 8), so every handle must charge — and be capped against — the
/// same cumulative (ε, δ).
#[derive(Debug, Clone)]
pub struct SynthesisSession {
    config: PipelineConfig,
    shared: Arc<SessionShared>,
    per_release: Option<DpBudget>,
    ledger: Arc<Mutex<BudgetLedger>>,
    /// Metric scope of this handle (see
    /// [`with_scope`](SynthesisSession::with_scope)); `None` writes the
    /// global rollup only.
    scope: Option<Scope>,
    /// How many [`update`](SynthesisSession::update) steps separate this
    /// session from its original [`SynthesisEngine::train`] (0 = freshly
    /// trained).  Stamped into every release's [`Provenance`].
    epoch: u64,
}

impl SynthesisSession {
    /// The configuration the session was trained with (request defaults).
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Label every metric this handle records with `scope` (e.g.
    /// `session=<name>`): request counters and timers land in both the
    /// global rollup and the scope's cell, and generate-trace roots carry the
    /// scope's labels.  The scope travels with **this handle** — other clones
    /// of the session keep their own (or no) scope — so one trained session
    /// can serve differently-labeled surfaces.  Scope on bounded dimensions
    /// only (session names, shards); unbounded ids belong in trace labels.
    pub fn with_scope(mut self, scope: Scope) -> Self {
        self.scope = Some(scope);
        self
    }

    /// The metric scope of this handle, if any.
    pub fn scope(&self) -> Option<&Scope> {
        self.scope.as_ref()
    }

    /// The models learned at training time.
    pub fn models(&self) -> &TrainedModels {
        &self.shared.models
    }

    /// The disjoint data split the session was trained on.
    pub fn split(&self) -> &DataSplit {
        &self.shared.split
    }

    /// The seed store `D_S` that every request draws seeds from.
    pub fn seeds(&self) -> &Dataset {
        &self.shared.split.seeds
    }

    /// Per-release (ε, δ) bound of Theorem 1 under the session's privacy test.
    pub fn per_release_budget(&self) -> Option<DpBudget> {
        self.per_release
    }

    /// Wall-clock time spent splitting the data and learning the models.
    pub fn training_time(&self) -> Duration {
        self.shared.training
    }

    /// Wall-clock time spent building the seed indexes (inverted and/or
    /// partition store) at train time (zero when the session policy is
    /// [`SeedIndex::Scan`]).
    pub fn index_build_time(&self) -> Duration {
        self.shared.index_build
    }

    /// The inverted seed index, if the session built one.  Clones of the same
    /// session return the same shared instance.  After an
    /// [`update`](SynthesisSession::update), the first accessor call splices
    /// the deferred delta into the store (exactly once).
    pub fn seed_store(&self) -> Option<&InvertedIndexStore> {
        self.shared.index.get()
    }

    /// The trained partition store of likelihood-equivalence classes (keyed
    /// on the kept attributes at the session's smallest ω), if the session
    /// built one.  Clones of the same session return the same shared
    /// instance.  After an [`update`](SynthesisSession::update), the first
    /// accessor call splices the deferred delta into the store (exactly once).
    /// Synthesizers with a smaller ω are served by per-ω stores built on
    /// first use, which this accessor never builds.
    pub fn partition_store(&self) -> Option<&PartitionIndexStore> {
        self.shared.partition.get()
    }

    /// The partition store that covers a model with likelihood set
    /// `likelihood`: the trained store when its key covers the set, else —
    /// for the seed synthesizer of fixed ω `omega` — that ω's own store,
    /// built on first use.
    fn covering_partition(
        &self,
        likelihood: Option<&[usize]>,
        omega: Option<usize>,
    ) -> Option<&PartitionIndexStore> {
        let trained = self.shared.partition.get()?;
        if trained.covers(likelihood) {
            return Some(trained);
        }
        self.shared
            .omega_stores
            .get(&omega?)?
            .get()
            .filter(|store| store.covers(likelihood))
    }

    /// Resolve the store for one model of a request, under the request's
    /// policy override, else the session policy.  `None` means "use the
    /// linear scan".
    ///
    /// `likelihood` is the model's likelihood guarantee
    /// ([`GenerativeModel::likelihood_attributes`]) and `omega` its fixed ω
    /// when it is the session's seed synthesizer.  [`SeedIndex::Auto`] and
    /// [`SeedIndex::Partition`] pick the partition store that covers the
    /// model (see [`covering_partition`](Self::covering_partition)), so its
    /// tests run at class granularity; without one, `Auto` degrades to the
    /// inverted index and `Partition` to the trained store's per-record walk.
    /// Callers resolve every model's store on the request thread, before any
    /// proposal runs, so a per-ω store is built there and only once.
    fn resolve_store(
        &self,
        request: &GenerateRequest,
        likelihood: Option<&[usize]>,
        omega: Option<usize>,
    ) -> Result<Option<&dyn SeedStore>> {
        match request.seed_index.unwrap_or(self.config.seed_index) {
            SeedIndex::Scan => Ok(None),
            SeedIndex::Inverted => match self.shared.index.get() {
                Some(index) => Ok(Some(index as &dyn SeedStore)),
                None => Err(CoreError::InvalidParameter(format!(
                    "request asked for SeedIndex::Inverted but the session was trained \
                     with SeedIndex::{} (no inverted index was built)",
                    self.config.seed_index
                ))),
            },
            SeedIndex::Partition => match self.shared.partition.get() {
                Some(trained) => Ok(Some(
                    self.covering_partition(likelihood, omega)
                        .unwrap_or(trained) as &dyn SeedStore,
                )),
                None => Err(CoreError::InvalidParameter(format!(
                    "request asked for SeedIndex::Partition but the session was trained \
                     with SeedIndex::{} (no partition store was built)",
                    self.config.seed_index
                ))),
            },
            SeedIndex::Auto => {
                if self.seeds().len() < self.config.auto_index_min_seeds {
                    return Ok(None);
                }
                if let Some(partition) = self.covering_partition(likelihood, omega) {
                    return Ok(Some(partition as &dyn SeedStore));
                }
                Ok(self.shared.index.get().map(|index| index as &dyn SeedStore))
            }
        }
    }

    /// The provenance block of a release whose smallest-ω model was served
    /// by `store` (`None` = the scan).
    fn provenance(
        &self,
        request: &GenerateRequest,
        store: Option<&dyn SeedStore>,
        workers: usize,
        max_candidates: usize,
        ledger_before: BudgetLedger,
        trace_spans: usize,
    ) -> Provenance {
        Provenance {
            store: store.map_or("scan", |s| s.kind()),
            seeds: self.seeds().len(),
            classes: store.and_then(|s| s.class_count()),
            omega: request.omega.unwrap_or(self.config.omega),
            workers,
            max_candidates,
            k: self.config.privacy_test.k,
            gamma: self.config.privacy_test.gamma,
            epsilon0: self.config.privacy_test.epsilon0,
            request_seed: request.seed,
            epoch: self.epoch,
            ledger_before,
            trace_spans,
        }
    }

    /// A snapshot of the cumulative privacy ledger.
    pub fn ledger(&self) -> BudgetLedger {
        *self.ledger.lock().expect("ledger lock poisoned")
    }

    /// Flush the statistics of a finished streaming release into the metrics
    /// registry (scoped to the session's label set when one was attached with
    /// [`with_scope`](SynthesisSession::with_scope)).
    ///
    /// [`release_iter`](SynthesisSession::release_iter) itself never touches
    /// the registry — a streaming caller decides when (and whether) the
    /// request's counters are observed, typically once per drained iterator.
    /// The scoped handles write both the global rollup and the scope cell, so
    /// callers must invoke this at most once per iterator.
    pub fn flush_stream_stats(&self, stats: &MechanismStats) {
        match &self.scope {
            Some(scope) => {
                let view = sgf_metrics::scoped(scope);
                view.counter("core.mechanism.requests").incr();
                view.counter("core.mechanism.candidates")
                    .add(stats.candidates as u64);
                view.counter("core.mechanism.released")
                    .add(stats.released as u64);
                view.counter("core.mechanism.records_examined")
                    .add(stats.records_examined as u64);
                view.counter("core.mechanism.index_tests")
                    .add(stats.index_tests as u64);
                view.counter("core.mechanism.scan_tests")
                    .add(stats.scan_tests as u64);
                view.counter("core.mechanism.partition_tests")
                    .add(stats.partition_tests as u64);
                view.counter("core.mechanism.class_cache_hits")
                    .add(stats.class_cache_hits as u64);
                view.counter("core.mechanism.class_cache_misses")
                    .add(stats.class_cache_misses as u64);
            }
            None => {
                sgf_metrics::counter("core.mechanism.requests").incr();
                sgf_metrics::counter("core.mechanism.candidates").add(stats.candidates as u64);
                sgf_metrics::counter("core.mechanism.released").add(stats.released as u64);
                sgf_metrics::counter("core.mechanism.records_examined")
                    .add(stats.records_examined as u64);
                sgf_metrics::counter("core.mechanism.index_tests").add(stats.index_tests as u64);
                sgf_metrics::counter("core.mechanism.scan_tests").add(stats.scan_tests as u64);
                sgf_metrics::counter("core.mechanism.partition_tests")
                    .add(stats.partition_tests as u64);
                sgf_metrics::counter("core.mechanism.class_cache_hits")
                    .add(stats.class_cache_hits as u64);
                sgf_metrics::counter("core.mechanism.class_cache_misses")
                    .add(stats.class_cache_misses as u64);
            }
        }
    }

    /// Atomically reserve budget for up to `records` releases under the
    /// per-session cap `cap` (see [`BudgetLedger::try_reserve`]).
    ///
    /// This is the admission-control half of serving releases under a cap:
    /// the check and the reservation happen under one ledger lock, so
    /// concurrent requests can never jointly overshoot the cap.  A successful
    /// reservation must be settled by exactly one
    /// [`generate_reserved`](SynthesisSession::generate_reserved) /
    /// [`generate_reserved_with`](SynthesisSession::generate_reserved_with)
    /// call or one [`abort_reservation`](SynthesisSession::abort_reservation).
    pub fn try_reserve(&self, records: usize, cap: DpBudget) -> Result<()> {
        self.ledger
            .lock()
            .expect("ledger lock poisoned")
            .try_reserve(records, cap)
    }

    /// Free a reservation made with
    /// [`try_reserve`](SynthesisSession::try_reserve) without releasing
    /// anything (the request was rejected downstream or failed).
    pub fn abort_reservation(&self, records: usize) {
        self.ledger
            .lock()
            .expect("ledger lock poisoned")
            .abort(records);
    }

    /// Serve one request with the session's own seed-based synthesizer: build
    /// one fixed-ω synthesizer per admissible ω and fan candidate generation
    /// out over the request's worker count.
    pub fn generate(&self, request: &GenerateRequest) -> Result<ReleaseReport> {
        self.generate_seeded(request, None)
    }

    /// Serve one request against a prior reservation of `reserved` records
    /// (`request.target` must not exceed it): on success the actual releases
    /// are committed and any unused part of the reservation is freed; on
    /// error the whole reservation is aborted.  Either way the reservation is
    /// fully settled when this returns.
    pub fn generate_reserved(
        &self,
        reserved: usize,
        request: &GenerateRequest,
    ) -> Result<ReleaseReport> {
        self.generate_seeded(request, Some(reserved))
            .inspect_err(|_| self.abort_reservation(reserved))
    }

    /// [`generate_with`](SynthesisSession::generate_with) against a prior
    /// reservation — same settlement semantics as
    /// [`generate_reserved`](SynthesisSession::generate_reserved).
    pub fn generate_reserved_with<M: GenerativeModel + ?Sized>(
        &self,
        model: &M,
        reserved: usize,
        request: &GenerateRequest,
    ) -> Result<ReleaseReport> {
        self.check_reservation(reserved, request)
            .and_then(|_| self.generate_over(&[model], &[None], request, Some(reserved)))
            .inspect_err(|_| self.abort_reservation(reserved))
    }

    /// The seed-synthesizer generate path, optionally settling a reservation.
    fn generate_seeded(
        &self,
        request: &GenerateRequest,
        reservation: Option<usize>,
    ) -> Result<ReleaseReport> {
        if let Some(reserved) = reservation {
            self.check_reservation(reserved, request)?;
        }
        let synthesizers = self.build_synthesizers(request.omega.unwrap_or(self.config.omega))?;
        let refs: Vec<&SeedSynthesizer> = synthesizers.iter().collect();
        let omegas: Vec<Option<usize>> = synthesizers.iter().map(|s| Some(s.omega())).collect();
        self.generate_over(&refs, &omegas, request, reservation)
    }

    /// A reserved request may not target more records than were admitted.
    fn check_reservation(&self, reserved: usize, request: &GenerateRequest) -> Result<()> {
        if request.target > reserved {
            return Err(CoreError::InvalidParameter(format!(
                "request targets {} records but only {} were reserved at admission",
                request.target, reserved
            )));
        }
        Ok(())
    }

    /// One fixed-ω synthesizer per admissible ω of `omega` (the mechanism
    /// needs `Pr{y = M(d)}` for the exact model that produced `y`, so a
    /// randomized ω draws among pre-built fixed-ω models per candidate).
    fn build_synthesizers(&self, omega: OmegaSpec) -> Result<Vec<SeedSynthesizer>> {
        omega.validate(self.seeds().schema().len())?;
        let (lo, hi) = match omega {
            OmegaSpec::Fixed(w) => (w, w),
            OmegaSpec::UniformRange { lo, hi } => (lo, hi),
        };
        Ok((lo..=hi)
            .map(|w| SeedSynthesizer::new(Arc::clone(&self.shared.models.cpts), w))
            .collect::<sgf_model::Result<_>>()?)
    }

    /// Serve one request through an *arbitrary* generative model — the same
    /// plausible-deniability mechanism and budget accounting, with `model`
    /// (e.g. the marginal baseline, or a `&dyn GenerativeModel` trait object)
    /// in place of the seed-based synthesizer.
    pub fn generate_with<M: GenerativeModel + ?Sized>(
        &self,
        model: &M,
        request: &GenerateRequest,
    ) -> Result<ReleaseReport> {
        self.generate_over(&[model], &[None], request, None)
    }

    /// Open a streaming iterator over released records.  Records are proposed
    /// and tested lazily as the iterator is advanced; each released record is
    /// charged to the session ledger as it is yielded.
    ///
    /// Streaming is inherently sequential: proposals run on the calling
    /// thread and the request's `workers` override is ignored.  Use
    /// [`generate`](SynthesisSession::generate) for parallel fan-out.
    pub fn release_iter(&self, request: GenerateRequest) -> Result<ReleaseIter<'_>> {
        self.open_release_iter(request, false)
    }

    /// [`release_iter`](SynthesisSession::release_iter) against a prior
    /// reservation of `reserved` records (`request.target` must not exceed
    /// it).  Each yielded record *converts* one reserved record into a
    /// release, so the ledger's worst case stays exact for the whole stream;
    /// when the stream finishes, the caller settles the remainder with
    /// [`abort_reservation`](SynthesisSession::abort_reservation)
    /// (`reserved` minus the records actually yielded).  An open error
    /// settles the whole reservation.
    pub fn release_iter_reserved(
        &self,
        reserved: usize,
        request: GenerateRequest,
    ) -> Result<ReleaseIter<'_>> {
        self.check_reservation(reserved, &request)
            .and_then(|_| self.open_release_iter(request, true))
            .inspect_err(|_| self.abort_reservation(reserved))
    }

    fn open_release_iter(
        &self,
        request: GenerateRequest,
        from_reservation: bool,
    ) -> Result<ReleaseIter<'_>> {
        let (target, _workers, max_candidates) = self.request_limits(&request)?;
        let models = self.build_synthesizers(request.omega.unwrap_or(self.config.omega))?;
        let stores = models
            .iter()
            .map(|m| self.resolve_store(&request, m.likelihood_attributes(), Some(m.omega())))
            .collect::<Result<Vec<_>>>()?;
        // Validate the mechanism inputs once; `next` uses the raw hot path.
        Mechanism::new(&models[0], self.seeds(), self.config.privacy_test)?;
        let ledger_before = {
            let mut guard = self.ledger.lock().expect("ledger lock poisoned");
            let before = *guard;
            guard.record_request(0);
            before
        };
        Ok(ReleaseIter {
            session: self,
            models,
            stores,
            rng: StdRng::seed_from_u64(request_worker_seed(request.seed, 0)),
            stats: MechanismStats::default(),
            target,
            max_candidates,
            from_reservation,
            request,
            ledger_before,
        })
    }

    /// Validate and resolve the per-request limits against session defaults.
    fn request_limits(&self, request: &GenerateRequest) -> Result<(usize, usize, usize)> {
        if request.target == 0 {
            return Err(CoreError::InvalidParameter(
                "target must be at least 1".into(),
            ));
        }
        let workers = request.workers.unwrap_or(self.config.workers);
        if workers == 0 {
            return Err(CoreError::InvalidParameter(
                "workers must be at least 1".into(),
            ));
        }
        let factor = request
            .max_candidate_factor
            .unwrap_or(self.config.max_candidate_factor);
        if factor == 0 {
            return Err(CoreError::InvalidParameter(
                "max_candidate_factor must be at least 1".into(),
            ));
        }
        Ok((
            request.target,
            workers,
            request.target.saturating_mul(factor),
        ))
    }

    /// Serve one request over `models` (smallest ω first when they are seed
    /// synthesizers, whose fixed ω `omegas` lists in the same order).
    fn generate_over<M: GenerativeModel + ?Sized>(
        &self,
        models: &[&M],
        omegas: &[Option<usize>],
        request: &GenerateRequest,
        reservation: Option<usize>,
    ) -> Result<ReleaseReport> {
        let (target, workers, max_candidates) = self.request_limits(request)?;
        let stores = models
            .iter()
            .zip(omegas)
            .map(|(m, &w)| self.resolve_store(request, m.likelihood_attributes(), w))
            .collect::<Result<Vec<_>>>()?;
        let widest = stores.first().copied().flatten();
        let ledger_before = self.ledger();
        let tracing = sgf_metrics::trace().enabled();
        let mut probes: Vec<CandidateProbe> = Vec::new();
        let start = Instant::now();
        let (records, stats) = run_mechanism(
            models,
            self.seeds(),
            &stores,
            self.config.privacy_test,
            target,
            max_candidates,
            workers,
            request.seed,
            self.scope.as_ref(),
            tracing.then_some(&mut probes),
        )?;
        let synthesis = start.elapsed();
        match &self.scope {
            Some(scope) => sgf_metrics::scoped(scope)
                .timer("core.synthesis")
                .observe(synthesis),
            None => sgf_metrics::timer("core.synthesis").observe(synthesis),
        }
        let ledger = {
            let mut guard = self.ledger.lock().expect("ledger lock poisoned");
            match reservation {
                Some(reserved) => guard.commit(reserved, stats.released),
                None => guard.record_request(stats.released),
            }
            *guard
        };
        let trace_spans = if tracing {
            commit_generate_trace(
                self.scope.as_ref(),
                request,
                widest.map_or("scan", |s| s.kind()),
                target,
                workers,
                &stats,
                &probes,
                synthesis,
            )
        } else {
            0
        };
        let provenance = self.provenance(
            request,
            widest,
            workers,
            max_candidates,
            ledger_before,
            trace_spans,
        );
        Ok(ReleaseReport {
            synthetics: Dataset::from_records_unchecked(self.seeds().schema_arc(), records),
            stats,
            per_release: self.per_release,
            ledger,
            synthesis,
            provenance,
        })
    }

    /// Dismantle the session into its split, models, and final ledger (used by
    /// the one-shot compatibility wrapper, and handy for evaluation).
    ///
    /// When this handle is the last one, the trained artifacts are moved out;
    /// while clones are still alive they are cloned instead (and the returned
    /// ledger is a snapshot of the shared one).
    pub fn into_parts(self) -> (DataSplit, TrainedModels, BudgetLedger) {
        let ledger = *self.ledger.lock().expect("ledger lock poisoned");
        match Arc::try_unwrap(self.shared) {
            Ok(shared) => (shared.split, shared.models, ledger),
            Err(arc) => (arc.split.clone(), arc.models.clone(), ledger),
        }
    }

    /// How many [`update`](SynthesisSession::update) steps separate this
    /// session from its original train (0 = freshly trained).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Apply a seed-data delta and return the next session **epoch**: a new
    /// immutable session over the post-delta dataset, leaving this one
    /// untouched (old epochs keep serving until dropped).
    ///
    /// Work scales with the delta, not the dataset: the deterministic hash
    /// split routes each ±record to its subset by value alone, model counts
    /// merge in O(|Δ|) ([`sgf_model::StructureCounts`],
    /// [`sgf_model::CptCounts`], [`sgf_model::MarginalCounts`]), and the seed
    /// indexes splice their posting lists / equivalence classes in place
    /// instead of rebuilding.  Splices are deferred to the first request of
    /// the new epoch; a per-ω partition store the parent epoch never built
    /// stays unbuilt until a request needs it.  A delta touching `D_T`
    /// re-derives the correlation matrix from the merged counts and
    /// re-learns the dependency graph when the entrywise drift exceeds the
    /// configured `drift_threshold`; a graph change cascades into a full CPT
    /// re-learn and (if a kept-attribute key changed) partition-store
    /// rebuilds.
    ///
    /// **Equivalence invariant** (at the default `drift_threshold = 0.0`):
    /// the returned session's split, models, classes, and posting lists are
    /// bit-identical to `SynthesisEngine::train` on the post-delta dataset,
    /// so identically-seeded `generate` calls release byte-identical records.
    ///
    /// The privacy ledger is **shared** with this session (same `Arc`):
    /// releases keep composing across epochs because they disclose the same
    /// underlying population.  The scope handle and per-release budget carry
    /// over; `epoch` increments and is stamped into every release's
    /// [`Provenance`].
    pub fn update(&self, delta: &DatasetDelta) -> Result<SynthesisSession> {
        let start = Instant::now();
        let shared = &self.shared;
        delta.validate_against(shared.split.seeds.schema())?;
        if delta.is_empty() {
            // Nothing changed: the new epoch shares the *entire* trained
            // state (one `Arc` bump) and differs only in its epoch stamp.
            sgf_metrics::counter("core.updates").incr();
            sgf_metrics::timer("core.update").observe(start.elapsed());
            return Ok(SynthesisSession {
                config: self.config,
                shared: Arc::clone(shared),
                per_release: self.per_release,
                ledger: Arc::clone(&self.ledger),
                scope: self.scope.clone(),
                epoch: self.epoch + 1,
            });
        }
        let bucketizer = shared.models.cpts.bucketizer();
        // Route every ±record to its split subset by value hash — the same
        // assignment `train`'s `split_dataset_by_hash` would make, so the
        // per-subset deltas reproduce the from-scratch split of the final
        // dataset.  `Unassigned` records never entered any subset.
        let mut deletes: [Vec<Record>; 4] = Default::default();
        let mut inserts: [Vec<Record>; 4] = Default::default();
        for record in delta.deletes() {
            if let Some(slot) = role_slot(split_role(&self.config.split, self.config.seed, record))
            {
                deletes[slot].push(record.clone());
            }
        }
        for record in delta.inserts() {
            if let Some(slot) = role_slot(split_role(&self.config.split, self.config.seed, record))
            {
                inserts[slot].push(record.clone());
            }
        }
        let (_, structure_data) =
            apply_subset_delta(&shared.split.structure, &deletes[0], &inserts[0])?;
        let (_, parameters_data) =
            apply_subset_delta(&shared.split.parameters, &deletes[1], &inserts[1])?;
        let (seed_deletes, seeds_data) =
            apply_subset_delta(&shared.split.seeds, &deletes[2], &inserts[2])?;
        let (_, test_data) = apply_subset_delta(&shared.split.test, &deletes[3], &inserts[3])?;
        if seeds_data.len() < self.config.privacy_test.k {
            return Err(CoreError::DatasetTooSmall {
                available: seeds_data.len(),
                required: self.config.privacy_test.k,
            });
        }
        let structure_changed = !deletes[0].is_empty() || !inserts[0].is_empty();
        let parameters_changed = !deletes[1].is_empty() || !inserts[1].is_empty();

        // Structure: merge the delta into the sufficient statistics, then
        // re-derive the correlation matrix from counts — no pass over D_T.
        // The rng seed matches `learn_models`, so the (possibly noisy) matrix
        // is bit-identical to a from-scratch retrain.  The drift gate splits
        // the relearn at the matrix: below the threshold the old structure is
        // kept (the documented exactness relaxation) and the CFS parent-set
        // search — the expensive half of the relearn — never runs.
        let mut structure_counts = shared.models.structure_counts.clone();
        let structure = if structure_changed {
            structure_counts.apply_delta(&deletes[0], &inserts[0], bucketizer)?;
            if let Some(dp) = &self.config.structure.dp {
                dp.validate()?;
            }
            let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(0x5eed));
            let correlations =
                structure_counts.matrix(self.config.structure.dp.as_ref(), &mut rng)?;
            let drift = shared
                .models
                .structure
                .correlations
                .max_abs_diff(&correlations);
            sgf_metrics::summary("core.update.structure_drift")
                .observe((drift * 1e6).min(u64::MAX as f64) as u64);
            if drift > self.config.drift_threshold {
                structure_from_correlations(correlations, bucketizer, &self.config.structure)?
            } else {
                shared.models.structure.clone()
            }
        } else {
            shared.models.structure.clone()
        };
        let graph_changed = structure.graph != shared.models.structure.graph;

        // Parameters: a graph change invalidates the CPT layout (full
        // re-learn over the new D_P); otherwise the contingency counts merge
        // and the store is re-derived from them, or shared untouched.
        let cpts: Arc<CptStore> = if graph_changed {
            Arc::new(CptStore::learn(
                &parameters_data,
                bucketizer,
                &structure.graph,
                self.config.parameters,
            )?)
        } else if parameters_changed {
            Arc::new(shared.models.cpts.apply_delta(&deletes[1], &inserts[1])?)
        } else {
            Arc::clone(&shared.models.cpts)
        };
        let mut marginal_counts = shared.models.marginal_counts.clone();
        let marginal = if parameters_changed {
            marginal_counts.apply_delta(&deletes[1], &inserts[1])?;
            MarginalModel::from_counts(&marginal_counts, marginal_config(&self.config))?
        } else {
            shared.models.marginal.clone()
        };
        let models = TrainedModels {
            bayes_net: BayesNetModel::new(Arc::clone(&cpts)),
            structure,
            cpts,
            marginal,
            structure_counts,
            marginal_counts,
        };
        let training = start.elapsed();

        // Indexes: a store the delta cannot have changed is shared with the
        // parent epoch via `Arc`; a touched one defers its splice (or
        // rebuild) into a [`StoreSlot`] that the first request of the new
        // epoch materializes, keeping `update` itself O(|Δ|).  Every failure
        // mode of the deferred work is ruled out *here*: delta records are
        // schema-validated (arity and domains), delete indices are derived
        // ascending, and sizes/weights are checked below.
        let build_start = Instant::now();
        if seeds_data.len() > u32::MAX as usize {
            return Err(CoreError::InvalidParameter(
                "seed stores support at most u32::MAX records".into(),
            ));
        }
        let seeds_untouched = seed_deletes.is_empty() && inserts[2].is_empty();
        let structure_same =
            !graph_changed && models.structure.correlations == shared.models.structure.correlations;
        let seed_deletes = Arc::new(seed_deletes);
        let seed_inserts = Arc::new(std::mem::take(&mut inserts[2]));
        let index = match self.config.seed_index {
            SeedIndex::Scan | SeedIndex::Partition => StoreSlot::ready(None),
            SeedIndex::Inverted | SeedIndex::Auto => {
                let weights = models.structure.attribute_weights();
                if let Some((attr, &w)) = weights.iter().enumerate().find(|(_, w)| !w.is_finite()) {
                    return Err(CoreError::InvalidParameter(format!(
                        "attribute weight {attr} of the updated structure is {w}; \
                         weights must be finite"
                    )));
                }
                match self.shared.index.get_shared() {
                    // Same seeds, same weights: the parent's posting lists
                    // are byte-identical to a fresh build — share them.
                    Some(old) if seeds_untouched && structure_same => {
                        StoreSlot::ready_shared(Some(old))
                    }
                    Some(old) => {
                        let deletes = Arc::clone(&seed_deletes);
                        let ins = Arc::clone(&seed_inserts);
                        StoreSlot::deferred(move || {
                            old.apply_delta(&deletes, &ins, &weights)
                                .expect("splice inputs were validated at update time")
                        })
                    }
                    None => {
                        let seeds = seeds_data.clone();
                        let bucketizer = bucketizer.clone();
                        StoreSlot::deferred(move || {
                            InvertedIndexStore::build(
                                &seeds,
                                &bucketizer,
                                &weights,
                                MAX_INTERSECT_LISTS,
                            )
                            .expect("build inputs were validated at update time")
                        })
                    }
                }
            }
        };
        let partition = match self.config.seed_index {
            SeedIndex::Scan | SeedIndex::Inverted => StoreSlot::ready(None),
            SeedIndex::Partition | SeedIndex::Auto => {
                let lo = trained_omega(self.config.omega);
                let synthesizer = SeedSynthesizer::new(Arc::clone(&models.cpts), lo)?;
                let key = normalized(synthesizer.kept_attributes());
                let reusable = self
                    .shared
                    .partition
                    .get_shared()
                    .filter(|old| old.attributes() == key.as_slice());
                match reusable {
                    // Same seeds, same kept-attribute key: the parent's
                    // classes are byte-identical to a fresh build.
                    Some(old) if seeds_untouched => StoreSlot::ready_shared(Some(old)),
                    Some(old) => {
                        let deletes = Arc::clone(&seed_deletes);
                        let ins = Arc::clone(&seed_inserts);
                        StoreSlot::deferred(move || {
                            old.apply_delta(&deletes, &ins)
                                .expect("splice inputs were validated at update time")
                        })
                    }
                    None => {
                        let seeds = seeds_data.clone();
                        let kept: Vec<usize> = synthesizer.kept_attributes().to_vec();
                        let class_cache = self.config.class_cache;
                        StoreSlot::deferred(move || {
                            let store = PartitionIndexStore::build(&seeds, &kept)
                                .expect("build inputs were validated at update time");
                            if class_cache {
                                store.with_class_cache()
                            } else {
                                store
                            }
                        })
                    }
                }
            }
        };
        // Per-ω stores: never forced here.  One the parent epoch built is
        // spliced on first use (or shared when the seeds are untouched), as
        // long as the ω's kept attributes did not change; every other slot
        // builds on the post-delta seeds on first use.
        let mut omega_stores = BTreeMap::new();
        for (&w, slot) in &shared.omega_stores {
            let spliceable = match slot.peek() {
                Some(old) => {
                    let synthesizer = SeedSynthesizer::new(Arc::clone(&models.cpts), w)?;
                    let key = normalized(synthesizer.kept_attributes());
                    Some(old).filter(|old| old.attributes() == key.as_slice())
                }
                None => None,
            };
            let slot = match spliceable {
                Some(old) if seeds_untouched => StoreSlot::ready_shared(Some(old)),
                Some(old) => {
                    let deletes = Arc::clone(&seed_deletes);
                    let ins = Arc::clone(&seed_inserts);
                    StoreSlot::deferred(move || {
                        old.apply_delta(&deletes, &ins)
                            .expect("splice inputs were validated at update time")
                    })
                }
                None => omega_store_build(&seeds_data, &models.cpts, w),
            };
            omega_stores.insert(w, slot);
        }
        let index_build = build_start.elapsed();
        sgf_metrics::counter("core.updates").incr();
        sgf_metrics::timer("core.update").observe(start.elapsed());
        let trace = sgf_metrics::trace();
        if trace.enabled() {
            let mut batch = TraceBatch::new();
            let root = batch.span("core.update", SpanId::NONE);
            batch.counter(root, "epoch", self.epoch + 1);
            batch.counter(root, "delta_records", delta.change_count() as u64);
            batch.counter(root, "seeds", seeds_data.len() as u64);
            batch.label(root, "structure_relearned", on_off(graph_changed));
            batch.wall(root, start.elapsed());
            trace.commit(batch);
        }
        Ok(SynthesisSession {
            config: self.config,
            shared: Arc::new(SessionShared {
                split: DataSplit {
                    structure: structure_data,
                    parameters: parameters_data,
                    seeds: seeds_data,
                    test: test_data,
                },
                models,
                index,
                partition,
                omega_stores,
                index_build,
                training,
            }),
            per_release: self.per_release,
            ledger: Arc::clone(&self.ledger),
            scope: self.scope.clone(),
            epoch: self.epoch + 1,
        })
    }
}

/// Slot of a split role in the per-subset delta arrays (`None` for records
/// the hash split drops entirely).
fn role_slot(role: SplitRole) -> Option<usize> {
    match role {
        SplitRole::Structure => Some(0),
        SplitRole::Parameters => Some(1),
        SplitRole::Seeds => Some(2),
        SplitRole::Test => Some(3),
        SplitRole::Unassigned => None,
    }
}

/// The smallest ω of a spec: the ω whose kept attributes key the trained
/// partition store.
fn trained_omega(omega: OmegaSpec) -> usize {
    match omega {
        OmegaSpec::Fixed(w) => w,
        OmegaSpec::UniformRange { lo, .. } => lo,
    }
}

/// An attribute list sorted and deduplicated — a partition store's key.
fn normalized(attributes: &[usize]) -> Vec<usize> {
    let mut key = attributes.to_vec();
    key.sort_unstable();
    key.dedup();
    key
}

/// A slot that builds, on first use, the partition store keyed on the kept
/// attributes of the fixed-ω-`omega` synthesizer over `seeds` (no
/// class-match cache — see `SessionShared::omega_stores`).  `omega` is
/// below an ω the session already built a synthesizer for, so the build
/// cannot fail.
fn omega_store_build(
    seeds: &Dataset,
    cpts: &Arc<CptStore>,
    omega: usize,
) -> StoreSlot<PartitionIndexStore> {
    let seeds = seeds.clone();
    let cpts = Arc::clone(cpts);
    StoreSlot::deferred(move || {
        let synthesizer =
            SeedSynthesizer::new(cpts, omega).expect("ω below the trained ω is valid");
        PartitionIndexStore::build(&seeds, synthesizer.kept_attributes())
            .expect("the kept attributes index the seed schema")
    })
}

/// Apply one subset's delta: resolve `deletes` by value against the current
/// records (first remaining occurrence, the canonical `DatasetDelta` rule),
/// append `inserts` after the survivors, and return the **deleted** index
/// list (ascending — what the index stores splice on) plus the new dataset.
fn apply_subset_delta(
    dataset: &Dataset,
    deletes: &[Record],
    inserts: &[Record],
) -> Result<(Vec<usize>, Dataset)> {
    if deletes.is_empty() {
        // Untouched or insert-only subset: share every existing record with
        // the parent epoch (`Dataset::with_appended` keeps the base block
        // behind the same `Arc`) — O(|inserts|) instead of O(subset).
        return Ok((Vec::new(), dataset.with_appended(inserts.to_vec())?));
    }
    let survivors = apply_deletes(dataset.records(), deletes)?;
    let mut deleted = Vec::with_capacity(deletes.len());
    let mut next_survivor = survivors.iter().peekable();
    for idx in 0..dataset.len() {
        match next_survivor.peek() {
            Some(&&s) if s == idx => {
                next_survivor.next();
            }
            _ => deleted.push(idx),
        }
    }
    let mut records: Vec<Record> = survivors
        .iter()
        .map(|&i| dataset.records()[i].clone())
        .collect();
    records.extend(inserts.iter().cloned());
    Ok((
        deleted,
        Dataset::from_records_unchecked(dataset.schema_arc(), records),
    ))
}

/// Streaming iterator over released records (see
/// [`SynthesisSession::release_iter`]).  Yields `Ok(record)` for every
/// candidate that passes the privacy test, stops after the request target or
/// the proposal cap, whichever comes first.
#[derive(Debug)]
pub struct ReleaseIter<'s> {
    session: &'s SynthesisSession,
    models: Vec<SeedSynthesizer>,
    /// `stores[i]` serves `models[i]` (`None` = the linear scan).
    stores: Vec<Option<&'s dyn SeedStore>>,
    rng: StdRng,
    stats: MechanismStats,
    target: usize,
    max_candidates: usize,
    /// Opened via [`SynthesisSession::release_iter_reserved`]: each yielded
    /// record converts one reserved record instead of charging anew.
    from_reservation: bool,
    /// The request this iterator serves, kept for the provenance block.
    request: GenerateRequest,
    /// Ledger snapshot taken just before this request was recorded.
    ledger_before: BudgetLedger,
}

impl ReleaseIter<'_> {
    /// Statistics over the candidates proposed so far.
    pub fn stats(&self) -> MechanismStats {
        self.stats
    }

    /// Provenance of this streaming release.  Streaming always proposes on
    /// the calling thread (`workers: 1`) and commits no trace spans of its
    /// own, so those fields are fixed; the ledger snapshot is the one taken
    /// when the iterator was opened.
    pub fn provenance(&self) -> Provenance {
        self.session.provenance(
            &self.request,
            self.stores[0],
            1,
            self.max_candidates,
            self.ledger_before,
            0,
        )
    }
}

impl Iterator for ReleaseIter<'_> {
    type Item = Result<Record>;

    fn next(&mut self) -> Option<Self::Item> {
        while self.stats.released < self.target && self.stats.candidates < self.max_candidates {
            let which = if self.models.len() == 1 {
                0
            } else {
                self.rng.gen_range(0..self.models.len())
            };
            let scan;
            let store: &dyn SeedStore = match self.stores[which] {
                Some(store) => store,
                None => {
                    scan = LinearScanStore::new(self.session.seeds());
                    &scan
                }
            };
            let report = match propose_candidate_with_store(
                &self.models[which],
                self.session.seeds(),
                store,
                &self.session.config.privacy_test,
                &mut self.rng,
            ) {
                Ok(report) => report,
                Err(err) => return Some(Err(err)),
            };
            self.stats.observe(&report.outcome);
            if report.released() {
                self.stats.released += 1;
                let mut ledger = self.session.ledger.lock().expect("ledger lock poisoned");
                if self.from_reservation {
                    ledger.convert_reserved_release();
                } else {
                    ledger.record_streamed_release();
                }
                drop(ledger);
                return Some(Ok(report.record));
            }
        }
        None
    }
}

/// Theorem-1 per-release budget for a privacy-test configuration (tightest ε
/// with δ ≤ 1e-6), or `None` for the deterministic test.
pub(crate) fn per_release_budget(test: &PrivacyTestConfig) -> Option<DpBudget> {
    let epsilon0 = test.epsilon0?;
    crate::dp::ReleaseBudget::optimize(test.k, test.gamma, epsilon0, 1e-6)
        .ok()
        .flatten()
        .map(|b| b.budget)
}

/// Deterministic per-worker RNG seed derivation.
fn request_worker_seed(request_seed: u64, worker: usize) -> u64 {
    request_seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(worker as u64)
}

/// Trace-label rendering of an optional build step.
fn on_off(built: bool) -> &'static str {
    if built {
        "built"
    } else {
        "skipped"
    }
}

/// Commit the span tree of one generate request to the global trace ring:
/// a `core.generate` root (scope labels, store, seed, outcome counters), a
/// `core.proposals` child with the mechanism counters, and one
/// `core.privacy_test` child per captured probe.  Returns the events
/// committed (0 when tracing was toggled off mid-request).
#[allow(clippy::too_many_arguments)]
fn commit_generate_trace(
    scope: Option<&Scope>,
    request: &GenerateRequest,
    store_kind: &'static str,
    target: usize,
    workers: usize,
    stats: &MechanismStats,
    probes: &[CandidateProbe],
    synthesis: Duration,
) -> usize {
    let mut batch = TraceBatch::new();
    let root = batch.span("core.generate", SpanId::NONE);
    if let Some(scope) = scope {
        batch.scope_labels(root, scope);
    }
    batch.label(root, "store", store_kind);
    batch.label(root, "seed", &request.seed.to_string());
    batch.counter(root, "target", target as u64);
    batch.counter(root, "released", stats.released as u64);
    batch.counter(root, "workers", workers as u64);
    batch.wall(root, synthesis);
    let proposals = batch.span("core.proposals", root);
    batch.counter(proposals, "candidates", stats.candidates as u64);
    batch.counter(proposals, "records_examined", stats.records_examined as u64);
    batch.counter(proposals, "index_tests", stats.index_tests as u64);
    batch.counter(proposals, "scan_tests", stats.scan_tests as u64);
    batch.counter(proposals, "partition_tests", stats.partition_tests as u64);
    batch.counter(proposals, "class_cache_hits", stats.class_cache_hits as u64);
    batch.counter(
        proposals,
        "class_cache_misses",
        stats.class_cache_misses as u64,
    );
    if stats.candidates > probes.len() {
        batch.counter(
            proposals,
            "candidates_untraced",
            (stats.candidates - probes.len()) as u64,
        );
    }
    for probe in probes {
        let span = batch.span("core.privacy_test", proposals);
        batch.label(span, "store", probe.store);
        batch.label(span, "outcome", if probe.passed { "pass" } else { "fail" });
        batch.counter(span, "rank", probe.rank as u64);
        batch.counter(span, "plausible_seeds", probe.plausible_seeds as u64);
        batch.counter(span, "records_examined", probe.records_examined as u64);
    }
    sgf_metrics::trace().commit(batch)
}

/// A passing candidate tagged with its global proposal rank.
///
/// Worker `w`'s `i`-th proposal has rank `w + workers * i` — globally unique
/// (distinct residues mod `workers`) and strictly increasing within each
/// worker.  Ordering is by rank alone so the shared selection heap can evict
/// its largest-rank member first.
struct RankedRecord {
    rank: usize,
    record: Record,
}

impl PartialEq for RankedRecord {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank
    }
}

impl Eq for RankedRecord {}

impl PartialOrd for RankedRecord {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RankedRecord {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank.cmp(&other.rank)
    }
}

/// Per-worker contention tallies for the shared release selection, merged
/// across workers and flushed into the [`sgf_metrics`] global registry per
/// request (`core.mechanism.*`).
#[derive(Debug, Default, Clone, Copy)]
struct WorkerProfile {
    /// Times this worker acquired the shared selection lock (once per
    /// *passing* candidate — failing candidates never touch shared state).
    selection_locks: u64,
    /// Passing candidates that lost to a full selection of smaller ranks
    /// (wasted proposals the rank threshold did not stop in time).
    outranked_passes: u64,
}

impl WorkerProfile {
    fn merge(&mut self, other: &WorkerProfile) {
        self.selection_locks += other.selection_locks;
        self.outranked_passes += other.outranked_passes;
    }
}

/// The model-generic parallel release engine shared by the session API and the
/// legacy pipeline: build (and validate) every [`Mechanism`] exactly once —
/// model `i` over seed store `stores[i]` (`None` = the linear scan) — then
/// fan proposals out over the workers.
///
/// # Determinism and contention
///
/// Earlier revisions coordinated workers through two shared atomics bumped on
/// **every proposal** (a `fetch_add` candidate ticket plus a released-slot
/// reservation counter) — a cache-line ping-pong between all workers, and the
/// winner of the slot race varied run to run, so multi-worker releases were
/// nondeterministic.  The loop now statically shards the proposal space:
/// worker `w` owns ranks `w, w + workers, w + 2·workers, …  < max_candidates`
/// (exactly the tickets it could win before, assigned up front), drives its
/// private RNG stream, and touches shared state only when a candidate
/// **passes** the privacy test.  Passing candidates enter a bounded max-heap
/// of capacity `target` under a mutex — the release selection is the `target`
/// *smallest-rank* passing candidates — and a lock-free threshold mirror of
/// the heap's max rank lets workers stop early: once the heap is full, the
/// threshold only decreases, so a worker whose next rank exceeds it can never
/// displace a selected record (ranks are unique, and every later rank of that
/// worker is larger still).  Skipped proposals therefore cannot change the
/// selection, which makes the released records — sorted by rank on return —
/// **identical across runs and byte-identical at `workers = 1`** to the
/// sequential [`ReleaseIter`] order.  Per-proposal shared traffic is one
/// relaxed load of a cache-padded threshold.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_mechanism<M: GenerativeModel + ?Sized>(
    models: &[&M],
    seeds: &Dataset,
    stores: &[Option<&dyn SeedStore>],
    test: PrivacyTestConfig,
    target: usize,
    max_candidates: usize,
    workers: usize,
    request_seed: u64,
    scope: Option<&Scope>,
    probes_out: Option<&mut Vec<CandidateProbe>>,
) -> Result<(Vec<Record>, MechanismStats)> {
    if models.is_empty() {
        return Err(CoreError::InvalidParameter(
            "at least one generative model is required".into(),
        ));
    }
    if stores.len() != models.len() {
        return Err(CoreError::InvalidParameter(format!(
            "{} seed stores for {} generative models",
            stores.len(),
            models.len()
        )));
    }
    // Construct the mechanisms once per request (validation included); the
    // workers below only borrow them.
    let mechanisms: Vec<Mechanism<'_, M>> = models
        .iter()
        .zip(stores)
        .map(|(m, store)| match store {
            Some(store) => Mechanism::with_store(*m, seeds, *store, test),
            None => Mechanism::new(*m, seeds, test),
        })
        .collect::<Result<_>>()?;

    let workers = workers.min(max_candidates.max(1));
    let selection = Mutex::new(BinaryHeap::with_capacity(target.min(max_candidates)));
    // usize::MAX = "heap not full yet, every rank is still in the running".
    let threshold = CachePadded::new(AtomicUsize::new(usize::MAX));
    let collect_probes = probes_out.is_some();

    type WorkerResult = Result<(MechanismStats, WorkerProfile, Vec<CandidateProbe>)>;
    let worker_results: Vec<WorkerResult> = if workers <= 1 {
        vec![worker_loop(
            request_worker_seed(request_seed, 0),
            0,
            1,
            &mechanisms,
            target,
            max_candidates,
            &selection,
            &threshold,
            collect_probes,
        )]
    } else {
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for worker in 0..workers {
                let mechanisms = &mechanisms;
                let selection = &selection;
                let threshold = &threshold;
                handles.push(scope.spawn(move || {
                    worker_loop(
                        request_worker_seed(request_seed, worker),
                        worker,
                        workers,
                        mechanisms,
                        target,
                        max_candidates,
                        selection,
                        threshold,
                        collect_probes,
                    )
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    };

    let mut stats = MechanismStats::default();
    let mut profile = WorkerProfile::default();
    let mut probes: Vec<CandidateProbe> = Vec::new();
    for result in worker_results {
        let (s, p, mut worker_probes) = result?;
        stats.merge(&s);
        profile.merge(&p);
        probes.append(&mut worker_probes);
    }
    if let Some(out) = probes_out {
        // Each worker kept its smallest-ranked probes; the merged smallest
        // `MAX_TRACE_PROBES` ranks are therefore a true global prefix.
        probes.sort_by_key(|probe| probe.rank);
        probes.truncate(MAX_TRACE_PROBES);
        *out = probes;
    }
    let heap = selection
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    // Ascending rank order: deterministic, and at workers = 1 exactly the
    // proposal order of the sequential path.
    let records: Vec<Record> = heap
        .into_sorted_vec()
        .into_iter()
        .map(|ranked| ranked.record)
        .collect();
    debug_assert!(records.len() <= target, "selection grew past the target");
    // The heap caps releases at the target; workers cannot know which of
    // their passes survive the selection, so the released total is settled
    // here instead of per worker.
    stats.released = records.len();

    // Flush exactly once: the scoped handles below write both the global
    // rollup and the scope cell, so a scoped request must not also run the
    // unscoped block (it would double-count the rollup).
    match scope {
        Some(scope) => {
            let view = sgf_metrics::scoped(scope);
            view.counter("core.mechanism.requests").incr();
            view.counter("core.mechanism.candidates")
                .add(stats.candidates as u64);
            view.counter("core.mechanism.released")
                .add(stats.released as u64);
            view.counter("core.mechanism.records_examined")
                .add(stats.records_examined as u64);
            view.counter("core.mechanism.index_tests")
                .add(stats.index_tests as u64);
            view.counter("core.mechanism.scan_tests")
                .add(stats.scan_tests as u64);
            view.counter("core.mechanism.partition_tests")
                .add(stats.partition_tests as u64);
            view.counter("core.mechanism.class_cache_hits")
                .add(stats.class_cache_hits as u64);
            view.counter("core.mechanism.class_cache_misses")
                .add(stats.class_cache_misses as u64);
            view.counter("core.mechanism.selection_locks")
                .add(profile.selection_locks);
            view.counter("core.mechanism.outranked_passes")
                .add(profile.outranked_passes);
            view.summary("core.mechanism.workers")
                .observe(workers as u64);
        }
        None => {
            sgf_metrics::counter("core.mechanism.requests").incr();
            sgf_metrics::counter("core.mechanism.candidates").add(stats.candidates as u64);
            sgf_metrics::counter("core.mechanism.released").add(stats.released as u64);
            sgf_metrics::counter("core.mechanism.records_examined")
                .add(stats.records_examined as u64);
            sgf_metrics::counter("core.mechanism.index_tests").add(stats.index_tests as u64);
            sgf_metrics::counter("core.mechanism.scan_tests").add(stats.scan_tests as u64);
            sgf_metrics::counter("core.mechanism.partition_tests")
                .add(stats.partition_tests as u64);
            sgf_metrics::counter("core.mechanism.class_cache_hits")
                .add(stats.class_cache_hits as u64);
            sgf_metrics::counter("core.mechanism.class_cache_misses")
                .add(stats.class_cache_misses as u64);
            sgf_metrics::counter("core.mechanism.selection_locks").add(profile.selection_locks);
            sgf_metrics::counter("core.mechanism.outranked_passes").add(profile.outranked_passes);
            sgf_metrics::summary("core.mechanism.workers").observe(workers as u64);
        }
    }

    Ok((records, stats))
}

#[allow(clippy::too_many_arguments)]
fn worker_loop<M: GenerativeModel + ?Sized>(
    worker_seed: u64,
    worker: usize,
    workers: usize,
    mechanisms: &[Mechanism<'_, M>],
    target: usize,
    max_candidates: usize,
    selection: &Mutex<BinaryHeap<RankedRecord>>,
    threshold: &AtomicUsize,
    collect_probes: bool,
) -> Result<(MechanismStats, WorkerProfile, Vec<CandidateProbe>)> {
    let mut rng = StdRng::seed_from_u64(worker_seed);
    let mut stats = MechanismStats::default();
    let mut profile = WorkerProfile::default();
    let mut probes: Vec<CandidateProbe> = Vec::new();
    let mut rank = worker;
    while rank < max_candidates {
        // Once the selection is full its max rank only decreases, and this
        // worker's ranks only increase — past the threshold it can never
        // contribute again, so stopping here cannot change the selection.
        if threshold.load(Ordering::Relaxed) <= rank {
            break;
        }
        let which = if mechanisms.len() == 1 {
            0
        } else {
            rng.gen_range(0..mechanisms.len())
        };
        let report = mechanisms[which].propose(&mut rng)?;
        stats.observe(&report.outcome);
        if collect_probes && probes.len() < MAX_TRACE_PROBES {
            probes.push(CandidateProbe {
                rank,
                store: if report.outcome.via_classes {
                    "partition"
                } else if report.outcome.via_index {
                    "inverted"
                } else {
                    "scan"
                },
                passed: report.outcome.passed,
                plausible_seeds: report.outcome.plausible_seeds,
                records_examined: report.outcome.records_examined,
            });
        }
        if report.released() {
            let mut heap = selection
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            profile.selection_locks += 1;
            if heap.len() < target {
                heap.push(RankedRecord {
                    rank,
                    record: report.record,
                });
                if heap.len() == target {
                    if let Some(top) = heap.peek() {
                        threshold.store(top.rank, Ordering::Relaxed);
                    }
                }
            } else if heap.peek().is_some_and(|top| rank < top.rank) {
                heap.pop();
                heap.push(RankedRecord {
                    rank,
                    record: report.record,
                });
                if let Some(top) = heap.peek() {
                    threshold.store(top.rank, Ordering::Relaxed);
                }
            } else {
                profile.outranked_passes += 1;
            }
        }
        rank += workers;
    }
    Ok((stats, profile, probes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgf_data::acs::{acs_bucketizer, acs_schema, generate_acs};

    fn small_engine(seed: u64) -> SynthesisEngine {
        SynthesisEngine::builder()
            .privacy_test(
                PrivacyTestConfig::randomized(20, 4.0, 1.0).with_limits(Some(40), Some(2000)),
            )
            .omega(OmegaSpec::Fixed(9))
            .max_candidate_factor(30)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_rejects_invalid_defaults() {
        assert!(SynthesisEngine::builder().workers(0).build().is_err());
        assert!(SynthesisEngine::builder()
            .max_candidate_factor(0)
            .build()
            .is_err());
        assert!(SynthesisEngine::builder()
            .privacy_test(PrivacyTestConfig::deterministic(5, 0.5))
            .build()
            .is_err());
    }

    #[test]
    fn session_serves_repeated_requests_and_accumulates_the_ledger() {
        let data = generate_acs(4000, 11);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(11).train(&data, &bkt).unwrap();
        assert_eq!(session.ledger().releases, 0);

        let mut total = 0usize;
        let mut last_epsilon = 0.0;
        for request_seed in 0..3u64 {
            let report = session
                .generate(&GenerateRequest::new(15).with_seed(request_seed))
                .unwrap();
            assert!(!report.synthetics.is_empty());
            total += report.stats.released;
            assert_eq!(report.ledger.releases, total);
            assert_eq!(report.ledger.requests, request_seed as usize + 1);
            let epsilon = report.ledger.cumulative_release().epsilon;
            assert!(epsilon > last_epsilon, "ledger must grow monotonically");
            last_epsilon = epsilon;
        }
        assert_eq!(session.ledger().releases, total);
    }

    #[test]
    fn identical_requests_release_identical_records() {
        let data = generate_acs(3500, 12);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(12).train(&data, &bkt).unwrap();
        let request = GenerateRequest::new(12).with_seed(99);
        let a = session.generate(&request).unwrap();
        let b = session.generate(&request).unwrap();
        assert_eq!(a.synthetics.records(), b.synthetics.records());
        // The ledger still charges both requests.
        assert_eq!(b.ledger.releases, a.stats.released + b.stats.released);
    }

    #[test]
    fn release_iter_streams_and_charges_the_ledger() {
        let data = generate_acs(3500, 13);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(13).train(&data, &bkt).unwrap();
        let mut iter = session
            .release_iter(GenerateRequest::new(8).with_seed(5))
            .unwrap();
        let first = iter.next().unwrap().unwrap();
        data.schema().validate_values(first.values()).unwrap();
        assert_eq!(session.ledger().releases, 1);
        let rest: Vec<_> = iter.by_ref().map(|r| r.unwrap()).collect();
        assert!(rest.len() <= 7);
        assert_eq!(session.ledger().releases, 1 + rest.len());
        assert_eq!(iter.stats().released, 1 + rest.len());
        assert!(iter.stats().candidates >= iter.stats().released);
        // A single-worker generate with the same seed releases the same records.
        let report = session
            .generate(&GenerateRequest::new(8).with_seed(5).with_workers(1))
            .unwrap();
        let mut streamed = vec![first];
        streamed.extend(rest);
        assert_eq!(report.synthetics.records(), &streamed[..]);
    }

    #[test]
    fn trait_object_models_pass_through_the_mechanism() {
        let data = generate_acs(3000, 14);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(14).train(&data, &bkt).unwrap();
        let marginal: &dyn GenerativeModel = &session.models().marginal;
        let report = session
            .generate_with(marginal, &GenerateRequest::new(10).with_seed(3))
            .unwrap();
        // Seed-independent model: every candidate passes (Section 8).
        assert_eq!(report.stats.released, 10);
        assert!((report.stats.pass_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scan_and_index_release_identical_records() {
        // The acceptance bar of the indexed seed stores: for a fixed request
        // seed, SeedIndex::Scan, SeedIndex::Inverted, and
        // SeedIndex::Partition must release exactly the same records with the
        // same counters (only records_examined may differ).
        let data = generate_acs(4000, 21);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(21).train(&data, &bkt).unwrap();
        assert!(session.seed_store().is_some(), "Auto builds the index");
        assert!(
            session.partition_store().is_some(),
            "Auto builds the partition store"
        );
        for request_seed in 0..3u64 {
            let base = GenerateRequest::new(20).with_seed(request_seed);
            let scan = session
                .generate(&base.with_seed_index(SeedIndex::Scan))
                .unwrap();
            let index = session
                .generate(&base.with_seed_index(SeedIndex::Inverted))
                .unwrap();
            let partition = session
                .generate(&base.with_seed_index(SeedIndex::Partition))
                .unwrap();
            assert_eq!(scan.synthetics.records(), index.synthetics.records());
            assert_eq!(scan.synthetics.records(), partition.synthetics.records());
            assert_eq!(scan.stats.candidates, index.stats.candidates);
            assert_eq!(scan.stats.candidates, partition.stats.candidates);
            assert_eq!(scan.stats.released, index.stats.released);
            assert_eq!(scan.stats.released, partition.stats.released);
            assert_eq!(scan.stats.index_tests, 0);
            assert_eq!(scan.stats.partition_tests, 0);
            assert_eq!(index.stats.scan_tests, 0);
            assert_eq!(index.stats.index_tests, index.stats.candidates);
            assert_eq!(partition.stats.scan_tests, 0);
            assert_eq!(partition.stats.index_tests, 0);
            assert_eq!(partition.stats.partition_tests, partition.stats.candidates);
            assert!(
                index.stats.records_examined < scan.stats.records_examined,
                "index {} vs scan {}",
                index.stats.records_examined,
                scan.stats.records_examined
            );
            assert!(
                partition.stats.records_examined < index.stats.records_examined,
                "partition {} vs index {}",
                partition.stats.records_examined,
                index.stats.records_examined
            );
        }
    }

    #[test]
    fn class_cache_never_perturbs_releases() {
        // The instrumentation-equivalence bar for the class-match cache: a
        // cache-on session and a cache-off session trained identically must
        // release byte-identical records with identical candidate, count,
        // and examined totals — only the hit/miss tallies may differ.
        let data = generate_acs(4000, 44);
        let bkt = acs_bucketizer(&acs_schema());
        let cached = small_engine(44).train(&data, &bkt).unwrap();
        let uncached = SynthesisEngine::builder()
            .privacy_test(
                PrivacyTestConfig::randomized(20, 4.0, 1.0).with_limits(Some(40), Some(2000)),
            )
            .omega(OmegaSpec::Fixed(9))
            .max_candidate_factor(30)
            .class_cache(false)
            .seed(44)
            .train(&data, &bkt)
            .unwrap();
        assert!(cached.partition_store().unwrap().class_cache().is_some());
        assert!(uncached.partition_store().unwrap().class_cache().is_none());
        for request_seed in 0..3u64 {
            let request = GenerateRequest::new(15)
                .with_seed(request_seed)
                .with_seed_index(SeedIndex::Partition);
            let a = cached.generate(&request).unwrap();
            let b = uncached.generate(&request).unwrap();
            assert_eq!(a.synthetics.records(), b.synthetics.records());
            assert_eq!(a.stats.candidates, b.stats.candidates);
            assert_eq!(a.stats.released, b.stats.released);
            assert_eq!(a.stats.records_examined, b.stats.records_examined);
            // The seed synthesizer's likelihood set equals its exact-match
            // set, so every class-granularity test goes through the cache.
            assert_eq!(
                a.stats.class_cache_hits + a.stats.class_cache_misses,
                a.stats.partition_tests
            );
            assert_eq!(b.stats.class_cache_hits, 0);
            assert_eq!(b.stats.class_cache_misses, 0);
        }
        // Re-running a seed the session already served finds every candidate
        // projection warm: all hits, zero misses.
        let request = GenerateRequest::new(15)
            .with_seed(0)
            .with_seed_index(SeedIndex::Partition);
        let again = cached.generate(&request).unwrap();
        assert_eq!(again.stats.class_cache_misses, 0);
        assert_eq!(again.stats.class_cache_hits, again.stats.partition_tests);
        assert!(again.stats.class_cache_hits > 0);
        let rows = cached
            .partition_store()
            .unwrap()
            .class_cache()
            .unwrap()
            .rows();
        assert!(rows > 0, "served requests must have populated rows");
    }

    #[test]
    fn partition_store_counts_classes_not_records() {
        let data = generate_acs(4000, 31);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(31).train(&data, &bkt).unwrap();
        let store = session.partition_store().unwrap();
        assert!(store.class_count() <= session.seeds().len());
        // The session ω is Fixed(9): the store is keyed on the kept
        // attributes of the ω = 9 synthesizer.
        assert_eq!(store.attributes().len(), session.seeds().schema().len() - 9);
        // Fixed ω means every key attribute is exact-matched: the test is a
        // single class lookup, so each candidate examines at most one
        // representative.
        let report = session
            .generate(
                &GenerateRequest::new(10)
                    .with_seed(7)
                    .with_seed_index(SeedIndex::Partition),
            )
            .unwrap();
        assert_eq!(report.stats.partition_tests, report.stats.candidates);
        assert!(
            report.stats.records_examined <= report.stats.candidates,
            "fixed-omega partition tests are single-class lookups: {} examined for {} candidates",
            report.stats.records_examined,
            report.stats.candidates
        );
    }

    /// ω settings below the ω = 9 a `small_engine` session is trained at:
    /// the trained partition store covers none of their smallest-ω
    /// synthesizers.
    fn below_trained_omegas() -> [OmegaSpec; 3] {
        [
            OmegaSpec::UniformRange { lo: 5, hi: 11 },
            OmegaSpec::UniformRange { lo: 6, hi: 8 },
            OmegaSpec::Fixed(5),
        ]
    }

    #[test]
    fn omegas_below_the_trained_omega_release_the_scan_bytes() {
        let data = generate_acs(4000, 45);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(45).train(&data, &bkt).unwrap();
        for omega in below_trained_omegas() {
            for request_seed in 0..2u64 {
                let base = GenerateRequest::new(15)
                    .with_seed(request_seed)
                    .with_omega(omega);
                let scan = session
                    .generate(&base.with_seed_index(SeedIndex::Scan))
                    .unwrap();
                for policy in [SeedIndex::Auto, SeedIndex::Partition] {
                    let indexed = session.generate(&base.with_seed_index(policy)).unwrap();
                    assert_eq!(
                        indexed.synthetics.records(),
                        scan.synthetics.records(),
                        "{omega:?} under {policy} must release the scan's records"
                    );
                    assert_eq!(indexed.stats.candidates, scan.stats.candidates);
                    assert_eq!(indexed.stats.released, scan.stats.released);
                }
            }
        }
    }

    #[test]
    fn omegas_below_the_trained_omega_test_one_class_per_candidate() {
        let data = generate_acs(4000, 46);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(46).train(&data, &bkt).unwrap();
        for omega in below_trained_omegas() {
            for policy in [SeedIndex::Auto, SeedIndex::Partition] {
                let report = session
                    .generate(
                        &GenerateRequest::new(15)
                            .with_seed(3)
                            .with_omega(omega)
                            .with_seed_index(policy),
                    )
                    .unwrap();
                let stats = report.stats;
                assert_eq!(
                    stats.partition_tests, stats.candidates,
                    "{omega:?} {policy}"
                );
                assert_eq!(stats.index_tests, 0, "{omega:?} {policy}");
                assert_eq!(stats.scan_tests, 0, "{omega:?} {policy}");
                assert!(
                    stats.records_examined <= stats.candidates,
                    "a key equal to the likelihood set is a single-class lookup"
                );
                // Provenance names the store of the smallest-ω synthesizer.
                let lo = trained_omega(omega);
                let widest = session.shared.omega_stores[&lo].get().unwrap();
                assert_eq!(report.provenance.store, "partition");
                assert_eq!(report.provenance.classes, Some(widest.class_count()));
                assert!(widest.class_cache().is_none());
            }
        }
        // A request the trained store covers reports the trained store.
        let covered = session.generate(&GenerateRequest::new(5)).unwrap();
        assert_eq!(
            covered.provenance.classes,
            Some(session.partition_store().unwrap().class_count())
        );
    }

    #[test]
    fn concurrent_generates_from_clones_build_each_omega_store_once() {
        let data = generate_acs(4000, 47);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(47).train(&data, &bkt).unwrap();
        assert!(
            session
                .shared
                .omega_stores
                .values()
                .all(|slot| slot.peek().is_none()),
            "training builds no per-ω store"
        );
        let request = GenerateRequest::new(10)
            .with_seed(1)
            .with_omega(OmegaSpec::UniformRange { lo: 5, hi: 11 });
        // Per-thread build counts are exact whatever else this test binary
        // runs concurrently; their sum is every build the clones made.
        let builds: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let clone = session.clone();
                    scope.spawn(move || {
                        let before = PartitionIndexStore::thread_build_count();
                        clone.generate(&request).unwrap();
                        PartitionIndexStore::thread_build_count() - before
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(builds, 4, "one build for each of ω = 5, 6, 7, 8");
        for (&w, slot) in &session.shared.omega_stores {
            assert_eq!(slot.peek().is_some(), (5..9).contains(&w), "ω = {w}");
        }
    }

    #[test]
    fn update_leaves_omega_stores_unbuilt() {
        let data = generate_acs(4000, 48);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(48).train(&data, &bkt).unwrap();
        // Build ω = 6..8; ω = 1..5 stay unbuilt.
        session
            .generate(&GenerateRequest::new(5).with_omega(OmegaSpec::UniformRange { lo: 6, hi: 8 }))
            .unwrap();
        let built = |s: &SynthesisSession| -> Vec<usize> {
            s.shared
                .omega_stores
                .iter()
                .filter(|(_, slot)| slot.peek().is_some())
                .map(|(&w, _)| w)
                .collect()
        };
        assert_eq!(built(&session), vec![6, 7, 8]);
        let builds = PartitionIndexStore::thread_build_count();
        let updated = session.update(&small_delta(&data, 10, 10, 58)).unwrap();
        assert_eq!(
            PartitionIndexStore::thread_build_count(),
            builds,
            "update must not build a store"
        );
        // Neither the deferred splices (ω = 6..8) nor the deferred builds
        // (ω = 1..5) ran, and the parent's slots are as they were.
        assert!(built(&updated).is_empty());
        assert_eq!(
            updated
                .shared
                .omega_stores
                .keys()
                .copied()
                .collect::<Vec<_>>(),
            (1..9).collect::<Vec<_>>()
        );
        assert_eq!(built(&session), vec![6, 7, 8]);
    }

    #[test]
    fn spliced_omega_stores_equal_fresh_builds() {
        let data = generate_acs(4000, 49);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(49).train(&data, &bkt).unwrap();
        let request = GenerateRequest::new(10)
            .with_seed(4)
            .with_omega(OmegaSpec::UniformRange { lo: 5, hi: 11 });
        session.generate(&request).unwrap();
        let delta = small_delta(&data, 25, 40, 59);
        let updated = session.update(&delta).unwrap();
        // The parent built ω = 5..8, so the new epoch splices all four.
        let builds = PartitionIndexStore::thread_build_count();
        let served = updated.generate(&request).unwrap();
        assert_eq!(
            PartitionIndexStore::thread_build_count(),
            builds,
            "stores the parent built are spliced, not rebuilt"
        );
        let fresh = small_engine(49)
            .train(&delta.apply(&data).unwrap(), &bkt)
            .unwrap();
        for w in 5..9 {
            let spliced = updated.shared.omega_stores[&w].get().unwrap();
            let kept = SeedSynthesizer::new(Arc::clone(&updated.models().cpts), w)
                .unwrap()
                .kept_attributes()
                .to_vec();
            let rebuilt = PartitionIndexStore::build(updated.seeds(), &kept).unwrap();
            assert_eq!(*spliced, rebuilt, "ω = {w}");
            assert_eq!(spliced, fresh.shared.omega_stores[&w].get().unwrap());
        }
        let retrained = fresh.generate(&request).unwrap();
        assert_eq!(served.synthetics.records(), retrained.synthetics.records());
    }

    #[test]
    fn scan_only_sessions_reject_inverted_requests() {
        let data = generate_acs(3000, 22);
        let bkt = acs_bucketizer(&acs_schema());
        let session = SynthesisEngine::builder()
            .privacy_test(
                PrivacyTestConfig::randomized(20, 4.0, 1.0).with_limits(Some(40), Some(2000)),
            )
            .max_candidate_factor(30)
            .seed_index(SeedIndex::Scan)
            .seed(22)
            .train(&data, &bkt)
            .unwrap();
        assert!(session.seed_store().is_none());
        assert!(session.partition_store().is_none());
        assert_eq!(session.index_build_time(), Duration::ZERO);
        assert!(session
            .generate(&GenerateRequest::new(5).with_seed_index(SeedIndex::Inverted))
            .is_err());
        assert!(session
            .generate(&GenerateRequest::new(5).with_seed_index(SeedIndex::Partition))
            .is_err());
        // Scan and Auto both degrade gracefully to the linear scan.
        let report = session
            .generate(&GenerateRequest::new(5).with_seed_index(SeedIndex::Auto))
            .unwrap();
        assert_eq!(report.stats.index_tests, 0);
    }

    #[test]
    fn auto_policy_uses_the_index_only_for_large_seed_stores() {
        let bkt = acs_bucketizer(&acs_schema());
        // Small population: the seed split (49%) stays below AUTO_MIN_SEEDS.
        let small = generate_acs(900, 23);
        let session = small_engine(23).train(&small, &bkt).unwrap();
        assert!(session.seeds().len() < SeedIndex::AUTO_MIN_SEEDS);
        let report = session.generate(&GenerateRequest::new(5)).unwrap();
        assert_eq!(report.stats.index_tests, 0, "small store must scan");
        // Large population: Auto switches to an index — the partition store,
        // because its class keying covers the seed synthesizer's likelihood
        // guarantee.
        let large = generate_acs(6000, 23);
        let session = small_engine(23).train(&large, &bkt).unwrap();
        assert!(session.seeds().len() >= SeedIndex::AUTO_MIN_SEEDS);
        let report = session.generate(&GenerateRequest::new(5)).unwrap();
        assert_eq!(report.stats.scan_tests, 0, "large store must use an index");
        assert_eq!(
            report.stats.partition_tests, report.stats.candidates,
            "Auto prefers the covering partition store"
        );
    }

    #[test]
    fn auto_index_min_seeds_is_configurable() {
        let bkt = acs_bucketizer(&acs_schema());
        // ~1960 seeds: above the default 512 crossover, below a raised one.
        let data = generate_acs(4000, 24);
        let raised = SynthesisEngine::builder()
            .privacy_test(
                PrivacyTestConfig::randomized(20, 4.0, 1.0).with_limits(Some(40), Some(2000)),
            )
            .omega(OmegaSpec::Fixed(9))
            .max_candidate_factor(30)
            .auto_index_min_seeds(10_000)
            .seed(24)
            .train(&data, &bkt)
            .unwrap();
        let report = raised.generate(&GenerateRequest::new(5)).unwrap();
        assert_eq!(
            report.stats.scan_tests, report.stats.candidates,
            "a raised crossover keeps Auto on the scan"
        );
        // A zero crossover admits even stores below the default threshold.
        let small = generate_acs(900, 24);
        let eager = SynthesisEngine::builder()
            .privacy_test(
                PrivacyTestConfig::randomized(20, 4.0, 1.0).with_limits(Some(40), Some(2000)),
            )
            .omega(OmegaSpec::Fixed(9))
            .max_candidate_factor(30)
            .auto_index_min_seeds(0)
            .seed(24)
            .train(&small, &bkt)
            .unwrap();
        assert!(eager.seeds().len() < SeedIndex::AUTO_MIN_SEEDS);
        let report = eager.generate(&GenerateRequest::new(5)).unwrap();
        assert_eq!(report.stats.scan_tests, 0, "zero crossover always indexes");
    }

    #[test]
    fn multi_worker_releases_are_deterministic_and_exact() {
        // The rank-ordered selection makes parallel releases reproducible:
        // two runs with the same seed and worker count must release the same
        // records in the same order, with exact accounting.
        let data = generate_acs(4000, 41);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(41).train(&data, &bkt).unwrap();
        for workers in [2usize, 4, 8] {
            let request = GenerateRequest::new(15).with_seed(7).with_workers(workers);
            let a = session.generate(&request).unwrap();
            let b = session.generate(&request).unwrap();
            assert_eq!(
                a.synthetics.records(),
                b.synthetics.records(),
                "workers = {workers} must be run-to-run deterministic"
            );
            assert_eq!(a.stats.released, a.synthetics.records().len());
            assert!(a.stats.released <= 15);
            assert!(a.stats.candidates >= a.stats.released);
        }
    }

    #[test]
    fn single_worker_and_parallel_runs_agree_at_workers_one() {
        // The rank selection at workers = 1 is plain proposal order: it must
        // match the sequential streaming path byte for byte.
        let data = generate_acs(3500, 42);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(42).train(&data, &bkt).unwrap();
        let generated = session
            .generate(&GenerateRequest::new(10).with_seed(9).with_workers(1))
            .unwrap();
        let streamed: Vec<Record> = session
            .release_iter(GenerateRequest::new(10).with_seed(9))
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(generated.synthetics.records(), &streamed[..]);
    }

    #[test]
    fn metrics_do_not_perturb_releases_and_counters_flow() {
        // Instrumentation never touches the request RNG streams: released
        // records are byte-identical with metrics enabled and disabled,
        // unscoped and scoped, traced and untraced.  The halves share one
        // test because `set_enabled` is process-global.
        let data = generate_acs(3500, 43);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(43).train(&data, &bkt).unwrap();
        let request = GenerateRequest::new(12).with_seed(5).with_workers(4);

        let before = sgf_metrics::global().snapshot();
        let on = session.generate(&request).unwrap();
        let delta = sgf_metrics::global().snapshot().delta(&before);
        // `>=`, not `==`: other tests in this binary generate concurrently.
        assert!(delta.counter("core.mechanism.requests") >= 1);
        assert!(delta.counter("core.mechanism.candidates") >= on.stats.candidates as u64);
        assert!(delta.counter("core.mechanism.released") >= on.stats.released as u64);
        assert!(
            delta.counter("core.mechanism.selection_locks")
                >= delta.counter("core.mechanism.released")
        );
        // Untraced requests still carry provenance, with no trace spans.
        assert_eq!(on.provenance.trace_spans, 0);
        assert_eq!(on.provenance.seeds, session.seeds().len());
        assert_eq!(on.provenance.workers, 4);
        assert_eq!(on.provenance.k, 20);

        // A scope-labeled handle with the trace ring live must release the
        // exact same records: scoped cells and span commits happen strictly
        // outside the proposal loop's RNG streams.
        let scoped_session = session
            .clone()
            .with_scope(Scope::new().label("session", "equivalence"));
        sgf_metrics::trace().set_enabled(true);
        let traced = scoped_session.generate(&request).unwrap();
        sgf_metrics::trace().set_enabled(false);
        assert_eq!(on.synthetics.records(), traced.synthetics.records());
        // Released records and counts are the deterministic contract; raw
        // candidate counts at workers > 1 depend on how quickly workers see
        // the rank threshold, so they are not compared across runs.
        assert_eq!(on.stats.released, traced.stats.released);
        // Root + proposals + one span per captured probe.
        assert_eq!(
            traced.provenance.trace_spans,
            2 + traced.stats.candidates.min(MAX_TRACE_PROBES)
        );
        let events = sgf_metrics::trace().events_with_label("session", "equivalence");
        assert!(events.iter().any(|e| e.name == "core.generate"));
        assert!(events.iter().any(|e| e.name == "core.privacy_test"));
        // The scope cell saw exactly this request's counters.
        let cell = &sgf_metrics::global().snapshot().scopes["session=equivalence"];
        assert_eq!(
            cell.counter("core.mechanism.candidates"),
            traced.stats.candidates as u64
        );
        // And the provenance JSON is well-formed canonical JSON.
        let json = traced.provenance_json().render();
        let parsed = sgf_metrics::json::parse(&json).expect("provenance JSON parses");
        assert_eq!(
            parsed.get("store").and_then(|s| s.as_str()),
            Some(traced.provenance.store)
        );

        sgf_metrics::set_enabled(false);
        let off = session.generate(&request).unwrap();
        sgf_metrics::set_enabled(true);
        assert_eq!(on.synthetics.records(), off.synthetics.records());
        assert_eq!(on.stats.released, off.stats.released);
    }

    #[test]
    fn invalid_requests_are_rejected_without_charging() {
        let data = generate_acs(3000, 15);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(15).train(&data, &bkt).unwrap();
        assert!(session.generate(&GenerateRequest::new(0)).is_err());
        assert!(session
            .generate(&GenerateRequest::new(5).with_workers(0))
            .is_err());
        assert!(session
            .generate(&GenerateRequest::new(5).with_omega(OmegaSpec::Fixed(99)))
            .is_err());
        assert!(session
            .generate(&GenerateRequest::new(5).with_max_candidate_factor(0))
            .is_err());
        assert_eq!(session.ledger().requests, 0);
        assert_eq!(session.ledger().releases, 0);
    }

    /// A delta deleting `n_del` records spread through `data` and inserting
    /// the first `n_ins` records of a differently-seeded ACS draw.
    fn small_delta(data: &Dataset, n_del: usize, n_ins: usize, seed: u64) -> DatasetDelta {
        let mut delta = DatasetDelta::new(data.schema_arc());
        let stride = (data.len() / n_del.max(1)).max(1);
        for i in 0..n_del {
            delta.delete(data.records()[i * stride].clone()).unwrap();
        }
        for record in generate_acs(n_ins, seed).records() {
            delta.insert(record.clone()).unwrap();
        }
        delta
    }

    #[test]
    fn update_matches_a_fresh_train_bit_for_bit() {
        // The tentpole invariant: at the default drift threshold, an
        // incremental update is indistinguishable from retraining on the
        // post-delta dataset — same split subsets, same models, same posting
        // lists and equivalence classes, and byte-identical releases.
        let data = generate_acs(4000, 31);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(31).train(&data, &bkt).unwrap();
        let delta = small_delta(&data, 25, 40, 77);
        let updated = session.update(&delta).unwrap();
        assert_eq!(updated.epoch(), 1);

        let final_data = delta.apply(&data).unwrap();
        let fresh = small_engine(31).train(&final_data, &bkt).unwrap();
        assert_eq!(fresh.epoch(), 0);

        // The hash split commutes with the delta: every subset matches.
        assert_eq!(
            updated.shared.split.structure.records(),
            fresh.shared.split.structure.records()
        );
        assert_eq!(
            updated.shared.split.parameters.records(),
            fresh.shared.split.parameters.records()
        );
        assert_eq!(
            updated.shared.split.seeds.records(),
            fresh.shared.split.seeds.records()
        );
        assert_eq!(
            updated.shared.split.test.records(),
            fresh.shared.split.test.records()
        );
        // Models and their sufficient statistics are bit-identical.
        assert_eq!(
            updated.models().structure.graph,
            fresh.models().structure.graph
        );
        assert_eq!(
            updated.models().structure.correlations,
            fresh.models().structure.correlations
        );
        assert_eq!(*updated.models().cpts, *fresh.models().cpts);
        assert_eq!(updated.models().marginal, fresh.models().marginal);
        assert_eq!(
            updated.models().structure_counts,
            fresh.models().structure_counts
        );
        assert_eq!(
            updated.models().marginal_counts,
            fresh.models().marginal_counts
        );
        // Spliced index stores equal from-scratch builds.
        assert_eq!(updated.seed_store(), fresh.seed_store());
        assert_eq!(updated.partition_store(), fresh.partition_store());
        // And identically-seeded requests release byte-identical records.
        let request = GenerateRequest::new(10).with_seed(7);
        let a = updated.generate(&request).unwrap();
        let b = fresh.generate(&request).unwrap();
        assert_eq!(a.synthetics.records(), b.synthetics.records());
        assert_eq!(a.provenance.epoch, 1);
        assert_eq!(b.provenance.epoch, 0);
    }

    #[test]
    fn update_epochs_share_the_ledger_and_stamp_provenance() {
        let data = generate_acs(3500, 33);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(33).train(&data, &bkt).unwrap();
        let first = session
            .generate(&GenerateRequest::new(6).with_seed(1))
            .unwrap();
        let updated = session.update(&small_delta(&data, 5, 5, 99)).unwrap();
        assert_eq!(updated.epoch(), 1);
        // The old epoch keeps its handle; the ledger is shared across epochs,
        // so releases from the new epoch compose onto the same budget.
        let second = updated
            .generate(&GenerateRequest::new(6).with_seed(2))
            .unwrap();
        assert_eq!(second.ledger.requests, 2);
        assert_eq!(
            session.ledger().releases,
            first.stats.released + second.stats.released
        );
        assert_eq!(second.provenance.epoch, 1);
        let json = second.provenance_json().render();
        let parsed = sgf_metrics::json::parse(&json).expect("provenance JSON parses");
        assert_eq!(parsed.get("epoch").and_then(|e| e.as_u64()), Some(1));
        // Updates chain: a further (even empty) delta bumps the epoch again.
        let empty = DatasetDelta::new(data.schema_arc());
        let third = updated.update(&empty).unwrap();
        assert_eq!(third.epoch(), 2);
        assert_eq!(
            third.shared.split.seeds.records(),
            updated.shared.split.seeds.records()
        );
    }

    #[test]
    fn positive_drift_threshold_keeps_the_old_structure() {
        // Above-threshold drift re-learns (exercised by the equivalence
        // tests, where threshold 0.0 re-learns on any change); here the
        // documented relaxation: a huge threshold keeps the old graph and
        // correlation matrix verbatim even though D_T changed.
        let data = generate_acs(3500, 37);
        let bkt = acs_bucketizer(&acs_schema());
        let session = SynthesisEngine::builder()
            .privacy_test(
                PrivacyTestConfig::randomized(20, 4.0, 1.0).with_limits(Some(40), Some(2000)),
            )
            .omega(OmegaSpec::Fixed(9))
            .max_candidate_factor(30)
            .seed(37)
            .drift_threshold(1e9)
            .build()
            .unwrap()
            .train(&data, &bkt)
            .unwrap();
        let updated = session.update(&small_delta(&data, 30, 30, 41)).unwrap();
        assert_eq!(
            updated.models().structure.correlations,
            session.models().structure.correlations
        );
        assert_eq!(
            updated.models().structure.graph,
            session.models().structure.graph
        );
        // The counts still merged — a later re-learn starts from the true
        // post-delta statistics, not the stale ones.
        assert_ne!(
            updated.models().structure_counts,
            session.models().structure_counts
        );
    }

    #[test]
    fn update_rejects_deltas_that_would_break_the_session() {
        let data = generate_acs(3000, 39);
        let bkt = acs_bucketizer(&acs_schema());
        let session = small_engine(39).train(&data, &bkt).unwrap();
        // Deleting more occurrences of a record than the dataset holds fails
        // cleanly (the canonical first-occurrence matching finds no target).
        let mut missing = DatasetDelta::new(data.schema_arc());
        let ghost = data.records()[0].clone();
        let occurrences = data.records().iter().filter(|r| **r == ghost).count();
        for _ in 0..=occurrences {
            missing.delete(ghost.clone()).unwrap();
        }
        assert!(session.update(&missing).is_err());
        // A delta draining the seed subset below k fails with DatasetTooSmall.
        let mut drain = DatasetDelta::new(data.schema_arc());
        for record in session.seeds().records() {
            drain.delete(record.clone()).unwrap();
        }
        match session.update(&drain) {
            Err(CoreError::DatasetTooSmall { required, .. }) => assert_eq!(required, 20),
            other => panic!("expected DatasetTooSmall, got {other:?}"),
        }
        // Failed updates leave the session untouched.
        assert_eq!(session.epoch(), 0);
        assert!(session
            .generate(&GenerateRequest::new(4).with_seed(9))
            .is_ok());
    }
}
