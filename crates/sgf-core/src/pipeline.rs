//! The one-shot synthesis pipeline: split the input dataset, learn the
//! (privacy-preserving) generative model, and run the plausible-deniability
//! mechanism — in parallel — until the requested number of synthetic records
//! has been released.
//!
//! This is the Rust equivalent of the paper's C++ tool (Section 5): the
//! configuration mirrors the tool's config file (privacy parameters k, γ, ε0,
//! the generative-model parameter ω, and the early-termination knobs).
//!
//! [`SynthesisPipeline::run`] is kept as a thin compatibility wrapper over the
//! staged [`crate::session`] API (builder → [`crate::SynthesisSession`] → one
//! `generate`); services that issue more than one release request should use
//! the session directly so the model is learned once and the cumulative
//! privacy ledger spans every request.  For serving releases over the network
//! — with a bounded request queue and an (ε, δ) admission cap enforced
//! through the ledger's reserve/commit protocol — see the `sgf-serve` crate.

use crate::dp::PipelineBudget;
use crate::error::{CoreError, Result};
use crate::mechanism::MechanismStats;
use crate::privacy_test::PrivacyTestConfig;
use crate::session::{GenerateRequest, SynthesisEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use sgf_data::{Bucketizer, DataSplit, Dataset, Record, SplitSpec};
use sgf_index::SeedIndex;
use sgf_model::{
    learn_structure_from_counts, BayesNetModel, CptStore, LearnedStructure, MarginalConfig,
    MarginalCounts, MarginalModel, OmegaSpec, ParameterConfig, SeedSynthesizer, StructureConfig,
    StructureCounts,
};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of the full pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// How to split the input dataset into D_T / D_P / D_S / test.
    pub split: SplitSpec,
    /// Structure-learning configuration (Section 3.3).
    pub structure: StructureConfig,
    /// Parameter-learning configuration (Section 3.4).
    pub parameters: ParameterConfig,
    /// How many attributes each candidate re-samples (Section 3.2).
    pub omega: OmegaSpec,
    /// Privacy-test configuration (Section 2).
    pub privacy_test: PrivacyTestConfig,
    /// Number of synthetic records to release.
    pub target_synthetics: usize,
    /// Give up after `max_candidate_factor * target_synthetics` proposals.
    pub max_candidate_factor: usize,
    /// Number of worker threads for candidate generation (the process is
    /// embarrassingly parallel, Section 5).
    pub workers: usize,
    /// Seed-store policy for the privacy test: full scan, inverted index,
    /// partition store, or automatic selection.  All stores are
    /// decision-equivalent — the policy only affects how many records (or
    /// equivalence classes) each test must examine.
    pub seed_index: SeedIndex,
    /// Seed-dataset size above which [`SeedIndex::Auto`] prefers an index
    /// over the linear scan.  Defaults to [`SeedIndex::AUTO_MIN_SEEDS`]; set
    /// it to the measured scan/index crossover of the deployment hardware.
    pub auto_index_min_seeds: usize,
    /// Attach a shared class-match cache to the session's partition store
    /// (`sgf_index::ClassMatchCache`): seed-independent per-class match rows
    /// are computed once per candidate likelihood projection and reused by
    /// every request of the session.  Decisions, counts, and RNG streams are
    /// bit-identical with the cache on or off — only repeated model
    /// evaluations are skipped — so this defaults to `true`.
    pub class_cache: bool,
    /// Structure-drift tolerance of [`crate::SynthesisSession::update`]: a
    /// delta touching `D_T` re-derives the correlation matrix from the
    /// updated counts and re-learns the dependency graph only when the
    /// entrywise max-abs drift from the previous matrix exceeds this
    /// threshold.  `0.0` (the default) re-learns on any change, which keeps
    /// incremental updates bit-identical to from-scratch retrains; a positive
    /// tolerance trades that exactness for skipping CFS re-runs under small
    /// drift.
    pub drift_threshold: f64,
    /// Master seed for all randomness in the pipeline.
    pub seed: u64,
}

impl PipelineConfig {
    /// A configuration close to the paper's defaults (Section 6.1):
    /// k = 50, γ = 4, ε0 = 1, ω = 9, randomized privacy test.
    pub fn paper_defaults(target_synthetics: usize) -> Self {
        PipelineConfig {
            split: SplitSpec::paper_defaults(),
            structure: StructureConfig::exact(),
            parameters: ParameterConfig::default(),
            omega: OmegaSpec::Fixed(9),
            privacy_test: PrivacyTestConfig::randomized(50, 4.0, 1.0)
                .with_limits(Some(100), Some(50_000)),
            target_synthetics,
            max_candidate_factor: 20,
            workers: 1,
            seed_index: SeedIndex::Auto,
            auto_index_min_seeds: SeedIndex::AUTO_MIN_SEEDS,
            class_cache: true,
            drift_threshold: 0.0,
            seed: 0,
        }
    }

    /// Validate the configuration against a schema with `m` attributes.
    pub fn validate(&self, m: usize) -> Result<()> {
        self.split.validate()?;
        self.privacy_test.validate()?;
        self.omega.validate(m)?;
        if self.target_synthetics == 0 {
            return Err(CoreError::InvalidParameter(
                "target_synthetics must be at least 1".into(),
            ));
        }
        if self.max_candidate_factor == 0 {
            return Err(CoreError::InvalidParameter(
                "max_candidate_factor must be at least 1".into(),
            ));
        }
        if self.workers == 0 {
            return Err(CoreError::InvalidParameter(
                "workers must be at least 1".into(),
            ));
        }
        if !self.drift_threshold.is_finite() || self.drift_threshold < 0.0 {
            return Err(CoreError::InvalidParameter(format!(
                "drift_threshold must be finite and non-negative, got {}",
                self.drift_threshold
            )));
        }
        Ok(())
    }
}

/// Wall-clock timings of the two pipeline phases (Figure 5 distinguishes
/// "model learning" from "synthesis").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineTimings {
    /// Time spent splitting the data and learning structure + parameters.
    pub model_learning: Duration,
    /// Time spent building the seed indexes (inverted and/or partition
    /// store; zero under [`SeedIndex::Scan`]).
    pub index_build: Duration,
    /// Time spent generating and testing candidates.
    pub synthesis: Duration,
}

impl PipelineTimings {
    /// Render the phase timings (in seconds) as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"model_learning_seconds\":{},\"index_build_seconds\":{},\"synthesis_seconds\":{}}}",
            crate::dp::json_f64(self.model_learning.as_secs_f64()),
            crate::dp::json_f64(self.index_build.as_secs_f64()),
            crate::dp::json_f64(self.synthesis.as_secs_f64())
        )
    }
}

/// The models trained by the pipeline.
///
/// Cloning is shallow where it matters: the CPT store — by far the largest
/// artifact — sits behind an `Arc`, so clones share it.
#[derive(Debug, Clone)]
pub struct TrainedModels {
    /// The learned dependency structure (and its correlation matrix / budget).
    pub structure: LearnedStructure,
    /// The conditional probability tables.
    pub cpts: Arc<CptStore>,
    /// Whole-record view over the CPTs (likelihood, prediction, ancestral sampling).
    pub bayes_net: BayesNetModel,
    /// The marginal baseline learned from the same parameter subset.
    pub marginal: MarginalModel,
    /// Summable sufficient statistics of structure learning over `D_T`,
    /// kept so a [`crate::SynthesisSession::update`] delta can merge counts
    /// in O(|Δ|) instead of re-scanning the subset.
    pub structure_counts: StructureCounts,
    /// Summable per-attribute counts of the marginal baseline over `D_P`,
    /// kept for the same incremental-update path.
    pub marginal_counts: MarginalCounts,
}

/// Everything the pipeline produced.
#[derive(Debug)]
pub struct PipelineResult {
    /// The released synthetic records.
    pub synthetics: Dataset,
    /// Mechanism statistics (candidates proposed, pass rate, ...).
    pub stats: MechanismStats,
    /// End-to-end differential-privacy accounting.
    pub budget: PipelineBudget,
    /// The disjoint data split that was used.
    pub split: DataSplit,
    /// The trained models (useful for evaluation).
    pub models: TrainedModels,
    /// Phase timings.
    pub timings: PipelineTimings,
}

/// Learn structure, parameters, and the marginal baseline from an
/// already-split dataset — the shared training phase behind both
/// [`SynthesisEngine::train`] and [`SynthesisPipeline::learn_models`].
pub(crate) fn learn_models(
    config: &PipelineConfig,
    split: &DataSplit,
    bucketizer: &Bucketizer,
) -> Result<TrainedModels> {
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0x5eed));
    // Learn from summable sufficient statistics so an incremental session
    // update can merge a delta into the same counts and re-derive the model
    // bit-identically (see `SynthesisSession::update`).
    let structure_counts = StructureCounts::fit(&split.structure, bucketizer)?;
    let structure =
        learn_structure_from_counts(&structure_counts, bucketizer, &config.structure, &mut rng)?;
    let cpts = Arc::new(CptStore::learn(
        &split.parameters,
        bucketizer,
        &structure.graph,
        config.parameters,
    )?);
    let marginal_counts = MarginalCounts::fit(&split.parameters);
    let marginal = MarginalModel::from_counts(&marginal_counts, marginal_config(config))?;
    Ok(TrainedModels {
        bayes_net: BayesNetModel::new(Arc::clone(&cpts)),
        structure,
        cpts,
        marginal,
        structure_counts,
        marginal_counts,
    })
}

/// The marginal-baseline configuration derived from the pipeline parameters.
pub(crate) fn marginal_config(config: &PipelineConfig) -> MarginalConfig {
    MarginalConfig {
        alpha: config.parameters.alpha,
        epsilon_p: config.parameters.epsilon_p,
        global_seed: config.parameters.global_seed,
        delta_slack: config.parameters.delta_slack,
    }
}

/// The one-shot end-to-end pipeline — a thin compatibility wrapper over the
/// staged session API (train once → one `generate`).
///
/// **Migration note:** prefer [`SynthesisEngine::builder`] →
/// [`SynthesisEngine::train`] → [`crate::SynthesisSession::generate`] when
/// more than one release request is served from the same trained model; the
/// session learns the model once and its [`crate::BudgetLedger`] composes the
/// (ε, δ) cost across every request.
#[derive(Debug, Clone)]
pub struct SynthesisPipeline {
    config: PipelineConfig,
}

impl SynthesisPipeline {
    /// Create a pipeline with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        SynthesisPipeline { config }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Learn the models from an already-split dataset.
    pub fn learn_models(
        &self,
        split: &DataSplit,
        bucketizer: &Bucketizer,
    ) -> Result<TrainedModels> {
        learn_models(&self.config, split, bucketizer)
    }

    /// Run the full pipeline on an input dataset: train a session and serve a
    /// single `generate` request for `target_synthetics` records, seeded with
    /// the pipeline seed.
    pub fn run(&self, dataset: &Dataset, bucketizer: &Bucketizer) -> Result<PipelineResult> {
        self.config.validate(dataset.schema().len())?;
        let session = SynthesisEngine::from_config(self.config).train(dataset, bucketizer)?;
        let request = GenerateRequest::new(self.config.target_synthetics)
            .with_omega(self.config.omega)
            .with_seed(self.config.seed);
        let report = session.generate(&request)?;
        let timings = PipelineTimings {
            model_learning: session.training_time(),
            index_build: session.index_build_time(),
            synthesis: report.synthesis,
        };
        let (split, models, ledger) = session.into_parts();
        Ok(PipelineResult {
            synthetics: report.synthetics,
            stats: report.stats,
            budget: ledger.as_pipeline_budget(),
            split,
            models,
            timings,
        })
    }

    /// Generate synthetics from already-trained models and an explicit seed
    /// dataset (one release batch over the pipeline's ω spec and worker
    /// count, seeded with the pipeline seed).
    ///
    /// An explicit seed dataset carries no session-built index, so the
    /// privacy tests always run as linear scans here: `SeedIndex::Inverted`
    /// and `SeedIndex::Partition` are rejected (train a
    /// [`SynthesisSession`](crate::SynthesisSession) for index-accelerated
    /// generation), and `Auto` degrades to the scan.
    pub fn generate(
        &self,
        models: &TrainedModels,
        seeds: &Dataset,
    ) -> Result<(Vec<Record>, MechanismStats)> {
        if matches!(
            self.config.seed_index,
            SeedIndex::Inverted | SeedIndex::Partition
        ) {
            return Err(CoreError::InvalidParameter(format!(
                "SynthesisPipeline::generate runs over an explicit seed dataset without a \
                 trained index; use SeedIndex::Scan/Auto here or train a SynthesisSession \
                 for SeedIndex::{}",
                self.config.seed_index
            )));
        }
        self.config.omega.validate(seeds.schema().len())?;
        let (lo, hi) = match self.config.omega {
            OmegaSpec::Fixed(w) => (w, w),
            OmegaSpec::UniformRange { lo, hi } => (lo, hi),
        };
        // Pre-build one synthesizer per admissible ω; the mechanism fan-out
        // constructs each Mechanism exactly once and shares it across workers.
        let synthesizers: Vec<SeedSynthesizer> = (lo..=hi)
            .map(|w| SeedSynthesizer::new(Arc::clone(&models.cpts), w))
            .collect::<sgf_model::Result<_>>()?;
        let refs: Vec<&SeedSynthesizer> = synthesizers.iter().collect();
        let target = self.config.target_synthetics;
        crate::session::run_mechanism(
            &refs,
            seeds,
            &vec![None; refs.len()],
            self.config.privacy_test,
            target,
            target.saturating_mul(self.config.max_candidate_factor),
            self.config.workers,
            self.config.seed,
            None,
            None,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgf_data::acs::{acs_bucketizer, acs_schema, generate_acs};

    fn small_config(target: usize) -> PipelineConfig {
        let mut config = PipelineConfig::paper_defaults(target);
        config.privacy_test =
            PrivacyTestConfig::randomized(20, 4.0, 1.0).with_limits(Some(40), Some(2000));
        config.omega = OmegaSpec::Fixed(9);
        config.max_candidate_factor = 30;
        config.seed = 7;
        config
    }

    #[test]
    fn end_to_end_pipeline_releases_valid_records() {
        let data = generate_acs(4000, 1);
        let bkt = acs_bucketizer(&acs_schema());
        let pipeline = SynthesisPipeline::new(small_config(50));
        let result = pipeline.run(&data, &bkt).unwrap();
        assert!(!result.synthetics.is_empty());
        assert!(result.synthetics.len() <= 50);
        for r in result.synthetics.records() {
            data.schema().validate_values(r.values()).unwrap();
        }
        assert!(result.stats.candidates >= result.stats.released);
        assert!(result.stats.pass_rate() > 0.0);
        assert!(result.budget.per_release.is_some());
        assert!(result.timings.synthesis > Duration::ZERO);
    }

    #[test]
    fn deterministic_test_pipeline_reports_no_release_budget() {
        let data = generate_acs(3000, 2);
        let bkt = acs_bucketizer(&acs_schema());
        let mut config = small_config(20);
        config.privacy_test =
            PrivacyTestConfig::deterministic(20, 4.0).with_limits(Some(40), Some(2000));
        let result = SynthesisPipeline::new(config).run(&data, &bkt).unwrap();
        assert!(result.budget.per_release.is_none());
        assert!(result.budget.total().epsilon.is_infinite());
    }

    #[test]
    fn random_omega_range_is_accepted() {
        let data = generate_acs(3000, 3);
        let bkt = acs_bucketizer(&acs_schema());
        let mut config = small_config(20);
        config.omega = OmegaSpec::UniformRange { lo: 9, hi: 11 };
        let result = SynthesisPipeline::new(config).run(&data, &bkt).unwrap();
        assert!(!result.synthetics.is_empty());
    }

    #[test]
    fn multi_worker_generation_matches_single_worker_count() {
        let data = generate_acs(3000, 4);
        let bkt = acs_bucketizer(&acs_schema());
        let mut config = small_config(30);
        config.workers = 3;
        let result = SynthesisPipeline::new(config).run(&data, &bkt).unwrap();
        assert!(result.synthetics.len() <= 30);
        assert!(!result.synthetics.is_empty());
        // Release accounting must stay exact even when several workers race
        // for the last slots near the target.
        assert_eq!(result.synthetics.len(), result.stats.released);
        assert!(result.stats.released <= result.stats.candidates);
    }

    #[test]
    fn explicit_seed_generation_rejects_the_inverted_policy() {
        let data = generate_acs(3000, 6);
        let bkt = acs_bucketizer(&acs_schema());
        let mut config = small_config(10);
        let split = {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(6);
            sgf_data::split_dataset(&data, &config.split, &mut rng).unwrap()
        };
        let models = SynthesisPipeline::new(config)
            .learn_models(&split, &bkt)
            .unwrap();
        // Scan and Auto work over an explicit seed dataset...
        for policy in [SeedIndex::Scan, SeedIndex::Auto] {
            config.seed_index = policy;
            let (released, stats) = SynthesisPipeline::new(config)
                .generate(&models, &split.seeds)
                .unwrap();
            assert_eq!(stats.index_tests, 0, "no session index exists");
            assert!(released.len() <= 10);
        }
        // ...but an explicit Inverted policy cannot be honoured and errors.
        config.seed_index = SeedIndex::Inverted;
        assert!(matches!(
            SynthesisPipeline::new(config).generate(&models, &split.seeds),
            Err(CoreError::InvalidParameter(_))
        ));
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let data = generate_acs(500, 5);
        let bkt = acs_bucketizer(&acs_schema());
        let mut config = small_config(0);
        assert!(SynthesisPipeline::new(config).run(&data, &bkt).is_err());
        config = small_config(10);
        config.workers = 0;
        assert!(SynthesisPipeline::new(config).run(&data, &bkt).is_err());
        config = small_config(10);
        config.omega = OmegaSpec::Fixed(99);
        assert!(SynthesisPipeline::new(config).run(&data, &bkt).is_err());
        // Seed dataset smaller than k.
        config = small_config(10);
        config.privacy_test = PrivacyTestConfig::deterministic(100_000, 4.0);
        assert!(matches!(
            SynthesisPipeline::new(config).run(&data, &bkt),
            Err(CoreError::DatasetTooSmall { .. })
        ));
    }
}
