//! Per-layer measurements: spans around the public calls of each crate on
//! the release path, taken from outside the crates.

use crate::report::Metrics;
use crate::spans::Recorder;
use crate::stats::median;
use crate::workload::{dataset_delta, Delta};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sgf_core::{
    partition_index, propose_candidate_with_store, run_with_store, CandidateReport,
    GenerateRequest, InvertedIndexStore, LinearScanStore, MechanismStats, PartitionIndexStore,
    PrivacyTestConfig, SeedStore, SynthesisPipeline, SynthesisSession, TestOutcome,
};
use sgf_data::split::{split_dataset_by_hash, split_role, SplitRole};
use sgf_data::{apply_deletes, Bucketizer, Dataset, Record};
use sgf_index::MAX_INTERSECT_LISTS;
use sgf_model::{GenerativeModel, OmegaSpec, SeedSynthesizer};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// One proposal split into the public calls `propose_candidate_with_store`
/// makes, in its order and on the same RNG: seed pick, `generate`, then
/// `run_with_store`.
pub fn decomposed_proposal<M: GenerativeModel + ?Sized>(
    model: &M,
    seeds: &Dataset,
    store: &dyn SeedStore,
    test: &PrivacyTestConfig,
    rng: &mut StdRng,
    recorder: &mut Recorder,
    request: u64,
) -> sgf_core::Result<CandidateReport> {
    recorder.open("core.propose", request);
    let seed_index = recorder.span("core.seed_pick", request, || rng.gen_range(0..seeds.len()));
    let seed = seeds.record(seed_index);
    let record = recorder.span("model.generate", request, || model.generate(seed, rng));
    let outcome = recorder.span("core.run_with_store", request, || {
        run_with_store(model, seeds, store, seed, &record, test, rng)
    });
    recorder.close();
    Ok(CandidateReport {
        record,
        seed_index,
        outcome: outcome?,
    })
}

/// Run `propose_candidate_with_store` and the decomposed proposal from the
/// same RNG state; both must yield the same candidate, seed, outcome and
/// final RNG state.  Advances `rng` past the proposal.
pub fn checked_proposal<M: GenerativeModel + ?Sized>(
    model: &M,
    seeds: &Dataset,
    store: &dyn SeedStore,
    test: &PrivacyTestConfig,
    rng: &mut StdRng,
    recorder: &mut Recorder,
    request: u64,
) -> Result<CandidateReport, String> {
    let mut reference_rng = rng.clone();
    let reference = recorder
        .span("core.propose_candidate_with_store", request, || {
            propose_candidate_with_store(model, seeds, store, test, &mut reference_rng)
        })
        .map_err(|e| format!("propose_candidate_with_store failed: {e}"))?;
    let report = decomposed_proposal(model, seeds, store, test, rng, recorder, request)
        .map_err(|e| format!("decomposed proposal failed: {e}"))?;
    // The reference call fills the shared class-match cache, so the second
    // call of a pair may hit where the first missed; the cache is
    // decision-invisible, so only that flag may differ.
    let outcome = TestOutcome {
        cache_hit: reference.outcome.cache_hit,
        ..report.outcome
    };
    if report.record != reference.record
        || report.seed_index != reference.seed_index
        || outcome != reference.outcome
        || *rng != reference_rng
    {
        return Err(format!(
            "decomposed proposal diverged from propose_candidate_with_store \
             (request {request}: seed {} vs {}, passed {} vs {})",
            report.seed_index,
            reference.seed_index,
            report.outcome.passed,
            reference.outcome.passed
        ));
    }
    Ok(report)
}

/// The store a session picks for a request's models under its default
/// policy: the partition store when its classes cover the likelihood set,
/// else the inverted index, else the scan.
fn session_store<'s>(
    session: &'s SynthesisSession,
    likelihood: Option<&[usize]>,
    scan: &'s LinearScanStore,
) -> &'s dyn SeedStore {
    if let Some(partition) = session.partition_store().filter(|p| p.covers(likelihood)) {
        return partition;
    }
    match session.seed_store() {
        Some(index) => index,
        None => scan,
    }
}

/// One fixed-ω synthesizer per admissible ω.
fn synthesizers(session: &SynthesisSession, omega: OmegaSpec) -> Vec<SeedSynthesizer> {
    let (lo, hi) = match omega {
        OmegaSpec::Fixed(w) => (w, w),
        OmegaSpec::UniformRange { lo, hi } => (lo, hi),
    };
    (lo..=hi)
        .map(|w| {
            SeedSynthesizer::new(Arc::clone(&session.models().cpts), w)
                .expect("the workload's ω settings are valid")
        })
        .collect()
}

/// Replay `requests` proposal by proposal through the checked decomposition,
/// with sibling spans timing the store lookups and one model probability on
/// the same candidates.  Returns the replay's mechanism counters.
pub fn replay_mechanism(
    session: &SynthesisSession,
    requests: &[GenerateRequest],
    recorder: &mut Recorder,
    first_request_id: u64,
) -> Result<MechanismStats, String> {
    let seeds = session.seeds();
    let test = session.config().privacy_test;
    let scan = LinearScanStore::new(seeds);
    let mut stats = MechanismStats::default();
    for (i, request) in requests.iter().enumerate() {
        let id = first_request_id + i as u64;
        let models = synthesizers(session, request.omega.unwrap_or(session.config().omega));
        let store = session_store(session, models[0].likelihood_attributes(), &scan);
        let max_candidates = request.target
            * request
                .max_candidate_factor
                .unwrap_or(session.config().max_candidate_factor);
        let mut rng = StdRng::seed_from_u64(request.seed);
        let (mut released, mut candidates) = (0, 0);
        recorder.open("mechanism.request", id);
        while released < request.target && candidates < max_candidates {
            candidates += 1;
            let model = &models[if models.len() == 1 {
                0
            } else {
                rng.gen_range(0..models.len())
            }];
            let report = checked_proposal(model, seeds, store, &test, &mut rng, recorder, id)?;
            stats.observe(&report.outcome);
            if report.released() {
                released += 1;
            }
            let y = &report.record;
            let seed = seeds.record(report.seed_index);
            let p_seed = recorder.span("model.probability", id, || model.probability(seed, y));
            let seed_partition = partition_index(p_seed, test.gamma);
            let (likelihood, exact) = (
                model.likelihood_attributes(),
                model.exact_match_attributes(),
            );
            recorder.span("index.likelihood_classes", id, || {
                black_box(store.likelihood_classes(y, likelihood, exact).is_some())
            });
            // The test only consults the class-match cache when the seed can
            // generate the candidate; a lookup without a seed partition would
            // store a row the test never computes.
            if seed_partition.is_some() {
                recorder.span("index.class_match_row", id, || {
                    black_box(
                        store.class_match_row(y, likelihood, exact, &mut |representative| {
                            let p = model.probability(seeds.record(representative), y);
                            partition_index(p, test.gamma) == seed_partition
                        }),
                    )
                    .is_some()
                });
            }
        }
        recorder.close();
        stats.released += released;
    }
    Ok(stats)
}

/// Per-layer metrics of the mechanism from a replay's spans.
pub fn mechanism_metrics(recorder: &Recorder, metrics: &mut Metrics) {
    let mean = |name: &str| recorder.totals(name).mean_ns();
    metrics.put("model.generate_ns", mean("model.generate"), "ns");
    metrics.put("model.probability_ns", mean("model.probability"), "ns");
    let class_lookup = mean("index.likelihood_classes") + mean("index.class_match_row");
    metrics.put("index.class_lookup_ns", class_lookup, "ns");
    metrics.put(
        "core.propose_ns",
        mean("core.propose_candidate_with_store"),
        "ns",
    );
    let privacy_test = mean("core.run_with_store");
    metrics.put("core.privacy_test_ns", privacy_test, "ns");
    // The test's own loop: what is left of run_with_store after one seed
    // probability and the class lookups, timed as siblings on the same
    // candidates.  An estimate: the siblings run warm, after the test.
    metrics.put(
        "core.privacy_test_self_ns_est",
        (privacy_test - class_lookup - mean("model.probability")).max(0.0),
        "ns",
    );
}

/// Release-stat ratios of the index and the mechanism.
pub fn stat_ratios(stats: &MechanismStats, metrics: &mut Metrics) {
    let candidates = stats.candidates.max(1) as f64;
    let lookups = (stats.class_cache_hits + stats.class_cache_misses).max(1) as f64;
    metrics.put(
        "index.cache_hit_ratio",
        stats.class_cache_hits as f64 / lookups,
        "ratio",
    );
    metrics.put(
        "index.examined_per_candidate",
        stats.records_examined as f64 / candidates,
        "count",
    );
    metrics.put(
        "index.inverted_share",
        (stats.index_tests + stats.scan_tests) as f64 / candidates,
        "ratio",
    );
    metrics.put(
        "core.pass_ratio",
        stats.released as f64 / candidates,
        "ratio",
    );
}

/// Time the set-up layers separately on the population: the hash split,
/// model learning and both index builds, each the median of `reps` calls.
pub fn setup_layers(
    session: &SynthesisSession,
    population: &Dataset,
    bucketizer: &Bucketizer,
    reps: usize,
    metrics: &mut Metrics,
) {
    let config = *session.config();
    let (mut split_ms, mut learn_ms, mut partition_ms, mut inverted_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let lo = match config.omega {
        OmegaSpec::Fixed(w) => w,
        OmegaSpec::UniformRange { lo, .. } => lo,
    };
    for _ in 0..reps {
        let start = Instant::now();
        let split = split_dataset_by_hash(population, &config.split, config.seed)
            .expect("the population splits");
        split_ms.push(ms_since(start));
        let start = Instant::now();
        let models = SynthesisPipeline::new(config)
            .learn_models(&split, bucketizer)
            .expect("models learn on the split");
        learn_ms.push(ms_since(start));
        let kept = SeedSynthesizer::new(Arc::clone(&models.cpts), lo)
            .expect("the session's ω is valid")
            .kept_attributes()
            .to_vec();
        let start = Instant::now();
        black_box(PartitionIndexStore::build(&split.seeds, &kept).expect("partition store builds"));
        partition_ms.push(ms_since(start));
        let weights = models.structure.attribute_weights();
        let start = Instant::now();
        black_box(
            InvertedIndexStore::build(&split.seeds, bucketizer, &weights, MAX_INTERSECT_LISTS)
                .expect("inverted index builds"),
        );
        inverted_ms.push(ms_since(start));
    }
    metrics.put("data.split_ms", median(&split_ms), "ms");
    metrics.put("model.learn_ms", median(&learn_ms), "ms");
    metrics.put("index.partition_build_ms", median(&partition_ms), "ms");
    metrics.put("index.inverted_build_ms", median(&inverted_ms), "ms");
}

/// Latencies of one in-process update chain.
pub struct UpdateTimes {
    /// `DatasetDelta::insert`/`delete` staging per update, µs.
    pub stage_us: Vec<f64>,
    /// `SynthesisSession::update` per update, µs.
    pub update_us: Vec<f64>,
    /// The first generate after each update, µs.
    pub first_generate_us: Vec<f64>,
    /// `PartitionIndexStore::apply_delta` of each update's seed part, µs.
    pub apply_delta_us: Vec<f64>,
}

/// Apply `deltas` in order to `session` in-process, timing each layer's
/// share, and follow each update with one of `requests`.
pub fn update_chain(
    session: &SynthesisSession,
    deltas: &[Delta],
    requests: &[GenerateRequest],
) -> UpdateTimes {
    let config = *session.config();
    let mut times = UpdateTimes {
        stage_us: Vec::new(),
        update_us: Vec::new(),
        first_generate_us: Vec::new(),
        apply_delta_us: Vec::new(),
    };
    let mut current = session.clone();
    for (delta, request) in deltas.iter().zip(requests.iter().cycle()) {
        if let Some(partition) = current.partition_store() {
            let is_seed =
                |r: &&Record| split_role(&config.split, config.seed, r) == SplitRole::Seeds;
            let seed_deletes: Vec<Record> = delta.deletes.iter().filter(is_seed).cloned().collect();
            let seed_inserts: Vec<Record> = delta.inserts.iter().filter(is_seed).cloned().collect();
            let survivors = apply_deletes(current.seeds().records(), &seed_deletes)
                .expect("deleted records are present");
            let mut kept = survivors.into_iter().peekable();
            let deleted: Vec<usize> = (0..current.seeds().len())
                .filter(|&i| {
                    let survives = kept.peek() == Some(&i);
                    if survives {
                        kept.next();
                    }
                    !survives
                })
                .collect();
            let start = Instant::now();
            black_box(
                partition
                    .apply_delta(&deleted, &seed_inserts)
                    .expect("the delta splices"),
            );
            times
                .apply_delta_us
                .push(start.elapsed().as_secs_f64() * 1e6);
        }
        let start = Instant::now();
        let staged = dataset_delta(&current, delta);
        times.stage_us.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        current = current.update(&staged).expect("the delta applies");
        times.update_us.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        black_box(
            current
                .generate(request)
                .expect("generate after update succeeds"),
        );
        times
            .first_generate_us
            .push(start.elapsed().as_secs_f64() * 1e6);
    }
    times
}

/// Record the update-chain layers.
pub fn update_metrics(times: &UpdateTimes, metrics: &mut Metrics) {
    metrics.put("data.delta_stage_us", median(&times.stage_us), "us");
    metrics.put("core.update_us", median(&times.update_us), "us");
    metrics.put(
        "core.first_generate_after_update_us",
        median(&times.first_generate_us),
        "us",
    );
    metrics.put("index.apply_delta_us", median(&times.apply_delta_us), "us");
}

/// Time `protocol::parse_request` over the run's request lines and
/// `protocol::record_line` over released records, each repeated until
/// about 20 ms of work is measured.
pub fn protocol_layers(lines: &[String], records: &[Record], metrics: &mut Metrics) {
    let parse_ns = time_per_item(lines, |line| {
        black_box(sgf_serve::protocol::parse_request(line).is_ok());
    });
    metrics.put("serve.parse_ns", parse_ns, "ns");
    let render_ns = time_per_item(records, |record| {
        black_box(sgf_serve::protocol::record_line(record));
    });
    metrics.put("serve.render_ns_per_record", render_ns, "ns");
}

fn time_per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut done = 0usize;
    while start.elapsed().as_millis() < 20 {
        items.iter().for_each(&mut f);
        done += items.len();
    }
    start.elapsed().as_nanos() as f64 / done as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Inputs, Workload};

    #[test]
    fn decomposed_proposal_matches_propose_candidate_with_store() {
        let inputs = Inputs::new(Workload::ServeIngest, 3);
        let session = inputs.train();
        let seeds = session.seeds();
        let test = session.config().privacy_test;
        let scan = LinearScanStore::new(seeds);
        for omega in [9, 5] {
            let models = synthesizers(&session, OmegaSpec::Fixed(omega));
            let store = session_store(&session, models[0].likelihood_attributes(), &scan);
            let mut rng = StdRng::seed_from_u64(omega as u64);
            let mut recorder = Recorder::new(true, Instant::now());
            for _ in 0..200 {
                checked_proposal(&models[0], seeds, store, &test, &mut rng, &mut recorder, 1)
                    .expect("the decomposition agrees");
            }
            assert_eq!(recorder.totals("core.propose").count, 200);
            assert_eq!(recorder.totals("core.run_with_store").count, 200);
        }
    }

    #[test]
    fn replay_counts_every_proposal() {
        let mut inputs = Inputs::new(Workload::ServeIngest, 4);
        let session = inputs.train();
        let requests = inputs.requests(3);
        let mut recorder = Recorder::new(true, Instant::now());
        let stats = replay_mechanism(&session, &requests, &mut recorder, 1).expect("replay agrees");
        assert_eq!(stats.released, 75);
        assert_eq!(
            recorder.totals("core.propose").count,
            stats.candidates as u64
        );
        assert_eq!(recorder.totals("mechanism.request").count, 3);
    }
}
