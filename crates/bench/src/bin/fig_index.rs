//! Seed-store sweep: scan vs inverted index vs partition store cost of the
//! plausible-deniability test across seed-dataset size × k (the privacy
//! parameter).
//!
//! For every configuration the three stores propose the *same* candidates
//! from the same RNG seed and must release identical records — the binary
//! asserts this (a decision-equivalence regression here fails `repro.sh` and
//! CI) — while `records_examined` (model-probability evaluations per test)
//! and synthesis wall clock drop with each store generation:
//!
//! * the scan examines `O(|D_S|)` records per candidate;
//! * the inverted index examines the posting-list survivors (≈ k plus
//!   overhead);
//! * the partition store collapses seeds into likelihood-equivalence classes
//!   and runs one check per class — with a fixed ω every key attribute is
//!   exact-matched, so each test is a single class lookup and the examined
//!   count scales with the distinct-class count, not `|D_S|`.
//!
//! The last column group shows the one-off index build costs amortized over
//! every request of a session.
//!
//! A second sweep serves ω ∈R [5–11] from sessions trained at ω = 9, the
//! paper setting whose smaller-ω synthesizers the trained partition store
//! cannot cover: under `Auto` and `Partition` each of them must be served by
//! its own per-ω partition store (one class lookup per candidate) and
//! release the scan's bytes.

use bench::track::{BenchPoint, SeriesRecorder};
use bench::{scale_from_args, smoke_mode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sgf_core::{
    GenerateRequest, InvertedIndexStore, Mechanism, PartitionIndexStore, PrivacyTestConfig,
    SeedIndex, SynthesisEngine, SynthesisPipeline,
};
use sgf_data::acs::{acs_bucketizer, acs_schema, generate_acs};
use sgf_data::{split_dataset, SplitSpec};
use sgf_eval::TextTable;
use sgf_index::MAX_INTERSECT_LISTS;
use sgf_model::{OmegaSpec, SeedSynthesizer};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let scale = scale_from_args();
    let (populations, ks, candidates): (Vec<usize>, Vec<usize>, usize) = if smoke_mode() {
        (vec![1_500, 3_000], vec![10, 25], 60)
    } else {
        (vec![4_000, 8_000, 16_000, 32_000], vec![25, 50, 100], 400)
    };
    let populations: Vec<usize> = populations.iter().map(|p| p * scale).collect();
    // Records each ω-range request asks for.
    let range_target = candidates / 4;
    let range = OmegaSpec::UniformRange { lo: 5, hi: 11 };
    let bucketizer = acs_bucketizer(&acs_schema());
    let mut recorder = SeriesRecorder::new("fig_index", scale);

    let mut table = TextTable::new(&[
        "Seeds",
        "Classes",
        "k",
        "Released",
        "Scan exam",
        "Inv exam",
        "Part exam",
        "Part/Inv",
        "Scan (s)",
        "Inv (s)",
        "Part (s)",
        "Build inv (s)",
        "Build part (s)",
    ]);
    let mut range_table = TextTable::new(&[
        "Seeds",
        "k",
        "Candidates",
        "Released",
        "Scan exam",
        "Part exam",
        "Scan (s)",
        "Auto (s)",
        "Part (s)",
    ]);

    for &population_size in &populations {
        let population = generate_acs(population_size, 301);
        // Learn the models once per population size; the k sweep only changes
        // the privacy test, not the trained models.
        let mut rng = StdRng::seed_from_u64(301);
        let split = split_dataset(&population, &SplitSpec::paper_defaults(), &mut rng)
            .expect("population is non-empty");
        let config = bench::experiment_pipeline_config(1, 301);
        let models = SynthesisPipeline::new(config)
            .learn_models(&split, &bucketizer)
            .expect("model learning succeeds");
        let synthesizer =
            SeedSynthesizer::new(Arc::clone(&models.cpts), 9).expect("omega 9 is valid");

        let build_start = Instant::now();
        let index_store = InvertedIndexStore::build(
            &split.seeds,
            &bucketizer,
            &models.structure.attribute_weights(),
            MAX_INTERSECT_LISTS,
        )
        .expect("index build succeeds");
        let inverted_build_seconds = build_start.elapsed().as_secs_f64();

        let build_start = Instant::now();
        let partition_store =
            PartitionIndexStore::build(&split.seeds, synthesizer.kept_attributes())
                .expect("partition build succeeds");
        let partition_build_seconds = build_start.elapsed().as_secs_f64();

        for &k in &ks {
            let test =
                PrivacyTestConfig::randomized(k, 4.0, 1.0).with_limits(Some(2 * k), Some(50_000));
            let scan_mech =
                Mechanism::new(&synthesizer, &split.seeds, test).expect("scan mechanism is valid");
            let index_mech = Mechanism::with_store(&synthesizer, &split.seeds, &index_store, test)
                .expect("index mechanism is valid");
            let partition_mech =
                Mechanism::with_store(&synthesizer, &split.seeds, &partition_store, test)
                    .expect("partition mechanism is valid");

            let start = Instant::now();
            let (scan_released, scan_stats) = scan_mech
                .release_batch(candidates, &mut StdRng::seed_from_u64(77))
                .expect("scan batch succeeds");
            let scan_seconds = start.elapsed().as_secs_f64();

            let start = Instant::now();
            let (index_released, index_stats) = index_mech
                .release_batch(candidates, &mut StdRng::seed_from_u64(77))
                .expect("index batch succeeds");
            let index_seconds = start.elapsed().as_secs_f64();

            let start = Instant::now();
            let (partition_released, partition_stats) = partition_mech
                .release_batch(candidates, &mut StdRng::seed_from_u64(77))
                .expect("partition batch succeeds");
            let partition_seconds = start.elapsed().as_secs_f64();

            // Decision equivalence is a hard invariant, not a benchmark
            // observation: any divergence aborts the artifact run.
            assert_eq!(
                scan_released,
                index_released,
                "scan and inverted index must release identical records (seeds {}, k {k})",
                split.seeds.len()
            );
            assert_eq!(
                scan_released,
                partition_released,
                "scan and partition store must release identical records (seeds {}, k {k})",
                split.seeds.len()
            );
            assert_eq!(partition_stats.partition_tests, partition_stats.candidates);
            assert!(
                partition_stats.records_examined <= index_stats.records_examined,
                "class counting must not examine more than the inverted index \
                 ({} vs {}, seeds {}, k {k})",
                partition_stats.records_examined,
                index_stats.records_examined,
                split.seeds.len()
            );
            if split.seeds.len() >= 4_000 {
                assert!(
                    partition_stats.records_examined < index_stats.records_examined,
                    "at >= 4k seeds the partition store must examine strictly fewer \
                     records than the inverted index ({} vs {}, seeds {}, k {k})",
                    partition_stats.records_examined,
                    index_stats.records_examined,
                    split.seeds.len()
                );
            }

            let ratio = partition_stats.records_examined as f64
                / (index_stats.records_examined as f64).max(1.0);
            table.add_row(&[
                split.seeds.len().to_string(),
                partition_store.class_count().to_string(),
                k.to_string(),
                scan_stats.released.to_string(),
                scan_stats.records_examined.to_string(),
                index_stats.records_examined.to_string(),
                partition_stats.records_examined.to_string(),
                format!("{ratio:.4}"),
                format!("{scan_seconds:.3}"),
                format!("{index_seconds:.3}"),
                format!("{partition_seconds:.3}"),
                format!("{inverted_build_seconds:.3}"),
                format!("{partition_build_seconds:.3}"),
            ]);
            recorder.add(
                BenchPoint::new(format!("s{}_k{k:03}", split.seeds.len()))
                    .counter("seeds", split.seeds.len() as u64)
                    .counter("classes", partition_store.class_count() as u64)
                    .counter("k", k as u64)
                    .counter("released", scan_stats.released as u64)
                    .counter("scan_examined", scan_stats.records_examined as u64)
                    .counter("inverted_examined", index_stats.records_examined as u64)
                    .counter(
                        "partition_examined",
                        partition_stats.records_examined as u64,
                    )
                    .value("scan_seconds", scan_seconds)
                    .value("inverted_seconds", index_seconds)
                    .value("partition_seconds", partition_seconds)
                    .value("inverted_build_seconds", inverted_build_seconds)
                    .value("partition_build_seconds", partition_build_seconds),
            );

            // ω ∈R [5–11] on a session trained at ω = 9.
            let mut config = bench::experiment_pipeline_config(1, 301);
            config.privacy_test = test;
            let session = SynthesisEngine::from_config(config)
                .train(&population, &bucketizer)
                .expect("session trains");
            let request = GenerateRequest::new(range_target)
                .with_omega(range)
                .with_seed(77);
            let serve = |policy: SeedIndex| {
                let start = Instant::now();
                let report = session
                    .generate(&request.with_seed_index(policy))
                    .expect("ω-range generate succeeds");
                (report, start.elapsed().as_secs_f64())
            };
            let (scan, scan_seconds) = serve(SeedIndex::Scan);
            let (auto, auto_seconds) = serve(SeedIndex::Auto);
            let (partition, partition_seconds) = serve(SeedIndex::Partition);
            for (policy, report) in [("Auto", &auto), ("Partition", &partition)] {
                assert_eq!(
                    report.synthetics.records(),
                    scan.synthetics.records(),
                    "{policy} must release the scan's records for omega in R[5-11] \
                     (seeds {}, k {k})",
                    session.seeds().len()
                );
                assert_eq!(report.stats.candidates, scan.stats.candidates);
                assert_eq!(
                    report.stats.partition_tests,
                    report.stats.candidates,
                    "{policy} must serve every omega of R[5-11] from a partition store \
                     (seeds {}, k {k})",
                    session.seeds().len()
                );
                assert_eq!(
                    report.stats.records_examined,
                    partition.stats.records_examined
                );
            }
            range_table.add_row(&[
                session.seeds().len().to_string(),
                k.to_string(),
                scan.stats.candidates.to_string(),
                scan.stats.released.to_string(),
                scan.stats.records_examined.to_string(),
                partition.stats.records_examined.to_string(),
                format!("{scan_seconds:.3}"),
                format!("{auto_seconds:.3}"),
                format!("{partition_seconds:.3}"),
            ]);
            recorder.add(
                BenchPoint::new(format!("s{}_k{k:03}_omega5-11", session.seeds().len()))
                    .counter("seeds", session.seeds().len() as u64)
                    .counter("k", k as u64)
                    .counter("candidates", scan.stats.candidates as u64)
                    .counter("released", scan.stats.released as u64)
                    .counter("scan_examined", scan.stats.records_examined as u64)
                    .counter(
                        "partition_examined",
                        partition.stats.records_examined as u64,
                    )
                    .counter("partition_tests", partition.stats.partition_tests as u64)
                    .value("scan_seconds", scan_seconds)
                    .value("auto_seconds", auto_seconds)
                    .value("partition_seconds", partition_seconds),
            );
        }
    }
    recorder.finish();

    println!(
        "Seed-store sweep: plausible-deniability test cost, scan vs inverted index vs \
         partition store (omega = 9, gamma = 4, eps0 = 1, scale {scale})\n"
    );
    println!("{}", table.render());
    println!(
        "omega in R[5-11] on sessions trained at omega = 9: scan vs Auto vs Partition \
         (each smaller omega served by its own partition store)\n"
    );
    println!("{}", range_table.render());
    println!(
        "Scan, inverted index, and partition store released byte-identical records in \
         every configuration, including omega ranges below the trained omega."
    );
}
