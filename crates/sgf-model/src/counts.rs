//! Summable sufficient statistics for structure learning.
//!
//! The correlation matrix of Section 3.3 is a pure function of the bucketized
//! per-attribute histograms, the pairwise joint histograms, and the record
//! count — all of which are Z-set summable: inserting or deleting one record
//! touches exactly `m` single-attribute bins and `m(m-1)/2` joint cells.
//! [`StructureCounts`] maintains those counts so an incremental update costs
//! `O(|Δ| · m²)` instead of a full pass over `D_T`, and the matrix derived
//! from merged counts is **bit-identical** to the one a from-scratch
//! computation would produce: both paths evaluate the same counts through
//! entropy routines with identical floating-point operation sequences, in the
//! same order (including the Laplace draws of the DP variant, whose draw count
//! depends only on `m`) — the counts path borrowing its bins allocation-free
//! via [`sgf_stats::entropy_from_counts`].

use crate::correlation::{CorrelationDpConfig, CorrelationMatrix};
use crate::error::{ModelError, Result};
use rand::Rng;
use sgf_data::{Bucketizer, Dataset, Record};
use sgf_stats::{
    entropy_from_counts, entropy_sensitivity, laplace_mechanism,
    symmetrical_uncertainty_from_entropies,
};

/// Bucketized single- and pairwise-count statistics of a structure-learning
/// subset, maintainable under ±record deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct StructureCounts {
    m: usize,
    records: u64,
    /// `bucket_counts[attr][bucket]` over `bucketizer.bucket_count(attr)` bins.
    bucket_counts: Vec<Vec<u64>>,
    /// Row-major `bucket_count(i) x bucket_count(j)` cells for each pair
    /// `i < j`, in [`pair_index`](Self::pair_index) order.
    joint_counts: Vec<Vec<u64>>,
}

impl StructureCounts {
    /// Index of the pair `i < j` in the flattened upper-triangle order used
    /// by `joint_counts`.
    fn pair_index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.m);
        i * self.m - i * (i + 1) / 2 + (j - i - 1)
    }

    /// All-zero counts for `m` attributes under `bucketizer`.
    pub fn empty(bucketizer: &Bucketizer) -> Self {
        let m = bucketizer.per_attribute().len();
        let bucket_counts = (0..m)
            .map(|attr| vec![0u64; bucketizer.bucket_count(attr)])
            .collect();
        let mut joint_counts = Vec::with_capacity(m * m.saturating_sub(1) / 2);
        for i in 0..m {
            for j in (i + 1)..m {
                joint_counts.push(vec![
                    0u64;
                    bucketizer.bucket_count(i) * bucketizer.bucket_count(j)
                ]);
            }
        }
        StructureCounts {
            m,
            records: 0,
            bucket_counts,
            joint_counts,
        }
    }

    /// Fit the counts with one pass over `dataset`.
    pub fn fit(dataset: &Dataset, bucketizer: &Bucketizer) -> Result<StructureCounts> {
        let mut counts = StructureCounts::empty(bucketizer);
        if dataset.schema().len() != counts.m {
            return Err(ModelError::InvalidParameter(format!(
                "bucketizer covers {} attributes but the dataset schema has {}",
                counts.m,
                dataset.schema().len()
            )));
        }
        for record in dataset.records() {
            counts.add_record(record, bucketizer);
        }
        Ok(counts)
    }

    /// Number of records currently counted.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Number of attributes.
    pub fn attribute_count(&self) -> usize {
        self.m
    }

    fn add_record(&mut self, record: &Record, bucketizer: &Bucketizer) {
        let buckets: Vec<usize> = (0..self.m)
            .map(|attr| bucketizer.bucket_of(attr, record.get(attr)) as usize)
            .collect();
        for (attr, &b) in buckets.iter().enumerate() {
            self.bucket_counts[attr][b] += 1;
        }
        for i in 0..self.m {
            for j in (i + 1)..self.m {
                let cols = self.bucket_counts[j].len();
                let pair = self.pair_index(i, j);
                self.joint_counts[pair][buckets[i] * cols + buckets[j]] += 1;
            }
        }
        self.records += 1;
    }

    fn remove_record(&mut self, record: &Record, bucketizer: &Bucketizer) -> Result<()> {
        let underflow = || {
            ModelError::InvalidParameter(format!(
                "delta removes a record the structure counts never saw: {:?}",
                record.values()
            ))
        };
        let buckets: Vec<usize> = (0..self.m)
            .map(|attr| bucketizer.bucket_of(attr, record.get(attr)) as usize)
            .collect();
        self.records = self.records.checked_sub(1).ok_or_else(underflow)?;
        for (attr, &b) in buckets.iter().enumerate() {
            let cell = &mut self.bucket_counts[attr][b];
            *cell = cell.checked_sub(1).ok_or_else(underflow)?;
        }
        for i in 0..self.m {
            for j in (i + 1)..self.m {
                let cols = self.bucket_counts[j].len();
                let pair = self.pair_index(i, j);
                let cell = &mut self.joint_counts[pair][buckets[i] * cols + buckets[j]];
                *cell = cell.checked_sub(1).ok_or_else(underflow)?;
            }
        }
        Ok(())
    }

    /// Merge a record delta: subtract `deletes`, then add `inserts`.  Cost is
    /// `O(|Δ| · m²)`; the result equals [`Self::fit`] on the post-delta
    /// dataset exactly (count addition is commutative).
    pub fn apply_delta(
        &mut self,
        deletes: &[Record],
        inserts: &[Record],
        bucketizer: &Bucketizer,
    ) -> Result<()> {
        for record in deletes {
            self.remove_record(record, bucketizer)?;
        }
        for record in inserts {
            self.add_record(record, bucketizer);
        }
        Ok(())
    }

    /// Compute the correlation matrix from the counts — exactly the Eq. 5 /
    /// Eq. 8–10 computation of `correlation_matrix` / `noisy_correlation_matrix`,
    /// issuing the identical sequence of entropy evaluations and (under DP)
    /// Laplace draws, so counts fitted from a dataset yield a bit-identical
    /// matrix to the dataset-based path.
    pub fn matrix<R: Rng + ?Sized>(
        &self,
        dp: Option<&CorrelationDpConfig>,
        rng: &mut R,
    ) -> Result<CorrelationMatrix> {
        if self.records == 0 {
            return Err(ModelError::EmptyTrainingData);
        }
        let m = self.m;

        let mut entropy_queries = 0usize;
        let sensitivity = match dp {
            None => 0.0,
            Some(cfg) => {
                let noisy_n =
                    laplace_mechanism(self.records as f64, 1.0, cfg.epsilon_nt, rng).max(2.0);
                entropy_sensitivity(noisy_n.round() as u64)
            }
        };

        let mut terms = EntropyTerms::new(self.records);
        let mut single = Vec::with_capacity(m);
        for attr in 0..m {
            let h = terms.entropy(&self.bucket_counts[attr]);
            let h = match dp {
                None => h,
                Some(cfg) => {
                    entropy_queries += 1;
                    laplace_mechanism(h, sensitivity, cfg.epsilon_h, rng).max(0.0)
                }
            };
            single.push(h);
        }

        let mut values = vec![0.0; m * m];
        for i in 0..m {
            values[i * m + i] = 1.0;
            for j in (i + 1)..m {
                let h_ij = terms.entropy(&self.joint_counts[self.pair_index(i, j)]);
                let h_ij = match dp {
                    None => h_ij,
                    Some(cfg) => {
                        entropy_queries += 1;
                        laplace_mechanism(h_ij, sensitivity, cfg.epsilon_h, rng).max(0.0)
                    }
                };
                let corr = symmetrical_uncertainty_from_entropies(single[i], single[j], h_ij);
                values[i * m + j] = corr;
                values[j * m + i] = corr;
            }
        }

        Ok(CorrelationMatrix::from_parts(m, values, entropy_queries))
    }
}

/// [`entropy_from_counts`] with each cell's term `-p·log2(p)`, `p = c / n`,
/// memoized by count `c` for one table total `n`.  Every table of a
/// [`StructureCounts`] sums to its record count and sparse tables repeat
/// small counts, so most cells skip the logarithm.  A term is the very
/// expression `entropy_from_counts` evaluates, summed in the same cell order,
/// so the entropies are bit-identical.
struct EntropyTerms {
    total: u64,
    /// `terms[c]` for counts up to [`EntropyTerms::MEMO`]; NaN = not yet
    /// computed (no term is NaN: `p` lies in `(0, 1]`).
    terms: Vec<f64>,
}

impl EntropyTerms {
    /// Largest count memoized; larger counts are rare and computed directly.
    const MEMO: u64 = 1 << 16;

    fn new(total: u64) -> Self {
        EntropyTerms {
            total,
            terms: vec![f64::NAN; total.min(Self::MEMO) as usize + 1],
        }
    }

    fn entropy(&mut self, counts: &[u64]) -> f64 {
        let total: u64 = counts.iter().sum();
        if total != self.total || total == 0 {
            return entropy_from_counts(counts);
        }
        counts
            .iter()
            .filter(|&&c| c != 0)
            .map(|&c| self.term(c))
            .sum()
    }

    fn term(&mut self, count: u64) -> f64 {
        let p = count as f64 / self.total as f64;
        match self.terms.get_mut(count as usize) {
            Some(term) if !term.is_nan() => *term,
            Some(term) => {
                *term = -p * p.log2();
                *term
            }
            None => -p * p.log2(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlation::{correlation_matrix, noisy_correlation_matrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sgf_data::acs::{acs_bucketizer, acs_schema, generate_acs};

    #[test]
    fn memoized_entropy_terms_are_bit_identical() {
        let tables: Vec<Vec<u64>> = vec![
            vec![3, 0, 1, 1, 5, 0, 2],
            vec![12, 0, 0, 0],
            vec![1; 12],
            vec![0, 6, 3, 3],
        ];
        let mut terms = EntropyTerms::new(12);
        for table in &tables {
            let expected = entropy_from_counts(table);
            // Twice: once filling the memo, once reading it.
            for _ in 0..2 {
                assert_eq!(terms.entropy(table).to_bits(), expected.to_bits());
            }
        }
        // A table with another total falls back to the direct routine.
        let other = [7u64, 0, 1];
        assert_eq!(
            terms.entropy(&other).to_bits(),
            entropy_from_counts(&other).to_bits()
        );
        // Counts beyond the memo are computed directly.
        let big = [EntropyTerms::MEMO + 5, 3];
        let mut wide = EntropyTerms::new(EntropyTerms::MEMO + 8);
        assert_eq!(
            wide.entropy(&big).to_bits(),
            entropy_from_counts(&big).to_bits()
        );
    }

    #[test]
    fn fitted_counts_reproduce_the_dataset_matrix_bit_for_bit() {
        let data = generate_acs(1200, 5);
        let bkt = acs_bucketizer(&acs_schema());
        let counts = StructureCounts::fit(&data, &bkt).unwrap();
        assert_eq!(counts.records(), 1200);
        let direct = correlation_matrix(&data, &bkt).unwrap();
        let from_counts = counts
            .matrix(None, &mut rand::rngs::mock::StepRng::new(0, 1))
            .unwrap();
        assert_eq!(direct, from_counts);
    }

    #[test]
    fn noisy_matrix_from_counts_matches_dataset_path_given_the_same_rng() {
        let data = generate_acs(800, 9);
        let bkt = acs_bucketizer(&acs_schema());
        let cfg = CorrelationDpConfig {
            epsilon_h: 0.5,
            epsilon_nt: 0.1,
        };
        let mut rng_a = StdRng::seed_from_u64(42);
        let direct = noisy_correlation_matrix(&data, &bkt, &cfg, &mut rng_a).unwrap();
        let counts = StructureCounts::fit(&data, &bkt).unwrap();
        let mut rng_b = StdRng::seed_from_u64(42);
        let from_counts = counts.matrix(Some(&cfg), &mut rng_b).unwrap();
        assert_eq!(direct, from_counts);
    }

    #[test]
    fn delta_merge_equals_refit_on_the_final_dataset() {
        let data = generate_acs(600, 11);
        let bkt = acs_bucketizer(&acs_schema());
        let mut counts = StructureCounts::fit(&data, &bkt).unwrap();

        let extra = generate_acs(10, 77);
        let deletes: Vec<Record> = data.records()[..7].to_vec();
        let inserts: Vec<Record> = extra.records().to_vec();
        counts.apply_delta(&deletes, &inserts, &bkt).unwrap();

        let mut final_records: Vec<Record> = data.records()[7..].to_vec();
        final_records.extend(inserts.iter().cloned());
        let final_dataset = Dataset::from_records_unchecked(data.schema_arc(), final_records);
        let refit = StructureCounts::fit(&final_dataset, &bkt).unwrap();
        assert_eq!(counts, refit);
    }

    #[test]
    fn removing_an_unseen_record_fails() {
        let data = generate_acs(50, 1);
        let bkt = acs_bucketizer(&acs_schema());
        let empty = Dataset::from_records_unchecked(data.schema_arc(), Vec::new());
        let mut counts = StructureCounts::fit(&empty, &bkt).unwrap();
        assert!(counts.apply_delta(&data.records()[..1], &[], &bkt).is_err());
    }

    #[test]
    fn empty_counts_reject_matrix_computation() {
        let bkt = acs_bucketizer(&acs_schema());
        let counts = StructureCounts::empty(&bkt);
        assert!(matches!(
            counts.matrix(None, &mut rand::rngs::mock::StepRng::new(0, 1)),
            Err(ModelError::EmptyTrainingData)
        ));
    }
}
