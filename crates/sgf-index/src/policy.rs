//! The seed-store selection policy carried by pipeline configurations and
//! per-request overrides.

use serde::{Deserialize, Serialize};

/// Which seed store the plausible-deniability test should query.
///
/// Scan and index are **decision-equivalent**: for the same RNG seed they
/// accept and reject exactly the same candidates (the index only skips records
/// whose generation probability is provably zero), so the policy is purely a
/// performance choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SeedIndex {
    /// Always scan the full seed dataset (the baseline behaviour).
    Scan,
    /// Always query the bucketized inverted index (train-time build required).
    Inverted,
    /// Always query a partition-aware store of likelihood-equivalence
    /// classes (train-time build of the trained store required).  Each
    /// fixed-ω synthesizer of a request gets the store whose key covers it:
    /// the trained store (keyed on the kept attributes at the session's
    /// smallest ω) for ω at or above that ω, a per-ω store keyed on its own
    /// kept attributes — built on first use and shared by every clone of the
    /// session — below it.  Tests for models no store covers degrade to the
    /// trained store's per-record class walk.
    Partition,
    /// Build the inverted index and the trained partition store at train
    /// time and use an index whenever the seed dataset is large enough
    /// (`PipelineConfig::auto_index_min_seeds`, default
    /// [`SeedIndex::AUTO_MIN_SEEDS`]) for the index machinery to beat a
    /// cache-friendly linear sweep.  Per fixed-ω synthesizer it prefers the
    /// covering partition store, exactly as [`SeedIndex::Partition`] picks
    /// it (including the per-ω stores built on first use), and falls back
    /// to the inverted index for models no partition store covers.
    #[default]
    Auto,
}

impl SeedIndex {
    /// Default seed-dataset size above which [`SeedIndex::Auto`] prefers an
    /// index over the scan (the `PipelineConfig::auto_index_min_seeds`
    /// default).  Below this, the linear scan's sequential sweep is typically
    /// faster than posting-list intersection per candidate.
    pub const AUTO_MIN_SEEDS: usize = 512;
}

impl std::fmt::Display for SeedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeedIndex::Scan => write!(f, "scan"),
            SeedIndex::Inverted => write!(f, "inverted"),
            SeedIndex::Partition => write!(f, "partition"),
            SeedIndex::Auto => write!(f, "auto"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_auto_and_display_is_lowercase() {
        assert_eq!(SeedIndex::default(), SeedIndex::Auto);
        assert_eq!(SeedIndex::Scan.to_string(), "scan");
        assert_eq!(SeedIndex::Inverted.to_string(), "inverted");
        assert_eq!(SeedIndex::Partition.to_string(), "partition");
        assert_eq!(SeedIndex::Auto.to_string(), "auto");
    }
}
