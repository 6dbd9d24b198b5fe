//! # sgf-index
//!
//! Indexed seed stores that make the plausible-deniability test **sublinear**
//! in the seed-dataset size.
//!
//! The privacy tests of Section 2 are the hot path of the whole generator:
//! for every candidate synthetic record they count how many seed records fall
//! into the same γ-likelihood partition, so a full scan makes the work per
//! released record grow linearly — and the total quadratically — with the
//! dataset.  This crate pre-builds an index over the seed data so each
//! per-candidate test touches only the records that can possibly be plausible
//! seeds:
//!
//! * [`SeedStore`] — the query abstraction: a *sound superset* of the records
//!   that can plausibly have generated a candidate (no false negatives, so
//!   filtering never changes a test decision);
//! * [`LinearScanStore`] — the baseline: every record, every time;
//! * [`InvertedIndexStore`] — bucketized per-value posting lists, intersected
//!   over the candidate's highest-weight matching attributes;
//! * [`PartitionIndexStore`] — seeds collapsed into likelihood-equivalence
//!   classes (identical generation probability for every candidate), so the
//!   γ-partition check runs once per class and counts with multiplicity.
//!   The layout is flat (members grouped by class in one array, a sorted
//!   array of 64-bit projection keys for allocation-free lookups), so a
//!   session can afford one store per kept-attribute set: the trained store
//!   serves every synthesizer its key covers, and each smaller ω gets its
//!   own store, built on first use;
//! * [`ClassMatchCache`] — an optional per-store cache of seed-independent
//!   class-match rows, shared across every request of a session, so repeated
//!   candidates with the same likelihood projection skip the per-class model
//!   evaluations entirely (decisions stay bit-identical to the uncached
//!   path);
//! * [`IndexPermutation`] / [`RandomSubset`] — O(1)-random-access seeded
//!   permutations, so the `max_check_plausible` early-termination knob can
//!   examine a random subset without the per-candidate O(n) shuffle, and so
//!   scan and index derive the **same** subset from the same RNG draw;
//! * [`SeedIndex`] — the `Scan | Inverted | Partition | Auto` selection
//!   policy carried by pipeline configurations and generate requests.

pub mod inverted;
pub mod partition;
pub mod permute;
pub mod policy;
pub mod store;

pub use inverted::{InvertedIndexStore, PostingIntersection, MAX_INTERSECT_LISTS};
pub use partition::{
    ClassMatchCache, ClassMatchLookup, LikelihoodClass, LikelihoodClasses, PartitionIndexStore,
    DEFAULT_CLASS_CACHE_CAP,
};
pub use permute::{IndexPermutation, RandomSubset};
pub use policy::SeedIndex;
pub use store::{CandidateIter, LinearScanStore, SeedStore};
