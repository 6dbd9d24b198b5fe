//! The partition-aware seed store: likelihood-equivalence classes.
//!
//! The inverted index prunes the plausible-deniability test to records that
//! *agree* with the candidate on kept attributes, but it still pays one model
//! evaluation per surviving record.  This store goes one step further using a
//! stronger model guarantee (`GenerativeModel::likelihood_attributes` in
//! `sgf-model`): when the generation probability `p_d(y)` depends on the seed
//! `d` only through its projection onto an attribute set `A`, two seeds with
//! identical projections have identical `p_d(y)` for **every** candidate `y`.
//! Grouping the seed dataset by that projection at build time therefore
//! yields *likelihood-equivalence classes*: the exact γ-partition check runs
//! once per class on a representative, and the class counts toward the
//! plausible-seed tally with its full multiplicity.  Per-candidate test cost
//! scales with the number of **distinct classes**, not with `|D_S|`.
//!
//! Soundness of a class query requires the model's likelihood set `L` to be
//! covered by the build-time key set `A` (`L ⊆ A`): seeds agreeing on `A`
//! then agree on `L`, hence share their generation probability.  When the
//! model offers no such guarantee the store degrades to a per-record
//! [`SeedStore`] query that prunes classes on the exact-match attributes —
//! still a sound superset, just without the multiplicity shortcut.
//!
//! When the key `A` equals a model's likelihood set and every key attribute
//! is exact-match guaranteed (the seed synthesizer: `A` = its kept
//! attributes), a test is one lookup of the candidate's projection — a
//! binary search of the sorted key array, no allocation.  The layout is
//! flat, so one store per kept-attribute set stays cheap.

use crate::store::{BuildCounter, CandidateIter, SeedStore};
use sgf_data::{DataError, Dataset, Record};
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

/// Cache key: the model's (normalized) likelihood attribute set and the
/// candidate's projection onto it.
type ClassMatchKey = (Vec<usize>, Vec<u16>);

/// Default row cap of a [`ClassMatchCache`]: enough for every distinct
/// likelihood projection of typical sessions, small enough that a
/// high-cardinality candidate stream cannot grow the cache without bound.
pub const DEFAULT_CLASS_CACHE_CAP: usize = 4096;

/// A shared, per-session cache of **seed-independent** class-match rows.
///
/// For a model whose likelihood set `L` is contained in its exact-match set
/// `EM` (both declared), the per-class γ-partition comparison of the privacy
/// test's class fast path is a pure function of the candidate — independent
/// of the sampled seed, of γ, and of all request randomness.  Inside the
/// class loop the seed's own probability is known positive, so the seed
/// agrees with the candidate on `EM ⊇ L`; a class representative whose
/// `L`-projection equals the candidate's therefore shares the seed's exact
/// generation probability (same partition, any γ), while one that differs
/// disagrees with the candidate on an exact-match attribute (probability
/// zero, no partition).  The row of per-class booleans is thus keyed by
/// `(L, candidate's L-projection)` alone and can be computed once and reused
/// by every request of the session.
///
/// Only that deterministic row is ever cached.  Stochastic test outcomes,
/// thresholds, plausible counts, and RNG draws never enter the cache, so the
/// per-request decision/count/RNG streams are bit-identical to the uncached
/// path.  Rows are populated under the map lock, so each distinct key is
/// computed exactly once while resident regardless of thread scheduling.
///
/// The cache is **bounded**: at most `cap` rows are resident.  Admitting a
/// row beyond the cap evicts the oldest-*inserted* resident row (FIFO on
/// insertion order, not recency), so the resident set after any key sequence
/// is a deterministic function of that sequence — an LRU would make residency
/// depend on hit timing across threads.  Evicted keys are recomputed on their
/// next lookup; correctness never depends on residency, only miss counts do.
#[derive(Debug)]
pub struct ClassMatchCache {
    inner: Mutex<CacheInner>,
    cap: usize,
}

#[derive(Debug, Default)]
struct CacheInner {
    rows: BTreeMap<ClassMatchKey, Arc<Vec<bool>>>,
    /// Resident keys, oldest insertion first — the FIFO eviction order.
    order: VecDeque<ClassMatchKey>,
    evictions: u64,
}

impl Default for ClassMatchCache {
    fn default() -> Self {
        ClassMatchCache::new()
    }
}

impl ClassMatchCache {
    /// An empty cache with the [default row cap](DEFAULT_CLASS_CACHE_CAP).
    pub fn new() -> Self {
        ClassMatchCache::with_capacity(DEFAULT_CLASS_CACHE_CAP)
    }

    /// An empty cache holding at most `cap` rows (clamped to at least 1).
    pub fn with_capacity(cap: usize) -> Self {
        ClassMatchCache {
            inner: Mutex::new(CacheInner::default()),
            cap: cap.max(1),
        }
    }

    /// Number of distinct `(likelihood set, projection)` rows currently held.
    pub fn rows(&self) -> usize {
        self.locked().rows.len()
    }

    /// The row cap this cache was created with.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total rows evicted to stay under the cap since the cache was created.
    pub fn evictions(&self) -> u64 {
        self.locked().evictions
    }

    fn locked(&self) -> MutexGuard<'_, CacheInner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Fetch the row for `key`, computing it with `compute` (under the lock)
    /// on a miss and evicting the oldest-inserted rows past the cap.
    fn fetch(
        &self,
        key: ClassMatchKey,
        compute: impl FnOnce() -> Arc<Vec<bool>>,
    ) -> ClassMatchLookup {
        let mut inner = self.locked();
        if let Some(row) = inner.rows.get(&key) {
            return ClassMatchLookup {
                row: Arc::clone(row),
                hit: true,
            };
        }
        let row = compute();
        inner.rows.insert(key.clone(), Arc::clone(&row));
        inner.order.push_back(key);
        while inner.rows.len() > self.cap {
            let oldest = inner.order.pop_front().expect("order tracks rows");
            inner.rows.remove(&oldest);
            inner.evictions += 1;
            sgf_metrics::counter("index.partition.class_cache_evictions").incr();
        }
        ClassMatchLookup { row, hit: false }
    }
}

/// Result of a class-match cache lookup: a shared row of per-class booleans
/// (`row[class.index]` — is the class representative in the seed's
/// γ-partition?) plus whether the row was served from the cache (`hit`) or
/// computed by this call (`!hit`).
#[derive(Debug, Clone)]
pub struct ClassMatchLookup {
    /// One boolean per store class, indexed by [`LikelihoodClass::index`].
    pub row: Arc<Vec<bool>>,
    /// `true` when the row was already cached; `false` when this lookup
    /// computed (and stored) it.
    pub hit: bool,
}

/// Probe key of a projection (values in key-attribute order): FNV-1a over
/// the 16-bit values.  Fixed and process-independent, so the sorted lookup
/// array — and with it store equality — is a pure function of the indexed
/// seeds.  Collisions are harmless: a probe confirms every equal key against
/// the class projection.
fn projection_key(values: impl Iterator<Item = u16>) -> u64 {
    values.fold(0xcbf2_9ce4_8422_2325, |hash, value| {
        (hash ^ u64::from(value)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Home slot of a projection key in a power-of-two open-addressing table of
/// `len` slots: the key's high bits after a multiplicative mix, so FNV's
/// weakly mixed low bits do not cluster.
fn table_slot(key: u64, len: usize) -> usize {
    (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - len.trailing_zeros())) as usize
}

/// Builds made by [`PartitionIndexStore::build`] (see
/// [`PartitionIndexStore::thread_build_count`]).
static BUILDS: BuildCounter = BuildCounter::new(&THREAD_BUILDS);

thread_local! {
    static THREAD_BUILDS: Cell<usize> = const { Cell::new(0) };
}

/// A seed store grouping records into likelihood-equivalence classes (see the
/// module docs).
///
/// The layout is flat so that a store per kept-attribute set stays cheap:
/// about 4 bytes per record plus ~30 bytes per class.  Classes are numbered
/// in first-seen (ascending smallest member) order; that number indexes the
/// member ranges, the projections, and the rows of the [`ClassMatchCache`].
#[derive(Debug, Clone)]
pub struct PartitionIndexStore {
    len: usize,
    /// The key attribute set `A`, ascending and deduplicated.
    attributes: Vec<usize>,
    /// Every record index, grouped by class in class order and ascending
    /// within a class; a class's first member is its representative.
    members: Vec<u32>,
    /// Class `c` owns `members[offsets[c]..offsets[c + 1]]` (one more entry
    /// than there are classes, starting at 0).
    offsets: Vec<u32>,
    /// Class `c`'s projection (values in `attributes` order) is
    /// `projections[c * w..(c + 1) * w]`, with `w = attributes.len()`.
    projections: Vec<u16>,
    /// `(projection key, class)` for every class, sorted ascending: a lookup
    /// binary-searches the candidate's key without allocating and confirms
    /// equal keys against the class projection.  A sorted array, not a hash
    /// map (R2, ordered-iteration discipline): this store sits on the
    /// decision path of the privacy test.
    lookup: Vec<(u64, u32)>,
    /// The shared class-match cache, if one was attached with
    /// [`with_class_cache`](PartitionIndexStore::with_class_cache).  Clones
    /// share the same cache (it travels by `Arc`), so every handle of a
    /// session warms — and benefits from — one pool of rows.
    cache: Option<Arc<ClassMatchCache>>,
}

impl PartitionIndexStore {
    /// Group `seeds` into equivalence classes keyed on their projections onto
    /// `attributes` (a model's likelihood set — for the seed synthesizer, its
    /// kept attributes).
    ///
    /// The attribute list may arrive in any order and with duplicates; it is
    /// normalized internally.  Every attribute must exist in the seed schema.
    pub fn build(seeds: &Dataset, attributes: &[usize]) -> Result<Self, DataError> {
        let start = std::time::Instant::now();
        let m = seeds.schema().len();
        let mut key: Vec<usize> = attributes.to_vec();
        key.sort_unstable();
        key.dedup();
        if let Some(&bad) = key.iter().find(|&&a| a >= m) {
            return Err(DataError::InvalidParameter(format!(
                "likelihood attribute {bad} is out of range for a schema with {m} attributes"
            )));
        }
        if seeds.len() > u32::MAX as usize {
            return Err(DataError::InvalidParameter(
                "partition index supports at most u32::MAX seed records".into(),
            ));
        }
        let (n, w) = (seeds.len(), key.len());
        // Number the classes in first-seen order through a scratch
        // open-addressing table (slot = class + 1, 0 = empty), then lay the
        // members out by counting sort, which keeps them ascending.
        let mut keys: Vec<u64> = Vec::new();
        let mut projections: Vec<u16> = Vec::new();
        let mut class_of: Vec<u32> = Vec::with_capacity(n);
        let mut table: Vec<u32> = vec![0; 64];
        for idx in 0..n {
            let record = seeds.record(idx);
            let values = || key.iter().map(|&a| record.get(a));
            let probe = projection_key(values());
            let mut slot = table_slot(probe, table.len());
            let class = loop {
                match table[slot] {
                    0 => {
                        let class = keys.len();
                        keys.push(probe);
                        projections.extend(values());
                        table[slot] = class as u32 + 1;
                        if 2 * keys.len() > table.len() {
                            table = vec![0; 2 * table.len()];
                            for (class, &probe) in keys.iter().enumerate() {
                                let mut slot = table_slot(probe, table.len());
                                while table[slot] != 0 {
                                    slot = (slot + 1) & (table.len() - 1);
                                }
                                table[slot] = class as u32 + 1;
                            }
                        }
                        break class;
                    }
                    entry => {
                        let class = entry as usize - 1;
                        if keys[class] == probe
                            && projections[class * w..(class + 1) * w]
                                .iter()
                                .copied()
                                .eq(values())
                        {
                            break class;
                        }
                        slot = (slot + 1) & (table.len() - 1);
                    }
                }
            };
            class_of.push(class as u32);
        }
        drop(table);
        projections.shrink_to_fit();
        let mut offsets: Vec<u32> = vec![0; keys.len() + 1];
        for &class in &class_of {
            offsets[class as usize + 1] += 1;
        }
        for class in 0..keys.len() {
            offsets[class + 1] += offsets[class];
        }
        let mut fill: Vec<u32> = offsets[..keys.len()].to_vec();
        let mut members: Vec<u32> = vec![0; n];
        for (idx, &class) in class_of.iter().enumerate() {
            members[fill[class as usize] as usize] = idx as u32;
            fill[class as usize] += 1;
        }
        let mut lookup: Vec<(u64, u32)> = keys
            .iter()
            .enumerate()
            .map(|(class, &probe)| (probe, class as u32))
            .collect();
        lookup.sort_unstable();
        let store = PartitionIndexStore {
            len: n,
            attributes: key,
            members,
            offsets,
            projections,
            lookup,
            cache: None,
        };
        BUILDS.record();
        sgf_metrics::counter("index.partition.builds").incr();
        sgf_metrics::timer("index.partition.build").observe(start.elapsed());
        sgf_metrics::summary("index.partition.classes").observe(store.class_count() as u64);
        sgf_metrics::summary("index.partition.largest_class").observe(store.largest_class() as u64);
        sgf_metrics::trace().record(
            "index.partition.build",
            &[("store", "partition")],
            &[
                ("records", store.len as u64),
                ("classes", store.class_count() as u64),
                ("largest_class", store.largest_class() as u64),
            ],
            start.elapsed(),
        );
        Ok(store)
    }

    /// Successful [`build`](PartitionIndexStore::build) calls made on the
    /// calling thread ([`apply_delta`] does not count): exact even while
    /// other threads build concurrently.
    ///
    /// [`apply_delta`]: PartitionIndexStore::apply_delta
    pub fn thread_build_count() -> usize {
        BUILDS.thread()
    }

    /// Attach a fresh [`ClassMatchCache`] to this store (builder style).
    /// Clones of the store share the cache via `Arc`, so one per-session
    /// store warms a single pool of rows across every request it serves.
    pub fn with_class_cache(mut self) -> Self {
        self.cache = Some(Arc::new(ClassMatchCache::new()));
        self
    }

    /// Like [`with_class_cache`](PartitionIndexStore::with_class_cache) but
    /// with an explicit row cap instead of [`DEFAULT_CLASS_CACHE_CAP`].
    pub fn with_class_cache_capacity(mut self, cap: usize) -> Self {
        self.cache = Some(Arc::new(ClassMatchCache::with_capacity(cap)));
        self
    }

    /// Apply a seed-data delta: `deletes` are strictly-ascending indices into
    /// the *current* seed dataset, `inserts` are records appended after the
    /// survivors (the canonical final-dataset order of
    /// `sgf_data::DatasetDelta::apply`).  Returns a new store equal — classes,
    /// member lists, projections, lookup array — to a from-scratch
    /// [`build`](PartitionIndexStore::build) on that final dataset, without
    /// re-grouping the survivors.
    ///
    /// If a [`ClassMatchCache`] is attached, the new store carries a cache
    /// with every resident row re-derived for the new class list: a row's
    /// boolean for a class is exactly "the class projection agrees with the
    /// key projection on the likelihood attributes" (see the cache docs), a
    /// pure function of the class structure, so warm rows stay warm and stay
    /// correct without touching the model.
    pub fn apply_delta(&self, deletes: &[usize], inserts: &[Record]) -> Result<Self, DataError> {
        let start = std::time::Instant::now();
        crate::store::validate_delete_indices(deletes, self.len)?;
        let survivors = self.len - deletes.len();
        if survivors + inserts.len() > u32::MAX as usize {
            return Err(DataError::InvalidParameter(
                "partition index supports at most u32::MAX seed records".into(),
            ));
        }
        if let Some(&max_attr) = self.attributes.last() {
            if let Some(short) = inserts.iter().find(|r| r.len() <= max_attr) {
                return Err(DataError::InvalidParameter(format!(
                    "inserted record has {} attributes but the key set needs {}",
                    short.len(),
                    max_attr + 1
                )));
            }
        }
        let w = self.attributes.len();
        // Remap surviving members (old index minus the number of deleted
        // indices below it) and drop deleted ones; empty classes disappear.
        // Survivor `s` came from old class `origin[s]` and owns
        // `kept[kept_offsets[s]..kept_offsets[s + 1]]`.
        const GONE: u32 = u32::MAX;
        let mut kept: Vec<u32> = Vec::with_capacity(survivors);
        let mut kept_offsets: Vec<u32> = vec![0];
        let mut origin: Vec<u32> = Vec::with_capacity(self.class_count());
        let survivor_of: Vec<u32> = (0..self.class_count())
            .map(|class| {
                kept.extend(
                    self.class_members(class)
                        .iter()
                        .filter(|&&idx| deletes.binary_search(&(idx as usize)).is_err())
                        .map(|&idx| idx - deletes.partition_point(|&d| d < idx as usize) as u32),
                );
                if kept.len() == *kept_offsets.last().expect("starts at 0") as usize {
                    return GONE;
                }
                origin.push(class as u32);
                kept_offsets.push(kept.len() as u32);
                origin.len() as u32 - 1
            })
            .collect();
        let surviving = origin.len();
        // Inserts land after the survivors, in delta order: each joins the
        // surviving class of its projection or opens a new one (numbered
        // after the survivors, in first-insert order).
        let mut opened: BTreeMap<Vec<u16>, u32> = BTreeMap::new();
        let mut opened_projections: Vec<u16> = Vec::new();
        let mut appended: Vec<(u32, u32)> = Vec::with_capacity(inserts.len());
        for (t, record) in inserts.iter().enumerate() {
            let idx = (survivors + t) as u32;
            let joined = self
                .find_class(record)
                .map(|class| survivor_of[class])
                .filter(|&s| s != GONE);
            let class = match joined {
                Some(s) => s,
                None => {
                    let projection: Vec<u16> =
                        self.attributes.iter().map(|&a| record.get(a)).collect();
                    let next = (surviving + opened.len()) as u32;
                    *opened.entry(projection).or_insert_with_key(|projection| {
                        opened_projections.extend_from_slice(projection);
                        next
                    })
                }
            };
            appended.push((class, idx));
        }
        // Stable: members of one class stay in (ascending) delta order.
        appended.sort_by_key(|&(class, _)| class);
        // Canonicalize to the from-scratch class order, ascending first
        // member.  Survivors can swap places when a representative was
        // deleted; opened classes start past every survivor, in the order
        // they were opened.
        let mut class_order: Vec<u32> = (0..surviving as u32).collect();
        class_order.sort_unstable_by_key(|&s| kept[kept_offsets[s as usize] as usize]);
        class_order.extend(surviving as u32..(surviving + opened.len()) as u32);
        let mut position = vec![0u32; class_order.len()];
        let mut members: Vec<u32> = Vec::with_capacity(survivors + inserts.len());
        let mut offsets: Vec<u32> = Vec::with_capacity(class_order.len() + 1);
        let mut projections: Vec<u16> = Vec::with_capacity(class_order.len() * w);
        offsets.push(0);
        for (pos, &id) in class_order.iter().enumerate() {
            let id = id as usize;
            position[id] = pos as u32;
            if id < surviving {
                members.extend_from_slice(
                    &kept[kept_offsets[id] as usize..kept_offsets[id + 1] as usize],
                );
                projections.extend_from_slice(self.projection(origin[id] as usize));
            } else {
                let opened = id - surviving;
                projections.extend_from_slice(&opened_projections[opened * w..(opened + 1) * w]);
            }
            let first = appended.partition_point(|&(class, _)| (class as usize) < id);
            let end = appended.partition_point(|&(class, _)| class as usize <= id);
            members.extend(appended[first..end].iter().map(|&(_, idx)| idx));
            offsets.push(members.len() as u32);
        }
        let mut lookup: Vec<(u64, u32)> = self
            .lookup
            .iter()
            .filter(|&&(_, class)| survivor_of[class as usize] != GONE)
            .map(|&(key, class)| (key, position[survivor_of[class as usize] as usize]))
            .collect();
        lookup.extend((surviving..class_order.len()).map(|id| {
            let start = (id - surviving) * w;
            let key = projection_key(opened_projections[start..start + w].iter().copied());
            (key, position[id])
        }));
        lookup.sort_unstable();
        let classes = class_order.len();
        let cache = self.cache.as_ref().map(|old| {
            let old_inner = old.locked();
            let mut inner = CacheInner {
                rows: BTreeMap::new(),
                order: old_inner.order.clone(),
                evictions: old_inner.evictions,
            };
            for (key, _) in old_inner.rows.iter() {
                let (likelihood, key_projection) = key;
                // Admission proved `likelihood ⊆ attributes`, so every
                // position resolves.
                let positions: Vec<usize> = likelihood
                    .iter()
                    .map(|a| self.attributes.binary_search(a).expect("covered key"))
                    .collect();
                let row: Vec<bool> = (0..classes)
                    .map(|class| {
                        let projection = &projections[class * w..(class + 1) * w];
                        positions
                            .iter()
                            .zip(key_projection.iter())
                            .all(|(&pos, &value)| projection[pos] == value)
                    })
                    .collect();
                inner.rows.insert(key.clone(), Arc::new(row));
            }
            drop(old_inner);
            Arc::new(ClassMatchCache {
                inner: Mutex::new(inner),
                cap: old.cap,
            })
        });
        let store = PartitionIndexStore {
            len: survivors + inserts.len(),
            attributes: self.attributes.clone(),
            members,
            offsets,
            projections,
            lookup,
            cache,
        };
        sgf_metrics::counter("index.partition.delta_applies").incr();
        sgf_metrics::timer("index.partition.apply_delta").observe(start.elapsed());
        Ok(store)
    }

    /// The attached class-match cache, if any.
    pub fn class_cache(&self) -> Option<&Arc<ClassMatchCache>> {
        self.cache.as_ref()
    }

    /// The key attribute set `A` (ascending, deduplicated).
    pub fn attributes(&self) -> &[usize] {
        &self.attributes
    }

    /// Number of distinct likelihood-equivalence classes.
    pub fn class_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Size of the largest equivalence class (0 for an empty store).
    pub fn largest_class(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Approximate heap footprint of the store's arrays (members, class
    /// offsets, projections, lookup), in bytes.
    pub fn member_bytes(&self) -> usize {
        self.members.len() * std::mem::size_of::<u32>()
            + self.offsets.len() * std::mem::size_of::<u32>()
            + self.projections.len() * std::mem::size_of::<u16>()
            + self.lookup.len() * std::mem::size_of::<(u64, u32)>()
    }

    /// Whether the store's classes are sound for a model whose generation
    /// probability is determined by the projection onto `likelihood`:
    /// requires `likelihood ⊆ A` (then agreement on `A` implies agreement on
    /// `likelihood`, hence identical probabilities within a class).
    pub fn covers(&self, likelihood: Option<&[usize]>) -> bool {
        likelihood.is_some_and(|l| l.iter().all(|a| self.attributes.binary_search(a).is_ok()))
    }

    /// Class `class`'s projection onto the key attributes.
    fn projection(&self, class: usize) -> &[u16] {
        let w = self.attributes.len();
        &self.projections[class * w..(class + 1) * w]
    }

    /// Class `class`'s ascending members.
    fn class_members(&self, class: usize) -> &[u32] {
        &self.members[self.offsets[class] as usize..self.offsets[class + 1] as usize]
    }

    /// The class whose projection equals `record`'s, if any: a binary search
    /// of the lookup array, no allocation.
    fn find_class(&self, record: &Record) -> Option<usize> {
        let values = || self.attributes.iter().map(|&a| record.get(a));
        let key = projection_key(values());
        let first = self.lookup.partition_point(|&(k, _)| k < key);
        self.lookup[first..]
            .iter()
            .take_while(|&&(k, _)| k == key)
            .map(|&(_, class)| class as usize)
            .find(|&class| self.projection(class).iter().copied().eq(values()))
    }

    /// The classes that can possibly contain plausible seeds for `candidate`,
    /// pruned on the exact-match attributes that fall inside the key set.
    fn pruned_classes<'s>(
        &'s self,
        candidate: &Record,
        match_attributes: Option<&[usize]>,
    ) -> ClassesState<'s> {
        let matched = match_attributes.unwrap_or(&[]);
        if self.attributes.iter().all(|a| matched.contains(a)) {
            // Every key attribute must agree exactly: at most the class with
            // the candidate's own projection can hold plausible seeds.
            let (next, end) = match self.find_class(candidate) {
                Some(class) => (class, class + 1),
                None => (0, 0),
            };
            return ClassesState {
                store: self,
                next,
                end,
                prune: Vec::new(),
            };
        }
        // Walk every class, skipping those that provably disagree with the
        // candidate on an exact-match attribute inside the key set.
        let prune: Vec<(usize, u16)> = self
            .attributes
            .iter()
            .enumerate()
            .filter(|(_, a)| matched.contains(a))
            .map(|(pos, &a)| (pos, candidate.get(a)))
            .collect();
        ClassesState {
            store: self,
            next: 0,
            end: self.class_count(),
            prune,
        }
    }
}

/// Equality on the *indexed structure* — length, key attributes, member
/// ranges, projections, and the lookup array.  The attached
/// [`ClassMatchCache`] is deliberately ignored: it is a performance artifact
/// whose residency depends on query history, never on what the store indexes.
impl PartialEq for PartitionIndexStore {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.attributes == other.attributes
            && self.members == other.members
            && self.offsets == other.offsets
            && self.projections == other.projections
            && self.lookup == other.lookup
    }
}

impl SeedStore for PartitionIndexStore {
    fn len(&self) -> usize {
        self.len
    }

    fn kind(&self) -> &'static str {
        "partition"
    }

    fn class_count(&self) -> Option<usize> {
        Some(PartitionIndexStore::class_count(self))
    }

    fn plausible_candidates<'s>(
        &'s self,
        candidate: &Record,
        match_attributes: Option<&[usize]>,
    ) -> CandidateIter<'s> {
        let Some(matched) = match_attributes else {
            return CandidateIter::All(0..self.len);
        };
        if !self.attributes.iter().any(|a| matched.contains(a)) && !self.attributes.is_empty() {
            // No exact-match attribute intersects the key set: the class
            // structure cannot prune anything, fall back to the full range.
            return CandidateIter::All(0..self.len);
        }
        CandidateIter::Classes(ClassCandidates {
            classes: self.pruned_classes(candidate, Some(matched)),
            current: [].iter(),
        })
    }

    fn likelihood_classes<'s>(
        &'s self,
        candidate: &Record,
        likelihood_attributes: Option<&[usize]>,
        match_attributes: Option<&[usize]>,
    ) -> Option<LikelihoodClasses<'s>> {
        if !self.covers(likelihood_attributes) {
            return None;
        }
        Some(LikelihoodClasses {
            state: self.pruned_classes(candidate, match_attributes),
        })
    }

    fn class_match_row(
        &self,
        candidate: &Record,
        likelihood_attributes: Option<&[usize]>,
        match_attributes: Option<&[usize]>,
        evaluate: &mut dyn FnMut(usize) -> bool,
    ) -> Option<ClassMatchLookup> {
        let cache = self.cache.as_ref()?;
        if !self.covers(likelihood_attributes) {
            // Without coverage there is no class fast path to serve.
            return None;
        }
        let likelihood = likelihood_attributes?;
        let matched = match_attributes?;
        // Soundness gate: the row is request-independent only when every
        // likelihood attribute is also exact-match guaranteed (`L ⊆ EM`, see
        // the [`ClassMatchCache`] docs).  Models without that property fall
        // back to per-request evaluation.
        if !likelihood.iter().all(|a| matched.contains(a)) {
            return None;
        }
        let mut key: Vec<usize> = likelihood.to_vec();
        key.sort_unstable();
        key.dedup();
        let projection: Vec<u16> = key.iter().map(|&a| candidate.get(a)).collect();
        Some(cache.fetch((key, projection), || {
            // Populate eagerly — one evaluation per class representative —
            // under the cache lock, so each distinct key is computed exactly
            // once while resident no matter how requests interleave.  The
            // closure is pure (no RNG, no shared state), so the extra
            // evaluations relative to the lazy walk change nothing
            // observable but time.
            Arc::new(
                (0..self.class_count())
                    .map(|class| evaluate(self.class_members(class)[0] as usize))
                    .collect(),
            )
        }))
    }
}

/// A class query's walk over a store: class positions `next..end`, skipping
/// classes whose projection disagrees with a `(projection position,
/// candidate value)` pair in `prune`.  A single-class lookup is the range of
/// that one class with nothing to prune.  Items carry the class position, so
/// cached match rows can be indexed.
#[derive(Debug)]
struct ClassesState<'a> {
    store: &'a PartitionIndexStore,
    next: usize,
    end: usize,
    prune: Vec<(usize, u16)>,
}

impl<'a> ClassesState<'a> {
    fn next_class(&mut self) -> Option<(usize, &'a [u32])> {
        let store = self.store;
        while self.next < self.end {
            let class = self.next;
            self.next += 1;
            let projection = store.projection(class);
            if self
                .prune
                .iter()
                .all(|&(pos, value)| projection[pos] == value)
            {
                return Some((class, store.class_members(class)));
            }
        }
        None
    }
}

/// Iterator over the likelihood-equivalence classes that may contain
/// plausible seeds for a candidate (see
/// [`SeedStore::likelihood_classes`]).  Each item carries a representative
/// record index (evaluate the model once on it) and the full ascending
/// member list (count with multiplicity).
#[derive(Debug)]
pub struct LikelihoodClasses<'a> {
    state: ClassesState<'a>,
}

/// One likelihood-equivalence class yielded by [`LikelihoodClasses`].
#[derive(Debug, Clone, Copy)]
pub struct LikelihoodClass<'a> {
    /// Position of this class in the store's class list; indexes the rows of
    /// the store's [`ClassMatchCache`] (see [`ClassMatchLookup`]).
    pub index: usize,
    /// Index of the class representative in the seed dataset; every member
    /// has the same generation probability as the representative for every
    /// candidate.
    pub representative: usize,
    /// Ascending seed-record indices of all class members (the multiplicity).
    pub members: &'a [u32],
}

impl<'a> Iterator for LikelihoodClasses<'a> {
    type Item = LikelihoodClass<'a>;

    fn next(&mut self) -> Option<LikelihoodClass<'a>> {
        self.state
            .next_class()
            .map(|(index, members)| LikelihoodClass {
                index,
                representative: members[0] as usize,
                members,
            })
    }
}

/// Member-expanding iterator behind the [`SeedStore::plausible_candidates`]
/// fallback of the partition store: yields the record indices of every class
/// surviving exact-match pruning, ascending within each class.
#[derive(Debug)]
pub struct ClassCandidates<'a> {
    classes: ClassesState<'a>,
    current: std::slice::Iter<'a, u32>,
}

impl Iterator for ClassCandidates<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if let Some(&idx) = self.current.next() {
                return Some(idx as usize);
            }
            self.current = self.classes.next_class()?.1.iter();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgf_data::{Attribute, Schema};
    use std::sync::Arc;

    fn dataset() -> Dataset {
        let schema = Arc::new(
            Schema::new(vec![
                Attribute::categorical_anon("A", 4),
                Attribute::categorical_anon("B", 6),
                Attribute::categorical_anon("C", 2),
            ])
            .unwrap(),
        );
        let rows: Vec<Record> = vec![
            Record::new(vec![0, 0, 0]),
            Record::new(vec![0, 1, 1]),
            Record::new(vec![1, 2, 0]),
            Record::new(vec![0, 0, 1]), // same (A, B) as record 0
            Record::new(vec![1, 2, 1]), // same (A, B) as record 2
            Record::new(vec![0, 0, 0]), // identical to record 0
        ];
        Dataset::from_records_unchecked(schema, rows)
    }

    #[test]
    fn build_groups_records_by_projection() {
        let data = dataset();
        let store = PartitionIndexStore::build(&data, &[1, 0]).unwrap();
        assert_eq!(store.len(), 6);
        assert_eq!(store.attributes(), &[0, 1]);
        // Projections (A, B): (0,0) x3, (0,1), (1,2) x2 -> 3 classes.
        assert_eq!(store.class_count(), 3);
        assert_eq!(store.largest_class(), 3);
        assert!(store.member_bytes() > 0);
    }

    #[test]
    fn build_rejects_out_of_range_attributes() {
        assert!(PartitionIndexStore::build(&dataset(), &[0, 7]).is_err());
    }

    #[test]
    fn covers_requires_subset_of_key_attributes() {
        let store = PartitionIndexStore::build(&dataset(), &[0, 1]).unwrap();
        assert!(store.covers(Some(&[0])));
        assert!(store.covers(Some(&[1, 0])));
        assert!(store.covers(Some(&[])));
        assert!(!store.covers(Some(&[2])));
        assert!(!store.covers(None));
    }

    #[test]
    fn single_class_lookup_when_key_is_exact_matched() {
        let store = PartitionIndexStore::build(&dataset(), &[0, 1]).unwrap();
        let y = Record::new(vec![0, 0, 1]);
        let classes: Vec<_> = store
            .likelihood_classes(&y, Some(&[0, 1]), Some(&[0, 1]))
            .unwrap()
            .collect();
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].index, 0);
        assert_eq!(classes[0].representative, 0);
        assert_eq!(classes[0].members, &[0, 3, 5]);
        // A projection no seed has: no class at all.
        let missing = Record::new(vec![3, 5, 0]);
        assert_eq!(
            store
                .likelihood_classes(&missing, Some(&[0, 1]), Some(&[0, 1]))
                .unwrap()
                .count(),
            0
        );
    }

    #[test]
    fn walk_prunes_on_exact_match_attributes_only() {
        let store = PartitionIndexStore::build(&dataset(), &[0, 1]).unwrap();
        let y = Record::new(vec![0, 9, 9]);
        // Likelihood covered, but only attribute 0 is exact-matched: every
        // class with A == 0 survives, in first-seen order.
        let classes: Vec<_> = store
            .likelihood_classes(&y, Some(&[0]), Some(&[0]))
            .unwrap()
            .collect();
        let reps: Vec<usize> = classes.iter().map(|c| c.representative).collect();
        assert_eq!(reps, vec![0, 1]);
        let indices: Vec<usize> = classes.iter().map(|c| c.index).collect();
        assert_eq!(indices, vec![0, 1]);
        // No exact-match guarantee at all: every class is yielded.
        let all = store.likelihood_classes(&y, Some(&[0]), None).unwrap();
        assert_eq!(all.count(), 3);
    }

    #[test]
    fn uncovered_likelihood_returns_none() {
        let store = PartitionIndexStore::build(&dataset(), &[0, 1]).unwrap();
        let y = Record::new(vec![0, 0, 0]);
        assert!(store.likelihood_classes(&y, Some(&[0, 2]), None).is_none());
        assert!(store.likelihood_classes(&y, None, Some(&[0])).is_none());
    }

    #[test]
    fn empty_key_set_collapses_everything_into_one_class() {
        let store = PartitionIndexStore::build(&dataset(), &[]).unwrap();
        assert_eq!(store.class_count(), 1);
        let y = Record::new(vec![3, 5, 1]);
        let classes: Vec<_> = store
            .likelihood_classes(&y, Some(&[]), None)
            .unwrap()
            .collect();
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].members.len(), 6);
    }

    #[test]
    fn plausible_candidates_expands_surviving_classes() {
        let store = PartitionIndexStore::build(&dataset(), &[0, 1]).unwrap();
        let y = Record::new(vec![0, 0, 0]);
        // Full key exact-matched: exactly the (0, 0) class members.
        let got: Vec<usize> = store.plausible_candidates(&y, Some(&[0, 1])).collect();
        assert_eq!(got, vec![0, 3, 5]);
        // Partial overlap: every record agreeing on A == 0.
        let partial: Vec<usize> = store.plausible_candidates(&y, Some(&[0, 2])).collect();
        assert_eq!(partial, vec![0, 3, 5, 1]);
        // Disjoint from the key set, or no guarantee: everything.
        assert!(!store.plausible_candidates(&y, Some(&[2])).is_filtered());
        assert!(!store.plausible_candidates(&y, None).is_filtered());
        assert_eq!(store.plausible_candidates(&y, Some(&[2])).count(), 6);
    }

    #[test]
    fn two_builds_enumerate_classes_identically() {
        // Determinism regression (R2): every traversal of the store — class
        // enumeration, representative choice, member expansion — must be
        // identical across two builds from the same dataset.  The class list
        // is first-seen ordered and the lookup array is sorted on a fixed
        // key function, so nothing here may depend on hash iteration order.
        let data = dataset();
        let a = PartitionIndexStore::build(&data, &[0, 1]).unwrap();
        let b = PartitionIndexStore::build(&data, &[0, 1]).unwrap();
        let y = Record::new(vec![0, 9, 9]);
        let enumerate = |s: &PartitionIndexStore| -> Vec<(usize, Vec<u32>)> {
            s.likelihood_classes(&y, Some(&[0]), None)
                .unwrap()
                .map(|c| (c.representative, c.members.to_vec()))
                .collect()
        };
        assert_eq!(enumerate(&a), enumerate(&b));
        let expand = |s: &PartitionIndexStore| -> Vec<usize> {
            s.plausible_candidates(&y, Some(&[0])).collect()
        };
        assert_eq!(expand(&a), expand(&b));
    }

    #[test]
    fn class_match_rows_are_shared_and_projection_keyed() {
        let store = PartitionIndexStore::build(&dataset(), &[0, 1])
            .unwrap()
            .with_class_cache();
        let cache = Arc::clone(store.class_cache().unwrap());
        let y = Record::new(vec![0, 0, 1]);
        let mut evals = 0usize;
        let lookup = store
            .class_match_row(&y, Some(&[0, 1]), Some(&[0, 1]), &mut |rep| {
                evals += 1;
                rep == 0
            })
            .unwrap();
        assert!(!lookup.hit, "first projection must miss");
        assert_eq!(evals, store.class_count(), "miss populates the full row");
        assert_eq!(lookup.row.as_slice(), &[true, false, false]);
        assert_eq!(cache.rows(), 1);
        // Same projection again: served from the cache, zero evaluations.
        let mut again = 0usize;
        let cached = store
            .class_match_row(&y, Some(&[0, 1]), Some(&[0, 1]), &mut |_| {
                again += 1;
                false
            })
            .unwrap();
        assert!(cached.hit);
        assert_eq!(again, 0, "hits never re-evaluate");
        assert_eq!(cached.row.as_slice(), lookup.row.as_slice());
        // A different projection is a different row.
        let other = Record::new(vec![1, 2, 0]);
        let miss = store
            .class_match_row(&other, Some(&[0, 1]), Some(&[0, 1]), &mut |rep| rep == 2)
            .unwrap();
        assert!(!miss.hit);
        assert_eq!(cache.rows(), 2);
        // Clones share the cache: a clone's lookup hits the warmed row.
        let clone = store.clone();
        assert!(
            clone
                .class_match_row(&y, Some(&[0, 1]), Some(&[0, 1]), &mut |_| false)
                .unwrap()
                .hit
        );
    }

    #[test]
    fn class_match_row_gates_on_cache_and_guarantees() {
        let data = dataset();
        let plain = PartitionIndexStore::build(&data, &[0, 1]).unwrap();
        let y = Record::new(vec![0, 0, 0]);
        let mut noop = |_: usize| true;
        // No cache attached.
        assert!(plain
            .class_match_row(&y, Some(&[0]), Some(&[0]), &mut noop)
            .is_none());
        let cached = plain.clone().with_class_cache();
        // Likelihood not covered by the key set: no class fast path at all.
        assert!(cached
            .class_match_row(&y, Some(&[2]), Some(&[2]), &mut noop)
            .is_none());
        // Likelihood not contained in the exact-match set: row would be
        // seed-dependent, must not be cached.
        assert!(cached
            .class_match_row(&y, Some(&[0, 1]), Some(&[0]), &mut noop)
            .is_none());
        assert!(cached
            .class_match_row(&y, Some(&[0]), None, &mut noop)
            .is_none());
        assert!(cached
            .class_match_row(&y, None, Some(&[0]), &mut noop)
            .is_none());
        // Duplicate/unsorted likelihood sets normalize to one canonical key.
        assert!(
            !cached
                .class_match_row(&y, Some(&[1, 0, 1]), Some(&[0, 1]), &mut noop)
                .unwrap()
                .hit
        );
        assert_eq!(cached.class_cache().unwrap().rows(), 1);
        assert!(
            cached
                .class_match_row(&y, Some(&[0, 1]), Some(&[1, 0]), &mut noop)
                .unwrap()
                .hit
        );
    }

    /// The canonical final dataset of a delta: survivors in order, then
    /// inserts (mirrors `sgf_data::DatasetDelta::apply`).
    fn final_dataset(base: &Dataset, deletes: &[usize], inserts: &[Record]) -> Dataset {
        let mut rows: Vec<Record> = base
            .records()
            .iter()
            .enumerate()
            .filter(|(i, _)| !deletes.contains(i))
            .map(|(_, r)| r.clone())
            .collect();
        rows.extend(inserts.iter().cloned());
        Dataset::from_records_unchecked(base.schema_arc(), rows)
    }

    /// Structural fingerprint: key attributes plus every class in order.
    #[allow(clippy::type_complexity)]
    fn shape(store: &PartitionIndexStore) -> (Vec<usize>, Vec<(Vec<u16>, Vec<u32>)>) {
        (
            store.attributes().to_vec(),
            (0..store.class_count())
                .map(|c| {
                    (
                        store.projection(c).to_vec(),
                        store.class_members(c).to_vec(),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn apply_delta_matches_a_fresh_build() {
        let data = dataset();
        let store = PartitionIndexStore::build(&data, &[0, 1]).unwrap();
        let cases: Vec<(Vec<usize>, Vec<Record>)> = vec![
            // Delete a whole class (record 1 is the only (0,1) member) plus a
            // representative (record 0), insert one old and one new projection.
            (
                vec![0, 1],
                vec![Record::new(vec![1, 2, 0]), Record::new(vec![3, 3, 1])],
            ),
            // Pure deletes, including a full-class removal.
            (vec![2, 4], vec![]),
            // Pure inserts.
            (vec![], vec![Record::new(vec![0, 0, 1])]),
            // Empty delta.
            (vec![], vec![]),
            // Full replacement.
            (
                (0..6).collect(),
                vec![Record::new(vec![2, 5, 0]), Record::new(vec![2, 5, 1])],
            ),
        ];
        for (deletes, inserts) in cases {
            let updated = store.apply_delta(&deletes, &inserts).unwrap();
            let fresh =
                PartitionIndexStore::build(&final_dataset(&data, &deletes, &inserts), &[0, 1])
                    .unwrap();
            assert_eq!(
                updated,
                fresh,
                "delta {deletes:?}/+{} must equal a fresh build",
                inserts.len()
            );
            assert_eq!(shape(&updated), shape(&fresh));
            assert_eq!(updated.lookup, fresh.lookup);
        }
    }

    #[test]
    fn apply_delta_revives_a_deleted_projection_as_a_new_class() {
        let data = dataset();
        let store = PartitionIndexStore::build(&data, &[0, 1]).unwrap();
        // Record 1 is the only (0, 1) member: deleting it drops the class,
        // and re-inserting the projection opens it again, last in order.
        let inserts = vec![Record::new(vec![0, 1, 0]), Record::new(vec![0, 1, 1])];
        let updated = store.apply_delta(&[1], &inserts).unwrap();
        let fresh =
            PartitionIndexStore::build(&final_dataset(&data, &[1], &inserts), &[0, 1]).unwrap();
        assert_eq!(updated, fresh);
        assert_eq!(shape(&updated).1[2], (vec![0, 1], vec![5, 6]));
    }

    #[test]
    fn delta_chains_match_fresh_builds_on_many_classes() {
        // A deterministic pseudo-random population with hundreds of classes,
        // spliced through a chain of mixed deltas; every step must equal a
        // fresh build and find each of its classes by projection.
        let schema = Arc::new(
            Schema::new(vec![
                Attribute::categorical_anon("A", 17),
                Attribute::categorical_anon("B", 13),
                Attribute::categorical_anon("C", 3),
            ])
            .unwrap(),
        );
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut draw = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound) as u16
        };
        let mut record = || Record::new(vec![draw(17), draw(13), draw(3)]);
        let rows: Vec<Record> = (0..600).map(|_| record()).collect();
        let mut data = Dataset::from_records_unchecked(Arc::clone(&schema), rows);
        let mut store = PartitionIndexStore::build(&data, &[0, 1]).unwrap();
        assert!(store.class_count() > 150);
        for step in 0..12 {
            let deletes: Vec<usize> = (0..data.len()).filter(|i| i % 37 == step).collect();
            let inserts: Vec<Record> = (0..step * 5).map(|_| record()).collect();
            store = store.apply_delta(&deletes, &inserts).unwrap();
            data = final_dataset(&data, &deletes, &inserts);
            let fresh = PartitionIndexStore::build(&data, &[0, 1]).unwrap();
            assert_eq!(store, fresh, "step {step}");
            for class in 0..store.class_count() {
                let rep = store.class_members(class)[0] as usize;
                assert_eq!(store.find_class(&data.records()[rep]), Some(class));
            }
        }
    }

    #[test]
    fn builds_are_counted_per_thread() {
        let data = dataset();
        let before = PartitionIndexStore::thread_build_count();
        let store = PartitionIndexStore::build(&data, &[0]).unwrap();
        store.apply_delta(&[0], &[]).unwrap();
        assert_eq!(PartitionIndexStore::thread_build_count(), before + 1);
        let elsewhere = std::thread::spawn(PartitionIndexStore::thread_build_count)
            .join()
            .unwrap();
        assert_eq!(elsewhere, 0, "a fresh thread has built nothing");
    }

    #[test]
    fn apply_delta_rebuilds_cached_rows_for_the_new_classes() {
        let data = dataset();
        let store = PartitionIndexStore::build(&data, &[0, 1])
            .unwrap()
            .with_class_cache();
        // Warm two rows with the real evaluator shape (projection match).
        for y in [Record::new(vec![0, 0, 1]), Record::new(vec![1, 2, 0])] {
            store
                .class_match_row(&y, Some(&[0, 1]), Some(&[0, 1]), &mut |rep| {
                    data.records()[rep].get(0) == y.get(0) && data.records()[rep].get(1) == y.get(1)
                })
                .unwrap();
        }
        // Delete the whole (0,1) class and one (0,0) member; add a (1,2) and
        // a brand-new (3,3) record.
        let deletes = vec![0, 1];
        let inserts = vec![Record::new(vec![1, 2, 1]), Record::new(vec![3, 3, 0])];
        let updated = store.apply_delta(&deletes, &inserts).unwrap();
        let cache = Arc::clone(updated.class_cache().unwrap());
        assert_eq!(cache.rows(), 2, "resident rows survive the delta");
        let fresh = PartitionIndexStore::build(&final_dataset(&data, &deletes, &inserts), &[0, 1])
            .unwrap()
            .with_class_cache();
        // Every carried row must be bit-identical to what a fresh store
        // computes for the same key — and must be served as a hit.
        for y in [Record::new(vec![0, 0, 1]), Record::new(vec![1, 2, 0])] {
            let evaluate = |store: &PartitionIndexStore, rep: usize| {
                let record = &final_dataset(&data, &deletes, &inserts).records()[rep].clone();
                let _ = store;
                record.get(0) == y.get(0) && record.get(1) == y.get(1)
            };
            let carried = updated
                .class_match_row(&y, Some(&[0, 1]), Some(&[0, 1]), &mut |rep| {
                    evaluate(&updated, rep)
                })
                .unwrap();
            assert!(carried.hit, "warm row must survive as a hit");
            let rebuilt = fresh
                .class_match_row(&y, Some(&[0, 1]), Some(&[0, 1]), &mut |rep| {
                    evaluate(&fresh, rep)
                })
                .unwrap();
            assert_eq!(carried.row.as_slice(), rebuilt.row.as_slice());
        }
    }

    #[test]
    fn apply_delta_rejects_malformed_input() {
        let store = PartitionIndexStore::build(&dataset(), &[0, 1]).unwrap();
        assert!(store.apply_delta(&[6], &[]).is_err());
        assert!(store.apply_delta(&[3, 1], &[]).is_err());
        assert!(store.apply_delta(&[2, 2], &[]).is_err());
        // Inserted record too short for the key set.
        assert!(store.apply_delta(&[], &[Record::new(vec![0])]).is_err());
    }

    #[test]
    fn class_cache_evicts_oldest_rows_at_the_cap() {
        let store = PartitionIndexStore::build(&dataset(), &[0, 1])
            .unwrap()
            .with_class_cache_capacity(2);
        let cache = Arc::clone(store.class_cache().unwrap());
        assert_eq!(cache.capacity(), 2);
        let lookup = |y: &Record| {
            store
                .class_match_row(y, Some(&[0, 1]), Some(&[0, 1]), &mut |rep| rep == 0)
                .unwrap()
                .hit
        };
        let first = Record::new(vec![0, 0, 0]);
        let second = Record::new(vec![0, 1, 0]);
        let third = Record::new(vec![1, 2, 0]);
        assert!(!lookup(&first));
        assert!(!lookup(&second));
        assert_eq!(cache.rows(), 2);
        assert_eq!(cache.evictions(), 0);
        // A third projection evicts the oldest-inserted row (`first`).
        assert!(!lookup(&third));
        assert_eq!(cache.rows(), 2);
        assert_eq!(cache.evictions(), 1);
        // `second` and `third` are resident; `first` was evicted and must be
        // recomputed — which in turn evicts `second`, the now-oldest row.
        assert!(lookup(&second));
        assert!(lookup(&third));
        assert!(!lookup(&first));
        assert_eq!(cache.rows(), 2);
        assert_eq!(cache.evictions(), 2);
        // Hits never advance the FIFO: after re-admitting `first`, the
        // resident set is {third, first} regardless of the hits above.
        assert!(lookup(&third));
        assert!(lookup(&first));
        assert!(!lookup(&second));
        assert_eq!(cache.evictions(), 3);
    }

    #[test]
    fn duplicate_and_unsorted_attributes_are_normalized() {
        let data = dataset();
        let a = PartitionIndexStore::build(&data, &[1, 0, 1]).unwrap();
        let b = PartitionIndexStore::build(&data, &[0, 1]).unwrap();
        assert_eq!(a.attributes(), b.attributes());
        assert_eq!(a.class_count(), b.class_count());
    }
}
