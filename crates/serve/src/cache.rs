//! The MPS encoding cache: quantized feature keys over an intrusive LRU.
//!
//! Simulating a query point's circuit dominates inference cost (~2 s at
//! 165 qubits in the paper, against ~0.02 s for a full kernel row), so
//! the serving layer caches the *encoding* — the simulated [`Mps`] — and
//! re-runs only the cheap inner-product phase for repeated points.
//! Keys are feature vectors quantized to a grid
//! (`round(x * scale)` per coordinate): exact duplicates always hit, and
//! near-duplicates within half a grid step share one encoding. That is a
//! deliberate approximation — see DESIGN.md's serving section for the
//! trade-off — and the scale knob turns it off in the limit.
//!
//! Keys also carry the registry's *encoding epoch*: a hot-swap to a
//! model with a different ansatz or truncation bumps the epoch, so stale
//! encodings can never serve the new model.

use qk_mps::Mps;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;

/// Cache key: encoding epoch plus the quantized feature vector.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    epoch: u64,
    grid: Vec<i64>,
}

impl CacheKey {
    /// The encoding epoch this key was minted under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// Maps feature vectors onto the cache-key grid.
#[derive(Debug, Clone, Copy)]
pub struct Quantizer {
    scale: f64,
}

impl Quantizer {
    /// A quantizer with the given grid scale (points per unit feature).
    pub fn new(scale: f64) -> Self {
        assert!(scale > 0.0, "quantization scale must be positive");
        Quantizer { scale }
    }

    /// The cache key of a feature vector under the given encoding epoch.
    pub fn key(&self, epoch: u64, features: &[f64]) -> CacheKey {
        CacheKey {
            epoch,
            grid: features
                .iter()
                .map(|&x| (x * self.scale).round() as i64)
                .collect(),
        }
    }
}

/// Counters describing cache behaviour since server start.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct CacheStats {
    /// Lookups that found a cached encoding.
    pub hits: u64,
    /// Lookups that missed (each miss costs one circuit simulation).
    pub misses: u64,
    /// Entries evicted to respect the capacity/byte budgets.
    pub evictions: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently resident (MPS tensors plus key/bookkeeping).
    pub bytes: usize,
}

impl CacheStats {
    /// Fraction of lookups served from cache (0 when no lookups ran).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const NIL: usize = usize::MAX;

struct Slot {
    key: CacheKey,
    /// `None` only while the slot sits on the free list: eviction drops
    /// the tensors immediately so the byte budget bounds real resident
    /// memory, not just live-entry accounting.
    state: Option<Arc<Mps>>,
    bytes: usize,
    prev: usize,
    next: usize,
}

/// An LRU cache of simulated encodings with entry and byte budgets.
///
/// Eviction is O(1) per entry via an intrusive doubly-linked recency
/// list threaded through a slot arena; lookups are a `HashMap` probe
/// plus a list splice.
pub struct EncodingCache {
    map: HashMap<CacheKey, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Most-recently-used slot.
    head: usize,
    /// Least-recently-used slot (eviction end).
    tail: usize,
    capacity: usize,
    max_bytes: Option<usize>,
    bytes: usize,
    /// Keys minted under an epoch below this are dead (a deploy changed
    /// the encoding parameters) and must not be (re-)inserted.
    min_epoch: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    insertions: u64,
}

impl EncodingCache {
    /// A cache bounded by `capacity` entries and optionally `max_bytes`
    /// resident bytes. `capacity` 0 disables the cache: every lookup
    /// misses and inserts are dropped.
    pub fn new(capacity: usize, max_bytes: Option<usize>) -> Self {
        EncodingCache {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            max_bytes,
            bytes: 0,
            min_epoch: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            insertions: 0,
        }
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up a cached encoding, refreshing its recency on a hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<Mps>> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.hits += 1;
                self.detach(idx);
                self.push_front(idx);
                Some(Arc::clone(
                    self.slots[idx].state.as_ref().expect("resident slot"),
                ))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly simulated encoding, evicting from the LRU end
    /// until the entry and byte budgets hold again. Entries that alone
    /// exceed the byte budget, and entries minted under a retired
    /// encoding epoch (a worker finishing an old-version batch after a
    /// deploy), are dropped instead — the byte budget is a hard cap and
    /// dead epochs never occupy it.
    pub fn insert(&mut self, key: CacheKey, state: Arc<Mps>) {
        if self.capacity == 0 || key.epoch < self.min_epoch {
            return;
        }
        if let Some(&idx) = self.map.get(&key) {
            // Duplicate insert from a concurrent miss on another worker:
            // keep the resident entry, just refresh recency.
            self.detach(idx);
            self.push_front(idx);
            return;
        }
        let entry_bytes = entry_bytes(&key, &state);
        if self.max_bytes.is_some_and(|b| entry_bytes > b) {
            return;
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = Slot {
                    key: key.clone(),
                    state: Some(state),
                    bytes: entry_bytes,
                    prev: NIL,
                    next: NIL,
                };
                idx
            }
            None => {
                self.slots.push(Slot {
                    key: key.clone(),
                    state: Some(state),
                    bytes: entry_bytes,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        self.bytes += entry_bytes;
        self.insertions += 1;
        self.enforce_budgets();
    }

    fn enforce_budgets(&mut self) {
        // Oversized single entries are rejected in insert(), so this
        // loop always terminates with the budgets actually met.
        while self.map.len() > self.capacity || self.max_bytes.is_some_and(|b| self.bytes > b) {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.detach(victim);
            self.bytes -= self.slots[victim].bytes;
            // Drop the tensors now — a parked free slot must not keep
            // megabytes of MPS data alive past the byte budget.
            self.slots[victim].state = None;
            let key = self.slots[victim].key.clone();
            self.map.remove(&key);
            self.free.push(victim);
            self.evictions += 1;
        }
    }

    /// Drops every entry (the registry calls this on an encoding-epoch
    /// bump so dead-epoch states free their memory immediately).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.bytes = 0;
    }

    /// Flushes the cache and refuses all future inserts keyed under an
    /// epoch below `epoch` — closes the race where a worker finishing a
    /// batch on the old model version inserts after the deploy's flush.
    pub fn retire_epochs_below(&mut self, epoch: u64) {
        self.min_epoch = self.min_epoch.max(epoch);
        self.clear();
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            insertions: self.insertions,
            entries: self.map.len(),
            bytes: self.bytes,
        }
    }
}

/// Resident size of one entry: what a simulated state holds on the heap
/// (its amplitude buffer and its `m + 1` bond dimensions), the key grid,
/// and a fixed allowance for map/list bookkeeping.
fn entry_bytes(key: &CacheKey, state: &Mps) -> usize {
    let bonds = (state.num_qubits() + 1) * std::mem::size_of::<usize>();
    state.memory_bytes() + bonds + key.grid.len() * std::mem::size_of::<i64>() + 64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(qubits: usize) -> Arc<Mps> {
        Arc::new(Mps::plus_state(qubits))
    }

    #[test]
    fn quantizer_merges_near_duplicates() {
        let q = Quantizer::new(1e3);
        let a = q.key(1, &[0.5, 1.0]);
        let near = q.key(1, &[0.5 + 2e-4, 1.0 - 2e-4]);
        let far = q.key(1, &[0.5 + 2e-3, 1.0]);
        assert_eq!(a, near, "within half a grid step");
        assert_ne!(a, far, "beyond a grid step");
        assert_ne!(a, q.key(2, &[0.5, 1.0]), "epochs must not collide");
    }

    #[test]
    fn hit_miss_and_recency() {
        let q = Quantizer::new(1e6);
        let mut cache = EncodingCache::new(2, None);
        let (ka, kb, kc) = (q.key(1, &[0.1]), q.key(1, &[0.2]), q.key(1, &[0.3]));
        assert!(cache.get(&ka).is_none());
        cache.insert(ka.clone(), state(3));
        cache.insert(kb.clone(), state(3));
        // Touch A so B becomes the LRU victim.
        assert!(cache.get(&ka).is_some());
        cache.insert(kc.clone(), state(3));
        assert!(cache.get(&kb).is_none(), "LRU entry must be evicted");
        assert!(cache.get(&ka).is_some());
        assert!(cache.get(&kc).is_some());
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.insertions, 3);
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 2);
        assert!((s.hit_rate() - 3.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn entry_charges_the_heap_a_state_holds() {
        // qk-mps's `tests/state_heap.rs` pins a simulated state's heap at
        // `memory_bytes() + 8 (m + 1) + 64` bytes at most: an entry
        // charges that bound plus its key.
        use qk_circuit::ansatz::{feature_map_circuit, AnsatzConfig};
        let m = 32;
        let features: Vec<f64> = (0..m).map(|i| 0.1 + 1.8 * i as f64 / m as f64).collect();
        let circuit = feature_map_circuit(&features, &AnsatzConfig::new(2, 1, 0.5));
        let backend = qk_tensor::backend::CpuBackend::new();
        let (state, _) = qk_mps::MpsSimulator::new(&backend).simulate(&circuit);
        assert!(state.max_bond() > 1);
        let key = Quantizer::new(1e3).key(1, &features);
        let bound = state.memory_bytes() + 8 * (m + 1) + 64;
        assert_eq!(entry_bytes(&key, &state), bound + 8 * key.grid.len());
    }

    #[test]
    fn byte_budget_evicts() {
        let q = Quantizer::new(1e6);
        let per_entry = entry_bytes(&q.key(1, &[0.0]), &state(4));
        let mut cache = EncodingCache::new(100, Some(per_entry * 2));
        for i in 0..5 {
            cache.insert(q.key(1, &[i as f64]), state(4));
        }
        let s = cache.stats();
        assert_eq!(s.entries, 2, "byte budget holds two entries");
        assert!(s.bytes <= per_entry * 2);
        assert_eq!(s.evictions, 3);
    }

    #[test]
    fn oversized_entry_is_rejected_not_resident() {
        let q = Quantizer::new(1e6);
        let per_entry = entry_bytes(&q.key(1, &[0.0]), &state(4));
        let mut cache = EncodingCache::new(100, Some(per_entry - 1));
        cache.insert(q.key(1, &[0.0]), state(4));
        assert!(cache.is_empty(), "byte budget is a hard cap");
        assert_eq!(cache.stats().bytes, 0);
    }

    #[test]
    fn retired_epochs_cannot_reenter() {
        let q = Quantizer::new(1e6);
        let mut cache = EncodingCache::new(8, None);
        cache.insert(q.key(1, &[0.1]), state(3));
        cache.retire_epochs_below(2);
        assert!(cache.is_empty(), "retire flushes");
        // A straggler worker finishing an old-version batch.
        cache.insert(q.key(1, &[0.2]), state(3));
        assert!(cache.is_empty(), "dead epoch must not re-enter");
        cache.insert(q.key(2, &[0.2]), state(3));
        assert_eq!(cache.len(), 1, "current epoch still caches");
    }

    #[test]
    fn zero_capacity_disables() {
        let q = Quantizer::new(1e6);
        let mut cache = EncodingCache::new(0, None);
        cache.insert(q.key(1, &[0.1]), state(2));
        assert!(cache.is_empty());
        assert!(cache.get(&q.key(1, &[0.1])).is_none());
        assert_eq!(cache.stats().insertions, 0);
    }

    #[test]
    fn duplicate_insert_keeps_single_entry() {
        let q = Quantizer::new(1e6);
        let mut cache = EncodingCache::new(4, None);
        let k = q.key(1, &[0.7]);
        cache.insert(k.clone(), state(3));
        let bytes = cache.stats().bytes;
        cache.insert(k.clone(), state(3));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().bytes, bytes, "no double accounting");
    }

    #[test]
    fn clear_resets_contents_but_not_counters() {
        let q = Quantizer::new(1e6);
        let mut cache = EncodingCache::new(4, None);
        cache.insert(q.key(1, &[0.1]), state(2));
        assert!(cache.get(&q.key(1, &[0.1])).is_some());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().bytes, 0);
        let s = cache.stats();
        assert_eq!(s.hits, 1, "history survives a flush");
    }

    #[test]
    fn eviction_drops_the_tensors_immediately() {
        let q = Quantizer::new(1e6);
        let mut cache = EncodingCache::new(1, None);
        let held = state(5);
        cache.insert(q.key(1, &[0.1]), Arc::clone(&held));
        assert_eq!(Arc::strong_count(&held), 2);
        // Inserting a second entry evicts the first; the parked free
        // slot must not keep the evicted state alive.
        cache.insert(q.key(1, &[0.2]), state(5));
        assert_eq!(
            Arc::strong_count(&held),
            1,
            "evicted slot still holds the Arc"
        );
    }

    #[test]
    fn eviction_slots_are_reused() {
        let q = Quantizer::new(1e6);
        let mut cache = EncodingCache::new(2, None);
        for i in 0..50 {
            cache.insert(q.key(1, &[i as f64]), state(2));
        }
        assert_eq!(cache.len(), 2);
        assert!(
            cache.slots.len() <= 3,
            "arena must recycle evicted slots, got {}",
            cache.slots.len()
        );
    }
}
