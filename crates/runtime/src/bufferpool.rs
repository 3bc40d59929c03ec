//! SystemML-style buffer pool for matrix variables.
//!
//! The CP runtime "pins inputs and outputs into memory in order to prevent
//! repeated deserialization" (§2.1). The pool holds matrix variables up to
//! a byte capacity (the CP memory budget); when a new entry does not fit,
//! least-recently-used entries are *evicted* to simulated local disk. The
//! entry just written or restored is never the victim, and an evicted
//! entry keeps its data (only the disk round trip is simulated), so an
//! operand read by reference right after its restore stays valid without
//! explicit pin state. Eviction/restore byte counters are the ground truth the
//! discrete-event simulator charges extra IO time for — reproducing the
//! paper's observation that buffer-pool evictions are a source of
//! cost-model suboptimality (§5, "Sources of suboptimality").
//!
//! Entries also track a *dirty* flag (in-memory state differs from HDFS),
//! which drives both `write()` elision and the migration cost model
//! (§4.1: "we write all dirty variables").
//!
//! ## Slots
//!
//! Internally the pool is a *slot arena*: each name resolves once (via
//! [`BufferPool::resolve_slot`]) to a stable [`SlotId`] — an index into a
//! `Vec` — and every subsequent access is an array index instead of a
//! string-keyed map lookup. The bytecode VM resolves all program
//! variables to slots at load time and then runs name-free; only
//! inspection ([`BufferPool::peek`], [`BufferPool::variables`]) goes by
//! name. Slots are never reused: removing a variable clears the slot's
//! entry but keeps the `SlotId` valid for later re-`put`s.

use std::collections::HashMap;

use reml_matrix::Matrix;

/// Eviction and restore accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Number of evictions performed.
    pub evictions: u64,
    /// Bytes written to local disk by evictions.
    pub bytes_evicted: u64,
    /// Number of restores of previously evicted entries.
    pub restores: u64,
    /// Bytes read back from local disk by restores.
    pub bytes_restored: u64,
}

/// Stable handle of a pool variable: an index into the slot arena,
/// assigned by [`BufferPool::resolve_slot`] and valid for the lifetime of
/// the pool (slots are not reused after `remove`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId(u32);

impl SlotId {
    /// The arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
struct Entry {
    data: Matrix,
    /// In memory (true) or evicted to local disk (false).
    in_memory: bool,
    /// Differs from its HDFS representation.
    dirty: bool,
    /// LRU clock.
    last_use: u64,
}

#[derive(Debug, Clone)]
struct Slot {
    name: String,
    entry: Option<Entry>,
}

/// A capacity-bounded pool of named matrix variables.
#[derive(Debug, Clone)]
pub struct BufferPool {
    capacity_bytes: u64,
    slots: Vec<Slot>,
    index: HashMap<String, u32>,
    /// Bytes of in-memory entries, maintained incrementally so hot paths
    /// (every put) need no full arena scan.
    resident_bytes: u64,
    clock: u64,
    stats: BufferPoolStats,
}

impl BufferPool {
    /// Pool with the given capacity in bytes.
    pub fn new(capacity_bytes: u64) -> Self {
        BufferPool {
            capacity_bytes,
            slots: Vec::new(),
            index: HashMap::new(),
            resident_bytes: 0,
            clock: 0,
            stats: BufferPoolStats::default(),
        }
    }

    /// The capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Resize the pool (§4.1 AM migration to a differently sized
    /// container). Takes effect at the next write or restore.
    pub fn set_capacity_bytes(&mut self, capacity_bytes: u64) {
        self.capacity_bytes = capacity_bytes;
    }

    /// Bytes of in-memory (non-evicted) entries.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    // ------------------------------------------------------------------
    // Slot API — the VM's name-free fast path.
    // ------------------------------------------------------------------

    /// Resolve a name to its stable slot, allocating one on first use.
    /// One hash-map pass (entry API); every later access by [`SlotId`]
    /// is a plain array index.
    pub fn resolve_slot(&mut self, name: impl Into<String>) -> SlotId {
        let name = name.into();
        let next = self.slots.len() as u32;
        let slots = &mut self.slots;
        let id = *self.index.entry(name).or_insert_with_key(|key| {
            slots.push(Slot {
                name: key.clone(),
                entry: None,
            });
            next
        });
        SlotId(id)
    }

    /// The slot of a name, if already resolved.
    pub fn slot_of(&self, name: &str) -> Option<SlotId> {
        self.index.get(name).copied().map(SlotId)
    }

    /// The name a slot was resolved from.
    pub fn slot_name(&self, slot: SlotId) -> &str {
        &self.slots[slot.index()].name
    }

    /// Insert or replace a variable by slot (dirty: it was just produced
    /// in memory).
    pub fn put_slot(&mut self, slot: SlotId, data: Matrix) {
        self.put_slot_with_dirty(slot, data, true);
    }

    /// Insert by slot with an explicit dirty flag.
    pub fn put_slot_with_dirty(&mut self, slot: SlotId, data: Matrix, dirty: bool) {
        self.clock += 1;
        let s = &mut self.slots[slot.index()];
        if let Some(old) = &s.entry {
            if old.in_memory {
                self.resident_bytes -= old.data.size_bytes();
            }
        }
        self.resident_bytes += data.size_bytes();
        s.entry = Some(Entry {
            data,
            in_memory: true,
            dirty,
            last_use: self.clock,
        });
        self.make_room(Some(slot));
    }

    /// Touch a slot: bump its LRU clock and restore it from local disk if
    /// evicted (with byte accounting), without cloning the data. Returns
    /// false when the slot holds no value. Pair with [`peek_slot`] to
    /// read the matrix by reference — the VM's clone-free operand fetch.
    ///
    /// [`peek_slot`]: BufferPool::peek_slot
    pub fn touch_slot(&mut self, slot: SlotId) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let restored = {
            let Some(e) = self.slots[slot.index()].entry.as_mut() else {
                return false;
            };
            e.last_use = clock;
            if !e.in_memory {
                e.in_memory = true;
                Some(e.data.size_bytes())
            } else {
                None
            }
        };
        if let Some(bytes) = restored {
            self.resident_bytes += bytes;
            self.stats.restores += 1;
            self.stats.bytes_restored += bytes;
            reml_trace::count("pool.restores", 1);
            reml_trace::count("pool.bytes_restored", bytes);
            self.make_room(Some(slot));
        }
        true
    }

    /// Read a slot's value by reference without touching LRU state.
    pub fn peek_slot(&self, slot: SlotId) -> Option<&Matrix> {
        self.slots[slot.index()].entry.as_ref().map(|e| &e.data)
    }

    /// Whether a slot's value is dirty.
    pub fn is_dirty_slot(&self, slot: SlotId) -> Option<bool> {
        self.slots[slot.index()].entry.as_ref().map(|e| e.dirty)
    }

    /// Mark a slot clean (it was just exported to HDFS).
    pub fn mark_clean_slot(&mut self, slot: SlotId) {
        if let Some(e) = self.slots[slot.index()].entry.as_mut() {
            e.dirty = false;
        }
    }

    /// Remove a slot's value (the slot id stays valid).
    pub fn remove_slot(&mut self, slot: SlotId) -> Option<Matrix> {
        let e = self.slots[slot.index()].entry.take()?;
        if e.in_memory {
            self.resident_bytes -= e.data.size_bytes();
        }
        Some(e.data)
    }

    // ------------------------------------------------------------------
    // Inspection by name.
    // ------------------------------------------------------------------

    /// A variable's value by name, without touching LRU state.
    pub fn peek(&self, name: &str) -> Option<&Matrix> {
        let slot = self.slot_of(name)?;
        self.peek_slot(slot)
    }

    /// All variable names, sorted.
    pub fn variables(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .slots
            .iter()
            .filter(|s| s.entry.is_some())
            .map(|s| s.name.clone())
            .collect();
        names.sort();
        names
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BufferPoolStats {
        self.stats
    }

    /// Evict LRU entries until resident bytes fit the capacity.
    /// `protect` shields the entry just inserted or restored: it is the
    /// hottest value and evicting it immediately would thrash.
    fn make_room(&mut self, protect: Option<SlotId>) {
        while self.resident_bytes > self.capacity_bytes {
            // Find the LRU in-memory entry.
            let victim = self
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.entry.as_ref().map(|e| (i, e)))
                .filter(|(i, e)| e.in_memory && protect.map(SlotId::index) != Some(*i))
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i);
            match victim {
                Some(i) => {
                    let e = self.slots[i].entry.as_mut().expect("victim exists");
                    e.in_memory = false;
                    let bytes = e.data.size_bytes();
                    self.resident_bytes -= bytes;
                    self.stats.evictions += 1;
                    self.stats.bytes_evicted += bytes;
                    // Registry metrics: eviction counts/bytes alongside
                    // the local `BufferPoolStats`.
                    reml_trace::count("pool.evictions", 1);
                    reml_trace::count("pool.bytes_evicted", bytes);
                }
                // Only the protected entry is resident: allow temporary
                // overshoot (SystemML likewise cannot evict the operand
                // it is about to use).
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m_kb(kb: usize) -> Matrix {
        // kb kilobytes dense: kb * 128 cells.
        Matrix::constant(kb * 128, 1, 1.0)
    }

    /// Write `data` under `name` (dirty), resolving the slot on first use.
    fn put(pool: &mut BufferPool, name: &str, data: Matrix) -> SlotId {
        let slot = pool.resolve_slot(name);
        pool.put_slot(slot, data);
        slot
    }

    #[test]
    fn within_capacity_no_evictions() {
        let mut pool = BufferPool::new(10 * 1024);
        let a = put(&mut pool, "a", m_kb(4));
        put(&mut pool, "b", m_kb(4));
        assert_eq!(pool.stats().evictions, 0);
        assert!(pool.touch_slot(a));
    }

    #[test]
    fn overflow_evicts_lru() {
        let mut pool = BufferPool::new(10 * 1024);
        let a = put(&mut pool, "a", m_kb(4));
        let b = put(&mut pool, "b", m_kb(4));
        pool.touch_slot(a); // a is now more recent than b
        put(&mut pool, "c", m_kb(4)); // overflow: b is LRU victim
        assert_eq!(pool.stats().evictions, 1);
        assert_eq!(pool.stats().bytes_evicted, 4 * 1024);
        // b still accessible, restored on demand.
        assert!(pool.touch_slot(b));
        assert_eq!(pool.stats().restores, 1);
        assert_eq!(pool.stats().bytes_restored, 4 * 1024);
    }

    #[test]
    fn oversized_entry_overshoots_instead_of_evicting_itself() {
        let mut pool = BufferPool::new(4 * 1024);
        let a = put(&mut pool, "a", m_kb(8));
        assert_eq!(pool.stats().evictions, 0);
        assert!(pool.resident_bytes() > pool.capacity_bytes());
        // The next write evicts it.
        put(&mut pool, "b", m_kb(1));
        assert_eq!(pool.stats().evictions, 1);
        assert!(pool.resident_bytes() <= pool.capacity_bytes());
        assert!(pool.peek_slot(a).is_some(), "evicted data stays readable");
    }

    #[test]
    fn dirty_tracking() {
        let mut pool = BufferPool::new(1024 * 1024);
        let x = pool.resolve_slot("X");
        pool.put_slot_with_dirty(x, m_kb(1), false); // read from HDFS
        let g = put(&mut pool, "g", m_kb(1)); // computed
        assert_eq!(pool.is_dirty_slot(x), Some(false));
        assert_eq!(pool.is_dirty_slot(g), Some(true));
        pool.mark_clean_slot(g);
        assert_eq!(pool.is_dirty_slot(g), Some(false));
    }

    #[test]
    fn remove_clears_the_value() {
        let mut pool = BufferPool::new(1024);
        let a = put(&mut pool, "a", m_kb(1));
        assert_eq!(pool.variables(), vec!["a".to_string()]);
        assert!(pool.remove_slot(a).is_some());
        assert!(pool.variables().is_empty());
        assert!(pool.peek("a").is_none());
        assert!(!pool.touch_slot(a));
    }

    #[test]
    fn grow_capacity_stops_thrashing() {
        let mut pool = BufferPool::new(4 * 1024);
        let a = put(&mut pool, "a", m_kb(4));
        let b = put(&mut pool, "b", m_kb(4));
        let evictions_before = pool.stats().evictions;
        assert!(evictions_before > 0);
        pool.set_capacity_bytes(64 * 1024);
        pool.touch_slot(a);
        pool.touch_slot(b);
        put(&mut pool, "c", m_kb(4));
        // No further evictions after the resize.
        assert_eq!(pool.stats().evictions, evictions_before);
    }

    #[test]
    fn slot_api_roundtrip() {
        let mut pool = BufferPool::new(1024 * 1024);
        let a = pool.resolve_slot("a");
        assert_eq!(pool.resolve_slot("a"), a, "resolution is stable");
        assert_eq!(pool.slot_of("a"), Some(a));
        assert!(pool.peek_slot(a).is_none());
        pool.put_slot(a, m_kb(1));
        assert_eq!(pool.slot_name(a), "a");
        // Name and slot APIs see the same entry.
        assert_eq!(pool.peek("a").unwrap(), pool.peek_slot(a).unwrap());
        // Removal clears the value but keeps the slot valid.
        assert!(pool.remove_slot(a).is_some());
        assert!(pool.peek("a").is_none());
        pool.put_slot(a, m_kb(2));
        assert_eq!(pool.peek("a").unwrap().size_bytes(), 2 * 1024);
    }

    #[test]
    fn touch_restores_without_cloning() {
        let mut pool = BufferPool::new(10 * 1024);
        let a = put(&mut pool, "a", m_kb(6));
        put(&mut pool, "b", m_kb(6)); // evicts a
        assert_eq!(pool.stats().evictions, 1);
        assert!(pool.touch_slot(a)); // restore
        assert_eq!(pool.stats().restores, 1);
        assert_eq!(pool.stats().bytes_restored, 6 * 1024);
        assert!(pool.peek_slot(a).is_some());
        let missing = pool.resolve_slot("missing");
        assert!(!pool.touch_slot(missing));
    }

    #[test]
    fn resident_bytes_tracks_incrementally() {
        let mut pool = BufferPool::new(100 * 1024);
        let a = put(&mut pool, "a", m_kb(4));
        let b = put(&mut pool, "b", m_kb(2));
        assert_eq!(pool.resident_bytes(), 6 * 1024);
        pool.put_slot(a, m_kb(1)); // replace shrinks
        assert_eq!(pool.resident_bytes(), 3 * 1024);
        pool.remove_slot(b);
        assert_eq!(pool.resident_bytes(), 1024);
    }

    #[test]
    fn eviction_metric_reaches_registry() {
        let rec = reml_trace::Recorder::new(64);
        reml_trace::install(std::sync::Arc::clone(&rec));
        let before = reml_trace::metrics().counter("pool.evictions").get();
        let mut pool = BufferPool::new(4 * 1024);
        put(&mut pool, "a", m_kb(4));
        put(&mut pool, "b", m_kb(4)); // evicts a
        let after = reml_trace::metrics().counter("pool.evictions").get();
        reml_trace::uninstall();
        assert!(pool.stats().evictions >= 1);
        assert!(after >= before + pool.stats().evictions);
    }
}
