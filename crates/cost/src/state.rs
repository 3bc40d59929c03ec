//! Live-variable state tracking for the plan scan.

use std::collections::HashMap;

/// Where a variable's current value lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarState {
    /// Pinned in CP memory; matches HDFS (read from there, unmodified).
    InMemoryClean,
    /// Pinned in CP memory; differs from HDFS (computed in CP).
    InMemoryDirty,
    /// On HDFS only (persistent input or MR-job output).
    OnHdfs,
}

impl VarState {
    /// Whether a CP operand in this state needs an HDFS read first.
    pub fn needs_read(self) -> bool {
        matches!(self, VarState::OnHdfs)
    }

    /// Whether an MR job consuming this variable needs it exported first.
    pub fn needs_export(self) -> bool {
        matches!(self, VarState::InMemoryDirty)
    }
}

/// The state map of the scan. Unknown variables are treated as on-HDFS
/// (conservative: the first CP use pays a read).
///
/// The map also tracks an approximate *resident set* — the bytes of
/// in-memory variables in FIFO order — so the cost model can partially
/// account for buffer-pool evictions (§5: "buffer pool evictions (only
/// partially considered by our cost model)"). Variables with unknown
/// sizes are not tracked.
///
/// The budget enters the scan only through [`VarStates::enforce_budget`],
/// so the map also records the peak resident bytes those checks saw:
/// from it, [`VarStates::budget_range`] tells which budgets would have
/// produced the same scan.
#[derive(Debug, Clone, Default)]
pub struct VarStates {
    states: HashMap<String, VarState>,
    resident: Vec<(String, u64)>,
    /// Largest resident set seen by a budget check that could evict
    /// (one holding more than the pinned newest entry).
    peak_bytes: u64,
}

/// The CP budgets, in bytes, under which one cost-model scan produces a
/// bit-identical result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetRange {
    /// Nothing was evicted: every budget at or above this peak resident
    /// size evicts nothing either.
    AtLeast(u64),
    /// Something was evicted: only this exact budget.
    Exactly(u64),
}

impl BudgetRange {
    /// Whether a scan under `budget_bytes` reproduces this one.
    pub fn contains(self, budget_bytes: u64) -> bool {
        match self {
            BudgetRange::AtLeast(peak) => budget_bytes >= peak,
            BudgetRange::Exactly(budget) => budget_bytes == budget,
        }
    }
}

impl VarStates {
    /// Fresh state map.
    pub fn new() -> Self {
        VarStates::default()
    }

    /// Current state of a variable.
    pub fn get(&self, name: &str) -> VarState {
        self.states.get(name).copied().unwrap_or(VarState::OnHdfs)
    }

    /// Set a variable's state.
    pub fn set(&mut self, name: &str, state: VarState) {
        self.states.insert(name.to_string(), state);
        if state == VarState::OnHdfs {
            self.drop_resident(name);
        }
    }

    /// Note that a variable now occupies `bytes` of CP memory.
    pub fn note_resident(&mut self, name: &str, bytes: u64) {
        self.drop_resident(name);
        self.resident.push((name.to_string(), bytes));
    }

    /// Remove a variable from the resident set.
    pub fn drop_resident(&mut self, name: &str) {
        self.resident.retain(|(n, _)| n != name);
    }

    /// Total tracked resident bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.iter().map(|(_, b)| *b).sum()
    }

    /// Evict oldest residents until the set fits `budget_bytes`.
    /// Evicted variables transition to on-HDFS (their next use pays a
    /// read); the returned value is the bytes evicted (the write cost the
    /// caller charges). The most recent entry is never evicted (it is the
    /// pinned output of the current instruction).
    pub fn enforce_budget(&mut self, budget_bytes: u64) -> u64 {
        if self.resident.len() < 2 {
            return 0;
        }
        let mut resident = self.resident_bytes();
        self.peak_bytes = self.peak_bytes.max(resident);
        let mut evicted = 0u64;
        while resident > budget_bytes && self.resident.len() > 1 {
            let (name, bytes) = self.resident.remove(0);
            self.states.insert(name, VarState::OnHdfs);
            evicted += bytes;
            resident -= bytes;
        }
        evicted
    }

    /// Keep the larger of the two peaks: at an `if` merge the state of
    /// one branch is kept, but both branches were costed under the
    /// budget.
    pub fn merge_peak(&mut self, other: &VarStates) {
        self.peak_bytes = self.peak_bytes.max(other.peak_bytes);
    }

    /// The budgets under which the scan so far, run with `budget_bytes`,
    /// would come out bit-identical. A check evicts exactly when it sees
    /// more than one resident entry and more bytes than the budget, so
    /// the scan evicted iff its peak exceeds `budget_bytes`; if it did
    /// not, any budget at or above the peak evicts nothing either.
    pub fn budget_range(&self, budget_bytes: u64) -> BudgetRange {
        if self.peak_bytes <= budget_bytes {
            BudgetRange::AtLeast(self.peak_bytes)
        } else {
            BudgetRange::Exactly(budget_bytes)
        }
    }

    /// Known variables (diagnostics).
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether no variables are tracked yet.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_vars_default_on_hdfs() {
        let s = VarStates::new();
        assert_eq!(s.get("x"), VarState::OnHdfs);
        assert!(s.get("x").needs_read());
        assert!(!s.get("x").needs_export());
    }

    #[test]
    fn resident_tracking_and_eviction() {
        let mut s = VarStates::new();
        s.set("x", VarState::InMemoryClean);
        s.note_resident("x", 600);
        s.set("y", VarState::InMemoryDirty);
        s.note_resident("y", 600);
        assert_eq!(s.resident_bytes(), 1200);
        // Budget 1000: evict the oldest (x), keep the newest (y).
        let evicted = s.enforce_budget(1000);
        assert_eq!(evicted, 600);
        assert_eq!(s.get("x"), VarState::OnHdfs);
        assert_eq!(s.get("y"), VarState::InMemoryDirty);
        // Newest entry is never evicted even when over budget.
        let evicted2 = s.enforce_budget(100);
        assert_eq!(evicted2, 0);
    }

    #[test]
    fn peak_counts_only_checks_that_can_evict() {
        let mut s = VarStates::new();
        s.set("x", VarState::InMemoryDirty);
        s.note_resident("x", 5000);
        // A lone resident entry is pinned: the check cannot evict, so
        // its size is no constraint on the budget.
        assert_eq!(s.enforce_budget(100), 0);
        assert_eq!(s.budget_range(100), BudgetRange::AtLeast(0));
        s.set("y", VarState::InMemoryDirty);
        s.note_resident("y", 10);
        assert_eq!(s.enforce_budget(u64::MAX), 0);
        assert_eq!(s.budget_range(5010), BudgetRange::AtLeast(5010));
        assert_eq!(s.budget_range(5009), BudgetRange::Exactly(5009));
        assert!(BudgetRange::AtLeast(5010).contains(1 << 40));
        assert!(!BudgetRange::AtLeast(5010).contains(5009));
        assert!(BudgetRange::Exactly(7).contains(7));
        assert!(!BudgetRange::Exactly(7).contains(8));
    }

    #[test]
    fn on_hdfs_set_drops_residency() {
        let mut s = VarStates::new();
        s.set("x", VarState::InMemoryDirty);
        s.note_resident("x", 100);
        s.set("x", VarState::OnHdfs);
        assert_eq!(s.resident_bytes(), 0);
    }

    #[test]
    fn transitions() {
        let mut s = VarStates::new();
        s.set("x", VarState::InMemoryDirty);
        assert!(!s.get("x").needs_read());
        assert!(s.get("x").needs_export());
        s.set("x", VarState::InMemoryClean);
        assert!(!s.get("x").needs_export());
        assert!(!s.get("x").needs_read());
    }
}
