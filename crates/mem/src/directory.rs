//! Full-map coherence directory.
//!
//! The directory tracks, for every line cached in *any* private L2, the
//! set of sharer cores and whether one of them owns the line dirty. It
//! answers miss/upgrade requests with *actions* — who must supply data,
//! who must be invalidated or downgraded — and the
//! [`MemorySystem`](crate::hierarchy::MemorySystem) applies those actions
//! to the physical caches and charges the latencies. The paper requires
//! directory lookup, cache-to-cache transfer, and invalidation overheads
//! to be modelled independently (§IV); keeping the decision here and the
//! costing in the hierarchy makes each of the three costs explicit.

use crate::addr::{CoreId, LineAddr};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-mix hasher for line-address keys.
///
/// Directory lookups sit on the L2-miss path; SipHash (the standard
/// `HashMap` default) costs more than the rest of the lookup combined.
/// Line addresses are already well-distributed integers, so one odd
/// multiply plus a high-to-low mix is collision-safe here. The map is
/// never iterated (only `entry`/`get_mut`/`remove`/`len`), so the hash
/// function cannot affect simulation output.
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-integer writes (unused by u64 keys).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        let mut h = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        self.0 = h;
    }
}

type LineMap<V> = HashMap<LineAddr, V, BuildHasherDefault<LineHasher>>;

/// Per-line directory record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DirEntry {
    /// Bitmask of cores whose L2 holds the line.
    sharers: u64,
    /// Core holding the line in M (dirty), if any.
    dirty_owner: Option<CoreId>,
}

/// Where the data for a miss will come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataSource {
    /// No other cache holds the line: fetch from DRAM.
    Memory,
    /// Another core's L2 supplies the line (cache-to-cache transfer).
    RemoteCache {
        /// The supplying core.
        owner: CoreId,
        /// Whether the supplier held the line dirty (M).
        dirty: bool,
    },
}

/// A set of cores packed into a 64-bit mask.
///
/// Directory actions carry their target cores in this form instead of a
/// `Vec<CoreId>` so answering a miss never allocates. Iteration yields
/// cores in ascending id order — the same order the old vector held them
/// in — so applying an action is order-identical to the old code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoreSet(u64);

impl CoreSet {
    /// The empty set.
    pub const EMPTY: CoreSet = CoreSet(0);

    /// Wraps a raw sharer bitmask.
    pub fn from_mask(mask: u64) -> Self {
        CoreSet(mask)
    }

    /// Number of cores in the set.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Whether `core` is in the set.
    pub fn contains(&self, core: CoreId) -> bool {
        self.0 & core.bit() != 0
    }

    /// Iterates the member cores in ascending id order.
    pub fn iter(&self) -> CoreSetIter {
        CoreSetIter(self.0)
    }
}

impl IntoIterator for CoreSet {
    type Item = CoreId;
    type IntoIter = CoreSetIter;
    fn into_iter(self) -> CoreSetIter {
        CoreSetIter(self.0)
    }
}

/// Iterator over a [`CoreSet`], ascending by core id.
#[derive(Debug, Clone)]
pub struct CoreSetIter(u64);

impl Iterator for CoreSetIter {
    type Item = CoreId;
    fn next(&mut self) -> Option<CoreId> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(CoreId::new(i as usize))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for CoreSetIter {}

/// The directory's answer to a read miss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadMissAction {
    /// Where the requester obtains the data.
    pub source: DataSource,
    /// Cores whose copy must be *downgraded* M/E → S.
    pub downgrade: CoreSet,
    /// Whether the requester may install the line Exclusive (no sharers).
    pub exclusive: bool,
}

/// The directory's answer to a write miss or upgrade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteMissAction {
    /// Where the requester obtains the data ([`DataSource::Memory`] for
    /// an upgrade, where the requester already has the data).
    pub source: DataSource,
    /// Cores whose copy must be invalidated.
    pub invalidate: CoreSet,
}

/// Full-map MESI directory for the private-L2 CMP.
///
/// # Examples
///
/// ```
/// use osoffload_mem::directory::{Directory, DataSource};
/// use osoffload_mem::{CoreId, LineAddr};
///
/// let mut dir = Directory::new();
/// let (c0, c1) = (CoreId::new(0), CoreId::new(1));
/// let line = LineAddr::new(0x99);
///
/// // Core 0 misses: memory supplies, exclusive.
/// let a = dir.read_miss(line, c0);
/// assert_eq!(a.source, DataSource::Memory);
/// assert!(a.exclusive);
///
/// // Core 1 then misses the same line: core 0 supplies it.
/// let b = dir.read_miss(line, c1);
/// assert!(matches!(b.source, DataSource::RemoteCache { .. }));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Directory {
    entries: LineMap<DirEntry>,
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Directory::default()
    }

    /// Creates an empty directory pre-sized for `lines` tracked lines, so
    /// steady-state operation never grows the map. The tracked-line count
    /// is bounded by the total L2 capacity of the system (entries are
    /// dropped as soon as their last sharer evicts).
    pub fn with_capacity(lines: usize) -> Self {
        Directory {
            entries: LineMap::with_capacity_and_hasher(lines, BuildHasherDefault::default()),
        }
    }

    /// Number of lines currently tracked.
    pub fn tracked_lines(&self) -> usize {
        self.entries.len()
    }

    /// Returns the sharer bitmask for `line` (0 when untracked).
    pub fn sharers(&self, line: LineAddr) -> u64 {
        self.entries.get(&line).map_or(0, |e| e.sharers)
    }

    /// Returns the dirty owner of `line`, if any.
    pub fn dirty_owner(&self, line: LineAddr) -> Option<CoreId> {
        self.entries.get(&line).and_then(|e| e.dirty_owner)
    }

    /// First (lowest-id) core in `mask`, which must be non-zero.
    fn first_sharer(mask: u64) -> CoreId {
        debug_assert!(mask != 0, "first_sharer: empty mask");
        CoreId::new(mask.trailing_zeros() as usize)
    }

    /// Handles a read miss by `requester`; registers it as a sharer.
    pub fn read_miss(&mut self, line: LineAddr, requester: CoreId) -> ReadMissAction {
        let entry = self.entries.entry(line).or_insert(DirEntry {
            sharers: 0,
            dirty_owner: None,
        });
        let others = entry.sharers & !requester.bit();
        let action = if others == 0 {
            ReadMissAction {
                source: DataSource::Memory,
                downgrade: CoreSet::EMPTY,
                exclusive: true,
            }
        } else {
            // Any holder can supply; prefer the dirty owner (it must also
            // be downgraded and its data is the only valid copy).
            let (owner, dirty) = match entry.dirty_owner {
                Some(o) if o != requester => (o, true),
                _ => (Self::first_sharer(others), false),
            };
            // M or E holders downgrade to S. We ask the hierarchy to
            // downgrade every other sharer; S→S downgrades are no-ops
            // there, so only genuine M/E copies pay.
            let downgrade = CoreSet::from_mask(others);
            ReadMissAction {
                source: DataSource::RemoteCache { owner, dirty },
                downgrade,
                exclusive: false,
            }
        };
        entry.sharers |= requester.bit();
        entry.dirty_owner = None; // any dirty copy is downgraded/cleaned
        action
    }

    /// Handles a write miss (or upgrade-from-S) by `requester`; registers
    /// it as the sole dirty owner.
    pub fn write_miss(&mut self, line: LineAddr, requester: CoreId) -> WriteMissAction {
        let entry = self.entries.entry(line).or_insert(DirEntry {
            sharers: 0,
            dirty_owner: None,
        });
        let others = entry.sharers & !requester.bit();
        let had_line = entry.sharers & requester.bit() != 0;
        let source = if had_line || others == 0 {
            // Upgrade (data already local) or cold write: memory "supplies"
            // only when the requester lacked the line entirely.
            DataSource::Memory
        } else {
            let (owner, dirty) = match entry.dirty_owner {
                Some(o) if o != requester => (o, true),
                _ => (Self::first_sharer(others), false),
            };
            DataSource::RemoteCache { owner, dirty }
        };
        let invalidate = CoreSet::from_mask(others);
        entry.sharers = requester.bit();
        entry.dirty_owner = Some(requester);
        WriteMissAction { source, invalidate }
    }

    /// Records that `core` made an already-resident line dirty without a
    /// directory transaction (store hit on an E copy — silent E→M).
    pub fn silent_upgrade(&mut self, line: LineAddr, core: CoreId) {
        if let Some(entry) = self.entries.get_mut(&line) {
            debug_assert_eq!(
                entry.sharers,
                core.bit(),
                "silent upgrade requires sole sharer"
            );
            entry.dirty_owner = Some(core);
        }
    }

    /// Records that `core` evicted `line` from its L2.
    pub fn evicted(&mut self, line: LineAddr, core: CoreId) {
        if let Some(entry) = self.entries.get_mut(&line) {
            entry.sharers &= !core.bit();
            if entry.dirty_owner == Some(core) {
                entry.dirty_owner = None;
            }
            if entry.sharers == 0 {
                self.entries.remove(&line);
            }
        }
    }

    /// Verifies internal invariants, panicking with a description of the
    /// first violation. Intended for tests and debug builds.
    ///
    /// # Panics
    ///
    /// Panics if a dirty owner is recorded that is not also a sharer, or
    /// if an entry has no sharers.
    pub fn check_invariants(&self) {
        for (line, entry) in &self.entries {
            assert!(entry.sharers != 0, "{line}: tracked entry with no sharers");
            if let Some(owner) = entry.dirty_owner {
                assert!(
                    entry.sharers == owner.bit(),
                    "{line}: dirty owner {owner} coexists with sharers {:#b}",
                    entry.sharers
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: LineAddr = LineAddr::new(0x42);

    fn cores(n: usize) -> Vec<CoreId> {
        (0..n).map(CoreId::new).collect()
    }

    #[test]
    fn cold_read_is_exclusive_from_memory() {
        let mut dir = Directory::new();
        let a = dir.read_miss(L, CoreId::new(0));
        assert_eq!(a.source, DataSource::Memory);
        assert!(a.exclusive);
        assert!(a.downgrade.is_empty());
        assert_eq!(dir.sharers(L), 1);
        dir.check_invariants();
    }

    #[test]
    fn second_reader_gets_cache_to_cache() {
        let mut dir = Directory::new();
        let c = cores(2);
        dir.read_miss(L, c[0]);
        let a = dir.read_miss(L, c[1]);
        assert_eq!(
            a.source,
            DataSource::RemoteCache {
                owner: c[0],
                dirty: false
            }
        );
        assert!(!a.exclusive);
        assert_eq!(a.downgrade.iter().collect::<Vec<_>>(), vec![c[0]]);
        assert_eq!(dir.sharers(L), 0b11);
        dir.check_invariants();
    }

    #[test]
    fn reader_after_writer_sees_dirty_supplier() {
        let mut dir = Directory::new();
        let c = cores(2);
        dir.write_miss(L, c[0]);
        assert_eq!(dir.dirty_owner(L), Some(c[0]));
        let a = dir.read_miss(L, c[1]);
        assert_eq!(
            a.source,
            DataSource::RemoteCache {
                owner: c[0],
                dirty: true
            }
        );
        assert_eq!(dir.dirty_owner(L), None, "dirty copy cleaned by read");
        dir.check_invariants();
    }

    #[test]
    fn write_invalidates_all_sharers() {
        let mut dir = Directory::new();
        let c = cores(3);
        dir.read_miss(L, c[0]);
        dir.read_miss(L, c[1]);
        let a = dir.write_miss(L, c[2]);
        // CoreSet iteration is ascending by construction.
        let inv: Vec<_> = a.invalidate.iter().collect();
        assert_eq!(inv, vec![c[0], c[1]]);
        assert_eq!(dir.sharers(L), c[2].bit());
        assert_eq!(dir.dirty_owner(L), Some(c[2]));
        dir.check_invariants();
    }

    #[test]
    fn upgrade_from_shared_keeps_data_local() {
        let mut dir = Directory::new();
        let c = cores(2);
        dir.read_miss(L, c[0]);
        dir.read_miss(L, c[1]);
        let a = dir.write_miss(L, c[0]); // upgrade: c0 already a sharer
        assert_eq!(
            a.source,
            DataSource::Memory,
            "upgrade needs no data transfer"
        );
        assert_eq!(a.invalidate.iter().collect::<Vec<_>>(), vec![c[1]]);
        dir.check_invariants();
    }

    #[test]
    fn eviction_clears_tracking() {
        let mut dir = Directory::new();
        let c = cores(2);
        dir.read_miss(L, c[0]);
        dir.read_miss(L, c[1]);
        dir.evicted(L, c[0]);
        assert_eq!(dir.sharers(L), c[1].bit());
        dir.evicted(L, c[1]);
        assert_eq!(dir.tracked_lines(), 0);
        dir.check_invariants();
    }

    #[test]
    fn eviction_of_dirty_owner_clears_owner() {
        let mut dir = Directory::new();
        let c0 = CoreId::new(0);
        dir.write_miss(L, c0);
        dir.evicted(L, c0);
        assert_eq!(dir.dirty_owner(L), None);
        assert_eq!(dir.tracked_lines(), 0);
    }

    #[test]
    fn silent_upgrade_records_dirty_owner() {
        let mut dir = Directory::new();
        let c0 = CoreId::new(0);
        dir.read_miss(L, c0); // E copy
        dir.silent_upgrade(L, c0);
        assert_eq!(dir.dirty_owner(L), Some(c0));
        dir.check_invariants();
    }

    #[test]
    fn writer_then_rewriter_transfers_dirty_line() {
        let mut dir = Directory::new();
        let c = cores(2);
        dir.write_miss(L, c[0]);
        let a = dir.write_miss(L, c[1]);
        assert_eq!(
            a.source,
            DataSource::RemoteCache {
                owner: c[0],
                dirty: true
            }
        );
        assert_eq!(a.invalidate.iter().collect::<Vec<_>>(), vec![c[0]]);
        assert_eq!(dir.dirty_owner(L), Some(c[1]));
        dir.check_invariants();
    }
}
