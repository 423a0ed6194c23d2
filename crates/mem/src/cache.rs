//! Set-associative cache model with pluggable replacement.
//!
//! One [`Cache`] instance models one physical cache array (an L1I, L1D, or
//! L2). It tracks, for every resident line, its tag and MESI state; timing
//! is *not* decided here — the [`hierarchy`](crate::hierarchy) walks the
//! levels and charges Table II latencies.

use crate::addr::LineAddr;
use crate::mesi::MesiState;
use core::fmt;
use osoffload_sim::{Counter, Rng64};

/// Geometric description of one cache array.
///
/// # Examples
///
/// ```
/// use osoffload_mem::CacheGeometry;
///
/// // Table II: L1 32 KB / 2-way, L2 1 MB / 16-way, 64 B lines.
/// let l1 = CacheGeometry::paper_l1();
/// assert_eq!(l1.sets(), 32 * 1024 / 64 / 2);
/// let l2 = CacheGeometry::paper_l2();
/// assert_eq!(l2.capacity_lines(), 1024 * 1024 / 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    size_bytes: u64,
    ways: u32,
}

/// Why a requested cache geometry cannot exist.
///
/// Returned by [`CacheGeometry::try_new`] so configuration layers (and
/// the fuzzer's repro loader) can reject degenerate geometries with a
/// typed error instead of panicking mid-construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryError {
    /// Associativity of zero.
    ZeroWays,
    /// Size is not a positive multiple of `ways * line size`.
    NotLineMultiple {
        /// Requested total size in bytes.
        size_bytes: u64,
        /// Requested associativity.
        ways: u32,
    },
    /// The implied set count is not a power of two, so addresses cannot
    /// be indexed by masking.
    NonPowerOfTwoSets {
        /// The implied set count.
        sets: u64,
    },
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::ZeroWays => {
                write!(f, "CacheGeometry: associativity must be positive")
            }
            GeometryError::NotLineMultiple { size_bytes, ways } => write!(
                f,
                "CacheGeometry: size must be a multiple of ways * line size \
                 ({size_bytes} B / {ways}-way)"
            ),
            GeometryError::NonPowerOfTwoSets { sets } => write!(
                f,
                "CacheGeometry: set count must be a power of two (got {sets})"
            ),
        }
    }
}

impl std::error::Error for GeometryError {}

impl CacheGeometry {
    /// Creates a geometry from total size and associativity, rejecting
    /// impossible shapes with a typed error.
    pub fn try_new(size_bytes: u64, ways: u32) -> Result<Self, GeometryError> {
        if ways == 0 {
            return Err(GeometryError::ZeroWays);
        }
        let lines = size_bytes / crate::addr::LINE_BYTES;
        if lines == 0
            || !size_bytes.is_multiple_of(crate::addr::LINE_BYTES)
            || !lines.is_multiple_of(ways as u64)
        {
            return Err(GeometryError::NotLineMultiple { size_bytes, ways });
        }
        let sets = lines / ways as u64;
        if !sets.is_power_of_two() {
            return Err(GeometryError::NonPowerOfTwoSets { sets });
        }
        Ok(CacheGeometry { size_bytes, ways })
    }

    /// Creates a geometry from total size and associativity.
    ///
    /// # Panics
    ///
    /// Panics unless the implied set count is a non-zero power of two
    /// (so addresses can be indexed by masking); [`try_new`](Self::try_new)
    /// is the non-panicking variant.
    pub fn new(size_bytes: u64, ways: u32) -> Self {
        match Self::try_new(size_bytes, ways) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// The paper's L1 geometry: 32 KB, 2-way (Table II).
    pub fn paper_l1() -> Self {
        CacheGeometry::new(32 * 1024, 2)
    }

    /// The paper's L2 geometry: 1 MB, 16-way (Table II).
    pub fn paper_l2() -> Self {
        CacheGeometry::new(1024 * 1024, 16)
    }

    /// The half-size L2 used in the paper's §V-B academic comparison
    /// (two 512 KB L2s vs one 1 MB L2).
    pub fn half_l2() -> Self {
        CacheGeometry::new(512 * 1024, 16)
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Associativity (lines per set).
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / crate::addr::LINE_BYTES / self.ways as u64
    }

    /// Total capacity in lines.
    pub fn capacity_lines(&self) -> u64 {
        self.size_bytes / crate::addr::LINE_BYTES
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} KB / {}-way", self.size_bytes / 1024, self.ways)
    }
}

/// Replacement policy for victim selection within a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// True least-recently-used (timestamp based).
    #[default]
    Lru,
    /// Not-most-recently-used: evicts a random way that is not the MRU.
    Nmru,
    /// Uniform random victim.
    Random,
}

/// Aggregate counters for one cache array.
///
/// Hits and misses are recorded by the memory hierarchy when it consults
/// the cache; evictions and writebacks are recorded by the cache itself.
#[derive(Debug, Clone, Default)]
pub struct CacheStats {
    /// Lookups that found the line with sufficient permission.
    pub hits: Counter,
    /// Lookups that missed (or needed an upgrade).
    pub misses: Counter,
    /// Lines evicted to make room.
    pub evictions: Counter,
    /// Evicted lines that were dirty (writeback traffic).
    pub writebacks: Counter,
    /// Lines invalidated by coherence actions.
    pub invalidations: Counter,
}

impl CacheStats {
    /// Zeroes every counter (used when discarding warm-up statistics).
    pub fn reset(&mut self) {
        self.hits.take();
        self.misses.take();
        self.evictions.take();
        self.writebacks.take();
        self.invalidations.take();
    }

    /// Hit rate in `[0, 1]`; 0 when no lookups have been recorded.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits.get() + self.misses.get();
        if total == 0 {
            0.0
        } else {
            self.hits.get() as f64 / total as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits={} misses={} ({:.2}%) evict={} wb={} inval={}",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.evictions,
            self.writebacks,
            self.invalidations
        )
    }
}

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    state: MesiState,
    last_use: u64,
}

const EMPTY: Way = Way {
    tag: 0,
    state: MesiState::Invalid,
    last_use: 0,
};

/// A line that was evicted to make room for an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted line's address.
    pub line: LineAddr,
    /// Its state at eviction (dirty lines imply a writeback).
    pub state: MesiState,
}

/// A set-associative cache array tracking tags and MESI states.
///
/// # Examples
///
/// ```
/// use osoffload_mem::{Cache, CacheGeometry, ReplacementPolicy, LineAddr, MesiState};
///
/// let mut c = Cache::new(CacheGeometry::new(4096, 2), ReplacementPolicy::Lru, 7);
/// let l = LineAddr::new(0x40);
/// assert_eq!(c.state_of(l), None);
/// c.insert(l, MesiState::Exclusive);
/// assert_eq!(c.state_of(l), Some(MesiState::Exclusive));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    geometry: CacheGeometry,
    policy: ReplacementPolicy,
    ways: Vec<Way>,
    clock: u64,
    rng: Rng64,
    resident: u64,
    stats: CacheStats,
    // Cached from `geometry` so the per-access set lookup is a mask and a
    // multiply instead of re-deriving `sets()` (a runtime division by the
    // associativity) on every probe.
    set_mask: u64,
    ways_per_set: usize,
}

impl Cache {
    /// Creates an empty cache with the given geometry and replacement
    /// policy. `seed` drives the random policies deterministically.
    pub fn new(geometry: CacheGeometry, policy: ReplacementPolicy, seed: u64) -> Self {
        let total = geometry.capacity_lines() as usize;
        Cache {
            set_mask: geometry.sets() - 1,
            ways_per_set: geometry.ways as usize,
            geometry,
            policy,
            ways: vec![EMPTY; total],
            clock: 0,
            rng: Rng64::seed_from(seed),
            resident: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> u64 {
        self.resident
    }

    /// Mutable access to the statistics block (the hierarchy records hits
    /// and misses here so all counters live in one place).
    pub fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    /// Read access to the statistics block.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn set_range(&self, line: LineAddr) -> core::ops::Range<usize> {
        let set = (line.as_u64() & self.set_mask) as usize;
        let w = self.ways_per_set;
        let start = set * w;
        start..start + w
    }

    /// Returns the MESI state of `line` if resident, without touching
    /// recency (a *probe*, as used by the directory).
    pub fn state_of(&self, line: LineAddr) -> Option<MesiState> {
        let range = self.set_range(line);
        self.ways[range]
            .iter()
            .find(|w| w.state != MesiState::Invalid && w.tag == line.as_u64())
            .map(|w| w.state)
    }

    /// Looks up `line`, updating recency on hit. Returns its state.
    pub fn touch(&mut self, line: LineAddr) -> Option<MesiState> {
        self.clock += 1;
        let clock = self.clock;
        let range = self.set_range(line);
        let way = self.ways[range]
            .iter_mut()
            .find(|w| w.state != MesiState::Invalid && w.tag == line.as_u64())?;
        way.last_use = clock;
        Some(way.state)
    }

    /// Sets the state of a resident line (coherence transitions).
    ///
    /// Returns `true` if the line was present. Setting
    /// [`MesiState::Invalid`] removes the line (equivalent to
    /// [`invalidate`](Self::invalidate) without stats).
    pub fn set_state(&mut self, line: LineAddr, state: MesiState) -> bool {
        let range = self.set_range(line);
        let Some(way) = self.ways[range]
            .iter_mut()
            .find(|w| w.state != MesiState::Invalid && w.tag == line.as_u64())
        else {
            return false;
        };
        if state == MesiState::Invalid {
            way.state = MesiState::Invalid;
            self.resident -= 1;
        } else {
            way.state = state;
        }
        true
    }

    /// Removes `line` from the cache because of a coherence action,
    /// recording an invalidation. Returns its prior state.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<MesiState> {
        let range = self.set_range(line);
        let way = self.ways[range]
            .iter_mut()
            .find(|w| w.state != MesiState::Invalid && w.tag == line.as_u64())?;
        let old = way.state;
        way.state = MesiState::Invalid;
        self.resident -= 1;
        self.stats.invalidations.incr();
        Some(old)
    }

    /// Inserts `line` with `state`, evicting a victim if the set is full.
    ///
    /// Returns the evicted line, if any. Inserting a line that is already
    /// resident just updates its state and recency.
    ///
    /// # Panics
    ///
    /// Panics if `state` is [`MesiState::Invalid`].
    pub fn insert(&mut self, line: LineAddr, state: MesiState) -> Option<Evicted> {
        assert!(
            state != MesiState::Invalid,
            "Cache::insert: cannot insert Invalid"
        );
        self.clock += 1;
        let clock = self.clock;
        let range = self.set_range(line);

        // Already resident: refresh in place.
        if let Some(way) = self.ways[range.clone()]
            .iter_mut()
            .find(|w| w.state != MesiState::Invalid && w.tag == line.as_u64())
        {
            way.state = state;
            way.last_use = clock;
            return None;
        }

        // Free way available?
        if let Some(way) = self.ways[range.clone()]
            .iter_mut()
            .find(|w| w.state == MesiState::Invalid)
        {
            *way = Way {
                tag: line.as_u64(),
                state,
                last_use: clock,
            };
            self.resident += 1;
            return None;
        }

        // Choose a victim.
        let ways_per_set = self.ways_per_set;
        let victim_offset = match self.policy {
            ReplacementPolicy::Lru => {
                let mut best = 0usize;
                let mut best_use = u64::MAX;
                for (i, w) in self.ways[range.clone()].iter().enumerate() {
                    if w.last_use < best_use {
                        best_use = w.last_use;
                        best = i;
                    }
                }
                best
            }
            ReplacementPolicy::Nmru => {
                let mut mru = 0usize;
                let mut mru_use = 0u64;
                for (i, w) in self.ways[range.clone()].iter().enumerate() {
                    if w.last_use >= mru_use {
                        mru_use = w.last_use;
                        mru = i;
                    }
                }
                if ways_per_set == 1 {
                    0
                } else {
                    let pick = self.rng.gen_range(0..(ways_per_set as u64 - 1)) as usize;
                    if pick >= mru {
                        pick + 1
                    } else {
                        pick
                    }
                }
            }
            ReplacementPolicy::Random => self.rng.gen_range(0..ways_per_set as u64) as usize,
        };

        let victim = &mut self.ways[range.start + victim_offset];
        let evicted = Evicted {
            line: LineAddr::new(victim.tag),
            state: victim.state,
        };
        self.stats.evictions.incr();
        if evicted.state.is_dirty() {
            self.stats.writebacks.incr();
        }
        *victim = Way {
            tag: line.as_u64(),
            state,
            last_use: clock,
        };
        Some(evicted)
    }

    /// Invalidates every resident line (used when modelling context loss).
    pub fn flush(&mut self) {
        for w in &mut self.ways {
            w.state = MesiState::Invalid;
        }
        self.resident = 0;
    }

    /// Iterates over all resident lines as `(line, state)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, MesiState)> + '_ {
        self.ways
            .iter()
            .filter(|w| w.state != MesiState::Invalid)
            .map(|w| (LineAddr::new(w.tag), w.state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways, 64 B lines => 512 B.
        Cache::new(CacheGeometry::new(512, 2), ReplacementPolicy::Lru, 1)
    }

    /// Lines that map to set 0 of the tiny cache.
    fn set0_line(i: u64) -> LineAddr {
        LineAddr::new(i * 4)
    }

    #[test]
    fn geometry_paper_values() {
        let l1 = CacheGeometry::paper_l1();
        assert_eq!(l1.sets(), 256);
        assert_eq!(l1.ways(), 2);
        let l2 = CacheGeometry::paper_l2();
        assert_eq!(l2.sets(), 1024);
        assert_eq!(l2.ways(), 16);
        assert_eq!(CacheGeometry::half_l2().capacity_lines(), 8192);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn geometry_rejects_non_power_of_two_sets() {
        CacheGeometry::new(192, 1);
    }

    #[test]
    fn insert_then_lookup() {
        let mut c = tiny();
        let l = LineAddr::new(5);
        assert_eq!(c.touch(l), None);
        assert_eq!(c.insert(l, MesiState::Shared), None);
        assert_eq!(c.touch(l), Some(MesiState::Shared));
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn reinsert_updates_state_without_eviction() {
        let mut c = tiny();
        let l = LineAddr::new(5);
        c.insert(l, MesiState::Shared);
        assert_eq!(c.insert(l, MesiState::Modified), None);
        assert_eq!(c.state_of(l), Some(MesiState::Modified));
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        let (a, b, d) = (set0_line(0), set0_line(1), set0_line(2));
        c.insert(a, MesiState::Exclusive);
        c.insert(b, MesiState::Exclusive);
        c.touch(a); // b is now LRU
        let ev = c.insert(d, MesiState::Exclusive).expect("set full");
        assert_eq!(ev.line, b);
        assert!(c.state_of(a).is_some());
        assert!(c.state_of(b).is_none());
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny();
        c.insert(set0_line(0), MesiState::Modified);
        c.insert(set0_line(1), MesiState::Exclusive);
        let ev = c.insert(set0_line(2), MesiState::Shared).expect("evicts");
        assert_eq!(ev.state, MesiState::Modified);
        assert_eq!(c.stats().writebacks.get(), 1);
        assert_eq!(c.stats().evictions.get(), 1);
    }

    #[test]
    fn invalidate_removes_and_counts() {
        let mut c = tiny();
        let l = LineAddr::new(9);
        c.insert(l, MesiState::Shared);
        assert_eq!(c.invalidate(l), Some(MesiState::Shared));
        assert_eq!(c.state_of(l), None);
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.stats().invalidations.get(), 1);
        assert_eq!(c.invalidate(l), None);
    }

    #[test]
    fn set_state_transitions() {
        let mut c = tiny();
        let l = LineAddr::new(3);
        assert!(!c.set_state(l, MesiState::Shared));
        c.insert(l, MesiState::Exclusive);
        assert!(c.set_state(l, MesiState::Shared));
        assert_eq!(c.state_of(l), Some(MesiState::Shared));
        assert!(c.set_state(l, MesiState::Invalid));
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny();
        for i in 0..8 {
            c.insert(LineAddr::new(i), MesiState::Shared);
        }
        assert!(c.resident_lines() > 0);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.iter().count(), 0);
    }

    #[test]
    fn random_policy_stays_within_set() {
        let mut c = Cache::new(CacheGeometry::new(512, 2), ReplacementPolicy::Random, 3);
        c.insert(set0_line(0), MesiState::Exclusive);
        c.insert(set0_line(1), MesiState::Exclusive);
        let ev = c
            .insert(set0_line(2), MesiState::Exclusive)
            .expect("evicts");
        assert!(ev.line == set0_line(0) || ev.line == set0_line(1));
    }

    #[test]
    fn nmru_never_evicts_most_recent() {
        let mut c = Cache::new(CacheGeometry::new(512, 4), ReplacementPolicy::Nmru, 3);
        let lines: Vec<LineAddr> = (0..4).map(|i| LineAddr::new(i * 2)).collect();
        for &l in &lines {
            c.insert(l, MesiState::Exclusive);
        }
        // lines[3] is MRU; over many evictions it must survive each time we
        // re-touch it just before inserting.
        for i in 0..50u64 {
            c.touch(lines[3]);
            let ev = c
                .insert(LineAddr::new(100 + i * 2), MesiState::Exclusive)
                .unwrap();
            assert_ne!(ev.line, lines[3]);
            c.invalidate(LineAddr::new(100 + i * 2));
            // Restore any victim from our watch set so the set stays full.
            if let Some(pos) = lines.iter().position(|&l| l == ev.line) {
                c.insert(lines[pos], MesiState::Exclusive);
            }
        }
    }

    #[test]
    fn iter_reports_resident_lines() {
        let mut c = tiny();
        c.insert(LineAddr::new(1), MesiState::Shared);
        c.insert(LineAddr::new(2), MesiState::Modified);
        let mut lines: Vec<(LineAddr, MesiState)> = c.iter().collect();
        lines.sort_by_key(|(l, _)| l.as_u64());
        assert_eq!(
            lines,
            vec![
                (LineAddr::new(1), MesiState::Shared),
                (LineAddr::new(2), MesiState::Modified)
            ]
        );
    }

    #[test]
    fn stats_hit_rate() {
        let mut s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.hits.add(3);
        s.misses.add(1);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot insert Invalid")]
    fn insert_invalid_panics() {
        tiny().insert(LineAddr::new(1), MesiState::Invalid);
    }
}
