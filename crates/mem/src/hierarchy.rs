//! The assembled memory system: per-core L1I/L1D/L2, a shared full-map
//! MESI directory, the point-to-point interconnect and DRAM.
//!
//! [`MemorySystem::access`] is the single entry point the core models use
//! for every instruction fetch, load, and store. It walks the hierarchy,
//! performs all coherence actions, updates every statistic, and returns
//! the access latency — the quantity the timing model adds to the issuing
//! thread's clock.

use crate::addr::{Address, CoreId};
use crate::cache::{Cache, CacheGeometry, CacheStats, ReplacementPolicy};
use crate::directory::{DataSource, Directory};
use crate::dram::Dram;
use crate::interconnect::Interconnect;
use crate::mesi::MesiState;
use core::fmt;
use osoffload_sim::Cycle;

/// What an access is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch (L1I side).
    Fetch,
    /// Data load.
    Read,
    /// Data store.
    Write,
}

/// One memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Byte address accessed.
    pub addr: Address,
    /// Fetch / read / write.
    pub kind: AccessKind,
}

impl Access {
    /// A data load at `addr`.
    pub fn read(addr: Address) -> Self {
        Access {
            addr,
            kind: AccessKind::Read,
        }
    }

    /// A data store at `addr`.
    pub fn write(addr: Address) -> Self {
        Access {
            addr,
            kind: AccessKind::Write,
        }
    }

    /// An instruction fetch at `addr`.
    pub fn fetch(addr: Address) -> Self {
        Access {
            addr,
            kind: AccessKind::Fetch,
        }
    }
}

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// Satisfied by the core's L1.
    L1,
    /// Satisfied by the core's private L2.
    L2,
    /// Satisfied by a cache-to-cache transfer from another core's L2.
    RemoteCache,
    /// Satisfied by DRAM.
    Memory,
}

/// Result of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Total latency on the critical path.
    pub latency: Cycle,
    /// Where the data came from.
    pub level: HitLevel,
    /// Whether a coherence permission upgrade (S→M) was required on top
    /// of a data hit.
    pub upgraded: bool,
}

/// Configuration of the whole memory system.
#[derive(Debug, Clone)]
pub struct MemConfig {
    /// Number of cores (each with private L1I/L1D/L2).
    pub cores: usize,
    /// L1 instruction cache geometry.
    pub l1i: CacheGeometry,
    /// L1 data cache geometry.
    pub l1d: CacheGeometry,
    /// Private L2 geometry.
    pub l2: CacheGeometry,
    /// Replacement policy used by every cache.
    pub replacement: ReplacementPolicy,
    /// L1 hit latency in cycles (Table II: 1).
    pub l1_latency: u64,
    /// L2 hit latency in cycles (Table II: 12).
    pub l2_latency: u64,
    /// Coherence fabric latencies.
    pub interconnect: Interconnect,
    /// DRAM latency in cycles (Table II: 350).
    pub dram_latency: u64,
    /// Seed for replacement randomness.
    pub seed: u64,
}

impl MemConfig {
    /// The paper's Table II design point with `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or exceeds 64.
    pub fn paper_baseline(cores: usize) -> Self {
        assert!(
            (1..=64).contains(&cores),
            "MemConfig: cores must be in 1..=64"
        );
        MemConfig {
            cores,
            l1i: CacheGeometry::paper_l1(),
            l1d: CacheGeometry::paper_l1(),
            l2: CacheGeometry::paper_l2(),
            replacement: ReplacementPolicy::Lru,
            l1_latency: 1,
            l2_latency: 12,
            interconnect: Interconnect::paper_default(),
            dram_latency: 350,
            seed: 0x05ff_10ad,
        }
    }

    /// The §V-B academic comparison point: off-loading with two *half
    /// size* (512 KB) L2s.
    pub fn half_l2_variant(cores: usize) -> Self {
        MemConfig {
            l2: CacheGeometry::half_l2(),
            ..MemConfig::paper_baseline(cores)
        }
    }
}

struct CoreCaches {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    /// Line (and its MESI state) the L1I served most recently. A repeat
    /// fetch of this line short-circuits the full lookup; see
    /// [`MemorySystem::access`].
    memo_i: Option<(crate::addr::LineAddr, MesiState)>,
    /// Same memo for the L1D.
    memo_d: Option<(crate::addr::LineAddr, MesiState)>,
}

/// Snapshot of the counters a feedback mechanism needs, cheap to copy.
///
/// The dynamic-`N` tuner (§III-B) compares mean L2 hit rate across epochs;
/// it takes a snapshot at each boundary and diffs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemSnapshot {
    /// Sum of L2 hits across all cores.
    pub l2_hits: u64,
    /// Sum of L2 misses across all cores.
    pub l2_misses: u64,
    /// Cache-to-cache transfers.
    pub c2c_transfers: u64,
    /// Invalidation rounds.
    pub invalidation_rounds: u64,
    /// DRAM demand accesses.
    pub dram_accesses: u64,
}

impl MemSnapshot {
    /// L2 hit rate over the interval `earlier..self`; 0 for an empty
    /// interval.
    pub fn l2_hit_rate_since(&self, earlier: &MemSnapshot) -> f64 {
        let hits = self.l2_hits - earlier.l2_hits;
        let total = hits + (self.l2_misses - earlier.l2_misses);
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// The complete memory system of the simulated CMP.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct MemorySystem {
    config: MemConfig,
    cores: Vec<CoreCaches>,
    directory: Directory,
    interconnect: Interconnect,
    dram: Dram,
}

impl fmt::Debug for MemorySystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemorySystem")
            .field("cores", &self.cores.len())
            .field("l2", &self.config.l2)
            .field("directory", &self.directory.tracked_lines())
            .finish()
    }
}

impl MemorySystem {
    /// Builds an empty (cold) memory system.
    pub fn new(config: MemConfig) -> Self {
        let mut seed = config.seed;
        let cores = (0..config.cores)
            .map(|_| {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                CoreCaches {
                    l1i: Cache::new(config.l1i, config.replacement, seed ^ 0x11),
                    l1d: Cache::new(config.l1d, config.replacement, seed ^ 0x22),
                    l2: Cache::new(config.l2, config.replacement, seed ^ 0x33),
                    memo_i: None,
                    memo_d: None,
                }
            })
            .collect();
        // Pre-size the directory for every line the L2s can hold, so the
        // map never grows (and thus never allocates) during simulation.
        let tracked = config.l2.capacity_lines() as usize * config.cores;
        MemorySystem {
            interconnect: config.interconnect,
            dram: Dram::new(config.dram_latency),
            config,
            cores,
            directory: Directory::with_capacity(tracked),
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Performs one memory access on behalf of `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    ///
    /// The repeat-hit memo check is inlineable so back-to-back accesses
    /// to the same line resolve in the caller; the full hierarchy walk
    /// stays out of line.
    #[inline]
    pub fn access(&mut self, core: CoreId, access: Access) -> AccessOutcome {
        let line = access.addr.line();
        let kind = access.kind;

        // ---- Repeat-hit fast path ----
        // If this L1 served exactly this line last time and no permission
        // work is needed (writes require an M copy), the access is a plain
        // hit. Skipping the LRU touch is order-preserving: the memoized
        // line is already the cache's most recently used, and repeat hits
        // cannot change any line's relative recency.
        {
            let caches = &mut self.cores[core.index()];
            let memo = match kind {
                AccessKind::Fetch => caches.memo_i,
                AccessKind::Read | AccessKind::Write => caches.memo_d,
            };
            if let Some((mline, mstate)) = memo {
                if mline == line && (kind != AccessKind::Write || mstate == MesiState::Modified) {
                    let l1 = match kind {
                        AccessKind::Fetch => &mut caches.l1i,
                        AccessKind::Read | AccessKind::Write => &mut caches.l1d,
                    };
                    l1.stats_mut().hits.incr();
                    return AccessOutcome {
                        latency: Cycle::new(self.config.l1_latency),
                        level: HitLevel::L1,
                        upgraded: false,
                    };
                }
            }
        }
        self.access_walk(core, line, kind)
    }

    /// Memo-miss tail of [`MemorySystem::access`]: the L1 → L2 →
    /// directory walk.
    #[inline(never)]
    fn access_walk(
        &mut self,
        core: CoreId,
        line: crate::addr::LineAddr,
        kind: AccessKind,
    ) -> AccessOutcome {
        let mut latency = Cycle::new(self.config.l1_latency);

        // ---- L1 ----
        let l1_state = self.l1_of(core, kind).touch(line);
        match l1_state {
            Some(state) if kind != AccessKind::Write || state.can_write() => {
                self.l1_of(core, kind).stats_mut().hits.incr();
                let final_state = if kind == AccessKind::Write {
                    if state == MesiState::Exclusive {
                        // Silent E→M upgrade, mirrored in L2 and the directory.
                        self.l1_of(core, kind).set_state(line, MesiState::Modified);
                        self.cores[core.index()]
                            .l2
                            .set_state(line, MesiState::Modified);
                        self.directory.silent_upgrade(line, core);
                    }
                    MesiState::Modified
                } else {
                    state
                };
                self.set_memo(core, kind, line, final_state);
                return AccessOutcome {
                    latency,
                    level: HitLevel::L1,
                    upgraded: false,
                };
            }
            Some(_) => {
                // Write to a Shared copy: data is local, permission is not.
                self.l1_of(core, kind).stats_mut().hits.incr();
                latency += self.upgrade_to_modified(core, line, kind);
                self.set_memo(core, kind, line, MesiState::Modified);
                return AccessOutcome {
                    latency,
                    level: HitLevel::L1,
                    upgraded: true,
                };
            }
            None => {
                self.l1_of(core, kind).stats_mut().misses.incr();
            }
        }

        // ---- L2 ----
        latency += self.config.l2_latency;
        let l2_state = self.cores[core.index()].l2.touch(line);
        match l2_state {
            Some(state) if kind != AccessKind::Write || state.can_write() => {
                self.cores[core.index()].l2.stats_mut().hits.incr();
                let fill_state = if kind == AccessKind::Write {
                    if state == MesiState::Exclusive {
                        self.directory.silent_upgrade(line, core);
                    }
                    self.cores[core.index()]
                        .l2
                        .set_state(line, MesiState::Modified);
                    MesiState::Modified
                } else {
                    state
                };
                self.fill_l1(core, kind, line, fill_state);
                self.set_memo(core, kind, line, fill_state);
                return AccessOutcome {
                    latency,
                    level: HitLevel::L2,
                    upgraded: false,
                };
            }
            Some(_) => {
                self.cores[core.index()].l2.stats_mut().hits.incr();
                latency += self.upgrade_to_modified(core, line, kind);
                self.fill_l1(core, kind, line, MesiState::Modified);
                self.set_memo(core, kind, line, MesiState::Modified);
                return AccessOutcome {
                    latency,
                    level: HitLevel::L2,
                    upgraded: true,
                };
            }
            None => {
                self.cores[core.index()].l2.stats_mut().misses.incr();
            }
        }

        // ---- Directory / remote / memory ----
        latency += self.interconnect.charge_directory();
        let (level, fill_state) = if kind == AccessKind::Write {
            let action = self.directory.write_miss(line, core);
            let level = match action.source {
                DataSource::Memory => {
                    latency += self.dram.charge_access();
                    HitLevel::Memory
                }
                DataSource::RemoteCache { .. } => {
                    latency += self.interconnect.charge_c2c();
                    HitLevel::RemoteCache
                }
            };
            latency += self
                .interconnect
                .charge_invalidation(action.invalidate.len());
            for victim in action.invalidate {
                self.invalidate_remote(victim, line);
            }
            (level, MesiState::Modified)
        } else {
            let action = self.directory.read_miss(line, core);
            let level = match action.source {
                DataSource::Memory => {
                    latency += self.dram.charge_access();
                    HitLevel::Memory
                }
                DataSource::RemoteCache { .. } => {
                    latency += self.interconnect.charge_c2c();
                    HitLevel::RemoteCache
                }
            };
            for holder in action.downgrade {
                self.downgrade_remote(holder, line);
            }
            let state = if action.exclusive {
                MesiState::Exclusive
            } else {
                MesiState::Shared
            };
            (level, state)
        };

        self.install_l2(core, line, fill_state);
        self.fill_l1(core, kind, line, fill_state);
        self.set_memo(core, kind, line, fill_state);
        AccessOutcome {
            latency,
            level,
            upgraded: false,
        }
    }

    /// Records the line (and state) an L1 just served, arming the
    /// repeat-hit fast path.
    fn set_memo(
        &mut self,
        core: CoreId,
        kind: AccessKind,
        line: crate::addr::LineAddr,
        state: MesiState,
    ) {
        let caches = &mut self.cores[core.index()];
        match kind {
            AccessKind::Fetch => caches.memo_i = Some((line, state)),
            AccessKind::Read | AccessKind::Write => caches.memo_d = Some((line, state)),
        }
    }

    /// Drops `core`'s memos if they reference `line` (any external state
    /// change to that line makes the memo stale).
    fn clear_memo(&mut self, core: CoreId, line: crate::addr::LineAddr) {
        let caches = &mut self.cores[core.index()];
        if caches.memo_i.is_some_and(|(l, _)| l == line) {
            caches.memo_i = None;
        }
        if caches.memo_d.is_some_and(|(l, _)| l == line) {
            caches.memo_d = None;
        }
    }

    /// Performs the S→M permission upgrade for a line whose data is
    /// already present locally. Returns the added latency.
    fn upgrade_to_modified(
        &mut self,
        core: CoreId,
        line: crate::addr::LineAddr,
        kind: AccessKind,
    ) -> Cycle {
        let mut extra = self.interconnect.charge_directory();
        let action = self.directory.write_miss(line, core);
        debug_assert_eq!(
            action.source,
            DataSource::Memory,
            "upgrade must not move data"
        );
        extra += self
            .interconnect
            .charge_invalidation(action.invalidate.len());
        for victim in action.invalidate {
            self.invalidate_remote(victim, line);
        }
        self.cores[core.index()]
            .l2
            .set_state(line, MesiState::Modified);
        self.l1_of(core, kind).set_state(line, MesiState::Modified);
        extra
    }

    fn l1_of(&mut self, core: CoreId, kind: AccessKind) -> &mut Cache {
        let caches = &mut self.cores[core.index()];
        match kind {
            AccessKind::Fetch => &mut caches.l1i,
            AccessKind::Read | AccessKind::Write => &mut caches.l1d,
        }
    }

    /// Installs `line` into `core`'s L2, handling eviction bookkeeping.
    fn install_l2(&mut self, core: CoreId, line: crate::addr::LineAddr, state: MesiState) {
        if let Some(evicted) = self.cores[core.index()].l2.insert(line, state) {
            self.directory.evicted(evicted.line, core);
            if evicted.state.is_dirty() {
                self.dram.record_writeback();
            }
            // Inclusion: the victim may not linger in either L1.
            self.cores[core.index()]
                .l1i
                .set_state(evicted.line, MesiState::Invalid);
            self.cores[core.index()]
                .l1d
                .set_state(evicted.line, MesiState::Invalid);
            self.clear_memo(core, evicted.line);
        }
    }

    /// Installs `line` into the appropriate L1 (evictions are silent:
    /// the L2 is state-authoritative at all times).
    fn fill_l1(
        &mut self,
        core: CoreId,
        kind: AccessKind,
        line: crate::addr::LineAddr,
        state: MesiState,
    ) {
        self.l1_of(core, kind).insert(line, state);
    }

    /// Removes `line` everywhere in `victim`'s hierarchy (remote write).
    fn invalidate_remote(&mut self, victim: CoreId, line: crate::addr::LineAddr) {
        let caches = &mut self.cores[victim.index()];
        caches.l2.invalidate(line);
        caches.l1i.set_state(line, MesiState::Invalid);
        caches.l1d.set_state(line, MesiState::Invalid);
        self.clear_memo(victim, line);
        self.directory.evicted(line, victim); // write_miss re-registered the writer only
    }

    /// Downgrades `line` to Shared in `holder`'s hierarchy (remote read).
    fn downgrade_remote(&mut self, holder: CoreId, line: crate::addr::LineAddr) {
        let caches = &mut self.cores[holder.index()];
        if let Some(state) = caches.l2.state_of(line) {
            if state.is_dirty() {
                // The dirty data was supplied c2c and memory is updated.
                self.dram.record_writeback();
            }
            if state != MesiState::Shared {
                caches.l2.set_state(line, MesiState::Shared);
            }
        }
        if caches.l1i.state_of(line).is_some() {
            caches.l1i.set_state(line, MesiState::Shared);
        }
        if caches.l1d.state_of(line).is_some() {
            caches.l1d.set_state(line, MesiState::Shared);
        }
        self.clear_memo(holder, line);
    }

    /// L1 data cache statistics of `core`.
    pub fn l1d_stats(&self, core: CoreId) -> &CacheStats {
        self.cores[core.index()].l1d.stats()
    }

    /// L1 instruction cache statistics of `core`.
    pub fn l1i_stats(&self, core: CoreId) -> &CacheStats {
        self.cores[core.index()].l1i.stats()
    }

    /// L2 statistics of `core`.
    pub fn l2_stats(&self, core: CoreId) -> &CacheStats {
        self.cores[core.index()].l2.stats()
    }

    /// Interconnect traffic view.
    pub fn interconnect(&self) -> &Interconnect {
        &self.interconnect
    }

    /// DRAM view.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Mean L2 hit rate across all cores (the tuner's feedback metric).
    pub fn mean_l2_hit_rate(&self) -> f64 {
        let (mut hits, mut total) = (0u64, 0u64);
        for c in &self.cores {
            hits += c.l2.stats().hits.get();
            total += c.l2.stats().hits.get() + c.l2.stats().misses.get();
        }
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Zeroes every statistic in the memory system — cache hit/miss
    /// counters, interconnect traffic and DRAM access counts — while
    /// leaving all cache *contents* warm. Called once at the end of the
    /// warm-up phase (the paper warms 50 M instructions before its
    /// region of interest, §II).
    pub fn reset_stats(&mut self) {
        for c in &mut self.cores {
            c.l1i.stats_mut().reset();
            c.l1d.stats_mut().reset();
            c.l2.stats_mut().reset();
        }
        self.interconnect.reset_stats();
        self.dram.reset_stats();
    }

    /// Takes a counter snapshot for interval-based feedback.
    pub fn snapshot(&self) -> MemSnapshot {
        let (mut l2_hits, mut l2_misses) = (0u64, 0u64);
        for c in &self.cores {
            l2_hits += c.l2.stats().hits.get();
            l2_misses += c.l2.stats().misses.get();
        }
        MemSnapshot {
            l2_hits,
            l2_misses,
            c2c_transfers: self.interconnect.c2c_transfers(),
            invalidation_rounds: self.interconnect.invalidation_rounds(),
            dram_accesses: self.dram.accesses(),
        }
    }

    /// Verifies cross-structure coherence invariants (tests only):
    /// the directory's sharer sets must match actual L2 residency, and at
    /// most one core may hold a line in M/E.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn check_invariants(&self) {
        self.directory.check_invariants();
        for (i, caches) in self.cores.iter().enumerate() {
            let me = CoreId::new(i);
            for (line, state) in caches.l2.iter() {
                assert!(
                    self.directory.sharers(line) & me.bit() != 0,
                    "{me} holds {line} ({state}) but directory disagrees"
                );
                if state == MesiState::Modified {
                    assert_eq!(
                        self.directory.sharers(line),
                        me.bit(),
                        "{me} holds {line} Modified but other sharers exist"
                    );
                }
                if state == MesiState::Exclusive {
                    assert_eq!(
                        self.directory.sharers(line),
                        me.bit(),
                        "{me} holds {line} Exclusive but other sharers exist"
                    );
                }
            }
            // Inclusion: L1-resident lines must be L2-resident.
            for (line, _) in caches.l1d.iter().chain(caches.l1i.iter()) {
                assert!(
                    caches.l2.state_of(line).is_some(),
                    "{me}: L1 holds {line} not present in L2 (inclusion violated)"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(cores: usize) -> MemorySystem {
        // Small caches so tests exercise evictions: 2 KB L1s, 8 KB L2.
        let mut cfg = MemConfig::paper_baseline(cores);
        cfg.l1i = CacheGeometry::new(2048, 2);
        cfg.l1d = CacheGeometry::new(2048, 2);
        cfg.l2 = CacheGeometry::new(8192, 4);
        MemorySystem::new(cfg)
    }

    fn c(i: usize) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn cold_miss_then_l1_hit() {
        let mut m = sys(1);
        let a = Address::new(0x1000);
        let first = m.access(c(0), Access::read(a));
        assert_eq!(first.level, HitLevel::Memory);
        assert_eq!(
            first.latency.as_u64(),
            1 + 12 + m.config().interconnect.directory_lookup + 350
        );
        let second = m.access(c(0), Access::read(a));
        assert_eq!(second.level, HitLevel::L1);
        assert_eq!(second.latency.as_u64(), 1);
        m.check_invariants();
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut m = sys(1);
        let base = 0x4000u64;
        m.access(c(0), Access::read(Address::new(base)));
        // Evict from the 2-way L1 (16 sets) with two conflicting lines at a
        // 1 KiB stride; the 4-way 32-set L2 spreads the same lines across
        // two sets, so the original survives there.
        for i in 1..=2u64 {
            m.access(c(0), Access::read(Address::new(base + i * 1024)));
        }
        let back = m.access(c(0), Access::read(Address::new(base)));
        // Might be L2 hit (evicted from L1 only) — with 4-way 8 KB L2 and 9
        // distinct lines mapping across 32 sets, the original stays in L2.
        assert_eq!(back.level, HitLevel::L2);
        assert_eq!(back.latency.as_u64(), 1 + 12);
        m.check_invariants();
    }

    #[test]
    fn write_then_remote_read_is_cache_to_cache() {
        let mut m = sys(2);
        let a = Address::new(0x2000);
        m.access(c(0), Access::write(a));
        let remote = m.access(c(1), Access::read(a));
        assert_eq!(remote.level, HitLevel::RemoteCache);
        // Dirty supplier downgrades and memory gets the writeback.
        assert_eq!(m.dram().writebacks(), 1);
        m.check_invariants();
        // Both cores can now read locally.
        assert_eq!(m.access(c(0), Access::read(a)).level, HitLevel::L1);
        assert_eq!(m.access(c(1), Access::read(a)).level, HitLevel::L1);
    }

    #[test]
    fn shared_write_triggers_upgrade_and_invalidation() {
        let mut m = sys(2);
        let a = Address::new(0x3000);
        m.access(c(0), Access::read(a));
        m.access(c(1), Access::read(a)); // both Shared now
        let w = m.access(c(0), Access::write(a));
        assert!(w.upgraded, "write to S must be an upgrade");
        assert_eq!(w.level, HitLevel::L1);
        m.check_invariants();
        // Core 1 lost its copy; its next read is a c2c transfer.
        let r = m.access(c(1), Access::read(a));
        assert_eq!(r.level, HitLevel::RemoteCache);
        m.check_invariants();
    }

    #[test]
    fn write_miss_with_remote_sharers_invalidates() {
        let mut m = sys(2);
        let a = Address::new(0x5000);
        m.access(c(0), Access::read(a));
        let w = m.access(c(1), Access::write(a));
        assert_eq!(w.level, HitLevel::RemoteCache);
        m.check_invariants();
        // Core 0's copy is gone.
        let r = m.access(c(0), Access::read(a));
        assert_ne!(r.level, HitLevel::L1);
    }

    #[test]
    fn silent_exclusive_to_modified_upgrade_is_free() {
        let mut m = sys(1);
        let a = Address::new(0x7000);
        m.access(c(0), Access::read(a)); // E
        let w = m.access(c(0), Access::write(a));
        assert_eq!(w.level, HitLevel::L1);
        assert!(!w.upgraded);
        assert_eq!(w.latency.as_u64(), 1);
        m.check_invariants();
    }

    #[test]
    fn fetches_use_l1i() {
        let mut m = sys(1);
        let a = Address::new(0x9000);
        m.access(c(0), Access::fetch(a));
        assert_eq!(m.l1i_stats(c(0)).misses.get(), 1);
        assert_eq!(m.l1d_stats(c(0)).misses.get(), 0);
        m.access(c(0), Access::fetch(a));
        assert_eq!(m.l1i_stats(c(0)).hits.get(), 1);
        m.check_invariants();
    }

    #[test]
    fn l2_eviction_maintains_inclusion_and_directory() {
        let mut m = sys(2);
        // Fill one L2 set (4 ways) + 1: lines mapping to the same L2 set.
        // L2: 8192 B / 64 B / 4 ways = 32 sets. Same set => stride 32 lines.
        for i in 0..5u64 {
            m.access(c(0), Access::write(Address::new(i * 32 * 64)));
        }
        m.check_invariants();
        // One line was evicted dirty.
        assert!(m.dram().writebacks() >= 1);
    }

    #[test]
    fn mean_l2_hit_rate_reflects_traffic() {
        let mut m = sys(1);
        let a = Address::new(0x100);
        m.access(c(0), Access::read(a));
        assert_eq!(m.mean_l2_hit_rate(), 0.0);
        // L1 hits don't touch L2; force an L1 conflict to get an L2 hit.
        for i in 1..=2u64 {
            m.access(c(0), Access::read(Address::new(0x100 + i * 1024)));
        }
        m.access(c(0), Access::read(a));
        assert!(m.mean_l2_hit_rate() > 0.0);
    }

    #[test]
    fn snapshot_diffs_give_interval_rates() {
        let mut m = sys(1);
        let before = m.snapshot();
        for i in 0..16u64 {
            m.access(c(0), Access::read(Address::new(i * 64)));
        }
        let after = m.snapshot();
        assert_eq!(after.dram_accesses - before.dram_accesses, 16);
        assert_eq!(after.l2_hit_rate_since(&before), 0.0);
    }

    #[test]
    fn three_core_sharing_chain() {
        let mut m = sys(3);
        let a = Address::new(0xaa80);
        m.access(c(0), Access::write(a));
        m.access(c(1), Access::read(a));
        m.access(c(2), Access::read(a));
        m.check_invariants();
        let w = m.access(c(1), Access::write(a));
        assert!(w.upgraded);
        m.check_invariants();
        // Only core 1 retains the line.
        assert_eq!(m.access(c(1), Access::read(a)).level, HitLevel::L1);
        assert_ne!(m.access(c(0), Access::read(a)).level, HitLevel::L1);
    }

    #[test]
    fn debug_impl_is_nonempty() {
        let m = sys(1);
        assert!(!format!("{m:?}").is_empty());
    }
}
