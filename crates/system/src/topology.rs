//! N-user × M-OS core topologies: the OS-core pool and its dispatch
//! policies.
//!
//! The paper's §V-C study stops at 4 user cores sharing *one* OS core,
//! where queueing delay explodes past 25,000 cycles. This module
//! generalises the off-load back-end so the campaign can keep going: a
//! [`Topology`] names the core-count geometry, an [`OsCorePool`] serves
//! off-loaded invocations from `M` OS cores × `k` SMT contexts each, and
//! a [`DispatchPolicy`] decides which OS core a request lands on.
//!
//! The pool fixes the single-in-flight assumption of the original
//! [`OsCoreQueue`](crate::migration::OsCoreQueue): every dispatch hands
//! back a per-context reservation token ([`OsToken`]), so any number of
//! requests can be in flight concurrently and released in any order.
//!
//! ## Warmth model
//!
//! Each OS core remembers the most recent `WARM_CAP` AStates it
//! served (an MRU list standing in for its private L1/L2 contents).
//! When `os_cold_penalty` is non-zero, a dispatch whose AState is *not*
//! in the chosen core's warm set pays that many extra service cycles —
//! under **every** policy, which is what makes
//! [`AStateAffinity`](DispatchPolicy::AStateAffinity) a real contender:
//! routing a syscall back to the core that served its AState before
//! skips the penalty, at the cost of sometimes queueing behind it.

use core::fmt;
use osoffload_sim::{Counter, Cycle, Histogram, RunningStats};

/// AStates each OS core keeps warm (the MRU capacity of its modelled
/// cache footprint).
const WARM_CAP: usize = 32;

/// Core-count geometry of one off-loading run.
///
/// # Examples
///
/// ```
/// use osoffload_system::Topology;
///
/// let t = Topology {
///     user_cores: 16,
///     os_cores: 4,
///     contexts_per_core: 1,
/// };
/// assert_eq!(t.total_cores(), 20);
/// assert_eq!(t.os_contexts(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Cores running application threads.
    pub user_cores: usize,
    /// Cores dedicated to off-loaded OS work.
    pub os_cores: usize,
    /// SMT hardware contexts per OS core (1 = the paper's non-SMT core).
    pub contexts_per_core: usize,
}

impl Topology {
    /// Total physical cores the topology provisions.
    pub fn total_cores(&self) -> usize {
        self.user_cores + self.os_cores
    }

    /// Total OS-side hardware contexts (cores × contexts).
    pub fn os_contexts(&self) -> usize {
        self.os_cores * self.contexts_per_core
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} ({} ctx/core)",
            self.user_cores, self.os_cores, self.contexts_per_core
        )
    }
}

/// How the pool picks an OS core for an off-loaded invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchPolicy {
    /// `user_core mod os_cores`: each user core is pinned to one OS
    /// core. No global state, perfectly predictable, but hot user cores
    /// cannot spill onto idle OS cores.
    StaticPartition,
    /// Earliest-free context anywhere in the pool. With one OS core and
    /// one context this *is* the original single-server queue, which is
    /// why it is the default.
    #[default]
    LeastLoaded,
    /// Strict rotation over the OS cores, ignoring load.
    RoundRobin,
    /// Prefer an OS core whose warm set already holds the request's
    /// AState (earliest-free among the warm candidates); fall back to
    /// least-loaded when no core is warm.
    AStateAffinity,
}

impl DispatchPolicy {
    /// Every policy, in canonical sweep order.
    pub const ALL: [DispatchPolicy; 4] = [
        DispatchPolicy::StaticPartition,
        DispatchPolicy::LeastLoaded,
        DispatchPolicy::RoundRobin,
        DispatchPolicy::AStateAffinity,
    ];

    /// Stable CLI / archive label.
    pub fn label(self) -> &'static str {
        match self {
            DispatchPolicy::StaticPartition => "static-partition",
            DispatchPolicy::LeastLoaded => "least-loaded",
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::AStateAffinity => "astate-affinity",
        }
    }

    /// Parses a [`label`](Self::label).
    pub fn parse(s: &str) -> Option<DispatchPolicy> {
        DispatchPolicy::ALL.into_iter().find(|p| p.label() == s)
    }
}

impl fmt::Display for DispatchPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Reservation token for one in-flight dispatch: names the exact
/// hardware context serving the request, and must be handed back via
/// [`OsCorePool::release`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsToken {
    core: usize,
    ctx: usize,
}

impl OsToken {
    /// Pool-relative index of the OS core serving the request.
    pub fn core(&self) -> usize {
        self.core
    }

    /// Hardware context on that core.
    pub fn ctx(&self) -> usize {
        self.ctx
    }
}

/// Outcome of one [`OsCorePool::dispatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsDispatch {
    /// Reservation to hand back when service completes.
    pub token: OsToken,
    /// Pool-relative index of the chosen OS core.
    pub core: usize,
    /// Cycle at which service starts (arrival plus any queueing delay).
    pub start: Cycle,
    /// Extra service cycles charged because the chosen core was cold for
    /// this AState ([`Cycle::ZERO`] when the pool's cold penalty is 0 or
    /// the core was warm).
    pub warm_up: Cycle,
}

/// Per-core state inside the pool.
#[derive(Debug, Clone)]
struct OsCoreState {
    /// Next-free time of each hardware context.
    contexts: Vec<Cycle>,
    /// Contexts handed out by an unreleased dispatch.
    reserved: Vec<bool>,
    /// Accumulated service time on this core.
    busy: Cycle,
    /// MRU list of recently served AStates (capacity [`WARM_CAP`]).
    warm: Vec<u64>,
}

/// The multi-core service pool in front of the OS cores.
///
/// Replaces the single-server [`OsCoreQueue`](crate::OsCoreQueue):
/// requests carry per-context reservation tokens, so overlapping
/// dispatches are correct by construction and releases may arrive in
/// any order. With one core, one context, the default
/// [`LeastLoaded`](DispatchPolicy::LeastLoaded) policy and a zero cold
/// penalty, the pool is cycle-for-cycle identical to the old queue.
///
/// # Examples
///
/// ```
/// use osoffload_system::{DispatchPolicy, OsCorePool};
/// use osoffload_sim::Cycle;
///
/// let mut pool = OsCorePool::new(2, 1, DispatchPolicy::RoundRobin, 0);
/// let a = pool.dispatch(Cycle::new(100), 0, 7);
/// let b = pool.dispatch(Cycle::new(100), 0, 7);
/// // Two cores: concurrent requests land on different cores and both
/// // start immediately.
/// assert_ne!(a.core, b.core);
/// assert_eq!(a.start, Cycle::new(100));
/// assert_eq!(b.start, Cycle::new(100));
/// pool.release(b.token, Cycle::new(900));
/// pool.release(a.token, Cycle::new(1_200)); // out-of-order is fine
/// ```
#[derive(Debug, Clone)]
pub struct OsCorePool {
    cores: Vec<OsCoreState>,
    contexts_per_core: usize,
    policy: DispatchPolicy,
    cold_penalty: u64,
    rr_next: usize,
    requests: Counter,
    stalled: Counter,
    queue_delay: RunningStats,
    queue_delay_hist: Histogram,
}

impl OsCorePool {
    /// Creates an idle pool of `os_cores` cores × `contexts_per_core`
    /// SMT contexts, dispatching under `policy` with the given cold
    /// penalty (cycles added to service when the chosen core has not
    /// seen the request's AState recently; 0 disables the warmth model
    /// for every policy except
    /// [`AStateAffinity`](DispatchPolicy::AStateAffinity), which still
    /// tracks warmth to route).
    ///
    /// # Panics
    ///
    /// Panics if `os_cores` or `contexts_per_core` is zero.
    pub fn new(
        os_cores: usize,
        contexts_per_core: usize,
        policy: DispatchPolicy,
        cold_penalty: u64,
    ) -> Self {
        assert!(os_cores > 0, "OsCorePool: need at least one OS core");
        assert!(
            contexts_per_core > 0,
            "OsCorePool: need at least one context"
        );
        OsCorePool {
            cores: (0..os_cores)
                .map(|_| OsCoreState {
                    contexts: vec![Cycle::ZERO; contexts_per_core],
                    reserved: vec![false; contexts_per_core],
                    busy: Cycle::ZERO,
                    warm: Vec::with_capacity(WARM_CAP),
                })
                .collect(),
            contexts_per_core,
            policy,
            cold_penalty,
            rr_next: 0,
            requests: Counter::new(),
            stalled: Counter::new(),
            queue_delay: RunningStats::new(),
            queue_delay_hist: Histogram::new(),
        }
    }

    /// Creates a pool sized by a [`Topology`].
    pub fn from_topology(topo: Topology, policy: DispatchPolicy, cold_penalty: u64) -> Self {
        Self::new(topo.os_cores, topo.contexts_per_core, policy, cold_penalty)
    }

    /// Number of OS cores.
    pub fn os_cores(&self) -> usize {
        self.cores.len()
    }

    /// SMT contexts per OS core.
    pub fn contexts_per_core(&self) -> usize {
        self.contexts_per_core
    }

    /// The dispatch policy in force.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// Admits a request arriving at `arrival` from `user_core` with the
    /// given AState tag; returns the reservation, chosen core, service
    /// start cycle and any cold-start service surcharge.
    ///
    /// Queueing delay (`start - arrival`) excludes the warm-up
    /// surcharge: the former is time spent *waiting* for a context, the
    /// latter is extra *service* time.
    ///
    /// # Panics
    ///
    /// Panics if every context on the policy-chosen core is reserved
    /// (the caller holds more in-flight reservations than the core has
    /// contexts).
    pub fn dispatch(&mut self, arrival: Cycle, user_core: usize, astate: u64) -> OsDispatch {
        self.requests.incr();
        let core = match self.policy {
            DispatchPolicy::StaticPartition => user_core % self.cores.len(),
            DispatchPolicy::LeastLoaded => self.least_loaded_core(),
            DispatchPolicy::RoundRobin => {
                let c = self.rr_next % self.cores.len();
                self.rr_next = self.rr_next.wrapping_add(1);
                c
            }
            DispatchPolicy::AStateAffinity => self.affinity_core(astate),
        };
        let (ctx, free_at) = self.earliest_free(core);
        let start = arrival.max(free_at);
        let delay = start - arrival;
        if delay > Cycle::ZERO {
            self.stalled.incr();
        }
        self.queue_delay.record(delay.as_f64());
        self.queue_delay_hist.record(delay.as_u64());
        let warm_up = self.touch_warmth(core, astate);
        self.cores[core].reserved[ctx] = true;
        OsDispatch {
            token: OsToken { core, ctx },
            core,
            start,
            warm_up,
        }
    }

    /// Globally earliest-free unreserved context's core; ties break to
    /// the lowest `(core, context)` pair, matching the original queue's
    /// first-minimal `min_by_key`.
    fn least_loaded_core(&self) -> usize {
        let mut best: Option<(Cycle, usize)> = None;
        for (c, core) in self.cores.iter().enumerate() {
            for (x, &free) in core.contexts.iter().enumerate() {
                if core.reserved[x] {
                    continue;
                }
                if best.is_none_or(|(b, _)| free < b) {
                    best = Some((free, c));
                }
            }
        }
        best.expect("OsCorePool: no free context on any OS core").1
    }

    /// Earliest-free context among cores warm for `astate`; falls back
    /// to least-loaded when nothing is warm.
    fn affinity_core(&self, astate: u64) -> usize {
        let mut best: Option<(Cycle, usize)> = None;
        for (c, core) in self.cores.iter().enumerate() {
            if !core.warm.contains(&astate) {
                continue;
            }
            for (x, &free) in core.contexts.iter().enumerate() {
                if core.reserved[x] {
                    continue;
                }
                if best.is_none_or(|(b, _)| free < b) {
                    best = Some((free, c));
                }
            }
        }
        match best {
            Some((_, c)) => c,
            None => self.least_loaded_core(),
        }
    }

    /// Earliest-free unreserved context on `core` (first-minimal
    /// tie-break, identical to the original queue's selection).
    fn earliest_free(&self, core: usize) -> (usize, Cycle) {
        let c = &self.cores[core];
        c.contexts
            .iter()
            .enumerate()
            .filter(|&(x, _)| !c.reserved[x])
            .min_by_key(|&(_, &t)| t)
            .map(|(x, &t)| (x, t))
            .unwrap_or_else(|| panic!("OsCorePool: no free context on OS core {core}"))
    }

    /// Updates `core`'s MRU warm set with `astate` and returns the
    /// cold-start surcharge. The whole model is skipped (zero cost, no
    /// state) when it cannot matter: penalty 0 and a policy that does
    /// not route on warmth.
    fn touch_warmth(&mut self, core: usize, astate: u64) -> Cycle {
        if self.cold_penalty == 0 && self.policy != DispatchPolicy::AStateAffinity {
            return Cycle::ZERO;
        }
        let warm = &mut self.cores[core].warm;
        let pos = warm.iter().position(|&a| a == astate);
        let was_warm = pos.is_some();
        match pos {
            Some(0) => {}
            Some(p) => {
                warm.remove(p);
                warm.insert(0, astate);
            }
            None => {
                if warm.len() == WARM_CAP {
                    warm.pop();
                }
                warm.insert(0, astate);
            }
        }
        if was_warm {
            Cycle::ZERO
        } else {
            Cycle::new(self.cold_penalty)
        }
    }

    /// Frees the context named by `token` at `end` (the service
    /// completion time). Releases may arrive in any order.
    ///
    /// # Panics
    ///
    /// Panics if the token's context is not currently reserved.
    pub fn release(&mut self, token: OsToken, end: Cycle) {
        let core = &mut self.cores[token.core];
        assert!(
            core.reserved[token.ctx],
            "OsCorePool: release without dispatch"
        );
        core.reserved[token.ctx] = false;
        core.contexts[token.ctx] = end;
    }

    /// Adds `cycles` of service to OS core `core`'s busy account.
    pub fn add_busy(&mut self, core: usize, cycles: Cycle) {
        self.cores[core].busy += cycles;
    }

    /// Busy time accumulated by OS core `core`.
    pub fn core_busy(&self, core: usize) -> Cycle {
        self.cores[core].busy
    }

    /// Total busy time across every OS core.
    pub fn busy(&self) -> Cycle {
        self.cores
            .iter()
            .map(|c| c.busy)
            .fold(Cycle::ZERO, |a, b| a + b)
    }

    /// Number of dispatches currently awaiting release.
    pub fn in_flight(&self) -> usize {
        self.cores
            .iter()
            .map(|c| c.reserved.iter().filter(|&&r| r).count())
            .sum()
    }

    /// Total requests admitted.
    pub fn requests(&self) -> u64 {
        self.requests.get()
    }

    /// Requests that had to wait for a context.
    pub fn stalled(&self) -> u64 {
        self.stalled.get()
    }

    /// Queue-delay statistics (cycles).
    pub fn queue_delay(&self) -> &RunningStats {
        &self.queue_delay
    }

    /// Queue-delay distribution.
    pub fn queue_delay_hist(&self) -> &Histogram {
        &self.queue_delay_hist
    }

    /// Clears statistics (after warm-up) without touching queue state:
    /// context next-free times, reservations, warm sets and the
    /// round-robin cursor all survive, exactly like caches do.
    pub fn reset_stats(&mut self) {
        for c in &mut self.cores {
            c.busy = Cycle::ZERO;
        }
        self.requests.take();
        self.stalled.take();
        self.queue_delay = RunningStats::new();
        self.queue_delay_hist = Histogram::new();
    }
}

impl fmt::Display for OsCorePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cores × {} ctx [{}]: {} requests ({} stalled), mean queue delay {:.0} cyc",
            self.cores.len(),
            self.contexts_per_core,
            self.policy,
            self.requests.get(),
            self.stalled.get(),
            self.queue_delay.mean()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migration::OsCoreQueue;
    use osoffload_sim::Rng64;

    #[test]
    fn topology_geometry() {
        let t = Topology {
            user_cores: 8,
            os_cores: 2,
            contexts_per_core: 2,
        };
        assert_eq!(t.total_cores(), 10);
        assert_eq!(t.os_contexts(), 4);
        assert!(t.to_string().contains("8:2"));
    }

    #[test]
    fn dispatch_policy_labels_round_trip() {
        for p in DispatchPolicy::ALL {
            assert_eq!(DispatchPolicy::parse(p.label()), Some(p));
            assert_eq!(p.to_string(), p.label());
        }
        assert_eq!(DispatchPolicy::parse("nope"), None);
        assert_eq!(DispatchPolicy::default(), DispatchPolicy::LeastLoaded);
    }

    /// Satellite regression, old half: the original queue cannot hold
    /// two requests in flight even when it has two SMT contexts — the
    /// second `acquire` trips the single-in-flight assertion instead of
    /// using the idle context.
    #[test]
    #[should_panic(expected = "acquire while in flight")]
    fn old_queue_rejects_overlapping_acquires() {
        let mut q = OsCoreQueue::with_contexts(2);
        let s1 = q.acquire(Cycle::new(100));
        assert_eq!(s1, Cycle::new(100));
        // Second request arrives while the first is still being served.
        let _ = q.acquire(Cycle::new(150));
    }

    /// Satellite regression, new half: the pool interleaves the same two
    /// requests correctly — distinct context reservations, immediate
    /// starts, out-of-order release, and busy accounting that sums both
    /// services.
    #[test]
    fn pool_interleaves_overlapping_requests() {
        let mut pool = OsCorePool::new(1, 2, DispatchPolicy::LeastLoaded, 0);
        let a = pool.dispatch(Cycle::new(100), 0, 1);
        let b = pool.dispatch(Cycle::new(150), 0, 2);
        assert_eq!(a.start, Cycle::new(100));
        assert_eq!(b.start, Cycle::new(150), "second context serves b at once");
        assert_ne!(a.token.ctx(), b.token.ctx());
        assert_eq!(pool.in_flight(), 2);
        // Release out of order: b finishes before a.
        pool.release(b.token, Cycle::new(400));
        pool.add_busy(b.core, Cycle::new(250));
        pool.release(a.token, Cycle::new(1_100));
        pool.add_busy(a.core, Cycle::new(1_000));
        assert_eq!(pool.in_flight(), 0);
        assert_eq!(pool.busy(), Cycle::new(1_250));
        // A third request with both contexts free again queues behind
        // the *earlier* completion.
        let c = pool.dispatch(Cycle::new(200), 0, 3);
        assert_eq!(c.start, Cycle::new(400));
        assert_eq!(pool.stalled(), 1);
        assert_eq!(pool.requests(), 3);
    }

    #[test]
    #[should_panic(expected = "release without dispatch")]
    fn double_release_panics() {
        let mut pool = OsCorePool::new(1, 1, DispatchPolicy::LeastLoaded, 0);
        let d = pool.dispatch(Cycle::new(1), 0, 0);
        pool.release(d.token, Cycle::new(5));
        pool.release(d.token, Cycle::new(6));
    }

    #[test]
    #[should_panic(expected = "no free context")]
    fn exhausted_core_panics_instead_of_corrupting() {
        let mut pool = OsCorePool::new(1, 1, DispatchPolicy::LeastLoaded, 0);
        let _ = pool.dispatch(Cycle::new(1), 0, 0);
        let _ = pool.dispatch(Cycle::new(2), 0, 0);
    }

    /// Equivalence where the old model was correct: a strictly
    /// sequential dispatch/release history produces the same start
    /// times and statistics as the single-server queue.
    #[test]
    fn single_core_pool_matches_old_queue_sequentially() {
        let mut q = OsCoreQueue::new();
        let mut pool = OsCorePool::new(1, 1, DispatchPolicy::LeastLoaded, 0);
        let mut rng = Rng64::seed_from(9);
        let mut t = 0u64;
        for _ in 0..200 {
            t += rng.next_u64() % 2_000;
            let arrival = Cycle::new(t);
            let service = 1 + rng.next_u64() % 3_000;
            let qs = q.acquire(arrival);
            let d = pool.dispatch(arrival, 0, rng.next_u64() % 8);
            assert_eq!(d.start, qs);
            assert_eq!(d.warm_up, Cycle::ZERO);
            let end = qs + Cycle::new(service);
            q.release(end);
            q.add_busy(Cycle::new(service));
            pool.release(d.token, end);
            pool.add_busy(d.core, Cycle::new(service));
        }
        assert_eq!(pool.requests(), q.requests());
        assert_eq!(pool.stalled(), q.stalled());
        assert_eq!(pool.busy(), q.busy());
        assert_eq!(pool.queue_delay().mean(), q.queue_delay().mean());
        assert_eq!(
            pool.queue_delay_hist().quantile(99.0),
            q.queue_delay_hist().quantile(99.0)
        );
    }

    #[test]
    fn static_partition_pins_user_cores() {
        let mut pool = OsCorePool::new(2, 4, DispatchPolicy::StaticPartition, 0);
        for user in 0..8 {
            let d = pool.dispatch(Cycle::new(user as u64), user, 0);
            assert_eq!(d.core, user % 2);
        }
    }

    #[test]
    fn round_robin_cycles_over_cores() {
        let mut pool = OsCorePool::new(3, 4, DispatchPolicy::RoundRobin, 0);
        let cores: Vec<usize> = (0..6)
            .map(|i| pool.dispatch(Cycle::new(i), 0, 0).core)
            .collect();
        assert_eq!(cores, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_loaded_spills_to_the_idle_core() {
        let mut pool = OsCorePool::new(2, 1, DispatchPolicy::LeastLoaded, 0);
        let a = pool.dispatch(Cycle::new(100), 0, 0);
        assert_eq!(a.core, 0);
        // Core 0 busy: the concurrent request runs on core 1 at once.
        let b = pool.dispatch(Cycle::new(120), 0, 0);
        assert_eq!(b.core, 1);
        assert_eq!(b.start, Cycle::new(120));
        assert_eq!(pool.stalled(), 0);
    }

    #[test]
    fn affinity_routes_warm_astates_and_skips_their_penalty() {
        let mut pool = OsCorePool::new(2, 1, DispatchPolicy::AStateAffinity, 500);
        // Nothing warm: falls back to least-loaded (core 0), pays cold.
        let a = pool.dispatch(Cycle::new(0), 0, 7);
        assert_eq!(a.core, 0);
        assert_eq!(a.warm_up, Cycle::new(500));
        pool.release(a.token, Cycle::new(100));
        // Same AState again: routed back to the now-warm core 0, free.
        let b = pool.dispatch(Cycle::new(200), 3, 7);
        assert_eq!(b.core, 0);
        assert_eq!(b.warm_up, Cycle::ZERO);
        pool.release(b.token, Cycle::new(300));
        // A different AState is cold everywhere.
        let c = pool.dispatch(Cycle::new(400), 0, 8);
        assert_eq!(c.warm_up, Cycle::new(500));
    }

    #[test]
    fn cold_penalty_is_charged_under_every_policy() {
        for policy in DispatchPolicy::ALL {
            let mut pool = OsCorePool::new(1, 2, policy, 300);
            let a = pool.dispatch(Cycle::new(0), 0, 42);
            assert_eq!(a.warm_up, Cycle::new(300), "{policy}: first touch cold");
            pool.release(a.token, Cycle::new(50));
            let b = pool.dispatch(Cycle::new(100), 0, 42);
            assert_eq!(b.warm_up, Cycle::ZERO, "{policy}: second touch warm");
            pool.release(b.token, Cycle::new(150));
        }
    }

    #[test]
    fn warm_set_is_bounded_lru() {
        let mut pool = OsCorePool::new(1, 1, DispatchPolicy::LeastLoaded, 100);
        // Fill past capacity; the oldest AState must be evicted.
        for a in 0..(WARM_CAP as u64 + 1) {
            let d = pool.dispatch(Cycle::new(a * 10), 0, a);
            assert_eq!(d.warm_up, Cycle::new(100));
            pool.release(d.token, Cycle::new(a * 10 + 1));
        }
        // AState 0 was evicted; the newest survives.
        let old = pool.dispatch(Cycle::new(10_000), 0, 0);
        assert_eq!(old.warm_up, Cycle::new(100), "evicted AState is cold");
        pool.release(old.token, Cycle::new(10_001));
        let newest = pool.dispatch(Cycle::new(10_100), 0, WARM_CAP as u64);
        assert_eq!(newest.warm_up, Cycle::ZERO);
    }

    /// Seventh-invariant property, pool level: under every policy and a
    /// random arrival/service history, dispatch never starts a request
    /// before its arrival, and per-core busy sums to the pool total.
    #[test]
    fn dispatch_never_starts_before_arrival() {
        for policy in DispatchPolicy::ALL {
            // 6 contexts per core: even load-blind policies (static
            // partition, round-robin) cannot over-subscribe a core with
            // 5 requests in flight.
            let mut pool = OsCorePool::new(3, 6, policy, 250);
            let mut rng = Rng64::seed_from(0xD15);
            let mut t = 0u64;
            let mut open: Vec<(OsToken, Cycle)> = Vec::new();
            for i in 0..500 {
                t += rng.next_u64() % 1_500;
                let arrival = Cycle::new(t);
                let d = pool.dispatch(arrival, i % 5, rng.next_u64() % 16);
                assert!(
                    d.start >= arrival,
                    "{policy}: started {:?} before arrival {arrival:?}",
                    d.start
                );
                let end = d.start + d.warm_up + Cycle::new(1 + rng.next_u64() % 2_000);
                pool.add_busy(d.core, end - d.start);
                open.push((d.token, end));
                // Keep up to 5 in flight, draining the oldest first.
                if open.len() > 5 {
                    let (tok, end) = open.remove(0);
                    pool.release(tok, end);
                }
            }
            for (tok, end) in open {
                pool.release(tok, end);
            }
            let per_core: u64 = (0..pool.os_cores())
                .map(|c| pool.core_busy(c).as_u64())
                .sum();
            assert_eq!(per_core, pool.busy().as_u64(), "{policy}: busy sum");
            assert_eq!(pool.requests(), 500);
        }
    }

    #[test]
    fn reset_clears_stats_but_keeps_machine_state() {
        let mut pool = OsCorePool::new(2, 1, DispatchPolicy::RoundRobin, 100);
        let a = pool.dispatch(Cycle::new(0), 0, 1);
        pool.release(a.token, Cycle::new(900));
        pool.add_busy(a.core, Cycle::new(900));
        pool.reset_stats();
        assert_eq!(pool.requests(), 0);
        assert_eq!(pool.busy(), Cycle::ZERO);
        // Machine state survives: the context frees at 900, the RR
        // cursor points at core 1, and AState 1 is still warm.
        let b = pool.dispatch(Cycle::new(100), 0, 2);
        assert_eq!(b.core, 1, "round-robin cursor kept");
        pool.release(b.token, Cycle::new(200));
        let c = pool.dispatch(Cycle::new(100), 0, 1);
        assert_eq!(c.core, 0);
        assert_eq!(c.start, Cycle::new(900), "context next-free time kept");
        assert_eq!(c.warm_up, Cycle::ZERO, "warm set kept");
    }

    #[test]
    fn from_topology_sizes_the_pool() {
        let pool = OsCorePool::from_topology(
            Topology {
                user_cores: 4,
                os_cores: 2,
                contexts_per_core: 3,
            },
            DispatchPolicy::LeastLoaded,
            0,
        );
        assert_eq!(pool.os_cores(), 2);
        assert_eq!(pool.contexts_per_core(), 3);
        assert!(!pool.to_string().is_empty());
    }

    #[test]
    #[should_panic(expected = "need at least one OS core")]
    fn zero_cores_panics() {
        OsCorePool::new(0, 1, DispatchPolicy::LeastLoaded, 0);
    }
}
