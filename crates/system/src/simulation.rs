//! The assembled CMP simulation.
//!
//! [`Simulation`] connects every substrate: workload streams drive
//! per-thread execution; instructions walk the core model (TLB, branch
//! predictor) and the memory hierarchy; privileged invocations consult
//! the configured decision policy; off-loaded invocations migrate to an
//! OS core picked by the [`OsCorePool`]'s dispatch policy; and the
//! optional §III-B tuner adjusts the threshold at epoch boundaries using
//! L2 hit-rate feedback.
//!
//! ## Timing model
//!
//! Each software thread owns a local cycle clock. The engine always
//! advances the thread with the smallest clock, one *segment* (user burst
//! or whole privileged invocation) at a time. Threads sharing a user core
//! serialise on the core's `free_at` time — this is the coarse-grained
//! multithreading the paper assumes when it maps two threads per core so
//! that "workloads that might stall on I/O operations … continue making
//! progress" (§II): while one thread's invocation is off-loaded to the OS
//! core, its sibling uses the user core.
//!
//! Every instruction costs one base cycle plus any TLB-refill, cache-miss
//! and branch-misprediction penalties; L1 hits are fully pipelined
//! (zero *added* cycles), so a perfectly cache-resident thread retires
//! one instruction per cycle, like the paper's in-order UltraSPARC cores.
//!
//! ## Observation
//!
//! Every user burst, invocation, migration leg, queue wait, OS-core
//! service span, observation-epoch sample and tuner decision of the
//! measured region is one [`Event`], emitted to the run's one
//! observation handle. The handle is absent when the configuration
//! observes nothing, so each emission site is one never-taken branch;
//! otherwise each event is built once and handed to the telemetry ring,
//! the per-invocation trace and the cycle profile, whichever the
//! configuration enabled. [`Simulation::run_observed`] returns what
//! they recorded as an [`Observation`].

use crate::config::SystemConfig;
use crate::metrics::{BinaryPoint, PredictorReport, QueueReport, SimReport};
use crate::migration::OffloadMechanism;
use crate::observe::{Observation, Observer};
use crate::topology::OsCorePool;
use crate::trace::InvocationTrace;
use osoffload_core::{
    AState, BinaryAccuracyTracker, OffloadPolicy, OsEntry, PredictorStats, ThresholdTuner,
};
use osoffload_cpu::{ArchState, CoreParams, CoreState};
use osoffload_mem::{Access, Address, CoreId, MemSnapshot, MemorySystem};
use osoffload_obs::{Event, EventKind, Placement, Track};
use osoffload_sim::{
    alloc_audit, CancelToken, Cancelled, Counter, Cycle, EpochClock, EpochEvent, Instret, Rng64,
};
use osoffload_workload::{
    InstrSpec, OsInvocation, Segment, SharedTape, TapeCursor, TapedInstr, ThreadWorkload,
};

/// Where a thread's draw stream comes from: a live generator, or a
/// cursor into a shared [`WorkloadTape`] (the runner replays one
/// recording for every point of a workload shape that has several).
/// Both produce bit-identical streams; see [`osoffload_workload::tape`].
///
/// [`WorkloadTape`]: osoffload_workload::WorkloadTape
// Boxing the live generator would put a pointer chase on every draw in
// the scalar hot loop; the enum lives in a per-thread Vec sized at
// construction, so the size skew costs nothing.
#[allow(clippy::large_enum_variant)]
enum DrawSource {
    Live(ThreadWorkload),
    Tape(TapeCursor),
}

impl DrawSource {
    #[inline]
    fn next_segment(&mut self) -> Segment {
        match self {
            DrawSource::Live(wl) => wl.next_segment(),
            DrawSource::Tape(c) => c.next_segment(),
        }
    }

    /// Instruction `j` of the current segment of `source`.
    #[inline]
    fn instr(&mut self, source: InstrSource, j: u64) -> InstrSpec {
        match self {
            DrawSource::Live(wl) => match source {
                InstrSource::User => wl.user_instr(),
                InstrSource::Os(inv) => wl.os_instr(inv, j),
            },
            DrawSource::Tape(c) => c.instr(j),
        }
    }

    /// For a tape source, the current segment's location — the shared
    /// tape plus the `(first, end)` span — so the hot loop can
    /// read the whole segment through one borrow as a contiguous
    /// slice. `None` for live sources.
    fn tape_span(&self) -> Option<(SharedTape, (usize, usize))> {
        match self {
            DrawSource::Live(_) => None,
            DrawSource::Tape(c) => Some((c.tape().clone(), c.span())),
        }
    }
}

struct ThreadCtx {
    src: DrawSource,
    arch: ArchState,
    clock: Cycle,
    user_core: usize,
}

/// Where a batched segment draws its instruction stream from.
#[derive(Clone, Copy)]
enum InstrSource<'a> {
    /// User-mode burst.
    User,
    /// Body of a privileged invocation.
    Os(&'a OsInvocation),
}

/// One configured simulation run.
///
/// # Examples
///
/// ```
/// use osoffload_system::{Simulation, SystemConfig, PolicyKind};
/// use osoffload_workload::Profile;
///
/// let cfg = SystemConfig::builder()
///     .profile(Profile::blackscholes())
///     .policy(PolicyKind::HardwarePredictor { threshold: 1_000 })
///     .migration_latency(100)
///     .instructions(50_000)
///     .seed(7)
///     .build();
/// let report = Simulation::new(cfg).run();
/// assert!(report.throughput() > 0.0);
/// ```
pub struct Simulation {
    cfg: SystemConfig,
    mem: MemorySystem,
    cores: Vec<CoreState>,
    core_free: Vec<Cycle>,
    /// OS cores in this run's topology (0 for baseline and
    /// resource-adaptation runs). OS core `i` of the pool occupies
    /// physical core `cfg.user_cores + i`.
    os_cores: usize,
    threads: Vec<ThreadCtx>,
    policies: Vec<Box<dyn OffloadPolicy>>,
    pool: OsCorePool,
    tracker: BinaryAccuracyTracker,
    tuner: Option<ThresholdTuner>,
    epoch: Option<EpochClock>,
    epoch_snapshot: MemSnapshot,
    /// The observation handle: `None` when the configuration observes
    /// nothing, and until the measured region starts.
    obs: Option<Box<Observer>>,
    offloads: Counter,
    locals: Counter,
    overhead_cycles: Counter,
    throttled_cycles: Counter,
    cyc_fetch: Counter,
    cyc_data: Counter,
    cyc_tlb: Counter,
    cyc_branch: Counter,
    retired_total: Instret,
    retired_priv: Instret,
    l1_latency: u64,
    cancel: Option<CancelToken>,
    /// Route segments through the retained per-instruction stepper
    /// instead of the batched one (bit-identity testing only).
    #[cfg(feature = "reference-stepper")]
    reference_stepper: bool,
}

impl Simulation {
    /// Builds a cold simulation from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SystemConfig::validate`];
    /// use [`try_new`](Self::try_new) to get the violation as a typed
    /// error instead.
    pub fn new(cfg: SystemConfig) -> Self {
        match Self::try_new(cfg) {
            Ok(sim) => sim,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds a cold simulation, rejecting a degenerate configuration
    /// with a typed [`ConfigError`](crate::ConfigError) instead of
    /// panicking deep inside a subsystem constructor.
    pub fn try_new(cfg: SystemConfig) -> Result<Self, crate::ConfigError> {
        cfg.validate()?;
        Ok(Self::build(cfg, None))
    }

    /// Builds a validated simulation; with a `tape`, its threads replay
    /// it instead of generating live. The tape must have been built for
    /// this configuration's (profile, phases, thread-count, seed)
    /// shape; [`TapeRegistry`](crate::lanes::TapeRegistry) guarantees
    /// that by keying tapes on exactly those fields.
    pub(crate) fn build(cfg: SystemConfig, tape: Option<SharedTape>) -> Self {
        let mut mem_cfg = cfg.mem_config();
        mem_cfg.seed ^= cfg.seed;
        let l1_latency = mem_cfg.l1_latency;
        let mem = MemorySystem::new(mem_cfg);

        let total_cores = cfg.total_cores();
        let cores: Vec<CoreState> = (0..total_cores)
            .map(|_| CoreState::new(CoreParams::paper_default()))
            .collect();
        let os_cores = if cfg.policy.is_baseline() || cfg.resource_adaptation.is_some() {
            0
        } else {
            cfg.os_cores
        };

        let mut master = Rng64::seed_from(cfg.seed);
        let threads = (0..cfg.thread_count())
            .map(|i| ThreadCtx {
                src: if let Some(tape) = &tape {
                    DrawSource::Tape(TapeCursor::new(tape.clone(), i))
                } else if cfg.phases.is_empty() {
                    DrawSource::Live(ThreadWorkload::new(
                        cfg.profile.clone(),
                        i,
                        master.split().next_u64(),
                    ))
                } else {
                    DrawSource::Live(ThreadWorkload::with_phases(
                        cfg.profile.clone(),
                        cfg.phases.clone(),
                        i,
                        master.split().next_u64(),
                    ))
                },
                arch: ArchState::new(),
                clock: Cycle::ZERO,
                user_core: i / cfg.profile.threads_per_core,
            })
            .collect();

        let policies = (0..cfg.user_cores)
            .map(|_| cfg.policy.build(&cfg.profile, cfg.migration))
            .collect();

        Simulation {
            mem,
            cores,
            core_free: vec![Cycle::ZERO; total_cores],
            os_cores,
            threads,
            policies,
            pool: OsCorePool::new(
                cfg.os_cores.max(1),
                cfg.os_core_contexts,
                cfg.dispatch,
                cfg.os_cold_penalty,
            ),
            tracker: BinaryAccuracyTracker::paper_grid(),
            tuner: cfg.tuner.clone().map(ThresholdTuner::new),
            epoch: None,
            epoch_snapshot: MemSnapshot::default(),
            obs: None,
            offloads: Counter::new(),
            locals: Counter::new(),
            overhead_cycles: Counter::new(),
            throttled_cycles: Counter::new(),
            cyc_fetch: Counter::new(),
            cyc_data: Counter::new(),
            cyc_tlb: Counter::new(),
            cyc_branch: Counter::new(),
            retired_total: Instret::ZERO,
            retired_priv: Instret::ZERO,
            l1_latency,
            cancel: None,
            #[cfg(feature = "reference-stepper")]
            reference_stepper: false,
            cfg,
        }
    }

    /// Installs a cancellation token the run polls at its segment
    /// accounting boundaries (builder-style; call before `run`).
    ///
    /// When the token is raised mid-run the simulation unwinds with a
    /// [`Cancelled`] panic payload — the experiment runner catches it
    /// and records the point as timed out. Without a token the poll is
    /// a single branch on a `None`, so watchdog-disabled runs stay
    /// bit-identical and allocation-free.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Runs warm-up plus the measured region and produces the report.
    pub fn run(mut self) -> SimReport {
        let measured_start = self.run_core();
        self.build_report(measured_start)
    }

    /// Runs the simulation through the retained per-instruction reference
    /// stepper instead of the batched one. Exists solely so the
    /// bit-identity suite can prove the batched stepper changes nothing.
    #[cfg(feature = "reference-stepper")]
    pub fn run_reference(mut self) -> SimReport {
        self.reference_stepper = true;
        let measured_start = self.run_core();
        self.build_report(measured_start)
    }

    /// The shared warm-up → reset → measure sequence behind every run
    /// flavour. Returns the cycle the measured region started at.
    fn run_core(&mut self) -> Cycle {
        // Every thread replays the same tape, if any: sizing it for the
        // whole run keeps the measured region allocation-free.
        if let DrawSource::Tape(c) = &self.threads[0].src {
            let budgets = [self.cfg.warmup, self.cfg.instructions];
            c.tape().borrow_mut().reserve(&budgets);
        }
        if self.cfg.warmup > 0 {
            self.execute(Instret::new(self.cfg.warmup));
        }
        let measured_start = self.begin_measured();
        alloc_audit::region_enter();
        self.execute(Instret::new(self.cfg.instructions));
        alloc_audit::region_exit();
        measured_start
    }

    /// The warm-up → measured transition: snapshots the warm-up
    /// privileged fraction, resets statistics, arms the tuner and the
    /// observation handle, and returns the cycle the measured region
    /// starts at. All allocating setup happens here, *before* the
    /// allocation-audited region; warm-up is never observed.
    fn begin_measured(&mut self) -> Cycle {
        let warmup_priv_frac = if self.retired_total > Instret::ZERO {
            self.retired_priv.as_f64() / self.retired_total.as_f64()
        } else {
            0.0
        };
        self.reset_statistics();
        self.start_tuner(warmup_priv_frac);
        let start = self.max_clock();
        self.obs = Observer::for_config(&self.cfg, self.os_cores, &self.mem, start);
        start
    }

    fn max_clock(&self) -> Cycle {
        self.threads
            .iter()
            .map(|t| t.clock)
            .fold(Cycle::ZERO, Cycle::max)
    }

    fn reset_statistics(&mut self) {
        self.mem.reset_stats();
        for c in &mut self.cores {
            c.reset_stats();
        }
        self.pool.reset_stats();
        for p in &mut self.policies {
            p.reset_stats();
        }
        self.tracker = BinaryAccuracyTracker::paper_grid();
        self.offloads.take();
        self.locals.take();
        self.overhead_cycles.take();
        self.throttled_cycles.take();
        self.cyc_fetch.take();
        self.cyc_data.take();
        self.cyc_tlb.take();
        self.cyc_branch.take();
        self.retired_total = Instret::ZERO;
        self.retired_priv = Instret::ZERO;
    }

    fn start_tuner(&mut self, priv_fraction: f64) {
        let Some(tuner) = self.tuner.as_mut() else {
            return;
        };
        let directive = tuner.initialize(priv_fraction);
        for p in &mut self.policies {
            p.set_threshold(directive.threshold);
        }
        self.epoch = Some(EpochClock::new(directive.epoch_len));
        self.epoch_snapshot = self.mem.snapshot();
    }

    fn execute(&mut self, target: Instret) {
        let start = self.retired_total;
        while self.retired_total - start < target {
            self.step_segment();
        }
    }

    /// Advances the lowest-clock thread by exactly one segment (a user
    /// burst or a whole privileged invocation).
    fn step_segment(&mut self) {
        let t = self.next_thread();
        match self.threads[t].src.next_segment() {
            Segment::User { len } => self.run_user_burst(t, len),
            Segment::Os(inv) => self.run_invocation(t, inv),
        }
    }

    fn next_thread(&self) -> usize {
        self.threads
            .iter()
            .enumerate()
            .min_by_key(|(i, t)| (t.clock, *i))
            .map(|(i, _)| i)
            .expect("at least one thread")
    }

    /// Executes `len` instructions of `source` for thread `t` on
    /// `core_idx`, returning the elapsed cycles in the issuing clock
    /// domain.
    ///
    /// This is the batched stepper: per-instruction penalty cycles
    /// accumulate in locals and commit to the shared counters once per
    /// segment, so the inner loop touches only the TLB/cache/branch
    /// structures each instruction actually exercises. The sequence of
    /// workload draws and structure updates is exactly that of stepping
    /// one instruction at a time (the retained reference stepper), which
    /// the bit-identity suite verifies.
    ///
    /// `scale_milli` stretches each instruction's cost by `/1000` with
    /// per-instruction floor division — heterogeneous OS cores and
    /// resource-adaptation throttling both scale this way, and the floor
    /// must stay per-instruction (a sum of floors is not the floor of the
    /// sum).
    fn run_batch(
        &mut self,
        t: usize,
        core_idx: usize,
        len: u64,
        source: InstrSource,
        scale_milli: u64,
    ) -> Cycle {
        #[cfg(feature = "reference-stepper")]
        if self.reference_stepper {
            return self.run_batch_reference(t, core_idx, len, source, scale_milli);
        }
        let cid = CoreId::new(core_idx);
        let l1_latency = self.l1_latency;
        let mut elapsed = 0u64;
        let (mut acc_tlb, mut acc_fetch, mut acc_data, mut acc_branch) = (0u64, 0u64, 0u64, 0u64);
        // Replaying a tape, the whole segment is already recorded in
        // the shared tape: borrow it once and walk the contiguous spec
        // slice, instead of paying a shared-state access per
        // instruction. Live sources draw per instruction as before.
        let tape_span = self.threads[t].src.tape_span();
        let guard = tape_span.as_ref().map(|(tape, _)| tape.borrow());
        let feed: Option<&[TapedInstr]> = match (&guard, &tape_span) {
            (Some(g), Some((_, (first, end)))) => Some(g.specs(*first, *end)),
            _ => None,
        };
        for j in 0..len {
            let spec = match feed {
                Some(specs) => specs[j as usize].unpack(),
                None => self.threads[t].src.instr(source, j),
            };
            let mut cost = 1u64;
            let tlb_i = self.cores[core_idx].tlb_mut().translate(spec.pc).as_u64();
            let fetch = self.mem.access(cid, Access::fetch(Address::new(spec.pc)));
            let fetch_extra = fetch.latency.as_u64() - l1_latency;
            cost += tlb_i + fetch_extra;
            acc_tlb += tlb_i;
            acc_fetch += fetch_extra;
            if let Some(m) = spec.mem {
                let tlb_d = self.cores[core_idx].tlb_mut().translate(m.addr).as_u64();
                let access = if m.write {
                    Access::write(Address::new(m.addr))
                } else {
                    Access::read(Address::new(m.addr))
                };
                let outcome = self.mem.access(cid, access);
                let data_extra = outcome.latency.as_u64() - l1_latency;
                cost += tlb_d + data_extra;
                acc_tlb += tlb_d;
                acc_data += data_extra;
            }
            if let Some(taken) = spec.branch {
                let bp = self.cores[core_idx]
                    .branch_mut()
                    .execute(spec.pc, taken)
                    .as_u64();
                cost += bp;
                acc_branch += bp;
            }
            elapsed += if scale_milli == 1_000 {
                cost
            } else {
                cost * scale_milli / 1_000
            };
        }
        self.cyc_tlb.add(acc_tlb);
        self.cyc_fetch.add(acc_fetch);
        self.cyc_data.add(acc_data);
        self.cyc_branch.add(acc_branch);
        Cycle::new(elapsed)
    }

    /// The pre-batching stepper: one instruction per call, counters
    /// committed immediately. Retained behind the `reference-stepper`
    /// feature as the oracle the bit-identity suite compares against.
    #[cfg(feature = "reference-stepper")]
    fn run_batch_reference(
        &mut self,
        t: usize,
        core_idx: usize,
        len: u64,
        source: InstrSource,
        scale_milli: u64,
    ) -> Cycle {
        let mut elapsed = 0u64;
        for j in 0..len {
            let spec = self.threads[t].src.instr(source, j);
            let cost = self.exec_instr(core_idx, &spec);
            elapsed += if scale_milli == 1_000 {
                cost
            } else {
                cost * scale_milli / 1_000
            };
        }
        Cycle::new(elapsed)
    }

    /// Cost of one dynamic instruction on `core_idx`, in cycles.
    #[cfg(feature = "reference-stepper")]
    fn exec_instr(&mut self, core_idx: usize, spec: &InstrSpec) -> u64 {
        let cid = CoreId::new(core_idx);
        let mut cost = 1u64;
        let tlb_i = self.cores[core_idx].tlb_mut().translate(spec.pc).as_u64();
        let fetch = self.mem.access(cid, Access::fetch(Address::new(spec.pc)));
        let fetch_extra = fetch.latency.as_u64() - self.l1_latency;
        cost += tlb_i + fetch_extra;
        self.cyc_tlb.add(tlb_i);
        self.cyc_fetch.add(fetch_extra);
        if let Some(m) = spec.mem {
            let tlb_d = self.cores[core_idx].tlb_mut().translate(m.addr).as_u64();
            let access = if m.write {
                Access::write(Address::new(m.addr))
            } else {
                Access::read(Address::new(m.addr))
            };
            let outcome = self.mem.access(cid, access);
            let data_extra = outcome.latency.as_u64() - self.l1_latency;
            cost += tlb_d + data_extra;
            self.cyc_tlb.add(tlb_d);
            self.cyc_data.add(data_extra);
        }
        if let Some(taken) = spec.branch {
            let bp = self.cores[core_idx]
                .branch_mut()
                .execute(spec.pc, taken)
                .as_u64();
            cost += bp;
            self.cyc_branch.add(bp);
        }
        cost
    }

    fn run_user_burst(&mut self, t: usize, len: u64) {
        let core_idx = self.threads[t].user_core;
        let start = self.threads[t].clock.max(self.core_free[core_idx]);
        let now = start + self.run_batch(t, core_idx, len, InstrSource::User, 1_000);
        self.cores[core_idx].retire_user(len);
        self.cores[core_idx].add_busy(now - start);
        self.core_free[core_idx] = now;
        self.threads[t].clock = now;
        self.emit(|| Event {
            ts: start.as_u64(),
            dur: (now - start).as_u64(),
            track: Track::Thread(t),
            kind: EventKind::UserBurst { len },
        });
        self.account(len, false);
    }

    /// Hands the event `f` builds to the observation handle; an
    /// unobserved run never calls `f`.
    #[inline]
    fn emit(&mut self, f: impl FnOnce() -> Event) {
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.consume(f());
        }
    }

    fn run_invocation(&mut self, t: usize, inv: OsInvocation) {
        let core_idx = self.threads[t].user_core;
        let len = inv.actual_len;

        // Trap entry: install the invocation's registers and switch mode.
        {
            let th = &mut self.threads[t];
            th.arch.set_global(1, inv.regs[0]);
            th.arch.set_input(0, inv.regs[1]);
            th.arch.set_input(1, inv.regs[2]);
            th.arch.enter_privileged();
        }
        let entry = OsEntry {
            astate: AState::from_arch(&self.threads[t].arch),
            routine: inv.syscall.trap_number(),
        };

        let policy = &mut self.policies[core_idx];
        policy.hint_actual(len);
        let decision = policy.decide(entry);
        if let Some(p) = decision.prediction {
            self.tracker.record(p.length, len);
        }
        self.overhead_cycles.add(decision.overhead_cycles);

        let entry_start = self.threads[t].clock.max(self.core_free[core_idx]);
        let mut now = entry_start + decision.overhead_cycles;
        let mut queue_delay = 0u64;
        let mut cold_penalty = 0u64;
        let placement;

        if decision.offload && self.cfg.resource_adaptation.is_some() {
            // Li & John resource adaptation (§VI-B): the invocation runs
            // locally while the core throttles — trading cycles for
            // power, with no migration and no second cache.
            let slowdown = self.cfg.resource_adaptation.expect("checked");
            self.offloads.incr();
            placement = Placement::Throttled;
            let throttle_start = now;
            now += self.run_batch(t, core_idx, len, InstrSource::Os(&inv), slowdown);
            self.throttled_cycles.add((now - throttle_start).as_u64());
            self.cores[core_idx].retire_privileged(len);
            self.cores[core_idx].add_busy(now - entry_start);
            self.core_free[core_idx] = now;
        } else if decision.offload && self.os_cores > 0 {
            self.offloads.incr();
            placement = Placement::OsCore;
            self.cores[core_idx].add_busy(now - entry_start);
            match self.cfg.mechanism {
                OffloadMechanism::ThreadMigration => {
                    // Off-loading migrates the *thread*: its architected
                    // state moves to the OS core and back (§II,
                    // "interrupting program control flow on the user
                    // processor and writing architected register state to
                    // memory"). The user core cannot run other work
                    // during the round trip at these microsecond
                    // timescales, so it stays reserved until the thread
                    // returns.
                }
                OffloadMechanism::RemoteCall => {
                    // RPC-style off-load (§II's untaken design point):
                    // only a request message leaves; the user core is
                    // free for the sibling thread while the OS core
                    // works.
                    self.core_free[core_idx] = now;
                }
            }

            let one_way = self.cfg.migration.one_way();
            let arrival = now + one_way;
            let d = self.pool.dispatch(arrival, core_idx, entry.astate.as_u64());
            // OS core `d.core` of the pool lives at this physical index.
            let os_idx = self.cfg.user_cores + d.core;
            queue_delay = (d.start - arrival).as_u64();
            cold_penalty = d.warm_up.as_u64();
            let os_scale = self.cfg.os_core_slowdown_milli;
            let os_now = d.start
                + d.warm_up
                + self.run_batch(t, os_idx, len, InstrSource::Os(&inv), os_scale);
            self.pool.release(d.token, os_now);
            self.pool.add_busy(d.core, os_now - d.start);
            self.cores[os_idx].retire_privileged(len);
            self.cores[os_idx].add_busy(os_now - d.start);
            self.emit(|| Event {
                ts: now.as_u64(),
                dur: one_way.as_u64(),
                track: Track::Thread(t),
                kind: EventKind::Migration { outbound: true },
            });
            if queue_delay > 0 {
                self.emit(|| Event {
                    ts: arrival.as_u64(),
                    dur: queue_delay,
                    track: Track::Thread(t),
                    kind: EventKind::QueueWait,
                });
            }
            self.emit(|| Event {
                ts: d.start.as_u64(),
                dur: (os_now - d.start).as_u64(),
                track: Track::Core(os_idx),
                kind: EventKind::OsService {
                    name: inv.syscall.spec().name,
                    len,
                },
            });
            self.emit(|| Event {
                ts: os_now.as_u64(),
                dur: one_way.as_u64(),
                track: Track::Thread(t),
                kind: EventKind::Migration { outbound: false },
            });
            now = os_now + one_way;
            if self.cfg.mechanism == OffloadMechanism::ThreadMigration {
                self.core_free[core_idx] = now;
            } else {
                // The response interrupts whichever thread holds the
                // user core; the returning thread resumes once the core
                // frees (handled by the next segment's max()).
            }
        } else {
            self.locals.incr();
            placement = Placement::Local;
            now += self.run_batch(t, core_idx, len, InstrSource::Os(&inv), 1_000);
            self.cores[core_idx].retire_privileged(len);
            self.cores[core_idx].add_busy(now - entry_start);
            self.core_free[core_idx] = now;
        }

        self.emit(|| Event {
            ts: entry_start.as_u64(),
            dur: (now - entry_start).as_u64(),
            track: Track::Thread(t),
            kind: EventKind::Invocation {
                name: inv.syscall.spec().name,
                trap: inv.syscall.trap_number(),
                astate: entry.astate.as_u64(),
                predicted: decision.prediction.map(|p| p.length),
                offloaded: decision.offload,
                actual_len: len,
                queue_delay,
                decision: decision.overhead_cycles,
                cold_penalty,
                placement,
            },
        });
        self.threads[t].clock = now;
        self.policies[core_idx].complete(entry, &decision, len);
        self.threads[t].arch.exit_privileged();
        self.account(len, true);
    }

    fn account(&mut self, n: u64, is_priv: bool) {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                std::panic::panic_any(Cancelled);
            }
        }
        self.retired_total += n;
        if is_priv {
            self.retired_priv += n;
        }
        self.tuner_epoch(n);
        self.observe_epoch(n);
    }

    /// Epoch-driven threshold tuning (§III-B).
    fn tuner_epoch(&mut self, n: u64) {
        let mut decision = None;
        {
            let Some(epoch) = self.epoch.as_mut() else {
                return;
            };
            if let EpochEvent::Boundary { count, .. } = epoch.advance(Instret::new(n)) {
                // A whole segment (possibly one long privileged invocation)
                // was advanced at once, so several epochs may have completed.
                // The L2 hit rate measured over the spanned interval is the
                // best per-epoch sample available for each of them; feed the
                // tuner once per boundary so it never under-samples.
                let snap = self.mem.snapshot();
                let rate = snap.l2_hit_rate_since(&self.epoch_snapshot);
                self.epoch_snapshot = snap;
                let tuner = self.tuner.as_mut().expect("epoch implies tuner");
                let mut directive = tuner.on_epoch_end(rate);
                for _ in 1..count {
                    directive = tuner.on_epoch_end(rate);
                }
                epoch.set_epoch_len(directive.epoch_len);
                let prev = self.policies.first().and_then(|p| p.threshold());
                for p in &mut self.policies {
                    p.set_threshold(directive.threshold);
                }
                decision = Some((directive, prev));
            }
        }
        if let Some((directive, prev)) = decision {
            if self.obs.is_some() {
                let ts = self.max_clock().as_u64();
                self.emit(|| Event {
                    ts,
                    dur: 0,
                    track: Track::Control,
                    kind: EventKind::TunerDecision {
                        threshold: directive.threshold,
                        epoch_len: directive.epoch_len.as_u64(),
                        adopted: prev != Some(directive.threshold),
                    },
                });
            }
        }
    }

    /// The observation clock: independent of the tuner's epoch so
    /// metric series exist for every policy.
    fn observe_epoch(&mut self, n: u64) {
        let Some(obs) = self.obs.as_deref_mut() else {
            return;
        };
        let EpochEvent::Boundary { first, count } = obs.clock.advance(Instret::new(n)) else {
            return;
        };
        // A long segment can span several epochs; one sample covers them
        // all, indexed by the last epoch it completes.
        self.obs_sample(first + count - 1);
    }

    /// Takes one epoch-boundary sample: emits the boundary instant and
    /// snapshots the accumulators the simulator already keeps into the
    /// telemetry metrics (nothing is incremented on the hot path).
    fn obs_sample(&mut self, index: u64) {
        let now = self.max_clock().as_u64();
        let snap = self.mem.snapshot();
        let obs = self
            .obs
            .as_deref_mut()
            .expect("sampled on the observation clock");
        let rate = snap.l2_hit_rate_since(&obs.snapshot);
        obs.snapshot = snap;
        obs.consume(Event {
            ts: now,
            dur: 0,
            track: Track::Control,
            kind: EventKind::Epoch {
                index,
                l2_hit_rate: rate,
            },
        });
        let window = now.saturating_sub(obs.start.as_u64());
        let Some(m) = obs.metrics() else {
            return;
        };
        let threshold = self
            .policies
            .first()
            .and_then(|p| p.threshold())
            .unwrap_or(0) as f64;
        let os_share = if self.retired_total > Instret::ZERO {
            self.retired_priv.as_f64() / self.retired_total.as_f64()
        } else {
            0.0
        };
        let queue_mean = self.pool.queue_delay().mean();
        let queue_p95 = self.pool.queue_delay_hist().quantile(95.0) as f64;
        m.reg.set(m.offloads, self.offloads.get() as f64);
        m.reg.set(m.locals, self.locals.get() as f64);
        m.reg.set(m.overhead, self.overhead_cycles.get() as f64);
        m.reg.set(m.queue_requests, self.pool.requests() as f64);
        m.reg.set(m.queue_stalled, self.pool.stalled() as f64);
        m.reg.set(m.os_busy, self.pool.busy().as_f64());
        m.reg.set(m.os_share, os_share);
        m.reg.set(m.l2_hit_rate, rate);
        m.reg.set(m.queue_mean_delay, queue_mean);
        m.reg.set(m.queue_p95_delay, queue_p95);
        m.reg.set(m.threshold, threshold);
        for i in 0..self.os_cores {
            let busy = self.pool.core_busy(i).as_f64();
            m.reg.set(m.core_busy[i], busy);
            let util = if window == 0 {
                0.0
            } else {
                (busy / window as f64).min(1.0)
            };
            m.reg.set(m.core_util[i], util);
        }
        m.reg.set(m.queue_depth, self.pool.in_flight() as f64);
        m.reg.commit_sample(index, self.retired_total.as_u64(), now);
    }

    fn merged_predictor_stats(&self) -> Option<PredictorStats> {
        let mut merged: Option<PredictorStats> = None;
        for p in &self.policies {
            if let Some(s) = p.predictor_stats() {
                match merged.as_mut() {
                    Some(m) => {
                        m.exact.merge(&s.exact);
                        m.within_close.merge(&s.within_close);
                        m.underestimates.merge(&s.underestimates);
                        m.local_source.merge(&s.local_source);
                    }
                    None => merged = Some(s),
                }
            }
        }
        merged
    }

    fn build_report(&self, measured_start: Cycle) -> SimReport {
        let cycles = (self.max_clock() - measured_start).as_u64().max(1);
        let instructions = self.retired_total.as_u64();

        let mut l1d = (0u64, 0u64);
        let mut l1i = (0u64, 0u64);
        let mut l2u = (0u64, 0u64);
        let (mut l1d_total, mut l1i_total, mut l2_total) = (0u64, 0u64, 0u64);
        for i in 0..self.cores.len() {
            let cid = CoreId::new(i);
            let d = self.mem.l1d_stats(cid);
            l1d_total += d.hits.get() + d.misses.get();
            let f = self.mem.l1i_stats(cid);
            l1i_total += f.hits.get() + f.misses.get();
            let l2 = self.mem.l2_stats(cid);
            l2_total += l2.hits.get() + l2.misses.get();
        }
        for i in 0..self.cfg.user_cores {
            let cid = CoreId::new(i);
            let d = self.mem.l1d_stats(cid);
            l1d.0 += d.hits.get();
            l1d.1 += d.hits.get() + d.misses.get();
            let ins = self.mem.l1i_stats(cid);
            l1i.0 += ins.hits.get();
            l1i.1 += ins.hits.get() + ins.misses.get();
            let l2 = self.mem.l2_stats(cid);
            l2u.0 += l2.hits.get();
            l2u.1 += l2.hits.get() + l2.misses.get();
        }
        let rate = |(h, t): (u64, u64)| if t == 0 { 0.0 } else { h as f64 / t as f64 };
        let user_branch_accuracy = {
            let (mut hits, mut total) = (0u64, 0u64);
            for core in self.cores.iter().take(self.cfg.user_cores) {
                let p = &core.branch().stats().predictions;
                hits += p.hits();
                total += p.total();
            }
            if total == 0 {
                0.0
            } else {
                hits as f64 / total as f64
            }
        };
        let l2_os_hit_rate = if self.os_cores == 0 {
            0.0
        } else {
            (0..self.os_cores)
                .map(|i| {
                    self.mem
                        .l2_stats(CoreId::new(self.cfg.user_cores + i))
                        .hit_rate()
                })
                .sum::<f64>()
                / self.os_cores as f64
        };

        let predictor = self.merged_predictor_stats().map(|s| PredictorReport {
            exact: s.exact.rate(),
            within_5pct: s.within_close.rate(),
            underestimates: s.underestimates.rate(),
            local_fraction: s.local_source.rate(),
        });

        SimReport {
            profile: self.cfg.profile.name.to_string(),
            policy: self.cfg.policy.label().to_string(),
            threshold: self.cfg.policy.threshold(),
            final_threshold: self.policies.first().and_then(|p| p.threshold()),
            migration_one_way: self.cfg.migration.one_way().as_u64(),
            user_cores: self.cfg.user_cores,
            os_cores: self.os_cores,
            dispatch: self.cfg.dispatch.label().to_string(),
            threads: self.threads.len(),
            instructions,
            cycles,
            throughput: instructions as f64 / cycles as f64,
            os_share: if instructions == 0 {
                0.0
            } else {
                self.retired_priv.as_f64() / instructions as f64
            },
            offloads: self.offloads.get(),
            local_invocations: self.locals.get(),
            decision_overhead_cycles: self.overhead_cycles.get(),
            l1d_hit_rate: rate(l1d),
            l1i_hit_rate: rate(l1i),
            user_branch_accuracy,
            l2_user_hit_rate: rate(l2u),
            l2_os_hit_rate,
            l2_mean_hit_rate: self.mem.mean_l2_hit_rate(),
            c2c_transfers: self.mem.interconnect().c2c_transfers(),
            invalidation_rounds: self.mem.interconnect().invalidation_rounds(),
            l1d_accesses: l1d_total,
            l1i_accesses: l1i_total,
            l2_accesses: l2_total,
            dram_accesses: self.mem.dram().accesses(),
            throttled_cycles: self.throttled_cycles.get(),
            // Thread clocks are skewed at the measurement boundary, so a
            // heavily saturated OS core can accrue slightly more busy
            // time than the max-clock window; clamp to the definition's
            // domain.
            os_core_busy_frac: (self.pool.busy().as_f64() / cycles as f64).min(1.0),
            os_core_busy_cycles: (0..self.os_cores)
                .map(|i| self.pool.core_busy(i).as_u64())
                .collect(),
            os_core_utilisation: (0..self.os_cores)
                .map(|i| (self.pool.core_busy(i).as_f64() / cycles as f64).min(1.0))
                .collect(),
            user_cores_busy_frac: {
                let busy: f64 = (0..self.cfg.user_cores)
                    .map(|i| self.cores[i].busy().as_f64())
                    .sum();
                (busy / (cycles as f64 * self.cfg.user_cores as f64)).min(1.0)
            },
            queue: QueueReport {
                requests: self.pool.requests(),
                stalled: self.pool.stalled(),
                mean_delay: self.pool.queue_delay().mean(),
                p50_delay: self.pool.queue_delay_hist().quantile(50.0),
                p95_delay: self.pool.queue_delay_hist().quantile(95.0),
                p99_delay: self.pool.queue_delay_hist().quantile(99.0),
            },
            cycle_breakdown: crate::metrics::CycleBreakdown {
                base: instructions,
                fetch: self.cyc_fetch.get(),
                data: self.cyc_data.get(),
                tlb: self.cyc_tlb.get(),
                branch: self.cyc_branch.get(),
                migration: self
                    .offloads
                    .get()
                    .saturating_mul(2)
                    .saturating_mul(self.cfg.migration.one_way().as_u64()),
                queue_wait: self.pool.queue_delay().sum() as u64,
                decision: self.overhead_cycles.get(),
            },
            binary_accuracy: self
                .tracker
                .iter()
                .map(|(threshold, accuracy)| BinaryPoint {
                    threshold,
                    accuracy,
                })
                .collect(),
            predictor,
            tuner_events: self.tuner.as_ref().map_or(0, |t| t.history().len()),
        }
    }

    /// Runs to completion and returns the report plus everything the
    /// configuration observed: telemetry (enable with
    /// [`SystemConfigBuilder::telemetry`](crate::config::SystemConfigBuilder::telemetry)),
    /// the cycle-attribution profile
    /// ([`profiling`](crate::config::SystemConfigBuilder::profiling)),
    /// the per-invocation trace
    /// ([`trace`](crate::config::SystemConfigBuilder::trace)) and the
    /// tuner's decision log.
    ///
    /// Observing never changes the run: the report is identical to the
    /// one [`run`](Self::run) produces for the same configuration and
    /// seed, whatever it observes.
    pub fn run_observed(mut self) -> (SimReport, Observation) {
        let measured_start = self.run_core();
        let report = self.build_report(measured_start);
        let observation = self.obs.take().map(|o| o.finish()).unwrap_or_default();
        let tuner = self.tuner.as_ref().map(|t| t.history().to_vec());
        let tuner = tuner.unwrap_or_default();
        (
            report,
            Observation {
                tuner,
                ..observation
            },
        )
    }

    /// [`run_observed`](Self::run_observed)'s report and
    /// per-invocation trace.
    pub fn run_traced(self) -> (SimReport, InvocationTrace) {
        let (report, observation) = self.run_observed();
        (report, observation.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyKind;
    use crate::profile::Phase;
    use osoffload_core::TunerConfig;
    use osoffload_workload::Profile;

    fn small(policy: PolicyKind, latency: u64) -> SystemConfig {
        SystemConfig::builder()
            .profile(Profile::apache())
            .policy(policy)
            .migration_latency(latency)
            .instructions(60_000)
            .warmup(20_000)
            .seed(42)
            .build()
    }

    #[test]
    fn baseline_run_produces_sane_report() {
        let r = Simulation::new(small(PolicyKind::Baseline, 0)).run();
        // Tiny runs are cache-cold; the bound only guards against
        // degenerate timing, not steady-state IPC.
        assert!(
            r.throughput > 0.02 && r.throughput < 1.0,
            "tput = {}",
            r.throughput
        );
        assert_eq!(r.offloads, 0);
        assert!(r.local_invocations > 0);
        assert!(
            r.os_share > 0.2,
            "apache should be OS-heavy: {}",
            r.os_share
        );
        assert_eq!(r.os_core_busy_frac, 0.0);
        assert!(r.instructions >= 60_000);
    }

    #[test]
    fn hardware_predictor_offloads_some_invocations() {
        let mut cfg = small(PolicyKind::HardwarePredictor { threshold: 500 }, 100);
        // The predictor needs a few visits per AState before its close
        // rate is meaningful; steady-state accuracy is asserted by the
        // longer integration tests.
        cfg.instructions = 500_000;
        cfg.warmup = 300_000;
        let r = Simulation::new(cfg).run();
        assert!(r.offloads > 0, "no offloads happened");
        assert!(r.local_invocations > 0, "everything offloaded");
        assert!(r.os_core_busy_frac > 0.0);
        assert!(r.queue.requests == r.offloads);
        let p = r.predictor.expect("HI reports predictor stats");
        assert!(
            p.within_5pct > 0.4,
            "predictor close rate = {}",
            p.within_5pct
        );
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let a = Simulation::new(small(
            PolicyKind::HardwarePredictor { threshold: 1_000 },
            1_000,
        ))
        .run();
        let b = Simulation::new(small(
            PolicyKind::HardwarePredictor { threshold: 1_000 },
            1_000,
        ))
        .run();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = small(PolicyKind::Baseline, 0);
        cfg.seed = 1;
        let a = Simulation::new(cfg.clone()).run();
        cfg.seed = 2;
        let b = Simulation::new(cfg).run();
        assert_ne!(a.cycles, b.cycles);
    }

    #[test]
    fn always_offload_offloads_everything() {
        let r = Simulation::new(small(PolicyKind::AlwaysOffload, 100)).run();
        assert_eq!(r.local_invocations, 0);
        assert!(r.offloads > 0);
    }

    #[test]
    fn high_threshold_offloads_nothing() {
        let r = Simulation::new(small(
            PolicyKind::HardwarePredictor {
                threshold: u64::MAX,
            },
            100,
        ))
        .run();
        assert_eq!(r.offloads, 0);
    }

    #[test]
    fn di_overhead_exceeds_hi_overhead() {
        let hi =
            Simulation::new(small(PolicyKind::HardwarePredictor { threshold: 500 }, 100)).run();
        let di = Simulation::new(small(
            PolicyKind::DynamicInstrumentation {
                threshold: 500,
                cost: 120,
            },
            100,
        ))
        .run();
        assert!(
            di.decision_overhead_cycles > hi.decision_overhead_cycles * 20,
            "DI overhead {} vs HI {}",
            di.decision_overhead_cycles,
            hi.decision_overhead_cycles
        );
    }

    #[test]
    fn tuner_runs_and_logs_events() {
        let mut cfg = small(PolicyKind::HardwarePredictor { threshold: 1_000 }, 100);
        cfg.tuner = Some(TunerConfig::scaled_down(2_000)); // 12.5K-insn samples
        let (report, observation) = Simulation::new(cfg).run_observed();
        assert!(report.tuner_events > 0, "tuner never fired");
        assert_eq!(observation.tuner.len(), report.tuner_events);
        assert!(report.final_threshold.is_some());
    }

    #[test]
    fn os_core_utilization_falls_with_threshold() {
        let low = Simulation::new(small(
            PolicyKind::HardwarePredictor { threshold: 100 },
            1_000,
        ))
        .run();
        let high = Simulation::new(small(
            PolicyKind::HardwarePredictor { threshold: 10_000 },
            1_000,
        ))
        .run();
        assert!(
            low.os_core_busy_frac > high.os_core_busy_frac,
            "low-N busy {} vs high-N busy {}",
            low.os_core_busy_frac,
            high.os_core_busy_frac
        );
    }

    #[test]
    fn binary_accuracy_grid_is_reported() {
        let r = Simulation::new(small(PolicyKind::HardwarePredictor { threshold: 500 }, 100)).run();
        assert_eq!(r.binary_accuracy.len(), 5);
        for p in &r.binary_accuracy {
            assert!((0.0..=1.0).contains(&p.accuracy));
        }
    }

    #[test]
    fn remote_call_mechanism_frees_the_user_core() {
        use crate::migration::OffloadMechanism;
        let mk = |mech| {
            let mut cfg = small(PolicyKind::HardwarePredictor { threshold: 100 }, 1_000);
            cfg.instructions = 200_000;
            cfg.warmup = 100_000;
            cfg.mechanism = mech;
            Simulation::new(cfg).run()
        };
        let migration = mk(OffloadMechanism::ThreadMigration);
        let rpc = mk(OffloadMechanism::RemoteCall);
        // With two threads per core, freeing the user core during remote
        // execution lets the sibling overlap: RPC must be faster.
        assert!(
            rpc.throughput > migration.throughput,
            "rpc {:.4} vs migration {:.4}",
            rpc.throughput,
            migration.throughput
        );
    }

    #[test]
    fn telemetry_does_not_perturb_the_report() {
        use osoffload_obs::TelemetryMode;
        let run = |mode: TelemetryMode| {
            let mut cfg = small(PolicyKind::HardwarePredictor { threshold: 500 }, 1_000);
            cfg.telemetry = mode;
            Simulation::new(cfg).run_observed().0
        };
        let off = run(TelemetryMode::Off);
        let full = run(TelemetryMode::Full);
        assert_eq!(off, full, "full tracing changed the simulation");
        // And against the plain runner too.
        let plain = Simulation::new(small(
            PolicyKind::HardwarePredictor { threshold: 500 },
            1_000,
        ))
        .run();
        assert_eq!(off, plain);
    }

    #[test]
    fn full_telemetry_captures_spans_and_metrics() {
        use osoffload_obs::{EventKind, TelemetryMode};
        let mut cfg = small(PolicyKind::HardwarePredictor { threshold: 500 }, 1_000);
        cfg.telemetry = TelemetryMode::Full;
        cfg.tuner = Some(osoffload_core::TunerConfig::scaled_down(2_000));
        let (report, observation) = Simulation::new(cfg).run_observed();
        let telemetry = observation.telemetry;
        assert_eq!(telemetry.mode, TelemetryMode::Full);
        assert!(telemetry.events_seen > 0);
        let count =
            |f: fn(&EventKind) -> bool| telemetry.events.iter().filter(|e| f(&e.kind)).count();
        assert!(count(|k| matches!(k, EventKind::Invocation { .. })) > 0);
        assert!(count(|k| matches!(k, EventKind::UserBurst { .. })) > 0);
        assert!(count(|k| matches!(k, EventKind::Epoch { .. })) > 0);
        if report.offloads > 0 {
            assert!(count(|k| matches!(k, EventKind::Migration { .. })) > 0);
            assert!(count(|k| matches!(k, EventKind::OsService { .. })) > 0);
        }
        // Deterministic epoch sampling: long segments may merge epochs,
        // but a healthy run still yields dozens of rows in epoch order.
        let samples = telemetry.metrics.samples();
        assert!(samples.len() >= 16, "only {} samples", samples.len());
        assert!(samples.windows(2).all(|w| w[0].cycles <= w[1].cycles));
        assert!(samples.windows(2).all(|w| w[0].epoch < w[1].epoch));
        // 11 scalar series plus the per-OS-core busy/utilisation pairs
        // and the dispatch queue depth (one OS core here).
        assert_eq!(telemetry.metrics.metrics().len(), 14);
        let names: Vec<&str> = telemetry
            .metrics
            .metrics()
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert!(names.contains(&"os_core0_busy_cycles"), "{names:?}");
        assert!(names.contains(&"os_core0_utilisation"), "{names:?}");
        assert!(names.contains(&"dispatch_queue_depth"), "{names:?}");
        let trace = telemetry.chrome_trace();
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"ph\":\"C\""), "counter series missing");
    }

    #[test]
    fn profiling_does_not_perturb_the_report() {
        use osoffload_obs::TelemetryMode;
        let plain = Simulation::new(small(
            PolicyKind::HardwarePredictor { threshold: 500 },
            1_000,
        ))
        .run();
        let mut cfg = small(PolicyKind::HardwarePredictor { threshold: 500 }, 1_000);
        cfg.profiling = true;
        let (profiled, observation) = Simulation::new(cfg.clone()).run_observed();
        assert_eq!(plain, profiled, "profiling changed the simulation");
        assert!(observation.profile.enabled);
        assert!(observation.telemetry.metrics.metrics().is_empty());
        assert!(observation.telemetry.events.is_empty());
        // Every observation layer on at once must also be a no-op.
        cfg.telemetry = TelemetryMode::Full;
        cfg.trace_capacity = 1 << 14;
        let (all, observed) = Simulation::new(cfg).run_observed();
        assert_eq!(
            plain, all,
            "profiling + telemetry + trace changed the simulation"
        );
        assert!(observed.telemetry.events_seen > 0);
        assert_eq!(
            observation.profile.to_collapsed(),
            observed.profile.to_collapsed()
        );
    }

    #[test]
    fn profile_reconciles_with_the_cycle_breakdown() {
        use crate::topology::DispatchPolicy;
        let hi = |profile: Profile| {
            let mut cfg = small(PolicyKind::HardwarePredictor { threshold: 100 }, 1_000);
            cfg.profile = profile;
            cfg.instructions = 200_000;
            cfg.warmup = 100_000;
            cfg.profiling = true;
            cfg
        };
        let mut adapted = hi(Profile::apache());
        adapted.resource_adaptation = Some(1_250);
        let mut remote = hi(Profile::specjbb());
        remote.mechanism = OffloadMechanism::RemoteCall;
        let affinity = SystemConfig::builder()
            .profile(Profile::apache())
            .policy(PolicyKind::HardwarePredictor { threshold: 100 })
            .migration_latency(1_000)
            .user_cores(4)
            .os_cores(2)
            .dispatch(DispatchPolicy::AStateAffinity)
            .os_cold_penalty(300)
            .instructions(200_000)
            .warmup(50_000)
            .seed(5)
            .profiling(true)
            .build();
        for cfg in [hi(Profile::apache()), adapted, remote, affinity] {
            let (r, observation) = Simulation::new(cfg.clone()).run_observed();
            let p = observation.profile;
            assert!(r.offloads > 0 && r.local_invocations > 0);
            if let Err(e) = p.reconcile(&cfg, &r) {
                panic!("{} {}: {e}", cfg.profile.name, cfg.policy.label());
            }
            assert_eq!(p.total(Phase::ColdPenalty) > 0, cfg.os_cold_penalty > 0);
            assert!(p.total(Phase::UserExec) > 0);
            // Exports are non-empty.
            let collapsed = p.to_collapsed();
            assert!(collapsed.contains("user;user-exec "), "{collapsed}");
            assert!(!p.top_table(5).is_empty());
            assert!(!p.epochs().is_empty());
        }
    }

    #[test]
    fn trace_ring_consumes_the_unified_event_stream() {
        use osoffload_obs::TelemetryMode;
        let mut cfg = small(PolicyKind::HardwarePredictor { threshold: 500 }, 1_000);
        cfg.trace_capacity = 1 << 14;
        cfg.telemetry = TelemetryMode::Full;
        let (report, observation) = Simulation::new(cfg.clone()).run_observed();
        let (report2, trace) = Simulation::new(cfg).run_traced();
        assert_eq!(report, report2);
        assert_eq!(trace.to_csv(), observation.trace.to_csv());
        assert_eq!(observation.telemetry.events_dropped, 0);
        let records: Vec<_> = observation
            .telemetry
            .events
            .iter()
            .filter_map(crate::trace::InvocationRecord::from_event)
            .collect();
        assert_eq!(trace.dropped(), 0);
        assert_eq!(
            records.len() as u64,
            report.offloads + report.local_invocations
        );
        assert!(
            trace.iter().eq(records.iter()),
            "trace ring and event stream disagree"
        );
    }

    #[test]
    fn unobserved_run_never_builds_an_event() {
        let mut sim = Simulation::new(small(PolicyKind::Baseline, 0));
        sim.begin_measured();
        assert!(sim.obs.is_none());
        sim.emit(|| unreachable!("the event must not be built when nothing observes"));
    }

    #[test]
    fn multi_user_core_topology_runs() {
        let cfg = SystemConfig::builder()
            .profile(Profile::specjbb())
            .policy(PolicyKind::HardwarePredictor { threshold: 100 })
            .migration_latency(1_000)
            .user_cores(2)
            .instructions(80_000)
            .warmup(20_000)
            .seed(3)
            .build();
        let r = Simulation::new(cfg).run();
        assert_eq!(r.user_cores, 2);
        assert_eq!(r.threads, 4);
        assert!(r.queue.requests > 0);
    }

    #[test]
    fn multi_os_core_topology_spreads_load() {
        use crate::topology::DispatchPolicy;
        let cfg = SystemConfig::builder()
            .profile(Profile::apache())
            .policy(PolicyKind::HardwarePredictor { threshold: 100 })
            .migration_latency(1_000)
            .user_cores(4)
            .os_cores(2)
            .dispatch(DispatchPolicy::LeastLoaded)
            .instructions(200_000)
            .warmup(50_000)
            .seed(11)
            .build();
        let r = Simulation::new(cfg).run();
        assert_eq!(r.os_cores, 2);
        assert_eq!(r.dispatch, "least-loaded");
        assert_eq!(r.os_core_busy_cycles.len(), 2);
        assert_eq!(r.os_core_utilisation.len(), 2);
        assert!(r.offloads > 0);
        // Least-loaded under contention must use both cores.
        assert!(
            r.os_core_busy_cycles.iter().all(|&b| b > 0),
            "busy = {:?}",
            r.os_core_busy_cycles
        );
        let total: u64 = r.os_core_busy_cycles.iter().sum();
        let frac = (total as f64 / r.cycles as f64).min(1.0);
        assert_eq!(r.os_core_busy_frac, frac, "per-core busy must sum to total");
        for (&cycles, &util) in r.os_core_busy_cycles.iter().zip(&r.os_core_utilisation) {
            assert_eq!(util, (cycles as f64 / r.cycles as f64).min(1.0));
        }
    }

    #[test]
    fn every_dispatch_policy_runs_and_is_deterministic() {
        use crate::topology::DispatchPolicy;
        for policy in DispatchPolicy::ALL {
            let mk = || {
                SystemConfig::builder()
                    .profile(Profile::specjbb())
                    .policy(PolicyKind::HardwarePredictor { threshold: 100 })
                    .migration_latency(1_000)
                    .user_cores(4)
                    .os_cores(2)
                    .dispatch(policy)
                    .os_cold_penalty(500)
                    .instructions(120_000)
                    .warmup(40_000)
                    .seed(5)
                    .build()
            };
            let a = Simulation::new(mk()).run();
            let b = Simulation::new(mk()).run();
            assert_eq!(a, b, "{policy}: same seed, same report");
            assert_eq!(a.dispatch, policy.label());
            assert!(a.offloads > 0, "{policy}: nothing off-loaded");
            assert_eq!(a.queue.requests, a.offloads);
        }
    }

    #[test]
    fn baseline_reports_no_os_cores() {
        let r = Simulation::new(small(PolicyKind::Baseline, 0)).run();
        assert_eq!(r.os_cores, 0);
        assert!(r.os_core_busy_cycles.is_empty());
        assert!(r.os_core_utilisation.is_empty());
    }

    #[test]
    fn single_os_core_report_is_consistent_with_the_legacy_shape() {
        let r = Simulation::new(small(PolicyKind::HardwarePredictor { threshold: 500 }, 100)).run();
        assert_eq!(r.os_cores, 1);
        assert_eq!(r.os_core_busy_cycles.len(), 1);
        assert_eq!(
            r.os_core_busy_frac,
            (r.os_core_busy_cycles[0] as f64 / r.cycles as f64).min(1.0)
        );
    }
}
