//! The workload generator: turns a [`Profile`] into a deterministic
//! stream of execution *segments* (user bursts and privileged
//! invocations) and per-instruction behaviour specs.
//!
//! One [`ThreadWorkload`] models one software thread. The system crate
//! drives it: fetch the next [`Segment`], execute its instructions by
//! asking for an [`InstrSpec`] per instruction, feed each spec through
//! the core and memory models, repeat.

use crate::address_space::{AddressSpace, FlatSampler, HotColdSampler, Region};
use crate::catalog::{OsClass, SyscallId};
use crate::invocation::OsInvocation;
use crate::profile::Profile;
use core::fmt;
use osoffload_sim::{FastMod, Rng64, ZipfApprox};

/// One data-memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Byte address.
    pub addr: u64,
    /// Whether this is a store.
    pub write: bool,
}

/// Behaviour of a single dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrSpec {
    /// Fetch address.
    pub pc: u64,
    /// Data access, if this instruction touches memory.
    pub mem: Option<MemRef>,
    /// Conditional branch outcome, if this instruction is a branch.
    pub branch: Option<bool>,
}

/// Per-branch taken bias, derived from the branch's PC.
///
/// Real branch streams are predictable because most *static* branches
/// are strongly biased (loop back-edges taken, error guards not taken)
/// with a minority of data-dependent ones. An IID coin per dynamic
/// branch would cap any predictor at the coin's entropy; hashing the PC
/// into a bias class restores the per-branch structure that bimodal
/// predictors exploit — and that user/OS aliasing destroys (§VI-A).
#[inline]
fn branch_bias(pc: u64, data_dependent_taken: f64) -> f64 {
    let h = pc.wrapping_mul(0x2545_F491_4F6C_DD1D);
    match (h >> 60) & 0x7 {
        0..=4 => 0.94,             // loop back-edges and hot paths
        5 | 6 => 0.06,             // guards and error checks
        _ => data_dependent_taken, // genuinely data-dependent
    }
}

/// One scheduling unit of the thread's execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Segment {
    /// `len` user-mode instructions.
    User {
        /// Number of instructions in the burst (≥ 1).
        len: u64,
    },
    /// One privileged invocation.
    Os(OsInvocation),
}

/// Prepared per-instruction samplers, rebuilt whenever the profile
/// changes (construction and phase boundaries). Each is bit-identical
/// to the on-the-fly sampling call it replaces; preparing them hoists
/// the Zipf `powf` constants and scatter reciprocals out of the
/// per-instruction path, which dominated the simulator's profile.
#[derive(Debug, Clone, Copy)]
struct Samplers {
    /// Taken-branch target block over the user code region (skew 1.1).
    user_code_zipf: ZipfApprox,
    /// `profile.footprints.user_code.max(64)`, for the sequential-pc wrap.
    user_code_size: u64,
    /// User-mode accesses into the shared buffer pool.
    user_shared: FlatSampler,
    /// User-mode accesses into the private data working set.
    user_data: HotColdSampler,
    /// OS-side accesses into the shared buffer pool (skew 1.15).
    os_shared: FlatSampler,
    /// OS accesses into global kernel data.
    os_kernel_data: HotColdSampler,
    /// OS accesses into per-thread kernel stack/task data (skew 1.0).
    os_kernel_thread: FlatSampler,
}

impl Samplers {
    fn new(space: &AddressSpace, p: &Profile) -> Self {
        let user_code_size = p.footprints.user_code.max(64);
        Samplers {
            user_code_zipf: ZipfApprox::new(user_code_size / 64, 1.1),
            user_code_size,
            user_shared: space.flat_sampler(Region::SharedBuffer, p.user_locality_skew),
            user_data: space.hot_cold_sampler(
                Region::UserData,
                p.user_hot_frac,
                p.user_hot_bytes,
                p.user_locality_skew,
            ),
            os_shared: space.flat_sampler(Region::SharedBuffer, 1.15),
            os_kernel_data: space.hot_cold_sampler(
                Region::KernelData,
                p.os_hot_frac,
                p.os_hot_bytes,
                p.os_locality_skew,
            ),
            os_kernel_thread: space.flat_sampler(Region::KernelThread, 1.0),
        }
    }
}

/// Deterministic per-thread workload stream.
///
/// # Examples
///
/// ```
/// use osoffload_workload::{Profile, ThreadWorkload, Segment};
///
/// let mut w = ThreadWorkload::new(Profile::apache(), 0, 42);
/// // Segments alternate user burst / OS invocation.
/// let first = w.next_segment();
/// assert!(matches!(first, Segment::User { .. }));
/// let second = w.next_segment();
/// assert!(matches!(second, Segment::Os(_)));
/// ```
pub struct ThreadWorkload {
    profile: Profile,
    /// Remaining program phases as `(start_instruction, profile)`,
    /// soonest first (§III-B discusses the estimator's behaviour across
    /// program phases).
    phases: Vec<(u64, Profile)>,
    /// Instructions generated so far (segment granularity).
    generated: u64,
    space: AddressSpace,
    rng: Rng64,
    mix_ids: Vec<SyscallId>,
    mix_cumulative: Vec<f64>,
    /// Per-mix-slot I/O argument contexts, precomputed so drawing an
    /// invocation never allocates ([`Profile::io_contexts`] builds a
    /// fresh `Vec` per call). Parallel to `mix_ids`; empty for
    /// interrupt-class entries, which never consult contexts.
    mix_contexts: Vec<Vec<(u64, u64)>>,
    /// Probability that the next invocation is a spill/fill trap rather
    /// than a draw from the syscall mix.
    spill_fill_share: f64,
    next_is_user: bool,
    user_pc: u64,
    /// Per-invocation streaming cursor into the shared buffers.
    shared_cursor: u64,
    /// Ring of the thread's most recent user-mode data addresses. Short
    /// traps and copy-in/copy-out operate on exactly these lines (a trap
    /// handler touches the faulting thread's *current* stack, buffers and
    /// translations), which is what makes them cheap to run locally and
    /// expensive to run on a remote core.
    recent_user: Vec<u64>,
    recent_next: usize,
    /// Wide-range residual register values interrupts inherit.
    residual: [u64; 3],
    /// Prepared address/branch-target samplers for the current profile.
    samplers: Samplers,
    /// Cached kernel-text PC constants for the syscall most recently
    /// generated by [`ThreadWorkload::os_instr`]. Both the handler's
    /// block offset and its body length depend only on the syscall (and
    /// the profile), while `os_instr` runs once per instruction — the
    /// cache turns two runtime divisions per OS instruction into one
    /// comparison. Invalidated on phase changes.
    os_pc: OsPcCache,
    thread_id: usize,
}

/// See [`ThreadWorkload::os_pc`].
#[derive(Debug, Clone, Copy)]
struct OsPcCache {
    /// `SyscallId::index` of the cached syscall, or `u64::MAX` when
    /// empty.
    syscall: u64,
    /// Handler block offset within kernel text.
    block_off: u64,
    /// Exact remainder by the handler body length in bytes.
    body: FastMod,
}

impl OsPcCache {
    const EMPTY: OsPcCache = OsPcCache {
        syscall: u64::MAX,
        block_off: 0,
        body: FastMod::ONE,
    };
}

impl fmt::Debug for ThreadWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadWorkload")
            .field("profile", &self.profile.name)
            .field("thread", &self.thread_id)
            .finish()
    }
}

impl ThreadWorkload {
    /// Creates the stream for software thread `thread_id` of `profile`.
    pub fn new(profile: Profile, thread_id: usize, seed: u64) -> Self {
        let space = AddressSpace::new(thread_id, profile.footprints);
        let mut rng =
            Rng64::seed_from(seed ^ (thread_id as u64).wrapping_mul(0xA5A5_5A5A_1234_5678));
        let mut mix_ids = Vec::with_capacity(profile.syscall_mix.len());
        let mut mix_cumulative = Vec::with_capacity(profile.syscall_mix.len());
        let mut mix_contexts = Vec::with_capacity(profile.syscall_mix.len());
        let mut acc = 0.0;
        for &(id, w) in &profile.syscall_mix {
            acc += w;
            mix_ids.push(id);
            mix_cumulative.push(acc);
            mix_contexts.push(if id.spec().class == OsClass::Interrupt {
                Vec::new()
            } else {
                profile.io_contexts(id)
            });
        }
        assert!(
            acc > 0.0,
            "ThreadWorkload: profile has an empty syscall mix"
        );
        let spill_fill_share = if profile.include_spill_fill {
            let r = profile.spill_fill_rate * profile.user_burst_mean;
            r / (1.0 + r)
        } else {
            0.0
        };
        let user_pc = space.base(Region::UserCode);
        let samplers = Samplers::new(&space, &profile);
        let recent_user = vec![space.base(Region::UserData); 32];
        let residual = [
            rng.next_u64() >> 16,
            rng.next_u64() >> 16,
            rng.next_u64() >> 16,
        ];
        ThreadWorkload {
            profile,
            phases: Vec::new(),
            generated: 0,
            space,
            rng,
            mix_ids,
            mix_cumulative,
            mix_contexts,
            spill_fill_share,
            next_is_user: true,
            user_pc,
            shared_cursor: 0,
            recent_user,
            recent_next: 0,
            residual,
            samplers,
            os_pc: OsPcCache::EMPTY,
            thread_id,
        }
    }

    /// Creates a stream that switches profile at instruction boundaries:
    /// `phases` holds `(start_instruction, profile)` pairs; execution
    /// starts with `initial` and adopts each phase's profile once the
    /// thread has generated that many instructions. Used to exercise the
    /// §III-B estimator's phase-change handling.
    ///
    /// The address-space layout (region bases and footprints) stays that
    /// of the initial profile — phases model behavioural shifts of one
    /// program, not an exec into a different binary.
    pub fn with_phases(
        initial: Profile,
        mut phases: Vec<(u64, Profile)>,
        thread_id: usize,
        seed: u64,
    ) -> Self {
        phases.sort_by_key(|&(at, _)| at);
        let mut wl = Self::new(initial, thread_id, seed);
        wl.phases = phases;
        wl
    }

    fn rebuild_mix(&mut self) {
        self.mix_ids.clear();
        self.mix_cumulative.clear();
        self.mix_contexts.clear();
        let mut acc = 0.0;
        for &(id, w) in &self.profile.syscall_mix {
            acc += w;
            self.mix_ids.push(id);
            self.mix_cumulative.push(acc);
            self.mix_contexts
                .push(if id.spec().class == OsClass::Interrupt {
                    Vec::new()
                } else {
                    self.profile.io_contexts(id)
                });
        }
        assert!(acc > 0.0, "ThreadWorkload: phase has an empty syscall mix");
        self.samplers = Samplers::new(&self.space, &self.profile);
        // `block_off` depends on the (possibly changed) profile
        // footprints.
        self.os_pc = OsPcCache::EMPTY;
        self.spill_fill_share = if self.profile.include_spill_fill {
            let r = self.profile.spill_fill_rate * self.profile.user_burst_mean;
            r / (1.0 + r)
        } else {
            0.0
        };
    }

    fn maybe_enter_phase(&mut self) {
        while let Some(&(at, _)) = self.phases.first() {
            if self.generated < at {
                break;
            }
            let (_, profile) = self.phases.remove(0);
            self.profile = profile;
            self.rebuild_mix();
        }
    }

    /// The profile driving this stream.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// This thread's address-space view.
    pub fn address_space(&self) -> &AddressSpace {
        &self.space
    }

    /// The software thread id.
    pub fn thread_id(&self) -> usize {
        self.thread_id
    }

    /// Produces the next segment. User bursts and privileged invocations
    /// strictly alternate; burst lengths are exponentially distributed
    /// around the profile's mean.
    pub fn next_segment(&mut self) -> Segment {
        self.maybe_enter_phase();
        if self.next_is_user {
            self.next_is_user = false;
            let mean = self.profile.user_burst_mean * (1.0 - self.spill_fill_share).max(0.1);
            let len = (self.rng.sample_exp(mean) as u64).max(1);
            self.generated += len;
            Segment::User { len }
        } else {
            self.next_is_user = true;
            let inv = self.next_invocation();
            self.generated += inv.actual_len;
            Segment::Os(inv)
        }
    }

    /// Instructions generated so far (at segment granularity).
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// The longest segment `profile` can ever draw, derived from
    /// [`next_segment`](Self::next_segment): `sample_exp` inverts a
    /// 53-bit uniform, so no user burst exceeds 53·ln 2 ≈ 36.74 means,
    /// and an invocation runs at most its longest argument context's
    /// service length stretched by the whole jitter span (a standalone
    /// interrupt by its 1.5× pending-work factor), plus one nested
    /// interrupt. The `+ 1` absorbs float rounding.
    pub(crate) fn max_segment_len(profile: &Profile) -> u64 {
        let stretched = |len: u64, factor: f64| (len as f64 * factor).ceil() as u64 + 1;
        let jitter = 1.0 + profile.length_jitter_span.abs();
        let nested = profile.irq_nested_len * u64::from(profile.irq_mean_interval > 0.0);
        let mut longest = stretched(1, profile.user_burst_mean * 36.74);
        for &(id, _) in &profile.syscall_mix {
            let spec = id.spec();
            longest = longest.max(if spec.class == OsClass::Interrupt {
                stretched(spec.service_len(0), 1.5)
            } else {
                let arg1 = profile.io_contexts(id).iter().map(|&(_, a)| a).max();
                stretched(spec.service_len(arg1.unwrap_or(0)), jitter) + nested
            });
        }
        if profile.include_spill_fill {
            for id in [SyscallId::WindowSpill, SyscallId::WindowFill] {
                longest = longest.max(stretched(id.spec().service_len(0), jitter));
            }
        }
        longest
    }

    fn next_invocation(&mut self) -> OsInvocation {
        // Spill/fill traps interleave with the syscall mix when enabled.
        if self.spill_fill_share > 0.0 && self.rng.gen_bool(self.spill_fill_share) {
            let id = if self.rng.gen_bool(0.5) {
                SyscallId::WindowSpill
            } else {
                SyscallId::WindowFill
            };
            // The stack-pointer-ish argument clusters into a few values
            // (call depths repeat), so these traps remain predictable.
            let depth_bucket = self.rng.gen_range(0..4);
            return OsInvocation::materialize(
                id,
                depth_bucket,
                0,
                self.profile.length_jitter_prob,
                self.profile.length_jitter_span,
                0.0,
                0,
                &mut self.rng,
            );
        }

        let pick = self.rng.sample_cumulative(&self.mix_cumulative);
        let id = self.mix_ids[pick];
        if id.spec().class == OsClass::Interrupt {
            // Asynchronous arrival: registers are whatever user values
            // happen to be live — effectively random, so the predictor
            // cannot learn these (§III-A's misprediction source).
            self.residual = [
                self.rng.next_u64() >> 16,
                self.rng.next_u64() >> 16,
                self.rng.next_u64() >> 16,
            ];
            return OsInvocation::materialize_interrupt(id, self.residual, &mut self.rng);
        }

        let contexts = &self.mix_contexts[pick];
        let (arg0, arg1) = contexts[self.rng.gen_range(0..contexts.len() as u64) as usize];
        self.shared_cursor = self.rng.gen_range(0..1 << 20);
        OsInvocation::materialize(
            id,
            arg0,
            arg1,
            self.profile.length_jitter_prob,
            self.profile.length_jitter_span,
            self.profile.irq_mean_interval,
            self.profile.irq_nested_len,
            &mut self.rng,
        )
    }

    /// Behaviour of the next user-mode instruction.
    pub fn user_instr(&mut self) -> InstrSpec {
        let p = &self.profile;
        // Straight-line fetch with taken branches jumping to a hot block.
        let pc = self.user_pc;
        let branch = if self.rng.gen_bool(p.user_branch_prob) {
            Some(self.rng.gen_bool(branch_bias(pc, p.user_branch_taken)))
        } else {
            None
        };
        if branch == Some(true) {
            let block = self.samplers.user_code_zipf.sample(&mut self.rng);
            self.user_pc = self.space.base(Region::UserCode) + block * 64;
        } else {
            let base = self.space.base(Region::UserCode);
            let size = self.samplers.user_code_size;
            // Subtract-to-wrap equals `% size` here: the offset stays
            // below `size` between calls, so at most one subtraction runs
            // (the loop only spins after a phase shrinks the footprint).
            let mut off = self.user_pc - base + 4;
            while off >= size {
                off -= size;
            }
            self.user_pc = base + off;
        }
        let mem = if self.rng.gen_bool(p.user_mem_prob) {
            let m = if self.rng.gen_bool(p.user_shared_frac) {
                MemRef {
                    addr: self.samplers.user_shared.sample(&mut self.rng),
                    write: self.rng.gen_bool(p.user_shared_write_frac),
                }
            } else {
                MemRef {
                    addr: self.samplers.user_data.sample(&mut self.rng),
                    write: self.rng.gen_bool(p.user_write_frac),
                }
            };
            self.recent_user[self.recent_next] = m.addr;
            self.recent_next = if self.recent_next + 1 == self.recent_user.len() {
                0
            } else {
                self.recent_next + 1
            };
            Some(m)
        } else {
            None
        };
        InstrSpec { pc, mem, branch }
    }

    /// Fraction of an invocation's user-side accesses that hit the
    /// thread's *recent* lines rather than the wider shared pool.
    fn recent_frac(class: OsClass) -> f64 {
        match class {
            // Fault handlers and window traps operate on exactly the
            // state the user just touched.
            OsClass::Fault | OsClass::SpillFill => 0.9,
            // Syscalls copy in/out of buffers the user recently built.
            OsClass::Syscall => 0.5,
            // Device interrupts have no affinity with the preempted code.
            OsClass::Interrupt => 0.1,
        }
    }

    /// Behaviour of instruction `j` (0-based) of privileged invocation
    /// `inv`.
    pub fn os_instr(&mut self, inv: &OsInvocation, j: u64) -> InstrSpec {
        let spec = inv.syscall.spec();

        // Each entry point owns a code block in the (globally shared)
        // kernel text; the handler loops within it, so repeated
        // invocations — from any thread — hit the same lines. This is the
        // constructive interference at a shared OS core (§I).
        let idx = inv.syscall.index() as u64;
        if self.os_pc.syscall != idx {
            let body_bytes: u64 = match spec.class {
                // Window traps and TLB refills are a handful of
                // hand-written assembly lines; they barely perturb the
                // I-cache.
                OsClass::SpillFill => 128,
                OsClass::Fault if spec.base_len < 200 => 128,
                _ => 512 + (spec.base_len / 8).min(3_584),
            };
            self.os_pc = OsPcCache {
                syscall: idx,
                block_off: (idx * 4096) % self.profile.footprints.kernel_code.max(4096),
                body: FastMod::new(body_bytes),
            };
        }
        let p = &self.profile;
        let kc_base = self.space.base(Region::KernelCode);
        let pc = kc_base + self.os_pc.block_off + self.os_pc.body.rem(j * 4);

        let branch = if self.rng.gen_bool(p.os_branch_prob) {
            Some(self.rng.gen_bool(branch_bias(pc, p.os_branch_taken)))
        } else {
            None
        };

        let mem = if self.rng.gen_bool(p.os_mem_prob) {
            let r = self.rng.next_f64();
            if r < spec.user_shared_frac {
                // User-side accesses: partly the thread's *recent* lines
                // (the faulting stack, the buffer just built for this
                // very call), partly the wider shared pool. Running the
                // handler on a remote core bounces exactly the lines the
                // user core has warm — the coherence traffic source of
                // §V-A — while running it locally hits L1.
                let addr = if self.rng.gen_bool(Self::recent_frac(spec.class)) {
                    let i = self.rng.gen_range(0..self.recent_user.len() as u64) as usize;
                    self.recent_user[i]
                } else {
                    self.samplers.os_shared.sample(&mut self.rng)
                };
                Some(MemRef {
                    addr,
                    write: self.rng.gen_bool(spec.shared_write_frac),
                })
            } else if r < spec.user_shared_frac + spec.kernel_data_frac {
                Some(MemRef {
                    addr: self.samplers.os_kernel_data.sample(&mut self.rng),
                    write: self.rng.gen_bool(p.os_write_frac),
                })
            } else {
                Some(MemRef {
                    addr: self.samplers.os_kernel_thread.sample(&mut self.rng),
                    write: self.rng.gen_bool(p.os_write_frac),
                })
            }
        } else {
            None
        };
        InstrSpec { pc, mem, branch }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::OsClass;

    #[test]
    fn segments_strictly_alternate() {
        let mut w = ThreadWorkload::new(Profile::derby(), 0, 7);
        for i in 0..50 {
            let s = w.next_segment();
            if i % 2 == 0 {
                assert!(matches!(s, Segment::User { .. }), "segment {i}");
            } else {
                assert!(matches!(s, Segment::Os(_)), "segment {i}");
            }
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = ThreadWorkload::new(Profile::apache(), 0, 11);
        let mut b = ThreadWorkload::new(Profile::apache(), 0, 11);
        for _ in 0..40 {
            assert_eq!(a.next_segment(), b.next_segment());
            assert_eq!(a.user_instr(), b.user_instr());
        }
    }

    #[test]
    fn different_threads_differ() {
        let mut a = ThreadWorkload::new(Profile::apache(), 0, 11);
        let mut b = ThreadWorkload::new(Profile::apache(), 1, 11);
        let sa: Vec<Segment> = (0..10).map(|_| a.next_segment()).collect();
        let sb: Vec<Segment> = (0..10).map(|_| b.next_segment()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn realized_os_share_tracks_profile_expectation() {
        let profile = Profile::apache();
        let expected = profile.expected_os_share();
        let mut w = ThreadWorkload::new(profile, 0, 3);
        let (mut user, mut os) = (0u64, 0u64);
        for _ in 0..4_000 {
            match w.next_segment() {
                Segment::User { len } => user += len,
                Segment::Os(inv) => os += inv.actual_len,
            }
        }
        let share = os as f64 / (os + user) as f64;
        assert!(
            (share - expected).abs() < 0.08,
            "realized {share:.3} vs expected {expected:.3}"
        );
    }

    #[test]
    fn spill_fill_absent_by_default_present_when_enabled() {
        let mut w = ThreadWorkload::new(Profile::apache(), 0, 5);
        let mut saw_sf = false;
        for _ in 0..2_000 {
            if let Segment::Os(inv) = w.next_segment() {
                saw_sf |= inv.class() == OsClass::SpillFill;
            }
        }
        assert!(
            !saw_sf,
            "spill/fill generated despite include_spill_fill=false"
        );

        let mut profile = Profile::apache();
        profile.include_spill_fill = true;
        let mut w = ThreadWorkload::new(profile, 0, 5);
        let mut sf = 0;
        let mut total = 0;
        for _ in 0..4_000 {
            if let Segment::Os(inv) = w.next_segment() {
                total += 1;
                if inv.class() == OsClass::SpillFill {
                    sf += 1;
                    assert!(inv.actual_len < 30);
                }
            }
        }
        assert!(
            sf > total / 3,
            "spill/fill {sf}/{total} — should dominate counts"
        );
    }

    #[test]
    fn user_instrs_stay_in_user_regions() {
        let mut w = ThreadWorkload::new(Profile::specjbb(), 2, 9);
        w.next_segment();
        for _ in 0..2_000 {
            let i = w.user_instr();
            let space = *w.address_space();
            assert!(space.contains(Region::UserCode, i.pc), "pc {:#x}", i.pc);
            if let Some(m) = i.mem {
                assert!(
                    space.contains(Region::UserData, m.addr)
                        || space.contains(Region::SharedBuffer, m.addr),
                    "user access outside user regions: {:#x}",
                    m.addr
                );
            }
        }
    }

    #[test]
    fn os_instrs_touch_kernel_and_shared_regions() {
        let mut w = ThreadWorkload::new(Profile::apache(), 0, 13);
        let mut regions = std::collections::HashSet::new();
        for _ in 0..200 {
            w.next_segment();
            if let Segment::Os(inv) = w.next_segment() {
                let space = *w.address_space();
                for j in 0..inv.actual_len.min(60) {
                    let i = w.os_instr(&inv, j);
                    assert!(space.contains(Region::KernelCode, i.pc));
                    if let Some(m) = i.mem {
                        for &r in Region::ALL {
                            if space.contains(r, m.addr) {
                                regions.insert(r);
                            }
                        }
                    }
                }
            }
        }
        assert!(regions.contains(&Region::KernelData));
        assert!(regions.contains(&Region::KernelThread));
        // User-side traffic is either the shared pool or the thread's
        // recent user lines (the recent-ring affinity model).
        assert!(regions.contains(&Region::SharedBuffer) || regions.contains(&Region::UserData));
        assert!(!regions.contains(&Region::UserCode));
    }

    #[test]
    fn kernel_code_pcs_are_shared_across_threads() {
        let mut a = ThreadWorkload::new(Profile::apache(), 0, 17);
        let mut b = ThreadWorkload::new(Profile::apache(), 1, 23);
        // Force the same syscall on both threads and compare fetch PCs.
        let inv_a = loop {
            a.next_segment();
            if let Segment::Os(inv) = a.next_segment() {
                if inv.syscall == SyscallId::Read {
                    break inv;
                }
            }
        };
        let inv_b = loop {
            b.next_segment();
            if let Segment::Os(inv) = b.next_segment() {
                if inv.syscall == SyscallId::Read {
                    break inv;
                }
            }
        };
        assert_eq!(a.os_instr(&inv_a, 0).pc, b.os_instr(&inv_b, 0).pc);
    }

    #[test]
    fn interrupt_invocations_have_unpredictable_regs() {
        let mut profile = Profile::apache();
        // Only interrupts in the mix.
        profile.syscall_mix = vec![(SyscallId::IrqNetwork, 1.0)];
        let mut w = ThreadWorkload::new(profile, 0, 29);
        let mut regs = std::collections::HashSet::new();
        for _ in 0..50 {
            w.next_segment();
            if let Segment::Os(inv) = w.next_segment() {
                regs.insert(inv.regs);
            }
        }
        assert!(
            regs.len() > 45,
            "interrupt regs repeat too much: {}",
            regs.len()
        );
    }

    #[test]
    fn syscall_regs_recur_for_predictability() {
        let mut w = ThreadWorkload::new(Profile::apache(), 0, 31);
        let mut regs = std::collections::HashSet::new();
        let mut count = 0;
        for _ in 0..4_000 {
            if let Segment::Os(inv) = w.next_segment() {
                if inv.class() == OsClass::Syscall {
                    regs.insert(inv.regs);
                    count += 1;
                }
            }
        }
        // A bounded AState universe is what makes a 200-entry table work.
        assert!(count > 1_000);
        assert!(regs.len() < 200, "{} distinct syscall AStates", regs.len());
    }

    #[test]
    fn phased_stream_switches_mix_at_boundary() {
        // Phase 1: apache (OS-heavy, short bursts). Phase 2: a compute
        // profile (rare OS entry) from 100K instructions on.
        let mut wl = ThreadWorkload::with_phases(
            Profile::apache(),
            vec![(100_000, Profile::blackscholes())],
            0,
            11,
        );
        let mut early_user = Vec::new();
        let mut late_user = Vec::new();
        for _ in 0..3_000 {
            let before = wl.generated();
            if let Segment::User { len } = wl.next_segment() {
                if before < 80_000 {
                    early_user.push(len);
                } else if before > 150_000 {
                    late_user.push(len);
                }
            }
            if wl.generated() > 800_000 {
                break;
            }
        }
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
        assert!(
            mean(&late_user) > mean(&early_user) * 5.0,
            "user bursts must lengthen after the phase change: {:.0} -> {:.0}",
            mean(&early_user),
            mean(&late_user)
        );
    }

    #[test]
    fn phases_apply_in_order() {
        let mut wl = ThreadWorkload::with_phases(
            Profile::apache(),
            vec![(50_000, Profile::mcf()), (20_000, Profile::derby())],
            0,
            3,
        );
        let mut saw_derby_burst = false;
        while wl.generated() < 45_000 {
            if let Segment::User { len } = wl.next_segment() {
                if wl.generated() > 25_000 && len > 8_000 {
                    saw_derby_burst = true;
                }
            }
        }
        assert!(saw_derby_burst, "derby's long bursts should appear mid-way");
        assert_eq!(wl.profile().name, "derby");
        while wl.generated() < 60_000 {
            wl.next_segment();
        }
        // Phase entry is lazy (checked at segment start): take one more
        // segment to observe the switch.
        wl.next_segment();
        assert_eq!(wl.profile().name, "mcf");
    }

    /// The tape reserves `max_segment_len` past each region's budget,
    /// so a longer draw would allocate inside the audited region.
    #[test]
    fn no_segment_exceeds_the_derived_bound() {
        let (mut standalone, mut nested) = (0, 0);
        for base in Profile::all_server()
            .into_iter()
            .chain(Profile::all_compute())
        {
            for include_spill_fill in [false, true] {
                let profile = Profile {
                    include_spill_fill,
                    ..base.clone()
                };
                let bound = ThreadWorkload::max_segment_len(&profile);
                for seed in 0..4u64 {
                    let mut wl = ThreadWorkload::new(profile.clone(), seed as usize, seed);
                    for _ in 0..20_000 {
                        let len = match wl.next_segment() {
                            Segment::User { len } => len,
                            Segment::Os(inv) => {
                                standalone += u64::from(inv.class() == OsClass::Interrupt);
                                nested += u64::from(inv.interrupt_extra > 0);
                                inv.actual_len
                            }
                        };
                        assert!(len <= bound, "{}: {len} > {bound}", profile.name);
                    }
                }
            }
        }
        assert!(standalone > 0 && nested > 0, "draws include interrupts");
    }

    #[test]
    fn debug_is_nonempty() {
        let w = ThreadWorkload::new(Profile::mcf(), 0, 1);
        assert!(!format!("{w:?}").is_empty());
    }
}
