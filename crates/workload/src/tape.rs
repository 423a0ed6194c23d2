//! Shared workload tapes: record each thread's draw stream once, replay
//! it for every point of the same workload shape.
//!
//! A thread's segment/instruction stream depends only on the profile,
//! the phase schedule, the thread's index, and the master seed — never
//! on the off-loading policy, the topology, or the memory system,
//! because every policy path executes each drawn segment to exactly its
//! drawn length. Two simulations that agree on those four inputs
//! therefore consume *identical* streams, and a sweep grid (the same
//! workload under thirty policy × latency points) regenerates the same
//! stream once per point.
//!
//! A [`WorkloadTape`] hoists that generation out of the per-point loop:
//! it owns one master [`ThreadWorkload`] per thread — constructed with
//! the exact seed-splitting sequence the simulator uses — and records
//! segments plus their [`InstrSpec`]s, every thread's into one segment
//! array and one instruction array. Each point reads through its own
//! [`TapeCursor`]s, so the points of a shape pay the (dominant)
//! generation cost once, and replay is a cache-friendly linear scan
//! instead of a chain of RNG and sampler draws.
//!
//! The tape grows on demand, a segment at a time, as the deepest replay
//! so far reaches each thread's stream. A many-thread point retires
//! about 1/threads of its budget per thread, so recording every thread
//! to the whole budget up front would build mostly unread tape. The
//! measured region must still never allocate, so before a point runs
//! the tape [reserves](WorkloadTape::reserve) room for the worst case:
//! its current length, plus each region's budget (warm-up, then
//! measurement), plus per region the longest segment the profile can
//! draw (`ThreadWorkload::max_segment_len`), by which the region's
//! last fetch may overshoot. Reserved but untouched capacity is address
//! space only, so resident memory tracks what replay reads.
//!
//! Replay is bit-identical by construction: the tape's masters perform
//! the same calls, in the same per-thread order, as a live simulation
//! would (one `next_segment`, then that segment's instructions, then
//! the next segment).

use std::cell::RefCell;
use std::rc::Rc;

use osoffload_sim::Rng64;

use crate::generator::{InstrSpec, MemRef, Segment, ThreadWorkload};
use crate::profile::Profile;

const META_HAS_MEM: u8 = 1 << 0;
const META_WRITE: u8 = 1 << 1;
const META_HAS_BRANCH: u8 = 1 << 2;
const META_TAKEN: u8 = 1 << 3;

/// On-tape encoding of one [`InstrSpec`]: 17 bytes instead of 32.
///
/// Replay streams tens of megabytes per point, so the tape stores each
/// instruction packed — the two `Option`s collapse into flag bits and
/// the padding disappears — and the hot loop unpacks with a couple of
/// selects. That roughly halves the bytes pulled through the cache per
/// replayed instruction, which is where a replay's time goes once
/// generation is amortised.
#[derive(Clone, Copy)]
#[repr(C, packed)]
pub struct TapedInstr {
    pc: u64,
    addr: u64,
    meta: u8,
}

impl TapedInstr {
    #[inline]
    fn pack(spec: &InstrSpec) -> Self {
        let mut meta = 0u8;
        let mut addr = 0u64;
        if let Some(m) = spec.mem {
            meta |= META_HAS_MEM;
            if m.write {
                meta |= META_WRITE;
            }
            addr = m.addr;
        }
        if let Some(taken) = spec.branch {
            meta |= META_HAS_BRANCH;
            if taken {
                meta |= META_TAKEN;
            }
        }
        TapedInstr {
            pc: spec.pc,
            addr,
            meta,
        }
    }

    /// Decodes back to the exact [`InstrSpec`] that was packed.
    #[inline]
    pub fn unpack(&self) -> InstrSpec {
        let meta = self.meta;
        InstrSpec {
            pc: self.pc,
            mem: if meta & META_HAS_MEM != 0 {
                Some(MemRef {
                    addr: self.addr,
                    write: meta & META_WRITE != 0,
                })
            } else {
                None
            },
            branch: if meta & META_HAS_BRANCH != 0 {
                Some(meta & META_TAKEN != 0)
            } else {
                None
            },
        }
    }
}

/// One recorded segment: its scheduling header, the index of its first
/// instruction, and the index of its thread's next segment (`0` until
/// recorded; the threads' placeholder heads come first, so `0` is never
/// a successor).
struct TapeSeg {
    seg: Segment,
    first: usize,
    next: usize,
}

/// One thread's master generator and where its stream ends in the tape.
struct ThreadTape {
    master: ThreadWorkload,
    /// Index in the segment array of the thread's last segment, at
    /// first its placeholder head: index `t` for thread `t`.
    last: usize,
    /// Instructions recorded for the thread.
    recorded: usize,
}

/// A lazily recorded, shareable recording of every thread's draw
/// stream for one (profile, phases, thread-count, seed) shape. All
/// threads record into one segment array and one instruction array, in
/// the order replay first reaches their segments; each thread's
/// segments are chained in stream order.
#[derive(Default)]
pub struct WorkloadTape {
    threads: Vec<ThreadTape>,
    segs: Vec<TapeSeg>,
    specs: Vec<TapedInstr>,
    /// The longest segment any phase of the profile can draw.
    max_segment: usize,
}

impl WorkloadTape {
    /// Builds the tape's masters with the simulator's exact construction
    /// sequence: one seed split per thread, in thread order, from a
    /// master RNG seeded with `seed`.
    pub fn new(
        profile: &Profile,
        phases: &[(u64, Profile)],
        thread_count: usize,
        seed: u64,
    ) -> Self {
        let mut tape = Self::default();
        tape.reset(profile, phases, thread_count, seed);
        tape
    }

    /// Empties the tape and rebuilds it for another shape, as
    /// [`new`](Self::new) would, but keeping its arrays. The pages one
    /// shape touched then serve the next; freed, they would stay
    /// resident in the allocator while the next shape touched new ones.
    pub fn reset(
        &mut self,
        profile: &Profile,
        phases: &[(u64, Profile)],
        thread_count: usize,
        seed: u64,
    ) {
        self.specs.clear();
        self.segs.clear();
        self.segs.extend((0..thread_count).map(|_| TapeSeg {
            seg: Segment::User { len: 0 },
            first: 0,
            next: 0,
        }));
        let mut master = Rng64::seed_from(seed);
        self.threads = (0..thread_count)
            .map(|i| ThreadTape {
                master: if phases.is_empty() {
                    ThreadWorkload::new(profile.clone(), i, master.split().next_u64())
                } else {
                    ThreadWorkload::with_phases(
                        profile.clone(),
                        phases.to_vec(),
                        i,
                        master.split().next_u64(),
                    )
                },
                last: i,
                recorded: 0,
            })
            .collect();
        self.max_segment = phases
            .iter()
            .map(|(_, p)| p)
            .chain([profile])
            .map(ThreadWorkload::max_segment_len)
            .max()
            .unwrap_or(0) as usize;
    }

    /// Wraps the tape for sharing between the points of its shape.
    pub fn into_shared(self) -> SharedTape {
        Rc::new(RefCell::new(self))
    }

    /// Number of threads the tape records.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Instructions recorded for thread `t`.
    pub fn spec_len(&self, t: usize) -> usize {
        self.threads[t].recorded
    }

    /// Records thread `t` until at least `min_specs` of its instructions
    /// exist, whole segments at a time. The final segment may overshoot
    /// by up to the longest segment the profile can draw, so the array
    /// is sized for that once instead of doubling through tens of
    /// megabytes.
    pub fn extend_to(&mut self, t: usize, min_specs: usize) {
        let missing = min_specs.saturating_sub(self.threads[t].recorded);
        self.specs.reserve(missing + self.max_segment);
        while self.threads[t].recorded < min_specs {
            self.record(t);
        }
    }

    /// Reserves room for everything one point can record while it runs
    /// regions with these instruction `budgets`. The simulation fetches
    /// a segment only while the region has retired less than its budget
    /// and runs each fetched segment whole, so a region of budget `b`
    /// fetches at most `b` segments, holding fewer than
    /// `b + max_segment` instructions, whichever threads they belong to.
    pub fn reserve(&mut self, budgets: &[u64]) {
        let total = budgets.iter().sum::<u64>() as usize;
        self.specs.reserve(total + budgets.len() * self.max_segment);
        self.segs.reserve(total);
    }

    /// Records thread `t`'s next segment and all of its instructions,
    /// returning the segment's index in the segment array.
    fn record(&mut self, t: usize) -> usize {
        let thread = &mut self.threads[t];
        let seg = thread.master.next_segment();
        let first = self.specs.len();
        match &seg {
            Segment::User { len } => {
                for _ in 0..*len {
                    let spec = thread.master.user_instr();
                    self.specs.push(TapedInstr::pack(&spec));
                }
            }
            Segment::Os(inv) => {
                for j in 0..inv.actual_len {
                    let spec = thread.master.os_instr(inv, j);
                    self.specs.push(TapedInstr::pack(&spec));
                }
            }
        }
        thread.recorded += self.specs.len() - first;
        let idx = self.segs.len();
        self.segs[std::mem::replace(&mut thread.last, idx)].next = idx;
        self.segs.push(TapeSeg {
            seg,
            first,
            next: 0,
        });
        idx
    }

    /// The index of the segment after `cur` in thread `t`'s stream,
    /// recording it on first use.
    fn next_after(&mut self, t: usize, cur: usize) -> usize {
        match self.segs[cur].next {
            0 => self.record(t),
            next => next,
        }
    }

    /// The contiguous specs of one recorded segment (`first..end` as
    /// reported by a cursor). The hot loop borrows the tape once per
    /// segment and walks this slice with plain indexed loads — no
    /// per-instruction shared-state access.
    #[inline]
    pub fn specs(&self, first: usize, end: usize) -> &[TapedInstr] {
        &self.specs[first..end]
    }
}

/// A tape shared by the points of one workload shape.
pub type SharedTape = Rc<RefCell<WorkloadTape>>;

/// One point's read position into one thread's stream.
///
/// Presents the same three-call surface as a live [`ThreadWorkload`]
/// (`next_segment`, then that segment's instructions by index), backed
/// by the shared tape.
pub struct TapeCursor {
    tape: SharedTape,
    thread: usize,
    /// Index in the tape's segment array of the current segment, at
    /// first the thread's placeholder head.
    cur: usize,
    /// Flat spec index of the current segment's first instruction.
    cur_first: usize,
    /// Flat spec index one past the current segment's last instruction.
    cur_end: usize,
}

impl TapeCursor {
    /// A cursor at the start of thread `thread`'s stream.
    pub fn new(tape: SharedTape, thread: usize) -> Self {
        TapeCursor {
            tape,
            thread,
            cur: thread,
            cur_first: 0,
            cur_end: 0,
        }
    }

    /// The next segment of the stream — bit-identical to the segment a
    /// live generator in the same position would draw.
    pub fn next_segment(&mut self) -> Segment {
        let mut tape = self.tape.borrow_mut();
        let idx = tape.next_after(self.thread, self.cur);
        let s = &tape.segs[idx];
        self.cur = idx;
        self.cur_first = s.first;
        self.cur_end = s.first
            + match &s.seg {
                Segment::User { len } => *len as usize,
                Segment::Os(inv) => inv.actual_len as usize,
            };
        s.seg.clone()
    }

    /// Instruction `j` of the current segment (per-call tape access;
    /// the hot loop uses [`span`](Self::span) + [`WorkloadTape::specs`]
    /// to read the whole segment through one borrow instead).
    #[inline]
    pub fn instr(&self, j: u64) -> InstrSpec {
        self.tape.borrow().specs[self.cur_first + j as usize].unpack()
    }

    /// The shared tape this cursor reads.
    pub fn tape(&self) -> &SharedTape {
        &self.tape
    }

    /// `(first, end)` of the current segment — the arguments
    /// [`WorkloadTape::specs`] wants for the zero-copy slice read.
    pub fn span(&self) -> (usize, usize) {
        (self.cur_first, self.cur_end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replaying a tape must reproduce the live generator's stream
    /// exactly, for every thread, including across lazy-extension
    /// boundaries and interleaved multi-cursor reads.
    #[test]
    fn replay_is_bit_identical_to_live_generation() {
        let profile = Profile::apache();
        let seed = 0xF1605u64;
        let threads = 2usize;

        // Live reference streams, constructed the simulator's way.
        let mut master = Rng64::seed_from(seed);
        let mut live: Vec<ThreadWorkload> = (0..threads)
            .map(|i| ThreadWorkload::new(profile.clone(), i, master.split().next_u64()))
            .collect();

        let tape = WorkloadTape::new(&profile, &[], threads, seed).into_shared();
        let mut cursors: Vec<TapeCursor> = (0..threads)
            .map(|t| TapeCursor::new(tape.clone(), t))
            .collect();

        for _ in 0..200 {
            for t in 0..threads {
                let live_seg = live[t].next_segment();
                let tape_seg = cursors[t].next_segment();
                assert_eq!(live_seg, tape_seg, "thread {t}: segment header diverged");
                match &live_seg {
                    Segment::User { len } => {
                        for j in 0..*len {
                            assert_eq!(live[t].user_instr(), cursors[t].instr(j));
                        }
                    }
                    Segment::Os(inv) => {
                        for j in 0..inv.actual_len {
                            assert_eq!(live[t].os_instr(inv, j), cursors[t].instr(j));
                        }
                    }
                }
            }
        }
    }

    /// A second cursor over the same tape replays from the start and
    /// sees the same stream (the sharing that pays for the tape).
    #[test]
    fn two_cursors_share_one_generation() {
        let profile = Profile::specjbb();
        let tape = WorkloadTape::new(&profile, &[], 1, 42).into_shared();
        let mut a = TapeCursor::new(tape.clone(), 0);
        let first: Vec<Segment> = (0..50).map(|_| a.next_segment()).collect();
        let mut b = TapeCursor::new(tape.clone(), 0);
        let second: Vec<Segment> = (0..50).map(|_| b.next_segment()).collect();
        assert_eq!(first, second);
    }

    /// `extend_to` materialises whole segments past the requested depth.
    #[test]
    fn extend_to_covers_requested_depth() {
        let profile = Profile::derby();
        let tape = WorkloadTape::new(&profile, &[], 1, 7);
        let shared = tape.into_shared();
        shared.borrow_mut().extend_to(0, 10_000);
        assert!(shared.borrow().spec_len(0) >= 10_000);
    }
}
