//! Memory-hierarchy substrate for the `osoffload` CMP simulator.
//!
//! The paper's evaluation (Table II) models per-core 32 KB 2-way L1
//! instruction and data caches, per-core 1 MB 16-way L2 caches kept
//! coherent by a directory-based MESI protocol over a point-to-point
//! interconnect, and a 350-cycle uniform-latency main memory. This crate
//! implements all of it:
//!
//! * [`addr`] — physical address / cache line / core identifier newtypes;
//! * [`cache`] — set-associative caches with pluggable replacement;
//! * [`mesi`] — the MESI line-state machine;
//! * [`directory`] — a full-map coherence directory tracking every cached
//!   line, with cache-to-cache transfers and invalidations costed
//!   independently (as §IV requires);
//! * [`interconnect`] — hop-latency model between cores, directory, DRAM;
//! * [`dram`] — uniform-latency main memory;
//! * [`hierarchy`] — [`MemorySystem`], the facade the core models call for
//!   every load, store, and instruction fetch.
//!
//! # Examples
//!
//! ```
//! use osoffload_mem::{MemorySystem, MemConfig, Access, CoreId, Address};
//!
//! let mut mem = MemorySystem::new(MemConfig::paper_baseline(2));
//! let core = CoreId::new(0);
//! let a = Address::new(0x4000);
//! let miss = mem.access(core, Access::read(a));
//! let hit = mem.access(core, Access::read(a));
//! assert!(miss.latency > hit.latency);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod cache;
pub mod directory;
pub mod dram;
pub mod hierarchy;
pub mod interconnect;
pub mod mesi;

#[cfg(test)]
mod proptests;

pub use addr::{Address, CoreId, LineAddr, LINE_BYTES};
pub use cache::{Cache, CacheGeometry, CacheStats, GeometryError, ReplacementPolicy};
pub use directory::{CoreSet, Directory};
pub use dram::Dram;
pub use hierarchy::{
    Access, AccessKind, AccessOutcome, HitLevel, MemConfig, MemSnapshot, MemorySystem,
};
pub use interconnect::Interconnect;
pub use mesi::MesiState;
