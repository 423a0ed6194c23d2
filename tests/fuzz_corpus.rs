//! Replays every archived fuzz repro on plain `cargo test`.
//!
//! `fuzz/corpus/` holds the shrunk, self-contained failing
//! configurations the differential fuzzer has found (see `FUZZING.md`).
//! Once the bug behind an archive is fixed, the archive stays in the
//! corpus and this test keeps it fixed: each entry is replayed through
//! **all eight** oracles — differential, predictor, invariants,
//! telemetry, alloc, crash-recovery, profile and lane-stepper — and
//! must pass every one.
//!
//! Like `tests/alloc_audit.rs`, the test installs a counting
//! `#[global_allocator]` so the alloc oracle actually counts instead of
//! passing vacuously. Integration tests are separate binaries, so the
//! shim stays contained here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;

use osoffload::sim::alloc_audit;
use osoffload_fuzz::corpus;

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        alloc_audit::note_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        alloc_audit::note_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn corpus_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fuzz/corpus")
}

#[test]
fn corpus_is_not_empty() {
    let paths = corpus::list(&corpus_dir()).expect("corpus directory must be readable");
    assert!(
        !paths.is_empty(),
        "fuzz/corpus must hold at least one archived repro; \
         run `cargo run -p osoffload-fuzz` to populate it"
    );
}

#[test]
fn every_archived_repro_passes_every_oracle() {
    let dir = corpus_dir();
    let paths = corpus::list(&dir).expect("corpus directory must be readable");
    let mut failing: Vec<String> = Vec::new();
    for path in &paths {
        let entry = match corpus::load(path) {
            Ok(entry) => entry,
            Err(e) => {
                failing.push(format!("{}: unreadable archive: {e}", path.display()));
                continue;
            }
        };
        for failure in corpus::replay(&entry) {
            failing.push(format!(
                "{}: {failure} (replay: {})",
                path.display(),
                entry.replay_command()
            ));
        }
    }
    assert!(
        failing.is_empty(),
        "{} archived repro(s) regressed:\n{}",
        failing.len(),
        failing.join("\n")
    );
}
