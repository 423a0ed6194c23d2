//! Scratch directories shared by the serve integration tests.

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh directory under the system temp dir, named after the test
/// binary, `tag`, the process and a counter. Dropping the guard removes
/// the directory and everything in it.
pub struct Scratch(PathBuf);

/// Creates a [`Scratch`] directory for one test.
pub fn scratch(tag: &str) -> Scratch {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "osoffload_{}_{tag}_{}_{}",
        env!("CARGO_CRATE_NAME"),
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    Scratch(dir)
}

impl Deref for Scratch {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
