//! Repro corpus: self-contained JSON archives of shrunk failing cases.
//!
//! Every failure the fuzzer finds is shrunk and written to one file
//! under the corpus directory (`fuzz/corpus/` at the repo root). The
//! file names are deterministic — `{oracle}-{case_seed:016x}.json` — so
//! re-finding a known failure overwrites its archive instead of piling
//! up duplicates, and two identical campaigns produce byte-identical
//! corpora.
//!
//! An archive is *self-contained*: it embeds the full configuration in
//! the system codec's encoding ([`SystemConfig::to_json`], the bytes an
//! archive row, a journal record and a serve cache entry carry), not
//! just the seed, so it keeps replaying even if the generator's seed →
//! case mapping changes later. Once the underlying bug is fixed the
//! file stays in the corpus as a regression test (`tests/fuzz_corpus.rs`
//! replays every archive through every oracle on plain `cargo test`).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::oracle::{OracleFailure, OracleKind};
use osoffload_obs::json::{self, Value};
use osoffload_system::SystemConfig;

/// Bumped if the archive layout ever changes shape; version 2 stores
/// the configuration under `"config"` in the system codec's encoding.
pub const FORMAT_VERSION: u64 = 2;

/// One archived repro.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Oracle the case failed when it was archived.
    pub oracle: OracleKind,
    /// Seed the original (pre-shrink) case was generated from.
    pub case_seed: u64,
    /// Failure detail at archive time.
    pub detail: String,
    /// The shrunk failing configuration.
    pub config: SystemConfig,
}

impl CorpusEntry {
    /// The file name this entry archives under.
    pub fn file_name(&self) -> String {
        format!("{}-{:016x}.json", self.oracle.name(), self.case_seed)
    }

    /// The exact command that replays this entry from a checkout.
    pub fn replay_command(&self) -> String {
        format!(
            "cargo run -p osoffload-fuzz -- repro fuzz/corpus/{}",
            self.file_name()
        )
    }

    /// Serializes the entry (stable field order).
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("format_version".into(), Value::UInt(FORMAT_VERSION)),
            ("oracle".into(), Value::Str(self.oracle.name().into())),
            ("case_seed".into(), Value::UInt(self.case_seed)),
            ("detail".into(), Value::Str(self.detail.clone())),
            ("replay".into(), Value::Str(self.replay_command())),
            (
                "config".into(),
                json::parse(&self.config.to_json()).expect("the codec writes JSON"),
            ),
        ])
    }

    /// Parses an entry back from its JSON form.
    pub fn from_value(v: &Value) -> Result<CorpusEntry, String> {
        let version = v.field("corpus entry", "format_version", Value::as_u64)?;
        if version != FORMAT_VERSION {
            return Err(format!(
                "unsupported corpus format {version} (this build reads {FORMAT_VERSION})"
            ));
        }
        let oracle_name = v.field("corpus entry", "oracle", Value::as_str)?;
        let oracle = OracleKind::parse(oracle_name)
            .ok_or_else(|| format!("unknown oracle {oracle_name:?}"))?;
        let case_seed = v.field("corpus entry", "case_seed", Value::as_u64)?;
        let detail = v
            .field("corpus entry", "detail", Value::as_str)?
            .to_string();
        let config = SystemConfig::from_json(v.field("corpus entry", "config", Some)?)?;
        Ok(CorpusEntry {
            oracle,
            case_seed,
            detail,
            config,
        })
    }
}

/// Writes `entry` under `dir`, creating the directory if needed.
/// Returns the path written.
pub fn archive(dir: &Path, entry: &CorpusEntry) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(entry.file_name());
    fs::write(&path, entry.to_value().to_json_pretty())?;
    Ok(path)
}

/// Loads one archive file.
pub fn load(path: &Path) -> Result<CorpusEntry, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let value = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    CorpusEntry::from_value(&value).map_err(|e| format!("{}: {e}", path.display()))
}

/// All `*.json` archives under `dir`, sorted by file name. An absent
/// directory is an empty corpus, not an error.
pub fn list(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let path = entry?.path();
        if path.extension().is_some_and(|ext| ext == "json") {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// Replays an entry through **all** oracles (not just the one it was
/// archived under: a fixed bug must leave the case clean everywhere).
pub fn replay(entry: &CorpusEntry) -> Vec<OracleFailure> {
    crate::oracle::check_all(&entry.config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shrink::target;

    fn sample_entry() -> CorpusEntry {
        CorpusEntry {
            oracle: OracleKind::Differential,
            case_seed: 0xDEAD_F00D,
            detail: "reports diverge in keys: offload".into(),
            config: SystemConfig {
                user_cores: 3,
                seed: 0x8000_0000_0000_0003, // > 2^63: exercises u64 fidelity
                ..target()
            },
        }
    }

    fn text(entry: &CorpusEntry) -> String {
        entry.to_value().to_json_pretty()
    }

    #[test]
    fn entry_round_trips_through_json() {
        let entry = sample_entry();
        let back = CorpusEntry::from_value(&json::parse(&text(&entry)).unwrap()).unwrap();
        assert_eq!(format!("{back:?}"), format!("{entry:?}"));
        assert_eq!(back.config.seed, 0x8000_0000_0000_0003);
    }

    /// The checked-in corpus is the writer's own output, so reading and
    /// re-writing each file reproduces it byte for byte.
    #[test]
    fn checked_in_corpus_round_trips_byte_identically() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus");
        let paths = list(&dir).unwrap();
        assert!(!paths.is_empty(), "no corpus under {}", dir.display());
        for path in paths {
            let file = fs::read_to_string(&path).unwrap();
            let value = json::parse(&file).unwrap();
            assert_eq!(value.to_json_pretty(), file, "{}", path.display());
            let entry = CorpusEntry::from_value(&value).unwrap();
            assert_eq!(text(&entry), file, "{}", path.display());
        }
    }

    #[test]
    fn file_name_and_replay_command_are_deterministic() {
        let entry = sample_entry();
        assert_eq!(entry.file_name(), "differential-00000000deadf00d.json");
        assert_eq!(
            entry.replay_command(),
            "cargo run -p osoffload-fuzz -- repro fuzz/corpus/differential-00000000deadf00d.json"
        );
    }

    #[test]
    fn archive_load_list_round_trip() {
        let dir =
            std::env::temp_dir().join(format!("osoffload-fuzz-corpus-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let entry = sample_entry();
        let path = archive(&dir, &entry).unwrap();
        assert_eq!(text(&load(&path).unwrap()), text(&entry));
        assert_eq!(list(&dir).unwrap(), vec![path.clone()]);
        // Re-archiving the same failure overwrites, never duplicates.
        archive(&dir, &entry).unwrap();
        assert_eq!(list(&dir).unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn listing_a_missing_directory_is_an_empty_corpus() {
        let dir = Path::new("/nonexistent/osoffload-fuzz-nowhere");
        assert!(list(dir).unwrap().is_empty());
    }

    #[test]
    fn version_mismatch_is_rejected() {
        for version in [1, 999] {
            let mut v = sample_entry().to_value();
            if let Value::Obj(fields) = &mut v {
                fields[0].1 = Value::UInt(version);
            }
            let err = CorpusEntry::from_value(&v).unwrap_err();
            assert!(
                err.contains(&format!("unsupported corpus format {version}")),
                "{err}"
            );
        }
    }

    #[test]
    fn an_entry_naming_an_unknown_profile_is_refused() {
        let hostile = text(&sample_entry()).replacen("\"apache\"", "\"no-such-workload\"", 1);
        let err = CorpusEntry::from_value(&json::parse(&hostile).unwrap()).unwrap_err();
        assert!(err.contains("unknown profile"), "{err}");
    }
}
