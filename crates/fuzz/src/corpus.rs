//! Repro corpus: self-contained JSON archives of shrunk failing cases.
//!
//! Every failure the fuzzer finds is shrunk and written to one file
//! under the corpus directory (`fuzz/corpus/` at the repo root). The
//! file names are deterministic — `{oracle}-{case_seed:016x}.json` — so
//! re-finding a known failure overwrites its archive instead of piling
//! up duplicates, and two identical campaigns produce byte-identical
//! corpora.
//!
//! An archive is *self-contained*: it embeds the full [`FuzzCase`], not
//! just the seed, so it keeps replaying even if the generator's seed →
//! case mapping changes later. Once the underlying bug is fixed the
//! file stays in the corpus as a regression test (`tests/fuzz_corpus.rs`
//! replays every archive through every oracle on plain `cargo test`).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::case::FuzzCase;
use crate::oracle::{OracleFailure, OracleKind};
use osoffload_obs::json::{self, Value};

/// Bumped if the archive layout ever changes shape.
pub const FORMAT_VERSION: u64 = 1;

/// One archived repro.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusEntry {
    /// Oracle the case failed when it was archived.
    pub oracle: OracleKind,
    /// Seed the original (pre-shrink) case was generated from.
    pub case_seed: u64,
    /// Failure detail at archive time.
    pub detail: String,
    /// The shrunk failing case.
    pub case: FuzzCase,
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
            ("case".into(), self.case.to_value()),
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
        let case = FuzzCase::from_value(v.field("corpus entry", "case", Some)?)?;
        Ok(CorpusEntry {
            oracle,
            case_seed,
            detail,
            case,
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
    crate::oracle::check_all(&entry.case)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry() -> CorpusEntry {
        let case = FuzzCase {
            user_cores: 3,
            seed: 0x8000_0000_0000_0003, // > 2^63: exercises u64 fidelity
            ..FuzzCase::default()
        };
        CorpusEntry {
            oracle: OracleKind::Differential,
            case_seed: 0xDEAD_F00D,
            detail: "reports diverge in keys: offload".into(),
            case,
        }
    }

    #[test]
    fn entry_round_trips_through_json() {
        let entry = sample_entry();
        let text = entry.to_value().to_json_pretty();
        let back = CorpusEntry::from_value(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, entry);
        assert_eq!(back.case.seed, 0x8000_0000_0000_0003);
    }

    /// The checked-in corpus is the writer's own output, so reading and
    /// re-writing each file reproduces it byte for byte. Repros archived
    /// before the topology fields existed load those as defaults and
    /// gain them when re-written, so for them only the JSON layer is an
    /// identity.
    #[test]
    fn checked_in_corpus_round_trips_byte_identically() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus");
        let paths = list(&dir).unwrap();
        assert!(!paths.is_empty(), "no corpus under {}", dir.display());
        for path in paths {
            let text = fs::read_to_string(&path).unwrap();
            let value = json::parse(&text).unwrap();
            assert_eq!(value.to_json_pretty(), text, "{}", path.display());
            let entry = CorpusEntry::from_value(&value).unwrap();
            let rewritten = entry.to_value().to_json_pretty();
            let reread = CorpusEntry::from_value(&json::parse(&rewritten).unwrap()).unwrap();
            assert_eq!(reread, entry, "{}", path.display());
            if value.get("case").and_then(|c| c.get("os_cores")).is_some() {
                assert_eq!(rewritten, text, "{}", path.display());
            }
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
        assert_eq!(load(&path).unwrap(), entry);
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
        let mut v = sample_entry().to_value();
        if let Value::Obj(fields) = &mut v {
            fields[0].1 = Value::UInt(999);
        }
        let err = CorpusEntry::from_value(&v).unwrap_err();
        assert!(err.contains("unsupported corpus format 999"), "{err}");
    }
}
