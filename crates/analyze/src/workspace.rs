//! Workspace loading: discovers the `.rs` sources and auxiliary files the
//! lints run over.

use crate::source::SourceFile;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Relative path of the wire-layout documentation used by `wire-const-drift`.
pub const EDGE_README: &str = "crates/edge/README.md";

/// Relative path of the `unwrap-in-lib` budget file.
pub const UNWRAP_BUDGET: &str = "crates/analyze/unwrap_budget.txt";

/// Every input the lint registry consumes, loaded into memory.
pub struct Workspace {
    /// All scanned `.rs` files, keyed and ordered by repo-relative path.
    pub files: BTreeMap<String, SourceFile>,
    /// Auxiliary non-Rust inputs (README layout tables, budget file),
    /// keyed by repo-relative path. Missing files are simply absent; the
    /// lints that need them report that as a violation.
    pub aux: BTreeMap<String, String>,
}

impl Workspace {
    /// Loads the workspace rooted at `root` from disk.
    ///
    /// Walks `crates/`, top-level `tests/` / `examples/` if present, and
    /// `vendor/bytes` — the one vendored stub that carries `unsafe`, there
    /// for the two unsafe lints (every other lint scopes itself to
    /// `crates/`) — skipping `target/`, the other vendored stubs, and the
    /// analyzer's own lint fixtures — those intentionally contain violations.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut files = BTreeMap::new();
        for top in ["crates", "tests", "examples", "vendor/bytes"] {
            let dir = root.join(top);
            if dir.is_dir() {
                walk_rs(root, &dir, &mut files)?;
            }
        }
        let mut aux = BTreeMap::new();
        for path in [EDGE_README, UNWRAP_BUDGET] {
            if let Ok(text) = fs::read_to_string(root.join(path)) {
                aux.insert(path.to_string(), text);
            }
        }
        Ok(Workspace { files, aux })
    }

    /// Builds a workspace from in-memory `(path, text)` pairs — the test
    /// entry point for cross-file lints (budget, README drift, error
    /// coverage) without touching the real tree.
    pub fn from_memory<P, T>(sources: impl IntoIterator<Item = (P, T)>) -> Workspace
    where
        P: Into<String>,
        T: Into<String>,
    {
        let mut files = BTreeMap::new();
        let mut aux = BTreeMap::new();
        for (path, text) in sources {
            let path = path.into();
            let text = text.into();
            if path.ends_with(".rs") {
                files.insert(path.clone(), SourceFile::new(path, text));
            } else {
                aux.insert(path, text);
            }
        }
        Workspace { files, aux }
    }

    /// Iterates the scanned files in path order.
    pub fn iter(&self) -> impl Iterator<Item = &SourceFile> {
        self.files.values()
    }

    /// Looks up one file by repo-relative path.
    pub fn get(&self, path: &str) -> Option<&SourceFile> {
        self.files.get(path)
    }
}

/// Directory names that are never walked.
fn skip_dir(name: &str) -> bool {
    name == "target" || name == "fixtures" || name == "vendor" || name.starts_with('.')
}

fn walk_rs(root: &Path, dir: &Path, files: &mut BTreeMap<String, SourceFile>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if !skip_dir(&name) {
                walk_rs(root, &path, files)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let text = fs::read_to_string(&path)?;
            files.insert(rel.clone(), SourceFile::new(rel, text));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_memory_splits_rs_and_aux() {
        let ws = Workspace::from_memory([
            ("crates/x/src/lib.rs", "fn a() {}"),
            ("crates/edge/README.md", "| table |"),
        ]);
        assert_eq!(ws.files.len(), 1);
        assert_eq!(ws.aux.len(), 1);
        assert!(ws.get("crates/x/src/lib.rs").is_some());
        assert!(ws.aux.contains_key(EDGE_README));
    }

    #[test]
    fn skip_rules() {
        assert!(skip_dir("target"));
        assert!(skip_dir("fixtures"));
        assert!(skip_dir(".git"));
        assert!(!skip_dir("src"));
    }
}
