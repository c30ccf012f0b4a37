//! Every variant of every `pub enum *Error` in `crates/*/src/error.rs` is
//! written as `Enum::Variant` somewhere in test code: the root `tests/` and
//! `examples/`, `crates/*/tests/`, `crates/*/benches/`, and the
//! `#[cfg(test)] mod` blocks of any source file. An error no test constructs
//! or matches is an error nobody has seen formatted.

use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for path in entries.flatten().map(|entry| entry.path()) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The `#[cfg(test)] mod name { … }` blocks of a rustfmt-formatted file:
/// from the attribute to the `}` at the attribute's indentation.
fn cfg_test_modules(source: &str) -> String {
    let mut out = String::new();
    let mut closing: Option<String> = None;
    let mut lines = source.lines().peekable();
    while let Some(line) = lines.next() {
        if let Some(end) = &closing {
            out.push_str(line);
            out.push('\n');
            if line == end {
                closing = None;
            }
        } else if line.trim() == "#[cfg(test)]"
            && lines
                .peek()
                .is_some_and(|next| next.contains("mod ") && next.ends_with('{'))
        {
            let indent = &line[..line.len() - line.trim_start().len()];
            closing = Some(format!("{indent}}}"));
        }
    }
    out
}

/// `(enum, variant)` for every variant of every top-level `pub enum *Error`.
fn error_variants(source: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut current: Option<&str> = None;
    for line in source.lines() {
        if let Some(name) = line
            .strip_prefix("pub enum ")
            .and_then(|l| l.strip_suffix(" {"))
        {
            current = name.ends_with("Error").then_some(name);
        } else if line == "}" {
            current = None;
        } else if let (Some(name), Some(item)) = (current, line.strip_prefix("    ")) {
            let variant: String = item
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if variant.starts_with(|c: char| c.is_ascii_uppercase()) {
                out.push((name.to_string(), variant));
            }
        }
    }
    out
}

/// Whether `text` holds `path` as a whole path, not as part of a longer name.
fn names(text: &str, path: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(path)
        .any(|(at, _)| !text[..at].ends_with(ident) && !text[at + path.len()..].starts_with(ident))
}

#[test]
fn every_public_error_variant_is_named_in_a_test() {
    let root = workspace_root();
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut test_code = String::new();
    let mut variants = Vec::new();
    let mut error_files = 0;
    for path in &files {
        let relative = path.strip_prefix(&root).expect("under the root");
        let parts: Vec<_> = relative.iter().filter_map(|p| p.to_str()).collect();
        let source = fs::read_to_string(path).expect("readable source");
        match parts.as_slice() {
            ["tests" | "examples", ..] | ["crates", _, "tests" | "benches", ..] => {
                test_code.push_str(&source);
            }
            ["crates", _, "src", ..] => {
                test_code.push_str(&cfg_test_modules(&source));
                if parts[3..] == ["error.rs"] {
                    error_files += 1;
                    variants.extend(error_variants(&source));
                }
            }
            _ => {}
        }
    }
    assert_eq!(error_files, 13, "crates/*/src/error.rs files");
    assert!(variants.len() > 13, "found only {variants:?}");
    let untested: Vec<String> = variants
        .iter()
        .map(|(name, variant)| format!("{name}::{variant}"))
        .filter(|path| !names(&test_code, path))
        .collect();
    assert!(
        untested.is_empty(),
        "no test writes these error variants: {untested:?}"
    );
}
