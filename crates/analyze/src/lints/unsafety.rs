//! The two `unsafe` audit lints.
//!
//! * `undocumented-unsafe` — every `unsafe` block, fn, impl or trait must
//!   carry a `// SAFETY:` comment (or a `# Safety` doc section) stating the
//!   invariant it relies on.
//! * `unsafe-outside-kernels` — `unsafe` is confined to `crates/tensor`
//!   (SIMD kernels), `crates/parallel` (scoped-thread lifetime erasure) and
//!   `vendor/bytes` (the calls into its CRC-32 and binary16 kernels, under
//!   `#![deny(unsafe_code)]` with an `allow` per call); every other crate
//!   carries `#![forbid(unsafe_code)]` and this lint keeps new crates honest
//!   before they grow a forbid attribute.
//!
//! `unsafe fn(...)` *pointer types* are exempt from both lints: they have no
//! body, discharge no obligation at the definition site, and are likewise
//! permitted under `#![forbid(unsafe_code)]`.

use super::{diag_at, Lint};
use crate::diag::Diagnostic;
use crate::source::{SourceFile, TokenKind};
use crate::workspace::Workspace;

/// See module docs.
pub struct UndocumentedUnsafe;

/// See module docs.
pub struct UnsafeOutsideKernels;

/// Crates whose kernels legitimately need `unsafe`.
fn kernel_crate(path: &str) -> bool {
    ["crates/tensor/", "crates/parallel/", "vendor/bytes/"]
        .iter()
        .any(|kernels| path.starts_with(kernels))
}

/// Indices of `unsafe` tokens that introduce real unsafe code (not fn
/// pointer types like `unsafe fn(*const (), usize)`).
fn unsafe_sites(file: &SourceFile) -> Vec<usize> {
    let mut sites = Vec::new();
    for (i, t) in file.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || file.tok_text(t) != "unsafe" {
            continue;
        }
        // `unsafe fn(` — a function *pointer type*, no obligation here.
        if file.is_ident(i + 1, "fn") && file.is_punct(i + 2, '(') {
            continue;
        }
        sites.push(i);
    }
    sites
}

/// Whether a comment intersecting one of `lines` documents safety.
fn lines_have_safety(file: &SourceFile, lines: &[usize]) -> bool {
    file.comments.iter().any(|c| {
        let c_line = file.line_of(c.start);
        if !lines.contains(&c_line) {
            return false;
        }
        let text = &file.text[c.start..c.end];
        text.contains("SAFETY") || text.contains("# Safety")
    })
}

/// Whether the `unsafe` at token index `idx` has a safety comment in any of
/// the accepted positions.
fn has_safety_doc(file: &SourceFile, idx: usize) -> bool {
    let tok = &file.tokens[idx];
    let line = file.line_of(tok.start);

    // 1. A comment on the same line (trailing or preceding the keyword).
    if lines_have_safety(file, &[line]) {
        return true;
    }

    // 2. Comments above, walking up through blank lines, other comments,
    //    attributes, and sibling `unsafe impl` lines (a pair of Send/Sync
    //    impls may share one SAFETY comment).
    let mut above = Vec::new();
    let mut l = line;
    while l > 1 {
        l -= 1;
        let text = file.line_text(l);
        let t = text.trim();
        let passthrough = t.is_empty()
            || t.starts_with("//")
            || t.starts_with("/*")
            || t.starts_with('*')
            || t.starts_with("*/")
            || t.starts_with("#[")
            || t.starts_with("#![")
            || t.starts_with("unsafe impl")
            || t == "}";
        if !passthrough {
            break;
        }
        above.push(l);
    }
    if lines_have_safety(file, &above) {
        return true;
    }

    // 3. The first line inside the block/body: `unsafe {` followed by a
    //    `// SAFETY:` comment on the next line.
    let mut k = idx + 1;
    while k < file.tokens.len() && !file.is_punct(k, '{') && !file.is_punct(k, ';') {
        k += 1;
    }
    if k < file.tokens.len() && file.is_punct(k, '{') {
        let open_line = file.line_of(file.tokens[k].start);
        if lines_have_safety(file, &[open_line, open_line + 1]) {
            return true;
        }
    }
    false
}

impl Lint for UndocumentedUnsafe {
    fn id(&self) -> &'static str {
        "undocumented-unsafe"
    }

    fn description(&self) -> &'static str {
        "every unsafe block/fn/impl needs a `// SAFETY:` comment stating the invariant it relies on"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for file in ws.iter() {
            for idx in unsafe_sites(file) {
                if !has_safety_doc(file, idx) {
                    let tok = file.tokens[idx];
                    out.push(diag_at(
                        self.id(),
                        file,
                        tok.start,
                        "`unsafe` without a `// SAFETY:` comment — state the exact \
                         alignment/bounds/dispatch invariant being relied on",
                    ));
                }
            }
        }
    }
}

impl Lint for UnsafeOutsideKernels {
    fn id(&self) -> &'static str {
        "unsafe-outside-kernels"
    }

    fn description(&self) -> &'static str {
        "unsafe code is confined to crates/tensor, crates/parallel and vendor/bytes; all other crates forbid it"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for file in ws.iter() {
            if kernel_crate(&file.path) {
                continue;
            }
            for idx in unsafe_sites(file) {
                let tok = file.tokens[idx];
                out.push(diag_at(
                    self.id(),
                    file,
                    tok.start,
                    "`unsafe` outside the kernel crates (crates/tensor, crates/parallel, \
                     vendor/bytes); move the code behind a safe kernel API instead",
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::run_all;

    fn lint_hits(path: &str, src: &str, lint: &str) -> Vec<Diagnostic> {
        let ws = Workspace::from_memory([(path, src)]);
        run_all(&ws)
            .into_iter()
            .filter(|d| d.lint == lint)
            .collect()
    }

    #[test]
    fn undocumented_unsafe_block_fires() {
        let found = lint_hits(
            "crates/tensor/src/kernels.rs",
            "fn f(p: *const f32) -> f32 { unsafe { *p } }\n",
            "undocumented-unsafe",
        );
        assert_eq!(found.len(), 1);
    }

    #[test]
    fn safety_comment_above_or_inside_passes() {
        let src = "\
fn f(p: *const f32) -> f32 {
    // SAFETY: caller guarantees p is valid and aligned.
    unsafe { *p }
}
fn g(p: *const f32) -> f32 {
    unsafe {
        // SAFETY: caller guarantees p is valid and aligned.
        *p
    }
}
";
        let found = lint_hits("crates/tensor/src/kernels.rs", src, "undocumented-unsafe");
        assert!(found.is_empty());
    }

    #[test]
    fn shared_safety_comment_covers_send_sync_pair() {
        let src = "\
// SAFETY: Region only hands each index to one worker.
unsafe impl Send for Region {}
unsafe impl Sync for Region {}
";
        let found = lint_hits("crates/parallel/src/lib.rs", src, "undocumented-unsafe");
        assert!(found.is_empty());
    }

    #[test]
    fn safety_doc_section_covers_unsafe_fn() {
        let src = "\
/// Does the thing.
///
/// # Safety
/// `p` must be valid for reads.
unsafe fn read(p: *const f32) -> f32 {
    *p
}
";
        let found = lint_hits("crates/tensor/src/kernels.rs", src, "undocumented-unsafe");
        assert!(found.is_empty());
    }

    #[test]
    fn fn_pointer_types_are_exempt() {
        let src = "struct H { call: unsafe fn(*const (), usize) }\n";
        assert!(lint_hits("crates/parallel/src/lib.rs", src, "undocumented-unsafe").is_empty());
        assert!(lint_hits("crates/edge/src/x.rs", src, "unsafe-outside-kernels").is_empty());
    }

    #[test]
    fn unsafe_outside_kernels_fires_elsewhere_only() {
        let src = "fn f(p: *const f32) -> f32 {\n    // SAFETY: fine.\n    unsafe { *p }\n}\n";
        assert_eq!(
            lint_hits("crates/edge/src/x.rs", src, "unsafe-outside-kernels").len(),
            1
        );
        assert!(lint_hits("crates/tensor/src/k.rs", src, "unsafe-outside-kernels").is_empty());
    }

    #[test]
    fn suppression_silences_both() {
        let src = "\
fn f(p: *const f32) -> f32 {
    // edvit:allow(undocumented-unsafe, unsafe-outside-kernels)
    unsafe { *p }
}
";
        assert!(lint_hits("crates/edge/src/x.rs", src, "undocumented-unsafe").is_empty());
        assert!(lint_hits("crates/edge/src/x.rs", src, "unsafe-outside-kernels").is_empty());
    }
}
