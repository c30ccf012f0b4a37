//! `builder-drift`: one options surface, not one builder per crate.
//!
//! The wire codec, transport backend and retry budget are configured through
//! the shared `edvit_edge::NetOptions` struct and a single `with_options`
//! method on each runtime surface. Before that unification, every surface
//! grew its own `with_codec` / `with_max_retries` twin, and the copies
//! drifted (different defaults, different subsets of knobs). This lint stops
//! the pattern from growing back: defining a builder method named after a
//! `NetOptions` field anywhere outside the canonical home
//! (`crates/edge/src/options.rs`) is a violation.
//!
//! The deprecated compatibility shims of the unification are deleted: no
//! `// edvit:allow(builder-drift)` remains in the workspace, and CI fails if
//! one (or a `#[deprecated]` item) reappears under `crates/*/src`.

use super::{diag_at, Lint};
use crate::diag::Diagnostic;
use crate::workspace::Workspace;

/// See module docs.
pub struct BuilderDrift;

/// Builder names that duplicate a `NetOptions` field. `with_options` itself
/// is the sanctioned surface and is not listed.
const DRIFT_BUILDERS: [&str; 3] = ["with_codec", "with_transport", "with_max_retries"];

/// Only library sources are in scope; the canonical options module is the
/// one place allowed to define these builders.
fn in_scope(path: &str) -> bool {
    path.starts_with("crates/") && path.contains("/src/") && path != "crates/edge/src/options.rs"
}

impl Lint for BuilderDrift {
    fn id(&self) -> &'static str {
        "builder-drift"
    }

    fn description(&self) -> &'static str {
        "no per-surface with_codec/with_transport/with_max_retries builders outside NetOptions (one shared options surface)"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for file in ws.iter() {
            if !in_scope(&file.path) || file.is_test_file() {
                continue;
            }
            for fspan in &file.fns {
                if !DRIFT_BUILDERS.contains(&fspan.name.as_str())
                    || file.in_test_span(fspan.fn_start)
                {
                    continue;
                }
                out.push(diag_at(
                    self.id(),
                    file,
                    fspan.fn_start,
                    format!(
                        "`fn {}` duplicates a NetOptions field on this surface: add the \
                         knob to `edvit_edge::NetOptions` and accept it via `with_options` \
                         instead of growing another per-surface builder",
                        fspan.name
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::run_all;

    fn hits(path: &str, src: &str) -> Vec<Diagnostic> {
        let ws = Workspace::from_memory([(path, src)]);
        run_all(&ws)
            .into_iter()
            .filter(|d| d.lint == "builder-drift")
            .collect()
    }

    #[test]
    fn flags_duplicate_builders_outside_options() {
        let src = "impl Thing {\n    pub fn with_codec(mut self, c: u8) -> Self { self.c = c; self }\n    pub fn with_transport(mut self, t: u8) -> Self { self.t = t; self }\n}\n";
        let found = hits("crates/edge/src/runtime.rs", src);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].message.contains("with_codec"));
    }

    #[test]
    fn the_canonical_options_module_is_exempt() {
        let src = "impl NetOptions {\n    pub fn with_codec(mut self, c: u8) -> Self { self.c = c; self }\n}\n";
        assert!(hits("crates/edge/src/options.rs", src).is_empty());
    }

    #[test]
    fn unrelated_builders_and_call_sites_do_not_fire() {
        let src = "impl Thing {\n    pub fn with_seed(mut self, s: u64) -> Self { self.s = s; self }\n    pub fn build(self) -> u8 { NetOptions::default().with_codec(self.c).codec }\n}\n";
        assert!(hits("crates/edge/src/runtime.rs", src).is_empty());
    }

    #[test]
    fn test_code_is_out_of_scope() {
        let src = "#[cfg(test)]\nmod tests {\n    fn with_codec(c: u8) -> u8 { c }\n}\n";
        assert!(hits("crates/edge/src/runtime.rs", src).is_empty());
    }

    #[test]
    fn suppression_silences() {
        let src = "impl Thing {\n    // edvit:allow(builder-drift)\n    pub fn with_codec(mut self, c: u8) -> Self { self.c = c; self }\n}\n";
        assert!(hits("crates/edge/src/runtime.rs", src).is_empty());
    }
}
