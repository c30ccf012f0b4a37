//! Fixture-driven conformance tests for the lint registry.
//!
//! Every lint has a positive fixture (the violation fires, at the expected
//! location) and a suppressed fixture (the same violation silenced with
//! `// edvit:allow(lint-id)`). The fixtures live as real `.rs` files under
//! `tests/fixtures/` — the workspace walker skips `fixtures/` directories,
//! so they never pollute a real run — and are mounted into an in-memory
//! [`Workspace`] at whatever path puts them in the lint's scope.
//!
//! The final test runs the whole registry against the *actual* repository
//! and asserts it is clean: the acceptance criterion the CI `static-analysis`
//! job gates on, enforced from `cargo test` as well.

use edvit_analyze::{run_all, Diagnostic, Workspace};

/// Runs the registry over `(path, text)` sources and keeps only `lint`'s
/// findings.
fn diags_for(lint: &str, sources: Vec<(&str, &str)>) -> Vec<Diagnostic> {
    let ws = Workspace::from_memory(sources);
    run_all(&ws)
        .into_iter()
        .filter(|d| d.lint == lint)
        .collect()
}

/// An empty unwrap budget, mounted so `unwrap-in-lib`'s missing-budget-file
/// report does not leak into unrelated fixtures.
const EMPTY_BUDGET: (&str, &str) = (
    "crates/analyze/unwrap_budget.txt",
    "# fixture budget: empty\n",
);

#[test]
fn wall_clock_in_sim_fixture() {
    let positive = include_str!("fixtures/wall_clock_positive.rs");
    let found = diags_for(
        "wall-clock-in-sim",
        vec![("crates/sched/src/fixture.rs", positive), EMPTY_BUDGET],
    );
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found[0].message.contains("Instant"));

    let suppressed = include_str!("fixtures/wall_clock_suppressed.rs");
    let found = diags_for(
        "wall-clock-in-sim",
        vec![("crates/sched/src/fixture.rs", suppressed), EMPTY_BUDGET],
    );
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn panic_in_decode_fixture() {
    let positive = include_str!("fixtures/panic_decode_positive.rs");
    let found = diags_for(
        "panic-in-decode",
        vec![("crates/edge/src/wire.rs", positive), EMPTY_BUDGET],
    );
    assert_eq!(
        found.len(),
        3,
        "unwrap + unreachable! + indexing: {found:?}"
    );

    let suppressed = include_str!("fixtures/panic_decode_suppressed.rs");
    let found = diags_for(
        "panic-in-decode",
        vec![("crates/edge/src/wire.rs", suppressed), EMPTY_BUDGET],
    );
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn undocumented_unsafe_fixture() {
    let positive = include_str!("fixtures/undocumented_unsafe_positive.rs");
    let found = diags_for(
        "undocumented-unsafe",
        vec![("crates/tensor/src/fixture.rs", positive), EMPTY_BUDGET],
    );
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].line, 4, "anchors on the `unsafe` keyword");

    // The vendored bytes stub is walked for this lint too.
    let found = diags_for(
        "undocumented-unsafe",
        vec![("vendor/bytes/src/fixture.rs", positive), EMPTY_BUDGET],
    );
    assert_eq!(found.len(), 1, "{found:?}");

    let suppressed = include_str!("fixtures/undocumented_unsafe_suppressed.rs");
    let found = diags_for(
        "undocumented-unsafe",
        vec![("crates/tensor/src/fixture.rs", suppressed), EMPTY_BUDGET],
    );
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn unsafe_outside_kernels_fixture() {
    let positive = include_str!("fixtures/unsafe_outside_positive.rs");
    let found = diags_for(
        "unsafe-outside-kernels",
        vec![("crates/edge/src/fixture.rs", positive), EMPTY_BUDGET],
    );
    assert_eq!(found.len(), 1, "{found:?}");

    // The same file inside any of the three kernel locations is in-scope
    // for unsafe.
    for kernels in ["crates/tensor", "crates/parallel", "vendor/bytes"] {
        let path = format!("{kernels}/src/fixture.rs");
        let found = diags_for(
            "unsafe-outside-kernels",
            vec![(path.as_str(), positive), EMPTY_BUDGET],
        );
        assert!(found.is_empty(), "{kernels}: {found:?}");
    }

    let suppressed = include_str!("fixtures/unsafe_outside_suppressed.rs");
    let found = diags_for(
        "unsafe-outside-kernels",
        vec![("crates/edge/src/fixture.rs", suppressed), EMPTY_BUDGET],
    );
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn unwrap_in_lib_fixture() {
    let positive = include_str!("fixtures/unwrap_in_lib_positive.rs");
    let found = diags_for(
        "unwrap-in-lib",
        vec![("crates/nn/src/fixture.rs", positive), EMPTY_BUDGET],
    );
    assert_eq!(found.len(), 2, "unwrap + expect: {found:?}");

    // A budget entry covering both sites silences the lint...
    let found = diags_for(
        "unwrap-in-lib",
        vec![
            ("crates/nn/src/fixture.rs", positive),
            (
                "crates/analyze/unwrap_budget.txt",
                "crates/nn/src/fixture.rs 2\n",
            ),
        ],
    );
    assert!(found.is_empty(), "{found:?}");

    // ...and an over-generous entry is itself stale and fires.
    let found = diags_for(
        "unwrap-in-lib",
        vec![
            ("crates/nn/src/fixture.rs", positive),
            (
                "crates/analyze/unwrap_budget.txt",
                "crates/nn/src/fixture.rs 5\n",
            ),
        ],
    );
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].message.contains("stale"));

    let suppressed = include_str!("fixtures/unwrap_in_lib_suppressed.rs");
    let found = diags_for(
        "unwrap-in-lib",
        vec![("crates/nn/src/fixture.rs", suppressed), EMPTY_BUDGET],
    );
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn wire_const_drift_fixture() {
    let readme = include_str!("fixtures/wire_drift_readme.md");
    let positive = include_str!("fixtures/wire_drift_positive.rs");
    let found = diags_for(
        "wire-const-drift",
        vec![
            ("crates/edge/src/wire.rs", positive),
            ("crates/edge/README.md", readme),
            EMPTY_BUDGET,
        ],
    );
    // WIRE_VERSION drifted, V2_HEADER_LEN drifted, and CONTROL_FRAME_LEN
    // (= V2_HEADER_LEN + CONTROL_PAYLOAD_LEN) drifted with it.
    assert_eq!(found.len(), 3, "{found:?}");
    assert!(found.iter().any(|d| d.message.contains("WIRE_VERSION")));
    assert!(found.iter().any(|d| d.message.contains("V2_HEADER_LEN")));
    assert!(found
        .iter()
        .any(|d| d.message.contains("CONTROL_FRAME_LEN")));

    let suppressed = include_str!("fixtures/wire_drift_suppressed.rs");
    let found = diags_for(
        "wire-const-drift",
        vec![
            ("crates/edge/src/wire.rs", suppressed),
            ("crates/edge/README.md", readme),
            EMPTY_BUDGET,
        ],
    );
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn builder_drift_fixture() {
    let positive = include_str!("fixtures/builder_drift_positive.rs");
    let found = diags_for(
        "builder-drift",
        vec![("crates/edge/src/fixture.rs", positive), EMPTY_BUDGET],
    );
    assert_eq!(found.len(), 2, "with_codec + with_transport: {found:?}");
    assert!(found[0].message.contains("with_codec"));
    assert!(found[1].message.contains("with_transport"));

    // The same definitions in the canonical options module are sanctioned.
    let found = diags_for(
        "builder-drift",
        vec![("crates/edge/src/options.rs", positive), EMPTY_BUDGET],
    );
    assert!(found.is_empty(), "{found:?}");

    let suppressed = include_str!("fixtures/builder_drift_suppressed.rs");
    let found = diags_for(
        "builder-drift",
        vec![("crates/edge/src/fixture.rs", suppressed), EMPTY_BUDGET],
    );
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn error_variant_untested_fixture() {
    let positive = include_str!("fixtures/error_untested_positive.rs");
    let found = diags_for(
        "error-variant-untested",
        vec![("crates/edge/src/error.rs", positive), EMPTY_BUDGET],
    );
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found.iter().any(|d| d.message.contains("BadInput")));
    assert!(found.iter().any(|d| d.message.contains("DeviceLost")));

    let suppressed = include_str!("fixtures/error_untested_suppressed.rs");
    let found = diags_for(
        "error-variant-untested",
        vec![("crates/edge/src/error.rs", suppressed), EMPTY_BUDGET],
    );
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn todo_without_issue_fixture() {
    let positive = include_str!("fixtures/todo_positive.rs");
    let found = diags_for(
        "todo-without-issue",
        vec![("crates/edge/src/fixture.rs", positive), EMPTY_BUDGET],
    );
    assert_eq!(found.len(), 2, "TODO + FIXME: {found:?}");

    let suppressed = include_str!("fixtures/todo_suppressed.rs");
    let found = diags_for(
        "todo-without-issue",
        vec![("crates/edge/src/fixture.rs", suppressed), EMPTY_BUDGET],
    );
    assert!(found.is_empty(), "{found:?}");
}

/// The acceptance criterion: the real workspace is lint-clean. This is the
/// same check the CI `static-analysis` job runs via the binary; wiring it
/// into `cargo test` means a violation cannot land even where only tier-1
/// tests run.
#[test]
fn real_workspace_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("crates/analyze has a workspace root two levels up");
    let diags = edvit_analyze::analyze_root(root).expect("workspace loads");
    assert!(
        diags.is_empty(),
        "workspace has lint violations:\n{}",
        diags
            .iter()
            .map(Diagnostic::render_human)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
