//! Deterministic fault-injection plans for the ED-ViT streaming scheduler.
//!
//! `edvit-chaos` is the *policy* half of fault injection. The scheduler
//! (`edvit-sched`) exposes three purely mechanical injection channels — a
//! [`FaultScript`](edvit_sched::FaultScript) of per-frame wire mutations,
//! scripted crashes, and scripted joins — and stays entirely free of RNG
//! state. This crate layers a declarative vocabulary on top: a [`FaultPlan`]
//! names *what* goes wrong (a corrupted frame, a lost heartbeat, a crash that
//! rejoins, a flaky link) and a single seed fixes every remaining choice
//! through a ChaCha8 stream.
//!
//! The result: one `(plan, seed, deployment)` triple always compiles to the
//! bit-identical [`CompiledChaos`], and — because the scheduler runs on
//! virtual [`SimClock`](edvit_sched::SimClock) time — an entire chaos drill
//! replays machine-independently. A drill that found a bug is a regression
//! test, not an anecdote.
//!
//! Compilation validates the plan against the concrete deployment (devices
//! exist, frame faults target devices that actually ship data frames, rounds
//! lie inside the stream), so a plan can never silently inject nothing.

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod error;
mod plan;

pub use error::ChaosError;
pub use plan::{CompiledChaos, FaultKind, FaultPlan};

/// Convenience alias for chaos results.
pub type Result<T> = std::result::Result<T, ChaosError>;
