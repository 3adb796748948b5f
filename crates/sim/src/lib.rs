//! # svq-sim — deterministic simulation testing for the SVQ-ACT stack
//!
//! The executor ([`svq-exec`]), service layer ([`svq-serve`]) and spill
//! path ([`svq-storage`]) are concurrent systems whose worst bugs — lost
//! wakeups, gauge underflows, drain wedges — hide in interleavings a unit
//! test hits once in ten thousand runs, if ever. This crate makes the
//! interleaving a *parameter*: a seeded virtual-time scheduler
//! ([`world::run_world`]) runs the real production code (real mutexes,
//! real condvars, real channels — whose block/wake points consult
//! `parking_lot::sim` for a scheduler installed on the thread) with
//! exactly one task running at a time and the next task chosen by a
//! seeded RNG, so
//!
//! * a failing run is named by `(scenario, seed, size, faults)` and
//!   **replays byte-identically**, every time, on every machine;
//! * timeouts and pacing run on **virtual time** — thousands of schedules,
//!   each simulating seconds of reporter ticks and client stalls, execute
//!   in wall-clock seconds;
//! * a wakeup that can never arrive is a **detected deadlock** with every
//!   blocked task's position, not a hung CI job.
//!
//! [`scenario`] wires the real stack into the world: each scenario builds
//! sessions/servers/sinks, injects faults from a [`scenario::FaultPlan`]
//! (connection drops mid-frame, stalled clients, worker panics,
//! crash-restart over a half-written spill manifest), and asserts the
//! standing invariants — per-session delivery order, byte-identical
//! results vs an unfaulted reference, gauges never negative, drain always
//! terminates. [`runner`] sweeps seeds, shrinks failures, and checks the
//! committed seed corpus.

#![forbid(unsafe_code)]

pub mod rng;
pub mod runner;
pub mod scenario;
pub mod world;

pub use rng::SimRng;
pub use runner::{
    persist_trace, run_corpus_line, run_one, shrink, sweep, sweep_persisting, RunSpec,
    SweepFailure, SweepReport, CORPUS,
};
pub use scenario::{find, FaultPlan, Scenario, ScenarioCtx, SCENARIOS};
pub use world::{run_world, Failure, FailureKind, ScheduleOutcome, WorldConfig};
