//! Shared helpers for the cross-crate integration test suite.
//!
//! The actual integration tests live under `tests/tests/`. This small library
//! crate exists so the workspace member has a compilation unit and so helpers
//! (document fixtures from the paper's Figures 1 and 2, common engine
//! configurations, the Stage-1 reference in row form, the nested-loop
//! conjunctive-query reference) can be shared between integration test
//! binaries. Its own unit tests (`database`, `plan`) pin the reference and
//! the compiled plan to spelled-out answers on small named relations.

#![forbid(unsafe_code)]

#[cfg(test)]
mod database;
pub mod fixtures;
#[cfg(test)]
mod plan;
pub mod reference;
pub mod stage1;

pub use fixtures::*;
