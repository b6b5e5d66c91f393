//! Shared helpers for the cross-crate integration test suite.
//!
//! The actual integration tests live under `tests/tests/`. This small library
//! crate exists so the workspace member has a compilation unit and so helpers
//! (document fixtures from the paper's Figures 1 and 2, common engine
//! configurations, the Stage-1 reference in row form) can be shared between
//! integration test binaries.

#![forbid(unsafe_code)]

pub mod fixtures;
pub mod stage1;

pub use fixtures::*;
