//! # ecofl-compat
//!
//! In-repo replacements for every external crate the workspace used to
//! pull from crates.io, so that a clean checkout builds and tests with
//! `--offline` on an air-gapped machine — the same constraint the
//! target deployment (smart-home edge clusters) imposes.
//!
//! | module | replaces | scope |
//! |---|---|---|
//! | [`json`] | serde + serde_json | JSON value, parser, writer, `ToJson`/`FromJson` |
//! | [`serde`] | serde derive front-end | `#[derive(Serialize, Deserialize)]` |
//! | [`sync`] | parking_lot + crossbeam-channel | `Mutex`, MPMC channels |
//! | [`bytes`] | bytes | `Bytes` / `BytesMut` wire buffers |
//! | [`check`] | proptest | seeded property harness with shrinking |
//!
//! Each module replicates only the API surface this workspace uses;
//! see `DESIGN.md` ("The compat layer") for what is intentionally out
//! of scope.

pub mod bytes;
pub mod check;
pub mod json;
pub mod sync;

/// Serde-compatible front-end: `use ecofl_compat::serde::{Serialize,
/// Deserialize};` brings both the derive macros and the corresponding
/// traits into scope, exactly like `use serde::{Serialize, Deserialize}`
/// used to (derive macros and traits live in separate namespaces).
pub mod serde {
    pub use crate::json::{FromJson as Deserialize, ToJson as Serialize};
    pub use ecofl_compat_derive::{Deserialize, Serialize};
}
