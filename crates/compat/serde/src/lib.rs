//! Offline stand-in for the real `serde` crate.
//!
//! The build environment of this workspace cannot reach crates.io, so this
//! crate provides just the surface the workspace uses: the `Serialize` /
//! `Deserialize` trait names and the matching no-op derive macros.  No actual
//! serialization is implemented for those traits; replacing the path
//! dependency with the real `serde = { version = "1", features = ["derive"] }`
//! requires no source changes for them.
//!
//! The [`codec`] module is an *additive* extension that the trained-model
//! save/load path uses: a concrete, bit-exact, checksummed binary codec (it
//! does not exist in the real `serde`; a workspace switching to registry
//! crates would keep this module or port the model persistence to a serde
//! format crate).

#![forbid(unsafe_code)]

pub mod codec;

pub use serde_derive::{Deserialize, Serialize};

/// Marker trait mirroring `serde::Serialize` (no methods in the offline stand-in).
pub trait Serialize {}

/// Marker trait mirroring `serde::Deserialize` (no methods in the offline stand-in).
pub trait Deserialize<'de> {}
