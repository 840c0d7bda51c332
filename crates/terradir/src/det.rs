//! Deterministic hash containers — re-exported from `terradir-namespace`.
//!
//! The canonical module lives at the bottom of the crate graph
//! ([`terradir_namespace::det`]) so the namespace tree itself can use the
//! fixed-key hasher; this alias keeps the original `terradir::det` path
//! every protocol-layer caller (and the determinism lint's allowlist)
//! refers to.

pub use terradir_namespace::det::{DetBuildHasher, DetHashMap, DetHashSet};
