//! `workloads` — data generators and Map/Reduce applications used by the
//! paper's evaluation.
//!
//! * [`lastfm`] — a deterministic generator of Last.fm-shaped key/value
//!   datasets (the paper's §4.3 input: "key-value pairs extracted from the
//!   datasets made public by Last.fm"); substitution documented in
//!   DESIGN.md.
//! * [`datajoin`] — the `data join` application "included in the
//!   contributions delivered with Yahoo!'s Hadoop release" (§4.3): an
//!   inner-join producing all combinations of values per shared key,
//!   plus an in-memory reference oracle for verification and the
//!   calibrated ghost profile used by the Figure 6 cluster-scale runs.
//! * [`wordcount`] — the classic Hadoop example, used by the runnable
//!   examples and extra tests.

// The source disciplines as lints: see EXPERIMENTS.md, "Static analysis".
#![warn(
    unreachable_pub,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::iter_over_hash_type,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

// Each module is the namespace of its own `user_fns` and helpers.
pub mod datajoin;
pub mod lastfm;
pub mod wordcount;
