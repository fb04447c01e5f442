//! Injectable time sources for the FL runtime: a re-export of
//! [`dinar_metrics::clock`], the workspace's one definition (see there for
//! the determinism rationale).
//!
//! The threaded transport also budgets its **round deadlines** on this
//! clock (see [`crate::deadline`]): under a [`ManualClock`], whose
//! `elapsed()` never advances on its own, a deadline never expires — which
//! is exactly what replay tests need, because every client is then
//! accounted for through explicit messages or liveness checks rather than
//! timing.

pub use dinar_metrics::clock::{Clock, ManualClock, WallClock};
