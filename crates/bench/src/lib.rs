//! # dinar-bench
//!
//! The experiment harness that regenerates every committed artifact: the
//! tables and figures of the paper's evaluation (§5), and the kernel, plane
//! and audit artifacts behind the perf and privacy claims. One binary,
//! `paper`, runs any of them (`table1` … `table3`, `fig1` … `fig11`, the two
//! extensions, `step_profile`, `BENCH_*`, `AUDIT_privacy`,
//! `TELEMETRY_fl_round`). This library holds the shared machinery:
//!
//! * [`harness`] — dataset → model mapping, FL-system assembly per defense,
//!   end-to-end runs producing (attack AUC global, attack AUC local, model
//!   utility, cost) tuples,
//! * [`paper`] — the artifact registry: grid declarations, the one runner
//!   that prepares, trains, evaluates and renders them, the procedures
//!   for the artifacts that are not grids, and the one path that prints,
//!   writes and records every artifact,
//! * [`report`] — terminal tables and JSON artifacts
//!   (written under `bench-results/`),
//! * [`tensor_suite`] — the kernel micro-benchmarks of `BENCH_tensor`,
//! * [`timing`] — the std-only micro-benchmark harness.
//!
//! Every experiment runs the paper's protocol: the dataset is split 50%
//! attacker / 40% train / 10% test (§5.1); the train pool is partitioned
//! across clients; the shadow-model MIA is fitted on the attacker split and
//! evaluated against both the global model and the per-client uploads.

#![warn(missing_docs)]

pub mod harness;
pub mod paper;
pub mod report;
pub mod tensor_suite;
pub mod timing;
