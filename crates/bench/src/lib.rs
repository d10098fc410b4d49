//! # rhtm-bench
//!
//! The harness that regenerates every table and figure of the paper's
//! evaluation, plus the capacity/clock/fallback/retry ablations that probe
//! the design space around the paper's choices.  (The repo's *measuring
//! instrument* — bounded end-to-end metrics, per-layer attribution, the
//! regression gate — is the separate `benchmark/` package.)
//!
//! Three binaries: `figures <subcommand>` (one subcommand per row of
//! [`EXPERIMENTS`]; the workspace `README.md` has the
//! experiment-by-experiment index), `bench_suite` (every registered
//! scenario as one JSON document, [`suite`]) and `bench_kv` (the open-loop
//! sharded-KV sweep).  Experiments run at two scales:
//!
//! * **Paper scale** ([`Scale::Paper`], the default) — the sizes the paper
//!   uses (100 K node tree, 1 K element list, 128 K entry array, threads
//!   1..20), e.g. `cargo run -p rhtm-bench --release --bin figures -- fig1_rbtree`.
//! * **Quick scale** ([`Scale::Quick`]) — reduced sizes for CI:
//!   `figures fig1_rbtree quick`.
//!
//! Each experiment is one function in [`figures`] over a series of
//! [`rhtm_workloads::TmSpec`] runtime points, returning the raw
//! [`rhtm_workloads::BenchResult`] rows, so the binary and the tests share
//! one definition; every binary accepts the shared `spec=` CLI axis
//! ([`cli`]) to replace the paper-default series — see
//! `docs/BENCHMARKS.md`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cli;
pub mod figures;
pub mod params;
pub mod suite;

pub use figures::*;
pub use params::{FigureParams, Scale};
pub use suite::{run_suite, run_suite_to_json, SuiteParams};
