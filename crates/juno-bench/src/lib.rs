//! The support of the `figures` binary.
//!
//! `src/bin/figures.rs` reproduces every figure and table of the paper's
//! evaluation (`figures --figure fig02` … `fig15`, or `--all`), one function
//! per figure over the helpers in this crate:
//!
//! * [`analysis`] — the sparsity / locality / threshold studies behind
//!   Figures 3(b), 4, 5, 6 and 7, recomputed on a built `JunoIndex`.
//! * [`setup`] — dataset, index and IVFPQ-baseline construction at a
//!   configurable scale (`JUNO_BENCH_POINTS` / `JUNO_BENCH_QUERIES`
//!   environment variables).
//! * [`sweep`] — running an [`AnnIndex`](juno_common::AnnIndex) over a query
//!   batch and reporting recall, simulated latency and stage times, and QPS.
//! * [`report`] — table rows as JSON lines, the format of
//!   `results/figures.jsonl`.
//!
//! Wall-clock performance is measured by the ledger (`src/bin/ledger/`, a
//! package of its own), not by this library.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod report;
pub mod setup;
pub mod sweep;
