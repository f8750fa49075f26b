//! # colt-perfbench
//!
//! End-to-end and per-layer benchmark of the COLT reproduction. One
//! run drives COLT over one workload (`stable`, `shifting` or
//! `ingest`) from the benchmark's own loop over the public calls
//! `Eqo::optimize` → `Executor::execute` → `ColtTuner::on_query` (plus
//! `dml::insert_rows` and `Database::auto_analyze`), checks every
//! output, and prints its metrics. See `README.md` beside this crate.

#![forbid(unsafe_code)]

pub mod bench;
pub mod host;
pub mod metrics;
pub mod pass;
pub mod stats;
pub mod trace;
