//! # lego-bench — the experiment harness
//!
//! Reproduces every table and figure of the paper's evaluation (§V):
//! the [`workloads`] drivers simulate each benchmark on the `gpu-sim`
//! A100 model using the actual LEGO layouts, and the `table*`/`fig*`
//! binaries print the same rows and series the paper reports — plus a
//! machine-readable `BENCH_<name>.json` ([`emit`]) and an opt-in
//! `--tuned` mode ([`tuned`]) that reports `lego-tune` naive-vs-tuned
//! estimates.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod emit;
pub mod tuned;
pub mod workloads;
