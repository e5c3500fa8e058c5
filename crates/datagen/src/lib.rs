//! # cla-datagen — fixtures and deterministic synthetic data
//!
//! * [`company`] — the paper's running example, byte-for-byte: the
//!   Figure 1 ER schema (DEPARTMENT, EMPLOYEE, PROJECT, DEPENDENT with
//!   WORKS_FOR 1:N, CONTROLS 1:N, WORKS_ON N:M, DEPENDENTS 1:N) mapped to
//!   the Figure 2 relational schema and instance (d1–d3, p1–p3, e1–e4,
//!   w_f1–w_f4, t1–t2), with the alias map used to render connections in
//!   the paper's `d1(XML) – e1(Smith)` notation;
//! * [`SyntheticConfig`]/[`generate_synthetic`] — seeded, scalable
//!   company-shaped databases with planted keywords, for the scaling
//!   benchmarks (the paper itself has no performance evaluation; see
//!   DESIGN.md §1);
//! * [`WorkloadConfig`]/[`generate_workload`] — keyword-query workloads;
//! * [`Zipf`] — a small Zipf sampler for skewed fan-outs.
//!
//! All generators take explicit seeds and are deterministic.

#![forbid(unsafe_code)]

mod company;
mod synthetic;
mod text;
mod workload;
mod zipf;

pub use company::{company, company_er_schema, CompanyDb};
pub use synthetic::{generate_synthetic, SyntheticConfig, SyntheticDb};
pub use text::TextGenerator;
pub use workload::{generate_workload, WorkloadConfig, DEFAULT_KEYWORD_POOL};
pub use zipf::Zipf;
