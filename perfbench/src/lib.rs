//! The repository benchmark: three workloads against the engine's
//! public API, their answer checks, and a traced run that times each
//! layer from outside. `NOTES.md` explains the choices.

pub mod check;
pub mod fixture;
pub mod host;
pub mod layers;
pub mod mix;
pub mod run;
pub mod stats;
