//! ActFort — umbrella crate re-exporting the whole reproduction workspace.
//!
//! This workspace reproduces the DSN 2021 paper *Towards Fortifying the
//! Multi-Factor-Based Online Account Ecosystem*: the Chain Reaction
//! Attack, the ActFort dependency-analysis framework, the simulated
//! substrates they run on, and every experiment in the paper's
//! evaluation. See `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! The sub-crates are re-exported under short names:
//!
//! - [`core`] — Transformation Dependency Graph, the forward/backward
//!   query facade `Analysis`, countermeasures ([`actfort_core`]).
//! - [`ecosystem`] — executable online-service simulators and the
//!   curated/synthetic service populations ([`actfort_ecosystem`]).
//! - [`gsm`] — the GSM/SMS substrate: PDUs, A5/1, sniffing, MitM
//!   ([`actfort_gsm`]).
//! - [`authsvc`] — OTP, email, TOTP, U2F and push authentication
//!   services ([`actfort_authsvc`]).
//! - [`attack`] — the Chain Reaction Attack engine and case studies
//!   ([`actfort_attack`]).
//! - [`serve`] — the concurrent HTTP query service over the unified
//!   query facade ([`actfort_serve`]).

pub use actfort_attack as attack;
pub use actfort_authsvc as authsvc;
pub use actfort_core as core;
pub use actfort_ecosystem as ecosystem;
pub use actfort_gsm as gsm;
pub use actfort_serve as serve;
