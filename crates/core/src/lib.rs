//! # ams-core — the Adaptive Master-Slave regularized model
//!
//! The paper's primary contribution (§III): a GAT-based master model
//! over the company correlation graph that *generates* a per-company
//! linear-regression slave model, regularized by supervised LR
//! generation (Eq. 8) and model assembly (Eq. 10), trained in two
//! phases per §III-F.
//!
//! * [`GatLayer`]/[`GatHead`] — multi-head graph attention parameters
//!   (Eqs. 2–3);
//! * [`forward`](mod@forward) — the master→slave forward pass,
//!   written once against the [`ForwardOps`] trait and run by the
//!   autodiff tape ([`TapeOps`]) and by value-only workspace execution
//!   in `f64` or `f32` ([`exec::WsOps`], the serving engine);
//! * [`AmsModel`]/[`AmsConfig`] — the full master-slave model
//!   (Γ_master, Eq. 11) with [`AmsModel::slave_weights`] exposing the
//!   per-company weights behind the Figure 8 interpretability plots.

pub mod ams;
pub mod checkpoint;
pub mod exec;
pub mod forward;
pub mod gat;

pub use ams::{slave_selection, AmsConfig, AmsModel, LinearLayer, ModelSnapshot, QuarterBatch};
pub use checkpoint::{CheckpointConfig, FitHalted, TrainCheckpoint};
pub use exec::{ExecError, Plane, WsOps};
pub use forward::{forward, ForwardOps, Outputs, TapeOps, Weights};
pub use gat::{GatHead, GatLayer};
