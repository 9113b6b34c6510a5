//! # sfs-metrics — measurement utilities for the SFS reproduction
//!
//! Small, dependency-free building blocks shared by the simulator, the
//! runtime and the experiment harnesses:
//!
//! * [`series::TimeSeries`] — ordered samples with interpolation
//!   and scaling (the cumulative-iterations curves of Figs. 4/5 are
//!   `TimeSeries`).
//! * [`stats`] — mean and percentile summaries
//!   (response times in Fig. 6(c), context-switch latencies in Fig. 7).
//! * [`fairness`] — Jain's index, proportional-share error against the
//!   capped (GMS) ideal, and starvation-gap detection (Example 1).
//! * [`table::Table`] — aligned text / CSV tables (Table 1).
//! * [`chart`] — ASCII line charts for rendering each figure.

pub mod chart;
pub mod fairness;
pub mod series;
pub mod stats;
pub mod table;

pub use chart::{render, ChartConfig};
pub use fairness::{ideal_shares, jain_index, proportional_error, starvation};
pub use series::TimeSeries;
pub use stats::Summary;
pub use table::Table;
