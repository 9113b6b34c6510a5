//! The repository benchmark: five pinned workloads, their end-to-end
//! metrics, and a traced run at the `Scheduler` boundary. See
//! `README.md` beside `Cargo.toml` for what is measured and why.

pub mod baselines;
pub mod churn;
pub mod cli;
pub mod compare;
pub mod host;
pub mod layers;
pub mod metrics;
pub mod results;
pub mod rng;
pub mod rt_ring;
pub mod runner;
pub mod serve;
pub mod simrun;
pub mod spans;
pub mod stats;
pub mod steady;
pub mod timed;
pub mod workload;
