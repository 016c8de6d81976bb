//! # ksa-varbench — the barrier-synchronized measurement harness
//!
//! Reproduces the paper's varbench apparatus (Section 3.2): the same
//! corpus of system-call programs is deployed on **every core** of the
//! machine, and a global barrier synchronizes the start of every program
//! across cores — including across VM boundaries, as the original does
//! with MPI over a virtual network. Synchronized starts maximize
//! concurrent pressure on shared kernel structures, which is what makes
//! latent variability measurable.
//!
//! Each worker records one latency sample per `(program, call index)`
//! site per iteration; [`run()`] aggregates them into per-site
//! distributions tagged with the syscall and its categories, and
//! [`run_campaign`] runs many such trials on the deterministic pool.

pub mod contention;
pub mod run;
pub mod traceout;
pub mod worker;

pub use contention::{ContentionProfile, LockContention};
pub use run::{
    harvest, run, run_campaign, run_configs_jobs, run_hooked, RunConfig, RunError, RunResult,
    SiteResult, TrialOutcome,
};
pub use traceout::{attribution_json, chrome_trace_json};
pub use worker::CorpusWorker;
