//! # ksa-syzgen — coverage-guided system-call program generation
//!
//! The paper builds its measurement workload from a Syzkaller corpus:
//! programs (sequences of system calls with concrete arguments) kept only
//! when they reach kernel basic blocks no earlier program reached. This
//! crate reproduces that pipeline against the simulated kernel:
//!
//! 1. **Typed descriptions** ([`argspec`]) say, per syscall, what each
//!    argument means — flags, lengths, path selectors — and which
//!    arguments are *resources* (fds, mappings, IPC ids) that must come
//!    from earlier calls in the same program.
//! 2. **Generation and mutation** ([`gen`], [`mutate`]) build candidate
//!    programs: fresh random programs, argument tweaks, call
//!    insertions/removals and corpus splices — the standard fuzzer moves.
//! 3. **A sandbox** ([`sandbox`]) executes candidates on a one-core
//!    kernel instance, collecting the basic-block coverage the handlers
//!    emit.
//! 4. **The corpus loop** ([`corpus`]) keeps a candidate only if it
//!    covers new blocks, then *minimizes* it — removing calls that are
//!    not needed for the new coverage — exactly Syzkaller's triage.
//! 5. **The fault phase** ([`faultgen`]) then extends the corpus the way
//!    Syzkaller's FAULT_INJECTION mode does: it enumerates each
//!    program's fault points (allocations, device I/O, lock timeouts),
//!    fails them one occurrence at a time under a deterministic
//!    [`ksa_desim::FaultPlan`], and keeps the `(program, plan)` pairs
//!    that reach otherwise-unreachable `err.*` blocks.
//!
//! The output ([`GeneratedCorpus`]) is regenerated from its seed by each
//! experiment, which then shares that one corpus across environments, as
//! the paper shares one corpus across native/KVM/Docker.

pub mod argspec;
pub mod corpus;
pub mod faultgen;
pub mod gen;
pub mod mutate;
pub mod sandbox;

pub use argspec::{arg_spec, produces, ArgSpec, Resource};
pub use corpus::{generate, GenConfig, GenStats, GeneratedCorpus};
pub use faultgen::{fault_phase, FaultCorpus, FaultEntry, FaultGenConfig, FaultGenStats};
pub use gen::ProgramGenerator;
pub use sandbox::Sandbox;
