//! Ablation: the fault-injection corpus phase on/off.
//!
//! A no-fault replay of the corpus can only reach success-path blocks —
//! `err.*` coverage is exactly zero. The fault phase (Syzkaller's
//! FAULT_INJECTION analogue) must therefore *strictly* extend coverage,
//! and every block it adds on the error side is unreachable without
//! injection. This bench measures both and asserts the separation; it
//! also drives one fault-injected varbench trial through `run_hooked`
//! to show plans compose with the measurement harness.

use ksa_bench::microbench;
use ksa_desim::FaultPlan;
use ksa_envsim::{EnvKind, EnvSpec, Machine};
use ksa_kernel::coverage::CoverageSet;
use ksa_syzgen::{fault_phase, generate, FaultGenConfig, GenConfig, Sandbox};
use ksa_varbench::{run_hooked, RunConfig};

fn gen_cfg() -> GenConfig {
    GenConfig {
        seed: 11,
        max_programs: 20,
        stall_limit: 150,
        mutate_pct: 70,
        minimize: false,
    }
}

fn main() {
    let base = generate(gen_cfg()).corpus;

    let group = microbench::group("ablation_faults").sample_size(5);
    group.bench("no_fault_replay", || {
        let mut sb = Sandbox::new(11);
        let mut cover = CoverageSet::new();
        for p in &base.programs {
            cover.merge(&sb.run_fresh(p));
        }
        cover.len()
    });
    group.bench("fault_phase", || {
        fault_phase(&base, FaultGenConfig::default()).stats.accepted
    });

    // The coverage claim, checked once: the no-fault baseline reaches
    // zero error blocks; injection strictly exceeds it.
    let mut sb = Sandbox::new(11);
    let mut baseline = CoverageSet::new();
    for p in &base.programs {
        baseline.merge(&sb.run_fresh(p));
    }
    assert_eq!(
        baseline.error_blocks(),
        0,
        "a fault-free replay must not reach err.* blocks"
    );
    let out = fault_phase(&base, FaultGenConfig::default());
    assert!(
        out.stats.error_blocks > 0,
        "injection must reach error blocks"
    );
    assert!(
        out.stats.new_blocks > 0,
        "fault-enabled coverage must strictly exceed the baseline"
    );
    eprintln!(
        "coverage: no-fault={} blocks (0 err) | with faults=+{} blocks \
         ({} err) from {} accepted plans over {} probed sites",
        baseline.len(),
        out.stats.new_blocks,
        out.stats.error_blocks,
        out.stats.accepted,
        out.stats.sites_probed,
    );

    // The networking subsystem obeys the same attribution law: natural
    // socket errors (EBADF, EAGAIN on empty buffers, refused connects)
    // are plain blocks, and `err.net.*` blocks are reachable only under
    // injection. Checked against a net-heavy corpus so every socket
    // fault point is actually on the replayed path.
    use ksa_kernel::coverage::block_name;
    let net_base = ksa_core::experiments::net_corpus(ksa_core::experiments::Scale::Tiny);
    let mut sb = Sandbox::new(11);
    let mut net_baseline = CoverageSet::new();
    for p in &net_base.programs {
        net_baseline.merge(&sb.run_fresh(p));
    }
    let net_err = |c: &CoverageSet| {
        c.iter()
            .filter(|&id| block_name(id).starts_with("err.net."))
            .count()
    };
    assert_eq!(
        net_err(&net_baseline),
        0,
        "a fault-free net replay must not reach err.net.* blocks"
    );
    let net_out = fault_phase(&net_base, FaultGenConfig::default());
    let mut injected = CoverageSet::new();
    for e in &net_out.entries {
        sb.set_fault_plan(e.plan.clone());
        injected.merge(&sb.run_fresh(&net_base.programs[e.prog]));
    }
    assert!(
        net_err(&injected) > 0,
        "injection must reach err.net.* blocks on a net-heavy corpus"
    );
    eprintln!(
        "net attribution: baseline err.net.*=0 | injected err.net.*={} \
         from {} accepted plans",
        net_err(&injected),
        net_out.stats.accepted,
    );

    // One fault-injected measurement trial: install an accepted plan on
    // every kernel instance and run the corpus under the barrier harness.
    let plan = out
        .entries
        .first()
        .map(|e| e.plan.clone())
        .unwrap_or_else(FaultPlan::none);
    let res = run_hooked(
        &RunConfig::new(
            EnvSpec::new(
                Machine {
                    cores: 4,
                    mem_mib: 2048,
                },
                EnvKind::Native,
            ),
            4,
            13,
        ),
        &base,
        |engine| engine.set_fault_plan(plan),
    )
    .expect("fault-injected trial failed");
    eprintln!(
        "fault-injected varbench trial: {} sites, sim time {}ns",
        res.sites.len(),
        res.sim_ns
    );
}
