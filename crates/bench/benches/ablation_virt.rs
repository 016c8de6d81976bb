//! Ablation: the virtualization overhead model on/off.
//!
//! Separates the isolation *benefit* (separate kernel instances) from
//! the virtualization *cost* (exits, nested paging) by running the same
//! per-core VM sweep with (a) the KVM overhead profile and (b) a "free
//! hypervisor" whose profile is zeroed after environment construction.

use ksa_bench::microbench;
use ksa_core::experiments::{default_corpus, Scale};
use ksa_envsim::{EnvKind, EnvSpec, Machine};
use ksa_kernel::instance::VirtProfile;
use ksa_varbench::{run_hooked, RunConfig, RunResult};

fn measure(free_hypervisor: bool, corpus: &ksa_kernel::prog::Corpus) -> RunResult {
    let machine = Machine {
        cores: 8,
        mem_mib: 4096,
    };
    run_hooked(
        &RunConfig::new(EnvSpec::new(machine, EnvKind::Vm(8)), 6, 9),
        corpus,
        |engine| {
            if free_hypervisor {
                for inst in &mut engine.world_mut().instances {
                    inst.virt = VirtProfile::native();
                }
            }
        },
    )
    .expect("trial failed")
}

fn main() {
    let corpus = default_corpus(Scale::Tiny).corpus;
    let group = microbench::group("ablation_virt").sample_size(10);
    group.bench("kvm_profile", || measure(false, &corpus));
    group.bench("free_hypervisor", || measure(true, &corpus));

    // Shape report: the isolation benefit survives, the bounded cost
    // disappears.
    let mut kvm = measure(false, &corpus);
    let mut free = measure(true, &corpus);
    let med = |r: &mut RunResult| {
        let mut v = r.per_site(None, |s| s.median());
        v.sort_unstable();
        v[v.len() / 2]
    };
    eprintln!(
        "median-of-site-medians: kvm={}ns free-hypervisor={}ns (the gap is the bounded virtualization cost)",
        med(&mut kvm),
        med(&mut free)
    );
}
