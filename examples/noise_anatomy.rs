//! Noise anatomy: name the kernel locks behind the variability.
//!
//! Runs the same corpus on one shared kernel and on per-core VMs, then
//! prints each run's lock-contention profile — the structures the paper
//! blames (journal, dcache, runqueues, zone/LRU) show up by name, and
//! the per-core-VM column shows the contention evaporating.
//!
//! Run with: `cargo run --release --example noise_anatomy`

use ksa_core::envsim::{EnvKind, EnvSpec, Machine};
use ksa_core::experiments::{default_corpus, Scale};
use ksa_core::varbench::{run, RunConfig};

fn main() {
    let corpus = default_corpus(Scale::Tiny);
    let machine = Machine {
        cores: 8,
        mem_mib: 4 * 1024,
    };
    for kind in [EnvKind::Native, EnvKind::Vm(8)] {
        let res = run(
            &RunConfig::new(EnvSpec::new(machine, kind), 8, 77),
            &corpus.corpus,
        )
        .expect("trial failed");
        println!("=== {} ===", kind.label());
        println!("{}", res.contention.render());
    }
    println!(
        "shared-kernel hotspots (journal, dcache, zone, runqueues) lose \
         their waiters once each core gets its own kernel"
    );
}
