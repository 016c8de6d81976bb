//! Quickstart: generate a coverage-guided syscall corpus, measure it on
//! a shared kernel versus per-core VMs, and print the latency-bucket
//! comparison.
//!
//! Run with: `cargo run --release --example quickstart`

use ksa_core::envsim::{EnvKind, EnvSpec, Machine};
use ksa_core::stats::BucketTable;
use ksa_core::syzgen::{generate, GenConfig};
use ksa_core::varbench::{run, RunConfig};

fn main() {
    // 1. Build a corpus: programs are kept only when they reach kernel
    //    basic blocks no earlier program reached (Syzkaller-style).
    let generated = generate(GenConfig {
        seed: 7,
        max_programs: 40,
        stall_limit: 250,
        mutate_pct: 70,
        minimize: true,
    });
    println!(
        "corpus: {} programs, {} calls, {} kernel blocks covered",
        generated.corpus.len(),
        generated.corpus.total_calls(),
        generated.stats.blocks
    );

    // 2. Deploy it on a 16-core machine, once under one shared kernel
    //    and once as sixteen single-core VMs.
    let machine = Machine {
        cores: 16,
        mem_mib: 8 * 1024,
    };
    let mut table = BucketTable::new("p99 syscall runtimes (cumulative % below each bound)");
    for kind in [EnvKind::Native, EnvKind::Vm(16)] {
        let mut result = run(
            &RunConfig::new(EnvSpec::new(machine, kind), 10, 42),
            &generated.corpus,
        )
        .expect("trial failed");
        let p99s = result.per_site(None, |s| s.p99());
        table.push_values(kind.label(), &p99s);
    }

    // 3. The paper's system model in one table: the shared kernel wins
    //    at small time scales (no virtualization overhead) but pays rare,
    //    large interference penalties; the VMs bound the tail.
    println!("\n{}", table.render());
}
