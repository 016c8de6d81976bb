//! Surface sweep: the paper's central experiment in miniature.
//!
//! Varies the kernel surface area (1 → N VMs over the same hardware and
//! the same workload) and reports how each syscall category's tail
//! responds — reproducing Figure 2's trends plus the correlation
//! analysis.
//!
//! Run with: `cargo run --release --example surface_sweep`

use ksa_core::analysis::{render_trends, surface_trends};
use ksa_core::envsim::{EnvKind, EnvSpec, Machine};
use ksa_core::experiments::{default_corpus, fig2, Scale};
use ksa_core::KernelSurfaceArea;

fn main() {
    let scale = Scale::Tiny;
    let corpus = default_corpus(scale);
    println!(
        "corpus: {} programs / {} calls\n",
        corpus.corpus.len(),
        corpus.corpus.total_calls()
    );

    // Show the surface ladder being swept.
    let machine = Machine {
        cores: 8,
        mem_mib: 4 * 1024,
    };
    println!("surface ladder:");
    let mut n = 1;
    while n <= machine.cores {
        let s = KernelSurfaceArea::of(&EnvSpec::new(machine, EnvKind::Vm(n)));
        println!("  {} VMs -> {} per kernel (scalar {:.1})", n, s, s.scalar());
        n *= 2;
    }

    let (result, _) = fig2(&corpus.corpus, scale, 11, 0, false);
    println!();
    for cat in &result.categories {
        println!(
            "category ({}) {}:",
            cat.category.letter(),
            cat.category.name()
        );
        for v in &cat.violins {
            println!("  {}", v.render_line());
        }
    }
    println!("\n{}", render_trends(&surface_trends(&result)));
    println!(
        "negative correlations = shrinking the kernel surface area \
         reliably shrinks that category's tail latency"
    );
}
