//! Regenerates Figure 2: distributions of per-syscall 99th percentiles
//! by category across the VM-count sweep, plus the surface-area trend
//! analysis.

use ksa_bench::Cli;
use ksa_core::analysis::{render_trends, surface_trends};
use ksa_core::experiments::{default_corpus, fig2};

fn main() {
    let cli = Cli::parse();
    let corpus = default_corpus(cli.scale);
    let (result, metered) = fig2(&corpus.corpus, cli.scale, cli.seed, cli.jobs, cli.metrics());

    let mut csv = String::from("category,vms,count,min,whisker_lo,q1,median,q3,whisker_hi,max\n");
    for cat in &result.categories {
        println!(
            "Figure 2({}): {} — per-site p99 distribution by VM count",
            cat.category.letter(),
            cat.category.name()
        );
        for v in &cat.violins {
            println!("  {}", v.render_line());
            csv.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{}\n",
                cat.category.letter(),
                v.label.trim_end_matches(" VMs"),
                v.count,
                v.min,
                v.whisker_lo,
                v.q1,
                v.median,
                v.q3,
                v.whisker_hi,
                v.max
            ));
        }
        println!();
    }
    println!("{}", render_trends(&surface_trends(&result)));
    cli.write_csv("fig2", &csv);
    cli.write_metrics("fig2", &metered.registry, &metered.frames);
}
