//! Regenerates Table 2: median / p99 / worst-case syscall runtime
//! breakdowns for native Linux, per-core KVM VMs and per-core Docker
//! containers.

use ksa_bench::Cli;
use ksa_core::experiments::{default_corpus, table2};

fn main() {
    let cli = Cli::parse();
    let t0 = std::time::Instant::now();
    let corpus = default_corpus(cli.scale);
    eprintln!(
        "corpus: {} programs / {} calls / {} blocks ({:.1?})",
        corpus.corpus.len(),
        corpus.corpus.total_calls(),
        corpus.stats.blocks,
        t0.elapsed()
    );
    let (result, metered) = table2(&corpus.corpus, cli.scale, cli.seed, cli.jobs, cli.metrics());
    println!("{}", result.median.render());
    println!("{}", result.p99.render());
    println!("{}", result.max.render());
    cli.write_csv("table2_median", &result.median.to_csv());
    cli.write_csv("table2_p99", &result.p99.to_csv());
    cli.write_csv("table2_max", &result.max.to_csv());
    cli.write_metrics("table2", &metered.registry, &metered.frames);
    eprintln!("total {:?}", t0.elapsed());
}
