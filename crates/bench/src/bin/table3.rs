//! Regenerates Table 3: worst-case syscall runtimes in Docker as the
//! container count grows.

use ksa_bench::Cli;
use ksa_core::experiments::{default_corpus, table3};

fn main() {
    let cli = Cli::parse();
    let corpus = default_corpus(cli.scale);
    let (table, metered) = table3(&corpus.corpus, cli.scale, cli.seed, cli.jobs, cli.metrics());
    println!("{}", table.render());
    cli.write_csv("table3", &table.to_csv());
    cli.write_metrics("table3", &metered.registry, &metered.frames);
}
