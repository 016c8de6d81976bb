//! Regenerates Figure 3: single-node tailbench p99 latencies, isolated
//! versus with a 48-core syscall-noise corpus, KVM versus Docker.

use ksa_bench::{cell_ns, Cli};
use ksa_core::experiments::{fig3, noise_corpus};

fn main() {
    let cli = Cli::parse();
    let noise = noise_corpus(cli.scale);
    let (rows, metered) = fig3(&noise, cli.scale, cli.seed, cli.jobs, cli.metrics());

    println!("Figure 3(a): 99th percentile latency, isolated");
    println!("{:<12}{:>14}{:>14}", "app", "KVM", "Docker");
    for r in &rows {
        println!(
            "{:<12}{:>14}{:>14}",
            r.app,
            cell_ns(r.kvm_isolated),
            cell_ns(r.docker_isolated)
        );
    }
    println!("\nFigure 3(b): 99th percentile latency, with syscall noise");
    println!("{:<12}{:>14}{:>14}", "app", "KVM", "Docker");
    for r in &rows {
        println!(
            "{:<12}{:>14}{:>14}",
            r.app,
            cell_ns(r.kvm_noise),
            cell_ns(r.docker_noise)
        );
    }
    println!("\nFigure 3(c): p99 increase isolated -> contended (%)");
    println!("{:<12}{:>12}{:>12}", "app", "KVM %", "Docker %");
    let mut csv = String::from(
        "app,kvm_isolated_ns,docker_isolated_ns,kvm_noise_ns,docker_noise_ns,kvm_incr_pct,docker_incr_pct\n",
    );
    for r in &rows {
        println!(
            "{:<12}{:>12.1}{:>12.1}",
            r.app,
            r.kvm_increase_pct(),
            r.docker_increase_pct()
        );
        csv.push_str(&format!(
            "{},{},{},{},{},{:.2},{:.2}\n",
            r.app,
            r.kvm_isolated,
            r.docker_isolated,
            r.kvm_noise,
            r.docker_noise,
            r.kvm_increase_pct(),
            r.docker_increase_pct()
        ));
    }
    let avg_kvm: f64 = rows.iter().map(|r| r.kvm_increase_pct()).sum::<f64>() / rows.len() as f64;
    let avg_docker: f64 =
        rows.iter().map(|r| r.docker_increase_pct()).sum::<f64>() / rows.len() as f64;
    println!("\naverage increase: KVM {avg_kvm:.1}%  Docker {avg_docker:.1}%");
    cli.write_csv("fig3", &csv);
    cli.write_metrics("fig3", &metered.registry, &metered.frames);
}
