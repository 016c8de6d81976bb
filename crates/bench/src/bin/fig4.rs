//! Regenerates Figure 4: multi-node BSP runtimes, isolated versus
//! multi-tenant, KVM versus Docker.

use ksa_bench::{cell_ns, Cli};
use ksa_core::experiments::{fig4, noise_corpus};

fn main() {
    let cli = Cli::parse();
    let noise = noise_corpus(cli.scale);
    let (rows, metered) = fig4(&noise, cli.scale, cli.seed, cli.jobs, cli.metrics());

    println!("Figure 4(a): cluster runtime, isolated");
    println!("{:<12}{:>14}{:>14}", "app", "KVM", "Docker");
    for r in &rows {
        println!(
            "{:<12}{:>14}{:>14}",
            r.app,
            cell_ns(r.kvm_isolated),
            cell_ns(r.docker_isolated)
        );
    }
    println!("\nFigure 4(b): cluster runtime, multi-tenant");
    println!(
        "{:<12}{:>14}{:>14}{:>12}",
        "app", "KVM", "Docker", "KVM adv %"
    );
    for r in &rows {
        let adv =
            100.0 * (r.docker_noise as f64 - r.kvm_noise as f64) / r.docker_noise.max(1) as f64;
        println!(
            "{:<12}{:>14}{:>14}{:>12.1}",
            r.app,
            cell_ns(r.kvm_noise),
            cell_ns(r.docker_noise),
            adv
        );
    }
    println!("\nFigure 4(c): relative runtime loss isolated -> multi-tenant (%)");
    println!("{:<12}{:>12}{:>12}", "app", "KVM %", "Docker %");
    let mut csv = String::from(
        "app,kvm_isolated_ns,docker_isolated_ns,kvm_noise_ns,docker_noise_ns,kvm_loss_pct,docker_loss_pct\n",
    );
    for r in &rows {
        println!(
            "{:<12}{:>12.1}{:>12.1}",
            r.app,
            r.kvm_loss_pct(),
            r.docker_loss_pct()
        );
        csv.push_str(&format!(
            "{},{},{},{},{},{:.2},{:.2}\n",
            r.app,
            r.kvm_isolated,
            r.docker_isolated,
            r.kvm_noise,
            r.docker_noise,
            r.kvm_loss_pct(),
            r.docker_loss_pct()
        ));
    }
    cli.write_csv("fig4", &csv);
    cli.write_metrics("fig4", &metered.registry, &metered.frames);
}
