//! Failover ablation: the cluster fabric's recovery machinery under a
//! deterministic node/link fault plan, gated so regressions fail CI.
//!
//! Three faulted runs of the Figure-4-shaped cluster (healthy baseline,
//! one crashed node, one healed partition) check that:
//!
//! 1. a crashed node's shard is detected, reassigned and re-executed —
//!    the run completes every iteration with **bounded** slowdown over
//!    healthy and zero unserved shards;
//! 2. a healed partition loses zero barrier completions and lets zero
//!    duplicates through (retransmission + coordinator dedup);
//! 3. recovery lights up `err.cluster.*` / `recovery.cluster.*`
//!    coverage blocks that a healthy run must not touch;
//! 4. the whole thing is bit-identical under replay and across `--jobs`
//!    pool widths.
//!
//! Exit code 1 on any gate failure. `--trace-out <path>` dumps the
//! crash run's recovery marks as Chrome-trace JSON.

use ksa_bench::{cell_ns, Cli, Gates};
use ksa_cluster::{run_cluster, run_cluster_faulted, ClusterConfig, FabricConfig};
use ksa_core::experiments::{noise_corpus, Scale};
use ksa_desim::NodeFaultPlan;
use ksa_envsim::Machine;
use ksa_tailbench::suite;
use ksa_varbench::traceout::chrome_trace_json;

/// The Figure-4-shaped cluster for `scale`, sized like `fig4` but
/// restoring the paper's 64 nodes at full scale (the failover gates are
/// about membership behaviour, so node count is the interesting axis).
fn cluster_config(scale: Scale, seed: u64, jobs: usize) -> ClusterConfig {
    let (nodes, iterations, per_iter) = scale.cluster();
    let (nodes, machine) = match scale {
        Scale::Tiny => (
            nodes,
            Machine {
                cores: 8,
                mem_mib: 8 * 1024,
            },
        ),
        Scale::Quick => (
            nodes,
            Machine {
                cores: 12,
                mem_mib: 16 * 1024,
            },
        ),
        Scale::Full => (
            64,
            Machine {
                cores: 24,
                mem_mib: 64 * 1024,
            },
        ),
    };
    ClusterConfig {
        threads: jobs,
        ..ClusterConfig::new(nodes, iterations, per_iter, machine, false, false, seed)
    }
}

fn main() {
    let cli = Cli::parse();
    let app = &suite()[1]; // masstree: short requests, fast at scale
    let noise = noise_corpus(cli.scale);
    let cfg = cluster_config(cli.scale, cli.seed, cli.jobs);
    let fab = FabricConfig::quick();
    let mut gates = Gates::new("ablation_failover");

    println!(
        "ablation_failover: {} nodes x {} iterations, seed {}",
        cfg.nodes, cfg.iterations, cli.seed
    );

    // Baseline: the healthy cluster.
    let healthy = run_cluster(app, &cfg, &noise);
    println!("\nhealthy: total {}", cell_ns(healthy.total_ns));

    // Gate 1: one node crashes permanently about a third into the run.
    let crash_at = healthy.total_ns / 3;
    let crash_plan = NodeFaultPlan::new(cli.seed).crash(cfg.nodes / 2, crash_at, 0);
    let crash = run_cluster_faulted(app, &cfg, &noise, &crash_plan, &fab);
    let crep = crash.fabric.clone().expect("faulted run reports fabric");
    println!(
        "crash:   total {}  (slowdown {:.2}x, {} reassign, {} reexec)",
        cell_ns(crash.total_ns),
        crash.slowdown_vs(&healthy),
        crep.reassignments,
        crep.reexecs
    );
    gates.check(
        "crash/completes",
        crash.iteration_ns.len() == cfg.iterations as usize,
        format!(
            "{} of {} iterations (barrier must not hang)",
            crash.iteration_ns.len(),
            cfg.iterations
        ),
    );
    gates.check(
        "crash/detected",
        crep.crash_detections == 1 && crep.reexecs >= 1 && crep.reassignments >= 1,
        format!(
            "{} detections, {} reexecs, {} reassignments",
            crep.crash_detections, crep.reexecs, crep.reassignments
        ),
    );
    gates.check(
        "crash/all-shards-served",
        crep.unserved_shards == 0 && crep.conserved(),
        format!(
            "{} unserved, {}/{} completions",
            crep.unserved_shards, crep.completions, crep.expected_completions
        ),
    );
    let slowdown = crash.slowdown_vs(&healthy);
    gates.check(
        "crash/bounded-slowdown",
        (1.0..3.0).contains(&slowdown),
        format!("{slowdown:.2}x vs healthy (bound 3.0x)"),
    );

    // Gate 2: a minority island partitions off and heals mid-run.
    let p0 = healthy.total_ns / 4;
    let p1 = healthy.total_ns / 2;
    let island: Vec<usize> = (0..cfg.nodes / 4).collect();
    let part_plan = NodeFaultPlan::new(cli.seed).partition(p0, p1, island);
    let part = run_cluster_faulted(app, &cfg, &noise, &part_plan, &fab);
    let prep = part.fabric.clone().expect("faulted run reports fabric");
    println!(
        "part:    total {}  ({} retransmits, {} dups dropped)",
        cell_ns(part.total_ns),
        prep.retransmits,
        prep.dup_completions_dropped
    );
    gates.check(
        "partition/retransmits",
        prep.retransmits > 0,
        format!("{} retransmissions across the cut", prep.retransmits),
    );
    gates.check(
        "partition/conserves-completions",
        prep.conserved(),
        format!(
            "{}/{} completions, {} lost, {} duplicates deduped",
            prep.completions,
            prep.expected_completions,
            prep.lost_completions,
            prep.dup_completions_dropped
        ),
    );

    // Gate 3: recovery coverage lights up only under faults.
    let lit = crash.coverage.len() + part.coverage.len();
    gates.check(
        "coverage/faults-light-blocks",
        healthy.coverage.is_empty() && crash.coverage.len() >= 5 && part.coverage.len() >= 2,
        format!(
            "healthy {} blocks, crash {}, partition {} ({} total)",
            healthy.coverage.len(),
            crash.coverage.len(),
            part.coverage.len(),
            lit
        ),
    );

    // Gate 4: replay and pool width cannot reach the results.
    let mut seq_cfg = cfg;
    seq_cfg.threads = 1;
    let seq = run_cluster_faulted(app, &seq_cfg, &noise, &crash_plan, &fab);
    let replay = run_cluster_faulted(app, &cfg, &noise, &crash_plan, &fab);
    gates.check(
        "determinism/jobs-and-replay",
        seq.iteration_ns == crash.iteration_ns
            && seq.fabric == crash.fabric
            && replay.iteration_ns == crash.iteration_ns
            && replay.fabric == crash.fabric,
        format!("--jobs 1 vs {} and replay bit-identical", cfg.threads),
    );

    if let Some(path) = &cli.trace_out {
        std::fs::write(path, chrome_trace_json(&crash.trace)).expect("write trace");
        eprintln!("wrote {}", path.display());
    }
    let mut csv = String::from(
        "run,total_ns,slowdown,reassignments,reexecs,retransmits,dups_dropped,completions,expected,lost\n",
    );
    for (name, res) in [
        ("healthy", &healthy),
        ("crash", &crash),
        ("partition", &part),
    ] {
        let rep = res.fabric.clone().unwrap_or_default();
        csv.push_str(&format!(
            "{},{},{:.4},{},{},{},{},{},{},{}\n",
            name,
            res.total_ns,
            res.slowdown_vs(&healthy),
            rep.reassignments,
            rep.reexecs,
            rep.retransmits,
            rep.dup_completions_dropped,
            rep.completions,
            rep.expected_completions,
            rep.lost_completions
        ));
    }
    cli.write_csv("ablation_failover", &csv);

    gates.finish();
}
