//! High-density tenant churn ablation: VMs vs containers when tenant
//! count far exceeds core count, gated so regressions fail CI.
//!
//! For each density point (64 → 4096 tenants resident at peak, on an
//! 8-core machine) three deployments run the same seeded churn schedule
//! (see [`ksa_envsim::tenant`]):
//!
//! * **shared** — one kernel hosting every tenant as a container
//!   (per-tenant netfilter/conntrack hops and rootfs dentry pressure
//!   scale with density);
//! * **partitioned** — 4 KVM instances, each hosting a quarter of the
//!   tenants on a full kernel;
//! * **specialized** — the same 4 instances built from a
//!   coverage-derived profile of the tenant lifecycle, so unreached
//!   subsystems never materialize.
//!
//! Gates:
//!
//! 1. **hygiene** — every run conserves tenants (arrived == exited,
//!    nothing live after the last exit) and the post-churn fd/socket
//!    tables are bounded by peak concurrency (`fds.len() <=
//!    peak_open_fds` per slot, `socks.len() <= peak_socks` per
//!    instance). The pre-reuse allocator leaked one slot per descriptor
//!    ever opened and fails this at any density.
//! 2. **metrics** — every configuration reports cold-start and
//!    per-tenant p99 numbers (no silent empty runs).
//! 3. **footprint** — the specialized build allocates strictly fewer
//!    locks than the partitioned full kernel (the lifecycle touches
//!    every daemon-backed subsystem, so daemons only need `<=`).
//! 4. **determinism** — the whole sweep is bit-identical under replay
//!    and across `--jobs` pool widths.
//!
//! Exit code 1 on any gate failure.

use ksa_bench::{cell_ns, Cli, Gates};
use ksa_core::experiments::Scale;
use ksa_envsim::{ChurnParams, EnvKind, Machine};
use ksa_kernel::prog::{Arg, Call, Corpus, Program};
use ksa_kernel::SysNo;
use ksa_spec::derive_profile;
use ksa_tailbench::churn::{run_churn_points, ChurnConfig, ChurnResult};

/// The corpus a churn tenant's profile is derived from: the lifecycle
/// exactly as [`ksa_envsim::tenant::TenantHost`] compiles it — fork,
/// working set, loopback connection, request loop, teardown.
fn churn_corpus() -> Corpus {
    Corpus {
        programs: vec![
            // Setup: fork + working set + loopback connection.
            Program {
                calls: vec![
                    Call::new(SysNo::Clone, vec![Arg::Const(0)]),
                    Call::new(SysNo::Open, vec![Arg::Const(3), Arg::Const(1)]),
                    Call::new(SysNo::Mmap, vec![Arg::Const(24), Arg::Const(1)]),
                    Call::new(SysNo::Pwrite, vec![Arg::Ref(1), Arg::Const(2_048)]),
                    Call::new(SysNo::Socket, vec![Arg::Const(0)]),
                    Call::new(SysNo::Bind, vec![Arg::Ref(4), Arg::Const(1)]),
                    Call::new(SysNo::Listen, vec![Arg::Ref(4), Arg::Const(8)]),
                    Call::new(SysNo::Socket, vec![Arg::Const(0)]),
                    Call::new(SysNo::Connect, vec![Arg::Ref(7), Arg::Const(1)]),
                    Call::new(SysNo::Accept, vec![Arg::Ref(4)]),
                    Call::new(SysNo::Close, vec![Arg::Ref(4)]),
                ],
            },
            // One request: loopback round trip + file read.
            Program {
                calls: vec![
                    Call::new(SysNo::Socket, vec![Arg::Const(0)]),
                    Call::new(SysNo::Sendto, vec![Arg::Ref(0), Arg::Const(512)]),
                    Call::new(SysNo::Recvfrom, vec![Arg::Ref(0), Arg::Const(512)]),
                    Call::new(SysNo::Open, vec![Arg::Const(5), Arg::Const(1)]),
                    Call::new(SysNo::Pread, vec![Arg::Ref(3), Arg::Const(512)]),
                ],
            },
            // Teardown: close, unmap, reap.
            Program {
                calls: vec![
                    Call::new(SysNo::Open, vec![Arg::Const(7), Arg::Const(1)]),
                    Call::new(SysNo::Close, vec![Arg::Ref(0)]),
                    Call::new(SysNo::Mmap, vec![Arg::Const(24), Arg::Const(1)]),
                    Call::new(SysNo::Munmap, vec![Arg::Ref(2)]),
                    Call::new(SysNo::Clone, vec![Arg::Const(0)]),
                    Call::new(SysNo::Wait4, vec![Arg::Ref(4)]),
                ],
            },
        ],
    }
}

fn main() {
    let cli = Cli::parse();
    let densities: &[usize] = match cli.scale {
        Scale::Tiny => &[64],
        Scale::Quick => &[64, 256, 1024],
        Scale::Full => &[64, 256, 1024, 4096],
    };
    let machine = Machine {
        cores: 8,
        mem_mib: 8 * 1024,
    };

    let profile = derive_profile("churn", &churn_corpus(), cli.seed);
    println!(
        "ablation_churn: profile '{}' allows {}/{} syscalls; densities {:?}",
        profile.name,
        profile.mask.allowed_count(),
        SysNo::ALL.len(),
        densities
    );

    // Tenants ≫ cores at every point: total tenants = 2x the resident
    // density, so each point churns through the full population twice.
    let mk = |density: usize, kind: EnvKind, spec| ChurnConfig {
        machine,
        kind,
        params: ChurnParams::quick(density, 2 * density),
        seed: cli.seed,
        spec,
    };
    let mut names = Vec::new();
    let mut configs = Vec::new();
    for &d in densities {
        names.push(("shared", d));
        configs.push(mk(d, EnvKind::Container(d), None));
        names.push(("partitioned", d));
        configs.push(mk(d, EnvKind::Vm(4), None));
        names.push(("specialized", d));
        configs.push(mk(d, EnvKind::Vm(4), Some(profile.mask)));
    }

    let results = run_churn_points(&configs, cli.jobs);
    println!(
        "{:>12} {:>8} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "config", "density", "cold p50", "cold p99", "req p99", "tenant p99", "krps"
    );
    for ((name, d), res) in names.iter().zip(&results) {
        println!(
            "{name:>12} {d:>8} {:>12} {:>12} {:>12} {:>12} {:>10.1}",
            cell_ns(res.cold_p50),
            cell_ns(res.cold_p99),
            cell_ns(res.req_p99),
            cell_ns(res.worst_tenant_p99),
            res.throughput_rps / 1e3,
        );
    }

    let mut gates = Gates::new("ablation_churn");

    // Gate 1: conservation + table hygiene on every run.
    let leaks: Vec<String> = names
        .iter()
        .zip(&results)
        .filter(|(_, r)| {
            r.arrived != r.exited
                || r.fd_open_after != 0
                || r.sock_live_after != 0
                || !r.tables_bounded
        })
        .map(|((n, d), r)| {
            format!(
                "{n}@{d} (arrived {} exited {} fds_open {} socks_live {} bounded {})",
                r.arrived, r.exited, r.fd_open_after, r.sock_live_after, r.tables_bounded
            )
        })
        .collect();
    gates.check(
        "hygiene/churn-conservation",
        leaks.is_empty(),
        if leaks.is_empty() {
            let r = &results[0];
            format!(
                "all runs clean; e.g. shared@{}: fd table {} <= peak {}, sock table {} <= peak {}",
                names[0].1, r.fd_table_len, r.fd_peak, r.sock_table_len, r.sock_peak
            )
        } else {
            leaks.join("; ")
        },
    );

    // Gate 2: every configuration produced real measurements.
    gates.check(
        "metrics/all-configs-report",
        results.iter().all(|r| {
            r.arrived > 0 && r.cold_p99 > 0 && r.worst_tenant_p99 > 0 && r.requests_completed > 0
        }),
        format!(
            "{} runs, {} total tenants churned, {} requests",
            results.len(),
            results.iter().map(|r| r.exited).sum::<u64>(),
            results.iter().map(|r| r.requests_completed).sum::<u64>()
        ),
    );

    // Gate 3: specialization strictly shrinks the lock footprint. (The
    // churn lifecycle touches every daemon-backed subsystem — sched,
    // mm, fs, net — so the daemon count legitimately stays put; the
    // ipc/perm lock groups are what collapse.)
    let (part, spec) = (&results[1], &results[2]);
    gates.check(
        "footprint/specialized-shrinks",
        spec.locks_allocated < part.locks_allocated && spec.daemons_spawned <= part.daemons_spawned,
        format!(
            "{} locks < partitioned {}, {} daemons <= {}",
            spec.locks_allocated, part.locks_allocated, spec.daemons_spawned, part.daemons_spawned
        ),
    );

    // Gate 4: replay + pool width cannot reach the results.
    let seq = run_churn_points(&configs, 1);
    let replay = run_churn_points(&configs, cli.jobs);
    let identical = |a: &ChurnResult, b: &ChurnResult| {
        a.digest == b.digest && a.sim_ns == b.sim_ns && a.events == b.events
    };
    gates.check(
        "determinism/jobs-and-replay",
        results.iter().zip(&seq).all(|(a, b)| identical(a, b))
            && results.iter().zip(&replay).all(|(a, b)| identical(a, b)),
        format!("--jobs 1 vs {} and replay digests bit-identical", cli.jobs),
    );

    let mut csv = String::from(
        "config,density,cold_p50_ns,cold_p99_ns,req_p99_ns,worst_tenant_p99_ns,\
         throughput_rps,tenants,requests,fd_table_len,fd_peak,sock_table_len,sock_peak,\
         sim_ns,events,digest\n",
    );
    for ((name, d), r) in names.iter().zip(&results) {
        csv.push_str(&format!(
            "{},{},{},{},{},{},{:.1},{},{},{},{},{},{},{},{},{:#x}\n",
            name,
            d,
            r.cold_p50,
            r.cold_p99,
            r.req_p99,
            r.worst_tenant_p99,
            r.throughput_rps,
            r.exited,
            r.requests_completed,
            r.fd_table_len,
            r.fd_peak,
            r.sock_table_len,
            r.sock_peak,
            r.sim_ns,
            r.events,
            r.digest
        ));
    }
    cli.write_csv("ablation_churn", &csv);

    // Context line for EXPERIMENTS.md: isolation at the top density.
    let top = &results[results.len() - 3..];
    println!(
        "      density {}: shared tenant-p99 {} vs partitioned {} ({:.2}x)",
        densities[densities.len() - 1],
        cell_ns(top[0].worst_tenant_p99),
        cell_ns(top[1].worst_tenant_p99),
        top[0].worst_tenant_p99 as f64 / top[1].worst_tenant_p99.max(1) as f64
    );

    gates.finish();
}
