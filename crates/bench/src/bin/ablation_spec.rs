//! Specialization ablation: the third surface-area axis, gated so
//! regressions fail CI.
//!
//! Three runs of the tailbench request path under the same machine
//! split (xapian, the kernel-intensive app):
//!
//! * **shared** — one kernel, 4 containers (the paper's Docker column);
//! * **partitioned** — 4 KVM instances, full kernel each (KVM column);
//! * **specialized** — the same 4 instances built from a
//!   coverage-derived [`SpecProfile`] of xapian's request path, so
//!   unreached subsystems never materialize: their daemons don't spawn
//!   and their lock groups collapse onto one stub.
//!
//! Gates:
//!
//! 1. specialization strictly shrinks the static footprint — fewer
//!    daemons **and** fewer engine locks than the partitioned kernel;
//! 2. the tail does not regress: specialized p99 within 5% of
//!    partitioned (the gated machinery was idle on this path);
//! 3. a full-allowlist profile is bit-identical to the unspecialized
//!    kernel — sojourn samples, clock, event count and footprint all
//!    equal (specialization off is exactly the old build);
//! 4. the whole ablation is bit-identical under replay and across
//!    `--jobs` pool widths.
//!
//! Exit code 1 on any gate failure.

use ksa_bench::{cell_ns, Cli, Gates};
use ksa_core::experiments::Scale;
use ksa_kernel::prog::{Arg, Call, Corpus, Program};
use ksa_kernel::SysNo;
use ksa_spec::{derive_profile, SpecProfile};
use ksa_tailbench::single_node::{run_points, run_single_node, SingleNodeConfig, TailResult};
use ksa_tailbench::suite;

/// The corpus a tenant's profile is derived from: xapian's request path
/// as the server executes it — connection setup plus the per-request
/// app template. Derivation replays it through the coverage sandbox, so
/// subsystems the path drags in (page allocation under `pread`, say)
/// join the category set even without a syscall of their own.
fn xapian_corpus() -> Corpus {
    Corpus {
        programs: vec![
            // Server setup: files + both socket ends.
            Program {
                calls: vec![
                    Call::new(SysNo::Open, vec![Arg::Const(1), Arg::Const(1)]),
                    Call::new(SysNo::Socket, vec![Arg::Const(1)]),
                    Call::new(SysNo::Bind, vec![Arg::Ref(1), Arg::Const(80)]),
                    Call::new(SysNo::Listen, vec![Arg::Ref(1), Arg::Const(8)]),
                    Call::new(SysNo::Socket, vec![Arg::Const(1)]),
                    Call::new(SysNo::Connect, vec![Arg::Ref(4), Arg::Const(80)]),
                    Call::new(SysNo::Accept, vec![Arg::Ref(1)]),
                    Call::new(SysNo::Pwrite, vec![Arg::Ref(0), Arg::Const(32_000)]),
                    Call::new(SysNo::Pread, vec![Arg::Ref(0), Arg::Const(32_000)]),
                    Call::new(SysNo::Sendto, vec![Arg::Ref(4), Arg::Const(1_500)]),
                    Call::new(SysNo::Recvfrom, vec![Arg::Ref(4), Arg::Const(1_500)]),
                ],
            },
            // Per-request work: the xapian app template.
            Program {
                calls: vec![
                    Call::new(SysNo::Pread, vec![Arg::Const(0), Arg::Const(24_000)]),
                    Call::new(SysNo::Mmap, vec![Arg::Const(16), Arg::Const(1)]),
                    Call::new(SysNo::Stat, vec![Arg::Const(4)]),
                ],
            },
        ],
    }
}

fn identical(a: &TailResult, b: &TailResult) -> bool {
    a.p99 == b.p99
        && a.sim_ns == b.sim_ns
        && a.events == b.events
        && a.sojourns.raw() == b.sojourns.raw()
        && a.locks_allocated == b.locks_allocated
        && a.daemons_spawned == b.daemons_spawned
}

fn main() {
    let cli = Cli::parse();
    let apps = suite();
    let app = &apps[0]; // xapian: kernel-intensive request path
    let noise = Corpus { programs: vec![] }; // unused: noise off everywhere

    let profile = derive_profile("xapian", &xapian_corpus(), cli.seed);
    let cats: Vec<String> = profile.mask.categories().map(|c| c.to_string()).collect();
    println!(
        "ablation_spec: profile '{}' allows {}/{} syscalls, categories [{}]",
        profile.name,
        profile.mask.allowed_count(),
        SysNo::ALL.len(),
        cats.join(", ")
    );

    let base = match cli.scale {
        Scale::Full => SingleNodeConfig::paper(false, false, cli.seed),
        _ => SingleNodeConfig::quick(false, false, cli.seed),
    };
    let shared = base;
    let partitioned = SingleNodeConfig { virt: true, ..base };
    let specialized = SingleNodeConfig {
        virt: true,
        spec: Some(profile.mask),
        ..base
    };

    let points = [
        ("shared", shared),
        ("partitioned", partitioned),
        ("specialized", specialized),
    ];
    let point_list: Vec<_> = points.iter().map(|&(_, cfg)| (app.clone(), cfg)).collect();
    let results = run_points(&point_list, &noise, cli.jobs);
    let (sh, part, spec) = (&results[0], &results[1], &results[2]);
    for ((name, _), res) in points.iter().zip(&results) {
        println!(
            "{name:>12}: p99 {:>10}  {} daemons, {} locks",
            cell_ns(res.p99),
            res.daemons_spawned,
            res.locks_allocated
        );
    }
    let mut gates = Gates::new("ablation_spec");

    // Gate 1: the static footprint strictly shrinks.
    gates.check(
        "footprint/daemons",
        spec.daemons_spawned < part.daemons_spawned,
        format!(
            "{} daemons < {} partitioned",
            spec.daemons_spawned, part.daemons_spawned
        ),
    );
    gates.check(
        "footprint/locks",
        spec.locks_allocated < part.locks_allocated,
        format!(
            "{} locks < {} partitioned",
            spec.locks_allocated, part.locks_allocated
        ),
    );

    // Gate 2: gating idle machinery must not cost tail latency.
    gates.check(
        "tail/no-regression",
        spec.p99 as f64 <= part.p99 as f64 * 1.05,
        format!(
            "specialized p99 {} vs partitioned {} (bound 1.05x)",
            cell_ns(spec.p99),
            cell_ns(part.p99)
        ),
    );

    // Gate 3: the full-allowlist profile is the unspecialized kernel.
    let full_cfg = SingleNodeConfig {
        spec: Some(SpecProfile::full("all").mask),
        ..partitioned
    };
    let full = run_single_node(app, &full_cfg, &noise);
    gates.check(
        "identity/full-allowlist",
        identical(&full, part) && full.daemons_spawned == 4 * 5,
        format!(
            "full-mask run == spec=None run ({} samples, clock {}, {} daemons)",
            full.sojourns.raw().len(),
            cell_ns(full.sim_ns),
            full.daemons_spawned
        ),
    );

    // Gate 4: replay and pool width cannot reach the results.
    let seq = run_points(&point_list, &noise, 1);
    let replay = run_single_node(app, &specialized, &noise);
    gates.check(
        "determinism/jobs-and-replay",
        results.iter().zip(&seq).all(|(a, b)| identical(a, b)) && identical(&replay, spec),
        format!("--jobs 1 vs {} and replay bit-identical", cli.jobs),
    );

    let mut csv = String::from("run,p99_ns,sim_ns,events,daemons_spawned,locks_allocated\n");
    for ((name, _), res) in points.iter().zip(&results) {
        csv.push_str(&format!(
            "{},{},{},{},{},{}\n",
            name, res.p99, res.sim_ns, res.events, res.daemons_spawned, res.locks_allocated
        ));
    }
    cli.write_csv("ablation_spec", &csv);

    // Context line for EXPERIMENTS.md: the shared-kernel tail.
    println!(
        "      shared: p99 {} ({}x the partitioned tail)",
        cell_ns(sh.p99),
        format_args!("{:.2}", sh.p99 as f64 / part.p99.max(1) as f64)
    );

    gates.finish();
}
