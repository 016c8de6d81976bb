//! The four workloads: inputs made from the seed, one end-to-end pass
//! through the library's batch entry points, and one traced pass that
//! submits the same trials through `ksa_desim::pool::run_tasks` with a
//! span around every public call.
//!
//! Every pass folds each trial's simulated results into a per-trial FNV
//! digest and the trial digests into the workload digest, so a traced
//! pass, an untraced pass and a `jobs = 1` pass of one seed must agree
//! bit for bit.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use ksa_cluster::{run_cluster, run_cluster_faulted, ClusterConfig, ClusterResult, FabricConfig};
use ksa_core::experiments::{default_corpus, noise_corpus, Scale};
use ksa_desim::{Engine, EngineParams, NodeFaultPlan, TraceLog};
use ksa_envsim::tenant::{split_key, COLD_START_KEY, EXIT_KEY, REQUEST_KEY};
use ksa_envsim::{
    build_env_with, container_sweep, spawn_churn_hosts, vm_sweep, ChurnParams, EnvKind, EnvSpec,
    Machine,
};
use ksa_kernel::coverage::CoverageSet;
use ksa_kernel::prog::{Corpus, Program};
use ksa_kernel::{Category, HasKernel, KernelTelemetry, KernelWorld, SysNo};
use ksa_syzgen::{GenStats, ProgramGenerator};
use ksa_tailbench::apps::{cluster_suite, suite as app_suite, AppProfile};
use ksa_tailbench::churn::{run_churn_points, ChurnConfig, ChurnResult};
use ksa_tailbench::single_node::{
    run_node_batched, run_points, run_single_node, SingleNodeConfig, TailResult,
};
use ksa_telemetry::{Registry, TelemetryConfig};
use ksa_varbench::{run_configs_jobs, RunConfig, RunError, RunResult};

use crate::trace::Tracer;

// Input sizes. Each workload is one artifact run at a named scale, with
// the artifact's own machine, corpus and shape, so a pass has the
// per-event profile of a run a user makes.
/// The sweep is the campaign of `table2`, `fig2` and `table3 --quick`:
/// machine, corpus and iterations from the scale's accessors.
const SWEEP_SCALE: Scale = Scale::Quick;
/// Figure 3 and 4 run at `Scale::Tiny`, exactly as `fig3 --tiny` and
/// `fig4 --tiny` do: requests and cluster shape from the scale's
/// accessors, machines as `fig3_metered` / `fig4_metered` pick them for
/// the scale (they keep those tables local).
const FIG_SCALE: Scale = Scale::Tiny;
const FIG3_MACHINE: Machine = Machine {
    cores: 8,
    mem_mib: 8 * 1024,
};
const FIG4_NODE_MACHINE: Machine = Machine {
    cores: 8,
    mem_mib: 8 * 1024,
};
/// `ablation_churn --full`: densities (peak resident tenants, each point
/// serving 2x its density) and the machine.
const CHURN_DENSITIES: [usize; 4] = [64, 256, 1024, 4096];
const CHURN_MACHINE: Machine = Machine {
    cores: 8,
    mem_mib: 8 * 1024,
};

/// `(virt, noise)` per Figure 3 and 4 cell, in the artifacts' row order:
/// KVM and Docker isolated, then KVM and Docker with noise.
const GRID: [(bool, bool); 4] = [(true, false), (false, false), (true, true), (false, true)];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SyscallSweep,
    TailLatency,
    TenantChurn,
    ClusterBsp,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SyscallSweep,
        Workload::TailLatency,
        Workload::TenantChurn,
        Workload::ClusterBsp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SyscallSweep => "syscall_sweep",
            Workload::TailLatency => "tail_latency",
            Workload::TenantChurn => "tenant_churn",
            Workload::ClusterBsp => "cluster_bsp",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Everything a workload's passes need. The seed reaches the program only
/// through these values: every trial's simulation seed, the fault plan's
/// seed and the churn corpus. The syscall corpus and the noise corpus are
/// the artifacts' own (`default_corpus(Quick)`, `noise_corpus(Tiny)`), so
/// the amount of work in a pass does not swing with the seed.
pub enum Inputs {
    Sweep {
        corpus: Corpus,
        stats: GenStats,
        configs: Vec<RunConfig>,
    },
    Tail {
        noise: Corpus,
        points: Vec<(AppProfile, SingleNodeConfig)>,
    },
    Churn {
        configs: Vec<ChurnConfig>,
    },
    Cluster {
        noise: Corpus,
        cells: Vec<(AppProfile, ClusterConfig)>,
        faulted: Box<(AppProfile, ClusterConfig, NodeFaultPlan)>,
    },
}

impl Inputs {
    /// A corpus the kernel's sandbox can replay for the per-call dispatch
    /// cost (`kernel.sandbox_ns_per_call`).
    pub fn sandbox_corpus(&self) -> Option<&Corpus> {
        match self {
            Inputs::Sweep { corpus, .. } => Some(corpus),
            Inputs::Tail { noise, .. } | Inputs::Cluster { noise, .. } => Some(noise),
            Inputs::Churn { .. } => None,
        }
    }
}

/// What a serverless tenant does over its life: spawn, map, open and
/// write files, serve over sockets, tear down. The specialized churn
/// kernel's allowlist is derived from programs over these calls.
const CHURN_POOL: [SysNo; 15] = [
    SysNo::Clone,
    SysNo::Wait4,
    SysNo::Open,
    SysNo::Close,
    SysNo::Mmap,
    SysNo::Munmap,
    SysNo::Pwrite,
    SysNo::Pread,
    SysNo::Socket,
    SysNo::Bind,
    SysNo::Listen,
    SysNo::Connect,
    SysNo::Accept,
    SysNo::Sendto,
    SysNo::Recvfrom,
];

/// Programs over `CHURN_POOL`: one that makes every call a tenant makes,
/// then programs drawn from `seed`. The first keeps the derived allowlist
/// sound for every seed; a mask that left a tenant's call out would turn
/// it into `ENOSYS` and shrink the specialized runs' work by seed.
fn churn_corpus(seed: u64) -> Corpus {
    let mut gen = ProgramGenerator::new(seed);
    let mut every_call = Program::default();
    for no in CHURN_POOL {
        gen.push_call(&mut every_call, no);
    }
    let drawn: Vec<Program> = (0..11)
        .map(|_| gen.random_program_in(&CHURN_POOL))
        .collect();
    Corpus {
        programs: std::iter::once(every_call).chain(drawn).collect(),
    }
}

/// Builds a workload's inputs from `seed`: this is the work `setup_s`
/// times.
pub fn setup(w: Workload, seed: u64, tracer: &Tracer, parent: u64) -> Inputs {
    match w {
        Workload::SyscallSweep => {
            let gen = tracer.span(parent, "syzgen.generate", |_| default_corpus(SWEEP_SCALE));
            let machine = SWEEP_SCALE.machine();
            let cfg = |kind| RunConfig {
                env: EnvSpec::new(machine, kind),
                iterations: SWEEP_SCALE.iterations(),
                sync: true,
                seed,
                max_events: 0,
                trace: false,
                metrics: false,
                spec: None,
            };
            let mut configs = vec![cfg(EnvKind::Native)];
            configs.extend(vm_sweep(machine).iter().map(|r| cfg(EnvKind::Vm(r.count))));
            configs.extend(
                container_sweep(machine)
                    .iter()
                    .map(|r| cfg(EnvKind::Container(r.count))),
            );
            Inputs::Sweep {
                corpus: gen.corpus,
                stats: gen.stats,
                configs,
            }
        }
        Workload::TailLatency => {
            let noise = tracer.span(parent, "syzgen.noise_corpus", |_| noise_corpus(FIG_SCALE));
            // One repetition per grid point at Tiny, so the point seed is
            // the run seed.
            let mut points = Vec::new();
            for app in app_suite() {
                for (virt, with_noise) in GRID {
                    let cfg = SingleNodeConfig {
                        machine: FIG3_MACHINE,
                        groups: 4,
                        virt,
                        noise: with_noise,
                        requests: FIG_SCALE.requests(),
                        warmup: (FIG_SCALE.requests() / 10) as usize,
                        util_pct: 75,
                        trace: false,
                        metrics: false,
                        spec: None,
                        seed,
                    };
                    points.push((app.clone(), cfg));
                }
            }
            Inputs::Tail { noise, points }
        }
        Workload::TenantChurn => {
            let corpus = tracer.span(parent, "syzgen.churn_corpus", |_| churn_corpus(seed));
            let profile = tracer.span(parent, "spec.derive_profile", |_| {
                ksa_spec::derive_profile("churn", &corpus, seed)
            });
            let mk = |density: usize, kind, spec| ChurnConfig {
                machine: CHURN_MACHINE,
                kind,
                params: ChurnParams::quick(density, 2 * density),
                seed,
                spec,
            };
            let mut configs = Vec::new();
            for d in CHURN_DENSITIES {
                configs.push(mk(d, EnvKind::Container(d), None));
                configs.push(mk(d, EnvKind::Vm(4), None));
                configs.push(mk(d, EnvKind::Vm(4), Some(profile.mask)));
            }
            Inputs::Churn { configs }
        }
        Workload::ClusterBsp => {
            let noise = tracer.span(parent, "syzgen.noise_corpus", |_| noise_corpus(FIG_SCALE));
            let (nodes, iterations, requests_per_iter) = FIG_SCALE.cluster();
            let cfg = |virt, with_noise| ClusterConfig {
                nodes,
                iterations,
                requests_per_iter,
                node: SingleNodeConfig {
                    machine: FIG4_NODE_MACHINE,
                    groups: 2,
                    virt,
                    noise: with_noise,
                    requests: 0,
                    warmup: 0,
                    util_pct: 92,
                    trace: false,
                    metrics: false,
                    spec: None,
                    seed,
                },
                barrier_ns: 40_000,
                threads: 0,
            };
            let mut cells = Vec::new();
            for app in cluster_suite() {
                for (virt, with_noise) in GRID {
                    cells.push((app.clone(), cfg(virt, with_noise)));
                }
            }
            // `ablation_failover --tiny`'s cluster (a Docker cell without
            // noise, masstree) under one plan with a crash and reboot, a
            // healed partition and 10% link loss: every recovery path, and
            // the plan heals, so nothing may be lost.
            let faulted_cfg = cfg(false, false);
            let plan = NodeFaultPlan::new(seed)
                .crash(2, 900_000, 1_500_000)
                .partition(300_000, 1_400_000, vec![4, 5])
                .drop_prob_milli(100);
            let app = app_suite()[1].clone();
            Inputs::Cluster {
                noise,
                cells,
                faulted: Box::new((app, faulted_cfg, plan)),
            }
        }
    }
}

/// FNV-1a over u64 words, byte by byte: the same fold `suite` uses.
#[derive(Clone, Copy)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf29ce484222325)
    }
    pub fn fold(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
}

/// One pass's outcome.
#[derive(Default)]
pub struct PassOut {
    /// Fold of `trial_digests`: the workload digest.
    pub digest: u64,
    /// Per trial, in input order.
    pub trial_digests: Vec<u64>,
    /// Per trial: why it failed (error, panic, hygiene or conservation
    /// violation), or `None`.
    pub trial_faults: Vec<Option<String>>,
    /// Engine events dispatched over the pass.
    pub events: u64,
    /// Counters read from the trials' results and telemetry registries.
    pub counts: BTreeMap<&'static str, f64>,
}

impl PassOut {
    pub fn trials(&self) -> usize {
        self.trial_digests.len()
    }

    fn add(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_default() += v;
    }

    fn max(&mut self, key: &'static str, v: f64) {
        let e = self.counts.entry(key).or_default();
        *e = e.max(v);
    }

    /// Records one trial; `fault` marks it failed.
    fn trial(&mut self, digest: Digest, events: u64, fault: Option<String>) {
        self.trial_digests.push(digest.0);
        self.trial_faults.push(fault);
        self.events += events;
    }

    fn finish(mut self) -> Self {
        let mut d = Digest::new();
        for &t in &self.trial_digests {
            d.fold(t);
        }
        self.digest = d.0;
        self
    }

    /// Folds a trial's telemetry: engine and kernel counters (zero when
    /// the trial ran with telemetry off). A cluster cell's registry holds
    /// one series per node, so series are summed, and the queue gauge is
    /// the largest over trials and nodes.
    fn absorb(&mut self, reg: &Registry) {
        if !reg.enabled() {
            return;
        }
        for (key, name) in [
            ("desim.events", "engine_events_dispatched"),
            ("desim.events_scheduled", "engine_events_scheduled"),
            ("desim.process_wakes", "engine_process_wakes"),
            ("desim.processes_spawned", "engine_processes_spawned"),
            ("desim.timer_ticks", "engine_timer_ticks"),
            ("kernel.syscalls", "kernel_syscalls_dispatched"),
            ("kernel.lock_acquisitions", "lock_acquisitions"),
            ("kernel.lock_contended", "lock_contended"),
            ("kernel.lock_wait_sim_ns", "lock_wait_ns"),
        ] {
            self.add(key, reg.total(name) as f64);
        }
        for m in reg.metrics() {
            if m.name == "engine_event_queue_peak" {
                self.max("desim.queue_peak", m.value as f64);
            }
        }
        // Per category: calls the kernel attributed. Churn's tenant hosts
        // dispatch outside the attribution path, so only their total
        // (the instances' dispatch counters above) is non-zero.
        for cat in Category::ALL {
            let calls: u64 = reg
                .metrics()
                .iter()
                .filter(|m| m.name == "syscall_calls")
                .filter(|m| {
                    m.labels
                        .iter()
                        .any(|(k, v)| k == "category" && v == cat.name())
                })
                .map(|m| m.value)
                .sum();
            self.add(category_key(cat), calls as f64);
        }
    }
}

fn category_key(cat: Category) -> &'static str {
    match cat {
        Category::ProcessSched => "kernel.syscalls.process_sched",
        Category::Memory => "kernel.syscalls.memory",
        Category::FileIo => "kernel.syscalls.file_io",
        Category::Filesystem => "kernel.syscalls.filesystem",
        Category::Ipc => "kernel.syscalls.ipc",
        Category::Permissions => "kernel.syscalls.permissions",
        Category::Network => "kernel.syscalls.network",
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs a batch entry point that propagates a trial's panic: on a panic
/// every one of the batch's `n` trials is reported failed with it.
fn batch<T>(n: usize, f: impl FnOnce() -> Vec<T>) -> Vec<Result<T, String>> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => v.into_iter().map(Ok).collect(),
        Err(p) => {
            let msg = format!("batch panicked: {}", panic_text(p.as_ref()));
            (0..n).map(|_| Err(msg.clone())).collect()
        }
    }
}

/// A pooled trial; it receives its own span id for child spans.
type Task<'a, T> = Box<dyn FnOnce(u64) -> T + Send + 'a>;

/// Runs `tasks` through the pool inside a `pool.run_tasks` span, one
/// span named `name` per task; a panicking task fails only itself.
fn pooled<T: Send>(
    tracer: &Tracer,
    parent: u64,
    jobs: usize,
    name: &'static str,
    tasks: Vec<Task<'_, T>>,
) -> Vec<Result<T, String>> {
    tracer.span(parent, "pool.run_tasks", |batch| {
        let wrapped: Vec<_> = tasks
            .into_iter()
            .map(|t| move || tracer.span(batch, name, t))
            .collect();
        ksa_desim::pool::run_tasks(jobs, wrapped)
            .into_iter()
            .map(|r| r.map_err(|p| format!("trial panicked: {}", panic_text(p.as_ref()))))
            .collect()
    })
}

/// Times `build_env_with` on a fresh engine, outside any trial, and
/// counts what it allocated. Trials build their own environment inside
/// the library call, where it cannot be timed from outside.
fn timed_build(
    tracer: &Tracer,
    parent: u64,
    out: &mut PassOut,
    spec: &EnvSpec,
    seed: u64,
    mask: Option<ksa_kernel::SpecMask>,
) {
    let (instances, locks, daemons) = tracer.span(parent, "envsim.build_env_with", |_| {
        let mut engine: Engine<KernelWorld> =
            Engine::new(KernelWorld::new(), EngineParams::default(), seed);
        let built = build_env_with(&mut engine, spec, seed, mask);
        let k = engine.world();
        (
            built.instances,
            k.instances.iter().map(|i| i.locks_allocated).sum::<u32>(),
            k.instances.iter().map(|i| i.daemons_spawned).sum::<u32>(),
        )
    });
    out.add("envsim.instances", instances as f64);
    out.add("envsim.locks_allocated", locks as f64);
    out.add("envsim.daemons_spawned", daemons as f64);
}

/// A pass's simulated results, not yet checked.
pub struct Pass {
    /// Counters gathered while the pass ran (environment builds, node
    /// runs); `check` adds the rest.
    out: PassOut,
    results: Results,
}

enum Results {
    /// Each varbench trial with its Table 2 reductions (per-site median,
    /// p99 and max).
    Sweep(Vec<Result<(RunResult, Vec<u64>), String>>),
    Tail(Vec<Result<TailResult, String>>),
    Churn(Vec<Result<ChurnSum, String>>),
    Cluster(Vec<Result<ClusterResult, String>>),
}

/// One pass over the workload's trial batch. `jobs` is the pool width;
/// with `tracer` on, trials go through `run_tasks` one public call at a
/// time with telemetry enabled, otherwise through the library's own
/// batch entry points exactly as the artifact binaries call them. The
/// output check is left to [`Pass::check`], outside the timed pass.
pub fn pass(inputs: &Inputs, jobs: usize, tracer: &Tracer, parent: u64) -> Pass {
    let traced = tracer.on();
    let mut out = PassOut::default();
    let results = match inputs {
        Inputs::Sweep {
            corpus, configs, ..
        } => {
            let results: Vec<Result<RunResult, String>> = if traced {
                for cfg in configs {
                    timed_build(tracer, parent, &mut out, &cfg.env, cfg.seed, cfg.spec);
                }
                let tasks = configs
                    .iter()
                    .map(|cfg| {
                        let cfg = RunConfig {
                            metrics: true,
                            ..*cfg
                        };
                        Box::new(move |_| ksa_varbench::run(&cfg, corpus))
                            as Task<Result<RunResult, RunError>>
                    })
                    .collect();
                pooled(tracer, parent, jobs, "varbench.run", tasks)
                    .into_iter()
                    .map(|r| r.and_then(|t| t.map_err(|e| e.to_string())))
                    .collect()
            } else {
                run_configs_jobs(configs, corpus, jobs)
                    .into_iter()
                    .map(|r| r.map_err(|e| e.to_string()))
                    .collect()
            };
            // The artifact's own reductions, the only ksa-stats work.
            Results::Sweep(tracer.span(parent, "stats.reduce", |_| {
                results
                    .into_iter()
                    .map(|r| {
                        r.map(|mut res| {
                            let mut reduced = res.per_site(None, |s| s.median());
                            reduced.extend(res.per_site(None, |s| s.p99()));
                            reduced.extend(res.per_site(None, |s| s.max()));
                            (res, reduced)
                        })
                    })
                    .collect()
            }))
        }
        Inputs::Tail { noise, points } => Results::Tail(if traced {
            for (_, cfg) in points {
                let kind = if cfg.virt {
                    EnvKind::Vm(cfg.groups)
                } else {
                    EnvKind::Container(cfg.groups)
                };
                timed_build(
                    tracer,
                    parent,
                    &mut out,
                    &EnvSpec::new(cfg.machine, kind),
                    cfg.seed,
                    cfg.spec,
                );
            }
            let tasks = points
                .iter()
                .map(|(app, cfg)| {
                    let cfg = SingleNodeConfig {
                        metrics: true,
                        ..*cfg
                    };
                    Box::new(move |_| run_single_node(app, &cfg, noise)) as Task<TailResult>
                })
                .collect();
            pooled(tracer, parent, jobs, "tailbench.run_single_node", tasks)
        } else {
            batch(points.len(), || run_points(points, noise, jobs))
        }),
        Inputs::Churn { configs } => Results::Churn(if traced {
            let tasks = configs
                .iter()
                .map(|cfg| Box::new(move |span| churn_traced(cfg, tracer, span)) as Task<ChurnSum>)
                .collect();
            pooled(tracer, parent, jobs, "tailbench.churn_trial", tasks)
        } else {
            batch(configs.len(), || run_churn_points(configs, jobs))
                .into_iter()
                .zip(configs)
                .map(|(r, cfg)| r.map(|r| ChurnSum::of(cfg, r)))
                .collect()
        }),
        Inputs::Cluster {
            noise,
            cells,
            faulted,
        } => {
            let mut results: Vec<Result<ClusterResult, String>> = Vec::new();
            for (app, cfg) in cells {
                out.add("cluster.node_runs", cfg.nodes as f64);
                let cfg = ClusterConfig {
                    threads: jobs,
                    node: SingleNodeConfig {
                        metrics: traced,
                        ..cfg.node
                    },
                    ..*cfg
                };
                results.push(if traced {
                    tracer.span(parent, "cluster.run", |run| {
                        cluster_traced(app, &cfg, noise, tracer, run)
                    })
                } else {
                    batch(1, || vec![run_cluster(app, &cfg, noise)]).remove(0)
                });
            }
            // Telemetry stays off here: the faulted run's nodes run on
            // the library's own pool, outside any trial span, so its
            // engine counters would have no host time to divide by.
            let (app, cfg, plan) = &**faulted;
            let cfg = ClusterConfig {
                threads: jobs,
                ..*cfg
            };
            let faulted_res = tracer.span(parent, "cluster.run_cluster_faulted", |_| {
                batch(1, || {
                    vec![run_cluster_faulted(
                        app,
                        &cfg,
                        noise,
                        plan,
                        &FabricConfig::quick(),
                    )]
                })
                .remove(0)
            });
            out.add("cluster.node_runs", cfg.nodes as f64);
            results.push(faulted_res);
            Results::Cluster(results)
        }
    };
    Pass { out, results }
}

impl Pass {
    /// Folds every trial's simulated results into its digest, checks
    /// churn hygiene and fabric conservation, and reads the counters.
    pub fn check(self) -> PassOut {
        let mut out = self.out;
        match self.results {
            Results::Sweep(results) => {
                for r in results {
                    match r {
                        Ok((res, reduced)) => {
                            let mut d = Digest::new();
                            d.fold(res.sim_ns);
                            for site in &res.sites {
                                for &v in site.samples.raw() {
                                    d.fold(v);
                                }
                            }
                            for v in reduced {
                                d.fold(v);
                            }
                            let samples: usize = res.sites.iter().map(|s| s.samples.len()).sum();
                            out.add("varbench.samples", samples as f64);
                            out.absorb(&res.metrics);
                            out.trial(d, res.events, None);
                        }
                        Err(e) => out.trial(Digest::new(), 0, Some(e)),
                    }
                }
            }
            Results::Tail(results) => {
                for r in results {
                    match r {
                        Ok(t) => {
                            let mut d = Digest::new();
                            d.fold(t.sim_ns);
                            d.fold(t.p99);
                            for &v in t.sojourns.raw() {
                                d.fold(v);
                            }
                            out.add("tailbench.requests", t.sojourns.len() as f64);
                            out.add("tailbench.client_retries", t.client_retries as f64);
                            out.absorb(&t.metrics);
                            out.trial(d, t.events, None);
                        }
                        Err(e) => out.trial(Digest::new(), 0, Some(e)),
                    }
                }
            }
            Results::Churn(results) => {
                for r in results {
                    match r {
                        Ok(c) => {
                            let mut d = Digest::new();
                            d.fold(c.digest);
                            let fault = (c.arrived != c.exited
                                || c.fd_open_after != 0
                                || c.sock_live_after != 0
                                || !c.tables_bounded)
                                .then(|| {
                                    format!(
                                        "churn hygiene violated: arrived {} exited {} fds_open {} \
                                         socks_live {} bounded {}",
                                        c.arrived,
                                        c.exited,
                                        c.fd_open_after,
                                        c.sock_live_after,
                                        c.tables_bounded
                                    )
                                });
                            out.add("tailbench.churn_tenants", c.arrived as f64);
                            out.add("tailbench.churn_requests", c.requests as f64);
                            out.max("tailbench.fd_peak", c.fd_peak as f64);
                            out.max("tailbench.sock_peak", c.sock_peak as f64);
                            out.add("envsim.instances", c.instances as f64);
                            out.add("envsim.locks_allocated", c.locks_allocated as f64);
                            out.add("envsim.daemons_spawned", c.daemons_spawned as f64);
                            out.absorb(&c.metrics);
                            out.trial(d, c.events, fault);
                        }
                        Err(e) => out.trial(Digest::new(), 0, Some(e)),
                    }
                }
            }
            Results::Cluster(results) => {
                for r in results {
                    match r {
                        Ok(res) => {
                            let mut d = Digest::new();
                            for &it in &res.iteration_ns {
                                d.fold(it);
                            }
                            d.fold(res.mean_node_ns);
                            let mut fault = None;
                            if let Some(rep) = &res.fabric {
                                for v in [
                                    rep.reassignments,
                                    rep.reexecs,
                                    rep.crash_detections,
                                    rep.rejoins,
                                    rep.retransmits,
                                    rep.dup_completions_dropped,
                                    rep.completions,
                                    rep.expected_completions,
                                    rep.lost_completions,
                                ] {
                                    d.fold(v);
                                }
                                out.add("cluster.retransmits", rep.retransmits as f64);
                                out.add("cluster.reassignments", rep.reassignments as f64);
                                out.add("cluster.reexecs", rep.reexecs as f64);
                                if !rep.conserved() {
                                    fault = Some(format!(
                                        "fabric conservation violated: completions {} of {} \
                                         expected, {} lost",
                                        rep.completions,
                                        rep.expected_completions,
                                        rep.lost_completions
                                    ));
                                }
                            }
                            out.absorb(&res.metrics);
                            out.trial(d, res.events, fault);
                        }
                        Err(e) => out.trial(Digest::new(), 0, Some(e)),
                    }
                }
            }
        }
        out.finish()
    }
}

/// The fields of a churn run the check and the counters use.
pub struct ChurnSum {
    digest: u64,
    events: u64,
    arrived: u64,
    exited: u64,
    requests: u64,
    fd_open_after: u64,
    sock_live_after: u64,
    tables_bounded: bool,
    fd_peak: u64,
    sock_peak: u64,
    instances: usize,
    locks_allocated: u32,
    daemons_spawned: u32,
    metrics: Registry,
}

impl ChurnSum {
    fn of(cfg: &ChurnConfig, r: ChurnResult) -> Self {
        ChurnSum {
            digest: r.digest,
            events: r.events,
            arrived: r.arrived,
            exited: r.exited,
            requests: r.requests_completed,
            fd_open_after: r.fd_open_after,
            sock_live_after: r.sock_live_after,
            tables_bounded: r.tables_bounded,
            fd_peak: r.fd_peak,
            sock_peak: r.sock_peak,
            instances: cfg.kind.instances(),
            locks_allocated: r.locks_allocated,
            daemons_spawned: r.daemons_spawned,
            metrics: Registry::disabled(),
        }
    }
}

/// One churn trial driven through its public parts — environment build,
/// tenant hosts, engine run — so each is a span of its own, with engine
/// and kernel telemetry on. The record-stream digest and the table
/// audits are the ones `run_churn` computes, so a traced trial must match
/// the untraced `run_churn` result bit for bit.
fn churn_traced(cfg: &ChurnConfig, tracer: &Tracer, parent: u64) -> ChurnSum {
    let mut engine: Engine<KernelWorld> =
        Engine::new(KernelWorld::new(), EngineParams::default(), cfg.seed);
    engine.set_telemetry(TelemetryConfig::enabled());
    engine.world_mut().kernel_mut().metrics = KernelTelemetry::new(TelemetryConfig::enabled());
    let spec = EnvSpec::new(cfg.machine, cfg.kind);
    let built = tracer.span(parent, "envsim.build_env_with", |_| {
        build_env_with(&mut engine, &spec, cfg.seed, cfg.spec)
    });
    tracer.span(parent, "envsim.spawn_churn_hosts", |_| {
        spawn_churn_hosts(&mut engine, &built, &cfg.params, cfg.seed)
    });
    let res = tracer
        .span(parent, "desim.run", |_| engine.run())
        .unwrap_or_else(|e| panic!("churn run stalled: {e}"));

    let mut digest = 0xcbf29ce484222325u64;
    let mut fold = |v: u64| digest = (digest ^ v).wrapping_mul(0x100000001b3);
    fold(res.clock);
    fold(res.events);
    let (mut arrived, mut exited, mut requests) = (0u64, 0u64, 0u64);
    for rec in &res.records {
        fold(rec.key);
        fold(rec.t);
        fold(rec.value);
        match split_key(rec.key).0 {
            COLD_START_KEY => arrived += 1,
            REQUEST_KEY => requests += 1,
            EXIT_KEY => exited += 1,
            _ => {}
        }
    }
    let mut sum = ChurnSum {
        digest,
        events: res.events,
        arrived,
        exited,
        requests,
        fd_open_after: 0,
        sock_live_after: 0,
        tables_bounded: true,
        fd_peak: 0,
        sock_peak: 0,
        instances: built.instances,
        locks_allocated: 0,
        daemons_spawned: 0,
        metrics: Registry::disabled(),
    };
    for inst in &engine.world().instances {
        sum.locks_allocated += inst.locks_allocated;
        sum.daemons_spawned += inst.daemons_spawned;
        for slot in &inst.state.slots {
            sum.fd_peak += slot.peak_open_fds;
            sum.fd_open_after += slot.open_fds;
            sum.tables_bounded &= slot.fds.len() as u64 <= slot.peak_open_fds;
        }
        let net = &inst.state.net;
        sum.sock_peak += net.peak_socks;
        sum.sock_live_after += net.live_socks;
        sum.tables_bounded &= net.socks.len() as u64 <= net.peak_socks;
    }
    let now = engine.now();
    let kernel_metrics = {
        let kw = engine.world_mut().kernel_mut();
        kw.metrics.finish(now, &kw.instances)
    };
    let mut metrics = engine.take_telemetry();
    for (label, acq, cont, wait, _max, _hist) in engine.all_lock_wait_stats() {
        let labels = [("label", label.to_string())];
        for (name, v) in [
            ("lock_acquisitions", acq),
            ("lock_contended", cont),
            ("lock_wait_ns", wait),
        ] {
            let id = metrics.counter(name, &labels);
            metrics.add(id, v);
        }
    }
    metrics.absorb(&kernel_metrics, &[]);
    sum.metrics = metrics;
    sum
}

/// One Figure 4 cell with its nodes submitted through the pool one
/// `run_node_batched` call each, folded with barrier-max semantics the
/// way `run_cluster` folds them. Node seeds follow `run_cluster`'s
/// derivation from the node index; a mismatch shows as a digest failure.
fn cluster_traced(
    app: &AppProfile,
    cfg: &ClusterConfig,
    noise: &Corpus,
    tracer: &Tracer,
    parent: u64,
) -> Result<ClusterResult, String> {
    let tasks = (0..cfg.nodes)
        .map(|node| {
            let mut node_cfg = cfg.node;
            node_cfg.seed = cfg
                .node
                .seed
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add(node as u64);
            Box::new(move |_| {
                run_node_batched(app, &node_cfg, noise, cfg.iterations, cfg.requests_per_iter)
            }) as Task<TailResult>
        })
        .collect();
    let nodes = pooled(
        tracer,
        parent,
        cfg.threads,
        "tailbench.run_node_batched",
        tasks,
    )
    .into_iter()
    .collect::<Result<Vec<TailResult>, String>>()?;
    let iteration_ns: Vec<u64> = (0..cfg.iterations as usize)
        .map(|it| {
            nodes
                .iter()
                .map(|n| n.batch_durations.get(it).copied().unwrap_or(0))
                .max()
                .unwrap_or(0)
                + cfg.barrier_ns
        })
        .collect();
    let busy: u128 = nodes
        .iter()
        .map(|n| n.batch_durations.iter().sum::<u64>() as u128)
        .sum();
    let mut metrics = Registry::disabled();
    for (i, n) in nodes.iter().enumerate() {
        metrics.absorb(&n.metrics, &[("node", i.to_string().as_str())]);
    }
    Ok(ClusterResult {
        app: app.name.to_string(),
        total_ns: iteration_ns.iter().sum(),
        iteration_ns,
        mean_node_ns: (busy / nodes.len().max(1) as u128) as u64 + cfg.barrier_ns * cfg.iterations,
        fabric: None,
        coverage: CoverageSet::new(),
        trace: TraceLog::default(),
        metrics,
        events: nodes.iter().map(|n| n.events).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ROOT;
    use ksa_core::experiments::{fig3_jobs, fig4_jobs};

    const SEED: u64 = 7;

    /// `tail_latency` is `fig3 --tiny`: its per-point p99s are the
    /// artifact's rows, cell by cell.
    #[test]
    fn tail_latency_is_fig3_at_tiny() {
        let off = Tracer::new(false);
        let inputs = setup(Workload::TailLatency, SEED, &off, ROOT);
        let Inputs::Tail { noise, .. } = &inputs else {
            unreachable!("tail_latency inputs")
        };
        let want: Vec<u64> = fig3_jobs(noise, FIG_SCALE, SEED, 2)
            .iter()
            .flat_map(|r| {
                [
                    r.kvm_isolated,
                    r.docker_isolated,
                    r.kvm_noise,
                    r.docker_noise,
                ]
            })
            .collect();
        let Results::Tail(results) = pass(&inputs, 2, &off, ROOT).results else {
            unreachable!("tail_latency results")
        };
        let got: Vec<u64> = results.into_iter().map(|r| r.unwrap().p99).collect();
        assert_eq!(got, want);
    }

    /// `cluster_bsp`'s cells are `fig4 --tiny`'s: same total runtimes,
    /// cell by cell; the faulted run comes last.
    #[test]
    fn cluster_bsp_cells_are_fig4_at_tiny() {
        let off = Tracer::new(false);
        let inputs = setup(Workload::ClusterBsp, SEED, &off, ROOT);
        let Inputs::Cluster { noise, cells, .. } = &inputs else {
            unreachable!("cluster_bsp inputs")
        };
        let want: Vec<u64> = fig4_jobs(noise, FIG_SCALE, SEED, 2)
            .iter()
            .flat_map(|r| {
                [
                    r.kvm_isolated,
                    r.docker_isolated,
                    r.kvm_noise,
                    r.docker_noise,
                ]
            })
            .collect();
        assert_eq!(cells.len(), want.len());
        let Results::Cluster(results) = pass(&inputs, 2, &off, ROOT).results else {
            unreachable!("cluster_bsp results")
        };
        let got: Vec<u64> = results
            .into_iter()
            .take(want.len())
            .map(|r| r.unwrap().total_ns)
            .collect();
        assert_eq!(got, want);
    }
}
