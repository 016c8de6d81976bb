//! Running a corpus over an environment and aggregating samples.
//!
//! The harness is **crash-proof** and **parallel**: a trial that
//! deadlocks, livelocks or panics must not take the rest of a
//! measurement campaign with it, and independent trials must not wait on
//! each other. [`run`] returns `Result` instead of panicking;
//! [`run_campaign`] executes trials concurrently on the deterministic
//! trial pool ([`ksa_desim::pool`]) with each trial isolated behind
//! `catch_unwind`, and re-runs failed trials a bounded number of times
//! under derived seeds while preserving every completed result. Worker
//! counts come from the caller (`--jobs`) or the `KSA_JOBS` environment
//! variable; `jobs == 1` is the sequential baseline, and for every
//! worker count the output vector is **bit-identical** to that baseline
//! (the engine is single-threaded per trial, so parallelism across
//! trials cannot perturb simulated time —
//! `parallel_runner_matches_sequential_bit_identically` in
//! `tests/properties.rs` pins this).

use std::sync::Arc;

use ksa_desim::{Engine, EngineParams, SimError, TraceConfig, TraceLog};
use ksa_envsim::{build_env_with, EnvSpec};
use ksa_kernel::prog::Corpus;
use ksa_kernel::world::{HasKernel, KernelWorld};
use ksa_kernel::{AttributionTable, Category, KernelTelemetry, SpecMask, SysNo};
use ksa_stats::Samples;
use ksa_telemetry::{Registry, TelemetryConfig};

use crate::contention::ContentionProfile;
use crate::worker::{site_bases, CorpusWorker};

/// One measurement run's configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The environment to deploy.
    pub env: EnvSpec,
    /// Corpus iterations (the paper uses 100).
    pub iterations: usize,
    /// Barrier-synchronize program starts across all cores (the paper's
    /// default; `false` is the ablation).
    pub sync: bool,
    /// Trial seed.
    pub seed: u64,
    /// Watchdog: abort the trial as livelocked after this many engine
    /// events (0 = unlimited). Converts a never-terminating simulation
    /// into a reportable [`RunError::Sim`] instead of a hung campaign.
    pub max_events: u64,
    /// Record a trace (per-core event rings) during the run. Strictly
    /// observational: enabling it cannot change any measured latency
    /// (the zero-observer-effect property test pins this). Latency
    /// *attribution* is always collected; this switch only governs the
    /// event rings exported as Chrome trace JSON.
    pub trace: bool,
    /// Collect telemetry (engine self-profile counters plus kernel
    /// subsystem gauges and per-category syscall series). Strictly
    /// observational like `trace`: a disabled run is bit-identical to
    /// one that never heard of telemetry (`ablation_obs` gates this).
    pub metrics: bool,
    /// Specialization mask applied to every kernel instance. `None`
    /// (and `Some(SpecMask::full())`) is the unspecialized kernel,
    /// bit-identical to a run without the field; a narrower mask gates
    /// daemons and lock footprint and turns out-of-allowlist calls into
    /// `ENOSYS` error paths.
    pub spec: Option<SpecMask>,
}

impl RunConfig {
    /// The paper's trial on `env`: barrier-synchronized starts, no
    /// watchdog, no trace, no telemetry, the unspecialized kernel.
    /// Override single fields with struct-update syntax.
    pub fn new(env: EnvSpec, iterations: usize, seed: u64) -> Self {
        Self {
            env,
            iterations,
            sync: true,
            seed,
            max_events: 0,
            trace: false,
            metrics: false,
            spec: None,
        }
    }
}

/// Why a trial failed.
#[derive(Debug)]
pub enum RunError {
    /// The simulation stopped abnormally (deadlock or watchdog-detected
    /// livelock).
    Sim(SimError),
    /// The trial panicked; the payload is the panic message.
    Panicked(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Sim(e) => write!(f, "simulation failed: {e}"),
            RunError::Panicked(msg) => write!(f, "trial panicked: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

/// One trial's final outcome under [`run_campaign`].
#[derive(Debug)]
pub struct TrialOutcome {
    /// The last attempt's result.
    pub result: Result<RunResult, RunError>,
    /// Attempts made (1 = succeeded or failed terminally first try).
    pub attempts: u32,
    /// Errors from the earlier failed attempts, in order.
    pub failures: Vec<RunError>,
}

impl TrialOutcome {
    /// The completed result, if the trial ever succeeded.
    pub fn ok(&self) -> Option<&RunResult> {
        self.result.as_ref().ok()
    }
}

/// Per-site aggregated latencies.
#[derive(Debug, Clone)]
pub struct SiteResult {
    /// Program index in the corpus.
    pub prog: usize,
    /// Call index within the program.
    pub call: usize,
    /// The syscall at this site.
    pub sysno: SysNo,
    /// All latency samples (cores × iterations).
    pub samples: Samples,
}

impl SiteResult {
    /// Whether this site belongs to `cat`.
    pub fn in_category(&self, cat: Category) -> bool {
        self.sysno.categories().contains(&cat)
    }
}

/// A completed run.
#[derive(Debug)]
pub struct RunResult {
    /// The configuration that produced it.
    pub config: RunConfig,
    /// Per-site results, ordered by (prog, call).
    pub sites: Vec<SiteResult>,
    /// Final virtual clock (run length in simulated time).
    pub sim_ns: u64,
    /// Engine events processed — the simulated-work unit the bench
    /// suite converts to events/second throughput.
    pub events: u64,
    /// Which kernel locks were contended during the run, with wait
    /// durations.
    pub contention: ContentionProfile,
    /// Per-syscall / per-category latency attribution (always collected).
    pub attrib: AttributionTable,
    /// The recorded trace (empty rings unless [`RunConfig::trace`]).
    pub trace: TraceLog,
    /// The merged telemetry registry: engine self-profile, kernel
    /// subsystem gauges, per-category syscall counters and per-label
    /// lock-wait totals (inert unless [`RunConfig::metrics`]).
    pub metrics: Registry,
}

impl RunResult {
    /// Collects one summary value per site via `f` (e.g. median or max),
    /// optionally filtered to a category.
    pub fn per_site(
        &mut self,
        cat: Option<Category>,
        f: impl Fn(&mut Samples) -> Option<u64>,
    ) -> Vec<u64> {
        self.sites
            .iter_mut()
            .filter(|s| cat.is_none_or(|c| s.in_category(c)))
            .filter_map(|s| f(&mut s.samples))
            .collect()
    }
}

/// Deploys `corpus` on `cfg.env` with one worker per core and runs to
/// completion, aggregating per-site samples.
pub fn run(cfg: &RunConfig, corpus: &Corpus) -> Result<RunResult, RunError> {
    run_hooked(cfg, corpus, |_| {})
}

/// Like [`run`], but lets the caller mutate the engine after the
/// environment is built and before workers spawn — used by ablations
/// (e.g. zeroing virtualization profiles to isolate the isolation
/// benefit from the virtualization cost, or installing a
/// [`ksa_desim::FaultPlan`] for fault-injection trials).
pub fn run_hooked(
    cfg: &RunConfig,
    corpus: &Corpus,
    hook: impl FnOnce(&mut Engine<KernelWorld>),
) -> Result<RunResult, RunError> {
    let shared = SharedCorpus::new(corpus);
    run_hooked_shared(cfg, &shared, hook)
}

/// A corpus prepared for sharing across trials: the workers' owned
/// handle plus the precomputed per-site record keys. Campaign runners
/// build this once so each trial clones an `Arc`, not the corpus.
struct SharedCorpus {
    corpus: Arc<Corpus>,
    bases: Arc<Vec<u64>>,
}

impl SharedCorpus {
    fn new(corpus: &Corpus) -> Self {
        Self {
            corpus: Arc::new(corpus.clone()),
            bases: Arc::new(site_bases(corpus)),
        }
    }
}

fn run_hooked_shared(
    cfg: &RunConfig,
    shared: &SharedCorpus,
    hook: impl FnOnce(&mut Engine<KernelWorld>),
) -> Result<RunResult, RunError> {
    let corpus = &*shared.corpus;
    let mut engine: Engine<KernelWorld> =
        Engine::new(KernelWorld::new(), EngineParams::default(), cfg.seed);
    if cfg.metrics {
        engine.set_telemetry(TelemetryConfig::enabled());
        engine.world_mut().kernel_mut().metrics = KernelTelemetry::new(TelemetryConfig::enabled());
    }
    let built = build_env_with(&mut engine, &cfg.env, cfg.seed, cfg.spec);
    if cfg.max_events > 0 {
        engine.set_event_budget(cfg.max_events);
    }
    if cfg.trace {
        engine.set_trace(TraceConfig::enabled());
    }
    hook(&mut engine);

    let barrier = cfg
        .sync
        .then(|| engine.add_barrier(built.cores.len() as u32));
    for (i, &core) in built.cores.iter().enumerate() {
        let (instance, slot) = {
            let w = engine.world().kernel();
            w.locate(core)
        };
        let worker = CorpusWorker::new(
            Arc::clone(&shared.corpus),
            Arc::clone(&shared.bases),
            cfg.iterations,
            barrier,
            core,
            instance,
            slot,
            cfg.seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(i as u64 + 1)),
        );
        engine.spawn(core, Box::new(worker), 0);
    }

    let res = engine.run()?;

    // Group records by site key.
    let n_cores = built.cores.len();
    let mut sites: Vec<SiteResult> = Vec::new();
    for (pi, p) in corpus.programs.iter().enumerate() {
        for (ci, call) in p.calls.iter().enumerate() {
            sites.push(SiteResult {
                prog: pi,
                call: ci,
                sysno: call.no,
                samples: Samples::with_capacity(n_cores * cfg.iterations),
            });
        }
    }
    for rec in &res.records {
        let idx = rec.key as usize;
        if idx < sites.len() {
            sites[idx].samples.push(rec.value);
        }
    }
    for s in &mut sites {
        s.samples.freeze();
    }
    let trace = engine.take_trace();
    let (metrics, contention) = harvest(&mut engine);
    let attrib = std::mem::take(&mut engine.world_mut().kernel_mut().attrib);
    Ok(RunResult {
        config: *cfg,
        sites,
        sim_ns: res.clock,
        events: res.events,
        contention,
        attrib,
        trace,
        metrics,
    })
}

/// The post-run harvest every trial driver shares. Closes the kernel's
/// telemetry at the final clock, takes the engine's registry and, when
/// telemetry is on, folds in each lock label's `lock_acquisitions`,
/// `lock_contended` and `lock_wait_ns` counters (the "lockstat" view of
/// software interference) before absorbing the kernel series. The same
/// pass over the engine's locks fills the contention profile.
pub fn harvest<W: HasKernel>(engine: &mut Engine<W>) -> (Registry, ContentionProfile) {
    let now = engine.now();
    let kernel_metrics = {
        let kw = engine.world_mut().kernel_mut();
        kw.metrics.finish(now, &kw.instances)
    };
    let mut metrics = engine.take_telemetry();
    let mut contention = ContentionProfile::default();
    for (label, acq, cont, total_wait, max_wait, _hist) in engine.all_lock_wait_stats() {
        contention.add_waits(label, acq, cont, total_wait, max_wait);
        if metrics.enabled() {
            let labels = [("label", label.to_string())];
            for (name, v) in [
                ("lock_acquisitions", acq),
                ("lock_contended", cont),
                ("lock_wait_ns", total_wait),
            ] {
                let id = metrics.counter(name, &labels);
                metrics.add(id, v);
            }
        }
    }
    metrics.absorb(&kernel_metrics, &[]);
    (metrics, contention)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// [`run_campaign`] without a hook or retries, results only. The
/// benchmark package (`perfbench/`) calls it by this name.
pub fn run_configs_jobs(
    configs: &[RunConfig],
    corpus: &Corpus,
    jobs: usize,
) -> Vec<Result<RunResult, RunError>> {
    run_campaign(configs, corpus, jobs, 0, &|_, _| {})
        .into_iter()
        .map(|o| o.result)
        .collect()
}

/// SplitMix64 finalizer, used to derive retry seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// The campaign runner: runs every configuration as one trial on the
/// deterministic trial pool (`jobs` workers; `0` = auto, `1` = strictly
/// sequential on the calling thread), outcomes in input order.
///
/// * `hook(i, &mut engine)` runs on trial `i`'s engine after the
///   environment is built and before workers spawn — how a campaign
///   installs [`ksa_desim::FaultPlan`]s or ablation overrides on
///   specific trials. It always receives the trial's *input* index, on
///   every attempt, and must be `Sync`: all pool workers share it.
/// * Each trial is panic-isolated: a panic becomes
///   [`RunError::Panicked`] in that trial's slot, and the other trials
///   complete.
/// * Failed trials are retried up to `max_retries` times under derived
///   seeds (`seed ^ splitmix64(attempt)`), so a seed-dependent pathology
///   doesn't permanently lose the trial. Retries re-run only the failed
///   indices, completed trials are never re-run, and every earlier
///   attempt's error is kept for the report.
///
/// Every worker count produces a bit-identical outcome vector: the
/// engine is single-threaded per trial, results land in index-addressed
/// slots, and retry seeds derive from the input config, never from
/// execution order.
pub fn run_campaign<H>(
    configs: &[RunConfig],
    corpus: &Corpus,
    jobs: usize,
    max_retries: u32,
    hook: &H,
) -> Vec<TrialOutcome>
where
    H: Fn(usize, &mut Engine<KernelWorld>) + Sync,
{
    let shared = SharedCorpus::new(corpus);
    let run_batch = |indices: &[usize], attempt: u32| {
        let shared = &shared;
        let tasks: Vec<_> = indices
            .iter()
            .map(|&i| {
                let mut cfg = configs[i];
                if attempt > 0 {
                    cfg.seed ^= splitmix64(attempt as u64);
                }
                move || run_hooked_shared(&cfg, shared, |engine| hook(i, engine))
            })
            .collect();
        ksa_desim::pool::run_tasks(jobs, tasks)
            .into_iter()
            .map(|r| match r {
                Ok(res) => res,
                // The pool already ran the trial under catch_unwind; a
                // payload here is the trial's own panic. Report it in the
                // trial's slot rather than propagating.
                Err(payload) => Err(RunError::Panicked(panic_message(payload.as_ref()))),
            })
            .collect::<Vec<_>>()
    };
    let all: Vec<usize> = (0..configs.len()).collect();
    let mut outcomes: Vec<TrialOutcome> = run_batch(&all, 0)
        .into_iter()
        .map(|result| TrialOutcome {
            result,
            attempts: 1,
            failures: Vec::new(),
        })
        .collect();
    for n in 1..=max_retries {
        let failed: Vec<usize> = (0..outcomes.len())
            .filter(|&i| outcomes[i].result.is_err())
            .collect();
        if failed.is_empty() {
            break;
        }
        for (&i, result) in failed.iter().zip(run_batch(&failed, n)) {
            let o = &mut outcomes[i];
            if let Err(e) = std::mem::replace(&mut o.result, result) {
                o.failures.push(e);
            }
            o.attempts += 1;
        }
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksa_envsim::{EnvKind, Machine};
    use ksa_kernel::{Arg, Call, Program};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn tiny_corpus() -> Corpus {
        Corpus {
            programs: vec![
                Program {
                    calls: vec![
                        Call::new(SysNo::Open, vec![Arg::Const(1), Arg::Const(1)]),
                        Call::new(SysNo::Write, vec![Arg::Ref(0), Arg::Const(8192)]),
                        Call::new(SysNo::Fsync, vec![Arg::Ref(0)]),
                        Call::new(SysNo::Close, vec![Arg::Ref(0)]),
                    ],
                },
                Program {
                    calls: vec![
                        Call::new(SysNo::Mmap, vec![Arg::Const(32), Arg::Const(1)]),
                        Call::new(SysNo::Munmap, vec![Arg::Ref(0)]),
                    ],
                },
                Program {
                    calls: vec![
                        Call::new(SysNo::Getpid, vec![]),
                        Call::new(SysNo::SchedYield, vec![]),
                    ],
                },
            ],
        }
    }

    fn cfg(kind: EnvKind, iters: usize) -> RunConfig {
        let machine = Machine {
            cores: 4,
            mem_mib: 1024,
        };
        RunConfig::new(EnvSpec::new(machine, kind), iters, 99)
    }

    fn no_hook(_: usize, _: &mut Engine<KernelWorld>) {}

    #[test]
    fn run_collects_all_samples() {
        let corpus = tiny_corpus();
        let res = run(&cfg(EnvKind::Native, 5), &corpus).unwrap();
        assert_eq!(res.sites.len(), 8);
        for s in &res.sites {
            assert_eq!(
                s.samples.len(),
                4 * 5,
                "site {}/{} ({}) should have cores×iters samples",
                s.prog,
                s.call,
                s.sysno.name()
            );
        }
        assert!(res.sim_ns > 0);
    }

    #[test]
    fn sync_serializes_program_starts() {
        // With sync on, all cores execute program boundaries together;
        // latencies for the contended fsync site should exceed the
        // unsynced case on average (contention is concentrated).
        let corpus = tiny_corpus();
        let mut synced = run(&cfg(EnvKind::Native, 10), &corpus).unwrap();
        let mut unsynced = run(
            &RunConfig {
                sync: false,
                ..cfg(EnvKind::Native, 10)
            },
            &corpus,
        )
        .unwrap();
        // Just verify both produce complete data and the synced run is
        // not faster in total (barriers serialize).
        assert!(synced.sim_ns >= unsynced.sim_ns / 4);
        let s_med = synced.per_site(None, |s| s.median());
        let u_med = unsynced.per_site(None, |s| s.median());
        assert_eq!(s_med.len(), u_med.len());
    }

    #[test]
    fn vm_env_runs_and_isolates() {
        let corpus = tiny_corpus();
        let res = run(&cfg(EnvKind::Vm(4), 5), &corpus).unwrap();
        assert_eq!(res.sites.len(), 8);
        for s in &res.sites {
            assert_eq!(s.samples.len(), 20);
        }
    }

    #[test]
    fn container_env_runs() {
        let corpus = tiny_corpus();
        let res = run(&cfg(EnvKind::Container(4), 3), &corpus).unwrap();
        assert_eq!(res.sites[0].samples.len(), 12);
    }

    #[test]
    fn per_site_filters_by_category() {
        let corpus = tiny_corpus();
        let mut res = run(&cfg(EnvKind::Native, 2), &corpus).unwrap();
        let mm = res.per_site(Some(Category::Memory), |s| s.median());
        assert_eq!(mm.len(), 2, "mmap + munmap");
        let all = res.per_site(None, |s| s.median());
        assert_eq!(all.len(), 8);
    }

    #[test]
    fn attribution_is_collected_and_exact() {
        let corpus = tiny_corpus();
        let res = run(&cfg(EnvKind::Native, 3), &corpus).unwrap();
        // 8 sites × 4 cores × 3 iterations.
        assert_eq!(res.attrib.calls(), 8 * 4 * 3);
        let grand = res.attrib.grand_total();
        assert!(grand.total > 0);
        assert!(grand.is_exact(), "components must sum to total");
        for (no, (calls, agg)) in res.attrib.by_sysno() {
            assert!(*calls > 0);
            assert!(agg.is_exact(), "{}: inexact aggregate", no.name());
        }
        // fsync under sync pressure contends the journal; wait durations
        // must show up both per label and in the component totals.
        assert!(res.attrib.grand_total().lock_wait > 0);
        assert!(!res.attrib.lock_wait_by_label.is_empty());
    }

    #[test]
    fn contention_profile_reports_wait_durations() {
        let corpus = tiny_corpus();
        let res = run(&cfg(EnvKind::Native, 5), &corpus).unwrap();
        assert!(
            res.contention.total_wait_ns() > 0,
            "4 synced cores must queue somewhere"
        );
        let hot = res.contention.hotspots();
        // Worst-first by duration.
        for w in hot.windows(2) {
            assert!(
                (w[0].1.total_wait_ns, w[0].1.contended)
                    >= (w[1].1.total_wait_ns, w[1].1.contended)
            );
        }
        // The attribution table's per-label waits sum to its own
        // lock-wait component.
        let attrib_wait: u64 = res.attrib.lock_wait_by_label.values().sum();
        assert_eq!(attrib_wait, res.attrib.grand_total().lock_wait);
        assert!(attrib_wait > 0, "bracketed syscalls must wait somewhere");
        // Both views are fed by the same grant (`Engine::grant` hands one
        // wait to the lock's lockstat counters and to the waiter's latency
        // breakdown), but the table only sees waits inside bracketed
        // syscalls while lockstat also counts daemons. So per label the
        // table is bounded by the engine-level profile, not equal to it.
        for (label, &wait) in &res.attrib.lock_wait_by_label {
            let lockstat = res
                .contention
                .by_label
                .get(label)
                .unwrap_or_else(|| panic!("{label} waited but has no lockstat entry"));
            assert!(
                wait <= lockstat.total_wait_ns,
                "{label}: table {wait} ns > lockstat {} ns",
                lockstat.total_wait_ns
            );
        }
    }

    #[test]
    fn tracing_is_observationally_neutral_and_records() {
        let corpus = tiny_corpus();
        let off = run(&cfg(EnvKind::Vm(2), 2), &corpus).unwrap();
        let on = run(
            &RunConfig {
                trace: true,
                ..cfg(EnvKind::Vm(2), 2)
            },
            &corpus,
        )
        .unwrap();
        assert_eq!(off.sim_ns, on.sim_ns, "tracing must not perturb timing");
        for (a, b) in off.sites.iter().zip(&on.sites) {
            assert_eq!(a.samples.raw(), b.samples.raw());
        }
        assert_eq!(off.trace.total_events(), 0);
        assert!(on.trace.total_events() > 0);
        // The rings carry kernel-layer syscall marks, not just engine
        // events.
        assert!(on
            .trace
            .merged()
            .iter()
            .any(|e| matches!(e.kind, ksa_desim::TraceEventKind::Syscall { .. })));
    }

    #[test]
    fn runs_are_deterministic() {
        let corpus = tiny_corpus();
        let a = run(&cfg(EnvKind::Native, 3), &corpus).unwrap();
        let b = run(&cfg(EnvKind::Native, 3), &corpus).unwrap();
        assert_eq!(a.sim_ns, b.sim_ns);
        for (x, y) in a.sites.iter().zip(&b.sites) {
            assert_eq!(x.samples.raw(), y.samples.raw());
        }
    }

    #[test]
    fn parallel_configs_match_serial() {
        let corpus = tiny_corpus();
        let cfgs = [cfg(EnvKind::Native, 2), cfg(EnvKind::Vm(2), 2)];
        let par = run_configs_jobs(&cfgs, &corpus, 0);
        let ser: Vec<RunResult> = cfgs.iter().map(|c| run(c, &corpus).unwrap()).collect();
        for (p, s) in par.iter().zip(&ser) {
            assert_eq!(p.as_ref().unwrap().sim_ns, s.sim_ns);
        }
    }

    #[test]
    fn watchdog_reports_stalled_instead_of_hanging() {
        let corpus = tiny_corpus();
        let res = run(
            &RunConfig {
                max_events: 50,
                ..cfg(EnvKind::Native, 5)
            },
            &corpus,
        );
        match res {
            Err(RunError::Sim(SimError::Stalled { events, .. })) => {
                assert_eq!(events, 50);
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn one_stalled_trial_does_not_lose_the_others() {
        // The acceptance scenario: a campaign where one trial livelocks
        // (here: killed by a tiny event budget) must still complete and
        // return full results for every other trial.
        let corpus = tiny_corpus();
        let cfgs = [
            cfg(EnvKind::Native, 2),
            RunConfig {
                max_events: 50,
                ..cfg(EnvKind::Vm(2), 2)
            },
            cfg(EnvKind::Container(4), 2),
        ];
        let results = run_configs_jobs(&cfgs, &corpus, 0);
        assert_eq!(results.len(), 3);
        let ok = results[0].as_ref().unwrap();
        assert_eq!(ok.sites.len(), 8);
        assert!(ok.sites.iter().all(|s| s.samples.len() == 4 * 2));
        assert!(matches!(
            results[1],
            Err(RunError::Sim(SimError::Stalled { .. }))
        ));
        let ok = results[2].as_ref().unwrap();
        assert_eq!(ok.sites.len(), 8);
        assert!(ok.sites.iter().all(|s| s.samples.len() == 4 * 2));
    }

    #[test]
    fn retry_reruns_only_failures_and_keeps_their_history() {
        let corpus = tiny_corpus();
        let cfgs = [
            cfg(EnvKind::Native, 2),
            RunConfig {
                max_events: 50,
                ..cfg(EnvKind::Native, 2)
            },
        ];
        let outcomes = run_campaign(&cfgs, &corpus, 0, 2, &no_hook);
        assert_eq!(outcomes.len(), 2);
        // Trial 0 succeeded first try; no retries, no recorded failures.
        assert_eq!(outcomes[0].attempts, 1);
        assert!(outcomes[0].failures.is_empty());
        assert!(outcomes[0].ok().is_some());
        // Trial 1 keeps stalling (the budget retries with it) and records
        // every attempt.
        assert_eq!(outcomes[1].attempts, 3);
        assert_eq!(outcomes[1].failures.len(), 2);
        assert!(outcomes[1].result.is_err());
        // Retry seeds are derived, not repeated.
        assert_ne!(
            cfgs[1].seed,
            cfgs[1].seed ^ super::splitmix64(1),
            "retry must change the seed"
        );
    }

    #[test]
    fn retry_outcomes_map_one_to_one_to_input_indices() {
        // Mixed pass/fail campaign with per-trial distinguishable
        // configs: every outcome must sit in the slot of the config that
        // produced it — pass/fail pattern, env kind and iteration count
        // all have to line up, sequentially and on the pool alike.
        let corpus = tiny_corpus();
        let cfgs = [
            RunConfig {
                seed: 101,
                ..cfg(EnvKind::Native, 2)
            },
            RunConfig {
                max_events: 50,
                seed: 102,
                ..cfg(EnvKind::Vm(2), 3)
            },
            RunConfig {
                seed: 103,
                ..cfg(EnvKind::Container(4), 4)
            },
            RunConfig {
                max_events: 50,
                seed: 104,
                ..cfg(EnvKind::Native, 5)
            },
            RunConfig {
                seed: 105,
                ..cfg(EnvKind::Vm(4), 6)
            },
        ];
        for jobs in [1usize, 4] {
            let outcomes = run_campaign(&cfgs, &corpus, jobs, 1, &no_hook);
            assert_eq!(outcomes.len(), cfgs.len(), "jobs={jobs}");
            for (i, (o, input)) in outcomes.iter().zip(&cfgs).enumerate() {
                if input.max_events > 0 {
                    // Budget-killed trials fail on every derived seed.
                    assert!(o.result.is_err(), "jobs={jobs}: slot {i} should fail");
                    assert_eq!(o.attempts, 2, "jobs={jobs}: slot {i} retried once");
                } else {
                    let res = o
                        .ok()
                        .unwrap_or_else(|| panic!("jobs={jobs}: slot {i} failed"));
                    assert_eq!(o.attempts, 1, "jobs={jobs}: slot {i}");
                    // The result's embedded config identifies the input.
                    assert_eq!(res.config.seed, input.seed, "jobs={jobs}: slot {i}");
                    assert_eq!(res.config.env.kind, input.env.kind, "jobs={jobs}: slot {i}");
                    assert_eq!(
                        res.config.iterations, input.iterations,
                        "jobs={jobs}: slot {i}"
                    );
                    assert!(res
                        .sites
                        .iter()
                        .all(|s| s.samples.len() == 4 * input.iterations));
                }
            }
        }
    }

    #[test]
    fn jobs_counts_produce_identical_outcome_vectors() {
        let corpus = tiny_corpus();
        let cfgs = [
            cfg(EnvKind::Native, 2),
            RunConfig {
                max_events: 50,
                ..cfg(EnvKind::Vm(2), 2)
            },
            cfg(EnvKind::Container(2), 3),
        ];
        let seq = run_configs_jobs(&cfgs, &corpus, 1);
        for jobs in [2usize, 4, 0] {
            let par = run_configs_jobs(&cfgs, &corpus, jobs);
            for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
                match (a, b) {
                    (Ok(x), Ok(y)) => {
                        assert_eq!(x.sim_ns, y.sim_ns, "jobs={jobs}: slot {i}");
                        assert_eq!(x.events, y.events, "jobs={jobs}: slot {i}");
                        for (sa, sb) in x.sites.iter().zip(&y.sites) {
                            assert_eq!(sa.samples.raw(), sb.samples.raw());
                        }
                    }
                    (Err(RunError::Sim(x)), Err(RunError::Sim(y))) => {
                        assert_eq!(x, y, "jobs={jobs}: slot {i}")
                    }
                    other => panic!("jobs={jobs}: slot {i} diverged: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn poisoned_trial_is_isolated_from_pool_siblings() {
        // A hook that panics on one trial must surface as Panicked in
        // that slot only; sibling trials on the same workers complete.
        let corpus = tiny_corpus();
        let cfgs = [
            cfg(EnvKind::Native, 2),
            cfg(EnvKind::Vm(2), 2),
            cfg(EnvKind::Container(2), 2),
            cfg(EnvKind::Native, 3),
        ];
        for jobs in [1usize, 3] {
            let outcomes = run_campaign(&cfgs, &corpus, jobs, 0, &|i, _| {
                if i == 1 {
                    panic!("poisoned trial {i}");
                }
            });
            assert_eq!(outcomes.len(), 4);
            for (i, o) in outcomes.iter().enumerate() {
                let r = &o.result;
                if i == 1 {
                    match r {
                        Err(RunError::Panicked(msg)) => {
                            assert!(msg.contains("poisoned trial 1"), "jobs={jobs}: {msg}")
                        }
                        other => panic!("jobs={jobs}: expected panic slot, got {other:?}"),
                    }
                } else {
                    let ok = r
                        .as_ref()
                        .unwrap_or_else(|e| panic!("jobs={jobs}: sibling {i} lost: {e}"));
                    assert_eq!(ok.sites.len(), 8, "jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn retried_success_is_kept() {
        // A trial whose failure is seed-independent keeps failing; one
        // with a sane config succeeds on attempt 1 and is never re-run.
        // Here we check the bookkeeping when everything succeeds.
        let corpus = tiny_corpus();
        let outcomes = run_campaign(&[cfg(EnvKind::Native, 2)], &corpus, 0, 3, &no_hook);
        assert_eq!(outcomes[0].attempts, 1);
        assert!(outcomes[0].ok().is_some());
    }

    #[test]
    fn retries_hand_the_hook_the_input_index() {
        // Slot 1 fails on every seed; its retries must reach the hook as
        // index 1, not as its position 0 in the retry batch.
        let corpus = tiny_corpus();
        let cfgs = [
            cfg(EnvKind::Native, 2),
            RunConfig {
                max_events: 50,
                ..cfg(EnvKind::Native, 2)
            },
        ];
        for jobs in [1usize, 2] {
            let seen = std::sync::Mutex::new(Vec::new());
            let outcomes = run_campaign(&cfgs, &corpus, jobs, 2, &|i, _| {
                seen.lock().unwrap().push(i);
            });
            assert_eq!(outcomes[1].attempts, 3, "jobs={jobs}");
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            assert_eq!(seen, [0, 1, 1, 1], "jobs={jobs}");
        }
    }

    #[test]
    fn metrics_are_observationally_neutral() {
        // The ablation_obs gate in unit-test form: a metered run must be
        // bit-identical to an unmetered one — same clock, same samples,
        // same event count.
        let corpus = tiny_corpus();
        let off = run(&cfg(EnvKind::Vm(2), 2), &corpus).unwrap();
        let on = run(
            &RunConfig {
                metrics: true,
                ..cfg(EnvKind::Vm(2), 2)
            },
            &corpus,
        )
        .unwrap();
        assert_eq!(off.sim_ns, on.sim_ns, "telemetry must not perturb timing");
        assert_eq!(off.events, on.events, "telemetry must not add events");
        for (a, b) in off.sites.iter().zip(&on.sites) {
            assert_eq!(a.samples.raw(), b.samples.raw());
        }
        assert!(!off.metrics.enabled());
        assert_eq!(off.metrics.metrics().len(), 0);
        assert!(on.metrics.enabled());
        assert!(on.metrics.samples_taken >= 1);
    }

    #[test]
    fn metrics_totals_equal_the_attribution_table() {
        // Exact-sum gate: per-category syscall_ns/syscall_calls series
        // must mirror the attribution table to the nanosecond, and the
        // engine's own dispatch counter must equal the processed count.
        let corpus = tiny_corpus();
        let res = run(
            &RunConfig {
                metrics: true,
                ..cfg(EnvKind::Native, 3)
            },
            &corpus,
        )
        .unwrap();
        let grand = res.attrib.grand_total();
        assert_eq!(res.metrics.total("syscall_ns"), grand.total);
        assert_eq!(res.metrics.total("syscall_calls"), res.attrib.calls());
        for (cat, (calls, agg)) in res.attrib.by_category() {
            let label = [("category", cat.name())];
            assert_eq!(
                res.metrics.value_of("syscall_calls", &label),
                Some(*calls),
                "{cat:?}: call count"
            );
            assert_eq!(
                res.metrics.value_of("syscall_ns", &label),
                Some(agg.total),
                "{cat:?}: total ns"
            );
        }
        // Engine self-profile rode along in the same registry.
        assert_eq!(res.metrics.total("engine_events_dispatched"), res.events);
        // Lock-wait fold matches the engine's contention profile (both
        // are read from the same per-lock grant bookkeeping).
        assert_eq!(
            res.metrics.total("lock_wait_ns"),
            res.contention.total_wait_ns()
        );
    }

    #[test]
    fn panic_isolation_reports_message() {
        // Force a panic through the public isolation path by driving a
        // corpus with an out-of-range Ref argument resolved against an
        // empty result list — dispatch itself must not panic, so panic
        // via the watchdog-free harness instead: use catch_unwind on a
        // deliberately panicking closure to exercise panic_message.
        let msg = match catch_unwind(AssertUnwindSafe(|| -> Result<(), RunError> {
            panic!("boom {}", 42);
        })) {
            Ok(_) => unreachable!(),
            Err(payload) => panic_message(payload.as_ref()),
        };
        assert_eq!(msg, "boom 42");
    }
}
