//! The traced run's report: per-layer metrics from spans and counters,
//! a per-layer self-time table with every ratio printed beside its base,
//! and the span file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use ksa_json::Value;
use ksa_kernel::prog::Corpus;
use ksa_syzgen::Sandbox;

use crate::median;
use crate::trace::{self, Span};
use crate::workloads::{Inputs, PassOut, Workload};

/// Every per-layer metric, `(name, unit)`, in report order. Each traced
/// run emits all of them; a layer a workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("syzgen.generate_s", "s"),
    ("syzgen.executed", "count"),
    ("syzgen.accepted", "count"),
    ("syzgen.accept_ratio", "ratio"),
    ("syzgen.blocks", "count"),
    ("spec.derive_s", "s"),
    ("envsim.build_s", "s"),
    ("envsim.instances", "count"),
    ("envsim.locks_allocated", "count"),
    ("envsim.daemons_spawned", "count"),
    ("desim.events", "count"),
    ("desim.events_scheduled", "count"),
    ("desim.process_wakes", "count"),
    ("desim.processes_spawned", "count"),
    ("desim.timer_ticks", "count"),
    ("desim.queue_peak", "count"),
    ("desim.host_ns_per_event", "ns"),
    ("pool.batch_s", "s"),
    ("pool.busy_s", "s"),
    ("pool.idle_s", "s"),
    ("pool.efficiency", "ratio"),
    ("pool.critical_trial_s", "s"),
    ("kernel.syscalls", "count"),
    ("kernel.syscalls.process_sched", "count"),
    ("kernel.syscalls.memory", "count"),
    ("kernel.syscalls.file_io", "count"),
    ("kernel.syscalls.filesystem", "count"),
    ("kernel.syscalls.ipc", "count"),
    ("kernel.syscalls.permissions", "count"),
    ("kernel.syscalls.network", "count"),
    ("kernel.lock_acquisitions", "count"),
    ("kernel.lock_contended", "count"),
    ("kernel.contended_ratio", "ratio"),
    ("kernel.lock_wait_sim_ns", "sim_ns"),
    ("kernel.host_ns_per_syscall", "ns"),
    ("kernel.sandbox_ns_per_call", "ns"),
    ("varbench.trials", "count"),
    ("varbench.trial_p50_s", "s"),
    ("varbench.trial_max_s", "s"),
    ("varbench.samples", "count"),
    ("tailbench.trials", "count"),
    ("tailbench.trial_p50_s", "s"),
    ("tailbench.trial_max_s", "s"),
    ("tailbench.requests", "count"),
    ("tailbench.client_retries", "count"),
    ("tailbench.churn_trial_max_s", "s"),
    ("tailbench.churn_tenants", "count"),
    ("tailbench.churn_requests", "count"),
    ("tailbench.fd_peak", "count"),
    ("tailbench.sock_peak", "count"),
    ("cluster.runs", "count"),
    ("cluster.run_p50_s", "s"),
    ("cluster.run_max_s", "s"),
    ("cluster.node_runs", "count"),
    ("cluster.retransmits", "count"),
    ("cluster.reassignments", "count"),
    ("cluster.reexecs", "count"),
    ("stats.reduce_s", "s"),
    ("core.cold_extra_s", "s"),
    ("telemetry.overhead_ratio", "ratio"),
];

/// Host nanoseconds per syscall of the kernel's dispatch alone: the
/// corpus replayed through a one-core sandbox, no engine, for at least
/// 50 ms.
pub fn sandbox_ns_per_call(corpus: &Corpus) -> f64 {
    let calls: usize = corpus.programs.iter().map(|p| p.calls.len()).sum();
    if calls == 0 {
        return 0.0;
    }
    let mut sandbox = Sandbox::new(0);
    let t0 = Instant::now();
    let mut rounds = 0u64;
    while rounds == 0 || t0.elapsed().as_millis() < 50 {
        for prog in &corpus.programs {
            std::hint::black_box(sandbox.run_fresh(std::hint::black_box(prog)));
        }
        rounds += 1;
    }
    t0.elapsed().as_nanos() as f64 / (rounds as f64 * calls as f64)
}

/// What the traced run measured, handed to the report.
pub struct RunFacts<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub jobs: usize,
    pub inputs: &'a Inputs,
    pub setup_spans: &'a [Span],
    /// Per traced pass: wall seconds, outcome, spans.
    pub traced: &'a [(f64, PassOut, Vec<Span>)],
    pub untraced_wall_s: f64,
    pub cold_extra_s: f64,
    pub sandbox_ns_per_call: f64,
}

/// One layer's row: self time and span count per pass (medians over the
/// traced passes).
struct LayerRow {
    self_s: f64,
    spans: f64,
}

pub struct Report {
    workload: Workload,
    seed: u64,
    jobs: usize,
    values: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, LayerRow>,
    spans_json: Value,
    traced_wall_s: f64,
    untraced_wall_s: f64,
    passes: usize,
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Per-layer self-time sums and span counts of one group of spans.
fn layer_sums(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64)> {
    let mut sums: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(trace::self_times(spans)) {
        let e = sums.entry(s.layer()).or_default();
        e.0 += secs(self_ns);
        e.1 += 1.0;
    }
    sums
}

/// Metrics one traced pass yields: its counters plus what its spans time.
fn pass_metrics(out: &PassOut, spans: &[Span], jobs: usize) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = out.counts.clone();
    let durs = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| secs(s.dur_ns()))
            .collect()
    };
    let batches: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "pool.run_tasks")
        .collect();
    // Sums are taken in integer nanoseconds: an empty f64 sum is -0.0.
    let batch_s = secs(batches.iter().map(|s| s.dur_ns()).sum());
    let trial_ns: Vec<u64> = spans
        .iter()
        .filter(|s| batches.iter().any(|b| b.id == s.parent))
        .map(|s| s.dur_ns())
        .collect();
    let busy_s = secs(trial_ns.iter().sum());
    let capacity_s = jobs as f64 * batch_s;
    m.insert("pool.batch_s", batch_s);
    m.insert("pool.busy_s", busy_s);
    m.insert("pool.idle_s", capacity_s - busy_s);
    m.insert("pool.efficiency", ratio(busy_s, capacity_s));
    m.insert(
        "pool.critical_trial_s",
        secs(trial_ns.iter().copied().max().unwrap_or(0)),
    );
    let events = m.get("desim.events").copied().unwrap_or(0.0);
    let syscalls = m.get("kernel.syscalls").copied().unwrap_or(0.0);
    m.insert("desim.host_ns_per_event", ratio(busy_s * 1e9, events));
    m.insert("kernel.host_ns_per_syscall", ratio(busy_s * 1e9, syscalls));
    let acq = m.get("kernel.lock_acquisitions").copied().unwrap_or(0.0);
    let cont = m.get("kernel.lock_contended").copied().unwrap_or(0.0);
    m.insert("kernel.contended_ratio", ratio(cont, acq));
    let layer_ns = |layer: &str| -> u64 {
        spans
            .iter()
            .filter(|s| s.layer() == layer)
            .map(|s| s.dur_ns())
            .sum()
    };
    m.insert("envsim.build_s", secs(layer_ns("envsim")));
    m.insert("stats.reduce_s", secs(layer_ns("stats")));

    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    let var = durs("varbench.run");
    m.insert("varbench.trials", var.len() as f64);
    m.insert("varbench.trial_p50_s", median(&var));
    m.insert("varbench.trial_max_s", max(&var));
    let mut tail = durs("tailbench.run_single_node");
    tail.extend(durs("tailbench.run_node_batched"));
    m.insert("tailbench.trials", tail.len() as f64);
    m.insert("tailbench.trial_p50_s", median(&tail));
    m.insert("tailbench.trial_max_s", max(&tail));
    m.insert(
        "tailbench.churn_trial_max_s",
        max(&durs("tailbench.churn_trial")),
    );
    let mut runs = durs("cluster.run");
    runs.extend(durs("cluster.run_cluster_faulted"));
    m.insert("cluster.runs", runs.len() as f64);
    m.insert("cluster.run_p50_s", median(&runs));
    m.insert("cluster.run_max_s", max(&runs));
    m
}

impl Report {
    pub fn build(f: RunFacts) -> Report {
        let passes: Vec<BTreeMap<&'static str, f64>> = f
            .traced
            .iter()
            .map(|(_, out, spans)| pass_metrics(out, spans, f.jobs))
            .collect();
        let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (name, _) in PER_LAYER {
            let v: Vec<f64> = passes
                .iter()
                .map(|p| p.get(name).copied().unwrap_or(0.0))
                .collect();
            values.insert(name, median(&v));
        }

        // Set-up layers: median over the set-up repetitions.
        let reps: Vec<BTreeMap<&'static str, (f64, f64)>> = f
            .setup_spans
            .iter()
            .filter(|s| s.name == "core.setup")
            .map(|root| {
                let kids: Vec<Span> = f
                    .setup_spans
                    .iter()
                    .filter(|s| s.parent == root.id)
                    .cloned()
                    .collect();
                layer_sums(&kids)
            })
            .collect();
        let setup_layer = |layer: &str| -> f64 {
            let v: Vec<f64> = reps
                .iter()
                .map(|r| r.get(layer).map_or(0.0, |e| e.0))
                .collect();
            median(&v)
        };
        values.insert("syzgen.generate_s", setup_layer("syzgen"));
        values.insert("spec.derive_s", setup_layer("spec"));
        if let Inputs::Sweep { stats, .. } = f.inputs {
            values.insert("syzgen.executed", stats.executed as f64);
            values.insert("syzgen.accepted", stats.accepted as f64);
            values.insert(
                "syzgen.accept_ratio",
                ratio(stats.accepted as f64, stats.executed as f64),
            );
            values.insert("syzgen.blocks", stats.blocks as f64);
        }
        values.insert("kernel.sandbox_ns_per_call", f.sandbox_ns_per_call);
        values.insert("core.cold_extra_s", f.cold_extra_s);
        let walls: Vec<f64> = f.traced.iter().map(|(w, _, _)| *w).collect();
        let traced_wall_s = median(&walls);
        values.insert(
            "telemetry.overhead_ratio",
            ratio(traced_wall_s, f.untraced_wall_s),
        );

        // Layer table: traced passes, plus the set-up layers.
        let per_pass: Vec<BTreeMap<&'static str, (f64, f64)>> =
            f.traced.iter().map(|(_, _, s)| layer_sums(s)).collect();
        let mut layers: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
        let names: std::collections::BTreeSet<&'static str> =
            per_pass.iter().flat_map(|p| p.keys().copied()).collect();
        for layer in names {
            let pick = |i: usize| -> Vec<f64> {
                per_pass
                    .iter()
                    .map(|p| p.get(layer).map_or(0.0, |e| if i == 0 { e.0 } else { e.1 }))
                    .collect()
            };
            layers.insert(
                layer,
                LayerRow {
                    self_s: median(&pick(0)),
                    spans: median(&pick(1)),
                },
            );
        }

        let mut all_spans: Vec<Value> = vec![Value::object([
            ("phase", Value::str("setup")),
            ("spans", trace::to_json(f.setup_spans)),
        ])];
        for (i, (_, _, spans)) in f.traced.iter().enumerate() {
            all_spans.push(Value::object([
                ("phase", Value::str(format!("traced_pass_{i}"))),
                ("spans", trace::to_json(spans)),
            ]));
        }
        Report {
            workload: f.workload,
            seed: f.seed,
            jobs: f.jobs,
            values,
            layers,
            spans_json: Value::array(all_spans),
            traced_wall_s,
            untraced_wall_s: f.untraced_wall_s,
            passes: f.traced.len(),
        }
    }

    fn v(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The per-layer table, every ratio shown with its base.
    pub fn table(&self) -> String {
        let mut t = String::new();
        let _ = writeln!(
            t,
            "{} seed {}: per-layer self time, median of {} traced passes on {} workers",
            self.workload.name(),
            self.seed,
            self.passes,
            self.jobs
        );
        let _ = writeln!(t, "  {:<10} {:>12} {:>10}", "layer", "self_s/pass", "spans");
        for (layer, row) in &self.layers {
            let _ = writeln!(t, "  {layer:<10} {:>12.6} {:>10}", row.self_s, row.spans);
        }
        let _ = writeln!(
            t,
            "  set-up: syzgen {:.6} s, spec {:.6} s (median of set-up repetitions)",
            self.v("syzgen.generate_s"),
            self.v("spec.derive_s")
        );
        let lines = [
            format!(
                "pool.efficiency = busy_s / (jobs x batch_s) = {:.6} / ({} x {:.6}) = {:.4}",
                self.v("pool.busy_s"),
                self.jobs,
                self.v("pool.batch_s"),
                self.v("pool.efficiency")
            ),
            format!(
                "pool.idle_s = jobs x batch_s - busy_s = {} x {:.6} - {:.6} = {:.6}",
                self.jobs,
                self.v("pool.batch_s"),
                self.v("pool.busy_s"),
                self.v("pool.idle_s")
            ),
            format!(
                "desim.host_ns_per_event = busy_ns / desim.events = {:.0} / {} = {:.2}",
                self.v("pool.busy_s") * 1e9,
                self.v("desim.events"),
                self.v("desim.host_ns_per_event")
            ),
            format!(
                "kernel.host_ns_per_syscall = busy_ns / kernel.syscalls = {:.0} / {} = {:.2}",
                self.v("pool.busy_s") * 1e9,
                self.v("kernel.syscalls"),
                self.v("kernel.host_ns_per_syscall")
            ),
            format!(
                "kernel.contended_ratio = lock_contended / lock_acquisitions = {} / {} = {:.6}",
                self.v("kernel.lock_contended"),
                self.v("kernel.lock_acquisitions"),
                self.v("kernel.contended_ratio")
            ),
            format!(
                "syzgen.accept_ratio = accepted / executed = {} / {} = {:.6}",
                self.v("syzgen.accepted"),
                self.v("syzgen.executed"),
                self.v("syzgen.accept_ratio")
            ),
            format!(
                "telemetry.overhead_ratio = traced wall_s / untraced wall_s = {:.6} / {:.6} = {:.4}",
                self.traced_wall_s,
                self.untraced_wall_s,
                self.v("telemetry.overhead_ratio")
            ),
            format!(
                "core.cold_extra_s = cold pass - untraced warm median = {:.6} s",
                self.v("core.cold_extra_s")
            ),
        ];
        for l in lines {
            let _ = writeln!(t, "  {l}");
        }
        let _ = writeln!(t, "  per-layer metrics:");
        for (name, unit) in PER_LAYER {
            let _ = writeln!(t, "    {name:<32} {:>18.6} {unit}", self.v(name));
        }
        t
    }

    pub fn print_table(&self) {
        print!("{}", self.table());
    }

    /// Writes the span file and the table under the benchmark's `out/`.
    pub fn write_files(&self) {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let stem = format!("{dir}/{}-seed{}", self.workload.name(), self.seed);
        let write = |path: String, body: String| {
            std::fs::create_dir_all(dir)
                .and_then(|_| std::fs::write(&path, body))
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        };
        write(format!("{stem}-spans.json"), self.spans_json.render());
        write(format!("{stem}-layers.txt"), self.table());
    }

    pub fn metrics_json(&self) -> Value {
        Value::object(PER_LAYER.map(|(name, unit)| {
            (
                name,
                Value::object([
                    ("value", Value::from(self.v(name))),
                    ("unit", Value::str(unit)),
                ]),
            )
        }))
    }
}
