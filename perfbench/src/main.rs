//! `ksa-perfbench`: host-time benchmark for the paper artifacts.
//!
//! ```text
//! ksa-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--reference <path>]
//! ksa-perfbench reference --seeds <n,n,...>
//! ```
//!
//! A run builds the workload's inputs from the seed (timed as set-up,
//! several times, median reported), runs one cold pass of the trial
//! batch, then warm passes until `--seconds` have elapsed. With
//! `--trace 0` that time is split over `MEASURE_PROCS` fresh processes
//! (the `measure` subcommand). Every pass's simulated results are folded
//! into a digest and checked against the stored reference for the seed,
//! or trial by trial against a `jobs = 1` pass in a separate probe
//! process when the seed has none. The last line of standard output is
//! one JSON object: end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`. The `reference` subcommand prints the
//! reference file.

mod layers;
mod trace;
mod workloads;

use std::time::{Duration, Instant};

use ksa_json::Value;

use trace::{Span, Tracer, ROOT};
use workloads::{Inputs, PassOut, Workload};

/// Set-up repetitions before the first pass; `setup_s` is the median
/// of these and of one more before each warm pass.
const SETUP_REPS: usize = 5;
/// Fewest warm passes a process makes, whatever its budget.
const MIN_WARM: usize = 3;
/// Fresh processes an end-to-end run spreads its time over. On the
/// measuring host, speed differed between processes of one binary (one
/// set-up repetition took 17 ms in some and 30 ms in others, steadily
/// within each), so with one process per run that difference became the
/// run-to-run spread.
const MEASURE_PROCS: u64 = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    reference: String,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "ksa-perfbench: {msg}\nusage: ksa-perfbench --workload <{}> --seed <n> --seconds <s> \
         --trace <0|1> [--reference <path>]\n       ksa-perfbench reference --seeds <n,n,...>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn default_reference() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/reference.json").to_string()
}

/// Pool width: the machine's hardware threads, at most two, so load
/// comes from one process the same way on every host the numbers are
/// compared across.
fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

fn parse_args(argv: &[String]) -> Args {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut reference = default_reference();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        let number = |v: String| -> u64 {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("{flag}: not a whole number: {v}")))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value();
                workload = Some(
                    Workload::parse(&v).unwrap_or_else(|| usage(&format!("unknown workload {v}"))),
                );
            }
            "--seed" => seed = Some(number(value())),
            "--seconds" => seconds = Some(number(value())),
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    v => usage(&format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--reference" => reference = value(),
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        reference,
    }
}

/// The stored workload digest for `seed`, if the reference file has one.
/// A missing file is an error: the benchmark ships with it.
fn stored_digest(path: &str, w: Workload, seed: u64) -> Option<u64> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read reference digests {path}: {e}"));
    let doc = ksa_json::parse(&text)
        .unwrap_or_else(|e| panic!("reference digests {path} are not JSON: {e}"));
    let hex = doc.opt(w.name())?.opt(&seed.to_string())?.as_str().ok()?;
    Some(
        u64::from_str_radix(hex, 16)
            .unwrap_or_else(|_| panic!("reference digest {hex} in {path} is not hex")),
    )
}

/// What each pass is checked against.
enum Reference {
    /// A stored workload digest: on a mismatch every trial of the pass
    /// counts as failed (the file does not say which trial moved).
    Stored(u64),
    /// Per-trial digests of a `jobs = 1` pass of the same seed.
    Sequential(Vec<u64>),
}

impl Reference {
    /// The form a `measure` process takes on its command line.
    fn to_arg(&self) -> String {
        match self {
            Reference::Stored(d) => format!("stored:{d:016x}"),
            Reference::Sequential(t) => {
                let hex: Vec<String> = t.iter().map(|d| format!("{d:016x}")).collect();
                format!("trials:{}", hex.join(","))
            }
        }
    }

    fn from_arg(arg: &str) -> Reference {
        let hex = |h: &str| {
            u64::from_str_radix(h, 16).unwrap_or_else(|_| usage(&format!("bad digest {h}")))
        };
        match arg.split_once(':') {
            Some(("stored", d)) => Reference::Stored(hex(d)),
            Some(("trials", list)) => Reference::Sequential(list.split(',').map(hex).collect()),
            _ => usage(&format!("bad --expect {arg}")),
        }
    }

    /// Failed trials of `p`, with a reason for the first one.
    fn failures(&self, p: &PassOut) -> (u64, Option<String>) {
        let mut failed = 0u64;
        let mut first = None;
        for (i, fault) in p.trial_faults.iter().enumerate() {
            let digest_ok = match self {
                Reference::Stored(d) => p.digest == *d,
                Reference::Sequential(t) => t.get(i) == Some(&p.trial_digests[i]),
            };
            let why = match (fault, digest_ok) {
                (Some(f), _) => Some(f.clone()),
                (None, false) => Some(format!(
                    "trial {i}: simulated results differ from the reference"
                )),
                (None, true) => None,
            };
            if let Some(why) = why {
                failed += 1;
                first.get_or_insert(why);
            }
        }
        if let Reference::Sequential(t) = self {
            if t.len() != p.trials() {
                failed = failed.max(1);
                first.get_or_insert("trial count differs from the reference".to_string());
            }
        }
        (failed, first)
    }
}

/// What the probe process reports.
struct Probe {
    trial_digests: Vec<u64>,
    peak_rss_mib: f64,
}

/// Runs `probe` in a fresh process of this binary and waits for it.
///
/// The probe makes the workload's inputs and runs one pass on one
/// worker. Its trial digests stand in for a missing stored reference,
/// and its peak resident set is `peak_rss_mib`. With one worker the
/// allocation sequence is fixed by the inputs, so the high-water mark
/// repeats; the timed process's own mark moves by a third between runs
/// with which trials its two workers happen to overlap. Set-up memory
/// and memory kept across trials still show, since the probe holds the
/// inputs and runs every trial.
fn run_probe(w: Workload, seed: u64) -> Probe {
    let v = run_child(&["probe", "--workload", w.name(), "--seed", &seed.to_string()]);
    Probe {
        trial_digests: array(&v, "trial_digests")
            .iter()
            .map(|d| {
                let hex = d.as_str().expect("probe digest is a string");
                u64::from_str_radix(hex, 16).expect("probe digest is hex")
            })
            .collect(),
        peak_rss_mib: field(&v, "peak_rss_mib")
            .as_f64()
            .expect("probe peak_rss_mib is a number"),
    }
}

/// Runs this binary with `args` in a fresh process, waits for it, and
/// parses the last line of its standard output.
fn run_child(args: &[&str]) -> Value {
    let exe = std::env::current_exe().expect("path of the running benchmark binary");
    let out = std::process::Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot start {}: {e}", args[0]));
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    match ksa_json::parse(line) {
        Ok(v) if out.status.success() => v,
        _ => panic!(
            "{} process failed ({}): {}",
            args[0],
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ),
    }
}

fn field<'a>(v: &'a Value, k: &str) -> &'a Value {
    v.get(k)
        .unwrap_or_else(|e| panic!("child process output lacks {k}: {e}"))
}

fn array<'a>(v: &'a Value, k: &str) -> &'a [Value] {
    field(v, k)
        .as_array()
        .unwrap_or_else(|e| panic!("child process output {k} is not an array: {e}"))
}

/// The probe process: set-up and one `jobs = 1` pass, then its trial
/// digests and peak resident set as one JSON line.
fn probe(argv: &[String]) {
    let (w, seed) = match argv {
        [f1, w, f2, seed] if f1 == "--workload" && f2 == "--seed" => (
            Workload::parse(w).unwrap_or_else(|| usage(&format!("unknown workload {w}"))),
            seed.parse()
                .unwrap_or_else(|_| usage(&format!("bad seed {seed}"))),
        ),
        _ => usage("probe takes --workload <name> --seed <n>"),
    };
    let off = Tracer::new(false);
    let inputs = workloads::setup(w, seed, &off, ROOT);
    let out = workloads::pass(&inputs, 1, &off, ROOT).check();
    let line = Value::object([
        (
            "trial_digests",
            Value::array(
                out.trial_digests
                    .iter()
                    .map(|d| Value::str(format!("{d:016x}"))),
            ),
        ),
        ("peak_rss_mib", Value::from(peak_rss_mib())),
    ]);
    println!("{}", line.render());
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .expect("VmHWM missing from /proc/self/status")
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `(attempted, failed, first failure)` over `passes`.
fn settle<'a>(
    reference: &Reference,
    passes: impl Iterator<Item = &'a PassOut>,
) -> (u64, u64, Option<String>) {
    let (mut attempted, mut failed, mut first) = (0u64, 0u64, None);
    for p in passes {
        let (f, why) = reference.failures(p);
        attempted += p.trials() as u64;
        failed += f;
        if first.is_none() {
            first = why;
        }
    }
    (attempted, failed, first)
}

/// Runs one timed pass; returns its wall seconds and checked outcome.
/// The clock stops before the output check.
fn timed_pass(inputs: &Inputs, jobs: usize, tracer: &Tracer) -> (f64, PassOut) {
    let t0 = Instant::now();
    let pass = tracer.span(ROOT, "core.pass", |id| {
        workloads::pass(inputs, jobs, tracer, id)
    });
    let wall = t0.elapsed().as_secs_f64();
    (wall, pass.check())
}

fn metric(value: f64, unit: &str) -> Value {
    Value::object([("value", Value::from(value)), ("unit", Value::str(unit))])
}

/// The timed passes of one process.
struct Measured {
    setup_s: Vec<f64>,
    setup_spans: Vec<Span>,
    inputs: Inputs,
    cold_s: f64,
    /// Untraced warm passes, wall seconds.
    warm: Vec<f64>,
    /// Every untraced pass, the cold one first.
    passes: Vec<PassOut>,
    /// Traced passes: wall seconds, outcome, spans.
    traced: Vec<(f64, PassOut, Vec<Span>)>,
}

/// Set-up, a cold pass, then warm passes until `budget` has passed since
/// the cold pass started. With `tracer` on, the first third of the
/// budget is untraced (for the cold gap and the tracing overhead) and
/// the rest traced.
fn measure_here(
    w: Workload,
    seed: u64,
    jobs: usize,
    budget: Duration,
    tracer: &Tracer,
) -> Measured {
    let untraced = Tracer::new(false);
    let time_setup = |tracer: &Tracer| {
        let t0 = Instant::now();
        let inputs = tracer.span(ROOT, "core.setup", |id| {
            workloads::setup(w, seed, tracer, id)
        });
        (t0.elapsed().as_secs_f64(), inputs)
    };
    // The last set-up repetition's inputs are the ones used.
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let (secs, made) = time_setup(tracer);
        setup_s.push(secs);
        inputs = Some(made);
    }
    let inputs = inputs.expect("at least one set-up repetition");
    let setup_spans = tracer.drain();

    // Cold pass: the first in this fresh process, as every artifact
    // binary a user runs is a fresh process.
    let untraced_budget = if tracer.on() { budget / 3 } else { budget };
    let t_measure = Instant::now();
    let (cold_s, first) = timed_pass(&inputs, jobs, &untraced);
    let mut passes = vec![first];
    let mut warm = Vec::new();
    while warm.len() < MIN_WARM || t_measure.elapsed() < untraced_budget {
        // One more set-up repetition before each warm pass samples
        // set-up over the same stretch of time as the passes: on a
        // shared host, speed drifts over seconds.
        setup_s.push(time_setup(&untraced).0);
        let (wall, out) = timed_pass(&inputs, jobs, &untraced);
        warm.push(wall);
        passes.push(out);
    }
    let mut traced = Vec::new();
    while tracer.on() && (traced.len() < MIN_WARM || t_measure.elapsed() < budget) {
        let (wall, out) = timed_pass(&inputs, jobs, tracer);
        traced.push((wall, out, tracer.drain()));
    }
    Measured {
        setup_s,
        setup_spans,
        inputs,
        cold_s,
        warm,
        passes,
        traced,
    }
}

/// The `measure` process: untraced passes for `--millis`, checked
/// against `--expect`, reported as one JSON line.
fn measure(argv: &[String]) {
    let (w, seed, millis, expect) = match argv {
        [f1, w, f2, seed, f3, millis, f4, expect]
            if f1 == "--workload" && f2 == "--seed" && f3 == "--millis" && f4 == "--expect" =>
        {
            let number = |v: &str| -> u64 {
                v.parse()
                    .unwrap_or_else(|_| usage(&format!("not a whole number: {v}")))
            };
            (
                Workload::parse(w).unwrap_or_else(|| usage(&format!("unknown workload {w}"))),
                number(seed),
                number(millis),
                Reference::from_arg(expect),
            )
        }
        _ => usage("measure takes --workload <name> --seed <n> --millis <ms> --expect <digests>"),
    };
    let m = measure_here(
        w,
        seed,
        default_jobs(),
        Duration::from_millis(millis),
        &Tracer::new(false),
    );
    let (attempted, failed, first_failure) = settle(&expect, m.passes.iter());
    let floats = |v: &[f64]| Value::array(v.iter().map(|&x| Value::from(x)));
    let line = Value::object([
        ("setup_s", floats(&m.setup_s)),
        ("warm_s", floats(&m.warm)),
        ("events", Value::from(m.passes[0].events)),
        ("trials", Value::from(m.passes[0].trials())),
        ("attempted", Value::from(attempted)),
        ("failed", Value::from(failed)),
        (
            "first_failure",
            Value::str(first_failure.unwrap_or_default()),
        ),
    ]);
    println!("{}", line.render());
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("reference") => return print_reference(&argv[1..]),
        Some("probe") => return probe(&argv[1..]),
        Some("measure") => return measure(&argv[1..]),
        _ => {}
    }
    let args = parse_args(&argv);
    let w = args.workload;
    let jobs = default_jobs();
    let budget = Duration::from_secs(args.seconds);

    let probe = run_probe(w, args.seed);
    let reference = match stored_digest(&args.reference, w, args.seed) {
        Some(d) => Reference::Stored(d),
        None => {
            eprintln!(
                "ksa-perfbench: no stored digest for {} seed {} in {}; checking against a \
                 jobs = 1 pass of this build, which shows only that results do not depend on \
                 pool width",
                w.name(),
                args.seed,
                args.reference
            );
            Reference::Sequential(probe.trial_digests)
        }
    };

    let (metrics, attempted, failed, first_failure) = if args.trace {
        let tracer = Tracer::new(true);
        let m = measure_here(w, args.seed, jobs, budget, &tracer);
        let (attempted, failed, first_failure) = settle(
            &reference,
            m.passes
                .iter()
                .chain(m.traced.iter().map(|(_, out, _)| out)),
        );
        let wall_s = median(&m.warm);
        let report = layers::Report::build(layers::RunFacts {
            workload: w,
            seed: args.seed,
            jobs,
            inputs: &m.inputs,
            setup_spans: &m.setup_spans,
            traced: &m.traced,
            untraced_wall_s: wall_s,
            cold_extra_s: m.cold_s - wall_s,
            sandbox_ns_per_call: m
                .inputs
                .sandbox_corpus()
                .map(layers::sandbox_ns_per_call)
                .unwrap_or(0.0),
        });
        report.write_files();
        report.print_table();
        (report.metrics_json(), attempted, failed, first_failure)
    } else {
        // The measuring processes run one after another, each for its
        // share of the budget; their samples are pooled.
        let (mut setup_s, mut warm) = (Vec::new(), Vec::new());
        let (mut attempted, mut failed, mut first_failure) = (0u64, 0u64, None);
        let (mut events, mut trials) = (0u64, 0u64);
        let expect = reference.to_arg();
        let millis = (budget.as_millis() as u64 / MEASURE_PROCS).to_string();
        for _ in 0..MEASURE_PROCS {
            let v = run_child(&[
                "measure",
                "--workload",
                w.name(),
                "--seed",
                &args.seed.to_string(),
                "--millis",
                &millis,
                "--expect",
                &expect,
            ]);
            let floats = |k: &str| -> Vec<f64> {
                array(&v, k)
                    .iter()
                    .map(|x| x.as_f64().expect("measured time is a number"))
                    .collect()
            };
            let count = |k: &str| field(&v, k).as_u64().expect("count is a whole number");
            setup_s.extend(floats("setup_s"));
            warm.extend(floats("warm_s"));
            events = count("events");
            trials = count("trials");
            attempted += count("attempted");
            failed += count("failed");
            let why = field(&v, "first_failure").as_str().unwrap_or_default();
            if first_failure.is_none() && !why.is_empty() {
                first_failure = Some(why.to_string());
            }
        }
        let wall_s = median(&warm);
        let failed_ratio = failed as f64 / attempted.max(1) as f64;
        let rows = [
            ("setup_s", median(&setup_s), "s"),
            ("wall_s", wall_s, "s"),
            ("events_per_s", events as f64 / wall_s, "1/s"),
            ("peak_rss_mib", probe.peak_rss_mib, "MiB"),
        ];
        println!(
            "{} seed {}: {} warm passes of {trials} trials on {jobs} workers in {MEASURE_PROCS} processes",
            w.name(),
            args.seed,
            warm.len(),
        );
        for (name, v, unit) in rows {
            println!("  {name:<14} {v:>16.4} {unit}");
        }
        println!(
            "  {:<14} {failed_ratio:>16.4} ratio ({failed} failed / {attempted} attempted)",
            "failed_ratio"
        );
        let metrics = Value::object(rows.map(|(name, v, unit)| (name, metric(v, unit))));
        (metrics, attempted, failed, first_failure)
    };
    if let Some(why) = &first_failure {
        eprintln!("ksa-perfbench: {failed} trial(s) failed; first: {why}");
    }
    let line = Value::object([
        ("correct", Value::from(failed == 0)),
        ("attempted", Value::from(attempted)),
        ("failed", Value::from(failed)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
}

/// Prints a reference file: every workload's digest for each seed, from
/// a `jobs = 1` pass.
fn print_reference(argv: &[String]) {
    let seeds: Vec<u64> = match argv {
        [flag, list] if flag == "--seeds" => list
            .split(',')
            .map(|s| {
                s.parse()
                    .unwrap_or_else(|_| usage(&format!("bad seed {s}")))
            })
            .collect(),
        _ => usage("reference takes --seeds <n,n,...>"),
    };
    let off = Tracer::new(false);
    let doc = Value::object(Workload::ALL.map(|w| {
        let entries: Vec<(String, Value)> = seeds
            .iter()
            .map(|&seed| {
                let inputs = workloads::setup(w, seed, &off, ROOT);
                let out = workloads::pass(&inputs, 1, &off, ROOT).check();
                if let Some(Some(f)) = out.trial_faults.iter().find(|f| f.is_some()) {
                    panic!(
                        "{} seed {seed}: a trial failed, no reference: {f}",
                        w.name()
                    );
                }
                (seed.to_string(), Value::str(format!("{:016x}", out.digest)))
            })
            .collect();
        (w.name(), Value::object(entries))
    }));
    println!("{}", doc.render());
}
