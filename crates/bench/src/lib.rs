//! Shared plumbing for the experiment binaries: CLI parsing and artifact
//! writing in [`cli`], table-cell formatting, the ablation binaries'
//! pass/fail [`Gates`], and the offline [`microbench`] harness. See [`cli`] for the flags every binary
//! accepts.

pub mod cli;

pub use cli::Cli;

/// Formats a nanosecond value for table cells.
pub fn cell_ns(ns: u64) -> String {
    ksa_stats::fmt_ns(ns)
}

/// The claim checks of one ablation binary: each gate prints an
/// `[ok  ]` or `[FAIL]` line as it is checked, and [`Gates::finish`]
/// exits with status 1 if any failed.
pub struct Gates {
    bin: &'static str,
    failures: u32,
}

impl Gates {
    /// An empty ledger for the binary named `bin`.
    pub fn new(bin: &'static str) -> Self {
        Self { bin, failures: 0 }
    }

    /// Prints the gate's verdict line and counts a failure.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        let verdict = if ok { "ok  " } else { "FAIL" };
        println!("  [{verdict}] {name}: {detail}");
        if !ok {
            self.failures += 1;
        }
    }

    /// Reports the tally: exits 1 after naming the failed-gate count,
    /// or prints that every gate passed.
    pub fn finish(self) {
        if self.failures > 0 {
            eprintln!("\n{}: {} gate(s) FAILED", self.bin, self.failures);
            std::process::exit(1);
        }
        println!("\n{}: all gates passed", self.bin);
    }
}

/// Minimal wall-clock micro-benchmark runner for the `benches/` targets
/// (they are `harness = false` binaries; no external bench framework is
/// available offline). Each case runs a warmup pass plus `samples` timed
/// passes and prints min/mean per iteration.
pub mod microbench {
    use std::time::Instant;

    /// A named group of benchmark cases.
    pub struct Group {
        name: String,
        samples: u32,
    }

    /// Opens a group with the default sample count.
    pub fn group(name: &str) -> Group {
        Group {
            name: name.to_string(),
            samples: 10,
        }
    }

    impl Group {
        /// Overrides the number of timed passes per case.
        pub fn sample_size(mut self, samples: u32) -> Self {
            self.samples = samples.max(1);
            self
        }

        /// Times `f`, printing per-case statistics. The closure's return
        /// value is passed through a black box so the work is not
        /// optimized away.
        pub fn bench<T>(&self, case: &str, mut f: impl FnMut() -> T) {
            std::hint::black_box(f());
            let mut times = Vec::with_capacity(self.samples as usize);
            for _ in 0..self.samples {
                let t0 = Instant::now();
                std::hint::black_box(f());
                times.push(t0.elapsed().as_nanos() as u64);
            }
            let min = *times.iter().min().expect("samples >= 1");
            let mean = times.iter().sum::<u64>() / times.len() as u64;
            println!(
                "{}/{case}: min {}  mean {}  ({} samples)",
                self.name,
                super::cell_ns(min),
                super::cell_ns(mean),
                times.len()
            );
        }
    }
}
