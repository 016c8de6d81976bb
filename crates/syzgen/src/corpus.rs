//! The coverage-guided corpus construction loop (Syzkaller's triage).

use ksa_kernel::coverage::CoverageSet;
use ksa_kernel::prog::Corpus;
use ksa_kernel::Program;

use crate::gen::ProgramGenerator;
use crate::mutate::mutate;
use crate::sandbox::Sandbox;

/// Generation-loop configuration.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// RNG seed.
    pub seed: u64,
    /// Stop after this many corpus programs.
    pub max_programs: usize,
    /// Stop after this many consecutive candidates without new coverage
    /// (coverage saturation).
    pub stall_limit: usize,
    /// Probability (percent) of mutating a corpus program vs generating
    /// a fresh one.
    pub mutate_pct: u32,
    /// Whether to minimize accepted programs.
    pub minimize: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        Self {
            seed: 0x5eed,
            max_programs: 120,
            stall_limit: 400,
            mutate_pct: 70,
            minimize: true,
        }
    }
}

/// Statistics from a generation run.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenStats {
    /// Candidates executed.
    pub executed: usize,
    /// Candidates accepted into the corpus.
    pub accepted: usize,
    /// Calls removed by minimization.
    pub minimized_away: usize,
    /// Distinct blocks covered by the final corpus.
    pub blocks: usize,
}

/// A corpus plus its provenance.
#[derive(Debug, Clone)]
pub struct GeneratedCorpus {
    /// The programs.
    pub corpus: Corpus,
    /// How it was generated.
    pub config: GenConfig,
    /// Loop statistics.
    pub stats: GenStats,
}

/// Runs the coverage-guided loop and returns the corpus.
pub fn generate(cfg: GenConfig) -> GeneratedCorpus {
    let mut gen = ProgramGenerator::new(cfg.seed);
    let mut sandbox = Sandbox::new(cfg.seed ^ 0xabcd);
    let mut global = CoverageSet::new();
    let mut corpus: Vec<Program> = Vec::new();
    let mut stats = GenStats::default();
    let mut stall = 0usize;

    while corpus.len() < cfg.max_programs && stall < cfg.stall_limit {
        use rand::seq::SliceRandom;
        use rand::Rng;
        // Candidate: mutate an existing program or make a fresh one.
        let candidate = if !corpus.is_empty() && gen.rng().gen_range(0u32..100) < cfg.mutate_pct {
            let base = corpus.choose(gen.rng()).unwrap().clone();
            mutate(&mut gen, &base, &corpus)
        } else {
            gen.random_program()
        };

        let cover = sandbox.run_fresh(&candidate);
        stats.executed += 1;
        let new = global.new_blocks(&cover);
        if new == 0 {
            stall += 1;
            continue;
        }
        stall = 0;

        // Minimize: drop calls not needed for the *new* blocks.
        let accepted = if cfg.minimize {
            let (min, removed) = minimize(&mut sandbox, &global, candidate);
            stats.minimized_away += removed;
            min
        } else {
            candidate
        };
        let cover = sandbox.run_fresh(&accepted);
        global.merge(&cover);
        corpus.push(accepted);
        stats.accepted += 1;
    }

    stats.blocks = global.len();
    GeneratedCorpus {
        corpus: Corpus { programs: corpus },
        config: cfg,
        stats,
    }
}

/// Repeatedly tries to remove calls while the program still covers
/// **all** the new blocks it contributed (Syzkaller keeps the full new
/// signal, not just any of it). Returns the minimized program and the
/// number of removed calls.
fn minimize(sandbox: &mut Sandbox, global: &CoverageSet, mut prog: Program) -> (Program, usize) {
    let full = sandbox.run_fresh(&prog);
    let target = global.new_blocks(&full);
    let mut removed = 0;
    let mut idx = prog.len();
    while idx > 0 {
        idx -= 1;
        if prog.len() <= 1 {
            break;
        }
        let candidate = prog.remove_call(idx);
        let cover = sandbox.run_fresh(&candidate);
        if global.new_blocks(&cover) >= target {
            prog = candidate;
            removed += 1;
        }
    }
    (prog, removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(seed: u64) -> GenConfig {
        GenConfig {
            seed,
            max_programs: 25,
            stall_limit: 150,
            mutate_pct: 70,
            minimize: true,
        }
    }

    #[test]
    fn generation_reaches_coverage() {
        let out = generate(small_cfg(1));
        assert!(out.corpus.len() >= 10, "got {} programs", out.corpus.len());
        assert!(out.stats.blocks >= 25, "only {} blocks", out.stats.blocks);
        assert!(out.stats.executed >= out.stats.accepted);
        for p in &out.corpus.programs {
            assert!(p.refs_valid());
        }
    }

    #[test]
    fn every_accepted_program_contributed_coverage() {
        let out = generate(small_cfg(2));
        // Replaying the corpus in order: each program must add blocks.
        let mut sb = Sandbox::new(99);
        let mut global = CoverageSet::new();
        let mut contributed = 0;
        for p in &out.corpus.programs {
            let c = sb.run_fresh(p);
            if global.new_blocks(&c) > 0 {
                contributed += 1;
            }
            global.merge(&c);
        }
        // State-dependent paths make strict per-program replay slightly
        // lossy, but the overwhelming majority must contribute.
        assert!(
            contributed * 10 >= out.corpus.len() * 8,
            "{contributed}/{} programs contributed",
            out.corpus.len()
        );
    }

    #[test]
    fn minimization_shrinks_programs() {
        let with = generate(small_cfg(3));
        let without = generate(GenConfig {
            minimize: false,
            ..small_cfg(3)
        });
        let avg = |c: &Corpus| c.total_calls() as f64 / c.len().max(1) as f64;
        assert!(
            avg(&with.corpus) <= avg(&without.corpus),
            "minimized {} vs raw {}",
            avg(&with.corpus),
            avg(&without.corpus)
        );
        assert!(with.stats.minimized_away > 0);
    }

    #[test]
    fn determinism() {
        let a = generate(small_cfg(5));
        let b = generate(small_cfg(5));
        assert_eq!(a.corpus.programs, b.corpus.programs);
    }
}
