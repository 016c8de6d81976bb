//! Regression test for the coverage-registry **poison cascade**.
//!
//! Before the registry rework, every coverage call funneled through one
//! global `Mutex<Registry>` taken with `.lock().unwrap()`. A trial that
//! panicked *while holding* the registry lock — the easiest way being a
//! diagnostic `block_name` reverse lookup on a garbage id, which indexed
//! `names[id]` under the guard — poisoned the mutex, and from then on
//! every `registry().lock().unwrap()` in every sibling trial re-panicked.
//! Per-trial `catch_unwind` isolation dutifully caught each cascade
//! panic, so an entire parallel campaign silently degraded into a vector
//! of `Panicked` slots because of one bad trial.
//!
//! On the old `coverage.rs` this test fails (the siblings come back
//! `Panicked("...PoisonError...")`); after the rework it passes: the
//! reverse lookup is total, the registry locks recover from poison, and
//! sibling trials keep recording coverage.

use ksa_kernel::coverage::{self, BlockId};
use ksa_kernel::prog::Corpus;
use ksa_kernel::{Arg, Call, Program, SysNo};
use ksa_varbench::{run_campaign, run_configs_jobs, RunConfig, RunError};

use ksa_envsim::{EnvKind, EnvSpec, Machine};

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
        ],
    }
}

fn cfg(seed: u64) -> RunConfig {
    RunConfig::new(
        EnvSpec::new(
            Machine {
                cores: 4,
                mem_mib: 1024,
            },
            EnvKind::Native,
        ),
        3,
        seed,
    )
}

#[test]
fn panicking_trial_does_not_poison_sibling_coverage() {
    let corpus = tiny_corpus();
    // Six trials on four pool workers: the poisoning trial runs
    // concurrently with real coverage-recording siblings.
    let cfgs: Vec<RunConfig> = (0..6).map(|i| cfg(1000 + i)).collect();
    let poison_at = 0usize; // first trial poisons at campaign start
    let outcomes = run_campaign(&cfgs, &corpus, 4, 0, &|i, _engine| {
        if i == poison_at {
            // The historical poison vector: a diagnostic reverse lookup
            // on a corrupted id used to index out of bounds while the
            // registry guard was held, poisoning the lock for everyone.
            let name = coverage::block_name(BlockId(u32::MAX - 1));
            panic!("deliberate trial panic (bogus block resolves to {name:?})");
        }
    });

    assert_eq!(outcomes.len(), cfgs.len());
    for (i, o) in outcomes.iter().enumerate() {
        let r = &o.result;
        if i == poison_at {
            match r {
                Err(RunError::Panicked(msg)) => {
                    assert!(
                        msg.contains("deliberate trial panic"),
                        "slot {i}: unexpected panic message: {msg}"
                    );
                }
                other => panic!("slot {i}: expected the deliberate panic, got {other:?}"),
            }
            continue;
        }
        // Every sibling must have completed AND recorded full coverage-
        // instrumented samples — on the old registry they all die with
        // a PoisonError cascade instead.
        let ok = r
            .as_ref()
            .unwrap_or_else(|e| panic!("sibling trial {i} lost to the cascade: {e}"));
        assert_eq!(ok.sites.len(), 6, "slot {i}");
        assert!(
            ok.sites.iter().all(|s| s.samples.len() == 4 * 3),
            "slot {i}: sibling must keep all cores×iters samples"
        );
    }

    // The registry itself must stay usable after the campaign: interning,
    // reverse lookup, err classification and universe queries all work.
    let before = coverage::block_universe();
    assert!(before > 0, "the campaign interned handler blocks");
    let fresh = coverage::block("cov.poison.regression.after_campaign");
    assert_eq!(
        coverage::block_name(fresh),
        "cov.poison.regression.after_campaign"
    );
    assert_eq!(coverage::block_universe(), before + 1);
    let err = coverage::block_err("cov.poison.regression.err");
    assert!(coverage::is_error_block(err));
    // And interning stays stable (no re-leak, no new ids on re-hit).
    assert_eq!(
        coverage::block("cov.poison.regression.after_campaign"),
        fresh
    );
    assert_eq!(coverage::block_universe(), before + 2);
}

#[test]
fn campaign_coverage_is_identical_across_pool_widths() {
    // Coverage decisions must not depend on pool scheduling: the same
    // campaign at jobs=1 and jobs=4 yields bit-identical per-site samples
    // (interning order may differ between processes, but ids are stable
    // within one, so coverage-guided behaviour cannot diverge).
    let corpus = tiny_corpus();
    let cfgs: Vec<RunConfig> = (0..4).map(|i| cfg(2000 + i)).collect();
    let seq = run_configs_jobs(&cfgs, &corpus, 1);
    let par = run_configs_jobs(&cfgs, &corpus, 4);
    for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(a.sim_ns, b.sim_ns, "slot {i}");
        assert_eq!(a.events, b.events, "slot {i}");
        for (sa, sb) in a.sites.iter().zip(&b.sites) {
            assert_eq!(sa.samples.raw(), sb.samples.raw(), "slot {i}");
        }
    }
}
