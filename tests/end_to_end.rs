//! End-to-end integration tests spanning all crates: corpus generation →
//! environment construction → barrier-synchronized measurement →
//! statistics, at tiny scale.

use ksa_core::envsim::{EnvKind, EnvSpec, Machine};
use ksa_core::experiments::{self, Scale};
use ksa_core::varbench::{run, RunConfig};
use ksa_core::KernelSurfaceArea;

#[test]
fn corpus_to_measurement_pipeline() {
    let corpus = experiments::default_corpus(Scale::Tiny);
    assert!(corpus.corpus.len() >= 10);
    assert!(corpus.stats.blocks >= 30);

    let machine = Machine {
        cores: 8,
        mem_mib: 4 * 1024,
    };
    let mut res = run(
        &RunConfig::new(EnvSpec::new(machine, EnvKind::Native), 3, 1),
        &corpus.corpus,
    )
    .expect("trial failed");
    assert_eq!(res.sites.len(), corpus.corpus.total_calls());
    // Every site must have cores × iterations samples.
    for s in &res.sites {
        assert_eq!(s.samples.len(), 8 * 3);
    }
    // Latencies are plausible: nothing below the syscall entry cost,
    // nothing above a second.
    let maxes = res.per_site(None, |s| s.max());
    assert!(maxes.iter().all(|&m| (100..1_000_000_000).contains(&m)));
}

#[test]
fn isolation_bounds_the_tail() {
    // The paper's system model: the shared kernel has worse worst-case
    // behaviour than per-core VMs on the same hardware and workload.
    let corpus = experiments::default_corpus(Scale::Tiny);
    let machine = Machine {
        cores: 8,
        mem_mib: 4 * 1024,
    };
    let run_kind = |kind| {
        let mut r = run(
            &RunConfig::new(EnvSpec::new(machine, kind), 5, 3),
            &corpus.corpus,
        )
        .expect("trial failed");
        let mut p99s = r.per_site(None, |s| s.p99());
        p99s.sort_unstable();
        *p99s.last().unwrap()
    };
    let native_worst = run_kind(EnvKind::Native);
    let vm_worst = run_kind(EnvKind::Vm(8));
    assert!(
        vm_worst < native_worst,
        "per-core VMs must bound the worst tail: vm {vm_worst} vs native {native_worst}"
    );
}

#[test]
fn virtualization_costs_at_the_median() {
    // ...and the flip side: the VM's bounded overhead makes the fast
    // calls slower at the median.
    let corpus = experiments::default_corpus(Scale::Tiny);
    let machine = Machine {
        cores: 8,
        mem_mib: 4 * 1024,
    };
    let run_kind = |kind| {
        let mut r = run(
            &RunConfig::new(EnvSpec::new(machine, kind), 4, 4),
            &corpus.corpus,
        )
        .expect("trial failed");
        let mut meds = r.per_site(None, |s| s.median());
        meds.sort_unstable();
        meds[0] // the fastest site's median
    };
    let native_fastest = run_kind(EnvKind::Native);
    let vm_fastest = run_kind(EnvKind::Vm(8));
    assert!(
        vm_fastest > native_fastest,
        "guest fast path must pay the bounded virt overhead: {vm_fastest} vs {native_fastest}"
    );
}

#[test]
fn surface_area_api_is_consistent_with_envs() {
    let machine = Machine::epyc_64();
    let mut last = f64::INFINITY;
    for n in [1usize, 2, 4, 8, 16, 32, 64] {
        let s = KernelSurfaceArea::of(&EnvSpec::new(machine, EnvKind::Vm(n)));
        assert_eq!(s.cores, 64 / n);
        assert!(s.scalar() < last);
        last = s.scalar();
    }
}

#[test]
fn experiments_table2_runs_at_tiny_scale() {
    let corpus = experiments::default_corpus(Scale::Tiny);
    let (t2, _) = experiments::table2(&corpus.corpus, Scale::Tiny, 5, 0, false);
    // Cumulative percentages must be monotone within a row.
    for table in [&t2.median, &t2.p99, &t2.max] {
        for row in &table.rows {
            for w in row.below.windows(2) {
                assert!(w[0] <= w[1] + 1e-9, "{}: non-monotone", row.label);
            }
            assert!((row.below[4] + row.above_last - 100.0).abs() < 1e-6);
        }
    }
}

#[test]
fn experiments_fig2_trends_are_negative_where_expected() {
    use ksa_core::analysis::surface_trends;
    use ksa_core::kernel::Category;
    let corpus = experiments::default_corpus(Scale::Tiny);
    let (f2, _) = experiments::fig2(&corpus.corpus, Scale::Tiny, 5, 0, false);
    let trends = surface_trends(&f2);
    // Filesystem and permissions: the paper's two reliable responders.
    for want in [Category::Filesystem, Category::Permissions] {
        let t = trends.iter().find(|t| t.category == want).unwrap();
        if let Some(c) = t.median_corr {
            assert!(
                c < 0.25,
                "{want:?} median trend should not be clearly positive: {c}"
            );
        }
        assert!(
            t.outlier_reduction > 1.0,
            "{want:?} outliers must shrink with surface area"
        );
    }
}
