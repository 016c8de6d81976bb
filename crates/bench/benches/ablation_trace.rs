//! Ablation: latency *attribution* across the surface-area sweep.
//!
//! The tracing tentpole's acceptance gate. A networking-heavy corpus
//! runs under barrier sync on one 8-core machine divided into 1, 2, 4
//! and 8 VMs. With per-call attribution retained (`keep_raw`), the tail
//! of the Network-category calls can be *decomposed*: on a shared
//! kernel the p99 is dominated by lock wait (softirq, NIC rings, socket
//! buckets, conntrack); splitting the kernel shrinks each instance's
//! lock population, so the **lock-wait share of the tail must decline
//! monotonically** from shared to per-core — while the VM-exit share
//! rises (virtio doorbells replace queueing). This is the paper's
//! surface-area mechanism, read off the attribution rather than
//! inferred from totals.

use ksa_bench::microbench;
use ksa_core::experiments::{net_corpus, Scale};
use ksa_envsim::{EnvKind, EnvSpec, Machine};
use ksa_kernel::{Attribution, Category, RawCall};
use ksa_varbench::{run_hooked, RunConfig, RunResult};

const MACHINE: Machine = Machine {
    cores: 8,
    mem_mib: 4 * 1024,
};

fn trial(corpus: &ksa_kernel::prog::Corpus, kind: EnvKind) -> RunResult {
    run_hooked(
        &RunConfig::new(EnvSpec::new(MACHINE, kind), 6, 23),
        corpus,
        |engine| {
            use ksa_kernel::world::HasKernel;
            engine.world_mut().kernel_mut().attrib.keep_raw = true;
        },
    )
    .expect("ablation_trace trial failed")
}

/// Aggregated decomposition of the Network-category tail: every raw
/// call in the slowest decile (at or above the p90 total latency — the
/// mass that determines where the p99 lands; the p99 slice alone is a
/// handful of calls and too grainy to decompose). Also returns the p99
/// cut itself for reporting.
fn tail_decomposition(raw: &[RawCall]) -> (u64, Attribution) {
    let mut net: Vec<&RawCall> = raw
        .iter()
        .filter(|c| c.no.categories().contains(&Category::Network))
        .collect();
    assert!(!net.is_empty(), "corpus must exercise Network syscalls");
    net.sort_by_key(|c| c.attrib.total);
    let p99 = net[(net.len() - 1) * 99 / 100].attrib.total;
    let p90 = net[(net.len() - 1) * 90 / 100].attrib.total;
    let mut agg = Attribution::default();
    for c in net.iter().filter(|c| c.attrib.total >= p90) {
        agg.add(&c.attrib);
    }
    (p99, agg)
}

fn share(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        part as f64 / total as f64
    }
}

fn main() {
    let corpus = net_corpus(Scale::Tiny);
    let group = microbench::group("ablation_trace").sample_size(5);

    for (label, kind) in [
        ("attrib_shared_vm1", EnvKind::Vm(1)),
        ("attrib_percore_vm8", EnvKind::Vm(8)),
    ] {
        group.bench(label, || trial(&corpus, kind));
    }

    // The gate: lock-wait share of the Network tail declines
    // monotonically as the kernel splits 1 → 2 → 4 → 8 instances.
    let mut shares = Vec::new();
    for count in [1usize, 2, 4, 8] {
        let res = trial(&corpus, EnvKind::Vm(count));
        assert_eq!(
            res.attrib.raw.len() as u64,
            res.attrib.calls(),
            "keep_raw must retain every recorded call"
        );
        let (p99, tail) = tail_decomposition(&res.attrib.raw);
        assert!(tail.is_exact(), "tail aggregate must stay exact");
        let lock_share = share(tail.lock_wait, tail.total);
        let exit_share = share(tail.vm_exit, tail.total);
        eprintln!(
            "Vm({count}): net p99={p99}ns tail lock-wait {:.1}% vm-exit {:.1}% \
             (softirq {:.1}%, runq {:.1}%)",
            100.0 * lock_share,
            100.0 * exit_share,
            100.0 * share(tail.softirq_wait, tail.total),
            100.0 * share(tail.runq_wait, tail.total),
        );
        shares.push((count, lock_share, exit_share));
    }
    for w in shares.windows(2) {
        assert!(
            w[1].1 <= w[0].1,
            "lock-wait share of the Network tail must decline with the split: \
             Vm({}) {:.3} vs Vm({}) {:.3}",
            w[0].0,
            w[0].1,
            w[1].0,
            w[1].1
        );
    }
    assert!(
        shares[0].1 > shares[3].1,
        "shared kernel must show strictly more tail lock wait than per-core VMs"
    );
    assert!(
        shares[3].2 >= shares[0].2,
        "the per-core split pays for isolation in VM exits, not lock wait"
    );

    // The attribution table renders the paste-ready category view.
    let res = trial(&corpus, EnvKind::Vm(1));
    eprintln!(
        "shared-kernel attribution:\n{}",
        res.attrib.render_by_category()
    );
}
