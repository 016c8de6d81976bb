//! Per-syscall latency attribution: the lockstat + perf analogue.
//!
//! The engine's always-on [`LatBreakdown`] accounting tiles every
//! process's timeline with latency components. This module turns two
//! snapshots bracketing one syscall into an [`Attribution`] — the
//! call's total nanoseconds decomposed into on-CPU work, VM-exit
//! overhead, lock wait, run-queue wait split by occupant class,
//! softirq interference, I/O, IPI and RCU waits — with the invariant
//! that **components sum exactly to the total**. [`AttributionTable`]
//! aggregates per syscall, per category and per lock label across a
//! run; the harness (varbench/tailbench) drains it after the engine
//! finishes.

use std::collections::BTreeMap;

use ksa_desim::{LatBreakdown, LatComp, LatSnapshot, Ns};

use crate::category::Category;
use crate::syscalls::SysNo;

/// One syscall's (or aggregate's) latency decomposition. All values in
/// virtual nanoseconds; `total` always equals the sum of the other
/// fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Attribution {
    /// Wall (virtual) time of the call, entry to exit.
    pub total: Ns,
    /// Productive kernel + user CPU work, VM exits excluded.
    pub on_cpu: Ns,
    /// Virtualization exit overhead (doorbells, APIC, MSR, halt, and
    /// per-syscall guest entry cost).
    pub vm_exit: Ns,
    /// Timer-interrupt overhead charged while computing.
    pub tick_irq: Ns,
    /// Blocked acquiring locks (all labels; see the per-label table).
    pub lock_wait: Ns,
    /// Core-occupancy wait behind other application work.
    pub runq_wait: Ns,
    /// Core-occupancy wait behind softirq (NAPI) polling.
    pub softirq_wait: Ns,
    /// Core-occupancy wait behind housekeeping daemons.
    pub daemon_wait: Ns,
    /// Core-occupancy wait behind stolen interrupt-handler time.
    pub irq_wait: Ns,
    /// Blocked on device I/O.
    pub io_wait: Ns,
    /// Blocked broadcasting IPIs (TLB shootdowns).
    pub ipi_wait: Ns,
    /// Blocked in RCU grace periods.
    pub rcu_wait: Ns,
    /// Voluntary sleep (nanosleep, timeouts).
    pub sleep: Ns,
    /// Barrier and wait-queue blocking (futex/IPC rendezvous).
    pub other_wait: Ns,
}

impl Attribution {
    /// Field names in render order (kept in sync with [`Self::values`]).
    pub const COMPONENTS: [&'static str; 13] = [
        "on_cpu",
        "vm_exit",
        "tick_irq",
        "lock_wait",
        "runq_wait",
        "softirq_wait",
        "daemon_wait",
        "irq_wait",
        "io_wait",
        "ipi_wait",
        "rcu_wait",
        "sleep",
        "other_wait",
    ];

    /// Component values in [`Self::COMPONENTS`] order.
    pub fn values(&self) -> [Ns; 13] {
        [
            self.on_cpu,
            self.vm_exit,
            self.tick_irq,
            self.lock_wait,
            self.runq_wait,
            self.softirq_wait,
            self.daemon_wait,
            self.irq_wait,
            self.io_wait,
            self.ipi_wait,
            self.rcu_wait,
            self.sleep,
            self.other_wait,
        ]
    }

    /// Builds an attribution from an engine component delta, carving
    /// `vm_exit` nanoseconds out of the on-CPU component (the engine
    /// charges exit costs as compute; the op runner knows statically how
    /// much of a call's compute was exit overhead).
    pub fn from_delta(delta: &LatBreakdown, vm_exit: Ns) -> Self {
        let on_cpu_raw = delta.get(LatComp::OnCpu);
        debug_assert!(
            vm_exit <= on_cpu_raw,
            "vm exit overhead ({vm_exit}ns) exceeds on-cpu delta ({on_cpu_raw}ns)"
        );
        let vm_exit = vm_exit.min(on_cpu_raw);
        Self {
            total: delta.total(),
            on_cpu: on_cpu_raw - vm_exit,
            vm_exit,
            tick_irq: delta.get(LatComp::TickIrq),
            lock_wait: delta.get(LatComp::LockWait),
            runq_wait: delta.get(LatComp::RunqWait),
            softirq_wait: delta.get(LatComp::SoftirqWait),
            daemon_wait: delta.get(LatComp::DaemonWait),
            irq_wait: delta.get(LatComp::IrqWait),
            io_wait: delta.get(LatComp::IoWait),
            ipi_wait: delta.get(LatComp::IpiWait),
            rcu_wait: delta.get(LatComp::RcuWait),
            sleep: delta.get(LatComp::Sleep),
            other_wait: delta.get(LatComp::BarrierWait) + delta.get(LatComp::QueueWait),
        }
    }

    /// Sum of all components (must equal `total`).
    pub fn component_sum(&self) -> Ns {
        self.values().iter().sum()
    }

    /// The sum-to-total invariant.
    pub fn is_exact(&self) -> bool {
        self.component_sum() == self.total
    }

    /// Accumulates another attribution (aggregation across calls).
    pub fn add(&mut self, other: &Attribution) {
        self.total += other.total;
        self.on_cpu += other.on_cpu;
        self.vm_exit += other.vm_exit;
        self.tick_irq += other.tick_irq;
        self.lock_wait += other.lock_wait;
        self.runq_wait += other.runq_wait;
        self.softirq_wait += other.softirq_wait;
        self.daemon_wait += other.daemon_wait;
        self.irq_wait += other.irq_wait;
        self.io_wait += other.io_wait;
        self.ipi_wait += other.ipi_wait;
        self.rcu_wait += other.rcu_wait;
        self.sleep += other.sleep;
        self.other_wait += other.other_wait;
    }
}

/// One completed call's raw attribution, kept when
/// [`AttributionTable::keep_raw`] is set (tail analysis needs the
/// per-call distribution, not just aggregates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawCall {
    /// The syscall.
    pub no: SysNo,
    /// Its decomposition.
    pub attrib: Attribution,
}

/// Aggregated per-run attribution, living in the kernel world so the
/// executor can feed it and the harness can drain it after the run.
///
/// The per-sysno and per-category aggregates are dense arrays indexed
/// by [`SysNo::index`]/[`Category::index`] — `record` runs once per
/// simulated syscall, and the map lookups it used to do were a
/// measurable slice of the engine's per-event budget. The
/// [`AttributionTable::by_sysno`]/[`AttributionTable::by_category`]
/// iterators present the same touched-entries-in-declaration-order
/// view the old sorted maps gave.
#[derive(Debug, Clone)]
pub struct AttributionTable {
    /// `(calls, summed attribution)` per syscall, indexed by
    /// [`SysNo::index`].
    sysno: Vec<(u64, Attribution)>,
    /// `(calls, summed attribution)` per primary category (the first
    /// category of the syscall, so category rows partition the calls),
    /// indexed by [`Category::index`].
    category: [(u64, Attribution); Category::ALL.len()],
    /// Total lock wait per lock label, across all calls.
    pub lock_wait_by_label: BTreeMap<&'static str, Ns>,
    /// When true, every call's raw attribution is retained in `raw`.
    pub keep_raw: bool,
    /// Raw per-call records (empty unless `keep_raw`).
    pub raw: Vec<RawCall>,
}

impl Default for AttributionTable {
    fn default() -> Self {
        Self {
            sysno: vec![Default::default(); SysNo::ALL.len()],
            category: [Default::default(); Category::ALL.len()],
            lock_wait_by_label: BTreeMap::new(),
            keep_raw: false,
            raw: Vec::new(),
        }
    }
}

impl AttributionTable {
    /// `(sysno, (calls, summed attribution))` for every syscall with at
    /// least one recorded call, in [`SysNo::ALL`] order.
    pub fn by_sysno(&self) -> impl Iterator<Item = (SysNo, &(u64, Attribution))> {
        SysNo::ALL
            .iter()
            .zip(&self.sysno)
            .filter(|(_, e)| e.0 > 0)
            .map(|(&no, e)| (no, e))
    }

    /// `(category, (calls, summed attribution))` for every category
    /// with at least one recorded call, in [`Category::ALL`] order.
    pub fn by_category(&self) -> impl Iterator<Item = (Category, &(u64, Attribution))> {
        Category::ALL
            .iter()
            .zip(&self.category)
            .filter(|(_, e)| e.0 > 0)
            .map(|(&cat, e)| (cat, e))
    }

    /// Records one completed call from the snapshots bracketing it.
    /// `vm_exit` is the op runner's statically-known exit overhead.
    /// Returns the call's attribution.
    pub fn record(
        &mut self,
        no: SysNo,
        before: &LatSnapshot,
        after: &LatSnapshot,
        vm_exit: Ns,
    ) -> Attribution {
        let delta = after.comps.since(&before.comps);
        let attrib = Attribution::from_delta(&delta, vm_exit);
        let entry = &mut self.sysno[no.index()];
        entry.0 += 1;
        entry.1.add(&attrib);
        let centry = &mut self.category[no.primary_category().index()];
        centry.0 += 1;
        centry.1.add(&attrib);
        after.for_each_lock_wait_since(before, |label, ns| {
            *self.lock_wait_by_label.entry(label).or_default() += ns;
        });
        if self.keep_raw {
            self.raw.push(RawCall { no, attrib });
        }
        attrib
    }

    /// Merges another table into this one (cross-engine aggregation).
    pub fn merge(&mut self, other: &AttributionTable) {
        for (entry, (calls, attrib)) in self.sysno.iter_mut().zip(&other.sysno) {
            entry.0 += calls;
            entry.1.add(attrib);
        }
        for (entry, (calls, attrib)) in self.category.iter_mut().zip(&other.category) {
            entry.0 += calls;
            entry.1.add(attrib);
        }
        for (label, ns) in &other.lock_wait_by_label {
            *self.lock_wait_by_label.entry(label).or_default() += ns;
        }
        if self.keep_raw {
            self.raw.extend(other.raw.iter().copied());
        }
    }

    /// Total calls recorded.
    pub fn calls(&self) -> u64 {
        self.sysno.iter().map(|(n, _)| n).sum()
    }

    /// Grand-total attribution across all calls.
    pub fn grand_total(&self) -> Attribution {
        let mut out = Attribution::default();
        for (_, attrib) in &self.sysno {
            out.add(attrib);
        }
        out
    }

    /// Renders a per-category attribution table (percent of total per
    /// component, dropping all-zero components) — the paste-ready form
    /// for experiment reports.
    pub fn render_by_category(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let grand = self.grand_total();
        let live: Vec<usize> = (0..Attribution::COMPONENTS.len())
            .filter(|&i| grand.values()[i] > 0)
            .collect();
        let _ = write!(out, "{:<28} {:>8} {:>12}", "category", "calls", "total_ns");
        for &i in &live {
            let _ = write!(out, " {:>12}", Attribution::COMPONENTS[i]);
        }
        out.push('\n');
        for (cat, &(calls, attrib)) in self.by_category() {
            let _ = write!(out, "{:<28} {:>8} {:>12}", cat.name(), calls, attrib.total);
            let vals = attrib.values();
            for &i in &live {
                let pct = if attrib.total == 0 {
                    0.0
                } else {
                    100.0 * vals[i] as f64 / attrib.total as f64
                };
                let _ = write!(out, " {:>11.1}%", pct);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(on_cpu: Ns, lock: Ns, zone: Ns) -> LatSnapshot {
        let mut comps = LatBreakdown::default();
        comps.add(LatComp::OnCpu, on_cpu);
        comps.add(LatComp::LockWait, lock);
        LatSnapshot {
            comps,
            lock_waits: if zone > 0 {
                vec![("zone", zone)]
            } else {
                vec![]
            },
        }
    }

    #[test]
    fn attribution_carves_vm_exit_out_of_on_cpu() {
        let before = snap(100, 0, 0);
        let after = snap(600, 40, 40);
        let delta = after.comps.since(&before.comps);
        let a = Attribution::from_delta(&delta, 200);
        assert_eq!(a.total, 540);
        assert_eq!(a.on_cpu, 300);
        assert_eq!(a.vm_exit, 200);
        assert_eq!(a.lock_wait, 40);
        assert!(a.is_exact());
    }

    #[test]
    fn table_records_and_aggregates() {
        let mut t = AttributionTable {
            keep_raw: true,
            ..Default::default()
        };
        let a1 = t.record(SysNo::Getpid, &snap(0, 0, 0), &snap(500, 0, 0), 100);
        assert!(a1.is_exact());
        t.record(SysNo::Getpid, &snap(500, 0, 0), &snap(900, 50, 50), 0);
        let (calls, agg) = t.sysno[SysNo::Getpid.index()];
        assert_eq!(calls, 2);
        assert_eq!(agg.total, 950);
        assert_eq!(agg.vm_exit, 100);
        assert_eq!(agg.lock_wait, 50);
        assert!(agg.is_exact());
        assert_eq!(t.lock_wait_by_label["zone"], 50);
        assert_eq!(t.raw.len(), 2);
        assert_eq!(t.calls(), 2);
        assert_eq!(t.grand_total().total, 950);
    }

    #[test]
    fn merge_combines_tables() {
        let mut a = AttributionTable::default();
        a.record(SysNo::Getpid, &snap(0, 0, 0), &snap(100, 0, 0), 0);
        let mut b = AttributionTable::default();
        b.record(SysNo::Getpid, &snap(0, 0, 0), &snap(200, 30, 30), 0);
        a.merge(&b);
        let (calls, agg) = a.sysno[SysNo::Getpid.index()];
        assert_eq!(calls, 2);
        assert_eq!(agg.total, 330);
        assert_eq!(a.lock_wait_by_label["zone"], 30);
    }

    #[test]
    fn render_contains_category_rows() {
        let mut t = AttributionTable::default();
        t.record(SysNo::Getpid, &snap(0, 0, 0), &snap(100, 20, 20), 10);
        let r = t.render_by_category();
        assert!(r.contains("category"), "{r}");
        assert!(r.contains("on_cpu"), "{r}");
        assert!(r.contains("lock_wait"), "{r}");
    }
}
