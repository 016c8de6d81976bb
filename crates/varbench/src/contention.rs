//! Lock-contention attribution: which kernel locks turn concurrency into
//! variability.
//!
//! The engine counts, per simulated lock, total acquisitions, how many
//! had to wait, and — since the lockstat upgrade — how *long* they
//! waited (total and worst-case nanoseconds). Aggregating those counters
//! by lock *label* across a run names the structures behind the tails —
//! the paper's Section 5 reading ("which kernel subsystems most benefit
//! from reductions in surface area?") made quantitative, in durations
//! rather than rates.

use std::collections::BTreeMap;

/// Aggregated contention for one lock label (e.g. `"journal"`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockContention {
    /// Total acquisitions across all locks with this label.
    pub acquisitions: u64,
    /// Acquisitions that found the lock busy and queued.
    pub contended: u64,
    /// Total enqueue → grant wait across contended acquisitions, in ns.
    pub total_wait_ns: u64,
    /// Worst single enqueue → grant wait, in ns.
    pub max_wait_ns: u64,
}

impl LockContention {
    /// Fraction of acquisitions that had to wait.
    pub fn contention_rate(&self) -> f64 {
        if self.acquisitions == 0 {
            0.0
        } else {
            self.contended as f64 / self.acquisitions as f64
        }
    }

    /// Mean wait per contended acquisition, in ns (0 when uncontended).
    pub fn mean_wait_ns(&self) -> u64 {
        self.total_wait_ns.checked_div(self.contended).unwrap_or(0)
    }
}

/// Per-label contention profile of one run.
#[derive(Debug, Clone, Default)]
pub struct ContentionProfile {
    /// Label → aggregated counters, sorted by label. Lock labels are
    /// static, so adding a lock never allocates a key.
    pub by_label: BTreeMap<&'static str, LockContention>,
}

impl ContentionProfile {
    /// Adds one lock's counters *and* wait durations under `label`.
    pub fn add_waits(
        &mut self,
        label: &'static str,
        acquisitions: u64,
        contended: u64,
        total_wait_ns: u64,
        max_wait_ns: u64,
    ) {
        let e = self.by_label.entry(label).or_default();
        e.acquisitions += acquisitions;
        e.contended += contended;
        e.total_wait_ns += total_wait_ns;
        e.max_wait_ns = e.max_wait_ns.max(max_wait_ns);
    }

    /// Total lock-wait nanoseconds across every label.
    pub fn total_wait_ns(&self) -> u64 {
        self.by_label.values().map(|c| c.total_wait_ns).sum()
    }

    /// Labels ordered by total wait time (worst first), falling back to
    /// contended count for profiles without duration data.
    pub fn hotspots(&self) -> Vec<(&str, LockContention)> {
        let mut v: Vec<(&str, LockContention)> =
            self.by_label.iter().map(|(&k, &c)| (k, c)).collect();
        v.sort_by_key(|(_, c)| std::cmp::Reverse((c.total_wait_ns, c.contended)));
        v
    }

    /// Renders the profile as an aligned text table, worst waits first.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "lock                 acquisitions    contended     rate    total_wait_ns      max_wait_ns\n",
        );
        for (label, c) in self.hotspots() {
            out.push_str(&format!(
                "{:<20} {:>12} {:>12} {:>8.1}% {:>16} {:>16}\n",
                label,
                c.acquisitions,
                c.contended,
                100.0 * c.contention_rate(),
                c.total_wait_ns,
                c.max_wait_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_aggregates_by_label() {
        let mut p = ContentionProfile::default();
        p.add_waits("journal", 100, 40, 0, 0);
        p.add_waits("journal", 50, 10, 0, 0);
        p.add_waits("dcache", 500, 5, 0, 0);
        let j = p.by_label["journal"];
        assert_eq!(j.acquisitions, 150);
        assert_eq!(j.contended, 50);
        assert!((j.contention_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn add_waits_sums_totals_and_keeps_worst_max() {
        let mut p = ContentionProfile::default();
        p.add_waits("journal", 10, 4, 1_000, 600);
        p.add_waits("journal", 10, 2, 500, 400);
        let j = p.by_label["journal"];
        assert_eq!(j.total_wait_ns, 1_500);
        assert_eq!(j.max_wait_ns, 600, "max is a max, not a sum");
        assert_eq!(j.mean_wait_ns(), 250);
        assert_eq!(p.total_wait_ns(), 1_500);
    }

    #[test]
    fn hotspots_sort_by_wait_time() {
        let mut p = ContentionProfile::default();
        p.add_waits("a", 10, 9, 100, 100);
        p.add_waits("b", 10, 1, 9_000, 9_000);
        p.add_waits("c", 10, 5, 700, 300);
        let hot: Vec<&str> = p.hotspots().iter().map(|(l, _)| *l).collect();
        assert_eq!(hot, vec!["b", "c", "a"], "durations, not counts, rank");
    }

    #[test]
    fn hotspots_without_durations_fall_back_to_contended() {
        let mut p = ContentionProfile::default();
        p.add_waits("a", 10, 1, 0, 0);
        p.add_waits("b", 10, 9, 0, 0);
        p.add_waits("c", 10, 5, 0, 0);
        let hot: Vec<&str> = p.hotspots().iter().map(|(l, _)| *l).collect();
        assert_eq!(hot, vec!["b", "c", "a"]);
    }

    #[test]
    fn render_contains_labels_rates_and_waits() {
        let mut p = ContentionProfile::default();
        p.add_waits("runqueue", 4, 2, 12_345, 9_000);
        let s = p.render();
        assert!(s.contains("runqueue"));
        assert!(s.contains("50.0%"));
        assert!(s.contains("12345"));
        assert!(s.contains("9000"));
    }

    #[test]
    fn zero_acquisitions_rate_is_zero() {
        let c = LockContention::default();
        assert_eq!(c.contention_rate(), 0.0);
        assert_eq!(c.mean_wait_ns(), 0);
    }
}
