//! Violin-plot summaries (Figure 2 of the paper).
//!
//! Each violin in the paper shows, for one VM configuration and one syscall
//! category, the distribution of per-syscall 99th percentiles: an
//! interquartile box, a 95% confidence whisker, a median dot, and a kernel
//! density outline. [`ViolinSummary`] captures exactly those elements as
//! data so the text/CSV renderers (and any external plotting tool) can
//! reproduce the figure.

use crate::density::kernel_density;
use crate::quantile::quantile_sorted;

/// Data behind one violin: quartiles, whiskers, extrema and a log-space KDE.
#[derive(Debug, Clone)]
pub struct ViolinSummary {
    /// Label for this violin (e.g. `"8 VMs"`).
    pub label: String,
    /// Number of per-site values behind the violin.
    pub count: usize,
    /// Minimum value.
    pub min: u64,
    /// 2.5th percentile (lower end of the 95% interval whisker).
    pub whisker_lo: u64,
    /// First quartile (bottom of the box).
    pub q1: u64,
    /// Median (the white dot).
    pub median: u64,
    /// Third quartile (top of the box).
    pub q3: u64,
    /// 97.5th percentile (upper end of the 95% interval whisker).
    pub whisker_hi: u64,
    /// Maximum value (top of the violin).
    pub max: u64,
    /// KDE grid positions in log10(ns).
    pub kde_grid: Vec<f64>,
    /// KDE density values aligned with `kde_grid`.
    pub kde_density: Vec<f64>,
}

impl ViolinSummary {
    /// Builds a violin from unsorted per-site values. Returns `None` when
    /// `values` is empty.
    pub fn from_values(
        label: impl Into<String>,
        values: &[u64],
        kde_points: usize,
    ) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let (kde_grid, kde_density) = kernel_density(&sorted, kde_points, true);
        Some(Self {
            label: label.into(),
            count: sorted.len(),
            min: sorted[0],
            whisker_lo: quantile_sorted(&sorted, 0.025)?,
            q1: quantile_sorted(&sorted, 0.25)?,
            median: quantile_sorted(&sorted, 0.5)?,
            q3: quantile_sorted(&sorted, 0.75)?,
            whisker_hi: quantile_sorted(&sorted, 0.975)?,
            max: sorted[sorted.len() - 1],
            kde_grid,
            kde_density,
        })
    }

    /// Fraction of KDE mass in the top decade below the max — a scalar proxy
    /// for the "thick upper tail" the paper reads off the violins.
    pub fn upper_tail_mass(&self) -> f64 {
        if self.kde_grid.is_empty() {
            return 0.0;
        }
        let top = (self.max.max(1) as f64).log10() - 1.0;
        let total: f64 = self.kde_density.iter().sum();
        if total == 0.0 {
            return 0.0;
        }
        let upper: f64 = self
            .kde_grid
            .iter()
            .zip(&self.kde_density)
            .filter(|(g, _)| **g >= top)
            .map(|(_, d)| d)
            .sum();
        upper / total
    }

    /// One-line text rendering used by the fig2 experiment binary.
    pub fn render_line(&self) -> String {
        format!(
            "{:<10} n={:<5} min={:<10} q1={:<10} med={:<10} q3={:<10} p97.5={:<10} max={:<10}",
            self.label,
            self.count,
            crate::fmt_ns(self.min),
            crate::fmt_ns(self.q1),
            crate::fmt_ns(self.median),
            crate::fmt_ns(self.q3),
            crate::fmt_ns(self.whisker_hi),
            crate::fmt_ns(self.max),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_values_yield_none() {
        assert!(ViolinSummary::from_values("x", &[], 16).is_none());
    }

    #[test]
    fn quartiles_are_ordered() {
        let vals: Vec<u64> = (1..=1000).map(|i| i * 37 % 7919 + 100).collect();
        let v = ViolinSummary::from_values("v", &vals, 64).unwrap();
        assert!(v.min <= v.whisker_lo);
        assert!(v.whisker_lo <= v.q1);
        assert!(v.q1 <= v.median);
        assert!(v.median <= v.q3);
        assert!(v.q3 <= v.whisker_hi);
        assert!(v.whisker_hi <= v.max);
    }

    #[test]
    fn upper_tail_mass_grows_with_outliers() {
        let base: Vec<u64> = vec![10_000; 200];
        let mut tailed = base.clone();
        // Replace a quarter of the samples with values near a high max so a
        // substantial share of mass sits in the top decade.
        for v in tailed.iter_mut().take(50) {
            *v = 90_000_000;
        }
        tailed.push(100_000_000);
        let mut spiked = base.clone();
        spiked.push(100_000_000); // same max, single outlier only
        let v_spike = ViolinSummary::from_values("spike", &spiked, 128).unwrap();
        let v_tail = ViolinSummary::from_values("tail", &tailed, 128).unwrap();
        assert!(
            v_tail.upper_tail_mass() > v_spike.upper_tail_mass(),
            "{} vs {}",
            v_tail.upper_tail_mass(),
            v_spike.upper_tail_mass()
        );
    }

    #[test]
    fn render_line_mentions_label() {
        let v = ViolinSummary::from_values("8 VMs", &[1, 2, 3], 8).unwrap();
        assert!(v.render_line().contains("8 VMs"));
    }
}
