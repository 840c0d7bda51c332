//! Fixed-width time-binned event counting.
//!
//! The paper reports almost everything as per-second curves (queries dropped
//! every second, replicas created every second, per-second server load).
//! [`BinnedCounter`] bins a stream of event times into fixed `dt`-wide bins;
//! [`rolling_mean`] post-processes a series the way Fig. 6 smooths the
//! maximum load over 11-second windows.

/// Counts events per time bin (e.g. drops per second).
#[derive(Debug, Clone)]
pub struct BinnedCounter {
    dt: f64,
    bins: Vec<u64>,
}

impl BinnedCounter {
    /// A counter with bins of width `dt` seconds.
    pub fn new(dt: f64) -> BinnedCounter {
        assert!(dt > 0.0 && dt.is_finite(), "bin width must be positive");
        BinnedCounter {
            dt,
            bins: Vec::new(),
        }
    }

    fn bin_of(&self, t: f64) -> usize {
        assert!(t >= 0.0 && t.is_finite(), "time must be non-negative");
        (t / self.dt) as usize
    }

    /// Records one event at time `t`.
    pub fn record(&mut self, t: f64) {
        self.record_n(t, 1);
    }

    /// Records `n` events at time `t`.
    pub fn record_n(&mut self, t: f64, n: u64) {
        let b = self.bin_of(t);
        if b >= self.bins.len() {
            self.bins.resize(b + 1, 0);
        }
        if let Some(bin) = self.bins.get_mut(b) {
            *bin += n;
        }
    }

    /// The per-bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Bin width in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Per-bin counts normalized by a constant (e.g. `count / λ` giving the
    /// "fraction of queries dropped every second" of Fig. 3).
    pub fn normalized(&self, denom: f64) -> Vec<f64> {
        assert!(denom > 0.0);
        self.bins.iter().map(|&c| c as f64 / denom).collect()
    }
}

/// Centered-nowhere (trailing) rolling mean over `window` bins.
///
/// `out[i] = mean(series[i.saturating_sub(window-1) ..= i])` — the Fig. 6
/// right panel smooths the per-second maximum load this way over 11 s.
pub fn rolling_mean(series: &[f64], window: usize) -> Vec<f64> {
    assert!(window >= 1, "window must be at least 1");
    let mut out = Vec::with_capacity(series.len());
    let mut acc = 0.0;
    for (i, &v) in series.iter().enumerate() {
        acc += v;
        if i >= window {
            acc -= series.get(i - window).copied().unwrap_or(0.0);
        }
        let n = (i + 1).min(window);
        out.push(acc / n as f64);
    }
    out
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]
mod tests {
    use super::*;

    #[test]
    fn counter_bins_by_time() {
        let mut c = BinnedCounter::new(1.0);
        c.record(0.1);
        c.record(0.9);
        c.record(1.0);
        c.record(2.5);
        assert_eq!(c.bins(), &[2, 1, 1]);
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn counter_normalizes() {
        let mut c = BinnedCounter::new(1.0);
        c.record_n(0.0, 50);
        c.record_n(1.5, 25);
        assert_eq!(c.normalized(100.0), vec![0.5, 0.25]);
    }

    #[test]
    fn counter_skips_empty_bins() {
        let mut c = BinnedCounter::new(1.0);
        c.record(5.5);
        assert_eq!(c.bins(), &[0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn rolling_mean_smooths() {
        let s = vec![0.0, 10.0, 0.0, 10.0, 0.0];
        let r = rolling_mean(&s, 2);
        assert_eq!(r, vec![0.0, 5.0, 5.0, 5.0, 5.0]);
    }

    #[test]
    fn rolling_mean_window_one_is_identity() {
        let s = vec![1.0, 2.0, 3.0];
        assert_eq!(rolling_mean(&s, 1), s);
    }

    #[test]
    fn rolling_mean_window_longer_than_series() {
        let s = vec![2.0, 4.0];
        assert_eq!(rolling_mean(&s, 10), vec![2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn counter_rejects_zero_dt() {
        BinnedCounter::new(0.0);
    }
}
