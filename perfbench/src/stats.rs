//! Order statistics over host-measured samples.

/// A set of samples in one unit (µs unless a caller says otherwise).
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// Nearest-rank percentile `p` (0..=100); 0.0 for an empty set.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Samples strictly above percentile `p`: the tail percentile of a
    /// workload is only reported when at least ten samples lie beyond it.
    pub fn beyond(&self, p: f64) -> usize {
        let cut = self.percentile(p);
        self.0.iter().filter(|&&v| v > cut).count()
    }
}

/// Windows a timed phase is split into.
pub const WINDOWS: usize = 16;

/// The calm pool keeps one window in this many.
const CALM_SHARE: usize = 2;

/// One window of a timed phase: its latency samples plus the work and
/// time it covered.
#[derive(Debug, Default, Clone)]
pub struct Window {
    pub samples: Samples,
    pub busy_ns: f64,
    pub ops: u64,
    pub sops: u64,
}

impl Window {
    pub fn add(&mut self, us: f64, sops: u64) {
        self.samples.push(us);
        self.busy_ns += us * 1e3;
        self.ops += 1;
        self.sops += sops;
    }

    pub fn merge(&mut self, other: &Window) {
        for &v in &other.samples.0 {
            self.samples.push(v);
        }
        self.busy_ns += other.busy_ns;
        self.ops += other.ops;
        self.sops += other.sops;
    }
}

/// The least-disturbed half of a phase.
///
/// Other tenants of a shared host slow a run down in bursts of one to a
/// few seconds, by up to 2x, and only ever slow it down; the bursts cover a
/// different share of each run. So a phase is split into [`WINDOWS`]
/// consecutive windows, the windows are ranked by `rank` (lower is
/// calmer), and the calmer half is pooled. Every end-to-end statistic
/// is computed over that pool. Returns the pool and how many windows it
/// holds.
pub fn calm_pool(windows: &[Window], rank: impl Fn(&Window) -> f64) -> (Window, usize) {
    let mut order: Vec<&Window> = windows.iter().filter(|w| w.ops > 0).collect();
    order.sort_by(|a, b| rank(a).total_cmp(&rank(b)));
    let keep = order.len().div_ceil(CALM_SHARE);
    let mut pool = Window::default();
    for w in &order[..keep] {
        pool.merge(w);
    }
    (pool, keep)
}

/// Groups consecutive items (e.g. passes over the inputs) into at most
/// [`WINDOWS`] windows of near-equal size.
pub fn group(items: &[Window]) -> Vec<Window> {
    let n = items.len();
    let windows = WINDOWS.min(n);
    (0..windows)
        .map(|w| {
            let mut window = Window::default();
            for item in &items[w * n / windows..(w + 1) * n / windows] {
                window.merge(item);
            }
            window
        })
        .collect()
}

/// Median of a small set of repeated measurements (e.g. set-up times).
pub fn median(values: &[f64]) -> f64 {
    let mut samples = Samples::default();
    for &v in values {
        samples.push(v);
    }
    samples.median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(f64::from(v));
        }
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.beyond(90.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn calm_pool_keeps_the_fastest_windows() {
        let items: Vec<Window> = [5.0, 1.0, 9.0, 2.0, 7.0, 8.0, 6.0, 4.0]
            .iter()
            .map(|&us| {
                let mut w = Window::default();
                w.add(us, 10);
                w
            })
            .collect();
        let windows = group(&items);
        assert_eq!(windows.len(), 8);
        let (pool, kept) = calm_pool(&windows, |w| w.samples.median());
        assert_eq!(kept, 4);
        assert_eq!(pool.ops, 4);
        assert_eq!(pool.sops, 40);
        assert_eq!(pool.samples.percentile(100.0), 5.0);
    }
}
