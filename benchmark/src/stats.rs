//! Order statistics over operation latencies, the machine-speed probe that
//! normalizes CPU-bound operation times, and peak memory.

/// Linearly interpolated percentile (`q` in `[0, 1]`) of an ascending
/// sample; `0.0` for an empty one.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts a copy of `values` ascending.
#[must_use]
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Arithmetic mean (`0.0` for an empty slice).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `stat` of each class's ascending samples, geometric mean over classes.
///
/// Workloads that rotate over designs of very different cost (a 15-net
/// OTA next to a 20-net one) record each operation under its design's
/// class, so every design weighs the same, in relative terms, however
/// many operations of each fit in the time budget.
#[must_use]
pub fn balanced(samples: &[(usize, f64)], stat: impl Fn(&[f64]) -> f64) -> f64 {
    let mut classes: Vec<usize> = samples.iter().map(|&(c, _)| c).collect();
    classes.sort_unstable();
    classes.dedup();
    if classes.is_empty() {
        return 0.0;
    }
    let per_class: Vec<f64> = classes
        .iter()
        .map(|&c| {
            stat(&sorted(
                samples.iter().filter(|&&(k, _)| k == c).map(|&(_, v)| v),
            ))
        })
        .collect();
    geomean(&per_class)
}

/// Geometric mean of positive values (`0.0` for an empty slice).
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(1e-300).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Seconds the calibration kernel takes at the reference machine speed.
pub const REFERENCE_S: f64 = 0.010;

/// A probe of how fast the machine runs right now: a fixed integer and
/// cache-bound kernel (a xorshift walk over a 4 MiB table) run at once on
/// as many threads as the timed operations use; each thread keeps the
/// shorter of two runs, and the probe is their mean.
///
/// The CPU speed of a shared virtual machine drifts by tens of percent
/// within a minute. Probing right before and right after an operation and
/// scaling the operation's time by `REFERENCE_S / probe time` cancels much
/// of that drift. A two-thread flow needs a two-thread probe: in two
/// eight-run sets of flow-quick, one-thread probes left run-to-run spreads
/// of 0.105 and 0.065 where two-thread probes left 0.057 and 0.041.
pub struct Calibrator {
    /// One table per probing thread, allocated once.
    tables: Vec<Vec<u64>>,
    /// The last probe: kernel seconds and when it ended.
    last: Option<(f64, std::time::Instant)>,
    /// The probe that opened the current operation.
    opening: f64,
}

/// A probe that ended this recently still describes the machine.
const PROBE_REUSE: std::time::Duration = std::time::Duration::from_millis(5);

/// Seconds one run of the kernel takes over `table`.
fn kernel(table: &mut [u64]) -> f64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mask = table.len() - 1;
    let t = std::time::Instant::now();
    for _ in 0..4 {
        for i in 0..table.len() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x as usize) & mask;
            table[j] = table[j].wrapping_add(x ^ table[i]);
        }
    }
    std::hint::black_box(&table);
    t.elapsed().as_secs_f64()
}

fn best_of_two(table: &mut [u64]) -> f64 {
    kernel(table).min(kernel(table))
}

impl Calibrator {
    /// A calibrator probing on `threads` threads (at least one).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            tables: vec![vec![0u64; 1 << 19]; threads.max(1)],
            last: None,
            opening: REFERENCE_S,
        }
    }

    /// Seconds the kernel takes now.
    pub fn probe(&mut self) -> f64 {
        let (first, rest) = self.tables.split_first_mut().expect("at least one table");
        let seconds = std::thread::scope(|s| {
            let others: Vec<_> = rest
                .iter_mut()
                .map(|table| s.spawn(|| best_of_two(table)))
                .collect();
            let own = best_of_two(first);
            others
                .into_iter()
                .map(|h| h.join().expect("probe thread"))
                .sum::<f64>()
                + own
        }) / self.tables.len() as f64;
        self.last = Some((seconds, std::time::Instant::now()));
        seconds
    }

    /// Scales `seconds`, measured just before, to the reference speed.
    pub fn normalize(&mut self, seconds: f64) -> f64 {
        seconds * REFERENCE_S / self.probe().max(1e-9)
    }

    /// Opens an operation: probes (or reuses a probe that just ended) and
    /// returns the operation's start.
    pub fn start(&mut self) -> std::time::Instant {
        self.opening = match self.last {
            Some((seconds, at)) if at.elapsed() < PROBE_REUSE => seconds,
            _ => self.probe(),
        };
        std::time::Instant::now()
    }

    /// Closes the operation opened at `started`: returns its wall seconds
    /// and its seconds at the reference speed, judged by the mean of the
    /// probes on either side.
    pub fn finish(&mut self, started: std::time::Instant) -> (f64, f64) {
        let wall = started.elapsed().as_secs_f64();
        let kernel = (self.opening + self.probe()) / 2.0;
        (wall, wall * REFERENCE_S / kernel.max(1e-9))
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert!((percentile(&s, 0.5) - 2.5).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn balanced_weighs_classes_equally() {
        // Class 0 has three cheap samples, class 1 one expensive sample.
        let samples = [(0, 1.0), (0, 1.0), (0, 1.0), (1, 9.0)];
        assert!((balanced(&samples, |s| percentile(s, 0.5)) - 3.0).abs() < 1e-12);
        assert!((balanced(&samples, mean) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn probes_read() {
        assert!(peak_rss_mb() > 0.0);
        let mut cal = Calibrator::new(2);
        assert!(cal.probe() > 0.0);
        assert!(cal.normalize(1.0) > 0.0);
        let started = cal.start();
        let (wall, normalized) = cal.finish(started);
        assert!(wall >= 0.0 && normalized >= 0.0);
    }
}
