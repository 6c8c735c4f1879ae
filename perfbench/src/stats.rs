//! Order statistics and process memory readings.

/// A nearest-rank percentile together with the sample it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile asked for, in `(0, 100]`.
    pub pct: f64,
    /// The sample value at the nearest rank (`f64::INFINITY` for a failed
    /// operation that was counted as missing every limit).
    pub value: f64,
    /// Samples the percentile was read from.
    pub samples: usize,
    /// Samples ranked strictly above the percentile's rank: a percentile is
    /// only trustworthy with at least ten of them.
    pub beyond: usize,
}

impl std::fmt::Display for Percentile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{} = {:.3} (n = {}, {} beyond)",
            self.pct, self.value, self.samples, self.beyond
        )
    }
}

/// The nearest-rank `pct`-th percentile of `values`: the smallest sample
/// with at least `pct` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty sample or a `pct` outside `(0, 100]`.
pub fn nearest_rank(values: &[f64], pct: f64) -> Percentile {
    assert!(!values.is_empty(), "percentile of an empty sample");
    assert!(
        pct > 0.0 && pct <= 100.0,
        "percentile {pct} outside (0, 100]"
    );
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Percentile {
        pct,
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    }
}

/// The median (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MB, from the `VmHWM` line of
/// `/proc/self/status` (kB there).  `None` where the file or line is absent.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_mb(&status)
}

/// Resets this process's peak resident set size to its current size (the
/// kernel's `clear_refs` interface), so a later [`peak_rss_mb`] covers only
/// what ran in between.  Returns whether the reset took effect.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Hands the heap memory the allocator holds free back to the kernel
/// (glibc's `malloc_trim`; a no-op elsewhere), so a peak measured after it
/// counts live memory rather than the allocator's cache of earlier frees.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers, only releases memory the
        // allocator already holds free, and is safe to call from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// The `VmHWM` value of a `/proc/<pid>/status` text, in MB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kb / 1024.0),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_reports_rank_and_count() {
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let p99 = nearest_rank(&values, 99.0);
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.samples, 1000);
        assert_eq!(p99.beyond, 10);
        let p50 = nearest_rank(&values, 50.0);
        assert_eq!(p50.value, 500.0);
        assert_eq!(nearest_rank(&[7.0], 99.0).value, 7.0);
        assert_eq!(nearest_rank(&[1.0, 2.0], 100.0).value, 2.0);
        assert!(p99.to_string().contains("n = 1000"));
    }

    #[test]
    fn failures_counted_as_infinite_push_the_tail() {
        let mut values = vec![1.0; 995];
        values.extend([f64::INFINITY; 5]);
        assert_eq!(nearest_rank(&values, 99.0).value, 1.0);
        values.extend([f64::INFINITY; 10]);
        assert!(nearest_rank(&values, 99.0).value.is_infinite());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn vm_hwm_is_parsed_in_megabytes() {
        let status = "Name:\tx\nVmPeak:\t 9999 kB\nVmHWM:\t   2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS: 1 kB\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn peak_rss_reset_forgets_earlier_peaks() {
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        drop(block);
        let before = peak_rss_mb().unwrap();
        if reset_peak_rss() {
            assert!(peak_rss_mb().unwrap() < before);
        }
    }
}
