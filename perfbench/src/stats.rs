//! Summary statistics and process probes shared by every workload.

/// Fewest samples that must lie strictly beyond a percentile before it is
/// reported: a tail figure resting on fewer samples is noise.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of `samples`, linearly interpolated
/// between order statistics, or `None` when fewer than
/// [`MIN_TAIL_SAMPLES`] samples rank strictly above it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "percentile rank {q} outside (0, 1)");
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    if n < rank + MIN_TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of a non-empty sample (mean of the middle pair for even
/// counts). Used to combine per-repetition figures, where the tail rule of
/// [`percentile`] does not apply: each value is already a summary.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// 64-bit FNV-1a of a string: a compact, stable stand-in for a report
/// digest when comparing runs.
pub fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU time this process has consumed, in seconds, summed
/// over all its threads (`/proc/self/stat`, at Linux's fixed 100 ticks/s).
pub fn cpu_seconds() -> Option<f64> {
    const TICKS_PER_SECOND: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; the fields after its closing
    // parenthesis are space-separated, with utime and stime 12th and 13th.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(percentile(&samples, 0.9).is_some());
        assert!(percentile(&samples[..99], 0.9).is_none());
        assert!(percentile(&samples[..20], 0.5).is_some());
        assert!(percentile(&samples[..19], 0.5).is_none());
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let samples: Vec<f64> = (0..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        let even: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&even, 0.5), Some(10.5));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
