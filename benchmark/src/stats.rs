//! Order statistics over samples, and the process accounting read from
//! `/proc`.

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The quartile spread the acceptance rule uses: `(q3 - q1) / median`, with
/// the quartiles of Python's `statistics.quantiles(values, n=4)` (exclusive
/// method). 0 for fewer than two values or a zero median.
pub fn iqr_share(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        let pos = k as f64 * (s.len() + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, s.len() - 1);
        let frac = pos - lo as f64;
        s[lo - 1] + (s[lo] - s[lo - 1]) * frac
    };
    let m = median(&s);
    if m == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / m
    }
}

/// On-CPU nanoseconds from one `/proc/<pid>/task/<tid>/schedstat` line (its
/// first field, the scheduler's exact run-time sum).
pub fn on_cpu_ns_of_schedstat(line: &str) -> Option<u64> {
    line.split_ascii_whitespace().next()?.parse().ok()
}

/// On-CPU seconds of every live thread of this process except the caller.
///
/// Read from `schedstat`, not `stat`: this kernel fills `utime`/`stime` by
/// sampling at the timer tick, which misjudges threads that run in bursts
/// much shorter than a tick, as the predicate threads do at a paced rate.
pub fn other_threads_cpu_s() -> f64 {
    let me = std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name().map(|n| n.to_owned()));
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let ns: u64 = tasks
        .flatten()
        .filter(|t| Some(t.file_name()) != me)
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| on_cpu_ns_of_schedstat(&s))
        .sum();
    ns as f64 / 1e9
}

/// `VmRSS` (current resident set) of this process in MB; 0 if unreadable.
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_ascii_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 0.5), 5);
        assert_eq!(percentile(&v, 0.9), 9);
        assert_eq!(percentile(&v, 1.0), 10);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn iqr_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 100.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 100.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn schedstat_first_field_is_the_run_time() {
        assert_eq!(
            on_cpu_ns_of_schedstat("123456789 4242 17\n"),
            Some(123_456_789)
        );
        assert_eq!(on_cpu_ns_of_schedstat(""), None);
        assert_eq!(on_cpu_ns_of_schedstat("x 1 2"), None);
    }

    #[test]
    fn other_threads_cpu_sees_a_live_busy_helper() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let before = other_threads_cpu_s();
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
            });
            std::thread::sleep(std::time::Duration::from_millis(80));
            let seen = other_threads_cpu_s() - before;
            done.store(true, Ordering::Release);
            assert!(seen > 0.01, "busy helper not accounted: {seen} s");
        });
        assert!(rss_mb() > 0.0);
    }
}
