//! Throughput from reply arrival times.

/// Completions per second: the least-squares slope of the completion count
/// against the arrival times. Unlike `count / window` it does not jump when
/// a window edge splits a burst of replies (a server batch answers up to
/// 256 requests at once). 0 with fewer than two replies.
pub fn rate(done_s: &[f64]) -> f64 {
    if done_s.len() < 2 {
        return 0.0;
    }
    let mut t = done_s.to_vec();
    t.sort_by(f64::total_cmp);
    let n = t.len() as f64;
    let t_mean = t.iter().sum::<f64>() / n;
    let i_mean = (n - 1.0) / 2.0;
    let (mut cov, mut var) = (0.0, 0.0);
    for (i, &ti) in t.iter().enumerate() {
        cov += (ti - t_mean) * (i as f64 - i_mean);
        var += (ti - t_mean) * (ti - t_mean);
    }
    if var > 0.0 {
        cov / var
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_of_bursty_completions_is_the_mean_rate() {
        // 100 replies every 0.1 s: 1000/s, whatever the phase of the bursts.
        for phase in [0.0, 0.037, 0.099] {
            let done: Vec<f64> = (0..10)
                .flat_map(|b| (0..100).map(move |i| phase + b as f64 * 0.1 + i as f64 * 1e-6))
                .collect();
            let r = rate(&done);
            assert!((r - 1000.0).abs() < 100.0, "{r} at phase {phase}");
        }
    }
}
