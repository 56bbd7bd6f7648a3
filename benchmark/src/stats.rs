//! The arithmetic behind the reported numbers.

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p` percent of the samples at or below it. For 240 samples the
/// 95th percentile is the 228th value, with 12 samples beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty() && (0.0..=100.0).contains(&p));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0);
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `quiet(i)`: for each op, the minimum of its wall time over the timed
/// passes. Whatever the engine does deterministically recurs at the same op
/// in every pass and survives the minimum; interference from the host, which
/// only ever adds time, does not.
pub fn min_over_passes(passes: &[Vec<f64>]) -> Vec<f64> {
    let n = passes.first().map_or(0, Vec::len);
    (0..n)
        .map(|i| min(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect()
}

/// The run's own noise reading: the median over ops of
/// `(median − min) / min` of the op's time across passes, in percent.
pub fn pass_spread_pct(passes: &[Vec<f64>]) -> f64 {
    let n = passes.first().map_or(0, Vec::len);
    let per_op: Vec<f64> = (0..n)
        .map(|i| {
            let times: Vec<f64> = passes.iter().map(|p| p[i]).collect();
            let lo = min(&times);
            (median(&times) - lo) / lo * 100.0
        })
        .collect();
    median(&per_op)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=240).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 120.0);
        assert_eq!(percentile(&v, 95.0), 228.0);
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 95.0)).count(), 12);
        assert_eq!(percentile(&v, 100.0), 240.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quiet_is_the_per_op_minimum() {
        // Pass 2 caught a burst; op 1 is slow in every pass.
        let passes = vec![
            vec![1.0, 9.0, 1.2],
            vec![1.5, 13.5, 1.5],
            vec![1.1, 9.3, 1.0],
        ];
        assert_eq!(min_over_passes(&passes), vec![1.0, 9.0, 1.0]);
        assert!(min_over_passes(&[]).is_empty());
    }

    #[test]
    fn pass_spread_reads_the_noise() {
        let quiet = vec![vec![2.0, 4.0], vec![2.0, 4.0], vec![2.0, 4.0]];
        assert_eq!(pass_spread_pct(&quiet), 0.0);
        let noisy = vec![vec![2.0, 4.0], vec![2.2, 4.4], vec![3.0, 6.0]];
        assert!((pass_spread_pct(&noisy) - 10.0).abs() < 1e-9);
    }
}
