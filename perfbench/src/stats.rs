//! Order statistics for the reported figures.

/// Median and quartiles, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// figures the benchmark prints match the ones its steadiness check
/// computes from them.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Summary::default();
    }
    if n == 1 {
        return Summary {
            q1: v[0],
            median: v[0],
            q3: v[0],
            n,
        };
    }
    let cut = |i: usize| {
        // Python's rule: j = i·(n+1)/4 clamped to 1..n-1, then linear
        // inter- (or extra-) polation between v[j-1] and v[j].
        let m = (i * (n + 1)) as i64;
        let j = (m / 4).clamp(1, n as i64 - 1);
        let delta = (m - 4 * j) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quartiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let s = summarize(&[3.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[1.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([2, 4], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[4.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
    }
}
