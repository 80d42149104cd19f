//! Percentiles under the benchmark's reporting rule, and the
//! quiet-quartile readings the gated end-to-end figures use.
//!
//! A timing is reported as its median and as the highest percentile
//! that still has at least [`TAIL_BEYOND`] samples beyond it, so a tail
//! figure is never read off a handful of points. Percentiles use the
//! nearest-rank definition in integer per-mille arithmetic, so a rank
//! never depends on how `0.99 * n` rounds.

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Tail percentiles tried, highest first, in per-mille. The list stops
/// at p99: a larger sample makes p99 firmer, it never turns it into
/// p99.9.
const TAIL_CANDIDATES: [u32; 4] = [990, 950, 900, 750];

/// Zero-based nearest-rank index of the `permille`-th percentile of
/// `n` sorted samples: the smallest index covering `permille/1000` of
/// them.
pub fn rank(n: usize, permille: u32) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    let covered = (permille as usize * n).div_ceil(1000);
    covered.max(1) - 1
}

/// The `permille`-th percentile of an ascending sample.
pub fn percentile(sorted: &[f64], permille: u32) -> f64 {
    sorted[rank(sorted.len(), permille)]
}

/// The highest candidate tail percentile (in per-mille) with at least
/// [`TAIL_BEYOND`] samples beyond its rank, if any.
pub fn tail_permille(n: usize) -> Option<u32> {
    TAIL_CANDIDATES.into_iter().find(|&p| n > 0 && n - 1 - rank(n, p) >= TAIL_BEYOND)
}

/// Median and tail of one timing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// Tail percentile in per-mille; `None` when the sample is too small
    /// for any candidate, in which case `tail` holds the maximum.
    pub tail_permille: Option<u32>,
    pub tail: f64,
}

impl Summary {
    /// Summarise `values` (any order). `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail_permille = tail_permille(n);
        let tail = match tail_permille {
            Some(p) => percentile(&sorted, p),
            None => sorted[n - 1],
        };
        Some(Summary { n, p50: percentile(&sorted, 500), tail_permille, tail })
    }

    /// The tail's label, e.g. `p99`, or `max` when no percentile is
    /// supported.
    pub fn tail_label(&self) -> String {
        match self.tail_permille {
            Some(p) => format!("p{}", p / 10),
            None => "max".to_owned(),
        }
    }
}

/// Samples per block of [`quiet_percentile`] and completions per window
/// of [`quiet_rate`]: the fewest whose p90 has [`TAIL_BEYOND`] samples
/// beyond it.
pub const BLOCK: usize = 100;

/// Share, in per-mille, of a run's blocks (or windows) that read
/// better than the one [`quiet_percentile`] (or [`quiet_rate`])
/// reports. The host this was tuned on is shared: its load comes and
/// goes within a run, and the stretches it hits read slower, by up to
/// several times at the tail. A figure read off the run's quietest
/// quartile follows the program, not how much of the run the load
/// happened to cover.
pub const QUIET_PERMILLE: u32 = 250;

/// A gated timing, given in send order: the samples are cut into
/// consecutive blocks of [`BLOCK`] (the remainder joins the last
/// block), each block's `permille`-th percentile is taken, and the
/// result is the [`QUIET_PERMILLE`]-th percentile of those. Because
/// every block's p90 is at least its median, a p90 read this way is at
/// least the median read this way. Returns the figure and the number of
/// blocks; `None` for an empty sample.
pub fn quiet_percentile(in_order: &[f64], permille: u32) -> Option<(f64, usize)> {
    if in_order.is_empty() {
        return None;
    }
    let blocks = (in_order.len() / BLOCK).max(1);
    let mut per_block: Vec<f64> = (0..blocks)
        .map(|b| {
            let end = if b + 1 == blocks { in_order.len() } else { (b + 1) * BLOCK };
            let mut block = in_order[b * BLOCK..end].to_vec();
            block.sort_by(f64::total_cmp);
            percentile(&block, permille)
        })
        .collect();
    per_block.sort_by(f64::total_cmp);
    Some((percentile(&per_block, QUIET_PERMILLE), blocks))
}

/// Completions per second, read like [`quiet_percentile`]: the
/// completions, in time order, are cut into windows of [`BLOCK`], each
/// window's rate is [`BLOCK`] over the time from the previous window's
/// last completion (the phase start for the first) to its own last,
/// and the result is the `1000 - QUIET_PERMILLE`-th percentile of those
/// rates. `done_s` are completion times in seconds from the phase
/// start; completions after the last whole window are left out. Fewer
/// than [`BLOCK`] completions give the plain rate over the phase of
/// `seconds`.
pub fn quiet_rate(done_s: &[f64], seconds: f64) -> f64 {
    let mut done = done_s.to_vec();
    done.sort_by(f64::total_cmp);
    if done.len() < BLOCK {
        return done.len() as f64 / seconds.max(f64::MIN_POSITIVE);
    }
    let mut rates: Vec<f64> = done
        .chunks_exact(BLOCK)
        .scan(0.0, |prev: &mut f64, window| {
            let last = window[BLOCK - 1];
            let rate = BLOCK as f64 / (last - *prev).max(f64::MIN_POSITIVE);
            *prev = last;
            Some(rate)
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    percentile(&rates, 1000 - QUIET_PERMILLE)
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact_at_round_sizes() {
        assert_eq!(rank(1000, 990), 989);
        assert_eq!(rank(1000, 500), 499);
        assert_eq!(rank(100, 990), 98);
        assert_eq!(rank(1, 500), 0);
        assert_eq!(rank(7, 0), 0);
        assert_eq!(rank(7, 1000), 6);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        // 1000 samples: p99 sits at index 989, leaving exactly 10 beyond
        assert_eq!(tail_permille(1000), Some(990));
        // one fewer leaves 9 beyond p99, so the rule falls back to p95
        assert_eq!(tail_permille(999), Some(950));
        assert_eq!(tail_permille(100_000), Some(990));
        assert_eq!(tail_permille(200), Some(950));
        assert_eq!(tail_permille(40), Some(750));
        assert_eq!(tail_permille(39), None);
    }

    #[test]
    fn summary_reads_the_right_order_statistics() {
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&values).unwrap();
        assert_eq!((s.n, s.p50, s.tail, s.tail_label()), (1000, 500.0, 990.0, "p99".to_owned()));
        let small = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((small.p50, small.tail, small.tail_label()), (2.0, 3.0, "max".to_owned()));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn quiet_percentile_reads_the_quiet_quartile_of_the_blocks() {
        // eight blocks of 100; block b holds 100·b + 1 ..= 100·b + 100,
        // so its median is 100·b + 50 and its p90 100·b + 90. The lower
        // quartile over eight blocks is the second lowest
        let mut values: Vec<f64> = (1..=800).map(f64::from).collect();
        assert_eq!(quiet_percentile(&values, 500), Some((150.0, 8)));
        assert_eq!(quiet_percentile(&values, 900), Some((190.0, 8)));
        // slow blocks do not move the figure
        for v in &mut values[400..] {
            *v = 1e9;
        }
        assert_eq!(quiet_percentile(&values, 900), Some((190.0, 8)));
        // the remainder joins the last block: 250 samples are 2 blocks
        // (100 and 150), p90s 90 and 235
        let values: Vec<f64> = (1..=250).map(f64::from).collect();
        assert_eq!(quiet_percentile(&values, 900), Some((90.0, 2)));
        // fewer than two blocks: the percentile of the whole sample
        let values: Vec<f64> = (1..=199).rev().map(f64::from).collect();
        assert_eq!(quiet_percentile(&values, 900), Some((180.0, 1)));
        assert_eq!(quiet_percentile(&[], 500), None);
    }

    #[test]
    fn quiet_rate_reads_the_quiet_quartile_of_the_windows() {
        // four windows of 100 completions ending at 1, 2, 2.5 and 4.5 s:
        // rates 100, 100, 200 and 50 per second, whose upper quartile
        // (nearest rank 3 of 4) is 100. The 50 completions after the
        // last whole window are left out
        let mut done = Vec::new();
        for (start, end) in [(0.0, 1.0), (1.0, 2.0), (2.0, 2.5), (2.5, 4.5)] {
            done.extend((1..=BLOCK).map(|i| start + (end - start) * i as f64 / BLOCK as f64));
        }
        done.extend((1..=50).map(|i| 4.5 + 0.01 * i as f64));
        assert_eq!(quiet_rate(&done, 5.0), 100.0);
        // order does not matter
        done.reverse();
        assert_eq!(quiet_rate(&done, 5.0), 100.0);
        // fewer than one window: the plain rate
        assert_eq!(quiet_rate(&[0.1, 0.2], 0.5), 4.0);
    }
}
