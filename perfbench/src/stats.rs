//! Exact order statistics over raw samples, with the reporting rule the
//! benchmark enforces: a percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Latency recorded for a request that failed or was lost: it misses
/// every latency limit, so it sorts past every real sample.
pub const FAILED: u64 = u64::MAX;

/// Nearest-rank index of percentile `p` (in `[0, 100]`) among `n`
/// sorted samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// How many samples lie beyond the `p`-th percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// The fewest samples that support reporting percentile `p`.
pub fn min_samples(p: f64) -> usize {
    (1..).find(|&n| beyond(n, p) >= MIN_BEYOND).expect("finite")
}

/// A percentile read from a sample set, with the count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    /// The percentile's value (`f64::INFINITY` when it falls on a failed
    /// request).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples beyond it.
    pub beyond: usize,
}

/// The `p`-th percentile of `samples` (sorted in place), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it. [`FAILED`] samples
/// read as infinity.
pub fn percentile(samples: &mut [u64], p: f64) -> Option<Reading> {
    let n = samples.len();
    if beyond(n, p) < MIN_BEYOND {
        return None;
    }
    samples.sort_unstable();
    let v = samples[rank(n, p)];
    Some(Reading {
        value: if v == FAILED { f64::INFINITY } else { v as f64 },
        samples: n,
        beyond: beyond(n, p),
    })
}

/// Most chunks [`chunked`] cuts a sample run into.
pub const MAX_CHUNKS: usize = 20;

/// A percentile read as the median over chunks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Chunked {
    /// Median of the chunks' percentiles (infinite when it falls on a
    /// failed request).
    pub value: f64,
    /// Chunks the samples were cut into.
    pub chunks: usize,
    /// Samples in all.
    pub samples: usize,
    /// Samples per chunk (the last chunk also takes the remainder).
    pub per_chunk: usize,
}

/// The `p`-th percentile of `samples` (in completion order), read as the
/// median over consecutive chunks: the samples are cut into as many
/// equal chunks as hold the [`min_samples`] each, at most
/// [`MAX_CHUNKS`], and each chunk's percentile is taken. One short stall
/// moves a single chunk, not the median. With too few samples for two
/// chunks the whole run is one chunk; with too few for a percentile at
/// all, `None`.
pub fn chunked(samples: &[u64], p: f64) -> Option<Chunked> {
    let need = min_samples(p);
    if samples.len() < need {
        return None;
    }
    let chunks = (samples.len() / need).clamp(1, MAX_CHUNKS);
    let per_chunk = samples.len() / chunks;
    let values: Vec<f64> = (0..chunks)
        .map(|i| {
            let end = if i + 1 == chunks {
                samples.len()
            } else {
                (i + 1) * per_chunk
            };
            let mut chunk = samples[i * per_chunk..end].to_vec();
            percentile(&mut chunk, p)
                .expect("chunks hold enough samples")
                .value
        })
        .collect();
    Some(Chunked {
        value: median(&values),
        chunks,
        samples: samples.len(),
        per_chunk,
    })
}

/// Median of a non-empty slice of floats (mean of the middle pair for
/// even lengths).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        assert_eq!(min_samples(99.0), 1_000);
        assert_eq!(min_samples(95.0), 200);
        assert_eq!(min_samples(50.0), 20);
        let mut few: Vec<u64> = (0..999).collect();
        assert_eq!(percentile(&mut few, 99.0), None);
        let mut enough: Vec<u64> = (1..=1_000).rev().collect();
        let r = percentile(&mut enough, 99.0).unwrap();
        assert_eq!(r.value, 990.0);
        assert_eq!((r.samples, r.beyond), (1_000, 10));
    }

    #[test]
    fn failed_requests_miss_every_limit() {
        let mut s: Vec<u64> = vec![5; 1_000];
        s.extend([FAILED; 11]);
        assert_eq!(percentile(&mut s, 99.0).unwrap().value, f64::INFINITY);
        let mut s: Vec<u64> = vec![5; 1_000];
        s.extend([FAILED; 5]);
        assert_eq!(percentile(&mut s, 99.0).unwrap().value, 5.0);
    }

    #[test]
    fn chunked_percentiles_shrug_off_one_stall() {
        // 10 000 samples of 100 with a 500-sample stall at 1e6 in the
        // middle: the pooled p99 lands in the stall, the chunked one not.
        let mut s = vec![100u64; 10_000];
        s[5_000..5_500].fill(1_000_000);
        assert_eq!(percentile(&mut s.clone(), 99.0).unwrap().value, 1_000_000.0);
        let c = chunked(&s, 99.0).unwrap();
        assert_eq!((c.chunks, c.per_chunk, c.value), (10, 1_000, 100.0));
        let c = chunked(&vec![1u64; 100_000], 99.0).unwrap();
        assert_eq!((c.chunks, c.per_chunk), (MAX_CHUNKS, 5_000));
        // Too few for two chunks: one chunk, i.e. the pooled percentile.
        let few = vec![7u64; 1_999];
        assert_eq!(chunked(&few, 99.0).unwrap().chunks, 1);
        assert_eq!(chunked(&few[..999], 99.0), None);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
