//! Sample statistics: the percentile rule and failure accounting.

/// Tail samples a percentile needs beyond it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p ≤ 1) among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice; `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// A tail percentile, withheld unless at least [`TAIL_SAMPLES`] samples
/// lie beyond it (p90 needs 100 samples, p99 needs 1,000).
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || n - rank(n, p) < TAIL_SAMPLES {
        return None;
    }
    percentile(sorted, p)
}

/// Median of unsorted values (nearest rank); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Mean of values; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// How one attempted query ended.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// Verified against the plaintext reference; latency in ms.
    Correct(f64),
    /// The program returned an error.
    Error(String),
    /// The program returned an answer that differs from the reference.
    Wrong(String),
}

/// Attempts, failures and the latency samples of verified queries.
#[derive(Clone, Debug, Default)]
pub struct Accounting {
    /// Queries attempted.
    pub attempted: u64,
    /// Queries that returned an error.
    pub errors: u64,
    /// Queries that returned a wrong answer.
    pub wrong: u64,
    /// Latencies (ms) of verified queries only.
    pub latencies_ms: Vec<f64>,
    /// The first few failure messages, for the log.
    pub messages: Vec<String>,
}

impl Accounting {
    /// Count one attempt. Only a verified answer becomes a latency sample.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        let message = match outcome {
            Outcome::Correct(ms) => {
                self.latencies_ms.push(ms);
                return;
            }
            Outcome::Error(m) => {
                self.errors += 1;
                m
            }
            Outcome::Wrong(m) => {
                self.wrong += 1;
                m
            }
        };
        if self.messages.len() < 5 {
            self.messages.push(message);
        }
    }

    /// Fold another client's accounting into this one.
    pub fn merge(&mut self, other: Accounting) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.wrong += other.wrong;
        self.latencies_ms.extend(other.latencies_ms);
        for m in other.messages {
            if self.messages.len() < 5 {
                self.messages.push(m);
            }
        }
    }

    /// Errors plus wrong answers.
    pub fn failed(&self) -> u64 {
        self.errors + self.wrong
    }

    /// Failed queries over attempted queries (0 when nothing ran).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Verified latencies in ascending order.
    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.latencies_ms.clone();
        v.sort_by(f64::total_cmp);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.5), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        // p90 of 100 samples has exactly ten beyond it.
        assert_eq!(tail_percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(tail_percentile(&ramp(99), 0.9), None);
        // p99 is withheld on a short run and reported from 1,000 on.
        assert_eq!(tail_percentile(&ramp(999), 0.99), None);
        assert_eq!(tail_percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(tail_percentile(&[], 0.99), None);
    }

    #[test]
    fn failures_count_once_and_never_as_latency() {
        let mut a = Accounting::default();
        a.record(Outcome::Correct(1.5));
        a.record(Outcome::Error("timeout".into()));
        a.record(Outcome::Wrong("row 0 differs".into()));
        a.record(Outcome::Correct(2.5));
        assert_eq!(a.attempted, 4);
        assert_eq!(a.failed(), 2);
        assert_eq!(a.failed_ratio(), 0.5);
        assert_eq!(a.sorted(), vec![1.5, 2.5]);

        let mut b = Accounting::default();
        b.record(Outcome::Wrong("x".into()));
        a.merge(b);
        assert_eq!((a.attempted, a.errors, a.wrong), (5, 1, 2));
        assert_eq!(a.latencies_ms.len(), 2);
        assert_eq!(Accounting::default().failed_ratio(), 0.0);
    }
}
