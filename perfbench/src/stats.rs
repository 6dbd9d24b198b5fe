//! Order statistics and the rate-ladder rules the benchmark reports by.

/// Nearest-rank `q`-quantile of `sorted` (ascending); 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// A sorted copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut out = samples.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// The fewest samples at which the `q`-quantile still has at least ten
/// samples beyond it, the rule every reported percentile follows.
pub fn min_samples_for(q: f64) -> usize {
    // The tolerance keeps float error from adding a sample (10 / 0.1).
    (10.0 / (1.0 - q) - 1e-9).ceil() as usize
}

/// `q`-quantile of `samples`, or `None` when fewer than ten samples lie
/// beyond it.
pub fn supported_quantile(samples: &[f64], q: f64) -> Option<f64> {
    (samples.len() >= min_samples_for(q)).then(|| quantile(&sorted(samples), q))
}

/// Time-stamped samples: (seconds since the phase started, value).
pub type Timed = [(f64, f64)];

/// Most windows a phase is cut into.
pub const MAX_WINDOWS: usize = 10;

/// Most failures per request a window (or a ladder step) may have and still
/// count as meeting the latency limit.
pub const MAX_FAILED_RATIO: f64 = 0.001;

/// A measured phase cut into consecutive time windows, each holding an
/// equal share of the phase's anchor samples (its generate latencies): as
/// many windows as keep at least `per_window` anchors in each, at most
/// [`MAX_WINDOWS`], at least one.  A figure is the median over the windows
/// of that window's figure, so a transient slowdown of the machine moves one
/// window, not the result.
#[derive(Debug)]
pub struct Windows {
    /// Each window's anchor values.
    anchors: Vec<Vec<f64>>,
    /// Each window's start; the last ends with the phase.
    starts: Vec<f64>,
    /// The phase's length in seconds.
    end: f64,
}

impl Windows {
    /// Cut a phase of `length` seconds by its `anchors`.  The windows split
    /// the time-ordered anchors by count, so none falls short of
    /// `per_window` however the anchors spread over time.
    pub fn new(anchors: &Timed, length: f64, per_window: usize) -> Windows {
        let mut by_time = anchors.to_vec();
        by_time.sort_by(|a, b| a.0.total_cmp(&b.0));
        let n = by_time.len();
        let count = (n / per_window.max(1)).clamp(1, MAX_WINDOWS);
        let cut = |i: usize| i * n / count;
        Windows {
            anchors: (0..count)
                .map(|i| by_time[cut(i)..cut(i + 1)].iter().map(|s| s.1).collect())
                .collect(),
            starts: (0..count)
                .map(|i| if i == 0 { 0.0 } else { by_time[cut(i)].0 })
                .collect(),
            end: length,
        }
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.anchors.len()
    }

    /// Median over the windows of `stat` of each window's anchor values.
    pub fn anchor_median(&self, stat: impl Fn(&[f64]) -> f64) -> f64 {
        median(&self.anchors.iter().map(|w| stat(w)).collect::<Vec<_>>())
    }

    fn duration(&self, window: usize) -> f64 {
        let end = self.starts.get(window + 1).copied().unwrap_or(self.end);
        (end - self.starts[window]).max(1e-9)
    }

    /// The values of `samples` in each window, by time stamp.
    fn split(&self, samples: &Timed) -> Vec<Vec<f64>> {
        let mut cut = vec![Vec::new(); self.len()];
        for &(at, value) in samples {
            let window = self.starts.partition_point(|&s| s <= at).max(1) - 1;
            cut[window].push(value);
        }
        cut
    }

    /// Median over the windows of the sum of each window's `samples` per
    /// second of the window.
    pub fn rate(&self, samples: &Timed) -> f64 {
        let split = self.split(samples);
        let rates: Vec<f64> = (0..self.len())
            .map(|w| split[w].iter().sum::<f64>() / self.duration(w))
            .collect();
        median(&rates)
    }

    /// The request rate under a latency limit: per window, the requests in
    /// `completed` per second if the window's p99 anchor latency (ms, with
    /// each of `failed` counted as missing the limit) is within
    /// `p99_limit_ms` and at most [`MAX_FAILED_RATIO`] of its requests
    /// failed, else 0; the median over the windows.
    pub fn rate_within_limit(&self, completed: &Timed, failed: &Timed, p99_limit_ms: f64) -> f64 {
        let (done, missed) = (self.split(completed), self.split(failed));
        let rates: Vec<f64> = (0..self.len())
            .map(|w| {
                let mut latencies = self.anchors[w].clone();
                latencies.extend(std::iter::repeat_n(f64::INFINITY, missed[w].len()));
                let p99_met =
                    supported_quantile(&latencies, 0.99).is_some_and(|p| p <= p99_limit_ms);
                let requests = (done[w].len() + missed[w].len()).max(1) as f64;
                if p99_met && missed[w].len() as f64 / requests <= MAX_FAILED_RATIO {
                    done[w].len() as f64 / self.duration(w)
                } else {
                    0.0
                }
            })
            .collect();
        median(&rates)
    }
}

/// What one rung of a rate ladder measured.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// Offered rate in requests per second.
    pub rate: f64,
    /// Requests sent.
    pub sent: usize,
    /// Requests answered in full.
    pub succeeded: usize,
    /// Requests refused, errored or released short.
    pub failed: usize,
    /// Latency from due time of every generate in the step, in ms.
    pub gen_latency_ms: Vec<f64>,
    /// Generator lag (send time minus due time) of every request, in due
    /// order, in ms.
    pub lag_ms: Vec<f64>,
    /// Requests completed per second of the step.
    pub completed_rps: f64,
}

/// Lag growth across a step above which it counts as backlogged, in ms.
pub const BACKLOG_GROWTH_MS: f64 = 2.0;

/// A step is backlogged when the generator fell further behind its
/// schedule across it: the median lag of the last quarter of its requests
/// exceeds that of the first quarter by more than [`BACKLOG_GROWTH_MS`].
pub fn backlogged(lag_ms: &[f64]) -> bool {
    let quarter = lag_ms.len() / 4;
    if quarter == 0 {
        return false;
    }
    let head = median(&lag_ms[..quarter]);
    let tail = median(&lag_ms[lag_ms.len() - quarter..]);
    tail - head > BACKLOG_GROWTH_MS
}

impl StepOutcome {
    /// Failed requests over sent requests.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.sent.max(1) as f64
    }

    /// Whether the step meets the latency limit on its p99 (a failed request
    /// counts as missing it), keeps failures at or below 0.1%, and ran
    /// without a growing backlog.
    pub fn meets(&self, p99_limit_ms: f64) -> bool {
        let mut latencies = self.gen_latency_ms.clone();
        latencies.extend(std::iter::repeat_n(f64::INFINITY, self.failed));
        !latencies.is_empty()
            && quantile(&sorted(&latencies), 0.99) <= p99_limit_ms
            && self.failed_ratio() <= MAX_FAILED_RATIO
            && !backlogged(&self.lag_ms)
    }
}

/// The highest step of an ascending ladder such that it and every step
/// below it meet the limit, or `None` when the first step misses.
pub fn max_rate_step(steps: &[StepOutcome], p99_limit_ms: f64) -> Option<&StepOutcome> {
    steps
        .iter()
        .take_while(|step| step.meets(p99_limit_ms))
        .last()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), 50.0);
        assert_eq!(quantile(&samples, 0.99), 99.0);
        assert_eq!(quantile(&samples, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        assert_eq!(min_samples_for(0.99), 1_000);
        assert_eq!(min_samples_for(0.9), 100);
        assert_eq!(min_samples_for(0.5), 20);
        let samples: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(supported_quantile(&samples, 0.99), None);
        let samples: Vec<f64> = (0..1_000).map(f64::from).collect();
        let p99 = supported_quantile(&samples, 0.99).expect("1,000 samples support p99");
        let beyond = samples.iter().filter(|&&s| s > p99).count();
        assert!(beyond >= 10, "only {beyond} samples beyond p99");
    }

    fn step(rate: f64, latency_ms: f64, lag_ms: Vec<f64>, failed: usize) -> StepOutcome {
        let sent = lag_ms.len();
        StepOutcome {
            rate,
            sent,
            succeeded: sent - failed,
            failed,
            gen_latency_ms: vec![latency_ms; sent - failed],
            lag_ms,
            completed_rps: rate,
        }
    }

    #[test]
    fn windowed_median_ignores_one_slow_window() {
        // 1,000 requests over a 10 s phase; those in the fifth second are
        // ten times slower.
        let samples: Vec<(f64, f64)> = (0..1_000)
            .map(|i| {
                let at = f64::from(i) / 100.0;
                (at, if (4.0..5.0).contains(&at) { 10.0 } else { 1.0 })
            })
            .collect();
        let windows = Windows::new(&samples, 10.0, 100);
        assert_eq!(windows.len(), MAX_WINDOWS);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert_eq!(windows.anchor_median(mean), 1.0);
        let ones: Vec<(f64, f64)> = samples.iter().map(|&(at, _)| (at, 1.0)).collect();
        assert!((windows.rate(&ones) - 100.0).abs() < 1e-9);
        assert_eq!(Windows::new(&samples, 10.0, 10_000).len(), 1);
        assert_eq!(Windows::new(&[], 10.0, 1_000).len(), 1);
    }

    #[test]
    fn windows_never_fall_short_of_the_percentile_rule() {
        // Just over nine windows' worth of requests, packed twice as densely
        // into the first half of the phase: equal time windows would leave
        // the later ones with about 700 each.
        let n = 9_050;
        let samples: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let share = i as f64 / n as f64;
                let at = if share < 2.0 / 3.0 {
                    share * 0.75
                } else {
                    0.5 + (share - 2.0 / 3.0) * 1.5
                };
                (at * 45.0, 1.0 + (i % 100) as f64)
            })
            .collect();
        let windows = Windows::new(&samples, 45.0, min_samples_for(0.99));
        assert_eq!(windows.len(), 9);
        assert!(windows.anchors.iter().all(|w| w.len() >= 1_000));
        let p99 = windows.anchor_median(|w| supported_quantile(w, 0.99).unwrap_or(f64::NAN));
        assert!(p99 >= 99.0, "{p99}");
        // Every request lands in exactly one window.
        let ones: Vec<(f64, f64)> = samples.iter().map(|&(at, _)| (at, 1.0)).collect();
        let total: usize = windows.split(&ones).iter().map(Vec::len).sum();
        assert_eq!(total, n);
    }

    #[test]
    fn rate_within_limit_drops_windows_over_the_limit() {
        // Four 1 s windows of 1,000 requests each; the last is slow.
        let latency: Vec<(f64, f64)> = (0..4_000)
            .map(|i| (f64::from(i) / 1_000.0, if i >= 3_000 { 80.0 } else { 5.0 }))
            .collect();
        let windows = Windows::new(&latency, 4.0, 1_000);
        assert_eq!(windows.len(), 4);
        let ones: Vec<(f64, f64)> = latency.iter().map(|&(at, _)| (at, 1.0)).collect();
        let rate = windows.rate_within_limit(&ones, &[], 50.0);
        assert!((rate - 1_000.0).abs() < 1e-6, "{rate}");
        // A limit below every window's p99: no window counts.
        assert_eq!(windows.rate_within_limit(&ones, &[], 4.0), 0.0);
        // Failures above 0.1% in most windows miss the limit too.
        let failed: Vec<(f64, f64)> = (0..12).map(|i| (f64::from(i) / 4.0, 1.0)).collect();
        assert_eq!(windows.rate_within_limit(&ones, &failed, 50.0), 0.0);
    }

    #[test]
    fn backlog_is_lag_rising_across_the_step() {
        assert!(!backlogged(&[0.1; 400]));
        // Noisy but level lag is no backlog.
        let level: Vec<f64> = (0..400).map(|i| f64::from(i % 7)).collect();
        assert!(!backlogged(&level));
        // Lag growing linearly with the schedule is.
        let growing: Vec<f64> = (0..400).map(|i| f64::from(i) * 0.05).collect();
        assert!(backlogged(&growing));
        assert!(!backlogged(&[50.0, 60.0, 70.0]));
    }

    #[test]
    fn max_rate_is_the_last_step_of_the_passing_prefix() {
        let flat = vec![0.05; 400];
        let growing: Vec<f64> = (0..400).map(|i| f64::from(i) * 0.05).collect();
        let steps = vec![
            step(1_000.0, 0.3, flat.clone(), 0),
            step(2_000.0, 0.4, flat.clone(), 0),
            // Within the latency limit but falling behind: not sustained.
            step(3_000.0, 0.5, growing, 0),
            step(4_000.0, 0.5, flat.clone(), 0),
        ];
        assert_eq!(max_rate_step(&steps, 5.0).map(|s| s.rate), Some(2_000.0));
        // A step over the latency limit stops the ladder too.
        let steps = vec![
            step(1_000.0, 0.3, flat.clone(), 0),
            step(2_000.0, 9.0, flat.clone(), 0),
        ];
        assert_eq!(max_rate_step(&steps, 5.0).map(|s| s.rate), Some(1_000.0));
        // So does a failure rate above 0.1%: failures miss the limit.
        let steps = vec![step(1_000.0, 0.3, flat.clone(), 2)];
        assert!(max_rate_step(&steps, 5.0).is_none());
        assert!(max_rate_step(&[], 5.0).is_none());
    }
}
