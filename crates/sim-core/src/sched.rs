//! Operating-system scheduling noise.
//!
//! Even with `sched_setaffinity` pinning the sender and receiver to the two
//! hyper-threads of one core (as the paper does), the OS still interrupts
//! them: timer ticks, RCU callbacks, occasional migrations of other work.
//! Those interruptions are what turn a clean timing channel into one with
//! bit insertions and losses (the error classes the paper scores with the
//! edit distance), because a preempted receiver misses sampling periods and a
//! preempted sender encodes late.
//!
//! [`InterruptModel`] generates per-thread preemption intervals: roughly
//! every `period` cycles (with jitter) the thread is stalled for `duration`
//! cycles (with jitter).

use rand::Rng;

/// Configuration of the per-thread interruption process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterruptConfig {
    /// Mean cycles between interruptions (0 disables interruptions).
    pub period: u64,
    /// Maximum deviation of the period, drawn uniformly.
    pub period_jitter: u64,
    /// Mean stall duration in cycles.
    pub duration: u64,
    /// Maximum deviation of the duration, drawn uniformly.
    pub duration_jitter: u64,
}

impl InterruptConfig {
    /// A quiet, pinned system: a timer tick roughly every 250 µs (at
    /// [`crate::machine::CLOCK_GHZ`]) stalling the thread for a few
    /// microseconds.  This is the default noise
    /// level for the channel-evaluation experiments.
    pub fn pinned_quiet() -> InterruptConfig {
        InterruptConfig {
            period: 550_000,
            period_jitter: 150_000,
            duration: 6_000,
            duration_jitter: 3_000,
        }
    }

    /// No interruptions at all (idealised experiments and unit tests).
    pub fn none() -> InterruptConfig {
        InterruptConfig {
            period: 0,
            period_jitter: 0,
            duration: 0,
            duration_jitter: 0,
        }
    }

    /// Whether interruptions are enabled.
    pub fn is_enabled(&self) -> bool {
        self.period > 0 && self.duration > 0
    }
}

impl Default for InterruptConfig {
    fn default() -> Self {
        InterruptConfig::pinned_quiet()
    }
}

/// Per-thread interruption state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterruptModel {
    next_at: u64,
}

impl InterruptModel {
    /// Creates the model, scheduling the first interruption after roughly one
    /// period from cycle 0.
    pub fn new<R: Rng + ?Sized>(config: &InterruptConfig, rng: &mut R) -> InterruptModel {
        let mut model = InterruptModel { next_at: u64::MAX };
        if config.is_enabled() {
            model.next_at = sample(config.period, config.period_jitter, rng);
        }
        model
    }

    /// The cycle at which the next interruption fires.
    pub fn next_at(&self) -> u64 {
        self.next_at
    }

    /// If an interruption is due at or before `now`, returns the stall length
    /// in cycles and schedules the following interruption.
    pub fn poll<R: Rng + ?Sized>(
        &mut self,
        now: u64,
        config: &InterruptConfig,
        rng: &mut R,
    ) -> Option<u64> {
        if !config.is_enabled() || now < self.next_at {
            return None;
        }
        let stall = sample(config.duration, config.duration_jitter, rng);
        let gap = sample(config.period, config.period_jitter, rng).max(1);
        self.next_at = now.saturating_add(stall).saturating_add(gap);
        Some(stall)
    }
}

fn sample<R: Rng + ?Sized>(mean: u64, jitter: u64, rng: &mut R) -> u64 {
    if jitter == 0 {
        return mean;
    }
    let lo = mean.saturating_sub(jitter);
    let hi = mean + jitter;
    rng.gen_range(lo..=hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn disabled_config_never_interrupts() {
        let config = InterruptConfig::none();
        assert!(!config.is_enabled());
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = InterruptModel::new(&config, &mut rng);
        for now in (0..10_000_000).step_by(100_000) {
            assert_eq!(model.poll(now, &config, &mut rng), None);
        }
    }

    #[test]
    fn interruptions_fire_roughly_once_per_period() {
        let config = InterruptConfig::pinned_quiet();
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = InterruptModel::new(&config, &mut rng);
        let horizon = 55_000_000u64; // ~100 mean periods.
        let mut count = 0;
        let mut now = 0;
        while now < horizon {
            if let Some(stall) = model.poll(now, &config, &mut rng) {
                count += 1;
                now += stall;
            }
            now += 1_000;
        }
        assert!(
            (60..=160).contains(&count),
            "expected on the order of 100 interruptions, got {count}"
        );
    }

    #[test]
    fn stall_durations_respect_jitter_bounds() {
        let config = InterruptConfig {
            period: 1_000,
            period_jitter: 0,
            duration: 500,
            duration_jitter: 100,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = InterruptModel::new(&config, &mut rng);
        for _ in 0..100 {
            let now = model.next_at();
            let stall = model
                .poll(now, &config, &mut rng)
                .expect("due interruption");
            assert!((400..=600).contains(&stall));
        }
    }

    #[test]
    fn polling_before_due_time_returns_none() {
        let config = InterruptConfig {
            period: 10_000,
            period_jitter: 0,
            duration: 100,
            duration_jitter: 0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = InterruptModel::new(&config, &mut rng);
        assert_eq!(model.next_at(), 10_000);
        assert_eq!(model.poll(5_000, &config, &mut rng), None);
        assert_eq!(model.poll(10_000, &config, &mut rng), Some(100));
        assert!(model.next_at() > 10_000);
    }
}
