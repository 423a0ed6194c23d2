//! Dynamic estimation of the off-load threshold `N` (§III-B).
//!
//! "If the hardware system must select one of a few possible N thresholds
//! at run-time, it is easiest to sample behavior with each of these
//! configurations at the start of every program phase and employ the
//! optimal configuration until the next program phase change is
//! detected." The concrete algorithm reproduced here:
//!
//! * feedback metric: mean L2 hit rate of the user and OS cores;
//! * initial threshold: `N = 1,000` if the application executes more than
//!   10% of its instructions in privileged mode, else `N = 10,000`;
//! * sampling epochs of 25 M instructions try the current `N` and its two
//!   neighbours on the candidate grid; a neighbour must beat the current
//!   threshold's hit rate by ≥ 1% (absolute) to be adopted;
//! * between samplings the chosen `N` runs for 100 M instructions,
//!   *doubling* each time it is re-confirmed optimal and resetting to
//!   100 M when it is not.
//!
//! The tuner is a pure state machine: the system feeds it one call per
//! epoch boundary with that epoch's measured hit rate, and it answers
//! with the threshold and epoch length to use next.

use osoffload_sim::Instret;

/// Configuration of the estimator.
#[derive(Debug, Clone)]
pub struct TunerConfig {
    /// Candidate thresholds, ascending ("very coarse-grained values of N,
    /// as later reported in Figure 4").
    pub candidates: Vec<u64>,
    /// Sampling epoch length (paper: 25 M instructions).
    pub sample_epoch: Instret,
    /// Base stable-run length (paper: 100 M instructions).
    pub stable_base: Instret,
    /// Maximum stable-run length the doubling may reach.
    pub stable_cap: Instret,
    /// Required absolute hit-rate improvement to adopt a neighbour
    /// (paper: 1%).
    pub improvement: f64,
    /// Privileged-instruction fraction above which the OS-heavy initial
    /// threshold is chosen (paper: 10%).
    pub os_heavy_pivot: f64,
    /// Initial threshold for OS-heavy applications (paper: 1,000).
    pub initial_os_heavy: u64,
    /// Initial threshold for OS-light applications (paper: 10,000).
    pub initial_os_light: u64,
}

impl TunerConfig {
    /// The paper's §III-B parameters over the Figure 4 threshold grid.
    pub fn paper_default() -> Self {
        TunerConfig {
            candidates: vec![0, 100, 500, 1_000, 5_000, 10_000],
            sample_epoch: Instret::new(25_000_000),
            stable_base: Instret::new(100_000_000),
            stable_cap: Instret::new(1_600_000_000),
            improvement: 0.01,
            os_heavy_pivot: 0.10,
            initial_os_heavy: 1_000,
            initial_os_light: 10_000,
        }
    }

    /// The same algorithm with lengths scaled down by `factor`, for
    /// simulations shorter than the paper's full runs.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn scaled_down(factor: u64) -> Self {
        assert!(factor > 0, "TunerConfig: scale factor must be positive");
        let p = Self::paper_default();
        TunerConfig {
            sample_epoch: Instret::new((p.sample_epoch.as_u64() / factor).max(1)),
            stable_base: Instret::new((p.stable_base.as_u64() / factor).max(1)),
            stable_cap: Instret::new((p.stable_cap.as_u64() / factor).max(1)),
            ..p
        }
    }

    /// [`scaled_down`](Self::scaled_down) in proportion to a run of
    /// `instructions` measured instructions, aiming for ~40 sampling
    /// epochs so the estimator completes several sample/stable rounds.
    pub fn for_run_length(instructions: u64) -> Self {
        let epoch = Self::paper_default().sample_epoch.as_u64();
        Self::scaled_down((epoch / (instructions / 40).max(1)).max(1))
    }
}

/// What the tuner wants the system to do for the next epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunerDirective {
    /// Threshold `N` to run with.
    pub threshold: u64,
    /// Length of the next epoch.
    pub epoch_len: Instret,
}

/// One entry of the tuner's decision log (for the `tuner_trace`
/// experiment).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunerEvent {
    /// Epoch index at which the event occurred.
    pub epoch: u64,
    /// Threshold that was measured.
    pub threshold: u64,
    /// Measured mean L2 hit rate.
    pub l2_hit_rate: f64,
    /// Whether this measurement caused the stable threshold to change.
    pub adopted: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Initial measurement of the starting threshold.
    SampleCurrent,
    /// Measuring the lower neighbour.
    SampleLow,
    /// Measuring the upper neighbour.
    SampleHigh,
    /// Running with the chosen threshold.
    Stable,
}

/// The §III-B epoch-based threshold estimator.
///
/// # Examples
///
/// ```
/// use osoffload_core::{ThresholdTuner, TunerConfig};
///
/// let mut tuner = ThresholdTuner::new(TunerConfig::paper_default());
/// // An OS-heavy application starts at N = 1,000.
/// let d = tuner.initialize(0.35);
/// assert_eq!(d.threshold, 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct ThresholdTuner {
    cfg: TunerConfig,
    phase: Phase,
    current: usize,
    rate_current: f64,
    rate_low: Option<f64>,
    rate_high: Option<f64>,
    stable_len: Instret,
    first_eval: bool,
    epoch_counter: u64,
    history: Vec<TunerEvent>,
}

impl ThresholdTuner {
    /// Creates a tuner; call [`initialize`](Self::initialize) before
    /// feeding epochs.
    ///
    /// # Panics
    ///
    /// Panics if the candidate grid is empty or not strictly ascending.
    pub fn new(cfg: TunerConfig) -> Self {
        assert!(
            !cfg.candidates.is_empty(),
            "ThresholdTuner: empty candidate grid"
        );
        assert!(
            cfg.candidates.windows(2).all(|w| w[0] < w[1]),
            "ThresholdTuner: candidates must be strictly ascending"
        );
        let stable_len = cfg.stable_base;
        ThresholdTuner {
            cfg,
            phase: Phase::SampleCurrent,
            current: 0,
            rate_current: 0.0,
            rate_low: None,
            rate_high: None,
            stable_len,
            first_eval: true,
            epoch_counter: 0,
            history: Vec::new(),
        }
    }

    /// Picks the initial threshold from the observed privileged-mode
    /// instruction fraction and returns the first directive (paper: 25 M
    /// sampling epoch at `N = 1,000` or `N = 10,000`).
    pub fn initialize(&mut self, priv_fraction: f64) -> TunerDirective {
        let initial = if priv_fraction > self.cfg.os_heavy_pivot {
            self.cfg.initial_os_heavy
        } else {
            self.cfg.initial_os_light
        };
        self.current = self.nearest_candidate(initial);
        self.phase = Phase::SampleCurrent;
        TunerDirective {
            threshold: self.cfg.candidates[self.current],
            epoch_len: self.cfg.sample_epoch,
        }
    }

    fn nearest_candidate(&self, n: u64) -> usize {
        self.cfg
            .candidates
            .iter()
            .enumerate()
            .min_by_key(|(_, &c)| c.abs_diff(n))
            .map(|(i, _)| i)
            .expect("non-empty grid")
    }

    /// Current stable threshold.
    pub fn threshold(&self) -> u64 {
        self.cfg.candidates[self.current]
    }

    /// Decision log.
    pub fn history(&self) -> &[TunerEvent] {
        &self.history
    }

    fn log(&mut self, threshold: u64, rate: f64, adopted: bool) {
        self.history.push(TunerEvent {
            epoch: self.epoch_counter,
            threshold,
            l2_hit_rate: rate,
            adopted,
        });
    }

    /// Feeds the measured mean L2 hit rate of the epoch that just ended;
    /// returns the directive for the next epoch.
    pub fn on_epoch_end(&mut self, l2_hit_rate: f64) -> TunerDirective {
        self.epoch_counter += 1;
        match self.phase {
            Phase::SampleCurrent => {
                self.rate_current = l2_hit_rate;
                self.log(self.threshold(), l2_hit_rate, false);
                self.begin_neighbour_sampling()
            }
            Phase::Stable => {
                // The stable run itself measured the current threshold.
                self.rate_current = l2_hit_rate;
                self.log(self.threshold(), l2_hit_rate, false);
                self.begin_neighbour_sampling()
            }
            Phase::SampleLow => {
                self.rate_low = Some(l2_hit_rate);
                self.log(self.cfg.candidates[self.current - 1], l2_hit_rate, false);
                if self.current + 1 < self.cfg.candidates.len() {
                    self.phase = Phase::SampleHigh;
                    TunerDirective {
                        threshold: self.cfg.candidates[self.current + 1],
                        epoch_len: self.cfg.sample_epoch,
                    }
                } else {
                    self.evaluate()
                }
            }
            Phase::SampleHigh => {
                self.rate_high = Some(l2_hit_rate);
                self.log(self.cfg.candidates[self.current + 1], l2_hit_rate, false);
                self.evaluate()
            }
        }
    }

    fn begin_neighbour_sampling(&mut self) -> TunerDirective {
        self.rate_low = None;
        self.rate_high = None;
        if self.current > 0 {
            self.phase = Phase::SampleLow;
            TunerDirective {
                threshold: self.cfg.candidates[self.current - 1],
                epoch_len: self.cfg.sample_epoch,
            }
        } else if self.current + 1 < self.cfg.candidates.len() {
            self.phase = Phase::SampleHigh;
            TunerDirective {
                threshold: self.cfg.candidates[self.current + 1],
                epoch_len: self.cfg.sample_epoch,
            }
        } else {
            // Degenerate single-candidate grid: stay stable forever.
            self.enter_stable(false)
        }
    }

    fn evaluate(&mut self) -> TunerDirective {
        let mut best_idx = self.current;
        let mut best_rate = self.rate_current + self.cfg.improvement;
        if let Some(r) = self.rate_low {
            if r >= best_rate {
                best_rate = r;
                best_idx = self.current - 1;
            }
        }
        if let Some(r) = self.rate_high {
            if r >= best_rate {
                best_idx = self.current + 1;
            }
        }
        let changed = best_idx != self.current;
        if changed {
            self.current = best_idx;
            if let Some(last) = self.history.last_mut() {
                // Mark the adopting measurement in the log.
                if last.threshold == self.cfg.candidates[best_idx] {
                    last.adopted = true;
                }
            }
            // Also patch the low-sample entry if that one won.
            if let Some(e) = self
                .history
                .iter_mut()
                .rev()
                .find(|e| e.threshold == self.cfg.candidates[best_idx])
            {
                e.adopted = true;
            }
        }
        self.enter_stable(changed)
    }

    fn enter_stable(&mut self, changed: bool) -> TunerDirective {
        // A change (or the very first evaluation) starts at the base
        // stable length; repeated confirmations double it (§III-B).
        if changed || self.first_eval {
            self.stable_len = self.cfg.stable_base;
        } else {
            self.stable_len =
                Instret::new((self.stable_len.as_u64() * 2).min(self.cfg.stable_cap.as_u64()));
        }
        self.first_eval = false;
        self.phase = Phase::Stable;
        TunerDirective {
            threshold: self.threshold(),
            epoch_len: self.stable_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TunerConfig {
        TunerConfig {
            candidates: vec![0, 100, 500, 1_000, 5_000, 10_000],
            sample_epoch: Instret::new(1_000),
            stable_base: Instret::new(4_000),
            stable_cap: Instret::new(16_000),
            improvement: 0.01,
            os_heavy_pivot: 0.10,
            initial_os_heavy: 1_000,
            initial_os_light: 10_000,
        }
    }

    #[test]
    fn initial_threshold_depends_on_os_share() {
        let mut t = ThresholdTuner::new(cfg());
        assert_eq!(t.initialize(0.30).threshold, 1_000);
        let mut t = ThresholdTuner::new(cfg());
        assert_eq!(t.initialize(0.05).threshold, 10_000);
    }

    #[test]
    fn neighbour_sampling_walks_low_then_high() {
        let mut t = ThresholdTuner::new(cfg());
        t.initialize(0.30); // current = 1_000
        let low = t.on_epoch_end(0.80);
        assert_eq!(low.threshold, 500);
        assert_eq!(low.epoch_len, Instret::new(1_000));
        let high = t.on_epoch_end(0.80);
        assert_eq!(high.threshold, 5_000);
    }

    #[test]
    fn better_neighbour_is_adopted() {
        let mut t = ThresholdTuner::new(cfg());
        t.initialize(0.30);
        t.on_epoch_end(0.80); // current (1,000) measured
        t.on_epoch_end(0.85); // low (500) clearly better
        let stable = t.on_epoch_end(0.70); // high (5,000) worse
        assert_eq!(stable.threshold, 500);
        assert_eq!(t.threshold(), 500);
        assert!(t.history().iter().any(|e| e.adopted && e.threshold == 500));
    }

    #[test]
    fn one_percent_hysteresis_blocks_marginal_wins() {
        let mut t = ThresholdTuner::new(cfg());
        t.initialize(0.30);
        t.on_epoch_end(0.800);
        t.on_epoch_end(0.805); // only +0.5%: not enough
        let stable = t.on_epoch_end(0.801);
        assert_eq!(stable.threshold, 1_000, "current retained");
    }

    #[test]
    fn stable_length_doubles_while_optimal_and_resets_on_change() {
        let mut t = ThresholdTuner::new(cfg());
        t.initialize(0.30);
        // Round 1: current best -> stable at base length.
        t.on_epoch_end(0.8);
        t.on_epoch_end(0.5);
        let s1 = t.on_epoch_end(0.5);
        assert_eq!(s1.epoch_len, Instret::new(4_000));
        // Stable epoch ends; round 2 re-confirms -> doubled.
        t.on_epoch_end(0.8);
        t.on_epoch_end(0.5);
        let s2 = t.on_epoch_end(0.5);
        assert_eq!(s2.epoch_len, Instret::new(8_000));
        // Round 3: neighbour wins -> reset to base.
        t.on_epoch_end(0.8);
        t.on_epoch_end(0.95);
        let s3 = t.on_epoch_end(0.5);
        assert_eq!(s3.epoch_len, Instret::new(4_000));
        assert_eq!(s3.threshold, 500);
    }

    #[test]
    fn stable_length_caps() {
        let mut t = ThresholdTuner::new(cfg());
        t.initialize(0.30);
        // Keep re-confirming; length must not exceed the cap.
        let mut last = t.on_epoch_end(0.8);
        for _ in 0..20 {
            last = t.on_epoch_end(0.5);
        }
        assert!(last.epoch_len <= Instret::new(16_000));
    }

    #[test]
    fn grid_edges_sample_single_neighbour() {
        let mut t = ThresholdTuner::new(cfg());
        let d = t.initialize(0.05); // current = 10_000 (top of grid)
        assert_eq!(d.threshold, 10_000);
        let low = t.on_epoch_end(0.8);
        assert_eq!(low.threshold, 5_000);
        // No high neighbour: evaluation happens after the low sample.
        let stable = t.on_epoch_end(0.5);
        assert_eq!(stable.threshold, 10_000);

        // Bottom edge.
        let mut cfg2 = cfg();
        cfg2.initial_os_heavy = 0;
        let mut t = ThresholdTuner::new(cfg2);
        t.initialize(0.30);
        let high = t.on_epoch_end(0.8);
        assert_eq!(high.threshold, 100);
    }

    #[test]
    fn history_records_all_measurements() {
        let mut t = ThresholdTuner::new(cfg());
        t.initialize(0.30);
        t.on_epoch_end(0.8);
        t.on_epoch_end(0.7);
        t.on_epoch_end(0.6);
        assert_eq!(t.history().len(), 3);
        assert!(t.history().iter().all(|e| e.l2_hit_rate > 0.0));
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_grid_rejected() {
        let mut c = cfg();
        c.candidates = vec![100, 50];
        ThresholdTuner::new(c);
    }

    #[test]
    fn scaled_down_preserves_grid() {
        let c = TunerConfig::scaled_down(1_000);
        assert_eq!(c.candidates, TunerConfig::paper_default().candidates);
        assert_eq!(c.sample_epoch, Instret::new(25_000));
    }

    #[test]
    fn run_length_scaling_targets_forty_epochs() {
        let c = TunerConfig::for_run_length(500_000);
        let d = TunerConfig::scaled_down(2_000);
        assert_eq!(c.sample_epoch, d.sample_epoch);
        assert_eq!(c.stable_base, d.stable_base);
        assert_eq!(c.stable_cap, d.stable_cap);
        assert_eq!(c.sample_epoch, Instret::new(12_500));
        // A zero-length run must not divide by zero.
        let z = TunerConfig::for_run_length(0);
        assert_eq!(z.sample_epoch, Instret::new(1));
    }
}
