//! Seeded execution-time jitter.
//!
//! The paper runs every configuration 100 times and reports standard
//! deviations (Table V); variance on the real machine comes from OS noise,
//! prefetching and scheduling. The simulator reintroduces a controlled
//! analogue: each `Compute` event's duration is scaled by a factor drawn
//! from a seeded uniform distribution, so repeated runs with different seeds
//! vary while any single run stays reproducible.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration of the jitter source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterConfig {
    /// RNG seed; vary per repetition.
    pub seed: u64,
    /// Relative amplitude: durations are scaled by a factor in
    /// `[1 - amplitude, 1 + amplitude]`. Must be in `[0, 1)`.
    pub amplitude: f64,
}

impl JitterConfig {
    /// Jitter with the default ±2% amplitude.
    pub fn with_seed(seed: u64) -> Self {
        JitterConfig {
            seed,
            amplitude: 0.02,
        }
    }
}

/// One thread's jitter stream. Each thread draws its own seeded sequence,
/// so jitter stays a per-thread property: the same whichever domain or OS
/// thread executes it.
#[derive(Debug, Clone)]
pub(crate) struct ThreadJitter {
    rng: Option<SmallRng>,
    amplitude: f64,
}

impl ThreadJitter {
    /// The stream of `thread`; `None` yields a no-op stream.
    ///
    /// # Panics
    /// Panics if the amplitude is outside `[0, 1)`.
    pub fn new(config: Option<JitterConfig>, thread: usize) -> Self {
        match config {
            None => ThreadJitter {
                rng: None,
                amplitude: 0.0,
            },
            Some(c) => {
                assert!(
                    (0.0..1.0).contains(&c.amplitude),
                    "jitter amplitude {} outside [0, 1)",
                    c.amplitude
                );
                ThreadJitter {
                    rng: Some(SmallRng::seed_from_u64(
                        c.seed.wrapping_add(thread as u64 * 0x9E37_79B9),
                    )),
                    amplitude: c.amplitude,
                }
            }
        }
    }

    /// Scale a compute duration for this thread.
    pub fn scale(&mut self, cycles: u64) -> u64 {
        let Some(rng) = &mut self.rng else {
            return cycles;
        };
        if self.amplitude == 0.0 {
            return cycles;
        }
        let f: f64 = rng.gen_range(1.0 - self.amplitude..=1.0 + self.amplitude);
        (cycles as f64 * f).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_jitter_is_identity() {
        let mut j = ThreadJitter::new(None, 3);
        assert_eq!(j.scale(1000), 1000);
        assert_eq!(j.scale(7), 7);
    }

    #[test]
    fn jitter_stays_within_amplitude() {
        let mut j = ThreadJitter::new(
            Some(JitterConfig {
                seed: 1,
                amplitude: 0.1,
            }),
            0,
        );
        for _ in 0..1000 {
            let v = j.scale(1000);
            assert!((900..=1100).contains(&v), "scaled value {v} out of band");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let cfg = Some(JitterConfig::with_seed(42));
        let mut a = ThreadJitter::new(cfg, 1);
        let mut b = ThreadJitter::new(cfg, 1);
        for _ in 0..100 {
            assert_eq!(a.scale(12345), b.scale(12345));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ThreadJitter::new(Some(JitterConfig::with_seed(1)), 0);
        let mut b = ThreadJitter::new(Some(JitterConfig::with_seed(2)), 0);
        let va: Vec<u64> = (0..20).map(|_| a.scale(10_000)).collect();
        let vb: Vec<u64> = (0..20).map(|_| b.scale(10_000)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn amplitude_validated() {
        ThreadJitter::new(
            Some(JitterConfig {
                seed: 0,
                amplitude: 1.5,
            }),
            1,
        );
    }
}
