//! Synthetic "elliptic-like" dataset generator.
//!
//! The paper evaluates on the Kaggle Elliptic Bitcoin dataset (165
//! features; 4,545 illicit / 42,019 licit transactions), which is an
//! external download. This module generates a stand-in with the same
//! schema and — more importantly — the statistical properties the paper's
//! Figs. 9-10 measure:
//!
//! * class signal lives in a low-dimensional **non-linear** latent space
//!   (an XOR-like interaction plus a radial term), so kernel machines have
//!   an edge over linear ones;
//! * every observed feature is a random projection of the latent signal
//!   plus independent noise, so each additional feature contributes
//!   additional signal-to-noise — test AUC improves with feature count;
//! * per-feature noise keeps single features weak, so small training sets
//!   overfit at high feature counts — test AUC improves with sample count.
//!
//! Generation is fully deterministic given the seed, and independent of
//! the thread count it runs on.

use crate::dataset::{Dataset, Label};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Configuration of the synthetic generator.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticConfig {
    /// Observed feature dimension (165 in the paper's dataset).
    pub num_features: usize,
    /// Number of positive (illicit) samples.
    pub num_illicit: usize,
    /// Number of negative (licit) samples.
    pub num_licit: usize,
    /// Latent dimension carrying the class signal.
    pub latent_dim: usize,
    /// Standard deviation of per-feature observation noise, relative to a
    /// unit-variance projected signal. Larger = harder task.
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            num_features: 165,
            num_illicit: 4_545,
            num_licit: 42_019,
            latent_dim: 8,
            noise: 2.4,
            seed: 7,
        }
    }
}

impl SyntheticConfig {
    /// The full elliptic-like shape with a custom seed.
    pub fn elliptic_like(seed: u64) -> Self {
        SyntheticConfig {
            seed,
            ..Self::default()
        }
    }

    /// A small configuration for unit tests and quick examples.
    pub fn small(seed: u64) -> Self {
        SyntheticConfig {
            num_features: 20,
            num_illicit: 60,
            num_licit: 140,
            latent_dim: 6,
            noise: 2.4,
            seed,
        }
    }
}

/// Standard normal sampler via Box-Muller.
fn normal(rng: &mut ChaCha8Rng) -> f64 {
    // Avoid log(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Non-linear class score in latent space. Zero-mean by construction for
/// standard-normal input, so thresholding at 0 gives roughly balanced
/// acceptance during rejection sampling.
fn latent_score(z: &[f64]) -> f64 {
    let l = z.len();
    debug_assert!(l >= 4, "latent_dim must be at least 4");
    // XOR-like interaction (favours kernels over linear classifiers) ...
    let xor = z[0] * z[1];
    // ... a radial component (distance from a shell), zero-mean for chi^2_2
    let radial = 0.5 * (z[2] * z[2] + z[3] * z[3] - 2.0);
    // ... and a weak linear part so the task is not linearly hopeless.
    let linear: f64 = z.iter().skip(4).sum::<f64>() * 0.3;
    xor + radial + linear
}

/// Margin applied around the decision surface during rejection sampling.
/// A margin makes the classes separable-with-noise rather than abutting,
/// landing the achievable AUC in the paper's 0.8-0.95 band.
const SCORE_MARGIN: f64 = 0.25;

/// Generates the dataset described by `config` on
/// `min(available_parallelism, rows)` threads.
///
/// Samples appear in illicit-then-licit order; downstream code shuffles
/// with its own seeding during subsampling/splits.
pub fn generate(config: &SyntheticConfig) -> Dataset {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    generate_on(threads, config)
}

/// The one body of [`generate`], on `threads` threads (inline at one).
///
/// The dataset is one ChaCha8 stream: `W`'s `4·F·L` words, then per row
/// its latent tries (`4·L` words each, the last one accepted) and its
/// `4·F` noise words. The calling thread rejection-samples every row's
/// latent vector in stream order, keeps only the position of the
/// accepted try and seeks over the noise. The rows then fill in
/// contiguous blocks, one per thread, each replaying its rows' accepted
/// tries from those positions: every draw reads the words it read in one
/// sequential pass, so no bit depends on the thread count.
fn generate_on(threads: usize, config: &SyntheticConfig) -> Dataset {
    assert!(config.latent_dim >= 4, "latent_dim must be at least 4");
    assert!(config.num_features >= 1, "need at least one feature");
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);

    // Random projection matrix W: num_features x latent_dim. Rows are
    // normalized so every feature carries comparable (weak) signal.
    let w: Vec<Vec<f64>> = (0..config.num_features)
        .map(|_| {
            let mut row: Vec<f64> = (0..config.latent_dim).map(|_| normal(&mut rng)).collect();
            let norm = row.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
            for x in &mut row {
                *x /= norm;
            }
            row
        })
        .collect();

    // Rows and scratch are allocated here, on the calling thread, rows
    // first: a row built in a worker's malloc arena would pin that arena
    // (DESIGN.md, "State fan-out"), and side data freed beneath the rows
    // would leave them nothing live above, so dropping the dataset would
    // hand its pages back to the system for the next one to fault in.
    let total = config.num_illicit + config.num_licit;
    let mut features: Vec<Vec<f64>> = (0..total)
        .map(|_| Vec::with_capacity(config.num_features))
        .collect();
    let mut labels = Vec::with_capacity(total);
    let mut starts = Vec::with_capacity(total);
    let mut z = vec![0.0; config.latent_dim];
    let noise_words = 4 * config.num_features as u128;
    for (label, count) in [
        (Label::Illicit, config.num_illicit),
        (Label::Licit, config.num_licit),
    ] {
        for _ in 0..count {
            // Rejection-sample a latent vector on the requested side of
            // the decision surface (with margin).
            let start = loop {
                let start = rng.word_pos();
                z.iter_mut().for_each(|x| *x = normal(&mut rng));
                let s = latent_score(&z);
                if s * label.sign() > SCORE_MARGIN {
                    break start;
                }
            };
            starts.push(start as u64);
            labels.push(label);
            rng.set_word_pos(rng.word_pos() + noise_words);
        }
    }

    let threads = threads.min(total);
    if threads <= 1 {
        fill_rows(&mut features, &starts, &w, &mut z, config);
    } else {
        let chunk = total.div_ceil(threads);
        let mut scratch = vec![z.clone(); threads - 1];
        std::thread::scope(|scope| {
            let mut blocks = features.chunks_mut(chunk).zip(starts.chunks(chunk));
            let (own_rows, own_starts) = blocks.next().expect("at least two rows");
            for ((rows, starts), z) in blocks.zip(&mut scratch) {
                let w = &w;
                scope.spawn(move || fill_rows(rows, starts, w, z, config));
            }
            fill_rows(own_rows, own_starts, &w, &mut z, config);
        });
    }
    Dataset::new(features, labels)
}

/// The noise pass over one block: seeks to each row's accepted latent
/// try, replays it into `z`, then pushes one feature per row of `w`,
/// each right after its signal's dot product, as the stream lays them
/// out. Allocates nothing: every row arrives empty with capacity `F`.
fn fill_rows(
    rows: &mut [Vec<f64>],
    starts: &[u64],
    w: &[Vec<f64>],
    z: &mut [f64],
    config: &SyntheticConfig,
) {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    for (row, &start) in rows.iter_mut().zip(starts) {
        rng.set_word_pos(start.into());
        z.iter_mut().for_each(|x| *x = normal(&mut rng));
        for wj in w {
            let signal: f64 = wj.iter().zip(&*z).map(|(a, b)| a * b).sum();
            row.push(signal + config.noise * normal(&mut rng));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let cfg = SyntheticConfig::small(1);
        let d = generate(&cfg);
        assert_eq!(d.len(), 200);
        assert_eq!(d.num_features(), 20);
        assert_eq!(d.num_illicit(), 60);
        assert_eq!(d.num_licit(), 140);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate(&SyntheticConfig::small(42));
        let b = generate(&SyntheticConfig::small(42));
        assert_eq!(a.features, b.features);
        let c = generate(&SyntheticConfig::small(43));
        assert_ne!(a.features, c.features);
    }

    #[test]
    fn features_are_finite() {
        let d = generate(&SyntheticConfig::small(2));
        assert!(d
            .features
            .iter()
            .all(|row| row.iter().all(|x| x.is_finite())));
    }

    #[test]
    fn latent_score_is_roughly_centered() {
        // Empirical mean of the latent score over standard normals should
        // be near zero, keeping rejection sampling efficient.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let n = 20_000;
        let mut acc = 0.0;
        let mut pos = 0usize;
        for _ in 0..n {
            let z: Vec<f64> = (0..6).map(|_| normal(&mut rng)).collect();
            let s = latent_score(&z);
            acc += s;
            if s > 0.0 {
                pos += 1;
            }
        }
        assert!((acc / n as f64).abs() < 0.05, "mean {}", acc / n as f64);
        let frac = pos as f64 / n as f64;
        assert!((0.25..0.75).contains(&frac), "positive fraction {frac}");
    }

    #[test]
    fn classes_are_statistically_separable() {
        // The mean projected signal must differ between classes on at
        // least a few features, otherwise no model could learn anything.
        let d = generate(&SyntheticConfig {
            noise: 0.5,
            ..SyntheticConfig::small(4)
        });
        let m = d.num_features();
        let mut mean_pos = vec![0.0f64; m];
        let mut mean_neg = vec![0.0f64; m];
        for (row, label) in d.features.iter().zip(&d.labels) {
            let target = if *label == Label::Illicit {
                &mut mean_pos
            } else {
                &mut mean_neg
            };
            for (t, x) in target.iter_mut().zip(row) {
                *t += x;
            }
        }
        for t in &mut mean_pos {
            *t /= d.num_illicit() as f64;
        }
        for t in &mut mean_neg {
            *t /= d.num_licit() as f64;
        }
        // Not every feature needs to separate, but the joint signal must
        // be nonzero.
        let gap: f64 = mean_pos
            .iter()
            .zip(&mean_neg)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(gap > 0.05, "class mean gap {gap} too small");
    }

    #[test]
    fn default_matches_elliptic_schema() {
        let cfg = SyntheticConfig::default();
        assert_eq!(cfg.num_features, 165);
        assert_eq!(cfg.num_illicit, 4_545);
        assert_eq!(cfg.num_licit, 42_019);
    }

    #[test]
    fn every_thread_count_builds_the_same_bits() {
        let odd = SyntheticConfig {
            num_illicit: 2,
            num_licit: 1,
            ..SyntheticConfig::small(5)
        };
        for cfg in [SyntheticConfig::small(3), odd] {
            let one = generate_on(1, &cfg);
            for t in [2, 3, 7] {
                let many = generate_on(t, &cfg);
                assert_eq!(one.labels, many.labels, "{t} threads");
                let bits = |d: &Dataset| -> Vec<u64> {
                    d.features.iter().flatten().map(|x| x.to_bits()).collect()
                };
                assert_eq!(bits(&one), bits(&many), "{t} threads");
            }
        }
    }

    #[test]
    fn normal_reads_exactly_four_words() {
        // The seek arithmetic (4·L words per latent try, 4·F per row's
        // noise) rests on this: one `next_u64` each for u1 and u2.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for k in 1..=40u128 {
            let _ = normal(&mut rng);
            assert_eq!(rng.word_pos(), 4 * k);
        }
    }

    #[test]
    fn normal_sampler_moments() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
