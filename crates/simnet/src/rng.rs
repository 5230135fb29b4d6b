//! Deterministic, component-scoped randomness.
//!
//! Every random component of a simulation (each user population, each
//! service's demand jitter, the attacker's bot farm, ...) draws from its own
//! [`RngStream`], derived from the experiment's master seed and a stable
//! label. Adding or removing one component therefore never perturbs the
//! draws seen by another, which keeps regression baselines stable.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Derives a child seed from a master seed and a stable textual label.
///
/// Implemented as FNV-1a over the label mixed with SplitMix64 finalisation,
/// so labels that differ in one byte produce unrelated seeds.
///
/// # Example
///
/// ```
/// let a = simnet::derive_seed(42, "users");
/// let b = simnet::derive_seed(42, "attacker");
/// assert_ne!(a, b);
/// assert_eq!(a, simnet::derive_seed(42, "users"));
/// ```
pub fn derive_seed(master: u64, label: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET ^ master;
    for byte in label.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    splitmix64(h)
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A named deterministic random stream.
///
/// Thin wrapper over [`SmallRng`] that adds the distributions the
/// simulations need (exponential inter-arrival times, uniform jitter,
/// weighted choice) without pulling in a distributions crate.
///
/// # Example
///
/// ```
/// use simnet::RngStream;
///
/// let mut rng = RngStream::from_label(7, "demo");
/// let x = rng.exp(1.0);
/// assert!(x >= 0.0);
/// let k = rng.weighted_choice(&[1.0, 0.0]);
/// assert_eq!(k, 0);
/// ```
#[derive(Debug, Clone)]
pub struct RngStream {
    inner: SmallRng,
}

impl RngStream {
    /// Creates a stream directly from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        RngStream {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Creates a stream for component `label` of the experiment seeded by
    /// `master`. See [`derive_seed`].
    pub fn from_label(master: u64, label: &str) -> Self {
        Self::from_seed(derive_seed(master, label))
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Fills `buf` with uniform draws in `[0, 1)`.
    ///
    /// Draws exactly `buf.len()` uniforms in the same order as `buf.len()`
    /// calls to [`unit`](Self::unit), so batched and per-call consumers of
    /// the same stream see bit-identical sequences (the closed-loop user
    /// population prefetches its think/transition uniforms this way).
    pub fn fill_unit(&mut self, buf: &mut [f64]) {
        for u in buf.iter_mut() {
            *u = self.inner.gen::<f64>();
        }
    }

    /// A uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform range must be non-empty");
        lo + (hi - lo) * self.unit()
    }

    /// A uniform integer draw in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is meaningless");
        self.inner.gen_range(0..n)
    }

    /// An exponential draw with the given `mean` (not rate).
    ///
    /// A `mean` of zero or less returns `0.0`, which conveniently encodes
    /// "no think time" / "back-to-back arrivals".
    pub fn exp(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        exp_from_unit(mean, self.unit())
    }

    /// A draw from a (location-scale) lognormal specified by the mean and
    /// coefficient-of-variation of the *resulting* distribution.
    ///
    /// Used for service-demand jitter: microservice compute times are
    /// right-skewed but bounded away from zero.
    pub fn lognormal_mean_cv(&mut self, mean: f64, cv: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        if cv <= 0.0 {
            return mean;
        }
        let z = self.standard_normal();
        lognormal_mean_cv_from_z(mean, cv, z)
    }

    /// A standard normal draw (Box–Muller).
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = self.unit().max(1e-12);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Fills `buf` with standard normal draws.
    ///
    /// Draws exactly `2 * buf.len()` uniforms in the same order as
    /// `buf.len()` calls to [`standard_normal`](Self::standard_normal), so
    /// batched and per-call consumers of the same stream see bit-identical
    /// sequences.
    pub fn fill_standard_normal(&mut self, buf: &mut [f64]) {
        for z in buf.iter_mut() {
            *z = self.standard_normal();
        }
    }

    /// Draws an index with probability proportional to `weights[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero or less.
    pub fn weighted_choice(&mut self, weights: &[f64]) -> usize {
        self.weighted_choice_by(weights.iter().copied())
    }

    /// Like [`weighted_choice`](Self::weighted_choice), but over any
    /// re-iterable weight sequence — same draw, same scan, no temporary
    /// buffer. Callers whose weights live inside wider records (e.g. a
    /// `(type, weight)` mix) sample without collecting a `Vec` first.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is empty or the weights do not sum to a
    /// positive value.
    pub fn weighted_choice_by(&mut self, weights: impl Iterator<Item = f64> + Clone) -> usize {
        let mut n = 0usize;
        let mut total = 0.0;
        for w in weights.clone() {
            total += w;
            n += 1;
        }
        assert!(n > 0, "weighted_choice needs weights");
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut x = self.unit() * total;
        for (i, w) in weights.enumerate() {
            x -= w;
            if x <= 0.0 {
                return i;
            }
        }
        n - 1
    }

    /// A Bernoulli draw that is `true` with probability `p` (clamped to
    /// `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }

    /// A fingerprint of the stream's current position, without advancing it.
    ///
    /// Two streams with equal fingerprints will produce identical draw
    /// sequences; used by the snapshot tests to compare RNG state.
    pub fn fingerprint(&self) -> u64 {
        self.inner.clone().next_u64()
    }
}

/// Maps a uniform draw `u` in `[0, 1)` onto the exponential with the given
/// `mean` (not rate); non-positive means collapse to `0.0`.
///
/// This is the deterministic tail of [`RngStream::exp`]; it is exposed so
/// hot paths can batch the uniform draws (see [`RngStream::fill_unit`]) and
/// apply them later — the batched and per-call paths are bit-identical.
pub fn exp_from_unit(mean: f64, u: f64) -> f64 {
    if mean <= 0.0 {
        return 0.0;
    }
    // Inverse-transform sampling; clamp the uniform away from 0 so ln is
    // finite.
    -mean * u.max(1e-12).ln()
}

/// Maps a standard normal draw `z` onto the lognormal with the given `mean`
/// and coefficient of variation.
///
/// This is the deterministic tail of [`RngStream::lognormal_mean_cv`]; it is
/// exposed so hot paths can batch the normal draws (see
/// [`RngStream::fill_standard_normal`]) and apply the per-call parameters
/// later.
pub fn lognormal_mean_cv_from_z(mean: f64, cv: f64, z: f64) -> f64 {
    if mean <= 0.0 {
        return 0.0;
    }
    if cv <= 0.0 {
        return mean;
    }
    let sigma2 = (1.0 + cv * cv).ln();
    let mu = mean.ln() - sigma2 / 2.0;
    (mu + sigma2.sqrt() * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_stable_and_label_sensitive() {
        assert_eq!(derive_seed(1, "a"), derive_seed(1, "a"));
        assert_ne!(derive_seed(1, "a"), derive_seed(1, "b"));
        assert_ne!(derive_seed(1, "a"), derive_seed(2, "a"));
    }

    #[test]
    fn streams_are_reproducible() {
        let mut a = RngStream::from_label(9, "x");
        let mut b = RngStream::from_label(9, "x");
        for _ in 0..32 {
            assert_eq!(a.unit().to_bits(), b.unit().to_bits());
        }
    }

    #[test]
    fn exp_mean_is_roughly_right() {
        let mut rng = RngStream::from_label(3, "exp");
        let n = 20_000;
        let total: f64 = (0..n).map(|_| rng.exp(7.0)).sum();
        let mean = total / n as f64;
        assert!((mean - 7.0).abs() < 0.3, "mean was {mean}");
    }

    #[test]
    fn exp_of_nonpositive_mean_is_zero() {
        let mut rng = RngStream::from_label(3, "exp0");
        assert_eq!(rng.exp(0.0), 0.0);
        assert_eq!(rng.exp(-1.0), 0.0);
    }

    #[test]
    fn lognormal_matches_requested_mean() {
        let mut rng = RngStream::from_label(4, "ln");
        let n = 40_000;
        let total: f64 = (0..n).map(|_| rng.lognormal_mean_cv(10.0, 0.5)).sum();
        let mean = total / n as f64;
        assert!((mean - 10.0).abs() < 0.3, "mean was {mean}");
    }

    #[test]
    fn lognormal_zero_cv_is_constant() {
        let mut rng = RngStream::from_label(4, "lncv0");
        assert_eq!(rng.lognormal_mean_cv(5.0, 0.0), 5.0);
    }

    #[test]
    fn batched_normals_match_per_call_sequence() {
        let mut a = RngStream::from_label(11, "batch");
        let mut b = RngStream::from_label(11, "batch");
        let mut buf = [0.0f64; 16];
        a.fill_standard_normal(&mut buf);
        for z in buf {
            assert_eq!(z.to_bits(), b.standard_normal().to_bits());
        }
        // The lognormal split must also reproduce the fused draw exactly.
        let (mean, cv) = (3.25, 0.4);
        let direct = a.lognormal_mean_cv(mean, cv);
        let via_z = lognormal_mean_cv_from_z(mean, cv, b.standard_normal());
        assert_eq!(direct.to_bits(), via_z.to_bits());
    }

    #[test]
    fn batched_units_match_per_call_sequence() {
        let mut a = RngStream::from_label(13, "ubatch");
        let mut b = RngStream::from_label(13, "ubatch");
        let mut buf = [0.0f64; 32];
        a.fill_unit(&mut buf);
        for u in buf {
            assert_eq!(u.to_bits(), b.unit().to_bits());
        }
        // The exponential split must reproduce the fused draw exactly.
        let direct = a.exp(7.0);
        let via_u = exp_from_unit(7.0, b.unit());
        assert_eq!(direct.to_bits(), via_u.to_bits());
    }

    #[test]
    fn exp_from_unit_nonpositive_mean_is_zero() {
        assert_eq!(exp_from_unit(0.0, 0.5), 0.0);
        assert_eq!(exp_from_unit(-3.0, 0.5), 0.0);
    }

    #[test]
    fn fingerprint_tracks_stream_position() {
        let mut a = RngStream::from_label(12, "fp");
        let b = RngStream::from_label(12, "fp");
        assert_eq!(a.fingerprint(), b.fingerprint());
        let before = a.fingerprint();
        a.unit();
        assert_ne!(a.fingerprint(), before);
        // Fingerprinting itself must not advance the stream.
        let c = RngStream::from_label(12, "fp");
        let _ = c.fingerprint();
        assert_eq!(b.clone().fingerprint(), c.fingerprint());
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut rng = RngStream::from_label(5, "w");
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.weighted_choice(&[1.0, 2.0, 1.0])] += 1;
        }
        let mid = counts[1] as f64 / 30_000.0;
        assert!((mid - 0.5).abs() < 0.02, "mid fraction was {mid}");
    }

    #[test]
    #[should_panic(expected = "weights must sum")]
    fn weighted_choice_rejects_zero_weights() {
        RngStream::from_label(5, "w0").weighted_choice(&[0.0, 0.0]);
    }

    #[test]
    fn chance_clamps_probability() {
        let mut rng = RngStream::from_label(6, "p");
        assert!(rng.chance(2.0));
        assert!(!rng.chance(-1.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = RngStream::from_label(8, "sh");
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = RngStream::from_label(10, "b");
        for _ in 0..100 {
            assert!(rng.below(7) < 7);
        }
    }
}
