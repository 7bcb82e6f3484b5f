//! Seeded pseudo-random numbers: the SplitMix64 finalizer as a hash and
//! an xorshift64* stream.
//!
//! Every modelled random choice derives from these two: the fault
//! plane's decisions and the recovery layer's back-off jitter hash with
//! [`mix64`], residue bytes are `mix64` of a nonce and an offset, and
//! sustained arrivals draw their jitter from an [`Rng`]. One seed
//! therefore gives one sequence on every machine.

/// The golden-ratio increment of SplitMix64.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64's output function applied to `x`: the finalizer of
/// `x + 0x9e37_79b9_7f4a_7c15`. A bijective 64-bit hash.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// xorshift64*: a seeded stream of 64-bit values.
///
/// # Examples
///
/// ```
/// use fastiov_simtime::rng::Rng;
///
/// let mut rng = Rng::new(7);
/// assert!(rng.below(10) < 10);
/// let u = rng.unit();
/// assert!(u > 0.0 && u <= 1.0);
/// ```
#[derive(Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded with `seed` (0, which xorshift cannot leave, is
    /// taken as 1).
    pub fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    /// The next value. An endless stream, so not an [`Iterator`].
    #[allow(clippy::should_implement_trait, reason = "an endless stream")]
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// The next value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// The next value, uniform in `(0, 1]`: never zero, so its logarithm
    /// is always finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_the_splitmix64_output() {
        // SplitMix64 seeded with 0 starts 0xe220a8397b1dcdaf.
        assert_eq!(mix64(0), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn unit_draws_repeat_for_a_seed_and_stay_in_zero_one() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        for _ in 0..32 {
            let (ua, ub) = (a.unit(), b.unit());
            assert_eq!(ua, ub);
            assert!(ua > 0.0 && ua <= 1.0);
        }
    }

    #[test]
    fn a_zero_seed_is_seed_one() {
        assert_eq!(Rng::new(0).next(), Rng::new(1).next());
    }
}
