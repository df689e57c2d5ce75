//! Seeded input generation: PRNG, zipf sampler, key distributions, op dice.
//!
//! Everything a run feeds the structures is a pure function of `--seed`;
//! the structures receive only the generated keys.

/// SplitMix64 step: the seed expander (also used to derive per-stream seeds).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent stream seed from the run seed and a stream label.
pub fn stream_seed(seed: u64, label: &[u64]) -> u64 {
    let mut s = seed;
    let mut out = splitmix64(&mut s);
    for &l in label {
        s ^= l.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        out ^= splitmix64(&mut s);
    }
    out
}

/// xoshiro256++ (Blackman & Vigna).
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A generator whose whole state is expanded from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, n)` by multiply-shift (bias < 2^-32 for `n` < 2^32).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0 && n <= 1 << 32);
        ((self.next_u64() >> 32) * n) >> 32
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Zipfian ranks over `[0, n)` by the Gray et al. method (as YCSB): rank 0
/// has probability exactly `1 / zeta(n, theta)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

impl Zipf {
    /// Sampler over `n` ranks with skew `theta` in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0);
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        Zipf {
            n,
            theta,
            zetan,
            alpha: 1.0 / (1.0 - theta),
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// Closed-form probability of rank 0.
    pub fn p0(&self) -> f64 {
        1.0 / self.zetan
    }

    /// Draws a rank; 0 is the hottest.
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

/// How a workload draws keys from its key space.
#[derive(Debug, Clone)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Zipfian popularity; ranks are scattered over the key space by a
    /// fixed odd multiplier so hot keys are not neighbours.
    Zipf(Zipf),
}

/// Operation kinds the driver issues (the queue uses `Put` = enqueue and
/// `Del` = dequeue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Lookup.
    Get,
    /// Insert / enqueue.
    Put,
    /// Remove / dequeue.
    Del,
}

/// Percentages of get / put / del; they sum to 100.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Share of lookups.
    pub get: u32,
    /// Share of inserts.
    pub put: u32,
    /// Share of removes.
    pub del: u32,
}

/// One thread's stream of (key, op) pairs.
#[derive(Debug, Clone)]
pub struct OpGen {
    rng: Rng,
    key_space: u64,
    dist: KeyDist,
    get_below: u64,
    put_below: u64,
}

/// Odd multiplier scattering zipf ranks over a power-of-two key space.
const SCATTER: u64 = 0x9E37_79B9_7F4A_7C15;

impl OpGen {
    /// A stream over `[0, key_space)`; `key_space` must be a power of two
    /// for the zipf scatter to stay a bijection.
    pub fn new(seed: u64, key_space: u64, dist: KeyDist, mix: Mix) -> Self {
        assert_eq!(mix.get + mix.put + mix.del, 100);
        assert!(key_space.is_power_of_two() || matches!(dist, KeyDist::Uniform));
        OpGen {
            rng: Rng::new(seed),
            key_space,
            dist,
            get_below: mix.get as u64,
            put_below: (mix.get + mix.put) as u64,
        }
    }

    /// Next key alone (the witness probe draws its position this way).
    #[inline]
    pub fn next_key(&mut self) -> u64 {
        match &self.dist {
            KeyDist::Uniform => self.rng.below(self.key_space),
            KeyDist::Zipf(z) => {
                z.sample(&mut self.rng).wrapping_mul(SCATTER) & (self.key_space - 1)
            }
        }
    }

    /// Next (key, op) pair.
    #[inline]
    pub fn next_op(&mut self) -> (u64, OpKind) {
        let key = self.next_key();
        let dice = self.rng.below(100);
        let op = if dice < self.get_below {
            OpKind::Get
        } else if dice < self.put_below {
            OpKind::Put
        } else {
            OpKind::Del
        };
        (key, op)
    }
}

/// The seeded-random half of `[0, key_space)` that is present after
/// prefill, in the (shuffled) order it is inserted. Ascending prefill gives
/// the manual list a contiguous heap layout that decays during the run.
pub fn prefill_keys(seed: u64, key_space: u64) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..key_space).collect();
    let mut rng = Rng::new(stream_seed(seed, &[0x5052_4546]));
    rng.shuffle(&mut keys);
    keys.truncate((key_space / 2) as usize);
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, thread: u64, dist: KeyDist, mix: Mix) -> Vec<(u64, OpKind)> {
        let mut g = OpGen::new(stream_seed(seed, &[1, 0, thread]), 65_536, dist, mix);
        (0..10_000).map(|_| g.next_op()).collect()
    }

    const KV: Mix = Mix {
        get: 50,
        put: 25,
        del: 25,
    };

    #[test]
    fn same_seed_same_stream_per_thread() {
        for t in 0..2 {
            let z = KeyDist::Zipf(Zipf::new(65_536, 0.99));
            assert_eq!(stream(7, t, z.clone(), KV), stream(7, t, z, KV));
            assert_eq!(
                stream(7, t, KeyDist::Uniform, KV),
                stream(7, t, KeyDist::Uniform, KV)
            );
        }
        assert_eq!(prefill_keys(7, 4096), prefill_keys(7, 4096));
    }

    #[test]
    fn different_seeds_and_threads_differ() {
        assert_ne!(
            stream(7, 0, KeyDist::Uniform, KV),
            stream(8, 0, KeyDist::Uniform, KV)
        );
        assert_ne!(
            stream(7, 0, KeyDist::Uniform, KV),
            stream(7, 1, KeyDist::Uniform, KV)
        );
        assert_ne!(prefill_keys(7, 4096), prefill_keys(8, 4096));
    }

    #[test]
    fn mix_proportions_within_one_percent() {
        for mix in [
            KV,
            Mix {
                get: 90,
                put: 5,
                del: 5,
            },
        ] {
            let mut g = OpGen::new(3, 2_097_152, KeyDist::Uniform, mix);
            let n = 400_000;
            let mut c = [0u32; 3];
            for _ in 0..n {
                c[g.next_op().1 as usize] += 1;
            }
            for (got, want) in c.iter().zip([mix.get, mix.put, mix.del]) {
                let share = *got as f64 / n as f64 * 100.0;
                assert!((share - want as f64).abs() < 1.0, "{share} vs {want}");
            }
        }
    }

    #[test]
    fn zipf_rank0_matches_closed_form() {
        let z = Zipf::new(65_536, 0.99);
        let mut rng = Rng::new(11);
        let n = 2_000_000;
        let hits = (0..n).filter(|_| z.sample(&mut rng) == 0).count();
        let freq = hits as f64 / n as f64;
        assert!(
            (freq / z.p0() - 1.0).abs() < 0.02,
            "rank-0 frequency {freq} vs closed form {}",
            z.p0()
        );
    }

    #[test]
    fn prefill_is_exactly_half_and_shuffled() {
        let keys = prefill_keys(5, 2000);
        assert_eq!(keys.len(), 1000);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 1000, "distinct");
        assert!(sorted.iter().all(|&k| k < 2000));
        assert_ne!(keys, sorted, "not ascending");
    }

    #[test]
    fn uniform_below_covers_range() {
        let mut rng = Rng::new(1);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
