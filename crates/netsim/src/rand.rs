//! Deterministic pseudo-random numbers (xorshift64*), so simulations
//! replay identically for a fixed seed. Not cryptographic.

/// A small, fast, seedable RNG.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates an RNG; a zero seed is remapped (xorshift cannot hold 0).
    pub fn new(seed: u64) -> Self {
        SimRng {
            state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Forks an independent stream (seeded from this one).
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64() | 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = SimRng::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn forked_streams_differ() {
        let mut r = SimRng::new(5);
        let mut f1 = r.fork();
        let mut f2 = r.fork();
        assert_ne!(f1.next_u64(), f2.next_u64());
    }
}
