//! Seeded, incompressible payloads that can be regenerated for checking.

/// SplitMix64: one 64-bit mixing step.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fills `buf` with the byte stream named by `(seed, stream)`.
pub fn fill(seed: u64, stream: u64, buf: &mut [u8]) {
    let mut state = mix(seed ^ mix(stream));
    for chunk in buf.chunks_mut(8) {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let word = mix(state).to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
}

/// The byte stream named by `(seed, stream)`, `len` bytes long.
pub fn bytes(seed: u64, stream: u64, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    fill(seed, stream, &mut buf);
    buf
}

/// A small deterministic generator for workload shapes.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a purpose `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(mix(seed ^ mix(salt)))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// True with probability `pct` percent.
    pub fn percent(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}
