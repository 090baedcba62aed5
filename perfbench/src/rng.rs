//! SplitMix64: a tiny, seedable generator, so the same `--seed` always
//! yields the same inputs without depending on the repository's `rand`.

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Two distinct levels of `0..levels` (`levels ≥ 2`).
    pub fn level_pair(&mut self, levels: usize) -> (u32, u32) {
        let i = self.below(levels) as u32;
        let mut j = self.below(levels - 1) as u32;
        if j >= i {
            j += 1;
        }
        (i, j)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut table: Vec<usize> = (0..n).collect();
        self.shuffle(&mut table);
        table
    }

    /// A uniformly random non-identity permutation of `0..n` (`n ≥ 2`).
    pub fn non_identity_permutation(&mut self, n: usize) -> Vec<usize> {
        loop {
            let table = self.permutation(n);
            if table.iter().enumerate().any(|(i, &p)| i != p) {
                return table;
            }
        }
    }
}
