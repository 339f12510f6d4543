//! Seeded input generation.  The program under test sees only these
//! generated inputs; the same `--seed` gives the same inputs.

/// SplitMix64: small, seedable, and good enough to draw test matrices.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// An independent seed for input stream `stream` of a run seeded `seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xd605_bbb5_8c8a_bc03)).next_u64()
}

/// A lower-triangular matrix as the raw CSR arrays a caller would hand to
/// `SparseTri::from_csr`: strictly increasing columns per row, the diagonal
/// stored inline as each row's last entry.
#[derive(Debug, Clone, PartialEq)]
pub struct RawCsr {
    pub n: usize,
    pub row_ptr: Vec<usize>,
    pub col_idx: Vec<usize>,
    pub values: Vec<f64>,
}

impl RawCsr {
    /// `y = A·x`.
    pub fn mul(&self, x: &[f64]) -> Vec<f64> {
        self.row_ptr
            .windows(2)
            .map(|w| {
                let (vals, cols) = (&self.values[w[0]..w[1]], &self.col_idx[w[0]..w[1]]);
                vals.iter().zip(cols).map(|(v, &j)| v * x[j]).sum()
            })
            .collect()
    }
}

/// A well-conditioned random lower-triangular pattern: about `fill`
/// off-diagonal entries per row, drawn uniformly below the diagonal and
/// scaled by `1/√fill`, under a dominant diagonal in `[1, 2)` — the shape of
/// `sparse::gen::random_lower`, so early rows form wide levels and later
/// rows chain deeper.
pub fn raw_lower_csr(n: usize, fill: usize, seed: u64) -> RawCsr {
    let mut rng = SplitMix64::new(seed);
    let scale = 1.0 / (fill.max(1) as f64).sqrt();
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::with_capacity(n * (fill + 1));
    let mut values = Vec::with_capacity(n * (fill + 1));
    row_ptr.push(0);
    for i in 0..n {
        let start = col_idx.len();
        while col_idx.len() - start < fill.min(i) {
            let j = rng.below(i);
            if !col_idx[start..].contains(&j) {
                col_idx.push(j);
            }
        }
        col_idx[start..].sort_unstable();
        for _ in start..col_idx.len() {
            values.push((2.0 * rng.unit() - 1.0) * scale);
        }
        col_idx.push(i);
        values.push(1.0 + rng.unit());
        row_ptr.push(col_idx.len());
    }
    RawCsr {
        n,
        row_ptr,
        col_idx,
        values,
    }
}

/// A vector with entries uniform in `[-1, 1)`.
pub fn vector(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| 2.0 * rng.unit() - 1.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(raw_lower_csr(300, 8, 42), raw_lower_csr(300, 8, 42));
        assert_ne!(raw_lower_csr(300, 8, 42), raw_lower_csr(300, 8, 43));
        assert_eq!(vector(64, 7), vector(64, 7));
        assert_ne!(vector(64, 7), vector(64, 8));
        assert_eq!(derive(1, 2), derive(1, 2));
        assert_ne!(derive(1, 2), derive(1, 3));
        assert_ne!(derive(1, 2), derive(2, 2));
        // The library's generators are seeded the same way.
        assert_eq!(
            dense::gen::well_conditioned_lower(16, 5),
            dense::gen::well_conditioned_lower(16, 5)
        );
    }

    #[test]
    fn raw_csr_is_a_valid_lower_triangle() {
        let raw = raw_lower_csr(200, 8, 1);
        assert_eq!(raw.row_ptr.len(), 201);
        for i in 0..raw.n {
            let cols = &raw.col_idx[raw.row_ptr[i]..raw.row_ptr[i + 1]];
            assert_eq!(cols.len(), 8.min(i) + 1);
            assert!(cols.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(*cols.last().unwrap(), i);
        }
        let a = sparse::SparseTri::from_csr(
            raw.n,
            dense::Triangle::Lower,
            dense::Diag::NonUnit,
            &raw.row_ptr,
            &raw.col_idx,
            &raw.values,
        )
        .unwrap();
        assert_eq!(a.nnz(), raw.values.len());
    }
}
