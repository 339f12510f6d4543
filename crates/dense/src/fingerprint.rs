//! Content hashes of triangular operands: [`csr_content_hash`] for a
//! compressed-sparse-row triangle (a `SparseTri` computes it once and
//! keeps it) and [`matrix_content_hash`] for a dense one, in distinct
//! namespaces.  `serve` keys its plan cache by them.
//!
//! The hash runs at streaming rate over an operand's arrays as they
//! already lie in memory.  Content is presented as a sequence of **runs**:
//! a run is one contiguous array of 64-bit words — a CSR factor is five of
//! them (a three-word header, `row_ptr`, `col_idx`, `values`, the
//! diagonal), a dense operand a header and one run per row of its
//! declared triangle.  `usize` words enter by value, `f64` words by bit
//! pattern.
//!
//! A run is absorbed eight words per step into four independent
//! accumulator lanes, each lane taking a pair of words through one
//! 64×64→128-bit multiply whose halves are folded together:
//! `lane ← fold(a, b) ⊕ (a + b)` with `a = w₀ ⊕ keyₗ`, `b = w₁ ⊕ lane`
//! (the sum keeps one factor in the result should the other be zero).  The
//! lane's state sits inside the multiply, so a lane is order-sensitive;
//! lanes differ in key and start value, so words cannot trade lanes; the
//! four multiplies of a step do not depend on each other, so they overlap
//! in the pipeline.  Each run is prefixed by its length (a short tail is
//! zero-padded to a full step, and the prefix tells padding from content),
//! which makes the run sequence uniquely decodable: an empty run is not no
//! run, and an entry cannot slide from one array into the next.  `finish`
//! chains the four lanes and the total word count through four more folds.
//!
//! This is a 64-bit non-cryptographic hash with fixed public keys: content
//! that differs collides with probability ~2⁻⁶⁴ per pair, and nothing
//! defends against an operand *constructed* to collide.  Hashes are
//! process-lifetime values: never persisted or sent anywhere, and the
//! construction is free to change between versions.

use crate::{Diag, Matrix, Triangle};

/// Independent accumulator lanes.
const LANES: usize = 4;
/// Words one step absorbs: a pair per lane.
const STEP: usize = 2 * LANES;

/// Per-lane multiplier keys (odd, bit-balanced; wyhash's default secret).
const LANE_KEYS: [u64; LANES] = [
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
    0x8ebc_6af0_9c88_c6e3,
    0x5899_65cc_7537_4cc3,
];
/// Per-lane start values (fractional bits of √2, √3, √5, √7).
const LANE_SEEDS: [u64; LANES] = [
    0x6a09_e667_f3bc_c908,
    0xbb67_ae85_84ca_a73b,
    0x3c6e_f372_fe94_f82b,
    0xa54f_f53a_5f1d_36f1,
];
/// Paired with a run's length in its prefix (fractional bits of √11).
const RUN_KEY: u64 = 0x510e_527f_ade6_82d1;

/// The 128-bit product of `a` and `b`, high half folded onto the low.
#[inline(always)]
fn fold(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// The content hasher: see the module docs for the construction.
struct RunHasher {
    lanes: [u64; LANES],
    /// Content words absorbed so far, over all runs.
    words: u64,
}

impl RunHasher {
    fn new() -> RunHasher {
        RunHasher {
            lanes: LANE_SEEDS,
            words: 0,
        }
    }

    /// Absorb the pair `(w0, w1)` into lane `l`.  A bare `fold` would
    /// forget `w1` and the lane whenever `w0` equals the lane key (a zero
    /// factor); adding the factors back keeps both in the result.
    #[inline(always)]
    fn absorb(&mut self, l: usize, w0: u64, w1: u64) {
        let a = w0 ^ LANE_KEYS[l];
        let b = w1 ^ self.lanes[l];
        self.lanes[l] = fold(a, b) ^ a.wrapping_add(b);
    }

    #[inline(always)]
    fn step(&mut self, w: [u64; STEP]) {
        for l in 0..LANES {
            self.absorb(l, w[2 * l], w[2 * l + 1]);
        }
    }

    /// Absorb one run: its length, then its items as words, a full step at
    /// a time.
    #[inline]
    fn run<T: Copy>(&mut self, items: &[T], word: impl Fn(T) -> u64) {
        self.words += items.len() as u64;
        self.absorb(0, items.len() as u64, RUN_KEY);
        let (steps, tail) = items.as_chunks::<STEP>();
        for s in steps {
            self.step(s.map(&word));
        }
        if !tail.is_empty() {
            let mut padded = [0u64; STEP];
            for (p, &t) in padded.iter_mut().zip(tail) {
                *p = word(t);
            }
            self.step(padded);
        }
    }

    /// A run of plain words (headers: tags, dimensions).
    fn words(&mut self, run: &[u64]) {
        self.run(run, |w| w);
    }

    /// A run of indices or offsets.
    fn indices(&mut self, run: &[usize]) {
        self.run(run, |i| i as u64);
    }

    /// A run of values.  Bit pattern, not value: a content key promises
    /// *bitwise* identical answers, so -0.0 and 0.0 must differ.
    fn values(&mut self, run: &[f64]) {
        self.run(run, f64::to_bits);
    }

    fn finish(self) -> u64 {
        let mut h = self.words;
        for (lane, key) in self.lanes.into_iter().zip(LANE_KEYS) {
            h = fold(h ^ lane, key);
        }
        h
    }
}

fn tag(triangle: Triangle, diag: Diag) -> u64 {
    let t = match triangle {
        Triangle::Lower => 0u64,
        Triangle::Upper => 1,
    };
    let d = match diag {
        Diag::NonUnit => 0u64,
        Diag::Unit => 1,
    };
    (t << 1) | d
}

/// The content hash of an `n × n` CSR triangle: a header (the CSR
/// namespace tag, `n`, the triangle and diagonal kind) and the four
/// arrays, one run each.  `row_ptr` carries the row boundaries, so no
/// per-row framing is needed.
pub fn csr_content_hash(
    n: usize,
    triangle: Triangle,
    diag: Diag,
    row_ptr: &[usize],
    col_idx: &[usize],
    values: &[f64],
    diag_values: &[f64],
) -> u64 {
    let mut h = RunHasher::new();
    // Backend tag: sparse CSR.
    h.words(&[0x5A, n as u64, tag(triangle, diag)]);
    h.indices(row_ptr);
    h.indices(col_idx);
    h.values(values);
    h.values(diag_values);
    h.finish()
}

/// The content hash of a dense triangular operand: dimension,
/// triangle/diagonal kind, and the bit patterns of every entry a solve
/// reads — the declared triangle only, and under [`Diag::Unit`] not the
/// stored diagonal either.  Callers may keep unrelated data in what the
/// solve ignores (a combined LU workspace holds U in L's other triangle
/// and on its diagonal), and that must not perturb the hash.
pub fn matrix_content_hash(a: &Matrix, triangle: Triangle, diag: Diag) -> u64 {
    let n = a.rows();
    let mut h = RunHasher::new();
    // Backend tag: dense.
    h.words(&[0xD0, n as u64, a.cols() as u64, tag(triangle, diag)]);
    let skip_diag = usize::from(diag == Diag::Unit);
    for i in 0..n {
        let row = a.row(i);
        let read = match triangle {
            Triangle::Lower => &row[..(i + 1 - skip_diag).min(row.len())],
            Triangle::Upper => &row[(i + skip_diag).min(row.len())..],
        };
        h.values(read);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hash a sequence of word runs.
    fn hash_runs(runs: &[&[u64]]) -> u64 {
        let mut h = RunHasher::new();
        for run in runs {
            h.words(run);
        }
        h.finish()
    }

    /// Distinct, structureless words.
    fn test_words(len: usize) -> Vec<u64> {
        (0..len as u64)
            .map(|i| fold(i + 1, 0x9e37_79b9_7f4a_7c15))
            .collect()
    }

    #[test]
    fn word_order_matters_within_and_across_lanes() {
        for len in [STEP, 3 * STEP, 3 * STEP + 5] {
            let base = test_words(len);
            // One step apart: same lane, same slot of the pair.  Two apart:
            // neighbouring lanes.  One apart: the two slots of one pair.
            for distance in [STEP, 2, 1] {
                for i in 0..len.saturating_sub(distance) {
                    let mut swapped = base.clone();
                    swapped.swap(i, i + distance);
                    assert_ne!(
                        hash_runs(&[&swapped]),
                        hash_runs(&[&base]),
                        "len {len}: swapped words {i} and {}",
                        i + distance
                    );
                }
            }
        }
    }

    #[test]
    fn runs_are_length_prefixed() {
        let w = test_words(3);
        // An empty run is not no run.
        assert_ne!(hash_runs(&[]), hash_runs(&[&[]]));
        assert_ne!(hash_runs(&[&w]), hash_runs(&[&w, &[]]));
        assert_ne!(hash_runs(&[&[], &w]), hash_runs(&[&w, &[]]));
        // A word cannot slide from one run into its neighbour.
        let cuts = [
            hash_runs(&[&w]),
            hash_runs(&[&w[..1], &w[1..]]),
            hash_runs(&[&w[..2], &w[2..]]),
        ];
        assert_ne!(cuts[0], cuts[1]);
        assert_ne!(cuts[0], cuts[2]);
        assert_ne!(cuts[1], cuts[2]);
        // Tail padding is not content.
        assert_ne!(hash_runs(&[&[7]]), hash_runs(&[&[7, 0]]));
        assert_ne!(hash_runs(&[&[0; STEP]]), hash_runs(&[&[0; STEP + 1]]));
    }

    /// A word equal to a lane key zeroes one factor of the multiply; the
    /// lane must still see the other word of the pair and what came before.
    #[test]
    fn a_zero_factor_does_not_blind_its_lane() {
        let mut run = test_words(2 * STEP);
        run[STEP] = LANE_KEYS[0];
        let base = hash_runs(&[&run]);
        for i in [0, 1, STEP + 1] {
            let mut other = run.clone();
            other[i] ^= 1;
            assert_ne!(hash_runs(&[&other]), base, "word {i}");
        }
    }
}
