//! Content fingerprints for solve operands and the cache key built from
//! them.
//!
//! The plan cache is *content*-addressed, not identity-addressed: two
//! `SparseTri`s built from the same triplets — say, a client rebuilding
//! its preconditioner object every call — fingerprint identically, so the
//! second one hits the cache and rides the first one's warmed schedule.
//! A fingerprint covers everything a solve reads: dimensions, triangle
//! and diagonal kind, the sparsity pattern, and the exact bit patterns of
//! the stored values (including the diagonal).  Matching fingerprints
//! therefore produce bitwise-identical solutions, which is what lets the
//! cache substitute its canonical operand for the submitted one.
//!
//! # The hash
//!
//! Every request is fingerprinted, hit or miss, so the hash runs at
//! streaming rate over the operand's arrays as they already lie in memory.
//! Content is presented as a sequence of **runs**: a run is one contiguous
//! array of 64-bit words — a CSR factor is five of them (a three-word
//! header, `row_ptr`, `col_idx`, `values`, the diagonal), a dense operand
//! a header and one run per row of its declared triangle.  `usize` words
//! enter by value, `f64` words by bit pattern.
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
//! defends against an operand *constructed* to collide — the cache lives
//! inside the caller's process, so there is no one to defend against.  The
//! key additionally carries `n` and `nnz` structurally, so a collision
//! also requires equal shape.  Fingerprints are process-lifetime values:
//! they are never persisted or sent anywhere, and the construction is free
//! to change between versions.

use catrsm::SolveRequest;
use dense::{Diag, Matrix, Triangle};
use sparse::SparseTri;

/// A 64-bit content hash of one solve operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint(pub u64);

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

    /// A run of values.  Bit pattern, not value: the cache promises
    /// *bitwise* identical answers, so -0.0 and 0.0 must differ.
    fn values(&mut self, run: &[f64]) {
        self.run(run, f64::to_bits);
    }

    fn finish(self) -> Fingerprint {
        let mut h = self.words;
        for (lane, key) in self.lanes.into_iter().zip(LANE_KEYS) {
            h = fold(h ^ lane, key);
        }
        Fingerprint(h)
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

/// Fingerprint a dense triangular operand: dimension, triangle/diagonal
/// kind, and the bit patterns of every entry the solver reads — the
/// declared triangle only, and under [`Diag::Unit`] not the stored
/// diagonal either.  Callers may keep unrelated data in what the solve
/// ignores (a combined LU workspace holds U in L's other triangle and on
/// its diagonal), and that must not perturb the key.
pub fn fingerprint_dense(a: &Matrix, triangle: Triangle, diag: Diag) -> Fingerprint {
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

/// The body of the compressed-sparse fingerprint: a header and the four
/// arrays, one run each.  `ptr` carries the row boundaries, so no per-row
/// framing is needed.
fn fingerprint_compressed(
    header: [u64; 3],
    ptr: &[usize],
    idx: &[usize],
    values: &[f64],
    diag: &[f64],
) -> Fingerprint {
    let mut h = RunHasher::new();
    h.words(&header);
    h.indices(ptr);
    h.indices(idx);
    h.values(values);
    h.values(diag);
    h.finish()
}

/// Fingerprint a CSR sparse triangular operand: dimension, triangle and
/// diagonal kind, the full sparsity pattern, and the bit patterns of the
/// stored values and the diagonal.
pub fn fingerprint_sparse(a: &SparseTri) -> Fingerprint {
    fingerprint_compressed(
        // Backend tag: sparse CSR.
        [0x5A, a.n() as u64, tag(a.triangle(), a.diag())],
        a.row_ptr(),
        a.col_idx(),
        a.values(),
        a.diag_values(),
    )
}

/// The plan-cache key: the operand's content fingerprint (with `n` and
/// `nnz` as a structural collision guard) and the request, whole — every
/// field of a [`SolveRequest`] is part of the key by construction, so a knob
/// added to the request can never be forgotten here.  Two submissions with
/// equal keys are interchangeable: they lower to the same plan and
/// produce bitwise-identical answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    fingerprint: Fingerprint,
    n: usize,
    nnz: usize,
    request: SolveRequest,
}

impl PlanKey {
    /// Build the key for one `(operand fingerprint, request)` pair.
    pub fn new(fingerprint: Fingerprint, n: usize, nnz: usize, request: &SolveRequest) -> PlanKey {
        PlanKey {
            fingerprint,
            n,
            nnz,
            request: *request,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::gen;

    #[test]
    fn equal_content_equal_fingerprint() {
        let a = gen::random_lower(64, 4, 7);
        let b = gen::random_lower(64, 4, 7);
        assert_eq!(fingerprint_sparse(&a), fingerprint_sparse(&b));
        let c = gen::random_lower(64, 4, 8);
        assert_ne!(fingerprint_sparse(&a), fingerprint_sparse(&c));
    }

    #[test]
    fn value_bits_change_the_fingerprint() {
        let tri = &[(0usize, 0usize, 2.0f64), (1, 0, 1.0), (1, 1, 3.0)];
        let a = SparseTri::from_triplets(2, Triangle::Lower, Diag::NonUnit, tri).unwrap();
        let tri2 = &[(0usize, 0usize, 2.0f64), (1, 0, 1.0 + 1e-16), (1, 1, 3.0)];
        let b = SparseTri::from_triplets(2, Triangle::Lower, Diag::NonUnit, tri2).unwrap();
        // 1.0 + 1e-16 rounds back to 1.0 in f64, so these really are equal.
        assert_eq!(fingerprint_sparse(&a), fingerprint_sparse(&b));
        let tri3 = &[(0usize, 0usize, 2.0f64), (1, 0, 1.0 + 1e-15), (1, 1, 3.0)];
        let c = SparseTri::from_triplets(2, Triangle::Lower, Diag::NonUnit, tri3).unwrap();
        assert_ne!(fingerprint_sparse(&a), fingerprint_sparse(&c));
    }

    #[test]
    fn dense_fingerprint_reads_declared_triangle_only() {
        let n = 16;
        let l = dense::gen::well_conditioned_lower(n, 3);
        let mut scribbled = l.clone();
        // Garbage in the strictly-upper triangle must not perturb the key.
        for i in 0..n {
            for j in (i + 1)..n {
                scribbled[(i, j)] = f64::NAN;
            }
        }
        assert_eq!(
            fingerprint_dense(&l, Triangle::Lower, Diag::NonUnit),
            fingerprint_dense(&scribbled, Triangle::Lower, Diag::NonUnit)
        );
        let mut touched = l.clone();
        touched[(n - 1, 0)] += 1.0;
        assert_ne!(
            fingerprint_dense(&l, Triangle::Lower, Diag::NonUnit),
            fingerprint_dense(&touched, Triangle::Lower, Diag::NonUnit)
        );
        // A unit-diagonal solve never reads the stored diagonal (in a
        // combined LU workspace it is U's), so garbage there must not
        // perturb the unit key — and must perturb the non-unit one.
        let mut nan_diag = l.clone();
        for i in 0..n {
            nan_diag[(i, i)] = f64::NAN;
        }
        for triangle in [Triangle::Lower, Triangle::Upper] {
            assert_eq!(
                fingerprint_dense(&l, triangle, Diag::Unit),
                fingerprint_dense(&nan_diag, triangle, Diag::Unit)
            );
            assert_ne!(
                fingerprint_dense(&l, triangle, Diag::NonUnit),
                fingerprint_dense(&nan_diag, triangle, Diag::NonUnit)
            );
        }
        // What a unit solve does read still counts.
        assert_ne!(
            fingerprint_dense(&l, Triangle::Lower, Diag::Unit),
            fingerprint_dense(&touched, Triangle::Lower, Diag::Unit)
        );
    }

    #[test]
    fn request_shape_splits_the_key() {
        use catrsm::SolveRequest;
        let a = gen::random_lower(32, 3, 5);
        let fp = fingerprint_sparse(&a);
        let k1 = PlanKey::new(fp, a.n(), a.nnz(), &SolveRequest::lower());
        let k2 = PlanKey::new(fp, a.n(), a.nnz(), &SolveRequest::lower());
        assert_eq!(k1, k2);
        let k3 = PlanKey::new(fp, a.n(), a.nnz(), &SolveRequest::lower().threads(2));
        assert_ne!(k1, k3);
        let k5 = PlanKey::new(fp, a.n(), a.nnz(), &SolveRequest::lower().reuse(100));
        assert_ne!(k1, k5);
        let k6 = PlanKey::new(fp, a.n(), a.nnz(), &SolveRequest::lower().with_residual());
        assert_ne!(k1, k6);
    }

    /// Hash a sequence of word runs.
    fn hash_runs(runs: &[&[u64]]) -> Fingerprint {
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

    /// The four arrays `fingerprint_sparse` hashes, detached from the
    /// matrix so a test can perturb them past what a constructor accepts.
    struct Arrays {
        header: [u64; 3],
        ptr: Vec<usize>,
        idx: Vec<usize>,
        values: Vec<f64>,
        diag: Vec<f64>,
    }

    impl Arrays {
        fn of(a: &SparseTri) -> Arrays {
            Arrays {
                header: [0x5A, a.n() as u64, tag(a.triangle(), a.diag())],
                ptr: a.row_ptr().to_vec(),
                idx: a.col_idx().to_vec(),
                values: a.values().to_vec(),
                diag: a.diag_values().to_vec(),
            }
        }

        fn fingerprint(&self) -> Fingerprint {
            fingerprint_compressed(self.header, &self.ptr, &self.idx, &self.values, &self.diag)
        }

        fn words(&self) -> usize {
            self.ptr.len() + self.idx.len() + self.values.len() + self.diag.len()
        }

        /// Flip bit `bit` of word `w`, counting through the four arrays.
        fn flip(&mut self, mut w: usize, bit: u32) {
            for ints in [&mut self.ptr, &mut self.idx] {
                if w < ints.len() {
                    ints[w] ^= 1 << bit;
                    return;
                }
                w -= ints.len();
            }
            for floats in [&mut self.values, &mut self.diag] {
                if w < floats.len() {
                    floats[w] = f64::from_bits(floats[w].to_bits() ^ (1 << bit));
                    return;
                }
                w -= floats.len();
            }
            panic!("word index out of range");
        }
    }

    /// Every bit of every word a solve reads is in the fingerprint, at
    /// every tail length of the lane loop (n in 1..=40 sweeps the four
    /// arrays' lengths through every remainder mod 8).
    #[test]
    fn every_single_bit_flip_changes_the_fingerprint() {
        for n in 1..=40usize {
            let a = gen::random_lower(n, 3, n as u64);
            let mut arrays = Arrays::of(&a);
            let base = arrays.fingerprint();
            assert_eq!(base, fingerprint_sparse(&a));
            for w in 0..arrays.words() {
                for bit in 0..64 {
                    arrays.flip(w, bit);
                    assert_ne!(arrays.fingerprint(), base, "n {n} word {w} bit {bit}");
                    arrays.flip(w, bit);
                }
            }
            assert_eq!(arrays.fingerprint(), base);
        }
    }

    /// The same at the benchmark's scale, sampled: deep in the bulk loop
    /// as well as in the tails.
    #[test]
    fn sampled_bit_flips_change_a_large_fingerprint() {
        let a = gen::random_lower(1500, 8, 3);
        let mut arrays = Arrays::of(&a);
        let base = arrays.fingerprint();
        let total = arrays.words() as u64;
        for pick in test_words(500) {
            let (w, bit) = ((pick % total) as usize, (pick >> 58) as u32);
            arrays.flip(w, bit);
            assert_ne!(arrays.fingerprint(), base, "word {w} bit {bit}");
            arrays.flip(w, bit);
        }
    }

    /// `row_ptr` is content: the same entries split differently over the
    /// rows are a different matrix.
    #[test]
    fn moving_an_entry_across_a_row_boundary_changes_the_fingerprint() {
        let d = |i: usize| (i, i, 2.0);
        let split = [d(0), d(1), d(2), (1, 0, 0.5), (2, 1, 0.25)];
        let joined = [d(0), d(1), d(2), (2, 0, 0.5), (2, 1, 0.25)];
        let build = |t: &[(usize, usize, f64)]| {
            SparseTri::from_triplets(3, Triangle::Lower, Diag::NonUnit, t).unwrap()
        };
        let (a, b) = (build(&split), build(&joined));
        assert_eq!(a.col_idx(), b.col_idx());
        assert_eq!(a.values(), b.values());
        assert_ne!(a.row_ptr(), b.row_ptr());
        assert_ne!(fingerprint_sparse(&a), fingerprint_sparse(&b));
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

    #[test]
    fn negative_zero_is_not_zero() {
        let build = |z: f64| {
            let t = [(0, 0, 1.0), (1, 1, 1.0), (1, 0, z)];
            SparseTri::from_triplets(2, Triangle::Lower, Diag::NonUnit, &t).unwrap()
        };
        assert_ne!(
            fingerprint_sparse(&build(0.0)),
            fingerprint_sparse(&build(-0.0))
        );
        let mut a = Matrix::identity(2);
        let plus = fingerprint_dense(&a, Triangle::Lower, Diag::NonUnit);
        a[(1, 0)] = -0.0;
        assert_ne!(fingerprint_dense(&a, Triangle::Lower, Diag::NonUnit), plus);
    }

    /// The fingerprint is of the content, not of how it was assembled.
    #[test]
    fn triplet_and_csr_builds_of_one_matrix_agree() {
        let t = [
            (2, 1, 0.25),
            (0, 0, 2.0),
            (2, 2, 4.0),
            (1, 1, 3.0),
            (2, 0, 0.5),
        ];
        let a = SparseTri::from_triplets(3, Triangle::Lower, Diag::NonUnit, &t).unwrap();
        // The same matrix as CSR arrays with the diagonal stored inline.
        let b = SparseTri::from_csr(
            3,
            Triangle::Lower,
            Diag::NonUnit,
            &[0, 1, 2, 5],
            &[0, 1, 0, 1, 2],
            &[2.0, 3.0, 0.5, 0.25, 4.0],
        )
        .unwrap();
        assert_eq!(fingerprint_sparse(&a), fingerprint_sparse(&b));
    }

    #[test]
    fn backend_namespaces_are_pairwise_distinct() {
        let a = gen::random_lower(8, 2, 1);
        assert_ne!(
            fingerprint_sparse(&a),
            fingerprint_dense(&a.to_dense(), Triangle::Lower, Diag::NonUnit)
        );
    }
}
