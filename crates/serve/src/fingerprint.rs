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
//! Both fingerprints are [`dense::fingerprint`]'s content hash, in distinct
//! namespaces (see there for the construction and its collision odds).  A
//! sparse operand is hashed once per object: a `SparseTri` has no mutator,
//! so it keeps its hash ([`SparseTri::content_hash`]) and every later
//! submit of it reads the value.  A dense operand is a mutable `Matrix`,
//! hashed on every submit.  The key also carries `n` and `nnz`, so a
//! collision requires equal shape too.

use catrsm::SolveRequest;
use dense::{Diag, Matrix, Triangle};
use sparse::SparseTri;

/// A 64-bit content hash of one solve operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint(pub u64);

/// Fingerprint a dense triangular operand: every entry the solver reads
/// ([`dense::fingerprint::matrix_content_hash`]), hashed on every call.
pub fn fingerprint_dense(a: &Matrix, triangle: Triangle, diag: Diag) -> Fingerprint {
    Fingerprint(dense::fingerprint::matrix_content_hash(a, triangle, diag))
}

/// Fingerprint a CSR sparse triangular operand: its memoised
/// [`SparseTri::content_hash`], hashed on the object's first call only.
pub fn fingerprint_sparse(a: &SparseTri) -> Fingerprint {
    Fingerprint(a.content_hash())
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

    /// Distinct, structureless words: the 128-bit product of `i + 1` and
    /// a fixed odd key, high half folded onto the low.
    fn test_words(len: usize) -> Vec<u64> {
        (1..=len as u128)
            .map(|i| {
                let p = i * 0x9e37_79b9_7f4a_7c15;
                (p as u64) ^ ((p >> 64) as u64)
            })
            .collect()
    }

    /// The four arrays `fingerprint_sparse` hashes, detached from the
    /// matrix so a test can perturb them past what a constructor accepts.
    struct Arrays {
        n: usize,
        triangle: Triangle,
        diag_kind: Diag,
        ptr: Vec<usize>,
        idx: Vec<usize>,
        values: Vec<f64>,
        diag: Vec<f64>,
    }

    impl Arrays {
        fn of(a: &SparseTri) -> Arrays {
            Arrays {
                n: a.n(),
                triangle: a.triangle(),
                diag_kind: a.diag(),
                ptr: a.row_ptr().to_vec(),
                idx: a.col_idx().to_vec(),
                values: a.values().to_vec(),
                diag: a.diag_values().to_vec(),
            }
        }

        fn fingerprint(&self) -> Fingerprint {
            Fingerprint(dense::fingerprint::csr_content_hash(
                self.n,
                self.triangle,
                self.diag_kind,
                &self.ptr,
                &self.idx,
                &self.values,
                &self.diag,
            ))
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
