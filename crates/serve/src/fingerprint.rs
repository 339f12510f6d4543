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
//! therefore produce bitwise-identical solutions under the barriered
//! executors, which is what lets the cache substitute its canonical
//! operand for the submitted one.
//!
//! The hash is 64-bit FNV-1a.  As with any content-addressed cache there
//! is a theoretical collision risk (~2⁻⁶⁴ per pair); the key additionally
//! carries `n` and `nnz` structurally, so a collision also requires equal
//! shape.

use catrsm::SolveRequest;
use dense::{Diag, Matrix, Triangle};
use sparse::{SparseTri, SparseTriCsc};

/// A 64-bit FNV-1a content hash of one solve operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint(pub u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    #[inline]
    pub(crate) fn write_u64(&mut self, v: u64) {
        let mut h = self.0;
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    #[inline]
    pub(crate) fn write_f64(&mut self, v: f64) {
        // Bit pattern, not value: the cache promises *bitwise* identical
        // answers, so -0.0 and 0.0 must fingerprint differently.
        self.write_u64(v.to_bits());
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
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
/// kind, and the bit patterns of every entry the solver reads (the
/// declared triangle only — callers may store unrelated data in the other
/// triangle, e.g. a combined LU workspace, and that must not perturb the
/// key).
pub fn fingerprint_dense(a: &Matrix, triangle: Triangle, diag: Diag) -> Fingerprint {
    let n = a.rows();
    let mut h = Fnv::new();
    h.write_u64(0xD0); // backend tag: dense
    h.write_u64(n as u64);
    h.write_u64(a.cols() as u64);
    h.write_u64(tag(triangle, diag));
    for i in 0..n {
        let row = a.row(i);
        let (lo, hi) = match triangle {
            Triangle::Lower => (0, (i + 1).min(row.len())),
            Triangle::Upper => (i.min(row.len()), row.len()),
        };
        for &v in &row[lo..hi] {
            h.write_f64(v);
        }
    }
    Fingerprint(h.finish())
}

/// Fingerprint a CSR sparse triangular operand: dimension, triangle and
/// diagonal kind, the full sparsity pattern, and the bit patterns of the
/// stored values and the diagonal.
pub fn fingerprint_sparse(a: &SparseTri) -> Fingerprint {
    let mut h = Fnv::new();
    h.write_u64(0x5A); // backend tag: sparse CSR
    h.write_u64(a.n() as u64);
    h.write_u64(tag(a.triangle(), a.diag()));
    for i in 0..a.n() {
        let (cols, vals) = a.row_entries(i);
        h.write_u64(cols.len() as u64);
        for &j in cols {
            h.write_u64(j as u64);
        }
        for &v in vals {
            h.write_f64(v);
        }
        h.write_f64(a.diag_value(i));
    }
    Fingerprint(h.finish())
}

/// Fingerprint a CSC sparse triangular operand (same coverage as
/// [`fingerprint_sparse`], column-wise — note a CSC matrix and its CSR
/// mirror fingerprint *differently*; the cache treats the storage format
/// as part of the content).
pub fn fingerprint_sparse_csc(a: &SparseTriCsc) -> Fingerprint {
    let mut h = Fnv::new();
    h.write_u64(0x5C); // backend tag: sparse CSC
    h.write_u64(a.n() as u64);
    h.write_u64(tag(a.triangle(), a.diag()));
    for j in 0..a.n() {
        let (rows, vals) = a.col_entries(j);
        h.write_u64(rows.len() as u64);
        for &i in rows {
            h.write_u64(i as u64);
        }
        for &v in vals {
            h.write_f64(v);
        }
        h.write_f64(a.diag_value(j));
    }
    Fingerprint(h.finish())
}

/// The plan-cache key: the operand's content fingerprint (with `n` and
/// `nnz` as a structural collision guard) and the request, whole — every
/// field of a [`SolveRequest`] is part of the key by construction, so a knob
/// added to the request can never be forgotten here.  Two submissions with
/// equal keys are interchangeable: they lower to the same plan and (for
/// barriered policies) produce bitwise-identical answers.
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
    }

    #[test]
    fn csr_and_csc_fingerprints_are_distinct_namespaces() {
        let a = gen::random_lower(32, 3, 5);
        let csc = sparse::SparseTriCsc::from_csr(&a);
        assert_ne!(fingerprint_sparse(&a), fingerprint_sparse_csc(&csc));
        // But the CSC fingerprint is itself content-stable.
        let csc2 = sparse::SparseTriCsc::from_csr(&gen::random_lower(32, 3, 5));
        assert_eq!(fingerprint_sparse_csc(&csc), fingerprint_sparse_csc(&csc2));
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
        let k4 = PlanKey::new(
            fp,
            a.n(),
            a.nnz(),
            &SolveRequest::lower().policy(sparse::SchedulePolicy::SyncFree),
        );
        assert_ne!(k1, k4);
        let k5 = PlanKey::new(fp, a.n(), a.nnz(), &SolveRequest::lower().reuse(100));
        assert_ne!(k1, k5);
        let k6 = PlanKey::new(fp, a.n(), a.nnz(), &SolveRequest::lower().with_residual());
        assert_ne!(k1, k6);
    }
}
