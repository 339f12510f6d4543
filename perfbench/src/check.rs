//! Output checks, run outside the op clock.

use crate::gen::RawCsr;

/// Dense and distributed solves must reproduce the known `x_true`.
pub const REL_ERR_TOL: f64 = 1e-8;
/// Sparse and service solves must leave this relative residual at most.
pub const RESIDUAL_TOL: f64 = 1e-10;

fn norm(v: impl Iterator<Item = f64>) -> f64 {
    v.map(|x| x * x).sum::<f64>().sqrt()
}

/// `‖x − x_true‖₂ / ‖x_true‖₂`.
pub fn rel_err(x: &[f64], x_true: &[f64]) -> f64 {
    if x.len() != x_true.len() {
        return f64::INFINITY;
    }
    norm(x.iter().zip(x_true).map(|(a, b)| a - b)) / norm(x_true.iter().copied())
}

/// `‖A·x − b‖₂ / ‖b‖₂`.
pub fn residual(a: &RawCsr, x: &[f64], b: &[f64]) -> f64 {
    if x.len() != a.n || b.len() != a.n {
        return f64::INFINITY;
    }
    norm(a.mul(x).iter().zip(b).map(|(ax, b)| ax - b)) / norm(b.iter().copied())
}

/// Whether a measured error passes; NaN never does.
pub fn passes(err: f64, tol: f64) -> bool {
    err <= tol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{raw_lower_csr, vector};

    #[test]
    fn exact_solutions_pass_and_corrupted_ones_fail() {
        let a = raw_lower_csr(100, 4, 3);
        let x = vector(100, 4);
        let b = a.mul(&x);
        assert!(passes(residual(&a, &x, &b), RESIDUAL_TOL));
        assert!(passes(rel_err(&x, &x), REL_ERR_TOL));
        let mut bad = b.clone();
        bad[0] += 1.0;
        assert!(!passes(residual(&a, &x, &bad), RESIDUAL_TOL));
        assert!(!passes(rel_err(&bad, &b), REL_ERR_TOL));
        assert!(!passes(f64::NAN, REL_ERR_TOL));
        assert!(!passes(rel_err(&x[1..], &x), REL_ERR_TOL));
    }
}
