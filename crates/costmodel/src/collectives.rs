//! Collective-communication cost formulas (Section II-C1 of the paper).
//!
//! All formulas take the message size `n` in words and the number of
//! processors `p`, and return the leading-order [`Cost`].  They correspond
//! one-to-one to the implementations in `simnet::coll`, which the
//! `collectives` experiment table (`exp collectives`) verifies.

use crate::cost::{indicator, log2c, Cost};

/// `T_allgather(n, p) = α·log p + β·n·1_p`.
pub fn allgather(n: f64, p: f64) -> Cost {
    Cost::new(log2c(p), n * indicator(p), 0.0)
}

/// `T_allgatherv(m, p) = 2α·log p + β·(p−1)·(m+1)`: the variable-size
/// allgather as `simnet::coll::allgatherv` runs it, an allgather of the
/// lengths and then one of every block padded to the longest, `m` words.
/// Exact for power-of-two `p`, and free for `p = 1`.
pub fn allgatherv(m: f64, p: f64) -> Cost {
    Cost::new(2.0 * log2c(p) * indicator(p), (p - 1.0) * (m + 1.0), 0.0)
}

/// `T_scatter(n, p) = α·log p + β·n·1_p`.
pub fn scatter(n: f64, p: f64) -> Cost {
    Cost::new(log2c(p), n * indicator(p), 0.0)
}

/// `T_gather(n, p) = α·log p + β·n·1_p`.
pub fn gather(n: f64, p: f64) -> Cost {
    Cost::new(log2c(p), n * indicator(p), 0.0)
}

/// `T_reduce-scatter(n, p) = α·log p + β·n·1_p + γ·n·1_p`.
pub fn reduce_scatter(n: f64, p: f64) -> Cost {
    Cost::new(log2c(p), n * indicator(p), n * indicator(p))
}

/// `T_alltoall(n, p) = α·log p + β·(n/2)·log p`.
pub fn alltoall(n: f64, p: f64) -> Cost {
    Cost::new(log2c(p), n * log2c(p) / 2.0 * indicator(p), 0.0)
}

/// `T_reduction(n, p) = 2α·log p + 2β·n·1_p + γ·n·1_p`.
pub fn reduction(n: f64, p: f64) -> Cost {
    Cost::new(2.0 * log2c(p), 2.0 * n * indicator(p), n * indicator(p))
}

/// `T_allreduction(n, p) = 2α·log p + 2β·n·1_p + γ·n·1_p`.
pub fn allreduction(n: f64, p: f64) -> Cost {
    reduction(n, p)
}

/// `T_bcast(n, p) = 2α·log p + 2β·n·1_p`.
pub fn bcast(n: f64, p: f64) -> Cost {
    Cost::new(2.0 * log2c(p), 2.0 * n * indicator(p), 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_processor_moves_no_data() {
        for f in [
            allgather,
            allgatherv,
            scatter,
            gather,
            reduce_scatter,
            alltoall,
            reduction,
            bcast,
        ] {
            let c = f(1000.0, 1.0);
            assert_eq!(c.bandwidth, 0.0, "p = 1 must move no words");
        }
    }

    #[test]
    fn allgather_formula() {
        let c = allgather(1024.0, 16.0);
        assert_eq!(c.latency, 4.0);
        assert_eq!(c.bandwidth, 1024.0);
        assert_eq!(c.flops, 0.0);
    }

    #[test]
    fn reduce_scatter_charges_flops() {
        let c = reduce_scatter(512.0, 8.0);
        assert_eq!(c.flops, 512.0);
        assert_eq!(c.bandwidth, 512.0);
    }

    #[test]
    fn composed_collectives_double_latency() {
        let n = 256.0;
        let p = 32.0;
        assert_eq!(bcast(n, p).latency, 2.0 * allgather(n, p).latency);
        assert_eq!(reduction(n, p).latency, 2.0 * allgather(n, p).latency);
        assert_eq!(bcast(n, p).bandwidth, 2.0 * n);
        assert_eq!(allreduction(n, p), reduction(n, p));
    }

    #[test]
    fn alltoall_has_log_factor_bandwidth() {
        let c = alltoall(1000.0, 64.0);
        assert_eq!(c.latency, 6.0);
        assert_eq!(c.bandwidth, 3000.0);
    }
}
