//! The paper's experiments, one function per table.
//!
//! Each measures on the simulated machine through the harness fixtures, or
//! evaluates the cost model alone, and returns its [`Table`]; the registry
//! in the crate root names them.

use crate::{measure, run, swf, window, Measured, Table, TrsmInstance};
use catrsm::{planner, Algorithm, ItInvConfig, SolveRequest};
use costmodel::{collectives as model, inversion as inv_model, Cost, CostModelRev, Regime};
use dense::{gen, Transpose, Triangle};
use pgrid::DistMatrix;
use simnet::coll::{self, ReduceOp::Sum};
use simnet::{Communicator, CostReport, Machine, MachineParams};

/// What the root of a scatter or broadcast sends; the other ranks pass nothing.
fn root_data(comm: &Communicator, words: usize) -> Vec<f64> {
    match comm.rank() {
        0 => vec![1.0; words],
        _ => Vec::new(),
    }
}

/// `words / p` words of this rank's own.
fn share(comm: &Communicator, words: usize) -> Vec<f64> {
    vec![comm.rank() as f64; words / comm.size()]
}

/// One rank's part in a collective on `words` words.
type Collective = fn(&Communicator, usize);
/// The paper's closed form `(words, p) -> cost`.
type ClosedForm = fn(f64, f64) -> Cost;

/// Every row family of the collective table: name, collective, closed form.
const COLLECTIVES: [(&str, Collective, ClosedForm); 7] = [
    (
        "allgather",
        |c, w| drop(coll::allgather(c, &share(c, w)).unwrap()),
        model::allgather,
    ),
    (
        "gather",
        |c, w| drop(coll::gather(c, 0, &share(c, w)).unwrap()),
        model::gather,
    ),
    (
        "scatter",
        |c, w| drop(coll::scatter(c, 0, &root_data(c, w), w / c.size()).unwrap()),
        model::scatter,
    ),
    (
        "reduce_scatter",
        |c, w| drop(coll::reduce_scatter(c, &vec![c.rank() as f64; w], Sum).unwrap()),
        model::reduce_scatter,
    ),
    (
        "allreduce",
        |c, w| drop(coll::allreduce(c, &vec![c.rank() as f64; w], Sum).unwrap()),
        model::allreduction,
    ),
    (
        "bcast",
        |c, w| drop(coll::bcast(c, 0, &root_data(c, w), w).unwrap()),
        model::bcast,
    ),
    (
        "alltoall",
        |c, w| drop(coll::alltoall(c, &vec![c.rank() as f64; w], w / c.size()).unwrap()),
        model::alltoall,
    ),
];

/// E1 — the collective-cost table of Section II-C1.
///
/// Runs every collective on the simulated machine and compares the measured
/// message and word counts with the closed-form costs the paper quotes
/// (butterfly / Bruck schedules), on power-of-two processor counts and
/// divisible message sizes, which is exactly the setting of the paper's
/// formulas.  `W_ratio` is measured W over the model's: `(p−1)/p` on every
/// row but the all-to-all's, which is exactly 1, because the closed forms
/// round the schedules' `(p−1)/p·n` words up to `n`.  Measured S equals the
/// model's log-p round counts; composed collectives pay 2·log p.
pub fn collectives() -> Table {
    let mut table = Table::new("collective,p,words,S_measured,W_measured,S_model,W_model,W_ratio");
    for (which, collective, predicted) in COLLECTIVES {
        for p in [4usize, 16, 64] {
            for words in [1024usize, 16384] {
                let out = Machine::new(p, MachineParams::unit())
                    .run(|comm| collective(comm, words))
                    .unwrap();
                let (s, w, _) = swf(&out.report);
                let cost = predicted(words as f64, p as f64);
                let (sm, wm) = (cost.latency, cost.bandwidth);
                let ratio = w as f64 / wm.max(1.0);
                table.row(&[&which, &p, &words, &s, &w, &sm, &wm, &ratio]);
            }
        }
    }
    table
}

/// E2 — the matrix-multiplication cost table of Section III.
///
/// Runs the 3D multiplication `MM(L, X)` from a 2D cyclic layout for several
/// `(n, k, p1)` combinations and compares the measured critical-path
/// latency, bandwidth and flops with the paper's leading-order expression
/// `T_MM = β·(n²/p1²·1_{p2} + 2nk/(p1·p2)·1_{p1}) + γ·n²k/p + 3α·log p + O(β nk log p / p)`.
/// Expected: measured W tracks `n²/p1² + 2nk/(p1·p2)` plus the lower-order
/// transpose term, flops are the load-balanced `2·n²k/p`, and S is the
/// model's `3·log₂p` for every grid shape.
pub fn mm_table() -> Table {
    let mut table =
        Table::new("p,p1,p2,n,k,S_measured,W_measured,F_measured,S_model,W_model,F_model");
    for (q, n, k) in [
        (2usize, 128usize, 64usize),
        (4, 256, 64),
        (4, 256, 256),
        (8, 256, 64),
    ] {
        let mut p1 = 1;
        while p1 <= q {
            let s = q / p1;
            let p2 = s * s;
            if n % (p1 * p1) == 0 && k % p2 == 0 && n % q == 0 && k % q == 0 {
                let r = measure(q, q, MachineParams::unit(), |grid| {
                    let a_global = gen::uniform(n, n, 7);
                    let x_global = gen::uniform(n, k, 8);
                    let a = DistMatrix::from_global(grid, &a_global);
                    let x = DistMatrix::from_global(grid, &x_global);
                    let (b, counters) =
                        window(grid, || catrsm::mm3d::mm3d(&a, &x, p1, None).unwrap());
                    let expect =
                        DistMatrix::from_global(grid, &dense::matmul(&a_global, &x_global));
                    let error = b.rel_diff(&expect).unwrap();
                    Measured {
                        counters,
                        phases: None,
                        error,
                    }
                })
                .report;
                let (nf, kf, qf) = (n as f64, k as f64, q as f64);
                let model = costmodel::mm::mm_cost(nf, kf, qf * qf, p1 as f64, p2 as f64);
                let (sm, wm, fm) = (model.latency, model.bandwidth, model.flops);
                let (s, w, f) = swf(&r);
                table.row(&[&(q * q), &p1, &p2, &n, &k, &s, &w, &f, &sm, &wm, &fm]);
            }
            p1 *= 2;
        }
    }
    table
}

/// E3 — cost of the recursive TRSM (Section IV).
///
/// Measures the "standard" baseline in the three regimes and compares it
/// with what a plan pinned to it quotes: the walk of the recursion it runs
/// at its grid and base size (`catrsm::rec_trsm::predicted_cost`), every
/// message priced on simnet's own schedules.  The interesting column is
/// the latency, which grows with `n / base` and polynomially in `p`, unlike
/// the iterative algorithm's.  Expected: `S_model` equals `S_measured` and
/// `W_model` equals `W_measured` on every row.
pub fn rec_trsm() -> Table {
    let mut table = Table::new("regime,p,n,k,S_measured,W_measured,F_measured,S_model,W_model");
    let cases = [
        // (label, n, k, pr, pc, base)
        ("1 large dim (n < 4k/p)", 32, 2048, 2, 2, 16),
        ("1 large dim (n < 4k/p)", 32, 4096, 4, 4, 16),
        ("3 large dims", 256, 64, 2, 2, 32),
        ("3 large dims", 256, 64, 4, 4, 32),
        ("3 large dims", 512, 128, 4, 4, 64),
        ("2 large dims (n > 4k√p)", 512, 16, 2, 2, 64),
        ("2 large dims (n > 4k√p)", 512, 16, 4, 4, 64),
        ("2 large dims (n > 4k√p)", 1024, 16, 4, 4, 64),
    ];
    for (label, n, k, pr, pc, base_size) in cases {
        let inst = TrsmInstance {
            n,
            k,
            pr,
            pc,
            seed: 3,
        };
        let request = SolveRequest::lower().algorithm(Algorithm::Recursive { base_size });
        let m = run(&inst, request, MachineParams::unit());
        let model = catrsm::rec_trsm::predicted_cost(n, k, pr, pc, base_size);
        let ((s, w, f), sm, wm) = (swf(&m.report), model.latency, model.bandwidth);
        table.row(&[&label, &(pr * pc), &n, &k, &s, &w, &f, &sm, &wm]);
    }
    table
}

/// The distributed recursive inversion of an `n × n` lower triangle on a
/// `q × q` grid with leaves of `base`: what it charges, and — outside the
/// window — its inverse checked by one 3D product.
fn inversion_run(q: usize, n: usize, base: usize) -> CostReport {
    measure(q, q, MachineParams::unit(), |grid| {
        let l = DistMatrix::from_global(grid, &gen::well_conditioned_lower(n, 5));
        let (inv, counters) = window(grid, || catrsm::tri_inv::tri_inv(&l, base).unwrap());
        let prod = catrsm::mm3d::mm3d_auto(&inv, &l, Some(Triangle::Lower)).unwrap();
        let id = DistMatrix::from_fn(grid, n, n, |i, j| if i == j { 1.0 } else { 0.0 });
        let error = prod.rel_diff(&id).unwrap();
        Measured {
            counters,
            phases: None,
            error,
        }
    })
    .report
}

/// E4 — cost of the recursive triangular inversion (Section V).
///
/// Measures the distributed inversion and compares it with `T_RecTriInv`:
/// bandwidth `ν·(n²/(8p1²) + n²/(2p1p2))`, flops `ν·n³/(4p)` and — the key
/// property — `O(log² p)` latency, against the `Θ(n)` rounds of the
/// wavefront substitution or the `Θ(poly p)` of the recursive TRSM.  The
/// model grid is the square face the recursion uses, `p1 = q`, `p2 = 1`.
pub fn inversion() -> Table {
    let mut table = Table::new("p,n,base,S_measured,W_measured,F_measured,S_model,W_model,F_model");
    for (q, n, base) in [
        (2usize, 128usize, 32usize),
        (2, 256, 32),
        (4, 128, 16),
        (4, 256, 16),
        (4, 512, 32),
    ] {
        let r = inversion_run(q, n, base);
        let model = inv_model::rec_tri_inv_cost(n as f64, q as f64, 1.0);
        let (sm, wm, fm) = (model.latency, model.bandwidth, model.flops);
        let (s, w, f) = swf(&r);
        table.row(&[&(q * q), &n, &base, &s, &w, &f, &sm, &wm, &fm]);
    }
    table
}

/// E4b — the inversion's scaling with `n` at fixed `p = 16`: each row is
/// the measured S, W and F at `n_to` over those at `n_from`.  Expected:
/// latency stays polylogarithmic in p and nearly flat in n (ratio ~1),
/// while bandwidth grows ~n² (~4) and flops ~n³ (~8) — so the inversion can
/// be used as a low-synchronisation building block.
pub fn inversion_scaling() -> Table {
    let mut table = Table::new("n_from,n_to,S_ratio,W_ratio,F_ratio");
    let runs = [128usize, 256, 512].map(|n| (n, inversion_run(4, n, 16)));
    for [(n_from, from), (n_to, to)] in [[&runs[0], &runs[1]], [&runs[1], &runs[2]]] {
        let ratio = |count: fn(&CostReport) -> u64| count(to) as f64 / count(from) as f64;
        let (s, w, f) = (
            ratio(CostReport::max_messages),
            ratio(CostReport::max_words),
            ratio(CostReport::max_flops),
        );
        table.row(&[n_from, n_to, &s, &w, &f]);
    }
    table
}

/// E5 — per-phase cost breakdown of `It-Inv-TRSM` (the tables of
/// Section VII: inversion, solve and update costs).
///
/// Every phase's critical-path counters next to `W_Inv`, `W_Solve`,
/// `W_Upd` and their flop counterparts.  The model prices the inversion on
/// the `r1 × r1 × r2` sub-grid each diagonal block gets, and solve and
/// update on the `p1 × p1 × p2` solve grid; it does not price the setup
/// and finalize layout changes (their model cells are empty), and the
/// `total` row's model is the sum of the priced phases.  (A plan quotes the
/// walk of what it runs instead, `catrsm::it_inv_trsm::predicted_cost`.)
/// Expected: solve and update dominate bandwidth and flops with the Section
/// VII shapes; the inversion phase is never of leading order; latency per
/// phase is proportional to `n/n0` (solve, update) or polylogarithmic
/// (inversion).
pub fn itinv_breakdown() -> Table {
    let mut table =
        Table::new("n,k,p,p1,p2,n0,phase,S_measured,W_measured,F_measured,W_model,F_model");
    let cases = [
        // (n, k, pr, pc, p1, p2, n0)
        (256usize, 64usize, 2usize, 2usize, 2usize, 1usize, 32usize),
        (256, 64, 4, 4, 2, 4, 64),
        (256, 64, 4, 4, 4, 1, 32),
        (512, 128, 4, 4, 4, 1, 64),
        (128, 512, 4, 4, 1, 16, 128),
    ];
    for (n, k, pr, pc, p1, p2, n0) in cases {
        let inst = TrsmInstance {
            n,
            k,
            pr,
            pc,
            seed: 11,
        };
        let cfg = ItInvConfig {
            p1,
            p2,
            n0,
            inv_base: 16,
        };
        let request = SolveRequest::lower().algorithm(Algorithm::IterativeInversion(cfg));
        let measured = run(&inst, request, MachineParams::unit());
        let p = pr * pc;
        let phases = measured.phases.expect("It-Inv-TRSM reports its phases");
        let models = cfg.phase_model(n, k).named().map(|(_, model)| model);
        let total = models.iter().map(|model| model.unwrap_or_default()).sum();
        let models = models.into_iter().chain([Some(total)]);
        let rows = phases.into_iter().chain([("total", measured.report)]);
        for ((phase, report), model) in rows.zip(models) {
            let (s, w, f) = swf(&report);
            let [wm, fm] = match model {
                Some(m) => [m.bandwidth, m.flops].map(|v| v.to_string()),
                None => [String::new(), String::new()],
            };
            table.row(&[&n, &k, &p, &p1, &p2, &n0, &phase, &s, &w, &f, &wm, &fm]);
        }
    }
    table
}

/// E6 — optimal parameter selection (Section VIII).
///
/// For a sweep of `n/k` ratios and processor counts, the parameters the
/// cost model recommends (`p1`, `p2`, `n0`, `r1`, `r2`) and the regime,
/// next to the integer plan the planner makes of them.  Expected: the
/// regime flips 1D → 3D → 2D as n/k grows, and the planner's integer
/// parameters track the model's.
pub fn tuning() -> Table {
    let mut table = Table::new(
        "n,k,p,regime,p1_model,p2_model,n0_model,r1_model,r2_model,p1_plan,p2_plan,n0_plan",
    );
    for p in [64usize, 4096, 65536] {
        for (n, k) in [
            (1usize << 10, 1usize << 20),
            (1 << 12, 1 << 16),
            (1 << 14, 1 << 14),
            (1 << 16, 1 << 12),
            (1 << 20, 1 << 10),
        ] {
            let m = CostModelRev::Ipdps17.plan(n, k, p);
            let plan = planner::plan(CostModelRev::Ipdps17, n, k, p).expect("a grid fits");
            let regime = format!("{:?}", m.regime);
            table.row(&[
                &n, &k, &p, &regime, &m.p1, &m.p2, &m.n0, &m.r1, &m.r2, &plan.p1, &plan.p2,
                &plan.n0,
            ]);
        }
    }
    table
}

/// E6b — planned against hand-picked parameters on the simulator (p = 16).
///
/// The planner's configuration next to a deliberately mis-shaped 1D layout
/// (`p1 = 1`, `p2 = 16`, one block) wherever that fits.  Expected: for the
/// narrow, 2D-regime instances the planned configuration beats the naive 1D
/// layout in measured bandwidth and virtual time.
pub fn tuning_simulated() -> Table {
    let mut table = Table::new("n,k,configuration,S,W,virtual_T");
    for (n, k) in [(256usize, 64usize), (512, 16), (64, 1024)] {
        let inst = TrsmInstance {
            n,
            k,
            pr: 4,
            pc: 4,
            seed: 31,
        };
        let mut show = |label: String, request: SolveRequest| {
            let r = run(&inst, request, MachineParams::cluster()).report;
            let ((s, w, _), t) = (swf(&r), r.virtual_time());
            table.row(&[&n, &k, &label, &s, &w, &t]);
        };
        // The unpinned request runs what the planner picks.
        let plan = planner::plan(CostModelRev::Ipdps17, n, k, 16).expect("a grid fits");
        show(
            format!("planner p1={} p2={} n0={}", plan.p1, plan.p2, plan.n0),
            SolveRequest::lower(),
        );
        if k % 16 == 0 {
            let naive = Algorithm::IterativeInversion(ItInvConfig {
                p1: 1,
                p2: 16,
                n0: n,
                inv_base: 16,
            });
            show(
                format!("naive 1D p1=1 p2=16 n0={n}"),
                SolveRequest::lower().algorithm(naive),
            );
        }
    }
    table
}

/// T1 — the conclusion table of Section IX: the standard (recursive) TRSM
/// against the new iterative inversion-based method, in all three regimes,
/// under both cost-model revisions — the source paper's (`ipdps17`) and the
/// reexamined bandwidth bound (`tang24`, after arXiv:2407.00871).
///
/// The new method runs the planner's configuration under that revision,
/// pinned, which `plan_new` names (an unpinned request plans under
/// `ipdps17`, so those rows are also what it runs).  The paper's claims to
/// check:
///
/// * both algorithms move the same order of words (W) and do the same order
///   of flops (F, at most 2× for the new method in the 3D regime);
/// * the new method needs far fewer messages (S) in the 2D and 3D regimes,
///   with the gap growing as `(n/k)^{1/6}·p^{2/3}`;
/// * in the 1D regime the new method pays a modest extra `log p` in S.
pub fn conclusion_table() -> Table {
    let cases = [
        // (label, n, k, rec_base), each on a 4 × 4 grid
        ("1 large dim  (n < 4k/p)", 32usize, 2048usize, 16usize),
        ("3 large dims (4k/p<=n<=4k sqrt(p))", 256, 64, 32),
        ("3 large dims (4k/p<=n<=4k sqrt(p))", 512, 128, 64),
        ("2 large dims (n > 4k sqrt(p))", 512, 16, 64),
        ("2 large dims (n > 4k sqrt(p))", 1024, 16, 64),
    ];
    let (pr, pc) = (4, 4);
    let p = pr * pc;
    let mut table = Table::new(
        "rev,regime,n,k,p,S_std,W_std,F_std,S_new,W_new,F_new,model_S_ratio,measured_S_ratio,\
         plan_new",
    );
    for rev in CostModelRev::ALL {
        for (label, n, k, rec_base) in cases {
            let inst = TrsmInstance {
                n,
                k,
                pr,
                pc,
                seed: 29,
            };
            let cfg = planner::plan(rev, n, k, p).expect("a grid fits");
            let planned = SolveRequest::lower().algorithm(Algorithm::IterativeInversion(cfg));
            let pinned = SolveRequest::lower().algorithm(Algorithm::Recursive {
                base_size: rec_base,
            });
            let std = run(&inst, pinned, MachineParams::unit());
            let new = run(&inst, planned, MachineParams::unit());
            let model = rev.conclusion_row(n as f64, k as f64, p as f64);
            let ((s_std, w_std, f_std), (s_new, w_new, f_new)) =
                (swf(&std.report), swf(&new.report));
            let s_model = model.standard.latency / model.new.latency;
            let plan = format!("p1={} p2={} n0={}", cfg.p1, cfg.p2, cfg.n0);
            let (rev, ratio) = (rev.name(), s_std as f64 / s_new as f64);
            table.row(&[
                &rev, &label, &n, &k, &p, &s_std, &w_std, &f_std, &s_new, &w_new, &f_new, &s_model,
                &ratio, &plan,
            ]);
        }
    }
    table
}

/// T1b — the asymptotic model at paper scale (no simulation), both
/// revisions: S of the standard and new methods and their ratio, how much
/// `tang24` moves each method's W against `ipdps17`, each revision's
/// regime and whether it moved.  Within a fixed regime the corrected
/// recursive W bound only ever grows, so the new method's S advantage is
/// preserved or widened (a W drop only appears where the regime itself
/// moves).  Expected: the S ratio grows like `(n/k)^(1/6)·p^(2/3)`.
pub fn conclusion_paper_scale() -> Table {
    let mut table = Table::new(
        "n,k,p,S_std_i17,S_new_i17,S_ratio_i17,S_std_t24,S_new_t24,S_ratio_t24,\
         W_std_t24_vs_i17_%,W_new_t24_vs_i17_%,regime_i17,regime_t24,regime_moved",
    );
    for (n, k, p) in [
        (1.0e6, 1.0e6, 1024.0),
        (1.0e6, 1.0e5, 4096.0),
        (1.0e6, 1.0e4, 16384.0),
        (1.0e7, 1.0e4, 65536.0),
        (1.0e5, 1.0e7, 1024.0),
    ] {
        let i17 = CostModelRev::Ipdps17.conclusion_row(n, k, p);
        let t24 = CostModelRev::Tang24.conclusion_row(n, k, p);
        let s = [&i17, &t24].map(|r| (r.standard.latency, r.new.latency));
        let ratios = s.map(|(std, new)| std / new);
        let w_std = 100.0 * (t24.standard.bandwidth / i17.standard.bandwidth - 1.0);
        let w_new = 100.0 * (t24.new.bandwidth / i17.new.bandwidth - 1.0);
        let moved = i17.regime != t24.regime;
        let [was, is] = [i17.regime, t24.regime].map(|r| format!("{r:?}"));
        table.row(&[
            &n, &k, &p, &s[0].0, &s[0].1, &ratios[0], &s[1].0, &s[1].1, &ratios[1], &w_std, &w_new,
            &was, &is, &moved,
        ]);
    }
    table
}

/// Figure 1's sweep, `k = 2^14` and `n/k` from `2^-8` to `2^8` at four
/// processor counts: `(p, n, k)` per point.
fn figure1_points() -> impl Iterator<Item = (usize, usize, usize)> {
    let k = 1 << 14;
    [64usize, 256, 4096, 65536].into_iter().flat_map(move |p| {
        (-8i32..=8).map(move |exp| {
            let n = if exp >= 0 {
                k << exp as usize
            } else {
                k >> (-exp) as usize
            };
            (p, n, k)
        })
    })
}

/// F1c — Figure 1 of the paper: the processor-grid layout (1D slab, 3D
/// cuboid or 2D face) and its parameters selected at every sweep point,
/// under both cost-model revisions.  The regime column reads `1` (1D, `n <
/// 4k/p`: B slabs, the whole L inverted), `3` (3D, `4k/p <= n <= 4k√p`: a
/// `p1 × p1` face of L over `p2` layers of B slabs, diagonal blocks of
/// size n0 inverted) or `2` (2D, `n > 4k√p`: a `√p × √p` face holds L and
/// B, small n0 blocks inverted).  Expected: for every p the regimes read
/// 1…1 3…3 2…2 as n/k grows, with the 3D window spanning `[4/p, 4·√p]`
/// under the source model and `[2/p, 2·√p]` under the tang24
/// reexamination.
pub fn figure1() -> Table {
    let mut table = Table::new("rev,p,n,k,n_over_k,regime,p1,p2,n0,r1");
    for (p, n, k) in figure1_points() {
        for rev in CostModelRev::ALL {
            let plan = rev.plan(n, k, p);
            let regime = match plan.regime {
                Regime::OneLargeDim => '1',
                Regime::ThreeLargeDims => '3',
                Regime::TwoLargeDims => '2',
            };
            let (name, ratio) = (rev.name(), n as f64 / k as f64);
            table.row(&[
                &name, &p, &n, &k, &ratio, &regime, &plan.p1, &plan.p2, &plan.n0, &plan.r1,
            ]);
        }
    }
    table
}

/// F1b — the Figure 1 sweep points whose regime moves from `ipdps17` to
/// `tang24`: tightening the boundary constant from 4 to 2 shrinks the 3D
/// window from `[4k/p, 4k√p]` to `[2k/p, 2k√p]`, handing its edges to the
/// 1D slab and 2D face layouts.
pub fn figure1_moves() -> Table {
    let mut table = Table::new("p,n,ipdps17,tang24");
    for (p, n, k) in figure1_points() {
        let [was, is] = CostModelRev::ALL.map(|rev| rev.plan(n, k, p).regime);
        if was != is {
            table.row(&[&p, &n, &was.name(), &is.name()]);
        }
    }
    table
}

/// A1 — the inversion block size `n0`, ablated.
///
/// The paper's algorithm "generalizes the usual way of TRSM computation and
/// the full matrix inversion approach": with `n0 = n` the whole matrix is
/// inverted (maximum parallelism in the solve, maximum inversion flops),
/// with small `n0` it degenerates towards a blocked substitution (many
/// synchronised iterations).  S/W/F and virtual time at every feasible
/// `n0` for `n = 512`, `k = 64` on a `4 × 4 × 1` grid; `fastest` marks the
/// least virtual time and `n0_model` is Section VIII's recommendation,
/// `O(min(√(nk), n))`.  Expected: S falls as n0 grows while the inversion
/// flops rise; the virtual-time optimum sits at an intermediate n0,
/// consistent with the Section VIII choice.
pub fn ablation_n0() -> Table {
    let (n, k, pr, pc) = (512, 64, 4usize, 4usize);
    let (p1, p2) = (4usize, 1usize);
    let n0_model = CostModelRev::Ipdps17.plan(n, k, pr * pc).n0;
    let mut table = Table::new("n0,blocks,S,W,F,virtual_time,fastest,n0_model");
    let inst = TrsmInstance {
        n,
        k,
        pr,
        pc,
        seed: 41,
    };
    let feasible = (0..).map(|e| p1 << e).take_while(|&n0| n0 <= n);
    let runs: Vec<_> = feasible
        .filter(|n0| n % n0 == 0)
        .map(|n0| {
            let cfg = ItInvConfig {
                p1,
                p2,
                n0,
                inv_base: 16,
            };
            let request = SolveRequest::lower().algorithm(Algorithm::IterativeInversion(cfg));
            (n0, run(&inst, request, MachineParams::cluster()).report)
        })
        .collect();
    let fastest = runs
        .iter()
        .map(|(_, r)| r.virtual_time())
        .fold(f64::INFINITY, f64::min);
    for (n0, report) in runs {
        let ((s, w, f), time) = (swf(&report), report.virtual_time());
        let is_fastest = time == fastest;
        table.row(&[&n0, &(n / n0), &s, &w, &f, &time, &is_fastest, &n0_model]);
    }
    table
}

/// A2 — the aspect ratio of the inversion sub-grid, ablated.
///
/// Section VII-A states that the bandwidth terms of the triangular
/// inversion balance at `r2 = 4·r1`.  The rows with a ratio evaluate the
/// model's inversion bandwidth at `n = 4096` on `q = 512` processors over
/// the full range of aspect ratios; the rows tagged `simulated` measure S
/// and W of the distributed inversion on square faces, which scale like
/// `n²/p`.  The row tagged `paper r2=4r1` is the model at the paper's
/// choice (`inversion::optimal_inv_grid`).  Expected: the curve is flat
/// within a factor ~1.1 between ratios 2 and 4 and degrades for extreme
/// aspect ratios.  The sampled minimum sits at `r2 = 2·r1`, not the
/// paper's `4·r1`: a small discrepancy in the paper's constant that costs
/// a few percent.
pub fn ablation_grid() -> Table {
    let n = 4096.0;
    let q_total = 512.0;
    let mut table = Table::new("ratio_or_tag,r1_or_p,r2_or_n,W_model_or_S,W");
    let mut ratio: f64 = 0.25;
    while ratio <= 256.0 {
        let r1 = (q_total / ratio).powf(1.0 / 3.0);
        let r2 = q_total / (r1 * r1);
        let w = inv_model::inv_bandwidth(n, r1, r2);
        table.row(&[&ratio, &r1, &r2, &w]);
        ratio *= 2.0;
    }
    let (r1, r2) = inv_model::optimal_inv_grid(q_total);
    let w = inv_model::inv_bandwidth(n, r1, r2);
    table.row(&[&"paper r2=4r1", &r1, &r2, &w]);
    for (q, n) in [(2usize, 256usize), (4, 256), (4, 512)] {
        let (s, w, _) = swf(&inversion_run(q, n, 64));
        table.row(&[&"simulated", &(q * q), &n, &s, &w]);
    }
    table
}

/// O1 — what `op(A)` costs: one solve of each triangle and transpose by
/// each algorithm, `n = 128`, `k = 32` on a `4 × 4` grid of the `cluster`
/// machine, each on a fresh operand.  `setup` and `finalize` are
/// `It-Inv-TRSM`'s two layout-change phases (empty for the baselines).
/// The paper solves every system as a lower one — `U` is `J·L·J` and `Lᵀ`
/// swaps the index axes — so an upper or transposed solve should cost what
/// the lower one does, up to the algorithm's entry and exit layout changes.
pub fn op_costs() -> Table {
    let mut table = Table::new("algorithm,op,S,W,F,setup_S,setup_W,finalize_S,finalize_W");
    let (n, k) = (128, 32);
    let algorithms = [
        ("itinv planned", None),
        (
            "recursive base 16",
            Some(Algorithm::Recursive { base_size: 16 }),
        ),
        ("wavefront", Some(Algorithm::Wavefront)),
    ];
    let ops = [
        ("lower", SolveRequest::lower()),
        ("upper", SolveRequest::upper()),
        ("lower_t", SolveRequest::lower().transposed()),
        ("upper_t", SolveRequest::upper().transposed()),
    ];
    for (name, algorithm) in algorithms {
        for (op, request) in ops {
            let request = request.algorithm(algorithm);
            let opts = request.opts();
            let m = measure(4, 4, MachineParams::cluster(), |grid| {
                let a = match opts.triangle {
                    Triangle::Lower => gen::well_conditioned_lower(n, 13),
                    Triangle::Upper => gen::well_conditioned_upper(n, 13),
                };
                let x_true = gen::rhs(n, k, 14);
                let b = match opts.transpose {
                    Transpose::No => dense::matmul(&a, &x_true),
                    Transpose::Yes => dense::matmul(&a.transpose(), &x_true),
                };
                let (a, b) = (
                    DistMatrix::from_global(grid, &a),
                    DistMatrix::from_global(grid, &b),
                );
                let (sol, counters) = window(grid, || request.solve_distributed(&a, &b).unwrap());
                let x_ref = DistMatrix::from_global(grid, &x_true);
                Measured {
                    counters,
                    phases: sol.report.phases,
                    error: sol.x.rel_diff(&x_ref).unwrap(),
                }
            });
            let (s, w, f) = swf(&m.report);
            // Setup and finalize: the first and the last phase.
            let [setup_s, setup_w, finalize_s, finalize_w] = match &m.phases {
                Some(phases) => {
                    let ((ss, sw, _), (fs, fw, _)) = (swf(&phases[0].1), swf(&phases[4].1));
                    [ss, sw, fs, fw].map(|v| v.to_string())
                }
                None => Default::default(),
            };
            table.row(&[
                &name,
                &op,
                &s,
                &w,
                &f,
                &setup_s,
                &setup_w,
                &finalize_s,
                &finalize_w,
            ]);
        }
    }
    table
}
