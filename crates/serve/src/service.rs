//! The long-lived [`SolveService`]: a fingerprint-keyed plan cache plus a
//! batched execution engine in front of the staged
//! `SolveRequest → SolvePlan → Solution` API.
//!
//! # What the service amortizes
//!
//! A cold solve pays three stages: the `planner` lowering, the sparse
//! dependency analysis (the level schedule), and the execute itself.  Repeat traffic — the analyze-once/apply-many
//! regime of the sparse triangular-solve literature — should pay only the
//! third.  The service keys an LRU of lowered [`Arc<SolvePlan>`]s by
//! operand *content fingerprint* × request shape ([`PlanKey`]), and pins
//! the first-seen operand as the **canonical** one for its fingerprint:
//! cache hits execute against the canonical operand, whose `OnceLock`'d
//! schedule caches are already warm, even when the client rebuilt its
//! matrix object from scratch.  Steady state therefore performs zero
//! plan builds ([`ServiceStats::plan_builds`] stays flat) and zero
//! analyses ([`sparse::SparseTri::analysis_count`] stays flat).
//!
//! # Batching
//!
//! Submitted single-RHS jobs queue until [`SolveService::flush`], which
//! groups them by plan key and runs each group in windows of up to the
//! admission window.  A sparse window packs its vectors into a reusable
//! arena matrix and runs one `solve_multi` sweep — the per-row elimination
//! handles each RHS column independently, so the fused answer is bitwise
//! identical to `w` separate solves.  A dense window runs its jobs one
//! after another on the flushing thread, each the solo in-place solve: the
//! dense solve picks its kernel from the shape (`dense::solve_kernel`), so
//! `w` fused columns would not round like `w` single right-hand sides.  The
//! arena and the job's own RHS buffer are reused, so a warm service
//! allocates nothing per request.
//!
//! # One lock
//!
//! The cache, the queue and the counters sit behind one mutex.  A plan is
//! built under it, so a thundering herd on one cold key plans once.  No
//! fingerprint and no execute runs under it, so concurrent clients hash
//! their operands — a sparse one on its first submit, when its memo
//! fills; a dense one on every submit — and solve on cached plans side by
//! side.

use crate::cache::LruCache;
use crate::fingerprint::{fingerprint_dense, fingerprint_sparse, PlanKey};
use catrsm::{Result, Solution, SolvePlan, SolveReport, SolveRequest, TrsmError};
use dense::{MatMut, Matrix};
use sparse::SparseTri;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

/// Configuration of a [`SolveService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Plan-cache capacity (entries = fingerprint × request-shape pairs).
    pub plan_cache_capacity: usize,
    /// Admission window: the most same-key jobs `flush` runs as one batch.
    pub admission_window: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            plan_cache_capacity: 64,
            admission_window: 16,
        }
    }
}

/// A solve operand held by shared ownership, so cached analyses serve
/// concurrent requests without cloning matrix data.
#[derive(Debug, Clone)]
pub enum Operand {
    /// Dense triangular operand.
    Dense(Arc<Matrix>),
    /// Sparse CSR triangular operand (carries its own cached analyses).
    Sparse(Arc<SparseTri>),
}

impl Operand {
    /// The plan-cache key of this operand under `request`: its content
    /// fingerprint under the request's declared triangle/diagonal, with the
    /// dimension and the stored entries (dense operands count the full
    /// square) as a structural guard.
    fn key(&self, request: &SolveRequest) -> PlanKey {
        let (fingerprint, nnz) = match self {
            Operand::Dense(a) => (
                fingerprint_dense(a, request.opts().triangle, request.opts().diag),
                a.rows() * a.cols(),
            ),
            Operand::Sparse(a) => (fingerprint_sparse(a), a.nnz()),
        };
        PlanKey::new(fingerprint, self.n(), nnz, request)
    }

    /// Operand dimension.
    pub fn n(&self) -> usize {
        match self {
            Operand::Dense(a) => a.rows(),
            Operand::Sparse(a) => a.n(),
        }
    }
}

/// One submission: a request shape, a shared operand, and one RHS vector.
#[derive(Debug, Clone)]
pub struct ServiceRequest {
    /// The solve description (triangle, transpose, pins, reuse, …).
    pub request: SolveRequest,
    /// The operand, by shared ownership.
    pub operand: Operand,
    /// The right-hand side (length `n`).
    pub rhs: Vec<f64>,
}

/// Identifies one queued submission; completions carry it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(pub u64);

/// The outcome of one queued submission after a flush.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The ticket [`SolveService::submit`] returned for this job.
    pub ticket: Ticket,
    /// The solution vector (the submitted RHS buffer, reused — `B` on
    /// submit, `X` here).  On error it holds the untouched RHS.
    pub x: Vec<f64>,
    /// The execution report, or the error that failed this job.
    pub result: std::result::Result<SolveReport, TrsmError>,
}

/// A point-in-time snapshot of the service's accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests accepted (immediate solves + queued submissions); a request
    /// whose plan is refused is not accepted.
    pub requests: u64,
    /// Requests whose execution returned an error.
    pub errors: u64,
    /// Plan-cache hits.
    pub hits: u64,
    /// Plan-cache misses (each one lowered a fresh plan; a refused plan is
    /// no miss).
    pub misses: u64,
    /// Plan-cache LRU evictions.
    pub evictions: u64,
    /// Plans lowered by this service (== misses: every miss builds once).
    pub plan_builds: u64,
    /// Windows of two or more same-key jobs run by `flush` (a sparse one
    /// as one fused execute, a dense one job after job).
    pub batches: u64,
    /// Requests that rode a window of width ≥ 2.
    pub fused_requests: u64,
    /// Widest window so far.
    pub max_batch_width: u64,
    /// Deepest the submission queue has been.
    pub max_queue_depth: u64,
}

impl ServiceStats {
    /// Cache-hit ratio over the lookups so far (0 when none happened).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A cached lowering: the plan plus the canonical operand it runs on.
#[derive(Clone)]
struct CachedPlan {
    plan: Arc<SolvePlan>,
    operand: Operand,
}

/// Executing a cached plan: each `match` makes the same entry-point call
/// on whichever operand kind the cache holds.
impl CachedPlan {
    /// Solve for `b` into a fresh `X`, with the residual if the plan's
    /// request asked for one.
    fn execute(&self, b: &Matrix) -> Result<Solution<Matrix>> {
        match &self.operand {
            Operand::Dense(a) => self.plan.execute(&**a, b),
            Operand::Sparse(a) => self.plan.execute(&**a, b),
        }
    }

    /// Solve one right-hand side in the caller's buffer: `rhs` holds `b` on
    /// entry and `x` on exit (on error, `b` untouched).  Allocation-free
    /// unless the plan's request asked for a residual: the in-place
    /// executors consume `B`, so such a solve takes the copying path on its
    /// `n×1` column — the same kernel, so the same bits.
    fn execute_vec(&self, rhs: &mut Vec<f64>) -> Result<SolveReport> {
        if !self.plan.request.wants_residual() {
            let x = rhs.as_mut_slice();
            return match &self.operand {
                Operand::Dense(a) => self.plan.execute_in_place(&**a, x),
                Operand::Sparse(a) => self.plan.execute_in_place(&**a, x),
            };
        }
        let b = Matrix::from_vec(rhs.len(), 1, std::mem::take(rhs))
            .expect("an n×1 matrix holds n values");
        match self.execute(&b) {
            Ok(sol) => {
                *rhs = sol.x.into_vec();
                Ok(sol.report)
            }
            Err(e) => {
                *rhs = b.into_vec();
                Err(e)
            }
        }
    }

    /// One multi-RHS sweep of the sparse operand `a` over the `w` packed
    /// right-hand sides of `fused`.  The row kernel treats each RHS column
    /// independently, so this is bitwise identical to `w` separate solves —
    /// even when the fused `nnz·w` work carries the level weight over the
    /// go-parallel threshold a single RHS stays under.
    fn execute_fused_sparse(
        &self,
        a: &SparseTri,
        jobs: &mut [PendingJob],
        fused: &[usize],
        arena: &mut Vec<f64>,
    ) {
        let n = a.n();
        let w = fused.len();
        arena.clear();
        arena.resize(n * w, 0.0);
        for (c, &i) in fused.iter().enumerate() {
            for (r, &v) in jobs[i].rhs.iter().enumerate() {
                arena[r * w + c] = v;
            }
        }
        let packed = MatMut::from_slice(arena, n, w);
        match self.plan.execute_in_place(a, packed) {
            Ok(report) => {
                for (c, &i) in fused.iter().enumerate() {
                    for (r, v) in jobs[i].rhs.iter_mut().enumerate() {
                        *v = arena[r * w + c];
                    }
                    // Every fused job reports the batch execute it rode in
                    // (the flop count covers the whole batch).
                    jobs[i].result = Some(Ok(report.clone()));
                }
            }
            Err(e) => {
                for &i in fused {
                    jobs[i].result = Some(Err(e.clone()));
                }
            }
        }
    }
}

/// One queued single-RHS job, resolved against the cache at submit time.
struct PendingJob {
    ticket: Ticket,
    key: PlanKey,
    entry: CachedPlan,
    rhs: Vec<f64>,
    result: Option<std::result::Result<SolveReport, TrsmError>>,
}

/// Everything the service shares between client threads, behind its one
/// lock.
struct State {
    cache: LruCache<PlanKey, CachedPlan>,
    queue: VecDeque<PendingJob>,
    /// Reusable pack buffer for fused sparse batches (`n × w`,
    /// column-interleaved row-major).  Capacity persists across flushes.
    arena: Vec<f64>,
    next_ticket: u64,
    /// Every counter but the cache's own hits and evictions.  (The cache
    /// also counts a miss whose plan is then refused, so misses are counted
    /// here, once the plan exists.)
    stats: ServiceStats,
}

impl State {
    /// Resolve `key` against the plan cache and count the request.  A hit
    /// returns the cached plan *and the canonical operand*; a miss lowers a
    /// fresh plan (for `k` right-hand sides) and pins the submitted operand
    /// as canonical for this fingerprint.  The request and its miss are
    /// counted only once the plan exists: a refused request counts nothing
    /// and caches nothing.
    fn admit(
        &mut self,
        key: PlanKey,
        request: &SolveRequest,
        operand: &Operand,
        k: usize,
    ) -> Result<CachedPlan> {
        let entry = match self.cache.get(&key).cloned() {
            Some(entry) => {
                obs::counter("serve", "plan_cache_hit", "hits", 1, "", 0);
                entry
            }
            None => {
                let plan = match operand {
                    Operand::Dense(a) => request.plan(&**a, k)?,
                    Operand::Sparse(a) => request.plan(&**a, k)?,
                };
                obs::counter("serve", "plan_cache_miss", "misses", 1, "", 0);
                self.stats.misses += 1;
                self.stats.plan_builds += 1;
                let entry = CachedPlan {
                    plan: Arc::new(plan),
                    operand: operand.clone(),
                };
                if self.cache.insert(key, entry.clone()).is_some() {
                    obs::counter("serve", "plan_cache_evict", "evictions", 1, "", 0);
                }
                entry
            }
        };
        self.stats.requests += 1;
        Ok(entry)
    }
}

/// A long-lived, thread-safe solve front end; see the module docs.
///
/// Shared by reference (or `Arc`) across client threads: immediate
/// [`SolveService::solve`] calls run concurrently outside the internal
/// lock, all of them against the same cached plans and warmed operand
/// analyses.
pub struct SolveService {
    state: Mutex<State>,
    config: ServiceConfig,
}

// One cached plan serves concurrent requests: everything the service
// shares across threads must be Send + Sync (audited at compile time in
// the operand crates too; see `catrsm::solve` and `sparse::csr`).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SolveService>();
    assert_send_sync::<Operand>();
};

impl SolveService {
    /// A service with the given cache capacity and admission window.
    pub fn new(config: ServiceConfig) -> SolveService {
        SolveService {
            state: Mutex::new(State {
                cache: LruCache::new(config.plan_cache_capacity),
                queue: VecDeque::new(),
                arena: Vec::new(),
                next_ticket: 0,
                stats: ServiceStats::default(),
            }),
            config,
        }
    }

    /// The configuration this service runs with.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("service state poisoned")
    }

    /// Solve one multi-RHS system immediately (no queueing) through the
    /// plan cache.  Concurrent callers share cached plans and analyses;
    /// execution runs outside the service lock.
    pub fn solve(
        &self,
        request: &SolveRequest,
        operand: &Operand,
        b: &Matrix,
    ) -> Result<Solution<Matrix>> {
        let key = operand.key(request);
        let entry = self.state().admit(key, request, operand, b.cols())?;
        let out = entry.execute(b);
        if out.is_err() {
            self.state().stats.errors += 1;
        }
        out
    }

    /// Solve one single-RHS system immediately through the plan cache.
    pub fn solve_vec(
        &self,
        request: &SolveRequest,
        operand: &Operand,
        b: &[f64],
    ) -> Result<Solution<Vec<f64>>> {
        let key = operand.key(request);
        let entry = self.state().admit(key, request, operand, 1)?;
        let mut x = b.to_vec();
        match entry.execute_vec(&mut x) {
            Ok(report) => Ok(Solution { x, report }),
            Err(e) => {
                self.state().stats.errors += 1;
                Err(e)
            }
        }
    }

    /// Queue one single-RHS job for the next [`SolveService::flush`].
    /// Planning (and its errors) happen here; execution errors surface on
    /// the job's [`Completion`].
    pub fn submit(&self, sreq: ServiceRequest) -> Result<Ticket> {
        let ServiceRequest {
            request,
            operand,
            rhs,
        } = sreq;
        if rhs.len() != operand.n() {
            return Err(catrsm::error::config_error(
                "serve",
                format!(
                    "rhs length {} does not match the n = {} operand",
                    rhs.len(),
                    operand.n()
                ),
            ));
        }
        let key = operand.key(&request);
        let mut state = self.state();
        let entry = state.admit(key, &request, &operand, 1)?;
        let ticket = Ticket(state.next_ticket);
        state.next_ticket += 1;
        state.queue.push_back(PendingJob {
            ticket,
            key,
            entry,
            rhs,
            result: None,
        });
        let depth = state.queue.len() as u64;
        state.stats.max_queue_depth = state.stats.max_queue_depth.max(depth);
        Ok(ticket)
    }

    /// Jobs currently queued (submitted, not yet flushed).
    pub fn queue_depth(&self) -> usize {
        self.state().queue.len()
    }

    /// Execute everything queued: group jobs by plan key, run each group in
    /// windows of up to the admission window (a sparse window as one fused
    /// execute), and return the completions in submission order.
    pub fn flush(&self) -> Vec<Completion> {
        // Take the work and the arena; execution runs outside the lock
        // so concurrent `solve` / `submit` calls keep flowing.
        let (mut jobs, mut arena) = {
            let mut state = self.state();
            let jobs: Vec<PendingJob> = state.queue.drain(..).collect();
            (jobs, std::mem::take(&mut state.arena))
        };

        // Group by plan key, preserving submission order within a group.
        // Few distinct keys per window (a closed hot set), so a linear
        // scan beats building a map.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_keys: Vec<PlanKey> = Vec::new();
        for (idx, job) in jobs.iter().enumerate() {
            match group_keys.iter().position(|k| *k == job.key) {
                Some(g) => groups[g].push(idx),
                None => {
                    group_keys.push(job.key);
                    groups.push(vec![idx]);
                }
            }
        }

        let mut batches = 0u64;
        let mut fused_requests = 0u64;
        let mut max_batch_width = 0u64;
        for group in &groups {
            for window in group.chunks(self.config.admission_window.max(1)) {
                // A group shares one key and so one request; if it asked
                // for a residual every job needs its B preserved and runs
                // individually (still on the cached plan).
                let entry = jobs[window[0]].entry.clone();
                let w = window.len() as u64;
                let batched = w > 1 && !entry.plan.request.wants_residual();
                if batched {
                    batches += 1;
                    fused_requests += w;
                    max_batch_width = max_batch_width.max(w);
                    obs::counter("serve", "batch_width", "requests", w, "", 0);
                }
                match &entry.operand {
                    Operand::Sparse(a) if batched => {
                        entry.execute_fused_sparse(a, &mut jobs, window, &mut arena)
                    }
                    // A dense window runs its jobs one after another, each
                    // the solo solve (dense batch-mates never share
                    // arithmetic), as does every unbatched job.
                    _ => {
                        for &i in window {
                            let job = &mut jobs[i];
                            job.result = Some(job.entry.execute_vec(&mut job.rhs));
                        }
                    }
                }
            }
        }

        let errors = jobs
            .iter()
            .filter(|j| matches!(j.result, Some(Err(_))))
            .count() as u64;
        {
            let mut state = self.state();
            state.arena = arena;
            let stats = &mut state.stats;
            stats.errors += errors;
            stats.batches += batches;
            stats.fused_requests += fused_requests;
            stats.max_batch_width = stats.max_batch_width.max(max_batch_width);
        }

        jobs.sort_by_key(|j| j.ticket);
        jobs.into_iter()
            .map(|j| Completion {
                ticket: j.ticket,
                x: j.rhs,
                result: j.result.expect("every drained job was executed"),
            })
            .collect()
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> ServiceStats {
        let state = self.state();
        ServiceStats {
            hits: state.cache.hits(),
            evictions: state.cache.evictions(),
            ..state.stats
        }
    }

    /// Entries currently in the plan cache.
    pub fn cached_plans(&self) -> usize {
        self.state().cache.len()
    }
}
