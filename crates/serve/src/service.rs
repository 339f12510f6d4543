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
//! groups them by plan key and fuses each group (up to the admission
//! window) into one multi-RHS execute: sparse groups pack their vectors
//! into a reusable arena matrix and run one `solve_multi` sweep — the
//! per-row elimination handles each RHS column independently, so the
//! fused answer is bitwise identical to `w` separate solves — while dense
//! groups run side by side on the `DENSE_THREADS` worker pool, each system
//! solved independently: the dense solve picks its kernel from the shape
//! (`dense::solve_kernel`), so `w` fused columns would not round like `w`
//! single right-hand sides.  The arenas and the job's own RHS buffer are
//! reused, so a warm service allocates nothing per request.

use crate::cache::LruCache;
use crate::fingerprint::{
    fingerprint_dense, fingerprint_distributed, fingerprint_sparse, Fingerprint, PlanKey,
};
use catrsm::{Result, Solution, SolvePlan, SolveReport, SolveRequest, TrsmError};
use dense::{MatMut, Matrix};
use sparse::SparseTri;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Configuration of a [`SolveService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Plan-cache capacity (entries = fingerprint × request-shape pairs).
    pub plan_cache_capacity: usize,
    /// Admission window: the most requests fused into one batched execute.
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
    /// Content fingerprint of this operand under the request's declared
    /// triangle/diagonal.
    fn fingerprint(&self, request: &SolveRequest) -> Fingerprint {
        match self {
            Operand::Dense(a) => fingerprint_dense(a, request.opts().triangle, request.opts().diag),
            Operand::Sparse(a) => fingerprint_sparse(a),
        }
    }

    /// Operand dimension.
    pub fn n(&self) -> usize {
        match self {
            Operand::Dense(a) => a.rows(),
            Operand::Sparse(a) => a.n(),
        }
    }

    /// Stored entries (dense operands count the full square).
    fn nnz(&self) -> usize {
        match self {
            Operand::Dense(a) => a.rows() * a.cols(),
            Operand::Sparse(a) => a.nnz(),
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
    /// Requests accepted (immediate solves + queued submissions).
    pub requests: u64,
    /// Requests whose execution returned an error.
    pub errors: u64,
    /// Plan-cache hits.
    pub hits: u64,
    /// Plan-cache misses (each one lowered a fresh plan).
    pub misses: u64,
    /// Plan-cache LRU evictions.
    pub evictions: u64,
    /// Plans lowered by this service (== misses: every miss builds once).
    pub plan_builds: u64,
    /// Fused batched executes performed by `flush`.
    pub batches: u64,
    /// Requests that rode a fused execute of width ≥ 2.
    pub fused_requests: u64,
    /// Widest fused execute so far.
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

/// The one place the service calls plan executors.
impl CachedPlan {
    /// Solve for `b` into a fresh `X`, with the residual if the plan's
    /// request asked for one.
    fn execute(&self, b: &Matrix) -> Result<Solution<Matrix>> {
        match &self.operand {
            Operand::Dense(a) => self.plan.execute_dense(a, b),
            Operand::Sparse(a) => self.plan.execute_sparse(a, b),
        }
    }

    /// Solve one right-hand side in the caller's buffer: `rhs` holds `b` on
    /// entry and `x` on exit (on error, `b` untouched).  Allocation-free
    /// unless the plan's request asked for a residual: the in-place
    /// executors consume `B`, so such a solve takes the copying path on its
    /// `n×1` column — the same kernel, so the same bits.
    fn execute_vec(&self, rhs: &mut Vec<f64>) -> Result<SolveReport> {
        if !self.wants_residual() {
            let x = rhs.as_mut_slice();
            return match &self.operand {
                Operand::Dense(a) => self.plan.execute_dense_in_place(a, x),
                Operand::Sparse(a) => self.plan.execute_sparse_in_place(a, x),
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
        match self.plan.execute_sparse_in_place(a, packed) {
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

    /// Whether the request this plan was lowered from asked for a residual
    /// (such jobs need their `B` preserved).
    fn wants_residual(&self) -> bool {
        self.plan.request.wants_residual()
    }
}

/// Upper bound on independent plan-cache shards.  A power of two a notch
/// above the worker counts this crate targets, so concurrent clients
/// hashing to different keys almost never contend on the same lock.
const CACHE_SHARDS: usize = 8;

/// The plan cache, split into up to [`CACHE_SHARDS`] independently locked
/// LRUs.
///
/// A key always hashes to the same shard, so the thundering-herd guarantee
/// (one cold key analyzes once, under the lock) is preserved per key; what
/// sharding removes is cross-key convoying — two clients working different
/// fingerprints no longer serialize on one global mutex.  The configured
/// capacity is distributed exactly across the shards (never fewer shards
/// than one slot each: a capacity below [`CACHE_SHARDS`] gets one shard
/// per slot), and the accounting methods aggregate across shards.
///
/// Lock order: a shard lock is a leaf.  Nothing else — not another shard,
/// not the service's `inner` state — is locked while one is held, so the
/// admission path (`lookup`, `plan_distributed`) can never deadlock against
/// `submit`/`flush`/`stats`, which take `inner` and the shards one at a time.
struct ShardedPlanCache {
    shards: Vec<Mutex<LruCache<PlanKey, CachedPlan>>>,
}

impl ShardedPlanCache {
    fn new(capacity: usize) -> ShardedPlanCache {
        let capacity = capacity.max(1);
        let count = CACHE_SHARDS.min(capacity);
        let (base, rem) = (capacity / count, capacity % count);
        ShardedPlanCache {
            shards: (0..count)
                .map(|i| Mutex::new(LruCache::new(base + usize::from(i < rem))))
                .collect(),
        }
    }

    /// The shard owning `key` (stable: depends only on the key's hash).
    fn shard(&self, key: &PlanKey) -> &Mutex<LruCache<PlanKey, CachedPlan>> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("plan cache poisoned").len())
            .sum()
    }

    /// Aggregate `(hits, misses, evictions)` across every shard.
    fn totals(&self) -> (u64, u64, u64) {
        self.shards.iter().fold((0, 0, 0), |acc, s| {
            let c = s.lock().expect("plan cache poisoned");
            (acc.0 + c.hits(), acc.1 + c.misses(), acc.2 + c.evictions())
        })
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

#[derive(Default)]
struct Inner {
    queue: VecDeque<PendingJob>,
    /// Reusable pack buffer for fused sparse batches (`n × w`,
    /// column-interleaved row-major).  Capacity persists across flushes.
    arena: Vec<f64>,
    next_ticket: u64,
    requests: u64,
    errors: u64,
    batches: u64,
    fused_requests: u64,
    max_batch_width: u64,
    max_queue_depth: u64,
}

/// A long-lived, thread-safe solve front end; see the module docs.
///
/// Shared by reference (or `Arc`) across client threads: immediate
/// [`SolveService::solve`] calls run concurrently outside the internal
/// lock, all of them against the same cached plans and warmed operand
/// analyses.
pub struct SolveService {
    cache: ShardedPlanCache,
    /// Plans lowered so far.  `Relaxed` on both sides: the counter publishes
    /// no data.  It is bumped while the key's shard lock is held, and
    /// [`SolveService::stats`] loads it after `totals()` has taken every
    /// shard lock, so the mutex's unlock → lock (release → acquire) edge puts
    /// the build of every miss a snapshot counts before the load: a snapshot
    /// never shows fewer builds than the misses in it that planned.
    plan_builds: AtomicU64,
    inner: Mutex<Inner>,
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
            cache: ShardedPlanCache::new(config.plan_cache_capacity),
            plan_builds: AtomicU64::new(0),
            inner: Mutex::new(Inner::default()),
            config,
        }
    }

    /// The configuration this service runs with.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// Resolve `(request, operand)` against the plan cache: hit returns
    /// the cached plan *and the canonical operand*; miss lowers a fresh
    /// plan (for `k` right-hand sides) and pins the submitted operand as
    /// canonical for this fingerprint.
    fn lookup(
        &self,
        request: &SolveRequest,
        operand: &Operand,
        k: usize,
    ) -> Result<(PlanKey, CachedPlan)> {
        let fp = operand.fingerprint(request);
        let key = PlanKey::new(fp, operand.n(), operand.nnz(), request);
        let mut cache = self.cache.shard(&key).lock().expect("plan cache poisoned");
        if let Some(entry) = cache.get(&key) {
            obs::counter("serve", "plan_cache_hit", "hits", 1, "", 0);
            return Ok((key, entry.clone()));
        }
        obs::counter("serve", "plan_cache_miss", "misses", 1, "", 0);
        // Build under the key's shard lock: a thundering herd on one cold
        // key should analyze once, not once per thread (equal keys always
        // land on the same shard), while traffic on other keys keeps
        // flowing through the other shards.
        let plan = match operand {
            Operand::Dense(a) => request.plan_dense(a.rows(), k)?,
            Operand::Sparse(a) => request.plan_sparse(a, k)?,
        };
        self.plan_builds.fetch_add(1, Ordering::Relaxed);
        let entry = CachedPlan {
            plan: Arc::new(plan),
            operand: operand.clone(),
        };
        if cache.insert(key, entry.clone()).is_some() {
            obs::counter("serve", "plan_cache_evict", "evictions", 1, "", 0);
        }
        Ok((key, entry))
    }

    /// Solve one multi-RHS system immediately (no queueing) through the
    /// plan cache.  Concurrent callers share cached plans and analyses;
    /// execution runs outside the service locks.
    pub fn solve(
        &self,
        request: &SolveRequest,
        operand: &Operand,
        b: &Matrix,
    ) -> Result<Solution<Matrix>> {
        self.inner.lock().expect("service state poisoned").requests += 1;
        let (_, entry) = self.lookup(request, operand, b.cols())?;
        let out = entry.execute(b);
        if out.is_err() {
            self.inner.lock().expect("service state poisoned").errors += 1;
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
        self.inner.lock().expect("service state poisoned").requests += 1;
        let (_, entry) = self.lookup(request, operand, 1)?;
        let mut x = b.to_vec();
        match entry.execute_vec(&mut x) {
            Ok(report) => Ok(Solution { x, report }),
            Err(e) => {
                self.inner.lock().expect("service state poisoned").errors += 1;
                Err(e)
            }
        }
    }

    /// Lower (or fetch) a distributed plan through the same LRU, keyed by
    /// `(n, k, p)` and the request shape.  Distributed planning has no
    /// local operand to fingerprint — the plan depends only on the
    /// problem shape — so the caller executes the shared plan against its
    /// own `DistMatrix` inside the simulated machine.
    pub fn plan_distributed(
        &self,
        request: &SolveRequest,
        n: usize,
        k: usize,
        p: usize,
    ) -> Result<Arc<SolvePlan>> {
        let key = PlanKey::new(fingerprint_distributed(n, k, p), n, n * n, request);
        let mut cache = self.cache.shard(&key).lock().expect("plan cache poisoned");
        if let Some(entry) = cache.get(&key) {
            obs::counter("serve", "plan_cache_hit", "hits", 1, "", 0);
            return Ok(Arc::clone(&entry.plan));
        }
        obs::counter("serve", "plan_cache_miss", "misses", 1, "", 0);
        let plan = Arc::new(request.plan_distributed(n, k, p)?);
        self.plan_builds.fetch_add(1, Ordering::Relaxed);
        // Distributed entries reuse the cache slot shape with a
        // zero-sized stand-in operand; they are never batch-executed.
        let stand_in = Operand::Dense(Arc::new(Matrix::zeros(0, 0)));
        if cache
            .insert(
                key,
                CachedPlan {
                    plan: Arc::clone(&plan),
                    operand: stand_in,
                },
            )
            .is_some()
        {
            obs::counter("serve", "plan_cache_evict", "evictions", 1, "", 0);
        }
        Ok(plan)
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
        let (key, entry) = self.lookup(&request, &operand, 1)?;
        let mut inner = self.inner.lock().expect("service state poisoned");
        inner.requests += 1;
        let ticket = Ticket(inner.next_ticket);
        inner.next_ticket += 1;
        inner.queue.push_back(PendingJob {
            ticket,
            key,
            entry,
            rhs,
            result: None,
        });
        let depth = inner.queue.len() as u64;
        inner.max_queue_depth = inner.max_queue_depth.max(depth);
        Ok(ticket)
    }

    /// Jobs currently queued (submitted, not yet flushed).
    pub fn queue_depth(&self) -> usize {
        self.inner
            .lock()
            .expect("service state poisoned")
            .queue
            .len()
    }

    /// Execute everything queued: group jobs by plan key, fuse each group
    /// (up to the admission window) into one execute, and return the
    /// completions in submission order.
    pub fn flush(&self) -> Vec<Completion> {
        // Take the work and the arena; execution runs outside the locks
        // so concurrent `solve` / `submit` calls keep flowing.
        let (mut jobs, mut arena) = {
            let mut inner = self.inner.lock().expect("service state poisoned");
            let jobs: Vec<PendingJob> = inner.queue.drain(..).collect();
            (jobs, std::mem::take(&mut inner.arena))
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
                let w = window.len();
                if w == 1 || jobs[window[0]].entry.wants_residual() {
                    for &i in window {
                        run_single(&mut jobs[i]);
                    }
                } else {
                    batches += 1;
                    fused_requests += w as u64;
                    max_batch_width = max_batch_width.max(w as u64);
                    obs::counter("serve", "batch_width", "requests", w as u64, "", 0);
                    run_fused(&mut jobs, window, &mut arena);
                }
            }
        }

        let errors = jobs
            .iter()
            .filter(|j| matches!(j.result, Some(Err(_))))
            .count() as u64;
        {
            let mut inner = self.inner.lock().expect("service state poisoned");
            inner.arena = arena;
            inner.errors += errors;
            inner.batches += batches;
            inner.fused_requests += fused_requests;
            inner.max_batch_width = inner.max_batch_width.max(max_batch_width);
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

    /// Current accounting snapshot (cache totals aggregated over shards).
    pub fn stats(&self) -> ServiceStats {
        let (hits, misses, evictions) = self.cache.totals();
        let plan_builds = self.plan_builds.load(Ordering::Relaxed);
        let inner = self.inner.lock().expect("service state poisoned");
        ServiceStats {
            requests: inner.requests,
            errors: inner.errors,
            hits,
            misses,
            evictions,
            plan_builds,
            batches: inner.batches,
            fused_requests: inner.fused_requests,
            max_batch_width: inner.max_batch_width,
            max_queue_depth: inner.max_queue_depth,
        }
    }

    /// Entries currently in the plan cache (summed over shards).
    pub fn cached_plans(&self) -> usize {
        self.cache.len()
    }
}

/// Execute one job on its own (single RHS, in the job's buffer).
fn run_single(job: &mut PendingJob) {
    job.result = Some(job.entry.execute_vec(&mut job.rhs));
}

/// Execute a fused group: all jobs share one plan and one canonical
/// operand.  Sparse groups pack into the arena and run one multi-RHS
/// sweep; dense groups run side by side on the worker pool.
fn run_fused(jobs: &mut [PendingJob], fused: &[usize], arena: &mut Vec<f64>) {
    let entry = jobs[fused[0]].entry.clone();
    match &entry.operand {
        Operand::Sparse(a) => entry.execute_fused_sparse(a, jobs, fused, arena),
        Operand::Dense(_) => run_fused_dense(jobs, fused),
    }
}

/// Side-by-side dense execution: each job is an independent system, so
/// the jobs split across the worker pool and every solve stays bitwise
/// identical to running alone (no cross-job arithmetic).
fn run_fused_dense(jobs: &mut [PendingJob], fused: &[usize]) {
    let workers = dense::dense_threads().min(fused.len()).max(1);
    if workers == 1 {
        for &i in fused {
            run_single(&mut jobs[i]);
        }
        return;
    }
    // Split the fused jobs into disjoint per-worker slices.  Collect
    // mutable references first so each worker owns its share.
    let mut picked: Vec<&mut PendingJob> = Vec::with_capacity(fused.len());
    let mut rest = &mut *jobs;
    let mut taken = 0usize;
    for &i in fused {
        // `fused` is strictly increasing (built by an in-order scan), so
        // successive split_at_mut calls carve disjoint slices.
        let (_, tail) = rest.split_at_mut(i - taken);
        let (job, tail) = tail.split_first_mut().expect("index in range");
        picked.push(job);
        rest = tail;
        taken = i + 1;
    }
    let per = picked.len().div_ceil(workers);
    dense::threads::join_all(
        picked
            .chunks_mut(per)
            .map(|chunk| {
                move || {
                    for job in chunk.iter_mut() {
                        run_single(job);
                    }
                }
            })
            .collect(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard_caps(capacity: usize) -> Vec<usize> {
        ShardedPlanCache::new(capacity)
            .shards
            .iter()
            .map(|s| s.lock().unwrap().capacity())
            .collect()
    }

    #[test]
    fn shard_capacities_sum_to_the_configured_total() {
        for capacity in [1, 2, 7, 8, 9, 10, 16, 64, 100] {
            let caps = shard_caps(capacity);
            assert_eq!(caps.iter().sum::<usize>(), capacity, "capacity {capacity}");
            assert!(caps.len() <= CACHE_SHARDS);
            assert!(caps.iter().all(|&c| c >= 1));
            // Balanced within one slot.
            let (min, max) = (caps.iter().min().unwrap(), caps.iter().max().unwrap());
            assert!(max - min <= 1);
        }
        assert_eq!(shard_caps(3).len(), 3);
        assert_eq!(shard_caps(64).len(), CACHE_SHARDS);
    }
}
