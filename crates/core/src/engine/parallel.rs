//! The persistent parallel runtime of §3.4.
//!
//! The seed implementation spawned a fresh `crossbeam::scope` with a
//! `Mutex<Vec>` work queue on **every iteration** of Algorithm 1, and its
//! first replacement still spawned a `std::thread::scope` pool on every
//! *run* — four separate spawn sites across the sweep, delta, replay and
//! shard drivers. This module replaces all of them with a single
//! [`Runtime`]: a worker pool spawned **once per engine session** (the
//! only `thread::spawn` call in the crate — `tests/spawn_sites.rs` pins
//! that). Workers park on a condition variable between dispatches and
//! live until the engine is dropped, so per-worker state — the
//! [`OpScratch`] buffers and the dirty-set staging vector in
//! [`WorkerState`] — survives across iterations, runs, reruns and shard
//! visits instead of being reallocated per run.
//!
//! The iteration drivers below are plain sequential coordinators that
//! dispatch one job per iteration: workers pull disjoint slot ranges via
//! a lock-free atomic cursor (chunk size scaled to the worklist length by
//! [`chunk_size`]), and [`Runtime::run`] blocks until every worker has
//! finished, which both publishes the workers' writes and keeps the
//! borrows captured by the job alive for exactly as long as they are
//! used.
//!
//! The bitwise sequential ≡ parallel guarantee is preserved: each slot's
//! new score is a pure function of the previous iteration's buffer (which
//! no worker writes), the cursor hands out disjoint write ranges, and the
//! convergence metric is an order-independent max-reduction.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use super::deps::PairDepCsr;
use super::frontier::{slot_ids, Frontier, Step};
use super::iterate::{ApproxState, Recorder};
use super::rows::Maxima;
use crate::operators::OpScratch;

/// What the iteration drivers evaluate: Equation 3 for one slot against
/// the previous iterate, plus the row maxima its slots may share (see
/// [`super::rows`]). The slot kernel over a dependency CSR or shard is
/// [`SlotEval`](super::deps::SlotEval); any
/// `Fn(slot, prev, scratch) -> score` closure is a kernel without shared
/// rows (the on-the-fly sweep, and the drivers' own tests).
pub(crate) trait SlotKernel: Sync {
    /// The number of row keys whose maxima the slots share; 0 when every
    /// slot is evaluated alone.
    fn row_keys(&self) -> usize {
        0
    }

    /// Row key `key`'s maximum under `prev`.
    fn row_max(&self, _key: usize, _prev: &[f64]) -> f64 {
        0.0
    }

    /// The slot's new score: a pure function of `prev` (and, through
    /// `maxima`, of row maxima under the same `prev`); `scratch` is
    /// reusable buffer space, not state.
    fn eval(&self, slot: usize, prev: &[f64], maxima: Maxima<'_>, scratch: &mut OpScratch) -> f64;
}

impl<F> SlotKernel for F
where
    F: Fn(usize, &[f64], &mut OpScratch) -> f64 + Sync,
{
    fn eval(&self, slot: usize, prev: &[f64], _: Maxima<'_>, scratch: &mut OpScratch) -> f64 {
        self(slot, prev, scratch)
    }
}

/// The row maxima a step that may evaluate `scheduled` of its
/// substrate's `slots` reads. A step covering at least a quarter of the
/// slots — every sweep and dense pull, and the all-slots first iteration
/// of a delta run — gets every key's maximum under `prev` filled in key
/// order into `buf` first, on the pool when one is given (each key
/// written by one worker). A shorter step, or a kernel without row keys,
/// gets a fresh lazy token: each worker fills the keys it reads in its
/// own scratch. The quarter bound keeps short edit-replay steps lazy.
pub(crate) fn step_maxima<'b, K: SlotKernel>(
    kernel: &K,
    prev: &[f64],
    scheduled: usize,
    slots: usize,
    buf: &'b mut Vec<f64>,
    rt: Option<&Runtime>,
) -> Maxima<'b> {
    let n = kernel.row_keys();
    if scheduled * 4 < slots || n == 0 {
        return Maxima::lazy();
    }
    buf.clear();
    match rt {
        Some(rt) => {
            buf.resize(n, 0.0);
            let out = SharedScores::new(buf);
            let chunk = chunk_size(n, rt.threads());
            let cursor = AtomicUsize::new(0);
            rt.run(&|_wid, _ws| loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                for key in start..(start + chunk).min(n) {
                    // SAFETY: cursor ranges are disjoint across workers.
                    unsafe { out.write(key, kernel.row_max(key, prev)) };
                }
            });
        }
        None => buf.extend((0..n).map(|key| kernel.row_max(key, prev))),
    }
    Maxima::Filled(buf)
}

/// What a (sequential or parallel) run of the iteration loop reports.
#[derive(Debug, Clone)]
pub(crate) struct IterationOutcome {
    /// Iterations executed.
    pub iterations: usize,
    /// Whether `Δ < ε` was reached before the cap.
    pub converged: bool,
    /// The final `Δ = max |FSim^k − FSim^{k−1}|` (∞ if no iteration ran).
    pub final_delta: f64,
    /// Pairs re-evaluated per iteration (`|H|` every iteration for the
    /// full sweep; the dirty-worklist length under delta scheduling).
    pub pairs_evaluated: Vec<usize>,
    /// Wall-clock seconds per iteration, aligned with `pairs_evaluated`
    /// (the per-iteration pairs-per-second metric is their ratio). Covers
    /// the whole iteration: repair, evaluation, frontier construction and
    /// trajectory recording.
    pub iter_seconds: Vec<f64>,
    /// Iterations a delta run took as a dense pull (see
    /// [`Frontier`]); 0 for every other driver.
    pub dense_iterations: usize,
}

impl IterationOutcome {
    /// An outcome for a run that executed no iterations.
    pub(crate) fn empty() -> Self {
        Self {
            iterations: 0,
            converged: false,
            final_delta: f64::INFINITY,
            pairs_evaluated: Vec::new(),
            iter_seconds: Vec::new(),
            dense_iterations: 0,
        }
    }
}

/// The cursor chunk for a worklist of `len` slots split over `threads`
/// workers: each pull should own enough pairs to amortize the atomic, but
/// stay fine-grained enough to balance skewed per-pair costs. Scales with
/// the worklist instead of a fixed constant so the late, short iterations
/// of a delta run are not handed out in one oversized piece (the
/// before/after numbers are recorded in `docs/BENCHMARKS.md`).
pub(crate) fn chunk_size(len: usize, threads: usize) -> usize {
    (len / (threads.max(1) * 8)).max(64)
}

/// Live worker threads across all [`Runtime`]s in the process. Spawn
/// increments before the worker parks, exit decrements after shutdown;
/// [`Runtime`]'s `Drop` joins its workers, so after an engine drop the
/// counter observably returns to its prior value
/// (`tests/runtime_shutdown.rs`).
static LIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// The number of parked-or-running runtime worker threads currently alive
/// in the process (diagnostic; see [`FsimEngine`](crate::FsimEngine) for
/// the runtime's lifecycle).
pub fn live_runtime_workers() -> usize {
    LIVE_WORKERS.load(Ordering::SeqCst)
}

/// State a worker owns for its whole lifetime — created when the
/// [`Runtime`] spawns it and reused across every iteration, run and shard
/// visit the session dispatches.
pub(crate) struct WorkerState {
    /// Operator scratch buffers (matcher state, gather values, …).
    pub scratch: OpScratch,
    /// Staging buffer for the slots this worker changed in the current
    /// iteration (drained into the coordinator's sink once per dispatch).
    pub changed: Vec<u32>,
}

impl WorkerState {
    fn new() -> Self {
        Self {
            scratch: OpScratch::new(),
            changed: Vec::new(),
        }
    }
}

/// A job dispatched to the pool: invoked once per worker with the
/// worker's index and its persistent state.
type Job<'a> = dyn Fn(usize, &mut WorkerState) + Sync + 'a;

/// Type-erased pointer to the current dispatch's job. The coordinator
/// blocks in [`Runtime::run`] until every worker has finished, so the
/// pointee outlives every dereference despite the `'static` cast.
#[derive(Clone, Copy)]
struct JobPtr(*const Job<'static>);

// SAFETY: the pointer is only dereferenced by workers while the
// dispatching thread is blocked keeping the pointee alive (see
// `Runtime::run`).
unsafe impl Send for JobPtr {}

/// Dispatch gate shared between the coordinator and the workers.
struct Gate {
    /// Bumped once per dispatch; a worker runs the job iff it has not
    /// seen the current generation yet.
    generation: u64,
    /// The current dispatch's job (valid while `running > 0`).
    job: Option<JobPtr>,
    /// Workers still executing the current generation.
    running: usize,
    /// First panic payload out of the current generation's workers.
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// Set once by `Drop`; workers exit at the next wake-up.
    shutdown: bool,
}

struct Shared {
    gate: Mutex<Gate>,
    /// Workers park here between dispatches.
    go: Condvar,
    /// The coordinator parks here until `running` returns to zero.
    done: Condvar,
}

/// The session-persistent worker pool. Spawned once (lazily, at the first
/// parallel run) and owned by the engine; the configured thread count is
/// a session property — reconfiguring it replaces the runtime.
pub(crate) struct Runtime {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Runtime {
    /// Spawns `threads` parked workers (the crate's only spawn site).
    pub(crate) fn new(threads: usize) -> Self {
        assert!(threads >= 2, "a runtime below two workers is pointless");
        let shared = Arc::new(Shared {
            gate: Mutex::new(Gate {
                generation: 0,
                job: None,
                running: 0,
                panic: None,
                shutdown: false,
            }),
            go: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|wid| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared, wid))
            })
            .collect();
        Self { shared, handles }
    }

    /// The pool's worker count.
    pub(crate) fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Runs `job` once on every worker and blocks until all of them have
    /// finished. The blocking is what makes the borrow-erasure sound: the
    /// job (and everything it captures) outlives every worker's use of
    /// it. A panic inside any worker is re-raised here after the
    /// remaining workers finish the dispatch.
    pub(crate) fn run(&self, job: &Job<'_>) {
        // SAFETY (cast): fat-pointer lifetime erasure only; the pointee
        // is kept alive by this frame until `running == 0` below.
        let ptr =
            JobPtr(unsafe { std::mem::transmute::<*const Job<'_>, *const Job<'static>>(job) });
        {
            let mut g = self.shared.gate.lock().expect("runtime gate");
            debug_assert_eq!(g.running, 0, "overlapping dispatch");
            g.generation += 1;
            g.job = Some(ptr);
            g.running = self.handles.len();
        }
        self.shared.go.notify_all();
        let mut g = self.shared.gate.lock().expect("runtime gate");
        while g.running > 0 {
            g = self.shared.done.wait(g).expect("runtime gate");
        }
        g.job = None;
        if let Some(payload) = g.panic.take() {
            drop(g);
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        {
            let mut g = self.shared.gate.lock().expect("runtime gate");
            g.shutdown = true;
        }
        self.shared.go.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, wid: usize) {
    LIVE_WORKERS.fetch_add(1, Ordering::SeqCst);
    let mut state = WorkerState::new();
    let mut seen = 0u64;
    loop {
        let job = {
            let mut g = shared.gate.lock().expect("runtime gate");
            loop {
                if g.shutdown {
                    drop(g);
                    LIVE_WORKERS.fetch_sub(1, Ordering::SeqCst);
                    return;
                }
                if g.generation != seen {
                    seen = g.generation;
                    break g.job.expect("job set for generation");
                }
                g = shared.go.wait(g).expect("runtime gate");
            }
        };
        // SAFETY: the dispatching thread blocks in `Runtime::run` until
        // `running` returns to zero, keeping the pointee alive.
        let job_ref: &Job<'static> = unsafe { &*job.0 };
        // A panicking job must still complete the dispatch or the
        // coordinator deadlocks; the payload is carried back and
        // re-raised there.
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job_ref(wid, &mut state)));
        let mut g = shared.gate.lock().expect("runtime gate");
        if let Err(payload) = result {
            if g.panic.is_none() {
                g.panic = Some(payload);
            }
        }
        g.running -= 1;
        if g.running == 0 {
            shared.done.notify_all();
        }
    }
}

/// A score buffer shared with the worker pool.
///
/// Workers read the *previous* buffer (never written during an iteration)
/// and write disjoint slot ranges of the *current* buffer, so no location
/// is ever accessed mutably by two parties. `UnsafeCell` expresses exactly
/// that hand-verified aliasing discipline; the dispatch gate's mutex at
/// each iteration boundary publishes the writes.
struct SharedScores<'a> {
    cells: &'a [UnsafeCell<f64>],
}

// SAFETY: all concurrent access follows the disjoint-range discipline
// documented above; `f64` needs no drop or validity bookkeeping.
unsafe impl Sync for SharedScores<'_> {}

impl<'a> SharedScores<'a> {
    fn new(buf: &'a mut [f64]) -> Self {
        let ptr = buf as *mut [f64] as *const [UnsafeCell<f64>];
        // SAFETY: `UnsafeCell<f64>` is `repr(transparent)` over `f64`, and
        // we hold the unique `&mut` borrow for `'a`.
        Self {
            cells: unsafe { &*ptr },
        }
    }

    /// The buffer as a plain slice.
    ///
    /// # Safety
    /// Caller must guarantee no concurrent writes for the borrow's
    /// lifetime (true for the read buffer within one iteration).
    unsafe fn as_read_slice(&self) -> &[f64] {
        std::slice::from_raw_parts(self.cells.as_ptr() as *const f64, self.cells.len())
    }

    /// Writes one slot.
    ///
    /// # Safety
    /// Caller must be the only writer of `slot` this iteration.
    #[inline]
    unsafe fn write(&self, slot: usize, value: f64) {
        *self.cells[slot].get() = value;
    }

    /// Overwrites the whole buffer from `src`.
    ///
    /// # Safety
    /// Caller must guarantee no concurrent access at all (true for the
    /// coordinator between dispatches).
    unsafe fn copy_from(&self, src: &[f64]) {
        debug_assert_eq!(src.len(), self.cells.len());
        let dst = std::slice::from_raw_parts_mut(self.cells.as_ptr() as *mut f64, self.cells.len());
        dst.copy_from_slice(src);
    }
}

/// Runs the full-sweep iteration loop on the session's [`Runtime`].
///
/// `prev` holds `FSim⁰` on entry and the final scores on exit; `cur` is
/// the same-length double buffer. Every iteration is a dense step: the
/// kernel's row maxima are filled first, then every slot is evaluated.
pub(crate) fn run_parallel<K: SlotKernel>(
    rt: &Runtime,
    max_iters: usize,
    epsilon: f64,
    prev: &mut Vec<f64>,
    cur: &mut Vec<f64>,
    kernel: &K,
) -> IterationOutcome {
    let n = prev.len();
    debug_assert_eq!(n, cur.len());
    let chunk = chunk_size(n, rt.threads());
    let buffers = [SharedScores::new(prev), SharedScores::new(cur)];
    let cursor = AtomicUsize::new(0);
    let deltas: Vec<AtomicU64> = (0..rt.threads()).map(|_| AtomicU64::new(0)).collect();
    let mut maxima_buf = Vec::new();

    let mut out = IterationOutcome::empty();
    let mut read = 0usize;
    while out.iterations < max_iters {
        let t0 = Instant::now();
        // SAFETY: no dispatch is in flight, and this iteration's
        // dispatches only read `buffers[read]`.
        let read_buf = unsafe { buffers[read].as_read_slice() };
        let maxima = step_maxima(kernel, read_buf, n, n, &mut maxima_buf, Some(rt));
        cursor.store(0, Ordering::Relaxed);
        rt.run(&|wid, ws| {
            // This iteration writes disjoint cursor ranges of
            // `buffers[1 - read]` only.
            let write = &buffers[1 - read];
            let mut local_delta = 0.0f64;
            loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                for slot in start..end {
                    let score = kernel.eval(slot, read_buf, maxima, &mut ws.scratch);
                    let d = (score - read_buf[slot]).abs();
                    if d > local_delta {
                        local_delta = d;
                    }
                    // SAFETY: `start..end` ranges from the cursor are
                    // disjoint across workers.
                    unsafe { write.write(slot, score) };
                }
            }
            deltas[wid].store(local_delta.to_bits(), Ordering::Relaxed);
        });
        out.final_delta = deltas
            .iter()
            .map(|d| f64::from_bits(d.load(Ordering::Relaxed)))
            .fold(0.0, f64::max);
        out.pairs_evaluated.push(n);
        out.iter_seconds.push(t0.elapsed().as_secs_f64());
        out.iterations += 1;
        read = 1 - read;
        if out.final_delta < epsilon {
            out.converged = true;
            break;
        }
    }

    // The last-written buffer alternates; normalize so `prev` holds the
    // final scores exactly like the sequential path.
    if out.iterations % 2 == 1 {
        std::mem::swap(prev, cur);
    }
    out
}

/// Evaluates an explicit worklist against a read-only previous-iteration
/// buffer, writing `out[i]` for `worklist[i]`. Used by the sharded driver
/// ([`super::shards`]): each slot's value is a pure function of `prev`
/// (Jacobi) and the caller folds the results back in worklist order, so
/// the outcome is bitwise identical to a sequential evaluation regardless
/// of the worker count.
pub(crate) fn eval_worklist_parallel<K: SlotKernel>(
    rt: &Runtime,
    worklist: &[u32],
    prev: &[f64],
    out: &mut [f64],
    kernel: &K,
    maxima: Maxima<'_>,
) {
    debug_assert_eq!(worklist.len(), out.len());
    let n = worklist.len();
    let chunk = chunk_size(n, rt.threads());
    let shared_out = SharedScores::new(out);
    let cursor = AtomicUsize::new(0);
    rt.run(&|_wid, ws| {
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            let end = (start + chunk).min(n);
            for (i, &slot) in worklist.iter().enumerate().take(end).skip(start) {
                let v = kernel.eval(slot as usize, prev, maxima, &mut ws.scratch);
                // SAFETY: cursor ranges are disjoint across workers.
                unsafe { shared_out.write(i, v) };
            }
        }
    });
}

/// Runs the **delta-driven** iteration loop on the session's [`Runtime`].
///
/// Iteration 1 evaluates every slot; iteration `k > 1` evaluates only the
/// dependents (per `csr`'s reverse CSR) of slots whose score changed
/// bitwise in iteration `k−1`, scheduled by the direction-optimizing
/// [`Frontier`]. Slots outside the schedule keep their previous score
/// exactly (the update is a pure function of inputs that did not change),
/// so results are bitwise identical to [`run_parallel`] and to the
/// sequential loops.
///
/// `initial_worklist` and `approx` mirror
/// [`run_delta`](super::iterate::run_delta): a warm-start worklist and
/// ε-aware approximate gating. All scheduling decisions (accumulator
/// arithmetic, threshold crossings, the push/pull direction) are made by
/// the coordinator between dispatches from order-independent reductions,
/// so every mode is bitwise identical to its sequential counterpart.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_parallel_delta<K: SlotKernel>(
    rt: &Runtime,
    max_iters: usize,
    epsilon: f64,
    prev: &mut Vec<f64>,
    cur: &mut Vec<f64>,
    csr: &PairDepCsr,
    mut record: Option<&mut Recorder<'_>>,
    initial_worklist: Option<&[u32]>,
    approx: Option<&mut ApproxState>,
    kernel: &K,
) -> IterationOutcome {
    let lap = Instant::now();
    let n = prev.len();
    debug_assert_eq!(n, cur.len());
    if let Some(h) = record.as_deref_mut() {
        h.push(prev);
    }
    let mut frontier = match initial_worklist {
        Some(slots) => {
            // Warm start: slots outside the worklist must read through the
            // double buffer as-is.
            cur.copy_from_slice(prev);
            Frontier::seeded(n, slots)
        }
        None => Frontier::all(n),
    };
    let buffers = [SharedScores::new(prev), SharedScores::new(cur)];
    let pool = DeltaDispatch::new(rt, csr, &buffers, kernel);
    let mut out = IterationOutcome::empty();
    pool.iterate(
        0,
        &mut frontier,
        record,
        approx,
        &mut out,
        lap,
        max_iters,
        epsilon,
    );
    if out.iterations % 2 == 1 {
        std::mem::swap(prev, cur);
    }
    out
}

/// Parallel **trajectory replay** (see
/// [`run_replay`](super::iterate::run_replay) for the algorithm and the
/// bitwise-identity argument). The worker pool evaluates the per-iteration
/// worklists; the coordinator pre-fills each iteration's write buffer from
/// the recorded trajectory before the dispatch, then scans the completed
/// buffer for the convergence delta and the divergence set between
/// dispatches. Once the trajectory is exhausted the run continues as
/// [`run_parallel_delta`] does.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_parallel_replay<K: SlotKernel>(
    rt: &Runtime,
    max_iters: usize,
    epsilon: f64,
    old_traj: &[Vec<f64>],
    always_dirty: &[u32],
    csr: &PairDepCsr,
    prev: &mut Vec<f64>,
    cur: &mut Vec<f64>,
    mut record: Option<&mut Recorder<'_>>,
    kernel: &K,
) -> IterationOutcome {
    let mut lap = Instant::now();
    let n = prev.len();
    debug_assert_eq!(n, cur.len());
    debug_assert!(old_traj.len() >= 2, "replay needs at least one iterate");
    if let Some(h) = record.as_deref_mut() {
        h.push(prev);
    }
    let (rdo, rd) = (csr.rdep_offsets(), csr.rdeps());
    let mut changed: Vec<u32> = slot_ids(n)
        .filter(|&s| prev[s as usize].to_bits() != old_traj[0][s as usize].to_bits())
        .collect();
    let mut frontier = Frontier::new(n);
    frontier.push_dependents(&mut changed, always_dirty, rdo, rd);

    let buffers = [SharedScores::new(prev), SharedScores::new(cur)];
    let pool = DeltaDispatch::new(rt, csr, &buffers, kernel);
    let mut out = IterationOutcome::empty();
    let mut read = 0usize;
    let mut maxima_buf = Vec::new();
    let hist_iters = old_traj.len() - 1;

    // Phase A: replay along the recorded trajectory. The coordinator
    // pre-fills the write buffer from history between dispatches; worker
    // writes of worklist slots land on top.
    let mut k = 1usize;
    while out.iterations < max_iters && k <= hist_iters {
        let hist = &old_traj[k];
        // SAFETY: no dispatch is in flight.
        unsafe { buffers[1 - read].copy_from(hist) };
        let (_, evaluated) = pool.run(frontier.step(), read, &mut maxima_buf);
        out.pairs_evaluated.push(evaluated);
        // Full scan between dispatches: the convergence delta over all
        // slots, and divergence from the old trajectory for worklist
        // propagation. The workers' changed sets compare against the
        // previous iterate, not the trajectory: drop them.
        pool.take_changed(&mut changed);
        // SAFETY: no dispatch is in flight; both buffers are stable.
        let prev_buf = unsafe { buffers[read].as_read_slice() };
        // SAFETY: as above — both reads share the quiescent window.
        let cur_buf = unsafe { buffers[1 - read].as_read_slice() };
        let mut delta = 0.0f64;
        changed.clear();
        for slot_id in slot_ids(n) {
            let s = slot_id as usize;
            let d = (cur_buf[s] - prev_buf[s]).abs();
            if d > delta {
                delta = d;
            }
            if cur_buf[s].to_bits() != hist[s].to_bits() {
                changed.push(slot_id);
            }
        }
        if let Some(h) = record.as_deref_mut() {
            h.push(cur_buf);
        }
        out.final_delta = delta;
        out.iterations += 1;
        k += 1;
        read = 1 - read;
        let done = delta < epsilon;
        if !done {
            frontier.push_dependents(&mut changed, always_dirty, rdo, rd);
        }
        out.iter_seconds.push(lap.elapsed().as_secs_f64());
        lap = Instant::now();
        if done {
            out.converged = true;
            break;
        }
    }

    // Phase B: history exhausted — the standard dirty iteration of
    // `run_parallel_delta`, seeded from the last two iterates.
    if !out.converged && out.iterations < max_iters {
        // SAFETY: no dispatch is in flight; both buffers are stable.
        let prev_buf = unsafe { buffers[1 - read].as_read_slice() };
        // SAFETY: as above — both reads share the quiescent window.
        let cur_buf = unsafe { buffers[read].as_read_slice() };
        changed.clear();
        changed.extend(
            slot_ids(n)
                .filter(|&s| cur_buf[s as usize].to_bits() != prev_buf[s as usize].to_bits()),
        );
        frontier.advance(&mut changed, rdo, rd);
        pool.iterate(
            read,
            &mut frontier,
            record,
            None,
            &mut out,
            lap,
            max_iters,
            epsilon,
        );
    }

    if out.iterations % 2 == 1 {
        std::mem::swap(prev, cur);
    }
    out
}

/// One delta run's dispatch state: the pool, the dependency structure and
/// the double buffer it iterates over, the kernel, and the coordination
/// the workers share — the cursor, per-worker deltas, the evaluation count
/// and the sink the workers drain their changed slots into.
struct DeltaDispatch<'a, K> {
    rt: &'a Runtime,
    csr: &'a PairDepCsr,
    buffers: &'a [SharedScores<'a>; 2],
    kernel: &'a K,
    cursor: AtomicUsize,
    deltas: Vec<AtomicU64>,
    evaluated: AtomicUsize,
    changed: Mutex<Vec<u32>>,
}

impl<'a, K: SlotKernel> DeltaDispatch<'a, K> {
    fn new(
        rt: &'a Runtime,
        csr: &'a PairDepCsr,
        buffers: &'a [SharedScores<'a>; 2],
        kernel: &'a K,
    ) -> Self {
        Self {
            rt,
            csr,
            buffers,
            kernel,
            cursor: AtomicUsize::new(0),
            deltas: (0..rt.threads()).map(|_| AtomicU64::new(0)).collect(),
            evaluated: AtomicUsize::new(0),
            changed: Mutex::new(Vec::new()),
        }
    }

    /// Evaluates `step` on the pool, reading `buffers[read]` and writing
    /// `buffers[1 - read]`: a sparse step's listed slots (the cursor hands
    /// out worklist ranges), or — for a dense step — every live slot that
    /// reads a changed one (the cursor hands out ranges of the live list;
    /// the caller has copied the changed slots forward, and every other
    /// slot already holds its current value). A long step fills the row
    /// maxima into `maxima_buf` first ([`step_maxima`]). Returns the step's max delta and
    /// the number of slots evaluated; the changed slots wait for
    /// [`take_changed`](Self::take_changed).
    fn run(&self, step: Step<'_>, read: usize, maxima_buf: &mut Vec<f64>) -> (f64, usize) {
        let live = self.csr.live();
        let len = match step {
            Step::Sparse(worklist) => worklist.len(),
            Step::Dense(_) => live.len(),
        };
        // SAFETY: no dispatch is in flight, and this step's dispatches
        // only read `buffers[read]`.
        let read_buf = unsafe { self.buffers[read].as_read_slice() };
        let scheduled = match step {
            Step::Sparse(worklist) => worklist.len(),
            Step::Dense(_) => read_buf.len(),
        };
        let maxima = step_maxima(
            self.kernel,
            read_buf,
            scheduled,
            read_buf.len(),
            maxima_buf,
            Some(self.rt),
        );
        let chunk = chunk_size(len, self.rt.threads());
        self.cursor.store(0, Ordering::Relaxed);
        self.evaluated.store(0, Ordering::Relaxed);
        self.rt.run(&|wid, ws| {
            // This step writes disjoint slots of `buffers[1 - read]` only.
            let write = &self.buffers[1 - read];
            let mut local_delta = 0.0f64;
            let mut evaluated = 0usize;
            ws.changed.clear();
            let mut eval = |slot_id: u32| {
                let slot = slot_id as usize;
                let score = self.kernel.eval(slot, read_buf, maxima, &mut ws.scratch);
                let d = (score - read_buf[slot]).abs();
                if d > local_delta {
                    local_delta = d;
                }
                if score.to_bits() != read_buf[slot].to_bits() {
                    ws.changed.push(slot_id);
                }
                evaluated += 1;
                // SAFETY: the cursor hands each worklist range (sparse) or
                // live-list range (dense) to one worker, and the slots of
                // either list are distinct; the coordinator writes only
                // between dispatches.
                unsafe { write.write(slot, score) };
            };
            loop {
                let start = self.cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= len {
                    break;
                }
                let end = (start + chunk).min(len);
                match step {
                    Step::Sparse(worklist) => {
                        for &slot_id in &worklist[start..end] {
                            eval(slot_id);
                        }
                    }
                    Step::Dense(bits) => {
                        for &slot_id in &live[start..end] {
                            if self.csr.reads_any(slot_id as usize, bits) {
                                eval(slot_id);
                            }
                        }
                    }
                }
            }
            self.deltas[wid].store(local_delta.to_bits(), Ordering::Relaxed);
            self.evaluated.fetch_add(evaluated, Ordering::Relaxed);
            if !ws.changed.is_empty() {
                self.changed
                    .lock()
                    .expect("changed sink")
                    .extend_from_slice(&ws.changed);
            }
        });
        let delta = self
            .deltas
            .iter()
            .map(|d| f64::from_bits(d.load(Ordering::Relaxed)))
            .fold(0.0, f64::max);
        (delta, self.evaluated.load(Ordering::Relaxed))
    }

    /// Moves the last dispatch's changed slots into `into` (replacing its
    /// contents).
    fn take_changed(&self, into: &mut Vec<u32>) {
        into.clear();
        std::mem::swap(into, &mut *self.changed.lock().expect("changed sink"));
    }

    /// The delta iteration from `frontier`'s step on, continuing `out`
    /// with `buffers[read]` holding the current iterate: each iteration
    /// copies the stale slots forward, dispatches the step, and schedules
    /// the next one. `lap` started when the first of these iterations'
    /// work did, so `iter_seconds` covers repair, evaluation, frontier
    /// construction and recording.
    #[allow(clippy::too_many_arguments)]
    fn iterate(
        &self,
        mut read: usize,
        frontier: &mut Frontier,
        mut record: Option<&mut Recorder<'_>>,
        mut approx: Option<&mut ApproxState>,
        out: &mut IterationOutcome,
        mut lap: Instant,
        max_iters: usize,
        epsilon: f64,
    ) {
        let (rdo, rd) = (self.csr.rdep_offsets(), self.csr.rdeps());
        let mut changed: Vec<u32> = Vec::new();
        let mut maxima_buf = Vec::new();
        while out.iterations < max_iters {
            {
                // Repair before the dispatch: copy last iteration's value
                // forward for changed slots that may not be re-evaluated
                // (their two-iterations-old copy in the write buffer is
                // stale).
                // SAFETY: no dispatch is in flight; the coordinator has
                // exclusive access to both buffers.
                let read_buf = unsafe { self.buffers[read].as_read_slice() };
                let write = &self.buffers[1 - read];
                for s in frontier.stale() {
                    // SAFETY: same window — no dispatch in flight, and
                    // stale slots are distinct, so this is the sole
                    // writer of `s`.
                    unsafe { write.write(s, read_buf[s]) };
                }
            }
            let step = frontier.step();
            let (delta, evaluated) = self.run(step, read, &mut maxima_buf);
            out.dense_iterations += usize::from(matches!(step, Step::Dense(_)));
            out.pairs_evaluated.push(evaluated);
            out.final_delta = delta;
            out.iterations += 1;
            read = 1 - read;
            if let Some(h) = record.as_deref_mut() {
                // SAFETY: no dispatch is in flight; the freshly written
                // buffer is stable.
                h.push(unsafe { self.buffers[read].as_read_slice() });
            }
            self.take_changed(&mut changed);
            let done = if let Some(ap) = approx.as_deref_mut() {
                // Approximate error accounting, mirroring the sequential
                // loop: reset evaluated slots, fold this iteration's
                // changes into their dependents' accumulators (per-slot
                // max — order-independent, so bitwise equal to the
                // sequential schedule), then gate the next worklist on the
                // threshold. Runs before the convergence check so the
                // final accumulators certify the returned scores.
                for &s in frontier.worklist() {
                    ap.acc[s as usize] = 0.0;
                }
                // SAFETY: no dispatch is in flight; both buffers are stable.
                let new_buf = unsafe { self.buffers[read].as_read_slice() };
                // SAFETY: as above — both reads share the quiescent window.
                let old_buf = unsafe { self.buffers[1 - read].as_read_slice() };
                ap.begin();
                for &c in &changed {
                    let c = c as usize;
                    let d = (new_buf[c] - old_buf[c]).abs();
                    for &dep in &rd[rdo[c]..rdo[c + 1]] {
                        ap.bump(dep, d);
                    }
                }
                frontier.push_slots(&mut changed, ap.commit());
                delta < ap.stop_delta
            } else if delta < epsilon {
                true
            } else {
                frontier.advance(&mut changed, rdo, rd);
                false
            };
            out.iter_seconds.push(lap.elapsed().as_secs_f64());
            lap = Instant::now();
            if done {
                out.converged = true;
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::DepEntry;

    fn run_seq(
        scores: &mut [f64],
        cur: &mut [f64],
        max_iters: usize,
        epsilon: f64,
        update: impl Fn(usize, &[f64]) -> f64,
    ) -> IterationOutcome {
        let mut out = IterationOutcome::empty();
        while out.iterations < max_iters {
            let mut delta = 0.0f64;
            for slot in 0..scores.len() {
                let s = update(slot, scores);
                delta = delta.max((s - scores[slot]).abs());
                cur[slot] = s;
            }
            scores.copy_from_slice(cur);
            out.final_delta = delta;
            out.pairs_evaluated.push(scores.len());
            out.iter_seconds.push(0.0);
            out.iterations += 1;
            if delta < epsilon {
                out.converged = true;
                break;
            }
        }
        out
    }

    /// A toy contraction: each slot averages itself with its neighbors,
    /// decayed — converges geometrically like the engine's update.
    fn toy_update(slot: usize, prev: &[f64]) -> f64 {
        let n = prev.len();
        let left = prev[(slot + n - 1) % n];
        let right = prev[(slot + 1) % n];
        0.8 * (left + right + prev[slot]) / 3.0
    }

    fn toy(slot: usize, prev: &[f64], _scratch: &mut OpScratch) -> f64 {
        toy_update(slot, prev)
    }

    #[test]
    fn parallel_matches_sequential_bitwise_on_toy_system() {
        let n = 4096;
        let init: Vec<f64> = (0..n).map(|i| (i % 97) as f64 / 97.0).collect();
        let mut seq = init.clone();
        let mut seq_cur = vec![0.0; n];
        let seq_out = run_seq(&mut seq, &mut seq_cur, 25, 1e-6, toy_update);

        let rt = Runtime::new(4);
        let mut par = init.clone();
        let mut par_cur = vec![0.0; n];
        let par_out = run_parallel(&rt, 25, 1e-6, &mut par, &mut par_cur, &toy);

        assert_eq!(seq_out.iterations, par_out.iterations);
        assert_eq!(seq_out.converged, par_out.converged);
        assert_eq!(seq_out.final_delta.to_bits(), par_out.final_delta.to_bits());
        assert_eq!(par_out.iter_seconds.len(), par_out.iterations);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.to_bits(), b.to_bits(), "parallel diverged");
        }
    }

    #[test]
    fn zero_max_iters_is_a_no_op() {
        let rt = Runtime::new(2);
        let mut prev = vec![0.5; 600];
        let original = prev.clone();
        let mut cur = vec![0.0; 600];
        let out = run_parallel(&rt, 0, 1e-3, &mut prev, &mut cur, &toy);
        assert_eq!(out.iterations, 0);
        assert!(!out.converged);
        assert_eq!(prev, original);
    }

    #[test]
    fn odd_iteration_counts_land_in_prev() {
        let n = 1000;
        let init: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let rt = Runtime::new(3);
        for cap in 1..=3 {
            let mut seq = init.clone();
            let mut seq_cur = vec![0.0; n];
            run_seq(&mut seq, &mut seq_cur, cap, 0.0, toy_update);
            let mut par = init.clone();
            let mut par_cur = vec![0.0; n];
            let out = run_parallel(&rt, cap, 0.0, &mut par, &mut par_cur, &toy);
            assert_eq!(out.iterations, cap);
            assert_eq!(seq, par, "cap={cap}");
        }
    }

    /// The ring dependency structure of [`toy_update`] as a dependency
    /// CSR: slot `s` reads, and is read by, `s − 1`, `s` and `s + 1`
    /// (mod n).
    fn toy_csr(n: usize) -> PairDepCsr {
        let ring = move |s: usize| [(s + n - 1) % n, s, (s + 1) % n].map(|d| d as u32);
        let entries = (0..n)
            .flat_map(ring)
            .enumerate()
            .map(|(k, slot)| DepEntry {
                i: (k % 3) as u32,
                j: 0,
                slot,
                cval: 0.0,
            })
            .collect();
        let offsets: Vec<usize> = (0..=n).map(|s| 3 * s).collect();
        PairDepCsr::from_raw_parts(
            offsets.clone(),
            vec![0; n + 1],
            entries,
            Vec::new(),
            vec![[3, 1, 0, 0]; n],
            offsets,
            (0..n).flat_map(ring).collect(),
            n,
        )
        .expect("a well-formed ring")
    }

    #[test]
    fn parallel_delta_matches_sequential_bitwise_on_toy_system() {
        let n = 4096;
        // A locally-perturbed start: most slots begin at the fixpoint-ish
        // plateau so the dirty worklist actually shrinks.
        let init: Vec<f64> = (0..n)
            .map(|i| if i % 511 == 0 { 1.0 } else { 0.0 })
            .collect();
        let mut seq = init.clone();
        let mut seq_cur = vec![0.0; n];
        let seq_out = run_seq(&mut seq, &mut seq_cur, 30, 1e-9, toy_update);

        let csr = toy_csr(n);
        let rt = Runtime::new(4);
        let mut par = init.clone();
        let mut par_cur = vec![0.0; n];
        let mut history: Vec<Vec<f64>> = Vec::new();
        let mut recorder = super::super::iterate::Recorder::new(&mut history, usize::MAX);
        let par_out = run_parallel_delta(
            &rt,
            30,
            1e-9,
            &mut par,
            &mut par_cur,
            &csr,
            Some(&mut recorder),
            None,
            None,
            &toy,
        );
        let _ = recorder;

        assert_eq!(seq_out.iterations, par_out.iterations);
        assert_eq!(seq_out.converged, par_out.converged);
        assert_eq!(seq_out.final_delta.to_bits(), par_out.final_delta.to_bits());
        assert_eq!(par_out.pairs_evaluated.len(), par_out.iterations);
        assert_eq!(par_out.iter_seconds.len(), par_out.iterations);
        assert_eq!(par_out.pairs_evaluated[0], n, "first iteration is full");
        assert!(
            par_out.pairs_evaluated.iter().sum::<usize>() < n * par_out.iterations,
            "dirty scheduling must skip clean slots on this workload"
        );
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.to_bits(), b.to_bits(), "delta runner diverged");
        }
        // The recorded trajectory covers init plus every iterate.
        assert_eq!(history.len(), par_out.iterations + 1);
        assert_eq!(history[0], init);
        assert_eq!(history.last().unwrap(), &par);
    }

    #[test]
    fn parallel_replay_matches_cold_run_on_edited_system() {
        let n = 4096;
        let init: Vec<f64> = (0..n).map(|i| (i % 193) as f64 / 193.0).collect();
        // Record the original system's trajectory.
        let mut base = init.clone();
        let mut base_cur = vec![0.0; n];
        let csr = toy_csr(n);
        let rt = Runtime::new(4);
        let mut history: Vec<Vec<f64>> = Vec::new();
        let mut recorder = super::super::iterate::Recorder::new(&mut history, usize::MAX);
        run_parallel_delta(
            &rt,
            40,
            1e-9,
            &mut base,
            &mut base_cur,
            &csr,
            Some(&mut recorder),
            None,
            None,
            &toy,
        );
        let _ = recorder;
        // "Edit": slot 777's update function changes.
        let edited_update = |slot: usize, prev: &[f64]| {
            if slot == 777 {
                0.5 * toy_update(slot, prev)
            } else {
                toy_update(slot, prev)
            }
        };
        let mut cold = init.clone();
        let mut cold_cur = vec![0.0; n];
        let cold_out = run_seq(&mut cold, &mut cold_cur, 40, 1e-9, edited_update);

        let mut warm = init.clone();
        let mut warm_cur = vec![0.0; n];
        let mut new_traj: Vec<Vec<f64>> = Vec::new();
        let mut new_rec = super::super::iterate::Recorder::new(&mut new_traj, usize::MAX);
        let warm_out = run_parallel_replay(
            &rt,
            40,
            1e-9,
            &history,
            &[777],
            &csr,
            &mut warm,
            &mut warm_cur,
            Some(&mut new_rec),
            &|slot: usize, prev: &[f64], _: &mut OpScratch| edited_update(slot, prev),
        );
        let _ = new_rec;
        assert_eq!(warm_out.iterations, cold_out.iterations);
        assert_eq!(warm_out.converged, cold_out.converged);
        assert_eq!(
            warm_out.final_delta.to_bits(),
            cold_out.final_delta.to_bits()
        );
        for (a, b) in cold.iter().zip(&warm) {
            assert_eq!(a.to_bits(), b.to_bits(), "replay diverged from cold run");
        }
        // The replay evaluates far fewer slots than the cold run.
        assert!(
            warm_out.pairs_evaluated.iter().sum::<usize>()
                < cold_out.pairs_evaluated.iter().sum::<usize>() / 2,
            "replay must skip most of the work"
        );
        // The new trajectory chains: it matches the edited system's run.
        assert_eq!(new_traj.len(), warm_out.iterations + 1);
        assert_eq!(new_traj.last().unwrap(), &warm);
    }

    #[test]
    fn eval_worklist_parallel_matches_sequential_order() {
        let n = 5000;
        let prev: Vec<f64> = (0..n).map(|i| (i % 31) as f64 / 31.0).collect();
        let worklist: Vec<u32> = (0..n as u32).step_by(3).collect();
        let mut seq = vec![0.0; worklist.len()];
        for (i, &s) in worklist.iter().enumerate() {
            seq[i] = toy_update(s as usize, &prev);
        }
        for threads in [2, 3, 7] {
            let rt = Runtime::new(threads);
            let mut par = vec![0.0; worklist.len()];
            eval_worklist_parallel(&rt, &worklist, &prev, &mut par, &toy, Maxima::lazy());
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn worker_state_persists_across_dispatches_and_runs() {
        let rt = Runtime::new(3);
        // First dispatch stamps each worker's persistent staging buffer…
        rt.run(&|wid, ws| {
            ws.changed.clear();
            ws.changed.push(wid as u32);
        });
        // …a full iteration run happens in between (its workers clear and
        // refill `changed`, proving it is the same buffer)…
        let mut prev = vec![0.9; 2000];
        let mut cur = vec![0.0; 2000];
        let half = |_: usize, p: &[f64], _: &mut OpScratch| p[0] * 0.5;
        let out = run_parallel(&rt, 10, 1e-9, &mut prev, &mut cur, &half);
        assert!(out.iterations > 1, "toy system should iterate");
        // …and the scratch allocations observed afterwards are the ones
        // from before: no per-run reallocation means capacity is retained.
        let retained = AtomicUsize::new(0);
        rt.run(&|_wid, ws| {
            if ws.changed.capacity() > 0 || !ws.changed.is_empty() {
                retained.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(
            retained.load(Ordering::Relaxed) >= 1,
            "per-worker state must survive across dispatches"
        );
    }

    #[test]
    fn runtime_repanics_worker_panics() {
        let rt = Runtime::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run(&|wid, _ws| {
                if wid == 0 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err(), "worker panic must surface on dispatch");
        // The pool survives a panicking job: later dispatches still work.
        let count = AtomicUsize::new(0);
        rt.run(&|_wid, _ws| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn chunk_size_scales_with_worklist() {
        assert_eq!(chunk_size(100, 4), 64, "short worklists keep the floor");
        assert!(chunk_size(1_000_000, 4) > chunk_size(10_000, 4));
        // Every slot is covered: threads × chunk ≥ len is not required
        // (workers loop on the cursor), but chunk must never be zero.
        assert!(chunk_size(0, 8) > 0);
    }
}
