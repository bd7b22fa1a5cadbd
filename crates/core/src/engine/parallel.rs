//! The step executor every iteration driver evaluates through, and the
//! session's worker pool it dispatches long steps to.
//!
//! Algorithm 1 is a Jacobi update: each slot's new score is a pure
//! function of the previous iterate (Theorem 1), so the slots of one
//! iteration may be evaluated in any order, on any number of threads,
//! without changing a bit. [`Exec`] evaluates one **step** — a sparse
//! worklist, every live slot of a dense step, or every slot of a sweep
//! ([`Slots`]) — reading `prev`, writing `next`, reporting the max delta
//! and the evaluation count, and tallying the bitwise-changed slots as
//! the calling loop asks ([`Changed`]): not at all, as a list, or only as
//! their dependent count. A step
//! runs **inline** on the calling thread unless it is long enough for
//! [`effective_threads`] to grant it more than one worker; then it runs
//! on the **pool**. The drivers in [`super::iterate`] and
//! [`super::shards`] are written once over the executor and never ask
//! which branch ran.
//!
//! The pool is a [`Runtime`]: workers spawned **once per engine session**
//! (the only `thread::spawn` call in the crate — `tests/spawn_sites.rs`
//! pins that). Workers park on a condition variable between dispatches
//! and live until the engine is dropped, so per-worker state — the
//! [`OpScratch`] buffers and the changed-slot staging vector in
//! [`WorkerState`] — survives across steps, runs and shard visits.
//! Within a pooled step, workers pull disjoint ranges of the step through
//! a lock-free atomic cursor (chunk size scaled to the step length by
//! [`chunk_size`]), and [`Runtime::run`] blocks until every worker has
//! finished, which both publishes the workers' writes and keeps the
//! borrows captured by the job alive for exactly as long as they are
//! used.
//!
//! Both branches produce the same bits: each slot's score depends only on
//! `prev` (which no one writes during a step), every slot of a step has
//! exactly one writer, the max delta and the dependent count are
//! order-independent reductions, and the changed slots form a set whose
//! order no consumer reads.

use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use super::deps::PairDepCsr;
use super::frontier::{slot_ids, Step};
use super::rows::{Maxima, RowKeys};
use crate::operators::OpScratch;

/// What the iteration drivers evaluate: Equation 3 for one slot against
/// the previous iterate, plus the row maxima its slots may share (see
/// [`super::rows`]). The slot kernel over a dependency CSR or shard is
/// [`SlotEval`](super::deps::SlotEval); in the drivers' own tests any
/// `Fn(slot, prev, scratch) -> score` closure is a kernel without shared
/// rows.
pub(crate) trait SlotKernel: Sync {
    /// The row-key table whose maxima the slots share; `None` when every
    /// slot is evaluated alone.
    fn rows(&self) -> Option<&RowKeys> {
        None
    }

    /// The slot's new score: a pure function of `prev` (and, through
    /// `maxima`, of row maxima under the same `prev`); `scratch` is
    /// reusable buffer space, not state.
    fn eval(&self, slot: usize, prev: &[f64], maxima: Maxima<'_>, scratch: &mut OpScratch) -> f64;
}

#[cfg(test)]
impl<F> SlotKernel for F
where
    F: Fn(usize, &[f64], &mut OpScratch) -> f64 + Sync,
{
    fn eval(&self, slot: usize, prev: &[f64], _: Maxima<'_>, scratch: &mut OpScratch) -> f64 {
        self(slot, prev, scratch)
    }
}

/// The row maxima of `rows` a step that may evaluate `scheduled` of its
/// substrate's `slots` reads. A step covering at least a quarter of the
/// slots — every sweep and dense live sweep, and the all-slots first
/// iteration of a delta run — gets every key's maximum under `prev`
/// filled in key order into `buf` first, on the pool when one is given
/// (each key written by one worker). A shorter step, or one without a
/// table, gets a fresh lazy token: each worker fills the keys it reads in
/// its own scratch. The quarter bound keeps short edit-replay steps lazy.
pub(crate) fn step_maxima<'b>(
    rows: Option<&RowKeys>,
    prev: &[f64],
    scheduled: usize,
    slots: usize,
    buf: &'b mut Vec<f64>,
    rt: Option<&Runtime>,
) -> Maxima<'b> {
    let Some(rows) = rows.filter(|_| scheduled * 4 >= slots) else {
        return Maxima::lazy();
    };
    let n = rows.len();
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
                    unsafe { out.write(key, rows.max_of(key, prev)) };
                }
            });
        }
        None => buf.extend((0..n).map(|key| rows.max_of(key, prev))),
    }
    Maxima::Filled(buf)
}

/// What a run of an iteration driver reports.
#[derive(Debug, Clone)]
pub(crate) struct IterationOutcome {
    /// Iterations executed.
    pub iterations: usize,
    /// Whether `Δ < ε` was reached before the cap.
    pub converged: bool,
    /// The final `Δ = max |FSim^k − FSim^{k−1}|` (∞ if no iteration ran).
    pub final_delta: f64,
    /// Pairs re-evaluated per iteration: `|H|` every iteration of the
    /// full sweep. Under delta scheduling, a sparse push counts its
    /// worklist (the dependents of the changed set), and a dense step
    /// counts every live slot ([`PairDepCsr::live`]) — including live
    /// slots outside the dependents, which re-evaluate to the bits they
    /// hold.
    pub pairs_evaluated: Vec<usize>,
    /// Wall-clock seconds per iteration, aligned with `pairs_evaluated`
    /// (the per-iteration pairs-per-second metric is their ratio). Covers
    /// the whole iteration: repair, evaluation, frontier construction and
    /// trajectory recording.
    pub iter_seconds: Vec<f64>,
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
    /// step (drained into the step's sink once per dispatch).
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

/// Pairs each worker should own at least: below two workers' worth,
/// coordinating a dispatch costs more than it saves.
const PAIRS_PER_WORKER: usize = 2048;

/// The worker count actually used for a step of `len` slots: auto-degraded
/// so each worker owns at least [`PAIRS_PER_WORKER`] pairs.
pub(crate) fn effective_threads(cfg_threads: usize, len: usize) -> usize {
    cfg_threads.min((len / PAIRS_PER_WORKER).max(1))
}

/// The slots one step evaluates.
#[derive(Clone, Copy)]
pub(crate) enum Slots<'a> {
    /// Every slot of the buffer (a sweep).
    All,
    /// Exactly these distinct slots (ascending, for locality).
    List(&'a [u32]),
    /// Exactly these live slots, ascending (a dense step; see
    /// [`Step::Dense`]): evaluated like a list, with its row maxima filled
    /// like a sweep's.
    Live(&'a [u32]),
}

impl<'a> Slots<'a> {
    /// A frontier step over `csr`.
    pub(crate) fn of(step: Step<'a>, csr: &'a PairDepCsr) -> Self {
        match step {
            Step::Sparse(worklist) => Slots::List(worklist),
            Step::Dense => Slots::Live(csr.live()),
        }
    }

    /// The step's length over a buffer of `n` slots: the positions it
    /// hands out, and the slot count [`step_maxima`] sizes its fill by
    /// (all `n` for a dense step, as for a sweep).
    fn len(self, n: usize) -> (usize, usize) {
        match self {
            Slots::All => (n, n),
            Slots::List(list) => (list.len(), list.len()),
            Slots::Live(live) => (live.len(), n),
        }
    }
}

/// The step executor (see the module docs): the session's pool, if any,
/// and the calling thread's buffers for inline steps.
pub(crate) struct Exec<'r> {
    rt: Option<&'r Runtime>,
    /// The shortest step that runs on the pool.
    min_pooled: usize,
    /// Operator scratch of inline steps.
    scratch: OpScratch,
    /// Row maxima filled by [`step`](Self::step).
    maxima: Vec<f64>,
}

impl<'r> Exec<'r> {
    /// The executor of a session configured for `threads` workers, over
    /// its pool `rt`: a step of `len` slots runs on the pool iff
    /// `effective_threads(threads, len) > 1`.
    pub(crate) fn new(rt: Option<&'r Runtime>, threads: usize) -> Self {
        Self {
            rt: rt.filter(|_| threads > 1),
            min_pooled: 2 * PAIRS_PER_WORKER,
            scratch: OpScratch::new(),
            maxima: Vec::new(),
        }
    }

    /// An executor that runs steps of at least `min_pooled` slots on `rt`
    /// — the seam that lets tests drive the pool on toy systems.
    #[cfg(test)]
    pub(crate) fn with_min_pooled(rt: Option<&'r Runtime>, min_pooled: usize) -> Self {
        Self {
            min_pooled,
            ..Self::new(rt, 2)
        }
    }

    /// The pool a step of `len` slots runs on; `None` runs it inline.
    pub(crate) fn pool(&self, len: usize) -> Option<&'r Runtime> {
        self.rt.filter(|_| len >= self.min_pooled)
    }

    /// Evaluates one step of `kernel` from `prev` into `next`, filling
    /// the row maxima it reads first ([`step_maxima`]), and tallies the
    /// slots whose new score differs bitwise from `base` — `prev` in the
    /// delta loop, the recorded iterate in replay — as `changed` asks.
    /// Returns the step's max delta against `prev` and the number of
    /// slots evaluated. Slots the step does not evaluate are not written.
    pub(crate) fn step<K: SlotKernel>(
        &mut self,
        kernel: &K,
        slots: Slots<'_>,
        prev: &[f64],
        next: &mut [f64],
        base: &[f64],
        changed: Changed<'_>,
    ) -> (f64, usize) {
        let (len, scheduled) = slots.len(prev.len());
        let rt = self.pool(len);
        let maxima = step_maxima(
            kernel.rows(),
            prev,
            scheduled,
            prev.len(),
            &mut self.maxima,
            rt,
        );
        let input = StepIn {
            kernel,
            slots,
            prev,
            base,
            maxima,
        };
        eval_step(rt, input, next, changed, &mut self.scratch)
    }

    /// [`step`](Self::step) with row maxima the caller filled (the
    /// sharded driver fills one set per iteration for every shard), and
    /// the changed slots taken against `prev` and appended to `changed`.
    pub(crate) fn step_with<K: SlotKernel>(
        &mut self,
        kernel: &K,
        slots: Slots<'_>,
        maxima: Maxima<'_>,
        prev: &[f64],
        next: &mut [f64],
        changed: &mut Vec<u32>,
    ) -> (f64, usize) {
        let rt = self.pool(slots.len(prev.len()).0);
        let input = StepIn {
            kernel,
            slots,
            prev,
            base: prev,
            maxima,
        };
        eval_step(rt, input, next, Changed::List(changed), &mut self.scratch)
    }
}

/// What a step records of the slots whose new score differs bitwise from
/// its `base`.
pub(crate) enum Changed<'a> {
    /// Nothing: a sweep schedules nothing from them.
    Untracked,
    /// Each of them, appended to the list in no particular order.
    List(&'a mut Vec<u32>),
    /// Only their dependent count `Σ |rdeps(c)|`, read off these
    /// reverse-CSR offsets and added to the count: all the direction rule
    /// needs after a dense step.
    Fanout(&'a [usize], &'a mut usize),
}

/// What one step reads: the kernel, the slots it evaluates, the previous
/// iterate, the buffer its changed slots are taken against, and the row
/// maxima.
struct StepIn<'s, K> {
    kernel: &'s K,
    slots: Slots<'s>,
    prev: &'s [f64],
    base: &'s [f64],
    maxima: Maxima<'s>,
}

impl<K> Clone for StepIn<'_, K> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K> Copy for StepIn<'_, K> {}

/// One step, inline (`rt` is `None`) or on the pool.
fn eval_step<K: SlotKernel>(
    rt: Option<&Runtime>,
    input: StepIn<'_, K>,
    next: &mut [f64],
    mut changed: Changed<'_>,
    scratch: &mut OpScratch,
) -> (f64, usize) {
    let len = input.slots.len(input.prev.len()).0;
    let Some(rt) = rt else {
        let write = |slot: usize, score: f64| next[slot] = score;
        let delta = eval_tallied(input, 0..len, scratch, &mut changed, write);
        return (delta, len);
    };
    let out = SharedScores::new(next);
    let chunk = chunk_size(len, rt.threads());
    let cursor = AtomicUsize::new(0);
    let deltas: Vec<AtomicU64> = (0..rt.threads()).map(|_| AtomicU64::new(0)).collect();
    let fanout = AtomicUsize::new(0);
    let (sink, offsets) = match &mut changed {
        Changed::Untracked => (None, None),
        Changed::List(list) => (Some(Mutex::new(std::mem::take(*list))), None),
        Changed::Fanout(offsets, _) => (None, Some(*offsets)),
    };
    rt.run(&|wid, ws| {
        ws.changed.clear();
        let mut worker_fanout = 0usize;
        let mut tally = match (&sink, offsets) {
            (Some(_), _) => Changed::List(&mut ws.changed),
            (None, Some(offsets)) => Changed::Fanout(offsets, &mut worker_fanout),
            (None, None) => Changed::Untracked,
        };
        let mut delta = 0.0f64;
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= len {
                break;
            }
            // SAFETY: the cursor hands each range of positions to one
            // worker, and a step's slots are distinct, so every slot this
            // dispatch writes has exactly one writer; `prev` is a
            // different buffer, read only.
            let write = |slot: usize, score: f64| unsafe { out.write(slot, score) };
            let range = start..(start + chunk).min(len);
            let d = eval_tallied(input, range, &mut ws.scratch, &mut tally, write);
            delta = delta.max(d);
        }
        deltas[wid].store(delta.to_bits(), Ordering::Relaxed);
        fanout.fetch_add(worker_fanout, Ordering::Relaxed);
        if let Some(sink) = &sink {
            if !ws.changed.is_empty() {
                sink.lock()
                    .expect("changed sink")
                    .extend_from_slice(&ws.changed);
            }
        }
    });
    match changed {
        Changed::Untracked => {}
        Changed::List(list) => {
            *list = sink
                .expect("a listing step has a sink")
                .into_inner()
                .expect("changed sink");
        }
        Changed::Fanout(_, total) => *total += fanout.into_inner(),
    }
    let delta = deltas
        .iter()
        .map(|d| f64::from_bits(d.load(Ordering::Relaxed)))
        .fold(0.0, f64::max);
    (delta, len)
}

/// [`eval_range`] with the changed slots tallied as `changed` asks — one
/// instance of the loop per kind of tally, so a sweep's loop carries no
/// changed-slot work and a dense step's no list.
#[inline(always)]
fn eval_tallied<K: SlotKernel>(
    input: StepIn<'_, K>,
    range: Range<usize>,
    scratch: &mut OpScratch,
    changed: &mut Changed<'_>,
    write: impl FnMut(usize, f64),
) -> f64 {
    match changed {
        Changed::Untracked => eval_range(input, range, scratch, write, |_| {}),
        Changed::List(list) => eval_range(input, range, scratch, write, |slot| list.push(slot)),
        Changed::Fanout(offsets, total) => {
            let mut sum = 0usize;
            let count = |slot: u32| sum += offsets[slot as usize + 1] - offsets[slot as usize];
            let delta = eval_range(input, range, scratch, write, count);
            **total += sum;
            delta
        }
    }
}

/// The step body both branches share: evaluates the step's positions
/// `range` (slot ids of a sweep, or positions in a list or the live
/// list), handing each score to `write` and each slot whose score differs
/// bitwise from `base` to `on_change`. Returns the range's max delta
/// against `prev`.
#[inline(always)]
fn eval_range<K: SlotKernel>(
    input: StepIn<'_, K>,
    range: Range<usize>,
    scratch: &mut OpScratch,
    mut write: impl FnMut(usize, f64),
    mut on_change: impl FnMut(u32),
) -> f64 {
    let StepIn {
        kernel,
        slots,
        prev,
        base,
        maxima,
    } = input;
    // Equal lengths let one bounds check cover both reads of a slot.
    assert_eq!(base.len(), prev.len(), "a step compares like buffers");
    let mut delta = 0.0f64;
    let eval = |slot_id: u32| {
        let slot = slot_id as usize;
        let score = kernel.eval(slot, prev, maxima, scratch);
        let d = (score - prev[slot]).abs();
        if d > delta {
            delta = d;
        }
        if score.to_bits() != base[slot].to_bits() {
            on_change(slot_id);
        }
        write(slot, score);
    };
    match slots {
        Slots::All => slot_ids(range.end).skip(range.start).for_each(eval),
        Slots::List(list) | Slots::Live(list) => list[range].iter().copied().for_each(eval),
    }
    delta
}

/// A buffer one pooled dispatch writes — a step's `next`, or its row
/// maxima — shared with the workers for the duration of that dispatch.
///
/// Workers read the step's `prev` (a different buffer, never written
/// during the step) and write distinct slots of this one, so no location
/// is ever accessed mutably by two parties. `UnsafeCell` expresses exactly
/// that hand-verified aliasing discipline; the dispatch gate's mutex at
/// the end of the dispatch publishes the writes.
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

    /// Writes one slot.
    ///
    /// # Safety
    /// Caller must be the only writer of `slot` this dispatch.
    #[inline]
    unsafe fn write(&self, slot: usize, value: f64) {
        *self.cells[slot].get() = value;
    }
}

#[cfg(test)]
mod tests {
    use super::super::iterate::{run_delta, run_replay, run_sweep, Limits, Recorder};
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

    fn limits(max_iters: usize, epsilon: f64) -> Limits {
        Limits { max_iters, epsilon }
    }

    fn assert_same_run(a: &IterationOutcome, b: &IterationOutcome, what: &str) {
        assert_eq!(a.iterations, b.iterations, "{what}");
        assert_eq!(a.converged, b.converged, "{what}");
        assert_eq!(a.final_delta.to_bits(), b.final_delta.to_bits(), "{what}");
        assert_eq!(a.pairs_evaluated, b.pairs_evaluated, "{what}");
    }

    #[test]
    fn pooled_sweep_matches_inline_and_reference_bitwise_on_toy_system() {
        let n = 4096;
        let init: Vec<f64> = (0..n).map(|i| (i % 97) as f64 / 97.0).collect();
        let mut seq = init.clone();
        let mut seq_cur = vec![0.0; n];
        let seq_out = run_seq(&mut seq, &mut seq_cur, 25, 1e-6, toy_update);

        let rt = Runtime::new(4);
        let run = |mut exec: Exec<'_>| {
            let (mut scores, mut cur) = (init.clone(), Vec::new());
            let out = run_sweep(&mut exec, &toy, limits(25, 1e-6), &mut scores, &mut cur);
            (out, scores)
        };
        let (inline, inline_scores) = run(Exec::new(None, 1));
        // 4096 slots on four workers: the default executor pools every step.
        assert!(
            Exec::new(Some(&rt), 4).pool(n).is_some(),
            "must reach the pool"
        );
        let (pooled, pooled_scores) = run(Exec::new(Some(&rt), 4));
        assert_same_run(&inline, &pooled, "inline vs pool");
        assert_eq!(seq_out.iterations, pooled.iterations);
        assert_eq!(seq_out.converged, pooled.converged);
        assert_eq!(seq_out.final_delta.to_bits(), pooled.final_delta.to_bits());
        assert_eq!(pooled.iter_seconds.len(), pooled.iterations);
        for ((a, b), c) in seq.iter().zip(&pooled_scores).zip(&inline_scores) {
            assert_eq!(a.to_bits(), b.to_bits(), "pool diverged");
            assert_eq!(a.to_bits(), c.to_bits(), "inline diverged");
        }
    }

    #[test]
    fn zero_max_iters_is_a_no_op() {
        let rt = Runtime::new(2);
        let mut prev = vec![0.5; 600];
        let original = prev.clone();
        let mut cur = vec![0.0; 600];
        let mut exec = Exec::with_min_pooled(Some(&rt), 1);
        let out = run_sweep(&mut exec, &toy, limits(0, 1e-3), &mut prev, &mut cur);
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
            for min_pooled in [usize::MAX, 1] {
                let mut exec = Exec::with_min_pooled(Some(&rt), min_pooled);
                let mut scores = init.clone();
                let mut cur = vec![0.0; n];
                let out = run_sweep(&mut exec, &toy, limits(cap, 0.0), &mut scores, &mut cur);
                assert_eq!(out.iterations, cap);
                assert_eq!(seq, scores, "cap={cap} min_pooled={min_pooled}");
            }
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
        PairDepCsr::assemble(
            offsets.clone(),
            vec![0; n + 1],
            entries,
            Vec::new(),
            vec![[3, 1, 0, 0]; n],
            offsets,
            (0..n).flat_map(ring).collect(),
        )
    }

    #[test]
    fn pooled_delta_matches_inline_bitwise_on_toy_system() {
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
        let run = |mut exec: Exec<'_>| {
            let (mut scores, mut cur) = (init.clone(), Vec::new());
            let mut history: Vec<Vec<f64>> = Vec::new();
            let mut recorder = Recorder::new(&mut history, usize::MAX);
            let out = run_delta(
                &mut exec,
                &toy,
                &csr,
                limits(30, 1e-9),
                &mut scores,
                &mut cur,
                Some(&mut recorder),
            );
            (out, scores, history)
        };
        let (inline, inline_scores, _) = run(Exec::new(None, 1));
        let (pooled, pooled_scores, history) = run(Exec::with_min_pooled(Some(&rt), 1));
        assert_same_run(&inline, &pooled, "inline vs pool");
        assert_eq!(inline_scores, pooled_scores);

        assert_eq!(seq_out.iterations, pooled.iterations);
        assert_eq!(seq_out.converged, pooled.converged);
        assert_eq!(seq_out.final_delta.to_bits(), pooled.final_delta.to_bits());
        assert_eq!(pooled.pairs_evaluated.len(), pooled.iterations);
        assert_eq!(pooled.iter_seconds.len(), pooled.iterations);
        assert_eq!(pooled.pairs_evaluated[0], n, "first iteration is full");
        assert!(
            pooled.pairs_evaluated.iter().sum::<usize>() < n * pooled.iterations,
            "dirty scheduling must skip clean slots on this workload"
        );
        for (a, b) in seq.iter().zip(&pooled_scores) {
            assert_eq!(a.to_bits(), b.to_bits(), "delta runner diverged");
        }
        // The recorded trajectory covers init plus every iterate.
        assert_eq!(history.len(), pooled.iterations + 1);
        assert_eq!(history[0], init);
        assert_eq!(history.last().unwrap(), &pooled_scores);
    }

    #[test]
    fn pooled_replay_matches_inline_and_cold_run_on_edited_system() {
        let n = 4096;
        let init: Vec<f64> = (0..n).map(|i| (i % 193) as f64 / 193.0).collect();
        // Record the original system's trajectory.
        let mut base = init.clone();
        let mut base_cur = vec![0.0; n];
        let csr = toy_csr(n);
        let rt = Runtime::new(4);
        let mut history: Vec<Vec<f64>> = Vec::new();
        let mut recorder = Recorder::new(&mut history, usize::MAX);
        run_delta(
            &mut Exec::new(Some(&rt), 4),
            &toy,
            &csr,
            limits(40, 1e-9),
            &mut base,
            &mut base_cur,
            Some(&mut recorder),
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

        let replay = |mut exec: Exec<'_>| {
            let (mut warm, mut warm_cur) = (init.clone(), Vec::new());
            let mut new_traj: Vec<Vec<f64>> = Vec::new();
            let mut new_rec = Recorder::new(&mut new_traj, usize::MAX);
            let out = run_replay(
                &mut exec,
                &|slot: usize, prev: &[f64], _: &mut OpScratch| edited_update(slot, prev),
                &csr,
                limits(40, 1e-9),
                &mut history.clone(),
                &[777],
                &mut warm,
                &mut warm_cur,
                Some(&mut new_rec),
            );
            (out, warm, new_traj)
        };
        let (inline, inline_warm, _) = replay(Exec::new(None, 1));
        let (warm_out, warm, new_traj) = replay(Exec::with_min_pooled(Some(&rt), 1));
        assert_same_run(&inline, &warm_out, "inline vs pool");
        assert_eq!(inline_warm, warm);
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
    fn pooled_worklist_step_matches_inline() {
        let n = 5000;
        let prev: Vec<f64> = (0..n).map(|i| (i % 31) as f64 / 31.0).collect();
        let worklist: Vec<u32> = (0..n as u32).step_by(3).collect();
        let step = |mut exec: Exec<'_>| {
            let (mut next, mut changed) = (vec![-1.0; n], Vec::new());
            let slots = Slots::List(&worklist);
            let tally = Changed::List(&mut changed);
            let (delta, evaluated) = exec.step(&toy, slots, &prev, &mut next, &prev, tally);
            changed.sort_unstable();
            (delta.to_bits(), evaluated, next, changed)
        };
        let inline = step(Exec::new(None, 1));
        assert_eq!(inline.1, worklist.len());
        for (s, &v) in inline.2.iter().enumerate() {
            let want = if s % 3 == 0 {
                toy_update(s, &prev)
            } else {
                -1.0
            };
            assert_eq!(v.to_bits(), want.to_bits(), "slot {s}");
        }
        for threads in [2, 3, 7] {
            let rt = Runtime::new(threads);
            let exec = Exec::with_min_pooled(Some(&rt), 1);
            assert!(exec.pool(worklist.len()).is_some(), "must reach the pool");
            let pooled = step(exec);
            assert!(pooled == inline, "threads={threads}");
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
        let mut exec = Exec::with_min_pooled(Some(&rt), 1);
        let out = run_sweep(&mut exec, &half, limits(10, 1e-9), &mut prev, &mut cur);
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
    fn steps_pool_exactly_when_effective_threads_exceeds_one() {
        let rt = Runtime::new(4);
        for len in [0, 1, 4095, 4096, 100_000] {
            let pooled = effective_threads(4, len) > 1;
            assert_eq!(Exec::new(Some(&rt), 4).pool(len).is_some(), pooled, "{len}");
            assert!(Exec::new(Some(&rt), 1).pool(len).is_none(), "one thread");
            assert!(Exec::new(None, 4).pool(len).is_none(), "no runtime");
        }
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
