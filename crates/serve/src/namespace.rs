//! Per-namespace serving state: one engine session, one writer thread,
//! one bounded edit queue, one epoch cell.

use crate::epoch::{Epoch, EpochCell};
use crate::ThreadGuard;
use fsim_core::{FsimEngine, GraphEdit};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Duration;

/// How many queued batches the writer folds into one published epoch at
/// most. Coalescing keeps epoch-publish (an `O(|H|)` snapshot) off the
/// per-batch cost under a hot edit stream; each batch is still applied —
/// and validated — individually, so one bad batch never poisons its
/// neighbors.
const MAX_COALESCE: usize = 16;

/// Why an edit batch was not enqueued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnqueueError {
    /// The bounded queue is at capacity — the backpressure signal the
    /// router turns into **429 Too Many Requests**.
    Full,
    /// The namespace is shutting down.
    ShuttingDown,
}

/// A unit of work for the namespace's writer thread. Snapshot requests
/// ride the same bounded queue as edit batches, so a snapshot observes
/// exactly the state left by the batches enqueued before it — no second
/// engine owner, no locks around the session.
enum WriterCmd {
    /// Apply one edit batch atomically.
    Edits(Vec<GraphEdit>),
    /// Serialize the session to `path` and report the written byte
    /// count (or the error string) on `done`.
    Snapshot {
        path: std::path::PathBuf,
        done: SyncSender<Result<u64, String>>,
    },
}

/// Monotone serving counters, readable via `GET /stats`.
#[derive(Debug, Default)]
pub struct NamespaceStats {
    /// Namespaced read responses served (score/top_k/dump).
    pub reads: AtomicU64,
    /// Edit batches accepted into the queue (202s).
    pub batches_accepted: AtomicU64,
    /// Edit batches rejected because the queue was full (429s).
    pub batches_rejected_full: AtomicU64,
    /// Edit batches the writer applied successfully.
    pub batches_applied: AtomicU64,
    /// Edit batches the writer rejected (`EditError` — e.g. a node id
    /// outside the graph). The batch is dropped; the session is
    /// untouched; the error is kept for `GET /stats`.
    pub batches_failed: AtomicU64,
    /// Epochs published (including the initial convergence).
    pub epochs_published: AtomicU64,
    /// Snapshots written via `POST /namespaces/<ns>/snapshot`.
    pub snapshots_written: AtomicU64,
    /// Most recent apply-time rejection, if any.
    pub last_error: Mutex<Option<String>>,
}

/// One graph-pair namespace: epoch cell + edit queue + writer handle.
pub struct Namespace {
    /// The namespace name (URL `ns` parameter).
    pub name: String,
    /// The reader-facing epoch swap cell.
    pub cell: EpochCell,
    /// Serving counters.
    pub stats: NamespaceStats,
    tx: Mutex<Option<SyncSender<WriterCmd>>>,
    writer: Mutex<Option<JoinHandle<()>>>,
}

impl Namespace {
    /// Converges `engine` (if it has not run yet), publishes epoch 1 and
    /// spawns the namespace's writer thread, which owns the engine from
    /// here on.
    pub fn start(
        name: impl Into<String>,
        engine: FsimEngine<'static>,
        queue_capacity: usize,
        writer_throttle: Duration,
    ) -> std::sync::Arc<Self> {
        let live = std::sync::Arc::default();
        Self::start_counted(name, engine, queue_capacity, writer_throttle, &live)
    }

    /// [`start`](Self::start) with the writer counted in `live` (its
    /// daemon's live-thread counter) as well as process-wide.
    pub(crate) fn start_counted(
        name: impl Into<String>,
        mut engine: FsimEngine<'static>,
        queue_capacity: usize,
        writer_throttle: Duration,
        live: &std::sync::Arc<AtomicUsize>,
    ) -> std::sync::Arc<Self> {
        if !engine.has_run() {
            engine.run();
        }
        let ns = std::sync::Arc::new(Namespace {
            name: name.into(),
            cell: EpochCell::new(Epoch {
                snapshot: engine.snapshot_shared(),
                epoch_id: 1,
                batches_applied: 0,
            }),
            stats: NamespaceStats::default(),
            tx: Mutex::new(None),
            writer: Mutex::new(None),
        });
        ns.stats.epochs_published.store(1, Ordering::SeqCst);
        let (tx, rx) = sync_channel(queue_capacity.max(1));
        let writer_ns = std::sync::Arc::clone(&ns);
        let live = std::sync::Arc::clone(live);
        let handle = std::thread::spawn(move || {
            let _guard = ThreadGuard::new(&live);
            writer_loop(writer_ns, engine, rx, writer_throttle);
        });
        *lock(&ns.tx) = Some(tx);
        *lock(&ns.writer) = Some(handle);
        ns
    }

    /// Enqueues an edit batch for the writer; non-blocking.
    pub fn enqueue(&self, edits: Vec<GraphEdit>) -> Result<(), EnqueueError> {
        match self.send(WriterCmd::Edits(edits)) {
            Ok(()) => {
                self.stats.batches_accepted.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
            Err(e) => {
                if e == EnqueueError::Full {
                    self.stats
                        .batches_rejected_full
                        .fetch_add(1, Ordering::SeqCst);
                }
                Err(e)
            }
        }
    }

    /// Asks the writer to snapshot the session to `path` and waits for
    /// the result: the written byte count, or the engine's error
    /// string. The request rides the edit queue, so the snapshot
    /// captures exactly the state after every previously enqueued batch
    /// — and the same backpressure applies ([`EnqueueError::Full`] when
    /// the queue is at capacity).
    pub fn snapshot_to(
        &self,
        path: std::path::PathBuf,
    ) -> Result<Result<u64, String>, EnqueueError> {
        let (done, rx) = sync_channel(1);
        self.send(WriterCmd::Snapshot { path, done })?;
        match rx.recv() {
            Ok(result) => {
                if result.is_ok() {
                    self.stats.snapshots_written.fetch_add(1, Ordering::SeqCst);
                }
                Ok(result)
            }
            // Writer gone without replying — shutdown raced the request.
            Err(_) => Err(EnqueueError::ShuttingDown),
        }
    }

    fn send(&self, cmd: WriterCmd) -> Result<(), EnqueueError> {
        let guard = lock(&self.tx);
        let Some(tx) = guard.as_ref() else {
            return Err(EnqueueError::ShuttingDown);
        };
        match tx.try_send(cmd) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => Err(EnqueueError::Full),
            Err(TrySendError::Disconnected(_)) => Err(EnqueueError::ShuttingDown),
        }
    }

    /// Drain-and-join: closes the queue (no new batches), lets the
    /// writer apply everything still queued, and joins it. Idempotent.
    pub fn shutdown(&self) {
        drop(lock(&self.tx).take());
        if let Some(handle) = lock(&self.writer).take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Namespace {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Namespace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Namespace")
            .field("name", &self.name)
            .field("epoch", &self.cell.load().epoch_id)
            .finish()
    }
}

/// The single-writer loop: drain a bounded batch window, apply each
/// batch atomically, publish one epoch per window. Exits — after
/// draining everything still queued — when every sender is gone.
fn writer_loop(
    ns: std::sync::Arc<Namespace>,
    mut engine: FsimEngine<'static>,
    rx: Receiver<WriterCmd>,
    throttle: Duration,
) {
    let mut epoch_id = 1u64;
    let mut applied = 0u64;
    while let Ok(first) = rx.recv() {
        if !throttle.is_zero() {
            // Test hook: hold the queue occupied so backpressure paths
            // can be driven deterministically.
            std::thread::sleep(throttle);
        }
        let mut window = vec![first];
        while window.len() < MAX_COALESCE {
            match rx.try_recv() {
                Ok(cmd) => window.push(cmd),
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
            }
        }
        let mut last_result = None;
        for cmd in window {
            let batch = match cmd {
                WriterCmd::Edits(batch) => batch,
                WriterCmd::Snapshot { path, done } => {
                    let result = engine
                        .write_snapshot(&path)
                        .map(|()| std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0))
                        .map_err(|e| e.to_string());
                    // The requester may have timed out and gone away.
                    let _ = done.send(result);
                    continue;
                }
            };
            match engine.apply_edits(&batch) {
                Ok(result) => {
                    applied += 1;
                    last_result = Some(result);
                }
                Err(e) => {
                    ns.stats.batches_failed.fetch_add(1, Ordering::SeqCst);
                    *lock(&ns.stats.last_error) = Some(e.to_string());
                }
            }
        }
        if let Some(result) = last_result {
            epoch_id += 1;
            ns.cell.publish(Epoch {
                // The apply result already owns a store+scores copy;
                // move it into the epoch instead of re-snapshotting.
                snapshot: result.into_snapshot(),
                epoch_id,
                batches_applied: applied,
            });
            ns.stats.batches_applied.store(applied, Ordering::SeqCst);
            ns.stats.epochs_published.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Mutex lock that strips poison: every guarded value here (queue
/// handle, join handle, last-error string) stays valid across a peer's
/// panic.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsim_core::{FsimConfig, GraphSide, Variant};
    use fsim_graph::graph_from_parts;
    use fsim_labels::LabelFn;

    fn engine() -> FsimEngine<'static> {
        let g = graph_from_parts(&["a", "b", "a"], &[(0, 1), (1, 2)]);
        let cfg = FsimConfig::new(Variant::Simple).label_fn(LabelFn::Indicator);
        FsimEngine::new_owned(g.clone(), g, &cfg).unwrap()
    }

    #[test]
    fn edits_advance_epochs_and_drain_on_shutdown() {
        let ns = Namespace::start("t", engine(), 8, Duration::ZERO);
        assert_eq!(ns.cell.load().epoch_id, 1);
        ns.enqueue(vec![GraphEdit::add_edge(GraphSide::Right, 2, 0)])
            .unwrap();
        ns.enqueue(vec![GraphEdit::remove_edge(GraphSide::Right, 2, 0)])
            .unwrap();
        ns.shutdown();
        let last = ns.cell.load();
        assert_eq!(last.batches_applied, 2, "shutdown must drain the queue");
        assert!(last.epoch_id >= 2);
    }

    #[test]
    fn invalid_batch_is_rejected_without_killing_the_writer() {
        let ns = Namespace::start("t", engine(), 8, Duration::ZERO);
        ns.enqueue(vec![GraphEdit::add_edge(GraphSide::Right, 99, 0)])
            .unwrap();
        ns.enqueue(vec![GraphEdit::add_edge(GraphSide::Right, 2, 0)])
            .unwrap();
        ns.shutdown();
        assert_eq!(ns.stats.batches_failed.load(Ordering::SeqCst), 1);
        assert_eq!(ns.cell.load().batches_applied, 1);
        assert!(lock(&ns.stats.last_error).as_deref().is_some());
    }

    #[test]
    fn full_queue_reports_backpressure() {
        let ns = Namespace::start("t", engine(), 1, Duration::from_millis(300));
        // First batch occupies the writer (throttle), second fills the
        // queue slot, third must bounce.
        let batch = || vec![GraphEdit::add_edge(GraphSide::Right, 2, 0)];
        ns.enqueue(batch()).unwrap();
        let mut saw_full = false;
        for _ in 0..50 {
            match ns.enqueue(batch()) {
                Err(EnqueueError::Full) => {
                    saw_full = true;
                    break;
                }
                Ok(()) => {}
                Err(EnqueueError::ShuttingDown) => unreachable!(),
            }
        }
        assert!(
            saw_full,
            "a capacity-1 queue under a throttled writer must fill"
        );
        ns.shutdown();
    }
}
