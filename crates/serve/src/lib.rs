//! `fsimd` — a long-lived similarity-serving daemon over [`fsim_core`]
//! engine sessions.
//!
//! A [`Daemon`] listens on one TCP socket (hand-rolled HTTP/1.1 — the
//! build environment vendors no network dependencies) and serves one
//! [`FsimEngine`](fsim_core::FsimEngine) per graph-pair **namespace**.
//! Concurrency is epoch/snapshot:
//!
//! * **Readers** (`GET /score`, `GET /top_k`, …) answer from the
//!   namespace's current [`Epoch`] — an immutable, `Arc`-shared
//!   [`ScoreSnapshot`](fsim_core::ScoreSnapshot) plus its `epoch_id` and
//!   cumulative edit count. Loading the epoch is an `Arc` clone behind a
//!   briefly-held `RwLock` read guard; a reader is never blocked by an
//!   in-flight convergence, and every field of a response comes from the
//!   one epoch it loaded (no torn reads, by construction).
//! * **One writer thread per namespace** owns the engine. `POST /edits`
//!   enqueues a [`GraphEdit`](fsim_core::GraphEdit) batch into a
//!   *bounded* queue (**429** once full — the backpressure contract);
//!   the writer drains batches, re-converges via
//!   [`apply_edits`](fsim_core::FsimEngine::apply_edits) and publishes
//!   the next epoch with one pointer swap.
//!
//! Every namespaced response carries the `X-Fsim-Epoch`,
//! `X-Fsim-Error-Bound` and `X-Fsim-Score-Hash` headers: under
//! [`ConvergenceMode::Approximate`](fsim_core::ConvergenceMode), which
//! stops each convergence early at a relaxed ε, the error bound is the
//! epoch's certified sup-norm distance from the exact scores (the Banach
//! bound of the contraction, from the epoch's last delta) — a
//! per-response freshness SLA rather than an offline report.
//!
//! Shutdown is drain-and-join: [`Daemon::shutdown`] stops the accept
//! loop, joins every connection thread, lets each writer drain its
//! remaining queue, and joins it. [`Daemon::live_threads`] counts one
//! daemon's live threads, and [`live_daemon_threads`] every daemon's in
//! the process, the same way
//! [`live_runtime_workers`](fsim_core::live_runtime_workers) counts
//! engine workers, so tests can pin "no leaked threads" exactly.

#![warn(missing_docs)]

pub mod client;
mod daemon;
mod epoch;
pub mod http;
pub mod json;
mod namespace;

pub use daemon::{Daemon, ServerConfig};
pub use epoch::{Epoch, EpochCell};
pub use namespace::{EnqueueError, Namespace, NamespaceStats};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static LIVE_DAEMON_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Number of live daemon-owned threads (accept loops, connection
/// handlers, namespace writers) across the process — the serving twin of
/// [`fsim_core::live_runtime_workers`], and a process-wide diagnostic:
/// other daemons of the process count too. A daemon's own threads are
/// [`Daemon::live_threads`].
pub fn live_daemon_threads() -> usize {
    LIVE_DAEMON_THREADS.load(Ordering::SeqCst)
}

/// RAII increment of the process-wide live-thread counter and of the
/// owning daemon's; constructed first thing on every spawned daemon
/// thread so panics still decrement on unwind.
pub(crate) struct ThreadGuard(Arc<AtomicUsize>);

impl ThreadGuard {
    pub(crate) fn new(owner: &Arc<AtomicUsize>) -> Self {
        LIVE_DAEMON_THREADS.fetch_add(1, Ordering::SeqCst);
        owner.fetch_add(1, Ordering::SeqCst);
        ThreadGuard(Arc::clone(owner))
    }
}

impl Drop for ThreadGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
        LIVE_DAEMON_THREADS.fetch_sub(1, Ordering::SeqCst);
    }
}
