//! The worker-process entry point.
//!
//! [`crate::socket::SocketExecutor`] re-spawns the **current executable** in
//! worker mode, signalled by [`crate::socket::SOCKET_WORKER_ENV`]. Binaries
//! opt in by calling [`maybe_serve_worker`] first thing in `main`:
//!
//! ```no_run
//! // first statement of the driver's `main`:
//! rough_engine::subprocess::maybe_serve_worker();
//! // ... normal driver logic ...
//! ```
//!
//! Integration tests opt in with a dedicated `#[test]` entry (a no-op unless
//! the worker variable is set) and point the executor at it:
//!
//! ```ignore
//! #[test]
//! fn worker_entry() {
//!     rough_engine::subprocess::maybe_serve_worker();
//! }
//! // parent side:
//! let executor = SocketExecutor::new(2)
//!     .with_args(["worker_entry", "--exact", "--nocapture"]);
//! ```

/// Serves the socket-worker protocol and exits the process — **when**
/// [`crate::socket::SOCKET_WORKER_ENV`] is set; a no-op otherwise. Call it
/// first thing in every binary that may host a
/// [`crate::socket::SocketExecutor`].
pub fn maybe_serve_worker() {
    let Ok(spec) = std::env::var(crate::socket::SOCKET_WORKER_ENV) else {
        return;
    };
    std::process::exit(crate::socket::worker_main(&spec));
}
