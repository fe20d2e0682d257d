//! The daemon: a Unix-domain-socket server on a fixed pool of
//! long-lived handler threads, panic containment per request.
//!
//! ## Lifecycle
//!
//! [`Server::bind`] claims the socket path (removing a stale socket
//! file left by a crashed daemon). [`Server::serve`] starts
//! [`pool_size`] handler threads. Each one blocks in `accept`, serves
//! that connection's frames itself, and goes back to `accept`: no
//! thread is spawned per connection and no request path sleeps. A
//! connection that stays silent for [`IDLE_TIMEOUT`], between frames
//! or in the middle of one, is dropped, so slow or idle clients cannot
//! pin the bounded pool for good.
//!
//! Shutdown has three triggers: a `shutdown` request, a signal (see
//! [`install_signal_handlers`]), and a bare store to the flag from
//! [`Server::shutdown_handle`]. The thread that called `serve` watches
//! for them; no request waits on it. It then shuts down every live
//! connection and connects to its own socket once per running handler,
//! which wakes the handlers blocked in `accept` (glibc's `signal()`
//! installs handlers with `SA_RESTART`, so a signal alone does not).
//! `serve` joins the handlers, removes the socket file and returns.
//!
//! ## Panic containment
//!
//! Every request runs under [`catch_unwind`]. A panic inside the
//! pipeline produces a structured error response and *poisons* the
//! project entry the request addressed: its cached state is evicted, so
//! the next request rebuilds from source. The daemon itself keeps
//! serving — one hostile design cannot take down everyone's sessions.

use super::ops;
use super::protocol::{read_frame, write_frame, Request, Response};
use super::store::ProjectStore;
use parking_lot::Mutex;
use std::io;
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::Duration;

/// How long a connection may stay silent, or leave a response unread,
/// before the daemon drops it and frees its handler. A long-lived
/// client that idles longer must reconnect.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(2);

/// How often the thread in [`Server::serve`] checks the shutdown
/// flags. No request waits on this.
const WATCH_PERIOD: Duration = Duration::from_millis(20);

/// Set by the signal handler; checked by every server. Process global
/// because POSIX signal handlers have no closure state.
static SIGNALED: AtomicBool = AtomicBool::new(false);

/// Installs `SIGINT`/`SIGTERM` handlers that request a clean shutdown
/// of every [`Server`] in the process. Uses the C `signal()` entry
/// point directly — the workspace vendors no `libc` crate, and setting
/// one `AtomicBool` is async-signal-safe.
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    extern "C" fn on_signal(_signum: i32) {
        SIGNALED.store(true, Ordering::SeqCst);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// The number of handler threads [`Server::serve`] runs: one per
/// available CPU, and at least two, so one idle connection cannot
/// stall every other client.
pub fn pool_size() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get().max(2))
}

/// A bound daemon, ready to [`serve`](Server::serve).
pub struct Server {
    listener: UnixListener,
    socket_path: PathBuf,
    store: Arc<ProjectStore>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds the socket, replacing a stale socket file if one exists.
    pub fn bind(socket_path: &Path) -> io::Result<Server> {
        // A live daemon would accept; a dead one leaves a file that
        // blocks bind(2). Probe before clobbering.
        if socket_path.exists() {
            if UnixStream::connect(socket_path).is_ok() {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("a daemon is already serving {}", socket_path.display()),
                ));
            }
            std::fs::remove_file(socket_path)?;
        }
        let listener = UnixListener::bind(socket_path)?;
        Ok(Server {
            listener,
            socket_path: socket_path.to_path_buf(),
            store: Arc::new(ProjectStore::new()),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The shared project store (exposed for benches and tests).
    pub fn store(&self) -> Arc<ProjectStore> {
        Arc::clone(&self.store)
    }

    /// A handle that makes [`serve`](Server::serve) return; callable
    /// from any thread.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Requests a clean shutdown of this server.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || SIGNALED.load(Ordering::SeqCst)
    }

    /// Serves clients on [`pool_size`] handler threads until shutdown
    /// is requested, then closes every live connection, joins the
    /// handlers and removes the socket file. Returns the first fatal
    /// `accept` error, after shutting down the same way.
    pub fn serve(&self) -> io::Result<()> {
        let handlers = pool_size();
        let pool = Pool {
            server: self,
            live: Mutex::new((0..handlers).map(|_| None).collect()),
            running: AtomicUsize::new(handlers),
            error: Mutex::new(None),
            watcher: std::thread::current(),
        };
        std::thread::scope(|s| {
            for slot in 0..handlers {
                let pool = &pool;
                s.spawn(move || pool.handle(slot));
            }
            pool.watch();
        });
        std::fs::remove_file(&self.socket_path).ok();
        match pool.error.into_inner() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// What the handlers of one [`Server::serve`] call share with the
/// thread that watches for shutdown.
struct Pool<'a> {
    server: &'a Server,
    /// Each handler's current connection, so shutdown can close it.
    live: Mutex<Vec<Option<UnixStream>>>,
    /// Handlers that have not returned; shutdown wakes this many.
    running: AtomicUsize,
    /// The first fatal `accept` error.
    error: Mutex<Option<io::Error>>,
    /// The thread running [`Pool::watch`].
    watcher: Thread,
}

impl Pool<'_> {
    /// Blocks until a shutdown trigger fires, then unblocks every
    /// handler: live connections are shut down, and each handler
    /// blocked in `accept` gets a connection to return with.
    fn watch(&self) {
        while !self.server.stopping() {
            std::thread::park_timeout(WATCH_PERIOD);
        }
        for stream in self.live.lock().iter().flatten() {
            stream.shutdown(Shutdown::Both).ok();
        }
        for _ in 0..self.running.load(Ordering::SeqCst) {
            UnixStream::connect(&self.server.socket_path).ok();
        }
    }

    /// One handler thread: accept a connection, serve it to the end,
    /// repeat until shutdown.
    fn handle(&self, slot: usize) {
        while !self.server.stopping() {
            let stream = match self.server.listener.accept() {
                Ok((stream, _addr)) => stream,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                    ) =>
                {
                    continue
                }
                Err(e) => {
                    self.error.lock().get_or_insert(e);
                    self.server.request_shutdown();
                    self.watcher.unpark();
                    break;
                }
            };
            // Register before re-checking the flag: either the shutdown
            // sweep sees this stream, or this check sees the flag.
            let Ok(registered) = stream.try_clone() else {
                continue;
            };
            self.live.lock()[slot] = Some(registered);
            if !self.server.stopping()
                && stream.set_read_timeout(Some(IDLE_TIMEOUT)).is_ok()
                && stream.set_write_timeout(Some(IDLE_TIMEOUT)).is_ok()
            {
                self.serve_client(slot, stream);
            }
            self.live.lock()[slot] = None;
        }
        self.running.fetch_sub(1, Ordering::SeqCst);
    }

    /// One client connection: any number of request frames, one
    /// response frame each. Returns when the client closes, on a
    /// transport error or timeout, or after answering a `shutdown`.
    fn serve_client(&self, slot: usize, mut stream: UnixStream) {
        let store = &self.server.store;
        loop {
            let frame = match read_frame(&mut stream) {
                Ok(Some(f)) => f,
                Ok(None) | Err(_) => return,
            };
            let resp = match std::str::from_utf8(&frame) {
                Err(_) => Response::failure("request frame is not UTF-8"),
                Ok(text) => match Request::from_json(text) {
                    Err(e) => Response::failure(format!("bad request: {e}")),
                    Ok(req) if req.cmd == "shutdown" => {
                        // Unregister first so the shutdown sweep cannot
                        // cut this answer off.
                        self.live.lock()[slot] = None;
                        self.server.request_shutdown();
                        self.watcher.unpark();
                        let resp = Response::success("shutting down\n");
                        write_frame(&mut stream, resp.to_json().as_bytes()).ok();
                        return;
                    }
                    Ok(req) => dispatch_guarded(store, &req),
                },
            };
            if write_frame(&mut stream, resp.to_json().as_bytes()).is_err() {
                return;
            }
        }
    }
}

/// Runs one request under `catch_unwind`. On panic: counts it, poisons
/// (evicts) the addressed entry so the next request rebuilds from
/// source, and returns a structured error instead of killing the
/// connection thread.
pub fn dispatch_guarded(store: &ProjectStore, req: &Request) -> Response {
    match catch_unwind(AssertUnwindSafe(|| ops::handle(store, req))) {
        Ok(resp) => resp,
        Err(payload) => {
            store.counters.panics.fetch_add(1, Ordering::Relaxed);
            if let Some(path) = &req.path {
                // Poison-and-rebuild: whatever half-mutated state the
                // panic left behind must not serve another request.
                store.evict(path);
            }
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Response::failure(format!(
                "panic while handling {:?} request: {msg} (cache entry rebuilt)",
                req.cmd
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handler_panic_is_contained_and_poisons_the_entry() {
        let store = ProjectStore::new();
        let mut req = Request::new("ping");
        req.inject_handler_panic = true;
        let resp = dispatch_guarded(&store, &req);
        assert!(!resp.ok);
        assert!(resp.error.contains("panic"), "{}", resp.error);
        assert_eq!(store.stats().panics, 1);
        // The daemon-side dispatcher still answers afterwards.
        let resp = dispatch_guarded(&store, &Request::new("ping"));
        assert!(resp.ok);
    }

    #[test]
    fn bind_refuses_a_live_socket_and_replaces_a_stale_one() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("banger-server-test-{}.sock", std::process::id()));
        std::fs::remove_file(&path).ok();
        let server = Server::bind(&path).unwrap();
        assert!(
            Server::bind(&path).is_err(),
            "second bind on a live socket must fail"
        );
        drop(server);
        // The listener is gone but the file remains: stale, replaceable.
        assert!(path.exists());
        let server = Server::bind(&path).unwrap();
        server.request_shutdown();
        server.serve().unwrap();
        assert!(!path.exists(), "serve removes the socket file on exit");
    }
}
