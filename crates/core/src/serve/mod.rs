//! `banger serve` — a persistent project daemon with content-hashed
//! caches.
//!
//! The paper's non-programmer iterates: edit a design, check it,
//! reschedule, run. Until now every `banger` invocation re-parsed,
//! re-linted, re-compiled and re-scheduled from scratch. This module
//! keeps all of that *resident*, SDFG-style: a long-lived process holds
//! a concurrent [`ProjectStore`] keyed by canonical `.bang` path, with a
//! cache at every pipeline level, and serves check / schedule / run /
//! trace / optimize requests from many simultaneous clients over a
//! Unix-domain socket.
//!
//! ## Cache levels
//!
//! Every request re-reads the project file and rehashes its bytes
//! (FNV-1a 64; no inotify dependency — a stat+read per request is the
//! invalidation probe). On a hash match the warm entry is reused; on a
//! mismatch the entry is rebuilt from the new source and every derived
//! cache below it is discarded.
//!
//! | level | cache | key | invalidated by |
//! |---|---|---|---|
//! | source bytes | content hash | canonical path | file rewrite |
//! | parse | [`Project`](crate::Project) (design + library + machine) | source hash | hash change |
//! | diagnose | `Project::diagnose` memo | source hash | hash change |
//! | compile | `Arc<CompiledProgram>` in the `ProgramLibrary` | program name | hash change |
//! | router + workers | [`Session`](banger_exec::Session) (parked pool, slab store) | source hash | hash change, worker loss |
//! | schedule | rendered schedule + Gantt | (design hash, machine spec, heuristic) | hash change |
//!
//! ## Protocol
//!
//! Length-prefixed JSON (serde-free, same hand-rolled style as the CLI's
//! JSON output): each frame is a big-endian `u32` byte length followed
//! by one UTF-8 JSON object. See [`protocol`] for the request and
//! response schemas. A connection carries any number of request frames;
//! the server answers each with exactly one response frame.
//!
//! The daemon serves connections on a fixed pool of
//! [`pool_size`](server::pool_size) handler threads, one connection per
//! handler at a time; further connections wait in the listen backlog
//! until a handler is free. A connection that sends nothing for
//! [`IDLE_TIMEOUT`](server::IDLE_TIMEOUT) (2 s), between frames or in
//! the middle of one, or leaves a response unread that long, is closed
//! without an answer. A long-lived client that idles longer must
//! reconnect; the CLI's one request per connection never hits it.
//!
//! ## Fault containment
//!
//! Each request is handled under [`std::panic::catch_unwind`]: a panic
//! anywhere in the pipeline produces a structured error response, the
//! affected project entry is poisoned-and-rebuilt (evicted, so the next
//! request reconstructs it from source), and the daemon keeps serving —
//! mirroring the per-task panic attribution inside the executor.
//!
//! ## Quick start
//!
//! ```text
//! banger serve --socket /tmp/banger.sock &
//! banger --connect /tmp/banger.sock check  examples/projects/lu3.bang
//! banger --connect /tmp/banger.sock gantt  examples/projects/lu3.bang -H ETF
//! banger --connect /tmp/banger.sock run    examples/projects/lu3.bang -i A=[..] -i b=[..]
//! banger --connect /tmp/banger.sock shutdown
//! ```
//!
//! Client mode falls back to plain local execution when no daemon
//! answers on the socket, so `--connect` is always safe to add.

pub mod client;
pub mod json;
pub mod ops;
pub mod protocol;
pub mod server;
pub mod store;

pub use client::Client;
pub use protocol::{Request, Response};
pub use server::Server;
pub use store::{content_hash, CacheStats, ProjectStore};

use std::path::PathBuf;

/// The socket path used when `--socket` is not given: `$BANGER_SOCKET`,
/// falling back to `banger.sock` in the system temp directory.
pub fn default_socket_path() -> PathBuf {
    match std::env::var_os("BANGER_SOCKET") {
        Some(p) if !p.is_empty() => PathBuf::from(p),
        _ => std::env::temp_dir().join("banger.sock"),
    }
}
