//! `lumos-serve` — the persistent what-if estimation daemon.
//!
//! A long-running, hermetic (std-only) server that loads
//! [`CalibrationArtifact`](lumos_calib::CalibrationArtifact)s from a
//! registry directory at startup and answers `predict` / `search` /
//! `refine` requests over line-delimited JSON on TCP: one request
//! object per line in, one response object per line out, in request
//! order per connection.
//!
//! The moving parts:
//!
//! - [`Registry`] — digest-keyed artifact table with hot reload: the
//!   `reload` admin request atomically swaps the table behind `Arc`s,
//!   so in-flight requests finish against the artifact they pinned
//!   while new requests see the new table.
//! - a bounded worker pool reusing the atomic-cursor search evaluator;
//!   a full queue sheds load with a typed `overloaded` response, and
//!   per-request deadlines cancel streaming search cooperatively via
//!   [`SearchOptions::deadline`](lumos_search::SearchOptions).
//! - [`ServerStats`] — uptime, queue depth, served/rejected counts,
//!   per-artifact memo hit rates, and p50/p95/p99 latency per request
//!   kind from fixed-bucket histograms, behind the `stats` request.
//!
//! Daemon responses are byte-identical to `lumos predict --json` /
//! `lumos search --json` against the same artifact: both sides read
//! the request through the same [`protocol`] types and knob rules,
//! and encode through [`protocol::response_line`] on the same
//! response structs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;
pub mod protocol;
mod registry;
mod server;
mod stats;

pub use registry::{LoadedArtifact, Registry, ReloadOutcome};
pub use server::Server;
pub use stats::{Histogram, ServerStats, KIND_NAMES};

use std::fmt;
use std::path::PathBuf;

/// How to run the daemon: where to listen, what to serve, how much
/// concurrency to allow.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind, e.g. `127.0.0.1:7700` (port `0` picks a free
    /// port; read it back via [`Server::local_addr`]).
    pub addr: String,
    /// Directory scanned for `*.json` calibration artifacts.
    pub registry_dir: PathBuf,
    /// Worker threads draining the compute queue (min 1).
    pub workers: usize,
    /// Bounded queue capacity; a full queue sheds with `overloaded`.
    pub queue_capacity: usize,
    /// Thread count handed to each search run (`None` = search default).
    pub search_threads: Option<usize>,
}

impl ServeConfig {
    /// A config with the default pool sizing (2 workers, queue of 32)
    /// for the given address and registry directory.
    pub fn new(addr: impl Into<String>, registry_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            addr: addr.into(),
            registry_dir: registry_dir.into(),
            workers: 2,
            queue_capacity: 32,
            search_threads: None,
        }
    }
}

/// Errors from binding or running the daemon.
#[derive(Debug)]
pub enum ServeError {
    /// A socket operation failed.
    Io {
        /// What the daemon was doing when it failed.
        context: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The registry directory itself could not be read.
    Registry(lumos_calib::CalibError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io { context, source } => write!(f, "{context}: {source}"),
            ServeError::Registry(err) => write!(f, "registry scan failed: {err}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io { source, .. } => Some(source),
            ServeError::Registry(err) => Some(err),
        }
    }
}
