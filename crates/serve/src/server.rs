//! The TCP server loop: accept connections, parse request lines,
//! answer admin requests inline, and feed compute requests through
//! the bounded pool.
//!
//! Wire format: one JSON request object per line in, one JSON response
//! object per line out, in request order per connection. Admin
//! requests (`stats`, `reload`, `shutdown`) are answered by the
//! connection thread itself — they must stay responsive when the pool
//! is saturated, which is exactly when an operator needs them.

use crate::pool::{Job, Pool};
use crate::protocol::{
    self, ArtifactStatsBody, ErrorResponse, KindStatsBody, Query, ReloadRejectBody, ReloadResponse,
    Request, ShutdownResponse, StatsResponse,
};
use crate::registry::{Registry, ReloadOutcome};
use crate::stats::{ServerStats, KIND_NAMES};
use crate::{ServeConfig, ServeError};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The running daemon: a bound listener, the artifact registry, the
/// worker pool, and the shared counters.
pub struct Server {
    listener: TcpListener,
    registry: Arc<Registry>,
    stats: Arc<ServerStats>,
    pool: Arc<Pool>,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listener, scans the registry directory, and spawns
    /// the worker pool. Returns the server plus the initial scan
    /// outcome (loaded digests, rejected files) so the caller can
    /// report them.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] when the address cannot be bound and
    /// [`ServeError::Registry`] when the directory cannot be read.
    pub fn bind(config: &ServeConfig) -> Result<(Server, ReloadOutcome), ServeError> {
        let listener = TcpListener::bind(&config.addr).map_err(|source| ServeError::Io {
            context: format!("binding {}", config.addr),
            source,
        })?;
        let (registry, outcome) = Registry::open(&config.registry_dir)?;
        let stats = Arc::new(ServerStats::new());
        let pool = Arc::new(Pool::new(
            config.workers,
            config.queue_capacity,
            Arc::clone(&stats),
            config.search_threads,
        ));
        Ok((
            Server {
                listener,
                registry: Arc::new(registry),
                stats,
                pool,
                stop: Arc::new(AtomicBool::new(false)),
            },
            outcome,
        ))
    }

    /// The bound address (resolves port 0 to the actual port).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] when the socket cannot report it.
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        self.listener.local_addr().map_err(|source| ServeError::Io {
            context: "resolving local address".to_string(),
            source,
        })
    }

    /// Serves until a `shutdown` request stops the loop. Each
    /// connection gets its own thread; compute concurrency is bounded
    /// by the pool, not the connection count.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] on accept failures.
    pub fn run(self) -> Result<(), ServeError> {
        let addr = self.local_addr()?;
        loop {
            let (stream, _) = self.listener.accept().map_err(|source| ServeError::Io {
                context: "accepting connection".to_string(),
                source,
            })?;
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            let conn = Connection {
                registry: Arc::clone(&self.registry),
                stats: Arc::clone(&self.stats),
                pool: Arc::clone(&self.pool),
                stop: Arc::clone(&self.stop),
                addr,
            };
            std::thread::spawn(move || conn.serve(stream));
        }
        Ok(())
    }
}

/// Per-connection state: shared handles plus the server address used
/// to poke the accept loop awake on shutdown.
struct Connection {
    registry: Arc<Registry>,
    stats: Arc<ServerStats>,
    pool: Arc<Pool>,
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl Connection {
    fn serve(&self, stream: TcpStream) {
        let Ok(mut writer) = stream.try_clone() else {
            return;
        };
        let reader = BufReader::new(stream);
        for line in reader.lines() {
            let Ok(line) = line else { return };
            if line.trim().is_empty() {
                continue;
            }
            let (response, shutdown) = self.answer(&line);
            if writeln!(writer, "{response}").is_err() || writer.flush().is_err() {
                return;
            }
            if shutdown {
                self.stop.store(true, Ordering::Relaxed);
                // The accept loop is blocked in `accept`; one throwaway
                // connection wakes it so it can observe the flag.
                let _ = TcpStream::connect(self.addr);
                return;
            }
        }
    }

    /// Answers one request line; the bool asks the caller to shut the
    /// daemon down after writing the response. A line that fails to
    /// parse or breaks a knob rule is answered `bad_request` here and
    /// never takes a queue slot.
    fn answer(&self, line: &str) -> (String, bool) {
        let request = match protocol::parse_request(line) {
            Ok(request) => request,
            Err(detail) => {
                return (
                    protocol::response_line(&ErrorResponse::new("bad_request", detail)),
                    false,
                )
            }
        };
        match request {
            Request::Stats => (protocol::response_line(&self.stats_response()), false),
            Request::Reload => (self.reload_response(), false),
            Request::Shutdown => (
                protocol::response_line(&ShutdownResponse {
                    kind: "shutdown".to_string(),
                }),
                true,
            ),
            Request::Compute {
                artifact,
                deadline_ms,
                query,
            } => (self.dispatch(&artifact, deadline_ms, query), false),
        }
    }

    /// Pins the artifact, enqueues the job, and waits for its reply —
    /// shedding typed errors when the digest is unknown or the queue
    /// is full, and answering `deadline_exceeded` itself when the
    /// deadline passes while the job is still queued.
    fn dispatch(&self, digest: &str, deadline_ms: Option<u64>, query: Query) -> String {
        let Some(artifact) = self.registry.get(digest) else {
            return protocol::response_line(&ErrorResponse::new(
                "unknown_artifact",
                format!("no artifact with digest {digest} is loaded (try `reload`)"),
            ));
        };
        let (reply_tx, reply_rx) = mpsc::channel();
        let enqueued = Instant::now();
        let deadline = deadline_ms.map(|ms| enqueued + Duration::from_millis(ms));
        let taken = Arc::new(AtomicBool::new(false));
        let job = Job {
            artifact,
            query,
            enqueued,
            deadline,
            reply: reply_tx,
            taken: Arc::clone(&taken),
        };
        self.stats.enqueue();
        if self.pool.submit(job).is_err() {
            self.stats.dequeue();
            self.stats.record_overloaded();
            return protocol::response_line(&ErrorResponse::new(
                "overloaded",
                "request queue is full; retry later",
            ));
        }
        let reply = match deadline {
            Some(deadline) => {
                match reply_rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                    // Still queued: the job is this connection's to answer.
                    Err(RecvTimeoutError::Timeout) if !taken.swap(true, Ordering::AcqRel) => {
                        self.stats.record_deadline_exceeded();
                        return protocol::response_line(&ErrorResponse::new(
                            "deadline_exceeded",
                            "request expired while queued",
                        ));
                    }
                    // Running: the search stops at its own deadline.
                    Err(RecvTimeoutError::Timeout) => reply_rx.recv().ok(),
                    reply => reply.ok(),
                }
            }
            None => reply_rx.recv().ok(),
        };
        reply.unwrap_or_else(|| {
            protocol::response_line(&ErrorResponse::new(
                "internal",
                "worker dropped the request",
            ))
        })
    }

    fn stats_response(&self) -> StatsResponse {
        StatsResponse {
            kind: "stats".to_string(),
            uptime_secs: self.stats.uptime_secs(),
            queue_depth: self.stats.queue_depth(),
            queue_capacity: self.pool.queue_capacity(),
            workers: self.pool.worker_count(),
            served: (0..KIND_NAMES.len()).map(|s| self.stats.served(s)).sum(),
            rejected_overloaded: self.stats.overloaded(),
            deadline_exceeded: self.stats.deadline_exceeded(),
            artifacts: self
                .registry
                .snapshot()
                .iter()
                .map(|la| {
                    let memo = la.shared_memo.stats();
                    let total = memo.hits + memo.misses;
                    ArtifactStatsBody {
                        digest: la.digest.clone(),
                        schedule: la.calibration.base().schedule.name().to_string(),
                        memo_hits: memo.hits as u64,
                        memo_misses: memo.misses as u64,
                        memo_hit_rate: if total == 0 {
                            0.0
                        } else {
                            memo.hits as f64 / total as f64
                        },
                    }
                })
                .collect(),
            request_kinds: KIND_NAMES
                .iter()
                .enumerate()
                .map(|(slot, kind)| KindStatsBody {
                    kind: kind.to_string(),
                    served: self.stats.served(slot),
                    p50_us: self.stats.quantile_us(slot, 0.50),
                    p95_us: self.stats.quantile_us(slot, 0.95),
                    p99_us: self.stats.quantile_us(slot, 0.99),
                })
                .collect(),
            adaptive_runs: self.stats.adaptive_runs(),
            adaptive_visited: self.stats.adaptive_visited(),
            adaptive_frontier: self.stats.adaptive_frontier(),
            fault_runs: self.stats.fault_runs(),
            fault_replicas_executed: self.stats.fault_replicas_executed(),
        }
    }

    fn reload_response(&self) -> String {
        match self.registry.reload() {
            Ok(outcome) => protocol::response_line(&ReloadResponse {
                kind: "reload".to_string(),
                loaded: outcome.loaded,
                kept: outcome.kept,
                dropped: outcome.dropped,
                rejected: outcome
                    .rejected
                    .into_iter()
                    .map(|(path, detail)| ReloadRejectBody { path, detail })
                    .collect(),
            }),
            Err(err) => protocol::response_line(&ErrorResponse::new("internal", err.to_string())),
        }
    }
}
