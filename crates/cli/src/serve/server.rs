//! The TCP server: listener, per-connection reader/handler threads, query
//! session execution, admission control and graceful shutdown.
//!
//! Threading model: the accept loop spawns one *handler* thread per
//! connection immediately (a slow or idle client can therefore never block
//! `accept`). Each handler spawns a *reader* thread that owns a cloned
//! stream and parses request lines; requests flow to the handler over a
//! channel, so the handler writes every response frame itself and frames
//! never interleave. The reader services `cancel` requests directly — that
//! is the whole point of the split: cancellation must land while the handler
//! is blocked inside a running query.
//!
//! Query sessions run on the handler thread but are globally admission
//! controlled: a counter + condvar caps concurrently running sessions at
//! [`ServeConfig::max_sessions`]; `queue:true` requests wait for a slot
//! (waking every 100 ms to observe shutdown), others fail fast with a
//! `capacity` error frame. Graceful shutdown trips every live session's
//! [`CancelToken`], wakes all waiters and pokes the listener, then the
//! accept loop drains its handler threads.

use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use hbbmc::{
    Budget, CancelToken, CliqueLineFormat, CliqueReporter, CountReporter, ExecSession, Query,
    QueryValue, SolverConfig, VertexId, WriterReporter,
};

use super::metrics::Metrics;
use super::protocol::{self, ErrorCode, QueryRequest, Request};
use super::registry::Registry;
use crate::io::FormatArg;

/// How often blocked waits (handler channel, admission queue) wake to
/// observe the shutdown flag.
const TICK: Duration = Duration::from_millis(100);

/// Server configuration (the `mce serve` flags).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7171` (port 0 picks a free port).
    pub addr: String,
    /// Maximum concurrently *running* query sessions across all connections.
    pub max_sessions: usize,
    /// Worker threads per query when the request does not say.
    pub default_threads: usize,
    /// Hard cap on per-query worker threads.
    pub max_threads: usize,
    /// Step budget applied to queries that do not carry `max_steps`.
    pub default_max_steps: Option<u64>,
    /// Per-connection branch-step quota across all of its queries.
    pub client_max_steps: Option<u64>,
    /// Per-connection clique quota across all of its queries.
    pub client_max_cliques: Option<u64>,
    /// Solver preset for queries that do not carry `preset`.
    pub preset: String,
    /// Request lines longer than this are rejected and the connection
    /// closed (there is no way to resynchronise mid-line).
    pub max_line_bytes: usize,
    /// Connections with no parsed request for this long are reaped (socket
    /// closed, handler and reader threads joined). `None` disables reaping.
    pub idle_timeout: Option<Duration>,
    /// Kernel-level write timeout per response write; a client that stops
    /// draining its socket for this long fails its session's writes, which
    /// cancels the session instead of leaking it. `None` blocks forever.
    pub write_timeout: Option<Duration>,
    /// Wall-clock deadline applied to queries that do not carry
    /// `deadline_ms` (the request value is clamped to this when both exist).
    pub default_deadline_ms: Option<u64>,
    /// Graceful-degradation high-water mark: when this many sessions are
    /// already running at admission time, new sessions are admitted with
    /// their step budget pre-clamped to [`ServeConfig::degrade_max_steps`]
    /// and their end frame carries `degraded: true`. `None` disables
    /// degradation (sessions queue or fail fast as before).
    pub degrade_high_water: Option<usize>,
    /// The step-budget clamp applied to sessions admitted under overload.
    pub degrade_max_steps: u64,
    /// Fault injection (chaos tests only, not reachable from the CLI):
    /// streaming queries against this graph panic mid-enumeration.
    pub chaos_panic_graph: Option<String>,
    /// How many cliques a chaos-targeted session reports before panicking.
    pub chaos_panic_after: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7171".to_string(),
            max_sessions: 4,
            default_threads: 1,
            max_threads: 8,
            default_max_steps: None,
            client_max_steps: None,
            client_max_cliques: None,
            preset: "HBBMC++".to_string(),
            max_line_bytes: 1 << 20,
            idle_timeout: Some(Duration::from_secs(300)),
            write_timeout: Some(Duration::from_secs(30)),
            default_deadline_ms: None,
            degrade_high_water: None,
            degrade_max_steps: 10_000,
            chaos_panic_graph: None,
            chaos_panic_after: 0,
        }
    }
}

/// State shared by the accept loop, every connection and [`ServerHandle`]s.
#[derive(Debug)]
struct Shared {
    config: ServeConfig,
    registry: Registry,
    metrics: Metrics,
    shutdown: AtomicBool,
    running_sessions: Mutex<usize>,
    sessions_cv: Condvar,
    live: Mutex<HashMap<u64, CancelToken>>,
    next_session: AtomicU64,
    addr: SocketAddr,
}

impl Shared {
    fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Idempotently starts shutdown: trips every live session's token, wakes
    /// admission waiters and pokes the listener so `accept` returns.
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for token in self.live.lock().unwrap_or_else(|e| e.into_inner()).values() {
            token.cancel();
        }
        self.sessions_cv.notify_all();
        let mut poke = self.addr;
        if poke.ip().is_unspecified() {
            poke.set_ip(std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST));
        }
        let _ = TcpStream::connect_timeout(&poke, Duration::from_secs(1));
    }

    /// Admission control: takes one of the `max_sessions` slots, queueing
    /// when asked to. Fails with the [`ErrorCode`] the rejection frame
    /// should carry.
    /// Takes one of the `max_sessions` slots, reporting whether the server
    /// crossed the graceful-degradation high-water mark at admission time
    /// (the session then runs with a pre-clamped budget).
    fn acquire_session(&self, queue: bool) -> Result<bool, ErrorCode> {
        let mut count = self
            .running_sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        loop {
            if self.is_shutting_down() {
                return Err(ErrorCode::ShuttingDown);
            }
            if *count < self.config.max_sessions {
                let degraded = self
                    .config
                    .degrade_high_water
                    .is_some_and(|high_water| *count >= high_water);
                *count += 1;
                let current = *count as u64;
                drop(count);
                self.metrics.observe_sessions(current);
                if degraded {
                    Metrics::bump(&self.metrics.sessions_degraded);
                }
                return Ok(degraded);
            }
            if !queue {
                return Err(ErrorCode::Capacity);
            }
            let (guard, _) = self
                .sessions_cv
                .wait_timeout(count, TICK)
                .unwrap_or_else(|e| e.into_inner());
            count = guard;
        }
    }

    fn release_session(&self) {
        let mut count = self
            .running_sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        *count = count.saturating_sub(1);
        drop(count);
        self.sessions_cv.notify_all();
    }
}

/// A bound, not-yet-serving server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// A cloneable remote control for a running (or about-to-run) server.
#[derive(Clone, Debug)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The bound listen address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Starts graceful shutdown: cancels every live query session, stops
    /// admitting new ones and unblocks the accept loop. Idempotent.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }
}

impl Server {
    /// Binds the listener. The registry starts empty; clients populate it
    /// with `load` requests.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(config.addr.as_str())?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                config,
                registry: Registry::new(),
                metrics: Metrics::new(),
                shutdown: AtomicBool::new(false),
                running_sessions: Mutex::new(0),
                sessions_cv: Condvar::new(),
                live: Mutex::new(HashMap::new()),
                next_session: AtomicU64::new(0),
                addr,
            }),
        })
    }

    /// The bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A control handle usable from other threads (shutdown, address).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the accept loop until shutdown, then drains every connection
    /// handler. Each accepted connection gets its own handler thread
    /// immediately, so a slow client never blocks `accept`.
    pub fn serve(self) -> io::Result<()> {
        let Server { listener, shared } = self;
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) if shared.is_shutting_down() => break,
                Err(e) => return Err(e),
            };
            if shared.is_shutting_down() {
                break;
            }
            Metrics::bump(&shared.metrics.connections);
            let conn_shared = Arc::clone(&shared);
            handlers.push(thread::spawn(move || {
                handle_connection(conn_shared, stream)
            }));
            handlers.retain(|h| !h.is_finished());
        }
        shared.begin_shutdown();
        for handler in handlers {
            let _ = handler.join();
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Bounded line reading.
// ---------------------------------------------------------------------------

/// One `read_line` outcome.
enum LineEvent {
    /// A complete line, without its `\n` (and without a trailing `\r`).
    Line(Vec<u8>),
    /// Clean end of stream at a line boundary.
    Eof,
    /// End of stream in the middle of a line (half-closed mid-request).
    TruncatedEof,
    /// The line exceeded the cap before a `\n` arrived.
    Oversized,
}

/// Reads `\n`-terminated lines without ever buffering more than the cap —
/// the fuzz-input guard `BufRead::read_until` does not provide.
struct LineReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
}

impl<R: Read> LineReader<R> {
    fn new(inner: R) -> Self {
        LineReader {
            inner,
            buf: Vec::new(),
        }
    }

    fn read_line(&mut self, max: usize) -> io::Result<LineEvent> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(LineEvent::Line(line));
            }
            if self.buf.len() > max {
                return Ok(LineEvent::Oversized);
            }
            let mut chunk = [0u8; 4096];
            let n = self.inner.read(&mut chunk)?;
            if n == 0 {
                return Ok(if self.buf.is_empty() {
                    LineEvent::Eof
                } else {
                    LineEvent::TruncatedEof
                });
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

// ---------------------------------------------------------------------------
// Per-connection plumbing.
// ---------------------------------------------------------------------------

/// Reader → handler messages.
enum ReaderMsg {
    /// A parsed non-query request (cancel is serviced by the reader itself).
    Request(Request),
    /// A parsed query, with its connection-scoped query id.
    Query(u64, QueryRequest),
    /// A malformed request line; answered with `bad-request` and survived.
    Bad(String),
    /// An unrecoverable framing problem; answered and then the connection
    /// is closed.
    Fatal(ErrorCode, String),
    /// The client is done sending.
    Eof,
}

/// Cancellation state shared between a connection's reader and handler.
#[derive(Default)]
struct ConnState {
    /// The currently running query and its token.
    running: Option<(u64, CancelToken)>,
    /// Query ids cancelled before they started running.
    pre_cancelled: HashSet<u64>,
    /// The id the reader most recently assigned to a query request.
    last_assigned: u64,
}

fn reader_loop(
    stream: TcpStream,
    max_line: usize,
    tx: Sender<ReaderMsg>,
    conn: Arc<Mutex<ConnState>>,
    shared: Arc<Shared>,
) {
    let mut reader = LineReader::new(stream);
    let mut next_query_id = 0u64;
    loop {
        let event = match reader.read_line(max_line) {
            Ok(event) => event,
            // A reset/aborted connection is a disconnect, not a protocol
            // error.
            Err(_) => LineEvent::Eof,
        };
        match event {
            LineEvent::Eof => {
                let _ = tx.send(ReaderMsg::Eof);
                return;
            }
            LineEvent::TruncatedEof => {
                let _ = tx.send(ReaderMsg::Fatal(
                    ErrorCode::BadRequest,
                    "truncated request line (missing newline)".to_string(),
                ));
                return;
            }
            LineEvent::Oversized => {
                let _ = tx.send(ReaderMsg::Fatal(
                    ErrorCode::Oversized,
                    format!("request line exceeds {max_line} bytes"),
                ));
                return;
            }
            LineEvent::Line(bytes) => {
                let Ok(text) = std::str::from_utf8(&bytes) else {
                    let _ = tx.send(ReaderMsg::Bad("request is not valid UTF-8".to_string()));
                    continue;
                };
                if text.trim().is_empty() {
                    continue;
                }
                match protocol::parse_request(text) {
                    Err(msg) => {
                        let _ = tx.send(ReaderMsg::Bad(msg));
                    }
                    Ok(Request::Cancel { id }) => {
                        Metrics::bump(&shared.metrics.requests);
                        cancel_query(&conn, id);
                    }
                    Ok(Request::Query(q)) => {
                        Metrics::bump(&shared.metrics.requests);
                        next_query_id += 1;
                        conn.lock().unwrap_or_else(|e| e.into_inner()).last_assigned =
                            next_query_id;
                        let _ = tx.send(ReaderMsg::Query(next_query_id, q));
                    }
                    Ok(request) => {
                        Metrics::bump(&shared.metrics.requests);
                        let _ = tx.send(ReaderMsg::Request(request));
                    }
                }
            }
        }
    }
}

/// Services a `cancel` request on the reader thread: trips the running
/// query's token when it matches, otherwise records the id so the query is
/// cancelled the moment it starts. `cancel` without an id targets the
/// running query, falling back to the most recently submitted one.
fn cancel_query(conn: &Mutex<ConnState>, id: Option<u64>) {
    let mut state = conn.lock().unwrap_or_else(|e| e.into_inner());
    let cancelled_running = match (&state.running, id) {
        (Some((_, token)), None) => {
            token.cancel();
            true
        }
        (Some((running_id, token)), Some(want)) if *running_id == want => {
            token.cancel();
            true
        }
        _ => false,
    };
    if !cancelled_running {
        let target = id.unwrap_or(state.last_assigned);
        if target > 0 {
            state.pre_cancelled.insert(target);
        }
    }
}

fn write_frame(w: &mut impl Write, frame: &str) -> io::Result<()> {
    w.write_all(frame.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

fn handle_connection(shared: Arc<Shared>, stream: TcpStream) {
    let Ok(read_stream) = stream.try_clone() else {
        return;
    };
    // A kernel-level write timeout turns a client that stopped draining its
    // socket into a write error, which cancels its session (CancelWriter)
    // instead of blocking the handler forever.
    let _ = stream.set_write_timeout(shared.config.write_timeout);
    let conn = Arc::new(Mutex::new(ConnState::default()));
    let (tx, rx) = mpsc::channel();
    let reader = {
        let conn = Arc::clone(&conn);
        let shared = Arc::clone(&shared);
        let max_line = shared.config.max_line_bytes;
        thread::spawn(move || reader_loop(read_stream, max_line, tx, conn, shared))
    };

    let mut writer = io::BufWriter::new(stream);
    let mut quota = ClientQuota {
        steps: shared.config.client_max_steps,
        cliques: shared.config.client_max_cliques,
    };
    let mut last_activity = Instant::now();
    loop {
        let msg = match rx.recv_timeout(TICK) {
            Ok(msg) => {
                last_activity = Instant::now();
                msg
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.is_shutting_down() {
                    break;
                }
                if shared
                    .config
                    .idle_timeout
                    .is_some_and(|limit| last_activity.elapsed() >= limit)
                {
                    Metrics::bump(&shared.metrics.connections_reaped);
                    break;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        // The dispatch below is panic-isolated: a fault that escapes the
        // typed-error paths (they contain engine worker panics already) is
        // answered with an `internal-error` frame and the connection — and
        // above it, the accept loop — keeps going.
        let keep_going = catch_unwind(AssertUnwindSafe(|| match msg {
            ReaderMsg::Eof => Ok(false),
            ReaderMsg::Bad(message) => {
                send_error(&shared, &mut writer, ErrorCode::BadRequest, &message).map(|()| true)
            }
            ReaderMsg::Fatal(code, message) => {
                let _ = send_error(&shared, &mut writer, code, &message);
                Ok(false)
            }
            ReaderMsg::Query(id, request) => {
                run_session(&shared, &conn, &mut quota, &mut writer, id, request)
            }
            ReaderMsg::Request(request) => handle_control(&shared, &mut writer, request),
        }))
        .unwrap_or_else(|_| {
            Metrics::bump(&shared.metrics.panics_contained);
            send_error(
                &shared,
                &mut writer,
                ErrorCode::Internal,
                "request handler fault contained; the connection may continue",
            )
            .map(|()| true)
        });
        match keep_going {
            Ok(true) => {}
            // Clean close, or the client stopped reading — either way the
            // conversation is over.
            Ok(false) | Err(_) => break,
        }
    }
    let _ = writer.flush();
    // Unblock the reader (it may be parked in a blocking read) and reap it.
    let _ = writer.get_ref().shutdown(Shutdown::Both);
    let _ = reader.join();
}

fn send_error(
    shared: &Shared,
    w: &mut impl Write,
    code: ErrorCode,
    message: &str,
) -> io::Result<()> {
    Metrics::bump(&shared.metrics.errors);
    write_frame(w, &protocol::error_frame(code, message))
}

/// Services every non-query, non-cancel request.
fn handle_control(shared: &Shared, w: &mut impl Write, request: Request) -> io::Result<bool> {
    match request {
        Request::Ping => write_frame(w, &protocol::pong_frame())?,
        Request::List => write_frame(w, &protocol::graphs_frame(&shared.registry.list()))?,
        Request::Metrics => write_frame(w, &protocol::metrics_frame(&shared.metrics.snapshot()))?,
        Request::Shutdown => {
            write_frame(w, &protocol::shutdown_frame())?;
            shared.begin_shutdown();
        }
        Request::Evict { name } => {
            if shared.registry.evict(&name) {
                write_frame(w, &protocol::evicted_frame(&name))?;
            } else {
                send_error(
                    shared,
                    w,
                    ErrorCode::UnknownGraph,
                    &format!("no graph '{name}' is loaded"),
                )?;
            }
        }
        Request::Load {
            name,
            path,
            content,
            format,
        } => {
            let format = match FormatArg::parse(format.as_deref()) {
                Ok(format) => format,
                Err(e) => {
                    send_error(shared, w, ErrorCode::BadRequest, &e.to_string())?;
                    return Ok(true);
                }
            };
            // Path loads go through std::fs::read so binary .mcg files work;
            // inline `content` arrives as JSON text (text formats only).
            let (source_name, bytes) = match (path, content) {
                (Some(path), None) => match std::fs::read(&path) {
                    Ok(bytes) => (path, bytes),
                    Err(e) => {
                        send_error(
                            shared,
                            w,
                            ErrorCode::LoadFailed,
                            &format!("reading {path}: {e}"),
                        )?;
                        return Ok(true);
                    }
                },
                (None, Some(text)) => (name.clone(), text.into_bytes()),
                // parse_request guarantees exactly one of the two.
                _ => unreachable!("load carries exactly one source"),
            };
            match shared.registry.load(&name, &source_name, &bytes, format) {
                Ok(entry) => write_frame(
                    w,
                    &protocol::loaded_frame(
                        &name,
                        entry.graph.n(),
                        entry.graph.m(),
                        entry.generation,
                    ),
                )?,
                Err(message) => send_error(shared, w, ErrorCode::LoadFailed, &message)?,
            }
        }
        // Queries and cancels never reach this function.
        Request::Query(_) | Request::Cancel { .. } => unreachable!("routed elsewhere"),
    }
    Ok(true)
}

// ---------------------------------------------------------------------------
// Query session execution.
// ---------------------------------------------------------------------------

/// Remaining per-connection quotas.
struct ClientQuota {
    steps: Option<u64>,
    cliques: Option<u64>,
}

fn min_opt(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (x, None) | (None, x) => x,
    }
}

fn sub_opt(quota: Option<u64>, used: u64) -> Option<u64> {
    quota.map(|q| q.saturating_sub(used))
}

/// Counts what actually reaches the client, after the budget gate.
struct Tally<R> {
    inner: R,
    emitted: u64,
    max_size: usize,
}

impl<R> Tally<R> {
    fn new(inner: R) -> Self {
        Tally {
            inner,
            emitted: 0,
            max_size: 0,
        }
    }
}

impl<R: CliqueReporter> CliqueReporter for Tally<R> {
    fn report(&mut self, clique: &[VertexId]) {
        self.emitted += 1;
        self.max_size = self.max_size.max(clique.len());
        self.inner.report(clique);
    }
}

/// Fault injection for chaos tests (see [`ServeConfig::chaos_panic_graph`]):
/// panics once the fuse burns out, exercising the engine's panic containment
/// from inside a real session. With `fuse: None` (every CLI-started server)
/// this is a transparent pass-through.
struct ChaosReporter<R> {
    inner: R,
    fuse: Option<u64>,
}

impl<R: CliqueReporter> CliqueReporter for ChaosReporter<R> {
    fn report(&mut self, clique: &[VertexId]) {
        if let Some(remaining) = &mut self.fuse {
            if *remaining == 0 {
                panic!("injected chaos fault: reporter fuse burned out");
            }
            *remaining -= 1;
        }
        self.inner.report(clique);
    }
}

/// Cancels the session the moment a write fails, so a disconnected client
/// stops consuming enumeration work instead of streaming into the void.
struct CancelWriter<W: Write> {
    inner: W,
    token: CancelToken,
}

impl<W: Write> Write for CancelWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf).map_err(|e| {
            self.token.cancel();
            e
        })
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush().map_err(|e| {
            self.token.cancel();
            e
        })
    }
}

/// Writes a rejection (`capacity` / `quota` / `shutting-down`) error frame
/// and counts it.
fn reject(
    shared: &Shared,
    writer: &mut impl Write,
    code: ErrorCode,
    message: &str,
) -> io::Result<bool> {
    Metrics::bump(&shared.metrics.sessions_rejected);
    send_error(shared, writer, code, message)?;
    Ok(true)
}

fn run_session<W: Write + Send>(
    shared: &Shared,
    conn: &Mutex<ConnState>,
    quota: &mut ClientQuota,
    writer: &mut W,
    id: u64,
    request: QueryRequest,
) -> io::Result<bool> {
    if shared.is_shutting_down() {
        return reject(
            shared,
            writer,
            ErrorCode::ShuttingDown,
            "server is shutting down",
        );
    }
    let Some(entry) = shared.registry.get(&request.graph) else {
        send_error(
            shared,
            writer,
            ErrorCode::UnknownGraph,
            &format!("no graph '{}' is loaded", request.graph),
        )?;
        return Ok(true);
    };
    let preset = request.preset.as_deref().unwrap_or(&shared.config.preset);
    let config = match SolverConfig::preset_by_name(preset) {
        Ok(config) => config,
        Err(e) => {
            send_error(shared, writer, ErrorCode::BadRequest, &e.to_string())?;
            return Ok(true);
        }
    };
    if quota.steps == Some(0) {
        return reject(shared, writer, ErrorCode::Quota, "step quota exhausted");
    }
    if quota.cliques == Some(0) {
        return reject(shared, writer, ErrorCode::Quota, "clique quota exhausted");
    }
    // Take a concurrency slot (possibly queueing) before the budget is
    // built: admission under overload pressure degrades the session — its
    // step budget is pre-clamped so it finishes quickly instead of queueing
    // indefinitely behind it. `cancel` sent while we queued is recorded in
    // `pre_cancelled` and applied at registration below.
    let degraded = match shared.acquire_session(request.queue) {
        Ok(degraded) => degraded,
        Err(code) => {
            let message = match code {
                ErrorCode::Capacity => format!(
                    "server is at capacity ({} sessions); retry or set \"queue\":true",
                    shared.config.max_sessions
                ),
                _ => "server is shutting down".to_string(),
            };
            return reject(shared, writer, code, &message);
        }
    };
    let mut budget = Budget {
        max_cliques: min_opt(request.limit, quota.cliques),
        max_steps: min_opt(
            request.max_steps.or(shared.config.default_max_steps),
            quota.steps,
        ),
        cancel: None,
        deadline: min_opt(request.deadline_ms, shared.config.default_deadline_ms)
            .map(Duration::from_millis),
    };
    if degraded {
        budget.max_steps = min_opt(budget.max_steps, Some(shared.config.degrade_max_steps));
    }
    let threads = request
        .threads
        .unwrap_or(shared.config.default_threads)
        .clamp(1, shared.config.max_threads);
    let query = Query {
        spec: request.spec.clone(),
        config,
        threads,
        budget,
    };
    let session = match ExecSession::new(&entry.graph, query) {
        Ok(session) => session,
        Err(e) => {
            shared.release_session();
            send_error(shared, writer, ErrorCode::BadRequest, &e.to_string())?;
            return Ok(true);
        }
    };
    let token = session.cancel_token();
    let session_id = shared.next_session.fetch_add(1, Ordering::Relaxed) + 1;
    shared
        .live
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(session_id, token.clone());
    {
        let mut state = conn.lock().unwrap_or_else(|e| e.into_inner());
        if state.pre_cancelled.remove(&id) {
            token.cancel();
        }
        state.running = Some((id, token.clone()));
    }
    Metrics::bump(&shared.metrics.sessions_started);
    let begin_ok = write_frame(
        writer,
        &protocol::begin_frame(id, &entry.name, entry.generation),
    );

    let streaming = request.spec.streams();
    let chaos_fuse = (shared.config.chaos_panic_graph.as_deref() == Some(request.graph.as_str()))
        .then_some(shared.config.chaos_panic_after);
    let run = if streaming {
        let cancel_writer = CancelWriter {
            inner: &mut *writer,
            token: token.clone(),
        };
        let mut tally = ChaosReporter {
            inner: Tally::new(WriterReporter::new(cancel_writer, CliqueLineFormat::Ndjson)),
            fuse: chaos_fuse,
        };
        session.try_run(&mut tally).map(|result| {
            let emitted = tally.inner.emitted;
            let max_size = tally.inner.max_size;
            let write_error = tally.inner.inner.take_error();
            (result, emitted, max_size, write_error)
        })
    } else {
        let mut ignored = CountReporter::new();
        session.try_run(&mut ignored).map(|result| {
            let (emitted, max_size, write_error) = match &result.value {
                QueryValue::Count(_) => (0, 0, None),
                QueryValue::TopK(cliques) => {
                    let max_size = cliques.iter().map(Vec::len).max().unwrap_or(0);
                    let mut out = WriterReporter::new(&mut *writer, CliqueLineFormat::Ndjson);
                    for clique in cliques {
                        out.report(clique);
                    }
                    (cliques.len() as u64, max_size, out.take_error())
                }
                QueryValue::Maximum(clique) => {
                    let mut out = WriterReporter::new(&mut *writer, CliqueLineFormat::Ndjson);
                    if clique.is_empty() {
                        (0, 0, None)
                    } else {
                        out.report(clique);
                        (1, clique.len(), out.take_error())
                    }
                }
                QueryValue::Stream => unreachable!("non-streaming specs yield values"),
            };
            (result, emitted, max_size, write_error)
        })
    };

    conn.lock().unwrap_or_else(|e| e.into_inner()).running = None;
    shared
        .live
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&session_id);
    shared.release_session();
    let (result, emitted, max_size, write_error) = match run {
        Ok(parts) => parts,
        Err(error) => {
            // A worker panicked mid-enumeration. The fault was contained by
            // the engine (remaining workers drained, the deterministic
            // prefix was already streamed); report it as a typed frame and
            // keep the connection — concurrent sessions are unaffected.
            Metrics::bump(&shared.metrics.panics_contained);
            send_error(shared, writer, ErrorCode::Internal, &error.to_string())?;
            return Ok(true);
        }
    };
    shared.metrics.record_session(
        &result.stats,
        result.budget_steps,
        result.outcome.is_truncated(),
    );
    quota.steps = sub_opt(quota.steps, result.budget_steps);
    quota.cliques = sub_opt(quota.cliques, emitted);

    if begin_ok.is_err() || write_error.is_some() {
        return Ok(false);
    }
    let count = match result.value {
        QueryValue::Count(n) => Some(n),
        _ => None,
    };
    write_frame(
        writer,
        &protocol::end_frame(
            id,
            &result.outcome.to_string(),
            emitted,
            max_size,
            result.stats.terminated_by_budget > 0,
            degraded,
            count,
        ),
    )?;
    Ok(true)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn line_reader_splits_and_bounds() {
        let mut r = LineReader::new(Cursor::new(b"one\r\ntwo\npartial".to_vec()));
        assert!(matches!(r.read_line(100), Ok(LineEvent::Line(l)) if l == b"one"));
        assert!(matches!(r.read_line(100), Ok(LineEvent::Line(l)) if l == b"two"));
        assert!(matches!(r.read_line(100), Ok(LineEvent::TruncatedEof)));

        let mut r = LineReader::new(Cursor::new(vec![b'x'; 5000]));
        assert!(matches!(r.read_line(64), Ok(LineEvent::Oversized)));

        let mut r = LineReader::new(Cursor::new(Vec::new()));
        assert!(matches!(r.read_line(64), Ok(LineEvent::Eof)));
    }

    #[test]
    fn cancel_writer_trips_token_on_error() {
        struct FailWriter;
        impl Write for FailWriter {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let token = CancelToken::new();
        let mut w = CancelWriter {
            inner: FailWriter,
            token: token.clone(),
        };
        assert!(!token.is_cancelled());
        assert!(w.write(b"x").is_err());
        assert!(token.is_cancelled());
    }

    #[test]
    fn option_quota_arithmetic() {
        assert_eq!(min_opt(None, None), None);
        assert_eq!(min_opt(Some(3), None), Some(3));
        assert_eq!(min_opt(None, Some(7)), Some(7));
        assert_eq!(min_opt(Some(9), Some(7)), Some(7));
        assert_eq!(sub_opt(None, 10), None);
        assert_eq!(sub_opt(Some(10), 3), Some(7));
        assert_eq!(sub_opt(Some(2), 10), Some(0));
    }

    #[test]
    fn cancel_request_routing() {
        let conn = Mutex::new(ConnState::default());
        // No running query, nothing submitted: no-op.
        cancel_query(&conn, None);
        assert!(conn.lock().unwrap().pre_cancelled.is_empty());

        // A submitted-but-not-started query gets pre-cancelled.
        conn.lock().unwrap().last_assigned = 2;
        cancel_query(&conn, None);
        assert!(conn.lock().unwrap().pre_cancelled.contains(&2));

        // A running query is cancelled directly.
        let token = CancelToken::new();
        conn.lock().unwrap().running = Some((3, token.clone()));
        cancel_query(&conn, Some(3));
        assert!(token.is_cancelled());

        // A mismatched id is recorded for later.
        let other = CancelToken::new();
        conn.lock().unwrap().running = Some((4, other.clone()));
        cancel_query(&conn, Some(9));
        assert!(!other.is_cancelled());
        assert!(conn.lock().unwrap().pre_cancelled.contains(&9));
    }

    #[test]
    fn admission_caps_and_releases() {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_sessions: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let shared = &server.shared;
        assert_eq!(shared.acquire_session(false), Ok(false));
        assert_eq!(shared.acquire_session(false), Ok(false));
        assert_eq!(shared.acquire_session(false), Err(ErrorCode::Capacity));
        shared.release_session();
        assert!(shared.acquire_session(false).is_ok());
        let snapshot: std::collections::HashMap<_, _> =
            shared.metrics.snapshot().into_iter().collect();
        assert_eq!(snapshot["peak_sessions"], 2);

        shared.begin_shutdown();
        assert_eq!(shared.acquire_session(true), Err(ErrorCode::ShuttingDown));
    }

    #[test]
    fn admission_degrades_past_the_high_water_mark() {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_sessions: 3,
            degrade_high_water: Some(1),
            ..ServeConfig::default()
        })
        .unwrap();
        let shared = &server.shared;
        // Below the mark: normal admission.
        assert_eq!(shared.acquire_session(false), Ok(false));
        // At or above it: admitted, but degraded.
        assert_eq!(shared.acquire_session(false), Ok(true));
        assert_eq!(shared.acquire_session(false), Ok(true));
        // The cap still holds.
        assert_eq!(shared.acquire_session(false), Err(ErrorCode::Capacity));
        let snapshot: std::collections::HashMap<_, _> =
            shared.metrics.snapshot().into_iter().collect();
        assert_eq!(snapshot["sessions_degraded"], 2);
        // Releasing drops the pressure back under the mark.
        shared.release_session();
        shared.release_session();
        shared.release_session();
        assert_eq!(shared.acquire_session(false), Ok(false));
    }

    #[test]
    fn chaos_reporter_passes_through_until_the_fuse_burns() {
        struct Sink(Vec<usize>);
        impl CliqueReporter for Sink {
            fn report(&mut self, clique: &[VertexId]) {
                self.0.push(clique.len());
            }
        }
        let mut quiet = ChaosReporter {
            inner: Sink(Vec::new()),
            fuse: None,
        };
        for _ in 0..100 {
            quiet.report(&[1, 2]);
        }
        assert_eq!(quiet.inner.0.len(), 100);

        let mut armed = ChaosReporter {
            inner: Sink(Vec::new()),
            fuse: Some(2),
        };
        armed.report(&[1]);
        armed.report(&[1, 2]);
        let boom = std::panic::catch_unwind(AssertUnwindSafe(|| armed.report(&[3])));
        assert!(boom.is_err());
        assert_eq!(armed.inner.0, vec![1, 2]);
    }
}
