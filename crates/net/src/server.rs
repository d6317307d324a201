//! Nonblocking event-loop HTTP server.
//!
//! One **reactor thread** owns the listener, a self-pipe waker, and
//! every connection's read/write state machine, multiplexed through the
//! [`Poller`](crate::poller::Poller) (epoll on Linux, `poll(2)`
//! fallback). Complete requests are handed to a small pool of **handler
//! workers** over an in-process queue; while a request is in flight its
//! connection is *parked* (interest [`Interest::NONE`]) so the reactor
//! spends no cycles on it. Workers push finished responses onto a
//! completion list and wake the reactor through the pipe; the reactor
//! serializes the response and drives the write, keeping the connection
//! open for HTTP/1.1 keep-alive reuse.
//!
//! Connection lifecycle:
//!
//! ```text
//!   accept ──▶ Reading ──complete request──▶ Dispatched (parked)
//!                ▲                                │ handler finishes
//!                │ keep-alive                     ▼
//!                └────────────────────────── Writing ──close──▶ drop
//! ```
//!
//! Timeouts are deadlines on the connection, enforced by bounding the
//! poll wait: a connection with a *partial* request head gets
//! `header_timeout` (slowloris guard → 408 + counter), an *idle*
//! keep-alive connection gets `idle_timeout` (silent close), and a
//! stalled response write gets `header_timeout` as a write-stall guard.
//!
//! Shutdown ([`EventLoopServer::stop`]) is a **bounded drain**: stop
//! accepting, close idle/reading connections immediately, let
//! dispatched and writing connections finish for at most
//! `drain_timeout`, then drop whatever remains.

#![cfg(unix)]

use crate::http::{HttpError, HttpLimits, Request, RequestBuffer, Response};
use crate::poller::{Event, Interest, Poller};
use crate::sys;
use gve_obs::json::Json;
use gve_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Token of the self-pipe waker registration.
const TOKEN_WAKER: u64 = 0;
/// Token of the listening socket registration.
const TOKEN_LISTENER: u64 = 1;
/// First token handed to an accepted connection.
const TOKEN_FIRST_CONN: u64 = 2;

/// Buckets for the reactor loop-latency histogram: a healthy loop
/// iteration is microseconds, a pathological one milliseconds.
const LOOP_BUCKETS: &[f64] = &[
    0.00001, 0.00005, 0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5,
];

/// Locks a mutex, recovering the data from a poisoned lock. Every
/// structure behind these mutexes stays consistent across panics
/// (queues and lists are push/pop only), so continuing is safe and
/// keeps the reactor alive when a handler worker dies mid-push.
fn lock_clean<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Error → `{"error": "..."}` response.
fn error_response(error: &HttpError) -> Response {
    Response::json(
        error.status,
        Json::obj([("error", Json::from(error.message.as_str()))]).render(),
    )
}

/// Shared request handler type.
pub type Handler = Arc<dyn Fn(Request) -> Response + Send + Sync>;

/// Predicate marking requests cheap enough to run *inline on the
/// reactor thread*, skipping the worker-pool round trip entirely.
pub type InlinePredicate = Arc<dyn Fn(&Request) -> bool + Send + Sync>;

/// Tuning knobs for [`EventLoopServer::start`].
pub struct NetOptions {
    /// Cap on concurrently open connections; further accepts are
    /// answered 503 and closed.
    pub max_connections: usize,
    /// Handler worker threads (0 = one per available core, capped at 8).
    pub handler_threads: usize,
    /// Request parsing size caps.
    pub limits: HttpLimits,
    /// Max time a client may take to deliver a complete request head
    /// once it has started sending (slowloris guard → 408). Also bounds
    /// a stalled response write.
    pub header_timeout: Duration,
    /// Max time an idle keep-alive connection is kept open.
    pub idle_timeout: Duration,
    /// Max time `stop` waits for dispatched/writing connections.
    pub drain_timeout: Duration,
    /// Force the portable `poll(2)` backend even where epoll exists.
    pub force_portable_poll: bool,
    /// Requests this predicate accepts run **inline on the reactor
    /// thread** instead of round-tripping through the worker pool —
    /// two context switches and a waker write cheaper per request.
    /// Only route requests here whose handlers are strictly
    /// non-blocking and microsecond-scale; one slow inline handler
    /// stalls every connection. `None` sends everything to workers.
    pub inline: Option<InlinePredicate>,
    /// Registry to export `gve_net_*`/`gve_http_*` metrics into.
    pub metrics: Option<MetricsRegistry>,
}

impl Default for NetOptions {
    fn default() -> Self {
        Self {
            max_connections: 1024,
            handler_threads: 0,
            limits: HttpLimits::default(),
            header_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(60),
            drain_timeout: Duration::from_secs(5),
            force_portable_poll: false,
            inline: None,
            metrics: None,
        }
    }
}

/// Event-loop metric handles (cheap clones; always allocated so the hot
/// path never branches on "metrics enabled").
#[derive(Clone, Default)]
struct NetMetrics {
    accepted: Counter,
    requests: Counter,
    inline_served: Counter,
    keepalive_reuses: Counter,
    timeouts: Counter,
    rejected: Counter,
    wakeups: Counter,
    loop_seconds: Histogram,
    open_connections: Gauge,
    handler_queue_depth: Gauge,
}

impl NetMetrics {
    fn new() -> NetMetrics {
        NetMetrics {
            loop_seconds: Histogram::with_buckets(LOOP_BUCKETS),
            ..NetMetrics::default()
        }
    }

    fn attach(&self, registry: &MetricsRegistry) {
        registry.register_counter(
            "gve_net_accepted_total",
            "Connections accepted by the event-loop reactor.",
            &[],
            &self.accepted,
        );
        registry.register_counter(
            "gve_net_requests_total",
            "HTTP requests parsed and dispatched by the reactor.",
            &[],
            &self.requests,
        );
        registry.register_counter(
            "gve_net_inline_total",
            "Requests served inline on the reactor thread (fast path).",
            &[],
            &self.inline_served,
        );
        registry.register_counter(
            "gve_net_keepalive_reuses_total",
            "Requests served on an already-used keep-alive connection.",
            &[],
            &self.keepalive_reuses,
        );
        registry.register_counter(
            "gve_http_timeouts_total",
            "Connections closed for exceeding a read/write deadline.",
            &[],
            &self.timeouts,
        );
        registry.register_counter(
            "gve_net_rejected_connections_total",
            "Connections answered 503 because the connection cap was reached.",
            &[],
            &self.rejected,
        );
        registry.register_counter(
            "gve_net_wakeups_total",
            "Reactor loop iterations (poll returns).",
            &[],
            &self.wakeups,
        );
        // Compatibility families: an earlier thread-per-connection front
        // end exported these names, and the observability contract
        // (dashboards, metrics smoke tests) keys on them. Same handles
        // as the gve_net_* counters above.
        registry.register_counter(
            "gve_http_connections_total",
            "Connections accepted (alias of gve_net_accepted_total).",
            &[],
            &self.accepted,
        );
        registry.register_counter(
            "gve_http_rejected_connections_total",
            "Connections answered 503 at the cap (alias of gve_net_rejected_connections_total).",
            &[],
            &self.rejected,
        );
        registry.register_histogram(
            "gve_net_loop_seconds",
            "Time spent processing events per reactor loop iteration (excludes the poll wait).",
            &[],
            &self.loop_seconds,
        );
        registry.register_gauge(
            "gve_net_open_connections",
            "Currently open connections owned by the reactor.",
            &[],
            &self.open_connections,
        );
        registry.register_gauge(
            "gve_net_handler_queue_depth",
            "Requests waiting for a handler worker.",
            &[],
            &self.handler_queue_depth,
        );
    }
}

/// One finished handler invocation, headed back to the reactor.
struct Completion {
    token: u64,
    response: Response,
    keep_alive: bool,
}

/// Blocking work queue feeding the handler workers.
struct TaskQueue {
    state: Mutex<(VecDeque<(u64, Request)>, bool)>,
    ready: Condvar,
}

impl TaskQueue {
    fn new() -> TaskQueue {
        TaskQueue {
            state: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        }
    }

    fn push(&self, token: u64, request: Request) {
        let mut state = lock_clean(&self.state);
        state.0.push_back((token, request));
        drop(state);
        self.ready.notify_one();
    }

    /// Blocks for the next job; `None` once closed and drained.
    fn pop(&self) -> Option<(u64, Request)> {
        let mut state = lock_clean(&self.state);
        loop {
            if let Some(job) = state.0.pop_front() {
                return Some(job);
            }
            if state.1 {
                return None;
            }
            state = match self.ready.wait(state) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Stops accepting the queue as a blocking source: workers drain
    /// what is queued, then exit.
    fn close(&self) {
        lock_clean(&self.state).1 = true;
        self.ready.notify_all();
    }
}

/// State shared between the reactor, the workers, and the user-facing
/// handle.
struct Shared {
    queue: TaskQueue,
    completions: Mutex<Vec<Completion>>,
    waker_tx: Mutex<File>,
    stopping: AtomicBool,
    metrics: NetMetrics,
}

impl Shared {
    /// Wakes the reactor out of its poll wait. A full pipe means a wake
    /// is already pending, so the error is ignorable by construction.
    fn wake(&self) {
        let _ = lock_clean(&self.waker_tx).write(&[1]);
    }
}

/// Per-connection state machine position.
enum ConnState {
    /// Waiting for (more of) a request.
    Reading,
    /// A request is with a handler worker; the fd is parked.
    Dispatched,
    /// A serialized response is draining into the socket.
    Writing { close_after: bool },
}

/// One accepted connection owned by the reactor.
struct Conn {
    stream: TcpStream,
    parser: RequestBuffer,
    out: Vec<u8>,
    written: usize,
    state: ConnState,
    deadline: Option<Instant>,
    /// Requests dispatched on this connection so far.
    served: u64,
    /// Interest currently registered with the poller. Tracked so state
    /// transitions skip the `epoll_ctl` syscall when the armed interest
    /// already matches (the common keep-alive request → immediate
    /// response cycle stays READ-armed throughout).
    armed: Interest,
}

/// The reactor: single thread, owns everything network-facing.
struct Reactor {
    poller: Poller,
    listener: Option<TcpListener>,
    waker_rx: File,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    shared: Arc<Shared>,
    limits: HttpLimits,
    header_timeout: Duration,
    idle_timeout: Duration,
    drain_timeout: Duration,
    max_connections: usize,
    /// Set once the stop signal is observed: deadline for the drain.
    drain_deadline: Option<Instant>,
    /// Reused by `expire_deadlines` each tick; keeps the steady-state
    /// reactor path allocation-free.
    expired_scratch: Vec<u64>,
    /// Fast-path dispatch: requests the predicate accepts run directly
    /// on this thread instead of through the worker pool.
    inline: Option<InlinePredicate>,
    handler: Handler,
}

impl Reactor {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let timeout_ms = self.poll_timeout_ms();
            if self.poller.wait(&mut events, timeout_ms).is_err() {
                // A failed poll is unrecoverable for the loop; drain
                // shutdown state and exit rather than spin.
                break;
            }
            let tick = Instant::now();
            self.shared.metrics.wakeups.inc();

            // Acquire pairs with the Release store in `stop` (audit
            // publish rule): once observed, everything written before
            // the signal is visible here.
            if self.drain_deadline.is_none() && self.shared.stopping.load(Ordering::Acquire) {
                self.begin_drain(tick);
            }

            for event in events.iter().copied() {
                match event.token {
                    TOKEN_WAKER => self.drain_waker(),
                    TOKEN_LISTENER => self.accept_ready(tick),
                    token => self.conn_ready(token, event, tick),
                }
            }

            self.apply_completions(tick);
            self.expire_deadlines(tick);

            if self.drain_deadline.is_some() && self.conns.is_empty() {
                break;
            }
            if let Some(deadline) = self.drain_deadline {
                if Instant::now() >= deadline {
                    break; // drain budget exhausted; drop stragglers
                }
            }
            self.shared
                .metrics
                .loop_seconds
                .observe_duration(tick.elapsed());
        }
        // Drop remaining connections explicitly so the open gauge ends
        // accurate even when the drain deadline fired.
        let leftover: Vec<u64> = self.conns.keys().copied().collect();
        for token in leftover {
            self.close_conn(token);
        }
    }

    /// Poll timeout: the nearest connection/drain deadline, or forever
    /// (-1) when nothing is armed — stop() wakes us via the pipe.
    fn poll_timeout_ms(&self) -> i32 {
        let mut nearest: Option<Instant> = self.drain_deadline;
        for conn in self.conns.values() {
            if let Some(deadline) = conn.deadline {
                nearest = Some(match nearest {
                    Some(n) if n <= deadline => n,
                    _ => deadline,
                });
            }
        }
        match nearest {
            None => -1,
            Some(deadline) => {
                let remaining = deadline.saturating_duration_since(Instant::now());
                // Round UP to the next millisecond: truncation would
                // turn any deadline under 1 ms away into a 0 ms timeout
                // and spin the loop until it actually expires
                // (`expire_deadlines` fires on `d <= now`).
                let mut ms = remaining.as_millis();
                if remaining.subsec_nanos() % 1_000_000 != 0 {
                    ms += 1;
                }
                ms.min(i32::MAX as u128) as i32
            }
        }
    }

    /// Transition into bounded-drain shutdown: stop accepting, drop
    /// idle/reading connections immediately, let dispatched and writing
    /// connections finish within `drain_timeout`.
    fn begin_drain(&mut self, now: Instant) {
        if let Some(listener) = self.listener.take() {
            self.poller.remove(listener.as_raw_fd());
        }
        let reading: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| matches!(c.state, ConnState::Reading))
            .map(|(&t, _)| t)
            .collect();
        for token in reading {
            self.close_conn(token);
        }
        self.shared.queue.close();
        self.drain_deadline = Some(now + self.drain_timeout);
    }

    fn drain_waker(&mut self) {
        let mut sink = [0u8; 64];
        loop {
            match self.waker_rx.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock: drained
            }
        }
    }

    fn accept_ready(&mut self, now: Instant) {
        loop {
            let accepted = match &self.listener {
                Some(listener) => listener.accept(),
                None => return, // already draining
            };
            match accepted {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.shared.metrics.accepted.inc();
                    let token = self.next_token;
                    self.next_token += 1;
                    let fd = stream.as_raw_fd();
                    let mut conn = Conn {
                        stream,
                        parser: RequestBuffer::new(),
                        out: Vec::new(),
                        written: 0,
                        state: ConnState::Reading,
                        deadline: Some(now + self.idle_timeout),
                        served: 0,
                        armed: Interest::READ,
                    };
                    if self.conns.len() >= self.max_connections {
                        // Over the cap: answer 503 through the normal
                        // write path, then close.
                        self.shared.metrics.rejected.inc();
                        conn.out = error_response(&HttpError {
                            status: 503,
                            message: "connection limit reached, retry later".into(),
                        })
                        .serialize(false);
                        conn.state = ConnState::Writing { close_after: true };
                        conn.deadline = Some(now + self.header_timeout);
                        conn.armed = Interest::WRITE;
                        if self.poller.add(fd, token, Interest::WRITE).is_err() {
                            continue; // conn drops, fd closes
                        }
                        self.conns.insert(token, conn);
                        self.shared.metrics.open_connections.inc();
                        self.flush_write(token, now);
                        continue;
                    }
                    if self.poller.add(fd, token, Interest::READ).is_err() {
                        continue;
                    }
                    self.conns.insert(token, conn);
                    self.shared.metrics.open_connections.inc();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn conn_ready(&mut self, token: u64, event: Event, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match conn.state {
            ConnState::Reading if event.readable || event.closed => {
                self.read_conn(token, now);
            }
            ConnState::Writing { .. } if event.writable => {
                self.flush_write(token, now);
            }
            ConnState::Dispatched if event.closed => {
                // Peer went away while its request is in flight; the
                // late completion will find no connection and be
                // dropped.
                self.close_conn(token);
            }
            _ => {
                if event.closed {
                    self.close_conn(token);
                }
            }
        }
    }

    /// Reads until `WouldBlock`, then tries to dispatch a request.
    fn read_conn(&mut self, token: u64, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut chunk = [0u8; 8192];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    // Clean close (or mid-request truncation — nothing
                    // useful can be answered either way).
                    self.close_conn(token);
                    return;
                }
                Ok(n) => {
                    conn.parser.extend(&chunk[..n]);
                    // Short read: the socket buffer is (almost surely)
                    // drained, so skip the extra syscall that would
                    // confirm `WouldBlock`. Safe under level-triggered
                    // polling — any leftover bytes re-report readiness.
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        self.advance_parser(token, now);
    }

    /// Drives the parser on buffered bytes: dispatch a complete
    /// request, re-arm with the right deadline, or answer a parse
    /// error.
    fn advance_parser(&mut self, token: u64, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        debug_assert!(matches!(conn.state, ConnState::Reading));
        match conn.parser.try_next(&self.limits) {
            Ok(Some(request)) => {
                self.shared.metrics.requests.inc();
                if conn.served > 0 {
                    self.shared.metrics.keepalive_reuses.inc();
                }
                conn.served += 1;
                if self
                    .inline
                    .as_ref()
                    .is_some_and(|predicate| predicate(&request))
                {
                    // Fast path: run the handler right here. No parking,
                    // no queue, no completion, no waker — the response
                    // starts draining before this function returns.
                    self.shared.metrics.inline_served.inc();
                    let keep_alive = request.keep_alive;
                    let handler = Arc::clone(&self.handler);
                    let response =
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            handler(request)
                        })) {
                            Ok(response) => response,
                            Err(_) => error_response(&HttpError {
                                status: 500,
                                message: "handler panicked".into(),
                            }),
                        };
                    self.start_write(token, response, keep_alive, now);
                    return;
                }
                conn.state = ConnState::Dispatched;
                conn.deadline = None;
                let rearm = conn.armed != Interest::NONE;
                conn.armed = Interest::NONE;
                let fd = conn.stream.as_raw_fd();
                if rearm {
                    let _ = self.poller.modify(fd, token, Interest::NONE);
                }
                self.shared.metrics.handler_queue_depth.inc();
                self.shared.queue.push(token, request);
            }
            Ok(None) => {
                // Partial head ⇒ slowloris deadline; empty ⇒ idle.
                conn.deadline = Some(if conn.parser.has_partial() {
                    now + self.header_timeout
                } else {
                    now + self.idle_timeout
                });
                let rearm = conn.armed != Interest::READ;
                conn.armed = Interest::READ;
                let fd = conn.stream.as_raw_fd();
                if rearm {
                    let _ = self.poller.modify(fd, token, Interest::READ);
                }
            }
            Err(e) => self.start_write(token, error_response(&e), false, now),
        }
    }

    /// Loads a serialized response and starts draining it.
    fn start_write(&mut self, token: u64, response: Response, keep_alive: bool, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let keep = keep_alive && self.drain_deadline.is_none();
        conn.out = response.serialize(keep);
        conn.written = 0;
        conn.state = ConnState::Writing { close_after: !keep };
        conn.deadline = Some(now + self.header_timeout); // write-stall guard
                                                         // Write eagerly: the socket buffer is almost always empty, so
                                                         // the common case drains fully without ever arming WRITE (the
                                                         // `flush_write` WouldBlock branch arms it only when needed).
        self.flush_write(token, now);
    }

    /// Writes as much of the pending response as the socket accepts;
    /// on completion either closes or returns to `Reading`.
    fn flush_write(&mut self, token: u64, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let close_after = match conn.state {
            ConnState::Writing { close_after } => close_after,
            _ => return,
        };
        while conn.written < conn.out.len() {
            match conn.stream.write(&conn.out[conn.written..]) {
                Ok(0) => {
                    self.close_conn(token);
                    return;
                }
                Ok(n) => conn.written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    let rearm = conn.armed != Interest::WRITE;
                    conn.armed = Interest::WRITE;
                    let fd = conn.stream.as_raw_fd();
                    if rearm {
                        let _ = self.poller.modify(fd, token, Interest::WRITE);
                    }
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        if close_after {
            self.close_conn(token);
            return;
        }
        conn.out.clear();
        conn.written = 0;
        conn.state = ConnState::Reading;
        conn.deadline = Some(now + self.idle_timeout);
        let rearm = conn.armed != Interest::READ;
        conn.armed = Interest::READ;
        let fd = conn.stream.as_raw_fd();
        if rearm {
            let _ = self.poller.modify(fd, token, Interest::READ);
        }
        // A pipelined request may already be buffered; serve it without
        // waiting for more bytes.
        self.advance_parser(token, now);
    }

    /// Applies finished handler invocations.
    fn apply_completions(&mut self, now: Instant) {
        let done: Vec<Completion> = std::mem::take(&mut *lock_clean(&self.shared.completions));
        for completion in done {
            // The connection may have timed out or hung up while the
            // handler ran; its completion is then simply dropped.
            if !self.conns.contains_key(&completion.token) {
                continue;
            }
            self.start_write(
                completion.token,
                completion.response,
                completion.keep_alive,
                now,
            );
        }
    }

    /// Enforces per-connection deadlines.
    fn expire_deadlines(&mut self, now: Instant) {
        // Move the scratch buffer out of `self` for the duration (the
        // expiry handlers below need `&mut self`); reusing it across
        // ticks keeps this path allocation-free after warm-up.
        let mut expired = std::mem::take(&mut self.expired_scratch);
        expired.extend(
            self.conns
                .iter()
                .filter(|(_, c)| c.deadline.is_some_and(|d| d <= now))
                .map(|(&t, _)| t),
        );
        for token in expired.drain(..) {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            match conn.state {
                ConnState::Reading if conn.parser.has_partial() => {
                    // Slowloris: started a request, never finished it.
                    self.shared.metrics.timeouts.inc();
                    self.start_write(token, error_response(&HttpError::timeout()), false, now);
                }
                ConnState::Reading => {
                    // Idle keep-alive connection: close silently.
                    self.close_conn(token);
                }
                ConnState::Writing { .. } => {
                    // Client stopped draining its response.
                    self.shared.metrics.timeouts.inc();
                    self.close_conn(token);
                }
                ConnState::Dispatched => {} // no deadline while parked
            }
        }
        self.expired_scratch = expired;
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.poller.remove(conn.stream.as_raw_fd());
            self.shared.metrics.open_connections.dec();
        }
    }
}

/// A running event-loop server; dropping the handle stops it.
pub struct EventLoopServer {
    port: u16,
    backend: &'static str,
    shared: Arc<Shared>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl EventLoopServer {
    /// Binds `addr` (port 0 picks an ephemeral port) and serves
    /// keep-alive HTTP/1.1 connections through the reactor, running
    /// `handler` on a worker pool.
    pub fn start<F>(
        addr: impl ToSocketAddrs,
        options: NetOptions,
        handler: F,
    ) -> std::io::Result<EventLoopServer>
    where
        F: Fn(Request) -> Response + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let port = listener.local_addr()?.port();
        listener.set_nonblocking(true)?;

        let mut poller = Poller::new(options.force_portable_poll)?;
        let backend = poller.backend_name();
        let (waker_rx, waker_tx) = sys::pipe_pair()?;
        poller.add(waker_rx.as_raw_fd(), TOKEN_WAKER, Interest::READ)?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;

        let metrics = NetMetrics::new();
        if let Some(registry) = &options.metrics {
            metrics.attach(registry);
        }
        let shared = Arc::new(Shared {
            queue: TaskQueue::new(),
            completions: Mutex::new(Vec::new()),
            waker_tx: Mutex::new(waker_tx),
            stopping: AtomicBool::new(false),
            metrics,
        });

        let workers = if options.handler_threads > 0 {
            options.handler_threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(8)
        };
        let handler: Arc<dyn Fn(Request) -> Response + Send + Sync> = Arc::new(handler);
        let mut threads = Vec::with_capacity(workers + 1);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            let handler = Arc::clone(&handler);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("gve-net-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &handler))?,
            );
        }

        let mut reactor = Reactor {
            poller,
            listener: Some(listener),
            waker_rx,
            conns: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            shared: Arc::clone(&shared),
            limits: options.limits,
            header_timeout: options.header_timeout,
            idle_timeout: options.idle_timeout,
            drain_timeout: options.drain_timeout,
            max_connections: options.max_connections.max(1),
            drain_deadline: None,
            expired_scratch: Vec::new(),
            inline: options.inline.clone(),
            handler: Arc::clone(&handler),
        };
        threads.push(
            std::thread::Builder::new()
                .name("gve-net-reactor".into())
                .spawn(move || reactor.run())?,
        );

        Ok(EventLoopServer {
            port,
            backend,
            shared,
            threads: Mutex::new(threads),
        })
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Which poller backend is live: `"epoll"` or `"poll"`.
    pub fn backend(&self) -> &'static str {
        self.backend
    }

    /// Bounded-drain shutdown; blocks until the reactor and workers
    /// have exited. Idempotent.
    pub fn stop(&self) {
        // Release: publish everything preceding the signal to the
        // reactor's Acquire load.
        self.shared.stopping.store(true, Ordering::Release);
        self.shared.queue.close();
        self.shared.wake();
        // Scope the guard so it is released before the (blocking) joins.
        let handles = {
            let mut threads = lock_clean(&self.threads);
            std::mem::take(&mut *threads)
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for EventLoopServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Handler worker: pull a request, run the handler (panics become
/// 500s), hand the response back, wake the reactor.
fn worker_loop(shared: &Shared, handler: &Arc<dyn Fn(Request) -> Response + Send + Sync>) {
    while let Some((token, request)) = shared.queue.pop() {
        shared.metrics.handler_queue_depth.dec();
        let keep_alive = request.keep_alive;
        let response =
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler(request))) {
                Ok(response) => response,
                Err(_) => error_response(&HttpError {
                    status: 500,
                    message: "handler panicked".into(),
                }),
            };
        lock_clean(&shared.completions).push(Completion {
            token,
            response,
            keep_alive,
        });
        shared.wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::ClientConn;

    fn options_fast() -> NetOptions {
        NetOptions {
            handler_threads: 2,
            header_timeout: Duration::from_millis(300),
            idle_timeout: Duration::from_millis(800),
            drain_timeout: Duration::from_secs(2),
            ..NetOptions::default()
        }
    }

    fn echo_server(options: NetOptions) -> EventLoopServer {
        EventLoopServer::start("127.0.0.1:0", options, |req| {
            Response::json(
                200,
                format!("{{\"path\":\"{}\",\"len\":{}}}", req.path, req.body.len()),
            )
        })
        .unwrap()
    }

    #[test]
    fn keep_alive_roundtrips_many_requests_on_one_connection() {
        let registry = MetricsRegistry::new();
        let server = echo_server(NetOptions {
            metrics: Some(registry.clone()),
            ..options_fast()
        });
        let mut conn = ClientConn::connect(format!("127.0.0.1:{}", server.port())).unwrap();
        for i in 0..10 {
            let (status, body) = conn
                .request("POST", &format!("/r{i}"), Some("abc"))
                .unwrap();
            assert_eq!(status, 200);
            assert_eq!(body, format!("{{\"path\":\"/r{i}\",\"len\":3}}"));
        }
        let text = registry.render();
        assert!(
            text.contains("gve_net_keepalive_reuses_total 9"),
            "10 requests on one connection = 9 reuses:\n{text}"
        );
        assert!(text.contains("gve_net_accepted_total 1"), "{text}");
        server.stop();
    }

    #[test]
    fn concurrent_clients_are_multiplexed() {
        let server = Arc::new(echo_server(options_fast()));
        let mut joins = Vec::new();
        for c in 0..8 {
            let server = Arc::clone(&server);
            joins.push(std::thread::spawn(move || {
                let mut conn = ClientConn::connect(format!("127.0.0.1:{}", server.port())).unwrap();
                for i in 0..20 {
                    let (status, body) = conn.request("GET", &format!("/c{c}/i{i}"), None).unwrap();
                    assert_eq!(status, 200, "{body}");
                }
            }));
        }
        for join in joins {
            join.join().unwrap();
        }
        server.stop();
    }

    #[test]
    fn slowloris_partial_header_gets_408_and_counted() {
        let registry = MetricsRegistry::new();
        let server = echo_server(NetOptions {
            metrics: Some(registry.clone()),
            ..options_fast()
        });
        let mut stream = TcpStream::connect(format!("127.0.0.1:{}", server.port())).unwrap();
        stream
            .write_all(b"GET /stalled HTTP/1.1\r\nX-Drip: ")
            .unwrap();
        let mut out = String::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = String::new();
        let _ = std::io::Read::read_to_string(&mut stream, &mut buf);
        out.push_str(&buf);
        assert!(out.starts_with("HTTP/1.1 408"), "{out:?}");
        assert!(
            registry.render().contains("gve_http_timeouts_total 1"),
            "{}",
            registry.render()
        );
        server.stop();
    }

    #[test]
    fn idle_keepalive_connection_is_closed_silently() {
        let server = echo_server(options_fast());
        let mut conn = ClientConn::connect(format!("127.0.0.1:{}", server.port())).unwrap();
        let (status, _) = conn.request("GET", "/warm", None).unwrap();
        assert_eq!(status, 200);
        // Exceed the idle timeout; the server must close the socket.
        std::thread::sleep(Duration::from_millis(1500));
        let result = conn.request("GET", "/after-idle", None);
        assert!(
            result.is_err(),
            "idle connection should have been closed, got {result:?}"
        );
        server.stop();
    }

    #[test]
    fn oversized_header_gets_431() {
        let server = echo_server(NetOptions {
            limits: HttpLimits {
                max_header_bytes: 256,
                max_body_bytes: 1024,
            },
            ..options_fast()
        });
        let mut stream = TcpStream::connect(format!("127.0.0.1:{}", server.port())).unwrap();
        stream.write_all(b"GET / HTTP/1.1\r\n").unwrap();
        for _ in 0..64 {
            if stream.write_all(b"X-Pad: aaaaaaaaaaaaaaaa\r\n").is_err() {
                break; // server already closed on us — fine
            }
        }
        let mut out = String::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let _ = std::io::Read::read_to_string(&mut stream, &mut out);
        assert!(out.starts_with("HTTP/1.1 431"), "{out:?}");
        server.stop();
    }

    #[test]
    fn stop_finishes_in_flight_requests_and_closes_idle() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let handler_gate = Arc::clone(&gate);
        let server = Arc::new(
            EventLoopServer::start("127.0.0.1:0", options_fast(), move |_req| {
                let (lock, signal) = &*handler_gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = signal.wait(open).unwrap();
                }
                Response::json(200, "{\"drained\":true}")
            })
            .unwrap(),
        );
        let addr = format!("127.0.0.1:{}", server.port());

        // One in-flight request parked in the handler...
        let in_flight = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut conn = ClientConn::connect(addr).unwrap();
                conn.request("GET", "/in-flight", None)
            })
        };
        // ...and one idle keep-alive connection doing nothing.
        let _idle = TcpStream::connect(&addr).unwrap();
        std::thread::sleep(Duration::from_millis(200)); // let both arrive

        let stopper = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let t0 = Instant::now();
                server.stop();
                t0.elapsed()
            })
        };
        std::thread::sleep(Duration::from_millis(100));
        // Release the gate: the in-flight request must complete even
        // though stop() is already underway.
        {
            let (lock, signal) = &*gate;
            *lock.lock().unwrap() = true;
            signal.notify_all();
        }
        let (status, body) = in_flight.join().unwrap().expect("in-flight request failed");
        assert_eq!(status, 200, "{body}");
        let elapsed = stopper.join().unwrap();
        assert!(
            elapsed < Duration::from_secs(5),
            "stop took {elapsed:?}, drain is not bounded"
        );
    }

    #[test]
    fn connection_cap_answers_503() {
        let registry = MetricsRegistry::new();
        let server = echo_server(NetOptions {
            max_connections: 1,
            metrics: Some(registry.clone()),
            ..options_fast()
        });
        let addr = format!("127.0.0.1:{}", server.port());
        let mut first = ClientConn::connect(&addr).unwrap();
        let (status, _) = first.request("GET", "/one", None).unwrap();
        assert_eq!(status, 200);
        // Second concurrent connection is over the cap.
        let mut second = TcpStream::connect(&addr).unwrap();
        let mut out = String::new();
        second
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let _ = std::io::Read::read_to_string(&mut second, &mut out);
        assert!(out.starts_with("HTTP/1.1 503"), "{out:?}");
        assert!(
            registry
                .render()
                .contains("gve_net_rejected_connections_total 1"),
            "{}",
            registry.render()
        );
        server.stop();
    }

    #[test]
    fn portable_poll_backend_serves_requests() {
        let server = echo_server(NetOptions {
            force_portable_poll: true,
            ..options_fast()
        });
        assert_eq!(server.backend(), "poll");
        let mut conn = ClientConn::connect(format!("127.0.0.1:{}", server.port())).unwrap();
        for _ in 0..3 {
            let (status, _) = conn.request("GET", "/via-poll", None).unwrap();
            assert_eq!(status, 200);
        }
        server.stop();
    }

    /// Sends `raw` on a fresh connection and reads until the server
    /// closes it.
    fn raw_exchange(addr: &str, raw: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(raw).unwrap();
        let mut out = String::new();
        let _ = std::io::Read::read_to_string(&mut stream, &mut out);
        out
    }

    #[test]
    fn malformed_requests_are_rejected_not_crashing() {
        let server = echo_server(options_fast());
        let addr = format!("127.0.0.1:{}", server.port());
        let out = raw_exchange(&addr, b"NONSENSE\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 400"), "{out:?}");
        let out = raw_exchange(&addr, b"POST /x HTTP/1.1\r\nContent-Length: nine\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 400"), "{out:?}");
        assert!(out.contains("bad Content-Length"), "{out:?}");
        // The server survives and keeps answering.
        let (status, _) = crate::http::client_request(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        server.stop();
    }

    /// Error bodies used to be built with `format!("{:?}")`, whose Rust
    /// `Debug` escapes (`\u{1f}`) are not valid JSON. A request line
    /// whose version token carries control and non-ASCII bytes lands
    /// verbatim in the error message, and the wire body must still
    /// parse as JSON.
    #[test]
    fn error_bodies_parse_end_to_end() {
        let server = echo_server(options_fast());
        let addr = format!("127.0.0.1:{}", server.port());
        let out = raw_exchange(&addr, "GET /x BAD\u{1f}λ/9\r\n\r\n".as_bytes());
        assert!(out.starts_with("HTTP/1.1 400"), "{out:?}");
        let body = out.split("\r\n\r\n").nth(1).expect("response has a body");
        let parsed = gve_obs::json::parse(body).expect("wire error body must be valid JSON");
        let message = parsed.get("error").and_then(Json::as_str).unwrap();
        assert!(message.contains("BAD\u{1f}λ/9"), "{message:?}");
        server.stop();
    }

    #[test]
    fn handler_panic_becomes_500_and_connection_survives() {
        let server = EventLoopServer::start("127.0.0.1:0", options_fast(), |req| {
            if req.path == "/boom" {
                panic!("deliberate test panic");
            }
            Response::json(200, "{}")
        })
        .unwrap();
        let mut conn = ClientConn::connect(format!("127.0.0.1:{}", server.port())).unwrap();
        let (status, body) = conn.request("GET", "/boom", None).unwrap();
        assert_eq!(status, 500, "{body}");
        // Same connection keeps working: the worker pool survived.
        let (status, _) = conn.request("GET", "/fine", None).unwrap();
        assert_eq!(status, 200);
        server.stop();
    }
}
