//! TCP daemon: an acceptor thread feeding a fixed worker pool — hardened
//! against overload and misbehaving clients.
//!
//! Deliberately boring concurrency: the acceptor pushes accepted
//! connections into a **bounded** `sync_channel`; `threads` workers share
//! the receiver behind a mutex and each owns one connection at a time for
//! its whole lifetime (a connection is a session — per-frame handoff
//! would buy nothing and cost ordering). All actual synchronization lives
//! in the catalog's epoch swap, so the pool is just plumbing; `threads`
//! bounds the number of concurrently *served* connections.
//!
//! The overload model ([`ServerConfig`]):
//!
//! * **Admission control** — at most `max_conns` connections may be
//!   accepted-and-unfinished at once, and at most `queue_cap` may wait in
//!   the channel for a worker. Past either limit the acceptor writes a
//!   best-effort `ERR busy retry_after_ms=…` frame and closes — an
//!   explicit refusal, never a silent hang.
//! * **Slow-client defense** — every accepted socket gets read/write
//!   timeouts (`io_timeout`). A client that connects and goes silent (or
//!   reads its responses one byte a minute) loses its session at the
//!   timeout instead of pinning a pool worker forever.
//! * **Disconnect detection** — a watchdog thread peeks each session's
//!   socket while its worker is inside a computation; a vanished client
//!   fires the session's [`Cancel`] token, and the engines abandon the
//!   work at their next checkpoint.
//! * **Graceful drain** — [`Server::drain`] stops accepting, refuses
//!   queued sessions with `ERR draining`, closes idle sessions, lets
//!   in-flight frames finish within the grace period, then hard-cancels
//!   stragglers (token + socket shutdown) and joins every thread.

use crate::proto::{read_frame, write_frame};
use crate::service::{Service, SHED_RETRY_MS};
use egobtw_core::Cancel;
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::spawn_with`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads = concurrently served sessions.
    pub threads: usize,
    /// Accepted connections that may wait for a worker before the
    /// acceptor starts shedding with `ERR busy`.
    pub queue_cap: usize,
    /// Accepted-and-unfinished connections (served + queued) before the
    /// acceptor sheds. `0` means unlimited.
    pub max_conns: usize,
    /// Per-socket read/write timeout; a session idle (or stalled) past it
    /// is closed, freeing its worker. `None` disables the defense.
    pub io_timeout: Option<Duration>,
    /// How long [`Server::shutdown`] waits for in-flight frames before
    /// hard-cancelling them.
    pub drain_grace: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 4,
            queue_cap: 64,
            max_conns: 256,
            io_timeout: Some(Duration::from_secs(30)),
            drain_grace: Duration::from_secs(2),
        }
    }
}

/// One live session as the watchdog sees it.
struct SessionEntry {
    cancel: Cancel,
    stream: TcpStream,
    /// True while the worker is inside `handle_payload` — the only window
    /// in which the watchdog may touch the socket (the worker is off it).
    busy: AtomicBool,
    /// Serializes the watchdog's nonblocking-peek window against the
    /// worker resuming socket I/O: the worker takes it (briefly) when
    /// clearing `busy`, so the watchdog never leaves the socket in
    /// nonblocking mode for a worker write to trip over. Setting `busy`
    /// takes it too, so a drain's idle check never races a frame that
    /// was just read.
    io_lock: Mutex<()>,
}

type Registry = Arc<Mutex<HashMap<u64, Arc<SessionEntry>>>>;

/// A running server: the bound address plus the handles needed to stop it.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
    watchdog_stop: Arc<AtomicBool>,
    registry: Registry,
    drain_grace: Duration,
}

impl Server {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts the
    /// acceptor plus `threads` workers over `service`, with default
    /// overload limits.
    pub fn spawn<A: ToSocketAddrs>(
        service: Arc<Service>,
        addr: A,
        threads: usize,
    ) -> std::io::Result<Server> {
        Server::spawn_with(
            service,
            addr,
            ServerConfig {
                threads,
                ..ServerConfig::default()
            },
        )
    }

    /// [`Server::spawn`] with explicit overload limits.
    pub fn spawn_with<A: ToSocketAddrs>(
        service: Arc<Service>,
        addr: A,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        assert!(cfg.threads >= 1, "need at least one worker");
        assert!(cfg.queue_cap >= 1, "need at least one queue slot");
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let registry: Registry = Arc::new(Mutex::new(HashMap::new()));
        let active = Arc::new(AtomicU64::new(0));
        // The channel carries the accept timestamp so the worker can
        // attribute queue wait to the session's first frame.
        type Queued = (TcpStream, Instant);
        let (tx, rx): (SyncSender<Queued>, Receiver<Queued>) = sync_channel(cfg.queue_cap);
        let rx = Arc::new(Mutex::new(rx));

        let workers = (0..cfg.threads)
            .map(|worker_id| {
                let rx = rx.clone();
                let service = service.clone();
                let shutdown = shutdown.clone();
                let registry = registry.clone();
                let active = active.clone();
                let io_timeout = cfg.io_timeout;
                std::thread::spawn(move || loop {
                    // Hold the receiver lock only for the recv itself.
                    let (stream, accepted_at) = match rx.lock().unwrap().recv() {
                        Ok(s) => s,
                        Err(_) => return, // acceptor gone: drain complete
                    };
                    let queue_ns = accepted_at.elapsed().as_nanos() as u64;
                    if shutdown.load(Ordering::SeqCst) {
                        // Draining: a queued session is refused, not
                        // served — explicitly, so the client backs off
                        // instead of timing out.
                        stream
                            .set_write_timeout(Some(Duration::from_millis(250)))
                            .ok();
                        let _ = write_frame(&stream, "ERR draining");
                        active.fetch_sub(1, Ordering::SeqCst);
                        continue;
                    }
                    // A broken connection only ends that session, and a
                    // panic while serving one (e.g. a malformed dataset
                    // file tripping an assert) must not shrink the fixed
                    // pool — contain it and take the next connection.
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        serve_connection(
                            &service, stream, &registry, &shutdown, io_timeout, queue_ns,
                        )
                    }));
                    active.fetch_sub(1, Ordering::SeqCst);
                    if outcome.is_err() {
                        egobtw_telemetry::global()
                            .warn("worker-panic", &[("worker", &worker_id.to_string())]);
                    }
                })
            })
            .collect();

        let acceptor = {
            let shutdown = shutdown.clone();
            let service = service.clone();
            let active = active.clone();
            let max_conns = cfg.max_conns;
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        return; // drops tx: workers drain and exit
                    }
                    let Ok(stream) = stream else { continue };
                    let now_active = active.fetch_add(1, Ordering::SeqCst) + 1;
                    if max_conns > 0 && now_active as usize > max_conns {
                        shed(&service, &active, stream);
                        continue;
                    }
                    match tx.try_send((stream, Instant::now())) {
                        Ok(()) => {}
                        Err(TrySendError::Full((stream, _))) => shed(&service, &active, stream),
                        Err(TrySendError::Disconnected(_)) => return,
                    }
                }
            })
        };

        let watchdog_stop = Arc::new(AtomicBool::new(false));
        let watchdog = {
            let registry = registry.clone();
            let stop = watchdog_stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    for entry in registry.lock().unwrap().values() {
                        let _io = entry.io_lock.lock().unwrap();
                        if entry.busy.load(Ordering::SeqCst) && peer_is_gone(&entry.stream) {
                            entry.cancel.cancel();
                        }
                    }
                    std::thread::park_timeout(Duration::from_millis(25));
                }
            })
        };

        Ok(Server {
            addr: local,
            shutdown,
            acceptor: Some(acceptor),
            workers,
            watchdog: Some(watchdog),
            watchdog_stop,
            registry,
            drain_grace: cfg.drain_grace,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Gracefully drains with the configured grace period; see
    /// [`Server::drain`].
    pub fn shutdown(self) {
        let grace = self.drain_grace;
        self.drain(grace);
    }

    /// Stops accepting, refuses queued sessions with `ERR draining`,
    /// closes idle sessions, lets in-flight frames finish for up to
    /// `grace`, then hard-cancels the stragglers (cancel token + socket
    /// shutdown) and joins every thread.
    pub fn drain(mut self, grace: Duration) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking accept with a throwaway
        // connection; it sees the flag before handing the stream on.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join(); // drops tx: the queue stops growing
        }
        let deadline = Instant::now() + grace;
        loop {
            // An idle session (its worker blocked reading the next frame)
            // has nothing in flight: closing its read side frees the
            // worker now instead of at the end of the grace period. A
            // session inside a frame is left alone; it bows out after
            // writing the response. Repeated every tick to catch sessions
            // a worker picked up just before the drain began.
            for entry in self.registry.lock().unwrap().values() {
                let _io = entry.io_lock.lock().unwrap();
                if !entry.busy.load(Ordering::SeqCst) {
                    let _ = entry.stream.shutdown(Shutdown::Read);
                }
            }
            if Instant::now() >= deadline || self.workers.iter().all(|h| h.is_finished()) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Grace spent: abandon whatever is still running. The token stops
        // the compute at its next checkpoint; the socket shutdown kicks
        // any worker blocked in a read.
        for entry in self.registry.lock().unwrap().values() {
            entry.cancel.cancel();
            let _ = entry.stream.shutdown(Shutdown::Both);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.watchdog_stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.watchdog.take() {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

/// Acceptor-side refusal: a best-effort `ERR busy` frame, then close. The
/// short write timeout keeps an unresponsive peer from stalling the
/// acceptor itself.
fn shed(service: &Service, active: &AtomicU64, stream: TcpStream) {
    service.overload().shed.inc();
    stream
        .set_write_timeout(Some(Duration::from_millis(250)))
        .ok();
    let _ = write_frame(&stream, &format!("ERR busy retry_after_ms={SHED_RETRY_MS}"));
    active.fetch_sub(1, Ordering::SeqCst);
}

/// Nonblocking liveness peek, used only while the session's worker is
/// inside a computation (so nobody else is on the socket). `Ok(0)` is the
/// peer's FIN; `WouldBlock` is a healthy idle socket.
fn peer_is_gone(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let mut probe = [0u8; 1];
    let gone = match stream.peek(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    stream.set_nonblocking(false).ok();
    gone
}

/// One session: frames in, framed responses out, until the client hangs
/// up cleanly, times out, or the server drains.
fn serve_connection(
    service: &Service,
    stream: TcpStream,
    registry: &Registry,
    draining: &AtomicBool,
    io_timeout: Option<Duration>,
    queue_ns: u64,
) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    if let Some(t) = io_timeout {
        stream.set_read_timeout(Some(t)).ok();
        stream.set_write_timeout(Some(t)).ok();
    }
    static NEXT_SESSION: AtomicU64 = AtomicU64::new(0);
    let id = NEXT_SESSION.fetch_add(1, Ordering::Relaxed);
    let entry = Arc::new(SessionEntry {
        cancel: Cancel::new(),
        stream: stream.try_clone()?,
        busy: AtomicBool::new(false),
        io_lock: Mutex::new(()),
    });
    registry.lock().unwrap().insert(id, entry.clone());
    // Unregister on every exit path, including panics in handlers.
    struct Unregister<'a>(&'a Registry, u64);
    impl Drop for Unregister<'_> {
        fn drop(&mut self) {
            self.0.lock().unwrap().remove(&self.1);
        }
    }
    let _unregister = Unregister(registry, id);

    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let write_ns = service.metrics().registry().histogram(
        "egobtw_write_ns",
        "Response frame write time in nanoseconds.",
        &[],
    );
    let mut first_frame = true;
    while let Some(payload) = read_frame(&mut reader)? {
        {
            // Under the lock so a drain never sees a read frame as idle.
            let _io = entry.io_lock.lock().unwrap();
            entry.busy.store(true, Ordering::SeqCst);
        }
        // Queue wait (accept → worker pickup) belongs to the session's
        // first frame only; later frames never sat in the accept queue.
        let wait = if first_frame { queue_ns } else { 0 };
        first_frame = false;
        let response = service.handle_payload_queued(&payload, &entry.cancel, wait);
        {
            // Synchronize with the watchdog before touching the socket
            // again (it may be mid-peek with the socket nonblocking).
            let _io = entry.io_lock.lock().unwrap();
            entry.busy.store(false, Ordering::SeqCst);
        }
        if entry.cancel.is_flagged() {
            // Client gone (or drain hard-cancel): the response has no
            // reader; don't block trying to send it.
            break;
        }
        let start = Instant::now();
        write_frame(&mut writer, &response)?;
        write_ns.record(start.elapsed().as_nanos() as u64);
        if draining.load(Ordering::SeqCst) {
            break; // finish the in-flight frame, then bow out
        }
    }
    Ok(())
}

/// Client-side helper: one framed round trip on an established stream.
pub fn roundtrip(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    payload: &str,
) -> std::io::Result<String> {
    write_frame(&mut *writer, payload)?;
    read_frame(reader)?.ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        )
    })
}

/// Client-side helper: connect with retries (the daemon may still be
/// binding when a script starts), returning the buffered reader/writer
/// pair used by [`roundtrip`].
pub fn connect_with_retry(
    addr: &str,
    max_wait: std::time::Duration,
) -> std::io::Result<(BufReader<TcpStream>, TcpStream)> {
    let deadline = std::time::Instant::now() + max_wait;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                return Ok((BufReader::new(stream.try_clone()?), stream));
            }
            Err(e) => {
                if std::time::Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
    }
}

/// Jittered exponential backoff for retrying shed (`ERR busy`), draining,
/// or transport-failed requests. Deterministic for a given `seed`, so
/// tests and the seeded chaos harness replay identically.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts, the first included.
    pub attempts: u32,
    /// Backoff before the first retry; doubles per retry after that.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 6,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `retry` (0-based): exponential with
    /// full jitter over the upper half of the window, capped at
    /// [`RetryPolicy::cap`].
    pub fn backoff(&self, retry: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(retry.min(20)).unwrap_or(u32::MAX));
        let window = exp.min(self.cap).max(Duration::from_millis(1));
        let mut x = self
            .seed
            .wrapping_add(u64::from(retry) + 1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        let nanos = window.as_nanos() as u64;
        Duration::from_nanos(nanos / 2 + x % (nanos / 2 + 1))
    }
}

/// Whether a response line tells the client to back off and try again
/// (load shed or drain refusal — *not* ordinary command errors).
pub fn is_retryable_response(response: &str) -> bool {
    response
        .lines()
        .any(|l| l.starts_with("ERR busy") || l.starts_with("ERR draining"))
}

/// One payload, retried under `policy`: reconnects per attempt (the shed
/// path closes the connection) and backs off on transport errors and
/// `ERR busy` / `ERR draining` refusals.
///
/// Safe to call with read-only payloads unconditionally. A payload with
/// an `UPDATE` is only retry-safe if the command carries a `seq=` token —
/// the refusal may race the ack, and without the token a replayed batch
/// would double-apply.
pub fn call_with_retry(addr: &str, payload: &str, policy: &RetryPolicy) -> std::io::Result<String> {
    let mut last_err = std::io::Error::other("no attempts configured");
    let mut last_refusal: Option<String> = None;
    for attempt in 0..policy.attempts.max(1) {
        if attempt > 0 {
            std::thread::sleep(policy.backoff(attempt - 1));
        }
        match connect_with_retry(addr, Duration::from_secs(1)) {
            Ok((mut reader, mut writer)) => match roundtrip(&mut reader, &mut writer, payload) {
                Ok(resp) if is_retryable_response(&resp) => last_refusal = Some(resp),
                Ok(resp) => return Ok(resp),
                Err(e) => last_err = e,
            },
            Err(e) => last_err = e,
        }
    }
    // Out of attempts: a final explicit refusal beats a transport error —
    // the caller sees exactly what the server said.
    match last_refusal {
        Some(resp) => Ok(resp),
        None => Err(last_err),
    }
}
