//! Transport abstraction: one protocol, two stream families.
//!
//! The NDJSON protocol ([`crate::proto`]) is transport-agnostic — frames
//! are the same bytes whether they cross a Unix domain socket (one box,
//! lowest latency) or TCP (a fleet). This module erases the difference
//! behind three small types:
//!
//! * [`Endpoint`] — where to listen/connect (`unix:/path` or
//!   `tcp:host:port`), with a parseable, printable spelling shared by
//!   every binary's `--listen`/`--socket` flags;
//! * `Listener` / [`Stream`] — enum wrappers over the `std::net` and
//!   `std::os::unix::net` pairs, so the daemon's accept loop and the
//!   client are written once.
//!
//! It also owns the hardened connection plumbing both servers
//! (`qlosured` and `qlosure-router`) share:
//!
//! * `serve_connection` — the one frame loop: read a frame, parse it,
//!   hand the request to the server's dispatcher, write its response;
//!   unparseable and oversized frames are answered with typed errors;
//! * `read_frame` — a resumable bounded frame reader that survives
//!   read-timeout wakeups (so a connection thread can observe shutdown),
//!   cuts oversized frames off mid-read, and enforces an idle deadline
//!   (a slowloris client cannot pin an OS thread forever);
//! * `accept_loop` — a blocking accept loop with a connection cap
//!   (excess connections are refused with a typed `busy` error frame,
//!   never silently dropped) that **joins every live connection thread**
//!   on graceful shutdown instead of leaking detached threads;
//! * `StopFlag` — the shutdown flag both servers raise, which wakes the
//!   blocked `accept` by connecting to the listener once, so nothing on
//!   the serving path sleeps on a timer.

use crate::proto::{encode_response, parse_request, ErrorCode, Request, Response, MAX_FRAME};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use trace::journal::{self, Level};

/// How often a blocked connection read wakes up to check the shutdown
/// flag and its idle deadline. Far below human-observable latency, far
/// above syscall-churn territory.
pub(crate) const CONN_TICK: Duration = Duration::from_millis(100);

/// A serving or connection address: a Unix domain socket path or a TCP
/// `host:port`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// Unix domain socket at this path.
    Unix(PathBuf),
    /// TCP address in `host:port` form.
    Tcp(String),
}

impl Endpoint {
    /// Parses the flag spelling: `unix:/path`, `tcp:host:port`, or a bare
    /// path (treated as a Unix socket, the historical default).
    ///
    /// # Errors
    ///
    /// A human-readable message for an empty or malformed spelling.
    pub fn parse(text: &str) -> Result<Endpoint, String> {
        if let Some(rest) = text.strip_prefix("tcp:") {
            if rest.is_empty() || !rest.contains(':') {
                return Err(format!("`{text}`: tcp endpoints are tcp:host:port"));
            }
            return Ok(Endpoint::Tcp(rest.to_string()));
        }
        let path = text.strip_prefix("unix:").unwrap_or(text);
        if path.is_empty() {
            return Err(format!("`{text}`: empty endpoint"));
        }
        Ok(Endpoint::Unix(PathBuf::from(path)))
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// A bound server socket on either transport.
pub(crate) enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

/// Binds `endpoint` without stealing a live daemon's Unix socket: an
/// existing socket file is *probed* with a connect first — if something
/// answers, the bind refuses with `AddrInUse` (the operator addressed two
/// servers at one path); only a genuinely stale file (connect fails: the
/// previous owner is gone) is unlinked and replaced.
pub(crate) fn bind(endpoint: &Endpoint) -> std::io::Result<Listener> {
    match endpoint {
        Endpoint::Unix(path) => {
            if path.exists() {
                if UnixStream::connect(path).is_ok() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::AddrInUse,
                        format!(
                            "a live server already answers on {} — refusing to steal its socket",
                            path.display()
                        ),
                    ));
                }
                std::fs::remove_file(path)?;
            }
            UnixListener::bind(path).map(Listener::Unix)
        }
        Endpoint::Tcp(addr) => TcpListener::bind(addr.as_str()).map(Listener::Tcp),
    }
}

impl Listener {
    pub(crate) fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }

    /// The endpoint a local client reaches this listener on. For TCP
    /// this resolves `port 0` to the kernel-assigned port (which is how
    /// tests listen collision-free) and a wildcard address (`0.0.0.0`,
    /// `::`) to loopback of the same family.
    pub(crate) fn local_endpoint(&self, requested: &Endpoint) -> Endpoint {
        match self {
            Listener::Unix(_) => requested.clone(),
            Listener::Tcp(l) => match l.local_addr() {
                Ok(mut addr) => {
                    if addr.ip().is_unspecified() {
                        addr.set_ip(match addr.ip() {
                            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                        });
                    }
                    Endpoint::Tcp(addr.to_string())
                }
                Err(_) => requested.clone(),
            },
        }
    }
}

/// A server's shutdown flag, bound to the listener it has to wake.
///
/// The accept loop blocks in `accept`, so setting a flag alone would
/// leave it asleep until the next client happened by. [`StopFlag::raise`]
/// also connects to the listener's own address, once, on the first raise
/// only; the accept loop checks the flag as soon as `accept` returns and
/// drops that connection unread.
pub(crate) struct StopFlag {
    raised: AtomicBool,
    /// Where the wake connection goes: the listener's
    /// [`Listener::local_endpoint`].
    wake: Endpoint,
}

impl StopFlag {
    /// A lowered flag whose raise wakes the listener at `wake`.
    pub(crate) fn new(wake: Endpoint) -> StopFlag {
        StopFlag {
            raised: AtomicBool::new(false),
            wake,
        }
    }

    pub(crate) fn is_raised(&self) -> bool {
        self.raised.load(Ordering::SeqCst)
    }

    /// Raises the flag. Only the false→true transition connects to the
    /// listener, so racing raises wake the accept loop once.
    pub(crate) fn raise(&self) {
        if !self.raised.swap(true, Ordering::SeqCst) {
            // Best effort: if the connect fails, the listener is already
            // gone or the next real connection wakes the loop instead.
            let _ = Stream::connect(&self.wake);
        }
    }
}

/// A connected stream on either transport. Implements [`Read`] and
/// [`Write`]; clone with [`Stream::try_clone`] to split reader/writer.
#[derive(Debug)]
pub enum Stream {
    /// A Unix domain socket connection.
    Unix(UnixStream),
    /// A TCP connection.
    Tcp(TcpStream),
}

impl Stream {
    /// Connects to `endpoint`.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(endpoint: &Endpoint) -> std::io::Result<Stream> {
        match endpoint {
            Endpoint::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
            Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).map(Stream::Tcp),
        }
    }

    /// Clones the underlying socket handle (shared file offset — the
    /// standard reader/writer split).
    ///
    /// # Errors
    ///
    /// Propagates `dup` failures.
    pub fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }

    /// Sets the socket read timeout (reads then fail with
    /// `WouldBlock`/`TimedOut` instead of blocking forever).
    ///
    /// # Errors
    ///
    /// Propagates `setsockopt` failures.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(timeout),
            Stream::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    /// Sets the socket write timeout.
    ///
    /// # Errors
    ///
    /// Propagates `setsockopt` failures.
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_write_timeout(timeout),
            Stream::Tcp(s) => s.set_write_timeout(timeout),
        }
    }

    /// Shuts the connection down (both directions).
    pub fn shutdown(&self) {
        match self {
            Stream::Unix(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
            Stream::Tcp(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// What [`read_frame`] observed on the connection.
enum FrameEvent {
    /// One complete `\n`-terminated frame (newline stripped, lossy UTF-8).
    Frame(String),
    /// The peer closed the connection (a partial unterminated frame, if
    /// any, is discarded — it can never complete).
    Eof,
    /// The frame is longer than [`MAX_FRAME`] bytes, whether the bound was
    /// hit before the newline or the newline came just past it; `usize` is
    /// the observed length. The caller answers and closes the connection.
    Oversized(usize),
    /// No complete frame arrived within the idle limit — a stalled or
    /// slowloris peer. The caller should close the connection.
    IdleTimeout,
    /// The server's shutdown flag was raised while waiting.
    Shutdown,
}

/// Reads one `\n`-terminated frame with the [`MAX_FRAME`] bound applied
/// *while reading* (an adversarial multi-gigabyte line is cut off rather
/// than buffered) and an idle deadline applied across timeout wakeups (a
/// peer trickling bytes without ever finishing a frame is disconnected).
///
/// The stream's read timeout must be set (to [`CONN_TICK`]) so a blocked
/// read wakes periodically; partial bytes accumulated before a wakeup are
/// kept and the read resumes where it left off.
fn read_frame<S: Read>(
    reader: &mut BufReader<S>,
    shutdown: &AtomicBool,
    idle_limit: Duration,
) -> std::io::Result<FrameEvent> {
    let mut buf = Vec::new();
    let start = Instant::now();
    loop {
        if buf.last() == Some(&b'\n') {
            while matches!(buf.last(), Some(b'\n' | b'\r')) {
                buf.pop();
            }
            if buf.len() > MAX_FRAME {
                return Ok(FrameEvent::Oversized(buf.len()));
            }
            let line = match String::from_utf8(buf) {
                Ok(line) => line,
                // Surface invalid UTF-8 as an unparseable frame; the
                // dispatcher answers with a typed bad-request error.
                Err(_) => "\u{FFFD}".to_string(),
            };
            return Ok(FrameEvent::Frame(line));
        }
        if buf.len() > MAX_FRAME {
            return Ok(FrameEvent::Oversized(buf.len()));
        }
        let budget = (MAX_FRAME + 2 - buf.len()) as u64;
        match (&mut *reader).take(budget).read_until(b'\n', &mut buf) {
            // `budget >= 2` here, so 0 bytes is a genuine EOF.
            Ok(0) => return Ok(FrameEvent::Eof),
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                // A timeout wakeup, not a dead peer: bytes already read
                // stay in `buf` and the next round resumes the frame.
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(FrameEvent::Shutdown);
                }
                if start.elapsed() >= idle_limit {
                    return Ok(FrameEvent::IdleTimeout);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Serves one connection until the peer hangs up, the server stops, the
/// idle deadline passes or `answer` ends it. Each frame is parsed and
/// handed to `answer`, whose response is written back as one line; its
/// flag says whether that response ends the connection (a shutdown
/// acknowledgement). A frame that does not parse is answered with its
/// typed error and the connection keeps serving; a frame over the
/// [`MAX_FRAME`] bound is answered with `oversized` and the connection
/// closed, since a frame cut off at the bound leaves the stream
/// desynchronized, and one rule holds for every length past it.
pub(crate) fn serve_connection(
    stream: Stream,
    stop: &StopFlag,
    idle_limit: Duration,
    mut answer: impl FnMut(Request) -> (Response, bool),
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let (response, end) = match read_frame(&mut reader, &stop.raised, idle_limit)? {
            // Tolerate blank keep-alive lines.
            FrameEvent::Frame(line) if line.is_empty() => continue,
            FrameEvent::Frame(line) => match parse_request(&line) {
                Ok(request) => answer(request),
                Err(e) => (
                    Response::Error {
                        code: e.code(),
                        message: e.to_string(),
                    },
                    false,
                ),
            },
            FrameEvent::Oversized(len) => (
                Response::Error {
                    code: ErrorCode::Oversized,
                    message: format!("frame of {len}+ bytes exceeds the {MAX_FRAME}-byte limit"),
                },
                true,
            ),
            // The client hung up or the server is stopping: close so the
            // accept loop can join.
            FrameEvent::Eof | FrameEvent::Shutdown => return Ok(()),
            // Idle past the deadline: same close, but journaled — a
            // client that keeps timing out is worth noticing.
            FrameEvent::IdleTimeout => {
                journal::event(
                    Level::Info,
                    "net",
                    "idle connection disconnected",
                    &[("idle_seconds", &format!("{:.1}", idle_limit.as_secs_f64()))],
                );
                return Ok(());
            }
        };
        let frame = encode_response(&response).map_err(std::io::Error::other)?;
        writer.write_all(format!("{frame}\n").as_bytes())?;
        writer.flush()?;
        if end {
            return Ok(());
        }
    }
}

/// Connection-handling limits shared by the daemon and the router.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ConnLimits {
    /// Live connections beyond this are refused with a typed `busy`
    /// error frame.
    pub max_connections: usize,
    /// A connection with no complete frame for this long is closed.
    pub read_timeout: Duration,
}

/// Runs the accept loop until `stop` is raised: every accepted stream
/// gets its read timeout armed and is handed to `handler` on its own
/// thread; connections beyond `limits.max_connections` are refused with a
/// typed [`ErrorCode::Busy`] frame. `accept` blocks; [`StopFlag::raise`]
/// wakes it with a connection of its own. On exit — shutdown or a fatal
/// accept error — every live connection thread is **joined** (a handler
/// waiting for a frame observes the flag within one [`CONN_TICK`] via
/// [`read_frame`]), so the caller can tear the process down knowing no
/// detached thread still holds its state.
pub(crate) fn accept_loop<H>(
    listener: &Listener,
    stop: &StopFlag,
    limits: ConnLimits,
    handler: Arc<H>,
) -> std::io::Result<()>
where
    H: Fn(Stream) + Send + Sync + 'static,
{
    let active = Arc::new(AtomicUsize::new(0));
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    let mut accept_error = None;
    loop {
        let stream = match listener.accept() {
            Ok(stream) => stream,
            Err(e) => {
                accept_error = Some(e);
                break;
            }
        };
        // Checked before the cap, so the wake connection of a raise ends
        // the loop instead of drawing a `busy` refusal.
        if stop.is_raised() {
            break;
        }
        threads.retain(|t| !t.is_finished());
        if active.load(Ordering::SeqCst) >= limits.max_connections {
            refuse_busy(stream, limits.max_connections);
            continue;
        }
        if stream.set_read_timeout(Some(CONN_TICK)).is_err()
            || stream.set_write_timeout(Some(limits.read_timeout)).is_err()
        {
            continue; // peer already gone
        }
        active.fetch_add(1, Ordering::SeqCst);
        let (active, handler) = (active.clone(), handler.clone());
        threads.push(std::thread::spawn(move || {
            handler(stream);
            active.fetch_sub(1, Ordering::SeqCst);
        }));
    }
    // Raise the flag for the fatal-accept-error path too, then join every
    // connection: each blocked read wakes within a CONN_TICK and observes
    // it via `read_frame`.
    stop.raise();
    for thread in threads {
        let _ = thread.join();
    }
    match accept_error {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Best-effort typed refusal for a connection over the cap.
fn refuse_busy(mut stream: Stream, cap: usize) {
    journal::event(
        Level::Warn,
        "net",
        "connection refused at the cap",
        &[("max_connections", &cap.to_string())],
    );
    let response = Response::Error {
        code: ErrorCode::Busy,
        message: format!("connection limit reached ({cap} live connections)"),
    };
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    if let Ok(frame) = encode_response(&response) {
        let _ = stream.write_all(format!("{frame}\n").as_bytes());
        let _ = stream.flush();
    }
    stream.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parse_round_trips_the_flag_spelling() {
        assert_eq!(
            Endpoint::parse("unix:/tmp/q.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/q.sock"))
        );
        assert_eq!(
            Endpoint::parse("/tmp/q.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/q.sock")),
            "bare paths stay Unix sockets (historical default)"
        );
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:7911").unwrap(),
            Endpoint::Tcp("127.0.0.1:7911".to_string())
        );
        for bad in ["", "unix:", "tcp:", "tcp:localhost"] {
            assert!(Endpoint::parse(bad).is_err(), "`{bad}` must not parse");
        }
        for spelled in ["unix:/tmp/q.sock", "tcp:127.0.0.1:7911"] {
            assert_eq!(
                Endpoint::parse(spelled).unwrap().to_string(),
                spelled,
                "Display is the parseable spelling"
            );
        }
    }

    #[test]
    fn frame_reader_resumes_across_timeout_wakeups() {
        // A socketpair where the writer trickles a frame in two halves
        // slower than the read timeout tick: the reader must keep the
        // partial bytes and finish the frame.
        let (mut tx, rx) = UnixStream::pair().unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        let writer = std::thread::spawn(move || {
            tx.write_all(b"{\"half\":").unwrap();
            tx.flush().unwrap();
            std::thread::sleep(Duration::from_millis(60));
            tx.write_all(b"1}\n").unwrap();
            tx.flush().unwrap();
        });
        let shutdown = AtomicBool::new(false);
        let mut reader = BufReader::new(Stream::Unix(rx));
        match read_frame(&mut reader, &shutdown, Duration::from_secs(5)).unwrap() {
            FrameEvent::Frame(line) => assert_eq!(line, "{\"half\":1}"),
            _ => panic!("split frame must still be assembled"),
        }
        writer.join().unwrap();
    }

    #[test]
    fn frame_reader_times_out_a_stalled_peer() {
        let (tx, rx) = UnixStream::pair().unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        let shutdown = AtomicBool::new(false);
        let mut reader = BufReader::new(Stream::Unix(rx));
        let t0 = Instant::now();
        match read_frame(&mut reader, &shutdown, Duration::from_millis(80)).unwrap() {
            FrameEvent::IdleTimeout => {}
            _ => panic!("a silent peer must hit the idle limit"),
        }
        assert!(t0.elapsed() < Duration::from_secs(5), "bounded wait");
        drop(tx);
    }

    #[test]
    fn frame_reader_observes_shutdown_mid_wait() {
        let (tx, rx) = UnixStream::pair().unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        let shutdown = AtomicBool::new(true); // raised before the wait
        let mut reader = BufReader::new(Stream::Unix(rx));
        match read_frame(&mut reader, &shutdown, Duration::from_secs(60)).unwrap() {
            FrameEvent::Shutdown => {}
            _ => panic!("shutdown must interrupt the wait"),
        }
        drop(tx);
    }

    #[test]
    fn frame_reader_cuts_oversized_frames_mid_read() {
        let (mut tx, rx) = UnixStream::pair().unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        let writer = std::thread::spawn(move || {
            // MAX_FRAME + slack of newline-free bytes.
            let chunk = vec![b'x'; 64 * 1024];
            let mut sent = 0usize;
            while sent <= MAX_FRAME + 2 {
                if tx.write_all(&chunk).is_err() {
                    return; // reader hung up after flagging oversize
                }
                sent += chunk.len();
            }
        });
        let shutdown = AtomicBool::new(false);
        let mut reader = BufReader::new(Stream::Unix(rx));
        match read_frame(&mut reader, &shutdown, Duration::from_secs(60)).unwrap() {
            FrameEvent::Oversized(len) => assert!(len > MAX_FRAME),
            _ => panic!("an endless line must be flagged oversized"),
        }
        drop(reader); // hang up so the writer unblocks
        writer.join().unwrap();
    }
}
