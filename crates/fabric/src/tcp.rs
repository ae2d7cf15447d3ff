//! TCP transport: the fabric's line protocol over sockets.
//!
//! The wire format is *identical* to the pipe transport — one JSON
//! line per [`ShardSpec`](crate::protocol::ShardSpec) toward the
//! worker, one per [`WorkerReply`](crate::protocol::WorkerReply) back,
//! no length prefixes, `\n` framing (see `docs/PROTOCOL.md`) — and so
//! is the code above the bytes: the worker side runs
//! [`serve_session`] per connection and the supervisor side splits
//! replies with the same line pump as a pipe. What the socket adds is
//! *failure modes pipes don't have* — half-open connections, torn
//! writes, silent peers — so this module adds the machinery to make
//! them degrade exactly like a killed subprocess:
//!
//! * **Connect timeouts.** Connects are bounded by
//!   [`TcpOptions::connect_timeout`]. Reads block; killing a link shuts
//!   its socket down, which wakes a blocked read with EOF.
//! * **Heartbeats.** A served worker beats every
//!   [`ServeOptions::heartbeat`], even mid-shard, so the supervisor's
//!   host-liveness window can tell a slow shard from a dead host.
//! * **Reconnection.** A dropped connection is retried with the
//!   scheduler's bounded exponential backoff; success surfaces as
//!   [`WorkerEvent::Reset`] (in-flight shard requeued, worker kept),
//!   exhaustion as [`WorkerEvent::Gone`] (host quarantined).
//!
//! [`serve_listener`] is the worker side (`pbbf worker --listen`); the
//! supervisor side is a [`FleetFactory`](crate::supervisor::FleetFactory)
//! slot holding an [`Endpoint::Remote`](crate::supervisor::Endpoint).

use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use serde_json::Value as Json;

use crate::fault::FaultPlan;
use crate::protocol::CacheTelemetry;
use crate::supervisor::{backoff, pump_lines, WorkerEvent, WorkerLink};
use crate::worker::serve_session;

/// Transport knobs for the supervisor side of a TCP link.
#[derive(Debug, Clone)]
pub struct TcpOptions {
    /// Per-address connect deadline (applies to the initial connect
    /// and to every reconnect attempt).
    pub connect_timeout: Duration,
    /// Reconnect attempts after a dropped connection (and connect
    /// attempts beyond the first at spawn) before the host is given up
    /// as gone.
    pub max_reconnects: u32,
    /// First reconnect delay; doubles per failed attempt.
    pub backoff_base: Duration,
    /// Reconnect delay ceiling.
    pub backoff_cap: Duration,
}

impl Default for TcpOptions {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(5),
            max_reconnects: 3,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(2),
        }
    }
}

/// One bounded-deadline connect to `host`, trying each resolved
/// address in turn.
fn connect_once(host: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let addrs: Vec<SocketAddr> = host.to_socket_addrs()?.collect();
    let mut last = std::io::Error::other(format!("`{host}` resolved to no addresses"));
    for addr in addrs {
        match TcpStream::connect_timeout(&addr, timeout) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true); // lines, not bulk
                return Ok(stream);
            }
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// Connect with the bounded-backoff retry ladder: one immediate
/// attempt plus up to `max_reconnects` retried ones.
fn connect_with_retries(host: &str, opts: &TcpOptions) -> std::io::Result<TcpStream> {
    let mut result = connect_once(host, opts.connect_timeout);
    for attempt in 0..opts.max_reconnects {
        if result.is_ok() {
            break;
        }
        std::thread::sleep(backoff(opts.backoff_base, opts.backoff_cap, attempt));
        result = connect_once(host, opts.connect_timeout);
    }
    result
}

/// Connects worker `worker`'s link to `host` and starts its reader
/// pump. Spawn *is* the connect: an unreachable host surfaces as a
/// spawn failure, which the supervisor degrades around exactly like a
/// worker binary that failed to start.
pub(crate) fn connect_link(
    host: &str,
    options: &TcpOptions,
    worker: u64,
    events: Sender<WorkerEvent>,
) -> std::io::Result<Box<dyn WorkerLink>> {
    let stream = connect_with_retries(host, options)?;
    let shared = Arc::new(LinkShared {
        writer: Mutex::new(Some(stream.try_clone()?)),
        shutdown: AtomicBool::new(false),
        host: host.to_string(),
        options: options.clone(),
    });
    let pump_shared = Arc::clone(&shared);
    std::thread::spawn(move || reader_pump(&pump_shared, stream, worker, &events));
    Ok(Box::new(TcpWorkerLink { shared }))
}

/// State shared between a link's writer half and its reader pump.
struct LinkShared {
    /// The writer handle of the *current* connection (replaced on
    /// reconnect, taken on kill).
    writer: Mutex<Option<TcpStream>>,
    shutdown: AtomicBool,
    host: String,
    options: TcpOptions,
}

impl LinkShared {
    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }
}

/// Supervisor-side handle on one TCP worker.
struct TcpWorkerLink {
    shared: Arc<LinkShared>,
}

impl WorkerLink for TcpWorkerLink {
    fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        let mut guard = self.shared.writer.lock().unwrap_or_else(|e| e.into_inner());
        let stream = guard
            .as_mut()
            .ok_or_else(|| std::io::Error::other("tcp link closed"))?;
        stream.write_all(format!("{line}\n").as_bytes()) // one frame, one write
    }

    fn kill(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        let mut guard = self.shared.writer.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(stream) = guard.take() {
            // Shuts the socket down under the reader's handle too, so
            // its blocked read returns EOF.
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    fn remote(&self) -> bool {
        true // opt into host-level liveness
    }
}

impl Drop for TcpWorkerLink {
    fn drop(&mut self) {
        self.kill();
    }
}

/// The reader half: pumps reply lines into the supervisor's event
/// channel, reconnects with bounded backoff when a session ends
/// (emitting [`WorkerEvent::Reset`]), and reports
/// [`WorkerEvent::Gone`] when the host is truly unreachable or the
/// link was killed.
fn reader_pump(
    shared: &LinkShared,
    mut stream: TcpStream,
    worker: u64,
    events: &Sender<WorkerEvent>,
) {
    loop {
        // The session is over: the peer hung up, or sent a line past
        // the cap. Either way the old connection closes once a
        // reconnect replaces it (or the link is killed).
        if !pump_lines(&stream, worker, events) {
            return; // supervisor gone; nothing to report to
        }
        if shared.is_shutdown() {
            break;
        }
        // Reconnect ladder: same bounded exponential backoff as the
        // shard scheduler's retry path.
        let mut next = None;
        for attempt in 0..shared.options.max_reconnects {
            let opts = &shared.options;
            std::thread::sleep(backoff(opts.backoff_base, opts.backoff_cap, attempt));
            if shared.is_shutdown() {
                break;
            }
            match connect_once(&shared.host, shared.options.connect_timeout) {
                Ok(s) => {
                    next = Some(s);
                    break;
                }
                Err(e) => eprintln!(
                    "pbbf sweep: reconnect {}/{} to {} failed: {e}",
                    attempt + 1,
                    shared.options.max_reconnects,
                    shared.host
                ),
            }
        }
        let Some(next) = next else { break };
        match next.try_clone() {
            Ok(writer) => {
                let mut guard = shared.writer.lock().unwrap_or_else(|e| e.into_inner());
                if shared.is_shutdown() {
                    break; // killed while reconnecting; discard
                }
                *guard = Some(writer);
            }
            Err(_) => break,
        }
        if events.send(WorkerEvent::Reset { worker }).is_err() {
            return;
        }
        stream = next;
    }
    let _ = events.send(WorkerEvent::Gone { worker });
}

/// Worker-side serving knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Heartbeat period: how often the worker emits a
    /// [`WorkerReply::Heartbeat`](crate::protocol::WorkerReply::Heartbeat)
    /// line, including while a shard is executing. Must be well under
    /// the supervisor's `liveness_timeout`.
    pub heartbeat: Duration,
    /// Exit after serving one connection (CI and tests; a resident
    /// worker keeps accepting).
    pub once: bool,
}

/// Serves supervisor connections on `listener`, one at a time, until
/// the process is killed (or after the first connection with
/// [`ServeOptions::once`]). Each connection is one [`serve_session`]
/// with heartbeats every [`ServeOptions::heartbeat`], carrying
/// `telemetry()` deltas since the connection opened.
///
/// Injected faults (`PBBF_FAULT`) behave as in pipe mode: `crash`
/// exits the process (taking the listener with it, so the supervisor's
/// reconnects fail — the remote analogue of a dead subprocess), `hang`
/// wedges the shard while heartbeats keep flowing (caught by the
/// supervisor's per-shard deadline), `corrupt` sends a torn reply. A
/// panic in `exec` is caught by the session and sent back as an `Error`
/// reply naming the shard and carrying the panic message; the
/// supervisor retries the refused shard, and the connection and the
/// listener serve on.
///
/// # Errors
///
/// Returns any listener `accept` error. A session error (an
/// unparseable or over-long spec line, a broken connection) drops
/// that connection only; the listener accepts the next one.
pub fn serve_listener<E, T>(
    listener: &TcpListener,
    options: &ServeOptions,
    exec: E,
    telemetry: T,
) -> std::io::Result<()>
where
    E: Fn(&Json) -> Result<Vec<Option<f64>>, String>,
    T: Fn() -> CacheTelemetry + Sync,
{
    let plan = FaultPlan::from_env();
    loop {
        let (stream, peer) = listener.accept()?;
        eprintln!("pbbf worker: supervisor connected from {peer}");
        let _ = stream.set_nodelay(true);
        let heartbeat = Some(options.heartbeat);
        let input = BufReader::new(&stream);
        match serve_session(input, &stream, heartbeat, &plan, &exec, &telemetry) {
            Ok(()) => eprintln!("pbbf worker: connection from {peer} closed"),
            Err(e) => eprintln!("pbbf worker: connection from {peer} failed: {e}"),
        }
        if options.once {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_to_unbound_port_fails_fast() {
        // Bind-then-drop gives a port that is almost surely refused.
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
            l.local_addr().expect("addr").port()
        };
        let host = format!("127.0.0.1:{port}");
        let err = connect_once(&host, Duration::from_secs(1));
        assert!(err.is_err(), "connect to {host} should be refused");
    }
}
