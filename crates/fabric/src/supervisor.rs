//! Worker-fleet contracts shared by the scheduler and the transports.
//!
//! A [`SweepScheduler`](crate::scheduler::SweepScheduler) spawns its
//! fleet once through a [`WorkerFactory`], talks to each worker through
//! a [`WorkerLink`], and hears back through [`WorkerEvent`]s. The
//! production factory is [`FleetFactory`]: one [`Endpoint`] per slot,
//! either a local `pbbf worker` child on pipes or a remote
//! `pbbf worker --listen` over TCP. Both transports split reply bytes
//! into lines with the one `pump_lines`, which caps a line at
//! [`MAX_LINE_BYTES`]. This module also holds the sweep's options,
//! stats and outcome types, and the one retry-backoff formula.

use std::io::{ErrorKind, Read, Write as _};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::Sender;
use std::time::Duration;

use serde_json::Value as Json;

use crate::protocol::MAX_LINE_BYTES;
use crate::tcp::{connect_link, TcpOptions};

/// What a worker's reader pump delivers to the supervisor.
#[derive(Debug)]
pub enum WorkerEvent {
    /// One output line from the worker.
    Line {
        /// The worker's id.
        worker: u64,
        /// The raw line (unparsed; the supervisor validates it).
        line: String,
    },
    /// The worker's output channel closed for good — it exited, was
    /// killed, or its transport gave up reconnecting.
    Gone {
        /// The worker's id.
        worker: u64,
    },
    /// The worker's transport dropped and came back (a socket
    /// reconnect). The worker is alive, but anything that was in
    /// flight on it is lost and must be requeued.
    Reset {
        /// The worker's id.
        worker: u64,
    },
}

/// The supervisor's handle on one worker.
pub trait WorkerLink {
    /// Delivers one shard-spec line to the worker.
    ///
    /// # Errors
    ///
    /// Any I/O error means the worker is unreachable; the supervisor
    /// writes it off.
    fn send_line(&mut self, line: &str) -> std::io::Result<()>;

    /// Forcibly terminates the worker. Idempotent.
    fn kill(&mut self);

    /// Whether this link crosses a host boundary. Remote links opt
    /// into host-level liveness: their workers heartbeat on a timer,
    /// and silence beyond
    /// [`SweepOptions::liveness_timeout`] is treated as a vanished
    /// host. Local links (pipes) report death through
    /// [`WorkerEvent::Gone`] instead, so they default to `false`.
    fn remote(&self) -> bool {
        false
    }
}

/// Spawns workers. Abstracted so the retry/quarantine machinery is
/// testable with in-process mock workers (no subprocess flakiness).
pub trait WorkerFactory {
    /// Spawns worker `worker` (unique id) and wires its output to
    /// `events`. The returned link must deliver a
    /// [`WorkerEvent::Gone`] when the worker stops producing output.
    ///
    /// # Errors
    ///
    /// A spawn failure is not fatal to the sweep — the supervisor
    /// degrades to whatever fleet it got, down to none (in-process).
    fn spawn(
        &self,
        slot: usize,
        worker: u64,
        events: Sender<WorkerEvent>,
    ) -> std::io::Result<Box<dyn WorkerLink>>;
}

/// Where one fleet slot's worker runs.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A `pbbf worker` child of this process (`argv[0] worker`), spoken
    /// to over its stdin and stdout. Stderr is inherited so worker
    /// diagnostics reach the operator unfiltered.
    Local,
    /// A resident `pbbf worker --listen` at `host:port`, spoken to over
    /// TCP (see [`crate::tcp`]).
    Remote(String),
}

/// The fleet's one [`WorkerFactory`]: slot `i` spawns `endpoints[i]`.
/// `pbbf sweep --hosts a:1,b:2 --workers 2` lists the two remote hosts
/// and then two local slots, and because slot order is manifest order,
/// remote hosts are dealt shards first.
#[derive(Debug, Clone)]
pub struct FleetFactory {
    /// One endpoint per slot.
    pub endpoints: Vec<Endpoint>,
    /// Transport knobs shared by every remote slot.
    pub tcp: TcpOptions,
}

impl WorkerFactory for FleetFactory {
    fn spawn(
        &self,
        slot: usize,
        worker: u64,
        events: Sender<WorkerEvent>,
    ) -> std::io::Result<Box<dyn WorkerLink>> {
        match self.endpoints.get(slot) {
            Some(Endpoint::Local) => spawn_local(worker, events),
            Some(Endpoint::Remote(host)) => connect_link(host, &self.tcp, worker, events),
            None => Err(std::io::Error::other(format!(
                "slot {slot} beyond the {} configured endpoint(s)",
                self.endpoints.len()
            ))),
        }
    }
}

/// Spawns `argv[0] worker` on pipes, with a reader thread pumping its
/// stdout into `events`.
fn spawn_local(worker: u64, events: Sender<WorkerEvent>) -> std::io::Result<Box<dyn WorkerLink>> {
    let mut child = Command::new(std::env::current_exe()?)
        .arg("worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let stdin = child.stdin.take().expect("stdin was piped");
    let stdout = child.stdout.take().expect("stdout was piped");
    std::thread::spawn(move || {
        if pump_lines(stdout, worker, &events) {
            let _ = events.send(WorkerEvent::Gone { worker });
        }
    });
    Ok(Box::new(ProcessLink {
        child,
        stdin: Some(stdin),
    }))
}

struct ProcessLink {
    child: Child,
    stdin: Option<ChildStdin>,
}

impl WorkerLink for ProcessLink {
    fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| std::io::Error::other("worker stdin closed"))?;
        stdin.write_all(format!("{line}\n").as_bytes())?;
        stdin.flush()
    }

    fn kill(&mut self) {
        self.stdin.take(); // EOF first: a healthy worker exits on its own
        let _ = self.child.kill();
        let _ = self.child.wait(); // reap; SIGKILL makes this prompt
    }
}

impl Drop for ProcessLink {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Splits `reader`'s bytes into `\n`-framed lines and sends each to
/// `events` as worker `worker`'s [`WorkerEvent::Line`], until the
/// stream ends. Returns `false` if the supervisor stopped listening,
/// `true` once the session is over.
///
/// Invalid UTF-8 is replaced rather than ending the stream, and a
/// partial final line is surfaced too: the supervisor's parser judges
/// (and strikes) what is left. A line longer than [`MAX_LINE_BYTES`] is
/// surfaced as its first [`MAX_LINE_BYTES`] bytes and ends the session:
/// nothing after it can be framed with confidence.
pub(crate) fn pump_lines(mut reader: impl Read, worker: u64, events: &Sender<WorkerEvent>) -> bool {
    let send = |line: &[u8]| {
        let line = String::from_utf8_lossy(line).into_owned();
        events.send(WorkerEvent::Line { worker, line }).is_ok()
    };
    let mut carry = Vec::new();
    let mut buf = [0_u8; 8192];
    loop {
        let n = match reader.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break, // connection reset / torn down
        };
        let mut chunk = &buf[..n];
        loop {
            let nl = chunk.iter().position(|&b| b == b'\n');
            carry.extend_from_slice(&chunk[..nl.unwrap_or(chunk.len())]);
            if carry.len() > MAX_LINE_BYTES {
                return send(&carry[..MAX_LINE_BYTES]);
            }
            let Some(nl) = nl else { break };
            if !send(&carry) {
                return false;
            }
            carry.clear();
            chunk = &chunk[nl + 1..];
        }
    }
    carry.is_empty() || send(&carry)
}

/// Bounded exponential backoff: `base` doubled `attempt` times, capped
/// at `cap`. The one formula behind shard retries and TCP reconnects.
pub(crate) fn backoff(base: Duration, cap: Duration, attempt: u32) -> Duration {
    base.checked_mul(1_u32 << attempt.min(16))
        .unwrap_or(cap)
        .min(cap)
}

/// One shard of a sweep manifest, as queued on a
/// [`SweepScheduler`](crate::scheduler::SweepScheduler).
#[derive(Debug, Clone)]
pub struct ShardInput {
    /// Opaque job payload, forwarded to workers verbatim.
    pub job: Json,
    /// Number of values the shard must produce.
    pub expect: usize,
}

/// Failure-policy knobs.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Fleet size to spawn (min 1).
    pub workers: usize,
    /// Per-shard wall-clock deadline; an overrun quarantines the
    /// worker and retries the shard.
    pub shard_timeout: Duration,
    /// First retry delay; doubles per failed attempt.
    pub backoff_base: Duration,
    /// Retry delay ceiling.
    pub backoff_cap: Duration,
    /// Worker deliveries per shard before it runs in-process.
    pub max_shard_attempts: u32,
    /// Corrupt replies tolerated per worker before quarantine.
    pub max_worker_strikes: u32,
    /// Host-level liveness window for remote workers
    /// ([`WorkerLink::remote`]): a remote worker that produces no
    /// output line (heartbeat or otherwise) for this long is treated
    /// as a vanished host — written off and its shard requeued. Must
    /// comfortably exceed the workers' heartbeat interval.
    pub liveness_timeout: Duration,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            workers: pbbf_parallel::max_threads(),
            shard_timeout: Duration::from_secs(120),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            max_shard_attempts: 4,
            max_worker_strikes: 2,
            liveness_timeout: Duration::from_secs(10),
        }
    }
}

/// What happened along the way (stderr-reporting material; none of it
/// can influence the output values).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SweepStats {
    /// Workers successfully spawned.
    pub workers_spawned: usize,
    /// Workers that failed to spawn.
    pub spawn_failures: usize,
    /// Shard deliveries beyond each shard's first.
    pub retries: u64,
    /// Shards whose worker died mid-flight.
    pub crashes: u64,
    /// Shards that overran the wall-clock deadline.
    pub timeouts: u64,
    /// Structurally invalid replies (parse, length, or checksum).
    pub corrupt: u64,
    /// Shards the worker refused as malformed.
    pub refused: u64,
    /// Workers killed for hanging or repeated corruption.
    pub quarantined: u64,
    /// Shards executed in-process (attempt exhaustion or no fleet).
    pub inproc_shards: u64,
    /// Remote hosts written off for heartbeat silence.
    pub hosts_lost: u64,
    /// Transport reconnects ([`WorkerEvent::Reset`]) survived.
    pub reconnects: u64,
    /// Deployment-cache hits summed over worker heartbeat telemetry
    /// (all transport sessions, not just the last — see
    /// `docs/PROTOCOL.md` on heartbeat-delta accumulation).
    pub cache_hits: u64,
    /// Deployment-cache misses summed over worker heartbeat telemetry.
    pub cache_misses: u64,
    /// Deployment-cache evictions summed over worker telemetry.
    pub cache_evictions: u64,
}

impl std::fmt::Display for SweepStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "workers {} (+{} spawn failures), retries {}, crashes {}, \
             timeouts {}, corrupt {}, refused {}, quarantined {}, in-process shards {}, \
             hosts lost {}, reconnects {}, deploy cache {}/{} hit/miss (+{} evicted)",
            self.workers_spawned,
            self.spawn_failures,
            self.retries,
            self.crashes,
            self.timeouts,
            self.corrupt,
            self.refused,
            self.quarantined,
            self.inproc_shards,
            self.hosts_lost,
            self.reconnects,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions
        )
    }
}

/// A completed sweep: per-shard values in manifest order, plus the
/// fault ledger.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Shard value vectors, indexed by manifest position.
    pub values: Vec<Vec<Option<f64>>>,
    /// What it took to get them.
    pub stats: SweepStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hands out `data` at most `chunk` bytes per read.
    struct Chunked<'a>(&'a [u8], usize);

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.1.min(buf.len()).min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    /// The lines `pump_lines` surfaces from `data` read `chunk` bytes
    /// at a time.
    fn pumped(data: &[u8], chunk: usize) -> Vec<String> {
        let (tx, rx) = std::sync::mpsc::channel();
        assert!(pump_lines(Chunked(data, chunk), 7, &tx), "rx is alive");
        drop(tx);
        rx.iter()
            .map(|ev| match ev {
                WorkerEvent::Line { worker: 7, line } => line,
                other => panic!("the pump only sends lines, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn pump_frames_lines_across_reads() {
        // Several lines per read, lines split across reads (down to a
        // byte at a time), a partial final line, and invalid UTF-8,
        // which is replaced rather than ending the stream.
        for chunk in [1, 3, 64] {
            assert_eq!(pumped(b"a\nbb\n\nccc\n", chunk), ["a", "bb", "", "ccc"]);
            assert_eq!(pumped(b"whole\ntorn", chunk), ["whole", "torn"]);
            let lossy = pumped(b"ok\n\xff\xfe\nafter\n", chunk);
            assert_eq!(lossy, ["ok", "\u{fffd}\u{fffd}", "after"]);
        }
        let (tx, rx) = std::sync::mpsc::channel();
        drop(rx);
        assert!(
            !pump_lines(Chunked(b"line\n", 64), 7, &tx),
            "supervisor gone"
        );
    }

    #[test]
    fn pump_truncates_an_over_long_line_and_ends_the_session() {
        let mut data = vec![b'x'; MAX_LINE_BYTES];
        data.push(b'\n');
        data.extend(std::iter::repeat_n(b'y', 2 * MAX_LINE_BYTES));
        data.extend_from_slice(b"\nnever read\n");
        let lines = pumped(&data, 8192);
        assert_eq!(lines.len(), 2, "the cap ends the session");
        assert_eq!(lines[0], "x".repeat(MAX_LINE_BYTES), "at the cap is fine");
        assert_eq!(lines[1], "y".repeat(MAX_LINE_BYTES), "truncated prefix");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(65);
        assert_eq!(backoff(base, cap, 0), Duration::from_millis(10));
        assert_eq!(backoff(base, cap, 1), Duration::from_millis(20));
        assert_eq!(backoff(base, cap, 2), Duration::from_millis(40));
        assert_eq!(backoff(base, cap, 3), cap, "capped");
        assert_eq!(backoff(base, cap, 60), cap, "no overflow");
    }

    #[test]
    fn stats_line_wording_is_pinned() {
        // Scripts parse this line, and `perfbench/src/fabric_stats.rs`
        // refuses any rewording, so its text is part of the CLI contract.
        let stats = SweepStats {
            workers_spawned: 1,
            spawn_failures: 2,
            retries: 3,
            crashes: 4,
            timeouts: 5,
            corrupt: 6,
            refused: 7,
            quarantined: 8,
            inproc_shards: 9,
            hosts_lost: 10,
            reconnects: 11,
            cache_hits: 12,
            cache_misses: 13,
            cache_evictions: 14,
        };
        assert_eq!(
            stats.to_string(),
            "workers 1 (+2 spawn failures), retries 3, crashes 4, timeouts 5, corrupt 6, \
             refused 7, quarantined 8, in-process shards 9, hosts lost 10, reconnects 11, \
             deploy cache 12/13 hit/miss (+14 evicted)"
        );
    }
}
