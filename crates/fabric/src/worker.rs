//! The worker side of the fabric: one shard-executing session loop.
//!
//! [`serve_session`] reads one shard-spec JSON line at a time, executes
//! it, and writes its reply line plus a telemetry heartbeat, flushed
//! per shard so the supervisor sees results the moment they exist.
//! `pbbf worker` runs it over stdin/stdout, and
//! [`serve_listener`](crate::tcp::serve_listener) over each accepted
//! socket. The end of the input is the shutdown signal: the supervisor
//! just closes the pipe or the connection.
//!
//! Fault injection (`PBBF_FAULT`, parsed by
//! [`FaultPlan::from_env`](crate::fault::FaultPlan::from_env)) is
//! honored here and only here.

use std::io::{self, BufRead, Read, Write};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use crate::fault::{FaultKind, FaultPlan};
use crate::protocol::{
    checksum, encode_values, result_reply, CacheTelemetry, ShardError, ShardSpec, WorkerReply,
    MAX_LINE_BYTES,
};
use serde_json::Value as Json;

/// What executing one spec (fault plan applied) amounts to.
enum SpecOutcome {
    /// A reply line to send back.
    Reply(WorkerReply),
    /// Injected crash: the worker process must exit with this code.
    Crash(i32),
}

/// Executes one spec under the fault plan. An injected hang sleeps
/// right here, forever — in socket mode the heartbeat thread keeps
/// beating, which is exactly the "host alive, shard wedged" shape the
/// supervisor's per-shard deadline (not host liveness) must catch.
fn outcome_for_spec<E>(plan: &FaultPlan, spec: &ShardSpec, exec: &E) -> SpecOutcome
where
    E: Fn(&Json) -> Result<Vec<Option<f64>>, String>,
{
    match plan.fault_for(spec.id, spec.attempt) {
        Some(FaultKind::Crash) => {
            eprintln!("pbbf worker: injected crash on shard {}", spec.id);
            SpecOutcome::Crash(3)
        }
        Some(FaultKind::Hang) => {
            eprintln!("pbbf worker: injected hang on shard {}", spec.id);
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        Some(FaultKind::Corrupt) => {
            eprintln!("pbbf worker: injected corruption on shard {}", spec.id);
            SpecOutcome::Reply(corrupt_reply(spec, exec))
        }
        None => SpecOutcome::Reply(match exec(&spec.job) {
            Ok(values) => result_reply(spec.id, &values),
            Err(error) => WorkerReply::Error(ShardError { id: spec.id, error }),
        }),
    }
}

/// Renders a reply to its wire line.
fn render_reply(reply: &WorkerReply, shard_id: u32) -> String {
    serde_json::to_string(reply).unwrap_or_else(|e| render_fallback_error(shard_id, &e.to_string()))
}

/// Builds the fallback `Error` line through the JSON encoder itself —
/// hand-formatting it would emit an invalid line the moment the error
/// message contains a quote, backslash, or control character, and an
/// invalid line costs the worker a corruption strike.
fn render_fallback_error(shard_id: u32, msg: &str) -> String {
    let error = Json::Obj(vec![
        ("id".into(), Json::U64(u64::from(shard_id))),
        ("error".into(), Json::Str(format!("render: {msg}"))),
    ]);
    serde_json::to_string(&Json::Obj(vec![("Error".into(), error)]))
        .expect("rendering a literal Json value cannot fail")
}

/// Serves one session: shard-spec lines in on `input`, reply lines out
/// on `output`, until `input` ends. `exec` maps a job to its per-run
/// values; an `Err` is sent back as a refused shard and the session
/// goes on. An injected crash exits the process.
///
/// Every reply is followed by a [`WorkerReply::Heartbeat`] carrying
/// `telemetry()`'s counters as a delta from session start. With
/// `heartbeat` set, a timer thread also beats at once and then every
/// period, even mid-shard, so host liveness can tell a slow shard from
/// a vanished host. The timer waits on a channel whose sender the
/// session owns, so it stops on every way out of the session, a
/// panicking `exec` included: the panic then ends the process instead
/// of leaving a beating, never-replying worker behind.
///
/// # Errors
///
/// A line that is not a [`ShardSpec`] in UTF-8 JSON, or is longer than
/// [`MAX_LINE_BYTES`], ends the session with an
/// [`InvalidData`](io::ErrorKind::InvalidData) error: the worker cannot
/// even name the shard to refuse it. An I/O error on either side ends
/// it too.
pub fn serve_session<E, T>(
    mut input: impl BufRead,
    output: impl Write + Send,
    heartbeat: Option<Duration>,
    plan: &FaultPlan,
    exec: E,
    telemetry: T,
) -> io::Result<()>
where
    E: Fn(&Json) -> Result<Vec<Option<f64>>, String>,
    T: Fn() -> CacheTelemetry + Sync,
{
    let baseline = telemetry();
    let beat = || WorkerReply::Heartbeat(telemetry().saturating_sub(baseline));
    let output = Mutex::new(output);
    // One lock per write, so timer beats never split a reply's lines.
    let write = |lines: &str| {
        let mut out = output.lock().unwrap_or_else(PoisonError::into_inner);
        out.write_all(lines.as_bytes()).and_then(|()| out.flush())
    };
    std::thread::scope(|scope| {
        let (_stop, stopped) = mpsc::channel::<()>();
        if let Some(period) = heartbeat {
            // Beats at once, then every period until the session drops
            // `_stop` (or the connection goes).
            scope.spawn(move || {
                while write(&(render_reply(&beat(), 0) + "\n")).is_ok() {
                    if stopped.recv_timeout(period) != Err(RecvTimeoutError::Timeout) {
                        return;
                    }
                }
            });
        }
        let mut line = Vec::new();
        loop {
            line.clear();
            let limit = MAX_LINE_BYTES as u64 + 1;
            if input.by_ref().take(limit).read_until(b'\n', &mut line)? == 0 {
                return Ok(()); // EOF: the supervisor is done with us
            }
            if line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n') {
                return Err(unparseable(format!("line over {MAX_LINE_BYTES} bytes")));
            }
            let text = std::str::from_utf8(&line).map_err(unparseable)?;
            if text.trim().is_empty() {
                continue;
            }
            let spec: ShardSpec = serde_json::from_str(text.trim_end()).map_err(unparseable)?;
            let reply = match outcome_for_spec(plan, &spec, &exec) {
                SpecOutcome::Reply(reply) => reply,
                // A crashed subprocess takes its pipes with it; a crashed
                // TCP worker takes its listener too, so reconnects fail
                // the way respawns would.
                SpecOutcome::Crash(code) => std::process::exit(code),
            };
            let lines =
                render_reply(&reply, spec.id) + "\n" + &render_reply(&beat(), spec.id) + "\n";
            write(&lines)?;
        }
    })
}

fn unparseable(e: impl std::fmt::Display) -> io::Error {
    let msg = format!("unparseable shard spec: {e}");
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Executes the shard for real, then flips one value bit while keeping
/// the checksum computed over the *uncorrupted* values — exactly the
/// torn-write shape the supervisor's checksum validation must catch.
/// (With no `Some` value to flip, the checksum itself is perturbed.)
fn corrupt_reply<E>(spec: &ShardSpec, exec: &E) -> WorkerReply
where
    E: Fn(&Json) -> Result<Vec<Option<f64>>, String>,
{
    let values = exec(&spec.job).unwrap_or_default();
    let mut bits = encode_values(&values);
    let stale = checksum(spec.id, &bits);
    match bits.iter_mut().find_map(|b| b.as_mut()) {
        Some(word) => *word ^= 1,
        None => bits.push(Some(0)),
    }
    WorkerReply::Result(crate::protocol::ShardResult {
        id: spec.id,
        values: bits,
        checksum: stale,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u32) -> ShardSpec {
        ShardSpec {
            id,
            attempt: 0,
            expect: 2,
            job: Json::Null,
        }
    }

    #[test]
    fn corruption_fails_checksum_validation() {
        let exec = |_: &Json| Ok(vec![Some(1.5), None]);
        let WorkerReply::Result(r) = corrupt_reply(&spec(9), &exec) else {
            panic!("corrupt replies are Results");
        };
        assert_ne!(checksum(r.id, &r.values), r.checksum);
    }

    #[test]
    fn corruption_with_no_samples_still_trips() {
        let exec = |_: &Json| Ok(vec![None, None]);
        let WorkerReply::Result(r) = corrupt_reply(&spec(2), &exec) else {
            panic!("corrupt replies are Results");
        };
        assert_ne!(checksum(r.id, &r.values), r.checksum);
    }

    #[test]
    fn outcome_for_clean_spec_is_the_result_reply() {
        let exec = |_: &Json| Ok(vec![Some(1.0), None]);
        let SpecOutcome::Reply(reply) = outcome_for_spec(&FaultPlan::parse(""), &spec(4), &exec)
        else {
            panic!("no fault planned");
        };
        assert_eq!(reply, result_reply(4, &[Some(1.0), None]));
    }

    #[test]
    fn outcome_for_crash_fault_asks_for_exit() {
        let exec = |_: &Json| Ok(vec![]);
        let plan = FaultPlan::parse("crash:4");
        assert!(matches!(
            outcome_for_spec(&plan, &spec(4), &exec),
            SpecOutcome::Crash(3)
        ));
    }

    #[test]
    fn fallback_error_line_survives_hostile_messages() {
        // Quotes, backslashes, newlines, tabs: everything that would
        // break a hand-interpolated JSON literal. The line must parse
        // back as a WorkerReply naming the right shard.
        let msg = "disk \"full\" at C:\\tmp\nline2\tend";
        let line = render_fallback_error(7, msg);
        let reply: WorkerReply =
            serde_json::from_str(&line).expect("fallback error line must be valid JSON");
        let WorkerReply::Error(e) = reply else {
            panic!("fallback renders an Error reply, got {reply:?}");
        };
        assert_eq!(e.id, 7);
        assert_eq!(e.error, format!("render: {msg}"));
    }
}
