//! The one worker session loop, driven over in-memory streams: what
//! `pbbf worker` does on stdin and `pbbf worker --listen` does per
//! connection, minus the process and the socket.

use std::io;
use std::time::Duration;

use pbbf_fabric::fault::FaultPlan;
use pbbf_fabric::protocol::{result_reply, ShardError, ShardSpec, MAX_LINE_BYTES};
use pbbf_fabric::{serve_session, CacheTelemetry, WorkerReply};
use serde_json::Value as Json;

fn spec(id: u32, job: Json) -> String {
    let spec = ShardSpec {
        id,
        attempt: 0,
        expect: 2,
        job,
    };
    serde_json::to_string(&spec).expect("render spec")
}

/// Serves `input` with an executor that answers a `null` job and
/// refuses any other; returns the session's result and its output.
fn serve(input: &[u8], heartbeat: Option<Duration>) -> (io::Result<()>, String) {
    let exec = |job: &Json| match job {
        Json::Null => Ok(vec![Some(1.0), None]),
        _ => Err("not a null job".to_string()),
    };
    let mut out = Vec::new();
    let plan = FaultPlan::parse("");
    let result = serve_session(
        input,
        &mut out,
        heartbeat,
        &plan,
        exec,
        CacheTelemetry::default,
    );
    (result, String::from_utf8(out).expect("replies are UTF-8"))
}

#[test]
fn session_answers_every_spec_and_skips_blank_lines() {
    let input = format!(
        "{}\n\n  \n{}\n",
        spec(4, Json::Null),
        spec(5, Json::Bool(true))
    );
    let (result, out) = serve(input.as_bytes(), None);
    result.expect("EOF ends the session cleanly");
    let replies: Vec<WorkerReply> = out
        .lines()
        .map(|l| serde_json::from_str(l).expect("reply line parses"))
        .collect();
    let beat = WorkerReply::Heartbeat(CacheTelemetry::default());
    let refusal = WorkerReply::Error(ShardError {
        id: 5,
        error: "not a null job".into(),
    });
    let answered = result_reply(4, &[Some(1.0), None]);
    assert_eq!(replies, [answered, beat.clone(), refusal, beat]);
}

#[test]
fn unparseable_or_over_long_lines_end_the_session() {
    let over_long = vec![b'x'; MAX_LINE_BYTES + 1];
    for input in [&b"{not json\n"[..], b"\xff\xfe\n", &over_long] {
        let (result, out) = serve(input, None);
        let err = result.expect_err("no shard to refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unparseable shard spec"), "{err}");
        assert!(out.is_empty(), "nothing is answered: {out}");
    }
    // A spec padded right up to the cap is still served.
    let mut at_cap = spec(6, Json::Null);
    at_cap += &" ".repeat(MAX_LINE_BYTES - at_cap.len());
    at_cap.push('\n');
    let (result, out) = serve(at_cap.as_bytes(), None);
    result.expect("a line at the cap is fine");
    assert!(out.starts_with("{\"Result\":{\"id\":6,"), "{out}");
}

#[test]
fn heartbeat_timer_beats_at_once_and_stops_with_the_session() {
    // A period far beyond the test's patience: the session must not
    // wait it out, because dropping its stop channel wakes the timer.
    let (result, out) = serve(b"", Some(Duration::from_secs(3600)));
    result.expect("EOF ends the session cleanly");
    let beat = serde_json::to_string(&WorkerReply::Heartbeat(CacheTelemetry::default()));
    assert_eq!(out, beat.expect("render heartbeat") + "\n");
}
