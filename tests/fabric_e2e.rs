//! End-to-end tests of the distributed sweep fabric against the real
//! `pbbf` binary: a multi-process `pbbf sweep` must emit bytes
//! identical to single-process `pbbf reproduce` — including while
//! shards are being crashed, hung, and corrupted underneath it.

use std::io::Write;
use std::process::{Command, Stdio};

use pbbf::prelude::Effort;
use pbbf_experiments::sweep::sweep_manifest;
use pbbf_fabric::protocol::{checksum, ShardSpec, WorkerReply};

const FIGURE: &str = "fig17";
const SEED: &str = "11";

fn pbbf() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pbbf"))
}

/// Runs the binary, asserts success, returns raw stdout bytes.
fn run(args: &[&str], envs: &[(&str, &str)]) -> Vec<u8> {
    let mut cmd = pbbf();
    cmd.args(args).env_remove("PBBF_FAULT");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn pbbf");
    assert!(
        out.status.success(),
        "pbbf {args:?} failed ({:?}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn reproduce_bytes() -> Vec<u8> {
    run(&["reproduce", FIGURE, "--seed", SEED], &[])
}

#[test]
fn multi_process_sweep_is_bitwise_identical_to_reproduce() {
    let clean = reproduce_bytes();
    let swept = run(&["sweep", FIGURE, "--seed", SEED, "--workers", "3"], &[]);
    assert_eq!(swept, clean, "sweep bytes diverged from reproduce");
}

#[test]
fn sweep_survives_injected_faults_bitwise() {
    let clean = reproduce_bytes();
    // Crash one shard, wedge another, corrupt a third — each fires on
    // the shard's first attempt; retries on healthy workers finish the
    // job. A short shard timeout keeps the hung worker from stalling
    // the test.
    let swept = run(
        &[
            "sweep",
            FIGURE,
            "--seed",
            SEED,
            "--workers",
            "3",
            "--shard-timeout",
            "5",
        ],
        &[("PBBF_FAULT", "crash:1,hang:4,corrupt:7")],
    );
    assert_eq!(swept, clean, "faulted sweep bytes diverged from reproduce");
}

#[test]
fn multi_figure_resident_sweep_is_bitwise_identical() {
    // `--figs` runs several figures through ONE resident fleet; the
    // multiplexed output must equal the figures reproduced one at a
    // time, byte for byte — scheduling across sweeps must be exactly
    // as invisible as scheduling within one.
    let clean = run(&["reproduce", "fig13", FIGURE, "--seed", SEED], &[]);
    let swept = run(
        &[
            "sweep",
            "--figs",
            &format!("fig13,{FIGURE}"),
            "--seed",
            SEED,
            "--workers",
            "3",
        ],
        &[],
    );
    assert_eq!(swept, clean, "resident-fleet sweep diverged from reproduce");
}

#[test]
fn multi_figure_sweep_survives_injected_faults_bitwise() {
    let clean = run(&["reproduce", "fig13", FIGURE, "--seed", SEED], &[]);
    // Faults land mid-queue on global shard ids: a crash early (first
    // figure's range) and a corruption later. Retries cross the sweep
    // boundary on the same resident workers; the bytes must not move.
    let swept = run(
        &[
            "sweep",
            "--figs",
            &format!("fig13,{FIGURE}"),
            "--seed",
            SEED,
            "--workers",
            "3",
            "--shard-timeout",
            "5",
        ],
        &[("PBBF_FAULT", "crash:1,corrupt:7")],
    );
    assert_eq!(
        swept, clean,
        "faulted resident sweep diverged from reproduce"
    );
}

#[test]
fn persistent_crash_falls_back_to_in_process_bitwise() {
    let clean = reproduce_bytes();
    // `crash:0+` kills every worker attempt at shard 0; only the
    // supervisor's in-process fallback (which ignores PBBF_FAULT) can
    // settle it — and its bits must still match.
    let swept = run(
        &["sweep", FIGURE, "--seed", SEED, "--workers", "2"],
        &[("PBBF_FAULT", "crash:0+")],
    );
    assert_eq!(swept, clean, "fallback sweep bytes diverged from reproduce");
}

/// A well-formed spec for the first shard of the quick-effort manifest.
fn first_shard_spec() -> ShardSpec {
    let effort = Effort::quick();
    let manifest = sweep_manifest(FIGURE, &effort, 11).expect("fig17 is sweepable");
    let job = &manifest.shards[0];
    ShardSpec {
        id: 0,
        attempt: 0,
        expect: job.run1 - job.run0,
        job: serde::to_value(job),
    }
}

/// Specs whose job carries a simulated duration no run can use (`-5`,
/// `0`) or the simulator clock cannot hold (`1e300`), as shards 1–3.
fn bad_duration_specs() -> Vec<ShardSpec> {
    [-5.0, 0.0, 1e300]
        .into_iter()
        .zip(1..)
        .map(|(secs, id)| {
            let mut job = sweep_manifest(FIGURE, &Effort::quick(), 11)
                .expect("fig17 is sweepable")
                .shards[0]
                .clone();
            job.effort.net_duration_secs = secs;
            ShardSpec {
                id,
                attempt: 0,
                expect: job.run1 - job.run0,
                job: serde::to_value(&job),
            }
        })
        .collect()
}

/// Asserts `reply` refuses shard `id` over its simulated duration.
fn assert_duration_refusal(reply: &WorkerReply, id: u32) {
    let WorkerReply::Error(e) = reply else {
        panic!("shard {id}: expected a refusal, got {reply:?}");
    };
    assert_eq!(e.id, id);
    assert!(e.error.contains("net_duration_secs"), "{}", e.error);
}

/// A single line nested far past the JSON parser's depth cap.
fn hostile_line() -> String {
    "[".repeat(200_000)
}

#[test]
fn worker_speaks_the_shard_protocol() {
    let spec = first_shard_spec();

    let mut child = pbbf()
        .arg("worker")
        .env_remove("PBBF_FAULT")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn worker");
    {
        let stdin = child.stdin.as_mut().expect("worker stdin");
        writeln!(stdin, "{}", serde_json::to_string(&spec).unwrap()).expect("send spec");
    }
    // Dropping stdin closes the pipe; the worker exits 0 at EOF.
    let out = child.wait_with_output().expect("worker output");
    assert!(out.status.success(), "worker exited nonzero");

    // One Result line, then a telemetry Heartbeat line per shard.
    let stdout = String::from_utf8(out.stdout).expect("utf8 reply");
    let replies: Vec<WorkerReply> = stdout
        .lines()
        .map(|l| serde_json::from_str(l).expect("every line parses as WorkerReply"))
        .collect();
    assert_eq!(replies.len(), 2, "one Result + one Heartbeat: {stdout}");
    let WorkerReply::Result(result) = &replies[0] else {
        panic!("worker refused a well-formed shard");
    };
    assert_eq!(result.id, 0);
    assert_eq!(result.values.len(), spec.expect as usize);
    assert_eq!(
        result.checksum,
        checksum(result.id, &result.values),
        "reply checksum must validate"
    );
    assert!(
        matches!(replies[1], WorkerReply::Heartbeat(_)),
        "the trailer is cache telemetry"
    );
}

/// Spawns `pbbf worker --listen 127.0.0.1:0` and reads the announced
/// ephemeral address off its stdout.
fn spawn_tcp_worker(envs: &[(&str, &str)]) -> (std::process::Child, String) {
    use std::io::{BufRead, BufReader};
    let mut cmd = pbbf();
    cmd.args(["worker", "--listen", "127.0.0.1:0"])
        .env_remove("PBBF_FAULT")
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("spawn tcp worker");
    let stdout = child.stdout.take().expect("worker stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read listen announcement");
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .expect("announcement ends with the address")
        .to_string();
    assert!(
        addr.starts_with("127.0.0.1:"),
        "unexpected announcement: {line}"
    );
    (child, addr)
}

#[test]
fn cross_host_sweep_is_bitwise_identical_to_reproduce() {
    let clean = reproduce_bytes();
    let (mut worker, addr) = spawn_tcp_worker(&[]);
    let swept = run(
        &[
            "sweep",
            FIGURE,
            "--seed",
            SEED,
            "--hosts",
            &addr,
            "--workers",
            "1",
        ],
        &[],
    );
    let _ = worker.kill();
    let _ = worker.wait();
    assert_eq!(
        swept, clean,
        "cross-host sweep bytes diverged from reproduce"
    );
}

#[test]
fn cross_host_sweep_survives_a_crashing_tcp_worker_bitwise() {
    let clean = reproduce_bytes();
    // The TCP worker crashes (process exit, listener and all) on the
    // first shard it is dealt — the wildcard selector keeps this
    // independent of shard scheduling. The local subprocess worker must
    // absorb the whole manifest and the bytes must not move.
    let (mut worker, addr) = spawn_tcp_worker(&[("PBBF_FAULT", "crash:*")]);
    let swept = run(
        &[
            "sweep",
            FIGURE,
            "--seed",
            SEED,
            "--hosts",
            &addr,
            "--workers",
            "1",
        ],
        &[],
    );
    let _ = worker.kill();
    let _ = worker.wait();
    assert_eq!(
        swept, clean,
        "sweep with a crashed TCP worker diverged from reproduce"
    );
}

#[test]
fn stdin_worker_rejects_deeply_nested_json() {
    let mut child = pbbf()
        .arg("worker")
        .env_remove("PBBF_FAULT")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn worker");
    {
        let stdin = child.stdin.as_mut().expect("worker stdin");
        // The worker may exit before reading everything; a broken pipe
        // here is fine, the exit status below is the assertion.
        let _ = writeln!(stdin, "{}", hostile_line());
    }
    let out = child.wait_with_output().expect("worker output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{:?}: {stderr}", out.status);
    assert!(stderr.contains("unparseable shard spec"), "{stderr}");
}

#[test]
fn tcp_worker_survives_deeply_nested_json() {
    use std::io::{BufRead, BufReader, Read};
    use std::net::TcpStream;
    use std::time::Duration;

    let (mut worker, addr) = spawn_tcp_worker(&[]);
    let connect = || {
        let stream = TcpStream::connect(&addr).expect("connect to worker");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        stream
    };

    // The hostile connection: the worker must drop it, not die.
    let mut hostile = connect();
    writeln!(hostile, "{}", hostile_line()).expect("send hostile line");
    let mut drained = Vec::new();
    hostile
        .read_to_end(&mut drained)
        .expect("worker closes the hostile connection");

    // The same process still serves a clean shard on a new connection.
    let spec = first_shard_spec();
    let mut clean = connect();
    writeln!(clean, "{}", serde_json::to_string(&spec).unwrap()).expect("send spec");
    let mut reader = BufReader::new(clean.try_clone().expect("clone stream"));
    let result = loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read reply");
        assert!(n > 0, "worker closed the clean connection without a result");
        match serde_json::from_str::<WorkerReply>(line.trim_end()).expect("reply parses") {
            WorkerReply::Result(r) => break r,
            WorkerReply::Heartbeat(_) => continue,
            other => panic!("unexpected reply {other:?}"),
        }
    };
    drop(clean);
    let _ = worker.kill();
    let _ = worker.wait();
    assert_eq!(result.id, spec.id);
    assert_eq!(result.values.len(), spec.expect as usize);
    assert_eq!(result.checksum, checksum(result.id, &result.values));
}

#[test]
fn stdin_worker_refuses_bad_durations_and_exits_cleanly() {
    let mut child = pbbf()
        .arg("worker")
        .env_remove("PBBF_FAULT")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn worker");
    {
        let stdin = child.stdin.as_mut().expect("worker stdin");
        for spec in bad_duration_specs() {
            writeln!(stdin, "{}", serde_json::to_string(&spec).unwrap()).expect("send spec");
        }
    }
    let out = child.wait_with_output().expect("worker output");
    assert!(out.status.success(), "worker exited {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf8 replies");
    let replies: Vec<WorkerReply> = stdout
        .lines()
        .map(|l| serde_json::from_str(l).expect("every line parses as WorkerReply"))
        .filter(|r| !matches!(r, WorkerReply::Heartbeat(_)))
        .collect();
    assert_eq!(replies.len(), 3, "one refusal per spec: {stdout}");
    for (reply, id) in replies.iter().zip(1..) {
        assert_duration_refusal(reply, id);
    }
}

#[test]
fn tcp_worker_refuses_bad_durations_and_serves_on() {
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;
    use std::time::Duration;

    let (mut worker, addr) = spawn_tcp_worker(&[]);
    let stream = TcpStream::connect(&addr).expect("connect to worker");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut next_reply = || loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read reply");
        assert!(n > 0, "worker closed the connection");
        match serde_json::from_str::<WorkerReply>(line.trim_end()).expect("reply parses") {
            WorkerReply::Heartbeat(_) => continue,
            reply => break reply,
        }
    };
    for spec in bad_duration_specs() {
        writeln!(writer, "{}", serde_json::to_string(&spec).unwrap()).expect("send spec");
        assert_duration_refusal(&next_reply(), spec.id);
    }

    // The same connection still executes a clean shard.
    let spec = first_shard_spec();
    writeln!(writer, "{}", serde_json::to_string(&spec).unwrap()).expect("send spec");
    let reply = next_reply();
    let _ = worker.kill();
    let _ = worker.wait();
    let WorkerReply::Result(result) = reply else {
        panic!("worker refused a well-formed shard: {reply:?}");
    };
    assert_eq!(result.id, spec.id);
    assert_eq!(result.checksum, checksum(result.id, &result.values));
}
