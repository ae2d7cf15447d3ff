//! End-to-end tests of the distributed sweep fabric against the real
//! `pbbf` binary: a multi-process `pbbf sweep` must emit bytes
//! identical to single-process `pbbf reproduce` — including while
//! shards are being crashed, hung, and corrupted underneath it.

use std::io::Write;
use std::process::{Command, Stdio};

use pbbf::prelude::Effort;
use pbbf_experiments::sweep::{sweep_manifest, ShardJob};
use pbbf_fabric::protocol::{checksum, ShardSpec, WorkerReply};

const FIGURE: &str = "fig17";
const SEED: &str = "11";

fn pbbf() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pbbf"))
}

/// Runs the binary, asserts success, returns raw stdout bytes and
/// stderr.
fn run_both(args: &[&str], envs: &[(&str, &str)]) -> (Vec<u8>, String) {
    let mut cmd = pbbf();
    cmd.args(args).env_remove("PBBF_FAULT");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn pbbf");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "pbbf {args:?} failed ({:?}):\n{stderr}",
        out.status
    );
    (out.stdout, stderr)
}

/// Runs the binary, asserts success, returns raw stdout bytes.
fn run(args: &[&str], envs: &[(&str, &str)]) -> Vec<u8> {
    run_both(args, envs).0
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
    // Faults land mid-queue on queue positions: a crash and a corruption
    // in the first table and a corruption after it. Listed first, the Q
    // table (quick effort: positions 0–25) takes the crash and the first
    // corruption and the Δ table the second; the ideal table (positions
    // 0–31) takes all three. Retries cross the table boundaries on the
    // same resident workers; the bytes must not move. Rows with fig14
    // or fig05 share a faulted table between two figures.
    for figs in [
        vec!["fig13", FIGURE],
        vec!["fig13", "fig14", FIGURE],
        vec!["fig04", "fig05", "fig13", FIGURE],
    ] {
        let mut reproduce = vec!["reproduce"];
        reproduce.extend(&figs);
        reproduce.extend(["--seed", SEED]);
        let clean = run(&reproduce, &[]);
        let (swept, stderr) = run_both(
            &[
                "sweep",
                "--figs",
                &figs.join(","),
                "--seed",
                SEED,
                "--workers",
                "3",
                "--shard-timeout",
                "5",
            ],
            &[("PBBF_FAULT", "crash:1,corrupt:7,corrupt:30")],
        );
        assert_eq!(
            swept, clean,
            "faulted resident sweep of {figs:?} diverged from reproduce"
        );
        // Every fault, wherever it landed, is on the first figure's
        // line.
        let first = counters(assert_one_ledger(&stderr, &figs)[0]);
        assert!(first[CRASHES] >= 1, "{stderr}");
        assert!(first[CORRUPT] >= 2, "{stderr}");
    }
}

/// The stats line's wording with every number replaced by `#`.
const STATS_TEMPLATE: &str = "workers # (+# spawn failures), retries #, crashes #, timeouts #, \
                              corrupt #, refused #, quarantined #, in-process shards #, \
                              hosts lost #, reconnects #, deploy cache #/# hit/miss (+# evicted)";

/// Positions in [`counters`]: `workers` and `spawn failures` (the
/// fleet, which every line repeats) come before `FLEET`.
const FLEET: usize = 2;
const CRASHES: usize = 3;
const CORRUPT: usize = 5;

/// `line` with every run of digits replaced by one `#`.
fn shape(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    for ch in line.chars() {
        if !ch.is_ascii_digit() {
            out.push(ch);
        } else if !out.ends_with('#') {
            out.push('#');
        }
    }
    out
}

/// A stats line's numbers, in [`STATS_TEMPLATE`] order.
fn counters(body: &str) -> Vec<u64> {
    body.split(|c: char| !c.is_ascii_digit())
        .filter(|n| !n.is_empty())
        .map(|n| n.parse().expect("a counter"))
        .collect()
}

/// Checks a sweep's stats lines and returns their bodies: one line per
/// figure, in request order and the template's wording (a faulted
/// sweep may also print fault lines under the `pbbf sweep: ` prefix,
/// which this skips; a clean test counts them itself). The first line
/// carries the queue's one ledger; every later line repeats the fleet
/// and reads 0 elsewhere, so each counter summed over the lines equals
/// the first line's.
fn assert_one_ledger<'a>(stderr: &'a str, figs: &[&str]) -> Vec<&'a str> {
    let lines: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("pbbf sweep: fig"))
        .collect();
    assert_eq!(
        lines.len(),
        figs.len(),
        "one stats line per figure:\n{stderr}"
    );
    let bodies: Vec<&str> = lines
        .iter()
        .zip(figs)
        .map(|(line, fig)| {
            let body = line
                .strip_prefix(&format!("pbbf sweep: {fig}: "))
                .unwrap_or_else(|| panic!("{fig}'s line out of order: {line}"));
            assert_eq!(shape(body), STATS_TEMPLATE, "{line}");
            body
        })
        .collect();
    let first = counters(bodies[0]);
    for body in &bodies[1..] {
        let later = counters(body);
        assert_eq!(later[..FLEET], first[..FLEET], "the fleet repeats: {body}");
        assert!(
            later[FLEET..].iter().all(|&n| n == 0),
            "a later line is fleet-only: {body}"
        );
    }
    for (field, &total) in first.iter().enumerate().skip(FLEET) {
        let sum: u64 = bodies.iter().map(|b| counters(b)[field]).sum();
        assert_eq!(sum, total, "counter {field} sums to the first line's");
    }
    bodies
}

#[test]
fn six_figure_sweep_runs_each_table_once_with_one_stats_line_per_figure() {
    let figs = ["fig13", "fig14", "fig15", "fig16", "fig17", "fig18"];
    let mut reproduce = vec!["reproduce"];
    reproduce.extend(figs);
    reproduce.extend(["--seed", SEED]);
    let clean = run(&reproduce, &[]);
    let (swept, stderr) = run_both(
        &[
            "sweep",
            "--figs",
            &figs.join(","),
            "--seed",
            SEED,
            "--workers",
            "3",
        ],
        &[],
    );
    assert_eq!(swept, clean, "six-figure sweep diverged from reproduce");
    // A clean sweep prints nothing else under the prefix: perfbench's
    // `fabric_stats.rs` reads every such line as a stats line.
    assert_eq!(
        stderr
            .lines()
            .filter(|l| l.starts_with("pbbf sweep: "))
            .count(),
        figs.len(),
        "only stats lines carry the prefix:\n{stderr}"
    );
    // The queue's one ledger, the Δ table's work included, is on
    // fig13's line; from fig14 on, fig17 too, every line reads
    // `in-process shards 0` and `deploy cache 0/0`.
    for body in assert_one_ledger(&stderr, &figs) {
        assert!(
            body.starts_with("workers 3 (+0 spawn failures), retries 0,"),
            "{body}"
        );
    }
}

#[test]
fn ideal_figures_sweep_their_one_table_like_reproduce() {
    // Figs 4, 5 and 8–11 are six columns of the ideal table: the queue
    // runs it once, and every figure assembles bitwise what `reproduce`
    // prints.
    let figs = ["fig04", "fig05", "fig08", "fig09", "fig10", "fig11"];
    for seed in ["3", "2005"] {
        let mut reproduce = vec!["reproduce"];
        reproduce.extend(figs);
        reproduce.extend(["--seed", seed]);
        let clean = run(&reproduce, &[]);
        let mut sweep = vec!["sweep"];
        sweep.extend(figs);
        sweep.extend(["--seed", seed, "--workers", "2"]);
        let (swept, stderr) = run_both(&sweep, &[]);
        assert_eq!(swept, clean, "seed {seed}: ideal sweep diverged");
        assert_eq!(
            stderr
                .lines()
                .filter(|l| l.starts_with("pbbf sweep: "))
                .count(),
            figs.len(),
            "only stats lines carry the prefix:\n{stderr}"
        );
        // The ideal table draws no deployment.
        for body in assert_one_ledger(&stderr, &figs) {
            assert!(
                body.ends_with("deploy cache 0/0 hit/miss (+0 evicted)"),
                "{body}"
            );
        }
    }
}

#[test]
fn sweep_and_reproduce_agree_on_request_order_and_repeats() {
    let once = run(&["reproduce", "fig17", "fig13", "--seed", SEED], &[]);
    let repeated = run(
        &["reproduce", "fig17", "fig13", "fig13", "--seed", SEED],
        &[],
    );
    let swept = run(
        &[
            "sweep",
            "fig17",
            "fig13",
            "fig13",
            "--seed",
            SEED,
            "--workers",
            "2",
        ],
        &[],
    );
    assert_eq!(swept, repeated, "sweep diverged from reproduce");
    assert_eq!(repeated, once, "a repeated id prints once");
    let text = String::from_utf8(once).expect("utf8 figures");
    let at = |title: &str| text.find(title).unwrap_or_else(|| panic!("{title}"));
    assert!(at("Figure 17:") < at("Figure 13:"), "request order");
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
        expect: job.reply_len() as u32,
        job: serde::to_value(job),
    }
}

/// Specs a worker must refuse, as shards 1, 2, …, each with the text
/// its refusal must contain: a simulated duration no run can use (`-5`,
/// `0`, and `0.1`, which ends before the first update), the simulator
/// clock cannot hold (`1e300`), or whose per-update buffers would need
/// ~4 GB (`1.8e10`, past the net-sim work budget), a fig13 q axis whose
/// point grid would need ~32 GB, a run range whose values would need
/// ~64 GB, and ideal grids and update counts outside the ideal-sim work
/// budget (no node, 10^10 nodes, no update, and 2.5 × 10^12
/// node-updates).
fn refused_specs() -> Vec<(ShardSpec, &'static str)> {
    let first = |figure: &str| {
        sweep_manifest(figure, &Effort::quick(), 11)
            .expect("sweepable figure")
            .shards[0]
            .clone()
    };
    let mut jobs = Vec::new();
    for secs in [-5.0, 0.0, 0.1, 1e300, 1.8e10] {
        let mut job = first(FIGURE);
        job.effort.net_duration_secs = secs;
        let expect = job.reply_len() as u32;
        jobs.push((job, expect, "net_duration_secs: "));
    }
    let mut job = first("fig13");
    job.effort.q_points = 4_000_000_000;
    let expect = job.reply_len() as u32;
    jobs.push((job, expect, "q_points: "));
    let mut job = first("fig13");
    job.effort.runs = 4_000_000_000;
    (job.run0, job.run1) = (0, 4_000_000_000);
    jobs.push((job, 1, "run range"));
    for (grid, updates, field) in [
        (0, 3, "ideal_grid_side: "),
        (100_000, 3, "ideal_grid_side: "),
        (25, 0, "ideal_updates: "),
        (25, 4_000_000_000, "ideal_updates: "),
    ] {
        let mut job = first("fig04");
        job.effort.ideal_grid_side = grid;
        job.effort.ideal_updates = updates;
        let expect = job.reply_len() as u32;
        jobs.push((job, expect, field));
    }
    jobs.into_iter()
        .zip(1..)
        .map(|((job, expect, why), id)| {
            let spec = ShardSpec {
                id,
                attempt: 0,
                expect,
                job: serde::to_value(&job),
            };
            (spec, why)
        })
        .collect()
}

/// Asserts `reply` refuses shard `id`, saying `why`.
fn assert_refusal(reply: &WorkerReply, id: u32, why: &str) {
    let WorkerReply::Error(e) = reply else {
        panic!("shard {id}: expected a refusal, got {reply:?}");
    };
    assert_eq!(e.id, id);
    assert!(e.error.contains(why), "shard {id}: {}", e.error);
}

/// A single line nested far past the JSON parser's depth cap.
fn hostile_line() -> String {
    "[".repeat(200_000)
}

#[test]
fn worker_speaks_the_shard_protocol() {
    let spec = first_shard_spec();
    // The sender closes stdin after the spec; the worker exits 0 at EOF.
    let out = stdin_worker(spec_lines([&spec]));
    assert!(out.status.success(), "worker exited nonzero");

    // One Result line, then a telemetry Heartbeat line per shard.
    let replies = replies(&out.stdout);
    assert_eq!(replies.len(), 2, "one Result + one Heartbeat: {replies:?}");
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
    let out = stdin_worker(hostile_line() + "\n");
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
    let specs = refused_specs();
    let out = stdin_worker(spec_lines(specs.iter().map(|(spec, _)| spec)));
    assert!(out.status.success(), "worker exited {:?}", out.status);
    let replies: Vec<WorkerReply> = replies(&out.stdout)
        .into_iter()
        .filter(|r| !matches!(r, WorkerReply::Heartbeat(_)))
        .collect();
    assert_eq!(replies.len(), specs.len(), "{replies:?}");
    for (reply, (spec, why)) in replies.iter().zip(&specs) {
        assert_refusal(reply, spec.id, why);
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
    for (spec, why) in refused_specs() {
        writeln!(writer, "{}", serde_json::to_string(&spec).unwrap()).expect("send spec");
        assert_refusal(&next_reply(), spec.id, why);
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

/// Sends `lines` to a fresh stdin `pbbf worker` and returns its output
/// once it exits. The lines go from a thread of their own: a worker
/// stops reading while its replies sit unread.
fn stdin_worker(lines: String) -> std::process::Output {
    let mut child = pbbf()
        .arg("worker")
        .env_remove("PBBF_FAULT")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn worker");
    let mut stdin = child.stdin.take().expect("worker stdin");
    // The worker may exit before reading everything; a broken pipe here
    // is fine, the caller asserts on the exit status.
    let sender = std::thread::spawn(move || {
        let _ = stdin.write_all(lines.as_bytes());
    });
    let out = child.wait_with_output().expect("worker output");
    sender.join().expect("sender thread");
    out
}

/// One wire line per spec.
fn spec_lines<'a>(specs: impl IntoIterator<Item = &'a ShardSpec>) -> String {
    specs
        .into_iter()
        .map(|spec| serde_json::to_string(spec).unwrap() + "\n")
        .collect()
}

/// Every reply line a worker wrote, heartbeats included.
fn replies(stdout: &[u8]) -> Vec<WorkerReply> {
    String::from_utf8_lossy(stdout)
        .lines()
        .map(|l| serde_json::from_str(l).expect("every line parses as WorkerReply"))
        .collect()
}

/// `line` with the value of its field `key`, a number, set to `value`.
fn with_field(line: &str, key: &str, value: &str) -> String {
    let start = line.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
    let end = start + line[start..].find([',', '}']).expect("a number");
    format!("{}{value}{}", &line[..start], &line[end..])
}

/// The field soup: the first quick shard of fig04, fig13 and fig17 with
/// one field of its job, each `Effort` field or `seed`, `point`, `run0`
/// or `run1`, set to one value per line, all sent to one stdin worker.
/// Each line must draw exactly one reply: a `Result` of the reply length
/// of the job it became, with a valid checksum, or an `Error`.
#[test]
fn stdin_worker_answers_every_spec_of_the_field_soup() {
    let fields = "runs ideal_grid_side ideal_updates nz_runs net_duration_secs q_points \
                  hop_probe_near hop_probe_far seed point run0 run1";
    let values = r#"0 1 2 4294967295 1e300 -1e300 -1 0.5 1e-300 null "x" [] {}"#;
    let mut expected = Vec::new();
    let mut lines = String::new();
    for figure in ["fig04", "fig13", "fig17"] {
        let manifest = sweep_manifest(figure, &Effort::quick(), 11).expect("sweepable figure");
        let first = serde_json::to_string(&manifest.shards[0]).unwrap();
        for field in fields.split_whitespace() {
            for value in values.split(' ') {
                let job = with_field(&first, field, value);
                let expect = serde_json::from_str::<ShardJob>(&job).map_or(0, |j| j.reply_len());
                // A reply too long for the wire's u32 is refused anyway.
                let wire = u32::try_from(expect).unwrap_or(u32::MAX);
                let id = expected.len();
                lines +=
                    &format!("{{\"id\":{id},\"attempt\":0,\"expect\":{wire},\"job\":{job}}}\n");
                expected.push((expect, job));
            }
        }
    }
    assert_eq!(expected.len(), 3 * 12 * 13);
    let out = stdin_worker(lines);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let mut answers = vec![0; expected.len()];
    let mut results = 0;
    for reply in replies(&out.stdout) {
        let id = match reply {
            WorkerReply::Result(r) => {
                let (expect, job) = &expected[r.id as usize];
                assert_eq!(r.values.len(), *expect, "{job}");
                assert_eq!(r.checksum, checksum(r.id, &r.values), "{job}");
                results += 1;
                r.id
            }
            WorkerReply::Error(e) => e.id,
            WorkerReply::Heartbeat(_) => continue,
        };
        answers[id as usize] += 1;
    }
    assert!(answers.iter().all(|&n| n == 1), "{answers:?}");
    assert!(results > 0, "some soup lines are still valid jobs");
}

/// A spec line at the 1 MiB cap whose job is one string of 2-byte
/// characters: the worker parses it in one pass and refuses the job
/// within seconds. Re-validating the rest of the line per character
/// took minutes.
#[test]
fn stdin_worker_refuses_a_megabyte_string_quickly() {
    use pbbf_fabric::protocol::MAX_LINE_BYTES;
    let (head, tail) = (r#"{"id":0,"attempt":0,"expect":1,"job":""#, "\"}");
    let chars = (MAX_LINE_BYTES - head.len() - tail.len()) / 'é'.len_utf8();
    let line = format!("{head}{}{tail}", "é".repeat(chars));
    assert!(line.len() > MAX_LINE_BYTES - 2 && line.len() <= MAX_LINE_BYTES);
    let started = std::time::Instant::now();
    let out = stdin_worker(line + "\n");
    let elapsed = started.elapsed();
    assert!(out.status.success(), "worker exited {:?}", out.status);
    let replies = replies(&out.stdout);
    let WorkerReply::Error(e) = &replies[0] else {
        panic!("expected a refusal, got {replies:?}");
    };
    assert_eq!(e.id, 0);
    assert!(
        elapsed < std::time::Duration::from_secs(10),
        "refusal took {elapsed:?}"
    );
}

/// Lines that are not JSON make a fresh worker exit 1: a bare `NaN`, a
/// number with a leading zero, and a string holding a raw control
/// character (RFC 8259 admits neither).
#[test]
fn stdin_worker_exits_1_on_a_bare_nan() {
    let spec = spec_lines(&[first_shard_spec()]);
    let job_at = spec.find("\"job\":").expect("a job") + "\"job\":".len();
    for line in [
        with_field(&spec, "seed", "NaN"),
        with_field(&spec, "id", "01"),
        format!("{}\"a\u{1}b\"}}\n", &spec[..job_at]),
    ] {
        let out = stdin_worker(line.clone());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{line:?}: {:?}: {stderr}",
            out.status
        );
        assert!(
            stderr.contains("unparseable shard spec"),
            "{line:?}: {stderr}"
        );
    }
}
