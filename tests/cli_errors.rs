//! Bad flag values and exhibit ids against the real `pbbf` binary: each
//! one exits 1 with an `error:` line naming the flag or id, or, where a
//! value is only larger than needed, runs as usual. None may panic
//! (exit 101), abort (exit 134) or be silently wrapped into a different
//! value, and a reader that hangs up early is not an error.

use std::process::Command;

/// `(arguments, the flag or exhibit id the error must name)`.
const BAD_INVOCATIONS: &[(&str, &str)] = &[
    // Too sparse to draw a connected deployment.
    ("net --p .5 --q .5 --delta 3", "--delta"),
    ("net --p .5 --q .5 --delta 2", "--delta"),
    ("net --p .5 --q .5 --delta 0.5", "--delta"),
    ("net --p .5 --q .5 --delta 1e-9", "--delta"),
    // Empty grids, and a grid with no bonds to occupy.
    ("ideal --grid 0 --p .5 --q .5", "--grid"),
    ("boundary --grid 0", "--grid"),
    ("boundary --grid 1", "--grid"),
    ("boundary --grid 10 --runs 0", "--runs"),
    // Reliability targets outside (0, 1].
    ("boundary --grid 10 --reliability 0", "--reliability"),
    ("boundary --grid 10 --reliability 1.5", "--reliability"),
    ("boundary --grid 10 --reliability nan", "--reliability"),
    // Counts past u32::MAX, which must not wrap (2^32 + 5 is not 5).
    ("ideal --grid 4294967301 --p .5 --q .5", "--grid"),
    ("boundary --grid 4294967302", "--grid"),
    ("boundary --grid 10 --runs 4294967297", "--runs"),
    // Work past the boundary budget of 2^28 node-sweeps: each ran on
    // past 20 s (the first would take some 88 hours).
    ("boundary --grid 30 --runs 4000000000", "--runs"),
    ("boundary --grid 2 --runs 4000000000", "--runs"),
    // Work past the ideal-sim budget, refused before anything allocates
    // (each aborted on allocation, or was OOM-killed, before it was
    // checked), and a run of zero updates, which measures nothing.
    (
        "ideal --p .5 --q .5 --grid 3 --updates 4000000000",
        "--updates",
    ),
    ("ideal --p .5 --q .5 --grid 100000", "--grid"),
    ("ideal --p .5 --q .5 --grid 70000", "--grid"),
    ("boundary --grid 100000", "--grid"),
    ("ideal --p .5 --q .5 --grid 5 --updates 0", "--updates"),
    // Work past the net-sim budget: 1e10 s ran on past 10 s, and
    // 1.8e10 s aborted on a 4.3 GB per-update buffer.
    ("net --p .25 --q .25 --duration 1e10", "--duration"),
    ("net --p .25 --q .25 --duration 1.8e10", "--duration"),
    // A run that ends before the first update (at 0.5 s) generates
    // none: it once printed a delivery ratio and an energy per update.
    ("net --p .5 --q .5 --duration 0.4", "--duration"),
    // Port 0 is the bind wildcard of `worker --listen`, never a
    // worker's address: the sweep once ran every shard in-process.
    ("sweep fig17 --hosts 127.0.0.1:0", "--hosts"),
    // A heartbeat this short once sent 9–14 MB of heartbeat lines a
    // second and kept a core busy; it is refused before binding.
    (
        "worker --listen 127.0.0.1:0 --heartbeat 1e-9 --once",
        "--heartbeat",
    ),
    // An unknown exhibit id, once silently skipped, and an exhibit
    // `sweep` cannot shard.
    ("reproduce fig13 fig99", "fig99"),
    ("sweep fig13 fig07", "fig07"),
];

/// `--workers` values past any shard count: each once panicked on
/// capacity overflow or aborted on a 24 GB endpoint list. A fleet is
/// never larger than its queue, so each sweep must run as usual.
const HUGE_FLEETS: &[&str] = &["18446744073709551615", "1000000000"];

#[test]
fn bad_flag_values_exit_1_with_an_error_line() {
    for (args, flag) in BAD_INVOCATIONS {
        let out = Command::new(env!("CARGO_BIN_EXE_pbbf"))
            .args(args.split_whitespace())
            .output()
            .expect("spawn pbbf");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "pbbf {args}:\n{stderr}");
        assert!(
            stderr.starts_with(&format!("error: {flag}: ")),
            "pbbf {args}:\n{stderr}"
        );
        assert!(!stderr.contains("panicked"), "pbbf {args}:\n{stderr}");
        assert!(out.stdout.is_empty(), "pbbf {args} printed a result");
    }
}

#[test]
fn huge_worker_counts_sweep_like_reproduce() {
    let reproduce = Command::new(env!("CARGO_BIN_EXE_pbbf"))
        .args(["reproduce", "fig13"])
        .output()
        .expect("spawn pbbf");
    assert!(reproduce.status.success());
    for workers in HUGE_FLEETS {
        // A 4 GB address-space cap turns a regression back to a huge
        // allocation into an abort here rather than a host-wide OOM.
        let out = Command::new("sh")
            .args(["-c", "ulimit -v 4000000 && exec \"$0\" \"$@\""])
            .arg(env!("CARGO_BIN_EXE_pbbf"))
            .args(["sweep", "--figs", "fig13", "--workers", workers])
            .env_remove("PBBF_FAULT")
            .output()
            .expect("spawn sh");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "--workers {workers}:\n{stderr}");
        assert_eq!(out.stdout, reproduce.stdout, "--workers {workers}");
    }
}

#[test]
fn a_reader_hanging_up_ends_reproduce_quietly() {
    // `pbbf reproduce | head -1`, and a sweep alike, with the reader gone
    // before the command starts, so its first write fails with EPIPE
    // however fast the command is.
    for args in [&["reproduce"][..], &["sweep", "--workers", "1", "fig17"]] {
        let (reader, writer) = std::io::pipe().expect("create a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_pbbf"))
            .args(args)
            .env_remove("PBBF_FAULT")
            .stdout(writer)
            .output()
            .expect("spawn pbbf");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "pbbf {args:?}:\n{stderr}");
        assert!(!stderr.contains("panicked"), "pbbf {args:?}:\n{stderr}");
    }
}
