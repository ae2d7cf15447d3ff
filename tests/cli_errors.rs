//! Bad flag values against the real `pbbf` binary: each one exits 1
//! with an `error:` line naming the flag. None may panic (exit 101) or
//! be silently wrapped into a different value.

use std::process::Command;

/// `(arguments, the flag the error must name)`.
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
];

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
