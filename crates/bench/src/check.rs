//! The bench-regression gate: compares a fresh `BENCH_OUTPUT_JSON`
//! against the committed `BENCH_baseline.json` and fails when a kernel
//! got slower than a tolerance allows.
//!
//! CI runs this after every baseline-bench pass (see the `bench_check`
//! binary and `.github/workflows/ci.yml`), turning the committed
//! snapshot from a courtesy log into an enforced contract: a PR that
//! regresses a kernel beyond the tolerance fails the build and must
//! either fix the regression or consciously refresh the baseline.

use serde::Deserialize;

/// One kernel's timings as serialized by the criterion shim.
#[derive(Debug, Clone, Deserialize)]
pub struct KernelResult {
    /// Kernel id as passed to `bench_function`.
    pub name: String,
    /// Median time per iteration (ns).
    pub median_ns: f64,
    /// Mean time per iteration (ns).
    pub mean_ns: f64,
    /// Fastest sample (ns).
    pub min_ns: f64,
    /// Number of timed samples.
    pub samples: u64,
}

/// A `BENCH_*.json` document (`schema: "pbbf-bench-v1"`).
#[derive(Debug, Clone, Deserialize)]
pub struct BenchReport {
    /// Format tag, `pbbf-bench-v1`.
    pub schema: String,
    /// Seconds since the epoch at write time.
    pub unix_time: u64,
    /// Every kernel's result.
    pub benches: Vec<KernelResult>,
}

impl BenchReport {
    /// Parses a report, rejecting unknown schemas.
    ///
    /// # Errors
    ///
    /// Returns a message when the JSON is malformed or the schema tag is
    /// not `pbbf-bench-v1`.
    pub fn parse(json: &str) -> Result<Self, String> {
        let report: BenchReport =
            serde_json::from_str(json).map_err(|e| format!("malformed bench JSON: {e:?}"))?;
        if report.schema != "pbbf-bench-v1" {
            return Err(format!("unknown bench schema `{}`", report.schema));
        }
        Ok(report)
    }
}

/// One kernel's verdict from [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within tolerance (ratio = fresh / baseline median).
    Ok { ratio: f64 },
    /// Slower than `tolerance × baseline` — the gate fails.
    Regressed { ratio: f64 },
    /// Present in the baseline but missing from the fresh run — a
    /// silently deleted kernel also fails the gate.
    Missing,
}

/// The gate's result for one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelVerdict {
    /// Kernel id.
    pub name: String,
    /// Outcome.
    pub verdict: Verdict,
}

/// Compares `fresh` against `baseline` medians with a multiplicative
/// `tolerance` (e.g. `1.3` fails kernels more than 30% slower).
/// Kernels new in `fresh` pass silently (they will enter the baseline at
/// its next refresh). Returns per-kernel verdicts in baseline order.
///
/// # Panics
///
/// Panics if `tolerance` is not a finite value above 1.0.
#[must_use]
pub fn compare(baseline: &BenchReport, fresh: &BenchReport, tolerance: f64) -> Vec<KernelVerdict> {
    assert!(
        tolerance.is_finite() && tolerance >= 1.0,
        "tolerance {tolerance} must be a finite factor >= 1"
    );
    baseline
        .benches
        .iter()
        .map(|base| {
            let verdict = match fresh.benches.iter().find(|f| f.name == base.name) {
                None => Verdict::Missing,
                Some(f) => {
                    let ratio = f.median_ns / base.median_ns;
                    if ratio > tolerance {
                        Verdict::Regressed { ratio }
                    } else {
                        Verdict::Ok { ratio }
                    }
                }
            };
            KernelVerdict {
                name: base.name.clone(),
                verdict,
            }
        })
        .collect()
}

/// A machine-independent invariant between two kernels of the *same*
/// fresh run: `slow` must stay at least `min_ratio ×` slower than
/// `fast`. Absolute-time comparisons against the committed baseline
/// drift with runner hardware; these ratios do not — a fast-path
/// regression shows up as the pair collapsing toward 1× on any machine.
#[derive(Debug, Clone, Copy)]
pub struct RatioRule {
    /// The optimized kernel.
    pub fast: &'static str,
    /// Its reference (brute/uncached) counterpart.
    pub slow: &'static str,
    /// Minimum `slow / fast` median ratio (set well below the observed
    /// ratio so scheduler noise cannot flake the gate, while a revert
    /// to the reference algorithm still fails loudly).
    pub min_ratio: f64,
}

/// The repo's committed fast-vs-reference pairs (observed ratios in
/// parentheses; floors at roughly half).
pub const RATIO_RULES: &[RatioRule] = &[
    RatioRule {
        fast: "deployment_edges_grid_n5000",
        slow: "deployment_edges_brute_n5000",
        min_ratio: 8.0, // ~15x observed
    },
    RatioRule {
        fast: "net_sim_run_sparse_q05_batched",
        slow: "net_sim_run_sparse_q05_shared",
        min_ratio: 2.0, // ~7.5x observed (lazy engine vs the walk, `run_on_walked`)
    },
];

/// Checks the [`RATIO_RULES`] within one fresh run. Returns the report
/// text and whether every rule holds; a rule whose kernels are missing
/// from the run fails (the pair is part of the contract).
#[must_use]
pub fn check_ratios(fresh: &BenchReport, rules: &[RatioRule]) -> (String, bool) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut pass = true;
    let median = |name: &str| {
        fresh
            .benches
            .iter()
            .find(|b| b.name == name)
            .map(|b| b.median_ns)
    };
    for rule in rules {
        match (median(rule.fast), median(rule.slow)) {
            (Some(f), Some(s)) => {
                let ratio = s / f;
                if ratio >= rule.min_ratio {
                    let _ = writeln!(
                        out,
                        "ok       {:<44} {:>6.2}x >= {}x",
                        rule.fast, ratio, rule.min_ratio
                    );
                } else {
                    pass = false;
                    let _ = writeln!(
                        out,
                        "COLLAPSED {:<43} {:>6.2}x < {}x vs {}",
                        rule.fast, ratio, rule.min_ratio, rule.slow
                    );
                }
            }
            _ => {
                pass = false;
                let _ = writeln!(
                    out,
                    "MISSING  {:<44} ratio pair {} / {} absent",
                    rule.fast, rule.slow, rule.fast
                );
            }
        }
    }
    (out, pass)
}

/// Renders the verdicts as the gate's report and returns whether the
/// gate passes.
#[must_use]
pub fn render(verdicts: &[KernelVerdict], tolerance: f64) -> (String, bool) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut pass = true;
    for v in verdicts {
        match &v.verdict {
            Verdict::Ok { ratio } => {
                let _ = writeln!(out, "ok       {:<44} {:>6.2}x", v.name, ratio);
            }
            Verdict::Regressed { ratio } => {
                pass = false;
                let _ = writeln!(
                    out,
                    "REGRESSED {:<43} {:>6.2}x > {tolerance}x tolerance",
                    v.name, ratio
                );
            }
            Verdict::Missing => {
                pass = false;
                let _ = writeln!(out, "MISSING  {:<44} kernel absent from fresh run", v.name);
            }
        }
    }
    let _ = writeln!(
        out,
        "bench gate: {} ({} kernels, tolerance {tolerance}x)",
        if pass { "PASS" } else { "FAIL" },
        verdicts.len()
    );
    (out, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(entries: &[(&str, f64)]) -> BenchReport {
        BenchReport {
            schema: "pbbf-bench-v1".into(),
            unix_time: 0,
            benches: entries
                .iter()
                .map(|&(name, median_ns)| KernelResult {
                    name: name.into(),
                    median_ns,
                    mean_ns: median_ns,
                    min_ns: median_ns,
                    samples: 10,
                })
                .collect(),
        }
    }

    #[test]
    fn parses_the_committed_baseline_format() {
        let json = r#"{
          "schema": "pbbf-bench-v1",
          "unix_time": 1785373664,
          "benches": [
            {"name": "a", "median_ns": 654953.0, "mean_ns": 652416.1, "min_ns": 629466.0, "samples": 10}
          ]
        }"#;
        let r = BenchReport::parse(json).unwrap();
        assert_eq!(r.benches.len(), 1);
        assert_eq!(r.benches[0].name, "a");
        assert!((r.benches[0].median_ns - 654_953.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_unknown_schema() {
        let json = r#"{"schema": "other", "unix_time": 0, "benches": []}"#;
        assert!(BenchReport::parse(json).unwrap_err().contains("schema"));
    }

    #[test]
    fn within_tolerance_passes() {
        let base = report(&[("k1", 100.0), ("k2", 200.0)]);
        let fresh = report(&[("k1", 125.0), ("k2", 150.0)]);
        let verdicts = compare(&base, &fresh, 1.3);
        assert!(verdicts
            .iter()
            .all(|v| matches!(v.verdict, Verdict::Ok { .. })));
        let (text, pass) = render(&verdicts, 1.3);
        assert!(pass, "{text}");
        assert!(text.contains("PASS"));
    }

    #[test]
    fn slowdown_beyond_tolerance_fails() {
        let base = report(&[("k1", 100.0), ("k2", 200.0)]);
        let fresh = report(&[("k1", 131.0), ("k2", 200.0)]);
        let verdicts = compare(&base, &fresh, 1.3);
        assert_eq!(
            verdicts[0].verdict,
            Verdict::Regressed { ratio: 1.31 },
            "k1 is 1.31x"
        );
        let (text, pass) = render(&verdicts, 1.3);
        assert!(!pass);
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("k1"));
    }

    #[test]
    fn deleted_kernel_fails() {
        let base = report(&[("k1", 100.0), ("k2", 200.0)]);
        let fresh = report(&[("k1", 100.0)]);
        let verdicts = compare(&base, &fresh, 1.3);
        assert_eq!(verdicts[1].verdict, Verdict::Missing);
        let (text, pass) = render(&verdicts, 1.3);
        assert!(!pass);
        assert!(text.contains("MISSING"), "{text}");
    }

    #[test]
    fn new_kernel_in_fresh_is_ignored() {
        let base = report(&[("k1", 100.0)]);
        let fresh = report(&[("k1", 100.0), ("k_new", 1.0)]);
        let verdicts = compare(&base, &fresh, 1.3);
        assert_eq!(verdicts.len(), 1, "only baseline kernels are gated");
        assert!(render(&verdicts, 1.3).1);
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn sub_one_tolerance_panics() {
        let r = report(&[]);
        let _ = compare(&r, &r, 0.9);
    }

    #[test]
    fn ratio_rules_hold_and_collapse() {
        let rules = &[RatioRule {
            fast: "f",
            slow: "s",
            min_ratio: 2.0,
        }];
        let good = report(&[("f", 100.0), ("s", 250.0)]);
        let (text, pass) = check_ratios(&good, rules);
        assert!(pass, "{text}");
        let collapsed = report(&[("f", 100.0), ("s", 150.0)]);
        let (text, pass) = check_ratios(&collapsed, rules);
        assert!(!pass);
        assert!(text.contains("COLLAPSED"), "{text}");
        let missing = report(&[("f", 100.0)]);
        let (text, pass) = check_ratios(&missing, rules);
        assert!(!pass);
        assert!(text.contains("MISSING"), "{text}");
    }

    #[test]
    fn committed_ratio_rules_name_real_kernels() {
        // Every rule's kernels must exist in the committed baseline (the
        // gate checks them on the fresh run, which mirrors it).
        let json = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_baseline.json"
        ))
        .expect("committed baseline readable");
        let baseline = BenchReport::parse(&json).unwrap();
        let (text, pass) = check_ratios(&baseline, RATIO_RULES);
        assert!(pass, "committed baseline violates its own ratios:\n{text}");
    }
}
