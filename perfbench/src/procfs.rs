//! Readers for the `/proc` fields behind `cpu_s` and `peak_rss_mib`.

/// Clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`). Linux fixes
/// it at 100 for the user-visible interface on every architecture.
pub const TICKS_PER_SEC: f64 = 100.0;

/// `utime + stime + cutime + cstime` from the text of `/proc/<pid>/stat`,
/// in clock ticks: this process's CPU time plus that of every child it
/// has waited for.
///
/// The second field (`comm`) is the executable name in parentheses and
/// may itself hold spaces and `)`, so fields are counted from the last
/// `)` on the line.
pub fn parse_stat_cpu_ticks(stat: &str) -> Result<u64, String> {
    let close = stat
        .rfind(')')
        .ok_or_else(|| "stat line has no `)` after comm".to_string())?;
    // After `comm` come fields 3 (state), 4, ...; utime is field 14.
    let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
    let mut total = 0u64;
    for field in 14..=17 {
        let raw = fields
            .get(field - 3)
            .ok_or_else(|| format!("stat line has no field {field}"))?;
        total += raw
            .parse::<u64>()
            .map_err(|e| format!("stat field {field} `{raw}`: {e}"))?;
    }
    Ok(total)
}

/// The value in kB of `key` (e.g. `VmHWM`) in the text of
/// `/proc/<pid>/status`.
pub fn parse_status_kib(status: &str, key: &str) -> Result<u64, String> {
    for line in status.lines() {
        let Some((name, rest)) = line.split_once(':') else {
            continue;
        };
        if name != key {
            continue;
        }
        let number = rest
            .trim()
            .strip_suffix("kB")
            .ok_or_else(|| format!("{key} is not in kB: `{line}`"))?;
        return number
            .trim()
            .parse()
            .map_err(|e| format!("{key} `{line}`: {e}"));
    }
    Err(format!("status has no {key} line"))
}

/// CPU seconds used so far by this process and its reaped children.
pub fn cpu_ticks() -> Result<u64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    parse_stat_cpu_ticks(&stat)
}

/// This process's resident-set high-water mark (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    parse_status_kib(&status, "VmHWM")
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (perfbench-worker) S 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                        250 31 7 2 20 0 3 0 1000 123456 789 18446744073709551615";

    #[test]
    fn stat_sums_own_and_reaped_children_ticks() {
        assert_eq!(parse_stat_cpu_ticks(STAT), Ok(250 + 31 + 7 + 2));
    }

    #[test]
    fn stat_comm_may_hold_spaces_and_parens() {
        let odd = STAT.replace("(perfbench-worker)", "(a) b (c))");
        assert_eq!(parse_stat_cpu_ticks(&odd), Ok(290));
    }

    #[test]
    fn truncated_or_garbled_stat_is_an_error() {
        assert!(parse_stat_cpu_ticks("4242 (x) S 1 2 3").is_err());
        assert!(parse_stat_cpu_ticks("no parens at all").is_err());
        let garbled = STAT.replace(" 250 ", " 2x0 ");
        assert!(parse_stat_cpu_ticks(&garbled).is_err());
    }

    #[test]
    fn status_reads_the_named_kib_field() {
        let status = "Name:\tperfbench\nVmPeak:\t  20480 kB\nVmHWM:\t   9876 kB\nThreads:\t1\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Ok(9876));
        assert_eq!(parse_status_kib(status, "VmPeak"), Ok(20480));
        assert!(parse_status_kib(status, "VmRSS").is_err());
        assert!(parse_status_kib("VmHWM:\t12 pages\n", "VmHWM").is_err());
    }

    #[test]
    fn live_readers_work_on_this_process() {
        assert!(cpu_ticks().is_ok());
        assert!(peak_rss_kib().unwrap() > 0);
    }
}
