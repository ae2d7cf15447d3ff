//! Parser for the `pbbf sweep: <figure>: ...` stats lines the sweep
//! supervisor prints to stderr, one per figure.

/// The counters of one stats line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    pub workers: u64,
    pub spawn_failures: u64,
    pub retries: u64,
    pub crashes: u64,
    pub timeouts: u64,
    pub corrupt: u64,
    pub refused: u64,
    pub quarantined: u64,
    pub inproc_shards: u64,
    pub hosts_lost: u64,
    pub reconnects: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
}

impl SweepStats {
    /// Shards that went wrong on a worker: crashes, timeouts, corrupt
    /// replies and refusals.
    pub fn faults(&self) -> u64 {
        self.crashes + self.timeouts + self.corrupt + self.refused
    }
}

const PREFIX: &str = "pbbf sweep: ";

/// The line's wording with every number replaced by `#`. A line that
/// does not match it exactly is refused, so a reworded stats line fails
/// loudly instead of being read with its numbers shifted.
const TEMPLATE: &str = "workers # (+# spawn failures), retries #, crashes #, timeouts #, \
                        corrupt #, refused #, quarantined #, in-process shards #, hosts lost #, \
                        reconnects #, deploy cache #/# hit/miss (+# evicted)";

/// Parses one stderr line: `None` for a line that is not a stats line,
/// otherwise the figure id and its counters, or why they can't be read.
pub fn parse_stats_line(line: &str) -> Option<Result<(String, SweepStats), String>> {
    let rest = line.strip_prefix(PREFIX)?;
    Some(parse_body(rest).map_err(|e| format!("{e}: `{line}`")))
}

fn parse_body(rest: &str) -> Result<(String, SweepStats), String> {
    let (figure, body) = rest
        .split_once(": ")
        .ok_or_else(|| "stats line names no figure".to_string())?;
    let mut shape = String::with_capacity(body.len());
    let mut numbers = Vec::new();
    let mut digits = String::new();
    for ch in body.chars().chain(std::iter::once('\n')) {
        if ch.is_ascii_digit() {
            digits.push(ch);
            continue;
        }
        if !digits.is_empty() {
            numbers.push(digits.parse::<u64>().map_err(|e| e.to_string())?);
            digits.clear();
            shape.push('#');
        }
        if ch != '\n' {
            shape.push(ch);
        }
    }
    if shape != TEMPLATE {
        return Err("unrecognised stats line".into());
    }
    let [workers, spawn_failures, retries, crashes, timeouts, corrupt, refused, quarantined, inproc_shards, hosts_lost, reconnects, cache_hits, cache_misses, cache_evictions] =
        numbers[..]
    else {
        unreachable!("the template has fourteen numbers");
    };
    Ok((
        figure.to_string(),
        SweepStats {
            workers,
            spawn_failures,
            retries,
            crashes,
            timeouts,
            corrupt,
            refused,
            quarantined,
            inproc_shards,
            hosts_lost,
            reconnects,
            cache_hits,
            cache_misses,
            cache_evictions,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "pbbf sweep: fig13: workers 2 (+0 spawn failures), retries 3, crashes 1, \
                        timeouts 0, corrupt 2, refused 0, quarantined 1, in-process shards 4, \
                        hosts lost 0, reconnects 0, deploy cache 432/20 hit/miss (+5 evicted)";

    #[test]
    fn reads_every_counter() {
        let (fig, s) = parse_stats_line(LINE).unwrap().unwrap();
        assert_eq!(fig, "fig13");
        assert_eq!((s.workers, s.spawn_failures, s.retries), (2, 0, 3));
        assert_eq!((s.crashes, s.corrupt, s.quarantined), (1, 2, 1));
        assert_eq!(s.inproc_shards, 4);
        assert_eq!(
            (s.cache_hits, s.cache_misses, s.cache_evictions),
            (432, 20, 5)
        );
        assert_eq!(s.faults(), 3);
    }

    #[test]
    fn other_lines_are_not_stats_lines() {
        assert!(parse_stats_line("pbbf worker: listening on 127.0.0.1:1").is_none());
        assert!(parse_stats_line("").is_none());
    }

    #[test]
    fn reworded_or_truncated_lines_are_refused() {
        let reworded = LINE.replace("retries", "re-deliveries");
        assert!(parse_stats_line(&reworded).unwrap().is_err());
        let truncated = &LINE[..LINE.find(", deploy cache").unwrap()];
        assert!(parse_stats_line(truncated).unwrap().is_err());
        assert!(parse_stats_line("pbbf sweep: no figure here")
            .unwrap()
            .is_err());
        let huge = LINE.replace("retries 3", "retries 99999999999999999999999");
        assert!(parse_stats_line(&huge).unwrap().is_err());
    }
}
