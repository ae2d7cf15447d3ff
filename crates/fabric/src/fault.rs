//! `PBBF_FAULT` — deterministic fault injection for worker processes.
//!
//! The supervisor's failure paths (crash, hang, corrupt output) are
//! hard to exercise organically, so workers honor an env-var fault
//! plan: `PBBF_FAULT=crash:1,hang:4,corrupt:7` makes the worker that
//! receives shard 1 exit mid-shard, shard 4's worker wedge until the
//! supervisor's deadline kills it, and shard 7's reply arrive with a
//! flipped value bit under a stale checksum. Each fault fires on the
//! shard's *first* delivery only — the retry then succeeds — unless the
//! shard number carries a `+` suffix (`crash:0+`), which makes the
//! fault fire on every attempt and drives the supervisor down its
//! attempt-exhaustion → in-process fallback path. The shard position
//! also accepts `*` (`hang:*`): the fault fires on whatever shard the
//! worker happens to receive first — the shape cross-host CI needs,
//! where shard→host assignment is a scheduling detail.
//!
//! Only [`serve_session`](crate::worker::serve_session) consults the plan;
//! the supervisor never does, so a sweep's *recovery* is what gets
//! tested, not a short-circuit. Determinism note: faults keyed on shard
//! id and attempt are reproducible by construction — no dice rolls.

/// What a planned fault does to the shard's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Exit the worker process before replying.
    Crash,
    /// Never reply; sleep until killed.
    Hang,
    /// Reply with a flipped value bit and a stale checksum.
    Corrupt,
}

/// Which shards a fault entry applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShardSel {
    /// One specific manifest position.
    Id(u32),
    /// Any shard (`*`) — whatever this worker is handed.
    Any,
}

impl ShardSel {
    fn matches(self, shard: u32) -> bool {
        match self {
            ShardSel::Id(id) => id == shard,
            ShardSel::Any => true,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fault {
    kind: FaultKind,
    shard: ShardSel,
    every_attempt: bool,
}

/// A parsed `PBBF_FAULT` plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// Parses the plan from `PBBF_FAULT` (empty/unset → no faults).
    #[must_use]
    pub fn from_env() -> Self {
        Self::parse(&std::env::var("PBBF_FAULT").unwrap_or_default())
    }

    /// Parses a comma-separated `kind:shard[+]` list. Unrecognized
    /// entries are ignored (a test knob, not a user interface).
    #[must_use]
    pub fn parse(spec: &str) -> Self {
        let mut faults = Vec::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            let Some((kind, shard)) = entry.split_once(':') else {
                continue;
            };
            let kind = match kind {
                "crash" => FaultKind::Crash,
                "hang" => FaultKind::Hang,
                "corrupt" => FaultKind::Corrupt,
                _ => continue,
            };
            let (shard, every_attempt) = match shard.strip_suffix('+') {
                Some(s) => (s, true),
                None => (shard, false),
            };
            let shard = match shard {
                "*" => Some(ShardSel::Any),
                s => s.parse().ok().map(ShardSel::Id),
            };
            if let Some(shard) = shard {
                faults.push(Fault {
                    kind,
                    shard,
                    every_attempt,
                });
            }
        }
        Self { faults }
    }

    /// The fault (if any) to inject for delivery `attempt` of `shard`.
    #[must_use]
    pub fn fault_for(&self, shard: u32, attempt: u32) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| f.shard.matches(shard) && (f.every_attempt || attempt == 0))
            .map(|f| f.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_grammar() {
        let plan = FaultPlan::parse("crash:1, hang:4,corrupt:7,crash:0+");
        assert_eq!(plan.fault_for(1, 0), Some(FaultKind::Crash));
        assert_eq!(plan.fault_for(4, 0), Some(FaultKind::Hang));
        assert_eq!(plan.fault_for(7, 0), Some(FaultKind::Corrupt));
        assert_eq!(plan.fault_for(2, 0), None);

        // One-shot faults clear on retry; persistent ones don't.
        assert_eq!(plan.fault_for(1, 1), None);
        assert_eq!(plan.fault_for(0, 3), Some(FaultKind::Crash));
    }

    #[test]
    fn wildcard_matches_any_shard() {
        let plan = FaultPlan::parse("hang:*");
        assert_eq!(plan.fault_for(0, 0), Some(FaultKind::Hang));
        assert_eq!(plan.fault_for(999, 0), Some(FaultKind::Hang));
        assert_eq!(plan.fault_for(999, 1), None, "first delivery only");
        let persistent = FaultPlan::parse("crash:*+");
        assert_eq!(persistent.fault_for(3, 7), Some(FaultKind::Crash));
    }

    #[test]
    fn garbage_is_ignored() {
        assert_eq!(FaultPlan::parse(""), FaultPlan::default());
        let garbage = FaultPlan::parse("explode:9,crash,corrupt:x,:3");
        assert_eq!(garbage, FaultPlan::default());
        assert_eq!(
            FaultPlan::parse("nope:1,hang:2").fault_for(2, 0),
            Some(FaultKind::Hang)
        );
    }
}
