//! The supervisor ↔ worker wire format: JSON lines, bit-exact values.
//!
//! One [`ShardSpec`] per line on a worker's stdin, one [`WorkerReply`]
//! per line on its stdout. Two deliberate choices keep the channel
//! deterministic and tamper-evident:
//!
//! * **Values travel as bit patterns.** A shard's per-run metric values
//!   are `Option<f64>`; the wire carries `Option<u64>` via
//!   [`f64::to_bits`]. Decimal text could round-trip finite doubles
//!   (Rust's shortest-representation formatter is exact), but bits make
//!   the bitwise-identity contract *inspectably* independent of any
//!   formatter, and extend it to NaN payloads and signed zeros for
//!   free.
//! * **Replies carry a checksum.** [`checksum`] folds the shard id and
//!   value bits through FNV-1a; the supervisor recomputes it and treats
//!   a mismatch as a corrupt worker (strike + retry elsewhere), never
//!   as data.

use serde::{Deserialize, Serialize};
use serde_json::Value as Json;

/// The longest line, `\n` excluded, that either side of the fabric
/// buffers (`docs/PROTOCOL.md` §1). Every spec and reply `pbbf sweep`
/// exchanges is a few hundred bytes; the cap bounds what a peer that
/// never sends `\n` can make a worker or the supervisor hold.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// One unit of work: an opaque job plus the retry/accounting envelope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// Manifest position of this shard — the supervisor folds replies
    /// by this index, so it is the only identity that matters.
    pub id: u32,
    /// Zero-based delivery attempt, so workers (and fault injection)
    /// can distinguish a first execution from a retry.
    pub attempt: u32,
    /// Number of values the shard must return; replies of any other
    /// length are rejected as corrupt.
    pub expect: u32,
    /// The opaque job payload. The supervisor forwards it verbatim and
    /// never interprets it; only the executor closure does.
    pub job: Json,
}

/// A successfully executed shard: its values, bit-exact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardResult {
    /// The shard's manifest position (echoed from the spec).
    pub id: u32,
    /// Per-run metric values as `f64` bit patterns; `None` marks a run
    /// that produced no sample.
    pub values: Vec<Option<u64>>,
    /// [`checksum`] over `(id, values)`.
    pub checksum: u64,
}

/// Deployment-cache counters a worker reports in heartbeat telemetry:
/// how many `(seed, geometry)` scenario lookups its process-wide
/// registry answered from memory versus drew fresh. Pure observability
/// — the supervisor folds these into
/// [`SweepStats`](crate::supervisor::SweepStats); they can never touch
/// the output values.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheTelemetry {
    /// Scenario lookups answered from the cache.
    pub hits: u64,
    /// Scenario lookups that drew a fresh deployment.
    pub misses: u64,
    /// Entries evicted to honor the cache's capacity bound.
    pub evictions: u64,
}

impl CacheTelemetry {
    /// Counter-wise saturating difference — used to report per-session
    /// deltas from a process-lifetime counter baseline.
    #[must_use]
    pub fn saturating_sub(self, baseline: Self) -> Self {
        Self {
            hits: self.hits.saturating_sub(baseline.hits),
            misses: self.misses.saturating_sub(baseline.misses),
            evictions: self.evictions.saturating_sub(baseline.evictions),
        }
    }
}

/// A shard the worker refused (malformed job) — reported, not fatal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardError {
    /// The shard's manifest position (echoed from the spec).
    pub id: u32,
    /// Why the worker refused it.
    pub error: String,
}

/// One output line from a worker (stdout pipe or TCP socket).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkerReply {
    /// The shard executed; here are its bits.
    Result(ShardResult),
    /// The worker refused the shard.
    Error(ShardError),
    /// A liveness beat carrying deployment-cache telemetry. Remote
    /// (socket) workers emit these on a timer so the supervisor can
    /// tell a slow shard from a vanished host; every worker emits one
    /// after each reply so telemetry is at least as fresh as the last
    /// completed shard.
    Heartbeat(CacheTelemetry),
}

/// FNV-1a 64 over a shard id and its value bits. Cheap, dependency-free
/// corruption tripwire — not cryptographic, and doesn't need to be: the
/// threat model is truncated pipes and injected faults, not adversaries.
#[must_use]
pub fn checksum(id: u32, values: &[Option<u64>]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(PRIME);
        }
    };
    eat(u64::from(id));
    eat(values.len() as u64);
    for v in values {
        match v {
            // Distinct tag words keep `None` and `Some(0.0)` apart.
            Some(bits) => {
                eat(1);
                eat(*bits);
            }
            None => eat(2),
        }
    }
    h
}

/// Encodes per-run metric values for the wire.
#[must_use]
pub fn encode_values(values: &[Option<f64>]) -> Vec<Option<u64>> {
    values.iter().map(|v| v.map(f64::to_bits)).collect()
}

/// Decodes wire values back to per-run metric values, bit-for-bit.
#[must_use]
pub fn decode_values(bits: &[Option<u64>]) -> Vec<Option<f64>> {
    bits.iter().map(|b| b.map(f64::from_bits)).collect()
}

/// Builds a well-formed reply for an executed shard.
#[must_use]
pub fn result_reply(id: u32, values: &[Option<f64>]) -> WorkerReply {
    let values = encode_values(values);
    let checksum = checksum(id, &values);
    WorkerReply::Result(ShardResult {
        id,
        values,
        checksum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_and_replies_round_trip() {
        let spec = ShardSpec {
            id: 7,
            attempt: 2,
            expect: 3,
            job: serde_json::from_str("{\"figure\":\"fig17\",\"point\":4}").unwrap(),
        };
        let line = serde_json::to_string(&spec).unwrap();
        assert_eq!(serde_json::from_str::<ShardSpec>(&line).unwrap(), spec);

        let reply = result_reply(7, &[Some(0.5), None, Some(-0.0)]);
        let line = serde_json::to_string(&reply).unwrap();
        assert_eq!(serde_json::from_str::<WorkerReply>(&line).unwrap(), reply);
    }

    #[test]
    fn heartbeats_round_trip() {
        let beat = WorkerReply::Heartbeat(CacheTelemetry {
            hits: 41,
            misses: 7,
            evictions: 1,
        });
        let line = serde_json::to_string(&beat).unwrap();
        assert!(line.contains("Heartbeat"), "externally tagged: {line}");
        assert_eq!(serde_json::from_str::<WorkerReply>(&line).unwrap(), beat);
    }

    #[test]
    fn telemetry_deltas_saturate() {
        let now = CacheTelemetry {
            hits: 10,
            misses: 4,
            evictions: 0,
        };
        let base = CacheTelemetry {
            hits: 3,
            misses: 9, // counter reset shape: baseline ahead of now
            evictions: 0,
        };
        let d = now.saturating_sub(base);
        assert_eq!((d.hits, d.misses, d.evictions), (7, 0, 0));
    }

    #[test]
    fn values_survive_the_wire_bit_for_bit() {
        let vals = vec![
            Some(0.1 + 0.2), // not representable prettily
            Some(f64::NAN),
            Some(-0.0),
            Some(f64::MIN_POSITIVE / 2.0), // subnormal
            None,
        ];
        let decoded = decode_values(&encode_values(&vals));
        assert_eq!(decoded.len(), vals.len());
        for (a, b) in vals.iter().zip(&decoded) {
            assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
        }
    }

    #[test]
    fn checksum_detects_tampering() {
        let vals = encode_values(&[Some(1.5), None, Some(2.5)]);
        let good = checksum(3, &vals);
        assert_ne!(good, checksum(4, &vals), "id is covered");
        let mut flipped = vals.clone();
        flipped[0] = flipped[0].map(|b| b ^ 1);
        assert_ne!(good, checksum(3, &flipped), "value bits are covered");
        let mut shifted = vals;
        shifted[1] = Some(0);
        assert_ne!(good, checksum(3, &shifted), "None vs Some(0.0) differ");
    }
}
