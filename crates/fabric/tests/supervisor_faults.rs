//! Supervisor failure-path tests against scripted in-process mock
//! workers: every recovery route — crash, hang, corrupt output,
//! quarantine, spawn failure, fleet collapse, duplicate replies — must
//! end in the same values a faultless run produces.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Duration;

use pbbf_fabric::protocol::{result_reply, ShardError, ShardSpec, WorkerReply};
use pbbf_fabric::{
    CacheTelemetry, ShardInput, SweepOptions, SweepOutcome, SweepScheduler, SweepStats,
    WorkerEvent, WorkerFactory, WorkerLink,
};
use serde::{Deserialize, Serialize};
use serde_json::Value as Json;

/// The mock job: shard `k` must produce `n` values `k*100 + i`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct MockJob {
    k: u64,
    n: u64,
}

fn inputs(shards: u64, runs: u64) -> Vec<ShardInput> {
    (0..shards)
        .map(|k| ShardInput {
            job: serde::to_value(&MockJob { k, n: runs }),
            expect: runs as usize,
        })
        .collect()
}

fn expected_values(k: u64, n: u64) -> Vec<Option<f64>> {
    (0..n).map(|i| Some((k * 100 + i) as f64)).collect()
}

fn exec(job: &Json) -> Result<Vec<Option<f64>>, String> {
    let job: MockJob = serde::from_value(job.clone()).map_err(|e| e.to_string())?;
    Ok(expected_values(job.k, job.n))
}

fn valid_reply(spec: &ShardSpec) -> String {
    let job: MockJob = serde::from_value(spec.job.clone()).expect("mock job");
    serde_json::to_string(&result_reply(spec.id, &expected_values(job.k, job.n)))
        .expect("render reply")
}

fn corrupt_checksum_reply(spec: &ShardSpec) -> String {
    let WorkerReply::Result(mut r) = serde_json::from_str(&valid_reply(spec)).unwrap() else {
        unreachable!("valid_reply builds a Result");
    };
    r.checksum ^= 0xBAD_C0DE;
    serde_json::to_string(&WorkerReply::Result(r)).unwrap()
}

/// What a scripted worker does upon receiving one shard spec.
enum Action {
    /// Emit this raw stdout line.
    Reply(String),
    /// Emit this raw line attributed to *another* worker id — the
    /// late-duplicate shape: a reply from a worker written off earlier
    /// arrives while the shard's retry is in flight elsewhere.
    ReplyAs(u64, String),
    /// Die: emit `Gone` and fail all further sends.
    Die,
    /// Say nothing (the hang shape — the deadline must catch it).
    Silent,
    /// Transport dropped and came back: emit `Reset` (the in-flight
    /// shard is lost on the far side, the worker survives).
    Reset,
}

type Script = dyn Fn(usize, &ShardSpec) -> Vec<Action> + Send + Sync;

struct MockFactory {
    script: Arc<Script>,
    /// Slots whose spawn fails outright.
    fail_slots: Vec<usize>,
    /// Spawn links that claim to be remote (host-liveness applies).
    remote: bool,
    /// Slots exempt from `remote` (mixed-fleet tests). A scripted mock
    /// can't heartbeat while idle the way a real TCP worker does, so
    /// liveness tests mark only the misbehaving slot remote.
    local_slots: Vec<usize>,
}

impl MockFactory {
    fn new(script: impl Fn(usize, &ShardSpec) -> Vec<Action> + Send + Sync + 'static) -> Self {
        Self {
            script: Arc::new(script),
            fail_slots: Vec::new(),
            remote: false,
            local_slots: Vec::new(),
        }
    }

    fn remote(script: impl Fn(usize, &ShardSpec) -> Vec<Action> + Send + Sync + 'static) -> Self {
        Self {
            remote: true,
            ..Self::new(script)
        }
    }
}

struct MockLink {
    slot: usize,
    worker: u64,
    events: Sender<WorkerEvent>,
    script: Arc<Script>,
    dead: bool,
    remote: bool,
}

impl WorkerLink for MockLink {
    fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        if self.dead {
            return Err(std::io::Error::other("mock worker is dead"));
        }
        let spec: ShardSpec = serde_json::from_str(line)
            .map_err(|e| std::io::Error::other(format!("bad spec: {e}")))?;
        for action in (self.script)(self.slot, &spec) {
            match action {
                Action::Reply(reply) => {
                    let _ = self.events.send(WorkerEvent::Line {
                        worker: self.worker,
                        line: reply,
                    });
                }
                Action::ReplyAs(worker, reply) => {
                    let _ = self.events.send(WorkerEvent::Line {
                        worker,
                        line: reply,
                    });
                }
                Action::Die => {
                    self.dead = true;
                    let _ = self.events.send(WorkerEvent::Gone {
                        worker: self.worker,
                    });
                }
                Action::Silent => {}
                Action::Reset => {
                    let _ = self.events.send(WorkerEvent::Reset {
                        worker: self.worker,
                    });
                }
            }
        }
        Ok(())
    }

    fn kill(&mut self) {
        if !self.dead {
            self.dead = true;
            let _ = self.events.send(WorkerEvent::Gone {
                worker: self.worker,
            });
        }
    }

    fn remote(&self) -> bool {
        self.remote
    }
}

impl WorkerFactory for MockFactory {
    fn spawn(
        &self,
        slot: usize,
        worker: u64,
        events: Sender<WorkerEvent>,
    ) -> std::io::Result<Box<dyn WorkerLink>> {
        if self.fail_slots.contains(&slot) {
            return Err(std::io::Error::other("mock spawn failure"));
        }
        Ok(Box::new(MockLink {
            slot,
            worker,
            events,
            script: Arc::clone(&self.script),
            dead: false,
            remote: self.remote && !self.local_slots.contains(&slot),
        }))
    }
}

/// Fast-retry options so failure tests finish in milliseconds.
fn opts(workers: usize) -> SweepOptions {
    SweepOptions {
        workers,
        shard_timeout: Duration::from_secs(5),
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(10),
        ..SweepOptions::default()
    }
}

/// One sweep on a fleet of its own, torn down when the scheduler drops.
fn run_sweep(
    inputs: Vec<ShardInput>,
    opts: &SweepOptions,
    factory: &dyn WorkerFactory,
    exec: fn(&Json) -> Result<Vec<Option<f64>>, String>,
) -> Result<SweepOutcome, String> {
    SweepScheduler::new(opts.clone(), factory).run_sweep(inputs, exec)
}

fn assert_all_values(values: &[Vec<Option<f64>>], shards: u64, runs: u64) {
    assert_eq!(values.len(), shards as usize);
    for (k, vals) in values.iter().enumerate() {
        assert_eq!(vals, &expected_values(k as u64, runs), "shard {k}");
    }
}

#[test]
fn healthy_fleet_completes() {
    let factory = MockFactory::new(|_, spec| vec![Action::Reply(valid_reply(spec))]);
    let out = run_sweep(inputs(8, 3), &opts(3), &factory, exec).unwrap();
    assert_all_values(&out.values, 8, 3);
    assert_eq!(out.stats.workers_spawned, 3);
    assert_eq!(out.stats.retries, 0);
    assert_eq!(out.stats.inproc_shards, 0);
}

#[test]
fn crashed_shard_retries_on_a_healthy_worker() {
    // Whoever gets shard 2 first dies mid-shard; the retry succeeds.
    let factory = MockFactory::new(|_, spec| {
        if spec.id == 2 && spec.attempt == 0 {
            vec![Action::Die]
        } else {
            vec![Action::Reply(valid_reply(spec))]
        }
    });
    let out = run_sweep(inputs(6, 2), &opts(3), &factory, exec).unwrap();
    assert_all_values(&out.values, 6, 2);
    assert_eq!(out.stats.crashes, 1);
    assert!(out.stats.retries >= 1);
    assert_eq!(out.stats.inproc_shards, 0, "a worker retry sufficed");
}

#[test]
fn hung_shard_times_out_quarantines_and_retries() {
    let factory = MockFactory::new(|_, spec| {
        if spec.id == 1 && spec.attempt == 0 {
            vec![Action::Silent]
        } else {
            vec![Action::Reply(valid_reply(spec))]
        }
    });
    let mut o = opts(3);
    o.shard_timeout = Duration::from_millis(50);
    let out = run_sweep(inputs(5, 2), &o, &factory, exec).unwrap();
    assert_all_values(&out.values, 5, 2);
    assert_eq!(out.stats.timeouts, 1);
    assert_eq!(out.stats.quarantined, 1, "a wedged worker is not reused");
}

#[test]
fn corrupt_reply_is_rejected_and_retried() {
    let factory = MockFactory::new(|_, spec| {
        if spec.id == 0 && spec.attempt == 0 {
            vec![Action::Reply(corrupt_checksum_reply(spec))]
        } else {
            vec![Action::Reply(valid_reply(spec))]
        }
    });
    let out = run_sweep(inputs(4, 2), &opts(2), &factory, exec).unwrap();
    assert_all_values(&out.values, 4, 2);
    assert_eq!(out.stats.corrupt, 1);
    assert_eq!(out.stats.quarantined, 0, "one strike is forgiven");
}

#[test]
fn wrong_length_reply_is_corrupt() {
    let factory = MockFactory::new(|_, spec| {
        if spec.id == 3 && spec.attempt == 0 {
            // Truncated values under a *recomputed* checksum: length
            // validation, not the checksum, must catch this one.
            let truncated = result_reply(spec.id, &[Some(1.0)]);
            vec![Action::Reply(serde_json::to_string(&truncated).unwrap())]
        } else {
            vec![Action::Reply(valid_reply(spec))]
        }
    });
    let out = run_sweep(inputs(5, 3), &opts(2), &factory, exec).unwrap();
    assert_all_values(&out.values, 5, 3);
    assert_eq!(out.stats.corrupt, 1);
}

#[test]
fn persistently_corrupt_worker_is_quarantined() {
    // Slot 0 corrupts everything it touches; slot 1 is honest. The
    // fabric must bench slot 0 after max_worker_strikes and still
    // finish every shard correctly.
    let factory = MockFactory::new(|slot, spec| {
        if slot == 0 {
            vec![Action::Reply(corrupt_checksum_reply(spec))]
        } else {
            vec![Action::Reply(valid_reply(spec))]
        }
    });
    let out = run_sweep(inputs(8, 2), &opts(2), &factory, exec).unwrap();
    assert_all_values(&out.values, 8, 2);
    assert_eq!(out.stats.quarantined, 1);
    assert!(out.stats.corrupt >= 2, "strikes accumulated to the limit");
}

#[test]
fn spawn_failure_degrades_to_in_process() {
    let mut factory = MockFactory::new(|_, spec| vec![Action::Reply(valid_reply(spec))]);
    factory.fail_slots = (0..3).collect();
    let out = run_sweep(inputs(6, 2), &opts(3), &factory, exec).unwrap();
    assert_all_values(&out.values, 6, 2);
    assert_eq!(out.stats.workers_spawned, 0);
    assert_eq!(out.stats.spawn_failures, 3);
    assert_eq!(out.stats.inproc_shards, 6, "every shard ran in-process");
}

#[test]
fn fleet_collapse_drains_in_process() {
    // The only worker dies on its first shard; everything else must
    // complete through the in-process drain.
    let factory = MockFactory::new(|_, _| vec![Action::Die]);
    let out = run_sweep(inputs(5, 2), &opts(1), &factory, exec).unwrap();
    assert_all_values(&out.values, 5, 2);
    assert_eq!(out.stats.crashes, 1);
    assert_eq!(out.stats.inproc_shards, 5);
}

#[test]
fn duplicate_replies_fold_once() {
    // A worker that answers every shard twice (the late-retry shape).
    let factory = MockFactory::new(|_, spec| {
        vec![
            Action::Reply(valid_reply(spec)),
            Action::Reply(valid_reply(spec)),
        ]
    });
    let out = run_sweep(inputs(7, 2), &opts(2), &factory, exec).unwrap();
    assert_all_values(&out.values, 7, 2);
    assert_eq!(out.stats.corrupt, 0, "duplicates are not corruption");
}

#[test]
fn refused_shards_fall_back_to_in_process() {
    // Every worker refuses shard 2 (as if its job were malformed from
    // where they stand); the in-process executor settles it.
    let factory = MockFactory::new(|_, spec| {
        if spec.id == 2 {
            let refusal = WorkerReply::Error(ShardError {
                id: spec.id,
                error: "not on my watch".into(),
            });
            vec![Action::Reply(serde_json::to_string(&refusal).unwrap())]
        } else {
            vec![Action::Reply(valid_reply(spec))]
        }
    });
    let out = run_sweep(inputs(5, 2), &opts(2), &factory, exec).unwrap();
    assert_all_values(&out.values, 5, 2);
    assert_eq!(out.stats.refused, 4, "one refusal per worker attempt");
    assert_eq!(out.stats.inproc_shards, 1);
}

#[test]
fn garbage_line_is_a_strike_not_a_crash() {
    let factory = MockFactory::new(|_, spec| {
        if spec.id == 1 && spec.attempt == 0 {
            vec![Action::Reply("{not json at all".into())]
        } else {
            vec![Action::Reply(valid_reply(spec))]
        }
    });
    let out = run_sweep(inputs(4, 2), &opts(2), &factory, exec).unwrap();
    assert_all_values(&out.values, 4, 2);
    assert_eq!(out.stats.corrupt, 1);
}

#[test]
fn empty_manifest_is_a_noop() {
    let factory = MockFactory::new(|_, spec| vec![Action::Reply(valid_reply(spec))]);
    let out = run_sweep(Vec::new(), &opts(2), &factory, exec).unwrap();
    assert!(out.values.is_empty());
    let spawned_only = SweepStats {
        workers_spawned: 2,
        ..SweepStats::default()
    };
    assert_eq!(out.stats, spawned_only, "nothing ran, nothing failed");
}

fn heartbeat_line(t: CacheTelemetry) -> String {
    serde_json::to_string(&WorkerReply::Heartbeat(t)).unwrap()
}

#[test]
fn silent_remote_host_trips_liveness_not_the_shard_deadline() {
    // Slot 0 goes completely dark on its first shard — the vanished-host
    // shape. The shard deadline is far away; host liveness must be what
    // reclaims the shard, and the honest worker finishes the sweep.
    let mut factory = MockFactory::remote(|slot, spec| {
        if slot == 0 {
            vec![Action::Silent]
        } else {
            vec![Action::Reply(valid_reply(spec))]
        }
    });
    // Only the dark host is remote: an idle scripted mock can't
    // heartbeat, so an all-remote fleet would trip liveness at rest.
    factory.local_slots = vec![1];
    let mut o = opts(2);
    o.liveness_timeout = Duration::from_millis(50);
    let out = run_sweep(inputs(5, 2), &o, &factory, exec).unwrap();
    assert_all_values(&out.values, 5, 2);
    assert_eq!(out.stats.hosts_lost, 1);
    assert_eq!(out.stats.quarantined, 1);
    assert_eq!(out.stats.timeouts, 0, "liveness fired, not the deadline");
}

#[test]
fn local_workers_are_exempt_from_liveness() {
    // The same silence from a *local* (pipe) worker must NOT trip the
    // host-liveness detector — pipes report death via Gone; only the
    // per-shard deadline may reclaim this shard.
    let factory = MockFactory::new(|slot, spec| {
        if slot == 0 && spec.attempt == 0 {
            vec![Action::Silent]
        } else {
            vec![Action::Reply(valid_reply(spec))]
        }
    });
    let mut o = opts(2);
    o.liveness_timeout = Duration::from_millis(20);
    o.shard_timeout = Duration::from_millis(120);
    let out = run_sweep(inputs(4, 2), &o, &factory, exec).unwrap();
    assert_all_values(&out.values, 4, 2);
    assert_eq!(out.stats.hosts_lost, 0);
    assert_eq!(out.stats.timeouts, 1, "the deadline caught it instead");
}

#[test]
fn transport_reset_requeues_without_losing_the_worker() {
    // The yanked-cable-plugged-back-in path: the link reconnects mid-
    // shard. The in-flight shard must requeue, the worker must stay in
    // the fleet (it later completes the retry), and nothing counts as a
    // crash or lost host.
    let factory = MockFactory::remote(|_, spec| {
        if spec.id == 2 && spec.attempt == 0 {
            vec![Action::Reset]
        } else {
            vec![Action::Reply(valid_reply(spec))]
        }
    });
    let out = run_sweep(inputs(6, 2), &opts(2), &factory, exec).unwrap();
    assert_all_values(&out.values, 6, 2);
    assert_eq!(out.stats.reconnects, 1);
    assert_eq!(out.stats.crashes, 0);
    assert_eq!(out.stats.hosts_lost, 0);
    assert_eq!(out.stats.quarantined, 0);
    assert!(out.stats.retries >= 1, "the lost shard was requeued");
}

#[test]
fn heartbeat_telemetry_aggregates_across_the_fleet() {
    // Each worker heartbeats its cache counters after every reply; the
    // supervisor must keep the *latest* per worker and sum the fleet.
    let factory = MockFactory::remote(|slot, spec| {
        let t = if slot == 0 {
            CacheTelemetry {
                hits: 5,
                misses: 2,
                evictions: 1,
            }
        } else {
            CacheTelemetry {
                hits: 7,
                misses: 3,
                evictions: 0,
            }
        };
        vec![
            Action::Reply(valid_reply(spec)),
            Action::Reply(heartbeat_line(t)),
        ]
    });
    let out = run_sweep(inputs(6, 2), &opts(2), &factory, exec).unwrap();
    assert_all_values(&out.values, 6, 2);
    assert_eq!(out.stats.cache_hits, 12);
    assert_eq!(out.stats.cache_misses, 5);
    assert_eq!(out.stats.cache_evictions, 1);
}

#[test]
fn reconnect_accumulates_both_sessions_telemetry() {
    // Heartbeats carry per-session totals; a transport reset starts a
    // new session whose counters restart from zero. The sweep total
    // must be the SUM of sessions, not the last session's counters —
    // losing the first session's {5,2,1} was the historical bug.
    let factory = MockFactory::new(|_, spec| match (spec.id, spec.attempt) {
        (0, 0) => vec![
            Action::Reply(heartbeat_line(CacheTelemetry {
                hits: 5,
                misses: 2,
                evictions: 1,
            })),
            Action::Reset,
        ],
        (0, _) => vec![
            Action::Reply(heartbeat_line(CacheTelemetry {
                hits: 3,
                misses: 1,
                evictions: 1,
            })),
            Action::Reply(valid_reply(spec)),
        ],
        _ => vec![Action::Reply(valid_reply(spec))],
    });
    let out = run_sweep(inputs(2, 2), &opts(1), &factory, exec).unwrap();
    assert_all_values(&out.values, 2, 2);
    assert_eq!(out.stats.reconnects, 1);
    assert_eq!(out.stats.crashes, 0);
    assert_eq!(out.stats.cache_hits, 8, "5 before + 3 after the reset");
    assert_eq!(out.stats.cache_misses, 3);
    assert_eq!(out.stats.cache_evictions, 2);
}

#[test]
fn corrupt_duplicate_naming_another_shard_does_not_yank_the_current_one() {
    // Worker 1, while holding shard 1, emits a corrupt line naming the
    // already-settled shard 0, then its own (valid) shard 1 reply. The
    // corruption must strike the sender but say nothing about shard 1:
    // requeueing the in-flight shard on a cross-shard strike was the
    // historical bug (it showed up as a phantom retry).
    let factory = MockFactory::new(|slot, spec| {
        if slot == 1 && spec.id == 1 && spec.attempt == 0 {
            let settled = ShardSpec {
                id: 0,
                attempt: 0,
                expect: 2,
                job: serde::to_value(&MockJob { k: 0, n: 2 }),
            };
            vec![
                Action::Reply(corrupt_checksum_reply(&settled)),
                Action::Reply(valid_reply(spec)),
            ]
        } else {
            vec![Action::Reply(valid_reply(spec))]
        }
    });
    let out = run_sweep(inputs(4, 2), &opts(2), &factory, exec).unwrap();
    assert_all_values(&out.values, 4, 2);
    assert_eq!(out.stats.corrupt, 1);
    assert_eq!(out.stats.retries, 0, "the in-flight shard was not requeued");
    assert_eq!(out.stats.quarantined, 0);
    assert_eq!(out.stats.timeouts, 0);
}

#[test]
fn late_duplicate_frees_only_the_replying_worker() {
    // The full late-duplicate shape. Shard 0 wedges on worker 1 (slot
    // 0), times out, and its retry lands on slot 1 — which stays
    // silent while the *original* worker's late copy arrives. That
    // copy settles the shard but must NOT free slot 1: it is still
    // grinding. Fresh work (shard 2's final retry) must therefore go
    // to slot 2; dealing it to slot 1 — the historical behavior — let
    // its deadline tick against stolen time and ended in a spurious
    // timeout + quarantine of a healthy worker.
    const ST: Duration = Duration::from_millis(500);
    let factory = MockFactory::new(|slot, spec| match (slot, spec.id, spec.attempt) {
        (0, 0, 0) => vec![Action::Silent], // the wedge
        (_, 0, 1) => vec![Action::ReplyAs(1, valid_reply(spec))], // late copy, retry-holder silent
        (2, 2, 0) => vec![Action::Reply(corrupt_checksum_reply(spec))],
        (1, 2, 1) => vec![Action::Reply(corrupt_checksum_reply(spec))],
        (1, 2, _) => vec![Action::Silent], // slot 1 is busy with stale shard 0
        _ => vec![Action::Reply(valid_reply(spec))],
    });
    let mut o = opts(3);
    o.shard_timeout = ST;
    o.backoff_base = Duration::from_millis(375);
    o.backoff_cap = Duration::from_millis(1000);
    let out = run_sweep(inputs(4, 2), &o, &factory, exec).unwrap();
    assert_all_values(&out.values, 4, 2);
    assert_eq!(out.stats.timeouts, 1, "only the original wedge timed out");
    assert_eq!(
        out.stats.quarantined, 1,
        "no spurious quarantine of the duplicate-holder"
    );
    assert_eq!(out.stats.corrupt, 2);
    assert_eq!(out.stats.retries, 3);
    assert_eq!(out.stats.crashes, 0);
    assert_eq!(out.stats.inproc_shards, 0);
}

#[test]
fn inproc_escalation_is_not_counted_as_a_retry() {
    // With max_shard_attempts = 4 a hopeless shard is delivered 4
    // times and then escalates in-process: that is 3 redeliveries.
    // Counting the escalation itself as a 4th retry was the bug.
    let factory = MockFactory::new(|_, spec| {
        let refusal = WorkerReply::Error(ShardError {
            id: spec.id,
            error: "not on my watch".into(),
        });
        vec![Action::Reply(serde_json::to_string(&refusal).unwrap())]
    });
    let out = run_sweep(inputs(1, 2), &opts(1), &factory, exec).unwrap();
    assert_all_values(&out.values, 1, 2);
    assert_eq!(out.stats.refused, 4, "one refusal per delivery");
    assert_eq!(
        out.stats.retries, 3,
        "the in-process escalation is not a retry"
    );
    assert_eq!(out.stats.inproc_shards, 1);
}

/// [`MockFactory`] plus a spawn counter, to pin fleet residency.
struct CountingFactory {
    inner: MockFactory,
    spawns: AtomicUsize,
}

impl WorkerFactory for CountingFactory {
    fn spawn(
        &self,
        slot: usize,
        worker: u64,
        events: Sender<WorkerEvent>,
    ) -> std::io::Result<Box<dyn WorkerLink>> {
        self.spawns.fetch_add(1, Ordering::SeqCst);
        self.inner.spawn(slot, worker, events)
    }
}

#[test]
fn queued_sweeps_multiplex_onto_one_fleet() {
    // Three manifests (one empty) through one scheduler: every shard
    // streams to the sink under its own sweep's index, each sweep gets
    // its own stats, and the fleet is spawned exactly once.
    let factory = CountingFactory {
        inner: MockFactory::new(|_, spec| vec![Action::Reply(valid_reply(spec))]),
        spawns: AtomicUsize::new(0),
    };
    let mut sched = SweepScheduler::new(opts(2), &factory);
    let queue = vec![inputs(3, 2), Vec::new(), inputs(2, 2)];
    let mut got: Vec<Vec<Option<Vec<Option<f64>>>>> =
        vec![vec![None; 3], Vec::new(), vec![None; 2]];
    let stats = sched
        .run_queue(queue, exec, |sweep, shard, values| {
            assert!(got[sweep][shard].is_none(), "each shard settles once");
            got[sweep][shard] = Some(values);
        })
        .unwrap();
    assert_eq!(stats.len(), 3);
    for (sweep, slots) in got.into_iter().enumerate() {
        let values: Vec<_> = slots.into_iter().map(Option::unwrap).collect();
        assert_all_values(&values, values.len() as u64, 2);
        assert_eq!(stats[sweep].workers_spawned, 2);
        assert_eq!(stats[sweep].inproc_shards, 0);
    }
    assert_eq!(factory.spawns.load(Ordering::SeqCst), 2);
}

#[test]
fn resident_fleet_survives_across_sweeps_with_disjoint_telemetry() {
    // Two sweeps, one scheduler: no respawn in between, and because
    // the workers' session counters don't grow between sweeps, sweep 2
    // must report a zero telemetry delta — consecutive sweeps see
    // non-overlapping windows of the same monotone fleet total.
    let beat = CacheTelemetry {
        hits: 5,
        misses: 2,
        evictions: 1,
    };
    let factory = CountingFactory {
        inner: MockFactory::new(move |_, spec| {
            vec![
                Action::Reply(valid_reply(spec)),
                Action::Reply(heartbeat_line(beat)),
            ]
        }),
        spawns: AtomicUsize::new(0),
    };
    let mut sched = SweepScheduler::new(opts(2), &factory);
    let out1 = sched.run_sweep(inputs(4, 2), exec).unwrap();
    assert_all_values(&out1.values, 4, 2);
    let out2 = sched.run_sweep(inputs(3, 2), exec).unwrap();
    assert_all_values(&out2.values, 3, 2);
    assert_eq!(factory.spawns.load(Ordering::SeqCst), 2, "no respawn");
    assert_eq!(out2.stats.workers_spawned, 2);
    assert_eq!(out1.stats.cache_hits, 10, "both workers' session totals");
    assert_eq!(
        out2.stats.cache_hits, 0,
        "no new hits since sweep 1 settled"
    );
}

#[test]
fn stale_reply_from_a_previous_sweep_is_ignored() {
    // Sweep 2's first delivery (global wire id 4) is preceded by a
    // leftover duplicate of sweep 1's shard 0. Global wire ids make it
    // stale by construction: it must be dropped without a strike and
    // without colliding with sweep 2's own shard 0.
    let factory = MockFactory::new(|_, spec| {
        if spec.id == 4 {
            let old = ShardSpec {
                id: 0,
                attempt: 0,
                expect: 2,
                job: serde::to_value(&MockJob { k: 0, n: 2 }),
            };
            vec![
                Action::Reply(valid_reply(&old)),
                Action::Reply(valid_reply(spec)),
            ]
        } else {
            vec![Action::Reply(valid_reply(spec))]
        }
    });
    let mut sched = SweepScheduler::new(opts(2), &factory);
    let out1 = sched.run_sweep(inputs(4, 2), exec).unwrap();
    assert_all_values(&out1.values, 4, 2);
    let out2 = sched.run_sweep(inputs(3, 2), exec).unwrap();
    assert_all_values(&out2.values, 3, 2);
    assert_eq!(out2.stats.corrupt, 0, "a stale reply is not corruption");
    assert_eq!(out2.stats.retries, 0);
    assert_eq!(out2.stats.quarantined, 0);
}
