//! The sweep scheduler: one fleet per queue.
//!
//! [`run_queue`] spawns a worker fleet, runs one flat queue of shards
//! on it, and kills what is left of the fleet before it returns. Shards
//! drain into workers as they go idle, so several tables multiplex onto
//! one fleet and remote workers keep their deployment caches warm from
//! table to table. Each shard settles exactly once, in whatever order
//! replies arrive; a late duplicate of a settled shard is dropped here.
//! The values come back in queue order ([`QueueRun`]), so re-merging by
//! position is all the caller does (`assemble_sweep` upstairs), which
//! is what keeps scheduling invisible in the output bytes.
//!
//! The failure policy: a shard that crashes its worker, overruns its
//! wall-clock deadline, or comes back corrupt is retried on a healthy
//! worker after bounded exponential backoff; a worker that repeatedly
//! produces corrupt output — or hangs — is quarantined (killed, never
//! respawned); a shard that exhausts its delivery attempts runs
//! in-process, as does the whole remaining queue when no healthy
//! workers are left. Workers, their strike counts, and their telemetry
//! span the whole queue:
//!
//! * **Wire ids are queue positions.** Shard `i` of the queue goes out
//!   as wire id `i`; a reply naming an id past the queue is corrupt.
//! * **Telemetry accumulates across transport sessions.** Workers
//!   heartbeat cache counters as deltas from a per-connection baseline
//!   (see `docs/PROTOCOL.md`), so the scheduler rolls the last-seen
//!   session total into an accumulator on every [`WorkerEvent::Reset`]
//!   or [`WorkerEvent::Gone`] and reports `accumulated + current` —
//!   a reconnect loses no hits/misses.
//! * **One ledger per queue.** Every event is charged to the queue's
//!   one [`SweepStats`]; the fleet's cache telemetry is read into it
//!   once, when the last shard settles.
//!
//! A late duplicate reply (the shard was retried elsewhere and both
//! copies eventually arrive) frees only the worker that *sent* it; a
//! worker still computing a duplicate stays busy until its own copy
//! lands, bounded by a stale-work deadline so a wedged duplicate-holder
//! is still caught; fresh work dealt to it early would have its
//! deadline tick against stolen time.

use std::sync::mpsc::{RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use serde_json::Value as Json;

use crate::protocol::{checksum, decode_values, CacheTelemetry, ShardSpec, WorkerReply};
use crate::supervisor::{
    backoff, ShardInput, SweepOptions, SweepStats, WorkerEvent, WorkerFactory, WorkerLink,
};

/// The scheduler's book-keeping for one worker. Lives as long as the
/// queue: strikes and telemetry are properties of the worker, not of
/// any one shard.
struct Worker {
    id: u64,
    link: Box<dyn WorkerLink>,
    strikes: u32,
    /// Queue position of the shard in flight on this worker, if any.
    current: Option<usize>,
    healthy: bool,
    /// Cached [`WorkerLink::remote`]: subject to host liveness.
    remote: bool,
    /// When this worker last produced any output line.
    last_heard: Instant,
    /// Telemetry totals from transport sessions that have ended
    /// (rolled over on `Reset`/`Gone`).
    telemetry_acc: CacheTelemetry,
    /// Latest heartbeat of the current transport session.
    telemetry_cur: CacheTelemetry,
    /// Set while the worker is busy with a shard that is already
    /// settled (a late duplicate in flight). If it neither delivers nor
    /// resets by then, it is wedged and gets quarantined.
    stale_deadline: Option<Instant>,
}

/// A completed queue: every shard's values, and what it took.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueRun {
    /// `values[i]` is shard `i`'s values, whichever worker (or the
    /// in-process fallback) settled it.
    pub values: Vec<Vec<Option<f64>>>,
    /// The queue's counters, the fleet's cache telemetry included.
    pub stats: SweepStats,
}

/// Spawns a fleet of `opts.workers` workers (minimum one) through
/// `factory`, runs `queue` to completion on it, and kills what is left
/// of the fleet before returning, on success and on error alike.
///
/// Spawn failures are not fatal: the scheduler degrades to whatever
/// fleet it got, down to none (every shard then runs in-process). They
/// are reported in [`SweepStats::spawn_failures`].
///
/// Shards are dealt in queue order but resolve in completion order;
/// each settles exactly once, and the values come back in queue order.
///
/// `exec` is the in-process fallback executor — the same computation
/// the workers perform, minus the process boundary.
///
/// # Errors
///
/// Fails only when a shard cannot be computed at all — i.e. the
/// in-process fallback itself reports an error. Worker-side failures
/// never surface here; they are retried away.
pub fn run_queue<E>(
    opts: &SweepOptions,
    factory: &dyn WorkerFactory,
    queue: Vec<ShardInput>,
    exec: E,
) -> Result<QueueRun, String>
where
    E: Fn(&Json) -> Result<Vec<Option<f64>>, String> + Sync,
{
    // `tx` outlives the loop, so the event channel never disconnects,
    // even after the last worker dies.
    let (tx, rx) = std::sync::mpsc::channel();
    let (workers, spawn_failures) = spawn_fleet(opts, factory, &tx);
    let stats = SweepStats {
        workers_spawned: workers.len(),
        spawn_failures,
        ..SweepStats::default()
    };
    let now = Instant::now();
    let shards = queue
        .into_iter()
        .map(|s| Shard {
            job: s.job,
            expect: s.expect,
            attempt: 0,
            status: ShardStatus::Pending { eligible_at: now },
        })
        .collect();
    let mut eng = Engine {
        opts,
        workers,
        shards,
        done: 0,
        stats,
        exec: &exec,
    };
    while !eng.complete() {
        let now = Instant::now();
        eng.assign(now)?;
        if eng.complete() {
            break;
        }
        if !eng.workers.iter().any(|w| w.healthy) {
            eng.drain_in_process()?;
            break;
        }
        match rx.recv_timeout(eng.next_wait(Instant::now())) {
            Ok(ev) => eng.handle(ev)?,
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                unreachable!("run_queue holds an event sender")
            }
        }
        eng.expire_deadlines(Instant::now())?;
        eng.expire_liveness(Instant::now())?;
        eng.expire_stale(Instant::now())?;
    }
    let telemetry = eng.fleet_telemetry();
    let mut stats = eng.stats;
    stats.cache_hits = telemetry.hits;
    stats.cache_misses = telemetry.misses;
    stats.cache_evictions = telemetry.evictions;
    let values = std::mem::take(&mut eng.shards)
        .into_iter()
        .map(|s| match s.status {
            ShardStatus::Done(values) => values,
            _ => unreachable!("a complete queue has settled every shard"),
        })
        .collect();
    Ok(QueueRun { values, stats })
}

/// Spawns one worker per slot; returns the fleet it got and how many
/// spawns failed.
fn spawn_fleet(
    opts: &SweepOptions,
    factory: &dyn WorkerFactory,
    tx: &Sender<WorkerEvent>,
) -> (Vec<Worker>, usize) {
    let mut workers = Vec::new();
    let mut spawn_failures = 0;
    for slot in 0..opts.workers.max(1) {
        let id = slot as u64 + 1; // workers never respawn, so slots are ids
        match factory.spawn(slot, id, tx.clone()) {
            Ok(link) => {
                let remote = link.remote();
                workers.push(Worker {
                    id,
                    link,
                    strikes: 0,
                    current: None,
                    healthy: true,
                    remote,
                    last_heard: Instant::now(),
                    telemetry_acc: CacheTelemetry::default(),
                    telemetry_cur: CacheTelemetry::default(),
                    stale_deadline: None,
                });
            }
            Err(e) => {
                spawn_failures += 1;
                eprintln!("pbbf sweep: worker {id} failed to spawn: {e}");
            }
        }
    }
    (workers, spawn_failures)
}

/// Where a shard is; a settled shard holds its first valid copy's
/// values.
enum ShardStatus {
    Pending { eligible_at: Instant },
    Running { worker: u64, deadline: Instant },
    Done(Vec<Option<f64>>),
}

struct Shard {
    job: Json,
    expect: usize,
    attempt: u32,
    status: ShardStatus,
}

/// Why a worker is being struck, and therefore what may be requeued.
enum StrikeScope {
    /// The output stream itself is suspect (unparseable/torn line);
    /// whatever the worker was computing is presumed lost.
    Torn,
    /// A structurally corrupt reply naming this queued shard.
    Shard(usize),
    /// A corrupt reply naming a shard that was never dealt.
    Foreign,
}

/// One queue's run state, fleet included: dropping it kills whatever
/// is left of the fleet.
struct Engine<'a, E> {
    opts: &'a SweepOptions,
    workers: Vec<Worker>,
    /// The queue: shard `f` goes out as wire id `f`.
    shards: Vec<Shard>,
    /// Settled-shard count.
    done: usize,
    stats: SweepStats,
    exec: &'a E,
}

impl<E> Drop for Engine<'_, E> {
    fn drop(&mut self) {
        for w in &mut self.workers {
            w.link.kill(); // EOF first where the link supports it
        }
    }
}

impl<E> Engine<'_, E>
where
    E: Fn(&Json) -> Result<Vec<Option<f64>>, String> + Sync,
{
    fn complete(&self) -> bool {
        self.done == self.shards.len()
    }

    /// The queue position wire id `wire` names, or `None` for an id
    /// past the queue: fabricated, i.e. corrupt.
    fn resolve(&self, wire: u32) -> Option<usize> {
        Some(wire as usize).filter(|&f| f < self.shards.len())
    }

    fn handle(&mut self, ev: WorkerEvent) -> Result<(), String> {
        match ev {
            WorkerEvent::Line { worker, line } => self.on_line(worker, &line),
            WorkerEvent::Gone { worker } => self.on_gone(worker),
            WorkerEvent::Reset { worker } => self.on_reset(worker),
        }
    }

    /// Hands every eligible pending shard (in queue order) to an idle
    /// healthy worker.
    fn assign(&mut self, now: Instant) -> Result<(), String> {
        loop {
            let Some(f) = self.shards.iter().position(
                |s| matches!(s.status, ShardStatus::Pending { eligible_at } if eligible_at <= now),
            ) else {
                return Ok(());
            };
            let Some(widx) = self
                .workers
                .iter()
                .position(|w| w.healthy && w.current.is_none())
            else {
                return Ok(());
            };
            let shard = &mut self.shards[f];
            let spec = ShardSpec {
                id: f as u32,
                attempt: shard.attempt,
                expect: shard.expect as u32,
                job: shard.job.clone(),
            };
            let line = serde_json::to_string(&spec).map_err(|e| e.to_string())?;
            shard.status = ShardStatus::Running {
                worker: self.workers[widx].id,
                deadline: now + self.opts.shard_timeout,
            };
            self.workers[widx].current = Some(f);
            if let Err(e) = self.workers[widx].link.send_line(&line) {
                eprintln!(
                    "pbbf sweep: worker {} unreachable ({e}); writing it off",
                    self.workers[widx].id
                );
                self.stats.crashes += 1;
                self.write_off(widx)?;
            }
        }
    }

    /// Marks a worker dead and recycles whatever it was running.
    fn write_off(&mut self, widx: usize) -> Result<(), String> {
        self.workers[widx].healthy = false;
        self.workers[widx].link.kill();
        self.take_running(widx)
            .map_or(Ok(()), |f| self.fail_shard(f))
    }

    /// Takes the worker's in-flight shard off it, returning its queue
    /// position when that shard is still running (and so needs
    /// requeueing).
    fn take_running(&mut self, widx: usize) -> Option<usize> {
        self.workers[widx].stale_deadline = None;
        let f = self.workers[widx].current.take()?;
        matches!(self.shards[f].status, ShardStatus::Running { .. }).then_some(f)
    }

    /// A corrupt reply: strike the sender, quarantine on repeat.
    fn strike(&mut self, widx: usize, scope: StrikeScope) -> Result<(), String> {
        self.stats.corrupt += 1;
        self.workers[widx].strikes += 1;
        if self.workers[widx].strikes >= self.opts.max_worker_strikes {
            eprintln!(
                "pbbf sweep: quarantining worker {} after {} corrupt replies",
                self.workers[widx].id, self.workers[widx].strikes
            );
            self.stats.quarantined += 1;
            return self.write_off(widx);
        }
        // Requeue the striker's in-flight shard only when the stream
        // itself is torn or the corrupt reply named that very shard. A
        // corrupt duplicate naming a *different* (typically already
        // settled) shard says nothing about the in-flight one — yanking
        // it into the retry ladder was a bug.
        let requeue = match scope {
            StrikeScope::Torn => true,
            StrikeScope::Shard(f) => self.workers[widx].current == Some(f),
            StrikeScope::Foreign => false,
        };
        if !requeue {
            return Ok(());
        }
        self.take_running(widx)
            .map_or(Ok(()), |f| self.fail_shard(f))
    }

    /// Reschedules a failed shard with backoff, or — attempts spent —
    /// computes it right here.
    fn fail_shard(&mut self, f: usize) -> Result<(), String> {
        self.shards[f].attempt += 1;
        if self.shards[f].attempt >= self.opts.max_shard_attempts {
            eprintln!("pbbf sweep: shard {f} exhausted worker attempts; running in-process");
            return self.run_in_process(f);
        }
        // Counted here, not above: the in-process escalation is not a
        // worker delivery, so it is not a retry.
        self.stats.retries += 1;
        let shard = &mut self.shards[f];
        let delay = backoff(
            self.opts.backoff_base,
            self.opts.backoff_cap,
            shard.attempt - 1,
        );
        shard.status = ShardStatus::Pending {
            eligible_at: Instant::now() + delay,
        };
        Ok(())
    }

    fn run_in_process(&mut self, f: usize) -> Result<(), String> {
        let values = (self.exec)(&self.shards[f].job)
            .map_err(|e| format!("shard {f} failed in-process: {e}"))?;
        self.stats.inproc_shards += 1;
        self.accept(f, values, None, Instant::now());
        Ok(())
    }

    fn release_if_current(&mut self, widx: usize, f: usize) {
        if self.workers[widx].current == Some(f) {
            self.workers[widx].current = None;
            self.workers[widx].stale_deadline = None;
        }
    }

    /// Settles shard `f` with `values` and releases the worker that
    /// delivered them (`from`), if any.
    ///
    /// Only the *sender* is released. Another worker still holding
    /// this shard is mid-computation on a duplicate; it stays busy
    /// until its own copy arrives (or its stale deadline fires), so
    /// fresh work never lands on a worker whose deadline would tick
    /// against a stale computation.
    fn accept(&mut self, f: usize, values: Vec<Option<f64>>, from: Option<usize>, now: Instant) {
        if let Some(widx) = from {
            self.release_if_current(widx, f);
        }
        if matches!(self.shards[f].status, ShardStatus::Done(_)) {
            return; // late duplicate: already settled, by design
        }
        self.shards[f].status = ShardStatus::Done(values);
        for w in self.workers.iter_mut() {
            if w.healthy && w.current == Some(f) && w.stale_deadline.is_none() {
                w.stale_deadline = Some(now + self.opts.shard_timeout);
            }
        }
        self.done += 1;
    }

    /// Fleet-wide cache telemetry: finished sessions plus the live
    /// one, per worker. Monotone over the queue.
    fn fleet_telemetry(&self) -> CacheTelemetry {
        self.workers
            .iter()
            .fold(CacheTelemetry::default(), |acc, w| {
                add_telemetry(acc, add_telemetry(w.telemetry_acc, w.telemetry_cur))
            })
    }

    /// Rolls the live session's telemetry into the worker's
    /// accumulator — called when a transport session ends (`Reset` or
    /// `Gone`), whose next heartbeat (if any) restarts from zero.
    fn roll_telemetry(&mut self, widx: usize) {
        let w = &mut self.workers[widx];
        w.telemetry_acc = add_telemetry(w.telemetry_acc, w.telemetry_cur);
        w.telemetry_cur = CacheTelemetry::default();
    }

    fn on_line(&mut self, worker: u64, line: &str) -> Result<(), String> {
        let Some(widx) = self.workers.iter().position(|w| w.id == worker) else {
            return Ok(()); // unknown sender: drop
        };
        self.workers[widx].last_heard = Instant::now();
        let reply: WorkerReply = match serde_json::from_str(line) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("pbbf sweep: unparseable reply from worker {worker}: {e}");
                return self.strike(widx, StrikeScope::Torn);
            }
        };
        match reply {
            WorkerReply::Result(r) => match self.resolve(r.id) {
                None => {
                    eprintln!(
                        "pbbf sweep: corrupt result for shard {} from worker {worker}",
                        r.id
                    );
                    self.strike(widx, StrikeScope::Foreign)
                }
                Some(f) => {
                    let s = &self.shards[f];
                    let valid =
                        r.values.len() == s.expect && checksum(r.id, &r.values) == r.checksum;
                    if !valid {
                        eprintln!(
                            "pbbf sweep: corrupt result for shard {} from worker {worker}",
                            r.id
                        );
                        return self.strike(widx, StrikeScope::Shard(f));
                    }
                    // Deterministic values: any structurally valid copy
                    // is correct, even from a worker already written off.
                    self.accept(f, decode_values(&r.values), Some(widx), Instant::now());
                    Ok(())
                }
            },
            WorkerReply::Error(e) => {
                // An honest refusal — the job itself is suspect. The
                // retry ladder ends at the in-process executor, which
                // surfaces a real error if the job truly is malformed.
                eprintln!(
                    "pbbf sweep: worker {worker} refused shard {}: {}",
                    e.id, e.error
                );
                self.stats.refused += 1;
                match self.resolve(e.id) {
                    Some(f) if self.workers[widx].current == Some(f) => self
                        .take_running(widx)
                        .map_or(Ok(()), |f| self.fail_shard(f)),
                    _ => Ok(()),
                }
            }
            WorkerReply::Heartbeat(t) => {
                // Pure liveness + telemetry; `last_heard` already moved.
                // Heartbeats carry session totals (delta from the
                // connection baseline), so replace, don't add.
                self.workers[widx].telemetry_cur = t;
                Ok(())
            }
        }
    }

    /// The worker's transport dropped and reconnected: whatever it was
    /// running is lost on the far side, so requeue it — but the worker
    /// itself stays in the fleet. This is the "yanked cable, plugged
    /// back in" path; it must degrade no worse than a killed
    /// subprocess and no scheduling detail of it may reach the output.
    fn on_reset(&mut self, worker: u64) -> Result<(), String> {
        let Some(widx) = self.workers.iter().position(|w| w.id == worker) else {
            return Ok(());
        };
        // The old session is gone either way; bank its telemetry
        // before the new session's heartbeats restart from zero.
        self.roll_telemetry(widx);
        if !self.workers[widx].healthy {
            return Ok(()); // already written off; the link is dying
        }
        self.stats.reconnects += 1;
        self.workers[widx].last_heard = Instant::now();
        let Some(f) = self.take_running(widx) else {
            return Ok(());
        };
        eprintln!("pbbf sweep: worker {worker} transport reset; requeueing shard {f}");
        self.fail_shard(f)
    }

    fn on_gone(&mut self, worker: u64) -> Result<(), String> {
        let Some(widx) = self.workers.iter().position(|w| w.id == worker) else {
            return Ok(());
        };
        // Its final session ended; keep what it reported.
        self.roll_telemetry(widx);
        if !self.workers[widx].healthy {
            return Ok(()); // already written off (we killed it)
        }
        eprintln!("pbbf sweep: worker {worker} died");
        self.stats.crashes += 1;
        self.write_off(widx)
    }

    /// Kills workers whose shard overran its deadline; the shard
    /// retries elsewhere, the worker is quarantined (a wedged process
    /// is not worth more work).
    fn expire_deadlines(&mut self, now: Instant) -> Result<(), String> {
        loop {
            let Some((f, wid)) = self
                .shards
                .iter()
                .enumerate()
                .find_map(|(i, s)| match s.status {
                    ShardStatus::Running { worker, deadline } if deadline <= now => {
                        Some((i, worker))
                    }
                    _ => None,
                })
            else {
                return Ok(());
            };
            eprintln!("pbbf sweep: shard {f} timed out on worker {wid}");
            self.stats.timeouts += 1;
            // Quarantine the wedged worker — but only when it is still
            // on the books; one already written off (crashed, lost
            // host) must not be counted quarantined a second time.
            if let Some(widx) = self.workers.iter().position(|w| w.id == wid && w.healthy) {
                self.stats.quarantined += 1;
                self.write_off(widx)?;
            }
            if matches!(self.shards[f].status, ShardStatus::Running { .. }) {
                // The worker no longer claimed this shard; recycle it
                // directly so the scan above always makes progress.
                self.fail_shard(f)?;
            }
        }
    }

    /// Writes off remote workers that have been silent past the
    /// liveness window — the vanished-host detector. Remote workers
    /// heartbeat on a timer even mid-shard, so silence here means the
    /// host (or the network to it) is gone, not that a shard is slow;
    /// per-shard deadlines separately cover the slow/wedged case.
    fn expire_liveness(&mut self, now: Instant) -> Result<(), String> {
        loop {
            let Some(widx) = self.workers.iter().position(|w| {
                w.healthy
                    && w.remote
                    && now.duration_since(w.last_heard) > self.opts.liveness_timeout
            }) else {
                return Ok(());
            };
            eprintln!(
                "pbbf sweep: worker {} silent for {:.1?} (liveness {:.1?}); \
                 quarantining unreachable host",
                self.workers[widx].id,
                now.duration_since(self.workers[widx].last_heard),
                self.opts.liveness_timeout
            );
            self.stats.hosts_lost += 1;
            self.stats.quarantined += 1;
            self.write_off(widx)?;
        }
    }

    /// Quarantines workers that have been grinding on an already-
    /// settled shard for a whole deadline without delivering their
    /// duplicate — the stale-work analogue of a shard timeout.
    fn expire_stale(&mut self, now: Instant) -> Result<(), String> {
        loop {
            let Some(widx) = self
                .workers
                .iter()
                .position(|w| w.healthy && w.stale_deadline.is_some_and(|d| d <= now))
            else {
                return Ok(());
            };
            eprintln!(
                "pbbf sweep: worker {} wedged on a settled shard; quarantining it",
                self.workers[widx].id
            );
            self.stats.quarantined += 1;
            self.write_off(widx)?;
        }
    }

    /// No fleet left: compute every unfinished shard in-process, fanned
    /// across the thread pool the workers were meant to replace.
    fn drain_in_process(&mut self) -> Result<(), String> {
        let todo: Vec<usize> = self
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| !matches!(s.status, ShardStatus::Done(_)))
            .map(|(i, _)| i)
            .collect();
        if todo.is_empty() {
            return Ok(());
        }
        eprintln!(
            "pbbf sweep: no healthy workers; running {} shard(s) in-process",
            todo.len()
        );
        let exec = self.exec;
        let jobs: Vec<&Json> = todo.iter().map(|&i| &self.shards[i].job).collect();
        let results = pbbf_parallel::par_map(jobs, exec);
        let now = Instant::now();
        for (&f, result) in todo.iter().zip(results) {
            let values = result.map_err(|e| format!("shard {f} failed in-process: {e}"))?;
            self.stats.inproc_shards += 1;
            self.accept(f, values, None, now);
        }
        Ok(())
    }

    /// How long the event loop may sleep before something is due.
    fn next_wait(&self, now: Instant) -> Duration {
        let mut next: Option<Instant> = None;
        let mut consider = |t: Instant| next = Some(next.map_or(t, |n| n.min(t)));
        for s in &self.shards {
            match s.status {
                ShardStatus::Running { deadline, .. } => consider(deadline),
                ShardStatus::Pending { eligible_at } if eligible_at > now => {
                    consider(eligible_at);
                }
                _ => {}
            }
        }
        for w in self.workers.iter() {
            if !w.healthy {
                continue;
            }
            if w.remote {
                consider(w.last_heard + self.opts.liveness_timeout);
            }
            if let Some(d) = w.stale_deadline {
                consider(d);
            }
        }
        next.map_or(Duration::from_millis(100), |t| {
            t.saturating_duration_since(now)
                .max(Duration::from_millis(1))
        })
    }
}

fn add_telemetry(a: CacheTelemetry, b: CacheTelemetry) -> CacheTelemetry {
    CacheTelemetry {
        hits: a.hits.saturating_add(b.hits),
        misses: a.misses.saturating_add(b.misses),
        evictions: a.evictions.saturating_add(b.evictions),
    }
}
