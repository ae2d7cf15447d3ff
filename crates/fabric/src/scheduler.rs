//! The resident sweep scheduler: one fleet, many sweeps.
//!
//! [`SweepScheduler`] owns a worker fleet for its whole lifetime and
//! accepts a *queue* of sweep manifests ([`SweepScheduler::run_queue`]).
//! Shards from every queued sweep drain into workers as they go idle,
//! so several figures multiplex onto one fleet and remote workers keep
//! their deployment caches warm across sweeps. Per-shard results
//! stream to a caller-supplied sink in completion order, each exactly
//! once: a late duplicate of a settled shard is dropped here. Re-merging
//! in manifest order is the caller's job (`assemble_sweep` upstairs),
//! which is what keeps scheduling invisible in the output bytes.
//!
//! The failure policy: a shard that crashes its worker, overruns its
//! wall-clock deadline, or comes back corrupt is retried on a healthy
//! worker after bounded exponential backoff; a worker that repeatedly
//! produces corrupt output — or hangs — is quarantined (killed, never
//! respawned); a shard that exhausts its delivery attempts runs
//! in-process, as does the whole remaining queue when no healthy
//! workers are left. Workers, their strike counts, and their telemetry
//! outlive any single sweep:
//!
//! * **Wire ids are global.** Each queued shard gets a monotonically
//!   increasing wire id, unique across the scheduler's lifetime, so a
//!   late reply from a previous queue can never validate against a new
//!   shard (the checksum covers the id). Stale replies only release
//!   the worker that sent them.
//! * **Telemetry accumulates across transport sessions.** Workers
//!   heartbeat cache counters as deltas from a per-connection baseline
//!   (see `docs/PROTOCOL.md`), so the scheduler rolls the last-seen
//!   session total into an accumulator on every [`WorkerEvent::Reset`]
//!   or [`WorkerEvent::Gone`] and reports `accumulated + current` —
//!   a reconnect loses no hits/misses.
//! * **Per-sweep stats settle in queue order.** Each sweep's stats are
//!   charged as its shards resolve; fleet-wide telemetry deltas are
//!   attributed to a sweep when it completes, so consecutive sweeps
//!   see non-overlapping telemetry windows.
//!
//! A late duplicate reply (the shard was retried elsewhere and both
//! copies eventually arrive) frees only the worker that *sent* it; a
//! worker still computing a duplicate stays busy until its own copy
//! lands, bounded by a stale-work deadline so a wedged duplicate-holder
//! is still caught; fresh work dealt to it early would have its
//! deadline tick against stolen time.

use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use serde_json::Value as Json;

use crate::protocol::{checksum, decode_values, CacheTelemetry, ShardSpec, WorkerReply};
use crate::supervisor::{
    backoff, ShardInput, SweepOptions, SweepOutcome, SweepStats, WorkerEvent, WorkerFactory,
    WorkerLink,
};

/// A worker fleet that stays resident across sweeps.
///
/// Construct once with [`SweepScheduler::new`], then feed it sweep
/// queues with [`SweepScheduler::run_queue`] (or single sweeps with
/// [`SweepScheduler::run_sweep`]). Workers are spawned exactly once;
/// the fleet only ever shrinks (quarantine, crashes, lost hosts), and
/// dropping the scheduler kills whatever is left.
pub struct SweepScheduler {
    opts: SweepOptions,
    workers: Vec<Worker>,
    /// Kept alive so the event channel never disconnects, even after
    /// the last worker dies.
    _tx: Sender<WorkerEvent>,
    rx: Receiver<WorkerEvent>,
    workers_spawned: usize,
    spawn_failures: usize,
    /// Next global wire id; every shard ever queued gets a fresh one.
    next_wire: u64,
    /// Fleet-wide telemetry already attributed to completed sweeps.
    telemetry_reported: CacheTelemetry,
}

/// The scheduler's book-keeping for one worker. Persists across
/// sweeps: strikes and telemetry are properties of the worker, not of
/// any one manifest.
struct Worker {
    id: u64,
    link: Box<dyn WorkerLink>,
    strikes: u32,
    /// Global wire id of the shard in flight on this worker, if any.
    current: Option<u64>,
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
    /// settled (a late duplicate in flight, or leftover work from a
    /// previous queue). If it neither delivers nor resets by then, it
    /// is wedged and gets quarantined.
    stale_deadline: Option<Instant>,
}

impl SweepScheduler {
    /// Spawns a fleet of `opts.workers` workers (minimum one) through
    /// `factory` and keeps it resident until the scheduler is dropped.
    ///
    /// Spawn failures are not fatal: the scheduler degrades to
    /// whatever fleet it got, down to none (every sweep then runs
    /// in-process). They are reported in every sweep's
    /// [`SweepStats::spawn_failures`].
    #[must_use]
    pub fn new(opts: SweepOptions, factory: &dyn WorkerFactory) -> Self {
        let (tx, rx) = std::sync::mpsc::channel();
        let fleet = opts.workers.max(1);
        let mut workers = Vec::new();
        let mut workers_spawned = 0;
        let mut spawn_failures = 0;
        for slot in 0..fleet {
            let id = slot as u64 + 1; // workers never respawn, so slots are ids
            match factory.spawn(slot, id, tx.clone()) {
                Ok(link) => {
                    workers_spawned += 1;
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
        Self {
            opts,
            workers,
            _tx: tx,
            rx,
            workers_spawned,
            spawn_failures,
            next_wire: 0,
            telemetry_reported: CacheTelemetry::default(),
        }
    }

    /// Runs a queue of sweeps to completion on the resident fleet.
    ///
    /// `queue[i]` is sweep `i`'s manifest. Shards are dealt in queue
    /// order but resolve in completion order; every settled shard is
    /// handed to `sink(sweep, shard, values)` exactly once, where
    /// `shard` is the shard's position *within its sweep's manifest*.
    /// Returns one [`SweepStats`] per queued sweep; fleet-scoped
    /// events (spawns, reconnects, telemetry) are attributed to the
    /// sweep that was settling when they were observed.
    ///
    /// `exec` is the in-process fallback executor — the same
    /// computation the workers perform, minus the process boundary.
    ///
    /// # Errors
    ///
    /// Fails only when a shard cannot be computed at all — i.e. the
    /// in-process fallback itself reports an error. Worker-side
    /// failures never surface here; they are retried away.
    pub fn run_queue<E, S>(
        &mut self,
        queue: Vec<Vec<ShardInput>>,
        exec: E,
        mut sink: S,
    ) -> Result<Vec<SweepStats>, String>
    where
        E: Fn(&Json) -> Result<Vec<Option<f64>>, String> + Sync,
        S: FnMut(usize, usize, Vec<Option<f64>>),
    {
        let now = Instant::now();
        let mut shards = Vec::new();
        let mut sweep_start = Vec::with_capacity(queue.len());
        let mut sweep_len = Vec::with_capacity(queue.len());
        for (sweep, inputs) in queue.into_iter().enumerate() {
            sweep_start.push(shards.len());
            sweep_len.push(inputs.len());
            for s in inputs {
                shards.push(Shard {
                    sweep,
                    job: s.job,
                    expect: s.expect,
                    attempt: 0,
                    status: ShardStatus::Pending { eligible_at: now },
                });
            }
        }
        let base = self.next_wire;
        self.next_wire = base + shards.len() as u64;
        let stats = vec![
            SweepStats {
                workers_spawned: self.workers_spawned,
                spawn_failures: self.spawn_failures,
                ..SweepStats::default()
            };
            sweep_len.len()
        ];

        let Self {
            opts,
            workers,
            rx,
            telemetry_reported,
            ..
        } = self;
        let mut eng = Engine {
            opts,
            workers,
            telemetry_reported,
            base,
            done: vec![0; sweep_len.len()],
            done_total: 0,
            settled: 0,
            shards,
            sweep_start,
            sweep_len,
            stats,
            exec: &exec,
            sink: &mut sink,
        };

        // A resident fleet keeps talking between queues (heartbeats,
        // late duplicates, deaths); absorb the backlog before dealing
        // new work so stale replies release their workers and a host
        // that died while idle is noticed now, not mid-sweep.
        eng.refresh_idle(now);
        while let Ok(ev) = rx.try_recv() {
            eng.handle(ev)?;
        }
        eng.check_settle();

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
                    unreachable!("scheduler holds an event sender")
                }
            }
            eng.expire_deadlines(Instant::now())?;
            eng.expire_liveness(Instant::now())?;
            eng.expire_stale(Instant::now())?;
        }
        eng.check_settle();
        Ok(eng.stats)
    }

    /// Runs a single sweep on the resident fleet and returns its
    /// values in manifest order — [`run_queue`](Self::run_queue) with
    /// a one-element queue and a collecting sink. The fleet stays
    /// alive afterwards, ready for the next sweep.
    ///
    /// # Errors
    ///
    /// See [`run_queue`](Self::run_queue).
    pub fn run_sweep<E>(&mut self, inputs: Vec<ShardInput>, exec: E) -> Result<SweepOutcome, String>
    where
        E: Fn(&Json) -> Result<Vec<Option<f64>>, String> + Sync,
    {
        let n = inputs.len();
        let mut slots: Vec<Option<Vec<Option<f64>>>> = (0..n).map(|_| None).collect();
        let stats = self.run_queue(vec![inputs], exec, |_, shard, values| {
            slots[shard] = Some(values);
        })?;
        Ok(SweepOutcome {
            values: slots
                .into_iter()
                .map(|s| s.expect("a completed queue settles every shard"))
                .collect(),
            stats: stats[0],
        })
    }
}

impl Drop for SweepScheduler {
    fn drop(&mut self) {
        for w in &mut self.workers {
            w.link.kill(); // EOF first where the link supports it
        }
    }
}

enum ShardStatus {
    Pending { eligible_at: Instant },
    Running { worker: u64, deadline: Instant },
    Done,
}

struct Shard {
    /// Index of the sweep this shard belongs to (into the queue).
    sweep: usize,
    job: Json,
    expect: usize,
    attempt: u32,
    status: ShardStatus,
}

/// What a reply's wire id refers to, from the current queue's view.
enum WireRef {
    /// A shard from a previous queue — settled long ago (or its queue
    /// was abandoned). The values are worthless; the sender is free.
    Stale,
    /// Flat index into the current queue's shards.
    Flat(usize),
    /// Beyond anything ever dealt: fabricated, i.e. corrupt.
    Foreign,
}

/// Why a worker is being struck, and therefore what may be requeued.
enum StrikeScope {
    /// The output stream itself is suspect (unparseable/torn line);
    /// whatever the worker was computing is presumed lost.
    Torn,
    /// A structurally corrupt reply naming this current-queue shard.
    Shard(usize),
    /// A corrupt reply naming a shard that was never dealt.
    Foreign,
}

/// One queue's worth of run state, borrowing the scheduler's resident
/// fleet. Everything here dies with the queue; everything reachable
/// through the `&mut` borrows survives to the next one.
struct Engine<'a, E, S> {
    opts: &'a SweepOptions,
    workers: &'a mut Vec<Worker>,
    telemetry_reported: &'a mut CacheTelemetry,
    /// Wire id of flat shard 0; shard `f` is wire `base + f`.
    base: u64,
    shards: Vec<Shard>,
    sweep_start: Vec<usize>,
    sweep_len: Vec<usize>,
    /// Settled-shard count per sweep.
    done: Vec<usize>,
    done_total: usize,
    /// Sweeps `0..settled` have had their stats finalized.
    settled: usize,
    stats: Vec<SweepStats>,
    exec: &'a E,
    sink: &'a mut S,
}

impl<E, S> Engine<'_, E, S>
where
    E: Fn(&Json) -> Result<Vec<Option<f64>>, String> + Sync,
    S: FnMut(usize, usize, Vec<Option<f64>>),
{
    fn complete(&self) -> bool {
        self.done_total == self.shards.len()
    }

    fn resolve(&self, wire: u64) -> WireRef {
        if wire < self.base {
            WireRef::Stale
        } else if ((wire - self.base) as usize) < self.shards.len() {
            WireRef::Flat((wire - self.base) as usize)
        } else {
            WireRef::Foreign
        }
    }

    /// The sweep fleet-scoped events are charged to: the first sweep
    /// whose stats have not settled yet (clamped to the last).
    fn active_sweep(&self) -> usize {
        self.settled.min(self.stats.len().saturating_sub(1))
    }

    /// Stats ledger of the sweep owning flat shard `f`.
    fn sstats(&mut self, f: usize) -> &mut SweepStats {
        let sweep = self.shards[f].sweep;
        &mut self.stats[sweep]
    }

    /// Stats ledger for a worker-scoped event: the sweep of the
    /// worker's in-flight shard when it has one in the current queue,
    /// else the active sweep.
    fn wstats(&mut self, widx: usize) -> &mut SweepStats {
        let sweep = match self.workers[widx].current.map(|w| self.resolve(w)) {
            Some(WireRef::Flat(f)) => self.shards[f].sweep,
            _ => self.active_sweep(),
        };
        &mut self.stats[sweep]
    }

    /// Resets idle-time book-keeping at queue start: nobody was
    /// expected to talk while no queue was running, so liveness clocks
    /// restart now, and any work still in flight from a previous queue
    /// gets one full deadline to settle before its worker is written
    /// off as wedged.
    fn refresh_idle(&mut self, now: Instant) {
        for w in self.workers.iter_mut() {
            if !w.healthy {
                continue;
            }
            w.last_heard = now;
            if w.current.is_some() {
                w.stale_deadline = Some(now + self.opts.shard_timeout);
            }
        }
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
            let wire = self.base + f as u64;
            let shard = &mut self.shards[f];
            let spec = ShardSpec {
                id: wire as u32,
                attempt: shard.attempt,
                expect: shard.expect as u32,
                job: shard.job.clone(),
            };
            let line = serde_json::to_string(&spec).map_err(|e| e.to_string())?;
            shard.status = ShardStatus::Running {
                worker: self.workers[widx].id,
                deadline: now + self.opts.shard_timeout,
            };
            self.workers[widx].current = Some(wire);
            if let Err(e) = self.workers[widx].link.send_line(&line) {
                eprintln!(
                    "pbbf sweep: worker {} unreachable ({e}); writing it off",
                    self.workers[widx].id
                );
                self.sstats(f).crashes += 1;
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

    /// Takes the worker's in-flight shard off it, returning its flat
    /// index when that shard is still running in this queue (and so
    /// needs requeueing).
    fn take_running(&mut self, widx: usize) -> Option<usize> {
        self.workers[widx].stale_deadline = None;
        let wire = self.workers[widx].current.take()?;
        match self.resolve(wire) {
            WireRef::Flat(f) if matches!(self.shards[f].status, ShardStatus::Running { .. }) => {
                Some(f)
            }
            _ => None,
        }
    }

    /// A corrupt reply: strike the sender, quarantine on repeat.
    fn strike(&mut self, widx: usize, scope: StrikeScope) -> Result<(), String> {
        match scope {
            StrikeScope::Shard(f) => self.sstats(f).corrupt += 1,
            StrikeScope::Torn | StrikeScope::Foreign => self.wstats(widx).corrupt += 1,
        }
        self.workers[widx].strikes += 1;
        if self.workers[widx].strikes >= self.opts.max_worker_strikes {
            eprintln!(
                "pbbf sweep: quarantining worker {} after {} corrupt replies",
                self.workers[widx].id, self.workers[widx].strikes
            );
            self.wstats(widx).quarantined += 1;
            return self.write_off(widx);
        }
        // Requeue the striker's in-flight shard only when the stream
        // itself is torn or the corrupt reply named that very shard. A
        // corrupt duplicate naming a *different* (typically already
        // settled) shard says nothing about the in-flight one — yanking
        // it into the retry ladder was a bug.
        let requeue = match scope {
            StrikeScope::Torn => true,
            StrikeScope::Shard(f) => self.workers[widx].current == Some(self.base + f as u64),
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
            eprintln!(
                "pbbf sweep: shard {} exhausted worker attempts; running in-process",
                self.base + f as u64
            );
            return self.run_in_process(f);
        }
        // Counted here, not above: the in-process escalation is not a
        // worker delivery, so it is not a retry.
        self.sstats(f).retries += 1;
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
        self.sstats(f).inproc_shards += 1;
        self.accept(f, values, None, Instant::now());
        Ok(())
    }

    fn release_if_current(&mut self, widx: usize, wire: u64) {
        if self.workers[widx].current == Some(wire) {
            self.workers[widx].current = None;
            self.workers[widx].stale_deadline = None;
        }
    }

    /// Settles flat shard `f`: streams its values to the sink and
    /// releases the worker that delivered them (`from`), if any.
    ///
    /// Only the *sender* is released. Another worker still holding
    /// this shard is mid-computation on a duplicate; it stays busy
    /// until its own copy arrives (or its stale deadline fires), so
    /// fresh work never lands on a worker whose deadline would tick
    /// against a stale computation.
    fn accept(&mut self, f: usize, values: Vec<Option<f64>>, from: Option<usize>, now: Instant) {
        let wire = self.base + f as u64;
        if let Some(widx) = from {
            self.release_if_current(widx, wire);
        }
        if matches!(self.shards[f].status, ShardStatus::Done) {
            return; // late duplicate: already streamed, by design
        }
        self.shards[f].status = ShardStatus::Done;
        for w in self.workers.iter_mut() {
            if w.healthy && w.current == Some(wire) && w.stale_deadline.is_none() {
                w.stale_deadline = Some(now + self.opts.shard_timeout);
            }
        }
        let sweep = self.shards[f].sweep;
        self.done[sweep] += 1;
        self.done_total += 1;
        (self.sink)(sweep, f - self.sweep_start[sweep], values);
        self.check_settle();
    }

    /// Finalizes stats for every completed sweep in queue order,
    /// attributing the fleet-wide telemetry delta since the previous
    /// settle — consecutive sweeps see non-overlapping windows, and
    /// nothing is reported twice.
    fn check_settle(&mut self) {
        while self.settled < self.stats.len()
            && self.done[self.settled] == self.sweep_len[self.settled]
        {
            let total = self.fleet_telemetry();
            let delta = total.saturating_sub(*self.telemetry_reported);
            let st = &mut self.stats[self.settled];
            st.cache_hits += delta.hits;
            st.cache_misses += delta.misses;
            st.cache_evictions += delta.evictions;
            *self.telemetry_reported = total;
            self.settled += 1;
        }
    }

    /// Fleet-wide cache telemetry: finished sessions plus the live
    /// one, per worker. Monotone over the scheduler's lifetime.
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
            WorkerReply::Result(r) => match self.resolve(u64::from(r.id)) {
                WireRef::Stale => {
                    // A previous queue's shard: the values are settled
                    // history. All it proves is that the sender is free.
                    self.release_if_current(widx, u64::from(r.id));
                    Ok(())
                }
                WireRef::Foreign => {
                    eprintln!(
                        "pbbf sweep: corrupt result for shard {} from worker {worker}",
                        r.id
                    );
                    self.strike(widx, StrikeScope::Foreign)
                }
                WireRef::Flat(f) => {
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
                match self.resolve(u64::from(e.id)) {
                    WireRef::Stale => {
                        self.release_if_current(widx, u64::from(e.id));
                        Ok(())
                    }
                    WireRef::Foreign => {
                        self.wstats(widx).refused += 1;
                        Ok(())
                    }
                    WireRef::Flat(f) => {
                        self.sstats(f).refused += 1;
                        if self.workers[widx].current != Some(u64::from(e.id)) {
                            return Ok(());
                        }
                        self.take_running(widx)
                            .map_or(Ok(()), |f| self.fail_shard(f))
                    }
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
        self.wstats(widx).reconnects += 1;
        self.workers[widx].last_heard = Instant::now();
        let Some(f) = self.take_running(widx) else {
            return Ok(());
        };
        let wire = self.base + f as u64;
        eprintln!("pbbf sweep: worker {worker} transport reset; requeueing shard {wire}");
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
        self.wstats(widx).crashes += 1;
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
            eprintln!(
                "pbbf sweep: shard {} timed out on worker {wid}",
                self.base + f as u64
            );
            self.sstats(f).timeouts += 1;
            // Quarantine the wedged worker — but only when it is still
            // on the books; one already written off (crashed, lost
            // host) must not be counted quarantined a second time.
            if let Some(widx) = self.workers.iter().position(|w| w.id == wid && w.healthy) {
                self.sstats(f).quarantined += 1;
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
            let st = self.wstats(widx);
            st.hosts_lost += 1;
            st.quarantined += 1;
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
            self.wstats(widx).quarantined += 1;
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
            .filter(|(_, s)| !matches!(s.status, ShardStatus::Done))
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
            self.sstats(f).inproc_shards += 1;
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
