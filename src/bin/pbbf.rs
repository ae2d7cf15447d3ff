//! `pbbf` — command-line front end to the reproduction.
//!
//! ```text
//! pbbf analyze   --p 0.5 --q 0.5            closed-form Eqs. 7-9 for one point
//! pbbf boundary  --grid 30 --reliability 0.99   percolation threshold + q(p)
//! pbbf ideal     --grid 25 --p 0.5 --q 0.5      run the Section-4 simulator
//! pbbf net       --p 0.25 --q 0.25 --delta 10   run the Section-5 simulator
//! pbbf reproduce [--paper] [fig13 ...]          regenerate paper exhibits
//! pbbf sweep     --workers 4 [fig13 ...]        multi-process figure sweep
//! pbbf sweep     --figs fig13,fig17 [...]       several figures, ONE fleet
//! pbbf sweep     --hosts a:7801,b:7801 [...]    ... mixing in TCP workers
//! pbbf worker                                   (internal) sweep shard executor
//! pbbf worker    --listen 0.0.0.0:7801          ... serving over TCP instead
//! ```
//!
//! `sweep` shards a figure's Monte Carlo runs across `worker` child
//! processes — and, with `--hosts`, across remote `worker --listen`
//! processes over TCP — through the fault-tolerant fabric
//! (`pbbf-fabric`). All requested figures run through a single
//! *resident* fleet (one `SweepScheduler` queue), so remote workers
//! keep their deployment caches warm from figure to figure; the stdout
//! is byte-identical to `reproduce` of the same figures in the same
//! order, which CI enforces under injected worker faults and a
//! kill -9'd TCP worker (see `docs/OPERATIONS.md`). Argument parsing is
//! deliberately dependency-free (the offline crate budget is spent on
//! simulation, not flag handling), but strict: every command declares
//! its flag set and rejects strays instead of silently defaulting.

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;

use pbbf::prelude::*;
use pbbf_experiments::sweep::{assemble_sweep, run_sweep_shard, sweep_manifest, ShardJob};
use pbbf_fabric::fault::FaultPlan;
use pbbf_fabric::{
    CacheTelemetry, Endpoint, FleetFactory, ServeOptions, ShardInput, SweepOptions, SweepScheduler,
    TcpOptions,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        print_help();
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "analyze" => cmd_analyze(rest),
        "boundary" => cmd_boundary(rest),
        "ideal" => cmd_ideal(rest),
        "net" => cmd_net(rest),
        "reproduce" => cmd_reproduce(rest),
        "sweep" => cmd_sweep(rest),
        "worker" => cmd_worker(rest),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `pbbf help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "pbbf — PBBF (ICDCS 2005) reproduction toolkit\n\n\
         USAGE:\n  pbbf <command> [flags]\n\n\
         COMMANDS:\n\
         \x20 analyze    --p <f> --q <f>                      closed-form energy/latency/reliability\n\
         \x20 boundary   --grid <n> --reliability <f> [--runs <n>] [--seed <n>]\n\
         \x20 ideal      --grid <n> --p <f> --q <f> [--updates <n>] [--seed <n>]\n\
         \x20 net        --p <f> --q <f> [--delta <f>] [--duration <s>] [--seed <n>]\n\
         \x20 reproduce  [--paper] [--plot] [--seed <n>] [table1 fig04 ... fig18]\n\
         \x20 sweep      [--paper] [--seed <n>] [--workers <n>] [--hosts <h:p,...>]\n\
         \x20            [--figs fig13,fig17,...] [--shard-timeout <s>] [--liveness <s>]\n\
         \x20            [fig13 ... fig18]        (all figures share one resident fleet)\n\
         \x20 worker     executes sweep shards from stdin (internal), or over TCP with\n\
         \x20            [--listen <addr:port>] [--heartbeat <s>] [--once]\n\
         \x20 help\n\n\
         Wire protocol spec: docs/PROTOCOL.md; sweep ops guide: docs/OPERATIONS.md"
    );
}

/// One flag a command accepts: its `--name` and whether it consumes a
/// value (`--seed 7`) or stands alone (`--paper`).
#[derive(Clone, Copy)]
struct FlagSpec {
    name: &'static str,
    takes_value: bool,
}

const fn val(name: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        takes_value: true,
    }
}

const fn bare(name: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        takes_value: false,
    }
}

/// Parses `--key value` flags plus bare positionals, rejecting any
/// flag the command did not declare — a stray `--worker 4` must fail
/// loudly, not silently run with defaults.
fn parse(
    args: &[String],
    allowed: &[FlagSpec],
) -> Result<(HashMap<String, String>, Vec<String>), String> {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            let Some(spec) = allowed.iter().find(|f| f.name == key) else {
                let names: Vec<String> = allowed.iter().map(|f| format!("--{}", f.name)).collect();
                return Err(format!(
                    "unknown flag --{key} (this command accepts: {})",
                    names.join(", ")
                ));
            };
            if spec.takes_value {
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                flags.insert(key.to_string(), value.clone());
            } else {
                flags.insert(key.to_string(), "true".to_string());
            }
        } else {
            positional.push(a.clone());
        }
    }
    Ok((flags, positional))
}

fn get_f64(
    flags: &HashMap<String, String>,
    key: &str,
    default: Option<f64>,
) -> Result<f64, String> {
    match flags.get(key) {
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad number `{v}`")),
        None => default.ok_or_else(|| format!("missing required flag --{key}")),
    }
}

fn get_u64(flags: &HashMap<String, String>, key: &str, default: u64) -> Result<u64, String> {
    match flags.get(key) {
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad integer `{v}`")),
        None => Ok(default),
    }
}

/// A count flag of at least `min` that fits a `u32` — a value past
/// `u32::MAX` is an error, never silently truncated.
fn get_u32(
    flags: &HashMap<String, String>,
    key: &str,
    default: u32,
    min: u32,
) -> Result<u32, String> {
    let v = get_u64(flags, key, u64::from(default))?;
    match u32::try_from(v) {
        Ok(v) if v >= min => Ok(v),
        _ => Err(format!(
            "--{key}: must lie in {min}..={}, got `{v}`",
            u32::MAX
        )),
    }
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse(args, &[val("p"), val("q")])?;
    let p = get_f64(&flags, "p", None)?;
    let q = get_f64(&flags, "q", None)?;
    let params = PbbfParams::new(p, q).map_err(|e| e.to_string())?;
    let a = AnalysisParams::table1();
    let pt = analysis::analyze(&a, params);
    let mut t = Table::new(["Quantity", "Value", "Source"]);
    t.row([
        "p_edge = 1 - p(1-q)".to_string(),
        format!("{:.4}", pt.edge_probability),
        "Remark 1".to_string(),
    ]);
    t.row([
        "relative energy".to_string(),
        format!("{:.4}", pt.relative_energy),
        "Eq. 7".to_string(),
    ]);
    t.row([
        "energy increase over PSM".to_string(),
        format!("{:.3}x", pt.energy_increase),
        "Eq. 8".to_string(),
    ]);
    t.row([
        "expected link latency".to_string(),
        format!("{:.3} s", pt.link_latency),
        "Eq. 9".to_string(),
    ]);
    t.row([
        "joules per update".to_string(),
        format!("{:.4} J", pt.joules_per_update),
        "Table 1 power".to_string(),
    ]);
    print!("{}", t.render());
    Ok(())
}

fn cmd_boundary(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse(
        args,
        &[val("grid"), val("reliability"), val("runs"), val("seed")],
    )?;
    // A one-node grid has no bonds to occupy, so no threshold.
    let grid = get_u32(&flags, "grid", 30, 2)?;
    let reliability = get_f64(&flags, "reliability", Some(0.99))?;
    if !(reliability > 0.0 && reliability <= 1.0) {
        return Err(format!(
            "--reliability: must lie in (0, 1], got `{reliability}`"
        ));
    }
    let runs = get_u32(&flags, "runs", 150, 1)?;
    let seed = get_u64(&flags, "seed", 2005)?;
    let g = Grid::square(grid);
    let mut rng = SimRng::new(seed);
    let ps: Vec<f64> = (1..=10).map(|i| f64::from(i) / 10.0).collect();
    let (critical, boundary) =
        pq_boundary(g.topology(), g.center(), reliability, &ps, runs, &mut rng);
    println!(
        "{grid}x{grid} grid, {:.0}% reliability: critical p_edge = {critical:.4}\n",
        reliability * 100.0
    );
    let mut t = Table::new(["p", "q_min"]);
    for (p, q) in boundary {
        t.row([format!("{p:.2}"), format!("{q:.4}")]);
    }
    print!("{}", t.render());
    Ok(())
}

fn cmd_ideal(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse(
        args,
        &[val("grid"), val("p"), val("q"), val("updates"), val("seed")],
    )?;
    let grid = get_u32(&flags, "grid", 25, 1)?;
    let p = get_f64(&flags, "p", None)?;
    let q = get_f64(&flags, "q", None)?;
    let updates = get_u32(&flags, "updates", 5, 0)?;
    let seed = get_u64(&flags, "seed", 2005)?;
    let params = PbbfParams::new(p, q).map_err(|e| e.to_string())?;
    let mut cfg = IdealConfig::table1();
    cfg.grid_side = grid;
    cfg.updates = updates;
    let stats = IdealSim::new(cfg, IdealMode::SleepScheduled(params)).run(seed);
    let mut t = Table::new(["Metric", "Value"]);
    t.row([
        "delivered fraction".to_string(),
        format!("{:.4}", stats.mean_delivered_fraction()),
    ]);
    t.row([
        "joules/update/node".to_string(),
        format!("{:.4}", stats.mean_energy_per_update()),
    ]);
    t.row([
        "per-hop latency".to_string(),
        stats
            .mean_per_hop_latency()
            .map_or("n/a".to_string(), |l| format!("{l:.3} s")),
    ]);
    t.row([
        "transmissions/update".to_string(),
        format!("{:.1}", stats.mean_total_tx()),
    ]);
    print!("{}", t.render());
    Ok(())
}

fn cmd_net(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse(
        args,
        &[
            val("p"),
            val("q"),
            val("delta"),
            val("duration"),
            val("seed"),
        ],
    )?;
    let p = get_f64(&flags, "p", None)?;
    let q = get_f64(&flags, "q", None)?;
    let seed = get_u64(&flags, "seed", 2005)?;
    let params = PbbfParams::new(p, q).map_err(|e| e.to_string())?;
    let cfg = net_config(&flags)?;
    // `run_on` of the same seed's deployment is bitwise `run(seed)`; a
    // Δ too sparse to connect is an input error, not a panic.
    let deployment =
        NetSim::try_draw_deployment(&cfg, seed).map_err(|e| format!("--delta: {e}"))?;
    let stats = NetSim::new(cfg, NetMode::SleepScheduled(params)).run_on(seed, &deployment);
    let mut t = Table::new(["Metric", "Value"]);
    t.row([
        "updates generated".to_string(),
        format!("{}", stats.updates_generated()),
    ]);
    t.row([
        "delivery ratio".to_string(),
        format!("{:.4}", stats.mean_delivery_ratio()),
    ]);
    t.row([
        "joules/update/node".to_string(),
        format!("{:.4}", stats.energy_per_update()),
    ]);
    for hops in [2u32, 5] {
        t.row([
            format!("{hops}-hop latency"),
            stats
                .mean_latency_at_hops(hops)
                .map_or("n/a".to_string(), |l| format!("{l:.2} s")),
        ]);
    }
    t.row([
        "data tx (immediate)".to_string(),
        format!("{} ({})", stats.data_tx, stats.immediate_tx),
    ]);
    t.row(["collisions".to_string(), format!("{}", stats.collisions)]);
    print!("{}", t.render());
    Ok(())
}

/// The Table-2 scenario with `pbbf net`'s `--delta` and `--duration`
/// applied. Both must be positive and finite, and the duration must fit
/// the simulator's clock ([`NetConfig::check_duration_secs`]).
fn net_config(flags: &HashMap<String, String>) -> Result<NetConfig, String> {
    let mut cfg = NetConfig::table2();
    cfg.delta = get_positive(flags, "delta", 10.0)?;
    cfg.duration_secs = get_f64(flags, "duration", Some(500.0))?;
    NetConfig::check_duration_secs(cfg.duration_secs).map_err(|e| format!("--duration: {e}"))?;
    Ok(cfg)
}

fn cmd_reproduce(args: &[String]) -> Result<(), String> {
    let (flags, positional) = parse(args, &[bare("paper"), bare("plot"), val("seed")])?;
    let effort = if flags.contains_key("paper") {
        Effort::paper()
    } else {
        Effort::quick()
    };
    let seed = get_u64(&flags, "seed", 2005)?;
    let plot = flags.contains_key("plot");
    let mut any = false;
    for exp in Experiment::all() {
        if !positional.is_empty() && !positional.iter().any(|p| p == exp.id()) {
            continue;
        }
        any = true;
        let out = exp.run(&effort, seed);
        match (&out, plot) {
            (Output::Figure(f), true) => println!("{}", f.render_ascii_plot(64, 20)),
            _ => println!("{}", out.render_text()),
        }
    }
    if !any {
        return Err(format!("no exhibit matched {positional:?}"));
    }
    Ok(())
}

/// Executes one sweep shard: decode the opaque fabric job back into a
/// [`ShardJob`] and run it. Shared verbatim by the worker loop and the
/// supervisor's in-process fallback, so both paths compute identical
/// bits by construction.
fn exec_shard(job: &serde_json::Value) -> Result<Vec<Option<f64>>, String> {
    let shard: ShardJob = serde::from_value(job.clone()).map_err(|e| e.to_string())?;
    run_sweep_shard(&shard)
}

/// Deployment-cache counters for worker heartbeat telemetry.
fn cache_telemetry() -> CacheTelemetry {
    let s = DeploymentCache::global().stats();
    CacheTelemetry {
        hits: s.hits,
        misses: s.misses,
        evictions: s.evictions,
    }
}

/// Splits `--hosts a:7801,b:7802` into endpoints, insisting every
/// entry carries an explicit port — a bare hostname would silently
/// resolve nowhere at connect time, which is too late to be helpful.
fn parse_hosts(spec: &str) -> Result<Vec<String>, String> {
    let mut hosts = Vec::new();
    for raw in spec.split(',') {
        let entry = raw.trim();
        if entry.is_empty() {
            return Err(format!(
                "--hosts: empty entry in `{spec}` (expected host:port,host:port,...)"
            ));
        }
        let Some((host, port)) = entry.rsplit_once(':') else {
            return Err(format!(
                "--hosts: `{entry}` has no port (expected host:port, e.g. 10.0.0.2:7801)"
            ));
        };
        if host.is_empty() {
            return Err(format!("--hosts: `{entry}` has no host before the colon"));
        }
        if port.parse::<u16>().is_err() {
            return Err(format!(
                "--hosts: `{entry}` has a bad port `{port}` (expected 1-65535)"
            ));
        }
        hosts.push(entry.to_string());
    }
    Ok(hosts)
}

/// Splits `--figs fig13,fig17` into figure ids, rejecting empty
/// entries — a stray comma means a typo'd figure, not a request for
/// nothing.
fn parse_figs(spec: &str) -> Result<Vec<String>, String> {
    let mut figs = Vec::new();
    for raw in spec.split(',') {
        let fig = raw.trim();
        if fig.is_empty() {
            return Err(format!(
                "--figs: empty entry in `{spec}` (expected fig13,fig17,...)"
            ));
        }
        figs.push(fig.to_string());
    }
    Ok(figs)
}

/// A numeric flag that must be finite and above zero.
fn get_positive(flags: &HashMap<String, String>, key: &str, default: f64) -> Result<f64, String> {
    let v = get_f64(flags, key, Some(default))?;
    if !v.is_finite() || v <= 0.0 {
        return Err(format!(
            "--{key}: must be a positive finite number, got `{v}`"
        ));
    }
    Ok(v)
}

fn get_secs(flags: &HashMap<String, String>, key: &str, default: f64) -> Result<Duration, String> {
    let secs = get_positive(flags, key, default)?;
    Duration::try_from_secs_f64(secs).map_err(|_| format!("--{key}: {secs} s is too long"))
}

/// How many workers a sweep fleet gets: remote hosts plus local
/// subprocesses. With `--hosts` alone the fleet is purely remote; a
/// bare `--workers 0` would mean "no fleet at all", which is an error,
/// not a degenerate sweep.
fn plan_fleet(flags: &HashMap<String, String>, hosts: &[String]) -> Result<(usize, usize), String> {
    let default_local = if hosts.is_empty() {
        pbbf_parallel::max_threads() as u64
    } else {
        0
    };
    let local = get_u64(flags, "workers", default_local)? as usize;
    if local == 0 && hosts.is_empty() {
        return Err("--workers 0 with no --hosts leaves nothing to run shards; \
             pass --workers >= 1 or add --hosts"
            .to_string());
    }
    Ok((hosts.len(), local))
}

fn cmd_worker(args: &[String]) -> Result<(), String> {
    let (flags, positional) = parse(args, &[val("listen"), val("heartbeat"), bare("once")])?;
    if !positional.is_empty() {
        return Err(format!(
            "worker takes no positional arguments, got {positional:?}"
        ));
    }
    let Some(listen) = flags.get("listen") else {
        for conflicting in ["heartbeat", "once"] {
            if flags.contains_key(conflicting) {
                return Err(format!(
                    "--{conflicting} only applies to TCP serving; add --listen <addr:port> \
                     or drop it for stdin mode"
                ));
            }
        }
        let stdin = std::io::stdin().lock();
        let plan = FaultPlan::from_env();
        let served = pbbf_fabric::serve_session(
            stdin,
            std::io::stdout(),
            None,
            &plan,
            exec_shard,
            cache_telemetry,
        );
        if let Err(e) = served {
            eprintln!("pbbf worker: {e}; exiting");
            std::process::exit(1);
        }
        return Ok(());
    };
    let options = ServeOptions {
        heartbeat: get_secs(&flags, "heartbeat", 1.0)?,
        once: flags.contains_key("once"),
    };
    let listener = std::net::TcpListener::bind(listen.as_str())
        .map_err(|e| format!("--listen {listen}: bind failed: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // Announced on stdout (and flushed) so scripts binding port 0 can
    // read the ephemeral port back; see docs/OPERATIONS.md.
    println!("pbbf worker: listening on {addr}");
    std::io::Write::flush(&mut std::io::stdout()).map_err(|e| e.to_string())?;
    pbbf_fabric::serve_listener(&listener, &options, exec_shard, cache_telemetry)
        .map_err(|e| format!("serve on {addr}: {e}"))
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let (flags, positional) = parse(
        args,
        &[
            bare("paper"),
            val("seed"),
            val("figs"),
            val("workers"),
            val("hosts"),
            val("shard-timeout"),
            val("liveness"),
        ],
    )?;
    let effort = if flags.contains_key("paper") {
        Effort::paper()
    } else {
        Effort::quick()
    };
    let seed = get_u64(&flags, "seed", 2005)?;
    let sweepable = pbbf_experiments::sweep::sweepable_figures();
    // `--figs a,b,c` and bare positionals are the same request; the
    // flag form exists so scripts can say "these figures, one fleet"
    // in a single token. No figures at all means every sweepable one.
    let mut figures: Vec<String> = positional;
    if let Some(spec) = flags.get("figs") {
        figures.extend(parse_figs(spec)?);
    }
    if figures.is_empty() {
        figures = sweepable.iter().map(ToString::to_string).collect();
    }
    let hosts = match flags.get("hosts") {
        Some(spec) => parse_hosts(spec)?,
        None => Vec::new(),
    };
    let (remote, local) = plan_fleet(&flags, &hosts)?;
    // Every manifest is built before any fleet is spawned: a typo'd
    // figure must fail fast, not after minutes of sweeping.
    let mut manifests = Vec::with_capacity(figures.len());
    for fig in &figures {
        manifests.push(sweep_manifest(fig, &effort, seed).ok_or_else(|| {
            format!("`{fig}` is not a shardable figure (choose from {sweepable:?})")
        })?);
    }
    let queue: Vec<Vec<ShardInput>> = manifests
        .iter()
        .map(|m| {
            m.shards
                .iter()
                .map(|j| ShardInput {
                    job: serde::to_value(j),
                    expect: (j.run1 - j.run0) as usize,
                })
                .collect()
        })
        .collect();
    let total_shards: usize = queue.iter().map(Vec::len).sum();
    let opts = SweepOptions {
        workers: (remote + local).clamp(1, total_shards.max(1)),
        shard_timeout: get_secs(&flags, "shard-timeout", 120.0)?,
        liveness_timeout: get_secs(&flags, "liveness", 10.0)?,
        ..SweepOptions::default()
    };
    // Remote slots first, so remote hosts are dealt shards first.
    let endpoints = hosts
        .into_iter()
        .map(Endpoint::Remote)
        .chain(std::iter::repeat_n(Endpoint::Local, local))
        .collect();
    let factory = FleetFactory {
        endpoints,
        tcp: TcpOptions::default(),
    };
    // ONE resident fleet serves the whole queue: workers — and their
    // deployment caches — survive from figure to figure instead of
    // being respawned per sweep.
    let mut scheduler = SweepScheduler::new(opts, &factory);
    let mut slots: Vec<Vec<Option<Vec<Option<f64>>>>> = queue
        .iter()
        .map(|sweep| (0..sweep.len()).map(|_| None).collect())
        .collect();
    let stats = scheduler.run_queue(queue, exec_shard, |sweep, shard, values| {
        slots[sweep][shard] = Some(values);
    })?;
    for (i, (fig, manifest)) in figures.iter().zip(&manifests).enumerate() {
        eprintln!("pbbf sweep: {fig}: {}", stats[i]);
        let values = std::mem::take(&mut slots[i])
            .into_iter()
            .map(|s| s.expect("a completed queue settles every shard"))
            .collect();
        // Byte-identical to `reproduce`'s figure path: same renderer,
        // same println, same figure order.
        println!("{}", assemble_sweep(manifest, values).render_text());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(ToString::to_string).collect()
    }

    #[test]
    fn parse_rejects_undeclared_flags() {
        let err = parse(&argv("--worker 4"), &[val("workers")]).unwrap_err();
        assert!(err.contains("unknown flag --worker"), "{err}");
        assert!(
            err.contains("--workers"),
            "suggests the accepted set: {err}"
        );
    }

    #[test]
    fn parse_requires_values_where_declared() {
        let err = parse(&argv("--seed"), &[val("seed")]).unwrap_err();
        assert!(err.contains("--seed needs a value"), "{err}");
    }

    #[test]
    fn parse_separates_flags_and_positionals() {
        let (flags, pos) = parse(&argv("fig13 --paper fig17"), &[bare("paper")]).unwrap();
        assert_eq!(flags.get("paper").map(String::as_str), Some("true"));
        assert_eq!(pos, ["fig13", "fig17"]);
    }

    #[test]
    fn figs_parse_into_ids() {
        assert_eq!(parse_figs("fig13, fig17").unwrap(), ["fig13", "fig17"]);
        assert_eq!(parse_figs("fig18").unwrap(), ["fig18"]);
    }

    #[test]
    fn figs_with_gaps_are_rejected() {
        assert!(parse_figs("fig13,,fig17")
            .unwrap_err()
            .contains("empty entry"));
        assert!(parse_figs("").unwrap_err().contains("empty entry"));
    }

    #[test]
    fn hosts_parse_into_endpoints() {
        assert_eq!(
            parse_hosts("10.0.0.2:7801, node-b:7802").unwrap(),
            ["10.0.0.2:7801", "node-b:7802"]
        );
    }

    #[test]
    fn hosts_without_a_port_are_rejected() {
        let err = parse_hosts("10.0.0.2").unwrap_err();
        assert!(err.contains("no port"), "{err}");
    }

    #[test]
    fn hosts_with_bad_ports_or_gaps_are_rejected() {
        assert!(parse_hosts("a:70000").unwrap_err().contains("bad port"));
        assert!(parse_hosts("a:x").unwrap_err().contains("bad port"));
        assert!(parse_hosts("a:1,,b:2").unwrap_err().contains("empty entry"));
        assert!(parse_hosts(":7801").unwrap_err().contains("no host"));
    }

    #[test]
    fn fleet_defaults_to_local_threads_without_hosts() {
        let (remote, local) = plan_fleet(&HashMap::new(), &[]).unwrap();
        assert_eq!(remote, 0);
        assert_eq!(local, pbbf_parallel::max_threads());
    }

    #[test]
    fn fleet_with_hosts_defaults_to_purely_remote() {
        let hosts = ["a:1".to_string(), "b:2".to_string()];
        let (remote, local) = plan_fleet(&HashMap::new(), &hosts).unwrap();
        assert_eq!((remote, local), (2, 0));
    }

    #[test]
    fn fleet_mixes_remote_and_local_when_both_given() {
        let hosts = ["a:1".to_string()];
        let flags: HashMap<_, _> = [("workers".to_string(), "3".to_string())].into();
        assert_eq!(plan_fleet(&flags, &hosts).unwrap(), (1, 3));
    }

    #[test]
    fn zero_workers_without_hosts_is_an_error() {
        let flags: HashMap<_, _> = [("workers".to_string(), "0".to_string())].into();
        let err = plan_fleet(&flags, &[]).unwrap_err();
        assert!(err.contains("--workers >= 1"), "{err}");
        assert!(plan_fleet(&flags, &["a:1".to_string()]).is_ok());
    }

    #[test]
    fn durations_must_be_positive_and_finite() {
        for bad in ["0", "-3", "inf", "nan"] {
            let flags: HashMap<_, _> = [("liveness".to_string(), bad.to_string())].into();
            assert!(get_secs(&flags, "liveness", 10.0).is_err(), "{bad}");
        }
        let flags: HashMap<_, _> = [("liveness".to_string(), "2.5".to_string())].into();
        assert_eq!(
            get_secs(&flags, "liveness", 10.0).unwrap(),
            Duration::from_secs_f64(2.5)
        );
        let flags: HashMap<_, _> = [("liveness".to_string(), "1e300".to_string())].into();
        assert!(get_secs(&flags, "liveness", 10.0).is_err(), "past Duration");
    }

    #[test]
    fn net_delta_must_be_positive_and_finite() {
        for bad in ["0", "-1", "inf", "nan"] {
            let flags: HashMap<_, _> = [("delta".to_string(), bad.to_string())].into();
            let err = net_config(&flags).unwrap_err();
            assert!(err.contains("--delta"), "{bad}: {err}");
        }
        let flags: HashMap<_, _> = [("delta".to_string(), "16".to_string())].into();
        assert_eq!(net_config(&flags).unwrap().delta, 16.0);
    }

    #[test]
    fn counts_outside_their_range_are_rejected_not_wrapped() {
        let flag =
            |key: &str, v: &str| -> HashMap<_, _> { [(key.to_string(), v.to_string())].into() };
        // 2^32 + 5 must not wrap to 5.
        let err = get_u32(&flag("grid", "4294967301"), "grid", 25, 1).unwrap_err();
        assert!(err.contains("--grid"), "{err}");
        let err = get_u32(&flag("runs", "0"), "runs", 150, 1).unwrap_err();
        assert!(err.contains("--runs"), "{err}");
        assert_eq!(
            get_u32(&flag("grid", "4294967295"), "grid", 25, 1).unwrap(),
            u32::MAX
        );
        assert_eq!(get_u32(&flag("runs", "1"), "runs", 150, 1).unwrap(), 1);
        assert_eq!(get_u32(&flag("updates", "0"), "updates", 5, 0).unwrap(), 0);
        assert_eq!(get_u32(&HashMap::new(), "grid", 25, 1).unwrap(), 25);
    }

    #[test]
    fn net_duration_must_fit_the_simulator_clock() {
        for bad in ["0", "-5", "inf", "nan", "1e300", "2e10"] {
            let flags: HashMap<_, _> = [("duration".to_string(), bad.to_string())].into();
            let err = net_config(&flags).unwrap_err();
            assert!(err.contains("--duration"), "{bad}: {err}");
        }
        let cfg = net_config(&HashMap::new()).unwrap();
        assert_eq!((cfg.delta, cfg.duration_secs), (10.0, 500.0));
        let flags: HashMap<_, _> = [("duration".to_string(), "1e10".to_string())].into();
        assert_eq!(net_config(&flags).unwrap().duration_secs, 1e10);
    }
}
