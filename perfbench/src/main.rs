//! Worker of the end-to-end reproduction benchmark.
//!
//! `run.py` builds this binary and `pbbf`, then starts it once per
//! measurement:
//!
//! ```text
//! perfbench-worker setup --workload W --pbbf PATH
//! perfbench-worker run --workload W --seed N --seconds S --trace 0|1 --pbbf PATH [--trace-out FILE]
//! ```
//!
//! `setup` does one fresh process's set-up for `W` and exits; `run.py`
//! times it from outside. `run` iterates `W` for at most about `S`
//! seconds (at least two iterations; it starts no iteration that would end
//! past `S`) and prints one JSON object with its raw samples. With
//! `--trace 1` it alternates untraced and traced iterations of `W`, then
//! runs one traced iteration of every other workload and the net-sim
//! probe, so a traced run reports every layer.

mod fabric_stats;
mod procfs;
mod trace;
mod workloads;

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use serde::Json;

use trace::{Scope, Tracer};
use workloads::{net_probe, Record, Seen, Workload, NAMES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = real_main(&args) {
        eprintln!("perfbench-worker: {e}");
        std::process::exit(2);
    }
}

fn flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.insert(key.to_string(), value.clone());
    }
    Ok(out)
}

fn get<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("--{key} is required"))
}

fn parse<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str) -> Result<T, String> {
    let raw = get(flags, key)?;
    raw.parse()
        .map_err(|_| format!("--{key}: cannot parse `{raw}`"))
}

fn real_main(args: &[String]) -> Result<(), String> {
    let (mode, rest) = args
        .split_first()
        .ok_or_else(|| "usage: perfbench-worker setup|run --workload W ...".to_string())?;
    let flags = flags(rest)?;
    let workload = get(&flags, "workload")?;
    if !NAMES.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}` (choose from {NAMES:?})"
        ));
    }
    let pbbf = PathBuf::from(get(&flags, "pbbf")?);
    match mode.as_str() {
        "setup" => workloads::setup_probe(workload, &pbbf),
        "run" => {
            let seed: u64 = parse(&flags, "seed")?;
            let seconds: u64 = parse(&flags, "seconds")?;
            let traced = match get(&flags, "trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
            };
            let out = run(workload, seed, Duration::from_secs(seconds), traced, &pbbf)?;
            if let Some(path) = flags.get("trace-out") {
                std::fs::write(path, serde::render_json(&out.1, false))
                    .map_err(|e| format!("write {path}: {e}"))?;
            }
            println!("{}", serde::render_json(&out.0, false));
            Ok(())
        }
        other => Err(format!("unknown mode `{other}` (setup or run)")),
    }
}

fn floats(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::F64(v)).collect())
}

/// Runs the timed loop (and, traced, the layer passes); returns the
/// samples and the span dump.
fn run(
    name: &str,
    seed: u64,
    budget: Duration,
    traced: bool,
    pbbf: &std::path::Path,
) -> Result<(Json, Json), String> {
    let tracer = Tracer::new();
    let tracer_ref = &tracer;
    let mut rec = Record::default();
    let mut seen = Seen::default();
    let mut iteration = 0u32;
    let mut scope = move |on: bool| {
        iteration += 1;
        if on {
            Scope::on(tracer_ref, iteration)
        } else {
            Scope::off()
        }
    };

    let mut workload = Workload::setup(name, seed, pbbf, scope(traced), &mut rec)?;
    let (mut walls, mut traced_walls, mut cpu_ticks) = (Vec::new(), Vec::new(), 0u64);
    // A pass that would end past the budget is not started, so a run
    // measures for about `budget` however long one iteration takes.
    let (start, mut pass) = (Instant::now(), Duration::ZERO);
    while walls.len() + traced_walls.len() < 2 || start.elapsed() + pass <= budget {
        let begun = Instant::now();
        let t = workload.iterate(scope(false), &mut rec, &mut seen);
        walls.push(t.wall_s);
        cpu_ticks += t.cpu_ticks;
        if traced {
            let t = workload.iterate(scope(true), &mut rec, &mut seen);
            traced_walls.push(t.wall_s);
        }
        pass = begun.elapsed();
    }
    let iterations = walls.len();

    if traced {
        for other in NAMES.iter().filter(|&&n| n != name) {
            let mut w = Workload::setup(other, seed, pbbf, scope(true), &mut rec)?;
            w.iterate(scope(true), &mut rec, &mut Seen::default());
        }
        net_probe(seed, scope(true), &mut rec);
    }

    let layers = rec
        .layers
        .iter()
        .map(|(k, v)| (k.clone(), floats(v)))
        .collect();
    let result = Json::Obj(vec![
        ("workload".into(), Json::Str(name.to_string())),
        ("iterations".into(), Json::U64(iterations as u64)),
        ("wall_s".into(), floats(&walls)),
        ("traced_wall_s".into(), floats(&traced_walls)),
        (
            "cpu_s".into(),
            Json::F64(cpu_ticks as f64 / procfs::TICKS_PER_SEC / iterations as f64),
        ),
        (
            "threads".into(),
            Json::U64(pbbf_parallel::max_threads() as u64),
        ),
        ("vm_hwm_kib".into(), Json::U64(procfs::peak_rss_kib()?)),
        ("checks_attempted".into(), Json::U64(rec.attempted)),
        (
            "checks_failed".into(),
            Json::Arr(rec.failed.iter().cloned().map(Json::Str).collect()),
        ),
        ("layers".into(), Json::Obj(layers)),
    ]);
    Ok((result, tracer.to_json()))
}
