//! Regenerates every table and figure of the paper and writes them under
//! `results/` (text + CSV).
//!
//! ```sh
//! # quick shapes (seconds):
//! cargo run --release --example reproduce_paper
//! # full paper-scale methodology (minutes):
//! cargo run --release --example reproduce_paper -- --paper
//! # one exhibit:
//! cargo run --release --example reproduce_paper -- fig13
//! ```

use std::fs;
use std::time::Instant;

use pbbf::experiments::run_exhibits;
use pbbf::experiments::sweep::run_in_process;
use pbbf::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paper_scale = args.iter().any(|a| a == "--paper");
    let effort = if paper_scale {
        Effort::paper()
    } else {
        Effort::quick()
    };
    let only: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let exhibits: Vec<Experiment> = Experiment::all()
        .into_iter()
        .filter(|exp| only.is_empty() || only.contains(&exp.id()))
        .collect();

    fs::create_dir_all("results").expect("create results dir");
    println!(
        "Regenerating the paper's exhibits at {} effort...\n",
        if paper_scale { "PAPER" } else { "QUICK" }
    );

    // One plan: each Monte Carlo table runs once, however many of its
    // figures are asked for, so the time is the whole request's.
    let t0 = Instant::now();
    let outputs = run_exhibits(&exhibits, &effort, 2005, run_in_process).expect("a preset effort");
    let secs = t0.elapsed().as_secs_f64();
    for (exp, out) in exhibits.iter().zip(&outputs) {
        let text = out.render_text();
        println!("{text}");
        fs::write(format!("results/{}.txt", exp.id()), &text).expect("write text");
        fs::write(format!("results/{}.csv", exp.id()), out.to_csv()).expect("write csv");
        println!("[{} -> results/{}.{{txt,csv}}]\n", exp.id(), exp.id());
    }
    println!("All requested exhibits regenerated in {secs:.1} s and written to results/.");
}
