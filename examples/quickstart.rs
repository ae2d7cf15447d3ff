//! Quickstart: configure PBBF, check reliability, measure the trade-off.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pbbf::prelude::*;

fn main() {
    println!("== PBBF quickstart ==\n");

    // 1. Pick protocol parameters. p = probability of forwarding a
    //    broadcast immediately; q = probability of staying awake through a
    //    sleep phase to catch immediate forwards.
    let params = PbbfParams::new(0.5, 0.5).expect("probabilities in [0, 1]");
    println!(
        "PBBF(p = {}, q = {})  ->  link-open probability p_edge = {:.3}",
        params.p(),
        params.q(),
        params.edge_probability()
    );

    // 2. Is that reliable on a 30x30 grid? Estimate the critical bond
    //    ratio with the Newman-Ziff sweep and apply Remark 1.
    let grid = Grid::square(30);
    let critical = critical_bond_ratio(grid.topology(), grid.center(), 0.99, 100, &SimRng::new(7));
    println!(
        "30x30 grid, 99% reliability: critical p_edge = {critical:.3}  ->  {}",
        if params.edge_probability() >= critical {
            "RELIABLE"
        } else {
            "below threshold"
        }
    );
    let q_min = min_q_for_reliability(params.p(), critical).expect("solvable");
    println!("minimum q at p = {}: q_min = {q_min:.3}", params.p());

    // 3. What does the operating point cost? The Table-1 closed forms.
    let table1 = AnalysisParams::table1();
    let point = analysis::analyze(&table1, params);
    println!(
        "\nanalysis at (p, q) = ({}, {}):\n  relative energy  {:.3} of always-on (Eq. 7)\n  energy increase  {:.2}x over PSM (Eq. 8)\n  per-link latency {:.2} s (Eq. 9)\n  joules/update    {:.3} J (Mica2 power)",
        params.p(),
        params.q(),
        point.relative_energy,
        point.energy_increase,
        point.link_latency,
        point.joules_per_update
    );

    // 4. Confirm by simulation: the paper's idealized simulator on a
    //    smaller grid, three seeds.
    let mut cfg = IdealConfig::table1();
    cfg.grid_side = 25;
    cfg.updates = 3;
    let sim = IdealSim::new(cfg, IdealMode::SleepScheduled(params));
    let mut delivered = Summary::new();
    let mut energy = Summary::new();
    for seed in 0..3 {
        let stats = sim.run(seed);
        delivered.record(stats.mean_delivered_fraction());
        energy.record(stats.mean_energy_per_update());
    }
    println!(
        "\nidealized simulation (25x25 grid, 3 seeds):\n  delivered fraction {:.3}\n  joules/update      {:.3} J",
        delivered.mean(),
        energy.mean()
    );
}
