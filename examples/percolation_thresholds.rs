//! Percolation analysis of PBBF reliability (the paper's Section 4.1).
//!
//! Estimates critical bond ratios for several grid sizes and reliability
//! levels with the Newman-Ziff sweep, then prints the p-q operating
//! boundary an application designer would configure against.
//!
//! ```sh
//! cargo run --release --example percolation_thresholds
//! ```

use pbbf::prelude::*;

fn main() {
    println!("== Bond percolation thresholds for PBBF (Newman-Ziff) ==\n");

    // Figure-6 style: critical bond ratio per grid size per reliability.
    let mut t = Table::new(["Grid", "80%", "90%", "99%", "100%"]);
    for side in [10u32, 20, 30, 40] {
        let grid = Grid::square(side);
        let mut cells = vec![format!("{side}x{side}")];
        for (i, rel) in [0.80, 0.90, 0.99, 1.00].iter().enumerate() {
            let base = SimRng::new(42).substream(u64::from(side) * 10 + i as u64);
            let c = critical_bond_ratio(grid.topology(), grid.center(), *rel, 150, &base);
            cells.push(format!("{c:.3}"));
        }
        t.row(cells);
    }
    println!("{}", t.render());
    println!("(The infinite square lattice's bond threshold is exactly 0.5; finite");
    println!(" grids and stricter coverage targets push the ratio upward.)\n");

    // Figure-7 style: the q(p) boundary on a 30x30 grid.
    let grid = Grid::square(30);
    let base = SimRng::new(43);
    let ps = [0.1, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0];
    let (critical, boundary) = pq_boundary(grid.topology(), grid.center(), 0.99, &ps, 150, &base);
    println!("99% reliability on 30x30: critical p_edge = {critical:.3}");
    let mut b = Table::new(["p", "q_min", "p_edge at (p, q_min)"]);
    for (p, q) in boundary {
        b.row([
            format!("{p:.3}"),
            format!("{q:.3}"),
            format!("{:.3}", 1.0 - p * (1.0 - q)),
        ]);
    }
    println!("{}", b.render());
    println!("Choose q above the boundary for your p: that is the whole contract");
    println!("PBBF offers — everything below the line risks partial dissemination.");

    // Sanity: simulate one point just above and one just below.
    let above = PbbfParams::new(
        0.75,
        (min_q_for_reliability(0.75, critical).unwrap() + 0.1).min(1.0),
    )
    .unwrap();
    let below = PbbfParams::new(
        0.75,
        (min_q_for_reliability(0.75, critical).unwrap() - 0.25).max(0.0),
    )
    .unwrap();
    let mut cfg = IdealConfig::table1();
    cfg.grid_side = 30;
    cfg.updates = 3;
    for (tag, params) in [("above", above), ("below", below)] {
        let stats = IdealSim::new(cfg, IdealMode::SleepScheduled(params)).run(7);
        println!(
            "\nsimulated {tag} the boundary: (p, q) = ({}, {:.2}) -> delivered {:.3}",
            params.p(),
            params.q(),
            stats.mean_delivered_fraction()
        );
    }
}
