//! Integration tests spanning the workspace: analysis ↔ percolation ↔
//! simulators must tell one consistent story.

use pbbf::ideal_sim::UpdateStats;
use pbbf::prelude::*;
use proptest::prelude::*;

fn small_ideal(side: u32, updates: u32) -> IdealConfig {
    let mut c = IdealConfig::table1();
    c.grid_side = side;
    c.updates = updates;
    c
}

/// Remark 1 end to end: operating points above the percolation boundary
/// deliver (almost) everywhere in the idealized simulator; points well
/// below it do not.
#[test]
fn percolation_boundary_predicts_simulated_reliability() {
    let side = 25;
    let grid = Grid::square(side);
    let critical = critical_bond_ratio(grid.topology(), grid.center(), 0.9, 60, &SimRng::new(1));

    let p = 0.75;
    let q_min = min_q_for_reliability(p, critical).expect("solvable");

    let cfg = small_ideal(side, 4);
    let above = PbbfParams::new(p, (q_min + 0.15).min(1.0)).unwrap();
    let below = PbbfParams::new(p, (q_min - 0.3).max(0.0)).unwrap();

    let mut frac_above = Summary::new();
    let mut frac_below = Summary::new();
    for seed in 0..4 {
        frac_above.record(
            IdealSim::new(cfg, IdealMode::SleepScheduled(above))
                .run(seed)
                .mean_delivered_fraction(),
        );
        frac_below.record(
            IdealSim::new(cfg, IdealMode::SleepScheduled(below))
                .run(seed)
                .mean_delivered_fraction(),
        );
    }
    assert!(
        frac_above.mean() > 0.85,
        "above boundary must deliver: {}",
        frac_above.mean()
    );
    assert!(
        frac_below.mean() < frac_above.mean() - 0.3,
        "below boundary must lose broadcasts: {} vs {}",
        frac_below.mean(),
        frac_above.mean()
    );
}

proptest! {
    /// Eq. 8 against the idealized simulator at random `(p, q, grid, seed)`.
    ///
    /// Each update bills `B = 1/(λ·T_frame)` frames of every node's duty
    /// cycle: `billed_awake` node-frames `A` at `on` and the other
    /// `B·n − A` at `off`. `B·(off + q·(on − off))` is Eq. 8, and `A`
    /// is Binomial(`B·n`, `q`), so the run's summed count lies within
    /// 4σ of its mean. So does the run's summed `listen_only_awake`, a
    /// Binomial(`listen_only`, `q`) draw per update, against
    /// `Σ listen_only · q`. What is left of an update's energy per node
    /// after that billing and the transmission surcharge is its marginal
    /// activity: never negative, and on average over a run below
    /// 0.25 J. At q = 1 every node is reached, and energy per node is
    /// Eq. 8 plus the surcharge.
    #[test]
    fn analytic_energy_matches_ideal_simulation(
        pq in (0u8..4, 0.0f64..=1.0, 0.0f64..=1.0),
        side in 3u32..=41,
        updates in 1u32..=4,
        seed in any::<u64>(),
    ) {
        let (q_kind, p, q_uniform) = pq;
        let q = if q_kind == 0 { 1.0 } else { q_uniform };
        let cfg = small_ideal(side, updates);
        let a = cfg.analysis;
        let s = a.schedule;
        let n = f64::from(cfg.node_count());
        let params = PbbfParams::new(p, q).unwrap();
        let stats = IdealSim::new(cfg, IdealMode::SleepScheduled(params)).run(seed);
        let surcharge = |u: &UpdateStats| {
            (a.power.tx - a.power.idle) * cfg.t_packet * u.total_tx() as f64 / n
        };
        let eq8 = analysis::joules_per_update(&a, q);

        let on = a.power.idle * s.t_active() + a.power.idle * s.t_sleep();
        let off = a.power.idle * s.t_active() + a.power.sleep * s.t_sleep();
        let billing_frames = (1.0 / (a.lambda * s.t_frame())).round();
        let billing = billing_frames * (off + q * (on - off));
        prop_assert!(
            (billing - eq8).abs() <= 1e-12 * eq8,
            "q = {q}: billing {billing} vs Eq. 8 {eq8}"
        );

        let node_frames = billing_frames * n;
        let mut marginal_sum = 0.0;
        for u in &stats.updates {
            let awake = u.billed_awake as f64;
            let billed = (on * awake + off * (node_frames - awake)) / n;
            let marginal = u.energy_joules_per_node - surcharge(u) - billed;
            prop_assert!(
                marginal >= -1e-12 * u.energy_joules_per_node,
                "p = {p}, q = {q}: marginal energy {marginal:e} of {}",
                u.energy_joules_per_node
            );
            marginal_sum += marginal;
        }
        let marginal = marginal_sum / f64::from(updates);
        prop_assert!(
            marginal < 0.25,
            "p = {p}, q = {q}: run-mean marginal energy {marginal} J"
        );

        let awake: u64 = stats.updates.iter().map(|u| u.billed_awake).sum();
        let trials = f64::from(updates) * node_frames;
        let sigma = (trials * q * (1.0 - q)).sqrt();
        prop_assert!(
            (awake as f64 - trials * q).abs() <= 4.0 * sigma,
            "q = {q}: {awake} of {trials} node-frames billed awake, sigma {sigma}"
        );

        let listen_only: u64 = stats.updates.iter().map(|u| u.listen_only).sum();
        let listen_awake: u64 = stats.updates.iter().map(|u| u.listen_only_awake).sum();
        let trials = listen_only as f64;
        let sigma = (trials * q * (1.0 - q)).sqrt();
        prop_assert!(
            (listen_awake as f64 - trials * q).abs() <= 4.0 * sigma,
            "q = {q}: {listen_awake} of {listen_only} listen-only node-frames awake, \
             sigma {sigma}"
        );

        if q == 1.0 {
            for u in &stats.updates {
                prop_assert!(u.delivered_fraction() == 1.0, "q = 1 reaches every node");
                let expected = eq8 + surcharge(u);
                let error = (u.energy_joules_per_node - expected).abs() / expected;
                prop_assert!(
                    error < 1e-9,
                    "p = {p}: {} vs {expected}, relative error {error:e}",
                    u.energy_joules_per_node
                );
            }
        }
    }
}

/// Eq. 9 against the idealized simulator: per-hop latency falls with both
/// p and q, and PSM sits near one frame per hop.
#[test]
fn analytic_latency_ordering_matches_ideal_simulation() {
    let cfg = small_ideal(21, 3);
    let a = cfg.analysis;
    let l_psm = IdealSim::new(cfg, IdealMode::SleepScheduled(PbbfParams::PSM))
        .run(6)
        .mean_per_hop_latency()
        .unwrap();
    assert!(
        (l_psm - a.schedule.t_frame()).abs() < 2.0,
        "PSM per-hop ≈ T_frame: {l_psm}"
    );

    let fast = PbbfParams::new(0.75, 1.0).unwrap();
    let l_fast = IdealSim::new(cfg, IdealMode::SleepScheduled(fast))
        .run(6)
        .mean_per_hop_latency()
        .unwrap();
    assert!(
        l_fast < l_psm / 2.0,
        "immediate chains beat PSM: {l_fast} vs {l_psm}"
    );

    // The analytic ordering agrees.
    let an_psm = analysis::expected_link_latency(0.0, 0.0, a.l1, a.l2());
    let an_fast = analysis::expected_link_latency(0.75, 1.0, a.l1, a.l2());
    assert!(an_fast < an_psm);
}

/// The two simulators agree on the qualitative story at matching operating
/// points: PSM reliable & slow; high-p/low-q unreliable; high-p/high-q
/// reliable & fast.
#[test]
fn ideal_and_realistic_simulators_agree_qualitatively() {
    // Idealized.
    let cfg = small_ideal(15, 2);
    let ideal = |p: f64, q: f64, seed: u64| {
        let params = PbbfParams::new(p, q).unwrap();
        IdealSim::new(cfg, IdealMode::SleepScheduled(params))
            .run(seed)
            .mean_delivered_fraction()
    };
    // Realistic.
    let mut ncfg = NetConfig::table2();
    ncfg.duration_secs = 150.0;
    let net = |p: f64, q: f64, seed: u64| {
        let params = PbbfParams::new(p, q).unwrap();
        NetSim::new(ncfg, NetMode::SleepScheduled(params))
            .run(seed)
            .mean_delivery_ratio()
    };

    for (sim_name, f) in [
        ("ideal", &ideal as &dyn Fn(f64, f64, u64) -> f64),
        ("net", &net),
    ] {
        let psm = f(0.0, 0.0, 3);
        let bad = f(0.9, 0.0, 3);
        let good = f(0.9, 1.0, 3);
        assert!(psm > 0.8, "{sim_name}: PSM reliable ({psm})");
        assert!(
            bad < psm,
            "{sim_name}: high p / q=0 degrades ({bad} !< {psm})"
        );
        assert!(good > bad, "{sim_name}: q rescues ({good} !> {bad})");
    }
}

/// Determinism across the whole stack: same seed, same everything.
#[test]
fn full_stack_determinism() {
    let cfg = small_ideal(13, 2);
    let params = PbbfParams::new(0.5, 0.5).unwrap();
    let a = IdealSim::new(cfg, IdealMode::SleepScheduled(params)).run(77);
    let b = IdealSim::new(cfg, IdealMode::SleepScheduled(params)).run(77);
    assert_eq!(a.updates, b.updates);

    let mut ncfg = NetConfig::table2();
    ncfg.duration_secs = 100.0;
    let x = NetSim::new(ncfg, NetMode::SleepScheduled(params)).run(77);
    let y = NetSim::new(ncfg, NetMode::SleepScheduled(params)).run(77);
    assert_eq!(x.receptions, y.receptions);
    assert_eq!(x.energy_joules, y.energy_joules);
}
