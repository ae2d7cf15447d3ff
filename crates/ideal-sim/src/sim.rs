//! The idealized simulator driver.

use std::cell::RefCell;
use std::sync::Arc;

use pbbf_core::PbbfParams;
use pbbf_des::SimRng;
use pbbf_topology::{Grid, NodeId};

use crate::dissemination::{disseminate, DisseminationSetup, Scratch, Tiles};
use crate::stats::{RunStats, UpdateStats};
use crate::{IdealConfig, Mode};

/// The Section-4 simulator: a grid network under an ideal MAC/PHY running
/// either always-on flooding or a sleep-scheduled MAC with PBBF.
///
/// Construction shares the grid, built once per grid side on a thread;
/// [`IdealSim::run`] executes a seeded,
/// fully deterministic run of `config.updates` independent update
/// disseminations, and [`IdealSim::run_into`] does the same into a
/// caller's [`RunStats`], reusing its buffers.
#[derive(Debug, Clone)]
pub struct IdealSim {
    config: IdealConfig,
    mode: Mode,
    lattice: Arc<Lattice>,
}

/// What every simulator of one grid side shares: the grid, its tiles,
/// the broadcast source at its center and every node's hop distance from
/// the source.
#[derive(Debug)]
struct Lattice {
    grid: Grid,
    tiles: Tiles,
    source: NodeId,
    shortest: Vec<u32>,
}

impl Lattice {
    fn new(side: u32) -> Self {
        let grid = Grid::square(side);
        let source = grid.center();
        let shortest = grid
            .topology()
            .hop_distances(source)
            .into_iter()
            .map(|d| d.expect("grid is connected"))
            .collect();
        Self {
            tiles: Tiles::new(&grid),
            grid,
            source,
            shortest,
        }
    }

    /// The lattice of grid side `side`, built on this thread at most once
    /// in a row: an ideal-table shard builds a simulator per point, and a
    /// thread runs shard after shard of one grid side, so they share one
    /// lattice. The thread keeps only the last side it built, so a
    /// worker fed many grid sides holds one lattice per thread.
    fn shared(side: u32) -> Arc<Self> {
        thread_local! {
            static LAST: RefCell<Option<Arc<Lattice>>> = const { RefCell::new(None) };
        }
        LAST.with(|last| {
            let mut last = last.borrow_mut();
            match &*last {
                Some(lattice) if lattice.grid.rows() == side => Arc::clone(lattice),
                _ => Arc::clone(last.insert(Arc::new(Self::new(side)))),
            }
        })
    }
}

impl IdealSim {
    /// Builds a simulator. The broadcast source is the grid-center node,
    /// as in the paper.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero grid side).
    #[must_use]
    pub fn new(config: IdealConfig, mode: Mode) -> Self {
        Self {
            config,
            mode,
            lattice: Lattice::shared(config.grid_side),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &IdealConfig {
        &self.config
    }

    /// The protocol mode.
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The broadcast source (grid center).
    #[must_use]
    pub fn source(&self) -> NodeId {
        self.lattice.source
    }

    /// Runs `config.updates` disseminations; fully determined by `seed`.
    #[must_use]
    pub fn run(&self, seed: u64) -> RunStats {
        let mut stats = RunStats::default();
        self.run_into(seed, &mut stats);
        stats
    }

    /// The run [`run`](Self::run) makes of `seed`, written into `stats`,
    /// whatever run of whichever simulator filled it before: its
    /// `shortest`, `source` and update count are overwritten, and its
    /// reception records are refilled in place. A caller running many
    /// seeds through one `RunStats` allocates its records once; each
    /// run allocates only the frame loop's working state, once for all
    /// its updates.
    pub fn run_into(&self, seed: u64, stats: &mut RunStats) {
        stats.shortest.clone_from(&self.lattice.shortest);
        stats.source = self.lattice.source;
        let count = self.config.updates as usize;
        stats.updates.truncate(count);
        stats.updates.resize_with(count, UpdateStats::default);
        let root = SimRng::new(seed);
        let mut scratch = Scratch::default();
        for (u, update) in stats.updates.iter_mut().enumerate() {
            let mut rng = root.substream(u as u64);
            let received = std::mem::take(&mut update.received);
            *update = match self.mode {
                Mode::AlwaysOn => self.run_always_on(received),
                Mode::Gossip {
                    forward_probability,
                } => self.run_gossip(forward_probability, &mut rng, received),
                Mode::SleepScheduled(params) => {
                    self.run_sleep_scheduled(params, &rng, &mut scratch, received)
                }
            };
        }
    }

    /// One update under the sleep-scheduled MAC: the frame loop, billed
    /// `1/(λ·T_frame)` frames of duty cycle.
    fn run_sleep_scheduled(
        &self,
        params: PbbfParams,
        rng: &SimRng,
        scratch: &mut Scratch,
        mut received: Vec<Option<(f64, u32)>>,
    ) -> UpdateStats {
        let a = &self.config.analysis;
        let billing_frames = self.config.billing_frames() as u32;
        let setup = DisseminationSetup {
            params,
            schedule: a.schedule,
            power: a.power,
            l1: a.l1,
            t_packet: self.config.t_packet,
            billing_frames,
            max_frames: self.config.max_frames_per_update,
        };
        let lattice = &*self.lattice;
        let d = disseminate(
            &lattice.tiles,
            lattice.source,
            &setup,
            rng,
            scratch,
            &mut received,
        );
        UpdateStats {
            received,
            energy_joules_per_node: d.energy_joules / lattice.grid.topology().len() as f64,
            immediate_tx: d.immediate_tx,
            normal_tx: d.normal_tx,
            deferred_immediates: d.deferred_immediates,
            frames_used: d.frames_used,
            coins_evaluated: d.coins_evaluated,
            billed_awake: d.billed_awake,
            listen_only: d.listen_only,
            listen_only_awake: d.listen_only_awake,
            batches: d.batches,
            tiles_visited: d.tiles_visited,
        }
    }

    /// Gossip-based flooding ([5] of the paper): radios always on; each
    /// node, on first reception, rebroadcasts with probability `g` or
    /// stays silent for this update — **site** percolation, the model the
    /// paper's Section 2 contrasts with PBBF's bond percolation. The
    /// source always transmits.
    fn run_gossip(
        &self,
        g: f64,
        rng: &mut SimRng,
        mut received: Vec<Option<(f64, u32)>>,
    ) -> UpdateStats {
        assert!(
            (0.0..=1.0).contains(&g),
            "forward probability {g} outside [0, 1]"
        );
        let topo = self.lattice.grid.topology();
        let source = self.lattice.source;
        let a = &self.config.analysis;
        let per_hop = a.l1 + self.config.t_packet;
        let n = topo.len();
        received.clear();
        received.resize(n, None);
        received[source.index()] = Some((0.0, 0));
        let mut tx = 0u64;
        // BFS through forwarders; non-forwarders receive but do not extend.
        let mut frontier = vec![source];
        let mut depth = 0u32;
        while !frontier.is_empty() {
            depth += 1;
            let mut next = Vec::new();
            for &node in &frontier {
                tx += 1;
                for &nb in topo.neighbors(node) {
                    if received[nb.index()].is_some() {
                        continue;
                    }
                    received[nb.index()] = Some((f64::from(depth) * per_hop, depth));
                    if rng.chance(g) {
                        next.push(nb);
                    }
                }
            }
            frontier = next;
        }
        let energy_per_node = a.power.idle / a.lambda
            + (a.power.tx - a.power.idle) * self.config.t_packet * tx as f64 / n as f64;
        UpdateStats {
            received,
            energy_joules_per_node: energy_per_node,
            immediate_tx: tx,
            normal_tx: 0,
            deferred_immediates: 0,
            frames_used: 0,
            coins_evaluated: 0,
            billed_awake: 0,
            listen_only: 0,
            listen_only_awake: 0,
            batches: 0,
            tiles_visited: 0,
        }
    }

    /// `NO PSM`: every radio is always on and every reception is forwarded
    /// immediately — a deterministic flood along BFS order, with per-hop
    /// latency `L1 + t_packet` and always-on idle energy.
    fn run_always_on(&self, mut received: Vec<Option<(f64, u32)>>) -> UpdateStats {
        let n = self.lattice.shortest.len();
        let a = &self.config.analysis;
        let per_hop = a.l1 + self.config.t_packet;
        received.clear();
        received.extend(
            self.lattice
                .shortest
                .iter()
                .map(|&d| Some((f64::from(d) * per_hop, d))),
        );
        // Every node except leaves-with-no-fresh-neighbors transmits once
        // in a flood; in the worst (and standard flooding) case all N
        // transmit.
        let tx = n as u64;
        let energy_per_node = a.power.idle / a.lambda
            + (a.power.tx - a.power.idle) * self.config.t_packet * tx as f64 / n as f64;
        UpdateStats {
            received,
            energy_joules_per_node: energy_per_node,
            immediate_tx: tx,
            normal_tx: 0,
            deferred_immediates: 0,
            frames_used: 0,
            coins_evaluated: 0,
            billed_awake: 0,
            listen_only: 0,
            listen_only_awake: 0,
            batches: 0,
            tiles_visited: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_config(side: u32, updates: u32) -> IdealConfig {
        let mut c = IdealConfig::table1();
        c.grid_side = side;
        c.updates = updates;
        c
    }

    #[test]
    fn psm_delivers_everything_deterministically() {
        let sim = IdealSim::new(small_config(11, 3), Mode::SleepScheduled(PbbfParams::PSM));
        let stats = sim.run(1);
        for u in &stats.updates {
            assert!(u.received.iter().all(Option::is_some));
            assert_eq!(u.immediate_tx, 0);
            // Every node transmits a normal broadcast exactly once.
            assert_eq!(u.normal_tx, 121);
        }
    }

    proptest! {
        #[test]
        fn psm_latency_is_frame_per_hop(side in 3u32..=41, seed in any::<u64>()) {
            // PSM: source announces in frame 0 (generated mid-window) and
            // transmits at T_active + L1 + t_pkt; each later hop costs
            // exactly one frame.
            let cfg = small_config(side, 1);
            let sim = IdealSim::new(cfg, Mode::SleepScheduled(PbbfParams::PSM));
            let stats = sim.run(seed);
            let a = cfg.analysis;
            let first_hop =
                a.schedule.t_active() + a.l1 + cfg.t_packet - 0.5 * a.schedule.t_active();
            let u = &stats.updates[0];
            prop_assert!(u.coins_evaluated == 0, "q = 0 fixes every coin");
            for (i, r) in u.received.iter().enumerate() {
                let Some((latency, hops)) = *r else {
                    return Err(format!("node {i} not reached"));
                };
                let d = stats.shortest[i];
                prop_assert!(hops == d, "PSM travels shortest paths: node {i}");
                if d > 0 {
                    let expected = first_hop + f64::from(d - 1) * a.schedule.t_frame();
                    prop_assert!(
                        (latency - expected).abs() < 1e-9,
                        "node {i} at d={d}: {latency} vs {expected}"
                    );
                }
            }
        }

        #[test]
        fn always_on_floods_at_l1_per_hop(side in 3u32..=41, seed in any::<u64>()) {
            let cfg = small_config(side, 2);
            let sim = IdealSim::new(cfg, Mode::AlwaysOn);
            let stats = sim.run(seed);
            let per_hop = cfg.analysis.l1 + cfg.t_packet;
            for u in &stats.updates {
                prop_assert!(u.coins_evaluated == 0, "always-on has no coins");
                for (i, r) in u.received.iter().enumerate() {
                    let Some((latency, hops)) = *r else {
                        return Err(format!("node {i} not reached"));
                    };
                    prop_assert!(hops == stats.shortest[i], "node {i} off its shortest path");
                    prop_assert!((latency - f64::from(hops) * per_hop).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn coins_are_counted_only_where_they_are_random() {
        let cfg = small_config(15, 2);
        let run = |mode: Mode| IdealSim::new(cfg, mode).run(9);
        let pbbf = |p, q| Mode::SleepScheduled(PbbfParams::new(p, q).unwrap());
        let (n, billing_frames) = (225u64, 10u64);
        // Fixed coins hash nothing and bill every node-frame asleep or
        // awake, the listen-only ones too; the modes without a duty cycle
        // bill none and count no listen-only frame.
        for (mode, all_awake) in [
            (pbbf(0.5, 0.0), false),
            (pbbf(0.5, 1.0), true),
            (Mode::SleepScheduled(PbbfParams::PSM), false),
        ] {
            for u in &run(mode).updates {
                assert_eq!(u.coins_evaluated, 0, "{mode:?}");
                let (billed, listen_awake) = if all_awake {
                    (billing_frames * n, u.listen_only)
                } else {
                    (0, 0)
                };
                assert_eq!(u.billed_awake, billed, "{mode:?}");
                assert_eq!(u.listen_only_awake, listen_awake, "{mode:?}");
            }
        }
        // PSM announces every broadcast, so its listen-only count is
        // positive.
        let psm = run(Mode::SleepScheduled(PbbfParams::PSM));
        assert!(psm.updates.iter().all(|u| u.listen_only > 0));
        let gossip = Mode::Gossip {
            forward_probability: 0.5,
        };
        for mode in [Mode::AlwaysOn, gossip] {
            for u in &run(mode).updates {
                let counts = (u.coins_evaluated, u.billed_awake, u.listen_only);
                let work = (u.listen_only_awake, u.batches, u.tiles_visited);
                assert_eq!((counts, work), ((0, 0, 0), (0, 0, 0)), "{mode:?}");
            }
        }
        // 0 < q < 1: the coins the flood read, those of each immediate
        // forward's candidates and of each first-level forwarder. Billing
        // hashes none: its awake count is one Binomial(B·n, q) draw, and
        // the listen-only count one Binomial(L, q) draw.
        let q = 0.5;
        let node_frames = (billing_frames * n) as f64;
        let z =
            |awake: u64, trials: f64| (awake as f64 - trials * q) / (trials * q * (1.0 - q)).sqrt();
        for u in &run(pbbf(0.5, q)).updates {
            assert!(u.coins_evaluated > 0, "the flood reads coins");
            let billed = z(u.billed_awake, node_frames);
            assert!(
                billed.abs() < 4.0,
                "{} billed awake, z = {billed:.2}",
                u.billed_awake
            );
            let listen = z(u.listen_only_awake, u.listen_only as f64);
            assert!(
                listen.abs() < 4.0,
                "{} of {} listen-only awake, z = {listen:.2}",
                u.listen_only_awake,
                u.listen_only
            );
        }
    }

    #[test]
    fn batches_are_normal_frames_plus_chain_levels() {
        // A 15×15 grid is 2×2 tiles, so a batch visits 1 to 4 of them.
        let cfg = small_config(15, 3);
        let run = |params: PbbfParams| IdealSim::new(cfg, Mode::SleepScheduled(params)).run(10);
        // PSM has no immediate forwards: one batch per frame it ran.
        for u in &run(PbbfParams::PSM).updates {
            assert_eq!(u.batches, u64::from(u.frames_used));
            assert!((u.batches..=4 * u.batches).contains(&u.tiles_visited));
        }
        // Always forwarding immediately to always-awake nodes, the source
        // starts a chain in frame 0, one level per hop until the frame is
        // full: then the deferred forwards open the next frame with a
        // normal batch, and their receivers chain on.
        for u in &run(PbbfParams::new(1.0, 1.0).unwrap()).updates {
            assert_eq!(u.normal_tx, u.deferred_immediates);
            assert!(u.batches > 2 * u64::from(u.frames_used));
            assert!((u.batches..=4 * u.batches).contains(&u.tiles_visited));
        }
    }

    /// The flood's work on a seeded run at the paper's grid and p = q =
    /// 0.5, as exact counts: a change that visits more tiles, runs more
    /// batches or frames, or reads more coins fails here, where a timing
    /// would only drift.
    #[test]
    fn flood_work_at_the_paper_grid_is_pinned() {
        let params = PbbfParams::new(0.5, 0.5).unwrap();
        let stats = IdealSim::new(small_config(75, 5), Mode::SleepScheduled(params)).run(3);
        let total = |count: fn(&UpdateStats) -> u64| stats.updates.iter().map(count).sum::<u64>();
        let work = (
            total(|u| u64::from(u.frames_used)),
            total(|u| u.batches),
            total(|u| u.tiles_visited),
            total(|u| u.coins_evaluated),
        );
        assert_eq!(work, (148, 660, 10_058, 24_113));
    }

    #[test]
    fn simulators_share_the_last_grid_built_on_their_thread() {
        let pbbf = Mode::SleepScheduled(PbbfParams::new(0.5, 0.5).unwrap());
        let sim = |side| IdealSim::new(small_config(side, 1), pbbf);
        let (a, b) = (sim(13), sim(13));
        assert!(Arc::ptr_eq(&a.lattice, &b.lattice));
        // A thread keeps one side: after another side, the first is
        // built anew, while the simulators holding it keep it.
        let c = sim(15);
        assert!(!Arc::ptr_eq(&a.lattice, &c.lattice));
        let d = sim(13);
        assert!(!Arc::ptr_eq(&a.lattice, &d.lattice));
        assert_eq!((a.run(3), c.run(3)), (d.run(3), sim(15).run(3)));
    }

    #[test]
    fn run_into_overwrites_a_used_run_stats() {
        // Each run lands in a `RunStats` another grid side, update count
        // or mode left behind, and must equal a fresh `run`.
        let pbbf = Mode::SleepScheduled(PbbfParams::new(0.5, 0.5).unwrap());
        let mut stats = IdealSim::new(small_config(21, 5), Mode::AlwaysOn).run(1);
        for (side, updates, mode, seed) in [
            (13, 3, pbbf, 2),
            (17, 4, Mode::SleepScheduled(PbbfParams::PSM), 3),
            (
                9,
                2,
                Mode::Gossip {
                    forward_probability: 0.7,
                },
                4,
            ),
            (13, 6, pbbf, 5),
            (25, 1, pbbf, 6),
            (21, 5, Mode::AlwaysOn, 7),
        ] {
            let sim = IdealSim::new(small_config(side, updates), mode);
            sim.run_into(seed, &mut stats);
            assert_eq!(
                stats,
                sim.run(seed),
                "side {side}, {updates} updates, {mode:?}"
            );
        }
    }

    #[test]
    fn always_on_energy_matches_analysis() {
        let cfg = small_config(9, 1);
        let sim = IdealSim::new(cfg, Mode::AlwaysOn);
        let stats = sim.run(4);
        let expected = pbbf_core::analysis::joules_per_update_always_on(&cfg.analysis);
        let got = stats.updates[0].energy_joules_per_node;
        // Transmission surcharge is tiny but positive.
        assert!(got >= expected);
        assert!((got - expected) < 0.01, "{got} vs {expected}");
    }

    #[test]
    fn psm_energy_tracks_eq8_baseline() {
        let cfg = small_config(15, 2);
        let sim = IdealSim::new(cfg, Mode::SleepScheduled(PbbfParams::PSM));
        let stats = sim.run(5);
        let baseline = pbbf_core::analysis::joules_per_update(&cfg.analysis, 0.0);
        for u in &stats.updates {
            // Baseline plus a small marginal activity term (two listen
            // intervals of ~L1 + t_pkt per node per update, at 30 mW).
            assert!(u.energy_joules_per_node > baseline);
            assert!(
                u.energy_joules_per_node < baseline + 0.2,
                "{} vs baseline {}",
                u.energy_joules_per_node,
                baseline
            );
        }
    }

    #[test]
    fn pbbf_energy_grows_linearly_in_q_and_ignores_p() {
        let cfg = small_config(15, 3);
        let mut means = Vec::new();
        for (p, q) in [(0.25, 0.2), (0.75, 0.2), (0.25, 0.8), (0.75, 0.8)] {
            let sim = IdealSim::new(cfg, Mode::SleepScheduled(PbbfParams::new(p, q).unwrap()));
            let stats = sim.run(6);
            means.push(stats.mean_energy_per_update());
        }
        // Same q, different p: close (the only p-dependence is marginal
        // activity energy, which shrinks when high p kills the broadcast).
        assert!((means[0] - means[1]).abs() / means[0] < 0.15);
        assert!((means[2] - means[3]).abs() / means[2] < 0.08);
        // Larger q costs much more.
        assert!(means[2] > means[0] * 2.0);
    }

    #[test]
    fn high_p_low_q_loses_updates() {
        // p = 0.75, q = 0: p_edge = 0.25, far below the bond threshold;
        // the broadcast dies near the source.
        let sim = IdealSim::new(
            small_config(21, 4),
            Mode::SleepScheduled(PbbfParams::new(0.75, 0.0).unwrap()),
        );
        let stats = sim.run(7);
        let mean = stats.mean_delivered_fraction();
        assert!(mean < 0.3, "delivered {mean}");
    }

    #[test]
    fn high_p_high_q_delivers_fast() {
        let cfg = small_config(15, 3);
        let fast = IdealSim::new(
            cfg,
            Mode::SleepScheduled(PbbfParams::new(0.75, 1.0).unwrap()),
        );
        let slow = IdealSim::new(cfg, Mode::SleepScheduled(PbbfParams::PSM));
        let f = fast.run(8);
        let s = slow.run(8);
        assert!((f.mean_delivered_fraction() - 1.0).abs() < 1e-12);
        assert!(
            f.mean_per_hop_latency().unwrap() < s.mean_per_hop_latency().unwrap() / 2.0,
            "immediate chains should beat one-hop-per-frame PSM"
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let sim = IdealSim::new(
            small_config(13, 3),
            Mode::SleepScheduled(PbbfParams::new(0.5, 0.5).unwrap()),
        );
        let a = sim.run(99);
        let b = sim.run(99);
        assert_eq!(a.updates.len(), b.updates.len());
        for (x, y) in a.updates.iter().zip(&b.updates) {
            assert_eq!(x.received, y.received);
            assert_eq!(x.immediate_tx, y.immediate_tx);
        }
        let c = sim.run(100);
        assert!(
            a.updates
                .iter()
                .zip(&c.updates)
                .any(|(x, y)| x.received != y.received),
            "different seeds should differ"
        );
    }

    #[test]
    fn deferred_immediates_become_normals() {
        // Immediate forwards chain within a frame: with L1 = 1.5 s in a
        // 9 s data phase, chains of ~6 hops defer the rest; the stats
        // record them.
        let sim = IdealSim::new(
            small_config(25, 2),
            Mode::SleepScheduled(PbbfParams::new(1.0, 1.0).unwrap()),
        );
        let stats = sim.run(11);
        let total_deferred: u64 = stats.updates.iter().map(|u| u.deferred_immediates).sum();
        assert!(
            total_deferred > 0,
            "long grids must overflow the data phase"
        );
        // Everything still arrives (p_edge = 1).
        assert!((stats.mean_delivered_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gossip_shows_site_percolation_threshold() {
        // Site percolation on the square lattice has threshold ~0.593:
        // gossip at g = 0.3 dies near the source; g = 0.9 blankets the
        // grid (bimodal behavior of the paper's [5]).
        let cfg = small_config(21, 4);
        let low = IdealSim::new(
            cfg,
            Mode::Gossip {
                forward_probability: 0.3,
            },
        );
        let high = IdealSim::new(
            cfg,
            Mode::Gossip {
                forward_probability: 0.9,
            },
        );
        let frac_low = low.run(13).mean_delivered_fraction();
        let frac_high = high.run(13).mean_delivered_fraction();
        assert!(frac_low < 0.4, "subcritical gossip dies: {frac_low}");
        assert!(
            frac_high > 0.9,
            "supercritical gossip blankets: {frac_high}"
        );
    }

    #[test]
    fn gossip_at_one_equals_flooding() {
        let cfg = small_config(11, 2);
        let gossip = IdealSim::new(
            cfg,
            Mode::Gossip {
                forward_probability: 1.0,
            },
        )
        .run(14);
        let flood = IdealSim::new(cfg, Mode::AlwaysOn).run(14);
        assert!((gossip.mean_delivered_fraction() - 1.0).abs() < 1e-12);
        for (g, f) in gossip.updates[0]
            .received
            .iter()
            .zip(&flood.updates[0].received)
        {
            assert_eq!(g.unwrap().1, f.unwrap().1, "same hop counts as flooding");
        }
    }
}
