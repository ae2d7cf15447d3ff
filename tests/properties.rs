//! Property-based tests on the workspace's core invariants.

use pbbf::prelude::*;
use proptest::prelude::*;

/// A valid spec line of each Monte Carlo table, as the supervisor sends
/// it: the first quick shard of fig04 (ideal), fig13 (Q) and fig17 (Δ).
fn spec_lines() -> Vec<Vec<u8>> {
    ["fig04", "fig13", "fig17"]
        .into_iter()
        .map(|figure| {
            let manifest = pbbf::experiments::sweep::sweep_manifest(figure, &Effort::quick(), 11)
                .expect("sweepable figure");
            let job = &manifest.shards[0];
            let spec = pbbf::fabric::ShardSpec {
                id: 3,
                attempt: 0,
                expect: job.reply_len() as u32,
                job: serde::to_value(job),
            };
            (serde_json::to_string(&spec).unwrap() + "\n").into_bytes()
        })
        .collect()
}

/// One token of JSON-shaped soup: structure, literals, multi-byte
/// characters, a lone byte (invalid UTF-8 included), or an escape
/// fragment — `\u` followed by up to five arbitrary hex (or nearly hex)
/// characters, or a surrogate half.
fn soup_token(rng: &mut proptest::TestRng) -> Vec<u8> {
    const PLAIN: &[&str] = &[
        "\"", "\\", "{", "}", "[", "]", ":", ",", " ", "\n", "0", "-1", "1e999", "null", "true",
        "\"id\"", "\"job\"", "é", "€", "𝄞", "\\n", "\\\"", "\\x",
    ];
    const HEXISH: &[u8] = b"0123456789abcdefABCDEF+- xg";
    let pick = |rng: &mut proptest::TestRng, n: usize| rng.below(n as u64) as usize;
    match rng.below(4) {
        0 => PLAIN[pick(rng, PLAIN.len())].as_bytes().to_vec(),
        1 => {
            let mut token = b"\\u".to_vec();
            for _ in 0..rng.below(6) {
                token.push(HEXISH[pick(rng, HEXISH.len())]);
            }
            token
        }
        2 => format!("\\u{:04x}", 0xD800 + rng.below(0x800)).into_bytes(),
        _ => vec![rng.next_u64() as u8],
    }
}

proptest! {
    /// Welford summaries match naive two-pass statistics for any input.
    #[test]
    fn summary_matches_naive(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let s: Summary = xs.iter().copied().collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.population_variance() - var).abs() < 1e-4 * (1.0 + var));
        prop_assert_eq!(s.count(), xs.len() as u64);
    }

    /// Merging summaries in any split equals one-shot accumulation.
    #[test]
    fn summary_merge_associative(
        xs in prop::collection::vec(-1e3f64..1e3, 0..100),
        ys in prop::collection::vec(-1e3f64..1e3, 0..100),
    ) {
        let mut a: Summary = xs.iter().copied().collect();
        let b: Summary = ys.iter().copied().collect();
        a.merge(&b);
        let whole: Summary = xs.iter().chain(ys.iter()).copied().collect();
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-9 * (1.0 + whole.mean().abs()));
    }

    /// The event queue pops in nondecreasing time order with FIFO ties,
    /// regardless of insertion order.
    #[test]
    fn event_queue_ordering(times in prop::collection::vec(0u64..1_000, 1..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut last_idx_at_time: Option<usize> = None;
        while let Some((t, idx)) = q.pop() {
            prop_assert!(t >= last_time);
            if t == last_time {
                if let Some(prev) = last_idx_at_time {
                    prop_assert!(idx > prev, "FIFO among simultaneous events");
                }
            } else {
                last_time = t;
            }
            last_idx_at_time = Some(idx);
        }
        prop_assert!(q.is_empty());
    }

    /// Scheduling interleaved with popping — the runner's pattern, where
    /// handlers schedule at `now` or later while the queue drains —
    /// pops exactly what a reference model ordered by
    /// `(time, insertion index)` pops. Zero delays are frequent, so
    /// ties between events scheduled before and after a pop are
    /// common.
    #[test]
    fn event_queue_interleaved_matches_model(
        ops in prop::collection::vec((0u8..4, 0usize..4), 1..400),
    ) {
        let mut q = EventQueue::new();
        let mut model: Vec<(SimTime, usize)> = Vec::new();
        let mut now = SimTime::ZERO;
        for (i, &(op, d)) in ops.iter().enumerate() {
            if op == 0 {
                let expected = model
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &key)| key)
                    .map(|(at, _)| at)
                    .map(|at| model.remove(at));
                let got = q.pop();
                prop_assert_eq!(got, expected);
                if let Some((t, _)) = got {
                    now = t;
                }
            } else {
                // Half of all schedules land exactly at `now`.
                let at = now + SimDuration::from_nanos([0, 0, 5, 10][d]);
                q.schedule(at, i);
                model.push((at, i));
            }
            prop_assert_eq!(q.len(), model.len());
        }
        model.sort_unstable();
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        prop_assert_eq!(rest, model);
    }

    /// The RNG's Bernoulli edge cases are exact and substreams reproduce.
    #[test]
    fn rng_substreams_reproducible(seed in any::<u64>(), stream in 0u64..1000) {
        let a = SimRng::new(seed).substream(stream);
        let b = SimRng::new(seed).substream(stream);
        prop_assert_eq!(a, b);
        let mut r = SimRng::new(seed);
        prop_assert!(!r.chance(0.0));
        prop_assert!(r.chance(1.0));
    }

    /// Grid topologies: degree bounds, symmetry, BFS = Manhattan.
    #[test]
    fn grid_invariants(rows in 1u32..12, cols in 1u32..12) {
        let g = Grid::new(rows, cols, 1.0);
        let t = g.topology();
        prop_assert_eq!(t.len(), (rows * cols) as usize);
        prop_assert_eq!(t.edge_count() as u32, rows * (cols - 1) + cols * (rows - 1));
        for a in t.nodes() {
            prop_assert!(t.degree(a) <= 4);
            for &b in t.neighbors(a) {
                prop_assert!(t.are_neighbors(b, a), "symmetry");
                prop_assert_eq!(g.manhattan(a, b), 1);
            }
        }
        prop_assert!(t.is_connected());
    }

    /// The spatial-hash edge builder agrees with the O(n²) reference on
    /// arbitrary point clouds — including degenerate shapes where every
    /// node lands in one grid cell (side ≪ range) and sparse ones where
    /// the cell-count cap engages (side ≫ range).
    #[test]
    fn spatial_hash_equals_brute_force(
        seed in any::<u64>(),
        n in 2usize..90,
        range in 0.5f64..40.0,
        side in 1.0f64..200.0,
    ) {
        let mut rng = SimRng::new(seed);
        let positions: Vec<Point2> = (0..n)
            .map(|_| Point2::new(rng.uniform01() * side, rng.uniform01() * side))
            .collect();
        let mut grid = unit_disk_edges(&positions, range);
        grid.sort_unstable();
        prop_assert_eq!(grid, unit_disk_edges_brute(&positions, range));
    }

    /// Same agreement when nodes sit exactly on cell boundaries (integer
    /// multiples of the range), where ties `distance == range` must be
    /// kept by both paths.
    #[test]
    fn spatial_hash_handles_boundary_ties(cols in 1u32..7, rows in 1u32..7, range in 1.0f64..20.0) {
        let mut positions = Vec::new();
        for gx in 0..cols {
            for gy in 0..rows {
                positions.push(Point2::new(f64::from(gx) * range, f64::from(gy) * range));
            }
        }
        if positions.len() < 2 {
            return Ok(());
        }
        // Whether a tie at distance == range survives rounding is decided
        // by the same f64 arithmetic in both paths — they must agree on
        // every pair either way.
        let mut grid = unit_disk_edges(&positions, range);
        grid.sort_unstable();
        prop_assert_eq!(grid, unit_disk_edges_brute(&positions, range));
    }

    /// Unit-disk deployments: edges exactly match the range predicate.
    #[test]
    fn unit_disk_edges_match_distances(seed in any::<u64>(), n in 5usize..40) {
        let mut rng = SimRng::new(seed);
        let d = RandomDeployment::in_square(n, 10.0, 40.0, &mut rng);
        let t = d.topology();
        for a in t.nodes() {
            for b in t.nodes() {
                if a < b {
                    let within = t.position(a).distance(t.position(b)) <= 10.0;
                    prop_assert_eq!(t.are_neighbors(a, b), within);
                }
            }
        }
    }

    /// p_edge = 1 − p(1−q) stays in [0, 1] and is monotone in q and
    /// antitone in p.
    #[test]
    fn edge_probability_monotonicity(
        p in 0.0f64..=1.0,
        q1 in 0.0f64..=1.0,
        q2 in 0.0f64..=1.0,
    ) {
        let params1 = PbbfParams::new(p, q1).unwrap();
        prop_assert!((0.0..=1.0).contains(&params1.edge_probability()));
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let e_lo = PbbfParams::new(p, lo).unwrap().edge_probability();
        let e_hi = PbbfParams::new(p, hi).unwrap().edge_probability();
        prop_assert!(e_hi >= e_lo - 1e-15);
    }

    /// Eq. 9 latency is within [L1, L1 + L2] and decreasing in q.
    #[test]
    fn latency_bounds_and_monotonicity(
        p in 0.0f64..=1.0,
        qa in 0.0f64..=1.0,
        qb in 0.0f64..=1.0,
        l1 in 0.1f64..5.0,
        l2 in 0.1f64..20.0,
    ) {
        let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        let lat_lo_q = analysis::expected_link_latency(p, lo, l1, l2);
        let lat_hi_q = analysis::expected_link_latency(p, hi, l1, l2);
        prop_assert!(lat_lo_q >= l1 - 1e-12 && lat_lo_q <= l1 + l2 + 1e-12);
        prop_assert!(lat_hi_q <= lat_lo_q + 1e-12, "latency falls as q rises");
    }

    /// Eq. 7/8 consistency and linearity for arbitrary schedules.
    #[test]
    fn energy_equations_consistent(
        t_active in 0.1f64..5.0,
        extra in 0.1f64..50.0,
        q in 0.0f64..=1.0,
    ) {
        let sched = SleepSchedule::new(t_active, t_active + extra).unwrap();
        let e7 = analysis::relative_energy_pbbf(&sched, q);
        let e8 = analysis::energy_increase_factor(&sched, q)
            * analysis::relative_energy_original(&sched);
        prop_assert!((e7 - e8).abs() < 1e-12);
        prop_assert!(e7 <= 1.0 + 1e-12 && e7 >= sched.duty_cycle() - 1e-12);
    }

    /// min_q inverts the reliability condition wherever it is active.
    #[test]
    fn boundary_inversion(p in 0.01f64..=1.0, pc in 0.0f64..=1.0) {
        let q = min_q_for_reliability(p, pc).unwrap();
        prop_assert!((0.0..=1.0).contains(&q));
        let pe = PbbfParams::new(p, q).unwrap().edge_probability();
        // Either the boundary is met, or it is unreachable even at q = 1
        // (impossible since pe(q=1) = 1 >= pc) or q = 0 oversatisfies.
        prop_assert!(pe >= pc - 1e-9);
    }

    /// The MAC's duplicate filter — `MacState::receive_data` over its
    /// sorted `known` ids — reports each update id fresh exactly once,
    /// however the ids are split into packets.
    #[test]
    fn duplicate_filter_no_double_fresh(
        ids in prop::collection::vec(0u64..50, 1..300),
        packet_len in 1usize..6,
        seed in any::<u64>(),
    ) {
        let params = PbbfParams::new(0.5, 0.5).unwrap();
        let mut mac = pbbf::mac::MacState::new(params, SimRng::new(seed));
        let mut seen = std::collections::HashSet::new();
        for packet in ids.chunks(packet_len) {
            let fresh: Vec<u64> = packet.iter().copied().filter(|&id| seen.insert(id)).collect();
            prop_assert_eq!(mac.receive_data(packet), fresh);
        }
        prop_assert_eq!(mac.known_updates().len(), seen.len());
    }

    /// A full idealized dissemination never records more hops than links
    /// and never records latency for undelivered nodes; delivered fraction
    /// is within [1/N, 1].
    #[test]
    fn ideal_sim_structural_invariants(seed in any::<u64>(), p in 0.0f64..=1.0, q in 0.0f64..=1.0) {
        let mut cfg = IdealConfig::table1();
        cfg.grid_side = 9;
        cfg.updates = 1;
        let params = PbbfParams::new(p, q).unwrap();
        let stats = IdealSim::new(cfg, IdealMode::SleepScheduled(params)).run(seed);
        let u = &stats.updates[0];
        let n = 81u32;
        let mut delivered = 0u32;
        for (i, r) in u.received.iter().enumerate() {
            if let Some((lat, hops)) = r {
                delivered += 1;
                prop_assert!(*lat >= 0.0);
                prop_assert!(*hops >= stats.shortest[i], "cannot beat shortest path");
            }
        }
        prop_assert!(delivered >= 1, "source always has the update");
        prop_assert!(delivered <= n);
        let frac = u.delivered_fraction();
        prop_assert!((frac - f64::from(delivered) / f64::from(n)).abs() < 1e-12);
        // Transmissions are bounded by one per delivered node.
        prop_assert!(u.total_tx() <= u64::from(delivered));
    }

    /// Active-set membership stays consistent with a brute recomputation
    /// of every node's pending work across randomized MAC event
    /// schedules — the invariant the runner's O(active) boundary
    /// handlers rest on. Ops mirror the runner's transition points
    /// (receives, source updates, frame starts, send completions), each
    /// followed by the same per-node membership refresh the runner does.
    #[test]
    fn active_sets_match_brute_pending_work(
        seed in any::<u64>(),
        p in 0.0f64..=1.0,
        ops in prop::collection::vec((0usize..12, 0u8..6, 0u64..30), 1..400),
    ) {
        let params = PbbfParams::new(p, 0.5).unwrap();
        let root = SimRng::new(seed);
        let n = 12;
        let mut macs: Vec<pbbf::mac::MacState> = (0..n)
            .map(|i| pbbf::mac::MacState::new(params, root.substream(i as u64)))
            .collect();
        let mut frame_set = ActiveSet::new(n);
        let mut window_set = ActiveSet::new(n);
        // Per-node fresh id stream for `source_update` (which rejects
        // duplicates); disjoint from the 0..30 `receive_data` ids.
        let mut next_source_id = vec![0u64; n];
        for (i, kind, id) in ops {
            let mac = &mut macs[i];
            match kind {
                0 => { let _ = mac.receive_data(&[id]); }
                1 => {
                    next_source_id[i] += 1;
                    let _ = mac.source_update(1000 + next_source_id[i]);
                }
                2 => { let _ = mac.begin_frame(); }
                3 => { mac.receive_atim(); let _ = mac.sleep_decision(); }
                4 => { if mac.has_pending_normal() { mac.mark_normal_sent(); } }
                _ => {
                    mac.announce_now();
                    if mac.has_pending_immediate() { mac.mark_immediate_sent(); }
                }
            }
            // The runner's refresh at a transition point.
            let work = macs[i].pending_work();
            frame_set.set(i, work.frame_start);
            window_set.set(i, work.window_end);

            // Brute recomputation over all nodes must agree.
            let mut sweep = Vec::new();
            frame_set.sweep(&mut sweep);
            let brute_frame: Vec<u32> = (0..n)
                .filter(|&j| macs[j].pending_work().frame_start)
                .map(|j| j as u32)
                .collect();
            prop_assert_eq!(&sweep, &brute_frame);
            window_set.sweep(&mut sweep);
            let brute_window: Vec<u32> = (0..n)
                .filter(|&j| macs[j].pending_work().window_end)
                .map(|j| j as u32)
                .collect();
            prop_assert_eq!(&sweep, &brute_window);
        }
    }

    /// Whole-run agreement for arbitrary operating points: a fresh
    /// per-run deployment vs the cached draw for the same seed.
    #[test]
    fn whole_run_equivalence_and_cache_identity(
        seed in any::<u64>(),
        p in 0.0f64..=1.0,
        q in 0.0f64..=1.0,
    ) {
        // Short but beacon-rich runs: the active-set loop on a fresh
        // draw and on the cached-deployment path must agree bit for bit.
        let mut cfg = NetConfig::table2();
        cfg.nodes = 20;
        cfg.duration_secs = 130.0;
        let sim = NetSim::new(cfg, NetMode::SleepScheduled(PbbfParams::new(p, q).unwrap()));
        let baseline = sim.run(seed);
        let drawn = NetSim::draw_deployment(&cfg, seed);
        prop_assert_eq!(&baseline, &sim.run_on(seed, &drawn));
    }

    /// Byte soup into shard-spec decoding: whatever line a peer sends, a
    /// worker's decode (`decode_spec`, the UTF-8 check and JSON parse
    /// `serve_session` runs on each line) returns `Ok` or `Err` and never
    /// panics. Debug builds check arithmetic overflow, so a bad escape
    /// that wraps a subtraction panics here too.
    #[test]
    fn spec_decoding_never_panics_on_byte_soup(seed in any::<u64>()) {
        use pbbf::fabric::worker::decode_spec;
        let valid = spec_lines();
        for line in &valid {
            prop_assert!(matches!(decode_spec(line), Ok(Some(_))), "a valid spec line");
        }
        let mut rng = proptest::TestRng::new(seed);
        for _ in 0..64 {
            let mut line: Vec<u8> = Vec::new();
            match rng.below(4) {
                // Arbitrary bytes.
                0 => line.extend((0..rng.below(48)).map(|_| rng.next_u64() as u8)),
                // Soup tokens alone.
                1 => {
                    for _ in 0..rng.below(16) {
                        line.extend(soup_token(&mut rng));
                    }
                }
                // A spec whose job is a string of soup tokens, so the
                // escape fragments are read as string content.
                2 => {
                    line.extend(br#"{"id":0,"attempt":0,"expect":1,"job":""#);
                    for _ in 0..rng.below(16) {
                        line.extend(soup_token(&mut rng));
                    }
                    line.extend(b"\"}");
                }
                // A valid line of one table with flips, insertions and
                // truncations.
                _ => {
                    line.extend(&valid[rng.below(valid.len() as u64) as usize]);
                    for _ in 0..1 + rng.below(4) {
                        let at = rng.below(line.len() as u64 + 1) as usize;
                        match rng.below(3) {
                            0 if at < line.len() => line[at] ^= 1 << rng.below(8),
                            1 => {
                                let token = soup_token(&mut rng);
                                line.splice(at..at, token);
                            }
                            _ => line.truncate(at),
                        }
                    }
                }
            }
            let decoded = std::panic::catch_unwind(|| decode_spec(&line));
            prop_assert!(
                decoded.is_ok(),
                "decoding panicked on {:?}",
                String::from_utf8_lossy(&line)
            );
        }
    }
}
