//! Property tests for west-first adaptive routing: for any mesh shape,
//! any set of failed directed links and any (src, dst) pair, the route
//! table either walks the packet to the destination over live links
//! with only legal turns and no repeated channel state (so routes are
//! cycle-free by construction), or honestly reports the destination
//! unreachable — and with every link up the walk is minimal. The
//! column-lazy table the mesh uses under churn decides exactly as a
//! table built whole for the current link set.

use proptest::prelude::*;

use shrimp_mesh::routing::{
    turn_legal, RouteColumns, RouteDecision, RouteTable, CH_START, NUM_CHANNELS,
};
use shrimp_mesh::{Direction, MeshShape, NodeId};

/// Walks `src -> dst` through the table. Returns `Ok(hops)` on
/// delivery; panics via `Err` strings on any invariant violation.
fn walk(table: &RouteTable, shape: MeshShape, link_up: &[bool], src: NodeId, dst: NodeId) -> Result<u32, String> {
    let mut node = src;
    let mut channel = CH_START;
    let mut hops = 0u32;
    let mut seen = std::collections::HashSet::new();
    loop {
        if !seen.insert((node, channel)) {
            return Err(format!("cycle: revisited node {} channel {channel}", node.0));
        }
        match table.decide(node, channel, dst) {
            RouteDecision::Eject => {
                if node != dst {
                    return Err(format!("ejected at {} instead of {}", node.0, dst.0));
                }
                return Ok(hops);
            }
            RouteDecision::Unreachable => {
                return Err(format!("unreachable mid-walk at node {}", node.0));
            }
            RouteDecision::Forward(d) => {
                if !turn_legal(channel, d) {
                    return Err(format!("illegal turn at node {} channel {channel} -> {d:?}", node.0));
                }
                let link = node.0 as usize * 4 + d.index();
                if !link_up[link] {
                    return Err(format!("routed over dead link {} {d:?}", node.0));
                }
                node = shape.neighbor(node, d).ok_or_else(|| format!("routed off the edge at {}", node.0))?;
                channel = d.index();
                hops += 1;
                if hops > 5 * u32::from(shape.nodes()) {
                    return Err("hop bound exceeded (livelock)".into());
                }
            }
        }
    }
}

proptest! {
    /// With every link up, west-first is complete and minimal: every
    /// pair routes, and in exactly the Manhattan distance.
    #[test]
    fn all_up_routes_are_complete_and_minimal(w in 1u16..5, h in 1u16..5) {
        let shape = MeshShape::new(w, h);
        let link_up = vec![true; shape.nodes() as usize * 4];
        let table = RouteTable::build(shape, &link_up);
        for src in shape.iter_nodes() {
            for dst in shape.iter_nodes() {
                let hops = walk(&table, shape, &link_up, src, dst)
                    .map_err(TestCaseError::fail)?;
                prop_assert_eq!(hops, u32::from(shape.hops(src, dst)));
            }
        }
    }

    /// For any failed-link set, every pair either delivers over live
    /// links with legal turns and no repeated channel state, or the
    /// table says `Unreachable` up front — never a silent black hole.
    #[test]
    fn any_failed_set_is_cycle_free_and_honest(
        w in 2u16..5,
        h in 2u16..5,
        dead in prop::collection::vec(any::<u16>(), 0..12),
    ) {
        let shape = MeshShape::new(w, h);
        let mut link_up = vec![true; shape.nodes() as usize * 4];
        for d in dead {
            let node = NodeId(d % shape.nodes());
            let dir = Direction::ALL[(d / shape.nodes()) as usize % 4];
            // Links fail bidirectionally, like a cut cable.
            if let Some(peer) = shape.neighbor(node, dir) {
                link_up[node.0 as usize * 4 + dir.index()] = false;
                link_up[peer.0 as usize * 4 + dir.opposite().index()] = false;
            }
        }
        let table = RouteTable::build(shape, &link_up);
        for src in shape.iter_nodes() {
            for dst in shape.iter_nodes() {
                match table.decide(src, CH_START, dst) {
                    RouteDecision::Unreachable => {} // honest refusal: bounce + retry after repair
                    _ => {
                        walk(&table, shape, &link_up, src, dst).map_err(TestCaseError::fail)?;
                    }
                }
            }
        }
    }

    /// Over any sequence of link-state epochs, each flipping a few
    /// links and asking a few decisions (or none, so columns go stale
    /// across several epochs), the lazily built columns decide exactly
    /// as `RouteTable::build` over the current link set.
    #[test]
    fn lazy_columns_match_full_build(
        w in 1u16..5,
        h in 1u16..5,
        epochs in prop::collection::vec(
            (
                prop::collection::vec(any::<u16>(), 0..4),
                prop::collection::vec((any::<u16>(), 0usize..NUM_CHANNELS, any::<u16>()), 0..12),
            ),
            1..24,
        ),
    ) {
        let shape = MeshShape::new(w, h);
        let n = shape.nodes();
        let mut link_up = vec![true; n as usize * 4];
        let mut lazy = RouteColumns::new(shape);
        for (epoch, (flips, queries)) in epochs.into_iter().enumerate() {
            for f in flips {
                let link = f as usize % link_up.len();
                link_up[link] = !link_up[link];
            }
            let full = RouteTable::build(shape, &link_up);
            for (node, channel, dst) in queries {
                let (node, dst) = (NodeId(node % n), NodeId(dst % n));
                prop_assert_eq!(
                    lazy.decide(&link_up, epoch as u64, node, channel, dst),
                    full.decide(node, channel, dst),
                    "epoch {} node {} channel {} dst {}", epoch, node.0, channel, dst.0
                );
            }
        }
    }
}
