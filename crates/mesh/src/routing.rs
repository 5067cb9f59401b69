//! West-first turn-model adaptive routing over a dynamic link set.
//!
//! Dimension-order routing (X then Y) is deadlock-free but has exactly
//! one path per (src, dst) pair: a single dead link severs every pair
//! routed over it. This module supplies the replacement used while link
//! churn is armed: **west-first routing** (Glass & Ni), the turn model
//! that prohibits the two turns *into* the west direction (N→W and S→W)
//! plus 180° U-turns. Any packet makes all of its westward hops first —
//! in a contiguous prefix starting at injection — and may then route
//! fully adaptively (including non-minimal detours around dead links)
//! among {E, N, S}.
//!
//! # Why this is deadlock-free
//!
//! A cycle of channel-wait dependencies in a 2-D mesh must contain at
//! least one turn into the west direction in each rotational sense;
//! west-first prohibits both (N→W and S→W), so the channel dependency
//! graph is acyclic for *any* subset of live links — including the
//! subsets churn creates — and for non-minimal routes. No reachable
//! configuration of full buffers can wait on itself.
//!
//! # Why this is livelock-free
//!
//! Routes come from a table whose per-destination columns are built for
//! a link-state epoch by breadth-first search over the *channel graph*:
//! the states `(router, last hop direction)` plus an injection state,
//! with an edge per legal live turn. Each table entry steps to a state
//! whose BFS distance is exactly one smaller, so every hop strictly
//! decreases the remaining distance and a routed packet reaches its
//! destination in at most `5 * nodes` hops — it cannot revisit a
//! channel.
//!
//! # Incompleteness is real, and handled elsewhere
//!
//! West-first cannot always reach a destination even when the
//! underlying graph is connected: a packet needing a westward hop that
//! finds its west link dead cannot detour north-then-west (N→W is
//! prohibited — allowing it is what would re-admit deadlock). Such
//! packets get [`RouteDecision::Unreachable`] and the mesh bounces them
//! back to their source NIC, whose go-back-N engine retries after the
//! link heals. Churn schedules always repair, so delivery is eventual.

use std::collections::VecDeque;

use crate::topology::{Direction, MeshShape, NodeId};

/// Channel index for a packet sitting in its injection port (no hops
/// taken yet). Direction channels use [`Direction::index`] (0..4).
pub const CH_START: usize = 4;
/// Channel states per router: four last-hop directions plus injection.
pub const NUM_CHANNELS: usize = 5;

const EJECT: u8 = 4;
const UNREACHABLE: u8 = 5;

/// What the table tells a router to do with a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteDecision {
    /// The packet is at its destination.
    Eject,
    /// Forward over the (live) link in this direction.
    Forward(Direction),
    /// No legal west-first path exists under the current link set;
    /// bounce the packet back to its source for retransmission.
    Unreachable,
}

/// True when a packet whose last hop was `last` (a channel index) may
/// next move in direction `d` under the west-first turn model.
#[must_use]
pub fn turn_legal(last: usize, d: Direction) -> bool {
    if last == CH_START {
        return true;
    }
    let last = Direction::ALL[last];
    // No 180° U-turns, and no turning (back) into west: west hops are
    // only legal while the packet has done nothing but west hops.
    d != last.opposite() && (d != Direction::West || last == Direction::West)
}

/// Routing table: for every (destination, router, arrival channel) the
/// next hop, pre-validated against the live link set its destination
/// column was built from.
#[derive(Debug)]
pub struct RouteTable {
    shape: MeshShape,
    /// `[dst][node][channel]`, entries 0..4 = Direction index, or
    /// `EJECT` / `UNREACHABLE`.
    next: Vec<u8>,
    /// Per-node-channel BFS distance, reused by every column build.
    dist: Vec<u32>,
    queue: VecDeque<(usize, usize)>,
}

impl RouteTable {
    /// Builds the table for `shape` with `link_up[node * 4 + dir]`
    /// giving each directed link's state. Deterministic: a pure
    /// function of its arguments.
    #[must_use]
    pub fn build(shape: MeshShape, link_up: &[bool]) -> Self {
        let mut table = RouteTable::unbuilt(shape);
        for dst in 0..shape.nodes() as usize {
            table.build_column(link_up, dst);
        }
        table
    }

    fn unbuilt(shape: MeshShape) -> Self {
        let n = shape.nodes() as usize;
        RouteTable {
            shape,
            next: vec![UNREACHABLE; n * n * NUM_CHANNELS],
            dist: vec![u32::MAX; n * NUM_CHANNELS],
            queue: VecDeque::new(),
        }
    }

    /// (Re)builds the column of routes towards `dst` from `link_up`.
    fn build_column(&mut self, link_up: &[bool], dst: usize) {
        let shape = self.shape;
        let n = shape.nodes() as usize;
        assert_eq!(link_up.len(), n * 4, "one state per directed link");
        let table = &mut self.next[dst * n * NUM_CHANNELS..(dst + 1) * n * NUM_CHANNELS];
        let dist = &mut self.dist;
        let queue = &mut self.queue;
        table.fill(UNREACHABLE);
        dist.fill(u32::MAX);
        queue.clear();
        // A packet at its destination ejects no matter how it got
        // there — the coord check is on the node, not the path.
        for ch in 0..NUM_CHANNELS {
            dist[dst * NUM_CHANNELS + ch] = 0;
            table[dst * NUM_CHANNELS + ch] = EJECT;
            queue.push_back((dst, ch));
        }
        // Backward BFS over the channel graph. Popping state
        // (m, mch) — "at m, last hop was ALL[mch]" — its forward
        // predecessors are the states (p, pch) at the node p one
        // hop against ALL[mch], for every channel pch allowed to
        // turn into ALL[mch], provided the p→m link is up.
        while let Some((m, mch)) = queue.pop_front() {
            if mch == CH_START {
                continue; // nothing moves a packet *into* injection
            }
            let d = Direction::ALL[mch];
            let Some(p) = shape.neighbor(NodeId(m as u16), d.opposite()) else {
                continue;
            };
            let p = p.0 as usize;
            if !link_up[p * 4 + mch] {
                continue;
            }
            for pch in 0..NUM_CHANNELS {
                if !turn_legal(pch, d) || dist[p * NUM_CHANNELS + pch] != u32::MAX {
                    continue;
                }
                dist[p * NUM_CHANNELS + pch] = dist[m * NUM_CHANNELS + mch] + 1;
                table[p * NUM_CHANNELS + pch] = mch as u8;
                queue.push_back((p, pch));
            }
        }
    }

    /// The routing decision for a packet on `channel` at `node` bound
    /// for `dst`.
    #[must_use]
    pub fn decide(&self, node: NodeId, channel: usize, dst: NodeId) -> RouteDecision {
        let nodes = self.shape.nodes() as usize;
        let idx = (dst.0 as usize * nodes + node.0 as usize) * NUM_CHANNELS + channel;
        match self.next[idx] {
            EJECT => RouteDecision::Eject,
            UNREACHABLE => RouteDecision::Unreachable,
            d => RouteDecision::Forward(Direction::ALL[d as usize]),
        }
    }
}

/// West-first routes over a link set that changes by epochs, built one
/// destination column at a time and only when a decision needs it.
///
/// Each column remembers the link-state epoch it was built in and is
/// rebuilt by [`RouteTable`]'s BFS when asked in a later one. A column
/// depends only on the link set, so every decision equals
/// `RouteTable::build(shape, link_up).decide(..)` for the current
/// `link_up` — provided the caller bumps `epoch` on every change to it.
/// Under churn most epochs route to few destinations, so this builds
/// those columns instead of the whole table.
#[derive(Debug)]
pub struct RouteColumns {
    table: RouteTable,
    /// Epoch each destination's column was last built in.
    built_in: Vec<Option<u64>>,
}

impl RouteColumns {
    /// An empty table for `shape`; no column is built yet.
    #[must_use]
    pub fn new(shape: MeshShape) -> Self {
        RouteColumns {
            table: RouteTable::unbuilt(shape),
            built_in: vec![None; shape.nodes() as usize],
        }
    }

    /// The routing decision for a packet on `channel` at `node` bound
    /// for `dst`, under the link set `link_up` of link-state `epoch`.
    pub fn decide(
        &mut self,
        link_up: &[bool],
        epoch: u64,
        node: NodeId,
        channel: usize,
        dst: NodeId,
    ) -> RouteDecision {
        let col = dst.0 as usize;
        if self.built_in[col] != Some(epoch) {
            self.table.build_column(link_up, col);
            self.built_in[col] = Some(epoch);
        }
        self.table.decide(node, channel, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_up(shape: MeshShape) -> Vec<bool> {
        vec![true; shape.nodes() as usize * 4]
    }

    /// Walks the table from (src, injection) to dst, asserting progress
    /// and turn legality; returns the hop count.
    fn walk(shape: MeshShape, table: &RouteTable, src: NodeId, dst: NodeId) -> u32 {
        let mut node = src;
        let mut ch = CH_START;
        let mut hops = 0;
        loop {
            match table.decide(node, ch, dst) {
                RouteDecision::Eject => {
                    assert_eq!(node, dst, "must only eject at the destination");
                    return hops;
                }
                RouteDecision::Forward(d) => {
                    assert!(turn_legal(ch, d), "illegal turn {ch}->{d:?}");
                    node = shape.neighbor(node, d).expect("forward stays on mesh");
                    ch = d.index();
                    hops += 1;
                    assert!(
                        hops <= shape.nodes() as u32 * NUM_CHANNELS as u32,
                        "route must terminate"
                    );
                }
                RouteDecision::Unreachable => panic!("{src:?}->{dst:?} unreachable"),
            }
        }
    }

    #[test]
    fn all_links_up_routes_are_minimal() {
        let shape = MeshShape::new(4, 3);
        let table = RouteTable::build(shape, &all_up(shape));
        for src in 0..shape.nodes() {
            for dst in 0..shape.nodes() {
                let hops = walk(shape, &table, NodeId(src), NodeId(dst));
                assert_eq!(hops, shape.hops(NodeId(src), NodeId(dst)) as u32);
            }
        }
    }

    #[test]
    fn dead_east_link_detours_non_minimally() {
        // 3x3, kill 3->4 (the middle row's west-to-east link). 3 can
        // still reach 5 by detouring through row 0 or row 2.
        let shape = MeshShape::new(3, 3);
        let mut up = all_up(shape);
        up[3 * 4 + Direction::East.index()] = false;
        let table = RouteTable::build(shape, &up);
        let hops = walk(shape, &table, NodeId(3), NodeId(5));
        assert_eq!(hops, 4, "minimal detour around the dead link");
    }

    #[test]
    fn west_need_with_dead_west_link_is_unreachable() {
        // West hops are only legal in the initial prefix, so a dead
        // west link cannot be detoured around: bounce, don't wander.
        let shape = MeshShape::new(3, 1);
        let mut up = all_up(shape);
        up[2 * 4 + Direction::West.index()] = false;
        let table = RouteTable::build(shape, &up);
        assert_eq!(
            table.decide(NodeId(2), CH_START, NodeId(0)),
            RouteDecision::Unreachable
        );
        // The reverse direction is unaffected.
        assert_eq!(
            table.decide(NodeId(0), CH_START, NodeId(2)),
            RouteDecision::Forward(Direction::East)
        );
    }

    #[test]
    fn turn_model_prohibits_exactly_the_west_turns_and_u_turns() {
        use Direction::*;
        for d in Direction::ALL {
            assert!(turn_legal(CH_START, d), "injection may start any way");
        }
        for last in [North, South, East] {
            assert!(!turn_legal(last.index(), West), "{last:?}->W prohibited");
        }
        for last in Direction::ALL {
            assert!(!turn_legal(last.index(), last.opposite()), "no U-turns");
        }
        assert!(turn_legal(West.index(), West));
        assert!(turn_legal(West.index(), North));
        assert!(turn_legal(East.index(), South));
        assert!(turn_legal(North.index(), East));
    }
}
