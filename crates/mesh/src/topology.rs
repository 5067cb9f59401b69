//! Mesh geometry and dimension-order routing.

use std::fmt;

/// Identifies one node (one SHRIMP PC) on the backplane.
///
/// Node ids are row-major over the mesh: `id = y * width + x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u16);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Absolute mesh coordinates of a node; packets carry these so the
/// receiving NIC can verify the packet was routed correctly (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MeshCoord {
    /// Column, `0..width`.
    pub x: u16,
    /// Row, `0..height`.
    pub y: u16,
}

impl fmt::Display for MeshCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// The rectangular shape of the backplane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeshShape {
    width: u16,
    height: u16,
}

/// One of the four mesh link directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Towards larger x.
    East,
    /// Towards smaller x.
    West,
    /// Towards larger y.
    North,
    /// Towards smaller y.
    South,
}

impl Direction {
    /// All directions, in a fixed deterministic order.
    pub const ALL: [Direction; 4] = [
        Direction::East,
        Direction::West,
        Direction::North,
        Direction::South,
    ];

    /// The direction a packet arrives *from* when sent this way.
    pub fn opposite(self) -> Direction {
        match self {
            Direction::East => Direction::West,
            Direction::West => Direction::East,
            Direction::North => Direction::South,
            Direction::South => Direction::North,
        }
    }

    /// Stable small index, used for deterministic arbitration.
    pub fn index(self) -> usize {
        match self {
            Direction::East => 0,
            Direction::West => 1,
            Direction::North => 2,
            Direction::South => 3,
        }
    }
}

impl MeshShape {
    /// Creates a `width x height` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero, or if the node count
    /// overflows the `u16` that node ids are.
    pub fn new(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        assert!(
            width.checked_mul(height).is_some(),
            "a {width}x{height} mesh has more nodes than a u16 node id can name"
        );
        MeshShape { width, height }
    }

    /// Columns.
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Rows.
    pub fn height(&self) -> u16 {
        self.height
    }

    /// Total node count.
    pub fn nodes(&self) -> u16 {
        self.width * self.height
    }

    /// True if `id` addresses a node on this mesh.
    pub fn contains(&self, id: NodeId) -> bool {
        id.0 < self.nodes()
    }

    /// Coordinates of a node id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the mesh.
    pub fn coord_of(&self, id: NodeId) -> MeshCoord {
        assert!(self.contains(id), "{id} outside {self:?}");
        MeshCoord {
            x: id.0 % self.width,
            y: id.0 / self.width,
        }
    }

    /// Node id at coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the mesh.
    pub fn id_at(&self, coord: MeshCoord) -> NodeId {
        assert!(
            coord.x < self.width && coord.y < self.height,
            "{coord} outside {self:?}"
        );
        NodeId(coord.y * self.width + coord.x)
    }

    /// The neighbor of `id` in `dir`, if it exists.
    pub fn neighbor(&self, id: NodeId, dir: Direction) -> Option<NodeId> {
        let c = self.coord_of(id);
        let n = match dir {
            Direction::East if c.x + 1 < self.width => MeshCoord { x: c.x + 1, y: c.y },
            Direction::West if c.x > 0 => MeshCoord { x: c.x - 1, y: c.y },
            Direction::North if c.y + 1 < self.height => MeshCoord { x: c.x, y: c.y + 1 },
            Direction::South if c.y > 0 => MeshCoord { x: c.x, y: c.y - 1 },
            _ => return None,
        };
        Some(self.id_at(n))
    }

    /// Dimension-order (X first, then Y) next hop from `at` towards `to`,
    /// or `None` when `at == to` (the packet ejects).
    ///
    /// X-then-Y routing is oblivious and deadlock-free on a mesh
    /// (Dally & Seitz), matching the iMRC backplane.
    pub fn route_next(&self, at: NodeId, to: NodeId) -> Option<Direction> {
        let a = self.coord_of(at);
        let b = self.coord_of(to);
        if a.x < b.x {
            Some(Direction::East)
        } else if a.x > b.x {
            Some(Direction::West)
        } else if a.y < b.y {
            Some(Direction::North)
        } else if a.y > b.y {
            Some(Direction::South)
        } else {
            None
        }
    }

    /// The full route (sequence of nodes, excluding `from`, including `to`).
    pub fn route(&self, from: NodeId, to: NodeId) -> Vec<NodeId> {
        let mut path = Vec::new();
        let mut at = from;
        while let Some(dir) = self.route_next(at, to) {
            at = self.neighbor(at, dir).expect("route_next returned an edge direction");
            path.push(at);
        }
        path
    }

    /// Manhattan hop count between two nodes.
    pub fn hops(&self, from: NodeId, to: NodeId) -> u16 {
        let a = self.coord_of(from);
        let b = self.coord_of(to);
        a.x.abs_diff(b.x) + a.y.abs_diff(b.y)
    }

    /// Iterates all node ids.
    pub fn iter_nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes()).map(NodeId)
    }
}

impl fmt::Display for MeshShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> MeshShape {
        MeshShape::new(4, 3)
    }

    #[test]
    fn id_coord_roundtrip() {
        let m = mesh();
        for id in m.iter_nodes() {
            assert_eq!(m.id_at(m.coord_of(id)), id);
        }
        assert_eq!(m.coord_of(NodeId(0)), MeshCoord { x: 0, y: 0 });
        assert_eq!(m.coord_of(NodeId(5)), MeshCoord { x: 1, y: 1 });
        assert_eq!(m.nodes(), 12);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn coord_of_out_of_range_panics() {
        mesh().coord_of(NodeId(12));
    }

    #[test]
    fn neighbors_respect_edges() {
        let m = mesh();
        // Corner (0,0).
        assert_eq!(m.neighbor(NodeId(0), Direction::West), None);
        assert_eq!(m.neighbor(NodeId(0), Direction::South), None);
        assert_eq!(m.neighbor(NodeId(0), Direction::East), Some(NodeId(1)));
        assert_eq!(m.neighbor(NodeId(0), Direction::North), Some(NodeId(4)));
        // Opposite corner (3,2) = id 11.
        assert_eq!(m.neighbor(NodeId(11), Direction::East), None);
        assert_eq!(m.neighbor(NodeId(11), Direction::North), None);
    }

    #[test]
    fn xy_routing_goes_x_first() {
        let m = mesh();
        // From (0,0) to (2,2): east, east, then north, north.
        let path = m.route(NodeId(0), NodeId(10));
        assert_eq!(path, vec![NodeId(1), NodeId(2), NodeId(6), NodeId(10)]);
        assert_eq!(m.hops(NodeId(0), NodeId(10)), 4);
    }

    #[test]
    fn route_to_self_is_empty() {
        let m = mesh();
        assert_eq!(m.route_next(NodeId(5), NodeId(5)), None);
        assert!(m.route(NodeId(5), NodeId(5)).is_empty());
        assert_eq!(m.hops(NodeId(5), NodeId(5)), 0);
    }

    #[test]
    fn route_length_equals_hops() {
        let m = MeshShape::new(5, 5);
        for a in m.iter_nodes() {
            for b in m.iter_nodes() {
                assert_eq!(m.route(a, b).len(), m.hops(a, b) as usize);
            }
        }
    }

    #[test]
    fn opposite_directions() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
            assert_ne!(d.opposite(), d);
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(MeshCoord { x: 1, y: 2 }.to_string(), "(1,2)");
        assert_eq!(mesh().to_string(), "4x3");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_rejected() {
        MeshShape::new(0, 4);
    }

    /// 300x300 is 90,000 nodes: `nodes()` would overflow, and wrap to
    /// 24,464 in a release build.
    #[test]
    #[should_panic(expected = "more nodes than a u16")]
    fn node_count_overflow_rejected() {
        MeshShape::new(300, 300);
    }

    #[test]
    fn largest_u16_mesh_is_accepted() {
        assert_eq!(MeshShape::new(255, 257).nodes(), 65_535);
    }
}
