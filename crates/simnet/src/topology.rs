//! Network topologies: pluggable routing for the staged fabric.
//!
//! The paper's simulator has **no internal network structure** — the
//! wire is a flat latency and contention exists only at endpoints.
//! This module supplies the structure for the route-aware extension:
//! a [`Topology`] answers, for every ordered node pair, the sequence
//! of *directed links* a message traverses, and the
//! internal `Fabric` stage charges per-link FIFO occupancy
//! along that route.
//!
//! Concrete topologies:
//!
//! * [`Flat`] — no links at all; the paper's contention-free wire.
//! * [`OneLink`] — every inter-node message crosses one shared link:
//!   the machine-wide fabric of the `ext_fabric` experiment.
//! * [`Line`] — nodes on a line, bidirectional neighbor links,
//!   shortest-path routing. Worst diameter, bisection of one link.
//! * [`Grid2d`] (`TopologyKind::Mesh2d` / `TopologyKind::Torus2d`) — 2-D grid with X-then-Y
//!   dimension-order routing; the torus adds wrap-around links and
//!   picks the shorter direction per axis.
//! * [`FatTree`] — a two-level tree folded around an ideal
//!   non-blocking core: every node owns one up-link and one
//!   down-link, so the network itself never congests (full
//!   bisection); only endpoint links serialize.
//!
//! Latency calibration: a topology splits the machine's wire latency
//! `l` evenly over its diameter, so the *longest* route costs exactly
//! `l` of pure latency and shorter routes cost proportionally less.
//! Holding g/l/o fixed across topologies therefore compares networks
//! with the same advertised worst-case latency but different
//! bandwidth structure — the comparison `ext_topology` sweeps.
//!
//! Configuration travels as the small [`TopologyKind`] enum (so
//! [`crate::NetConfig`] stays `Copy`); [`TopologyKind::build`]
//! instantiates the routing tables when the [`crate::Network`] is
//! created.

use std::collections::HashMap;

/// Index of one *directed* link in a topology (dense, `0..links()`).
pub type LinkId = usize;

/// A routing function over directed links.
///
/// Invariants every implementation upholds (checked by the property
/// tests in this module):
///
/// * `route(a, b)` is empty **iff** `a == b`;
/// * consecutive links in a route form a connected directed path —
///   each link's head is the next link's tail — starting at `a` and
///   ending at `b` (intermediate vertices may be switch nodes with
///   ids `>= p`, as in [`FatTree`]'s core);
/// * every returned [`LinkId`] is `< links()`.
pub trait Topology: std::fmt::Debug + Send + Sync {
    /// The ordered directed links a message from `from` to `to`
    /// traverses. Empty iff `from == to`.
    fn route(&self, from: usize, to: usize) -> &[LinkId];
    /// Number of directed links (link ids are `0..links()`).
    fn links(&self) -> usize;
    /// Wire latency charged per traversed link, cycles.
    fn hop_latency(&self) -> f64;
    /// The `(tail, head)` node pair of a directed link. Vertices
    /// `>= p` are internal switches (e.g. the fat tree's core).
    fn endpoints(&self, link: LinkId) -> (usize, usize);
}

/// The paper's flat wire: no links, no internal contention.
///
/// The [`crate::Network`] never consults a router for the flat
/// default — this type exists so the trait's invariants have a
/// trivial witness and tests can treat every kind uniformly.
#[derive(Debug, Clone, Copy)]
pub struct Flat;

impl Topology for Flat {
    fn route(&self, _from: usize, _to: usize) -> &[LinkId] {
        &[]
    }
    fn links(&self) -> usize {
        0
    }
    fn hop_latency(&self) -> f64 {
        0.0
    }
    fn endpoints(&self, _link: LinkId) -> (usize, usize) {
        (0, 0)
    }
}

/// One machine-wide shared link (what
/// `MachineConfig::with_fabric` installs). Every inter-node message
/// traverses link 0; the full wire latency is charged after it.
#[derive(Debug)]
pub struct OneLink {
    hop_latency: f64,
    route: [LinkId; 1],
}

impl OneLink {
    /// A one-link fabric whose single hop carries the full wire
    /// latency `latency`.
    pub fn new(latency: f64) -> Self {
        Self { hop_latency: latency, route: [0] }
    }
}

impl Topology for OneLink {
    fn route(&self, from: usize, to: usize) -> &[LinkId] {
        if from == to {
            &[]
        } else {
            &self.route
        }
    }
    fn links(&self) -> usize {
        1
    }
    fn hop_latency(&self) -> f64 {
        self.hop_latency
    }
    fn endpoints(&self, _link: LinkId) -> (usize, usize) {
        // The shared fabric is not between any particular node pair;
        // report a synthetic self-loop on node 0.
        (0, 0)
    }
}

/// Shared routing machinery: a dense `(from, to) -> route` table over
/// an explicit directed-link registry, precomputed at construction so
/// `route` is an allocation-free slice lookup on the hot path.
#[derive(Debug)]
struct RouteTable {
    p: usize,
    /// Directed links as `(tail, head)`, indexed by [`LinkId`].
    links: Vec<(usize, usize)>,
    /// Link-id lookup used during construction only.
    by_pair: HashMap<(usize, usize), LinkId>,
    /// Routes, indexed `from * p + to`.
    routes: Vec<Vec<LinkId>>,
    hop_latency: f64,
}

impl RouteTable {
    fn new(p: usize, hop_latency: f64) -> Self {
        Self {
            p,
            links: Vec::new(),
            by_pair: HashMap::new(),
            routes: vec![Vec::new(); p * p],
            hop_latency,
        }
    }

    /// The id of directed link `tail -> head`, registering it on
    /// first use. Ids are dense in registration order, which is
    /// deterministic because routes are built in `(from, to)` order.
    fn link(&mut self, tail: usize, head: usize) -> LinkId {
        if let Some(&id) = self.by_pair.get(&(tail, head)) {
            return id;
        }
        let id = self.links.len();
        self.links.push((tail, head));
        self.by_pair.insert((tail, head), id);
        id
    }

    /// Record the route for `(from, to)` as the link-by-link walk of
    /// `path` (a vertex sequence starting at `from`, ending at `to`).
    fn set_route(&mut self, from: usize, to: usize, path: &[usize]) {
        let mut route = Vec::with_capacity(path.len().saturating_sub(1));
        for w in path.windows(2) {
            let id = self.link(w[0], w[1]);
            route.push(id);
        }
        self.routes[from * self.p + to] = route;
    }

    fn route(&self, from: usize, to: usize) -> &[LinkId] {
        &self.routes[from * self.p + to]
    }
}

macro_rules! delegate_topology {
    ($ty:ty) => {
        impl Topology for $ty {
            fn route(&self, from: usize, to: usize) -> &[LinkId] {
                self.table.route(from, to)
            }
            fn links(&self) -> usize {
                self.table.links.len()
            }
            fn hop_latency(&self) -> f64 {
                self.table.hop_latency
            }
            fn endpoints(&self, link: LinkId) -> (usize, usize) {
                self.table.links[link]
            }
        }
    };
}

/// Nodes on a line with bidirectional neighbor links and
/// shortest-path routing: diameter `p - 1`, bisection of one link
/// each way — the harshest topology in the set.
#[derive(Debug)]
pub struct Line {
    table: RouteTable,
}

impl Line {
    /// A `p`-node line whose diameter-long route carries the full
    /// wire latency `latency`.
    pub fn new(p: usize, latency: f64) -> Self {
        let diameter = p.saturating_sub(1).max(1);
        let mut table = RouteTable::new(p, latency / diameter as f64);
        for from in 0..p {
            for to in 0..p {
                if from == to {
                    continue;
                }
                let path: Vec<usize> =
                    if from < to { (from..=to).collect() } else { (to..=from).rev().collect() };
                table.set_route(from, to, &path);
            }
        }
        Self { table }
    }
}

delegate_topology!(Line);

/// A 2-D grid (optionally wrapped into a torus) with X-then-Y
/// dimension-order routing. Node `i` sits at row `i / cols`,
/// column `i % cols`.
#[derive(Debug)]
pub struct Grid2d {
    table: RouteTable,
}

impl Grid2d {
    /// Build a `rows × cols` grid over `rows * cols` nodes. With
    /// `wrap`, each axis closes into a ring and routes take the
    /// shorter way around (ties break toward increasing coordinate).
    /// The grid's diameter-long route carries the full `latency`.
    pub fn new(rows: usize, cols: usize, wrap: bool, latency: f64) -> Self {
        assert!(rows >= 1 && cols >= 1);
        let p = rows * cols;
        let diameter =
            if wrap { (rows / 2 + cols / 2).max(1) } else { (rows - 1 + cols - 1).max(1) };
        let mut table = RouteTable::new(p, latency / diameter as f64);
        let id = |r: usize, c: usize| r * cols + c;
        // One signed step along an axis of length `len`, shortest way
        // around (wrapped) or directly (unwrapped — the direct way is
        // the only way on a mesh).
        let step = |at: usize, target: usize, len: usize| -> usize {
            if at == target {
                return at;
            }
            let fwd = (target + len - at) % len; // hops going +1
            if wrap {
                if fwd * 2 <= len {
                    (at + 1) % len
                } else {
                    (at + len - 1) % len
                }
            } else if target > at {
                at + 1
            } else {
                at - 1
            }
        };
        for from in 0..p {
            for to in 0..p {
                if from == to {
                    continue;
                }
                let (fr, fc) = (from / cols, from % cols);
                let (tr, tc) = (to / cols, to % cols);
                let mut path = vec![from];
                let (mut r, mut c) = (fr, fc);
                while c != tc {
                    c = step(c, tc, cols);
                    path.push(id(r, c));
                }
                while r != tr {
                    r = step(r, tr, rows);
                    path.push(id(r, c));
                }
                table.set_route(from, to, &path);
            }
        }
        Self { table }
    }
}

delegate_topology!(Grid2d);

/// A two-level fat tree folded around an ideal non-blocking core:
/// node `i` owns up-link `i` (to the core, vertex id `p`) and
/// down-link `p + i` (core to `i`). Every route is exactly two hops
/// and no two distinct node pairs share a link beyond their own
/// endpoints — full bisection bandwidth.
#[derive(Debug)]
pub struct FatTree {
    p: usize,
    hop_latency: f64,
    /// `routes[from * p + to]` = `[up(from), down(to)]`.
    routes: Vec<[LinkId; 2]>,
}

impl FatTree {
    /// A `p`-node fat tree whose two-hop routes carry the full wire
    /// latency `latency`.
    pub fn new(p: usize, latency: f64) -> Self {
        let mut routes = Vec::with_capacity(p * p);
        for from in 0..p {
            for to in 0..p {
                routes.push([from, p + to]);
            }
        }
        Self { p, hop_latency: latency / 2.0, routes }
    }
}

impl Topology for FatTree {
    fn route(&self, from: usize, to: usize) -> &[LinkId] {
        if from == to {
            &[]
        } else {
            &self.routes[from * self.p + to]
        }
    }
    fn links(&self) -> usize {
        2 * self.p
    }
    fn hop_latency(&self) -> f64 {
        self.hop_latency
    }
    fn endpoints(&self, link: LinkId) -> (usize, usize) {
        if link < self.p {
            (link, self.p) // up-link into the core
        } else {
            (self.p, link - self.p) // down-link out of the core
        }
    }
}

/// Which topology a [`crate::NetConfig`] asks for — a small `Copy`
/// description; [`TopologyKind::build`] turns it into routing tables
/// when the network is created.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopologyKind {
    /// The paper's flat contention-free wire (the default; compiles
    /// to the exact original delivery arithmetic).
    #[default]
    Flat,
    /// [`OneLink`]: one shared link for the whole machine, any `p`.
    OneLink,
    /// [`Line`] of `p` nodes.
    Line,
    /// [`Grid2d`] mesh; `rows * cols` must equal `p`.
    Mesh2d {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// [`Grid2d`] torus (wrap-around mesh); `rows * cols` must equal
    /// `p`.
    Torus2d {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// [`FatTree`] over `p` nodes.
    FatTree,
}

/// The most-square factoring of `p`: the largest divisor `rows <=
/// sqrt(p)` with `cols = p / rows`. Primes degenerate to `1 × p`
/// (a mesh of one row *is* a line).
pub fn square_factor(p: usize) -> (usize, usize) {
    assert!(p >= 1);
    let mut rows = 1;
    let mut d = 1;
    while d * d <= p {
        if p.is_multiple_of(d) {
            rows = d;
        }
        d += 1;
    }
    (rows, p / rows)
}

impl TopologyKind {
    /// A mesh over `p` nodes at the most-square factoring.
    pub fn mesh(p: usize) -> Self {
        let (rows, cols) = square_factor(p);
        TopologyKind::Mesh2d { rows, cols }
    }

    /// A torus over `p` nodes at the most-square factoring.
    pub fn torus(p: usize) -> Self {
        let (rows, cols) = square_factor(p);
        TopologyKind::Torus2d { rows, cols }
    }

    /// Short stable name, for journals and table rows.
    pub fn name(&self) -> &'static str {
        match self {
            TopologyKind::Flat => "flat",
            TopologyKind::OneLink => "onelink",
            TopologyKind::Line => "line",
            TopologyKind::Mesh2d { .. } => "mesh2d",
            TopologyKind::Torus2d { .. } => "torus2d",
            TopologyKind::FatTree => "fattree",
        }
    }

    /// Human-readable parameter string (`"4x4"` for grids, `"-"`
    /// otherwise).
    pub fn params(&self) -> String {
        match self {
            TopologyKind::Mesh2d { rows, cols } | TopologyKind::Torus2d { rows, cols } => {
                format!("{rows}x{cols}")
            }
            _ => "-".to_string(),
        }
    }

    /// Network diameter in hops on a `p`-node machine (1 for the
    /// flat wire and the one shared link: every route is a single
    /// hop).
    pub fn diameter(&self, p: usize) -> usize {
        match *self {
            TopologyKind::Flat | TopologyKind::OneLink => 1,
            TopologyKind::Line => p.saturating_sub(1).max(1),
            TopologyKind::Mesh2d { rows, cols } => (rows - 1 + cols - 1).max(1),
            TopologyKind::Torus2d { rows, cols } => (rows / 2 + cols / 2).max(1),
            TopologyKind::FatTree => 2,
        }
    }

    /// Validate the description against a `p`-node machine.
    pub fn validate(&self, p: usize) {
        match *self {
            TopologyKind::Mesh2d { rows, cols } | TopologyKind::Torus2d { rows, cols } => {
                assert!(rows >= 1 && cols >= 1, "grid axes must be positive");
                assert!(rows * cols == p, "grid {rows}x{cols} does not tile p = {p} nodes",);
            }
            _ => {}
        }
    }

    /// Instantiate the routing tables for a `p`-node machine whose
    /// wire latency is `latency` cycles. `None` for [`Flat`]: the
    /// flat wire has no link stage at all.
    pub fn build(&self, p: usize, latency: f64) -> Option<Box<dyn Topology>> {
        self.validate(p);
        match *self {
            TopologyKind::Flat => None,
            TopologyKind::OneLink => Some(Box::new(OneLink::new(latency))),
            TopologyKind::Line => Some(Box::new(Line::new(p, latency))),
            TopologyKind::Mesh2d { rows, cols } => {
                Some(Box::new(Grid2d::new(rows, cols, false, latency)))
            }
            TopologyKind::Torus2d { rows, cols } => {
                Some(Box::new(Grid2d::new(rows, cols, true, latency)))
            }
            TopologyKind::FatTree => Some(Box::new(FatTree::new(p, latency))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every non-Flat kind at a given p, for uniform sweeps.
    fn kinds(p: usize) -> Vec<TopologyKind> {
        vec![
            TopologyKind::Line,
            TopologyKind::mesh(p),
            TopologyKind::torus(p),
            TopologyKind::FatTree,
        ]
    }

    #[test]
    fn square_factor_prefers_squares() {
        assert_eq!(square_factor(16), (4, 4));
        assert_eq!(square_factor(8), (2, 4));
        assert_eq!(square_factor(12), (3, 4));
        assert_eq!(square_factor(7), (1, 7));
        assert_eq!(square_factor(1), (1, 1));
    }

    #[test]
    fn one_link_routes_everything_over_link_zero() {
        let t = OneLink::new(1600.0);
        assert_eq!(t.links(), 1);
        assert_eq!(t.route(0, 1), &[0]);
        assert_eq!(t.route(3, 2), &[0]);
        assert!(t.route(2, 2).is_empty());
        assert_eq!(t.hop_latency(), 1600.0);
    }

    #[test]
    fn line_uses_shortest_paths() {
        let t = Line::new(5, 1600.0);
        assert_eq!(t.route(0, 4).len(), 4);
        assert_eq!(t.route(4, 0).len(), 4);
        assert_eq!(t.route(2, 3).len(), 1);
        // Diameter 4 splits l four ways.
        assert_eq!(t.hop_latency(), 400.0);
        // Opposite directions are distinct links.
        let fwd = t.route(1, 2)[0];
        let back = t.route(2, 1)[0];
        assert_ne!(fwd, back);
        assert_eq!(t.endpoints(fwd), (1, 2));
        assert_eq!(t.endpoints(back), (2, 1));
    }

    #[test]
    fn mesh_routes_x_then_y() {
        // 2x4 mesh: node 1 = (0,1), node 6 = (1,2).
        let t = Grid2d::new(2, 4, false, 1600.0);
        let route = t.route(1, 6);
        assert_eq!(route.len(), 2); // one X hop, one Y hop
        let (a0, a1) = t.endpoints(route[0]);
        let (b0, b1) = t.endpoints(route[1]);
        assert_eq!((a0, a1), (1, 2)); // X first: (0,1) -> (0,2)
        assert_eq!((b0, b1), (2, 6)); // then Y: (0,2) -> (1,2)
    }

    #[test]
    fn torus_wraps_the_short_way() {
        // 1x6 ring: 0 -> 5 is one wrap hop, not five forward hops.
        let t = Grid2d::new(1, 6, true, 1600.0);
        assert_eq!(t.route(0, 5).len(), 1);
        assert_eq!(t.route(0, 3).len(), 3); // tie: exactly half
        assert_eq!(t.route(0, 2).len(), 2);
    }

    #[test]
    fn fat_tree_is_always_two_hops() {
        let t = FatTree::new(8, 1600.0);
        for a in 0..8 {
            for b in 0..8 {
                if a == b {
                    assert!(t.route(a, b).is_empty());
                } else {
                    let r = t.route(a, b);
                    assert_eq!(r.len(), 2);
                    assert_eq!(t.endpoints(r[0]), (a, 8));
                    assert_eq!(t.endpoints(r[1]), (8, b));
                }
            }
        }
        assert_eq!(t.hop_latency(), 800.0);
    }

    #[test]
    fn kind_metadata_is_stable() {
        assert_eq!(TopologyKind::Flat.name(), "flat");
        assert_eq!(TopologyKind::OneLink.name(), "onelink");
        assert_eq!(TopologyKind::OneLink.diameter(64), 1);
        assert_eq!(TopologyKind::torus(16).params(), "4x4");
        assert_eq!(TopologyKind::Line.diameter(8), 7);
        assert_eq!(TopologyKind::mesh(16).diameter(16), 6);
        assert_eq!(TopologyKind::torus(16).diameter(16), 4);
        assert_eq!(TopologyKind::FatTree.diameter(64), 2);
    }

    #[test]
    #[should_panic]
    fn mismatched_grid_rejected() {
        TopologyKind::Mesh2d { rows: 3, cols: 3 }.build(8, 1600.0);
    }

    #[test]
    fn flat_builds_no_router() {
        assert!(TopologyKind::Flat.build(8, 1600.0).is_none());
    }

    /// Walk `route(a, b)` and check it is a connected directed path
    /// from `a` to `b` (switch vertices allowed in the middle).
    fn assert_connected(t: &dyn Topology, a: usize, b: usize) {
        let route = t.route(a, b);
        if a == b {
            assert!(route.is_empty(), "route({a},{a}) must be empty");
            return;
        }
        assert!(!route.is_empty(), "route({a},{b}) must not be empty");
        let mut at = a;
        for &l in route {
            assert!(l < t.links(), "link {l} out of range");
            let (tail, head) = t.endpoints(l);
            assert_eq!(tail, at, "route({a},{b}) disconnected at link {l}");
            at = head;
        }
        assert_eq!(at, b, "route({a},{b}) ends at {at}");
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Every route on every topology is a connected directed
            /// path from a to b, empty iff a == b.
            #[test]
            fn routes_are_connected_paths(p in 1usize..20) {
                for kind in kinds(p) {
                    let t = kind.build(p, 1600.0).expect("non-flat kinds build");
                    for a in 0..p {
                        for b in 0..p {
                            assert_connected(t.as_ref(), a, b);
                        }
                    }
                }
            }

            /// Grid routes have exactly the dimension-order hop count:
            /// per-axis distance (shortest-way-around on the torus).
            #[test]
            fn grid_hop_counts_match_manhattan_distance(
                rows in 1usize..6, cols in 1usize..6,
            ) {
                let p = rows * cols;
                let mesh = Grid2d::new(rows, cols, false, 1600.0);
                let torus = Grid2d::new(rows, cols, true, 1600.0);
                let ring = |a: usize, b: usize, len: usize| {
                    let fwd = (b + len - a) % len;
                    fwd.min(len - fwd)
                };
                for a in 0..p {
                    for b in 0..p {
                        let (ar, ac) = (a / cols, a % cols);
                        let (br, bc) = (b / cols, b % cols);
                        let mesh_hops = ar.abs_diff(br) + ac.abs_diff(bc);
                        assert_eq!(mesh.route(a, b).len(), mesh_hops);
                        let torus_hops = ring(ar, br, rows) + ring(ac, bc, cols);
                        assert_eq!(torus.route(a, b).len(), torus_hops);
                    }
                }
            }

            /// No route exceeds the advertised diameter, and some
            /// route attains it.
            #[test]
            fn diameter_bounds_every_route(p in 2usize..20) {
                for kind in kinds(p) {
                    let t = kind.build(p, 1600.0).expect("non-flat kinds build");
                    let d = kind.diameter(p);
                    let mut max_seen = 0;
                    for a in 0..p {
                        for b in 0..p {
                            let hops = t.route(a, b).len();
                            assert!(hops <= d, "{kind:?}: route({a},{b}) = {hops} > diameter {d}");
                            max_seen = max_seen.max(hops);
                        }
                    }
                    assert_eq!(max_seen, d, "{kind:?}: diameter not attained");
                }
            }
        }
    }
}
