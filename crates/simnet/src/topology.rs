//! Network topologies: route tables for the staged fabric.
//!
//! The paper's simulator has **no internal network structure** — the
//! wire is a flat latency and contention exists only at endpoints.
//! This module supplies the structure for the route-aware extension:
//! a [`TopologyKind`] builds [`Routes`], which answer, for every
//! ordered node pair, the sequence of *directed links* a message
//! traverses, and the internal `Fabric` stage charges per-link FIFO
//! occupancy along that route.
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
//! instantiates the route table when the [`crate::Network`] is
//! created.

use std::collections::HashMap;

/// Index of one *directed* link in a topology (dense, `0..links()`).
pub type LinkId = u32;

/// A topology's directed links and every ordered pair's route over
/// them, precomputed so a route is an allocation-free slice lookup on
/// the hot path.
///
/// Invariants (checked by the property tests in this module):
///
/// * `route(a, b)` is empty **iff** `a == b`;
/// * consecutive links in a route form a connected directed path —
///   each link's head is the next link's tail — starting at `a` and
///   ending at `b` (intermediate vertices may be switch nodes with
///   ids `>= p`, as in the fat tree's core). The one-link fabric is
///   the exception: its link is a synthetic self-loop on node 0;
/// * every returned [`LinkId`] is `< links()`.
#[derive(Debug)]
pub struct Routes {
    p: usize,
    hop_latency: f64,
    /// Directed links as `(tail, head)`, indexed by [`LinkId`].
    links: Vec<(usize, usize)>,
    /// The route of pair `i = from * p + to` is
    /// `hops[start[i]..start[i + 1]]`.
    start: Vec<u32>,
    hops: Vec<LinkId>,
}

/// `n` as a route-table index; a table past `u32` is a bug, not a
/// machine this simulator can hold.
fn index(n: usize) -> u32 {
    u32::try_from(n).expect("route table outgrows u32 indices")
}

impl Routes {
    /// The ordered directed links a message from `from` to `to`
    /// traverses. Empty iff `from == to`.
    pub fn route(&self, from: usize, to: usize) -> &[LinkId] {
        let i = from * self.p + to;
        &self.hops[self.start[i] as usize..self.start[i + 1] as usize]
    }

    /// Number of directed links (link ids are `0..links()`).
    pub fn links(&self) -> usize {
        self.links.len()
    }

    /// Wire latency charged per traversed link, cycles.
    pub fn hop_latency(&self) -> f64 {
        self.hop_latency
    }

    /// Append every ordered pair's route in `(from, to)` order;
    /// `route(from, to, hops)` pushes the links of a pair `from != to`.
    fn fill(&mut self, mut route: impl FnMut(usize, usize, &mut Vec<LinkId>)) {
        self.start.reserve_exact(self.p * self.p + 1);
        self.start.push(0);
        for from in 0..self.p {
            for to in 0..self.p {
                if from != to {
                    route(from, to, &mut self.hops);
                }
                self.start.push(index(self.hops.len()));
            }
        }
    }

    /// [`Routes::fill`] from vertex walks: `walk(from, to, path)`
    /// pushes the vertices from `from` to `to`, and each directed link
    /// gets the next id at its first use — deterministic, because
    /// pairs are walked in `(from, to)` order.
    fn walk(&mut self, mut walk: impl FnMut(usize, usize, &mut Vec<usize>)) {
        let mut links = std::mem::take(&mut self.links);
        let mut ids = HashMap::new();
        let mut path = Vec::new();
        self.fill(|from, to, hops| {
            path.clear();
            walk(from, to, &mut path);
            for w in path.windows(2) {
                hops.push(*ids.entry((w[0], w[1])).or_insert_with(|| {
                    links.push((w[0], w[1]));
                    index(links.len() - 1)
                }));
            }
        });
        self.links = links;
    }
}

/// Which topology a [`crate::NetConfig`] asks for — a small `Copy`
/// description; [`TopologyKind::build`] turns it into [`Routes`] when
/// the network is created.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopologyKind {
    /// The paper's flat contention-free wire (the default; compiles
    /// to the exact original delivery arithmetic): no links at all.
    #[default]
    Flat,
    /// One machine-wide shared link, any `p`: every inter-node
    /// message crosses link 0 and the full wire latency is charged
    /// after it — the fabric of the `ext_fabric` experiment.
    OneLink,
    /// `p` nodes on a line with bidirectional neighbor links and
    /// shortest-path routing: diameter `p - 1`, bisection of one link
    /// each way — the harshest topology in the set.
    Line,
    /// A 2-D grid with X-then-Y dimension-order routing; node `i`
    /// sits at row `i / cols`, column `i % cols`, and `rows * cols`
    /// must equal `p`.
    Mesh2d {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// The [`TopologyKind::Mesh2d`] grid with each axis closed into a
    /// ring: routes take the shorter way around (ties break toward
    /// increasing coordinate).
    Torus2d {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// A two-level fat tree folded around an ideal non-blocking core
    /// (vertex `p`): node `i` owns up-link `i` and down-link `p + i`,
    /// so every route is two hops and the network itself never
    /// congests (full bisection); only endpoint links serialize.
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

    /// Whether the description fits a `p`-node machine: a grid's axes
    /// must be positive and tile `p` exactly; every other kind fits
    /// any `p`.
    pub fn tiles(&self, p: usize) -> bool {
        match *self {
            TopologyKind::Mesh2d { rows, cols } | TopologyKind::Torus2d { rows, cols } => {
                rows >= 1 && cols >= 1 && rows * cols == p
            }
            _ => true,
        }
    }

    /// Validate the description against a `p`-node machine.
    pub fn validate(&self, p: usize) {
        if let TopologyKind::Mesh2d { rows, cols } | TopologyKind::Torus2d { rows, cols } = *self {
            assert!(rows >= 1 && cols >= 1, "grid axes must be positive");
            assert!(self.tiles(p), "grid {rows}x{cols} does not tile p = {p} nodes");
        }
    }

    /// Instantiate the route table for a `p`-node machine whose wire
    /// latency is `latency` cycles. `None` for
    /// [`TopologyKind::Flat`]: the flat wire has no link stage at all.
    pub fn build(&self, p: usize, latency: f64) -> Option<Routes> {
        self.validate(p);
        let hop_latency = latency / self.diameter(p) as f64;
        let mut routes =
            Routes { p, hop_latency, links: Vec::new(), start: Vec::new(), hops: Vec::new() };
        match *self {
            TopologyKind::Flat => return None,
            TopologyKind::OneLink => {
                routes.links.push((0, 0));
                routes.fill(|_, _, hops| hops.push(0));
            }
            TopologyKind::Line => routes.walk(|from, to, path| {
                if from < to {
                    path.extend(from..=to);
                } else {
                    path.extend((to..=from).rev());
                }
            }),
            TopologyKind::Mesh2d { rows, cols } | TopologyKind::Torus2d { rows, cols } => {
                let wrap = matches!(self, TopologyKind::Torus2d { .. });
                // One step from `at` toward `target != at` along an
                // axis of length `len`: the shorter way around on a
                // torus, the only way on a mesh.
                let step = |at: usize, target: usize, len: usize| {
                    let up = if wrap { (target + len - at) % len * 2 <= len } else { target > at };
                    (at + if up { 1 } else { len - 1 }) % len
                };
                routes.walk(|from, to, path| {
                    let (mut r, mut c) = (from / cols, from % cols);
                    path.push(from);
                    while c != to % cols {
                        c = step(c, to % cols, cols);
                        path.push(r * cols + c);
                    }
                    while r != to / cols {
                        r = step(r, to / cols, rows);
                        path.push(r * cols + c);
                    }
                });
            }
            TopologyKind::FatTree => {
                routes.links = (0..p).map(|i| (i, p)).chain((0..p).map(|i| (p, i))).collect();
                routes.fill(|from, to, hops| hops.extend([index(from), index(p + to)]));
            }
        }
        Some(routes)
    }
}

#[cfg(test)]
impl Routes {
    /// The `(tail, head)` node pair of a directed link. Vertices
    /// `>= p` are internal switches (the fat tree's core).
    fn endpoints(&self, link: LinkId) -> (usize, usize) {
        self.links[link as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every non-Flat kind at a given p, for uniform sweeps.
    fn kinds(p: usize) -> Vec<TopologyKind> {
        vec![
            TopologyKind::OneLink,
            TopologyKind::Line,
            TopologyKind::mesh(p),
            TopologyKind::torus(p),
            TopologyKind::FatTree,
        ]
    }

    fn build(kind: TopologyKind, p: usize) -> Routes {
        kind.build(p, 1600.0).expect("non-flat kinds build")
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
        let t = build(TopologyKind::OneLink, 4);
        assert_eq!(t.links(), 1);
        assert_eq!(t.route(0, 1), &[0]);
        assert_eq!(t.route(3, 2), &[0]);
        assert!(t.route(2, 2).is_empty());
        assert_eq!(t.hop_latency(), 1600.0);
    }

    #[test]
    fn line_uses_shortest_paths() {
        let t = build(TopologyKind::Line, 5);
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
        let t = build(TopologyKind::Mesh2d { rows: 2, cols: 4 }, 8);
        let route = t.route(1, 6);
        assert_eq!(route.len(), 2); // one X hop, one Y hop
        assert_eq!(t.endpoints(route[0]), (1, 2)); // X first: (0,1) -> (0,2)
        assert_eq!(t.endpoints(route[1]), (2, 6)); // then Y: (0,2) -> (1,2)
    }

    #[test]
    fn torus_wraps_the_short_way() {
        // 1x6 ring: 0 -> 5 is one wrap hop, not five forward hops.
        let t = build(TopologyKind::Torus2d { rows: 1, cols: 6 }, 6);
        assert_eq!(t.route(0, 5).len(), 1);
        assert_eq!(t.route(0, 3).len(), 3); // tie: exactly half
        assert_eq!(t.route(0, 2).len(), 2);
    }

    #[test]
    fn fat_tree_is_always_two_hops() {
        let t = build(TopologyKind::FatTree, 8);
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

    /// Link ids are observable — trace lanes are `link_util/<id>` and
    /// `Network::link_busy_total` takes an id — so their numbering is
    /// pinned: line and grid links are numbered at first use in
    /// `(from, to)` order, the fat tree's arithmetically.
    #[test]
    fn link_numbering_is_pinned() {
        // Link `l` as "<tail><head>", in id order (single-digit nodes).
        let links = |kind: TopologyKind, p: usize| {
            let t = kind.build(p, 1600.0).expect("non-flat kinds build");
            let pair = |l: usize| format!("{}{}", t.endpoints(l as _).0, t.endpoints(l as _).1);
            (0..t.links()).map(pair).collect::<Vec<_>>().join(" ")
        };
        assert_eq!(links(TopologyKind::OneLink, 4), "00");
        assert_eq!(links(TopologyKind::Line, 4), "01 12 23 10 21 32");
        // 2x3: node i sits at row i / 3, column i % 3.
        let mesh = "01 12 03 14 25 10 21 30 34 41 45 52 43 54";
        assert_eq!(links(TopologyKind::Mesh2d { rows: 2, cols: 3 }, 6), mesh);
        let torus = "01 02 03 14 25 10 12 20 21 30 34 41 35 52 43 45 53 54";
        assert_eq!(links(TopologyKind::Torus2d { rows: 2, cols: 3 }, 6), torus);
        assert_eq!(links(TopologyKind::FatTree, 4), "04 14 24 34 40 41 42 43");
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

    /// Check `route(a, b)` is empty iff `a == b` and names links in
    /// range; with `walk`, also that it is a connected directed path
    /// from `a` to `b` (switch vertices allowed in the middle).
    fn assert_route(t: &Routes, a: usize, b: usize, walk: bool) {
        let route = t.route(a, b);
        if a == b {
            assert!(route.is_empty(), "route({a},{a}) must be empty");
            return;
        }
        assert!(!route.is_empty(), "route({a},{b}) must not be empty");
        assert!(route.iter().all(|&l| (l as usize) < t.links()), "route({a},{b}) out of range");
        if !walk {
            return;
        }
        let mut at = a;
        for &l in route {
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
            /// Every route on every topology is empty iff a == b and a
            /// connected directed path from a to b — bar the one-link
            /// fabric's, whose link is a self-loop on node 0.
            #[test]
            fn routes_are_connected_paths(p in 1usize..20) {
                for kind in kinds(p) {
                    let t = build(kind, p);
                    let walk = kind != TopologyKind::OneLink;
                    for a in 0..p {
                        for b in 0..p {
                            assert_route(&t, a, b, walk);
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
                let mesh = build(TopologyKind::Mesh2d { rows, cols }, p);
                let torus = build(TopologyKind::Torus2d { rows, cols }, p);
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
                    let t = build(kind, p);
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
