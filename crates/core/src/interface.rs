//! Tile interfaces: the locked boundary between a tile and the rest.
//!
//! A routing-resource node is *inside* a region when every CLB
//! position its span touches belongs to the region; wires that
//! straddle a tile edge are *interface* resources. When a tile is
//! cleared, routes are cut at their first interface node: the outside
//! fragment (including the interface node itself) stays locked — "if
//! one side of an interface is locked, the interface itself is locked"
//! (§3.2) — and only the inside portion is rebuilt.

use fpga::{Device, NodeId, Rect, RouteTree, Routing, RoutingGraph};

use crate::tile::{TileId, TilePlan};

/// A set of CLB coordinates (the union of some tiles' rectangles).
#[derive(Debug, Clone)]
pub struct RegionSet {
    width: u16,
    height: u16,
    inside: Vec<bool>,
}

impl RegionSet {
    /// Builds a region from tile rectangles.
    pub fn from_rects<'a>(device: &Device, rects: impl IntoIterator<Item = &'a Rect>) -> Self {
        let (w, h) = (device.width(), device.height());
        let mut inside = vec![false; w as usize * h as usize];
        for r in rects {
            for c in r.iter() {
                inside[c.y as usize * w as usize + c.x as usize] = true;
            }
        }
        Self {
            width: w,
            height: h,
            inside,
        }
    }

    /// Builds the region of an affected-tile set.
    pub fn from_tiles(device: &Device, plan: &TilePlan, tiles: &[TileId]) -> Self {
        let rects: Vec<Rect> = tiles
            .iter()
            .filter_map(|&t| plan.tile(t).ok().map(|tile| tile.rect))
            .collect();
        Self::from_rects(device, rects.iter())
    }

    /// True if the CLB coordinate is in the region (out-of-grid
    /// coordinates are clamped to their nearest grid cell, so boundary
    /// channels on the device edge count as inside when the edge tile
    /// is).
    pub fn contains_clamped(&self, x: i32, y: i32) -> bool {
        let cx = x.clamp(0, self.width as i32 - 1) as usize;
        let cy = y.clamp(0, self.height as i32 - 1) as usize;
        self.inside[cy * self.width as usize + cx]
    }

    fn in_grid(&self, x: i32, y: i32) -> bool {
        x >= 0 && y >= 0 && x < self.width as i32 && y < self.height as i32
    }

    /// True if an RRG node lies entirely inside the region (interior
    /// resources; used for route *splitting*: these are what clearing
    /// a tile removes).
    ///
    /// Device-edge channels (one span corner off-grid) belong to the
    /// edge tile; IOB pads (both corners off-grid) belong to *no*
    /// region — pads are never cleared by an ECO.
    pub fn contains_node(&self, rrg: &RoutingGraph, node: NodeId) -> bool {
        let (x0, y0, x1, y1) = rrg.span(node);
        let a_in = self.in_grid(x0, y0);
        let b_in = self.in_grid(x1, y1);
        if !a_in && !b_in {
            return false; // IOB pad: outside every tile
        }
        (!a_in || self.contains_clamped(x0, y0)) && (!b_in || self.contains_clamped(x1, y1))
    }

    /// True if an RRG node touches the region at all — interior
    /// resources plus the boundary channels shared with neighbouring
    /// tiles. IOB pads never touch a region.
    pub fn touches_node(&self, rrg: &RoutingGraph, node: NodeId) -> bool {
        let (x0, y0, x1, y1) = rrg.span(node);
        let a = self.in_grid(x0, y0) && self.contains_clamped(x0, y0);
        let b = self.in_grid(x1, y1) && self.contains_clamped(x1, y1);
        a || b
    }

    /// Availability mask over the whole RRG for tile-confined routing.
    ///
    /// The mask admits interior nodes *and* boundary-channel wires:
    /// locking an interface means freezing the signals that cross it
    /// (they stay in the routing database and block by occupancy), not
    /// embargoing every physical wire of the boundary channel — free
    /// boundary tracks are exactly where re-locked interfaces for new
    /// crossings get drawn.
    pub fn node_mask(&self, rrg: &RoutingGraph) -> Vec<bool> {
        (0..rrg.num_nodes())
            .map(|i| self.touches_node(rrg, NodeId::default_for_test(i as u32)))
            .collect()
    }

    /// Number of region coordinates.
    pub fn area(&self) -> usize {
        self.inside.iter().filter(|&&b| b).count()
    }
}

/// How one source→sink path relates to a cleared region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathSplit {
    /// Entirely outside: keep verbatim (locked).
    KeepOutside,
    /// Entirely inside: drop; re-route pin-to-pin within the region.
    DropInside,
    /// Source inside, sink outside: drop the inside prefix; the kept
    /// fragment starts at the interface node `path[cross]`.
    CrossOut {
        /// Index of the interface node in the original path.
        cross: usize,
    },
    /// Source outside, sink inside: keep up to and including the
    /// interface node `path[cross]`; re-route from there to the pin.
    CrossIn {
        /// Index of the interface node in the original path.
        cross: usize,
    },
    /// Both endpoints outside but the path tunnels through the
    /// region: drop entirely and re-route without confinement.
    Feedthrough,
}

/// Classifies a path against a region.
///
/// # Panics
///
/// Panics on an empty path (routes always have ≥1 node).
pub fn split_path(rrg: &RoutingGraph, region: &RegionSet, path: &[NodeId]) -> PathSplit {
    assert!(!path.is_empty(), "empty route path");
    let inside: Vec<bool> = path.iter().map(|&n| region.contains_node(rrg, n)).collect();
    let src_in = inside[0];
    let sink_in = *inside.last().expect("non-empty");
    let any_in = inside.iter().any(|&b| b);
    match (src_in, sink_in) {
        (true, true) => PathSplit::DropInside,
        (false, false) => {
            if any_in {
                PathSplit::Feedthrough
            } else {
                PathSplit::KeepOutside
            }
        }
        (true, false) => {
            let cross = inside.iter().position(|&b| !b).expect("sink is outside");
            PathSplit::CrossOut { cross }
        }
        (false, true) => {
            let cross = inside.iter().rposition(|&b| !b).expect("source is outside");
            PathSplit::CrossIn { cross }
        }
    }
}

/// Summary of a tile's locked interface under a routing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InterfaceSummary {
    /// Number of net route-paths crossing the tile boundary.
    pub crossings: usize,
    /// Distinct interface wire nodes in use.
    pub interface_nodes: usize,
}

/// Computes the interface summary of one tile.
///
/// # Errors
///
/// Returns [`crate::TilingError::UnknownTile`] for bad tile ids.
pub fn tile_interface(
    device: &Device,
    plan: &TilePlan,
    rrg: &RoutingGraph,
    routing: &Routing,
    tile: TileId,
) -> Result<InterfaceSummary, crate::TilingError> {
    let rect = plan.tile(tile)?.rect;
    let region = RegionSet::from_rects(device, std::iter::once(&rect));
    let mut summary = InterfaceSummary::default();
    let mut nodes = std::collections::BTreeSet::new();
    for (_, tree) in routing.iter() {
        for path in &tree.paths {
            match split_path(rrg, &region, path) {
                PathSplit::CrossOut { cross } | PathSplit::CrossIn { cross } => {
                    summary.crossings += 1;
                    nodes.insert(path[cross]);
                }
                PathSplit::Feedthrough => summary.crossings += 1,
                _ => {}
            }
        }
    }
    summary.interface_nodes = nodes.len();
    Ok(summary)
}

/// Splits a whole route tree, returning the kept (locked) fragment and
/// the work list for re-routing.
#[derive(Debug, Clone, Default)]
pub struct TreeSplit {
    /// Locked fragments (installed as the net's base before routing).
    pub base: RouteTree,
    /// Sinks to re-route from the net's (new) source pin toward a
    /// locked interface node (the net leaves the region here).
    pub route_to_interface: Vec<NodeId>,
    /// Interface nodes from which an in-region pin must be reached:
    /// `(interface node, original sink index)`.
    pub route_from_interface: Vec<(NodeId, usize)>,
    /// Original sink indices needing full in-region re-route.
    pub reroute_inside: Vec<usize>,
    /// Original sink indices needing unconfined re-route (feedthrough).
    pub reroute_free: Vec<usize>,
}

/// Splits each path of `tree` against `region`.
pub fn split_tree(rrg: &RoutingGraph, region: &RegionSet, tree: &RouteTree) -> TreeSplit {
    let mut out = TreeSplit::default();
    let mut seen_cross_out = false;
    for (k, path) in tree.paths.iter().enumerate() {
        match split_path(rrg, region, path) {
            PathSplit::KeepOutside => out.base.paths.push(path.clone()),
            PathSplit::DropInside => out.reroute_inside.push(k),
            PathSplit::Feedthrough => out.reroute_free.push(k),
            PathSplit::CrossOut { cross } => {
                out.base.paths.push(path[cross..].to_vec());
                // One connection from the new source to the interface
                // is enough even if several sinks share the exit.
                if !seen_cross_out {
                    out.route_to_interface.push(path[cross]);
                    seen_cross_out = true;
                } else if !out.route_to_interface.contains(&path[cross]) {
                    out.route_to_interface.push(path[cross]);
                }
            }
            PathSplit::CrossIn { cross } => {
                out.base.paths.push(path[..=cross].to_vec());
                out.route_from_interface.push((path[cross], k));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga::{ClbSlot, Coord};

    fn setup() -> (Device, RoutingGraph, RegionSet) {
        let dev = Device::new(6, 6, 4, 2).unwrap();
        let rrg = RoutingGraph::new(&dev);
        // Region = lower-left 3x3 tile.
        let region = RegionSet::from_rects(&dev, std::iter::once(&Rect::new(0, 0, 2, 2)));
        (dev, rrg, region)
    }

    #[test]
    fn node_membership() {
        let (_, rrg, region) = setup();
        // Interior pin.
        assert!(region.contains_node(&rrg, rrg.opin(Coord::new(1, 1), ClbSlot::LutF)));
        // Outside pin.
        assert!(!region.contains_node(&rrg, rrg.opin(Coord::new(4, 4), ClbSlot::LutF)));
        // Interior channel (between rows 0 and 1 at column 1).
        assert!(region.contains_node(&rrg, rrg.chanx(1, 1, 0)));
        // Boundary channel between region row 2 and outside row 3.
        assert!(!region.contains_node(&rrg, rrg.chanx(1, 3, 0)));
        // Device-edge channel below row 0 clamps inside.
        assert!(region.contains_node(&rrg, rrg.chanx(1, 0, 0)));
        assert_eq!(region.area(), 9);
        // IOB pads are outside every region, even adjacent to an edge
        // tile (their nets split as driver-outside crossings).
        let pad = rrg.iob(fpga::IobSite {
            side: fpga::IobSide::West,
            pos: 1,
            k: 0,
        });
        assert!(!region.contains_node(&rrg, pad));
        assert!(!region.touches_node(&rrg, pad));
    }

    #[test]
    fn split_paths_all_cases() {
        let (_, rrg, region) = setup();
        let inside_pin = rrg.opin(Coord::new(0, 0), ClbSlot::LutF);
        let inside_wire = rrg.chanx(1, 1, 0);
        let inside_ipin = rrg.ipin(Coord::new(1, 1), 0);
        let boundary = rrg.chanx(1, 3, 0); // straddles the region edge
        let outside_wire = rrg.chanx(4, 4, 0);
        let outside_ipin = rrg.ipin(Coord::new(4, 4), 0);
        let outside_opin = rrg.opin(Coord::new(4, 4), ClbSlot::LutF);

        assert_eq!(
            split_path(&rrg, &region, &[outside_opin, outside_wire, outside_ipin]),
            PathSplit::KeepOutside
        );
        assert_eq!(
            split_path(&rrg, &region, &[inside_pin, inside_wire, inside_ipin]),
            PathSplit::DropInside
        );
        assert_eq!(
            split_path(
                &rrg,
                &region,
                &[
                    inside_pin,
                    inside_wire,
                    boundary,
                    outside_wire,
                    outside_ipin
                ]
            ),
            PathSplit::CrossOut { cross: 2 }
        );
        assert_eq!(
            split_path(
                &rrg,
                &region,
                &[
                    outside_opin,
                    outside_wire,
                    boundary,
                    inside_wire,
                    inside_ipin
                ]
            ),
            PathSplit::CrossIn { cross: 2 }
        );
        assert_eq!(
            split_path(
                &rrg,
                &region,
                &[outside_opin, boundary, inside_wire, boundary, outside_ipin]
            ),
            PathSplit::Feedthrough
        );
    }

    #[test]
    fn split_tree_collects_work() {
        let (_, rrg, region) = setup();
        let inside_pin = rrg.opin(Coord::new(0, 0), ClbSlot::LutF);
        let inside_wire = rrg.chanx(1, 1, 0);
        let boundary = rrg.chanx(1, 3, 0);
        let outside_wire = rrg.chanx(4, 4, 0);
        let outside_ipin = rrg.ipin(Coord::new(4, 4), 0);
        let inside_ipin = rrg.ipin(Coord::new(1, 1), 0);
        let tree = RouteTree {
            paths: vec![
                vec![
                    inside_pin,
                    inside_wire,
                    boundary,
                    outside_wire,
                    outside_ipin,
                ],
                vec![inside_pin, inside_wire, inside_ipin],
            ],
        };
        let split = split_tree(&rrg, &region, &tree);
        assert_eq!(split.base.paths.len(), 1);
        assert_eq!(split.base.paths[0][0], boundary);
        assert_eq!(split.route_to_interface, vec![boundary]);
        assert_eq!(split.reroute_inside, vec![1]);
        assert!(split.route_from_interface.is_empty());
        assert!(split.reroute_free.is_empty());
    }

    #[test]
    fn mask_matches_membership() {
        let (_, rrg, region) = setup();
        let mask = region.node_mask(&rrg);
        assert!(mask[rrg.opin(Coord::new(1, 1), ClbSlot::LutF).index()]);
        assert!(!mask[rrg.opin(Coord::new(5, 5), ClbSlot::LutF).index()]);
    }
}
