//! Delay model and static timing analysis.
//!
//! Table 1 of the paper reports a *timing overhead* column: the change
//! in post-route critical path caused by tiling constraints. This
//! module computes that critical path with
//! [`TimingReport::analyze_routed`]: it sums intrinsic RRG node delays
//! along each net's actual route (post-route signoff), and estimates
//! unrouted nets from placement Manhattan distance.

use netlist::{CellId, CellKind, Netlist, NetlistError};

use crate::device::Device;
use crate::placedb::Placement;
use crate::routedb::Routing;
use crate::rrg::RoutingGraph;

/// Logic-element delays, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayModel {
    /// LUT look-up delay.
    pub lut: f64,
    /// Flip-flop clock-to-Q delay.
    pub ff_clk_to_q: f64,
    /// Flip-flop setup requirement.
    pub ff_setup: f64,
    /// Estimated net delay intercept (pre-route model).
    pub est_base: f64,
    /// Estimated net delay per CLB of Manhattan distance.
    pub est_per_clb: f64,
}

impl Default for DelayModel {
    fn default() -> Self {
        Self {
            lut: 1.2,
            ff_clk_to_q: 0.8,
            ff_setup: 0.4,
            est_base: 0.8,
            est_per_clb: 0.35,
        }
    }
}

/// Result of a static timing analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Critical-path delay in nanoseconds (max over all endpoints).
    pub critical_ns: f64,
    /// The endpoint cell of the critical path (PO or FF D-pin).
    pub worst_endpoint: Option<CellId>,
    /// Cells along the critical path, endpoint last.
    pub critical_path: Vec<CellId>,
}

impl TimingReport {
    /// Maximum clock frequency implied by the critical path, in MHz.
    pub fn fmax_mhz(&self) -> f64 {
        if self.critical_ns <= 0.0 {
            f64::INFINITY
        } else {
            1000.0 / self.critical_ns
        }
    }

    /// Post-route analysis using actual route-tree delays.
    ///
    /// Nets without a route fall back to the placement estimate when
    /// `placement` knows both endpoints, else to the model intercept.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError::CombinationalLoop`] from ordering.
    pub fn analyze_routed(
        nl: &Netlist,
        device: &Device,
        placement: &Placement,
        routing: &Routing,
        rrg: &RoutingGraph,
        model: &DelayModel,
    ) -> Result<Self, NetlistError> {
        analyze(nl, model, |net, sink_idx| {
            routing
                .route(net)
                .and_then(|tree| tree.sink_delay(rrg, sink_idx))
                .unwrap_or_else(|| estimate(nl, device, placement, model, net, sink_idx))
        })
    }
}

fn estimate(
    nl: &Netlist,
    device: &Device,
    placement: &Placement,
    model: &DelayModel,
    net: netlist::NetId,
    sink_idx: usize,
) -> f64 {
    let Ok(n) = nl.net(net) else {
        return model.est_base;
    };
    let (Some(driver), Some(sink)) = (n.driver, n.sinks.get(sink_idx)) else {
        return model.est_base;
    };
    let (Some(dl), Some(sl)) = (placement.loc_of(driver), placement.loc_of(sink.cell)) else {
        return model.est_base;
    };
    let a = dl.proxy_coord(device.width(), device.height());
    let b = sl.proxy_coord(device.width(), device.height());
    model.est_base + model.est_per_clb * a.manhattan(b) as f64
}

fn analyze(
    nl: &Netlist,
    model: &DelayModel,
    net_sink_delay: impl Fn(netlist::NetId, usize) -> f64,
) -> Result<TimingReport, NetlistError> {
    let order = nl.topo_order()?;
    let cap = nl.cell_capacity();
    let mut arrival = vec![0.0f64; cap];
    let mut pred: Vec<Option<CellId>> = vec![None; cap];

    // Worst (arrival + net delay) over a cell's fanins.
    fn best_input(
        nl: &Netlist,
        arrival: &[f64],
        net_sink_delay: &impl Fn(netlist::NetId, usize) -> f64,
        cell: CellId,
    ) -> Result<(f64, Option<CellId>), NetlistError> {
        let c = nl.cell(cell)?;
        let mut best = 0.0f64;
        let mut from = None;
        for &net in &c.inputs {
            let n = nl.net(net)?;
            let Some(driver) = n.driver else { continue };
            let sink_idx = n.sinks.iter().position(|s| s.cell == cell).unwrap_or(0);
            let t = arrival[driver.index()] + net_sink_delay(net, sink_idx);
            if t >= best {
                best = t;
                from = Some(driver);
            }
        }
        Ok((best, from))
    }

    let mut endpoints: Vec<(f64, CellId)> = Vec::new();
    for id in order {
        let cell = nl.cell(id)?;
        match &cell.kind {
            CellKind::Input => arrival[id.index()] = 0.0,
            CellKind::Ff { .. } => {
                // Launch side: Q is available clk-to-Q after the edge.
                arrival[id.index()] = model.ff_clk_to_q;
            }
            CellKind::Lut(_) => {
                let (t, from) = best_input(nl, &arrival, &net_sink_delay, id)?;
                arrival[id.index()] = t + model.lut;
                pred[id.index()] = from;
            }
            CellKind::Output => {
                let (t, from) = best_input(nl, &arrival, &net_sink_delay, id)?;
                arrival[id.index()] = t;
                pred[id.index()] = from;
                endpoints.push((t, id));
            }
        }
    }
    // Capture side of every flip-flop: arrival at D plus setup.
    for (id, cell) in nl.cells() {
        if !cell.is_sequential() {
            continue;
        }
        let (t, from) = best_input(nl, &arrival, &net_sink_delay, id)?;
        if from.is_some() || t > 0.0 {
            endpoints.push((t + model.ff_setup, id));
            // Record the capture-path predecessor without clobbering
            // the launch-side arrival.
            pred[id.index()] = from.or(pred[id.index()]);
        }
    }

    let worst = endpoints.iter().cloned().max_by(|a, b| a.0.total_cmp(&b.0));
    let (critical_ns, worst_endpoint) = match worst {
        Some((t, id)) => (t, Some(id)),
        None => (0.0, None),
    };
    let mut critical_path = Vec::new();
    let mut cur = worst_endpoint;
    let mut hops = 0;
    while let Some(id) = cur {
        critical_path.push(id);
        cur = pred[id.index()];
        hops += 1;
        if hops > cap {
            break; // defensive: predecessor chains cannot exceed cells
        }
    }
    critical_path.reverse();
    Ok(TimingReport {
        critical_ns,
        worst_endpoint,
        critical_path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bel::{BelLoc, ClbSlot};
    use netlist::TruthTable;

    /// a -> lut1 -> lut2 -> y
    fn chain() -> Netlist {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let l1 = nl
            .add_lut("l1", TruthTable::not(), &[nl.cell_output(a).unwrap()])
            .unwrap();
        let l2 = nl
            .add_lut("l2", TruthTable::not(), &[nl.cell_output(l1).unwrap()])
            .unwrap();
        nl.add_output("y", nl.cell_output(l2).unwrap()).unwrap();
        nl
    }

    /// Analysis with no route at all: every net falls back to the
    /// placement estimate.
    fn unrouted(nl: &Netlist, dev: &Device, p: &Placement, m: &DelayModel) -> TimingReport {
        let rrg = RoutingGraph::new(dev);
        let routing = Routing::new(rrg.num_nodes());
        TimingReport::analyze_routed(nl, dev, p, &routing, &rrg, m).unwrap()
    }

    fn placed_chain(spread: u16) -> (Netlist, Device, Placement) {
        let nl = chain();
        let dev = Device::new(8, 8, 4, 2).unwrap();
        let mut p = Placement::new(nl.cell_capacity());
        let a = nl.find_cell("a").unwrap();
        let l1 = nl.find_cell("l1").unwrap();
        let l2 = nl.find_cell("l2").unwrap();
        let y = nl.find_cell("y").unwrap();
        p.place(
            a,
            BelLoc::Iob(crate::IobSite {
                side: crate::IobSide::West,
                pos: 0,
                k: 0,
            }),
        )
        .unwrap();
        p.place(l1, BelLoc::clb(0, 0, ClbSlot::LutF)).unwrap();
        p.place(l2, BelLoc::clb(spread, 0, ClbSlot::LutF)).unwrap();
        // Output pad on the west edge so total path length grows with
        // `spread` (out and back) instead of staying constant.
        p.place(
            y,
            BelLoc::Iob(crate::IobSite {
                side: crate::IobSide::West,
                pos: 1,
                k: 0,
            }),
        )
        .unwrap();
        (nl, dev, p)
    }

    #[test]
    fn placed_estimate_monotone_in_distance() {
        let (nl, dev, p1) = placed_chain(1);
        let (nl2, dev2, p2) = placed_chain(7);
        let m = DelayModel::default();
        let t1 = unrouted(&nl, &dev, &p1, &m);
        let t2 = unrouted(&nl2, &dev2, &p2, &m);
        assert!(t2.critical_ns > t1.critical_ns);
        assert!(t1.fmax_mhz() > t2.fmax_mhz());
    }

    #[test]
    fn critical_path_walks_the_chain() {
        let (nl, dev, p) = placed_chain(3);
        let m = DelayModel::default();
        let t = unrouted(&nl, &dev, &p, &m);
        let names: Vec<&str> = t
            .critical_path
            .iter()
            .map(|&c| nl.cell(c).unwrap().name.as_str())
            .collect();
        assert_eq!(names, vec!["a", "l1", "l2", "y"]);
        assert_eq!(t.worst_endpoint, nl.find_cell("y"));
    }

    #[test]
    fn ff_paths_include_setup_and_clk_to_q() {
        let mut nl = Netlist::new("seq");
        let seed = nl.add_net("seed").unwrap();
        let ff = nl.add_ff("q", false, seed).unwrap();
        let q = nl.cell_output(ff).unwrap();
        let inv = nl.add_lut("inv", TruthTable::not(), &[q]).unwrap();
        nl.set_pin(ff, 0, nl.cell_output(inv).unwrap()).unwrap();
        nl.add_output("out", q).unwrap();
        let dev = Device::new(4, 4, 4, 2).unwrap();
        let mut p = Placement::new(nl.cell_capacity());
        p.place(ff, BelLoc::clb(0, 0, ClbSlot::FfA)).unwrap();
        p.place(inv, BelLoc::clb(0, 0, ClbSlot::LutF)).unwrap();
        let m = DelayModel::default();
        let t = unrouted(&nl, &dev, &p, &m);
        // clk->q + net + lut + net + setup, nets at distance 0.
        let expect = m.ff_clk_to_q + m.est_base + m.lut + m.est_base + m.ff_setup;
        assert!(
            (t.critical_ns - expect).abs() < 1e-9,
            "{} vs {expect}",
            t.critical_ns
        );
    }

    #[test]
    fn empty_design_has_zero_delay() {
        let nl = Netlist::new("empty");
        let dev = Device::new(2, 2, 2, 2).unwrap();
        let p = Placement::new(0);
        let t = unrouted(&nl, &dev, &p, &DelayModel::default());
        assert_eq!(t.critical_ns, 0.0);
        assert!(t.worst_endpoint.is_none());
        assert!(t.fmax_mhz().is_infinite());
    }

    #[test]
    fn routed_analysis_prefers_route_delays() {
        let (nl, dev, p) = placed_chain(3);
        let rrg = RoutingGraph::new(&dev);
        let mut routing = Routing::new(rrg.num_nodes());
        // Route only l1->l2 with a tiny direct path.
        let l1 = nl.find_cell("l1").unwrap();
        let net = nl.cell_output(l1).unwrap();
        routing.set_route(
            net,
            crate::routedb::RouteTree {
                paths: vec![vec![
                    rrg.opin(crate::Coord::new(0, 0), ClbSlot::LutF),
                    rrg.chanx(0, 1, 0),
                    rrg.ipin(crate::Coord::new(0, 0), 4),
                ]],
            },
        );
        let m = DelayModel::default();
        let routed = TimingReport::analyze_routed(&nl, &dev, &p, &routing, &rrg, &m).unwrap();
        let placed = unrouted(&nl, &dev, &p, &m);
        // The routed l1->l2 hop (1.05ns) is cheaper than the 3-CLB
        // estimate (0.8 + 3*0.35 = 1.85ns).
        assert!(routed.critical_ns < placed.critical_ns);
    }
}
