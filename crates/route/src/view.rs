//! Read-mostly grid views for parallel negotiated-congestion rounds.
//!
//! During a PathFinder round every uncommitted task routes against an
//! immutable snapshot of the shared [`RoutingGrid`] plus a private overlay
//! of its own in-progress claims ([`TaskView`]). The base grid still holds
//! the *previous* round's claims of every other ripped-up task, so each
//! search negotiates against one-round-stale present costs — the classic
//! parallel-PathFinder relaxation — while the task's own previous claims
//! are hidden (a rip-up must not give the old path a reuse discount).
//!
//! The [`GridView`] trait is what the A* engine ([`crate::astar`]) and the
//! net-routing loop see; it is implemented both by the real grid (used for
//! the sequential fault-degradation path) and by the per-task overlay.

use af_geom::{GridDim, GridPoint};
use af_netlist::NetId;

use crate::astar::StampedMap;
use crate::grid::RoutingGrid;

/// Uniform read/claim interface over a routing grid or a task overlay.
pub(crate) trait GridView {
    /// Grid dimensions.
    fn dim(&self) -> &GridDim;
    /// Grid column of the symmetry axis.
    fn axis_col(&self) -> u32;
    /// Mirror transform across the symmetry axis.
    fn mirror(&self, g: GridPoint) -> Option<GridPoint>;
    /// Whether the node is a hard obstacle.
    fn is_blocked(&self, idx: usize) -> bool;
    /// Whether the node is a pin access point.
    fn is_pin(&self, idx: usize) -> bool;
    /// Effective owner of the node.
    fn owner(&self, idx: usize) -> Option<NetId>;
    /// Negotiation history cost of the node.
    fn history(&self, idx: usize) -> f32;
    /// Claims a node for `net`; `false` when blocked or owned by another
    /// net (the trespass is still recorded by the caller — negotiation
    /// resolves it later).
    fn claim_node(&mut self, idx: usize, net: NetId) -> bool;
}

impl GridView for RoutingGrid {
    fn dim(&self) -> &GridDim {
        RoutingGrid::dim(self)
    }
    fn axis_col(&self) -> u32 {
        RoutingGrid::axis_col(self)
    }
    fn mirror(&self, g: GridPoint) -> Option<GridPoint> {
        RoutingGrid::mirror(self, g)
    }
    fn is_blocked(&self, idx: usize) -> bool {
        RoutingGrid::is_blocked(self, idx)
    }
    fn is_pin(&self, idx: usize) -> bool {
        RoutingGrid::is_pin(self, idx)
    }
    fn owner(&self, idx: usize) -> Option<NetId> {
        RoutingGrid::owner(self, idx)
    }
    fn history(&self, idx: usize) -> f32 {
        RoutingGrid::history(self, idx)
    }
    fn claim_node(&mut self, idx: usize, net: NetId) -> bool {
        RoutingGrid::claim(self, idx, net)
    }
}

/// One task's private view during a parallel round: the shared base grid
/// (immutable) plus this task's overlay claims.
///
/// Ownership resolution:
/// 1. overlay claims win (the task sees its own in-progress tree),
/// 2. base claims of the task's *own* nets are hidden unless they are pins
///    (the task is being re-routed; its stale wires must not look owned),
/// 3. everything else reads through to the base snapshot.
///
/// The overlay is a dense per-node map of claiming net indices, borrowed
/// from the worker's thread-local buffers and cleared in O(1) per task.
pub(crate) struct TaskView<'a> {
    base: &'a RoutingGrid,
    exclude: [Option<NetId>; 2],
    claims: &'a mut StampedMap,
}

impl<'a> TaskView<'a> {
    /// A fresh view for a task over `exclude` nets (its members), with its
    /// overlay in `claims` (whose previous entries are dropped).
    pub(crate) fn new(
        base: &'a RoutingGrid,
        exclude: [Option<NetId>; 2],
        claims: &'a mut StampedMap,
    ) -> Self {
        claims.clear(base.dim().len());
        Self {
            base,
            exclude,
            claims,
        }
    }
}

impl GridView for TaskView<'_> {
    fn dim(&self) -> &GridDim {
        self.base.dim()
    }
    fn axis_col(&self) -> u32 {
        self.base.axis_col()
    }
    fn mirror(&self, g: GridPoint) -> Option<GridPoint> {
        self.base.mirror(g)
    }
    fn is_blocked(&self, idx: usize) -> bool {
        self.base.is_blocked(idx)
    }
    fn is_pin(&self, idx: usize) -> bool {
        self.base.is_pin(idx)
    }
    fn owner(&self, idx: usize) -> Option<NetId> {
        if let Some(n) = self.claims.get(idx) {
            return Some(NetId::new(n));
        }
        match self.base.owner(idx) {
            Some(o) if self.exclude.contains(&Some(o)) && !self.base.is_pin(idx) => None,
            other => other,
        }
    }
    fn history(&self, idx: usize) -> f32 {
        self.base.history(idx)
    }
    fn claim_node(&mut self, idx: usize, net: NetId) -> bool {
        if self.is_blocked(idx) {
            return false;
        }
        match self.owner(idx) {
            None => {
                self.claims.insert(idx, net.index() as u32);
                true
            }
            Some(o) => o == net,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use af_netlist::benchmarks;
    use af_place::{place, PlacementVariant};
    use af_tech::Technology;

    fn grid() -> RoutingGrid {
        let c = benchmarks::ota1();
        let p = place(&c, PlacementVariant::A);
        RoutingGrid::new(&c, &p, &Technology::nm40(), 2)
    }

    #[test]
    fn overlay_claims_shadow_base() {
        let mut base = grid();
        let idx = (0..base.dim().len()).find(|&i| base.is_free(i)).unwrap();
        let committed = NetId::new(5);
        assert!(base.claim(idx, committed));

        let me = NetId::new(1);
        let mut overlay = StampedMap::default();
        let mut v = TaskView::new(&base, [Some(me), None], &mut overlay);
        // committed claims of other nets read through
        assert_eq!(GridView::owner(&v, idx), Some(committed));
        assert!(!v.claim_node(idx, me), "cannot claim another net's node");
        // fresh claims land in the overlay, not the base
        let free = (0..base.dim().len())
            .find(|&i| base.is_free(i) && i != idx)
            .unwrap();
        assert!(v.claim_node(free, me));
        assert_eq!(GridView::owner(&v, free), Some(me));
        assert!(base.is_free(free), "base untouched by overlay claims");
    }

    #[test]
    fn own_stale_claims_are_hidden_but_pins_stay() {
        let mut base = grid();
        let me = NetId::new(2);
        let wire = (0..base.dim().len()).find(|&i| base.is_free(i)).unwrap();
        let pin = (0..base.dim().len())
            .find(|&i| base.is_free(i) && i != wire)
            .unwrap();
        base.claim(wire, me);
        base.claim_pin(pin, me);

        let mut overlay = StampedMap::default();
        let v = TaskView::new(&base, [Some(me), None], &mut overlay);
        assert_eq!(
            GridView::owner(&v, wire),
            None,
            "previous-round wire is invisible to its own re-route"
        );
        assert_eq!(GridView::owner(&v, pin), Some(me), "pins stay owned");
        assert!(GridView::is_pin(&v, pin));
    }

    #[test]
    fn blocked_nodes_cannot_be_claimed() {
        let base = grid();
        let blocked = (0..base.dim().len()).find(|&i| base.is_blocked(i)).unwrap();
        let mut overlay = StampedMap::default();
        let mut v = TaskView::new(&base, [None, None], &mut overlay);
        assert!(!v.claim_node(blocked, NetId::new(0)));
        assert_eq!(GridView::owner(&v, blocked), None);
    }
}
