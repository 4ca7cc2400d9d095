//! The 3-D routing grid: geometry, occupancy, obstacles, and mirror math.

use af_geom::{GridDim, GridPoint, Point, Point3};
use af_netlist::{Circuit, DeviceKind, NetId};
use af_place::Placement;
use af_tech::Technology;

/// Occupancy encoding: `FREE`, `BLOCKED`, or `NET_BASE + net index`.
const FREE: u32 = u32::MAX;
const BLOCKED: u32 = u32::MAX - 1;

/// The routing grid of one placement: node occupancy, history costs, pin
/// flags, and the symmetry-mirror transform.
///
/// Nodes are indexed by [`GridDim::flat_index`]. Layer 0 is M1.
#[derive(Debug, Clone)]
pub struct RoutingGrid {
    dim: GridDim,
    /// Primary owner per node (`FREE`, `BLOCKED`, or net index).
    occ: Vec<u32>,
    /// Negotiated-routing history cost per node.
    history: Vec<f32>,
    /// Nodes that are pin access points (impassable for other nets).
    is_pin: Vec<bool>,
    /// Grid column of the symmetry axis.
    axis_col: u32,
    layer_pitch: i64,
}

impl RoutingGrid {
    /// Builds a grid covering the placement's die.
    ///
    /// `coarsen` multiplies the technology grid pitch (1 = full density). The
    /// grid origin is aligned so the symmetry axis falls exactly on a grid
    /// column, making mirroring exact.
    ///
    /// Obstacles: every device footprint blocks M1 (capacitors additionally
    /// block M2, as MOM caps consume low metal).
    pub fn new(circuit: &Circuit, placement: &Placement, tech: &Technology, coarsen: i64) -> Self {
        assert!(coarsen >= 1, "coarsen must be >= 1");
        let pitch = tech.grid_pitch() * coarsen;
        let die = placement.die();
        let axis = placement.axis_x();

        // Align origin.x so that the axis is on a grid column.
        let cols_left = (axis - die.lo().x) / pitch;
        let origin_x = axis - cols_left * pitch;
        let origin = Point::new(origin_x, die.lo().y);
        let nx = ((die.hi().x - origin_x) / pitch + 1).max(2) as u32;
        let ny = ((die.hi().y - origin.y) / pitch + 1).max(2) as u32;
        let layers = tech.num_layers();
        let dim = GridDim::new(origin, nx, ny, layers, pitch);

        let mut grid = Self {
            dim,
            occ: vec![FREE; dim.len()],
            history: vec![0.0; dim.len()],
            is_pin: vec![false; dim.len()],
            axis_col: cols_left as u32,
            layer_pitch: tech.layer_pitch(),
        };

        // Device obstacles.
        for (i, rect) in placement.device_rects().iter().enumerate() {
            let kind = circuit.devices()[i].kind;
            let keepout = tech.rules().device_keepout;
            let r = rect.expanded(keepout);
            let max_layer: u8 = if kind == DeviceKind::Capacitor { 1 } else { 0 };
            for l in 0..=max_layer {
                grid.block_rect(&r, l);
            }
        }
        grid
    }

    fn block_rect(&mut self, r: &af_geom::Rect, layer: u8) {
        let (x0, y0) = self.cell_floor(r.lo());
        let (x1, y1) = self.cell_ceil(r.hi());
        for y in y0..=y1.min(self.dim.ny() as i64 - 1) {
            for x in x0..=x1.min(self.dim.nx() as i64 - 1) {
                if x < 0 || y < 0 {
                    continue;
                }
                let g = GridPoint::new(x as u32, y as u32, layer);
                let idx = self.dim.flat_index(g);
                self.occ[idx] = BLOCKED;
            }
        }
    }

    fn cell_floor(&self, p: Point) -> (i64, i64) {
        (
            (p.x - self.dim.origin().x).div_euclid(self.dim.pitch()),
            (p.y - self.dim.origin().y).div_euclid(self.dim.pitch()),
        )
    }

    fn cell_ceil(&self, p: Point) -> (i64, i64) {
        (
            (p.x - self.dim.origin().x + self.dim.pitch() - 1).div_euclid(self.dim.pitch()),
            (p.y - self.dim.origin().y + self.dim.pitch() - 1).div_euclid(self.dim.pitch()),
        )
    }

    /// Grid dimensions.
    pub fn dim(&self) -> &GridDim {
        &self.dim
    }

    /// dbu-per-layer-hop used in cost-aware distances.
    pub fn layer_pitch(&self) -> i64 {
        self.layer_pitch
    }

    /// Grid column of the symmetry axis.
    pub fn axis_col(&self) -> u32 {
        self.axis_col
    }

    /// Mirrors a grid point across the symmetry axis; `None` if the mirror
    /// falls outside the grid.
    pub fn mirror(&self, g: GridPoint) -> Option<GridPoint> {
        let mx = 2 * i64::from(self.axis_col) - i64::from(g.x);
        if mx < 0 || mx >= i64::from(self.dim.nx()) {
            return None;
        }
        Some(GridPoint::new(mx as u32, g.y, g.l))
    }

    /// Whether the node is free (unowned and unblocked).
    pub fn is_free(&self, idx: usize) -> bool {
        self.occ[idx] == FREE
    }

    /// Whether the node is a hard obstacle.
    pub fn is_blocked(&self, idx: usize) -> bool {
        self.occ[idx] == BLOCKED
    }

    /// The net owning the node, if any.
    pub fn owner(&self, idx: usize) -> Option<NetId> {
        match self.occ[idx] {
            FREE | BLOCKED => None,
            n => Some(NetId::new(n)),
        }
    }

    /// Whether the node is a pin access point.
    pub fn is_pin(&self, idx: usize) -> bool {
        self.is_pin[idx]
    }

    /// History cost of the node.
    pub fn history(&self, idx: usize) -> f32 {
        self.history[idx]
    }

    /// Adds negotiated-routing history cost to the node.
    pub fn bump_history(&mut self, idx: usize, amount: f32) {
        self.history[idx] += amount;
    }

    /// Claims a free (or already-owned-by-`net`) node for `net`.
    ///
    /// Returns `false` when the node is blocked or owned by a different net.
    pub fn claim(&mut self, idx: usize, net: NetId) -> bool {
        match self.occ[idx] {
            FREE => {
                self.occ[idx] = net.index() as u32;
                true
            }
            BLOCKED => false,
            n => n == net.index() as u32,
        }
    }

    /// Marks a node as a pin access point of `net`.
    ///
    /// # Panics
    ///
    /// Panics if the node is owned by a different net or is another net's pin.
    pub fn claim_pin(&mut self, idx: usize, net: NetId) {
        let ok = self.claim(idx, net);
        assert!(ok, "pin node already taken by another net");
        self.is_pin[idx] = true;
    }

    /// Frees the node when `net` owns it and it is not a pin access point.
    pub fn release(&mut self, idx: usize, net: NetId) {
        if self.occ[idx] == net.index() as u32 && !self.is_pin[idx] {
            self.occ[idx] = FREE;
        }
    }

    /// Unblocks a node (used when a pin shape overlaps a device keepout).
    pub fn force_free(&mut self, idx: usize) {
        self.occ[idx] = FREE;
    }

    /// Converts a node index to its dbu location.
    pub fn node_dbu(&self, idx: usize) -> Point3 {
        self.dim.to_dbu(self.dim.from_flat(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use af_netlist::benchmarks;
    use af_place::{place, PlacementVariant};

    fn grid() -> (af_netlist::Circuit, Placement, RoutingGrid) {
        let c = benchmarks::ota1();
        let p = place(&c, PlacementVariant::A);
        let t = Technology::nm40();
        let g = RoutingGrid::new(&c, &p, &t, 2);
        (c, p, g)
    }

    #[test]
    fn axis_on_grid_column() {
        let (_, p, g) = grid();
        let axis_dbu = g.dim().to_dbu(GridPoint::new(g.axis_col(), 0, 0)).x;
        assert_eq!(
            axis_dbu,
            p.axis_x() - (p.axis_x() - axis_dbu),
            "axis column maps near axis"
        );
        // the axis column must be within one pitch of the true axis
        assert!((axis_dbu - p.axis_x()).abs() < g.dim().pitch());
    }

    #[test]
    fn mirror_is_involution_inside() {
        let (_, _, g) = grid();
        let pt = GridPoint::new(g.axis_col() + 3, 5, 1);
        let m = g.mirror(pt).unwrap();
        assert_eq!(g.mirror(m), Some(pt));
        assert_eq!(m.x, g.axis_col() - 3);
    }

    #[test]
    fn devices_block_m1() {
        let (_, p, g) = grid();
        let r = p.device_rects()[0];
        let center = r.center();
        let gp = g.dim().snap(center, 0).unwrap();
        assert!(g.is_blocked(g.dim().flat_index(gp)));
        // M3 above the device is free
        let gp3 = g.dim().snap(center, 2).unwrap();
        assert!(!g.is_blocked(g.dim().flat_index(gp3)));
    }

    #[test]
    fn claim_and_release() {
        let (_, _, g0) = grid();
        let mut g = g0;
        // find a free node
        let idx = (0..g.dim().len()).find(|&i| g.is_free(i)).unwrap();
        let net = NetId::new(3);
        assert!(g.claim(idx, net));
        assert_eq!(g.owner(idx), Some(net));
        assert!(g.claim(idx, net), "re-claim by same net ok");
        assert!(!g.claim(idx, NetId::new(4)), "other net cannot claim");
        g.release(idx, NetId::new(4));
        assert_eq!(g.owner(idx), Some(net), "only the owner releases");
        g.release(idx, net);
        assert!(g.is_free(idx));
    }

    #[test]
    fn pin_nodes_survive_release() {
        let (_, _, g0) = grid();
        let mut g = g0;
        let idx = (0..g.dim().len()).find(|&i| g.is_free(i)).unwrap();
        let net = NetId::new(2);
        g.claim_pin(idx, net);
        g.release(idx, net);
        assert_eq!(g.owner(idx), Some(net));
        assert!(g.is_pin(idx));
    }

    #[test]
    fn history_accumulates() {
        let (_, _, g0) = grid();
        let mut g = g0;
        g.bump_history(10, 1.5);
        g.bump_history(10, 0.5);
        assert!((g.history(10) - 2.0).abs() < 1e-6);
    }
}
