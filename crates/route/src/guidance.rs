//! Routing guidance fields: the paper's non-uniform per-access-point cost
//! triples, and the uniform 2-D maps of GeniusRoute for comparison.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use af_geom::{Axis, CostTriple, Point3};
use af_netlist::NetId;

/// Non-uniform routing guidance: one [`CostTriple`] per pin access point of
/// each guided net (the paper's `C = {C_i}`; Problem 2).
///
/// During routing, a step along axis `d` near access point `k` of net `i`
/// multiplies the step cost by `C_{i,k}[d]`.
///
/// # Examples
///
/// ```
/// use af_geom::{CostTriple, Point3};
/// use af_netlist::NetId;
/// use af_route::NonUniformGuidance;
///
/// let mut g = NonUniformGuidance::new();
/// g.set(NetId::new(0), Point3::new(0, 0, 0), CostTriple([0.5, 2.0, 1.0]));
/// let m = g.multiplier(NetId::new(0), Point3::new(10, 10, 0), af_geom::Axis::X);
/// assert!((m - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NonUniformGuidance {
    /// Per net: (access-point location, cost triple).
    entries: HashMap<u32, Vec<(Point3, CostTriple)>>,
}

impl NonUniformGuidance {
    /// Creates an empty guidance field (neutral everywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the triple for one access point of `net`.
    pub fn set(&mut self, net: NetId, ap: Point3, triple: CostTriple) {
        self.entries
            .entry(net.index() as u32)
            .or_default()
            .push((ap, triple));
    }

    /// All guided entries of one net.
    pub fn of_net(&self, net: NetId) -> &[(Point3, CostTriple)] {
        self.entries
            .get(&(net.index() as u32))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of guided access points across all nets.
    pub fn len(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// Whether the field is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Nets that carry guidance.
    pub fn nets(&self) -> impl Iterator<Item = NetId> + '_ {
        self.entries.keys().map(|&k| NetId::new(k))
    }

    /// Cost multiplier for a step of `net` along `axis` at `pos`: the triple
    /// of the *nearest* guided access point of that net (1.0 when the net is
    /// unguided).
    pub fn multiplier(&self, net: NetId, pos: Point3, axis: Axis) -> f64 {
        let list = self.of_net(net);
        nearest_ap(list, pos).map_or(1.0, |k| list[k].1[axis.index()])
    }

    /// Per-net normalization constant: the true minimum over the net's
    /// triple components, with no neutral-1.0 fold (nearest-AP lookup covers
    /// the whole plane, so a guided net never samples neutral). The router
    /// divides every multiplier by this, which makes guidance *scale-free*:
    /// multiplying all of a net's triples by one factor changes nothing.
    pub fn scale_floor(&self, net: NetId) -> f64 {
        let Some(list) = self.entries.get(&(net.index() as u32)) else {
            return 1.0;
        };
        list.iter()
            .flat_map(|(_, t)| t.0)
            .fold(f64::INFINITY, f64::min)
            .clamp(1e-6, f64::MAX)
    }
}

/// Index of the access point in `list` nearest to `pos`; on a tie the
/// first listed wins. `None` for an empty list.
pub(crate) fn nearest_ap(list: &[(Point3, CostTriple)], pos: Point3) -> Option<usize> {
    let mut best = None;
    let mut best_d = i64::MAX;
    for (k, (ap, _)) in list.iter().enumerate() {
        let d = ap.manhattan_3d(pos, 1);
        if d < best_d {
            best_d = d;
            best = Some(k);
        }
    }
    best
}

/// A uniform 2-D guidance map (the GeniusRoute style): per-net multiplier
/// sampled on a coarse `w × h` raster over the die.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GuidanceMap2D {
    /// Raster width.
    pub w: usize,
    /// Raster height.
    pub h: usize,
    /// Die lower-left in dbu.
    pub origin: (i64, i64),
    /// Die size in dbu.
    pub size: (i64, i64),
    /// Per net: `w*h` multipliers (row-major, y-major ordering).
    maps: HashMap<u32, Vec<f64>>,
}

impl GuidanceMap2D {
    /// Creates an empty map raster over the given die window.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate raster or window.
    pub fn new(w: usize, h: usize, origin: (i64, i64), size: (i64, i64)) -> Self {
        assert!(w > 0 && h > 0, "degenerate raster");
        assert!(size.0 > 0 && size.1 > 0, "degenerate window");
        Self {
            w,
            h,
            origin,
            size,
            maps: HashMap::new(),
        }
    }

    /// Installs the multiplier raster of one net.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != w*h`.
    pub fn set_net(&mut self, net: NetId, values: Vec<f64>) {
        assert_eq!(values.len(), self.w * self.h, "raster size mismatch");
        self.maps.insert(net.index() as u32, values);
    }

    /// Whether any net carries a map.
    pub fn is_empty(&self) -> bool {
        self.maps.is_empty()
    }

    /// Multiplier for `net` at dbu position `pos` (1.0 for unmapped nets or
    /// positions outside the window).
    pub fn multiplier(&self, net: NetId, pos: Point3) -> f64 {
        self.maps
            .get(&(net.index() as u32))
            .map_or(1.0, |raster| self.sample(raster, pos))
    }

    /// Samples one net's `raster` at dbu position `pos` (1.0 outside the
    /// window).
    pub(crate) fn sample(&self, raster: &[f64], pos: Point3) -> f64 {
        let fx = (pos.x - self.origin.0) as f64 / self.size.0 as f64;
        let fy = (pos.y - self.origin.1) as f64 / self.size.1 as f64;
        if !(0.0..1.0).contains(&fx) || !(0.0..1.0).contains(&fy) {
            return 1.0;
        }
        let cx = ((fx * self.w as f64) as usize).min(self.w - 1);
        let cy = ((fy * self.h as f64) as usize).min(self.h - 1);
        raster[cy * self.w + cx]
    }

    /// Smallest multiplier `net` can see anywhere (1.0 for unmapped nets).
    /// Includes 1.0 in the minimum because positions outside the raster
    /// window sample as neutral.
    pub fn min_multiplier(&self, net: NetId) -> f64 {
        let Some(map) = self.maps.get(&(net.index() as u32)) else {
            return 1.0;
        };
        map.iter().copied().fold(1.0_f64, f64::min).max(0.0)
    }

    /// Per-net normalization constant (see [`NonUniformGuidance::scale_floor`]).
    /// Folds the neutral 1.0 in because positions outside the raster window
    /// sample as neutral, so the true minimum can never exceed 1.0.
    pub fn scale_floor(&self, net: NetId) -> f64 {
        self.min_multiplier(net).clamp(1e-6, f64::MAX)
    }
}

/// The guidance input to the router.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RoutingGuidance {
    /// No guidance — the MagicalRoute baseline.
    None,
    /// The paper's non-uniform per-access-point guidance.
    NonUniform(NonUniformGuidance),
    /// GeniusRoute-style uniform 2-D maps.
    Map(GuidanceMap2D),
}

/// One net's guidance, resolved once per net so that costing a step makes
/// no map lookup.
#[derive(Debug, Clone, Copy)]
pub(crate) enum NetGuidance<'a> {
    /// Every multiplier is 1.0.
    Neutral,
    /// The net's guided access points: a step takes the triple of the
    /// nearest one ([`nearest_ap`]). Never empty.
    Nearest(&'a [(Point3, CostTriple)]),
    /// The net's raster of a 2-D map ([`GuidanceMap2D::sample`]).
    Raster(&'a GuidanceMap2D, &'a [f64]),
}

impl RoutingGuidance {
    /// Resolves the guidance of one net.
    pub(crate) fn of_net(&self, net: NetId) -> NetGuidance<'_> {
        match self {
            RoutingGuidance::None => NetGuidance::Neutral,
            RoutingGuidance::NonUniform(g) => match g.of_net(net) {
                [] => NetGuidance::Neutral,
                list => NetGuidance::Nearest(list),
            },
            RoutingGuidance::Map(m) => match m.maps.get(&(net.index() as u32)) {
                Some(raster) => NetGuidance::Raster(m, raster),
                None => NetGuidance::Neutral,
            },
        }
    }

    /// Directional step-cost multiplier for `net` at `pos` along `axis`.
    pub fn multiplier(&self, net: NetId, pos: Point3, axis: Axis) -> f64 {
        match self {
            RoutingGuidance::None => 1.0,
            RoutingGuidance::NonUniform(g) => g.multiplier(net, pos, axis),
            RoutingGuidance::Map(m) => m.multiplier(net, pos),
        }
    }

    /// Per-net normalization constant. The router divides every multiplier
    /// of `net` by this before costing a step, so guidance expresses only
    /// *relative* preferences: uniformly scaling a net's guidance is a
    /// no-op, and the normalized multiplier is ≥ 1.0 — which is what keeps
    /// the guidance-aware heuristic admissible with unit scale.
    pub fn scale_floor(&self, net: NetId) -> f64 {
        match self {
            RoutingGuidance::None => 1.0,
            RoutingGuidance::NonUniform(g) => g.scale_floor(net),
            RoutingGuidance::Map(m) => m.scale_floor(net),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_ap_wins() {
        let mut g = NonUniformGuidance::new();
        let net = NetId::new(1);
        g.set(net, Point3::new(0, 0, 0), CostTriple([0.5, 1.0, 1.0]));
        g.set(net, Point3::new(100, 0, 0), CostTriple([3.0, 1.0, 1.0]));
        assert_eq!(g.multiplier(net, Point3::new(10, 0, 0), Axis::X), 0.5);
        assert_eq!(g.multiplier(net, Point3::new(90, 0, 0), Axis::X), 3.0);
        assert_eq!(
            g.multiplier(NetId::new(9), Point3::new(0, 0, 0), Axis::X),
            1.0
        );
        assert_eq!(g.len(), 2);
        assert!(!g.is_empty());
    }

    #[test]
    fn map2d_sampling() {
        let mut m = GuidanceMap2D::new(2, 2, (0, 0), (100, 100));
        let net = NetId::new(0);
        m.set_net(net, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.multiplier(net, Point3::new(10, 10, 0)), 1.0);
        assert_eq!(m.multiplier(net, Point3::new(90, 10, 0)), 2.0);
        assert_eq!(m.multiplier(net, Point3::new(10, 90, 2)), 3.0);
        assert_eq!(m.multiplier(net, Point3::new(90, 90, 0)), 4.0);
        // outside window and unmapped nets are neutral
        assert_eq!(m.multiplier(net, Point3::new(-5, 10, 0)), 1.0);
        assert_eq!(m.multiplier(NetId::new(7), Point3::new(10, 10, 0)), 1.0);
    }

    #[test]
    fn guidance_enum_dispatch() {
        assert_eq!(
            RoutingGuidance::None.multiplier(NetId::new(0), Point3::new(0, 0, 0), Axis::Y),
            1.0
        );
        let mut g = NonUniformGuidance::new();
        g.set(
            NetId::new(0),
            Point3::new(0, 0, 0),
            CostTriple([1.0, 7.0, 1.0]),
        );
        let rg = RoutingGuidance::NonUniform(g);
        assert_eq!(
            rg.multiplier(NetId::new(0), Point3::new(0, 0, 0), Axis::Y),
            7.0
        );
    }

    #[test]
    fn min_multiplier_floors() {
        let net = NetId::new(3);
        assert_eq!(RoutingGuidance::None.scale_floor(net), 1.0);

        // Non-uniform guidance floors at its true minimum, with no neutral
        // 1.0 folded in: nearest-AP lookup never samples neutral.
        let mut g = NonUniformGuidance::new();
        g.set(net, Point3::new(0, 0, 0), CostTriple([2.0, 4.0, 1.5]));
        g.set(net, Point3::new(50, 0, 0), CostTriple([1.8, 1.9, 4.0]));
        let rg = RoutingGuidance::NonUniform(g);
        assert_eq!(rg.scale_floor(net), 1.5);
        assert_eq!(rg.scale_floor(NetId::new(9)), 1.0, "unguided is neutral");

        let mut m = GuidanceMap2D::new(2, 1, (0, 0), (100, 100));
        m.set_net(net, vec![0.25, 3.0]);
        assert_eq!(m.min_multiplier(net), 0.25);
        assert_eq!(RoutingGuidance::Map(m).scale_floor(net), 0.25);
        // expensive-everywhere maps still floor at the neutral 1.0 because
        // positions outside the window sample as 1.0
        let mut m2 = GuidanceMap2D::new(1, 1, (0, 0), (10, 10));
        m2.set_net(net, vec![5.0]);
        assert_eq!(m2.min_multiplier(net), 1.0);
        assert_eq!(m2.min_multiplier(NetId::new(9)), 1.0, "unmapped is neutral");
        assert_eq!(RoutingGuidance::Map(m2).scale_floor(net), 1.0);
    }

    #[test]
    #[should_panic(expected = "raster size mismatch")]
    fn map_rejects_wrong_size() {
        let mut m = GuidanceMap2D::new(2, 2, (0, 0), (10, 10));
        m.set_net(NetId::new(0), vec![1.0; 3]);
    }
}
