//! A* maze search over the routing grid.
//!
//! One engine: unidirectional A* over a bucketed open list keyed on
//! quantized f-cost ([`BucketQueue`], O(1) push/pop on the shallow cost
//! distributions maze routing produces). The search uses *deferred
//! termination*: instead of stopping at the first target pop, it records
//! the best target cost `μ` seen so far, prunes every frontier entry with
//! `f ≥ μ`, and stops once the open list's lower bound can no longer beat
//! `μ`. Under an admissible heuristic this is exact for *any* pop order,
//! which is what lets the test module hold the bucket queue to a
//! binary-heap oracle on path cost.
//!
//! The heuristic is the Manhattan distance to the nearest target at just
//! under unit scale ([`H_SCALE`]). The router divides every guidance
//! multiplier of a net by the net's floor
//! ([`crate::guidance::RoutingGuidance::scale_floor`]), so each normalized
//! multiplier is ≥ 1.0 and the bound is admissible whenever vias cost ≥ 1
//! and no reuse discount applies — the conditions the oracle test holds.
//! Where a path re-walks the net's own wire at the reuse discount the bound
//! can overestimate, and the search returns a good path rather than a
//! provably cheapest one.
//!
//! Relaxing an edge makes no hash lookup: the net's guidance is resolved
//! once per net ([`NetGuidance`]), the nearest guided access point of each
//! node is memoised in a dense [`StampedMap`] shared by the searches of one
//! net ([`SearchState::net`]), and a task's claim overlay is another
//! dense map ([`crate::view::TaskView`]).

use af_geom::{Axis, Dir3, GridDim, GridPoint};
use af_netlist::NetId;

use crate::guidance::{nearest_ap, NetGuidance};
use crate::router::RouterConfig;
use crate::view::GridView;

/// Bucket width in cost units. Steps cost at least `min_guidance` (0.25 by
/// default) so a 0.25-wide bucket rarely holds more than a handful of
/// entries, keeping within-bucket scans trivial.
const BUCKET_WIDTH: f64 = 0.25;
/// Clamp for the bucket index; everything costlier lands in one overflow
/// bucket (still correct — the bucket bound stays a valid lower bound).
const MAX_BUCKET: usize = 1 << 20;

/// Bucketed open list keyed on quantized f-cost.
///
/// Pops are LIFO within a bucket, which is deterministic because pushes are
/// (the expansion order is fixed by the search loop). The cursor only moves
/// forward while popping and is pulled back by a push into a cheaper bucket
/// (re-opened labels), so `pop` is amortized O(1).
#[derive(Debug, Default)]
pub(crate) struct BucketQueue {
    buckets: Vec<Vec<(f64, f64, u32)>>,
    /// Buckets used since the last clear — makes `clear` O(touched).
    touched: Vec<u32>,
    cur: usize,
    len: usize,
}

/// The open-list operations the search loop needs. [`BucketQueue`] is the
/// one production impl; the test module adds a binary-heap oracle.
pub(crate) trait OpenList {
    /// Empties the list for a new search.
    fn clear(&mut self);
    /// Adds `node` with f-cost `f` and path cost `g`.
    fn push(&mut self, f: f64, g: f64, node: usize);
    /// Removes an entry of (near-)minimal f-cost as `(f, g, node)`.
    fn pop(&mut self) -> Option<(f64, f64, usize)>;
    /// Lower bound on every remaining f-cost (∞ when empty).
    fn min_bound(&mut self) -> f64;
}

impl BucketQueue {
    fn index(f: f64) -> usize {
        // NaN maps to 0 via the `as` cast; validate() keeps costs finite.
        ((f / BUCKET_WIDTH) as usize).min(MAX_BUCKET)
    }
}

impl OpenList for BucketQueue {
    fn clear(&mut self) {
        for &t in &self.touched {
            self.buckets[t as usize].clear();
        }
        self.touched.clear();
        self.cur = 0;
        self.len = 0;
    }

    fn push(&mut self, f: f64, g: f64, node: usize) {
        let i = Self::index(f);
        if i >= self.buckets.len() {
            self.buckets.resize_with(i + 1, Vec::new);
        }
        if self.buckets[i].is_empty() {
            self.touched.push(i as u32);
        }
        self.buckets[i].push((f, g, node as u32));
        if i < self.cur {
            self.cur = i;
        }
        self.len += 1;
    }

    fn pop(&mut self) -> Option<(f64, f64, usize)> {
        while self.cur < self.buckets.len() {
            if let Some((f, g, n)) = self.buckets[self.cur].pop() {
                self.len -= 1;
                return Some((f, g, n as usize));
            }
            self.cur += 1;
        }
        None
    }

    /// Quantized, so it may undershoot the true minimum by up to one bucket
    /// width — safe for termination tests, which only need a valid lower
    /// bound.
    fn min_bound(&mut self) -> f64 {
        if self.len == 0 {
            return f64::INFINITY;
        }
        while self.cur < self.buckets.len() && self.buckets[self.cur].is_empty() {
            self.cur += 1;
        }
        self.cur as f64 * BUCKET_WIDTH
    }
}

/// A dense per-node `u32` map, cleared in O(1) by bumping a generation
/// stamp (and in O(len) once every 2³² − 1 clears, when the stamp wraps).
#[derive(Debug, Default)]
pub(crate) struct StampedMap {
    /// Per node: the generation that wrote the slot, and the value.
    slots: Vec<(u32, u32)>,
    gen: u32,
}

impl StampedMap {
    /// Forgets every entry and sizes the map for `len` nodes.
    pub(crate) fn clear(&mut self, len: usize) {
        if self.slots.len() < len {
            self.slots.resize(len, (0, 0));
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.slots.iter_mut().for_each(|s| s.0 = 0);
            self.gen = 1;
        }
    }

    /// The value stored at `idx` since the last [`StampedMap::clear`].
    #[inline]
    pub(crate) fn get(&self, idx: usize) -> Option<u32> {
        let (gen, value) = self.slots[idx];
        (gen == self.gen).then_some(value)
    }

    /// Stores `value` at `idx` until the next [`StampedMap::clear`].
    #[inline]
    pub(crate) fn insert(&mut self, idx: usize, value: u32) {
        self.slots[idx] = (self.gen, value);
    }
}

/// Reusable search scratch space (stamped so clearing is O(1) per search).
///
/// Holds the label arrays and the open list of one search, and the
/// nearest-AP memo that the searches of one net share
/// ([`SearchState::net`]). In a parallel round each worker owns one of
/// these (in its thread-local buffers), never sharing search state across
/// tasks. `Q` is the open list: [`BucketQueue`] in production; the test
/// module swaps in a binary-heap oracle.
#[derive(Default)]
pub(crate) struct SearchState<Q = BucketQueue> {
    dist: Vec<f64>,
    came: Vec<u32>,
    stamp: Vec<u32>,
    target_stamp: Vec<u32>,
    cur: u32,
    open: Q,
    /// Per node: index of its nearest guided access point in the
    /// [`NetGuidance::Nearest`] list of the net being routed.
    nearest: StampedMap,
}

impl<Q> SearchState<Q> {
    /// Starts the searches of one net on a grid of `len` nodes. They share
    /// the nearest-AP memo, which starts empty here, so no search can read
    /// an entry of another net or another guidance.
    pub(crate) fn net(&mut self, len: usize) -> NetSearch<'_, Q> {
        self.nearest.clear(len);
        NetSearch(self)
    }

    fn ensure(&mut self, len: usize) {
        if self.dist.len() < len {
            self.dist.resize(len, 0.0);
            self.came.resize(len, u32::MAX);
            self.stamp.resize(len, 0);
            self.target_stamp.resize(len, 0);
        }
    }

    fn next_gen(&mut self) {
        self.cur = self.cur.wrapping_add(1);
        if self.cur == 0 {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.target_stamp.iter_mut().for_each(|s| *s = 0);
            self.cur = 1;
        }
    }
}

/// The searches of one net; see [`SearchState::net`].
pub(crate) struct NetSearch<'b, Q>(&'b mut SearchState<Q>);

impl<Q: OpenList> NetSearch<'_, Q> {
    /// Runs one search of the net (see [`search`]).
    pub(crate) fn search<G: GridView>(
        &mut self,
        step: &StepCost<'_, G>,
        sources: &[usize],
        targets: &[usize],
    ) -> Option<FoundPath> {
        search(step, sources, targets, self.0)
    }
}

/// Outcome of one A* run: the path from a source to a target, source first.
pub(crate) struct FoundPath {
    pub nodes: Vec<usize>,
    /// Total path cost (useful to diagnostics and cost-parity tests).
    #[allow(dead_code)]
    pub cost: f64,
}

/// Per-step parameters captured once per net route.
pub(crate) struct StepCost<'a, G: GridView> {
    pub grid: &'a G,
    /// The net's guidance, resolved once per net.
    pub guidance: NetGuidance<'a>,
    /// Reciprocal of [`crate::RoutingGuidance::scale_floor`] for `net`:
    /// multiplies every guidance lookup so the net's cheapest multiplier
    /// lands on 1.0 (scale-free guidance — only relative preferences cost
    /// anything).
    pub guidance_norm: f64,
    pub cfg: &'a RouterConfig,
    pub net: NetId,
    /// Partner of a symmetric pair (its resources look like our own), and
    /// whether passability must also hold at the mirror node.
    pub mirror_net: Option<NetId>,
    pub enforce_mirror: bool,
}

impl<G: GridView> StepCost<'_, G> {
    /// Whether the search may stand on `idx` (grid point `g`) at all.
    fn passable(&self, idx: usize, g: GridPoint) -> bool {
        let grid = self.grid;
        if grid.is_blocked(idx) {
            return false;
        }
        if let Some(owner) = grid.owner(idx) {
            if owner != self.net && Some(owner) != self.mirror_net && grid.is_pin(idx) {
                return false; // never touch another net's pin
            }
        }
        if self.enforce_mirror {
            // Mirrored routing is confined to the net's own (left) half-plane
            // so a route can never collide with its own mirror image.
            if g.x >= grid.axis_col() {
                return false;
            }
            match grid.mirror(g) {
                None => return false,
                Some(m) => {
                    let midx = grid.dim().flat_index(m);
                    if grid.is_blocked(midx) {
                        return false;
                    }
                    if let Some(owner) = grid.owner(midx) {
                        if owner != self.net && Some(owner) != self.mirror_net && grid.is_pin(midx)
                        {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// Cost of stepping onto `idx` (grid point `g`) along `axis`.
    fn enter_cost(
        &self,
        idx: usize,
        g: GridPoint,
        axis: Axis,
        layer: u8,
        nearest: &mut StampedMap,
    ) -> f64 {
        let grid = self.grid;
        let cfg = self.cfg;
        let mut cost = match axis {
            Axis::Z => cfg.via_cost,
            a => {
                let preferred = grid_preferred(layer, a);
                if preferred {
                    1.0
                } else {
                    cfg.wrong_dir_mult
                }
            }
        };
        let guide = guidance_multiplier(self.guidance, grid.dim(), idx, g, axis, nearest);
        cost *= (guide * self.guidance_norm).max(cfg.min_guidance);
        // Congestion negotiation. History applies even on currently-free
        // nodes (PathFinder): a node that keeps being contested must repel
        // every net, not just the late-comer.
        let mut penalty = f64::from(grid.history(idx));
        if let Some(owner) = grid.owner(idx) {
            if owner == self.net || Some(owner) == self.mirror_net {
                cost *= cfg.reuse_discount;
                penalty = 0.0;
            } else {
                penalty += cfg.present_cost;
            }
        }
        if self.enforce_mirror {
            if let Some(m) = grid.mirror(g) {
                let midx = grid.dim().flat_index(m);
                if let Some(owner) = grid.owner(midx) {
                    if owner != self.net && Some(owner) != self.mirror_net {
                        penalty += cfg.present_cost + f64::from(grid.history(midx));
                    }
                }
            }
        }
        cost + penalty
    }
}

/// The net's guidance multiplier for a step onto node `idx` (grid point
/// `g`) along `axis`. Equals [`crate::RoutingGuidance::multiplier`]; under
/// non-uniform guidance the nearest access point of `idx` is computed once
/// and memoised in `nearest`, with the same strict-`<` tie-break (the
/// first listed of equidistant access points wins).
fn guidance_multiplier(
    guidance: NetGuidance<'_>,
    dim: &GridDim,
    idx: usize,
    g: GridPoint,
    axis: Axis,
    nearest: &mut StampedMap,
) -> f64 {
    match guidance {
        NetGuidance::Neutral => 1.0,
        NetGuidance::Nearest(aps) => {
            let k = match nearest.get(idx) {
                Some(k) => k as usize,
                None => {
                    let k = nearest_ap(aps, dim.to_dbu(g)).expect("guided nets list access points");
                    nearest.insert(idx, u32::try_from(k).expect("access point index fits u32"));
                    k
                }
            };
            aps[k].1[axis.index()]
        }
        NetGuidance::Raster(map, raster) => map.sample(raster, dim.to_dbu(g)),
    }
}

/// Preferred-direction convention: even layers (M1, M3) run horizontally,
/// odd layers vertically — matching `Technology::nm40`.
fn grid_preferred(layer: u8, axis: Axis) -> bool {
    match axis {
        Axis::X => layer.is_multiple_of(2),
        Axis::Y => !layer.is_multiple_of(2),
        Axis::Z => true,
    }
}

/// Heuristic cost per unit of Manhattan distance. After per-net guidance
/// normalization a step costs at least 1.0 when vias cost ≥ 1 and no reuse
/// discount applies (see the module doc); the 0.999 margin keeps the bound
/// below that even when `multiplier × recip(floor)` rounds a hair under 1.0.
const H_SCALE: f64 = 0.999;

/// Runs a maze search from `sources` (cost 0) to any node in `targets`:
/// one-sided A* with deferred termination and μ-pruning. Reached through
/// [`NetSearch::search`], so the nearest-AP memo belongs to `step.net`.
///
/// Returns the path (source first, target last) or `None` when unreachable.
fn search<G: GridView, Q: OpenList>(
    step: &StepCost<'_, G>,
    sources: &[usize],
    targets: &[usize],
    buffers: &mut SearchState<Q>,
) -> Option<FoundPath> {
    let dim = *step.grid.dim();
    buffers.ensure(dim.len());
    buffers.next_gen();
    let gen = buffers.cur;

    for &t in targets {
        buffers.target_stamp[t] = gen;
    }
    let target_points: Vec<GridPoint> = targets.iter().map(|&t| dim.from_flat(t)).collect();
    let h = |node: usize| -> f64 {
        let g = dim.from_flat(node);
        let mut best = u64::MAX;
        for t in &target_points {
            best = best.min(g.manhattan(*t));
        }
        best as f64 * H_SCALE
    };

    let open = &mut buffers.open;
    open.clear();
    for &s in sources {
        if !step.passable(s, dim.from_flat(s)) {
            continue;
        }
        buffers.dist[s] = 0.0;
        buffers.stamp[s] = gen;
        buffers.came[s] = u32::MAX;
        open.push(h(s), 0.0, s);
    }

    // Best target reached so far: μ. The search keeps going until the open
    // list cannot hold anything cheaper, which makes the result exact for
    // any pop order (bucket LIFO included) under an admissible heuristic.
    let mut best: Option<(f64, usize)> = None;
    // Expansions are counted locally and flushed as one counter update per
    // search so the hot loop never touches the observability atomics.
    let mut expansions: u64 = 0;
    loop {
        if let Some((mu, _)) = best {
            if open.min_bound() >= mu - 1e-12 {
                break;
            }
        }
        let Some((f, g, node)) = open.pop() else {
            break;
        };
        if let Some((mu, _)) = best {
            if f >= mu - 1e-12 {
                continue; // cannot beat the best target already found
            }
        }
        if buffers.stamp[node] == gen && g > buffers.dist[node] + 1e-12 {
            continue; // stale entry
        }
        expansions += 1;
        if buffers.target_stamp[node] == gen {
            if best.is_none_or(|(mu, _)| g < mu - 1e-12) {
                best = Some((g, node));
            }
            continue;
        }
        let gp = dim.from_flat(node);
        // Approximate bend cost: compare each candidate direction with the
        // direction this node was reached from (path-dependent, so not a
        // strict A* cost — standard maze-router practice).
        let incoming_axis = if buffers.came[node] != u32::MAX {
            axis_between(dim.from_flat(buffers.came[node] as usize), gp)
        } else {
            None
        };
        for dir in Dir3::ALL {
            let Some((ng, nidx)) = neighbor(&dim, gp, dir) else {
                continue;
            };
            if !step.passable(nidx, ng) {
                continue;
            }
            let layer = if dir.axis() == Axis::Z {
                gp.l.max(ng.l)
            } else {
                ng.l
            };
            let bend = match incoming_axis {
                Some(axis) if axis != dir.axis() && axis != Axis::Z && dir.axis() != Axis::Z => {
                    step.cfg.bend_penalty
                }
                _ => 0.0,
            };
            let ncost =
                g + step.enter_cost(nidx, ng, dir.axis(), layer, &mut buffers.nearest) + bend;
            if buffers.stamp[nidx] != gen || ncost + 1e-12 < buffers.dist[nidx] {
                let nf = ncost + h(nidx);
                if let Some((mu, _)) = best {
                    if nf >= mu - 1e-12 {
                        continue; // prune: optimistic completion already loses
                    }
                }
                buffers.stamp[nidx] = gen;
                buffers.dist[nidx] = ncost;
                buffers.came[nidx] = node as u32;
                open.push(nf, ncost, nidx);
            }
        }
    }
    af_obs::counter("route.astar_expansions", expansions);
    let (cost, end) = best?;
    let mut nodes = vec![end];
    let mut cur = end;
    while buffers.came[cur] != u32::MAX {
        cur = buffers.came[cur] as usize;
        nodes.push(cur);
    }
    nodes.reverse();
    Some(FoundPath { nodes, cost })
}

/// Axis of the (unit) step from `a` to `b`, `None` when coincident.
fn axis_between(a: GridPoint, b: GridPoint) -> Option<Axis> {
    if a.x != b.x {
        Some(Axis::X)
    } else if a.y != b.y {
        Some(Axis::Y)
    } else if a.l != b.l {
        Some(Axis::Z)
    } else {
        None
    }
}

/// In-bounds neighbor of `gp` along `dir`, with its flat index.
fn neighbor(dim: &af_geom::GridDim, gp: GridPoint, dir: Dir3) -> Option<(GridPoint, usize)> {
    let (dx, dy, dz) = dir.delta();
    let nxt = (
        i64::from(gp.x) + dx,
        i64::from(gp.y) + dy,
        i64::from(gp.l) + dz,
    );
    if nxt.0 < 0
        || nxt.1 < 0
        || nxt.2 < 0
        || nxt.0 >= i64::from(dim.nx())
        || nxt.1 >= i64::from(dim.ny())
        || nxt.2 >= i64::from(dim.layers())
    {
        return None;
    }
    let ng = GridPoint::new(nxt.0 as u32, nxt.1 as u32, nxt.2 as u8);
    Some((ng, dim.flat_index(ng)))
}

#[cfg(test)]
mod tests {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    use super::*;
    use crate::access::PinAccessMap;
    use crate::grid::RoutingGrid;
    use crate::guidance::{NonUniformGuidance, RoutingGuidance};
    use crate::view::TaskView;
    use af_geom::{CostTriple, Point, Point3};
    use af_netlist::benchmarks;
    use af_place::{place, PlacementVariant};
    use af_tech::Technology;
    use proptest::prelude::*;

    #[derive(PartialEq)]
    struct HeapEntry {
        f: f64,
        g: f64,
        node: usize,
    }

    impl Eq for HeapEntry {}

    impl Ord for HeapEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            // min-heap on f, tie-break larger g first (deeper nodes explored first)
            other
                .f
                .partial_cmp(&self.f)
                .unwrap_or(Ordering::Equal)
                .then_with(|| self.g.partial_cmp(&other.g).unwrap_or(Ordering::Equal))
                .then_with(|| other.node.cmp(&self.node))
        }
    }

    impl PartialOrd for HeapEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The correctness oracle for [`BucketQueue`]: an exact min-f binary
    /// heap.
    #[derive(Default)]
    struct HeapOracle(BinaryHeap<HeapEntry>);

    impl OpenList for HeapOracle {
        fn clear(&mut self) {
            self.0.clear();
        }

        fn push(&mut self, f: f64, g: f64, node: usize) {
            self.0.push(HeapEntry { f, g, node });
        }

        fn pop(&mut self) -> Option<(f64, f64, usize)> {
            self.0.pop().map(|e| (e.f, e.g, e.node))
        }

        fn min_bound(&mut self) -> f64 {
            self.0.peek().map_or(f64::INFINITY, |e| e.f)
        }
    }

    #[test]
    fn heap_is_min_on_f() {
        let mut h = HeapOracle::default();
        h.push(3.0, 0.0, 1);
        h.push(1.0, 0.0, 2);
        h.push(2.0, 0.0, 3);
        assert_eq!(h.min_bound(), 1.0);
        assert_eq!(h.pop().unwrap().2, 2);
        assert_eq!(h.pop().unwrap().2, 3);
        assert_eq!(h.pop().unwrap().2, 1);
        assert!(h.min_bound().is_infinite());
    }

    #[test]
    fn bucket_queue_pops_in_bucket_order() {
        let mut q = BucketQueue::default();
        q.push(3.1, 3.1, 1);
        q.push(0.1, 0.1, 2);
        q.push(1.6, 1.6, 3);
        assert_eq!(q.pop().unwrap().2, 2);
        assert_eq!(q.pop().unwrap().2, 3);
        // Re-opening a cheaper label pulls the cursor back.
        q.push(0.2, 0.2, 4);
        assert_eq!(q.pop().unwrap().2, 4);
        assert_eq!(q.pop().unwrap().2, 1);
        assert!(q.pop().is_none());
        assert!(q.min_bound().is_infinite());
        // clear() resets touched buckets for reuse.
        q.push(2.0, 2.0, 5);
        q.clear();
        assert!(q.pop().is_none());
    }

    #[test]
    fn bucket_queue_clamps_huge_costs() {
        let mut q = BucketQueue::default();
        q.push(1e12, 1e12, 7);
        q.push(0.0, 0.0, 8);
        assert_eq!(q.pop().unwrap().2, 8);
        assert_eq!(q.pop().unwrap().2, 7);
    }

    #[test]
    fn preferred_direction_convention() {
        assert!(grid_preferred(0, Axis::X));
        assert!(!grid_preferred(0, Axis::Y));
        assert!(grid_preferred(1, Axis::Y));
        assert!(!grid_preferred(1, Axis::X));
        assert!(grid_preferred(2, Axis::X));
        assert!(grid_preferred(3, Axis::Z));
    }

    #[test]
    fn stamp_generation_wraps_safely() {
        let mut b = SearchState::<BucketQueue>::default();
        b.ensure(4);
        b.cur = u32::MAX;
        b.next_gen();
        assert_eq!(b.cur, 1);
        assert!(b.stamp.iter().all(|&s| s == 0));
    }

    /// An entry written before the stamp wraps must not read back after it,
    /// in the map itself, in the nearest-AP memo and in a task's overlay.
    #[test]
    fn overlay_and_memo_stamps_wrap_safely() {
        let mut m = StampedMap::default();
        m.clear(4);
        m.insert(2, 7);
        assert_eq!(m.get(2), Some(7));
        m.gen = u32::MAX;
        m.clear(4);
        assert_eq!(m.gen, 1);
        assert_eq!(m.get(2), None, "generation 1's entry survived the wrap");

        let mut b = SearchState::<BucketQueue>::default();
        b.net(4);
        b.nearest.insert(3, 5);
        b.nearest.gen = u32::MAX;
        b.net(4);
        assert_eq!(b.nearest.get(3), None, "memo entry survived the wrap");

        let c = benchmarks::ota1();
        let grid = RoutingGrid::new(&c, &place(&c, PlacementVariant::A), &Technology::nm40(), 2);
        let free = (0..grid.dim().len()).find(|&i| grid.is_free(i)).unwrap();
        let mut overlay = StampedMap::default();
        assert!(TaskView::new(&grid, [None, None], &mut overlay).claim_node(free, NetId::new(1)));
        overlay.gen = u32::MAX;
        let view = TaskView::new(&grid, [None, None], &mut overlay);
        assert_eq!(view.owner(free), None, "overlay claim survived the wrap");
    }

    /// An admissible-cost config: reuse discount off and via cost ≥ 1 keep
    /// every step cost ≥ [`H_SCALE`], so both open lists are exact and must
    /// agree on cost. Bends stay 0 because the bend term is path-dependent
    /// (not part of the node relaxation invariant).
    fn exact_cfg(via_cost: f64) -> RouterConfig {
        RouterConfig {
            reuse_discount: 1.0,
            bend_penalty: 0.0,
            via_cost,
            ..Default::default()
        }
    }

    /// Searches with the bucket queue and the heap oracle, asserts they
    /// agree on reachability and cost, and returns the bucket path.
    fn parity_search(
        grid: &RoutingGrid,
        guidance: &RoutingGuidance,
        cfg: &RouterConfig,
        net: NetId,
        sources: &[usize],
        targets: &[usize],
    ) -> Option<Vec<usize>> {
        let step = StepCost {
            grid,
            guidance: guidance.of_net(net),
            guidance_norm: guidance.scale_floor(net).recip(),
            cfg,
            net,
            mirror_net: None,
            enforce_mirror: false,
        };
        let len = grid.dim().len();
        let bucket = SearchState::<BucketQueue>::default()
            .net(len)
            .search(&step, sources, targets);
        let heap = SearchState::<HeapOracle>::default()
            .net(len)
            .search(&step, sources, targets);
        match (bucket, heap) {
            (None, None) => None,
            (Some(b), Some(h)) => {
                assert!(
                    (b.cost - h.cost).abs() < 1e-6,
                    "bucket cost {} != heap cost {} (sources {sources:?}, targets {targets:?})",
                    b.cost,
                    h.cost
                );
                Some(b.nodes)
            }
            (b, h) => panic!(
                "reachability disagrees: bucket {:?}, heap {:?}",
                b.map(|p| p.cost),
                h.map(|p| p.cost)
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The bucketed open list returns paths whose cost equals the
        /// `BinaryHeap` oracle's at the production heuristic, unguided and
        /// under random per-access-point guidance. Each case checks a
        /// random access-point pair, then every Steiner step of a
        /// multi-pin net the way `route_net` grows it: the sorted tree
        /// nodes as sources, the remaining access points as targets.
        #[test]
        fn bucket_open_list_matches_heap_oracle(
            seed in 0usize..4096,
            via_cost in 1.0f64..5.0,
            guided_bit in 0usize..2,
        ) {
            let c = benchmarks::ota1();
            let p = place(&c, PlacementVariant::A);
            let tech = Technology::nm40();
            let mut grid = RoutingGrid::new(&c, &p, &tech, 2);
            let aps = PinAccessMap::extract(&c, &p, &mut grid);
            // Endpoints must belong to the routed net (other nets' pins
            // are impassable); sample a multi-pin net from the seed.
            let per_net: Vec<(NetId, Vec<usize>)> = (0..c.nets().len() as u32)
                .map(NetId::new)
                .map(|id| {
                    let nodes: Vec<usize> = aps
                        .of_net(id)
                        .iter()
                        .map(|ap| grid.dim().flat_index(ap.node))
                        .collect();
                    (id, nodes)
                })
                .filter(|(_, nodes)| nodes.len() >= 3)
                .collect();
            prop_assert!(!per_net.is_empty(), "ota1 must have nets with 3+ pins");
            let (net, nodes) = &per_net[seed % per_net.len()];
            let net = *net;
            // Guided cases draw each triple component from the dataset's
            // default guidance range [0.4, 2.2].
            let mut guidance = NonUniformGuidance::new();
            if guided_bit == 1 {
                for (k, &node) in nodes.iter().enumerate() {
                    let m = |axis: usize| 0.4 + ((seed + k * 7 + axis * 3) % 10) as f64 * 0.2;
                    guidance.set(net, grid.node_dbu(node), CostTriple([m(0), m(1), m(2)]));
                }
            }
            let guidance = RoutingGuidance::NonUniform(guidance);
            let cfg = exact_cfg(via_cost);

            let s = nodes[(seed / 7) % nodes.len()];
            let t = nodes[(seed / 91) % nodes.len()];
            parity_search(&grid, &guidance, &cfg, net, &[s], &[t]);

            let mut tree = vec![nodes[0]];
            let mut remaining = nodes[1..].to_vec();
            while !remaining.is_empty() {
                tree.sort_unstable();
                tree.dedup();
                let found = parity_search(&grid, &guidance, &cfg, net, &tree, &remaining);
                let Some(path) = found else {
                    break;
                };
                for &n in &path {
                    grid.claim(n, net);
                }
                let reached = *path.last().expect("path has nodes");
                remaining.retain(|&r| r != reached);
                tree.extend(path);
            }
            prop_assert!(remaining.is_empty(), "every access point of the net is reachable");
        }

        /// The memoised nearest-AP multiplier equals
        /// `NonUniformGuidance::multiplier` at every node and axis, for two
        /// nets looked up in turn on one `SearchState`, on the miss that
        /// fills the memo and on the hit that reads it. Access points sit
        /// on and off the grid; each net lists its first access point's
        /// position again last, so exact ties always occur and the first
        /// listed must win them (every triple is distinct).
        #[test]
        fn memoised_multiplier_matches_nearest_ap_scan(
            aps_a in prop::collection::vec((0u32..9, 0u32..7, 0u8..3, 0i64..2, 0i64..2), 1..10),
            aps_b in prop::collection::vec((0u32..9, 0u32..7, 0u8..3, 0i64..2, 0i64..2), 1..10),
        ) {
            let dim = GridDim::new(Point::new(-3, 5), 9, 7, 3, 2);
            let nets = [NetId::new(0), NetId::new(3)];
            let mut field = NonUniformGuidance::new();
            for (net, list) in nets.iter().zip([&aps_a, &aps_b]) {
                let mut positions: Vec<Point3> = list
                    .iter()
                    .map(|&(x, y, l, ox, oy)| {
                        let p = dim.to_dbu(GridPoint::new(x, y, l));
                        Point3::new(p.x + ox, p.y + oy, p.z)
                    })
                    .collect();
                positions.push(positions[0]);
                for (k, pos) in positions.into_iter().enumerate() {
                    let base = (net.index() * 100 + k) as f64;
                    field.set(*net, pos, CostTriple([base + 0.1, base + 0.2, base + 0.3]));
                }
            }
            let guidance = RoutingGuidance::NonUniform(field.clone());
            let mut state = SearchState::<BucketQueue>::default();
            for net in nets {
                let repeated_first = field.of_net(net).last().expect("net is guided").1;
                let searches = state.net(dim.len());
                for _pass in 0..2 {
                    for idx in 0..dim.len() {
                        let g = dim.from_flat(idx);
                        for axis in Axis::ALL {
                            let memoised = guidance_multiplier(
                                guidance.of_net(net),
                                &dim,
                                idx,
                                g,
                                axis,
                                &mut searches.0.nearest,
                            );
                            prop_assert_eq!(memoised, field.multiplier(net, dim.to_dbu(g), axis));
                            prop_assert_ne!(memoised, repeated_first[axis.index()]);
                        }
                    }
                }
            }
        }
    }
}
