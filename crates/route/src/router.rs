//! Constraint-aware negotiated routing: parallel PathFinder rounds.
//!
//! Each round routes **every uncommitted task concurrently** against a
//! read-only snapshot of the shared grid plus a private per-task overlay
//! ([`crate::view::TaskView`]): a task sees the other pending tasks'
//! *previous-round* claims as present-cost penalties (one-round-stale
//! negotiation — the classic parallel-PathFinder relaxation) while its own
//! stale wires are hidden. Results are merged deterministically in task
//! order, conflicts detected, history costs escalated, and only contested
//! tasks are ripped for the next round — so the routed layout is
//! bit-identical at every thread count.
//!
//! The entry point is the [`Router`] session type, built from a validated
//! [`RouterConfig`] (see [`RouterConfig::builder`]).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::Instant;

use af_netlist::{Circuit, NetId};
use af_place::Placement;
use af_tech::Technology;

use crate::access::PinAccessMap;
use crate::astar::{SearchState, StampedMap, StepCost};
use crate::grid::RoutingGrid;
use crate::guidance::RoutingGuidance;
use crate::post;
use crate::view::{GridView, TaskView};
use crate::{RoutedLayout, RoutedNet};

/// Router tuning parameters.
///
/// Construct via [`RouterConfig::builder`] (which validates on build) or
/// start from [`RouterConfig::default`] and adjust fields. The struct is
/// `#[non_exhaustive]`: downstream crates must go through the builder or
/// field-by-field mutation, which lets new knobs land without breakage.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct RouterConfig {
    /// Grid-pitch multiplier over the technology pitch (1 = full density).
    pub coarsen: i64,
    /// Cost of one via hop relative to one planar step.
    pub via_cost: f64,
    /// Multiplier for steps against a layer's preferred direction.
    pub wrong_dir_mult: f64,
    /// Immediate penalty for using a node another net occupies.
    pub present_cost: f64,
    /// History added to each conflicted node per negotiation round.
    pub history_increment: f32,
    /// Multiplier for re-walking nodes the net already owns (Steiner reuse).
    pub reuse_discount: f64,
    /// Lower clamp on guidance multipliers (keeps A* admissible).
    pub min_guidance: f64,
    /// Extra cost per direction change (approximate bend minimization).
    pub bend_penalty: f64,
    /// Maximum negotiation rounds.
    pub max_iterations: u32,
    /// Whether symmetric net pairs are routed by mirroring.
    pub enforce_symmetry: bool,
    /// Worker threads for the parallel rounds. `0` means auto: the `afrt`
    /// runtime honors `AFRT_THREADS`, then the hardware parallelism. Every
    /// thread count produces bit-identical layouts.
    pub threads: usize,
}

impl RouterConfig {
    /// Starts a builder pre-loaded with the default configuration.
    #[must_use]
    pub fn builder() -> RouterConfigBuilder {
        RouterConfigBuilder::default()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// The typed [`RouteConfigError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), RouteConfigError> {
        // Finiteness first: the range checks below then never carry NaN or
        // ±∞ payloads, which keeps `RouteConfigError: Eq` honest.
        for (field, v) in [
            ("via_cost", self.via_cost),
            ("wrong_dir_mult", self.wrong_dir_mult),
            ("present_cost", self.present_cost),
            ("history_increment", f64::from(self.history_increment)),
            ("reuse_discount", self.reuse_discount),
            ("min_guidance", self.min_guidance),
            ("bend_penalty", self.bend_penalty),
        ] {
            if !v.is_finite() {
                return Err(RouteConfigError::NotFinite { field });
            }
        }
        if self.coarsen < 1 {
            return Err(RouteConfigError::Coarsen { got: self.coarsen });
        }
        if self.via_cost <= 0.0 {
            return Err(RouteConfigError::ViaCost { got: self.via_cost });
        }
        if self.wrong_dir_mult < 1.0 {
            return Err(RouteConfigError::WrongDirMult {
                got: self.wrong_dir_mult,
            });
        }
        if self.present_cost < 0.0 || self.history_increment < 0.0 {
            return Err(RouteConfigError::NegativePenalties);
        }
        if !(0.0..=1.0).contains(&self.reuse_discount) {
            return Err(RouteConfigError::ReuseDiscount {
                got: self.reuse_discount,
            });
        }
        if self.min_guidance <= 0.0 {
            return Err(RouteConfigError::MinGuidance {
                got: self.min_guidance,
            });
        }
        if self.max_iterations == 0 {
            return Err(RouteConfigError::MaxIterations);
        }
        if self.bend_penalty < 0.0 {
            return Err(RouteConfigError::BendPenalty {
                got: self.bend_penalty,
            });
        }
        Ok(())
    }
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            coarsen: 2,
            via_cost: 3.0,
            wrong_dir_mult: 2.0,
            present_cost: 40.0,
            history_increment: 40.0,
            reuse_discount: 0.2,
            min_guidance: 0.25,
            bend_penalty: 0.5,
            max_iterations: 24,
            enforce_symmetry: true,
            threads: 1,
        }
    }
}

/// Fluent builder for [`RouterConfig`]; [`RouterConfigBuilder::build`]
/// validates, so a successfully built config is always usable.
#[derive(Debug, Clone, Default)]
pub struct RouterConfigBuilder {
    cfg: RouterConfig,
}

impl RouterConfigBuilder {
    /// Grid-pitch multiplier over the technology pitch.
    #[must_use]
    pub fn coarsen(mut self, v: i64) -> Self {
        self.cfg.coarsen = v;
        self
    }

    /// Cost of one via hop relative to one planar step.
    #[must_use]
    pub fn via_cost(mut self, v: f64) -> Self {
        self.cfg.via_cost = v;
        self
    }

    /// Multiplier for steps against a layer's preferred direction.
    #[must_use]
    pub fn wrong_dir_mult(mut self, v: f64) -> Self {
        self.cfg.wrong_dir_mult = v;
        self
    }

    /// Immediate penalty for using a node another net occupies.
    #[must_use]
    pub fn present_cost(mut self, v: f64) -> Self {
        self.cfg.present_cost = v;
        self
    }

    /// History added to each conflicted node per negotiation round.
    #[must_use]
    pub fn history_increment(mut self, v: f32) -> Self {
        self.cfg.history_increment = v;
        self
    }

    /// Multiplier for re-walking nodes the net already owns.
    #[must_use]
    pub fn reuse_discount(mut self, v: f64) -> Self {
        self.cfg.reuse_discount = v;
        self
    }

    /// Lower clamp on guidance multipliers.
    #[must_use]
    pub fn min_guidance(mut self, v: f64) -> Self {
        self.cfg.min_guidance = v;
        self
    }

    /// Extra cost per direction change.
    #[must_use]
    pub fn bend_penalty(mut self, v: f64) -> Self {
        self.cfg.bend_penalty = v;
        self
    }

    /// Maximum negotiation rounds.
    #[must_use]
    pub fn max_iterations(mut self, v: u32) -> Self {
        self.cfg.max_iterations = v;
        self
    }

    /// Whether symmetric net pairs are routed by mirroring.
    #[must_use]
    pub fn enforce_symmetry(mut self, v: bool) -> Self {
        self.cfg.enforce_symmetry = v;
        self
    }

    /// Worker threads for the parallel rounds (`0` = auto).
    #[must_use]
    pub fn threads(mut self, v: usize) -> Self {
        self.cfg.threads = v;
        self
    }

    /// Validates and returns the finished configuration.
    ///
    /// # Errors
    ///
    /// The typed [`RouteConfigError`] naming the first offending field.
    pub fn build(self) -> Result<RouterConfig, RouteConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// A nonsensical [`RouterConfig`] field, found by validation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RouteConfigError {
    /// A float field is NaN or infinite.
    NotFinite {
        /// The offending field.
        field: &'static str,
    },
    /// `coarsen` below 1.
    Coarsen {
        /// The rejected value.
        got: i64,
    },
    /// Non-positive `via_cost`.
    ViaCost {
        /// The rejected value.
        got: f64,
    },
    /// `wrong_dir_mult` below 1.
    WrongDirMult {
        /// The rejected value.
        got: f64,
    },
    /// Negative `present_cost` or `history_increment`.
    NegativePenalties,
    /// `reuse_discount` outside `[0, 1]`.
    ReuseDiscount {
        /// The rejected value.
        got: f64,
    },
    /// Non-positive `min_guidance`.
    MinGuidance {
        /// The rejected value.
        got: f64,
    },
    /// Zero `max_iterations`.
    MaxIterations,
    /// Negative `bend_penalty`.
    BendPenalty {
        /// The rejected value.
        got: f64,
    },
}

// Payload floats are guaranteed finite: `validate` rejects non-finite
// fields with the payload-free `NotFinite` variant before any range check.
impl Eq for RouteConfigError {}

impl fmt::Display for RouteConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteConfigError::NotFinite { field } => {
                write!(f, "router config field `{field}` must be finite")
            }
            RouteConfigError::Coarsen { got } => {
                write!(f, "coarsen must be >= 1, got {got}")
            }
            RouteConfigError::ViaCost { got } => {
                write!(f, "via_cost must be positive, got {got}")
            }
            RouteConfigError::WrongDirMult { got } => {
                write!(f, "wrong_dir_mult must be >= 1, got {got}")
            }
            RouteConfigError::NegativePenalties => {
                write!(f, "congestion penalties must be non-negative")
            }
            RouteConfigError::ReuseDiscount { got } => {
                write!(f, "reuse_discount must be in [0, 1], got {got}")
            }
            RouteConfigError::MinGuidance { got } => {
                write!(f, "min_guidance must be positive, got {got}")
            }
            RouteConfigError::MaxIterations => {
                write!(f, "max_iterations must be at least 1")
            }
            RouteConfigError::BendPenalty { got } => {
                write!(f, "bend_penalty must be non-negative, got {got}")
            }
        }
    }
}

impl std::error::Error for RouteConfigError {}

/// Routing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RouteError {
    /// A net could not be connected at all (hard obstacles).
    Unroutable {
        /// The failing net.
        net: NetId,
        /// Net name for diagnostics.
        name: String,
    },
    /// The router configuration failed validation.
    Config(RouteConfigError),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::Unroutable { net, name } => {
                write!(f, "net `{name}` ({net}) cannot be routed")
            }
            RouteError::Config(e) => write!(f, "invalid router configuration: {e}"),
        }
    }
}

impl std::error::Error for RouteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RouteError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RouteConfigError> for RouteError {
    fn from(e: RouteConfigError) -> Self {
        RouteError::Config(e)
    }
}

/// Per-net route state during negotiation.
#[derive(Debug, Clone, Default)]
struct NetRoute {
    nodes: HashSet<u32>,
    edges: HashSet<(u32, u32)>,
}

/// One unit of routing work: a lone net or a mirrored pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Task {
    Single(NetId),
    Pair(NetId, NetId),
}

impl Task {
    fn members(self) -> [Option<NetId>; 2] {
        match self {
            Task::Single(n) => [Some(n), None],
            Task::Pair(a, b) => [Some(a), Some(b)],
        }
    }

    fn contains(self, n: NetId) -> bool {
        self.members().contains(&Some(n))
    }
}

/// Result of routing one task during a parallel round.
enum TaskOutcome {
    /// Routes per member net, in member order.
    Routed(Vec<(NetId, NetRoute)>),
    /// The task cannot be routed even ignoring congestion.
    Unroutable(RouteError),
    /// The task panicked (fault injection / bugs): its nets fall back to
    /// sequential routing on the merged grid, after all healthy commits.
    Faulted(String),
}

/// One router thread's reusable state, borrowed apart per task: a
/// [`TaskView`] holds the claim overlay while its searches use the state.
#[derive(Default)]
struct SearchBuffers {
    /// A* labels, open list and the per-net nearest-AP memo.
    state: SearchState,
    /// The dense claim overlay of the task being routed.
    overlay: StampedMap,
}

thread_local! {
    /// Per-thread search scratch: A* labels, the nearest-AP memo and the
    /// dense claim overlay of [`TaskView`], about 36 bytes per grid node.
    /// At one router thread, and in a round with one pending task,
    /// `Router::round` routes on the calling thread, whose buffers then
    /// last across rounds and routes for as long as that thread lives.
    /// With more router threads a round runs on workers that `afrt` spawns
    /// for that round's `par_map`: each allocates and fills its buffers, the
    /// nets it routes in the round share them, and the round's end frees
    /// them. On OTA4-B at two router threads that costs 5–25 ms of CPU per
    /// round over both workers, against 270–520 ms per route (DESIGN.md
    /// §13).
    static BUFFERS: RefCell<SearchBuffers> = RefCell::new(SearchBuffers::default());
}

/// A routing session: a validated configuration plus the worker runtime.
///
/// Build one per configuration and reuse it across layouts — validation and
/// thread-pool setup happen once, in [`Router::new`].
///
/// # Examples
///
/// ```no_run
/// use af_route::{Router, RouterConfig, RoutingGuidance};
/// # fn demo(circuit: &af_netlist::Circuit, placement: &af_place::Placement,
/// #         tech: &af_tech::Technology) -> Result<(), af_route::RouteError> {
/// let router = Router::new(RouterConfig::builder().threads(4).build()?)?;
/// let layout = router.route(circuit, placement, tech, &RoutingGuidance::None)?;
/// # let _ = layout; Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Router {
    cfg: RouterConfig,
    runtime: afrt::Runtime,
}

impl Router {
    /// Creates a session from `cfg`, validating it first.
    ///
    /// # Errors
    ///
    /// [`RouteConfigError`] when the configuration is nonsensical.
    pub fn new(cfg: RouterConfig) -> Result<Self, RouteConfigError> {
        cfg.validate()?;
        let runtime = afrt::Runtime::with_threads(cfg.threads);
        Ok(Self { cfg, runtime })
    }

    /// The validated configuration this session routes with.
    #[must_use]
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// Resolved worker count (after `0` = auto resolution).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.runtime.threads()
    }

    /// Routes a placed circuit.
    ///
    /// Without guidance this is the MagicalRoute baseline; with guidance it
    /// is the paper's guided analog detailed routing. The layout is
    /// bit-identical at every thread count.
    ///
    /// # Errors
    ///
    /// [`RouteError::Unroutable`] when a net has no feasible path even
    /// ignoring congestion (hard blockage).
    pub fn route(
        &self,
        circuit: &Circuit,
        placement: &Placement,
        tech: &Technology,
        guidance: &RoutingGuidance,
    ) -> Result<RoutedLayout, RouteError> {
        let cfg = &self.cfg;
        let t0 = Instant::now();
        let _route = af_obs::span!("route");
        let mut grid = RoutingGrid::new(circuit, placement, tech, cfg.coarsen);
        let aps = PinAccessMap::extract(circuit, placement, &mut grid);
        let tasks = build_tasks(circuit, &grid, &aps, cfg);
        af_obs::counter("route.tasks", tasks.len() as u64);

        let mut routes: HashMap<u32, NetRoute> = HashMap::new();
        // Every task is uncommitted at first; later rounds only re-route
        // the contested ones. Indices stay sorted — task order is the merge
        // order, and the determinism contract hangs off it.
        let mut pending: Vec<usize> = (0..tasks.len()).collect();
        let mut rounds: u32 = 0;
        // Parallel selfish rounds can oscillate near convergence: two
        // contested tasks each avoid the other's *stale* path and land in
        // the same fresh channel, forever. Once a round stops strictly
        // shrinking the conflict set (or the tail is too small to be worth
        // fanning out), latch into sequential rounds on the live grid —
        // exactly the legacy negotiation, which sees fresh claims within
        // the round. The latch depends only on deterministic conflict
        // counts, so layouts stay thread-count independent.
        let mut prev_conflicts = usize::MAX;
        let mut sequential_tail = false;
        while !pending.is_empty() && rounds < cfg.max_iterations {
            rounds += 1;
            af_obs::counter("route.rounds", 1);

            if sequential_tail || pending.len() <= 2 {
                af_obs::counter("route.sequential_rounds", 1);
                release_pending(&mut grid, &mut routes, &tasks, &pending);
                BUFFERS.with(|b| {
                    let state = &mut b.borrow_mut().state;
                    for &ti in &pending {
                        route_task(
                            circuit,
                            &mut grid,
                            &aps,
                            guidance,
                            cfg,
                            tasks[ti],
                            &mut routes,
                            state,
                        )?;
                    }
                    Ok::<(), RouteError>(())
                })?;
            } else {
                // --- Parallel phase: read-only snapshot + per-task overlay. ---
                let outcomes = self.round(circuit, &grid, &aps, guidance, &tasks, &pending);

                // --- Deterministic merge, in task order. ---
                // Release every pending task's previous-round claims: they were
                // visible to the other searches as stale present costs, but the
                // new routes replace them wholesale.
                release_pending(&mut grid, &mut routes, &tasks, &pending);
                let mut faulted: Vec<usize> = Vec::new();
                let mut unroutable: Option<RouteError> = None;
                for (k, outcome) in outcomes.into_iter().enumerate() {
                    match outcome {
                        TaskOutcome::Routed(rs) => {
                            for (net, r) in rs {
                                for &n in &r.nodes {
                                    // May fail on contested nodes — negotiation
                                    // resolves those next round.
                                    grid.claim(n as usize, net);
                                }
                                routes.insert(net.index() as u32, r);
                            }
                        }
                        TaskOutcome::Unroutable(e) => {
                            // Keep the first failure in task order for a
                            // deterministic error, but finish the merge scan.
                            if unroutable.is_none() {
                                unroutable = Some(e);
                            }
                        }
                        TaskOutcome::Faulted(msg) => {
                            af_obs::counter("route.task_panics", 1);
                            af_obs::warn(&format!(
                                "route round {rounds}: task {} faulted: {msg}",
                                pending[k]
                            ));
                            faulted.push(pending[k]);
                        }
                    }
                }
                if let Some(e) = unroutable {
                    return Err(e);
                }
                // --- Supervised degradation: faulted tasks re-route
                // sequentially on the merged grid. ---
                if !faulted.is_empty() {
                    af_obs::counter("route.sequential_fallbacks", faulted.len() as u64);
                    BUFFERS.with(|b| {
                        let state = &mut b.borrow_mut().state;
                        for &ti in &faulted {
                            route_task(
                                circuit,
                                &mut grid,
                                &aps,
                                guidance,
                                cfg,
                                tasks[ti],
                                &mut routes,
                                state,
                            )?;
                        }
                        Ok::<(), RouteError>(())
                    })?;
                }
            }

            // --- Conflict detection & escalation. ---
            let conflicts = conflicted_nodes(&grid, &routes);
            if conflicts.is_empty() {
                pending.clear();
                break;
            }
            if conflicts.len() >= prev_conflicts {
                sequential_tail = true;
            }
            prev_conflicts = conflicts.len();
            af_obs::counter("route.conflict_nodes", conflicts.len() as u64);
            // PathFinder semantics: every user of a contested node is ripped
            // up, the owner included — otherwise a trespasser whose only
            // passage is a node the owner sits on (e.g. a shared pin escape
            // column) deadlocks. History bumps commute, so the HashMap
            // iteration order cannot leak into results.
            let mut victims: HashSet<u32> = HashSet::new();
            for (&node, users) in &conflicts {
                grid.bump_history(node as usize, cfg.history_increment);
                for &u in users {
                    victims.insert(u);
                }
            }
            pending = (0..tasks.len())
                .filter(|&ti| victims.iter().any(|&v| tasks[ti].contains(NetId::new(v))))
                .collect();
            af_obs::counter("route.victims_ripped", pending.len() as u64);
        }

        // Post-process each net: prune stubs, release pruned nodes, compress.
        let mut nets = Vec::new();
        let mut pruned: u64 = 0;
        for (i, _) in circuit.nets().iter().enumerate() {
            let id = NetId::new(i as u32);
            let Some(r) = routes.get_mut(&(i as u32)) else {
                continue;
            };
            let pin_nodes: HashSet<u32> = aps
                .of_net(id)
                .iter()
                .map(|ap| grid.dim().flat_index(ap.node) as u32)
                .collect();
            let kept = post::prune_stubs(&mut r.edges, &pin_nodes);
            for &n in r.nodes.iter() {
                if !kept.contains(&n)
                    && grid.owner(n as usize) == Some(id)
                    && !grid.is_pin(n as usize)
                {
                    grid.force_free(n as usize);
                    pruned += 1;
                }
            }
            r.nodes = kept;
            let segments = post::edges_to_segments(grid.dim(), &r.edges);
            nets.push(RoutedNet::from_segments(id, segments));
        }

        let runtime_s = t0.elapsed().as_secs_f64();
        af_obs::counter("route.drc_fixes", pruned);
        af_obs::counter("route.nets_routed", nets.len() as u64);

        Ok(RoutedLayout {
            nets,
            iterations: rounds.max(1),
            conflicts: conflicted_nodes(&grid, &routes).len() as u32,
            runtime_s,
        })
    }

    /// Routes `pending` tasks concurrently against the immutable `grid`
    /// snapshot. Outcomes are ordered like `pending` regardless of worker
    /// interleaving, and a panic in one task is contained to that task.
    fn round(
        &self,
        circuit: &Circuit,
        grid: &RoutingGrid,
        aps: &PinAccessMap,
        guidance: &RoutingGuidance,
        tasks: &[Task],
        pending: &[usize],
    ) -> Vec<TaskOutcome> {
        let cfg = &self.cfg;
        let run = |_k: usize, ti: &usize| -> TaskOutcome {
            let ti = *ti;
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                af_fault::fail!("route.task", key = ti as u64);
                BUFFERS.with(|b| {
                    let mut buffers = b.borrow_mut();
                    route_task_on_view(circuit, grid, aps, guidance, cfg, tasks[ti], &mut buffers)
                })
            }));
            match result {
                Ok(Ok(rs)) => TaskOutcome::Routed(rs),
                Ok(Err(e)) => TaskOutcome::Unroutable(e),
                Err(payload) => TaskOutcome::Faulted(afrt::panic_message(payload.as_ref())),
            }
        };
        if self.runtime.threads() <= 1 || pending.len() <= 1 {
            // Inline fast path: same closure, same outcomes, no workers.
            return pending
                .iter()
                .enumerate()
                .map(|(k, ti)| run(k, ti))
                .collect();
        }
        match self.runtime.par_map(pending, run) {
            Ok(outcomes) => outcomes,
            // Unreachable in practice (panics are caught inside the task),
            // but degrade to the inline path rather than give up the round.
            Err(_) => pending
                .iter()
                .enumerate()
                .map(|(k, ti)| run(k, ti))
                .collect(),
        }
    }
}

/// Releases the previous-round routes of the `pending` tasks' nets. Every
/// node a net owns is in its own route set, so walking those sets frees
/// exactly what a scan of the whole grid would.
fn release_pending(
    grid: &mut RoutingGrid,
    routes: &mut HashMap<u32, NetRoute>,
    tasks: &[Task],
    pending: &[usize],
) {
    for &ti in pending {
        for member in tasks[ti].members().into_iter().flatten() {
            if let Some(r) = routes.remove(&(member.index() as u32)) {
                for &n in &r.nodes {
                    grid.release(n as usize, member);
                }
            }
        }
    }
}

/// Builds the work list: symmetric pairs first (so the mirror corridor is
/// free), then remaining nets by descending weight; supplies last.
fn build_tasks(
    circuit: &Circuit,
    grid: &RoutingGrid,
    aps: &PinAccessMap,
    cfg: &RouterConfig,
) -> Vec<Task> {
    let mut tasks: Vec<Task> = Vec::new();
    let mut in_pair = vec![false; circuit.nets().len()];
    if cfg.enforce_symmetry {
        for &(a, b) in circuit.symmetric_net_pairs() {
            // A pair is only routable by mirroring when the two AP sets are
            // exact mirror images AND net `a` lives strictly left of the
            // axis (mirrored routing confines each net to its half-plane, so
            // cross-axis pairs fall back to independent routing).
            if !aps_mirror(grid, aps, a, b) || !one_sided(grid, aps, a) {
                continue;
            }
            if aps.of_net(a).len() >= 2 || aps.of_net(b).len() >= 2 {
                tasks.push(Task::Pair(a, b));
            }
            in_pair[a.index()] = true;
            in_pair[b.index()] = true;
        }
    }
    let mut singles: Vec<NetId> = Vec::new();
    for (i, &paired) in in_pair.iter().enumerate() {
        let id = NetId::new(i as u32);
        if paired || aps.of_net(id).len() < 2 {
            continue;
        }
        singles.push(id);
    }
    let priority = |n: NetId| {
        let net = circuit.net(n);
        if net.ty.is_supply() {
            -1.0
        } else {
            net.weight
        }
    };
    singles.sort_by(|&a, &b| {
        priority(b)
            .partial_cmp(&priority(a))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    tasks.extend(singles.into_iter().map(Task::Single));
    tasks
}

/// Whether every AP of `a` lies strictly left of the symmetry axis.
fn one_sided(grid: &RoutingGrid, aps: &PinAccessMap, a: NetId) -> bool {
    aps.of_net(a).iter().all(|ap| ap.node.x < grid.axis_col())
}

/// Whether the AP sets of `a` and `b` are exact mirror images.
fn aps_mirror(grid: &RoutingGrid, aps: &PinAccessMap, a: NetId, b: NetId) -> bool {
    let an = aps.of_net(a);
    let bn = aps.of_net(b);
    if an.len() != bn.len() {
        return false;
    }
    an.iter().all(|ap| {
        grid.mirror(ap.node)
            .map(|m| bn.iter().any(|bp| bp.node == m))
            .unwrap_or(false)
    })
}

/// Map from contested node to the nets using it (only nodes with >1 user).
fn conflicted_nodes(grid: &RoutingGrid, routes: &HashMap<u32, NetRoute>) -> HashMap<u32, Vec<u32>> {
    let mut users: HashMap<u32, Vec<u32>> = HashMap::new();
    for (&net, r) in routes {
        for &n in &r.nodes {
            // A node "belongs" to its owner; other users make it contested.
            if grid.owner(n as usize) != Some(NetId::new(net)) || users.contains_key(&n) {
                users.entry(n).or_default().push(net);
            }
        }
    }
    // Re-scan to attach owners of contested nodes.
    let mut conflicts: HashMap<u32, Vec<u32>> = HashMap::new();
    for (&node, extra) in &users {
        let mut all = extra.clone();
        if let Some(owner) = grid.owner(node as usize) {
            let raw = owner.index() as u32;
            if !all.contains(&raw) {
                all.push(raw);
            }
        }
        if all.len() > 1 {
            conflicts.insert(node, all);
        }
    }
    conflicts
}

/// Routes one task against a private [`TaskView`] of the shared grid,
/// returning its members' routes in member order.
fn route_task_on_view(
    circuit: &Circuit,
    base: &RoutingGrid,
    aps: &PinAccessMap,
    guidance: &RoutingGuidance,
    cfg: &RouterConfig,
    task: Task,
    buffers: &mut SearchBuffers,
) -> Result<Vec<(NetId, NetRoute)>, RouteError> {
    let SearchBuffers { state, overlay } = buffers;
    let mut view = TaskView::new(base, task.members(), overlay);
    let mut routes: HashMap<u32, NetRoute> = HashMap::new();
    route_task(
        circuit,
        &mut view,
        aps,
        guidance,
        cfg,
        task,
        &mut routes,
        state,
    )?;
    let mut out = Vec::new();
    for member in task.members().into_iter().flatten() {
        if let Some(r) = routes.remove(&(member.index() as u32)) {
            out.push((member, r));
        }
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn route_task<G: GridView>(
    circuit: &Circuit,
    grid: &mut G,
    aps: &PinAccessMap,
    guidance: &RoutingGuidance,
    cfg: &RouterConfig,
    task: Task,
    routes: &mut HashMap<u32, NetRoute>,
    state: &mut SearchState,
) -> Result<(), RouteError> {
    match task {
        Task::Single(net) => {
            let r = route_net(circuit, grid, aps, guidance, cfg, net, None, false, state)?;
            routes.insert(net.index() as u32, r);
        }
        Task::Pair(a, b) => {
            let ra = route_net(circuit, grid, aps, guidance, cfg, a, Some(b), true, state)?;
            // Mirror a's geometry onto b.
            let mut rb = NetRoute::default();
            for &n in &ra.nodes {
                let g = grid.dim().from_flat(n as usize);
                if let Some(m) = grid.mirror(g) {
                    let mi = grid.dim().flat_index(m) as u32;
                    grid.claim_node(mi as usize, b);
                    rb.nodes.insert(mi);
                }
            }
            for &(x, y) in &ra.edges {
                let gx = grid.dim().from_flat(x as usize);
                let gy = grid.dim().from_flat(y as usize);
                if let (Some(mx), Some(my)) = (grid.mirror(gx), grid.mirror(gy)) {
                    let ix = grid.dim().flat_index(mx) as u32;
                    let iy = grid.dim().flat_index(my) as u32;
                    rb.edges.insert((ix.min(iy), ix.max(iy)));
                }
            }
            // Ensure every AP of b is attached (stitch if mirroring missed).
            let missing: Vec<u32> = aps
                .of_net(b)
                .iter()
                .map(|ap| grid.dim().flat_index(ap.node) as u32)
                .filter(|n| !rb.nodes.contains(n))
                .collect();
            if !missing.is_empty() || rb.nodes.is_empty() {
                let stitched =
                    route_net(circuit, grid, aps, guidance, cfg, b, Some(a), false, state)?;
                rb.nodes.extend(stitched.nodes);
                rb.edges.extend(stitched.edges);
            }
            routes.insert(a.index() as u32, ra);
            routes.insert(b.index() as u32, rb);
        }
    }
    Ok(())
}

/// Routes one net: connects all its access points into a single tree.
#[allow(clippy::too_many_arguments)]
fn route_net<G: GridView>(
    circuit: &Circuit,
    grid: &mut G,
    aps: &PinAccessMap,
    guidance: &RoutingGuidance,
    cfg: &RouterConfig,
    net: NetId,
    mirror_net: Option<NetId>,
    enforce_mirror: bool,
    state: &mut SearchState,
) -> Result<NetRoute, RouteError> {
    let mut route = NetRoute::default();
    // Seed the tree with anything the net already owns (pins at minimum).
    let ap_nodes: Vec<u32> = aps
        .of_net(net)
        .iter()
        .map(|ap| grid.dim().flat_index(ap.node) as u32)
        .collect();
    if ap_nodes.is_empty() {
        return Ok(route);
    }
    route.nodes.insert(ap_nodes[0]);
    let mut remaining: Vec<u32> = ap_nodes[1..].to_vec();
    // Sort remaining pins by distance to the seed for stable Steiner growth.
    let seed = grid.dim().from_flat(ap_nodes[0] as usize);
    remaining.sort_by_key(|&n| grid.dim().from_flat(n as usize).manhattan(seed));

    let net_guidance = guidance.of_net(net);
    let guidance_norm = guidance.scale_floor(net).recip();
    let mut searches = state.net(grid.dim().len());
    while !remaining.is_empty() {
        // Sorted sources: `route.nodes` is a HashSet whose iteration order
        // is seeded per instance, and the bucket open list pops LIFO within
        // a bucket — push order must not leak into results.
        let mut sources: Vec<usize> = route.nodes.iter().map(|&n| n as usize).collect();
        sources.sort_unstable();
        let targets: Vec<usize> = remaining.iter().map(|&n| n as usize).collect();
        let step = StepCost {
            grid: &*grid,
            guidance: net_guidance,
            guidance_norm,
            cfg,
            net,
            mirror_net,
            enforce_mirror,
        };
        let Some(found) = searches.search(&step, &sources, &targets) else {
            return Err(RouteError::Unroutable {
                net,
                name: circuit.net(net).name.clone(),
            });
        };
        // Claim and record the path.
        let mut prev: Option<u32> = None;
        for &n in &found.nodes {
            let n32 = n as u32;
            grid.claim_node(n, net); // may fail on contested nodes — negotiation handles it
            route.nodes.insert(n32);
            if let Some(p) = prev {
                route.edges.insert((p.min(n32), p.max(n32)));
            }
            prev = Some(n32);
        }
        let reached = *found.nodes.last().expect("path has nodes") as u32;
        remaining.retain(|&r| r != reached);
    }
    Ok(route)
}

#[cfg(test)]
mod tests {
    use super::*;
    use af_netlist::benchmarks;
    use af_place::{place, PlacementVariant};

    fn route_with(circuit: &Circuit, p: &Placement, cfg: RouterConfig) -> RoutedLayout {
        Router::new(cfg)
            .unwrap()
            .route(circuit, p, &Technology::nm40(), &RoutingGuidance::None)
            .unwrap()
    }

    fn routed(circuit: &Circuit) -> RoutedLayout {
        let p = place(circuit, PlacementVariant::A);
        route_with(circuit, &p, RouterConfig::default())
    }

    #[test]
    fn ota1_routes_clean() {
        let c = benchmarks::ota1();
        let layout = routed(&c);
        assert!(layout.is_clean(), "{} conflicts", layout.conflicts);
        assert!(layout.total_wirelength() > 0);
        // every routable net present
        for (i, net) in c.nets().iter().enumerate() {
            if net.is_routable() {
                assert!(
                    layout.net(NetId::new(i as u32)).is_some(),
                    "net `{}` missing",
                    net.name
                );
            }
        }
    }

    #[test]
    fn ota3_routes() {
        let c = benchmarks::ota3();
        let layout = routed(&c);
        assert!(
            layout.conflicts <= 2,
            "too many conflicts: {}",
            layout.conflicts
        );
        assert!(layout.total_vias() > 0, "multilayer design should use vias");
    }

    #[test]
    fn symmetric_nets_have_mirrored_wirelength() {
        let c = benchmarks::ota1();
        let layout = routed(&c);
        for &(a, b) in c.symmetric_net_pairs() {
            let (ra, rb) = (layout.net(a), layout.net(b));
            if let (Some(ra), Some(rb)) = (ra, rb) {
                // mirroring implies identical wirelength when no stitching was
                // needed; allow a small tolerance for stitches
                let (wa, wb) = (ra.wirelength as f64, rb.wirelength as f64);
                let rel = (wa - wb).abs() / wa.max(wb).max(1.0);
                assert!(rel < 0.35, "{}: {} vs {}", c.net(a).name, wa, wb);
            }
        }
    }

    #[test]
    fn deterministic() {
        let c = benchmarks::ota2();
        let p = place(&c, PlacementVariant::B);
        let l1 = route_with(&c, &p, RouterConfig::default());
        let l2 = route_with(&c, &p, RouterConfig::default());
        assert_eq!(l1.nets, l2.nets);
    }

    #[test]
    fn thread_count_does_not_change_layout() {
        let c = benchmarks::ota3();
        let p = place(&c, PlacementVariant::A);
        let base = route_with(&c, &p, RouterConfig::default());
        for threads in [2, 4, 8] {
            let cfg = RouterConfig::builder().threads(threads).build().unwrap();
            let l = route_with(&c, &p, cfg);
            assert_eq!(
                base.nets, l.nets,
                "{threads}-thread layout must be bit-identical to 1-thread"
            );
            assert_eq!(base.conflicts, l.conflicts);
        }
    }

    #[test]
    fn guidance_changes_routing() {
        use crate::guidance::NonUniformGuidance;
        use af_geom::CostTriple;

        let c = benchmarks::ota1();
        let p = place(&c, PlacementVariant::A);
        let t = Technology::nm40();
        let router = Router::new(RouterConfig::default()).unwrap();
        let base = router.route(&c, &p, &t, &RoutingGuidance::None).unwrap();

        let mut g = NonUniformGuidance::new();
        // make vertical routing very expensive for the output net
        let vout = c.net_by_name("vout").unwrap();
        for pin in p.pins_of_net(vout) {
            let center = pin.rect.center();
            g.set(
                vout,
                af_geom::Point3::new(center.x, center.y, pin.layer),
                CostTriple([1.0, 8.0, 4.0]),
            );
        }
        let guided = router
            .route(&c, &p, &t, &RoutingGuidance::NonUniform(g))
            .unwrap();
        assert_ne!(
            base.net(vout).map(|n| &n.segments),
            guided.net(vout).map(|n| &n.segments),
            "strong guidance should alter the route"
        );
    }

    #[test]
    fn default_config_is_valid() {
        RouterConfig::default().validate().unwrap();
    }

    #[test]
    fn builder_validates_on_build() {
        let cfg = RouterConfig::builder()
            .threads(3)
            .via_cost(5.0)
            .enforce_symmetry(false)
            .build()
            .unwrap();
        assert_eq!(cfg.threads, 3);
        assert_eq!(cfg.via_cost, 5.0);
        assert!(!cfg.enforce_symmetry);

        let err = RouterConfig::builder().coarsen(0).build().unwrap_err();
        assert_eq!(err, RouteConfigError::Coarsen { got: 0 });
        assert!(Router::new(RouterConfig::default()).is_ok());
    }

    #[test]
    fn router_new_rejects_bad_config() {
        let cfg = RouterConfig {
            min_guidance: 0.0,
            ..Default::default()
        };
        let err = Router::new(cfg).unwrap_err();
        assert_eq!(err, RouteConfigError::MinGuidance { got: 0.0 });
        // and the error folds into RouteError::Config for `?` callers
        let re: RouteError = err.into();
        assert!(matches!(re, RouteError::Config(_)));
        assert!(re.to_string().contains("min_guidance"));
    }

    #[test]
    fn validate_rejects_bad_fields() {
        let cases: Vec<(RouterConfig, &str)> = vec![
            (
                RouterConfig {
                    coarsen: 0,
                    ..RouterConfig::default()
                },
                "coarsen",
            ),
            (
                RouterConfig {
                    via_cost: 0.0,
                    ..RouterConfig::default()
                },
                "via_cost",
            ),
            (
                RouterConfig {
                    via_cost: f64::NAN,
                    ..RouterConfig::default()
                },
                "via_cost",
            ),
            (
                RouterConfig {
                    wrong_dir_mult: 0.5,
                    ..RouterConfig::default()
                },
                "wrong_dir_mult",
            ),
            (
                RouterConfig {
                    present_cost: -1.0,
                    ..RouterConfig::default()
                },
                "penalties",
            ),
            (
                RouterConfig {
                    reuse_discount: 2.0,
                    ..RouterConfig::default()
                },
                "reuse_discount",
            ),
            (
                RouterConfig {
                    min_guidance: 0.0,
                    ..RouterConfig::default()
                },
                "min_guidance",
            ),
            (
                RouterConfig {
                    max_iterations: 0,
                    ..RouterConfig::default()
                },
                "max_iterations",
            ),
            (
                RouterConfig {
                    bend_penalty: -0.1,
                    ..RouterConfig::default()
                },
                "bend_penalty",
            ),
        ];
        for (cfg, needle) in cases {
            let err = cfg.validate().unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{err} should mention {needle}"
            );
        }
    }

    #[test]
    fn report_renders_all_nets() {
        let c = benchmarks::ota1();
        let layout = routed(&c);
        let report = layout.report(&c);
        assert!(report.contains("vout"));
        assert!(report.contains("TOTAL"));
        assert!(report.lines().count() >= layout.nets.len() + 2);
    }

    #[test]
    fn bend_penalty_reduces_bends() {
        let c = benchmarks::ota1();
        let p = place(&c, PlacementVariant::A);
        let count_bends = |layout: &RoutedLayout| -> usize {
            // planar segments per net minus one approximates bend count
            layout
                .nets
                .iter()
                .map(|n| {
                    n.segments
                        .iter()
                        .filter(|s| !s.is_via())
                        .count()
                        .saturating_sub(1)
                })
                .sum()
        };
        let straight = route_with(
            &c,
            &p,
            RouterConfig {
                bend_penalty: 3.0,
                ..RouterConfig::default()
            },
        );
        let free = route_with(
            &c,
            &p,
            RouterConfig {
                bend_penalty: 0.0,
                ..RouterConfig::default()
            },
        );
        assert!(
            count_bends(&straight) <= count_bends(&free),
            "bend penalty must not increase bends: {} vs {}",
            count_bends(&straight),
            count_bends(&free)
        );
    }

    #[test]
    fn disabling_symmetry_still_routes() {
        let c = benchmarks::ota1();
        let p = place(&c, PlacementVariant::A);
        let cfg = RouterConfig {
            enforce_symmetry: false,
            ..RouterConfig::default()
        };
        let layout = route_with(&c, &p, cfg);
        assert!(layout.is_clean());
    }

    #[test]
    fn faulted_task_degrades_to_sequential() {
        // Arm a one-shot panic inside the first route task; the round must
        // absorb it, re-route the victim sequentially on the merged grid,
        // and still converge to a clean, complete layout.
        let _guard = af_fault::scenario();
        let c = benchmarks::ota1();
        let p = place(&c, PlacementVariant::A);

        af_fault::arm_spec("route.task:panic:1.0:1").unwrap();
        let sink = std::sync::Arc::new(af_obs::MemorySink::new());
        let obs = af_obs::install(sink.clone());
        let faulted = route_with(&c, &p, RouterConfig::default());
        drop(obs);
        let stats = af_fault::stats("route.task").expect("failpoint armed");
        af_fault::disarm_all();
        assert!(stats.fires >= 1, "failpoint should have fired");
        assert!(
            sink.events().iter().any(|e| matches!(
                e,
                af_obs::Event::Log { level, message, .. }
                    if level == "warn" && message.contains("faulted")
                        && message.contains("route.task")
            )),
            "the task's panic message is recorded as an af-obs warning"
        );
        assert!(faulted.is_clean(), "{} conflicts", faulted.conflicts);
        for (i, net) in c.nets().iter().enumerate() {
            if net.is_routable() {
                assert!(
                    faulted.net(NetId::new(i as u32)).is_some(),
                    "net `{}` missing after fault degradation",
                    net.name
                );
            }
        }
    }
}
