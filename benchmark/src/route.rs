//! `route-sweep`: the single-threaded detailed router over the Table-2
//! rows, unguided and guided, each route followed by extraction and
//! simulation — no afrt fan-out, no GNN, no HTTP.

use af_netlist::{benchmarks, Circuit};
use af_place::{place, Placement, PlacementVariant};
use af_route::{Router, RouterConfig, RoutingGuidance};
use af_tech::Technology;
use analogfold::{guidance_field, DatasetConfig, HeteroGraph};

use crate::flow::route_and_simulate;
use crate::{draw_guidance, repeat, stats, Recorder, Size, Workbench};

/// The Table 2 rows of the paper, in order.
pub(crate) const ROWS: [(&str, PlacementVariant); 10] = [
    ("OTA1", PlacementVariant::A),
    ("OTA1", PlacementVariant::B),
    ("OTA1", PlacementVariant::C),
    ("OTA2", PlacementVariant::A),
    ("OTA2", PlacementVariant::B),
    ("OTA2", PlacementVariant::C),
    ("OTA3", PlacementVariant::A),
    ("OTA3", PlacementVariant::B),
    ("OTA4", PlacementVariant::A),
    ("OTA4", PlacementVariant::B),
];

pub(crate) struct RouteSweep {
    seed: u64,
    size: Size,
}

pub(crate) struct Row {
    label: String,
    circuit: Circuit,
    placement: Placement,
    /// Guidance is drawn per guided access point of this graph.
    graph: HeteroGraph,
    /// The seed `generate_dataset` would use for this row.
    dataset_seed: u64,
}

pub(crate) struct Sweep {
    rows: Vec<Row>,
    router: Router,
    tech: Technology,
}

impl RouteSweep {
    pub(crate) fn new(seed: u64, size: &Size) -> Self {
        Self { seed, size: *size }
    }
}

impl Workbench for RouteSweep {
    type State = Sweep;

    fn setup(&self, _rec: &mut Recorder) -> Sweep {
        let tech = Technology::nm40();
        let rows: Vec<Row> = ROWS[..self.size.route_rows]
            .iter()
            .enumerate()
            .map(|(r, &(name, variant))| {
                let circuit = benchmarks::by_name(name).expect("bundled benchmark");
                let placement = {
                    let _s = af_obs::span!("place");
                    place(&circuit, variant)
                };
                let graph = {
                    let _s = af_obs::span!("hetero");
                    HeteroGraph::build(&circuit, &placement, &tech, 3)
                };
                Row {
                    label: format!("{name}-{}", variant.label()),
                    circuit,
                    placement,
                    graph,
                    dataset_seed: afrt::split_seed(self.seed, r as u64),
                }
            })
            .collect();
        Sweep {
            rows,
            router: Router::new(RouterConfig::builder().threads(1).build().expect("valid"))
                .expect("valid router configuration"),
            tech,
        }
    }

    fn measure(&self, sweep: &mut Sweep, seconds: f64, rec: &mut Recorder) {
        let dataset = DatasetConfig::default();
        // Each pass routes every row twice, unguided then guided, and
        // records the two under their own classes.
        let n = 2 * sweep.rows.len();
        repeat(seconds, n, |i| {
            let (class, pass) = (i % n, i / n);
            let (row, guided) = (&sweep.rows[class / 2], class % 2 == 1);
            let t = rec.start();
            // Pass `k` routes each row with the guidance of dataset sample `k`.
            let guidance = guided.then(|| {
                let len = row.graph.guided_ap_indices().len() * 3;
                draw_guidance(
                    row.dataset_seed,
                    pass as u64,
                    len,
                    dataset.c_low,
                    dataset.c_high,
                )
            });
            let field = match &guidance {
                Some(g) => RoutingGuidance::NonUniform(guidance_field(&row.graph, g)),
                None => RoutingGuidance::None,
            };
            let routed = route_and_simulate(
                &sweep.router,
                &row.circuit,
                &row.placement,
                &sweep.tech,
                &field,
                &row.label,
                rec,
            );
            rec.op(class, t);
            if pass == 0 {
                if let Some(g) = &guidance {
                    rec.digest(g);
                }
                if let Some((layout, perf)) = &routed {
                    rec.digest(&layout.nets);
                    rec.digest(perf);
                }
            }
        });
        // A guidance-path change should move one side and leave the other.
        let side = |guided: bool| {
            let ops: Vec<(usize, f64)> = rec
                .ops
                .iter()
                .filter(|o| o.0 % 2 == guided as usize)
                .copied()
                .collect();
            stats::balanced(&ops, |s| stats::percentile(s, 0.5))
        };
        let (unguided, guided) = (side(false), side(true));
        rec.notes.push(format!(
            "unguided op_p50 {unguided:.1} ms, guided op_p50 {guided:.1} ms (reference speed)"
        ));
    }
}
