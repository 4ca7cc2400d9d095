//! `flow-quick`: `AnalogFoldFlow::run` rotating over designs, with an
//! unguided MagicalRoute reference per design.

use std::time::Instant;

use af_netlist::{benchmarks, Circuit};
use af_place::{place, Placement, PlacementVariant};
use af_route::{Router, RouterConfig, RoutingGuidance};
use af_sim::{simulate, Performance, SimConfig};
use af_tech::Technology;
use analogfold::{AnalogFoldFlow, FlowConfig};

use crate::{repeat, stats, Recorder, Size, Workbench};

/// The designs flow-quick rotates over: both 15-net OTAs and all three
/// placements. The 20-net OTAs take 10 s and more per flow, too long to
/// repeat within one run; route-sweep covers their guided routing.
pub(crate) const DESIGNS: [(&str, PlacementVariant); 3] = [
    ("OTA1", PlacementVariant::A),
    ("OTA1", PlacementVariant::C),
    ("OTA2", PlacementVariant::B),
];

/// Worker threads of every parallel flow stage: the 2 cores the benchmark
/// is sized for.
pub(crate) const THREADS: usize = 2;

pub(crate) struct FlowQuick {
    seed: u64,
    size: Size,
}

pub(crate) struct Design {
    label: String,
    circuit: Circuit,
    placement: Placement,
    placement_s: f64,
    /// MagicalRoute's post-layout performance: the quality reference.
    magical: Performance,
}

impl FlowQuick {
    pub(crate) fn new(seed: u64, size: &Size) -> Self {
        Self { seed, size: *size }
    }
}

/// Routes, extracts and simulates one layout, with bench-side spans
/// around the layers that record none of their own. `None` when routing
/// or simulation failed or the layout is unclean, after recording why.
pub(crate) fn route_and_simulate(
    router: &Router,
    circuit: &Circuit,
    placement: &Placement,
    tech: &Technology,
    guidance: &RoutingGuidance,
    what: &str,
    rec: &mut Recorder,
) -> Option<(af_route::RoutedLayout, Performance)> {
    let layout = match router.route(circuit, placement, tech, guidance) {
        Ok(layout) => layout,
        Err(e) => {
            rec.outcome(false, || format!("{what}: routing failed: {e}"));
            return None;
        }
    };
    let parasitics = {
        let _s = af_obs::span!("extract");
        af_extract::extract(circuit, tech, &layout)
    };
    let perf = {
        let _s = af_obs::span!("sim");
        simulate(circuit, Some(&parasitics), &SimConfig::default())
    };
    match perf {
        Ok(perf) => {
            let ok = layout.conflicts == 0 && perf.as_array().iter().all(|v| v.is_finite());
            rec.outcome(ok, || {
                format!(
                    "{what}: {} conflicts, metrics {:?}",
                    layout.conflicts,
                    perf.as_array()
                )
            });
            ok.then_some((layout, perf))
        }
        Err(e) => {
            rec.outcome(false, || format!("{what}: simulation failed: {e}"));
            None
        }
    }
}

impl Workbench for FlowQuick {
    type State = Vec<Design>;
    const PROBE_THREADS: usize = THREADS;

    fn setup(&self, rec: &mut Recorder) -> Vec<Design> {
        let tech = Technology::nm40();
        let router = Router::new(RouterConfig::builder().threads(1).build().expect("valid"))
            .expect("valid router configuration");
        DESIGNS[..self.size.flow_designs]
            .iter()
            .map(|&(name, variant)| {
                let circuit = benchmarks::by_name(name).expect("bundled benchmark");
                let label = format!("{name}-{}", variant.label());
                let t = Instant::now();
                let placement = {
                    let _s = af_obs::span!("place");
                    place(&circuit, variant)
                };
                let placement_s = t.elapsed().as_secs_f64();
                let reference = route_and_simulate(
                    &router,
                    &circuit,
                    &placement,
                    &tech,
                    &RoutingGuidance::None,
                    &format!("{label} MagicalRoute"),
                    rec,
                );
                let magical = match reference {
                    Some((layout, perf)) => {
                        rec.digest(&layout.nets);
                        perf
                    }
                    None => Performance {
                        offset_uv: f64::NAN,
                        cmrr_db: f64::NAN,
                        bandwidth_mhz: f64::NAN,
                        dc_gain_db: f64::NAN,
                        noise_uvrms: f64::NAN,
                    },
                };
                rec.digest(&magical);
                Design {
                    label,
                    circuit,
                    placement,
                    placement_s,
                    magical,
                }
            })
            .collect()
    }

    fn measure(&self, designs: &mut Vec<Design>, seconds: f64, rec: &mut Recorder) {
        let size = self.size;
        let n = designs.len();
        let mut ratios = Vec::new();
        // Flow `i` runs design `i % n` with flow seed `split_seed(seed, i)`.
        repeat(seconds, n, |i| {
            let (d, design) = (i % n, &designs[i % n]);
            let cfg = FlowConfig::builder()
                .samples(size.samples)
                .epochs(size.epochs)
                .restarts(size.restarts)
                .n_derive(size.n_derive)
                .seed(afrt::split_seed(self.seed, i as u64))
                .threads(THREADS)
                .route_threads(1)
                .placement_s(design.placement_s)
                .build()
                .expect("benchmark flow configuration is valid");
            let t = rec.start();
            let result = AnalogFoldFlow::new(cfg).run(&design.circuit, &design.placement);
            rec.op(d, t);
            let outcome = match result {
                Ok(outcome) => outcome,
                Err(e) => {
                    rec.outcome(false, || format!("{}: flow failed: {e}", design.label));
                    return;
                }
            };
            let perf = outcome.performance;
            // An empty guidance means every candidate failed and the flow
            // fell back to unguided routing.
            let ok = outcome.layout.conflicts == 0
                && !outcome.guidance.is_empty()
                && perf.as_array().iter().all(|v| v.is_finite());
            rec.outcome(ok, || {
                format!(
                    "{}: flow layout has {} conflicts, {} guidance values, metrics {:?}",
                    design.label,
                    outcome.layout.conflicts,
                    outcome.guidance.len(),
                    perf.as_array()
                )
            });
            if i < n {
                rec.digest(&outcome.guidance);
                rec.digest(&outcome.layout.nets);
                rec.digest(&perf);
                ratios.push(perf.offset_uv / design.magical.offset_uv);
            }
        });
        rec.values
            .insert("flow.offset_ratio", stats::geomean(&ratios));
    }
}
