#![warn(missing_docs)]
//! Shared experiment harness for the table/figure reproduction binaries.
//!
//! The entry point is [`run_row`], which evaluates one Table 2 row
//! (`<benchmark>-<variant>`) under all four methods: Schematic,
//! MagicalRoute, GeniusRoute, and AnalogFold. [`Scale`] controls how much
//! compute each row spends (sample counts, epochs, restarts), so the same
//! harness drives quick smoke benches and the full regeneration run.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use af_netlist::{benchmarks, Circuit};
use af_place::{place, Placement, PlacementVariant};
use af_route::{RoutedLayout, Router, RouterConfig, RoutingGuidance};
use af_sim::{simulate, Performance, SimConfig};
use af_tech::Technology;
use analogfold::{magical_route, AnalogFoldFlow, FlowConfig, GeniusConfig, GeniusRouteModel};

/// The Table 2 rows of the paper, in order.
pub const TABLE2_ROWS: &[(&str, PlacementVariant)] = &[
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

/// Compute scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test scale (seconds per row).
    Quick,
    /// Paper-regeneration scale (minutes per row) — the default for
    /// EXPERIMENTS.md numbers.
    Full,
    /// Faithful scale: the paper's 2 000 samples per design (tens of
    /// minutes per row; run overnight).
    Paper,
}

impl Scale {
    /// Parses `"quick"`/`"full"`/`"paper"`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Dataset samples per design.
    pub fn samples(self) -> usize {
        match self {
            Scale::Quick => 12,
            Scale::Full => 160,
            Scale::Paper => 2_000,
        }
    }

    /// GNN training epochs.
    pub fn epochs(self) -> usize {
        match self {
            Scale::Quick => 10,
            Scale::Full => 120,
            Scale::Paper => 150,
        }
    }

    /// Relaxation restarts.
    pub fn restarts(self) -> usize {
        match self {
            Scale::Quick => 6,
            Scale::Full => 24,
            Scale::Paper => 48,
        }
    }

    /// Guidance candidates evaluated by routing+simulation.
    pub fn n_derive(self) -> usize {
        match self {
            Scale::Quick => 3,
            Scale::Full => 6,
            Scale::Paper => 8,
        }
    }

    /// GeniusRoute VAE epochs.
    pub fn vae_epochs(self) -> usize {
        match self {
            Scale::Quick => 15,
            Scale::Full | Scale::Paper => 400,
        }
    }
}

/// The result of one method on one row.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MethodResult {
    /// The five metrics.
    pub perf: Performance,
    /// Method runtime in seconds (guidance inference + routing; training is
    /// reported separately in the Fig. 5 breakdown, as in the paper).
    pub runtime_s: f64,
}

/// One complete Table 2 row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RowResult {
    /// Row id, e.g. `"OTA1-A"`.
    pub id: String,
    /// Schematic (no parasitics) metrics.
    pub schematic: Performance,
    /// MagicalRoute baseline.
    pub magical: MethodResult,
    /// GeniusRoute baseline.
    pub genius: MethodResult,
    /// AnalogFold.
    pub ours: MethodResult,
}

/// Finds the value of a `key=value` driver argument (`kv_arg(args,
/// "only")` matches `only=OTA1-A`). The shared parser behind every bench
/// binary's argument handling.
pub fn kv_arg<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .find_map(|a| a.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
}

/// Parses a numeric `key=N` driver argument; absent or unparsable values
/// fall back to `default`.
pub fn kv_num(args: &[String], key: &str, default: u64) -> u64 {
    kv_arg(args, key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parses a comma-separated `key=a,b,c` driver argument.
pub fn kv_list(args: &[String], key: &str) -> Option<Vec<String>> {
    kv_arg(args, key).map(|v| v.split(',').map(str::to_string).collect())
}

/// Parses a `threads=N` driver argument; `0` (the default) resolves through
/// `AFRT_THREADS`, then hardware parallelism.
pub fn threads_arg(args: &[String]) -> usize {
    kv_num(args, "threads", 0) as usize
}

/// Parses a `route_threads=N` driver argument: the detailed router's worker
/// count for its parallel negotiation rounds, independent of the flow-level
/// `threads=`. `0` (the default) resolves through `AFRT_THREADS`, then
/// hardware parallelism; every value yields a bit-identical layout.
pub fn route_threads_arg(args: &[String]) -> usize {
    kv_num(args, "route_threads", 0) as usize
}

/// Parses an `obs=<path>` driver argument: installs a JSONL observability
/// sink writing events to `<path>` and returns the guard that keeps it
/// installed (hold it for the duration of the run). `None` — observability
/// stays disabled — when the argument is absent or the file cannot be
/// created.
pub fn obs_arg(args: &[String]) -> Option<af_obs::ObsGuard> {
    let path = kv_arg(args, "obs")?;
    match af_obs::JsonlSink::create(std::path::Path::new(path)) {
        Ok(sink) => Some(af_obs::install(std::sync::Arc::new(sink))),
        Err(err) => {
            eprintln!("warning: cannot create obs sink `{path}`: {err}");
            None
        }
    }
}

/// Flow configuration for one scale.
pub fn flow_config(scale: Scale, seed: u64) -> FlowConfig {
    FlowConfig::builder()
        .samples(scale.samples())
        .epochs(scale.epochs())
        .restarts(scale.restarts())
        .n_derive(scale.n_derive())
        .seed(seed)
        .build()
        .expect("bench flow configuration is valid")
}

/// Trains the GeniusRoute model from unguided routings of the *other*
/// placement variants of the same circuit (imitation data).
pub fn genius_model(
    circuit: &Circuit,
    exclude: PlacementVariant,
    tech: &Technology,
    scale: Scale,
) -> GeniusRouteModel {
    let mut data: Vec<(Placement, RoutedLayout)> = Vec::new();
    for v in PlacementVariant::ALL {
        if v == exclude {
            continue;
        }
        let p = place(circuit, v);
        if let Ok(l) = Router::new(RouterConfig::default()).unwrap().route(
            circuit,
            &p,
            tech,
            &RoutingGuidance::None,
        ) {
            data.push((p, l));
        }
    }
    let refs: Vec<(&Placement, &RoutedLayout)> = data.iter().map(|(p, l)| (p, l)).collect();
    // At full scale the VAE is enlarged toward the original GeniusRoute's
    // heavyweight generative model (its runtime dominance in the paper's
    // Table 2 comes from exactly this model).
    let cfg = match scale {
        Scale::Quick => GeniusConfig {
            epochs: scale.vae_epochs(),
            ..GeniusConfig::default()
        },
        Scale::Full | Scale::Paper => GeniusConfig {
            raster: 20,
            hidden: 256,
            latent: 16,
            epochs: scale.vae_epochs(),
            ..GeniusConfig::default()
        },
    };
    GeniusRouteModel::train(circuit, &refs, &cfg)
}

/// Evaluates one Table 2 row under all four methods.
///
/// # Panics
///
/// Panics on unknown benchmark names or unroutable designs (the bundled
/// benchmarks always route).
pub fn run_row(bench: &str, variant: PlacementVariant, scale: Scale) -> RowResult {
    let circuit = benchmarks::by_name(bench).unwrap_or_else(|| panic!("unknown benchmark {bench}"));
    let tech = Technology::nm40();
    let sim_cfg = SimConfig::default();
    let placement = place(&circuit, variant);

    let schematic = simulate(&circuit, None, &sim_cfg).expect("schematic simulation");

    // MagicalRoute.
    let t0 = Instant::now();
    let (_, _, magical_perf) = magical_route(
        &circuit,
        &placement,
        &tech,
        &RouterConfig::default(),
        &sim_cfg,
    )
    .expect("magical route");
    let magical = MethodResult {
        perf: magical_perf,
        runtime_s: t0.elapsed().as_secs_f64(),
    };

    // GeniusRoute: VAE training on sibling placements + guided routing.
    let t1 = Instant::now();
    let model = genius_model(&circuit, variant, &tech, scale);
    let guidance = model.guidance(&circuit, &placement);
    let layout = Router::new(RouterConfig::default())
        .unwrap()
        .route(&circuit, &placement, &tech, &guidance)
        .expect("genius route");
    let parasitics = af_extract::extract(&circuit, &tech, &layout);
    let genius_perf = simulate(&circuit, Some(&parasitics), &sim_cfg).expect("genius sim");
    let genius = MethodResult {
        perf: genius_perf,
        runtime_s: t1.elapsed().as_secs_f64(),
    };

    // AnalogFold.
    let seed = variant.seed() ^ bench.bytes().map(u64::from).sum::<u64>();
    let flow = AnalogFoldFlow::new(flow_config(scale, seed));
    let outcome = flow.run(&circuit, &placement).expect("analogfold flow");
    let ours = MethodResult {
        perf: outcome.performance,
        runtime_s: outcome.breakdown.guide_gen_s + outcome.breakdown.guided_route_s,
    };

    RowResult {
        id: format!("{bench}-{}", variant.label()),
        schematic,
        magical,
        genius,
        ours,
    }
}

/// Normalized per-metric averages over rows (MagicalRoute = 1.0), in the
/// order of the paper's "Average" block: offset, CMRR, bandwidth, gain,
/// noise, runtime.
pub fn averages(rows: &[RowResult]) -> [[f64; 3]; 6] {
    let mut acc = [[0.0; 3]; 6]; // [metric][method: magical, genius, ours]
    let n = rows.len() as f64;
    for r in rows {
        let m = [r.magical, r.genius, r.ours];
        for (k, res) in m.iter().enumerate() {
            let base = &r.magical.perf;
            let safe = |x: f64| x.abs().max(1e-9);
            acc[0][k] += res.perf.offset_uv / safe(base.offset_uv) / n;
            acc[1][k] += res.perf.cmrr_db / safe(base.cmrr_db) / n;
            acc[2][k] += res.perf.bandwidth_mhz / safe(base.bandwidth_mhz) / n;
            acc[3][k] += res.perf.dc_gain_db / safe(base.dc_gain_db) / n;
            acc[4][k] += res.perf.noise_uvrms / safe(base.noise_uvrms) / n;
            acc[5][k] += res.runtime_s / safe(r.magical.runtime_s) / n;
        }
    }
    acc
}

/// The shared table geometry of the Table 1/2 row blocks: a 22-wide metric
/// label and four 12-wide value columns, indented two spaces (matches the
/// obs tree report rendered by `af_obs::report`).
fn metric_table() -> af_obs::fmt::Table {
    af_obs::fmt::Table::new(22).cols(12, 4).indent(2)
}

/// Formats one metric line of the Table 2 layout.
pub fn fmt_metric(name: &str, schematic: Option<f64>, vals: [f64; 3], prec: usize) -> String {
    use af_obs::fmt::Cell;
    let s = schematic.map_or(Cell::Dash, |v| Cell::Float(v, prec));
    metric_table().row(
        name,
        &[
            s,
            Cell::Float(vals[0], prec),
            Cell::Float(vals[1], prec),
            Cell::Float(vals[2], prec),
        ],
    )
}

/// Prints a full row block in the paper's layout.
pub fn print_row(r: &RowResult) {
    println!("{}", r.id);
    println!(
        "{}",
        metric_table().header("metric", &["Schematic", "Magical", "Genius", "Ours"])
    );
    let (s, m, g, o) = (&r.schematic, &r.magical.perf, &r.genius.perf, &r.ours.perf);
    println!(
        "{}",
        fmt_metric(
            "OffsetVoltage(uV) v",
            None,
            [m.offset_uv, g.offset_uv, o.offset_uv],
            1
        )
    );
    println!(
        "{}",
        fmt_metric(
            "CMRR(dB) ^",
            Some(s.cmrr_db),
            [m.cmrr_db, g.cmrr_db, o.cmrr_db],
            2
        )
    );
    println!(
        "{}",
        fmt_metric(
            "BandWidth(MHz) ^",
            Some(s.bandwidth_mhz),
            [m.bandwidth_mhz, g.bandwidth_mhz, o.bandwidth_mhz],
            2
        )
    );
    println!(
        "{}",
        fmt_metric(
            "DC Gain(dB) ^",
            Some(s.dc_gain_db),
            [m.dc_gain_db, g.dc_gain_db, o.dc_gain_db],
            2
        )
    );
    println!(
        "{}",
        fmt_metric(
            "Noise(uVrms) v",
            Some(s.noise_uvrms),
            [m.noise_uvrms, g.noise_uvrms, o.noise_uvrms],
            1
        )
    );
    println!(
        "{}",
        fmt_metric(
            "Runtime(s) v",
            None,
            [r.magical.runtime_s, r.genius.runtime_s, r.ours.runtime_s],
            2
        )
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_arg_parsing() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(threads_arg(&args(&["quick", "threads=4"])), 4);
        assert_eq!(threads_arg(&args(&["threads=0"])), 0);
        assert_eq!(threads_arg(&args(&["quick"])), 0, "default is auto");
        assert_eq!(threads_arg(&args(&["threads=x"])), 0, "garbage is auto");
    }

    #[test]
    fn kv_arg_parsing() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            kv_arg(&args(&["quick", "obs=/tmp/x.jsonl"]), "obs"),
            Some("/tmp/x.jsonl")
        );
        assert_eq!(
            kv_arg(&args(&["observe=1"]), "obs"),
            None,
            "prefix must stop at `=`"
        );
        assert_eq!(kv_num(&args(&["seeds=7"]), "seeds", 5), 7);
        assert_eq!(kv_num(&args(&["seeds=junk"]), "seeds", 5), 5);
        assert_eq!(kv_num(&args(&[]), "seeds", 5), 5);
        assert_eq!(
            kv_list(&args(&["only=OTA1-A,OTA2-B"]), "only").unwrap(),
            vec!["OTA1-A".to_string(), "OTA2-B".to_string()]
        );
        assert!(kv_list(&args(&["quick"]), "only").is_none());
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("FULL"), Some(Scale::Full));
        assert_eq!(Scale::parse("x"), None);
        assert!(Scale::Full.samples() > Scale::Quick.samples());
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::Paper.samples(), 2_000);
    }

    #[test]
    fn averages_normalize_magical_to_one() {
        let perf = Performance {
            offset_uv: 100.0,
            cmrr_db: 80.0,
            bandwidth_mhz: 50.0,
            dc_gain_db: 40.0,
            noise_uvrms: 300.0,
        };
        let better = Performance {
            offset_uv: 50.0,
            ..perf
        };
        let row = RowResult {
            id: "X-A".into(),
            schematic: perf,
            magical: MethodResult {
                perf,
                runtime_s: 1.0,
            },
            genius: MethodResult {
                perf,
                runtime_s: 17.0,
            },
            ours: MethodResult {
                perf: better,
                runtime_s: 7.5,
            },
        };
        let avg = averages(&[row]);
        assert!((avg[0][0] - 1.0).abs() < 1e-12, "magical offset ratio = 1");
        assert!((avg[0][2] - 0.5).abs() < 1e-12, "ours offset ratio = 0.5");
        assert!((avg[5][1] - 17.0).abs() < 1e-12, "genius runtime ratio");
    }

    #[test]
    fn table2_rows_cover_paper() {
        assert_eq!(TABLE2_ROWS.len(), 10);
        assert_eq!(TABLE2_ROWS[0], ("OTA1", PlacementVariant::A));
        assert_eq!(TABLE2_ROWS[9], ("OTA4", PlacementVariant::B));
    }
}
