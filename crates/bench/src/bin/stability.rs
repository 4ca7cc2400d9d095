//! Stability experiment: the paper claims AnalogFold "exhibits enhanced
//! stability by considering the potential post-layout performance". This
//! binary quantifies run-to-run spread: the flow is repeated with K
//! different seeds on OTA1-A and the per-metric mean ± standard deviation is
//! reported next to the (deterministic) MagicalRoute baseline.
//!
//! The K per-seed flows fan out across the `afrt` worker pool. Each flow
//! depends only on its seed, so the table is identical at any worker count.
//!
//! Run: `cargo run -p af-bench --bin stability --release -- [quick|full]
//!       [seeds=K] [threads=N] [route_threads=N]`

use af_bench::{flow_config, kv_num, obs_arg, route_threads_arg, threads_arg, Scale};
use af_netlist::benchmarks;
use af_place::{place, PlacementVariant};
use af_route::RouterConfig;
use af_sim::SimConfig;
use af_tech::Technology;
use analogfold::{magical_route, AnalogFoldFlow};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let _obs = obs_arg(&args);
    let scale = args
        .iter()
        .find_map(|a| Scale::parse(a))
        .unwrap_or(Scale::Quick);
    let seeds: u64 = kv_num(&args, "seeds", 5);
    let runtime = afrt::Runtime::with_threads(threads_arg(&args));

    let circuit = benchmarks::ota1();
    let tech = Technology::nm40();
    let placement = place(&circuit, PlacementVariant::A);
    let router_cfg = RouterConfig::builder()
        .threads(route_threads_arg(&args))
        .build()
        .expect("valid router config");
    let (_, _, base) = magical_route(
        &circuit,
        &placement,
        &tech,
        &router_cfg,
        &SimConfig::default(),
    )
    .expect("baseline");

    // One job per seed. Each flow pins its internal stages to a single
    // thread so the fan-out is the only parallelism.
    let jobs: Vec<_> = (0..seeds)
        .map(|seed| {
            let circuit = &circuit;
            let placement = &placement;
            move || {
                let flow = AnalogFoldFlow::new(flow_config(scale, 0x57ab + seed).with_threads(1));
                let p = flow.run(circuit, placement).expect("flow").performance;
                [
                    p.offset_uv,
                    p.cmrr_db,
                    p.bandwidth_mhz,
                    p.dc_gain_db,
                    p.noise_uvrms,
                ]
            }
        })
        .collect();
    eprintln!(
        "running {seeds} seeds on {} worker(s) ...",
        runtime.threads()
    );
    let rows = runtime.par_run(jobs).expect("per-seed fan-out");

    let n = rows.len() as f64;
    let names = ["Offset(uV)", "CMRR(dB)", "BW(MHz)", "Gain(dB)", "Noise(uV)"];
    let baseline = [
        base.offset_uv,
        base.cmrr_db,
        base.bandwidth_mhz,
        base.dc_gain_db,
        base.noise_uvrms,
    ];
    println!("Stability over {seeds} seeds on OTA1-A (scale {scale:?})\n");
    println!(
        "{:<12}{:>12}{:>12}{:>12}{:>10}",
        "metric", "Magical", "Ours mean", "Ours std", "cv %"
    );
    for k in 0..5 {
        let mean = rows.iter().map(|r| r[k]).sum::<f64>() / n;
        let var = rows
            .iter()
            .map(|r| (r[k] - mean) * (r[k] - mean))
            .sum::<f64>()
            / n;
        let std = var.sqrt();
        let cv_pct = 100.0 * std / mean.abs().max(1e-9);
        println!(
            "{:<12}{:>12.2}{:>12.2}{:>12.2}{:>9.2}%",
            names[k], baseline[k], mean, std, cv_pct
        );
    }
}
