//! route-sweep draws guidance with a copy of the dataset
//! generator's private sampler. This test fails when the copy drifts from
//! what `generate_dataset` actually draws.

use af_netlist::benchmarks;
use af_place::{place, PlacementVariant};
use af_tech::Technology;
use analogfold::{generate_dataset, DatasetConfig, HeteroGraph};

#[test]
fn route_sampler_reproduces_dataset_guidance_bit_for_bit() {
    let circuit = benchmarks::ota1();
    let placement = place(&circuit, PlacementVariant::A);
    let tech = Technology::nm40();
    let graph = HeteroGraph::build(&circuit, &placement, &tech, 3);
    let cfg = DatasetConfig {
        samples: 4,
        seed: afrt::split_seed(2024, 0),
        ..DatasetConfig::default()
    };
    let dataset =
        generate_dataset(&circuit, &placement, &tech, &graph, &cfg).expect("OTA1-A routes");
    assert_eq!(dataset.samples.len(), 4);
    let len = graph.guided_ap_indices().len() * 3;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (i, sample) in dataset.samples.iter().enumerate() {
        let drawn = af_benchmark::draw_guidance(cfg.seed, i as u64, len, cfg.c_low, cfg.c_high);
        assert_eq!(bits(&drawn), bits(&sample.guidance), "sample {i}");
    }
}
