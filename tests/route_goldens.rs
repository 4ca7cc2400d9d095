//! Golden layouts: the router's output on three designs, each routed
//! unguided, under seeded non-uniform guidance and under a fixed 2-D map,
//! pinned as a stable layout hash, total wirelength, via count, negotiation
//! rounds and the `route.astar_expansions` count. A router change that
//! claims bit-identical layouts must leave every row unchanged.
//!
//! This file holds one test on purpose: it reads a process-global af-obs
//! sink, which a concurrently running test in the same binary would pollute.

use std::sync::Arc;

use analogfold_suite::analogfold::{guidance_field_for, HeteroGraph};
use analogfold_suite::netlist::{benchmarks, Circuit, NetId};
use analogfold_suite::obs::{Event, MemorySink};
use analogfold_suite::place::{place, Placement, PlacementVariant};
use analogfold_suite::route::{GuidanceMap2D, RoutedLayout, Router, RouterConfig, RoutingGuidance};
use analogfold_suite::tech::Technology;

/// One pinned route: `(design, guidance kind, layout hash, wirelength, vias,
/// rounds, A* expansions)`.
type Golden = (&'static str, &'static str, u64, i64, u32, u32, u64);

/// Routed by the router whose relax loop still hashed (a `HashMap` claim
/// overlay per task, a guidance map lookup and a nearest-access-point scan
/// per step). Removing the hashing left every row as it was.
#[rustfmt::skip]
const GOLDENS: &[Golden] = &[
    ("OTA1-A", "unguided", 0xa48837f8fd294ede, 708680, 118, 4, 231411),
    ("OTA1-A", "nonuniform", 0x16ce729922d85b6f, 717080, 124, 4, 672979),
    ("OTA1-A", "map", 0x10b4e8425f5d8c2d, 727440, 134, 4, 681795),
    ("OTA2-B", "unguided", 0xf2736671f130ee88, 392840, 114, 4, 233968),
    ("OTA2-B", "nonuniform", 0xa1fd1c2213765536, 396480, 114, 3, 528773),
    ("OTA2-B", "map", 0xd0f8998edaa35f27, 392840, 121, 4, 310691),
    ("OTA4-B", "unguided", 0xea5c22a6b569790b, 1454320, 258, 4, 1951075),
    ("OTA4-B", "nonuniform", 0x31be16e2bb6c8538, 1463000, 267, 5, 4352152),
    ("OTA4-B", "map", 0x1f9af83cea40402a, 1489040, 273, 5, 3465519),
];

/// FNV-1a (64-bit) over every net's id and segment endpoints, in layout
/// order. Unlike `DefaultHasher` its output is fixed across Rust releases.
fn layout_hash(layout: &RoutedLayout) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for net in &layout.nets {
        eat(&(net.net.index() as u32).to_le_bytes());
        for s in &net.segments {
            for p in [s.start(), s.end()] {
                eat(&p.x.to_le_bytes());
                eat(&p.y.to_le_bytes());
                eat(&[p.z]);
            }
        }
    }
    h
}

/// SplitMix64: a seeded draw that no dependency update can change.
fn splitmix(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Dataset-style guidance: one triple per guided access point, each
/// component uniform in the dataset's default range `[0.4, 2.2]`.
fn seeded_guidance(c: &Circuit, p: &Placement, tech: &Technology, seed: u64) -> RoutingGuidance {
    let graph = HeteroGraph::build(c, p, tech, 3);
    let mut state = seed;
    let vector: Vec<f64> = (0..graph.guided_ap_indices().len() * 3)
        .map(|_| 0.4 + 1.8 * splitmix(&mut state))
        .collect();
    RoutingGuidance::NonUniform(guidance_field_for(c, p, tech, &vector))
}

/// A fixed GeniusRoute-style 4×4 raster over the die for every net, with
/// multipliers in `[1.0, 2.0]`.
fn map_guidance(c: &Circuit, p: &Placement) -> RoutingGuidance {
    let die = p.die();
    let mut map = GuidanceMap2D::new(
        4,
        4,
        (die.lo().x, die.lo().y),
        (die.hi().x - die.lo().x, die.hi().y - die.lo().y),
    );
    for i in 0..c.nets().len() {
        let values = (0..16)
            .map(|cell| 1.0 + ((i * 7 + cell * 3) % 5) as f64 * 0.25)
            .collect();
        map.set_net(NetId::new(i as u32), values);
    }
    RoutingGuidance::Map(map)
}

/// Routes once with a fresh sink installed and returns the layout with the
/// expansion count the router reported.
fn route_counted(
    c: &Circuit,
    p: &Placement,
    tech: &Technology,
    guidance: &RoutingGuidance,
) -> (RoutedLayout, u64) {
    let sink = Arc::new(MemorySink::new());
    let guard = analogfold_suite::obs::install(sink.clone());
    let layout = Router::new(RouterConfig::default())
        .unwrap()
        .route(c, p, tech, guidance)
        .unwrap();
    drop(guard);
    let expansions = sink
        .events()
        .iter()
        .find_map(|e| match e {
            Event::Counter { name, value, .. } if name == "route.astar_expansions" => Some(*value),
            _ => None,
        })
        .expect("the router reports route.astar_expansions");
    (layout, expansions)
}

#[test]
fn routed_layouts_match_parent_goldens() {
    let tech = Technology::nm40();
    let designs: [(&str, Circuit, PlacementVariant); 3] = [
        ("OTA1-A", benchmarks::ota1(), PlacementVariant::A),
        ("OTA2-B", benchmarks::ota2(), PlacementVariant::B),
        ("OTA4-B", benchmarks::ota4(), PlacementVariant::B),
    ];
    let mut rows: Vec<Golden> = Vec::new();
    for (k, (name, c, variant)) in designs.iter().enumerate() {
        let p = place(c, *variant);
        let kinds = [
            ("unguided", RoutingGuidance::None),
            ("nonuniform", seeded_guidance(c, &p, &tech, 17 + k as u64)),
            ("map", map_guidance(c, &p)),
        ];
        for (kind, guidance) in &kinds {
            let (layout, expansions) = route_counted(c, &p, &tech, guidance);
            rows.push((
                name,
                kind,
                layout_hash(&layout),
                layout.total_wirelength(),
                layout.total_vias(),
                layout.iterations,
                expansions,
            ));
        }
    }
    let rendered: String = rows
        .iter()
        .map(|(d, k, h, wl, v, r, e)| {
            format!("    (\"{d}\", \"{k}\", {h:#018x}, {wl}, {v}, {r}, {e}),\n")
        })
        .collect();
    assert_eq!(
        rows.as_slice(),
        GOLDENS,
        "routed layouts moved; the rows routed now are:\n{rendered}"
    );
}
