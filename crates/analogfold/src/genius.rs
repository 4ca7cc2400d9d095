//! GeniusRoute baseline (Zhu et al., ICCAD'19) in miniature.
//!
//! GeniusRoute trains a generative model (VAE) on existing routing solutions
//! and produces a **uniform 2-D guidance map** per net class; the router then
//! prefers regions the model marks probable. The paper under reproduction
//! criticizes exactly these properties (human-imitation labels, uniform 2-D
//! maps, no explicit performance signal), so this module reproduces the
//! mechanism faithfully at small scale:
//!
//! * training rasters are **wire-density maps** of routed solutions from
//!   *sibling placements* of the same circuit (imitation data),
//! * one VAE per net class (IO / signal / supply),
//! * at inference the target placement's **pin-density map** is encoded and
//!   decoded into a probability map, which becomes a cost-multiplier raster
//!   ([`af_route::GuidanceMap2D`]): improbable regions cost more.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use af_netlist::{Circuit, NetId, NetType};
use af_nn::{Tensor, Vae, VaeConfig};
use af_place::Placement;
use af_route::{GuidanceMap2D, RoutedLayout, RoutingGuidance};

/// Net classes GeniusRoute distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NetClass {
    /// Differential inputs and outputs.
    Io,
    /// Internal analog signal nets.
    Signal,
    /// Supplies and bias distribution.
    Supply,
}

impl NetClass {
    /// Classifies a net type.
    pub fn of(ty: NetType) -> NetClass {
        match ty {
            NetType::Input | NetType::Output => NetClass::Io,
            NetType::Signal | NetType::Sensitive => NetClass::Signal,
            NetType::Bias | NetType::Power | NetType::Ground => NetClass::Supply,
        }
    }

    /// All classes.
    pub const ALL: [NetClass; 3] = [NetClass::Io, NetClass::Signal, NetClass::Supply];
}

/// GeniusRoute baseline settings.
#[derive(Debug, Clone)]
pub struct GeniusConfig {
    /// Guidance raster side (maps are `raster × raster`).
    pub raster: usize,
    /// VAE hidden width.
    pub hidden: usize,
    /// VAE latent dimension.
    pub latent: usize,
    /// VAE training epochs.
    pub epochs: usize,
    /// Cost-multiplier strength: cells with probability 0 cost
    /// `1 + strength`, cells with probability 1 cost `1`.
    pub strength: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for GeniusConfig {
    fn default() -> Self {
        Self {
            raster: 10,
            hidden: 48,
            latent: 6,
            epochs: 60,
            strength: 2.0,
            seed: 31,
        }
    }
}

/// The trained GeniusRoute guidance model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeniusRouteModel {
    raster: usize,
    strength: f64,
    vaes: HashMap<NetClass, Vae>,
}

impl GeniusRouteModel {
    /// Trains one VAE per net class on wire-density rasters of existing
    /// routed solutions.
    ///
    /// # Panics
    ///
    /// Panics if `training` is empty.
    pub fn train(
        circuit: &Circuit,
        training: &[(&Placement, &RoutedLayout)],
        cfg: &GeniusConfig,
    ) -> Self {
        assert!(!training.is_empty(), "GeniusRoute needs imitation data");
        let dim = cfg.raster * cfg.raster;
        let mut per_class: HashMap<NetClass, Vec<Tensor>> = HashMap::new();
        for (placement, layout) in training {
            for class in NetClass::ALL {
                let map = wire_density(circuit, placement, layout, class, cfg.raster);
                per_class
                    .entry(class)
                    .or_default()
                    .push(Tensor::from_vec(map, 1, dim));
            }
        }
        let mut vaes = HashMap::new();
        for (class, data) in per_class {
            let mut vae = Vae::new(VaeConfig {
                input_dim: dim,
                hidden: cfg.hidden,
                latent: cfg.latent,
                seed: cfg.seed ^ class as u64,
                ..VaeConfig::default()
            });
            vae.train(&data, cfg.epochs);
            vaes.insert(class, vae);
        }
        Self {
            raster: cfg.raster,
            strength: cfg.strength,
            vaes,
        }
    }

    /// Generates the 2-D guidance for a target placement: per net, the
    /// decoded probability map of its class turned into cost multipliers.
    pub fn guidance(&self, circuit: &Circuit, placement: &Placement) -> RoutingGuidance {
        let die = placement.die();
        let mut map = GuidanceMap2D::new(
            self.raster,
            self.raster,
            (die.lo().x, die.lo().y),
            (die.width(), die.height()),
        );
        let mut decoded: HashMap<NetClass, Vec<f64>> = HashMap::new();
        for class in NetClass::ALL {
            let Some(vae) = self.vaes.get(&class) else {
                continue;
            };
            let pins = pin_density(circuit, placement, class, self.raster);
            let probe = Tensor::from_vec(pins, 1, self.raster * self.raster);
            let prob = vae.reconstruct(&probe);
            // probability -> cost multiplier
            let max = prob.data().iter().cloned().fold(1e-9, f64::max);
            let cost: Vec<f64> = prob
                .data()
                .iter()
                .map(|&p| 1.0 + self.strength * (1.0 - p / max))
                .collect();
            decoded.insert(class, cost);
        }
        for (i, net) in circuit.nets().iter().enumerate() {
            if !net.ty.is_guided() {
                continue;
            }
            let class = NetClass::of(net.ty);
            if let Some(cost) = decoded.get(&class) {
                map.set_net(NetId::new(i as u32), cost.clone());
            }
        }
        RoutingGuidance::Map(map)
    }
}

/// Wire-density raster of one net class in a routed layout (max-normalized).
pub fn wire_density(
    circuit: &Circuit,
    placement: &Placement,
    layout: &RoutedLayout,
    class: NetClass,
    raster: usize,
) -> Vec<f64> {
    let die = placement.die();
    let mut map = vec![0.0; raster * raster];
    let cell = |x: i64, y: i64| -> Option<usize> {
        let fx = (x - die.lo().x) as f64 / die.width() as f64;
        let fy = (y - die.lo().y) as f64 / die.height() as f64;
        if !(0.0..1.0).contains(&fx) || !(0.0..1.0).contains(&fy) {
            return None;
        }
        let cx = ((fx * raster as f64) as usize).min(raster - 1);
        let cy = ((fy * raster as f64) as usize).min(raster - 1);
        Some(cy * raster + cx)
    };
    for rn in &layout.nets {
        if NetClass::of(circuit.net(rn.net).ty) != class {
            continue;
        }
        for seg in rn.segments.iter().filter(|s| !s.is_via()) {
            // sample along the segment
            let (a, b) = (seg.start(), seg.end());
            let steps = (seg.length() / 500).max(1);
            for s in 0..=steps {
                let x = a.x + (b.x - a.x) * s / steps;
                let y = a.y + (b.y - a.y) * s / steps;
                if let Some(idx) = cell(x, y) {
                    map[idx] += 1.0;
                }
            }
        }
    }
    let max = map.iter().cloned().fold(0.0, f64::max);
    if max > 0.0 {
        for v in &mut map {
            *v /= max;
        }
    }
    map
}

/// Pin-density raster of one net class in a placement (max-normalized).
pub fn pin_density(
    circuit: &Circuit,
    placement: &Placement,
    class: NetClass,
    raster: usize,
) -> Vec<f64> {
    let die = placement.die();
    let mut map = vec![0.0; raster * raster];
    for pin in placement.pins() {
        if NetClass::of(circuit.net(pin.net).ty) != class {
            continue;
        }
        let c = pin.rect.center();
        let fx = (c.x - die.lo().x) as f64 / die.width() as f64;
        let fy = (c.y - die.lo().y) as f64 / die.height() as f64;
        if !(0.0..1.0).contains(&fx) || !(0.0..1.0).contains(&fy) {
            continue;
        }
        let cx = ((fx * raster as f64) as usize).min(raster - 1);
        let cy = ((fy * raster as f64) as usize).min(raster - 1);
        map[cy * raster + cx] += 1.0;
    }
    let max = map.iter().cloned().fold(0.0, f64::max);
    if max > 0.0 {
        for v in &mut map {
            *v /= max;
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use af_netlist::benchmarks;
    use af_place::{place, PlacementVariant};
    use af_route::{Router, RouterConfig};
    use af_tech::Technology;

    #[test]
    fn class_mapping() {
        assert_eq!(NetClass::of(NetType::Input), NetClass::Io);
        assert_eq!(NetClass::of(NetType::Sensitive), NetClass::Signal);
        assert_eq!(NetClass::of(NetType::Power), NetClass::Supply);
    }

    #[test]
    fn densities_are_normalized() {
        let c = benchmarks::ota1();
        let p = place(&c, PlacementVariant::A);
        let t = Technology::nm40();
        let l = Router::new(RouterConfig::default())
            .unwrap()
            .route(&c, &p, &t, &RoutingGuidance::None)
            .unwrap();
        for class in NetClass::ALL {
            let wd = wire_density(&c, &p, &l, class, 8);
            let pd = pin_density(&c, &p, class, 8);
            assert_eq!(wd.len(), 64);
            assert!(wd.iter().all(|&v| (0.0..=1.0).contains(&v)));
            assert!(pd.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
        // signal wires exist somewhere
        let wd = wire_density(&c, &p, &l, NetClass::Signal, 8);
        assert!(wd.iter().any(|&v| v > 0.0));
    }

    #[test]
    fn train_and_generate_guidance() {
        let c = benchmarks::ota1();
        let t = Technology::nm40();
        // imitation data from variant B; guide variant A
        let pb = place(&c, PlacementVariant::B);
        let lb = Router::new(RouterConfig::default())
            .unwrap()
            .route(&c, &pb, &t, &RoutingGuidance::None)
            .unwrap();
        let cfg = GeniusConfig {
            epochs: 10,
            raster: 6,
            hidden: 24,
            latent: 3,
            ..GeniusConfig::default()
        };
        let model = GeniusRouteModel::train(&c, &[(&pb, &lb)], &cfg);
        let pa = place(&c, PlacementVariant::A);
        let guidance = model.guidance(&c, &pa);
        match &guidance {
            RoutingGuidance::Map(m) => assert!(!m.is_empty()),
            _ => panic!("GeniusRoute must produce a 2-D map"),
        }
        // guided routing still succeeds
        let routed = Router::new(RouterConfig::default())
            .unwrap()
            .route(&c, &pa, &t, &guidance)
            .unwrap();
        assert!(routed.total_wirelength() > 0);
    }
}
