//! Post-layout performance metrics: the five quantities of the paper's
//! Table 2 (Offset Voltage, CMRR, BandWidth/UGB, DC Gain, Noise).

use serde::{Deserialize, Serialize};

use af_extract::Parasitics;
use af_netlist::{Circuit, NetId, Terminal};

use crate::mna::{AdjointSolution, Network, SimError, SupplyMode};
use crate::Complex;

/// Simulator settings.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Sweep start frequency (Hz).
    pub f_start: f64,
    /// Sweep stop frequency (Hz).
    pub f_stop: f64,
    /// Points per decade of the log sweep.
    pub points_per_decade: usize,
    /// Supply/bias voltage-noise PSD for coupling noise (V²/Hz).
    pub supply_noise_v2hz: f64,
    /// MOS channel-noise excess factor γ.
    pub gamma_noise: f64,
    /// Temperature in kelvin.
    pub temperature: f64,
    /// Overdrive used to recover bias currents from gm (V).
    pub v_overdrive: f64,
    /// Upper clamp on reported CMRR (intrinsic device-mismatch floor), dB.
    pub cmrr_cap_db: f64,
    /// Offset at which mismatch doubles the common-mode gain (µV). Links
    /// routing-induced offset to CMRR degradation (operating-point shift →
    /// Δgm/gm → CM-to-DM conversion), a DC nonlinearity a linear AC solve
    /// cannot produce on its own.
    pub cmrr_mismatch_ref_uv: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            f_start: 1e3,
            f_stop: 1e11,
            points_per_decade: 12,
            // ~4 µV/√Hz supply/bias noise: busy mixed-signal supplies seen by
            // an unregulated analog block.
            supply_noise_v2hz: 1.6e-11,
            gamma_noise: 0.8,
            temperature: 300.0,
            v_overdrive: 0.18,
            cmrr_cap_db: 160.0,
            cmrr_mismatch_ref_uv: 150.0,
        }
    }
}

/// The five Table 2 metrics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Performance {
    /// Input-referred offset voltage (µV); lower is better.
    pub offset_uv: f64,
    /// Common-mode rejection ratio (dB); higher is better.
    pub cmrr_db: f64,
    /// Unity-gain bandwidth (MHz) — the paper's "BandWidth"; higher is
    /// better.
    pub bandwidth_mhz: f64,
    /// Low-frequency differential gain (dB); higher is better.
    pub dc_gain_db: f64,
    /// Integrated output noise (µV rms); lower is better.
    pub noise_uvrms: f64,
}

impl Performance {
    /// The metrics as the canonical 5-vector
    /// `[offset_uv, cmrr_db, bandwidth_mhz, dc_gain_db, noise_uvrms]`.
    pub fn as_array(&self) -> [f64; 5] {
        [
            self.offset_uv,
            self.cmrr_db,
            self.bandwidth_mhz,
            self.dc_gain_db,
            self.noise_uvrms,
        ]
    }

    /// Figure of merit with equal weighting ("equal weighting for all terms
    /// in FoM led to the best results"), normalized against a reference.
    ///
    /// Lower is better. Each term is a ratio to the reference value, with
    /// higher-is-better metrics inverted.
    pub fn fom_against(&self, reference: &Performance) -> f64 {
        let safe = |x: f64| x.abs().max(1e-9);
        (self.offset_uv / safe(reference.offset_uv))
            + (safe(reference.cmrr_db) / safe(self.cmrr_db))
            + (safe(reference.bandwidth_mhz) / safe(self.bandwidth_mhz))
            + (safe(reference.dc_gain_db) / safe(self.dc_gain_db))
            + (self.noise_uvrms / safe(reference.noise_uvrms))
    }
}

impl std::fmt::Display for Performance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "offset {:.1} uV, CMRR {:.1} dB, UGB {:.1} MHz, gain {:.1} dB, noise {:.1} uVrms",
            self.offset_uv, self.cmrr_db, self.bandwidth_mhz, self.dc_gain_db, self.noise_uvrms
        )
    }
}

/// Simulates a circuit, optionally annotated with extracted parasitics.
///
/// `parasitics = None` reproduces the paper's "Schematic" column (no layout
/// effects, zero offset).
///
/// # Errors
///
/// [`SimError::Singular`] if the MNA system cannot be solved.
pub fn simulate(
    circuit: &Circuit,
    parasitics: Option<&Parasitics>,
    cfg: &SimConfig,
) -> Result<Performance, SimError> {
    let network = Network::build(
        circuit,
        parasitics,
        cfg.supply_noise_v2hz,
        cfg.gamma_noise,
        cfg.temperature,
    );
    let freqs = log_sweep(cfg.f_start, cfg.f_stop, cfg.points_per_decade);

    // Differential sweep.
    let dm = [Complex::real(0.5), Complex::real(-0.5)];
    let mut gains = Vec::with_capacity(freqs.len());
    for &f in &freqs {
        let sol = network.solve_at(omega(f), dm, &[])?;
        gains.push(network.output(&sol).abs());
    }
    let a0 = gains[0];
    let dc_gain_db = 20.0 * a0.max(1e-30).log10();
    // Gain–bandwidth product: A0 · f_-3dB. For a dominant-pole amplifier
    // this equals the unity-gain bandwidth (the paper's ŷ_UGB) while being
    // immune to high-frequency coupling-feedthrough plateaus that can push
    // the literal |H| = 1 crossing far past the amplifier's real speed.
    let f3db = first_crossing(&freqs, &gains, a0 / std::f64::consts::SQRT_2);
    let bandwidth_mhz = a0 * f3db / 1e6;

    // Offset via mismatch injection (zero without parasitics).
    let offset_uv = match parasitics {
        None => 0.0,
        Some(px) => offset_voltage(circuit, &network, px, cfg, a0)? * 1e6,
    };

    // Common-mode rejection at low frequency. The linear AC solve gives the
    // intrinsic common-mode gain; routing-induced offset shifts the DC
    // operating point (Δgm/gm ≈ V_os/V_ov), which converts common mode to
    // differential mode on top of it. That DC nonlinearity is folded in as a
    // multiplicative common-mode-gain penalty referenced to
    // `cmrr_mismatch_ref_uv`.
    let cm = [Complex::ONE, Complex::ONE];
    let sol_cm = network.solve_at(omega(cfg.f_start), cm, &[])?;
    let acm_intrinsic = network.output(&sol_cm).abs();
    let mismatch_factor = 1.0 + offset_uv / cfg.cmrr_mismatch_ref_uv;
    let acm = acm_intrinsic * mismatch_factor;
    let cmrr_db = (20.0 * (a0.max(1e-30) / acm.max(1e-30)).log10()).min(cfg.cmrr_cap_db);

    // Integrated output noise via adjoint transimpedances.
    let mut psd = Vec::with_capacity(freqs.len());
    for &f in &freqs {
        let adj = network.adjoint_at(omega(f))?;
        let mut s_out = 0.0;
        for src in network.noise_sources() {
            let z = (adj.z(src.p) - adj.z(src.n)).abs();
            s_out += src.psd.at(f) * z * z;
        }
        psd.push(s_out);
    }
    let mut noise_v2 = 0.0;
    for i in 1..freqs.len() {
        noise_v2 += 0.5 * (psd[i] + psd[i - 1]) * (freqs[i] - freqs[i - 1]);
    }
    let noise_uvrms = noise_v2.sqrt() * 1e6;

    Ok(Performance {
        offset_uv,
        cmrr_db,
        bandwidth_mhz,
        dc_gain_db,
        noise_uvrms,
    })
}

/// Input-referred offset.
///
/// The DC bias current of each net flows through its extracted wire
/// resistance, producing a series voltage drop across the wire's pi split
/// (primary → secondary). A series source of `v` in a wire of resistance `R`
/// is the Norton pair `±v/R = ±I_bias` injected at the split nodes, so its
/// output contribution is `I_bias · (z(secondary) − z(primary))`. For a
/// perfectly mirrored pair the two contributions cancel; any routing
/// asymmetry leaves a net differential error, referred to the input by the
/// DC gain.
fn offset_voltage(
    circuit: &Circuit,
    network: &Network,
    px: &Parasitics,
    cfg: &SimConfig,
    a_dm: f64,
) -> Result<f64, SimError> {
    let adj = network.adjoint_at(omega(cfg.f_start))?;
    let mut total = 0.0;
    for &(a, b) in &circuit.matched_net_pairs() {
        // Signed complex sum: the transimpedances of a mirrored pair have
        // opposite polarity toward the output, so identical wiring cancels
        // exactly and only the asymmetry survives.
        let err = bias_drop_output_error(circuit, network, &adj, px, a, cfg.v_overdrive)
            + bias_drop_output_error(circuit, network, &adj, px, b, cfg.v_overdrive);
        total += err.abs();
    }
    Ok(total / a_dm.max(1e-9))
}

/// Output error caused by the net's DC bias current crossing its wire
/// resistance: `I_bias · (z(secondary) − z(primary))` (signed complex).
fn bias_drop_output_error(
    circuit: &Circuit,
    network: &Network,
    adj: &AdjointSolution,
    px: &Parasitics,
    net: NetId,
    v_ov: f64,
) -> Complex {
    if px.net(net).resistance <= 1e-6 {
        return Complex::ZERO;
    }
    let i_bias = bias_current(circuit, net, v_ov);
    let z = adj.z(network.secondary(net)) - adj.z(network.primary(net));
    z * i_bias
}

/// Bias current flowing through a net's wiring: the sum of drain currents of
/// MOS devices whose drain sits on the net (`I_D = gm·V_ov/2`).
fn bias_current(circuit: &Circuit, net: NetId, v_ov: f64) -> f64 {
    circuit
        .pins()
        .iter()
        .filter(|p| p.net == net && p.terminal == Terminal::Drain)
        .filter_map(|p| circuit.device(p.device).params.as_mos())
        .map(|m| m.gm * v_ov / 2.0)
        .sum()
}

/// Power-supply rejection ratio at low frequency (dB): differential gain
/// over the vdd-to-output transfer — an *extension* beyond the paper's five
/// metrics, made possible by the supply-as-source network mode.
///
/// # Errors
///
/// [`SimError::Singular`] if either network cannot be solved.
pub fn psrr_db(
    circuit: &Circuit,
    parasitics: Option<&Parasitics>,
    cfg: &SimConfig,
) -> Result<f64, SimError> {
    let w = omega(cfg.f_start);
    let normal = Network::build(
        circuit,
        parasitics,
        cfg.supply_noise_v2hz,
        cfg.gamma_noise,
        cfg.temperature,
    );
    let dm = [Complex::real(0.5), Complex::real(-0.5)];
    let a_dm = normal.output(&normal.solve_at(w, dm, &[])?).abs();

    let supply = Network::build_with_mode(
        circuit,
        parasitics,
        cfg.supply_noise_v2hz,
        cfg.gamma_noise,
        cfg.temperature,
        SupplyMode::VddAsSource,
    );
    let a_vdd = supply
        .output(&supply.solve_at(w, [Complex::ONE, Complex::ZERO], &[])?)
        .abs();
    Ok(20.0 * (a_dm.max(1e-30) / a_vdd.max(1e-30)).log10())
}

fn omega(f: f64) -> f64 {
    2.0 * std::f64::consts::PI * f
}

/// Logarithmic frequency grid, inclusive of both ends.
pub fn log_sweep(f_start: f64, f_stop: f64, points_per_decade: usize) -> Vec<f64> {
    assert!(f_start > 0.0 && f_stop > f_start, "bad sweep range");
    assert!(points_per_decade > 0, "need at least one point per decade");
    let decades = (f_stop / f_start).log10();
    let n = (decades * points_per_decade as f64).ceil() as usize + 1;
    (0..n)
        .map(|i| f_start * 10f64.powf(decades * i as f64 / (n - 1) as f64))
        .collect()
}

/// First frequency where a falling magnitude response crosses `level`, by
/// log-log interpolation; 0 when it starts below, the last frequency when it
/// never crosses.
fn first_crossing(freqs: &[f64], gains: &[f64], level: f64) -> f64 {
    if gains[0] < level {
        return 0.0;
    }
    for i in 1..gains.len() {
        if gains[i] < level {
            let (g0, g1) = (gains[i - 1].max(1e-30), gains[i].max(1e-30));
            let (f0, f1) = (freqs[i - 1], freqs[i]);
            let t = (g0.log10() - level.max(1e-30).log10()) / (g0.log10() - g1.log10());
            return f0 * (f1 / f0).powf(t.clamp(0.0, 1.0));
        }
    }
    *freqs.last().expect("non-empty sweep")
}

#[cfg(test)]
mod tests {
    use super::*;
    use af_netlist::benchmarks;

    #[test]
    fn sweep_grid() {
        let f = log_sweep(1e3, 1e6, 10);
        assert_eq!(f.len(), 31);
        assert!((f[0] - 1e3).abs() < 1e-9);
        assert!((f.last().unwrap() - 1e6).abs() < 1e-3);
        for w in f.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn first_crossing_interpolates() {
        let freqs = vec![1.0, 10.0, 100.0];
        let gains = vec![10.0, 1.0, 0.1];
        let u = first_crossing(&freqs, &gains, 1.0);
        assert!((u - 10.0).abs() < 1e-9);
        assert_eq!(first_crossing(&freqs, &[0.5, 0.2, 0.1], 1.0), 0.0);
        // -3 dB of a flat-then-falling response
        let f3 = first_crossing(&freqs, &gains, 10.0 / std::f64::consts::SQRT_2);
        assert!(f3 > 1.0 && f3 < 10.0);
        // never crossing -> last frequency
        assert_eq!(first_crossing(&freqs, &[5.0, 5.0, 5.0], 1.0), 100.0);
    }

    #[test]
    fn schematic_ota1_metrics_sane() {
        let c = benchmarks::ota1();
        let p = simulate(&c, None, &SimConfig::default()).unwrap();
        assert!(p.dc_gain_db > 20.0, "two-stage OTA gain {p:?}");
        assert!(p.bandwidth_mhz > 1.0, "{p:?}");
        assert!(p.cmrr_db > 40.0, "{p:?}");
        assert_eq!(p.offset_uv, 0.0, "schematic offset is zero");
        assert!(p.noise_uvrms > 0.0, "{p:?}");
    }

    #[test]
    fn schematic_all_benchmarks_simulate() {
        for c in benchmarks::all() {
            let p = simulate(&c, None, &SimConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", c.name()));
            assert!(p.dc_gain_db.is_finite(), "{}: {p:?}", c.name());
            assert!(p.noise_uvrms.is_finite(), "{}: {p:?}", c.name());
        }
    }

    #[test]
    fn ota2_has_lower_cmrr_than_ota1() {
        let p1 = simulate(&benchmarks::ota1(), None, &SimConfig::default()).unwrap();
        let p2 = simulate(&benchmarks::ota2(), None, &SimConfig::default()).unwrap();
        assert!(
            p1.cmrr_db > p2.cmrr_db,
            "OTA1 {} dB vs OTA2 {} dB",
            p1.cmrr_db,
            p2.cmrr_db
        );
    }

    #[test]
    fn psrr_is_finite_and_positive_for_otas() {
        for c in [benchmarks::ota1(), benchmarks::ota3()] {
            let p = psrr_db(&c, None, &SimConfig::default()).unwrap();
            assert!(p.is_finite(), "{}: {p}", c.name());
            assert!(
                p > 0.0,
                "{}: supply should be rejected, got {p} dB",
                c.name()
            );
        }
    }

    #[test]
    fn performance_display() {
        let p = Performance {
            offset_uv: 12.3,
            cmrr_db: 80.0,
            bandwidth_mhz: 50.0,
            dc_gain_db: 40.0,
            noise_uvrms: 300.0,
        };
        let s = p.to_string();
        assert!(s.contains("12.3 uV") && s.contains("80.0 dB") && s.contains("300.0 uVrms"));
    }

    #[test]
    fn fom_prefers_better_performance() {
        let base = Performance {
            offset_uv: 100.0,
            cmrr_db: 80.0,
            bandwidth_mhz: 50.0,
            dc_gain_db: 40.0,
            noise_uvrms: 300.0,
        };
        let better = Performance {
            offset_uv: 50.0,
            cmrr_db: 90.0,
            bandwidth_mhz: 60.0,
            dc_gain_db: 45.0,
            noise_uvrms: 200.0,
        };
        assert!(better.fom_against(&base) < base.fom_against(&base));
    }
}
