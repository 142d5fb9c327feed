//! Interconnect delay models.
//!
//! The paper's central observation is that the organic process has
//! *relatively* fast wires: metal interconnect RC is similar in both
//! technologies, but organic gates are ~10⁶× slower, so wire delay is a
//! vanishing fraction of an organic clock period while it is a large
//! fraction of a silicon one (§5.5, Figure 15).
//!
//! Silicon long wires are modelled as optimally repeated (delay linear in
//! length); organic wires are raw RC — repeaters are useless when a repeater
//! costs 100 µs.

/// Distributed-RC wire model with optional repeatered long-wire mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireModel {
    /// Resistance per metre (Ω/m).
    pub r_per_m: f64,
    /// Capacitance per metre (F/m).
    pub c_per_m: f64,
    /// Delay per metre of an optimally repeated wire (s/m), when the
    /// technology's gates are fast enough for repeaters to pay off.
    pub repeated_s_per_m: Option<f64>,
}

impl WireModel {
    /// Gold/chromium interconnect on glass for the pentacene process:
    /// 50 nm-thick metal, wide traces. ~50 Ω/mm and ~0.1 pF/mm.
    pub fn organic() -> Self {
        WireModel {
            r_per_m: 50.0e3,
            c_per_m: 100.0e-12,
            repeated_s_per_m: None,
        }
    }

    /// 45 nm-class intermediate-layer copper: ~2 Ω/µm, ~0.2 pF/mm, and
    /// ~65 ps/mm when repeated.
    pub fn silicon_45nm() -> Self {
        WireModel {
            r_per_m: 2.0e6,
            c_per_m: 200.0e-12,
            repeated_s_per_m: Some(65.0e-9),
        }
    }

    /// The "w/o wire" ablation of Figure 15: free interconnect.
    pub fn ideal() -> Self {
        WireModel {
            r_per_m: 0.0,
            c_per_m: 0.0,
            repeated_s_per_m: None,
        }
    }

    /// Total capacitance of a wire of `length` metres (added to the driving
    /// cell's NLDM load).
    pub fn capacitance(&self, length: f64) -> f64 {
        self.c_per_m * length
    }

    /// Wire propagation delay for a wire of `length` metres driven by a
    /// source with effective resistance `driver_res` (Ω).
    ///
    /// Uses the Elmore delay of the distributed line, switching to the
    /// repeated-wire linear model when that is faster and available.
    pub fn delay(&self, length: f64, driver_res: f64) -> f64 {
        if length <= 0.0 {
            return 0.0;
        }
        let r_w = self.r_per_m * length;
        let c_w = self.c_per_m * length;
        // Driver sees the full wire cap; the wire itself contributes RC/2.
        let elmore = driver_res * c_w + 0.5 * r_w * c_w;
        match self.repeated_s_per_m {
            Some(k) => elmore.min(k * length),
            None => elmore,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_wire_is_free() {
        let w = WireModel::ideal();
        assert_eq!(w.delay(1.0, 1.0e6), 0.0);
        assert_eq!(w.capacitance(1.0), 0.0);
    }

    #[test]
    fn silicon_long_wire_uses_repeaters() {
        let w = WireModel::silicon_45nm();
        // 1 mm driven by a 3 kΩ gate: unrepeated Elmore would be
        // 3k·0.2p + 0.5·2k·0.2p = 0.8 ns; repeated is 65 ps.
        let d = w.delay(1.0e-3, 3.0e3);
        assert!((d - 65.0e-12).abs() < 5.0e-12, "d = {d:.3e}");
    }

    #[test]
    fn silicon_short_wire_is_elmore() {
        let w = WireModel::silicon_45nm();
        // 10 µm: Elmore ≈ 3k·2fF + 20Ω·2fF/2 ≈ 6 ps < repeated 0.65 ps?
        // Repeated would be 0.65 ps but you cannot beat the driver RC —
        // the min() keeps the smaller, which here is the repeated bound.
        let d = w.delay(10.0e-6, 3.0e3);
        assert!(d <= 6.1e-12);
        assert!(d > 0.0);
    }

    #[test]
    fn organic_wire_negligible_vs_gate() {
        let w = WireModel::organic();
        // 1 cm wire driven by a 1 MΩ organic gate vs a 100 µs gate delay.
        let rel = w.delay(1.0e-2, 1.0e6) / 100.0e-6;
        assert!(rel < 0.05, "organic relative wire cost {rel}");
    }

    #[test]
    fn silicon_wire_significant_vs_gate() {
        let w = WireModel::silicon_45nm();
        // 100 µm wire driven by a 3 kΩ gate vs a 15 ps FO4.
        let rel = w.delay(100.0e-6, 3.0e3) / 15.0e-12;
        assert!(rel > 0.3, "silicon relative wire cost {rel}");
    }

    #[test]
    fn delay_monotone_in_length() {
        for w in [WireModel::organic(), WireModel::silicon_45nm()] {
            let mut last = 0.0;
            for i in 1..20 {
                let d = w.delay(i as f64 * 1.0e-4, 5.0e3);
                assert!(d >= last);
                last = d;
            }
        }
    }
}
