//! Layer stacks: cascading patterned boards into a full surface response.
//!
//! A [`SurfaceStack`] is an ordered list of panels — each an
//! [`AnisotropicSheet`] mounted at a rotation angle — separated by air
//! gaps. Evaluating the stack at a frequency and bias state produces a
//! dual-polarization scattering description ([`PolarizedS`]) from which
//! both the transmissive Jones matrix (with all insertion loss and
//! multiple reflections included) and the reflective response follow.

use microwave::polarized::PolarizedS;
use microwave::substrate::ETA0;
use microwave::twoport::Abcd;
use rfmath::units::{Hertz, Meters, Radians, Volts};

use crate::sheet::AnisotropicSheet;

/// A board mounted in the stack at a rotation angle.
#[derive(Clone, Debug)]
pub struct Panel {
    /// The board's electrical model.
    pub sheet: AnisotropicSheet,
    /// Mounting rotation of the board's principal axes, counterclockwise.
    pub rotation: Radians,
}

/// The bias-rail supply ceiling (the paper sweeps 0–30 V). The single
/// source of truth for every clamp that mirrors `Metasurface::set_bias`
/// — the fleet engine must agree with it exactly for its batched ==
/// naive equivalence contract to hold.
pub const SUPPLY_CEILING: Volts = Volts(30.0);

/// Bias state of the surface: the two DC channels of §3.3.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BiasState {
    /// X-axis phase-shifter bias.
    pub vx: Volts,
    /// Y-axis phase-shifter bias.
    pub vy: Volts,
}

impl BiasState {
    /// Creates a bias state from plain volt values.
    pub fn new(vx: f64, vy: f64) -> Self {
        Self {
            vx: Volts(vx),
            vy: Volts(vy),
        }
    }

    /// Clamps both channels into the supply's `[0, v_max]` range.
    pub fn clamped(self, v_max: Volts) -> Self {
        Self {
            vx: self.vx.clamp(Volts(0.0), v_max),
            vy: self.vy.clamp(Volts(0.0), v_max),
        }
    }
}

/// An ordered stack of panels with uniform air gaps between them.
#[derive(Clone, Debug)]
pub struct SurfaceStack {
    /// Panels in wave-traversal order.
    pub panels: Vec<Panel>,
    /// Air gap between consecutive panels.
    pub gaps: Vec<Meters>,
}

impl SurfaceStack {
    /// Builds a stack; `gaps.len()` must be `panels.len() − 1`.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn new(panels: Vec<Panel>, gaps: Vec<Meters>) -> Self {
        assert_eq!(
            gaps.len(),
            panels.len().saturating_sub(1),
            "need exactly one gap between consecutive panels"
        );
        Self { panels, gaps }
    }

    /// Evaluates the full polarized scattering response at frequency `f`
    /// and bias `bias`.
    ///
    /// Returns `None` if an intermediate stage is numerically opaque
    /// (singular transmission), which does not occur for physical
    /// parameter sets.
    pub fn response(&self, f: Hertz, bias: BiasState) -> Option<PolarizedS> {
        let mut stages: Vec<PolarizedS> = Vec::with_capacity(self.panels.len() * 2);
        for (i, panel) in self.panels.iter().enumerate() {
            if i > 0 {
                let gap = Abcd::air_gap(self.gaps[i - 1], f).to_s(ETA0);
                stages.push(PolarizedS::from_axes(gap, gap));
            }
            let sx = panel.sheet.abcd_x(f, bias.vx).to_s(ETA0);
            let sy = panel.sheet.abcd_y(f, bias.vy).to_s(ETA0);
            stages.push(PolarizedS::from_axes(sx, sy).rotated(panel.rotation));
        }
        PolarizedS::chain(&stages)
    }

    /// Number of boards in the stack.
    pub fn board_count(&self) -> usize {
        self.panels.len()
    }

    /// Total stack thickness (boards + gaps).
    pub fn total_thickness(&self) -> Meters {
        let boards: f64 = self.panels.iter().map(|p| p.sheet.slab.thickness.0).sum();
        let gaps: f64 = self.gaps.iter().map(|g| g.0).sum();
        Meters(boards + gaps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sheet::SheetBranch;
    use microwave::lumped::inductance_for_resonance;
    use microwave::substrate::{Material, Slab};
    use rfmath::units::Farads;
    use rfmath::units::Ohms;

    const F: Hertz = Hertz(2.44e9);

    fn resonant_panel(rotation: f64) -> Panel {
        let c = Farads::from_pf(0.4);
        let branch = SheetBranch::Fixed {
            l: inductance_for_resonance(c, F),
            c,
            r: Ohms(0.4),
        };
        Panel {
            sheet: AnisotropicSheet {
                x: branch.clone(),
                y: branch,
                slab: Slab::from_mm(Material::FR4, 0.8),
            },
            rotation: Radians(rotation),
        }
    }

    #[test]
    fn bias_state_clamps() {
        let b = BiasState::new(-3.0, 45.0).clamped(Volts(30.0));
        assert_eq!(b.vx, Volts(0.0));
        assert_eq!(b.vy, Volts(30.0));
    }

    #[test]
    fn single_resonant_panel_is_mostly_transparent() {
        let stack = SurfaceStack::new(vec![resonant_panel(0.0)], vec![]);
        let r = stack.response(F, BiasState::new(0.0, 0.0)).unwrap();
        assert!(
            r.efficiency_x_db().0 > -1.5,
            "eff = {} dB",
            r.efficiency_x_db().0
        );
    }

    #[test]
    fn isotropic_panels_do_not_mix_polarizations() {
        let stack = SurfaceStack::new(
            vec![resonant_panel(0.0), resonant_panel(0.6)],
            vec![Meters::from_mm(11.0)],
        );
        let r = stack.response(F, BiasState::new(0.0, 0.0)).unwrap();
        // Identical X/Y branches ⇒ rotation is a no-op ⇒ no cross terms.
        assert!(r.s21.b.abs() < 1e-9);
        assert!(r.s21.c.abs() < 1e-9);
    }

    #[test]
    fn stack_thickness_accounts_for_gaps() {
        let stack = SurfaceStack::new(
            vec![resonant_panel(0.0), resonant_panel(0.0)],
            vec![Meters::from_mm(11.0)],
        );
        assert!((stack.total_thickness().mm() - 12.6).abs() < 1e-9);
        assert_eq!(stack.board_count(), 2);
    }

    #[test]
    fn response_is_passive_and_reciprocal() {
        let stack = SurfaceStack::new(
            vec![resonant_panel(0.0), resonant_panel(0.9)],
            vec![Meters::from_mm(11.0)],
        );
        for f_ghz in [2.2, 2.44, 2.6] {
            let r = stack
                .response(Hertz::from_ghz(f_ghz), BiasState::new(5.0, 5.0))
                .unwrap();
            assert!(r.is_passive(1e-9), "active at {f_ghz} GHz");
            assert!(r.is_reciprocal(1e-9), "non-reciprocal at {f_ghz} GHz");
        }
    }

    #[test]
    #[should_panic(expected = "one gap")]
    fn gap_count_is_validated() {
        let _ = SurfaceStack::new(vec![resonant_panel(0.0)], vec![Meters(0.01)]);
    }
}
