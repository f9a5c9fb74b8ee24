//! Two [`PreparedLink`] contracts.
//!
//! * The arena-rebind contract: a handle driven through any sequence of
//!   in-place rebinds — cheap moves (rotation, transmit power), genuine
//!   moves (endpoint separation), and environment swaps (new scatter
//!   seed) — must be *bitwise* indistinguishable from a fresh
//!   [`PreparedLink::new`] of the final link. The mobility engine leans
//!   on this to reuse one pooled handle per device across every tick
//!   instead of reallocating paths, draws and the probe form.
//! * The bilinear-probe contract: the handle's `t = 0` probe (a cached
//!   form in the surface's Jones blocks) agrees with the per-path
//!   [`Link`] projection to 1e-12 relative, over rooms, mounts,
//!   endpoints, tuning knobs and biases, and a `t ≠ 0` probe still
//!   equals the per-path [`Link`] bit for bit.

use metasurface::response::SurfaceResponse;
use metasurface::stack::BiasState;
use propagation::antenna::{Antenna, OrientedAntenna};
use propagation::environment::Environment;
use propagation::link::{Link, LinkTuning, PreparedLink};
use propagation::rays::{Deployment, Path};
use proptest::prelude::*;
use rfmath::complex::Complex;
use rfmath::jones::JonesMatrix;
use rfmath::units::{Degrees, Hertz, Meters, Seconds, Watts};
use rfmath::vec2::Point2;

fn link(mismatch_deg: f64, tx_rx_cm: f64, env: Environment, power_mw: f64) -> Link {
    Link {
        tx: OrientedAntenna::new(Antenna::directional_panel(), Degrees(90.0)),
        rx: OrientedAntenna::new(Antenna::directional_panel(), Degrees(90.0 - mismatch_deg)),
        frequency: Hertz::from_ghz(2.44),
        tx_power: Watts::from_mw(power_mw),
        deployment: Deployment::transmissive_cm(tx_rx_cm),
        environment: env,
        extra_paths: Vec::new(),
        tuning: LinkTuning::default(),
    }
}

/// One step of a device trajectory, as the mobility engine sees it.
#[derive(Clone, Debug)]
enum Move {
    /// Receive-mount rotation: the cached paths survive untouched.
    Rotate(f64),
    /// Transmit-power change: cached paths survive untouched.
    Power(f64),
    /// Genuine move: new separation, same environment — the cached
    /// scatter draws replay at the new distance.
    Walk(f64),
    /// Environment swap: a new scatter seed forces a full redraw.
    Reseed(u64),
}

fn moves() -> BoxedStrategy<Vec<Move>> {
    prop::collection::vec(
        prop_oneof![
            (-60.0f64..60.0).prop_map(Move::Rotate),
            (1.0f64..200.0).prop_map(Move::Power),
            (20.0f64..120.0).prop_map(Move::Walk),
            (0u64..32).prop_map(Move::Reseed),
        ],
        1..8,
    )
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After every in-place rebind along a random trajectory, the
    /// pooled handle's surface-off and surface-on probes are bitwise
    /// equal to a freshly constructed handle of the same link.
    #[test]
    fn arena_rebind_is_bitwise_fresh_construction(
        mismatch in -45.0f64..45.0,
        tx_rx_cm in 20.0f64..120.0,
        seed in 0u64..32,
        steps in moves(),
    ) {
        let design = metasurface::designs::fr4_optimized();
        let f = Hertz::from_ghz(2.44);
        let surface = metasurface::response::SurfaceResponse::new(
            f,
            design.stack.response(f, BiasState::new(6.0, 6.0)),
        );
        let start = link(mismatch, tx_rx_cm, Environment::laboratory(seed), 50.0);
        let mut pooled = PreparedLink::new(start.clone());
        let mut current = start;
        let mut scratch = Vec::new();
        for step in steps {
            match step {
                Move::Rotate(deg) => {
                    current.rx =
                        OrientedAntenna::new(Antenna::directional_panel(), Degrees(90.0 - deg));
                }
                Move::Power(mw) => current.tx_power = Watts::from_mw(mw),
                Move::Walk(cm) => {
                    current.deployment = current
                        .deployment
                        .with_endpoint_separation(Meters(cm / 100.0));
                }
                Move::Reseed(s) => current.environment = Environment::laboratory(s),
            }
            pooled.rebind_in_place(current.clone());
            let fresh = PreparedLink::new(current.clone());
            for response in [None, Some(&surface)] {
                let a = pooled.received_dbm_scratch(response, &mut scratch).0;
                let b = fresh.received_dbm_with(response).0;
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "pooled {a} vs fresh {b} after {:?}",
                    response.map(|_| "surface")
                );
            }
        }
    }
}

/// `got` is within 1e-12 of `want`, relative to `|want|` (exactly equal
/// when `want` is zero).
fn close(got: Complex, want: Complex) -> bool {
    (got - want).abs() <= 1e-12 * want.abs()
}

/// A directional panel or an omni whip at `deg`.
fn endpoint(directional: bool, deg: f64) -> OrientedAntenna {
    let antenna = if directional {
        Antenna::directional_panel()
    } else {
        Antenna::omni_6dbi()
    };
    OrientedAntenna::new(antenna, Degrees(deg))
}

/// Mount `kind` over an endpoint separation of `d` meters: transmissive
/// on the link axis, transmissive `offset` meters off it, reflective at
/// standoff `offset`, or no surface.
fn mount(kind: u8, d: f64, fraction: f64, offset: f64) -> Deployment {
    let on_axis = Deployment::transmissive(Meters(d), fraction);
    match kind {
        0 => on_axis,
        1 => on_axis.with_surface_at(Point2::new(d * fraction, offset)),
        2 => Deployment::reflective(Meters(d), Meters(offset.abs())),
        _ => Deployment::free(Meters(d)),
    }
}

/// A breathing-target path, so the static sum covers a modulated extra.
fn breathing(f: Hertz, length_m: f64) -> Path {
    Path {
        transfer: propagation::friis::field_transfer(f, Meters(length_m)) * 0.3,
        jones: JonesMatrix::identity(),
        length: Meters(length_m),
        modulation: Some((0.004, 0.25, 0.7)),
        label: "human-direct",
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every `t = 0` probe entry point of [`PreparedLink`] equals the
    /// per-path [`Link`] value to 1e-12 relative, for the received and
    /// the surface-scattered amplitude; at `t ≠ 0` the handle takes the
    /// per-path route and agrees bit for bit.
    #[test]
    fn bilinear_probe_matches_per_path_link(
        geometry in (0u8..4, 0.2f64..3.0, 0.05f64..0.95, -0.6f64..0.6),
        ends in (any::<bool>(), 0.0f64..180.0, any::<bool>(), 0.0f64..180.0),
        scene in (0u64..24, any::<bool>()),
        knobs in (-3.0f64..6.0, 0.0f64..20.0, -1.0f64..30.0),
        probe in (0.0f64..30.0, 0.0f64..30.0, 0u8..4, 0.05f64..5.0),
    ) {
        let (kind, d, fraction, offset) = geometry;
        let (tx_dir, tx_deg, rx_dir, rx_deg) = ends;
        let (room, extra) = scene;
        let (excess_db, shadow_db, xpd_db) = knobs;
        let (vx, vy, off, t) = probe;
        let f = Hertz::from_ghz(2.44);
        // Room 0 is the anechoic chamber; the rest are laboratories.
        let environment = match room {
            0 => Environment::anechoic(),
            seed => Environment::laboratory(seed),
        };
        let link = Link {
            tx: endpoint(tx_dir, tx_deg),
            rx: endpoint(rx_dir, rx_deg),
            frequency: f,
            tx_power: Watts::from_mw(50.0),
            deployment: mount(kind, d, fraction, offset),
            environment,
            extra_paths: if extra { vec![breathing(f, d * 1.4)] } else { Vec::new() },
            tuning: LinkTuning {
                surface_excess_loss_db: excess_db,
                // Negative draws keep the environment's own statistics.
                scatter_xpd_db: (xpd_db >= 0.0).then_some(xpd_db),
                shadow_extra_db: shadow_db,
            },
        };
        let design = metasurface::designs::fr4_optimized();
        let response = SurfaceResponse::new(f, design.stack.response(f, BiasState::new(vx, vy)));
        // One draw in four probes with the panel dark.
        let surface = (off != 0).then_some(&response);
        let prepared = PreparedLink::new(link.clone());

        let want = link.received_amplitude_with(surface, Seconds(0.0));
        let got = prepared.received_amplitude_with(surface, Seconds(0.0));
        prop_assert!(close(got, want), "received {got:?} vs per-path {want:?}");
        let (got, want) = (
            prepared.scattered_amplitude(surface),
            link.scattered_amplitude_with(surface),
        );
        prop_assert!(close(got, want), "scattered {got:?} vs per-path {want:?}");

        let (got, want) = (
            prepared.received_amplitude_with(surface, Seconds(t)),
            link.received_amplitude_with(surface, Seconds(t)),
        );
        prop_assert!(
            got.re.to_bits() == want.re.to_bits() && got.im.to_bits() == want.im.to_bits(),
            "t = {t}: {got:?} vs per-path {want:?}"
        );
    }
}
