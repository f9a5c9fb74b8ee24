//! Property-based tests for the control plane: the Algorithm 1 sweep
//! window and entries' probe range, cost and winner rule, Eq. 13 labeling
//! consistency, SCPI round-trips under arbitrary inputs, and PSU
//! rate-limit invariants.

use control::psu::{PowerSupply, Reply};
use control::scpi;
use control::sweep::{
    coarse_to_fine, coarse_to_fine_multi, warm_refine_multi, Probe, SweepConfig, WarmConfig,
};
use control::sync::BiasSchedule;
use proptest::prelude::*;
use rfmath::units::{Seconds, Volts};

proptest! {
    /// The sweep's probe count and duration match the 0.02·N·T² law for
    /// any (N, T) configuration.
    #[test]
    fn sweep_cost_law(n in 1usize..4, t in 2usize..9) {
        let cfg = SweepConfig {
            iterations: n,
            steps_per_axis: t,
            v_min: Volts(0.0),
            v_max: Volts(30.0),
            switch_period: Seconds(0.02),
        };
        let outcome = coarse_to_fine(&cfg, |p| -(p.vx.0 + p.vy.0));
        prop_assert_eq!(outcome.probes, n * t * t);
        prop_assert!((outcome.duration.0 - 0.02 * (n * t * t) as f64).abs() < 1e-12);
    }

    /// Probes never leave the configured voltage window.
    #[test]
    fn probes_stay_in_window(
        lo in 0.0f64..10.0,
        span in 5.0f64..20.0,
        peak_x in 0.0f64..30.0,
        peak_y in 0.0f64..30.0,
    ) {
        let cfg = SweepConfig {
            iterations: 2,
            steps_per_axis: 5,
            v_min: Volts(lo),
            v_max: Volts(lo + span),
            switch_period: Seconds(0.02),
        };
        let mut seen = Vec::new();
        let outcome = coarse_to_fine(&cfg, |p| {
            seen.push(p);
            -((p.vx.0 - peak_x).powi(2) + (p.vy.0 - peak_y).powi(2))
        });
        prop_assert_eq!(seen.len(), outcome.probes);
        for probe in &seen {
            prop_assert!(probe.vx.0 >= lo && probe.vx.0 <= lo + span);
            prop_assert!(probe.vy.0 >= lo && probe.vy.0 <= lo + span);
        }
    }

    /// Both Algorithm 1 entries, checked against a log of every probe
    /// the test's own `measure` closure saw: random cold and warm
    /// budgets, random supply ranges and warm centers (some outside the
    /// range), on a smooth bump, a flat surface (every probe ties) and a
    /// terraced one (ties between distant probes).
    #[test]
    fn sweep_entries_probe_in_range_and_keep_the_first_maximum(
        cold in (1usize..4, 2usize..7),
        range in (0.0f64..10.0, 0.5f64..25.0),
        warm in (1usize..4, 2usize..6, 0.25f64..12.0),
        center in (-5.0f64..40.0, -5.0f64..40.0),
        surface in (0u8..3, 0.0f64..30.0, 0.0f64..30.0),
    ) {
        let (iterations, steps_per_axis) = cold;
        let (v_min, span) = range;
        let (warm_iterations, warm_steps, radius) = warm;
        let (kind, peak_x, peak_y) = surface;
        let config = SweepConfig {
            iterations,
            steps_per_axis,
            v_min: Volts(v_min),
            v_max: Volts(v_min + span),
            switch_period: Seconds(0.02),
        };
        let warm = WarmConfig {
            radius: Volts(radius),
            steps_per_axis: warm_steps,
            iterations: warm_iterations,
            regression_db: 6.0,
        };
        let height = |p: Probe| {
            let d2 = (p.vx.0 - peak_x).powi(2) + (p.vy.0 - peak_y).powi(2);
            match kind {
                0 => -d2,
                1 => -40.0,
                _ => -(d2 / 40.0).floor(),
            }
        };
        // Two readings per probe; the score is their min, so the winner's
        // metric vector is not just its score.
        let metrics = |p: Probe| vec![height(p), height(p) + 1.0 + p.vx.0];
        let score = |m: &[f64]| m.iter().copied().fold(f64::INFINITY, f64::min);

        let mut cold_log: Vec<(Probe, Vec<f64>)> = Vec::new();
        let cold_out = coarse_to_fine_multi(
            &config,
            |p| {
                let m = metrics(p);
                cold_log.push((p, m.clone()));
                m
            },
            score,
        );
        prop_assert_eq!(cold_log.len(), iterations * steps_per_axis * steps_per_axis);

        let center = Probe { vx: Volts(center.0), vy: Volts(center.1) };
        let mut warm_log: Vec<(Probe, Vec<f64>)> = Vec::new();
        let warm_out = warm_refine_multi(
            &config,
            &warm,
            center,
            |p| {
                let m = metrics(p);
                warm_log.push((p, m.clone()));
                m
            },
            score,
        );
        prop_assert_eq!(warm_log.len(), warm.probe_budget());
        let clamped = |v: f64| v.clamp(config.v_min.0, config.v_max.0);
        prop_assert_eq!(
            warm_log[0].0,
            Probe { vx: Volts(clamped(center.vx.0)), vy: Volts(clamped(center.vy.0)) }
        );

        for (log, out) in [(&cold_log, &cold_out), (&warm_log, &warm_out)] {
            for (p, _) in log {
                prop_assert!(
                    (config.v_min.0..=config.v_max.0).contains(&p.vx.0)
                        && (config.v_min.0..=config.v_max.0).contains(&p.vy.0),
                    "probe {p:?} outside [{}, {}]",
                    config.v_min.0,
                    config.v_max.0
                );
            }
            prop_assert_eq!(out.probes, log.len());
            prop_assert!((out.duration.0 - 0.02 * log.len() as f64).abs() < 1e-12);
            // The winner is the *first* probe reaching the maximum score.
            let mut first = 0;
            for (i, (_, m)) in log.iter().enumerate() {
                if score(m) > score(&log[first].1) {
                    first = i;
                }
            }
            prop_assert_eq!(out.best_score.to_bits(), score(&log[first].1).to_bits());
            prop_assert_eq!(out.best, log[first].0);
            prop_assert_eq!(&out.best_metrics, &log[first].1);
        }
    }

    /// Eq. 13 labeling is self-consistent: the state reported for any
    /// in-schedule time equals the state list entry at the reported
    /// index, for any offset.
    #[test]
    fn eq13_index_state_agree(
        td_ms in 0.0f64..20.0,
        t_ms in 0.0f64..400.0,
        count in 2usize..30,
    ) {
        let s = BiasSchedule::linear(
            Seconds(0.0),
            Seconds(0.02),
            (Volts(1.0), Volts(2.0)),
            (Volts(0.5), Volts(0.25)),
            count,
        );
        let t = Seconds(t_ms / 1e3 + td_ms / 1e3);
        let td = Seconds(td_ms / 1e3);
        match (s.index_at(t, td), s.state_at(t, td)) {
            (Some(idx), Some(state)) => {
                prop_assert_eq!(state, s.states[idx]);
            }
            (None, None) => {}
            // state_at may return a state while index_at bounds-checks:
            // both must agree on in-range times.
            (a, b) => prop_assert!(
                a.is_none() == b.is_none() || t.0 - td.0 >= s.duration().0,
                "index {a:?} vs state {b:?}"
            ),
        }
    }

    /// SCPI APPL commands round-trip for arbitrary channel/voltage.
    #[test]
    fn scpi_apply_round_trip(ch in 1u8..=3, v in 0.0f64..99.0) {
        let wire = format!("APPL CH{ch},{v}");
        let cmd = scpi::parse(&wire).expect("parse");
        let back = scpi::format_command(&cmd);
        prop_assert_eq!(scpi::parse(&back).unwrap(), cmd);
    }

    /// The SCPI parser never panics on arbitrary ASCII lines.
    #[test]
    fn scpi_never_panics(line in "[ -~]{0,40}") {
        let _ = scpi::parse(&line);
    }

    /// The PSU accepts switches exactly at its period and rejects any
    /// faster cadence, regardless of the requested voltages.
    #[test]
    fn psu_rate_limit_invariant(
        dt_ms in 0.1f64..60.0,
        v1 in 0.0f64..30.0,
        v2 in 0.0f64..30.0,
    ) {
        let mut psu = PowerSupply::tektronix_2230g();
        psu.execute("OUTP ON", Seconds(0.0));
        assert_eq!(psu.execute(&format!("APPL CH1,{v1}"), Seconds(1.0)), Reply::Ack);
        let second = psu.execute(&format!("APPL CH1,{v2}"), Seconds(1.0 + dt_ms / 1e3));
        if dt_ms >= 20.0 {
            prop_assert_eq!(second, Reply::Ack);
        } else {
            prop_assert!(matches!(second, Reply::Error(_)), "accepted at {dt_ms} ms");
        }
    }
}
