//! The service layer's replay and saturation-shape contract, end to
//! end: the `SAT` report must be byte-identical at any worker count,
//! sheds must not start below saturation and must not shrink as load
//! grows, and the bounded class queues must hold their bound for every
//! seed, depth, and scenario.

use proptest::prelude::*;
use vbench::engine::Engine;
use vbench::scenario::Scenario;
use vbench::suite::{Suite, SuiteOptions};
use vbench::{
    degraded_saturation_load, estimated_saturation_load, run_saturation, simulate_service,
    video_profiles, ServiceConfig, VideoProfile,
};

/// A small catalog keeps the real-encode proof cheap: the virtual model
/// still sees every arrival, only the deduplicated mix shrinks.
fn profiles(scenario: Scenario) -> Vec<VideoProfile> {
    let mut p = video_profiles(&Suite::vbench(&SuiteOptions::tiny()), scenario);
    p.truncate(3);
    p
}

fn config(scenario: Scenario, load: f64) -> ServiceConfig {
    let mut c = ServiceConfig::new(scenario, load, 8.0);
    c.capacity = 2;
    c.queue_depth = 6;
    c
}

/// The acceptance criterion verbatim: one sweep, two worker counts,
/// byte-identical `SAT_*.json` documents. The worker count only moves
/// wall-clock time — every value in the report is derived from the
/// virtual-time model or the farm's deterministic bitstreams.
#[test]
fn sat_report_is_byte_identical_across_worker_counts() {
    let p = profiles(Scenario::Popular);
    let base = config(Scenario::Popular, 0.0);
    let sat = estimated_saturation_load(&p, base.capacity);
    let sat_deg = degraded_saturation_load(&p, base.capacity);
    // One underloaded point, one in the degradation band, one shedding.
    let loads = vec![0.5 * sat, 1.5 * sat, 1.5 * sat_deg];

    let serial = run_saturation(&base, &loads, &p, &Engine, 1, None).expect("serial sweep");
    let wide = run_saturation(&base, &loads, &p, &Engine, 4, None).expect("parallel sweep");

    assert!(serial.proof.unique_encodes > 0, "the sweep must encode something for real");
    assert_eq!(serial.proof, wide.proof, "encode proof must not depend on workers");
    assert_eq!(serial.to_json(), wide.to_json(), "SAT bytes must not depend on workers");
}

/// Below saturation nothing is shed; past it the shed rate can only
/// grow with offered load — for every service scenario, not just the
/// one the CLI sweep defaults to.
#[test]
fn shed_rate_is_zero_below_saturation_and_monotone_in_load() {
    for scenario in [Scenario::Upload, Scenario::Popular, Scenario::Live] {
        let p = profiles(scenario);
        let base = config(scenario, 0.0);
        let sat = estimated_saturation_load(&p, base.capacity);

        for mult in [0.2, 0.4, 0.6] {
            let point = simulate_service(&config(scenario, sat * mult), &p);
            assert!(point.offered > 0, "{scenario}: load {mult} offered nothing");
            assert_eq!(point.shed, 0, "{scenario}: shed below saturation at {mult}x");
        }

        // The sweep grid mirrors the CLI default: below the undegraded
        // saturation point the service is simply underloaded; between it
        // and the fully-degraded one the pre-armed controller absorbs
        // the excess by downshifting presets; past that, shedding is
        // steady state and can only climb.
        let sat_deg = degraded_saturation_load(&p, base.capacity);
        let loads: Vec<f64> = [0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|m| m * sat)
            .chain([1.25, 1.75, 2.5].iter().map(|m| m * sat_deg))
            .collect();
        let mut last_rate = 0.0;
        for load in loads {
            let point = simulate_service(&config(scenario, load), &p);
            let rate = point.shed_rate();
            assert!(
                rate >= last_rate,
                "{scenario}: shed rate fell from {last_rate} to {rate} at load {load}/s"
            );
            last_rate = rate;
        }
        assert!(last_rate > 0.0, "{scenario}: deep overload must shed");
    }
}

/// The SAT and PARETO documents carry the seed as a JSON number, exact
/// only up to 2^53, so `serve`, `saturate` and `plan` refuse a larger
/// one as a usage error (2) before they run anything.
#[test]
fn seeds_past_2_pow_53_are_usage_errors() {
    let past = ((1u64 << 53) + 1).to_string();
    for command in ["serve", "saturate", "plan"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_vbench"))
            .args([command, "--scenario", "live", "--duration", "1", "--seed", &past])
            .args(if command == "saturate" { &[][..] } else { &["--offered-load", "1"][..] })
            .output()
            .expect("run vbench");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{command}: {stderr}");
        assert!(stderr.contains("--seed"), "{command}: {stderr}");
        assert!(out.stdout.is_empty(), "{command} ran before refusing");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// For any seed, depth, load multiple, and scenario: the bounded
    /// queue never exceeds its configured depth, the shed ledger is
    /// complete (count == events), admission accounting holds, and
    /// re-simulating replays the exact shed sequence.
    #[test]
    fn bounded_queues_hold_and_sheds_replay(
        seed in any::<u32>(),
        depth in 1usize..6,
        mult in 1u32..6,
        scen in 0usize..3,
    ) {
        let scenario = [Scenario::Upload, Scenario::Popular, Scenario::Live][scen];
        let p = profiles(scenario);
        let mut c = ServiceConfig::new(scenario, 0.0, 4.0);
        c.capacity = 1;
        c.queue_depth = depth;
        c.seed = seed as u64;
        c.offered_load = estimated_saturation_load(&p, c.capacity) * mult as f64;

        let a = simulate_service(&c, &p);
        prop_assert!(a.queue_peak <= depth, "peak {} over depth {depth}", a.queue_peak);
        prop_assert_eq!(a.shed, a.shed_events.len() as u64);
        prop_assert!(a.admitted <= a.offered);
        prop_assert!(a.completed <= a.admitted);

        let b = simulate_service(&c, &p);
        prop_assert_eq!(a.shed, b.shed);
        prop_assert_eq!(a.shed_events.len(), b.shed_events.len());
        for (x, y) in a.shed_events.iter().zip(&b.shed_events) {
            prop_assert_eq!(
                (x.seq, x.at_us, x.name, x.rank, x.reason),
                (y.seq, y.at_us, y.name, y.rank, y.reason)
            );
        }
    }
}
