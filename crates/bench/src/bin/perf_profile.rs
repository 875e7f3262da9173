//! Phase-level profiler for the simulator.
//!
//! Runs one `perf_bench` scenario with the `papi-perf` timers enabled
//! and prints the per-phase breakdown — where an episode actually
//! spends wall time. `--scenario` picks it:
//!
//! - `cluster_fleet_64` (the default): 64 prefix-affinity replicas
//!   under bursty multi-turn chat — `step`, `price`, `snapshot`,
//!   `route`, `migrate`;
//! - `long_context_offload`: one replica with prefix sharing and a
//!   60 000-block KV capacity tier under long-context thrash — `step`,
//!   `price`, and the KV phases `kv_evict` (prefix-cache eviction and
//!   spill) and `tier_fetch`.
//!
//! Optionally persists the profile for CI artifacts and gates against a
//! saved baseline:
//!
//! ```text
//! cargo run --release -p papi-bench --bin perf_profile -- \
//!     [--scenario NAME] --json profile.json --folded profile.folded \
//!     [--baseline old-profile.json] [--threshold 0.5]
//! ```
//!
//! `--folded` writes `outer;inner <self µs>` lines for flamegraph
//! tooling (`inferno`, `flamegraph.pl`). With `--baseline`, exits
//! non-zero if any phase's total grew past `1 + threshold` times the
//! baseline (default threshold 0.5 — phase walls on a shared CI runner
//! are noisy, so the gate is loose; the artifact trend is the signal).

use papi_core::{
    ClusterEngine, ClusterSpec, DesignKind, KvTierSpec, ServingEngine, SessionTuning, StepMode,
    SystemConfig,
};
use papi_llm::ModelPreset;
use papi_perf::Profile;
use papi_workload::{
    ArrivalProcess, ConversationDataset, DatasetKind, PolicySpec, ServingWorkload,
};
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: perf_profile [--scenario cluster_fleet_64|long_context_offload] \
         [--json FILE] [--folded FILE] [--baseline FILE] [--threshold F]"
    );
    std::process::exit(2);
}

/// An episode runner: simulates one episode and returns the replica
/// iterations it stepped.
type Episode = Box<dyn Fn() -> u64>;

/// Builds the named scenario — the same shapes `perf_bench` times.
fn scenario(name: &str) -> Option<Episode> {
    match name {
        "cluster_fleet_64" => {
            let workload = ServingWorkload::new(
                ConversationDataset::multi_turn(DatasetKind::GeneralQa, 512, 4),
                ArrivalProcess::Bursty {
                    burst_size: 8,
                    interval_sec: 1.0,
                },
                2048,
            )
            .with_seed(42);
            let spec = ClusterSpec::new(
                DesignKind::PimOnlyPapi,
                ModelPreset::Llama65B.config(),
                1,
                64,
            )
            .with_routing(PolicySpec::prefix_affinity())
            .with_tuning(
                SessionTuning::default()
                    .with_max_batch(8)
                    .with_kv_block_size(16)
                    .with_prefix_sharing(true),
            )
            .with_step_mode(StepMode::Parallel);
            let engine = ClusterEngine::new(spec).expect("valid fleet");
            Some(Box::new(move || {
                let report = engine.run(&workload);
                report.replicas.iter().map(|r| r.iterations).sum()
            }))
        }
        "long_context_offload" => {
            let workload = ServingWorkload::poisson(
                ConversationDataset::multi_turn(DatasetKind::LongContext, 4096, 3),
                1.0,
                120,
            )
            .with_seed(23);
            let engine = ServingEngine::new(SystemConfig::build(
                DesignKind::PimOnlyPapi,
                ModelPreset::Gpt3_175B.config(),
            ))
            .with_max_batch(16)
            .with_kv_block_size(16)
            .with_prefix_sharing(true)
            .with_kv_tier(KvTierSpec::new(60_000));
            Some(Box::new(move || engine.run(&workload).iterations))
        }
        _ => None,
    }
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut folded_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut threshold = 0.5f64;
    let mut scenario_name = "cluster_fleet_64".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--scenario" => scenario_name = value(),
            "--json" => json_path = Some(value()),
            "--folded" => folded_path = Some(value()),
            "--baseline" => baseline_path = Some(value()),
            "--threshold" => {
                threshold = value().parse().unwrap_or_else(|e| {
                    eprintln!("invalid --threshold: {e}");
                    std::process::exit(2);
                })
            }
            _ => usage(),
        }
    }

    let episode = scenario(&scenario_name).unwrap_or_else(|| usage());

    // Warm (JIT-free in Rust, but it pages in the binary and fills the
    // pricing memo exactly as a long-running server would), then
    // profile one clean episode.
    episode();
    papi_perf::enable();
    papi_perf::reset();
    let wall = Instant::now();
    let iterations = episode();
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    papi_perf::disable();
    let profile = papi_perf::report();

    eprintln!(
        "{scenario_name}: {wall_ms:.1} ms wall, {iterations} replica iterations, \
         {:.1} ms instrumented",
        profile.total_s() * 1e3
    );
    print!("{}", profile.table());

    if let Some(path) = &json_path {
        std::fs::write(path, profile.to_json()).expect("write profile JSON");
        eprintln!("profile JSON -> {path}");
    }
    if let Some(path) = &folded_path {
        std::fs::write(path, profile.folded_stacks()).expect("write folded stacks");
        eprintln!("folded stacks -> {path}");
    }
    if let Some(path) = &baseline_path {
        let text = std::fs::read_to_string(path).expect("read baseline profile");
        let baseline = Profile::from_json(&text).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        });
        let diff = profile.compare(&baseline, threshold);
        print!("{}", diff.table());
        if !diff.passed() {
            eprintln!(
                "phase regression(s) past {:.0}% over baseline",
                threshold * 100.0
            );
            std::process::exit(1);
        }
        eprintln!("profile within {:.0}% of baseline", threshold * 100.0);
    }
}
