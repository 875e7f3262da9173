//! The four benchmark workloads: how each is built from a seed, how one
//! episode runs through the public API, and what a correct episode
//! looks like.
//!
//! Sizes are chosen so one episode takes a fraction of a host second on
//! a 2-core host and the simulated percentiles rest on thousands of
//! requests, which keeps them steady from one seed to the next.

use crate::stats::Digest;
use papi_core::{
    AutoscalePolicySpec, AutoscaleSpec, ClusterEngine, ClusterReport, ClusterSpec, DesignKind,
    KvCacheStats, KvTierSpec, LatencySummary, RequestRecord, ServingEngine, ServingReport,
    SessionTuning, SharedTierSpec, SloSpec, StepMode, SystemConfig,
};
use papi_llm::ModelPreset;
use papi_workload::{
    ArrivalProcess, ConversationDataset, DatasetKind, PolicySpec, ReplicaRole, ServingWorkload,
    SpeculativeConfig,
};
use std::time::Instant;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One PAPI replica: admission, paged + tiered KV, unmemoized
    /// pricing and dynamic FC placement do all the work.
    ReplicaChatTiered,
    /// 64 replicas behind prefix-affinity routing, stepped in parallel.
    Fleet64Burst,
    /// A queue-depth autoscaled fleet over one long diurnal cycle.
    ElasticDay,
    /// GPU prefill pool + PIM decode pool with private tiers and the
    /// fleet-shared prefix tier.
    DisaggSharedTier,
}

impl Name {
    pub const ALL: [Name; 4] = [
        Name::ReplicaChatTiered,
        Name::Fleet64Burst,
        Name::ElasticDay,
        Name::DisaggSharedTier,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::ReplicaChatTiered => "replica_chat_tiered",
            Name::Fleet64Burst => "fleet64_burst",
            Name::ElasticDay => "elastic_day",
            Name::DisaggSharedTier => "disagg_shared_tier",
        }
    }

    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.as_str() == s)
    }
}

/// What serves an episode: one replica engine or a fleet.
// A process holds one, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Engine {
    Replica(ServingEngine),
    Fleet(ClusterEngine),
}

/// One episode's simulator output.
#[derive(Debug)]
pub enum Report {
    Replica(ServingReport),
    Fleet(ClusterReport),
}

/// A workload ready to run: engine built, requests generated once.
#[derive(Debug)]
pub struct Setup {
    pub name: Name,
    pub engine: Engine,
    pub workload: ServingWorkload,
    /// Requests `ServingWorkload::requests()` generated for this seed.
    pub generated: usize,
    /// The SLO goodput is measured against, fixed per workload.
    pub slo: SloSpec,
    /// Host seconds spent in `ServingWorkload::requests()`.
    pub gen_s: f64,
}

/// Builds `name`'s engine and workload for `seed`: config build (with
/// PAPI's α calibration), engine construction and request generation —
/// everything up to the first episode step.
pub fn setup(name: Name, seed: u64) -> Setup {
    let llama = ModelPreset::Llama65B.config();
    let (engine, workload, slo) = match name {
        Name::ReplicaChatTiered => {
            let engine = ServingEngine::new(SystemConfig::build(DesignKind::Papi, llama))
                .with_max_batch(32)
                .with_kv_block_size(16)
                .with_prefix_sharing(true)
                .with_prefill_chunk(512)
                .with_kv_tier(KvTierSpec::new(REPLICA_TIER_BLOCKS));
            let workload = ServingWorkload::poisson(
                ConversationDataset::multi_turn(DatasetKind::GeneralQa, 512, 4),
                REPLICA_RATE,
                REPLICA_REQUESTS,
            )
            .with_speculation(SpeculativeConfig::geometric(4, 0.7));
            (
                Engine::Replica(engine),
                workload,
                SloSpec::interactive(2_000.0, 100.0),
            )
        }
        Name::Fleet64Burst => {
            let spec = ClusterSpec::new(DesignKind::PimOnlyPapi, llama, 1, 64)
                .with_routing(PolicySpec::prefix_affinity())
                .with_tuning(
                    SessionTuning::default()
                        .with_max_batch(8)
                        .with_kv_block_size(16)
                        .with_prefix_sharing(true),
                )
                .with_step_mode(StepMode::Parallel);
            let workload = ServingWorkload::new(
                ConversationDataset::multi_turn(DatasetKind::GeneralQa, 512, 4),
                ArrivalProcess::Bursty {
                    burst_size: 8,
                    interval_sec: 1.0,
                },
                FLEET64_REQUESTS,
            );
            (
                Engine::Fleet(ClusterEngine::new(spec).expect("valid 64-replica fleet")),
                workload,
                SloSpec::interactive(2_000.0, 100.0),
            )
        }
        Name::ElasticDay => {
            let slo = SloSpec::interactive(2_000.0, 100.0);
            let spec = ClusterSpec::new(DesignKind::PimOnlyPapi, llama, 1, 8)
                .with_routing(PolicySpec::prefix_affinity())
                .with_tuning(
                    SessionTuning::default()
                        .with_max_batch(8)
                        .with_kv_block_size(16)
                        .with_prefix_sharing(true),
                )
                .with_autoscale(
                    AutoscaleSpec::new(
                        AutoscalePolicySpec::QueueDepthTarget {
                            scale_up_depth: 0.3,
                            scale_down_depth: 0.02,
                        },
                        slo,
                    )
                    .with_min_replicas(1)
                    .with_initial_replicas(2)
                    .with_spin_up(6.0)
                    .with_decide_interval(2.5),
                );
            let workload = ServingWorkload::new(
                ConversationDataset::multi_turn(DatasetKind::GeneralQa, 256, 2),
                ArrivalProcess::Diurnal {
                    base_rate_per_sec: ELASTIC_BASE_RATE,
                    peak_rate_per_sec: ELASTIC_PEAK_RATE,
                    period_s: ELASTIC_PERIOD_S,
                    noise: 0.1,
                },
                ELASTIC_REQUESTS,
            );
            (
                Engine::Fleet(ClusterEngine::new(spec).expect("valid elastic fleet")),
                workload,
                slo,
            )
        }
        Name::DisaggSharedTier => {
            let spec = ClusterSpec::new(DesignKind::PimOnlyPapi, llama, 1, 4)
                .with_roles(vec![
                    ReplicaRole::Prefill,
                    ReplicaRole::Prefill,
                    ReplicaRole::Decode,
                    ReplicaRole::Decode,
                ])
                .with_prefill_design(DesignKind::A100AttAcc)
                .with_routing(PolicySpec::shared_tier_affinity())
                .with_tuning(
                    SessionTuning::default()
                        .with_max_batch(16)
                        .with_kv_block_size(16)
                        .with_prefix_sharing(true)
                        .with_kv_tier(KvTierSpec::new(DISAGG_TIER_BLOCKS)),
                )
                .with_shared_tier(SharedTierSpec::new());
            let workload = ServingWorkload::poisson(
                ConversationDataset::multi_turn(DatasetKind::LongContext, 4096, 3),
                DISAGG_RATE,
                DISAGG_REQUESTS,
            );
            (
                Engine::Fleet(ClusterEngine::new(spec).expect("valid disaggregated fleet")),
                workload,
                SloSpec::interactive(10_000.0, 100.0),
            )
        }
    };
    let workload = workload.with_seed(seed);
    let start = Instant::now();
    let generated = workload.requests().len();
    let gen_s = start.elapsed().as_secs_f64();
    Setup {
        name,
        engine,
        workload,
        generated,
        slo,
        gen_s,
    }
}

const REPLICA_RATE: f64 = 3.5;
const REPLICA_REQUESTS: usize = 24000;
const REPLICA_TIER_BLOCKS: u64 = 60_000;
const FLEET64_REQUESTS: usize = 8192;
const ELASTIC_BASE_RATE: f64 = 0.4;
const ELASTIC_PEAK_RATE: f64 = 3.0;
const ELASTIC_PERIOD_S: f64 = 12_000.0;
const ELASTIC_REQUESTS: usize = 20_000;
const DISAGG_RATE: f64 = 0.5;
const DISAGG_REQUESTS: usize = 2400;
const DISAGG_TIER_BLOCKS: u64 = 60_000;

impl Setup {
    /// Runs one untraced episode through the engine's plain `run`.
    pub fn episode(&self) -> Report {
        match &self.engine {
            Engine::Replica(engine) => Report::Replica(engine.run(&self.workload)),
            Engine::Fleet(engine) => Report::Fleet(engine.run(&self.workload)),
        }
    }

    /// The fleet, if this workload runs one.
    pub fn fleet(&self) -> Option<&ClusterEngine> {
        match &self.engine {
            Engine::Fleet(engine) => Some(engine),
            Engine::Replica(_) => None,
        }
    }

    /// The same fleet, stepped in `mode`.
    pub fn fleet_in_mode(&self, mode: StepMode) -> Option<ClusterEngine> {
        self.fleet().map(|engine| {
            ClusterEngine::new(engine.spec().clone().with_step_mode(mode))
                .expect("the spec validated once already")
        })
    }

    /// Checks the invariants every episode must hold; `Err` names the
    /// first one broken.
    pub fn check(&self, report: &Report) -> Result<(), String> {
        let records = report.records();
        if records.len() != self.generated {
            return Err(format!(
                "{} requests generated but {} records out",
                self.generated,
                records.len()
            ));
        }
        let record_tokens: u64 = records.iter().map(|r| r.output_tokens).sum();
        if record_tokens != report.tokens() {
            return Err(format!(
                "records sum to {record_tokens} tokens, report counts {}",
                report.tokens()
            ));
        }
        if let Some(r) = records.iter().find(|r| r.ttft() > r.e2e()) {
            return Err(format!("request {} has TTFT above its e2e latency", r.id));
        }
        Ok(())
    }
}

/// Feeds one serving report: its per-iteration and per-request vectors
/// element by element, the rest as one object.
fn feed_serving(digest: &mut Digest, report: &mut ServingReport) {
    let placements = std::mem::take(&mut report.placements);
    let rlp_series = std::mem::take(&mut report.rlp_series);
    let records = std::mem::take(&mut report.records);
    digest.json(&*report);
    digest.items(&placements);
    digest.items(&rlp_series);
    digest.items(&records);
    report.placements = placements;
    report.rlp_series = rlp_series;
    report.records = records;
}

impl Report {
    pub fn records(&self) -> Vec<&RequestRecord> {
        match self {
            Report::Replica(r) => r.records.iter().collect(),
            Report::Fleet(r) => r.records().collect(),
        }
    }

    /// TTFT and TPOT summaries over every record.
    pub fn latency_summaries(&self) -> (LatencySummary, LatencySummary) {
        let (ttft, tpot) = match self {
            Report::Replica(r) => (r.ttft_summary(), r.tpot_summary()),
            Report::Fleet(r) => (r.ttft_summary(), r.tpot_summary()),
        };
        let complete = "a checked episode has at least one record";
        (ttft.expect(complete), tpot.expect(complete))
    }

    pub fn tokens(&self) -> u64 {
        match self {
            Report::Replica(r) => r.tokens,
            Report::Fleet(r) => r.tokens(),
        }
    }

    /// Digest of the report's JSON. Two reports share a digest exactly
    /// when they serialize to the same bytes. The report is only
    /// borrowed mutably to move its large vectors out while the rest is
    /// serialized, and is whole again on return.
    pub fn digest(&mut self) -> u64 {
        let mut digest = Digest::new();
        match self {
            Report::Replica(r) => feed_serving(&mut digest, r),
            Report::Fleet(r) => {
                let mut replicas = std::mem::take(&mut r.replicas);
                digest.json(&*r);
                digest.json(&(replicas.len() as u64));
                for replica in &mut replicas {
                    feed_serving(&mut digest, replica);
                }
                r.replicas = replicas;
            }
        }
        digest.finish()
    }

    /// Every replica's serving report.
    pub fn replicas(&self) -> &[ServingReport] {
        match self {
            Report::Replica(r) => std::slice::from_ref(r),
            Report::Fleet(r) => &r.replicas,
        }
    }

    /// Simulated iterations summed over replicas.
    pub fn iterations(&self) -> u64 {
        self.replicas().iter().map(|r| r.iterations).sum()
    }

    /// Simulated seconds from the first arrival to the last completion.
    pub fn makespan_s(&self) -> f64 {
        match self {
            Report::Replica(r) => r.makespan.as_secs(),
            Report::Fleet(r) => r.makespan().as_secs(),
        }
    }

    pub fn energy_j(&self) -> f64 {
        match self {
            Report::Replica(r) => r.energy.value(),
            Report::Fleet(r) => r.energy().value(),
        }
    }

    pub fn goodput(&self, slo: &SloSpec) -> f64 {
        match self {
            Report::Replica(r) => r.goodput(slo),
            Report::Fleet(r) => r.goodput(slo),
        }
    }

    /// Replica-hours rented: the elastic fleet's provisioned hours, or
    /// every fixed replica held for the whole makespan.
    pub fn replica_hours(&self) -> f64 {
        match self {
            Report::Fleet(ClusterReport {
                fleet_cost: Some(cost),
                ..
            }) => cost.provisioned_hours,
            _ => self.replicas().len() as f64 * self.makespan_s() / 3600.0,
        }
    }

    /// KV statistics summed over replicas (peaks: the largest replica's).
    pub fn kv(&self) -> KvCacheStats {
        self.replicas()
            .iter()
            .fold(KvCacheStats::default(), |mut acc, r| {
                let kv = &r.kv;
                acc.peak_blocks_in_use = acc.peak_blocks_in_use.max(kv.peak_blocks_in_use);
                acc.prefix_lookups += kv.prefix_lookups;
                acc.prefix_hits += kv.prefix_hits;
                acc.cached_prompt_tokens += kv.cached_prompt_tokens;
                acc.prefilled_tokens += kv.prefilled_tokens;
                acc.tier_spills += kv.tier_spills;
                acc.tier_fetches += kv.tier_fetches;
                acc.tier_evictions += kv.tier_evictions;
                acc.remote_fetches += kv.remote_fetches;
                acc
            })
    }
}
