//! Cluster-scale serving: tensor-parallel groups of PAPI nodes,
//! replicated data-parallel behind a request router.
//!
//! The paper evaluates one node. The ROADMAP's production fleet needs
//! *many*: a [`ClusterEngine`] owns `dp_replicas` serving engines —
//! each a TP group of `tp_degree` nodes built by
//! [`SystemConfig::with_tensor_parallel`] — and co-simulates them on a
//! shared clock. Requests arrive once, globally; at each arrival the
//! router (a [`RoutePolicy`] from `papi-workload`) inspects every
//! replica's [`ReplicaSnapshot`] *as of
//! that simulated instant* and picks the admission target. Per-replica
//! [`ServingReport`]s aggregate into a [`ClusterReport`] with
//! fleet-wide TTFT/TPOT percentiles and SLO goodput.
//!
//! The TP/DP trade this layer exposes (and
//! `examples/cluster_serving.rs` demonstrates): TP multiplies every
//! device pool behind one batch, so each iteration is faster — lower
//! TPOT — but the fleet still runs *one* queue per group and pays
//! per-layer all-reduces; DP multiplies queues and batch slots, so at
//! high offered load it sustains more goodput.
//!
//! Beyond identical replicas, the fleet can be **disaggregated**: each
//! replica carries a [`ReplicaRole`] (`Colocated` / `Prefill` /
//! `Decode`), optionally with a different hardware design per role —
//! a GPU-heavy pool for compute-bound prefill, a PIM-heavy pool for
//! memory-bound decode, the cluster-scale mirror of PAPI's intra-node
//! phase-affinity argument. New arrivals route only to
//! prefill-capable replicas; when a prefill-role replica finishes a
//! prompt, the sequence's KV blocks are exported and *migrated* over
//! the fabric (priced as [`Route::KvMigrate`](papi_interconnect::Route)
//! traffic by the spec's [`MigrationPricing`]) to a decode-capable
//! replica picked by a pluggable [`MigrationPolicy`] — JSQ over the
//! decode pool by default. In-flight sequences occupy *neither* pool.
//! An all-`Colocated` fleet never migrates and reproduces the
//! pre-disaggregation engine bit for bit
//! (`tests/routing_equality.rs`).

use crate::autoscale::{
    AutoscaleControl, AutoscalePolicy, AutoscaleSpec, AutoscaleView, FleetCostReport, ScaleAction,
};
use crate::config::{DesignKind, SystemConfig};
use crate::metrics::{LatencySummary, RequestRecord, ServingReport};
use crate::pricer::SharedIterationCache;
use crate::serving::{PrefillHandoff, ServingEngine, ServingSession, SessionTuning};
use crate::slo::SloSpec;
use papi_interconnect::{
    ClusterTopology, LinkSpec, MigrationCost, MigrationPricing, TierPricing, TopologyError,
};
use papi_kv::{FetchSpec, GlobalKvTier};
use papi_llm::ModelConfig;
use papi_types::{Energy, Time};
use papi_workload::{
    MigrationContext, MigrationPolicy, MigrationSpec, PolicySpec, ReplicaRole, ReplicaSnapshot,
    ReplicaState, RouteContext, RoutePolicy, Router, ServingWorkload,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// How [`ClusterEngine::run_with_policies`] advances replicas between
/// control-plane events.
///
/// Both modes produce **bit-for-bit identical** [`ClusterReport`]s —
/// `Parallel` is a pure wall-clock optimization, pinned against
/// `Sequential` by `tests/parallel_equality.rs` and the golden
/// fingerprints in `tests/routing_equality.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum StepMode {
    /// The reference event loop: one global scan per simulator step,
    /// always advancing the minimum-clock replica. Simple, obviously
    /// correct, and linearly slow in fleet size — kept as the escape
    /// hatch and as the equality oracle for `Parallel`.
    Sequential,
    /// Window-at-a-time: between consecutive global events (an arrival
    /// being routed, or a migration delivery) every replica with
    /// pending work below the event horizon runs straight to the
    /// horizon, in replica order on the calling thread, because
    /// replicas only interact *at* events. Prefill-role replicas still
    /// advance one step at a time under a tightening bound (each export
    /// they emit can schedule a delivery earlier than the horizon,
    /// capping how far anyone may step), which preserves the
    /// sequential path's event order exactly. Replica snapshots are
    /// dirty-tracked and iteration pricing is memoized fleet-wide per
    /// design.
    ///
    /// Windows carry too little work to pay for threads: on a 2-vCPU
    /// host the median window with two or more runnable replicas is
    /// 5–14 µs of stepping on the disaggregated and elastic fleets
    /// (55–95 µs over about 8 replicas on a 64-replica bursty fleet),
    /// while spawning and joining one OS thread costs 20–40 µs of CPU.
    #[default]
    Parallel,
}

/// The shape of a PAPI fleet: one design sharded `tp_degree`-way per
/// group, `dp_replicas` groups behind the router.
///
/// Replica knobs live in one shared [`SessionTuning`] — the same struct
/// [`ServingEngine`] consumes — so the fleet and single-node layers can
/// never drift apart on what is tunable. Routing is declarative: a
/// [`PolicySpec`] names a built-in [`RoutePolicy`]; custom policies
/// drive the fleet through [`ClusterEngine::run_with_policy`].
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// The per-node design replicated across the fleet.
    pub design: DesignKind,
    /// The model served (sharded across each TP group).
    pub model: ModelConfig,
    /// Nodes per tensor-parallel group.
    pub tp_degree: usize,
    /// Data-parallel replicas (TP groups).
    pub dp_replicas: usize,
    /// The inter-node fabric TP collectives cross.
    pub inter_node: LinkSpec,
    /// How the router picks a replica per arriving request.
    pub routing: PolicySpec,
    /// The session knobs of every replica engine.
    pub tuning: SessionTuning,
    /// Per-replica lifecycle roles, parallel to the replica indices.
    /// Empty (the default) means every replica is [`ReplicaRole::Colocated`]
    /// — the classic, non-disaggregated fleet.
    pub roles: Vec<ReplicaRole>,
    /// Design override for [`ReplicaRole::Prefill`] replicas (`None`
    /// replicates `design`) — typically a GPU-heavy system, since
    /// prefill is compute-bound.
    pub prefill_design: Option<DesignKind>,
    /// Design override for [`ReplicaRole::Decode`] replicas (`None`
    /// replicates `design`) — typically a PIM-heavy system, since
    /// decode attention is memory-bound.
    pub decode_design: Option<DesignKind>,
    /// How migrated prefill→decode handoffs pick their decode replica.
    pub migration: MigrationSpec,
    /// What link prices the KV-migration transfers (the inter-node
    /// fabric by default; `Free` is the zero-cost ablation).
    pub migration_pricing: MigrationPricing,
    /// How replicas advance between control-plane events. Both modes
    /// produce identical reports; `Parallel` (the default) is faster.
    pub step_mode: StepMode,
    /// The fleet-shared prefix tier: one directory registering every
    /// replica's spilled records, so a conversation that re-lands on
    /// the *wrong* replica re-materializes its context from the owning
    /// replica over the fabric instead of re-prefilling from scratch.
    /// `None` (the default) keeps each replica's capacity tier
    /// private. Requires `tuning.kv_tier` — the directory registers
    /// *spilled* records.
    pub shared_tier: Option<SharedTierSpec>,
    /// Elastic autoscaling: replica lifecycle
    /// (`Warming → Active → Draining → Retired`) driven by an
    /// [`AutoscalePolicy`] evaluated at control-plane barriers every
    /// `decide_interval_s`, with consistent-hash affinity routing over
    /// the active membership and replica-hour cost accounting in the
    /// report's [`FleetCostReport`]. `None` (the default) keeps every
    /// replica `Active` forever — the fleet behaves bit-for-bit as
    /// before elasticity existed.
    pub autoscale: Option<AutoscaleSpec>,
}

impl ClusterSpec {
    /// A fleet of `design` nodes: `tp_degree`-way sharding, `dp_replicas`
    /// replicas, InfiniBand NDR between nodes, join-shortest-queue
    /// routing, and default session tuning.
    pub fn new(
        design: DesignKind,
        model: ModelConfig,
        tp_degree: usize,
        dp_replicas: usize,
    ) -> Self {
        Self {
            design,
            model,
            tp_degree,
            dp_replicas,
            inter_node: LinkSpec::infiniband_ndr(),
            routing: PolicySpec::JoinShortestQueue,
            tuning: SessionTuning::default(),
            roles: Vec::new(),
            prefill_design: None,
            decode_design: None,
            migration: MigrationSpec::default(),
            migration_pricing: MigrationPricing::default(),
            step_mode: StepMode::default(),
            shared_tier: None,
            autoscale: None,
        }
    }

    /// Enables the fleet-shared prefix tier.
    pub fn with_shared_tier(mut self, shared_tier: SharedTierSpec) -> Self {
        self.shared_tier = Some(shared_tier);
        self
    }

    /// Enables elastic autoscaling ([`ClusterEngine::new`] validates
    /// the spec's bounds against the fleet shape).
    pub fn with_autoscale(mut self, autoscale: AutoscaleSpec) -> Self {
        self.autoscale = Some(autoscale);
        self
    }

    /// Assigns per-replica roles (the disaggregation axis). The vector
    /// must be one role per replica; [`ClusterEngine::new`] validates
    /// the shape.
    pub fn with_roles(mut self, roles: Vec<ReplicaRole>) -> Self {
        self.roles = roles;
        self
    }

    /// Overrides the hardware design of `Prefill`-role replicas.
    pub fn with_prefill_design(mut self, design: DesignKind) -> Self {
        self.prefill_design = Some(design);
        self
    }

    /// Overrides the hardware design of `Decode`-role replicas.
    pub fn with_decode_design(mut self, design: DesignKind) -> Self {
        self.decode_design = Some(design);
        self
    }

    /// Selects a built-in decode-side placement policy for migrated
    /// sequences (custom policies drive the fleet through
    /// [`ClusterEngine::run_with_policies`]).
    pub fn with_migration(mut self, migration: MigrationSpec) -> Self {
        self.migration = migration;
        self
    }

    /// Overrides how KV-migration transfers are priced.
    pub fn with_migration_pricing(mut self, pricing: MigrationPricing) -> Self {
        self.migration_pricing = pricing;
        self
    }

    /// Selects how replicas advance between control-plane events
    /// ([`StepMode::Parallel`] by default).
    pub fn with_step_mode(mut self, step_mode: StepMode) -> Self {
        self.step_mode = step_mode;
        self
    }

    /// The role of replica `idx` (`Colocated` when no roles were set).
    pub fn role_of(&self, idx: usize) -> ReplicaRole {
        self.roles.get(idx).copied().unwrap_or_default()
    }

    /// The hardware design serving `role` in this fleet.
    pub fn design_for(&self, role: ReplicaRole) -> DesignKind {
        match role {
            ReplicaRole::Colocated => self.design,
            ReplicaRole::Prefill => self.prefill_design.unwrap_or(self.design),
            ReplicaRole::Decode => self.decode_design.unwrap_or(self.design),
        }
    }

    /// Overrides the routing policy.
    pub fn with_routing(mut self, routing: PolicySpec) -> Self {
        self.routing = routing;
        self
    }

    /// Overrides the inter-node fabric.
    pub fn with_inter_node(mut self, inter_node: LinkSpec) -> Self {
        self.inter_node = inter_node;
        self
    }

    /// Replaces every replica's session tuning.
    pub fn with_tuning(mut self, tuning: SessionTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Overrides each replica's batch cap.
    #[deprecated(since = "0.2.0", note = "tune through `with_tuning` / `tuning`")]
    pub fn with_max_batch(mut self, max_batch: u64) -> Self {
        self.tuning = self.tuning.with_max_batch(max_batch);
        self
    }

    /// Overrides each replica's KV paging granularity.
    #[deprecated(since = "0.2.0", note = "tune through `with_tuning` / `tuning`")]
    pub fn with_kv_block_size(mut self, block_size: u64) -> Self {
        self.tuning = self.tuning.with_kv_block_size(block_size);
        self
    }

    /// Enables copy-on-write prefix sharing on every replica. Pair it
    /// with [`PolicySpec::prefix_affinity`] routing so multi-turn
    /// conversations keep hitting the (private, per-replica) caches a
    /// single node would.
    #[deprecated(since = "0.2.0", note = "tune through `with_tuning` / `tuning`")]
    pub fn with_prefix_sharing(mut self, enabled: bool) -> Self {
        self.tuning = self.tuning.with_prefix_sharing(enabled);
        self
    }

    /// Enables chunked prefill on every replica.
    #[deprecated(since = "0.2.0", note = "tune through `with_tuning` / `tuning`")]
    pub fn with_prefill_chunk(mut self, chunk_tokens: u64) -> Self {
        self.tuning = self.tuning.with_prefill_chunk(chunk_tokens);
        self
    }
}

/// Declarative configuration of the fleet-shared prefix tier: one
/// directory over the inter-node fabric registering every replica's
/// spilled records ([`GlobalKvTier`]), consulted on fork-misses that
/// also miss the local capacity tier.
///
/// Coherence is free because records are immutable logical token
/// counts (first-writer-wins, extend-only, never invalidated); what
/// the fleet pays is the *fabric*: each cross-replica
/// re-materialization is priced as
/// [`Route::KvFetch`](papi_interconnect::Route) traffic — transfer
/// time lands in the fetching request's TTFT, wire energy in the
/// replica's energy, and both are attributed fleet-wide in the
/// report's [`GlobalTierReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SharedTierSpec {
    /// Which directory-resident prefixes are worth the fabric fetch.
    pub fetch: FetchSpec,
    /// What a cross-replica fetch costs. `None` (the default) prices
    /// over the cluster's inter-node fabric;
    /// `Some(TierPricing::Free)` is the zero-cost ablation isolating
    /// the sharing benefit from the wire.
    pub pricing: Option<TierPricing>,
    /// Control-plane gossip period (seconds of simulated time): the
    /// fleet merges spill registrations and refreshes every replica's
    /// directory view at each tick, in addition to every arrival and
    /// migration-delivery barrier. Both [`StepMode`]s observe the
    /// same tick schedule, so parallel stays bit-identical to
    /// sequential.
    pub sync_s: f64,
}

impl SharedTierSpec {
    /// Default control-plane gossip period: 50 ms of simulated time —
    /// far below the eviction→reuse gaps that make sharing pay, far
    /// above per-iteration granularity.
    pub const DEFAULT_SYNC_S: f64 = 0.05;

    /// The default shared tier: fetch everything, priced over the
    /// cluster's inter-node fabric, gossiping every
    /// [`DEFAULT_SYNC_S`](Self::DEFAULT_SYNC_S) simulated seconds.
    pub fn new() -> Self {
        Self {
            fetch: FetchSpec::default(),
            pricing: None,
            sync_s: Self::DEFAULT_SYNC_S,
        }
    }

    /// Selects which resident prefixes are worth fetching.
    pub fn with_fetch(mut self, fetch: FetchSpec) -> Self {
        self.fetch = fetch;
        self
    }

    /// Overrides the fabric pricing (e.g. [`TierPricing::Free`] for
    /// the ablation).
    pub fn with_pricing(mut self, pricing: TierPricing) -> Self {
        self.pricing = Some(pricing);
        self
    }

    /// Overrides the control-plane gossip period (seconds).
    pub fn with_sync_interval(mut self, sync_s: f64) -> Self {
        self.sync_s = sync_s;
        self
    }
}

impl Default for SharedTierSpec {
    fn default() -> Self {
        Self::new()
    }
}

/// The shared tier's control-plane state during one episode: the
/// authoritative fleet directory, the frozen [`Arc`] view sessions
/// read between barriers, and the fleet-level fetch accounting.
#[derive(Debug)]
struct SharedTierControl {
    directory: GlobalKvTier,
    view: Arc<GlobalKvTier>,
    pricing: String,
    sync_s: f64,
    fetches: u64,
    fetched_tokens: u64,
    bytes: f64,
    energy: Energy,
    latencies: Vec<Time>,
}

impl SharedTierControl {
    /// The control-plane barrier: drains every session's publish and
    /// fetch egress in replica-index order (the same deterministic
    /// discipline as handoff harvesting — both step modes reach each
    /// barrier with identical per-session egress, so merging in a
    /// fixed order keeps them bit-for-bit equal), merges registrations
    /// into the fleet directory, and — only if the directory changed —
    /// freezes a new view into every session.
    fn harvest(&mut self, sessions: &mut [ServingSession<'_>]) {
        let mut changed = false;
        for (idx, session) in sessions.iter_mut().enumerate() {
            for (key, tokens) in session.drain_global_publishes() {
                changed |= self.directory.publish(key, idx, tokens).changed();
            }
            for fetch in session.drain_global_fetches() {
                self.fetches += 1;
                self.fetched_tokens += fetch.tokens;
                self.bytes += fetch.cost.bytes.value();
                self.energy += fetch.cost.energy;
                self.latencies.push(fetch.cost.time);
            }
        }
        if changed {
            self.view = Arc::new(self.directory.clone());
            for session in sessions.iter_mut() {
                session.install_global_view(Arc::clone(&self.view));
            }
        }
    }

    fn into_report(self) -> GlobalTierReport {
        let stats = self.directory.stats();
        GlobalTierReport {
            pricing: self.pricing,
            entries: stats.entries,
            resident_tokens: stats.tokens,
            resident_blocks: stats.blocks,
            publishes: self.directory.publishes(),
            extensions: self.directory.extensions(),
            fetches: self.fetches,
            fetched_tokens: self.fetched_tokens,
            bytes: self.bytes,
            energy: self.energy,
            latency: LatencySummary::from_times(&self.latencies),
        }
    }
}

/// The cluster simulator: N replica engines (one per replica — roles
/// may give them heterogeneous hardware) plus the router and the
/// migration machinery.
#[derive(Debug, Clone)]
pub struct ClusterEngine {
    spec: ClusterSpec,
    topology: ClusterTopology,
    replicas: Vec<ServingEngine>,
}

impl ClusterEngine {
    /// Builds the fleet `spec` describes.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] if the fleet shape is degenerate,
    /// exceeds the inter-node fabric's fan-out, carries a role vector
    /// whose length disagrees with `dp_replicas`, disaggregates
    /// without at least one prefill-capable *and* one decode-capable
    /// replica (arrivals or migrations would have nowhere to go),
    /// enables a shared tier without a private `tuning.kv_tier` (the
    /// directory registers spilled records — nothing would ever be
    /// published), or configures autoscaling on a disaggregated or
    /// shared-tier fleet or with degenerate bounds
    /// (`1 <= min <= initial <= dp_replicas`, non-negative spin-up,
    /// positive decision interval).
    pub fn new(spec: ClusterSpec) -> Result<Self, TopologyError> {
        if !spec.roles.is_empty() && spec.roles.len() != spec.dp_replicas {
            return Err(TopologyError::new(format!(
                "{} roles assigned to a {}-replica fleet",
                spec.roles.len(),
                spec.dp_replicas
            )));
        }
        if !spec.roles.is_empty() {
            if !spec.roles.iter().any(ReplicaRole::accepts_arrivals) {
                return Err(TopologyError::new(
                    "no prefill-capable replica: every arrival would be unroutable",
                ));
            }
            if !spec.roles.iter().any(ReplicaRole::can_decode) {
                return Err(TopologyError::new(
                    "no decode-capable replica: every migration would be unplaceable",
                ));
            }
        }
        if let Some(shared) = &spec.shared_tier {
            if spec.tuning.kv_tier.is_none() {
                return Err(TopologyError::new(
                    "a fleet-shared tier registers spilled records: configure tuning.kv_tier first",
                ));
            }
            if !shared.sync_s.is_finite() || shared.sync_s <= 0.0 {
                return Err(TopologyError::new(
                    "the shared tier's control-plane sync interval must be positive and finite",
                ));
            }
        }
        if let Some(autoscale) = &spec.autoscale {
            if !spec.roles.is_empty() {
                return Err(TopologyError::new(
                    "autoscaling requires an all-Colocated fleet: draining a prefill or \
                     decode pool can strand the other role's traffic",
                ));
            }
            if spec.shared_tier.is_some() {
                return Err(TopologyError::new(
                    "autoscaling does not yet compose with the fleet-shared tier: a retired \
                     replica's flushed records would go stale in the fleet directory",
                ));
            }
            let initial = autoscale.initial_replicas.unwrap_or(spec.dp_replicas);
            if autoscale.min_replicas == 0
                || autoscale.min_replicas > initial
                || initial > spec.dp_replicas
            {
                return Err(TopologyError::new(format!(
                    "autoscale bounds must satisfy 1 <= min ({}) <= initial ({initial}) <= \
                     dp_replicas ({})",
                    autoscale.min_replicas, spec.dp_replicas
                )));
            }
            if !autoscale.spin_up_s.is_finite() || autoscale.spin_up_s < 0.0 {
                return Err(TopologyError::new(
                    "the autoscale spin-up delay must be non-negative and finite",
                ));
            }
            if !autoscale.decide_interval_s.is_finite() || autoscale.decide_interval_s <= 0.0 {
                return Err(TopologyError::new(
                    "the autoscale decision interval must be positive and finite",
                ));
            }
        }
        let base = SystemConfig::build(spec.design, spec.model.clone());
        let topology = ClusterTopology::new(
            base.topology.clone(),
            spec.inter_node.clone(),
            spec.tp_degree,
            spec.dp_replicas,
        )?;
        // One engine per replica; distinct designs built (and, for
        // PAPI, α-calibrated) exactly once each and cloned across the
        // fleet — the base design reuses the config built above, so a
        // homogeneous fleet pays one build, like before roles existed.
        let mut by_design: HashMap<DesignKind, ServingEngine> = HashMap::new();
        by_design.insert(
            spec.design,
            ServingEngine::new(base.with_tensor_parallel(spec.tp_degree, spec.inter_node.clone()))
                .with_tuning(spec.tuning.clone()),
        );
        let replicas = (0..spec.dp_replicas)
            .map(|idx| {
                let design = spec.design_for(spec.role_of(idx));
                by_design
                    .entry(design)
                    .or_insert_with(|| {
                        let config = SystemConfig::build(design, spec.model.clone())
                            .with_tensor_parallel(spec.tp_degree, spec.inter_node.clone());
                        ServingEngine::new(config).with_tuning(spec.tuning.clone())
                    })
                    .clone()
            })
            .collect();
        Ok(Self {
            spec,
            topology,
            replicas,
        })
    }

    /// The fleet shape.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The fleet wiring (per-node topology + inter-node fabric).
    pub fn topology(&self) -> &ClusterTopology {
        &self.topology
    }

    /// The base replica engine configuration (replica 0's; roles may
    /// give other replicas different hardware — see
    /// [`replica_configs`](Self::replica_configs)).
    pub fn replica_config(&self) -> &SystemConfig {
        self.replicas[0].config()
    }

    /// Every replica's engine configuration, in replica order.
    pub fn replica_configs(&self) -> impl Iterator<Item = &SystemConfig> {
        self.replicas.iter().map(ServingEngine::config)
    }

    /// The resolved role of every replica.
    pub fn roles(&self) -> Vec<ReplicaRole> {
        (0..self.spec.dp_replicas)
            .map(|idx| self.spec.role_of(idx))
            .collect()
    }

    /// Prices one handoff's KV transfer: the source replica's block
    /// footprint × its block bytes, over the link the spec's
    /// [`MigrationPricing`] names.
    fn price_migration(&self, source: usize, handoff: &PrefillHandoff) -> MigrationCost {
        let block_size = self.replicas[source].tuning().kv_block_size;
        let block_bytes = self.spec.model.kv_bytes_per_token() * block_size as f64;
        self.spec
            .migration_pricing
            .cost(&self.spec.inter_node, handoff.kv.blocks, block_bytes)
    }

    /// Serves one episode across the fleet with the spec's built-in
    /// routing and migration policies (driven through the same trait
    /// seams as custom policies).
    ///
    /// Replicas advance on a shared simulated clock: before each
    /// global event — an arrival being routed, or a migrated sequence
    /// landing on its decode replica — every replica with pending work
    /// is stepped up to the event instant, so policies see the fleet
    /// as it would exist right then — not a stale or clairvoyant view.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`ServingEngine::run`].
    pub fn run(&self, workload: &ServingWorkload) -> ClusterReport {
        let mut router = Router::new(self.spec.routing);
        let mut migration = self.spec.migration.build();
        self.run_with_policies(workload, &mut router, migration.as_mut())
    }

    /// Serves one episode with a caller-supplied [`RoutePolicy`] — the
    /// open seam for routing strategies the built-in [`PolicySpec`]s
    /// don't cover. Migrated sequences (if the fleet disaggregates)
    /// are placed by the spec's built-in [`MigrationSpec`].
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as
    /// [`run_with_policies`](Self::run_with_policies).
    pub fn run_with_policy(
        &self,
        workload: &ServingWorkload,
        policy: &mut dyn RoutePolicy,
    ) -> ClusterReport {
        let mut migration = self.spec.migration.build();
        self.run_with_policies(workload, policy, migration.as_mut())
    }

    /// Serves one episode with caller-supplied routing *and*
    /// decode-placement policies — the fully open control plane. The
    /// routing policy is consulted once per global arrival, in arrival
    /// order (and must pick a prefill-capable replica); the migration
    /// policy once per completed KV transfer, in delivery order (and
    /// must pick a decode-capable replica). Their labels become the
    /// report's `routing` and `migration.policy` fields.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`ServingEngine::run`], or if
    /// either policy returns an out-of-range or role-incompatible
    /// replica index.
    pub fn run_with_policies(
        &self,
        workload: &ServingWorkload,
        policy: &mut dyn RoutePolicy,
        migration: &mut dyn MigrationPolicy,
    ) -> ClusterReport {
        let autoscale = self
            .spec
            .autoscale
            .as_ref()
            .map(|spec| AutoscaleControl::new(spec, self.spec.dp_replicas, None));
        match self.spec.step_mode {
            StepMode::Sequential => self.run_sequential(workload, policy, migration, autoscale),
            StepMode::Parallel => self.run_parallel(workload, policy, migration, autoscale),
        }
    }

    /// Serves one episode with a caller-supplied [`AutoscalePolicy`]
    /// deciding the fleet's scale — the open seam for scaling
    /// strategies the built-in [`AutoscalePolicySpec`] names don't
    /// cover (routing and migration use the spec's built-ins). The
    /// spec must carry an [`AutoscaleSpec`] — its bounds, spin-up
    /// delay, and decision interval still govern; only the decision
    /// logic is replaced.
    ///
    /// [`AutoscalePolicySpec`]: crate::autoscale::AutoscalePolicySpec
    ///
    /// # Panics
    ///
    /// Panics if the spec has no autoscale configuration, or on the
    /// same conditions as [`run_with_policies`](Self::run_with_policies)
    /// (including the autoscaler returning an out-of-range replica
    /// index).
    pub fn run_elastic(
        &self,
        workload: &ServingWorkload,
        autoscaler: &mut dyn AutoscalePolicy,
    ) -> ClusterReport {
        let spec = self
            .spec
            .autoscale
            .as_ref()
            .expect("run_elastic requires ClusterSpec::with_autoscale");
        let control = AutoscaleControl::new(
            spec,
            self.spec.dp_replicas,
            Some(Box::new(BorrowedAutoscaler(autoscaler))),
        );
        let mut router = Router::new(self.spec.routing);
        let mut migration = self.spec.migration.build();
        match self.spec.step_mode {
            StepMode::Sequential => {
                self.run_sequential(workload, &mut router, migration.as_mut(), Some(control))
            }
            StepMode::Parallel => {
                self.run_parallel(workload, &mut router, migration.as_mut(), Some(control))
            }
        }
    }

    /// Opens one session per replica: replica 0 keeps the workload's
    /// acceptance stream (a 1-replica cluster is bit-identical to the
    /// single engine), later replicas decorrelate by index, and
    /// prefill-role replicas export their completed prompts.
    fn open_sessions(
        &self,
        workload: &ServingWorkload,
        roles: &[ReplicaRole],
    ) -> Vec<ServingSession<'_>> {
        self.replicas
            .iter()
            .enumerate()
            .map(|(idx, engine)| {
                let mut session = engine.open_session(workload);
                if idx > 0 {
                    session
                        .reseed(workload.seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                }
                if roles[idx] == ReplicaRole::Prefill {
                    session.enable_prefill_export();
                }
                session
            })
            .collect()
    }

    /// Enables the fleet-shared tier on every session (when the spec
    /// asks for one) and returns its control-plane state. Pricing
    /// resolves to [`TierPricing::Link`] over the cluster's inter-node
    /// fabric unless overridden.
    fn open_shared_tier(&self, sessions: &mut [ServingSession<'_>]) -> Option<SharedTierControl> {
        let spec = self.spec.shared_tier.as_ref()?;
        let pricing = spec
            .pricing
            .clone()
            .unwrap_or_else(|| TierPricing::Link(self.spec.inter_node.clone()));
        let directory = GlobalKvTier::new(self.spec.tuning.kv_block_size);
        let view = Arc::new(directory.clone());
        for (idx, session) in sessions.iter_mut().enumerate() {
            session.enable_global_tier(idx, &spec.fetch, pricing.clone(), Arc::clone(&view));
        }
        Some(SharedTierControl {
            directory,
            view,
            pricing: pricing.label(),
            sync_s: spec.sync_s,
            fetches: 0,
            fetched_tokens: 0,
            bytes: 0.0,
            energy: Energy::ZERO,
            latencies: Vec::new(),
        })
    }

    /// The [`StepMode::Sequential`] reference loop: one global
    /// minimum-clock scan per simulator step.
    fn run_sequential(
        &self,
        workload: &ServingWorkload,
        policy: &mut dyn RoutePolicy,
        migration: &mut dyn MigrationPolicy,
        mut autoscale: Option<AutoscaleControl<'_>>,
    ) -> ClusterReport {
        let roles = self.roles();
        let mut sessions = self.open_sessions(workload, &roles);
        let mut shared = self.open_shared_tier(&mut sessions);
        let mut next_sync = shared.as_ref().map_or(f64::INFINITY, |c| c.sync_s);
        let arrivals = workload.requests();
        let mut next_arrival = 0usize;
        let mut in_flight: Vec<InFlightMigration> = Vec::new();
        let mut decisions = 0u64;
        let mut stats = MigrationReport {
            policy: migration.label(),
            pricing: self.spec.migration_pricing.label(),
            ..MigrationReport::default()
        };
        let mut transfer_times: Vec<Time> = Vec::new();

        // Stamp each replica's snapshot with its configured role (and,
        // for an elastic fleet, its lifecycle), so policies can honor
        // the disaggregation and lifecycle contracts.
        let observe = |sessions: &[ServingSession<'_>],
                       lifecycles: Option<&[ReplicaState]>|
         -> Vec<ReplicaSnapshot> {
            papi_perf::phase!("snapshot");
            sessions
                .iter()
                .enumerate()
                .map(|(idx, s)| {
                    let mut snapshot = s.snapshot();
                    snapshot.role = roles[idx];
                    if let Some(lifecycles) = lifecycles {
                        snapshot.lifecycle = lifecycles[idx];
                    }
                    snapshot
                })
                .collect()
        };

        loop {
            // The next global event: the earliest pending arrival or
            // migration delivery (delivery first on an exact tie, so
            // the router sees the landed sequence).
            let arrival_t = arrivals.get(next_arrival).map(|r| r.arrival_s);
            let delivery = in_flight
                .iter()
                .enumerate()
                .min_by(|(ia, a), (ib, b)| a.deliver_s.total_cmp(&b.deliver_s).then(ia.cmp(ib)))
                .map(|(i, m)| (i, m.deliver_s));
            let (horizon, deliver_now) = match (arrival_t, delivery) {
                (Some(at), Some((di, dt))) => {
                    if dt <= at {
                        (Some(dt), Some(di))
                    } else {
                        (Some(at), None)
                    }
                }
                (Some(at), None) => (Some(at), None),
                (None, Some((di, dt))) => (Some(dt), Some(di)),
                (None, None) => (None, None),
            };
            // Shared-tier fleets also close the window at the next
            // control-plane gossip tick, so spill registrations become
            // fleet-visible mid-episode — not only at arrival and
            // delivery events (under load, most spills and reuses
            // happen long after the last arrival). A tick-bounded
            // window delivers nothing: its barrier exists purely to
            // merge the directory.
            let sync_window = sessions.iter().any(|s| s.has_pending_work())
                && horizon.is_none_or(|t| next_sync < t);
            let (horizon, deliver_now) = if sync_window {
                (Some(next_sync), None)
            } else {
                (horizon, deliver_now)
            };
            // Elastic fleets also close the window at the next
            // autoscale decision tick (same latch discipline as the
            // gossip tick, so both step modes decide on the same
            // schedule). A decide tick that beats a gossip tick
            // preempts it — the gossip window relatches next
            // iteration, not here.
            let decide_t = autoscale
                .as_ref()
                .map_or(f64::INFINITY, AutoscaleControl::next_decide);
            let decide_window = autoscale.is_some()
                && sessions.iter().any(|s| s.has_pending_work())
                && horizon.is_none_or(|t| decide_t < t);
            let (horizon, deliver_now) = if decide_window {
                (Some(decide_t), None)
            } else {
                (horizon, deliver_now)
            };
            let sync_window = sync_window && !decide_window;

            // Advance the fleet toward the event one step at a time,
            // harvesting any handoffs each step exports — a fresh
            // export can schedule a delivery *earlier* than the event
            // we were heading for, so re-evaluate after every step.
            if let Some(idx) = sessions
                .iter()
                .enumerate()
                .filter(|(_, s)| s.has_pending_work() && horizon.is_none_or(|t| s.clock() < t))
                .min_by(|(_, a), (_, b)| a.clock().total_cmp(&b.clock()))
                .map(|(i, _)| i)
            {
                sessions[idx].step();
                for handoff in sessions[idx].drain_egress() {
                    let cost = self.price_migration(idx, &handoff);
                    in_flight.push(InFlightMigration {
                        deliver_s: handoff.ready_s + cost.time.value(),
                        source: idx,
                        handoff,
                        cost,
                    });
                }
                continue;
            }

            // Control-plane barrier: no session can advance below the
            // horizon. Merge the fleet directory here, in replica
            // order — the parallel loop reaches the same barriers with
            // the same per-session egress.
            if let Some(control) = shared.as_mut() {
                control.harvest(&mut sessions);
                if sync_window {
                    // Everyone still running has reached the tick;
                    // latch the next one past the slowest of them.
                    let min_clock = sessions
                        .iter()
                        .filter(|s| s.has_pending_work())
                        .map(|s| s.clock())
                        .fold(f64::INFINITY, f64::min);
                    if min_clock.is_finite() {
                        next_sync = next_sync_tick(min_clock, control.sync_s);
                    }
                    continue;
                }
            }
            // Autoscale decision barrier: every pending session has
            // reached the decide tick. Promote due warm-ups, retire
            // idle drainers, consult the policy, apply its actions,
            // and latch the next tick.
            if decide_window {
                let control = autoscale.as_mut().expect("decide window without autoscale");
                control.barrier(&mut sessions, &roles);
                continue;
            }

            match deliver_now {
                Some(pos) => {
                    let migrated = in_flight.remove(pos);
                    if let Some(control) = autoscale.as_mut() {
                        control.promote_due(migrated.deliver_s);
                    }
                    let snapshots = observe(&sessions, autoscale.as_ref().map(|a| a.lifecycle()));
                    let target = {
                        papi_perf::phase!("migrate");
                        migration.place(&MigrationContext {
                            request: &migrated.handoff.request,
                            kv_tokens: migrated.handoff.kv.tokens,
                            source: migrated.source,
                            replicas: &snapshots,
                        })
                    };
                    assert!(
                        target < sessions.len(),
                        "migration policy {} picked replica {target} in a {}-replica fleet",
                        migration.label(),
                        sessions.len()
                    );
                    assert!(
                        roles[target].can_decode(),
                        "migration policy {} placed a sequence on prefill-only replica {target}",
                        migration.label()
                    );
                    stats.migrations += 1;
                    stats.bytes += migrated.cost.bytes.value();
                    stats.energy += migrated.cost.energy;
                    transfer_times.push(migrated.cost.time);
                    sessions[target].push_migrated(migrated.handoff, migrated.deliver_s);
                }
                None => match next_arrival < arrivals.len() {
                    true => {
                        let request = arrivals[next_arrival].clone();
                        next_arrival += 1;
                        if let Some(control) = autoscale.as_mut() {
                            control.promote_due(request.arrival_s);
                        }
                        let snapshots =
                            observe(&sessions, autoscale.as_ref().map(|a| a.lifecycle()));
                        let target = {
                            papi_perf::phase!("route");
                            let ctx = RouteContext::new(&request, &snapshots);
                            let ctx = match shared.as_ref() {
                                Some(control) => ctx.with_shared_prefixes(&control.directory),
                                None => ctx,
                            };
                            let ctx = match autoscale.as_ref() {
                                Some(control) => ctx.with_ring(control.ring()),
                                None => ctx,
                            };
                            policy.route(&ctx)
                        };
                        assert!(
                            target < sessions.len(),
                            "routing policy {} picked replica {target} in a {}-replica fleet",
                            policy.label(),
                            sessions.len()
                        );
                        assert!(
                            roles[target].accepts_arrivals(),
                            "routing policy {} sent an arrival to decode-only replica {target}",
                            policy.label()
                        );
                        if let Some(control) = autoscale.as_ref() {
                            let state = control.lifecycle()[target];
                            assert!(
                                state.serves_traffic(),
                                "routing policy {} sent an arrival to {} replica {target}",
                                policy.label(),
                                state.label()
                            );
                        }
                        decisions += 1;
                        sessions[target].push(request);
                    }
                    // No event, nothing steppable: the episode is done.
                    false => break,
                },
            }
        }
        debug_assert!(in_flight.is_empty(), "a migration was never delivered");
        stats.latency = LatencySummary::from_times(&transfer_times);
        let global_tier = shared.map(SharedTierControl::into_report);
        self.finish_report(
            policy.label(),
            decisions,
            roles,
            stats,
            global_tier,
            sessions,
            autoscale,
        )
    }

    /// The [`StepMode::Parallel`] window-at-a-time loop.
    ///
    /// Why this is bit-identical to [`run_sequential`](Self::run_sequential):
    /// replicas interact only *at* global events (a routed arrival, a
    /// delivered migration) — between events each session's trajectory
    /// is a function of its own state alone. The sequential loop steps
    /// the minimum-clock session and re-derives the horizon after every
    /// step because a fresh prefill export can schedule a delivery
    /// earlier than the event it was heading for; unrolling that rule,
    /// a step with pre-step clock `c` executes exactly when `c` is
    /// below `min(horizon, deliveries of exports from steps with
    /// pre-step clock < c)`. Only prefill-role sessions export, and a
    /// delivery always lands strictly after the clock of the step that
    /// exported it, so: exporters are advanced first, one step at a
    /// time under that tightening bound (exactly the sequential order
    /// among themselves — non-exporter steps never affect them); the
    /// bound is then final, and every other session can run freely to
    /// it — any interleaving gives the same per-session result, so
    /// they run one after another in replica order on the calling
    /// thread (a window is shorter than a thread spawn; see
    /// [`StepMode::Parallel`]). Exports are priced and queued in the
    /// same order the sequential loop would queue them, preserving
    /// delivery tie-breaks; snapshots at events are served from a
    /// dirty-tracked cache (a session not stepped or pushed since the
    /// last event snapshots identically), and iteration pricing is
    /// memoized fleet-wide per replica design (a pure function of the
    /// memo key — see [`SharedIterationCache`]).
    fn run_parallel(
        &self,
        workload: &ServingWorkload,
        policy: &mut dyn RoutePolicy,
        migration: &mut dyn MigrationPolicy,
        mut autoscale: Option<AutoscaleControl<'_>>,
    ) -> ClusterReport {
        let roles = self.roles();
        let mut sessions = self.open_sessions(workload, &roles);
        let mut shared = self.open_shared_tier(&mut sessions);
        let mut next_sync = shared.as_ref().map_or(f64::INFINITY, |c| c.sync_s);
        let mut caches: HashMap<DesignKind, Arc<SharedIterationCache>> = HashMap::new();
        for (idx, session) in sessions.iter_mut().enumerate() {
            let cache = caches.entry(self.spec.design_for(roles[idx])).or_default();
            session.install_pricer_cache(Arc::clone(cache));
        }
        let exporters: Vec<usize> = roles
            .iter()
            .enumerate()
            .filter(|(_, &role)| role == ReplicaRole::Prefill)
            .map(|(idx, _)| idx)
            .collect();

        let arrivals = workload.requests();
        let mut next_arrival = 0usize;
        let mut in_flight: Vec<InFlightMigration> = Vec::new();
        let mut decisions = 0u64;
        let mut stats = MigrationReport {
            policy: migration.label(),
            pricing: self.spec.migration_pricing.label(),
            ..MigrationReport::default()
        };
        let mut transfer_times: Vec<Time> = Vec::new();

        // Dirty-tracked snapshot cache: an event re-snapshots only the
        // replicas that stepped or were pushed to since the last one,
        // not the whole fleet.
        let mut snaps: Vec<ReplicaSnapshot> = sessions
            .iter()
            .enumerate()
            .map(|(idx, s)| {
                let mut snapshot = s.snapshot();
                snapshot.role = roles[idx];
                if let Some(control) = autoscale.as_ref() {
                    snapshot.lifecycle = control.lifecycle()[idx];
                }
                snapshot
            })
            .collect();
        let mut dirty = vec![false; sessions.len()];

        loop {
            // The next global event, exactly as the sequential loop
            // derives it (delivery first on an exact tie).
            let arrival_t = arrivals.get(next_arrival).map(|r| r.arrival_s);
            let delivery = in_flight
                .iter()
                .enumerate()
                .min_by(|(ia, a), (ib, b)| a.deliver_s.total_cmp(&b.deliver_s).then(ia.cmp(ib)))
                .map(|(i, m)| (i, m.deliver_s));
            let (horizon, deliver_now) = match (arrival_t, delivery) {
                (Some(at), Some((di, dt))) => {
                    if dt <= at {
                        (Some(dt), Some(di))
                    } else {
                        (Some(at), None)
                    }
                }
                (Some(at), None) => (Some(at), None),
                (None, Some((di, dt))) => (Some(dt), Some(di)),
                (None, None) => (None, None),
            };
            // Shared-tier gossip ticks bound the window exactly as in
            // the sequential loop (same latch, same schedule).
            let sync_window = sessions.iter().any(|s| s.has_pending_work())
                && horizon.is_none_or(|t| next_sync < t);
            let (horizon, deliver_now) = if sync_window {
                (Some(next_sync), None)
            } else {
                (horizon, deliver_now)
            };
            // Autoscale decision ticks bound the window exactly as in
            // the sequential loop (same latch, same schedule, same
            // preemption of a tied-or-later gossip tick).
            let decide_t = autoscale
                .as_ref()
                .map_or(f64::INFINITY, AutoscaleControl::next_decide);
            let decide_window = autoscale.is_some()
                && sessions.iter().any(|s| s.has_pending_work())
                && horizon.is_none_or(|t| decide_t < t);
            let (horizon, deliver_now) = if decide_window {
                (Some(decide_t), None)
            } else {
                (horizon, deliver_now)
            };
            let sync_window = sync_window && !decide_window;
            let h = horizon.unwrap_or(f64::INFINITY);
            let mut advanced = false;

            // Exporters advance one step at a time under the
            // tightening bound: each export can schedule a delivery
            // earlier than the window's event, capping how far anyone
            // may step afterwards.
            if !exporters.is_empty() {
                loop {
                    let bound = in_flight.iter().map(|m| m.deliver_s).fold(h, f64::min);
                    let Some(idx) = exporters
                        .iter()
                        .copied()
                        .filter(|&i| sessions[i].has_pending_work() && sessions[i].clock() < bound)
                        .min_by(|&a, &b| sessions[a].clock().total_cmp(&sessions[b].clock()))
                    else {
                        break;
                    };
                    sessions[idx].step();
                    dirty[idx] = true;
                    advanced = true;
                    for handoff in sessions[idx].drain_egress() {
                        let cost = self.price_migration(idx, &handoff);
                        in_flight.push(InFlightMigration {
                            deliver_s: handoff.ready_s + cost.time.value(),
                            source: idx,
                            handoff,
                            cost,
                        });
                    }
                }
            }

            // The bound is now final for this window: the remaining
            // sessions cannot move it, so each one runs to it in
            // replica order on this thread — no per-step global scan.
            let bound = in_flight.iter().map(|m| m.deliver_s).fold(h, f64::min);
            for (idx, session) in sessions.iter_mut().enumerate() {
                if roles[idx] != ReplicaRole::Prefill
                    && session.has_pending_work()
                    && session.clock() < bound
                {
                    dirty[idx] = true;
                    advanced = true;
                    session.run_until(bound);
                }
            }
            if advanced {
                // Fresh exports may have scheduled an earlier event —
                // re-derive the horizon before handling one.
                continue;
            }

            // Control-plane barrier — the same point the sequential
            // loop harvests at (no session can advance below the
            // horizon), with identical per-session egress contents.
            if let Some(control) = shared.as_mut() {
                control.harvest(&mut sessions);
                if sync_window {
                    let min_clock = sessions
                        .iter()
                        .filter(|s| s.has_pending_work())
                        .map(|s| s.clock())
                        .fold(f64::INFINITY, f64::min);
                    if min_clock.is_finite() {
                        next_sync = next_sync_tick(min_clock, control.sync_s);
                    }
                    continue;
                }
            }
            // Autoscale decision barrier — same point, same call as
            // the sequential loop. Lifecycle may have changed, so the
            // whole snapshot cache is stale.
            if decide_window {
                let control = autoscale.as_mut().expect("decide window without autoscale");
                control.barrier(&mut sessions, &roles);
                dirty.iter_mut().for_each(|flag| *flag = true);
                continue;
            }

            match deliver_now {
                Some(pos) => {
                    let migrated = in_flight.remove(pos);
                    if let Some(control) = autoscale.as_mut() {
                        if control.promote_due(migrated.deliver_s) {
                            dirty.iter_mut().for_each(|flag| *flag = true);
                        }
                    }
                    refresh_snapshots(
                        &sessions,
                        &roles,
                        autoscale.as_ref().map(|a| a.lifecycle()),
                        &mut snaps,
                        &mut dirty,
                    );
                    let target = {
                        papi_perf::phase!("migrate");
                        migration.place(&MigrationContext {
                            request: &migrated.handoff.request,
                            kv_tokens: migrated.handoff.kv.tokens,
                            source: migrated.source,
                            replicas: &snaps,
                        })
                    };
                    assert!(
                        target < sessions.len(),
                        "migration policy {} picked replica {target} in a {}-replica fleet",
                        migration.label(),
                        sessions.len()
                    );
                    assert!(
                        roles[target].can_decode(),
                        "migration policy {} placed a sequence on prefill-only replica {target}",
                        migration.label()
                    );
                    stats.migrations += 1;
                    stats.bytes += migrated.cost.bytes.value();
                    stats.energy += migrated.cost.energy;
                    transfer_times.push(migrated.cost.time);
                    sessions[target].push_migrated(migrated.handoff, migrated.deliver_s);
                    dirty[target] = true;
                }
                None => match next_arrival < arrivals.len() {
                    true => {
                        let request = arrivals[next_arrival].clone();
                        next_arrival += 1;
                        if let Some(control) = autoscale.as_mut() {
                            if control.promote_due(request.arrival_s) {
                                dirty.iter_mut().for_each(|flag| *flag = true);
                            }
                        }
                        refresh_snapshots(
                            &sessions,
                            &roles,
                            autoscale.as_ref().map(|a| a.lifecycle()),
                            &mut snaps,
                            &mut dirty,
                        );
                        let target = {
                            papi_perf::phase!("route");
                            let ctx = RouteContext::new(&request, &snaps);
                            let ctx = match shared.as_ref() {
                                Some(control) => ctx.with_shared_prefixes(&control.directory),
                                None => ctx,
                            };
                            let ctx = match autoscale.as_ref() {
                                Some(control) => ctx.with_ring(control.ring()),
                                None => ctx,
                            };
                            policy.route(&ctx)
                        };
                        assert!(
                            target < sessions.len(),
                            "routing policy {} picked replica {target} in a {}-replica fleet",
                            policy.label(),
                            sessions.len()
                        );
                        assert!(
                            roles[target].accepts_arrivals(),
                            "routing policy {} sent an arrival to decode-only replica {target}",
                            policy.label()
                        );
                        if let Some(control) = autoscale.as_ref() {
                            let state = control.lifecycle()[target];
                            assert!(
                                state.serves_traffic(),
                                "routing policy {} sent an arrival to {} replica {target}",
                                policy.label(),
                                state.label()
                            );
                        }
                        decisions += 1;
                        sessions[target].push(request);
                        dirty[target] = true;
                    }
                    // No event, nothing steppable: the episode is done.
                    false => break,
                },
            }
        }
        debug_assert!(in_flight.is_empty(), "a migration was never delivered");
        stats.latency = LatencySummary::from_times(&transfer_times);
        let global_tier = shared.map(SharedTierControl::into_report);
        self.finish_report(
            policy.label(),
            decisions,
            roles,
            stats,
            global_tier,
            sessions,
            autoscale,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn finish_report(
        &self,
        routing: String,
        decisions: u64,
        roles: Vec<ReplicaRole>,
        migration: MigrationReport,
        global_tier: Option<GlobalTierReport>,
        sessions: Vec<ServingSession<'_>>,
        autoscale: Option<AutoscaleControl<'_>>,
    ) -> ClusterReport {
        // The episode's end instant — the latest replica clock — must
        // be captured before the sessions are consumed: still-
        // provisioned replicas accrue replica-hours up to it.
        let end_s = sessions.iter().map(|s| s.clock()).fold(0.0, f64::max);
        let replicas: Vec<ServingReport> = sessions.into_iter().map(|s| s.into_report()).collect();
        let fleet_cost = autoscale.map(|control| {
            let fleet_energy = replicas
                .iter()
                .fold(migration.energy, |acc, r| acc + r.energy);
            control.into_report(&replicas, end_s, fleet_energy, self.spec.dp_replicas)
        });
        ClusterReport {
            design: self.replicas[0].config().design.label().to_owned(),
            model: self.spec.model.name.clone(),
            tp_degree: self.spec.tp_degree,
            routing,
            routing_decisions: decisions,
            roles,
            migration,
            global_tier,
            fleet_cost,
            replicas,
        }
    }
}

/// The first control-plane tick strictly after `clock` on the
/// `sync`-second grid (with a strict-progress guard against the grid
/// point rounding down onto `clock` itself). Shared by the gossip and
/// autoscale-decision schedules, so both latch identically.
pub(crate) fn next_sync_tick(clock: f64, sync: f64) -> f64 {
    let tick = (clock / sync).floor() * sync + sync;
    if tick > clock {
        tick
    } else {
        clock + sync
    }
}

/// Refreshes the dirty entries of the cluster's snapshot cache (and
/// re-stamps their roles and — for elastic fleets — lifecycles). Clean
/// entries are untouched — a session that neither stepped nor received
/// a push snapshots identically (the event loops mark the whole cache
/// dirty whenever a lifecycle changes).
fn refresh_snapshots(
    sessions: &[ServingSession<'_>],
    roles: &[ReplicaRole],
    lifecycles: Option<&[ReplicaState]>,
    snaps: &mut [ReplicaSnapshot],
    dirty: &mut [bool],
) {
    papi_perf::phase!("snapshot");
    for (idx, flag) in dirty.iter_mut().enumerate() {
        if *flag {
            let mut snapshot = sessions[idx].snapshot();
            snapshot.role = roles[idx];
            if let Some(lifecycles) = lifecycles {
                snapshot.lifecycle = lifecycles[idx];
            }
            snaps[idx] = snapshot;
            *flag = false;
        }
    }
}

/// Adapts a caller-borrowed autoscaler to the boxed policy
/// [`AutoscaleControl`] owns — [`ClusterEngine::run_elastic`]'s
/// equivalent of the router's borrowed-policy seam.
#[derive(Debug)]
struct BorrowedAutoscaler<'a>(&'a mut dyn AutoscalePolicy);

impl AutoscalePolicy for BorrowedAutoscaler<'_> {
    fn decide(&mut self, view: &AutoscaleView<'_>) -> Vec<ScaleAction> {
        self.0.decide(view)
    }

    fn label(&self) -> String {
        self.0.label()
    }
}

/// A KV sequence on the wire between its prefill and decode replicas.
#[derive(Debug, Clone)]
struct InFlightMigration {
    /// When the transfer completes and the sequence may be placed.
    deliver_s: f64,
    /// The prefill-role replica it departed from.
    source: usize,
    /// The sequence itself.
    handoff: PrefillHandoff,
    /// The priced transfer (recorded into the report at delivery).
    cost: MigrationCost,
}

/// Fleet-wide accounting of prefill→decode KV migrations — all zeros
/// (and `latency: None`) for a fleet that never migrated.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MigrationReport {
    /// Label of the decode-placement policy.
    pub policy: String,
    /// Label of the link migrations were priced over.
    pub pricing: String,
    /// Sequences migrated (each counted at delivery).
    pub migrations: u64,
    /// Total KV payload moved over the fabric, in bytes.
    pub bytes: f64,
    /// Total wire energy of the transfers.
    pub energy: Energy,
    /// Percentiles of the per-migration transfer latency; `None` when
    /// nothing migrated.
    pub latency: Option<LatencySummary>,
}

/// Fleet-wide accounting of the shared prefix tier: directory
/// occupancy at episode end plus cross-replica fetch traffic. The
/// fetch time and energy are *already inside* the fetching replicas'
/// reports (TTFT and session energy) — this report attributes the
/// fabric traffic; it is not an extra charge, and
/// [`ClusterReport::energy`] must not add `energy` again.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GlobalTierReport {
    /// Label of the pricing remote fetches crossed (the inter-node
    /// fabric unless overridden; `"free"` for the ablation).
    pub pricing: String,
    /// Prefixes registered in the directory at episode end.
    pub entries: u64,
    /// Logical tokens those entries cover.
    pub resident_tokens: u64,
    /// Blocks those tokens occupy (hot-pool block size).
    pub resident_blocks: u64,
    /// First-time registrations over the episode.
    pub publishes: u64,
    /// Records grown by a longer re-spill.
    pub extensions: u64,
    /// Cross-replica re-materializations.
    pub fetches: u64,
    /// Logical tokens restored across the fabric.
    pub fetched_tokens: u64,
    /// Total fetched payload in bytes.
    pub bytes: f64,
    /// Total wire energy of the fetches (already counted in replica
    /// energy — attribution only).
    pub energy: Energy,
    /// Per-fetch transfer-latency percentiles; `None` when nothing
    /// was fetched.
    pub latency: Option<LatencySummary>,
}

/// The outcome of one episode across the fleet: per-replica
/// [`ServingReport`]s plus fleet-wide aggregation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Design label of the replicated node.
    pub design: String,
    /// Model name.
    pub model: String,
    /// Nodes per TP group.
    pub tp_degree: usize,
    /// Label of the routing policy that assigned requests.
    pub routing: String,
    /// Requests the router placed.
    pub routing_decisions: u64,
    /// The lifecycle role of each replica, parallel to `replicas`
    /// (all `Colocated` for a non-disaggregated fleet).
    pub roles: Vec<ReplicaRole>,
    /// KV-migration accounting (zeros for a fleet that never
    /// migrated).
    pub migration: MigrationReport,
    /// Shared-tier accounting; `None` for a private-tier fleet.
    pub global_tier: Option<GlobalTierReport>,
    /// Autoscale cost accounting (replica-hours by lifecycle state,
    /// energy per SLO-good token, the scale-event log); `None` for a
    /// fixed-size fleet.
    #[serde(default)]
    pub fleet_cost: Option<FleetCostReport>,
    /// One report per data-parallel replica (some may be empty if the
    /// router starved them, and prefill-role replicas record nothing —
    /// their requests complete on the decode side).
    pub replicas: Vec<ServingReport>,
}

impl ClusterReport {
    /// Total requests completed across the fleet.
    pub fn requests(&self) -> u64 {
        self.replicas.iter().map(|r| r.records.len() as u64).sum()
    }

    /// Total output tokens across the fleet.
    pub fn tokens(&self) -> u64 {
        self.replicas.iter().map(|r| r.tokens).sum()
    }

    /// Total energy across the fleet, migration wire energy included.
    /// Shared-tier fetch energy is *not* added here: each fetch
    /// already charged its fetching replica's session energy —
    /// [`GlobalTierReport::energy`] is attribution, not a separate
    /// pool.
    pub fn energy(&self) -> Energy {
        self.replicas
            .iter()
            .fold(self.migration.energy, |acc, r| acc + r.energy)
    }

    /// Every request record in the fleet, in replica order.
    pub fn records(&self) -> impl Iterator<Item = &RequestRecord> {
        self.replicas.iter().flat_map(|r| r.records.iter())
    }

    /// Fleet makespan: first arrival anywhere to last completion
    /// anywhere. Zero when nothing completed.
    pub fn makespan(&self) -> Time {
        let first = self
            .records()
            .map(|r| r.arrival.value())
            .fold(f64::INFINITY, f64::min);
        let last = self
            .records()
            .map(|r| r.finished.value())
            .fold(0.0, f64::max);
        if first.is_finite() && last > first {
            Time::new(last - first)
        } else {
            Time::ZERO
        }
    }

    /// Fleet-wide TTFT percentile summary; `None` if nothing completed.
    pub fn ttft_summary(&self) -> Option<LatencySummary> {
        let times: Vec<Time> = self.records().map(RequestRecord::ttft).collect();
        LatencySummary::from_times(&times)
    }

    /// Fleet-wide TPOT percentile summary; `None` if nothing completed.
    pub fn tpot_summary(&self) -> Option<LatencySummary> {
        let times: Vec<Time> = self.records().map(RequestRecord::tpot).collect();
        LatencySummary::from_times(&times)
    }

    /// Fleet-wide queueing-delay summary; `None` if nothing completed.
    pub fn queueing_summary(&self) -> Option<LatencySummary> {
        let times: Vec<Time> = self.records().map(RequestRecord::queueing_delay).collect();
        LatencySummary::from_times(&times)
    }

    /// Fraction of completed requests meeting `slo`.
    pub fn slo_attainment(&self, slo: &SloSpec) -> f64 {
        let total = self.requests();
        if total == 0 {
            return 0.0;
        }
        self.records().filter(|r| r.meets(slo)).count() as f64 / total as f64
    }

    /// Fleet SLO goodput: requests completed within `slo` per second of
    /// fleet makespan.
    pub fn goodput(&self, slo: &SloSpec) -> f64 {
        let secs = self.makespan().as_secs();
        if secs == 0.0 {
            return 0.0;
        }
        self.records().filter(|r| r.meets(slo)).count() as f64 / secs
    }

    /// Fleet output-token throughput over the makespan.
    pub fn tokens_per_second(&self) -> f64 {
        let secs = self.makespan().as_secs();
        if secs == 0.0 {
            return 0.0;
        }
        self.tokens() as f64 / secs
    }

    /// Fleet-wide prefix-cache hit rate: the fraction of prefill demand
    /// (cached + prefilled tokens, summed over every replica) served
    /// from the replicas' prefix caches. This is the number
    /// prefix-oblivious routing destroys — conversations scattered
    /// across replicas re-prefill contexts some other replica cached.
    pub fn cache_hit_rate(&self) -> f64 {
        let cached: u64 = self
            .replicas
            .iter()
            .map(|r| r.kv.cached_prompt_tokens)
            .sum();
        let prefilled: u64 = self.replicas.iter().map(|r| r.kv.prefilled_tokens).sum();
        if cached + prefilled == 0 {
            return 0.0;
        }
        cached as f64 / (cached + prefilled) as f64
    }

    /// Total KV-pressure preemptions across the fleet.
    pub fn preemptions(&self) -> u64 {
        self.replicas.iter().map(|r| r.preemptions).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use papi_llm::ModelPreset;
    use papi_workload::{ConversationDataset, DatasetKind};

    fn workload(rate: f64, n: usize) -> ServingWorkload {
        ServingWorkload::poisson(DatasetKind::GeneralQa, rate, n).with_seed(17)
    }

    fn batch(max_batch: u64) -> SessionTuning {
        SessionTuning::default().with_max_batch(max_batch)
    }

    /// The degenerate fleet (1 group of 1 node) must reproduce the
    /// single-node engine bit for bit — the cluster layer adds no
    /// hidden cost at TP=1/DP=1 (equality-pinned like
    /// `slo_latency_matches_engine_pricing`).
    #[test]
    fn single_replica_tp1_cluster_reproduces_the_engine_exactly() {
        let model = ModelPreset::Llama65B.config();
        let w = workload(4.0, 32);
        let cluster = ClusterEngine::new(
            ClusterSpec::new(DesignKind::PimOnlyPapi, model.clone(), 1, 1).with_tuning(batch(16)),
        )
        .unwrap()
        .run(&w);
        let single = ServingEngine::new(SystemConfig::pim_only_papi(model))
            .with_max_batch(16)
            .run(&w);
        assert_eq!(cluster.replicas.len(), 1);
        let replica = &cluster.replicas[0];
        assert_eq!(replica.records, single.records);
        assert_eq!(replica.makespan, single.makespan);
        assert_eq!(replica.energy, single.energy);
        assert_eq!(replica.placements, single.placements);
        assert_eq!(replica.rlp_series, single.rlp_series);
    }

    /// Conservation: every workload request completes somewhere, and
    /// the fleet total is exactly the sum over replicas.
    #[test]
    fn request_count_equals_sum_of_replica_counts() {
        let w = workload(16.0, 60);
        for routing in [
            PolicySpec::RoundRobin,
            PolicySpec::JoinShortestQueue,
            PolicySpec::KvPressureAware,
        ] {
            let report = ClusterEngine::new(
                ClusterSpec::new(
                    DesignKind::PimOnlyPapi,
                    ModelPreset::Llama65B.config(),
                    1,
                    3,
                )
                .with_routing(routing)
                .with_tuning(batch(8)),
            )
            .unwrap()
            .run(&w);
            let per_replica: u64 = report.replicas.iter().map(|r| r.records.len() as u64).sum();
            assert_eq!(report.requests(), per_replica, "{routing}");
            assert_eq!(report.requests(), 60, "{routing}: requests lost");
            assert_eq!(report.routing_decisions, 60, "{routing}");
            let tokens: u64 = report.replicas.iter().map(|r| r.tokens).sum();
            assert_eq!(report.tokens(), tokens);
        }
    }

    /// Under sustained load, state-aware routing uses every replica.
    #[test]
    fn jsq_spreads_sustained_load_across_replicas() {
        let report = ClusterEngine::new(
            ClusterSpec::new(
                DesignKind::PimOnlyPapi,
                ModelPreset::Llama65B.config(),
                1,
                4,
            )
            .with_tuning(batch(4)),
        )
        .unwrap()
        .run(&workload(32.0, 64));
        for (i, replica) in report.replicas.iter().enumerate() {
            assert!(
                !replica.records.is_empty(),
                "replica {i} never served a request"
            );
        }
    }

    /// TP sharding buys per-iteration speed: a lone request on a TP-4
    /// group decodes faster than on a single node, even paying the
    /// all-reduce.
    #[test]
    fn tp4_lowers_single_request_tpot() {
        let model = ModelPreset::Llama65B.config();
        let w = workload(0.5, 8);
        let tp4 = ClusterEngine::new(ClusterSpec::new(
            DesignKind::PimOnlyPapi,
            model.clone(),
            4,
            1,
        ))
        .unwrap()
        .run(&w);
        let tp1 = ClusterEngine::new(ClusterSpec::new(DesignKind::PimOnlyPapi, model, 1, 1))
            .unwrap()
            .run(&w);
        let t4 = tp4.tpot_summary().unwrap().p50.value();
        let t1 = tp1.tpot_summary().unwrap().p50.value();
        assert!(t4 < t1, "TP4 p50 TPOT {t4} should beat TP1 {t1}");
    }

    /// The fleet shape validates through the cluster topology.
    #[test]
    fn degenerate_fleet_rejected() {
        let model = ModelPreset::Llama65B.config();
        assert!(ClusterEngine::new(ClusterSpec::new(
            DesignKind::PimOnlyPapi,
            model.clone(),
            0,
            1
        ))
        .is_err());
        assert!(
            ClusterEngine::new(ClusterSpec::new(DesignKind::PimOnlyPapi, model, 1, 0)).is_err()
        );
    }

    /// Empty-fleet aggregation stays well-defined.
    #[test]
    fn empty_report_aggregates_to_zero() {
        let report = ClusterReport {
            design: "PAPI".into(),
            model: "m".into(),
            tp_degree: 1,
            routing: PolicySpec::RoundRobin.label(),
            routing_decisions: 0,
            roles: vec![],
            migration: MigrationReport::default(),
            global_tier: None,
            fleet_cost: None,
            replicas: vec![],
        };
        assert_eq!(report.requests(), 0);
        assert_eq!(report.makespan(), Time::ZERO);
        assert!(report.ttft_summary().is_none());
        assert_eq!(report.cache_hit_rate(), 0.0);
        let slo = SloSpec::interactive(1_000.0, 50.0);
        assert_eq!(report.goodput(&slo), 0.0);
        assert_eq!(report.slo_attainment(&slo), 0.0);
    }

    /// Autoscale validation: disaggregated fleets, shared tiers, and
    /// degenerate bounds are rejected up front.
    #[test]
    fn autoscale_validation_rejects_bad_specs() {
        use crate::autoscale::AutoscalePolicySpec;
        let model = ModelPreset::Llama65B.config();
        let slo = SloSpec::interactive(1_000.0, 50.0);
        let spec = AutoscaleSpec::new(AutoscalePolicySpec::queue_depth(), slo);
        let fleet = |dp: usize| ClusterSpec::new(DesignKind::PimOnlyPapi, model.clone(), 1, dp);
        // Role disaggregation and autoscaling don't compose (v1).
        assert!(ClusterEngine::new(
            fleet(2)
                .with_roles(vec![ReplicaRole::Prefill, ReplicaRole::Decode])
                .with_autoscale(spec.clone())
        )
        .is_err());
        // min above initial.
        assert!(ClusterEngine::new(
            fleet(3).with_autoscale(spec.clone().with_min_replicas(3).with_initial_replicas(2))
        )
        .is_err());
        // initial above the fleet size.
        assert!(
            ClusterEngine::new(fleet(3).with_autoscale(spec.clone().with_initial_replicas(5)))
                .is_err()
        );
        // Degenerate knobs.
        assert!(ClusterEngine::new(
            fleet(3).with_autoscale(spec.clone().with_decide_interval(0.0))
        )
        .is_err());
        assert!(
            ClusterEngine::new(fleet(3).with_autoscale(spec.clone().with_spin_up(f64::NAN)))
                .is_err()
        );
        // A sane spec builds.
        assert!(ClusterEngine::new(
            fleet(3).with_autoscale(spec.with_min_replicas(1).with_initial_replicas(2))
        )
        .is_ok());
    }

    /// A policy that never scales leaves the episode identical to the
    /// same fleet without autoscaling — decision barriers are pure
    /// control-plane pauses — while still producing a cost report.
    #[test]
    fn hold_policy_is_bit_identical_to_a_fixed_fleet() {
        #[derive(Debug)]
        struct Hold;
        impl AutoscalePolicy for Hold {
            fn decide(&mut self, _: &AutoscaleView<'_>) -> Vec<ScaleAction> {
                Vec::new()
            }
            fn label(&self) -> String {
                "hold".into()
            }
        }
        let model = ModelPreset::Llama65B.config();
        let w = workload(8.0, 40);
        let slo = SloSpec::interactive(1_000.0, 50.0);
        let fixed = ClusterEngine::new(
            ClusterSpec::new(DesignKind::PimOnlyPapi, model.clone(), 1, 3).with_tuning(batch(8)),
        )
        .unwrap()
        .run(&w);
        let elastic = ClusterEngine::new(
            ClusterSpec::new(DesignKind::PimOnlyPapi, model, 1, 3)
                .with_tuning(batch(8))
                .with_autoscale(
                    AutoscaleSpec::new(crate::autoscale::AutoscalePolicySpec::queue_depth(), slo)
                        .with_decide_interval(0.5),
                ),
        )
        .unwrap()
        .run_elastic(&w, &mut Hold);
        for (f, e) in fixed.replicas.iter().zip(&elastic.replicas) {
            assert_eq!(f.records, e.records);
            assert_eq!(f.energy, e.energy);
            assert_eq!(f.placements, e.placements);
        }
        let cost = elastic.fleet_cost.expect("elastic fleet reports cost");
        assert_eq!(cost.policy, "hold");
        assert!(cost.scale_events.is_empty());
        assert!(cost.decisions > 0);
        assert_eq!(cost.peak_active, 3);
        assert_eq!(cost.warming_hours, 0.0);
        assert!(cost.active_hours > 0.0);
    }

    /// Draining under light load frees replica-hours without losing a
    /// single request.
    #[test]
    fn scale_down_saves_replica_hours_and_conserves_requests() {
        let model = ModelPreset::Llama65B.config();
        let w = workload(2.0, 40);
        let slo = SloSpec::interactive(10_000.0, 1_000.0);
        let report = ClusterEngine::new(
            ClusterSpec::new(DesignKind::PimOnlyPapi, model, 1, 4)
                .with_tuning(batch(8))
                .with_autoscale(
                    AutoscaleSpec::new(crate::autoscale::AutoscalePolicySpec::queue_depth(), slo)
                        .with_min_replicas(1)
                        .with_decide_interval(1.0),
                ),
        )
        .unwrap()
        .run(&w);
        assert_eq!(report.requests(), 40);
        let cost = report.fleet_cost.expect("cost report");
        assert!(
            !cost.scale_events.is_empty(),
            "light load on 4 replicas should drain capacity"
        );
        assert!(
            cost.provisioned_hours < cost.fixed_fleet_hours,
            "provisioned {} should undercut fixed {}",
            cost.provisioned_hours,
            cost.fixed_fleet_hours
        );
    }

    /// A 1-prefill + 1-decode fleet completes every request exactly
    /// once: each request is admitted and prefilled on the prefill
    /// replica, migrated, and recorded by the decode replica with
    /// ordered timestamps that include the transfer.
    #[test]
    fn disaggregated_fleet_conserves_requests_through_migration() {
        let w = workload(4.0, 24);
        let report = ClusterEngine::new(
            ClusterSpec::new(
                DesignKind::PimOnlyPapi,
                ModelPreset::Llama65B.config(),
                1,
                2,
            )
            .with_roles(vec![ReplicaRole::Prefill, ReplicaRole::Decode])
            .with_tuning(batch(8)),
        )
        .unwrap()
        .run(&w);
        assert_eq!(
            report.roles,
            vec![ReplicaRole::Prefill, ReplicaRole::Decode]
        );
        assert_eq!(report.requests(), 24, "requests lost or duplicated");
        assert_eq!(report.routing_decisions, 24);
        assert_eq!(
            report.migration.migrations, 24,
            "every request migrates once"
        );
        assert!(report.migration.bytes > 0.0);
        assert!(report.migration.energy.value() > 0.0);
        let latency = report.migration.latency.expect("migrations were priced");
        assert!(latency.p50.value() > 0.0);
        // The prefill replica records nothing (its requests complete on
        // the decode side) but did all the prefill work; the decode
        // replica records everything and paid no prefill.
        let prefill = &report.replicas[0];
        let decode = &report.replicas[1];
        assert!(prefill.records.is_empty());
        assert!(prefill.prefill_time.value() > 0.0);
        assert_eq!(decode.records.len(), 24);
        assert_eq!(decode.prefill_time.value(), 0.0);
        assert!(decode.tokens > 0);
        for r in decode.records.iter() {
            assert!(r.arrival.value() <= r.admitted.value());
            assert!(r.admitted.value() < r.first_token.value());
            assert!(r.first_token.value() <= r.finished.value());
            assert!(r.output_tokens > 0);
        }
        // No request id appears twice anywhere in the fleet.
        let mut ids: Vec<u64> = report.records().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 24);
    }

    /// Free-priced migration still migrates (counts increment) but
    /// moves zero bytes in zero time — and finishes no later than the
    /// fabric-priced fleet.
    #[test]
    fn free_migration_is_counted_but_unpriced() {
        let w = workload(6.0, 16);
        let spec = |pricing| {
            ClusterSpec::new(
                DesignKind::PimOnlyPapi,
                ModelPreset::Llama65B.config(),
                1,
                2,
            )
            .with_roles(vec![ReplicaRole::Prefill, ReplicaRole::Decode])
            .with_migration_pricing(pricing)
            .with_tuning(batch(8))
        };
        let free = ClusterEngine::new(spec(papi_interconnect::MigrationPricing::Free))
            .unwrap()
            .run(&w);
        let priced = ClusterEngine::new(spec(papi_interconnect::MigrationPricing::Fabric))
            .unwrap()
            .run(&w);
        assert_eq!(free.migration.migrations, 16);
        assert_eq!(free.migration.bytes, 0.0);
        assert_eq!(free.migration.latency.unwrap().max.value(), 0.0);
        assert_eq!(free.migration.pricing, "free");
        assert!(priced.migration.bytes > 0.0);
        assert!(
            free.makespan().value() <= priced.makespan().value() + 1e-12,
            "free migration cannot be slower: {} vs {}",
            free.makespan(),
            priced.makespan()
        );
    }

    /// Mixed fleets work too: a colocated replica both takes arrivals
    /// and absorbs migrations from the prefill replica.
    #[test]
    fn colocated_replica_absorbs_migrations_in_a_mixed_fleet() {
        let w = workload(8.0, 24);
        let report = ClusterEngine::new(
            ClusterSpec::new(
                DesignKind::PimOnlyPapi,
                ModelPreset::Llama65B.config(),
                1,
                2,
            )
            .with_roles(vec![ReplicaRole::Prefill, ReplicaRole::Colocated])
            .with_tuning(batch(8)),
        )
        .unwrap()
        .run(&w);
        assert_eq!(report.requests(), 24);
        // Everything the prefill replica admitted arrived by migration;
        // the colocated replica recorded the whole episode.
        assert_eq!(report.replicas[1].records.len(), 24);
        assert!(report.migration.migrations > 0);
    }

    /// Heterogeneous role designs: the prefill pool can run different
    /// hardware than the decode pool, visible per replica.
    #[test]
    fn role_designs_build_heterogeneous_replicas() {
        let engine = ClusterEngine::new(
            ClusterSpec::new(
                DesignKind::PimOnlyPapi,
                ModelPreset::Llama65B.config(),
                1,
                3,
            )
            .with_roles(vec![
                ReplicaRole::Prefill,
                ReplicaRole::Decode,
                ReplicaRole::Decode,
            ])
            .with_prefill_design(DesignKind::A100AttAcc),
        )
        .unwrap();
        let designs: Vec<_> = engine
            .replica_configs()
            .map(|config| config.design)
            .collect();
        assert_eq!(
            designs,
            vec![
                DesignKind::A100AttAcc,
                DesignKind::PimOnlyPapi,
                DesignKind::PimOnlyPapi,
            ]
        );
    }

    /// Malformed role vectors are rejected at construction.
    #[test]
    fn degenerate_role_fleets_rejected() {
        let model = ModelPreset::Llama65B.config();
        let base = |roles| {
            ClusterSpec::new(DesignKind::PimOnlyPapi, model.clone(), 1, 2).with_roles(roles)
        };
        // Length mismatch.
        assert!(ClusterEngine::new(base(vec![ReplicaRole::Prefill])).is_err());
        // Nowhere to decode.
        assert!(
            ClusterEngine::new(base(vec![ReplicaRole::Prefill, ReplicaRole::Prefill])).is_err()
        );
        // Nowhere to admit arrivals.
        assert!(ClusterEngine::new(base(vec![ReplicaRole::Decode, ReplicaRole::Decode])).is_err());
        // A valid split passes.
        assert!(ClusterEngine::new(base(vec![ReplicaRole::Prefill, ReplicaRole::Decode])).is_ok());
    }

    /// The deprecated per-knob shims still forward into the shared
    /// tuning, so pre-`SessionTuning` call sites behave identically.
    #[test]
    #[allow(deprecated)]
    fn deprecated_knob_shims_forward_to_tuning() {
        let model = ModelPreset::Llama65B.config();
        let spec = ClusterSpec::new(DesignKind::PimOnlyPapi, model, 1, 2)
            .with_max_batch(12)
            .with_kv_block_size(16)
            .with_prefix_sharing(true)
            .with_prefill_chunk(256);
        assert_eq!(
            spec.tuning,
            SessionTuning::default()
                .with_max_batch(12)
                .with_kv_block_size(16)
                .with_prefix_sharing(true)
                .with_prefill_chunk(256)
        );
    }

    /// A multi-turn long-context workload that thrashes each replica's
    /// hot pool (the `tiered_kv.rs` scenario scaled to a 2-replica
    /// fleet: double the rate so each replica sees the single-engine
    /// pressure).
    fn shared_tier_workload() -> ServingWorkload {
        ServingWorkload::poisson(
            ConversationDataset::multi_turn(DatasetKind::LongContext, 4096, 3),
            4.0,
            153,
        )
        .with_seed(23)
    }

    fn shared_tier_spec(shared: SharedTierSpec) -> ClusterSpec {
        ClusterSpec::new(
            DesignKind::PimOnlyPapi,
            ModelPreset::Gpt3_175B.config(),
            1,
            2,
        )
        .with_routing(PolicySpec::RoundRobin)
        .with_tuning(
            SessionTuning::default()
                .with_max_batch(16)
                .with_kv_block_size(16)
                .with_prefix_sharing(true)
                .with_kv_tier(crate::KvTierSpec::new(60_000)),
        )
        .with_shared_tier(shared)
    }

    /// The shared tier registers spilled records, so enabling it
    /// without a private capacity tier is a configuration error.
    #[test]
    fn shared_tier_requires_a_private_tier() {
        let spec = ClusterSpec::new(
            DesignKind::PimOnlyPapi,
            ModelPreset::Llama65B.config(),
            1,
            2,
        )
        .with_shared_tier(SharedTierSpec::new());
        let err = ClusterEngine::new(spec).unwrap_err();
        assert!(err.to_string().contains("kv_tier"), "{err}");
    }

    /// Round-robin scatters a conversation's turns across replicas, so
    /// a pressured fleet publishes spilled prefixes into the directory
    /// and re-materializes them across the fabric — with the wire
    /// traffic priced and attributed.
    #[test]
    fn shared_tier_publishes_and_fetches_across_replicas() {
        let report = ClusterEngine::new(shared_tier_spec(SharedTierSpec::new()))
            .unwrap()
            .run(&shared_tier_workload());
        let tier = report.global_tier.as_ref().expect("shared tier was on");
        assert!(tier.publishes > 0, "no prefixes registered: {tier:?}");
        assert!(tier.entries > 0);
        assert!(tier.resident_tokens > 0);
        assert!(tier.fetches > 0, "no cross-replica fetches: {tier:?}");
        assert!(tier.fetched_tokens > 0);
        assert!(tier.bytes > 0.0, "fetches must move priced bytes");
        assert!(tier.energy.value() > 0.0);
        let latency = tier.latency.as_ref().expect("fetches were priced");
        assert!(latency.p50.value() > 0.0);
        assert_eq!(tier.pricing, "InfiniBand-NDR", "defaults to inter-node");
        // The per-replica reports carry the same traffic: fleet
        // attribution is a sum, not a second charge.
        let remote_fetches: u64 = report.replicas.iter().map(|r| r.kv.remote_fetches).sum();
        let remote_tokens: u64 = report
            .replicas
            .iter()
            .map(|r| r.kv.remote_fetched_tokens)
            .sum();
        assert_eq!(remote_fetches, tier.fetches);
        assert_eq!(remote_tokens, tier.fetched_tokens);
    }

    /// The `TierPricing::Free` ablation: fetches still count (the
    /// sharing happens) but cross the fabric for free — zero bytes,
    /// zero wire time, zero energy.
    #[test]
    fn free_shared_tier_is_counted_but_unpriced() {
        let report = ClusterEngine::new(shared_tier_spec(
            SharedTierSpec::new().with_pricing(TierPricing::Free),
        ))
        .unwrap()
        .run(&shared_tier_workload());
        let tier = report.global_tier.as_ref().expect("shared tier was on");
        assert_eq!(tier.pricing, "free");
        assert!(tier.fetches > 0, "ablation must still share: {tier:?}");
        assert_eq!(tier.bytes, 0.0);
        assert_eq!(tier.energy, Energy::ZERO);
        assert_eq!(tier.latency.as_ref().unwrap().max.value(), 0.0);
    }
}
