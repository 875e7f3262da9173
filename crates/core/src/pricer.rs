//! The hardware cost model, extracted from the decoding engine.
//!
//! An [`IterationPricer`] prices one decoding iteration of a
//! [`SystemConfig`]: the FC kernels on their assigned device (GPU
//! tensor cores or FC-PIM), the attention kernels on the memory-side
//! pool holding the KV cache, the interconnect legs, and the host
//! dispatch overhead. It is the *single* pricing implementation in the
//! workspace — the batch-mode paper-figure path
//! ([`DecodingSimulator`](crate::engine::DecodingSimulator)), the
//! online serving path ([`ServingEngine`](crate::serving::ServingEngine)),
//! and the SLO analysis ([`slo`](crate::slo)) all price through it, so
//! a change to the hardware math moves every consumer at once.

use crate::config::SystemConfig;
use crate::metrics::IterationCost;
use papi_gpu::{execute_kernel, GpuEnergyModel, KernelProfile, MultiGpu};
use papi_interconnect::Route;
use papi_llm::{FcKernel, FcKernelKind, ModelConfig, Parallelism};
use papi_pim::attention::{execute_attention_at, AttentionRates};
use papi_pim::gemv::execute_gemv;
use papi_pim::{AttentionSpec, GemvSpec, PimDevice};
use papi_sched::Placement;
use papi_types::{Bytes, Energy, Power, Time};
use papi_workload::IterationRecord;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::{Arc, Mutex};

/// Multiply-rotate hasher (Fx-style) for the pricing memos. Their keys
/// are a handful of machine words, where the default SipHash's keyed
/// setup costs more than the whole cache probe — and the memo lookup
/// sits on the per-iteration hot path of fleet simulation.
#[derive(Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x517c_c1b7_2722_0a95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.add(byte as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// FC-kernel latency of the whole model (all layers) on a PIM pool at
/// the given token count (`RLP × TLP`). Shared by the pricer and the
/// §5.2.1 α calibration so both see the same machine.
pub fn fc_latency_on_pim(
    model: &ModelConfig,
    device: &PimDevice,
    n_devices: usize,
    tokens: u64,
) -> Time {
    fc_cost_on_pim(model, device, n_devices, tokens).0
}

/// FC-kernel latency of the whole model on the GPU complement at the
/// given token count.
pub fn fc_latency_on_pu(
    model: &ModelConfig,
    gpus: &MultiGpu,
    energy: &GpuEnergyModel,
    tokens: u64,
) -> Time {
    fc_cost_on_pu(model, gpus, energy, tokens).0
}

/// (latency, energy) of all FC kernels on PIM.
pub fn fc_cost_on_pim(
    model: &ModelConfig,
    device: &PimDevice,
    n_devices: usize,
    tokens: u64,
) -> (Time, Energy) {
    let mut time = Time::ZERO;
    let mut energy = Energy::ZERO;
    for kernel in FcKernel::layer_kernels(model) {
        let spec = GemvSpec::new(kernel.out_features, kernel.in_features, tokens, model.dtype);
        let result = execute_gemv(device, n_devices, &spec);
        time += result.time;
        energy += result.energy.total();
    }
    (time * model.layers as f64, energy * model.layers as f64)
}

/// (latency, energy) of all FC kernels on the GPUs, Megatron-style
/// tensor parallelism: row-parallel kernels (the attention projection
/// and FFN down projection) all-reduce their `tokens × h` outputs.
pub fn fc_cost_on_pu(
    model: &ModelConfig,
    gpus: &MultiGpu,
    energy_model: &GpuEnergyModel,
    tokens: u64,
) -> (Time, Energy) {
    let p = Parallelism::new(tokens, 1);
    let mut time = Time::ZERO;
    let mut energy = Energy::ZERO;
    for kernel in FcKernel::layer_kernels(model) {
        let mut profile = KernelProfile::new(kernel.flops(p), kernel.bytes(model, p));
        if matches!(
            kernel.kind,
            FcKernelKind::Projection | FcKernelKind::FfnDown
        ) {
            profile = profile.with_allreduce((tokens * model.hidden) as f64 * model.dtype.size());
        }
        let result = execute_kernel(gpus, energy_model, &profile);
        time += result.time;
        energy += result.energy;
    }
    (time * model.layers as f64, energy * model.layers as f64)
}

/// The memo key a whole decoding iteration prices under: FC placement,
/// the batch shape `(rlp, tlp)`, and the per-request KV context length
/// the attention kernels see. [`IterationCost`] is a pure function of
/// these four (given a fixed [`SystemConfig`]) — the iteration's
/// `new_tokens` passes through to the cost verbatim and prices nothing.
pub type IterationKey = (Placement, u64, u64, u64);

/// A full-iteration cost memo shareable across sessions of identical
/// hardware — the fleet-scale analogue of the per-pricer shape memo.
///
/// A data-parallel fleet serves near-identical traffic on cloned
/// replicas, so the `(placement, batch shape, kv length)` tuples one
/// replica prices constantly recur on its siblings. The cluster engine
/// installs one shared cache per distinct replica design (via
/// [`crate::serving::ServingSession::install_pricer_cache`]) so each
/// distinct iteration shape is priced once fleet-wide. Hits return the
/// memoized cost bit for bit — pricing is a pure function of the key —
/// so sharing can never change a report.
/// The memo is two-level. Lookups land first in a fixed-size
/// direct-mapped lane of write-once slots — a probe there is one hash,
/// one slot read, and one key compare, with no lock — and fall back to
/// a mutex-guarded map that absorbs hash collisions. Slots are
/// [`OnceLock`](std::sync::OnceLock)s: the first session to price a
/// shape publishes it, racing writers compute the same pure function
/// and the loser's value is identical, so which write wins can never
/// change a report.
#[derive(Debug)]
pub struct SharedIterationCache {
    lane: Box<[std::sync::OnceLock<(IterationKey, IterationCost)>]>,
    overflow: Mutex<FxMap<IterationKey, IterationCost>>,
    entries: std::sync::atomic::AtomicUsize,
}

/// Direct-mapped lane size. Fleet episodes measure in the low
/// thousands of distinct iteration shapes; 2^16 slots keep the
/// collision (overflow) rate negligible at ~7 MiB per distinct design.
const LANE_SLOTS: usize = 1 << 16;

fn lane_index(key: &IterationKey) -> usize {
    use std::hash::{Hash, Hasher};
    let mut hasher = FxHasher::default();
    key.hash(&mut hasher);
    hasher.finish() as usize & (LANE_SLOTS - 1)
}

impl Default for SharedIterationCache {
    fn default() -> Self {
        Self {
            lane: (0..LANE_SLOTS)
                .map(|_| std::sync::OnceLock::new())
                .collect(),
            overflow: Mutex::new(FxMap::default()),
            entries: std::sync::atomic::AtomicUsize::new(0),
        }
    }
}

impl SharedIterationCache {
    /// An empty shared memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct iteration shapes priced so far.
    pub fn len(&self) -> usize {
        self.entries.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Whether no iteration has been priced yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The memoized cost of `key`, if some session already priced it.
    fn get(&self, key: &IterationKey) -> Option<IterationCost> {
        match self.lane[lane_index(key)].get() {
            Some((slot_key, cost)) if slot_key == key => Some(*cost),
            // An occupied slot holding a different key means a hash
            // collision: the latecomer lives in the overflow map.
            Some(_) => self
                .overflow
                .lock()
                .expect("pricer cache poisoned")
                .get(key)
                .copied(),
            None => None,
        }
    }

    /// Publishes `cost` for `key`. First writer wins the direct-mapped
    /// slot; a key whose slot another shape already claimed goes to the
    /// overflow map.
    fn insert(&self, key: IterationKey, cost: IterationCost) {
        let slot = &self.lane[lane_index(&key)];
        if slot.set((key, cost)).is_err() {
            let (slot_key, _) = slot.get().expect("occupied slot holds a value");
            if *slot_key != key {
                self.overflow
                    .lock()
                    .expect("pricer cache poisoned")
                    .insert(key, cost);
            } else {
                // Lost a publish race for the same key: the winner's
                // value is bit-identical, nothing to do.
                return;
            }
        }
        self.entries
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

/// The part of an iteration's cost fixed by its shape `(placement, rlp,
/// tlp)` and not by the KV length: the FC kernels, the interconnect
/// legs, and the attention device rates at reuse `tlp`.
#[derive(Debug, Clone, Copy)]
struct ShapeLegs {
    fc_time: Time,
    fc_energy: Energy,
    comm_time: Time,
    comm_energy: Energy,
    attn_rates: AttentionRates,
}

/// Stateful per-decode pricer over one [`SystemConfig`].
///
/// Pricing an iteration splits into legs fixed by its shape and
/// arithmetic that scales with the KV length. The pricer memoizes the
/// former per `(placement, rlp, tlp)`: the FC kernels' time and energy
/// (a function of `placement` and `rlp × tlp`), the interconnect time
/// and energy (the same), and the attention kernel's [`AttentionRates`]
/// (a function of the reuse level `tlp`). The design's constant host
/// dispatch time and powered-PIM static power are computed once, at
/// construction. A cold iteration then runs only the attention
/// arithmetic over its KV length. Every memoized value is the result of
/// the very computation a memo-less pricer would run, and the remaining
/// arithmetic keeps its operation order, so every [`IterationCost`] is
/// bit-identical to pricing from scratch. The memo holds at most one
/// entry per placement and batch shape, so it stays small.
///
/// A fleet-shared full-iteration memo ([`SharedIterationCache`]) can be
/// layered on top; its hits skip the pricer's arithmetic entirely.
#[derive(Debug, Clone)]
pub struct IterationPricer<'a> {
    config: &'a SystemConfig,
    shapes: FxMap<(Placement, u64, u64), ShapeLegs>,
    other_time: Time,
    static_power: Power,
    shared: Option<Arc<SharedIterationCache>>,
}

impl<'a> IterationPricer<'a> {
    /// Creates a pricer over `config` with an empty shape memo.
    pub fn new(config: &'a SystemConfig) -> Self {
        // Host dispatch / monitoring.
        let other_time =
            config.dispatch_per_layer * config.model.layers as f64 + config.dispatch_per_iteration;
        // Background power of the powered PIM pools.
        let (attn_device, attn_count) = &config.attn_pim;
        let mut static_power = attn_device.hbm.energy.background * *attn_count as f64;
        if let Some((fc_device, fc_count)) = &config.fc_pim {
            static_power += fc_device.hbm.energy.background * *fc_count as f64;
        }
        Self {
            config,
            shapes: FxMap::default(),
            other_time,
            static_power,
            shared: None,
        }
    }

    /// Installs a fleet-shared full-iteration memo. The caller is
    /// responsible for sharing a cache only between pricers of
    /// identical [`SystemConfig`]s — the key does not re-encode the
    /// hardware.
    pub fn set_shared_cache(&mut self, cache: Arc<SharedIterationCache>) {
        self.shared = Some(cache);
    }

    /// The priced system.
    pub fn config(&self) -> &SystemConfig {
        self.config
    }

    /// Prices one decoding iteration with the FC kernels at `placement`.
    ///
    /// # Panics
    ///
    /// Panics if `placement` names a device pool the design does not
    /// have (a scheduler bug, not a workload condition).
    pub fn price_iteration(&mut self, placement: Placement, it: &IterationRecord) -> IterationCost {
        papi_perf::phase!("price");
        let Some(shared) = self.shared.as_deref() else {
            return self.compute_iteration(placement, it);
        };
        let kv_per_request = it.total_kv_len.div_ceil(it.rlp).max(1);
        let key: IterationKey = (placement, it.rlp, it.tlp, kv_per_request);
        if let Some(hit) = shared.get(&key) {
            return IterationCost {
                new_tokens: it.new_tokens,
                ..hit
            };
        }
        let cost = self.compute_iteration(placement, it);
        self.shared
            .as_deref()
            .expect("shared cache checked above")
            .insert(key, cost);
        cost
    }

    fn compute_iteration(&mut self, placement: Placement, it: &IterationRecord) -> IterationCost {
        let config = self.config;
        let model = &config.model;
        let legs = *self
            .shapes
            .entry((placement, it.rlp, it.tlp))
            .or_insert_with(|| shape_legs(config, placement, it.rlp, it.tlp));

        // --- Attention: the only KV-length-dependent leg ---
        let kv_per_request = it.total_kv_len.div_ceil(it.rlp).max(1);
        let attn_spec = AttentionSpec::new(
            it.rlp,
            model.heads,
            model.head_dim(),
            kv_per_request,
            it.tlp,
            model.dtype,
        );
        let attn = execute_attention_at(&legs.attn_rates, config.attn_pim.1, &attn_spec);
        let attn_time = attn.time * model.layers as f64;
        let attn_energy = attn.energy.total() * model.layers as f64;

        // --- Static energy of powered PIM pools ---
        let iter_time = legs.fc_time + attn_time + legs.comm_time + self.other_time;
        let static_energy = self.static_power * iter_time;

        IterationCost {
            placement,
            fc_time: legs.fc_time,
            attn_time,
            comm_time: legs.comm_time,
            other_time: self.other_time,
            fc_energy: legs.fc_energy,
            attn_energy,
            comm_energy: legs.comm_energy,
            static_energy,
            new_tokens: it.new_tokens,
        }
    }
}

/// Prices the shape-fixed legs of an iteration of `rlp` requests at
/// speculation length `tlp` with the FC kernels at `placement`.
fn shape_legs(config: &SystemConfig, placement: Placement, rlp: u64, tlp: u64) -> ShapeLegs {
    let model = &config.model;
    let tokens = rlp * tlp;
    let (fc_time, fc_energy) = match placement {
        Placement::FcPim => {
            let (device, count) = config
                .fc_pim
                .as_ref()
                .expect("scheduler placed FC on PIM but the design has none");
            fc_cost_on_pim(model, device, *count, tokens)
        }
        Placement::Pu => {
            let gpus = config
                .gpus
                .as_ref()
                .expect("scheduler placed FC on the PU but the design has none");
            fc_cost_on_pu(model, gpus, &config.gpu_energy, tokens)
        }
    };
    let (comm_time, comm_energy) = comm_cost(config, placement, tokens);
    ShapeLegs {
        fc_time,
        fc_energy,
        comm_time,
        comm_energy,
        attn_rates: AttentionRates::of(&config.attn_pim.0, tlp, model.dtype),
    }
}

/// Interconnect time/energy of one iteration processing `tokens`
/// (`RLP × TLP`) tokens.
///
/// Attention traffic (Q vectors out, context vectors back) always
/// crosses to the disaggregated Attn-PIM pool; FC activation traffic
/// crosses NVLink only when the FC kernels run on FC-PIM. A
/// tensor-parallel group additionally all-reduces its row-parallel
/// FC outputs (attention projection + FFN down, `tokens × h` each)
/// over the inter-node fabric every layer — the
/// [`Route::TpAllReduce`] traffic class — regardless of where the
/// FC kernels ran.
fn comm_cost(config: &SystemConfig, placement: Placement, tokens: u64) -> (Time, Energy) {
    let model = &config.model;
    let topo = &config.topology;
    let layers = model.layers as f64;
    let dsize = model.dtype.size();

    let q_bytes = tokens as f64 * model.hidden as f64 * dsize.value();
    let attn_leg = topo.transfer_time(Route::PuToAttnPim, Bytes::new(q_bytes));
    let mut time = attn_leg * 2.0 * layers;
    let mut energy = topo.transfer_energy(Route::PuToAttnPim, Bytes::new(q_bytes)) * 2.0 * layers;

    if placement == Placement::FcPim {
        for kernel in FcKernel::layer_kernels(model) {
            let in_bytes = Bytes::new(tokens as f64 * kernel.in_features as f64 * dsize.value());
            let out_bytes = Bytes::new(tokens as f64 * kernel.out_features as f64 * dsize.value());
            time += (topo.transfer_time(Route::PuToFcPim, in_bytes)
                + topo.transfer_time(Route::PuToFcPim, out_bytes))
                * layers;
            energy += (topo.transfer_energy(Route::PuToFcPim, in_bytes)
                + topo.transfer_energy(Route::PuToFcPim, out_bytes))
                * layers;
        }
    }

    if let Some(tp) = &config.tp {
        let activation = Bytes::new(tokens as f64 * model.hidden as f64 * dsize.value());
        time += tp.fabric.all_reduce_time(activation, tp.degree) * 2.0 * layers;
        energy += tp.fabric.all_reduce_energy(activation, tp.degree) * 2.0 * layers;
    }
    (time, energy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use papi_llm::ModelPreset;

    fn record(rlp: u64, tlp: u64, kv: u64) -> IterationRecord {
        IterationRecord {
            rlp,
            tlp,
            total_kv_len: rlp * kv,
            max_kv_len: kv,
            new_tokens: rlp * tlp,
            finished: 0,
        }
    }

    #[test]
    fn memo_hit_equals_fresh_pricing() {
        let config = SystemConfig::pim_only_papi(ModelPreset::Llama65B.config());
        let mut pricer = IterationPricer::new(&config);
        let it = record(8, 2, 512);
        let first = pricer.price_iteration(Placement::FcPim, &it);
        let cached = pricer.price_iteration(Placement::FcPim, &it);
        assert_eq!(first, cached);
        let mut fresh = IterationPricer::new(&config);
        assert_eq!(fresh.price_iteration(Placement::FcPim, &it), first);
    }

    #[test]
    fn placement_changes_fc_and_comm_but_not_attention() {
        let config = SystemConfig::papi_with_alpha(ModelPreset::Llama65B.config(), 24.0);
        let mut pricer = IterationPricer::new(&config);
        let it = record(4, 1, 512);
        let on_pim = pricer.price_iteration(Placement::FcPim, &it);
        let on_pu = pricer.price_iteration(Placement::Pu, &it);
        assert_eq!(on_pim.attn_time, on_pu.attn_time);
        assert_ne!(on_pim.fc_time, on_pu.fc_time);
        // FC-PIM placement adds the PU↔FC-PIM activation legs.
        assert!(on_pim.comm_time.value() > on_pu.comm_time.value());
    }

    #[test]
    #[should_panic(expected = "design has none")]
    fn pricing_a_missing_pool_is_a_bug() {
        let config = SystemConfig::a100_attacc(ModelPreset::Llama65B.config());
        let mut pricer = IterationPricer::new(&config);
        let _ = pricer.price_iteration(Placement::FcPim, &record(4, 1, 128));
    }

    /// Reference pricing with nothing cached: FC kernels, interconnect
    /// legs, attention device rates and the design constants are all
    /// recomputed on every call. The memoized pricer must reproduce it
    /// bit for bit.
    fn reference_iteration(
        config: &SystemConfig,
        placement: Placement,
        it: &IterationRecord,
    ) -> IterationCost {
        let model = &config.model;
        let tokens = it.tokens_in_flight();
        let (fc_time, fc_energy) = match placement {
            Placement::FcPim => {
                let (device, count) = config.fc_pim.as_ref().unwrap();
                fc_cost_on_pim(model, device, *count, tokens)
            }
            Placement::Pu => {
                let gpus = config.gpus.as_ref().unwrap();
                fc_cost_on_pu(model, gpus, &config.gpu_energy, tokens)
            }
        };
        let kv_per_request = it.total_kv_len.div_ceil(it.rlp).max(1);
        let attn_spec = AttentionSpec::new(
            it.rlp,
            model.heads,
            model.head_dim(),
            kv_per_request,
            it.tlp,
            model.dtype,
        );
        let (attn_device, attn_count) = &config.attn_pim;
        let attn = papi_pim::attention::execute_attention(attn_device, *attn_count, &attn_spec);
        let attn_time = attn.time * model.layers as f64;
        let attn_energy = attn.energy.total() * model.layers as f64;
        let (comm_time, comm_energy) = reference_comm_cost(config, placement, it);
        let other_time =
            config.dispatch_per_layer * model.layers as f64 + config.dispatch_per_iteration;
        let iter_time = fc_time + attn_time + comm_time + other_time;
        let mut static_power = attn_device.hbm.energy.background * *attn_count as f64;
        if let Some((fc_device, fc_count)) = &config.fc_pim {
            static_power += fc_device.hbm.energy.background * *fc_count as f64;
        }
        let static_energy = static_power * iter_time;
        IterationCost {
            placement,
            fc_time,
            attn_time,
            comm_time,
            other_time,
            fc_energy,
            attn_energy,
            comm_energy,
            static_energy,
            new_tokens: it.new_tokens,
        }
    }

    fn reference_comm_cost(
        config: &SystemConfig,
        placement: Placement,
        it: &IterationRecord,
    ) -> (Time, Energy) {
        let model = &config.model;
        let topo = &config.topology;
        let layers = model.layers as f64;
        let tokens = it.tokens_in_flight();
        let dsize = model.dtype.size();
        let q_bytes = tokens as f64 * model.hidden as f64 * dsize.value();
        let attn_leg = topo.transfer_time(Route::PuToAttnPim, Bytes::new(q_bytes));
        let mut time = attn_leg * 2.0 * layers;
        let mut energy =
            topo.transfer_energy(Route::PuToAttnPim, Bytes::new(q_bytes)) * 2.0 * layers;
        if placement == Placement::FcPim {
            for kernel in FcKernel::layer_kernels(model) {
                let in_bytes =
                    Bytes::new(tokens as f64 * kernel.in_features as f64 * dsize.value());
                let out_bytes =
                    Bytes::new(tokens as f64 * kernel.out_features as f64 * dsize.value());
                time += (topo.transfer_time(Route::PuToFcPim, in_bytes)
                    + topo.transfer_time(Route::PuToFcPim, out_bytes))
                    * layers;
                energy += (topo.transfer_energy(Route::PuToFcPim, in_bytes)
                    + topo.transfer_energy(Route::PuToFcPim, out_bytes))
                    * layers;
            }
        }
        if let Some(tp) = &config.tp {
            let activation = Bytes::new(tokens as f64 * model.hidden as f64 * dsize.value());
            time += tp.fabric.all_reduce_time(activation, tp.degree) * 2.0 * layers;
            energy += tp.fabric.all_reduce_energy(activation, tp.degree) * 2.0 * layers;
        }
        (time, energy)
    }

    #[test]
    fn long_lived_pricer_is_bit_identical_to_the_reference() {
        // One pricer per design prices a long random record sequence
        // (RLP 1..64, TLP 1..8, KV 1..8192 per request, every placement
        // the design has), so most calls hit the shape memo filled by an
        // earlier shape-sharing record. Each call must equal a from-scratch
        // reference exactly. Shapes with equal RLP × TLP but different TLP
        // share FC and interconnect cost but not attention rates, so a
        // memo keyed by token count alone fails here.
        let model = ModelPreset::Llama65B.config();
        let papi = SystemConfig::papi_with_alpha(model.clone(), 24.0);
        let configs = [
            papi.clone(),
            SystemConfig::pim_only_papi(model.clone()),
            SystemConfig::a100_attacc(model),
            papi.with_tensor_parallel(2, papi_interconnect::LinkSpec::infiniband_ndr()),
        ];
        let mut rng = proptest::test_runner::TestRng::deterministic();
        let mut draw = |lo: u64, hi: u64| lo + rng.next_u64() % (hi - lo + 1);
        for config in &configs {
            let placements: Vec<Placement> = [Placement::FcPim, Placement::Pu]
                .into_iter()
                .filter(|p| match p {
                    Placement::FcPim => config.fc_pim.is_some(),
                    Placement::Pu => config.gpus.is_some(),
                })
                .collect();
            let mut pricer = IterationPricer::new(config);
            for _ in 0..3000 {
                let (rlp, tlp) = (draw(1, 64), draw(1, 8));
                let kv = draw(1, 8192);
                let it = IterationRecord {
                    rlp,
                    tlp,
                    // An uneven total exercises the per-request ceiling.
                    total_kv_len: rlp * kv + draw(0, rlp - 1),
                    max_kv_len: kv + 1,
                    new_tokens: draw(1, rlp * tlp),
                    finished: draw(0, rlp),
                };
                let placement = placements[draw(0, placements.len() as u64 - 1) as usize];
                assert_eq!(
                    pricer.price_iteration(placement, &it),
                    reference_iteration(config, placement, &it),
                    "{:?} {placement:?} {it:?}",
                    config.design
                );
            }
        }
    }

    #[test]
    fn shared_cache_hit_is_bit_identical_to_cold_pricing() {
        let config = SystemConfig::pim_only_papi(ModelPreset::Llama65B.config());
        let cache = Arc::new(SharedIterationCache::new());
        // Session A warms the cache; session B must read A's entries
        // and price every shape exactly as a cache-less pricer would.
        let mut warmer = IterationPricer::new(&config);
        warmer.set_shared_cache(Arc::clone(&cache));
        let mut reader = IterationPricer::new(&config);
        reader.set_shared_cache(Arc::clone(&cache));
        let mut cold = IterationPricer::new(&config);
        for rlp in 1..=8u64 {
            for kv in [64u64, 511, 512, 700, 2048] {
                let it = record(rlp, 1, kv);
                let warmed = warmer.price_iteration(Placement::FcPim, &it);
                let hit = reader.price_iteration(Placement::FcPim, &it);
                let fresh = cold.price_iteration(Placement::FcPim, &it);
                assert_eq!(warmed, fresh, "rlp={rlp} kv={kv}: first pricing drifted");
                assert_eq!(hit, fresh, "rlp={rlp} kv={kv}: cache hit drifted");
            }
        }
        assert_eq!(cache.len(), 8 * 5, "one entry per distinct shape");
    }

    #[test]
    fn shared_cache_hit_patches_new_tokens_from_the_live_record() {
        // `new_tokens` is pass-through accounting, not a cost input: two
        // iterations with the same (placement, rlp, tlp, kv/request) key
        // but different token counts share a memo entry, and a hit must
        // report the *current* record's tokens, not the warmer's.
        let config = SystemConfig::pim_only_papi(ModelPreset::Llama65B.config());
        let cache = Arc::new(SharedIterationCache::new());
        let mut pricer = IterationPricer::new(&config);
        pricer.set_shared_cache(Arc::clone(&cache));
        let mut warm = record(4, 2, 512);
        warm.new_tokens = 8;
        let warmed = pricer.price_iteration(Placement::FcPim, &warm);
        assert_eq!(warmed.new_tokens, 8);
        let mut reuse = warm;
        reuse.new_tokens = 5;
        reuse.finished = 3;
        let hit = pricer.price_iteration(Placement::FcPim, &reuse);
        assert_eq!(cache.len(), 1, "both records share one memo entry");
        assert_eq!(hit.new_tokens, 5, "hit must carry the live record's tokens");
        assert_eq!(
            IterationCost {
                new_tokens: hit.new_tokens,
                ..warmed
            },
            hit,
            "everything but the token count comes from the memo"
        );
    }

    #[test]
    fn shared_cache_counts_distinct_shapes_once() {
        let config = SystemConfig::pim_only_papi(ModelPreset::Llama65B.config());
        let cache = Arc::new(SharedIterationCache::new());
        assert!(cache.is_empty());
        let mut pricer = IterationPricer::new(&config);
        pricer.set_shared_cache(Arc::clone(&cache));
        let it = record(2, 1, 256);
        pricer.price_iteration(Placement::FcPim, &it);
        pricer.price_iteration(Placement::FcPim, &it);
        pricer.price_iteration(Placement::FcPim, &it);
        assert_eq!(cache.len(), 1, "re-pricing a shape must not recount it");
        pricer.price_iteration(Placement::FcPim, &record(3, 1, 256));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn shared_cache_survives_lane_collisions() {
        // Find two keys that hash to the same direct-mapped slot, insert
        // both, and check each reads back its own cost: the latecomer
        // must live in (and be found via) the overflow map, never alias
        // the slot winner's value.
        let config = SystemConfig::pim_only_papi(ModelPreset::Llama65B.config());
        let cache = Arc::new(SharedIterationCache::new());
        let mut pricer = IterationPricer::new(&config);
        pricer.set_shared_cache(Arc::clone(&cache));
        let mut slots: FxMap<usize, u64> = FxMap::default();
        let (kv_a, kv_b) = (1u64..)
            .find_map(|kv| {
                let key: IterationKey = (Placement::FcPim, 1, 1, kv);
                slots.insert(lane_index(&key), kv).map(|first| (first, kv))
            })
            .expect("2^16 slots collide within a few hundred keys");
        let cost_a = pricer.price_iteration(Placement::FcPim, &record(1, 1, kv_a));
        let cost_b = pricer.price_iteration(Placement::FcPim, &record(1, 1, kv_b));
        assert_eq!(cache.len(), 2, "the collision victim still counts");
        assert_ne!(
            cost_a.attn_time, cost_b.attn_time,
            "distinct KV lengths must price differently (attention is KV-linear)"
        );
        // Hits after the collision: each key returns its own cost.
        assert_eq!(
            pricer.price_iteration(Placement::FcPim, &record(1, 1, kv_a)),
            cost_a
        );
        assert_eq!(
            pricer.price_iteration(Placement::FcPim, &record(1, 1, kv_b)),
            cost_b
        );
    }
}
