//! The traced run: per-layer metrics from spans recorded around the
//! public seams, the memo and step-mode ablations, and the tracing
//! overhead against untraced episodes of the same process.

use crate::seams::{
    drive_session, self_times, write_spans, AdmissionCounts, Span, TimedAdmission, TimedAutoscale,
    TimedMigrate, TimedRoute, Tracer,
};
use crate::stats::{median, rank_percentile, slope};
use crate::workloads::{Engine, Name, Report, Setup};
use crate::{
    checked, host_threads, metric, outcome, require_digest, timed, Clock, Episode, Metric, Outcome,
    SetupClock, Timing,
};
use papi_core::pricer::SharedIterationCache;
use papi_core::{ClusterReport, ServingEngine, StepMode};
use papi_workload::Router;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Traced-and-untraced episode pairs a run makes at least.
const MIN_PAIRS: usize = 3;
/// Share of the run's seconds the traced/untraced pairs get when the
/// workload also runs an ablation.
const PAIR_SHARE: f64 = 0.6;

/// Which seams a traced episode wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Seam {
    /// `open_session`/`push`/`step`/`into_report` plus the admission
    /// policy, on a single replica.
    Session,
    /// The route and migration policies, via `run_with_policies`.
    Policies,
    /// The autoscaling policy, via `run_elastic`.
    Elastic,
}

/// Spans of every traced episode of one kind, pooled by layer name.
#[derive(Debug, Default)]
struct Pool {
    episodes: u64,
    episode_ns: u64,
    episode_self_ns: u64,
    durations: BTreeMap<&'static str, Vec<u64>>,
    self_ns: BTreeMap<&'static str, u64>,
}

impl Pool {
    fn add(&mut self, spans: &[Span]) {
        self.episodes += 1;
        for (span, self_ns) in spans.iter().zip(self_times(spans)) {
            if span.name == "episode" {
                self.episode_ns += span.duration_ns();
                self.episode_self_ns += self_ns;
            } else {
                self.durations
                    .entry(span.name)
                    .or_default()
                    .push(span.duration_ns());
                *self.self_ns.entry(span.name).or_default() += self_ns;
            }
        }
    }

    fn samples(&self, name: &str) -> &[u64] {
        self.durations.get(name).map_or(&[], Vec::as_slice)
    }

    fn per_episode(&self, value: f64) -> f64 {
        if self.episodes == 0 {
            0.0
        } else {
            value / self.episodes as f64
        }
    }

    fn calls(&self, name: &str) -> f64 {
        self.per_episode(self.samples(name).len() as f64)
    }

    fn busy_ns(&self, name: &str) -> u64 {
        self.samples(name).iter().sum()
    }

    fn busy_s(&self, name: &str) -> f64 {
        self.per_episode(self.busy_ns(name) as f64 / 1e9)
    }

    fn busy_share(&self, name: &str) -> f64 {
        if self.episode_ns == 0 {
            0.0
        } else {
            self.busy_ns(name) as f64 / self.episode_ns as f64
        }
    }

    fn percentile_ns(&self, name: &str, p: f64) -> f64 {
        rank_percentile(&mut self.samples(name).to_vec(), p) as f64
    }

    /// Share of episode time outside every timed child of the episode.
    fn episode_self_share(&self) -> f64 {
        if self.episode_ns == 0 {
            1.0
        } else {
            self.episode_self_ns as f64 / self.episode_ns as f64
        }
    }
}

/// The benchmark's traced handles for one workload.
struct Traced<'a> {
    setup: &'a Setup,
    tracer: Arc<Tracer>,
    admission: Arc<AdmissionCounts>,
    /// The replica engine with the timing admission policy installed.
    replica: Option<ServingEngine>,
}

impl<'a> Traced<'a> {
    fn new(setup: &'a Setup) -> Self {
        let tracer = Arc::new(Tracer::new());
        let admission = Arc::new(AdmissionCounts::default());
        let replica = match &setup.engine {
            Engine::Replica(engine) => {
                Some(engine.clone().with_admission_policy(TimedAdmission::new(
                    engine.tuning().admission.build(),
                    Arc::clone(&tracer),
                    Arc::clone(&admission),
                )))
            }
            Engine::Fleet(_) => None,
        };
        Self {
            setup,
            tracer,
            admission,
            replica,
        }
    }

    /// Runs one episode with `seam` wrapped; returns the report, its wall
    /// and CPU seconds, its spans and, for routed episodes, the VmRSS
    /// samples.
    fn episode(&self, seam: Seam) -> (Report, Timing, Vec<Span>, Vec<(f64, f64)>) {
        let tracer = self.tracer.as_ref();
        let workload = &self.setup.workload;
        let mut rss = Vec::new();
        let (report, time) = timed(|| match (seam, &self.setup.engine) {
            (Seam::Session, Engine::Replica(_)) => {
                let engine = self.replica.as_ref().expect("built for replica workloads");
                Report::Replica(drive_session(engine, workload, Some(tracer), None))
            }
            (Seam::Policies, Engine::Fleet(fleet)) => {
                let mut route = TimedRoute::new(Router::new(fleet.spec().routing), tracer);
                let mut migrate = TimedMigrate {
                    inner: fleet.spec().migration.build(),
                    tracer,
                };
                let span = tracer.enter("episode", None);
                let report = fleet.run_with_policies(workload, &mut route, &mut migrate);
                tracer.exit(span);
                rss = route.rss;
                Report::Fleet(report)
            }
            (Seam::Elastic, Engine::Fleet(fleet)) => {
                let spec = fleet.spec().autoscale.as_ref().expect("elastic fleet");
                let mut autoscale = TimedAutoscale {
                    inner: spec.policy.build(),
                    tracer,
                };
                let span = tracer.enter("episode", None);
                let report = fleet.run_elastic(workload, &mut autoscale);
                tracer.exit(span);
                Report::Fleet(report)
            }
            _ => unreachable!("seams are chosen per engine kind"),
        });
        (report, time, tracer.take(), rss)
    }
}

fn untraced(setup: &Setup) -> (Report, Episode) {
    let (mut report, time) = timed(|| setup.episode());
    let episode = checked(setup, &mut report, time);
    (report, episode)
}

/// What the ablations measured.
#[derive(Debug, Default)]
struct Ablations {
    distinct_shapes: usize,
    memo_saving_s: f64,
    seq_over_par: f64,
    note: String,
}

/// Pricer memo, cold against pre-warmed, on the single replica: fresh
/// memo first (its size is the distinct shapes), then cold and warm
/// sessions alternate until `deadline`.
fn memo_ablation(setup: &Setup, deadline: Instant, episodes: &mut Vec<Episode>) -> Ablations {
    let Engine::Replica(engine) = &setup.engine else {
        unreachable!("memo ablation runs on the replica workload")
    };
    let memo = Arc::new(SharedIterationCache::new());
    let session = |memo: Option<&Arc<SharedIterationCache>>| {
        let (mut report, time) =
            timed(|| Report::Replica(drive_session(engine, &setup.workload, None, memo)));
        checked(setup, &mut report, time)
    };
    episodes.push(session(Some(&memo)));
    let distinct_shapes = memo.len();
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    while cold.len() < 2 || Instant::now() < deadline {
        let e = session(None);
        cold.push(e.time.cpu_s);
        episodes.push(e);
        let e = session(Some(&memo));
        warm.push(e.time.cpu_s);
        episodes.push(e);
    }
    Ablations {
        distinct_shapes,
        memo_saving_s: median(&cold) - median(&warm),
        note: format!(
            "CPU seconds: cold median {:.4}, warm median {:.4}, {} pairs",
            median(&cold),
            median(&warm),
            cold.len()
        ),
        ..Ablations::default()
    }
}

/// `Sequential` against `Parallel` fleet stepping, alternating until
/// `deadline`.
fn step_mode_ablation(setup: &Setup, deadline: Instant, episodes: &mut Vec<Episode>) -> Ablations {
    let sequential = setup
        .fleet_in_mode(StepMode::Sequential)
        .expect("step-mode ablation runs on a fleet");
    let (mut seq, mut par) = (Vec::new(), Vec::new());
    while seq.len() < 2 || Instant::now() < deadline {
        let (mut report, time) = timed(|| Report::Fleet(sequential.run(&setup.workload)));
        seq.push(time);
        episodes.push(checked(setup, &mut report, time));
        let (_, e) = untraced(setup);
        par.push(e.time);
        episodes.push(e);
    }
    let wall = |t: &[Timing]| median(&t.iter().map(|t| t.wall_s).collect::<Vec<_>>());
    let cpu = |t: &[Timing]| median(&t.iter().map(|t| t.cpu_s).collect::<Vec<_>>());
    Ablations {
        seq_over_par: wall(&seq) / wall(&par),
        note: format!(
            "wall-clock: Sequential median {:.4} s, Parallel {:.4} s; CPU: {:.4} s, {:.4} s; \
             {} pairs, {} host threads",
            wall(&seq),
            wall(&par),
            cpu(&seq),
            cpu(&par),
            seq.len(),
            host_threads()
        ),
        ..Ablations::default()
    }
}

pub fn run_traced(name: Name, seed: u64, seconds: u64) -> Outcome {
    let mut clock = SetupClock::new(name, seed, seconds);
    let setup = clock.build();
    let traced = Traced::new(&setup);
    let seams: &[Seam] = match name {
        Name::ReplicaChatTiered => &[Seam::Session],
        Name::ElasticDay => &[Seam::Policies, Seam::Elastic],
        Name::Fleet64Burst | Name::DisaggSharedTier => &[Seam::Policies],
    };
    let has_ablation = matches!(name, Name::ReplicaChatTiered | Name::Fleet64Burst);
    let total = Duration::from_secs(seconds);
    let start = Instant::now();
    let pair_budget = if has_ablation {
        total.mul_f64(PAIR_SHARE)
    } else {
        total
    };

    // Traced episode first in each pair, so the first routed episode
    // samples VmRSS growing from the set-up's footprint alone.
    let mut episodes = Vec::new();
    let mut pools: BTreeMap<Seam, Pool> = BTreeMap::new();
    let (mut traced_cpu, mut untraced_cpu) = (Vec::new(), Vec::new());
    let mut rss = Vec::new();
    let mut last_spans: BTreeMap<Seam, Vec<Span>> = BTreeMap::new();
    let mut reference = None;
    let mut reference_digest = 0;
    let mut pairs = 0;
    while pairs < MIN_PAIRS.max(seams.len()) || start.elapsed() < pair_budget {
        let seam = seams[pairs % seams.len()];
        let (mut report, time, spans, samples) = traced.episode(seam);
        if rss.is_empty() {
            rss = samples;
        }
        pools.entry(seam).or_default().add(&spans);
        traced_cpu.push(time.cpu_s);
        episodes.push(checked(&setup, &mut report, time));
        last_spans.insert(seam, spans);
        let (report, e) = untraced(&setup);
        untraced_cpu.push(e.time.cpu_s);
        if reference.is_none() {
            reference = Some(report);
            reference_digest = e.digest;
        }
        episodes.push(e);
        clock.sample();
        pairs += 1;
    }
    let report = reference.expect("at least one pair ran");

    let ablations = match name {
        Name::ReplicaChatTiered => memo_ablation(&setup, start + total, &mut episodes),
        Name::Fleet64Burst => step_mode_ablation(&setup, start + total, &mut episodes),
        Name::ElasticDay | Name::DisaggSharedTier => Ablations::default(),
    };
    require_digest(&mut episodes, reference_digest, "the untraced episode's");

    let path = std::path::PathBuf::from(format!("simbench/traces/{}.tsv", name.as_str()));
    let header = format!("# workload {} seed {seed}", name.as_str());
    let trace_note = match write_spans(&path, &header, &last_spans) {
        Ok(()) => format!("each seam's last traced episode in {}", path.display()),
        Err(e) => format!("spans not written: {e}"),
    };

    let empty = Pool::default();
    let pool = |seam| pools.get(&seam).unwrap_or(&empty);
    let fleet_pool = pool(Seam::Policies);
    let session = pool(Seam::Session);
    let elastic = pool(Seam::Elastic);
    let self_share = 1.0
        - pools
            .values()
            .map(|p| 1.0 - p.episode_self_share())
            .sum::<f64>();
    let iterations = report.iterations();
    let untraced_cpu_median = median(&untraced_cpu);
    let admission = &traced.admission;
    let consulted = admission.consulted.load(Ordering::Relaxed) as f64;
    let accepted = admission.accepted.load(Ordering::Relaxed) as f64;
    let kv = report.kv();
    let sched = report
        .replicas()
        .iter()
        .fold((0u64, 0u64, 0u64), |(d, pim, sw), r| {
            (
                d + r.scheduler.decisions,
                pim + r.scheduler.fc_pim_decisions,
                sw + r.scheduler.switches,
            )
        });
    let (migrations, migration_p99_s, fabric_bytes) = match &report {
        Report::Fleet(ClusterReport {
            migration,
            global_tier,
            ..
        }) => (
            migration.migrations,
            migration.latency.map_or(0.0, |l| l.p99.as_secs()),
            migration.bytes + global_tier.as_ref().map_or(0.0, |g| g.bytes),
        ),
        Report::Replica(_) => (0, 0.0, 0.0),
    };
    let scale_events = match &report {
        Report::Fleet(ClusterReport {
            fleet_cost: Some(cost),
            ..
        }) => cost.scale_events.len(),
        _ => 0,
    };
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let route_samples = fleet_pool.samples("route").len();
    let step_samples = session.samples("serving.step").len();
    let self_note = pools
        .values()
        .flat_map(|p| {
            p.self_ns
                .iter()
                .map(move |(n, ns)| (n, p.per_episode(*ns as f64)))
        })
        .map(|(n, ns)| format!("{n} {:.4} s", ns / 1e9))
        .collect::<Vec<_>>()
        .join(", ");
    let (host, sim) = (Clock::Host, Clock::Sim);
    let metrics: Vec<Metric> = vec![
        metric("workload.gen_s", median(&clock.gen_s), "s", host)
            .note(format!("median of {} set-ups", clock.gen_s.len())),
        metric("route.calls", fleet_pool.calls("route"), "count", host),
        metric(
            "route.p50_ns",
            fleet_pool.percentile_ns("route", 0.5),
            "ns",
            host,
        )
        .note(format!("{route_samples} routes")),
        metric(
            "route.p99_ns",
            fleet_pool.percentile_ns("route", 0.99),
            "ns",
            host,
        )
        .note(format!("{route_samples} routes")),
        metric(
            "route.busy_share",
            fleet_pool.busy_share("route"),
            "share",
            host,
        ),
        metric("route.rss_mib_per_1k", slope(&rss), "MiB", host).note(format!(
            "{} VmRSS samples in the first routed episode",
            rss.len()
        )),
        metric("cluster.sim_iterations", iterations as f64, "count", sim),
        metric(
            "cluster.host_ns_per_iteration",
            ratio(untraced_cpu_median * 1e9, iterations as f64),
            "ns",
            host,
        )
        .note(format!(
            "untraced median CPU time over {} episodes",
            untraced_cpu.len()
        )),
        metric("cluster.self_share", self_share, "share", host)
            .note(format!("self time per episode: {self_note}")),
        metric(
            "cluster.seq_over_par",
            ablations.seq_over_par,
            "ratio",
            host,
        )
        .note(ablations.note.clone()),
        metric("cluster.host_threads", host_threads() as f64, "count", host),
        metric("migrate.calls", fleet_pool.calls("migrate"), "count", host),
        metric("migrate.busy_s", fleet_pool.busy_s("migrate"), "s", host),
        metric(
            "autoscale.decide.calls",
            elastic.calls("autoscale.decide"),
            "count",
            host,
        ),
        metric(
            "autoscale.decide.busy_s",
            elastic.busy_s("autoscale.decide"),
            "s",
            host,
        ),
        metric("autoscale.scale_events", scale_events as f64, "count", sim),
        metric(
            "serving.step.calls",
            session.calls("serving.step"),
            "count",
            host,
        ),
        metric(
            "serving.step.p50_ns",
            session.percentile_ns("serving.step", 0.5),
            "ns",
            host,
        )
        .note(format!("{step_samples} steps")),
        metric(
            "serving.step.p99_ns",
            session.percentile_ns("serving.step", 0.99),
            "ns",
            host,
        )
        .note(format!("{step_samples} steps")),
        metric(
            "serving.step.busy_share",
            session.busy_share("serving.step"),
            "share",
            host,
        ),
        metric("serving.push_s", session.busy_s("serving.push"), "s", host),
        metric(
            "serving.report_s",
            session.busy_s("serving.report"),
            "s",
            host,
        ),
        metric(
            "admission.admit.calls",
            session.per_episode(consulted),
            "count",
            host,
        ),
        metric(
            "admission.admit_ratio",
            ratio(accepted, consulted),
            "share",
            host,
        ),
        metric(
            "admission.preempt.calls",
            session.per_episode(admission.preempt_calls.load(Ordering::Relaxed) as f64),
            "count",
            host,
        ),
        metric(
            "admission.busy_s",
            session.busy_s("admission.admit") + session.busy_s("admission.preempt"),
            "s",
            host,
        ),
        metric(
            "pricer.distinct_shapes",
            ablations.distinct_shapes as f64,
            "count",
            sim,
        ),
        metric(
            "pricer.memo_hit_ratio",
            if ablations.distinct_shapes == 0 {
                0.0
            } else {
                1.0 - ratio(ablations.distinct_shapes as f64, iterations as f64)
            },
            "share",
            sim,
        ),
        metric("pricer.memo_saving_s", ablations.memo_saving_s, "s", host).note(
            if name == Name::ReplicaChatTiered {
                ablations.note.clone()
            } else {
                String::new()
            },
        ),
        metric(
            "kv.prefix_hit_ratio",
            ratio(kv.prefix_hits as f64, kv.prefix_lookups as f64),
            "share",
            sim,
        ),
        metric("kv.cached_token_share", kv.hit_rate(), "share", sim),
        metric(
            "kv.peak_blocks_in_use",
            kv.peak_blocks_in_use as f64,
            "count",
            sim,
        ),
        metric("kv.tier_spills", kv.tier_spills as f64, "count", sim),
        metric("kv.tier_fetches", kv.tier_fetches as f64, "count", sim),
        metric("kv.tier_evictions", kv.tier_evictions as f64, "count", sim),
        metric("kv.remote_fetches", kv.remote_fetches as f64, "count", sim),
        metric("sched.decisions", sched.0 as f64, "count", sim),
        metric(
            "sched.fc_pim_share",
            ratio(sched.1 as f64, sched.0 as f64),
            "share",
            sim,
        ),
        metric("sched.switches", sched.2 as f64, "count", sim),
        metric("interconnect.migrations", migrations as f64, "count", sim),
        metric("interconnect.migration_p99_s", migration_p99_s, "s", sim),
        metric("interconnect.bytes", fabric_bytes, "B", sim),
        metric(
            "trace.overhead_share",
            median(&traced_cpu) / untraced_cpu_median - 1.0,
            "share",
            host,
        )
        .note(format!(
            "{} traced vs {} untraced episodes; {trace_note}",
            traced_cpu.len(),
            untraced_cpu.len()
        )),
    ];
    outcome(metrics, &episodes)
}
