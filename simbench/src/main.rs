//! The PAPI simulator benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path simbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload: it sets the workload up several
//! times, then runs episodes back to back (a closed loop with one
//! client) for `--seconds` host seconds, checking every episode's
//! report. `--trace 0` prints the end-to-end metrics; `--trace 1` wraps
//! the public seams in timing spans and prints the per-layer metrics.
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Lines before it, prefixed `#`, give sample counts, quartiles and the
//! host-versus-simulated label of every metric. See `README.md`.

mod layers;
mod seams;
mod stats;
mod workloads;

use stats::{median, proc_status_mib, process_cpu_s, quantile};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Name, Report, Setup};

/// Set-ups timed per run, spread evenly over its seconds; `setup_s` is
/// their median.
const SETUP_SAMPLES: u32 = 12;
/// Fewest timed episodes a run makes, however long they take.
const MIN_EPISODES: usize = 3;

struct Args {
    workload: Name,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Name::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Name::ALL.iter().map(|n| n.as_str()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(1..=120).contains(&s) {
                    return Err(format!("--seconds must be 1..=120, got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Whether a number is host time (what the simulator takes) or
/// simulated (what the modelled hardware takes).
#[derive(Debug, Clone, Copy)]
pub enum Clock {
    Host,
    Sim,
}

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
    /// Sample count and spread, printed on the `#` lines.
    pub note: String,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str, clock: Clock) -> Metric {
    Metric {
        name,
        value,
        unit,
        clock,
        note: String::new(),
    }
}

impl Metric {
    pub fn note(mut self, note: String) -> Self {
        self.note = note;
        self
    }
}

/// What a run prints on its last line.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// One episode's timing and the result of its checks.
pub struct Episode {
    pub time: Timing,
    pub digest: u64,
    pub error: Option<String>,
}

/// Set-up timing spread over the run. The host's speed drifts within a
/// second, so set-ups timed back to back at the start of a run would see
/// a different host than the episodes; one set-up timed every
/// `seconds / SETUP_SAMPLES` sees the same one.
pub struct SetupClock {
    name: Name,
    seed: u64,
    interval: Duration,
    next: Instant,
    /// Process CPU seconds of each timed set-up.
    pub setup_s: Vec<f64>,
    /// Host seconds each set-up spent in `ServingWorkload::requests()`.
    pub gen_s: Vec<f64>,
}

impl SetupClock {
    pub fn new(name: Name, seed: u64, seconds: u64) -> Self {
        Self {
            name,
            seed,
            interval: Duration::from_secs(seconds) / SETUP_SAMPLES,
            next: Instant::now(),
            setup_s: Vec::new(),
            gen_s: Vec::new(),
        }
    }

    /// Builds and times one set-up, in process CPU seconds.
    pub fn build(&mut self) -> Setup {
        let start = process_cpu_s();
        let setup = workloads::setup(self.name, self.seed);
        self.setup_s.push(process_cpu_s() - start);
        self.gen_s.push(setup.gen_s);
        self.next = Instant::now() + self.interval;
        setup
    }

    /// Times one more set-up, and drops it, once the interval has passed.
    pub fn sample(&mut self) {
        if Instant::now() >= self.next {
            drop(self.build());
        }
    }
}

/// Runs episodes back to back until `budget` has passed and at least
/// `MIN_EPISODES` ran, checking each report and letting `clock` time its
/// set-ups in between. Returns the episodes with the first report and the
/// process's VmHWM right after the first episode, before any report was
/// digested.
fn timed_episodes(
    setup: &Setup,
    clock: &mut SetupClock,
    budget: Duration,
) -> (Vec<Episode>, Report, f64) {
    let deadline = Instant::now() + budget;
    let mut episodes = Vec::new();
    let mut first = None;
    let mut peak_rss_mib = 0.0;
    loop {
        let (mut report, time) = timed(|| setup.episode());
        if first.is_none() {
            peak_rss_mib = proc_status_mib("VmHWM").unwrap_or(0.0);
        }
        episodes.push(checked(setup, &mut report, time));
        first.get_or_insert(report);
        clock.sample();
        if episodes.len() >= MIN_EPISODES && Instant::now() >= deadline {
            break;
        }
    }
    (episodes, first.expect("at least one episode"), peak_rss_mib)
}

/// An episode's host time.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub wall_s: f64,
    /// Process CPU seconds: every thread's user and system time.
    pub cpu_s: f64,
}

/// Runs `episode`, returning its report with its host time.
pub fn timed<T>(episode: impl FnOnce() -> T) -> (T, Timing) {
    let (wall, cpu) = (Instant::now(), process_cpu_s());
    let report = episode();
    let time = Timing {
        wall_s: wall.elapsed().as_secs_f64(),
        cpu_s: process_cpu_s() - cpu,
    };
    (report, time)
}

/// Checks one episode's report and digests it.
pub fn checked(setup: &Setup, report: &mut Report, time: Timing) -> Episode {
    Episode {
        time,
        error: setup.check(report).err(),
        digest: report.digest(),
    }
}

/// Marks every episode whose report differs from `reference`.
pub fn require_digest(episodes: &mut [Episode], reference: u64, what: &str) {
    for e in episodes.iter_mut().filter(|e| e.digest != reference) {
        e.error
            .get_or_insert_with(|| format!("report differs from {what}"));
    }
}

fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run_untraced(name: Name, seed: u64, seconds: u64) -> Outcome {
    let mut clock = SetupClock::new(name, seed, seconds);
    let setup = clock.build();
    let (mut episodes, report, peak_rss_mib) =
        timed_episodes(&setup, &mut clock, Duration::from_secs(seconds));
    let setup_s = clock.setup_s;
    let first = episodes[0].digest;
    require_digest(&mut episodes, first, "the first episode's");
    if name == Name::Fleet64Burst {
        let sequential = setup
            .fleet_in_mode(papi_core::StepMode::Sequential)
            .expect("fleet64_burst runs a fleet");
        let reference = Report::Fleet(sequential.run(&setup.workload)).digest();
        require_digest(&mut episodes, reference, "the Sequential-mode report");
    }

    let tokens = report.tokens() as f64;
    let per_cpu_s: Vec<f64> = episodes.iter().map(|e| tokens / e.time.cpu_s).collect();
    let per_wall_s: Vec<f64> = episodes.iter().map(|e| tokens / e.time.wall_s).collect();
    let (ttft, tpot) = report.latency_summaries();
    let requests = format!("{} requests", report.records().len());
    let metrics = vec![
        metric(
            "sim_tokens_per_host_s",
            median(&per_cpu_s),
            "tok/s",
            Clock::Host,
        )
        .note(format!(
            "per process CPU second, median of {} episodes of {tokens} simulated tokens, \
             quartiles {}; per wall-clock second: median {:.1}, quartiles {}",
            episodes.len(),
            quartiles(&per_cpu_s),
            median(&per_wall_s),
            quartiles(&per_wall_s),
        )),
        metric("peak_rss_mib", peak_rss_mib, "MiB", Clock::Host).note(format!(
            "VmHWM after the set-ups and the first episode; {:.1} MiB at the end of the run",
            proc_status_mib("VmHWM").unwrap_or(0.0)
        )),
        metric("setup_s", median(&setup_s), "s", Clock::Host).note(format!(
            "process CPU seconds, median of {} set-ups spread over the run",
            setup_s.len()
        )),
        metric("sim_ttft_p50_s", ttft.p50.as_secs(), "s", Clock::Sim).note(requests.clone()),
        metric("sim_ttft_p99_s", ttft.p99.as_secs(), "s", Clock::Sim).note(requests.clone()),
        metric("sim_tpot_p99_ms", tpot.p99.as_millis(), "ms", Clock::Sim).note(requests),
        metric(
            "sim_goodput_rps",
            report.goodput(&setup.slo),
            "req/s",
            Clock::Sim,
        )
        .note(format!(
            "SLO: TTFT <= {} s, TPOT <= {} ms",
            setup.slo.ttft.as_secs(),
            setup.slo.tpot.as_millis()
        )),
        metric(
            "sim_energy_per_token_j",
            report.energy_j() / tokens,
            "J/tok",
            Clock::Sim,
        ),
        metric("sim_replica_hours", report.replica_hours(), "h", Clock::Sim),
    ];
    outcome(metrics, &episodes)
}

fn quartiles(values: &[f64]) -> String {
    format!(
        "{:.1}..{:.1}",
        quantile(values, 0.25),
        quantile(values, 0.75)
    )
}

/// The result line's counts for `episodes`; each failure's reason goes
/// to stderr.
pub fn outcome(metrics: Vec<Metric>, episodes: &[Episode]) -> Outcome {
    let mut failed = 0;
    for (i, e) in episodes.iter().enumerate() {
        if let Some(error) = &e.error {
            eprintln!("episode {i} failed its check: {error}");
            failed += 1;
        }
    }
    Outcome {
        attempted: episodes.len() as u64,
        failed,
        metrics,
    }
}

fn print_outcome(args: &Args, outcome: &Outcome) {
    println!(
        "# workload {} seed {} seconds {} trace {} host_threads {}",
        args.workload.as_str(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_threads()
    );
    for m in &outcome.metrics {
        let clock = match m.clock {
            Clock::Host => "host",
            Clock::Sim => "simulated",
        };
        println!(
            "# {:<32} {:>16.6} {:<6} [{clock}] {}",
            m.name, m.value, m.unit, m.note
        );
    }
    let correct = outcome.failed == 0 && outcome.metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            // Non-finite values are not JSON; `correct` is already false.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("simbench: {msg}");
            eprintln!("usage: simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        layers::run_traced(args.workload, args.seed, args.seconds)
    } else {
        run_untraced(args.workload, args.seed, args.seconds)
    };
    print_outcome(&args, &outcome);
    ExitCode::SUCCESS
}
