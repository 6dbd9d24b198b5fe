//! `serve_ingest`: the release service behind `sgf_serve::serve` with two
//! workers, loaded over two client connections with streamed generates
//! mixed with updates.
//!
//! The end-to-end metrics come from a closed loop: each connection sends its
//! next request when the previous one has been answered.  The traced run
//! adds an open-loop rate ladder, whose highest rate within the latency
//! limit and whose generator lag it reports as per-layer figures.

use crate::layers;
use crate::loadgen::{self, Done, Op, Pace, Scheduled, Shape, StepPlan};
use crate::report::{Metrics, Outcome};
use crate::spans::Recorder;
use crate::stats::{self, median, quantile, sorted, StepOutcome, Windows};
use crate::workload::{dataset_after, dataset_delta, Delta, DeltaChain, Inputs, Workload};
use crate::{peak_rss_mb, Args};
use sgf_core::{GenerateRequest, MechanismStats, SynthesisSession};
use sgf_data::Record;
use sgf_serve::json::Value;
use sgf_serve::{serve, Client, ServeConfig, ServerHandle, SessionEntry};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The served session's name.
const SESSION: &str = "bench";
/// Load connections.
const CONNECTIONS: usize = 2;
/// Server workers (the benchmark box has two cores).
const WORKERS: usize = 2;
/// Every `SAMPLE_EVERY`-th request keeps its response for the output check
/// and the per-layer response statistics.
const SAMPLE_EVERY: u64 = 16;
/// Sampled responses up to this session epoch are checked against the
/// in-process update chain, which the check replays up to here.
const CHECKED_EPOCHS: u64 = 200;
/// Sampled responses past [`CHECKED_EPOCHS`] checked against a retrain on
/// their epoch's dataset, taken by stride over the rest of the run.
const LATE_CHECKS: usize = 16;
/// Generates per time window of the end-to-end metrics: ten lie beyond
/// each window's p99.
const MIN_GENERATES_PER_WINDOW: usize = 1_000;
/// Updates the update latency percentiles are taken over (per window).
const MIN_UPDATES: usize = 100;
/// Ascending offered rates of the traced run's open-loop ladder, req/s.
const LADDER: [f64; 5] = [25.0, 50.0, 100.0, 150.0, 200.0];
/// p99 latency limit of `max_rate_rps` and of the ladder, ms.
const P99_LIMIT_MS: f64 = 50.0;
/// One request in this many on each connection is an update.
const UPDATE_EVERY: usize = 5;
/// An upper bound on the closed-loop rate, req/s, to size the requests
/// drawn before timing.
const CLOSED_RPS_BOUND: f64 = 3_000.0;
/// Set-ups repeat until they have taken this long (and at least
/// `MIN_SETUPS` times); `setup_s` is their median.
pub const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// The fewest set-ups `setup_s` is the median of.
pub const MIN_SETUPS: usize = 7;

/// Whether another set-up is due after `done` of them since `start`.
pub fn more_setups(done: usize, start: Instant) -> bool {
    done < MIN_SETUPS || start.elapsed() < SETUP_BUDGET
}

/// One step of the run, drawn before timing starts.
pub struct Step {
    /// Offered rate, req/s (0 for a closed loop).
    pub rate: f64,
    /// Open or closed loop.
    pub pace: Pace,
    /// Record spans around each request.
    pub traced: bool,
    /// One schedule per connection.
    pub schedules: Vec<Vec<Scheduled>>,
}

/// Draws everything the run sends, in a fixed order.
struct Draw<'a> {
    inputs: &'a mut Inputs,
    chains: Vec<DeltaChain>,
    deltas: Vec<Vec<Delta>>,
    next_id: u64,
    sent_per_lane: Vec<usize>,
}

impl Draw<'_> {
    fn op(&mut self, lane: usize) -> Op {
        let index = self.sent_per_lane[lane];
        self.sent_per_lane[lane] += 1;
        if index % UPDATE_EVERY == UPDATE_EVERY - 1 {
            // One delta per update slot: enough for every update the
            // connection can send, in chain order.
            let delta = self.chains[lane].next(self.inputs);
            self.deltas[lane].push(delta);
            return Op::Update(0);
        }
        Op::Generate(self.inputs.request_seed())
    }

    fn lane(&mut self, lane: usize, dues: Vec<Duration>) -> Vec<Scheduled> {
        dues.into_iter()
            .map(|due| {
                self.next_id += 1;
                Scheduled {
                    id: self.next_id,
                    due,
                    op: self.op(lane),
                }
            })
            .collect()
    }

    /// An open-loop step at `rate` for `seconds`.
    fn open(&mut self, rate: f64, seconds: f64) -> Step {
        let schedules = (0..CONNECTIONS)
            .map(|lane| {
                let seed = self.inputs.request_seed();
                let dues = loadgen::poisson_times(rate / CONNECTIONS as f64, seconds, seed);
                self.lane(lane, dues)
            })
            .collect();
        Step {
            rate,
            pace: Pace::Open,
            traced: false,
            schedules,
        }
    }

    /// A closed-loop step of `seconds`.
    fn closed(&mut self, seconds: f64, traced: bool) -> Step {
        let per_lane = (CLOSED_RPS_BOUND * seconds / CONNECTIONS as f64) as usize + 10;
        let schedules = (0..CONNECTIONS)
            .map(|lane| self.lane(lane, vec![Duration::ZERO; per_lane]))
            .collect();
        Step {
            rate: 0.0,
            pace: Pace::Closed(Duration::from_secs_f64(seconds)),
            traced,
            schedules,
        }
    }
}

/// Train and bind until [`more_setups`] says stop.  Returns the last server,
/// still serving, the set-up times and the train times.
fn set_up(inputs: &Inputs) -> (ServerHandle, Vec<f64>, Vec<f64>) {
    let mut seconds = Vec::new();
    let mut train_s = Vec::new();
    let mut server: Option<ServerHandle> = None;
    let begun = Instant::now();
    while more_setups(seconds.len(), begun) {
        if let Some(previous) = server.take() {
            previous.shutdown();
            previous.join().expect("the server drains and joins");
        }
        let start = Instant::now();
        let session = inputs.train();
        train_s.push(start.elapsed().as_secs_f64());
        // Uncapped: δ composes linearly, so any cap admits at most about
        // 1/δ releases, fewer than one run serves.
        let config = ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        };
        let entry = SessionEntry::new(session).named(SESSION);
        server = Some(serve(config, vec![entry]).expect("the server binds a loopback port"));
        seconds.push(start.elapsed().as_secs_f64());
    }
    (server.expect("at least one set-up"), seconds, train_s)
}

/// Server-side counters and the job timer, from the `metrics` verb.
#[derive(Debug, Clone, Copy, Default)]
struct ServerCounters {
    admitted: u64,
    folded: u64,
    rejected: u64,
    jobs: u64,
    job_nanos: u64,
}

impl ServerCounters {
    fn read(control: &mut Client) -> ServerCounters {
        let line = control
            .metrics(None, true)
            .expect("the metrics verb answers");
        let metrics = line.get("metrics").cloned().unwrap_or(Value::Null);
        let counter = |name: &str| {
            metrics
                .get("counters")
                .and_then(|c| c.get(name))
                .and_then(Value::as_u64)
                .unwrap_or(0)
        };
        let job = metrics.get("timers").and_then(|t| t.get("serve.job"));
        let job_field = |key: &str| {
            job.and_then(|j| j.get(key))
                .and_then(Value::as_u64)
                .unwrap_or(0)
        };
        ServerCounters {
            admitted: counter("serve.admitted"),
            folded: counter("serve.folded_requests"),
            rejected: counter("serve.rejected_queue_full") + counter("serve.rejected_budget"),
            jobs: job_field("count"),
            job_nanos: job_field("total_nanos"),
        }
    }

    fn since(self, before: ServerCounters) -> ServerCounters {
        ServerCounters {
            admitted: self.admitted - before.admitted,
            folded: self.folded - before.folded,
            rejected: self.rejected - before.rejected,
            jobs: self.jobs - before.jobs,
            job_nanos: self.job_nanos - before.job_nanos,
        }
    }
}

/// One executed step.
pub struct Ran {
    /// The step's ladder summary.
    pub outcome: StepOutcome,
    /// Every request.
    pub done: Vec<Done>,
    /// Server counter deltas over the step.
    server: ServerCounters,
    /// The step's spans (empty unless traced).
    pub recorder: Recorder,
}

/// The load and control connections to one server.
pub struct Harness {
    addr: SocketAddr,
    shape: Shape,
    next_update: Vec<usize>,
    clients: Vec<Client>,
    /// A connection that carries no load: `metrics`, `ledger`, probes.
    pub control: Client,
    epoch: Instant,
}

impl Harness {
    /// Open the load connections and the control connection.
    pub fn connect(addr: SocketAddr, shape: Shape) -> Harness {
        Harness {
            addr,
            next_update: vec![0; shape.deltas.len().max(CONNECTIONS)],
            shape,
            clients: (0..CONNECTIONS)
                .map(|_| Client::connect(addr).expect("load connection connects"))
                .collect(),
            control: Client::connect(addr).expect("control connection connects"),
            epoch: Instant::now(),
        }
    }

    /// Run one step, then let the server settle.
    pub fn run(&mut self, step: &Step) -> Ran {
        let mut recorders: Vec<Recorder> = (0..CONNECTIONS)
            .map(|_| Recorder::new(step.traced, self.epoch))
            .collect();
        let before = ServerCounters::read(&mut self.control);
        let plan = StepPlan {
            shape: &self.shape,
            schedules: &step.schedules,
            pace: step.pace,
            sample_every: SAMPLE_EVERY,
        };
        let (done, wall) = loadgen::run_step(
            &mut self.clients,
            self.addr,
            &plan,
            &mut self.next_update,
            &mut recorders,
        );
        let server = ServerCounters::read(&mut self.control).since(before);
        let mut recorder = Recorder::new(step.traced, self.epoch);
        for lane in recorders {
            recorder.absorb(lane);
        }
        std::thread::sleep(Duration::from_millis(50));
        Ran {
            outcome: loadgen::step_outcome(step.rate, &done, wall),
            done,
            server,
            recorder,
        }
    }

    /// The protocol line of a sent request.
    pub fn encode(&self, done: &Done) -> String {
        self.shape.encode(done.lane, &done.op)
    }

    /// Ask the server to drain and stop, then wait for it.
    pub fn shut_down(mut self, server: ServerHandle) {
        let _ = self.control.shutdown();
        drop(self.clients);
        drop(self.control);
        server.join().expect("the server drains and joins");
    }
}

/// The `serve_ingest` workload.
pub fn run(args: &Args) -> Outcome {
    let workload = Workload::ServeIngest;
    let mut inputs = Inputs::new(workload, args.seed);
    let mut outcome = Outcome::default();
    let seconds = args.seconds as f64;

    // Everything the clients send is drawn here, before any timing.
    let (warm_up, measured, ladder, deltas) = {
        let mut draw = Draw {
            chains: (0..CONNECTIONS)
                .map(|lane| DeltaChain::new(&mut inputs, lane))
                .collect(),
            inputs: &mut inputs,
            deltas: vec![Vec::new(); CONNECTIONS],
            next_id: 0,
            sent_per_lane: vec![0; CONNECTIONS],
        };
        let warm_up = draw.closed(0.5, false);
        let (measured, ladder) = if args.trace {
            // An untraced and a traced closed-loop pass, whose difference is
            // the tracing overhead, then the open-loop ladder.
            let pass = seconds / 3.0;
            let measured = vec![draw.closed(pass, false), draw.closed(pass, true)];
            let rung = pass / LADDER.len() as f64;
            let ladder: Vec<Step> = LADDER.iter().map(|&r| draw.open(r, rung)).collect();
            (measured, ladder)
        } else {
            (vec![draw.closed(seconds, false)], Vec::new())
        };
        (warm_up, measured, ladder, draw.deltas)
    };

    let (server, setup_s, train_s) = set_up(&inputs);
    let shape = Shape {
        session: SESSION.to_string(),
        template: GenerateRequest::new(workload.target()),
        stream: true,
        deltas,
    };
    let mut harness = Harness::connect(server.addr(), shape.clone());
    let warm = harness.run(&warm_up);
    let passes: Vec<Ran> = measured.iter().map(|step| harness.run(step)).collect();
    let mut rungs: Vec<Ran> = Vec::new();
    for step in &ladder {
        let rung = harness.run(step);
        let meets = rung.outcome.meets(P99_LIMIT_MS);
        rungs.push(rung);
        if !meets {
            break;
        }
    }

    // Ledger after drain: every released record reached a client, and no
    // reservation is left open.
    let every: Vec<&Done> = std::iter::once(&warm)
        .chain(&passes)
        .chain(&rungs)
        .flat_map(|r| &r.done)
        .collect();
    let received: usize = every.iter().map(|d| d.received).sum();
    check_ledger(&mut harness.control, received, &mut outcome);
    harness.shut_down(server);

    // Output checks against an identically trained in-process session.
    let reference = inputs.train();
    let updates: Vec<(u64, &Delta)> = every
        .iter()
        .filter(|d| d.ok)
        .filter_map(|d| match d.op {
            Op::Update(k) => Some((d.epoch, &shape.deltas[d.lane][k])),
            Op::Generate(_) => None,
        })
        .collect();
    let generate_us = check_samples(&reference, &inputs, &shape, updates, &every, &mut outcome);

    outcome.attempted = passes.iter().map(|r| r.outcome.sent).sum();
    outcome.failed = passes.iter().map(|r| r.outcome.failed).sum();
    for d in passes
        .iter()
        .flat_map(|r| &r.done)
        .filter(|d| !d.ok)
        .take(3)
    {
        eprintln!("request {} failed: {:?}", d.id, d.error);
    }
    if args.trace {
        let (untraced, traced) = (&passes[0], &passes[1]);
        let path = crate::span_path(workload, args.seed);
        if let Err(err) = traced.recorder.write_to(&path) {
            eprintln!("could not write {}: {err}", path.display());
        }
        let lines: Vec<String> = traced
            .done
            .iter()
            .map(|d| shape.encode(d.lane, &d.op))
            .collect();
        let metrics = &mut outcome.metrics;
        ladder_layers(P99_LIMIT_MS, &rungs, metrics);
        let replay = per_layer(&reference, &shape, traced, untraced, &lines, metrics)
            .map(|()| in_process_layers(&inputs, &reference, &train_s, &generate_us, metrics));
        if let Err(err) = replay {
            outcome.fail(err);
        }
    } else {
        outcome.metrics.put("setup_s", median(&setup_s), "s");
        end_to_end(&passes[0], seconds, &mut outcome);
    }
    outcome
}

fn check_ledger(control: &mut Client, received: usize, outcome: &mut Outcome) {
    match control.ledger(SESSION) {
        Ok(line) => {
            let field = |key: &str| {
                line.get("ledger")
                    .and_then(|l| l.get(key))
                    .and_then(Value::as_usize)
            };
            outcome.check(field("releases") == Some(received), || {
                format!(
                    "ledger commits {:?} releases but clients received {received} records",
                    field("releases")
                )
            });
            outcome.check(field("reserved") == Some(0), || {
                format!(
                    "ledger holds {:?} reserved records after drain",
                    field("reserved")
                )
            });
        }
        Err(err) => outcome.fail(format!("ledger verb failed: {err}")),
    }
}

/// The end-to-end metrics of the measured pass: each is the median over
/// time windows of the pass (see [`Windows`]).
fn end_to_end(pass: &Ran, seconds: f64, outcome: &mut Outcome) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let at = |d: &Done| d.due.as_secs_f64();
    let generates: Vec<(f64, f64)> = pass
        .done
        .iter()
        .filter(|d| d.ok && d.is_generate())
        .map(|d| (at(d), ms(d.latency)))
        .collect();
    let updates: Vec<(f64, f64)> = pass
        .done
        .iter()
        .filter(|d| d.ok && !d.is_generate())
        .map(|d| (at(d), ms(d.latency)))
        .collect();
    let records: Vec<(f64, f64)> = pass
        .done
        .iter()
        .map(|d| (at(d), d.received as f64))
        .collect();
    let (completed, failed): (Vec<_>, Vec<_>) = pass.done.iter().partition(|d| d.ok);
    let one =
        |done: Vec<&Done>| -> Vec<(f64, f64)> { done.iter().map(|&d| (at(d), 1.0)).collect() };
    let (completed, failed) = (one(completed), one(failed));
    let windows = Windows::new(&generates, seconds, MIN_GENERATES_PER_WINDOW);
    let update_windows = Windows::new(&updates, seconds, MIN_UPDATES);
    eprintln!(
        "closed loop: {} requests ({} generates, {} updates) in {seconds} s, {} windows",
        pass.done.len(),
        generates.len(),
        updates.len(),
        windows.len(),
    );
    let metrics = &mut outcome.metrics;
    metrics.put("release_rps", windows.rate(&records), "records/s");
    metrics.put(
        "max_rate_rps",
        windows.rate_within_limit(&completed, &failed, P99_LIMIT_MS),
        "req/s",
    );
    metrics.put(
        "ok_ratio",
        1.0 - failed.len() as f64 / pass.done.len().max(1) as f64,
        "ratio",
    );
    metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    outcome.windowed_quantile("gen_p50_ms", &windows, 0.5);
    outcome.windowed_quantile("gen_p99_ms", &windows, 0.99);
    outcome.windowed_quantile("update_p50_ms", &update_windows, 0.5);
    outcome.windowed_quantile("update_p90_ms", &update_windows, 0.9);
}

/// The open-loop ladder: the highest rate meeting the latency limit without
/// a growing backlog, and the generator's lag at that rate.
pub fn ladder_layers(p99_limit_ms: f64, rungs: &[Ran], metrics: &mut Metrics) {
    for rung in rungs {
        let o = &rung.outcome;
        eprintln!(
            "ladder {:>6.0} req/s: sent {:>6} ok {:>6} failed {:>3}  p99 {:.3} ms  lag p99 {:.3} ms  backlogged {}",
            o.rate,
            o.sent,
            o.succeeded,
            o.failed,
            quantile(&sorted(&o.gen_latency_ms), 0.99),
            quantile(&sorted(&o.lag_ms), 0.99),
            stats::backlogged(&o.lag_ms),
        );
    }
    let outcomes: Vec<StepOutcome> = rungs.iter().map(|r| r.outcome.clone()).collect();
    let best = stats::max_rate_step(&outcomes, p99_limit_ms);
    metrics.put(
        "loadgen.max_rate_rps",
        best.map_or(0.0, |s| s.completed_rps),
        "req/s",
    );
    let lag = best
        .or(outcomes.first())
        .map_or(0.0, |s| quantile(&sorted(&s.lag_ms), 0.99));
    metrics.put("loadgen.lag_p99_ms", lag, "ms");
}

fn per_layer(
    reference: &SynthesisSession,
    shape: &Shape,
    traced: &Ran,
    untraced: &Ran,
    lines: &[String],
    metrics: &mut Metrics,
) -> Result<(), String> {
    let mut stats = MechanismStats::default();
    for sample in traced.done.iter().filter_map(|d| d.sample.as_deref()) {
        stats.merge(&sample.stats);
    }
    layers::stat_ratios(&stats, metrics);
    serve_layers(traced, lines, metrics);
    metrics.put(
        "trace.overhead_ratio",
        untraced.outcome.completed_rps / traced.outcome.completed_rps.max(1e-9),
        "ratio",
    );
    let requests: Vec<GenerateRequest> = traced
        .done
        .iter()
        .filter_map(|d| match d.op {
            Op::Generate(seed) => Some(shape.request(seed)),
            Op::Update(_) => None,
        })
        .take(200)
        .collect();
    let mut recorder = Recorder::new(true, Instant::now());
    layers::replay_mechanism(reference, &requests, &mut recorder, 1)?;
    layers::mechanism_metrics(&recorder, metrics);
    Ok(())
}

/// The serve-layer metrics of a traced step: round trip, server-side service
/// time (the `serve.job` timer through the `metrics` verb), the rest, fold
/// and reject ratios, provenance span counts, and the parse and render calls
/// on the step's own request lines and sampled records.
pub fn serve_layers(traced: &Ran, lines: &[String], metrics: &mut Metrics) {
    let generates: Vec<&Done> = traced.done.iter().filter(|d| d.is_generate()).collect();
    let count = generates.len().max(1) as f64;
    let rtt_ms = generates
        .iter()
        .map(|d| d.roundtrip.as_secs_f64() * 1e3)
        .sum::<f64>()
        / count;
    let service_ms = traced.server.job_nanos as f64 / traced.server.jobs.max(1) as f64 / 1e6;
    metrics.put("serve.rtt_ms", rtt_ms, "ms");
    metrics.put("serve.service_ms", service_ms, "ms");
    metrics.put("serve.outside_service_ms", rtt_ms - service_ms, "ms");
    metrics.put(
        "serve.fold_ratio",
        traced.server.folded as f64 / traced.server.admitted.max(1) as f64,
        "ratio",
    );
    metrics.put(
        "serve.reject_ratio",
        traced.server.rejected as f64 / traced.outcome.sent.max(1) as f64,
        "ratio",
    );
    metrics.put(
        "metrics.spans_per_request",
        generates.iter().map(|d| d.trace_spans as f64).sum::<f64>() / count,
        "count",
    );
    metrics.put(
        "loadgen.failed_ratio",
        traced.outcome.failed_ratio(),
        "ratio",
    );
    let records: Vec<Record> = generates
        .iter()
        .filter_map(|d| d.sample.as_deref())
        .flat_map(|sample| sample.records.clone())
        .collect();
    layers::protocol_layers(lines, &records, metrics);
}

/// The layers every workload measures in-process on its own inputs: the
/// set-up calls and a chain of updates, each followed by a generate.
pub fn in_process_layers(
    inputs: &Inputs,
    session: &SynthesisSession,
    train_s: &[f64],
    generate_us: &[f64],
    metrics: &mut Metrics,
) {
    layers::setup_layers(session, &inputs.population, &inputs.bucketizer, 3, metrics);
    metrics.put("core.train_s", median(train_s), "s");
    metrics.put("core.generate_us", median(generate_us), "us");
    let mut fresh = Inputs::new(inputs.workload, inputs.seed);
    let chain = DeltaChain::new(&mut fresh, 2).take(&mut fresh, MIN_UPDATES);
    let requests = fresh.requests(MIN_UPDATES);
    let times = layers::update_chain(session, &chain, &requests);
    layers::update_metrics(&times, metrics);
}

/// The records a streamed release of `request` yields in-process.
fn release(session: &SynthesisSession, request: GenerateRequest) -> Vec<Record> {
    session
        .release_iter(request)
        .and_then(|iter| iter.collect())
        .expect("in-process release succeeds")
}

/// Check that a sampled response released `records`.
fn check_sample(
    sample: &Done,
    request: &GenerateRequest,
    records: &[Record],
    outcome: &mut Outcome,
) {
    let served = sample.sample.as_deref().map(|s| s.records.as_slice());
    outcome.check(served == Some(records), || {
        format!(
            "request {} (seed {}, epoch {}) released other records than in-process",
            sample.id, request.seed, sample.epoch
        )
    });
}

/// Replay the sampled generates in-process at the epoch each response
/// names: up to [`CHECKED_EPOCHS`] on the reference session advanced through
/// the served updates, past it by stride on a session retrained on the
/// epoch's dataset.  Returns the in-process release times, µs.
fn check_samples(
    reference: &SynthesisSession,
    inputs: &Inputs,
    shape: &Shape,
    mut updates: Vec<(u64, &Delta)>,
    done: &[&Done],
    outcome: &mut Outcome,
) -> Vec<f64> {
    // Epoch order of the served updates.
    updates.sort_by_key(|&(epoch, _)| epoch);
    let consecutive = updates
        .iter()
        .enumerate()
        .all(|(i, (epoch, _))| *epoch == i as u64 + 1);
    outcome.check(consecutive, || {
        "served updates did not create consecutive epochs".to_string()
    });
    let mut sampled: Vec<&Done> = done
        .iter()
        .copied()
        .filter(|d| d.ok && d.is_generate() && d.sample.is_some())
        .collect();
    sampled.sort_by_key(|d| d.epoch);
    let (samples, late) = sampled.split_at(sampled.partition_point(|d| d.epoch <= CHECKED_EPOCHS));
    let mut current = reference.clone();
    let mut applied = updates.iter();
    let mut chain = Vec::new();
    let mut times = Vec::new();
    let mut retrain_checked = false;
    for sample in samples {
        while current.epoch() < sample.epoch {
            let Some(&(_, delta)) = applied.next() else {
                outcome.fail(format!("no update created epoch {}", sample.epoch));
                return times;
            };
            let delta = dataset_delta(&current, delta);
            current = current
                .update(&delta)
                .expect("served deltas apply in-process");
            chain.push(delta);
        }
        let Op::Generate(seed) = sample.op else {
            continue;
        };
        let request = &shape.request(seed);
        let start = Instant::now();
        let records = release(&current, *request);
        times.push(start.elapsed().as_secs_f64() * 1e6);
        check_sample(sample, request, &records, outcome);
        // The first updated epoch checked, retrained from scratch on its
        // dataset, must release what the update chain releases.
        if !retrain_checked && !chain.is_empty() {
            retrain_checked = true;
            let population = chain.iter().fold(inputs.population.clone(), |data, delta| {
                delta.apply(&data).expect("served deltas apply in-process")
            });
            let retrained = inputs
                .workload
                .engine(inputs.seed)
                .train(&population, &inputs.bucketizer)
                .expect("the post-delta population trains");
            let a = retrained
                .generate(request)
                .expect("retrained generate succeeds");
            let b = current
                .generate(request)
                .expect("updated generate succeeds");
            outcome.check(a.synthetics.records() == b.synthetics.records(), || {
                format!(
                    "epoch {} differs from a retrain on its dataset",
                    current.epoch()
                )
            });
        }
    }
    // Past the chain: the update invariant makes an epoch release what a
    // session retrained on the epoch's dataset releases.
    let stride = late.len().div_ceil(LATE_CHECKS).max(1);
    for sample in late.iter().step_by(stride) {
        let Op::Generate(seed) = sample.op else {
            continue;
        };
        let Some(prefix) = updates.get(..sample.epoch as usize).filter(|_| consecutive) else {
            outcome.fail(format!("no update chain reaches epoch {}", sample.epoch));
            break;
        };
        let deltas: Vec<&Delta> = prefix.iter().map(|&(_, delta)| delta).collect();
        let retrained = dataset_after(&inputs.population, &deltas).and_then(|population| {
            inputs
                .workload
                .engine(inputs.seed)
                .train(&population, &inputs.bucketizer)
                .map_err(|e| e.to_string())
        });
        match retrained {
            Ok(session) => {
                let request = &shape.request(seed);
                check_sample(sample, request, &release(&session, *request), outcome);
            }
            Err(err) => outcome.fail(format!("epoch {}: {err}", sample.epoch)),
        }
    }
    outcome.check(!sampled.is_empty(), || {
        "no served response was sampled".to_string()
    });
    times
}
