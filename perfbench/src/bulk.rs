//! `bulk_paper`: one in-process caller releasing records in a closed loop,
//! cycling through the paper's five ω settings.  The serve layer is not on
//! this path.

use crate::layers::{self, ms_since};
use crate::loadgen::{self, Op, Pace, Scheduled, Shape};
use crate::report::{Metrics, Outcome};
use crate::served::{in_process_layers, ladder_layers, serve_layers, Harness, Step};
use crate::spans::Recorder;
use crate::stats::{median, Windows};
use crate::workload::{dataset_delta, DeltaChain, Inputs, Workload};
use crate::{peak_rss_mb, Args};
use sgf_core::{GenerateRequest, MechanismStats, SeedIndex, SynthesisEngine, SynthesisSession};
use sgf_serve::{serve, ServeConfig, SessionEntry};
use std::time::{Duration, Instant};

/// Updates the in-process update latency is taken over.
const UPDATES: usize = 400;
/// Updates per time window of the update latency: ten lie beyond each
/// window's p90.
const MIN_UPDATES_PER_WINDOW: usize = 100;
/// Requests per time window of the end-to-end metrics: ten lie beyond each
/// window's p99.
const MIN_REQUESTS_PER_WINDOW: usize = 1_000;
/// Records per output-check request.
const CHECK_TARGET: usize = 20;
/// p99 latency limit of `max_rate_rps` and of the served probe's ladder,
/// ms: a 40-record request at ω 5–11 takes about 20 ms.
const P99_LIMIT_MS: f64 = 100.0;
/// Length of the traced run's closed-loop served probe.
const PROBE_LENGTH: Duration = Duration::from_secs(3);
/// Offered rates of the served probe's ladder (one second each), req/s.
const PROBE_LADDER: [f64; 3] = [20.0, 40.0, 80.0];

/// Per-request results of a closed-loop pass.
#[derive(Default)]
struct Pass {
    /// (start, latency in ms) of every request released in full.
    latency_ms: Vec<(f64, f64)>,
    /// (start, records released) of every request.
    released: Vec<(f64, f64)>,
    /// (start, 1) of every request released short.
    short: Vec<(f64, f64)>,
    stats: MechanismStats,
    wall: Duration,
}

impl Pass {
    fn records(&self) -> usize {
        self.released.iter().map(|&(_, n)| n as usize).sum()
    }

    fn requests(&self) -> usize {
        self.released.len()
    }
}

/// Serve `requests` in order until `seconds` have passed, calling `pause`
/// with the pass's time after each request.  The time `pause` takes is left
/// out of the pass's time line.
fn closed_loop(
    session: &SynthesisSession,
    requests: &[GenerateRequest],
    seconds: f64,
    mut pause: impl FnMut(f64),
) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    for request in requests {
        let at = (start.elapsed() - paused).as_secs_f64();
        if at >= seconds {
            break;
        }
        let t = Instant::now();
        let report = session
            .generate(request)
            .expect("in-process generate succeeds");
        let latency_ms = ms_since(t);
        pass.released.push((at, report.stats.released as f64));
        if report.stats.released < request.target {
            pass.short.push((at, 1.0));
        } else {
            pass.latency_ms.push((at, latency_ms));
        }
        pass.stats.merge(&report.stats);
        let t = Instant::now();
        pause(at);
        paused += t.elapsed();
    }
    pass.wall = start.elapsed() - paused;
    assert!(
        pass.requests() < requests.len(),
        "the closed loop ran out of pre-drawn requests"
    );
    pass
}

/// The in-process workload.
pub fn run(args: &Args) -> Outcome {
    let mut inputs = Inputs::new(Workload::BulkPaper, args.seed);
    let mut outcome = Outcome::default();
    let seconds = args.seconds as f64;
    // Drawn before timing: more requests than any pass can use.
    let requests = inputs.requests(50_000);
    let checks = inputs.requests(bench::paper_omegas().len());
    let deltas = DeltaChain::new(&mut inputs, 0).take(&mut inputs, UPDATES);

    let mut setup_s = Vec::new();
    let mut session = None;
    let begun = Instant::now();
    while crate::served::more_setups(setup_s.len(), begun) {
        drop(session.take());
        let start = Instant::now();
        session = Some(inputs.train());
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let session = session.expect("at least one set-up");

    // Warm the class-match cache with one round of the ω cycle.
    let (warm_up, requests) = requests.split_at(bench::paper_omegas().len());
    for request in warm_up {
        session
            .generate(request)
            .expect("warm-up generate succeeds");
    }

    if args.trace {
        let untraced = closed_loop(&session, requests, seconds / 2.0, |_| {});
        // The traced replay.  Each request is replayed twice, once with the
        // recorder off and once with it on, alternating which goes first:
        // the time ratio of the two is the cost of recording spans.
        let start = Instant::now();
        let mut recorder = Recorder::new(true, start);
        let mut quiet = Recorder::new(false, start);
        let (mut off, mut on) = (Duration::ZERO, Duration::ZERO);
        let mut replayed = 0;
        while start.elapsed().as_secs_f64() < seconds / 2.0 {
            let (request, id) = (&requests[replayed..=replayed], replayed as u64);
            let timed = |recorder: &mut Recorder| {
                let t = Instant::now();
                let result = layers::replay_mechanism(&session, request, recorder, id);
                (t.elapsed(), result)
            };
            let ((t_off, quiet_result), (t_on, result)) = if replayed % 2 == 0 {
                let first = timed(&mut quiet);
                (first, timed(&mut recorder))
            } else {
                let first = timed(&mut recorder);
                (timed(&mut quiet), first)
            };
            if let Err(err) = quiet_result.and(result) {
                outcome.fail(err);
                break;
            }
            off += t_off;
            on += t_on;
            replayed += 1;
        }
        let path = crate::span_path(Workload::BulkPaper, args.seed);
        if let Err(err) = recorder.write_to(&path) {
            eprintln!("could not write {}: {err}", path.display());
        }
        let metrics = &mut outcome.metrics;
        layers::stat_ratios(&untraced.stats, metrics);
        layers::mechanism_metrics(&recorder, metrics);
        metrics.put(
            "trace.overhead_ratio",
            on.as_secs_f64() / off.as_secs_f64().max(1e-9),
            "ratio",
        );
        served_probe(&session, &requests[requests.len() - 10_000..], metrics);
        let generate_us: Vec<f64> = untraced.latency_ms.iter().map(|(_, ms)| ms * 1e3).collect();
        in_process_layers(&inputs, &session, &setup_s, &generate_us, metrics);
        outcome.attempted = untraced.requests() + replayed;
        outcome.failed = untraced.short.len();
    } else {
        // The update chain interleaves with the closed loop at an even
        // cadence, so its latencies sample the whole run.  The chain
        // advances its own epochs; the generating session stays at epoch 0.
        let cadence = seconds / UPDATES as f64;
        let mut head = session.clone();
        let mut update_ms: Vec<(f64, f64)> = Vec::new();
        let pass = closed_loop(&session, requests, seconds, |at| {
            if let Some(delta) = deltas
                .get(update_ms.len())
                .filter(|_| at >= update_ms.len() as f64 * cadence)
            {
                let start = Instant::now();
                let staged = dataset_delta(&head, delta);
                head = head.update(&staged).expect("the delta applies");
                update_ms.push((at, ms_since(start)));
            }
        });
        let count = pass.requests();
        outcome.attempted = count;
        outcome.failed = pass.short.len();
        let windows = Windows::new(&pass.latency_ms, seconds, MIN_REQUESTS_PER_WINDOW);
        let completed: Vec<(f64, f64)> = pass.latency_ms.iter().map(|&(at, _)| (at, 1.0)).collect();
        let metrics = &mut outcome.metrics;
        metrics.put("setup_s", median(&setup_s), "s");
        metrics.put("release_rps", windows.rate(&pass.released), "records/s");
        metrics.put(
            "max_rate_rps",
            windows.rate_within_limit(&completed, &pass.short, P99_LIMIT_MS),
            "req/s",
        );
        metrics.put(
            "ok_ratio",
            1.0 - pass.short.len() as f64 / count.max(1) as f64,
            "ratio",
        );
        metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
        outcome.windowed_quantile("gen_p50_ms", &windows, 0.5);
        outcome.windowed_quantile("gen_p99_ms", &windows, 0.99);
        let updates = Windows::new(&update_ms, seconds, MIN_UPDATES_PER_WINDOW);
        outcome.windowed_quantile("update_p50_ms", &updates, 0.5);
        outcome.windowed_quantile("update_p90_ms", &updates, 0.9);
        eprintln!(
            "bulk_paper: {count} requests, {} records in {:.2} s, {} windows",
            pass.records(),
            pass.wall.as_secs_f64(),
            windows.len(),
        );
    }

    check_against_scan(&inputs, &session, &checks, &mut outcome);
    outcome
}

/// For each ω setting, a short request must release the same bytes from the
/// session as from a session pinned to the scan oracle.
fn check_against_scan(
    inputs: &Inputs,
    session: &SynthesisSession,
    checks: &[GenerateRequest],
    outcome: &mut Outcome,
) {
    let mut config = *session.config();
    config.seed_index = SeedIndex::Scan;
    let scan = SynthesisEngine::from_config(config)
        .train(&inputs.population, &inputs.bucketizer)
        .expect("the scan session trains");
    for request in checks {
        let mut request = *request;
        request.target = CHECK_TARGET;
        let render = |s: &SynthesisSession| -> Vec<String> {
            s.generate(&request)
                .expect("check generate succeeds")
                .synthetics
                .records()
                .iter()
                .map(sgf_serve::protocol::record_line)
                .collect()
        };
        let (indexed, oracle) = (render(session), render(&scan));
        outcome.check(indexed == oracle && indexed.len() == CHECK_TARGET, || {
            format!(
                "ω {:?}: the indexed session released other bytes than the scan oracle",
                request.omega
            )
        });
    }
}

/// Serve the bulk session briefly over two connections, so the serve-layer
/// and load-generator metrics exist for this request size too: a traced
/// closed loop, then a short open-loop ladder.  The probe's requests use
/// the session's ω.
fn served_probe(session: &SynthesisSession, requests: &[GenerateRequest], metrics: &mut Metrics) {
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let server =
        serve(config, vec![SessionEntry::new(session.clone())]).expect("the probe server binds");
    let shape = Shape {
        session: sgf_serve::DEFAULT_SESSION.to_string(),
        template: GenerateRequest::new(Workload::BulkPaper.target()),
        stream: false,
        deltas: Vec::new(),
    };
    let mut harness = Harness::connect(server.addr(), shape);
    let mut next = requests.iter();
    let mut id = 0;
    let mut lane = |dues: Vec<Duration>| -> Vec<Scheduled> {
        dues.into_iter()
            .map(|due| {
                id += 1;
                let request = next.next().expect("enough probe requests");
                Scheduled {
                    id,
                    due,
                    op: Op::Generate(request.seed),
                }
            })
            .collect()
    };
    let closed = Step {
        rate: 0.0,
        pace: Pace::Closed(PROBE_LENGTH),
        traced: true,
        schedules: vec![
            lane(vec![Duration::ZERO; 4_000]),
            lane(vec![Duration::ZERO; 4_000]),
        ],
    };
    let rungs: Vec<Step> = PROBE_LADDER
        .iter()
        .map(|&rate| Step {
            rate,
            pace: Pace::Open,
            traced: false,
            schedules: (0..2)
                .map(|l| lane(loadgen::poisson_times(rate / 2.0, 1.0, l)))
                .collect(),
        })
        .collect();
    let ran = harness.run(&closed);
    let mut ladder = Vec::new();
    for rung in &rungs {
        let result = harness.run(rung);
        let meets = result.outcome.meets(P99_LIMIT_MS);
        ladder.push(result);
        if !meets {
            break;
        }
    }
    let lines: Vec<String> = ran.done.iter().map(|d| harness.encode(d)).collect();
    harness.shut_down(server);
    serve_layers(&ran, &lines, metrics);
    ladder_layers(P99_LIMIT_MS, &ladder, metrics);
}
