//! Load over a fixed number of client connections, open or closed loop.
//!
//! Open loop: each connection follows its own schedule of due times, drawn
//! as a Poisson process from the workload seed before timing starts.  It
//! sends a request when it is due, or as soon as the previous response has
//! arrived if it is already late; latency is timed from the due time, so a
//! stall also counts against the requests queued behind it.
//!
//! Closed loop: each connection sends its next request as soon as the
//! previous response has arrived, until the step's time is up; latency is
//! the round trip.

use crate::spans::Recorder;
use crate::stats::StepOutcome;
use crate::workload::Delta;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sgf_core::{GenerateRequest, MechanismStats};
use sgf_data::Record;
use sgf_serve::json::Value;
use sgf_serve::{Client, ClientError, GenerateCall, UpdateCall};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// A request on the wire.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// A `generate` call of the step's request shape with this request
    /// seed.
    Generate(u64),
    /// An `update` call carrying its connection's `k`-th delta.  The index
    /// is assigned when the update is sent, so a connection's deltas apply
    /// in chain order even when a closed loop stops early.
    Update(usize),
}

/// How requests go on the wire.
#[derive(Debug, Clone)]
pub struct Shape {
    /// The session they address.
    pub session: String,
    /// Every generate is this request with its own seed.
    pub template: GenerateRequest,
    /// Stream generated records as they are released.
    pub stream: bool,
    /// Each connection's chain of update deltas.
    pub deltas: Vec<Vec<Delta>>,
}

impl Shape {
    /// The protocol line of `op` sent on connection `lane`.
    pub fn encode(&self, lane: usize, op: &Op) -> String {
        match op {
            Op::Generate(seed) => self.generate(*seed).encode(),
            Op::Update(k) => self.update(lane, *k).encode(),
        }
    }

    /// The generate request with `seed`.
    pub fn request(&self, seed: u64) -> GenerateRequest {
        self.template.with_seed(seed)
    }

    fn generate(&self, seed: u64) -> GenerateCall {
        GenerateCall::new(self.template.target)
            .with_session(&self.session)
            .with_request(self.request(seed))
            .with_stream(self.stream)
    }

    fn update(&self, lane: usize, k: usize) -> UpdateCall {
        let delta = &self.deltas[lane][k];
        let mut call = UpdateCall::new().with_session(&self.session);
        call.deletes = delta.deletes.clone();
        call.inserts = delta.inserts.clone();
        call
    }
}

/// How a step paces its requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Follow the schedule's due times.
    Open,
    /// Send back to back for this long, ignoring due times.
    Closed(Duration),
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Scheduled {
    /// Request id, unique within the run.
    pub id: u64,
    /// Due time relative to the step start (open loop).
    pub due: Duration,
    /// The request.
    pub op: Op,
}

/// Due times of Poisson arrivals at `rate` per second over `seconds`,
/// drawn from `seed`.
pub fn poisson_times(rate: f64, seconds: f64, seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at = 0.0f64;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen();
        at += -(1.0 - u).ln() / rate;
        if at >= seconds {
            return out;
        }
        out.push(Duration::from_secs_f64(at));
    }
}

/// What came back for one request.
#[derive(Debug, Clone)]
pub struct Done {
    /// Request id.
    pub id: u64,
    /// The connection it went on.
    pub lane: usize,
    /// The request.
    pub op: Op,
    /// Due time relative to the step start (send time in a closed loop).
    pub due: Duration,
    /// Send time minus due time (0 in a closed loop).
    pub lag: Duration,
    /// Due time (send time in a closed loop) to last response line.
    pub latency: Duration,
    /// Send to last response line.
    pub roundtrip: Duration,
    /// Whether the request was answered in full.
    pub ok: bool,
    /// Why not, when it was not.
    pub error: Option<String>,
    /// Records received (generate).
    pub received: usize,
    /// Session epoch named by the response (generate provenance, or the
    /// epoch an update created).
    pub epoch: u64,
    /// Span count in the response's provenance block (generate).
    pub trace_spans: u64,
    /// What a sampled generate keeps for the output check.
    pub sample: Option<Box<Sample>>,
}

/// The response of a sampled generate.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The released records.
    pub records: Vec<Record>,
    /// Mechanism counters from the response's `stats`.
    pub stats: MechanismStats,
}

impl Done {
    /// Whether this is a generate.
    pub fn is_generate(&self) -> bool {
        matches!(self.op, Op::Generate(_))
    }
}

fn counter(stats: &Value, key: &str) -> usize {
    stats.get(key).and_then(Value::as_usize).unwrap_or(0)
}

fn mechanism_stats(stats: &Value) -> MechanismStats {
    MechanismStats {
        candidates: counter(stats, "candidates"),
        released: counter(stats, "released"),
        records_examined: counter(stats, "records_examined"),
        index_tests: counter(stats, "index_tests"),
        scan_tests: counter(stats, "scan_tests"),
        partition_tests: counter(stats, "partition_tests"),
        class_cache_hits: counter(stats, "class_cache_hits"),
        class_cache_misses: counter(stats, "class_cache_misses"),
    }
}

/// Send `done.op` and fill in the rest of `done`; true when the connection
/// broke.
fn send(client: &mut Client, shape: &Shape, keep: bool, done: &mut Done) -> bool {
    let error = match done.op {
        Op::Generate(seed) => match client.generate(&shape.generate(seed)) {
            Ok(release) => {
                let target = shape.template.target;
                done.received = release.records.len();
                done.ok = done.received == target;
                if !done.ok {
                    done.error = Some(format!(
                        "short release: {} of {target} records",
                        done.received
                    ));
                }
                let field = |key: &str| release.provenance.get(key).and_then(Value::as_u64);
                done.epoch = field("epoch").unwrap_or(0);
                done.trace_spans = field("trace_spans").unwrap_or(0);
                if keep {
                    done.sample = Some(Box::new(Sample {
                        stats: mechanism_stats(&release.stats),
                        records: release.records,
                    }));
                }
                return false;
            }
            Err(err) => err,
        },
        Op::Update(k) => match client.update(&shape.update(done.lane, k)) {
            Ok(line) => {
                done.ok = true;
                done.epoch = line.get("epoch").and_then(Value::as_u64).unwrap_or(0);
                return false;
            }
            Err(err) => err,
        },
    };
    done.error = Some(error.to_string());
    matches!(error, ClientError::Io(_))
}

/// One step for every connection.
pub struct StepPlan<'a> {
    /// How requests go on the wire.
    pub shape: &'a Shape,
    /// One schedule per connection.
    pub schedules: &'a [Vec<Scheduled>],
    /// Open or closed loop.
    pub pace: Pace,
    /// Sample every generate whose id is a multiple of this.
    pub sample_every: u64,
}

/// Run one connection's schedule from `start`.  Spans: `loadgen.request`
/// (due time to last line) with child `serve.roundtrip` (send to last line).
#[allow(clippy::too_many_arguments)]
fn run_lane(
    client: &mut Client,
    addr: SocketAddr,
    plan: &StepPlan<'_>,
    lane: usize,
    schedule: &[Scheduled],
    next_update: &mut usize,
    start: Instant,
    recorder: &mut Recorder,
) -> Vec<Done> {
    let mut out = Vec::with_capacity(schedule.len());
    if let Some(wait) = start.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    for item in schedule {
        let due = match plan.pace {
            Pace::Open => {
                let due = start + item.due;
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                due
            }
            Pace::Closed(length) => {
                let now = Instant::now();
                if now >= start + length {
                    break;
                }
                now
            }
        };
        let sent = Instant::now();
        recorder.open_at("loadgen.request", item.id, due);
        recorder.open_at("serve.roundtrip", item.id, sent);
        let op = match item.op {
            Op::Update(_) => {
                *next_update += 1;
                Op::Update(*next_update - 1)
            }
            generate => generate,
        };
        let mut done = Done {
            id: item.id,
            lane,
            op,
            due: due - start,
            lag: sent - due,
            latency: Duration::ZERO,
            roundtrip: Duration::ZERO,
            ok: false,
            error: None,
            received: 0,
            epoch: 0,
            trace_spans: 0,
            sample: None,
        };
        let keep = item.id % plan.sample_every == 0;
        let broken = send(client, plan.shape, keep, &mut done);
        let finished = Instant::now();
        recorder.close_at(finished);
        recorder.close_at(finished);
        done.latency = finished - due;
        done.roundtrip = finished - sent;
        if broken {
            // The connection broke; continue on a fresh one.
            if let Ok(fresh) = Client::connect(addr) {
                *client = fresh;
            }
        }
        out.push(done);
    }
    if plan.pace != Pace::Open && out.len() == schedule.len() {
        eprintln!("a closed-loop connection ran out of pre-drawn requests");
    }
    out
}

/// Run one step: every connection runs its schedule concurrently, starting
/// together.  `next_update` holds each connection's next delta index.
/// Returns every request, and the step's wall time.
pub fn run_step(
    clients: &mut [Client],
    addr: SocketAddr,
    plan: &StepPlan<'_>,
    next_update: &mut [usize],
    recorders: &mut [Recorder],
) -> (Vec<Done>, Duration) {
    let start = Instant::now() + Duration::from_millis(5);
    let lanes: Vec<Vec<Done>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(plan.schedules)
            .zip(next_update.iter_mut())
            .zip(recorders.iter_mut())
            .enumerate()
            .map(|(lane, (((client, schedule), next), recorder))| {
                scope.spawn(move || {
                    run_lane(client, addr, plan, lane, schedule, next, start, recorder)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load connection thread completes"))
            .collect()
    });
    (lanes.into_iter().flatten().collect(), start.elapsed())
}

/// Summarize a step for the rate ladder.
pub fn step_outcome(rate: f64, done: &[Done], wall: Duration) -> StepOutcome {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut by_due: Vec<&Done> = done.iter().collect();
    by_due.sort_by_key(|d| d.due);
    StepOutcome {
        rate,
        sent: done.len(),
        succeeded: done.iter().filter(|d| d.ok).count(),
        failed: done.iter().filter(|d| !d.ok).count(),
        gen_latency_ms: done
            .iter()
            .filter(|d| d.ok && d.is_generate())
            .map(|d| ms(d.latency))
            .collect(),
        lag_ms: by_due.iter().map(|d| ms(d.lag)).collect(),
        completed_rps: done.iter().filter(|d| d.ok).count() as f64 / wall.as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_fixed_by_the_seed_and_hold_the_rate() {
        let a = poisson_times(1_000.0, 4.0, 9);
        assert_eq!(a, poisson_times(1_000.0, 4.0, 9));
        assert_ne!(a, poisson_times(1_000.0, 4.0, 10));
        assert!((3_700..4_300).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }
}
