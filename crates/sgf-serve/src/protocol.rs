//! The JSON-lines wire protocol: one JSON object per `\n`-terminated line.
//!
//! ## Requests
//!
//! | verb | fields |
//! |---|---|
//! | `generate` | `session` (default `"default"`), `target` (required), `seed`, `workers`, `max_candidate_factor`, `omega` (number or `{"lo","hi"}`), `seed_index` (`"scan"`/`"inverted"`/`"partition"`/`"auto"`), `stream` (bool), `model` (`"seed"`/`"marginal"`) |
//! | `update` | `session` (default `"default"`), `inserts` (array of records), `deletes` (array of records) — records are arrays of attribute value indices |
//! | `status` | — |
//! | `ledger` | `session` |
//! | `metrics` | `session` (optional: restrict to one session's cell), `noisy` (bool: include timers/summaries) |
//! | `trace` | `session` (optional: restrict to one session's spans), `noisy` (bool: include wall clocks) |
//! | `shutdown` | — |
//!
//! ## Responses
//!
//! Every response line carries `"ok"`.  A rejected request is a single line
//! with `"ok":false` and a machine-readable `"error"` code from [`reject`]
//! (plus code-specific fields such as `retry_after_ms` or the requested/cap
//! budgets).  A successful `generate` is a header line, one `{"record":[..]}`
//! line per released record, and an `{"end":true,...}` trailer; batch
//! responses carry stats/ledger/provenance in the header, streaming responses
//! in the trailer (the counts are only known once the stream finishes).
//!
//! Every response line is canonical JSON ([`Value`] is the workspace's one
//! JSON type): keys sorted, floats always written with a `.` or an
//! exponent, so parsing a line and rendering it again reproduces it.  Record
//! lines are written directly, in the same canonical form.
//!
//! `metrics` and `trace` answer with one line of canonical JSON.  Both are
//! deterministic by default: `metrics` returns the counter-only labeled
//! snapshot (per-scope cells always sum exactly to the global rollup) and
//! `trace` returns span trees without wall clocks, so two identically-seeded
//! server runs answer byte-identically.  `noisy:true` opts into the
//! wall-clock-bearing variants.

use crate::json::Value;
use sgf_core::{GenerateRequest, SeedIndex};
use sgf_data::Record;
use sgf_model::OmegaSpec;

/// Session name used when a `generate`/`ledger` request does not name one.
pub const DEFAULT_SESSION: &str = "default";

/// Machine-readable rejection codes (`"error"` field of `"ok":false` lines).
pub mod reject {
    /// The bounded request queue is full; retry after `retry_after_ms`.
    pub const QUEUE_FULL: &str = "queue_full";
    /// Admission would push the session ledger past its (ε, δ) cap.
    pub const BUDGET_EXHAUSTED: &str = "budget_exhausted";
    /// No session with the requested name is registered.
    pub const UNKNOWN_SESSION: &str = "unknown_session";
    /// The request line failed to parse or validate.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The server is draining and admits no new generate requests.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// The admitted request failed while generating.
    pub const GENERATE_FAILED: &str = "generate_failed";
    /// The admitted `update` delta failed to apply (e.g. deleting a record
    /// the dataset does not hold, or draining the seed subset below `k`).
    pub const UPDATE_FAILED: &str = "update_failed";
}

/// Which generative model a `generate` request runs through the mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelKind {
    /// The session's seed-based synthesizer (the paper's Mechanism 1 default).
    #[default]
    Seed,
    /// The session's marginal baseline (seed-independent; every candidate
    /// passes the privacy test, Section 8).
    Marginal,
}

/// A parsed `generate` request: the target session plus the core
/// [`GenerateRequest`] and serve-level options.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateCall {
    /// Which registered session serves the request.
    pub session: String,
    /// The core request (target, seed, per-request overrides).
    pub request: GenerateRequest,
    /// Stream records as they are released (via the session's `ReleaseIter`)
    /// instead of generating the whole batch first.
    pub stream: bool,
    /// Which generative model to run.
    pub model: ModelKind,
}

impl GenerateCall {
    /// A batch seed-model call against the default session.
    pub fn new(target: usize) -> Self {
        GenerateCall {
            session: DEFAULT_SESSION.to_string(),
            request: GenerateRequest::new(target),
            stream: false,
            model: ModelKind::Seed,
        }
    }

    /// Target a named session.
    pub fn with_session(mut self, session: &str) -> Self {
        self.session = session.to_string();
        self
    }

    /// Replace the core request.
    pub fn with_request(mut self, request: GenerateRequest) -> Self {
        self.request = request;
        self
    }

    /// Stream records as they are released.
    pub fn with_stream(mut self, stream: bool) -> Self {
        self.stream = stream;
        self
    }

    /// Pick the generative model.
    pub fn with_model(mut self, model: ModelKind) -> Self {
        self.model = model;
        self
    }

    /// Encode the call as one protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        let request = &self.request;
        let mut fields = vec![
            ("verb", Value::from("generate")),
            ("session", Value::from(self.session.as_str())),
            ("target", Value::from(request.target)),
            ("seed", Value::from(request.seed)),
        ];
        if let Some(workers) = request.workers {
            fields.push(("workers", Value::from(workers)));
        }
        if let Some(factor) = request.max_candidate_factor {
            fields.push(("max_candidate_factor", Value::from(factor)));
        }
        match request.omega {
            Some(OmegaSpec::Fixed(w)) => fields.push(("omega", Value::from(w))),
            Some(OmegaSpec::UniformRange { lo, hi }) => fields.push((
                "omega",
                Value::obj([("lo", Value::from(lo)), ("hi", Value::from(hi))]),
            )),
            None => {}
        }
        if let Some(policy) = request.seed_index {
            // `SeedIndex`'s `Display` is the canonical lowercase wire name.
            fields.push(("seed_index", Value::from(policy.to_string())));
        }
        if self.stream {
            fields.push(("stream", Value::Bool(true)));
        }
        if self.model == ModelKind::Marginal {
            fields.push(("model", Value::from("marginal")));
        }
        Value::obj(fields).render()
    }
}

/// A parsed `update` request: a ±record delta to fold into a session,
/// advancing it to its next epoch (see `SynthesisSession::update`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UpdateCall {
    /// Which registered session to advance.
    pub session: String,
    /// Records to append (attribute value indices, validated against the
    /// session schema server-side).
    pub inserts: Vec<Record>,
    /// Records to remove (matched by value against the current dataset).
    pub deletes: Vec<Record>,
}

impl UpdateCall {
    /// An empty delta against the default session.
    pub fn new() -> Self {
        UpdateCall {
            session: DEFAULT_SESSION.to_string(),
            inserts: Vec::new(),
            deletes: Vec::new(),
        }
    }

    /// Target a named session.
    pub fn with_session(mut self, session: &str) -> Self {
        self.session = session.to_string();
        self
    }

    /// Append a record.
    pub fn insert(mut self, record: Record) -> Self {
        self.inserts.push(record);
        self
    }

    /// Remove a record (by value).
    pub fn delete(mut self, record: Record) -> Self {
        self.deletes.push(record);
        self
    }

    /// Encode the call as one protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut fields = vec![
            ("verb", Value::from("update")),
            ("session", Value::from(self.session.as_str())),
        ];
        for (key, records) in [("inserts", &self.inserts), ("deletes", &self.deletes)] {
            if !records.is_empty() {
                fields.push((key, Value::Arr(records.iter().map(record_json).collect())));
            }
        }
        Value::obj(fields).render()
    }
}

/// A record as the array of its attribute value indices.
fn record_json(record: &Record) -> Value {
    Value::Arr(
        record
            .values()
            .iter()
            .map(|&v| Value::from(u64::from(v)))
            .collect(),
    )
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Release synthetic records from a session.
    Generate(GenerateCall),
    /// Fold a ±record delta into a session (next session epoch).
    Update(UpdateCall),
    /// Report server state (queue depth, busy workers, sessions).
    Status,
    /// Report a session's cumulative budget ledger.
    Ledger {
        /// The session to report on.
        session: String,
    },
    /// Report the labeled metrics snapshot (the whole registry, or one
    /// session's cell).
    Metrics {
        /// Restrict the snapshot to this session's scope cell (`None`
        /// returns the global rollup with every per-session cell attached).
        session: Option<String>,
        /// Include timers and summaries (wall-clock observations).  The
        /// default counter-only snapshot is deterministic across
        /// identically-seeded runs.
        noisy: bool,
    },
    /// Report recent trace span trees from the deterministic trace ring.
    Trace {
        /// Restrict to span trees rooted at spans labeled with this session
        /// (`None` returns every buffered event).
        session: Option<String>,
        /// Include noisy wall-clock durations on the spans.
        noisy: bool,
    },
    /// Drain the queue and stop the server.
    Shutdown,
}

impl Request {
    /// Encode the request as one protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Request::Generate(call) => call.encode(),
            Request::Update(call) => call.encode(),
            Request::Status => Value::obj([("verb", Value::from("status"))]).render(),
            Request::Ledger { session } => Value::obj([
                ("verb", Value::from("ledger")),
                ("session", Value::from(session.as_str())),
            ])
            .render(),
            Request::Metrics { session, noisy } => observe_verb_line("metrics", session, *noisy),
            Request::Trace { session, noisy } => observe_verb_line("trace", session, *noisy),
            Request::Shutdown => Value::obj([("verb", Value::from("shutdown"))]).render(),
        }
    }
}

/// Parse one request line.  The error string is the human-readable half of a
/// [`reject::BAD_REQUEST`] response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = Value::parse(line).map_err(|e| e.to_string())?;
    let verb = value
        .get("verb")
        .and_then(Value::as_str)
        .ok_or("missing string field `verb`")?;
    match verb {
        "status" => Ok(Request::Status),
        "shutdown" => Ok(Request::Shutdown),
        "ledger" => Ok(Request::Ledger {
            session: session_name(&value)?,
        }),
        "metrics" => Ok(Request::Metrics {
            session: optional_session(&value)?,
            noisy: noisy_flag(&value)?,
        }),
        "trace" => Ok(Request::Trace {
            session: optional_session(&value)?,
            noisy: noisy_flag(&value)?,
        }),
        "generate" => parse_generate(&value).map(Request::Generate),
        "update" => parse_update(&value).map(Request::Update),
        other => Err(format!("unknown verb `{other}`")),
    }
}

fn session_name(value: &Value) -> Result<String, String> {
    match value.get("session") {
        None => Ok(DEFAULT_SESSION.to_string()),
        Some(v) => v
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| "field `session` must be a string".to_string()),
    }
}

/// `session` for the observability verbs: absent means "everything", so the
/// default-session fallback of [`session_name`] does not apply.
fn optional_session(value: &Value) -> Result<Option<String>, String> {
    match value.get("session") {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| "field `session` must be a string".to_string()),
    }
}

fn noisy_flag(value: &Value) -> Result<bool, String> {
    match value.get("noisy") {
        None => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| "field `noisy` must be a boolean".to_string()),
    }
}

/// Encode a `metrics`/`trace` request line.
fn observe_verb_line(verb: &str, session: &Option<String>, noisy: bool) -> String {
    let mut fields = vec![("verb", Value::from(verb))];
    if let Some(session) = session {
        fields.push(("session", Value::from(session.as_str())));
    }
    if noisy {
        fields.push(("noisy", Value::Bool(true)));
    }
    Value::obj(fields).render()
}

fn parse_generate(value: &Value) -> Result<GenerateCall, String> {
    let target = value
        .get("target")
        .and_then(Value::as_usize)
        .ok_or("field `target` must be a non-negative integer")?;
    if target == 0 {
        return Err("field `target` must be at least 1".to_string());
    }
    let mut request = GenerateRequest::new(target);
    if let Some(seed) = value.get("seed") {
        request.seed = seed
            .as_u64()
            .ok_or("field `seed` must be a non-negative integer")?;
    }
    if let Some(workers) = value.get("workers") {
        request.workers = Some(
            workers
                .as_usize()
                .ok_or("field `workers` must be a non-negative integer")?,
        );
    }
    if let Some(factor) = value.get("max_candidate_factor") {
        request.max_candidate_factor = Some(
            factor
                .as_usize()
                .ok_or("field `max_candidate_factor` must be a non-negative integer")?,
        );
    }
    if let Some(omega) = value.get("omega") {
        request.omega = Some(parse_omega(omega)?);
    }
    if let Some(policy) = value.get("seed_index") {
        request.seed_index = Some(match policy.as_str() {
            Some("scan") => SeedIndex::Scan,
            Some("inverted") => SeedIndex::Inverted,
            Some("partition") => SeedIndex::Partition,
            Some("auto") => SeedIndex::Auto,
            _ => {
                return Err("field `seed_index` must be \"scan\", \"inverted\", \
                     \"partition\" or \"auto\""
                    .into())
            }
        });
    }
    let stream = match value.get("stream") {
        None => false,
        Some(v) => v.as_bool().ok_or("field `stream` must be a boolean")?,
    };
    let model = match value.get("model") {
        None => ModelKind::Seed,
        Some(v) => match v.as_str() {
            Some("seed") => ModelKind::Seed,
            Some("marginal") => ModelKind::Marginal,
            _ => return Err("field `model` must be \"seed\" or \"marginal\"".into()),
        },
    };
    Ok(GenerateCall {
        session: session_name(value)?,
        request,
        stream,
        model,
    })
}

fn parse_update(value: &Value) -> Result<UpdateCall, String> {
    let records = |key: &str| -> Result<Vec<Record>, String> {
        let Some(field) = value.get(key) else {
            return Ok(Vec::new());
        };
        field
            .as_arr()
            .ok_or_else(|| format!("field `{key}` must be an array of records"))?
            .iter()
            .map(|record| {
                record_from_json(record).map(Record::new).ok_or_else(|| {
                    format!("each `{key}` record must be an array of integers in [0, 65535]")
                })
            })
            .collect()
    };
    Ok(UpdateCall {
        session: session_name(value)?,
        inserts: records("inserts")?,
        deletes: records("deletes")?,
    })
}

fn parse_omega(value: &Value) -> Result<OmegaSpec, String> {
    if let Some(w) = value.as_usize() {
        return Ok(OmegaSpec::Fixed(w));
    }
    let lo = value.get("lo").and_then(Value::as_usize);
    let hi = value.get("hi").and_then(Value::as_usize);
    match (lo, hi) {
        (Some(lo), Some(hi)) => Ok(OmegaSpec::UniformRange { lo, hi }),
        _ => Err("field `omega` must be an integer or {\"lo\":..,\"hi\":..}".to_string()),
    }
}

/// An `"ok":true` response line: the envelope every successful response
/// carries (`ok`, `verb`) plus the verb's own fields.
pub fn ok_line<'a>(verb: &'a str, fields: impl IntoIterator<Item = (&'a str, Value)>) -> String {
    let envelope = [("ok", Value::Bool(true)), ("verb", Value::from(verb))];
    Value::obj(envelope.into_iter().chain(fields)).render()
}

/// An `"ok":false` rejection line: machine-readable `code` plus a
/// human-readable `message` and optional code-specific fields.
pub fn reject_line(code: &str, message: &str, extras: &[(&str, Value)]) -> String {
    let fields = [
        ("ok", Value::Bool(false)),
        ("error", Value::from(code)),
        ("message", Value::from(message)),
    ];
    Value::obj(fields.into_iter().chain(extras.iter().cloned())).render()
}

/// Header line of a successful batch `generate` response.
pub fn batch_header_line(
    released: usize,
    stats: Value,
    request_epsilon: f64,
    ledger: Value,
    provenance: Value,
) -> String {
    ok_line(
        "generate",
        [
            ("streaming", Value::Bool(false)),
            ("released", Value::from(released)),
            ("stats", stats),
            ("request_epsilon", Value::from(request_epsilon)),
            ("ledger", ledger),
            ("provenance", provenance),
        ],
    )
}

/// Header line of a successful streaming `generate` response.
pub fn stream_header_line() -> String {
    ok_line("generate", [("streaming", Value::Bool(true))])
}

/// One released record.  Written directly rather than through [`Value`]:
/// this is the per-record hot path, and its integers need no escaping.
pub fn record_line(record: &Record) -> String {
    let mut line = String::from("{\"record\":[");
    for (i, v) in record.values().iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&v.to_string());
    }
    line.push_str("]}");
    line
}

/// Trailer of a batch `generate` response.
pub fn batch_end_line(released: usize) -> String {
    Value::obj([
        ("end", Value::Bool(true)),
        ("released", Value::from(released)),
    ])
    .render()
}

/// Trailer of a streaming `generate` response (counts are only known here).
pub fn stream_end_line(released: usize, stats: Value, ledger: Value, provenance: Value) -> String {
    Value::obj([
        ("end", Value::Bool(true)),
        ("released", Value::from(released)),
        ("stats", stats),
        ("ledger", ledger),
        ("provenance", provenance),
    ])
    .render()
}

/// Decode a `{"record":[..]}` line into attribute value indices.
pub fn parse_record_line(value: &Value) -> Option<Vec<u16>> {
    record_from_json(value.get("record")?)
}

/// The attribute value indices of a record array, if every element is an
/// integer in `[0, 65535]`.
fn record_from_json(value: &Value) -> Option<Vec<u16>> {
    value
        .as_arr()?
        .iter()
        .map(|v| v.as_u64().and_then(|n| u16::try_from(n).ok()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_calls_round_trip_through_encode_and_parse() {
        let calls = [
            GenerateCall::new(10),
            GenerateCall::new(3)
                .with_session("census")
                .with_stream(true)
                .with_model(ModelKind::Marginal)
                .with_request(
                    GenerateRequest::new(3)
                        .with_seed(99)
                        .with_workers(4)
                        .with_max_candidate_factor(7)
                        .with_omega(OmegaSpec::Fixed(9))
                        .with_seed_index(SeedIndex::Inverted),
                ),
            GenerateCall::new(5).with_request(
                GenerateRequest::new(5).with_omega(OmegaSpec::UniformRange { lo: 8, hi: 11 }),
            ),
        ];
        for call in calls {
            let parsed = parse_request(&call.encode()).unwrap();
            assert_eq!(parsed, Request::Generate(call));
        }
        for request in [
            Request::Status,
            Request::Shutdown,
            Request::Ledger {
                session: "a \"quoted\" name".to_string(),
            },
            Request::Metrics {
                session: None,
                noisy: false,
            },
            Request::Metrics {
                session: Some("census".to_string()),
                noisy: true,
            },
            Request::Trace {
                session: Some("a \"quoted\" name".to_string()),
                noisy: false,
            },
            Request::Trace {
                session: None,
                noisy: true,
            },
        ] {
            assert_eq!(parse_request(&request.encode()).unwrap(), request);
        }
    }

    #[test]
    fn update_calls_round_trip_through_encode_and_parse() {
        let calls = [
            UpdateCall::new(),
            UpdateCall::new()
                .with_session("census")
                .insert(Record::new(vec![1, 2, 3]))
                .insert(Record::new(vec![0, 0, 65535]))
                .delete(Record::new(vec![4, 5, 6])),
            UpdateCall::new().delete(Record::new(vec![9])),
        ];
        for call in calls {
            let parsed = parse_request(&call.encode()).unwrap();
            assert_eq!(parsed, Request::Update(call));
        }
        // Absent arrays default to an empty delta against the default session.
        let parsed = parse_request(r#"{"verb":"update"}"#).unwrap();
        assert_eq!(parsed, Request::Update(UpdateCall::new()));
    }

    #[test]
    fn malformed_update_requests_are_rejected_with_a_reason() {
        for (line, needle) in [
            (r#"{"verb":"update","session":7}"#, "session"),
            (r#"{"verb":"update","inserts":7}"#, "inserts"),
            (r#"{"verb":"update","deletes":[7]}"#, "deletes"),
            (r#"{"verb":"update","inserts":[[-1]]}"#, "integer"),
            (r#"{"verb":"update","inserts":[[70000]]}"#, "integer"),
            (r#"{"verb":"update","deletes":[["a"]]}"#, "integer"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err} (wanted {needle})");
        }
    }

    #[test]
    fn observability_verbs_leave_the_session_filter_optional() {
        // Unlike `ledger`, an absent `session` means "the whole registry",
        // not the default session.
        let parsed = parse_request(r#"{"verb":"metrics"}"#).unwrap();
        assert_eq!(
            parsed,
            Request::Metrics {
                session: None,
                noisy: false
            }
        );
        let parsed = parse_request(r#"{"verb":"trace","session":"acs","noisy":true}"#).unwrap();
        assert_eq!(
            parsed,
            Request::Trace {
                session: Some("acs".to_string()),
                noisy: true
            }
        );
        for (line, needle) in [
            (r#"{"verb":"metrics","session":7}"#, "session"),
            (r#"{"verb":"trace","noisy":"yes"}"#, "noisy"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err} (wanted {needle})");
        }
    }

    #[test]
    fn u64_seeds_round_trip_exactly() {
        // Seeds drive the byte-identical replay guarantee, so the wire must
        // not lose a single bit of them.
        for seed in [9_007_199_254_740_993u64, u64::MAX] {
            let call = GenerateCall::new(2).with_request(GenerateRequest::new(2).with_seed(seed));
            let Request::Generate(parsed) = parse_request(&call.encode()).unwrap() else {
                panic!("expected a generate request");
            };
            assert_eq!(parsed.request.seed, seed);
        }
    }

    #[test]
    fn generate_defaults_match_the_core_request() {
        let parsed = parse_request(r#"{"verb":"generate","target":4}"#).unwrap();
        let Request::Generate(call) = parsed else {
            panic!("expected a generate request");
        };
        assert_eq!(call.session, DEFAULT_SESSION);
        assert_eq!(call.request, GenerateRequest::new(4));
        assert!(!call.stream);
        assert_eq!(call.model, ModelKind::Seed);
    }

    #[test]
    fn malformed_requests_are_rejected_with_a_reason() {
        for (line, needle) in [
            ("not json", "invalid JSON"),
            (r#"{"target":4}"#, "verb"),
            (r#"{"verb":"launch"}"#, "unknown verb"),
            (r#"{"verb":"generate"}"#, "target"),
            (r#"{"verb":"generate","target":0}"#, "at least 1"),
            (r#"{"verb":"generate","target":4,"seed":-1}"#, "seed"),
            (r#"{"verb":"generate","target":4,"omega":"nine"}"#, "omega"),
            (
                r#"{"verb":"generate","target":4,"seed_index":"btree"}"#,
                "seed_index",
            ),
            (r#"{"verb":"generate","target":4,"model":"gpt"}"#, "model"),
            (r#"{"verb":"ledger","session":7}"#, "session"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err} (wanted {needle})");
        }
        // A nesting bomb is one more malformed document, not a stack overflow.
        let err = parse_request(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn response_lines_are_valid_json() {
        let provenance = Value::obj([
            ("gamma", Value::from(4.0)),
            ("request_seed", Value::from(u64::MAX)),
        ]);
        let stats = Value::obj([("pass_rate", Value::from(1.0))]);
        let ledger = Value::obj([("total_delta", Value::from(0.0))]);
        let extras = [
            ("cap_epsilon", Value::from(2.0)),
            ("cap_delta", Value::Null),
            ("retry_after_ms", Value::from(50u64)),
        ];
        let lines = [
            reject_line(reject::BUDGET_EXHAUSTED, "over \"budget\"", &extras),
            batch_header_line(2, stats.clone(), 1.0, ledger.clone(), provenance.clone()),
            record_line(&Record::new(vec![3, 0, 65535])),
            batch_end_line(2),
            stream_header_line(),
            stream_end_line(4, stats, ledger, provenance.clone()),
        ];
        // Every line is canonical: parsing and rendering reproduces it.
        let parsed: Vec<Value> = lines
            .iter()
            .map(|line| {
                let value = Value::parse(line).unwrap();
                assert_eq!(&value.render(), line, "not canonical JSON");
                value
            })
            .collect();
        assert_eq!(parsed[0].get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            parsed[0].get("retry_after_ms").and_then(Value::as_u64),
            Some(50)
        );
        assert_eq!(parsed[1].get("provenance"), Some(&provenance));
        assert_eq!(parsed[1].get("request_epsilon"), Some(&Value::Float(1.0)));
        assert_eq!(parse_record_line(&parsed[2]), Some(vec![3, 0, 65535]));
        assert_eq!(parsed[3].get("released").and_then(Value::as_usize), Some(2));
        assert_eq!(
            parsed[4].get("streaming").and_then(Value::as_bool),
            Some(true)
        );
        assert_eq!(parsed[5].get("provenance"), Some(&provenance));
    }
}
