//! `query_hot` and `query_cold`: an in-process `oaq_serve` server on
//! loopback driven through `oaq_serve::Client`. Each reply is reduced to a
//! digest as it arrives; after the timed phase every digest is compared
//! with the digest of `oaq_engine::direct_eval` on the same query.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use oaq_core::fullstack::{solve_tracks_batched, summarize_tracks, synthesize_emitter_tracks};
use oaq_engine::{
    direct_eval, DefaultEvaluator, EngineConfig, Evaluator, LatencySnapshot, Measure,
    MetricsSnapshot, QosQuery, QosValue,
};
use oaq_geoloc::{BatchSolver, WlsSolver};
use oaq_serve::proto::{decode_frame, encode_request, encode_response};
use oaq_serve::{serve, Client, Reply, Request, ServerConfig, ServerHandle};

use crate::gen::{cold_query, hot_cycle};
use crate::stats::{mean, ratio};
use crate::trace::Tracer;
use crate::{fnv1a, slices, touched, Layers, Options, Outcome, Phase, Reconciliation};

/// Engine worker threads behind the server.
const ENGINE_WORKERS: usize = 2;
/// Closed-loop connections of `query_hot`.
const HOT_CONNECTIONS: usize = 2;
/// Requests kept in flight on the one `query_cold` connection.
const COLD_WINDOW: usize = 16;
/// Tolerance of the reconciliation between the replayed solver layers and
/// the server's solve clock: the two are measured apart, on a host whose
/// speed drifts between them.
const SOLVE_TOLERANCE: f64 = 0.25;
/// Replies one phase records at most. A phase ends at its deadline or
/// when this many replies arrived; the sample buffers are allocated and
/// touched before it starts, so peak RSS does not grow with throughput.
const MAX_REPLIES: usize = 1 << 17;

/// Which traffic to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Result-cache hits over two synchronous connections.
    Hot,
    /// Distinct requests pipelined on one connection.
    Cold,
}

/// The request source of one traffic shape.
enum Source {
    /// A cycle that connections walk round robin.
    Hot(Vec<QosQuery>),
    /// An indexed stream of distinct requests.
    Cold(u64),
}

impl Source {
    fn query(&self, i: u64) -> QosQuery {
        match self {
            Source::Hot(cycle) => cycle[self.slot(i) as usize],
            Source::Cold(seed) => cold_query(*seed, i),
        }
    }

    /// The position that identifies request `i`'s query: the hot cycle
    /// repeats, the cold stream does not.
    fn slot(&self, i: u64) -> u64 {
        match self {
            Source::Hot(cycle) => i % cycle.len() as u64,
            Source::Cold(_) => i,
        }
    }
}

/// A digest of a request id and an answer's bits; an error frame hashes
/// a tag no value uses.
#[must_use]
pub fn digest(req_id: u64, value: Option<&QosValue>) -> u64 {
    let mut words = vec![req_id];
    match value {
        Some(QosValue::Scalar(x)) => words.extend([0, x.to_bits()]),
        Some(QosValue::Distribution(d)) => {
            words.extend([1, d.len() as u64]);
            words.extend(d.iter().map(|x| x.to_bits()));
        }
        None => words.push(2),
    }
    fnv1a(words)
}

fn reply_digest(reply: &Reply) -> u64 {
    match reply {
        Reply::Value { req_id, value } => digest(*req_id, Some(value)),
        Reply::Error { req_id, .. } => digest(*req_id, None),
    }
}

/// What one connection saw in one phase. Reply `k` answers request
/// `first + k · stride`.
struct ConnRun {
    first: u64,
    stride: u64,
    rt_us: Vec<f64>,
    digests: Vec<u64>,
    sent: u64,
    /// Requests lost to a socket or protocol error.
    lost: u64,
    /// The next index this connection would have sent.
    next: u64,
    tracer: Option<Tracer>,
}

impl ConnRun {
    fn new(first: u64, stride: u64, cap: usize, tracer: Option<Tracer>) -> Self {
        ConnRun {
            first,
            stride,
            rt_us: touched(cap, 1.0),
            digests: touched(cap, 1),
            sent: 0,
            lost: 0,
            next: first,
            tracer,
        }
    }

    fn full(&self) -> bool {
        self.rt_us.len() == self.rt_us.capacity()
    }

    fn record(&mut self, t0: Instant, t2: Instant, reply: &Reply) {
        self.rt_us.push((t2 - t0).as_secs_f64() * 1e6);
        self.digests.push(reply_digest(reply));
    }

    /// `(request index, reply digest)` of every answered request.
    fn answered(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0u64..)
            .zip(&self.digests)
            .map(|(k, &d)| (self.first + k * self.stride, d))
    }
}

/// Boots a server, opens its connections and loads the answer to every
/// query of `warm` into the engine's result cache through its warm-start
/// path (`Engine::preload_result`), computing each with `direct_eval` on
/// the set-up thread. One thread does the warm-up, so its time does not
/// hinge on thread hand-offs or on a second core being free.
fn boot(traffic: Traffic, warm: &[QosQuery]) -> std::io::Result<(ServerHandle, Vec<Client>)> {
    let handle = serve(&ServerConfig {
        engine: EngineConfig {
            workers: ENGINE_WORKERS,
            ..EngineConfig::default()
        },
        ..ServerConfig::default()
    })?;
    let conns = match traffic {
        Traffic::Hot => HOT_CONNECTIONS,
        Traffic::Cold => 1,
    };
    let clients = (0..conns)
        .map(|_| Client::connect(handle.local_addr()))
        .collect::<std::io::Result<Vec<_>>>()?;
    for q in warm {
        let value = direct_eval(q)
            .map_err(|e| std::io::Error::other(format!("warm-up query failed: {e}")))?;
        handle.engine().preload_result(q.key(), value);
    }
    Ok((handle, clients))
}

/// The warm-up queries: every distinct query of the hot cycle, so the
/// timed phase sees only result-cache hits. The cold stream never repeats
/// a request, so nothing warms it.
fn warmup(source: &Source) -> Vec<QosQuery> {
    match source {
        Source::Hot(cycle) => {
            let mut seen = std::collections::HashSet::new();
            cycle
                .iter()
                .copied()
                .filter(|q| seen.insert(q.key()))
                .collect()
        }
        Source::Cold(_) => Vec::new(),
    }
}

/// Times one set-up of a server of its own; its shutdown is not timed.
fn time_setup(traffic: Traffic, warm: &[QosQuery]) -> std::io::Result<f64> {
    let t0 = Instant::now();
    let (handle, clients) = boot(traffic, warm)?;
    let secs = t0.elapsed().as_secs_f64();
    drop(clients);
    shutdown(handle)?;
    Ok(secs)
}

/// One synchronous connection: send, wait for the reply, repeat until the
/// deadline or a full buffer.
fn closed_loop(client: &mut Client, source: &Source, deadline: Instant, run: &mut ConnRun) {
    let conn_span = run
        .tracer
        .as_mut()
        .map(|t| t.open("serve.conn", None, run.first));
    while Instant::now() < deadline && !run.full() {
        let idx = run.next;
        run.next += run.stride;
        let req = Request::from_query(idx, &source.query(idx));
        let t0 = Instant::now();
        run.sent += 1;
        if client.send(&req).is_err() {
            run.lost += 1;
            break;
        }
        let t1 = run.tracer.as_ref().map(|_| Instant::now());
        let reply = client.recv();
        let t2 = Instant::now();
        if let (Some(t), Some(t1)) = (run.tracer.as_mut(), t1) {
            t.record("serve.send", conn_span, idx, t0, t1);
            t.record("serve.recv_wait", conn_span, idx, t1, t2);
            t.record("serve.request", None, idx, t0, t2);
        }
        match reply {
            Ok(reply) => run.record(t0, t2, &reply),
            Err(_) => {
                run.lost += 1;
                break;
            }
        }
    }
    if let (Some(t), Some(span)) = (run.tracer.as_mut(), conn_span) {
        t.close(span);
    }
}

/// Sends request `run.next` on a pipelined connection; `false` when the
/// socket refused it.
fn send_next(
    client: &mut Client,
    source: &Source,
    run: &mut ConnRun,
    in_flight: &mut VecDeque<(u64, Instant)>,
    conn_span: Option<usize>,
) -> bool {
    let idx = run.next;
    let req = Request::from_query(idx, &source.query(idx));
    let t0 = Instant::now();
    run.sent += 1;
    run.next += 1;
    let ok = client.send(&req).is_ok();
    if let Some(t) = run.tracer.as_mut() {
        t.record("serve.send", conn_span, idx, t0, Instant::now());
    }
    in_flight.push_back((idx, t0));
    ok
}

/// One pipelined connection: keep `window` requests in flight and send
/// the next one as each reply arrives; stop sending at the deadline or
/// when the buffer would overflow, then drain.
fn pipelined(
    client: &mut Client,
    source: &Source,
    window: usize,
    deadline: Instant,
    run: &mut ConnRun,
) {
    let conn_span = run
        .tracer
        .as_mut()
        .map(|t| t.open("serve.conn", None, run.first));
    let cap = run.rt_us.capacity() as u64;
    let mut in_flight = VecDeque::with_capacity(window);
    let mut ok = true;
    let more = |run: &ConnRun| Instant::now() < deadline && run.sent < cap;
    while ok && in_flight.len() < window && more(run) {
        ok = send_next(client, source, run, &mut in_flight, conn_span);
    }
    while ok {
        let Some(&(idx, t0)) = in_flight.front() else {
            break;
        };
        let t1 = Instant::now();
        let reply = client.recv();
        let t2 = Instant::now();
        if let Some(t) = run.tracer.as_mut() {
            t.record("serve.recv_wait", conn_span, idx, t1, t2);
            t.record("serve.request", None, idx, t0, t2);
        }
        let Ok(reply) = reply else {
            break;
        };
        in_flight.pop_front();
        run.record(t0, t2, &reply);
        if more(run) {
            ok = send_next(client, source, run, &mut in_flight, conn_span);
        }
    }
    run.lost += in_flight.len() as u64;
    if let (Some(t), Some(span)) = (run.tracer.as_mut(), conn_span) {
        t.close(span);
    }
}

/// One timed phase over every connection, run in one or more slices.
struct PhaseRun {
    conns: Vec<ConnRun>,
    elapsed_s: f64,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl PhaseRun {
    /// A phase whose connection `c` of `conns` sends requests
    /// `first + c`, `first + c + conns`, …; spans are kept when `traced`.
    fn new(handle: &ServerHandle, conns: usize, first: u64, traced: Option<Instant>) -> Self {
        let stride = conns as u64;
        let cap = MAX_REPLIES / conns;
        let metrics = handle.engine().metrics();
        PhaseRun {
            conns: (0..stride)
                .map(|c| ConnRun::new(first + c, stride, cap, traced.map(Tracer::new)))
                .collect(),
            elapsed_s: 0.0,
            before: metrics,
            after: metrics,
        }
    }

    /// Drives every connection for `seconds` more, each on its own thread.
    fn extend(
        &mut self,
        traffic: Traffic,
        source: &Source,
        handle: &ServerHandle,
        clients: &mut [Client],
        seconds: f64,
    ) {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        std::thread::scope(|s| {
            for (client, run) in clients.iter_mut().zip(&mut self.conns) {
                s.spawn(move || match traffic {
                    Traffic::Hot => closed_loop(client, source, deadline, run),
                    Traffic::Cold => pipelined(client, source, COLD_WINDOW, deadline, run),
                });
            }
        });
        self.elapsed_s += start.elapsed().as_secs_f64();
        self.after = handle.engine().metrics();
    }

    fn answered(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.conns.iter().flat_map(ConnRun::answered)
    }

    fn replies(&self) -> usize {
        self.conns.iter().map(|c| c.rt_us.len()).sum()
    }

    fn phase(&self) -> Phase {
        let mut latencies_ms = touched(MAX_REPLIES, 1.0);
        latencies_ms.extend(
            self.conns
                .iter()
                .flat_map(|c| c.rt_us.iter().map(|us| us / 1e3)),
        );
        Phase::new(self.replies() as f64 / self.elapsed_s, latencies_ms)
    }

    /// The first index no connection of this phase has used.
    fn next_index(&self) -> u64 {
        self.conns.iter().map(|c| c.next).max().unwrap_or(0)
    }

    fn attempted(&self) -> u64 {
        self.conns.iter().map(|c| c.sent).sum()
    }
}

/// `direct_eval` of each request, the reference answers are compared
/// with. Only the hot cycle, whose slots repeat, is memoized, so the gate
/// holds no per-request state and peak RSS stays independent of how many
/// requests a phase answered.
struct References<'a> {
    source: &'a Source,
    memo: HashMap<u64, QosValue>,
}

impl<'a> References<'a> {
    fn new(source: &'a Source) -> Self {
        References {
            source,
            memo: HashMap::new(),
        }
    }

    fn get(&mut self, idx: u64) -> QosValue {
        let eval = |q: QosQuery| direct_eval(&q).expect("generated queries evaluate");
        match self.source {
            Source::Hot(_) => self
                .memo
                .entry(self.source.slot(idx))
                .or_insert_with(|| eval(self.source.query(idx)))
                .clone(),
            Source::Cold(_) => eval(self.source.query(idx)),
        }
    }
}

/// The correctness gate: requests lost to a socket or protocol error, plus
/// replies that are an error frame, carry the wrong id, or differ in any
/// bit from `direct_eval`.
fn failures(phase: &PhaseRun, refs: &mut References<'_>) -> u64 {
    let lost: u64 = phase.conns.iter().map(|c| c.lost).sum();
    let wrong = phase
        .answered()
        .filter(|&(idx, d)| d != digest(idx, Some(&refs.get(idx))))
        .count() as u64;
    lost + wrong
}

/// Mean of a stage over the requests between two snapshots, µs.
fn stage_mean_us(a: &LatencySnapshot, b: &LatencySnapshot) -> f64 {
    let n = b.count.saturating_sub(a.count);
    if n == 0 {
        return 0.0;
    }
    let sum = |s: &LatencySnapshot| {
        if s.count == 0 {
            0.0
        } else {
            s.mean * s.count as f64
        }
    };
    (sum(b) - sum(a)) / n as f64 * 1e6
}

/// The engine's counters over a phase.
fn engine_layers(l: &mut Layers, b: &MetricsSnapshot, a: &MetricsSnapshot) {
    let submitted = a.submitted - b.submitted;
    let rejected = a.rejected - b.rejected;
    let pk_solves = a.pk_solves - b.pk_solves;
    let pk_hits = a.pk_cache_hits - b.pk_cache_hits;
    let batches = a.batch_count - b.batch_count;
    let batched =
        a.mean_batch_size * a.batch_count as f64 - b.mean_batch_size * b.batch_count as f64;
    l.set(
        "engine.queue_wait_us",
        stage_mean_us(&b.queue_wait, &a.queue_wait),
    );
    l.set("engine.solve_us", stage_mean_us(&b.solve, &a.solve));
    l.set(
        "engine.mean_batch_size",
        if batches == 0 {
            0.0
        } else {
            batched / batches as f64
        },
    );
    l.set(
        "engine.result_hit_ratio",
        ratio(a.result_cache_hits - b.result_cache_hits, submitted),
    );
    l.set("engine.pk_solves_per_req", ratio(pk_solves, submitted));
    l.set("engine.pk_hit_ratio", ratio(pk_hits, pk_hits + pk_solves));
    l.set(
        "engine.coalesced_per_req",
        ratio(a.coalesced - b.coalesced, submitted),
    );
    l.set(
        "engine.rejected_frac",
        ratio(rejected, submitted + rejected),
    );
}

/// The solver replay of a traced `query_cold` phase: each answered
/// request again, through the calls the engine's evaluation makes, one
/// span each: `DefaultEvaluator::solve_pk` and `eval_with_pk` for capacity
/// requests, and for tracking requests the three geolocation steps of
/// `run_emitter_batch`.
#[derive(Debug, Default)]
struct SolverReplay {
    emitters: u64,
    solved: u64,
    /// `(request index, digest of the replayed answer)`.
    answers: Vec<(u64, u64)>,
}

/// The spans of [`SolverReplay::replay`].
const SOLVER_SPANS: [&str; 5] = [
    "san.solve_pk",
    "analytic.eval_with_pk",
    "geoloc.synth",
    "geoloc.wls_batch",
    "geoloc.summarize",
];

impl SolverReplay {
    /// Replays request `idx`.
    fn replay(&mut self, source: &Source, idx: u64, tracer: &mut Tracer) {
        let q = source.query(idx);
        let value = if let Measure::EmitterTracking {
            emitters,
            passes,
            seed,
        } = q.measure()
        {
            let spec = q.spec();
            let revisit = spec.theta / f64::from(spec.eta);
            let tracks = tracer.time("geoloc.synth", None, idx, || {
                synthesize_emitter_tracks(
                    spec.theta,
                    spec.tc,
                    revisit,
                    emitters,
                    passes,
                    seed.into(),
                )
            });
            let mut batch = BatchSolver::new(WlsSolver::new());
            let results = tracer.time("geoloc.wls_batch", None, idx, || {
                solve_tracks_batched(&tracks, &mut batch)
            });
            let report = tracer.time("geoloc.summarize", None, idx, || {
                summarize_tracks(&tracks, &results)
            });
            self.emitters += u64::from(report.emitters);
            self.solved += u64::from(report.solved);
            QosValue::Scalar(report.mean_reported_error_km)
        } else {
            let pk = tracer
                .time("san.solve_pk", None, idx, || DefaultEvaluator.solve_pk(&q))
                .expect("generated queries solve");
            tracer.time("analytic.eval_with_pk", None, idx, || {
                DefaultEvaluator.eval_with_pk(&q, &pk)
            })
        };
        self.answers.push((idx, digest(idx, Some(&value))));
    }

    /// Replays the answered requests of `phase` after it, paced like it:
    /// bursts of [`COLD_WINDOW`] requests at the phase's request rate, each
    /// burst split over [`ENGINE_WORKERS`] threads that wake together. The
    /// replay then has the server's duty cycle (a burst of solves after
    /// each wire stall), its parallelism and as long a stretch of host
    /// conditions as the phase, so its per-call costs compare with the
    /// server's own solve clock.
    fn paced(source: &Source, phase: &PhaseRun, origin: Instant) -> (Self, Tracer) {
        let indices: Vec<u64> = phase.answered().map(|(idx, _)| idx).collect();
        #[allow(clippy::cast_precision_loss)]
        let period = phase.elapsed_s * COLD_WINDOW as f64 / indices.len().max(1) as f64;
        let start = Instant::now();
        let indices = &indices;
        let parts: Vec<(Self, Tracer)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..ENGINE_WORKERS)
                .map(|t| {
                    s.spawn(move || {
                        let mut replay = SolverReplay::default();
                        let mut spans = Tracer::new(origin);
                        for (b, burst) in (0u32..).zip(indices.chunks(COLD_WINDOW)) {
                            let wake = start + Duration::from_secs_f64(period * f64::from(b));
                            std::thread::sleep(wake.saturating_duration_since(Instant::now()));
                            for &idx in burst.iter().skip(t).step_by(ENGINE_WORKERS) {
                                replay.replay(source, idx, &mut spans);
                            }
                        }
                        (replay, spans)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("replay thread panicked"))
                .collect()
        });
        let mut all = (SolverReplay::default(), Tracer::new(origin));
        for (replay, spans) in parts {
            all.0.emitters += replay.emitters;
            all.0.solved += replay.solved;
            all.0.answers.extend(replay.answers);
            all.1.absorb(spans);
        }
        all
    }

    /// Replayed answers that differ from `direct_eval`.
    fn mismatches(&self, refs: &mut References<'_>) -> u64 {
        self.answers
            .iter()
            .filter(|&&(idx, d)| d != digest(idx, Some(&refs.get(idx))))
            .count() as u64
    }

    /// Sets the solver layers and reconciles their sum per request with
    /// the server's own solve clock over the same requests
    /// (`engine.solve_us`, already in `l`).
    fn finish(&self, l: &mut Layers, recon: &mut Vec<Reconciliation>, tracer: &Tracer) {
        let t = tracer.totals();
        let mean_us = |name: &str| t.get(name).map_or(0.0, |x| x.mean_us());
        let total_us = |name: &str| t.get(name).map_or(0.0, |x| x.total_us);
        l.set("san.pk_solve_us", mean_us("san.solve_pk"));
        l.set("analytic.g_eval_us", mean_us("analytic.eval_with_pk"));
        l.set("geoloc.synth_us", mean_us("geoloc.synth"));
        l.set("geoloc.wls_batch_us", mean_us("geoloc.wls_batch"));
        l.set("geoloc.solved_frac", ratio(self.solved, self.emitters));
        let replayed_us: f64 = SOLVER_SPANS.into_iter().map(total_us).sum();
        #[allow(clippy::cast_precision_loss)]
        let per_request = replayed_us / self.answers.len().max(1) as f64;
        recon.push(Reconciliation::new(
            "replayed solver layers per request (san.pk_solve_us + analytic.g_eval_us on \
             capacity requests, geoloc synth + wls + summarize on tracking ones) = engine.solve_us",
            per_request,
            l.get("engine.solve_us"),
            SOLVE_TOLERANCE,
        ));
    }
}

/// Per-layer numbers of a traced phase: the client's own spans, replays
/// of its requests through each crate's public functions, and the
/// engine's counters.
fn layers(
    traffic: Traffic,
    source: &Source,
    handle: &ServerHandle,
    phase: &PhaseRun,
    refs: &mut References<'_>,
    out: &mut Outcome,
    tracer: &mut Tracer,
) {
    let mut l = Layers::new();
    let mut recon = Vec::new();
    let replies = phase.replies().max(1) as f64;
    let rt_mean_us = mean(
        &phase
            .conns
            .iter()
            .flat_map(|c| c.rt_us.clone())
            .collect::<Vec<_>>(),
    );
    let t = tracer.totals();
    let conn = t.get("serve.conn").copied().unwrap_or_default();
    let send = t.get("serve.send").copied().unwrap_or_default();
    let recv = t.get("serve.recv_wait").copied().unwrap_or_default();
    l.set("serve.send_us", send.mean_us());
    l.set("serve.recv_wait_us", recv.mean_us());
    recon.push(Reconciliation::new(
        "serve.send_us + serve.recv_wait_us = client time per request",
        (send.total_us + recv.total_us) / replies,
        conn.total_us / replies,
        0.05,
    ));

    // Codec: the four encode/decode steps of each request, replayed.
    let mut bytes = 0usize;
    for (idx, _) in phase.answered() {
        let req = Request::from_query(idx, &source.query(idx));
        let value = &refs.get(idx);
        tracer.time("serve.codec", None, idx, || {
            let out = encode_request(&req);
            let back = decode_frame(std::hint::black_box(&out));
            let resp = encode_response(idx, value);
            let answer = decode_frame(std::hint::black_box(&resp));
            // Two 4-byte length prefixes frame the payloads on the wire.
            bytes += 8 + out.len() + resp.len();
            assert!(back.is_ok() && answer.is_ok(), "replayed frames decode");
        });
    }
    l.set(
        "serve.codec_us",
        tracer
            .totals()
            .get("serve.codec")
            .map_or(0.0, |x| x.mean_us()),
    );
    l.set("serve.bytes_per_req", bytes as f64 / replies);

    // The engine answers hits at submission without timing them, so on
    // hit traffic its end-to-end time is `Engine::evaluate` replayed on
    // the same requests; otherwise it is the engine's own clock.
    let (b, a) = (&phase.before, &phase.after);
    let e2e_us = if traffic == Traffic::Hot {
        for (idx, _) in phase.answered() {
            let q = source.query(idx);
            tracer.time("engine.evaluate", None, idx, || {
                std::hint::black_box(handle.engine().evaluate(q)).is_ok()
            });
        }
        tracer
            .totals()
            .get("engine.evaluate")
            .map_or(0.0, |x| x.mean_us())
    } else {
        stage_mean_us(&b.end_to_end, &a.end_to_end)
    };
    engine_layers(&mut l, b, a);
    l.set("engine.e2e_us", e2e_us);
    l.set("serve.wire_overhead_us", rt_mean_us - e2e_us);
    recon.push(Reconciliation::bounded(
        "engine.e2e_us + serve.wire_overhead_us = round trip, both parts >= 0",
        e2e_us,
        rt_mean_us,
    ));

    out.layers = l;
    out.reconciliations = recon;
}

/// Runs `query_hot` or `query_cold`.
///
/// # Errors
///
/// A server that cannot boot, a refused connection, or a failed warm-up.
pub fn run(traffic: Traffic, opts: &Options) -> std::io::Result<Outcome> {
    let source = match traffic {
        Traffic::Hot => Source::Hot(hot_cycle(opts.seed)),
        Traffic::Cold => Source::Cold(opts.seed),
    };
    let warm = warmup(&source);
    let t0 = Instant::now();
    let (handle, mut clients) = boot(traffic, &warm)?;
    let mut setups = vec![t0.elapsed().as_secs_f64()];

    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    // Both phases run in slices with one set-up timed after each. The
    // set-up times then sample the same stretch of host conditions as the
    // timed requests instead of a burst at process start, and the traced
    // phase keeps the untraced one's rhythm, so the tracing overhead
    // compares like with like.
    let n = slices(seconds);
    let sliced = |phase: &mut PhaseRun,
                  clients: &mut [Client],
                  setups: &mut Vec<f64>|
     -> std::io::Result<()> {
        for _ in 0..n {
            #[allow(clippy::cast_precision_loss)]
            phase.extend(traffic, &source, &handle, clients, seconds / n as f64);
            setups.push(time_setup(traffic, &warm)?);
        }
        Ok(())
    };
    let mut plain = PhaseRun::new(&handle, clients.len(), 0, None);
    sliced(&mut plain, &mut clients, &mut setups)?;
    let mut refs = References::new(&source);
    let mut outcome = Outcome::new(setups, plain.phase());
    outcome.attempted = plain.attempted();
    outcome.failed = failures(&plain, &mut refs);

    if opts.trace {
        let origin = Instant::now();
        let mut traced = PhaseRun::new(&handle, clients.len(), plain.next_index(), Some(origin));
        sliced(&mut traced, &mut clients, &mut Vec::new())?;
        outcome.attempted += traced.attempted();
        outcome.failed += failures(&traced, &mut refs);
        let mut tracer = Tracer::new(origin);
        for c in &mut traced.conns {
            if let Some(t) = c.tracer.take() {
                tracer.absorb(t);
            }
        }
        let solvers = (traffic == Traffic::Cold).then(|| {
            let (solvers, spans) = SolverReplay::paced(&source, &traced, origin);
            tracer.absorb(spans);
            outcome.failed += solvers.mismatches(&mut refs);
            solvers
        });
        layers(
            traffic,
            &source,
            &handle,
            &traced,
            &mut refs,
            &mut outcome,
            &mut tracer,
        );
        if let Some(solvers) = solvers {
            solvers.finish(&mut outcome.layers, &mut outcome.reconciliations, &tracer);
        }
        outcome.traced = Some(traced.phase());
        outcome.tracer = Some(tracer);
    }
    outcome.note("connections", clients.len() as f64);
    outcome.note("engine_workers", ENGINE_WORKERS as f64);
    outcome.note(
        "window",
        match traffic {
            Traffic::Hot => 1.0,
            Traffic::Cold => COLD_WINDOW as f64,
        },
    );
    outcome.note("max_replies_per_phase", MAX_REPLIES as f64);
    drop(clients);
    shutdown(handle)?;
    Ok(outcome)
}

fn shutdown(handle: ServerHandle) -> std::io::Result<()> {
    handle
        .shutdown()
        .map(|_| ())
        .map_err(|e| std::io::Error::other(format!("server shutdown: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_bit_and_the_id() {
        let a = QosValue::Scalar(0.5);
        let b = QosValue::Scalar(f64::from_bits(0.5f64.to_bits() + 1));
        assert_eq!(digest(3, Some(&a)), digest(3, Some(&a)));
        assert_ne!(digest(3, Some(&a)), digest(3, Some(&b)));
        assert_ne!(digest(3, Some(&a)), digest(4, Some(&a)));
        assert_ne!(digest(3, Some(&a)), digest(3, None));
        let d = QosValue::Distribution(vec![0.5]);
        assert_ne!(digest(3, Some(&a)), digest(3, Some(&d)));
    }
}
