//! `campaign`: back-to-back passes over the full E15 robustness grid
//! through `oaq_bench::campaign::run_grid_scenario` with two workers, each
//! pass gated against a one-worker run of the same seed.

use std::time::Instant;

use oaq_bench::campaign::{
    replay_episode_scenario, run_grid_scenario, CellOutcome, CellSpec, Scenario,
};
use oaq_core::config::{ProtocolConfig, Scheme};
use oaq_core::protocol::{Episode, EpisodeScratch, TraceEvent};
use oaq_core::qos_level::QosLevel;

use crate::gen::{campaign_grid, cell_config, episode_plan, pass_seed, warmup_seed};
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use crate::{fnv1a, slices, touched, Options, Outcome, Phase, Reconciliation};

/// Workers of the timed passes.
const WORKERS: usize = 2;
/// Episodes per cell in one pass (63 cells, so 4032 episodes a pass).
pub const EPISODES_PER_CELL: u64 = 64;
/// Passes one phase records at most; the buffer is allocated and touched
/// before the phase, so peak RSS does not grow with throughput.
const MAX_PASSES: usize = 1 << 14;

/// One pass: the two-worker wall time and the one-worker time of its gate
/// run.
#[derive(Debug, Clone, Copy)]
struct Pass {
    secs: f64,
    serial_secs: f64,
}

/// The passes of one phase.
struct PassRun {
    passes: Vec<Pass>,
    /// Cells that failed the gate.
    failed: u64,
}

impl PassRun {
    /// No passes yet; the buffer is touched now.
    fn new() -> Self {
        let blank = Pass {
            secs: 1.0,
            serial_secs: 1.0,
        };
        PassRun {
            passes: touched(MAX_PASSES, blank),
            failed: 0,
        }
    }

    fn episodes(&self) -> u64 {
        self.passes.len() as u64 * 63 * EPISODES_PER_CELL
    }

    fn phase(&self) -> Phase {
        let secs: f64 = self.passes.iter().map(|p| p.secs).sum();
        #[allow(clippy::cast_precision_loss)]
        let episodes = self.episodes() as f64;
        let mut latencies_ms = touched(MAX_PASSES, 1.0);
        latencies_ms.extend(self.passes.iter().map(|p| p.secs * 1e3));
        Phase::new(episodes / secs, latencies_ms)
    }
}

/// A digest of every field of every cell aggregate, violations included.
fn grid_digest(cells: &[CellOutcome]) -> u64 {
    fnv1a(cells.iter().flat_map(|c| {
        [
            c.spec.loss.marginal().to_bits(),
            c.spec.loss.burst_len().to_bits(),
            c.spec.node_failure_rate.to_bits(),
            u64::from(c.spec.retry_budget),
            c.episodes,
            c.detected,
            c.timely,
            c.quality,
            c.live_detector,
            c.live_detector_timely,
            c.violations.len() as u64,
        ]
        .into_iter()
        .chain(c.violations.iter().flat_map(|v| [v.episode, v.seed]))
    }))
}

/// Adds two-worker passes to `run` until they add up to `seconds` more.
/// Pass `i` of the run is seeded by `first + i`. Each is followed at once
/// by its correctness gate, a one-worker run of the same seed, outside the
/// timed interval; running the pair back to back gives both the same host
/// conditions. A pass whose aggregates differ from the gate run counts all
/// its cells as failed; a cell holding a live-detector by-τ violation
/// counts as failed.
#[allow(clippy::too_many_arguments)]
fn run_passes(
    run: &mut PassRun,
    two: &Scenario<'_>,
    one: &Scenario<'_>,
    grid: &[CellSpec],
    seed: u64,
    first: u64,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) {
    let mut timed = 0.0;
    let mut index = first + run.passes.len() as u64;
    while timed < seconds && run.passes.len() < MAX_PASSES {
        let base_seed = pass_seed(seed, index);
        let t0 = Instant::now();
        let cells = run_grid_scenario(two, grid, EPISODES_PER_CELL, base_seed);
        let t1 = Instant::now();
        let serial = run_grid_scenario(one, grid, EPISODES_PER_CELL, base_seed);
        let t2 = Instant::now();
        if let Some(t) = tracer.as_deref_mut() {
            t.record("campaign.pass", None, index, t0, t1);
            t.record("campaign.pass_1_worker", None, index, t1, t2);
        }
        run.failed += if grid_digest(&cells) == grid_digest(&serial) {
            cells.iter().filter(|c| !c.violations.is_empty()).count() as u64
        } else {
            grid.len() as u64
        };
        let pass = Pass {
            secs: (t1 - t0).as_secs_f64(),
            serial_secs: (t2 - t1).as_secs_f64(),
        };
        timed += pass.secs;
        run.passes.push(pass);
        index += 1;
    }
}

/// Counts of the seeded episode sample.
#[derive(Default)]
struct Sample {
    episodes: u64,
    detected: u64,
    timely: u64,
    chain_sum: u64,
    messages: u64,
    coord_requests: u64,
    gave_up: u64,
    wait_timeouts: u64,
    /// Replayed episodes that disagree with the campaign's own replay, plus
    /// cells whose replayed tallies differ from the campaign's.
    mismatches: u64,
}

/// Replays every episode of the pass seeded `base_seed` outside the
/// executor, timing `Episode::reset` plus the fault mutators apart from
/// `Episode::run_scratch`. Returns the summed µs of both.
fn time_sample(grid: &[CellSpec], base_seed: u64, tracer: &mut Tracer) -> f64 {
    let mut scratch = EpisodeScratch::new();
    let mut episode: Option<Episode> = None;
    let mut total = 0.0;
    for (c, spec) in grid.iter().enumerate() {
        let cfg = cell_config(spec);
        for i in 0..EPISODES_PER_CELL {
            let plan = episode_plan(&cfg, spec, base_seed, i);
            let id = c as u64 * EPISODES_PER_CELL + i;
            // Three clock reads per episode: episodes take ~1-2 µs, so
            // every read shows in the reconciliation against the untimed
            // one-worker run.
            let t0 = Instant::now();
            let ep = episode.get_or_insert_with(|| Episode::new(&cfg, plan.seed));
            ep.reset(&cfg, plan.seed);
            for &(sat, from, until) in &plan.failures {
                match until {
                    None => ep.add_failure(sat, from),
                    Some(u) => ep.add_failure_window(sat, from, u),
                }
            }
            let t1 = Instant::now();
            let out = ep.run_scratch(plan.birth, plan.duration, &mut scratch);
            let t2 = Instant::now();
            std::hint::black_box(out);
            let span = tracer.record("core.episode", None, id, t0, t2);
            tracer.record("core.episode_setup", Some(span), id, t0, t1);
            tracer.record("core.episode_run", Some(span), id, t1, t2);
            total += (t2 - t0).as_secs_f64() * 1e6;
        }
    }
    total
}

/// Counts protocol events on `Episode::run_traced` for every episode of
/// the pass seeded `base_seed`, checking each against the campaign's own
/// `replay_episode_scenario` and each cell's tallies against `cells`.
fn count_sample(
    base: &ProtocolConfig,
    grid: &[CellSpec],
    base_seed: u64,
    cells: &[CellOutcome],
) -> Sample {
    let scenario = Scenario::new(base, 1);
    let mut sample = Sample::default();
    for (spec, cell) in grid.iter().zip(cells) {
        let cfg = cell_config(spec);
        let (mut detected, mut timely, mut quality) = (0, 0, 0);
        for i in 0..EPISODES_PER_CELL {
            let plan = episode_plan(&cfg, spec, base_seed, i);
            let mut ep = Episode::new(&cfg, plan.seed);
            for &(sat, from, until) in &plan.failures {
                match until {
                    None => ep.add_failure(sat, from),
                    Some(u) => ep.add_failure_window(sat, from, u),
                }
            }
            let (out, events) = ep.run_traced(plan.birth, plan.duration);
            let (replayed, _) = replay_episode_scenario(&scenario, spec, base_seed, i);
            sample.mismatches += u64::from(replayed != out);
            sample.episodes += 1;
            sample.messages += out.messages_sent;
            for e in &events {
                match e.event {
                    TraceEvent::CoordinationRequest { .. } => sample.coord_requests += 1,
                    TraceEvent::RequestGaveUp { .. } => sample.gave_up += 1,
                    TraceEvent::WaitTimeout { .. } => sample.wait_timeouts += 1,
                    _ => {}
                }
            }
            if out.detected_at.is_some() {
                detected += 1;
                sample.chain_sum += out.chain_length as u64;
                timely += u64::from(out.deadline_met);
                quality += u64::from(out.level >= QosLevel::SequentialDual);
            }
        }
        sample.mismatches += u64::from(
            cell.detected != detected || cell.timely != timely || cell.quality != quality,
        );
        sample.detected += detected;
        sample.timely += timely;
    }
    sample
}

/// Rounds of alternating timings of the episode sample and of the
/// one-worker run of the same pass; alternating keeps both under the same
/// host conditions.
const SAMPLE_ROUNDS: usize = 7;

/// The traced run's per-layer numbers and reconciliation 4, on pass 0
/// (which every run makes, so its counts repeat exactly for a seed).
fn sample_layers(
    base: &ProtocolConfig,
    one: &Scenario<'_>,
    grid: &[CellSpec],
    seed: u64,
    out: &mut Outcome,
    tracer: &mut Tracer,
) {
    let base_seed = pass_seed(seed, 0);
    #[allow(clippy::cast_precision_loss)]
    let episodes = (grid.len() as u64 * EPISODES_PER_CELL) as f64;
    let (mut replay_us, mut serial_us) = (Vec::new(), Vec::new());
    let mut cells = Vec::new();
    for _ in 0..SAMPLE_ROUNDS {
        let t0 = Instant::now();
        cells = run_grid_scenario(one, grid, EPISODES_PER_CELL, base_seed);
        serial_us.push(t0.elapsed().as_secs_f64() * 1e6 / episodes);
        replay_us.push(time_sample(grid, base_seed, tracer) / episodes);
    }
    let s = count_sample(base, grid, base_seed, &cells);
    out.failed += s.mismatches;
    let t = tracer.totals();
    let mean = |name: &str| t.get(name).map_or(0.0, |x| x.mean_us());
    out.layers
        .set("core.episode_setup_us", mean("core.episode_setup"));
    out.layers
        .set("core.episode_run_us", mean("core.episode_run"));
    out.layers
        .set("core.messages_per_episode", ratio(s.messages, s.episodes));
    out.layers.set(
        "core.coord_requests_per_episode",
        ratio(s.coord_requests, s.episodes),
    );
    out.layers
        .set("core.gave_up_per_episode", ratio(s.gave_up, s.episodes));
    out.layers.set(
        "core.wait_timeouts_per_episode",
        ratio(s.wait_timeouts, s.episodes),
    );
    out.layers
        .set("core.chain_length_mean", ratio(s.chain_sum, s.detected));
    out.layers
        .set("core.timely_frac", ratio(s.timely, s.detected));
    out.reconciliations.push(Reconciliation::new(
        "core.episode_setup_us + core.episode_run_us = 1-worker time per episode",
        median(&replay_us),
        median(&serial_us),
        0.25,
    ));
    out.note("sample_episodes", s.episodes as f64);
}

/// Runs `campaign`.
#[must_use]
pub fn run(opts: &Options) -> Outcome {
    let grid = campaign_grid();
    // One set-up: scenario construction plus one warm-up pass.
    let setup = |r: u64| {
        let t0 = Instant::now();
        let base = ProtocolConfig::reference(10, Scheme::Oaq);
        let scenario = Scenario::new(&base, WORKERS);
        let warm = run_grid_scenario(
            &scenario,
            &grid,
            EPISODES_PER_CELL,
            warmup_seed(opts.seed, r),
        );
        std::hint::black_box(warm);
        t0.elapsed().as_secs_f64()
    };
    let mut setups = vec![setup(0)];
    let base = ProtocolConfig::reference(10, Scheme::Oaq);
    let two = Scenario::new(&base, WORKERS);
    let one = Scenario::new(&base, 1);

    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    // Both phases run in slices with one set-up timed after each. The
    // set-up times then sample the same stretch of host conditions as the
    // timed passes instead of a burst at process start, and the traced
    // phase keeps the untraced one's rhythm, so the tracing overhead
    // compares like with like.
    let n = slices(seconds);
    let sliced =
        |run: &mut PassRun, first: u64, mut tracer: Option<&mut Tracer>, setups: &mut Vec<f64>| {
            for _ in 0..n {
                #[allow(clippy::cast_precision_loss)]
                let slice = seconds / n as f64;
                let t = tracer.as_deref_mut();
                run_passes(run, &two, &one, &grid, opts.seed, first, slice, t);
                setups.push(setup(setups.len() as u64));
            }
        };
    let mut plain = PassRun::new();
    sliced(&mut plain, 0, None, &mut setups);
    let mut outcome = Outcome::new(setups, plain.phase());
    outcome.attempted = plain.passes.len() as u64 * grid.len() as u64;
    outcome.failed = plain.failed;

    if opts.trace {
        let mut tracer = Tracer::new(Instant::now());
        let first = plain.passes.len() as u64;
        let mut traced = PassRun::new();
        sliced(&mut traced, first, Some(&mut tracer), &mut Vec::new());
        outcome.attempted += traced.passes.len() as u64 * grid.len() as u64;
        outcome.failed += traced.failed;
        let two_s: f64 = traced.passes.iter().map(|p| p.secs).sum();
        let one_s: f64 = traced.passes.iter().map(|p| p.serial_secs).sum();
        outcome
            .layers
            .set("exec.parallel_efficiency", one_s / (WORKERS as f64 * two_s));
        sample_layers(&base, &one, &grid, opts.seed, &mut outcome, &mut tracer);
        outcome.traced = Some(traced.phase());
        outcome.tracer = Some(tracer);
    }
    outcome.note("workers", WORKERS as f64);
    outcome.note("cells", grid.len() as f64);
    outcome.note("episodes_per_cell", EPISODES_PER_CELL as f64);
    outcome.note("passes", plain.passes.len() as f64);
    outcome
}
