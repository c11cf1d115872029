//! Seeded input generators. The program under test receives only what
//! these produce, and every output is a pure function of the seed.

use oaq_bench::campaign::{episode_seed, CellSpec, LossAxis};
use oaq_core::config::{ProtocolConfig, Scheme as ProtocolScheme};
use oaq_engine::{zipf_workload, Measure, QosQuery, QuerySpec, Scheme, WorkloadConfig};
use oaq_net::GilbertElliott;
use oaq_sim::rng::substream_seed;
use oaq_sim::SimRng;

/// Length of the `query_hot` request cycle; connections walk it round
/// robin and wrap, which keeps every request a result-cache hit.
pub const HOT_CYCLE: usize = 1 << 12;

/// Stream tags keeping the generators' substreams apart.
const COLD_STREAM: u64 = 0xC01D;
const WARMUP_STREAM: u64 = 0x3A2B;

/// The `query_hot` request cycle: [`zipf_workload`] over its default
/// pool of 200 scenarios with Zipf s = 1.0.
#[must_use]
pub fn hot_cycle(seed: u64) -> Vec<QosQuery> {
    let config = WorkloadConfig {
        queries: HOT_CYCLE,
        ..WorkloadConfig::default()
    };
    zipf_workload(&config, seed)
}

/// Request `i` of the `query_cold` stream. Seven in eight need a capacity
/// solve (`QosAtLeast`, `CapacityDistribution` or `OaqBaqGap`, λ
/// log-uniform over the paper decade, paper-default φ); the eighth is an
/// `EmitterTracking` query of 16 emitters × 2 passes whose seed word is a
/// bijection of `i / 8`, so no two requests of one stream share a key.
#[must_use]
pub fn cold_query(seed: u64, i: u64) -> QosQuery {
    let mut rng = SimRng::substream(seed ^ COLD_STREAM, i);
    let measure = if i % 8 == 7 {
        #[allow(clippy::cast_possible_truncation)]
        let word = ((i / 8) as u32).wrapping_mul(0x9E37_79B9) ^ (seed as u32);
        Measure::EmitterTracking {
            emitters: 16,
            passes: 2,
            seed: word,
        }
    } else {
        #[allow(clippy::cast_possible_truncation)]
        let y = 1 + rng.index(3) as u8;
        match rng.index(3) {
            0 => Measure::QosAtLeast {
                scheme: if rng.chance(0.5) {
                    Scheme::Oaq
                } else {
                    Scheme::Baq
                },
                y,
            },
            1 => Measure::CapacityDistribution,
            _ => Measure::OaqBaqGap { y },
        }
    };
    let lambda = 1e-5 * 10f64.powf(rng.unit());
    QuerySpec::paper_defaults(lambda, measure)
        .build()
        .expect("generated queries are in-domain")
}

/// The full E15 robustness grid: 7 loss axes × 3 node-failure rates × 3
/// retry budgets = 63 cells, in the `robustness` binary's order.
#[must_use]
pub fn campaign_grid() -> Vec<CellSpec> {
    let losses = [
        LossAxis::Iid { p: 0.0 },
        LossAxis::Iid { p: 0.05 },
        LossAxis::Iid { p: 0.2 },
        LossAxis::Iid { p: 0.4 },
        LossAxis::Bursty {
            marginal: 0.2,
            burst_len: 3.0,
        },
        LossAxis::Bursty {
            marginal: 0.2,
            burst_len: 8.0,
        },
        LossAxis::Bursty {
            marginal: 0.4,
            burst_len: 5.0,
        },
    ];
    let mut grid = Vec::with_capacity(63);
    for loss in losses {
        for node_failure_rate in [0.0, 0.1, 0.3] {
            for retry_budget in [0, 1, 3] {
                grid.push(CellSpec {
                    loss,
                    node_failure_rate,
                    retry_budget,
                });
            }
        }
    }
    grid
}

/// Base seed of timed campaign pass `pass`.
#[must_use]
pub fn pass_seed(seed: u64, pass: u64) -> u64 {
    substream_seed(seed, pass)
}

/// Base seed of untimed warm-up pass `pass` (disjoint from the timed ones).
#[must_use]
pub fn warmup_seed(seed: u64, pass: u64) -> u64 {
    substream_seed(seed ^ WARMUP_STREAM, pass)
}

/// The protocol configuration the campaign runs one cell under: the
/// reference k = 10 plane with the cell's loss process, retry budget and
/// a 0.25 min retry timeout.
///
/// # Panics
///
/// Panics on burst parameters outside the link model's range.
#[must_use]
pub fn cell_config(spec: &CellSpec) -> ProtocolConfig {
    let mut cfg = ProtocolConfig::reference(10, ProtocolScheme::Oaq);
    match spec.loss {
        LossAxis::Iid { p } => cfg.message_loss = p,
        LossAxis::Bursty {
            marginal,
            burst_len,
        } => {
            // Lossless good state, loss_bad = 1: the marginal rate is
            // enter / (enter + 1/len).
            let enter = marginal / (burst_len * (1.0 - marginal));
            cfg.bursty_loss =
                Some(GilbertElliott::bursts(enter, burst_len, 1.0).expect("burst range"));
        }
    }
    cfg.retry_budget = spec.retry_budget;
    cfg.retry_timeout = 0.25;
    cfg.validate();
    cfg
}

/// One campaign episode's inputs: simulator seed, signal birth and
/// duration, and node failures `(sat, from, until)` (`until = None` for
/// permanent fail-silence).
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodePlan {
    /// Simulator seed.
    pub seed: u64,
    /// Signal birth, minutes.
    pub birth: f64,
    /// Signal duration, minutes.
    pub duration: f64,
    /// Node failures.
    pub failures: Vec<(usize, f64, Option<f64>)>,
}

/// Episode `i` of a cell under campaign seed `base_seed`, drawn the way
/// the campaign draws it: the fault plan comes from the stream at
/// `episode_seed + 1`. A replay check against
/// `oaq_bench::campaign::replay_episode_scenario` confirms the match.
#[must_use]
pub fn episode_plan(cfg: &ProtocolConfig, spec: &CellSpec, base_seed: u64, i: u64) -> EpisodePlan {
    let seed = episode_seed(base_seed, i);
    let mut rng = SimRng::seed_from(seed.wrapping_add(1));
    let birth = cfg.theta + rng.uniform(0.0, cfg.theta);
    let duration = rng.exp(0.2);
    let mut failures = Vec::new();
    for sat in 0..cfg.k {
        if !rng.chance(spec.node_failure_rate) {
            continue;
        }
        let from = rng.uniform(0.0, birth + cfg.tau);
        if rng.chance(0.5) {
            failures.push((sat, from, None));
        } else {
            let len = rng.exp(0.2).max(1e-3);
            failures.push((sat, from, Some(from + len)));
        }
    }
    EpisodePlan {
        seed,
        birth,
        duration,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oaq_bench::campaign::{replay_episode_scenario, Scenario};
    use oaq_core::protocol::Episode;
    use oaq_serve::proto::{encode_request, Request};
    use std::collections::HashSet;

    fn bytes(queries: impl Iterator<Item = QosQuery>) -> Vec<u8> {
        queries
            .enumerate()
            .flat_map(|(i, q)| encode_request(&Request::from_query(i as u64, &q)))
            .collect()
    }

    fn plan_bytes(seed: u64) -> Vec<u8> {
        let mut out = Vec::new();
        for (c, spec) in campaign_grid().iter().enumerate() {
            let cfg = cell_config(spec);
            for i in 0..4 {
                let p = episode_plan(&cfg, spec, pass_seed(seed, c as u64), i);
                out.extend(p.seed.to_le_bytes());
                out.extend(p.birth.to_bits().to_le_bytes());
                out.extend(p.duration.to_bits().to_le_bytes());
                for (sat, from, until) in p.failures {
                    out.extend(sat.to_le_bytes());
                    out.extend(from.to_bits().to_le_bytes());
                    out.extend(until.map_or(u64::MAX, f64::to_bits).to_le_bytes());
                }
            }
        }
        out
    }

    #[test]
    fn hot_cycle_is_a_pure_function_of_the_seed() {
        let a = bytes(hot_cycle(5).into_iter().take(4096));
        assert_eq!(a, bytes(hot_cycle(5).into_iter().take(4096)));
        assert_ne!(a, bytes(hot_cycle(6).into_iter().take(4096)));
    }

    #[test]
    fn cold_stream_is_a_pure_function_of_the_seed() {
        let a = bytes((0..2048).map(|i| cold_query(5, i)));
        assert_eq!(a, bytes((0..2048).map(|i| cold_query(5, i))));
        assert_ne!(a, bytes((0..2048).map(|i| cold_query(6, i))));
    }

    #[test]
    fn episode_plans_are_a_pure_function_of_the_seed() {
        let a = plan_bytes(5);
        assert_eq!(a, plan_bytes(5));
        assert_ne!(a, plan_bytes(6));
        assert_ne!(pass_seed(5, 0), warmup_seed(5, 0));
    }

    #[test]
    fn cold_requests_are_distinct_and_seven_in_eight_solve() {
        let n = 20_000;
        let keys: HashSet<_> = (0..n).map(|i| cold_query(9, i).key()).collect();
        assert_eq!(keys.len() as u64, n, "every cold request is a distinct key");
        let pk: HashSet<_> = (0..n)
            .map(|i| cold_query(9, i))
            .filter(|q| q.measure().needs_capacity_solve())
            .map(|q| q.capacity_key())
            .collect();
        assert_eq!(
            pk.len() as u64,
            n / 8 * 7,
            "every capacity request is a P(k) miss"
        );
    }

    #[test]
    fn grid_matches_e15() {
        let grid = campaign_grid();
        assert_eq!(grid.len(), 63);
        let retries: HashSet<u32> = grid.iter().map(|c| c.retry_budget).collect();
        assert_eq!(retries.len(), 3);
    }

    #[test]
    fn reconstructed_episodes_match_the_campaign_replay() {
        let base = ProtocolConfig::reference(10, ProtocolScheme::Oaq);
        let scenario = Scenario::new(&base, 1);
        for spec in campaign_grid().iter().step_by(5) {
            let cfg = cell_config(spec);
            for i in 0..6 {
                let plan = episode_plan(&cfg, spec, 77, i);
                let mut ep = Episode::new(&cfg, plan.seed);
                for &(sat, from, until) in &plan.failures {
                    match until {
                        None => ep.add_failure(sat, from),
                        Some(u) => ep.add_failure_window(sat, from, u),
                    }
                }
                let ours = ep.run(plan.birth, plan.duration);
                let (theirs, _) = replay_episode_scenario(&scenario, spec, 77, i);
                assert_eq!(ours, theirs, "cell {spec:?} episode {i}");
            }
        }
    }
}
