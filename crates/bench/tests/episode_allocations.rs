//! The campaign's episode path allocates nothing once its buffers are warm.
//!
//! One shared [`EpisodeScratch`] and one recycled [`Episode`] replay every
//! cell configuration of the E15 grid (i.i.d. and bursty loss × node
//! failures × retry budgets). After one warm-up episode per configuration,
//! `Episode::reset` + `add_failure*` + `run_scratch` must not touch the
//! allocator at all: the geometry, topology, fault plan, per-edge loss
//! states, event queue and per-satellite vectors are all recycled.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use oaq_bench::campaign::{cell_config, e15_grid, episode_setup_into, FailurePlan};
use oaq_core::config::ProtocolConfig;
use oaq_core::protocol::{Episode, EpisodeScratch};

/// Counts the allocations made by the current thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread-local without a destructor, so bumping it
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One episode's inputs as the campaign draws them, plan included.
struct Inputs {
    cfg: usize,
    seed: u64,
    birth: f64,
    duration: f64,
    plan: FailurePlan,
}

#[test]
fn recycled_episodes_allocate_nothing_across_the_e15_grid() {
    // Under this campaign seed no warm-up episode cancels a timeout, and
    // some satellites first request a recruit only in the timed episodes,
    // so both first-use paths are hit after warm-up.
    const BASE_SEED: u64 = 1;
    const EPISODES_PER_CELL: u64 = 100;
    let grid = e15_grid();
    assert_eq!(grid.len(), 63);
    let cfgs: Vec<ProtocolConfig> = grid.iter().map(cell_config).collect();
    let draw = |cfg: usize, i: u64| {
        let mut plan = FailurePlan::new();
        let (seed, birth, duration) =
            episode_setup_into(&cfgs[cfg], &grid[cfg], BASE_SEED, i, &mut plan);
        Inputs {
            cfg,
            seed,
            birth,
            duration,
            plan,
        }
    };
    let warm_up: Vec<Inputs> = (0..cfgs.len()).map(|c| draw(c, 0)).collect();
    let timed: Vec<Inputs> = (0..cfgs.len())
        .flat_map(|c| (1..=EPISODES_PER_CELL).map(move |i| (c, i)))
        .map(|(c, i)| draw(c, i))
        .collect();

    let mut scratch = EpisodeScratch::new();
    let mut episode = Episode::new(&cfgs[0], 0);
    let mut run = |inputs: &Inputs| {
        episode.reset(&cfgs[inputs.cfg], inputs.seed);
        for &(sat, from, until) in &inputs.plan {
            match until {
                None => episode.add_failure(sat, from),
                Some(u) => episode.add_failure_window(sat, from, u),
            }
        }
        episode.run_scratch(inputs.birth, inputs.duration, &mut scratch)
    };
    for inputs in &warm_up {
        let _ = run(inputs);
    }

    let (mut bursty_messages, mut late_detections) = (0u64, 0u64);
    let before = allocations();
    for inputs in &timed {
        let out = run(inputs);
        if cfgs[inputs.cfg].bursty_loss.is_some() {
            bursty_messages += out.messages_sent;
        }
        // Detected after birth: no live satellite covered the target when
        // the signal started, so the protocol scanned for the next arrival.
        if out.detected_at.is_some_and(|t0| t0 > inputs.birth) {
            late_detections += 1;
        }
    }
    let allocated = allocations() - before;

    assert!(
        bursty_messages > 0,
        "bursty cells must exercise the loss states"
    );
    assert!(
        late_detections > 0,
        "some births must find no live coverage"
    );
    assert_eq!(
        allocated,
        0,
        "{allocated} allocations over {} recycled episodes",
        timed.len()
    );
}
