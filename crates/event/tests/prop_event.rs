//! Property tests on the event kernel: total ordering of the queue and
//! engine-time monotonicity under arbitrary schedules.

use bobw_event::{Engine, EventQueue, Handler, RngFactory, Scheduler, SimDuration, SimTime};
use proptest::prelude::*;
use rand::Rng;

proptest! {
    /// The queue pops a permutation of its input, sorted by time with ties
    /// FIFO by insertion order.
    #[test]
    fn queue_is_stable_priority_order(times in proptest::collection::vec(0u64..50, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(SimTime::from_secs(*t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, idx)) = q.pop() {
            popped.push((t, idx));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated for equal times");
            }
        }
        // It is a permutation.
        let mut idxs: Vec<usize> = popped.iter().map(|(_, i)| *i).collect();
        idxs.sort();
        prop_assert_eq!(idxs, (0..times.len()).collect::<Vec<_>>());
    }

    /// The engine's clock never runs backwards, every scheduled event is
    /// eventually handled, and handler-scheduled follow-ups obey the same
    /// rule.
    #[test]
    fn engine_time_monotone_under_random_load(
        seeds in proptest::collection::vec(0u64..1_000, 1..30),
    ) {
        struct H {
            observed: Vec<SimTime>,
            spawn_budget: u32,
        }
        impl Handler<u64> for H {
            fn handle(&mut self, now: SimTime, ev: u64, sched: &mut Scheduler<'_, u64>) {
                self.observed.push(now);
                if self.spawn_budget > 0 && ev.is_multiple_of(3) {
                    self.spawn_budget -= 1;
                    sched.after(SimDuration::from_millis(ev % 500), ev / 3);
                }
            }
        }
        let mut eng = Engine::new();
        let mut rng = RngFactory::new(7).stream("load", seeds[0]);
        let n_initial = seeds.len();
        for s in &seeds {
            let at = SimTime::from_nanos(rng.gen_range(0..10_000_000_000u64));
            eng.schedule_at(at, *s);
        }
        let mut h = H { observed: Vec::new(), spawn_budget: 100 };
        eng.run_to_idle(&mut h, 1_000_000)
.expect_within_budget("converge");
        prop_assert!(h.observed.len() >= n_initial);
        for w in h.observed.windows(2) {
            prop_assert!(w[0] <= w[1], "clock went backwards");
        }
        prop_assert_eq!(eng.pending(), 0);
        prop_assert_eq!(eng.processed(), h.observed.len() as u64);
    }

    /// Deadline splitting is seamless: running to a deadline and resuming
    /// observes exactly the same events as one uninterrupted run.
    #[test]
    fn split_runs_equal_single_run(
        times in proptest::collection::vec(0u64..100, 1..50),
        split_at in 0u64..100,
    ) {
        struct Collect(Vec<(SimTime, usize)>);
        impl Handler<usize> for Collect {
            fn handle(&mut self, now: SimTime, ev: usize, _s: &mut Scheduler<'_, usize>) {
                self.0.push((now, ev));
            }
        }
        let run_split = {
            let mut eng = Engine::new();
            for (i, t) in times.iter().enumerate() {
                eng.schedule_at(SimTime::from_secs(*t), i);
            }
            let mut h = Collect(Vec::new());
            eng.run_until(&mut h, SimTime::from_secs(split_at), 1_000_000)
.expect_within_budget("run to deadline");
            eng.run_to_idle(&mut h, 1_000_000)
.expect_within_budget("converge");
            h.0
        };
        let run_whole = {
            let mut eng = Engine::new();
            for (i, t) in times.iter().enumerate() {
                eng.schedule_at(SimTime::from_secs(*t), i);
            }
            let mut h = Collect(Vec::new());
            eng.run_to_idle(&mut h, 1_000_000)
.expect_within_budget("converge");
            h.0
        };
        prop_assert_eq!(run_split, run_whole);
    }
}
