//! Open- and closed-loop load generation.
//!
//! **Open loop**: operation `i` is *due* at `t0 + i / rate`, whatever the
//! system under test is doing. Latency is timed from the due time, not from
//! the moment a sender thread got round to it, so a stall charges every
//! request that queued up behind it. How late the generator itself ran is
//! reported separately as lag.
//!
//! **Closed loop**: each client issues its next operation when the previous
//! one completes, for a fixed duration; a slow system receives less load.
//!
//! Senders claim operation indices from one shared counter, so one slow
//! sender never delays operations another sender could have issued.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Time source, injectable so the schedule can be tested without sleeping.
pub trait Clock: Sync {
    /// Time since the clock's epoch.
    fn now(&self) -> Duration;
    /// Blocks until `now() >= t`.
    fn sleep_until(&self, t: Duration);
}

/// The wall clock.
pub struct RealClock(Instant);

impl RealClock {
    /// A clock whose epoch is now.
    pub fn start() -> Self {
        Self(Instant::now())
    }
}

impl Clock for RealClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        let now = self.now();
        if t > now {
            std::thread::sleep(t - now);
        }
    }
}

/// One issued operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// Position in the schedule.
    pub index: usize,
    /// When it was due (open loop) or issued (closed loop).
    pub due: Duration,
    /// When a sender actually issued it.
    pub start: Duration,
    /// When it completed.
    pub end: Duration,
    /// Whether the operation succeeded.
    pub ok: bool,
}

impl OpRecord {
    /// Latency in microseconds, timed from the due time.
    pub fn latency_us(&self) -> f64 {
        (self.end - self.due).as_secs_f64() * 1e6
    }

    /// How late the generator issued it, in microseconds.
    pub fn lag_us(&self) -> f64 {
        (self.start - self.due).as_secs_f64() * 1e6
    }
}

/// Issues `total` operations at `rate_per_s` from `senders` threads.
///
/// `prepare(i)` runs before the sender waits for the due time, so whatever
/// it does stays off the clock; `op(i)` is the timed operation. Records
/// come back in schedule order.
pub fn open_loop<C: Clock>(
    clock: &C,
    rate_per_s: f64,
    total: usize,
    senders: usize,
    prepare: impl Fn(usize) + Sync,
    op: impl Fn(usize) -> bool + Sync,
) -> Vec<OpRecord> {
    assert!(rate_per_s > 0.0 && senders > 0);
    let interval = Duration::from_secs_f64(1.0 / rate_per_s);
    let t0 = clock.now();
    let next = AtomicUsize::new(0);
    let mut records = run_senders(senders, || {
        let mut mine = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= total {
                return mine;
            }
            prepare(index);
            let due = t0 + interval.mul_f64(index as f64);
            clock.sleep_until(due);
            let start = clock.now();
            let ok = op(index);
            let end = clock.now();
            mine.push(OpRecord {
                index,
                due,
                start,
                end,
                ok,
            });
        }
    });
    records.sort_by_key(|r| r.index);
    records
}

/// Runs `clients` back-to-back issuers for `duration`. An operation that
/// started before the deadline is allowed to finish and is counted.
pub fn closed_loop<C: Clock>(
    clock: &C,
    clients: usize,
    duration: Duration,
    prepare: impl Fn(usize) + Sync,
    op: impl Fn(usize) -> bool + Sync,
) -> Vec<OpRecord> {
    assert!(clients > 0);
    let deadline = clock.now() + duration;
    let next = AtomicUsize::new(0);
    let mut records = run_senders(clients, || {
        let mut mine = Vec::new();
        while clock.now() < deadline {
            let index = next.fetch_add(1, Ordering::Relaxed);
            prepare(index);
            let start = clock.now();
            let ok = op(index);
            let end = clock.now();
            mine.push(OpRecord {
                index,
                due: start,
                start,
                end,
                ok,
            });
        }
        mine
    });
    records.sort_by_key(|r| r.index);
    records
}

/// Completed operations per second over the span the records cover.
pub fn achieved_rate(records: &[OpRecord]) -> f64 {
    let first = records.iter().map(|r| r.due).min();
    let last = records.iter().map(|r| r.end).max();
    match (first, last) {
        (Some(a), Some(b)) if b > a => records.len() as f64 / (b - a).as_secs_f64(),
        _ => 0.0,
    }
}

fn run_senders(n: usize, body: impl Fn() -> Vec<OpRecord> + Sync) -> Vec<OpRecord> {
    if n == 1 {
        return body();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n).map(|_| scope.spawn(&body)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a load-generator thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A clock that only moves when told to: sleeping jumps to the target,
    /// and the operation under test advances it by its service time.
    struct FakeClock(Mutex<Duration>);

    impl FakeClock {
        fn advance(&self, d: Duration) {
            *self.0.lock().unwrap() += d;
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            *self.0.lock().unwrap()
        }
        fn sleep_until(&self, t: Duration) {
            let mut now = self.0.lock().unwrap();
            if t > *now {
                *now = t;
            }
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn open_loop_times_from_the_due_time_under_a_stall() {
        // 100 op/s (one every 10 ms), 1 ms service time, op 3 stalls 35 ms.
        let clock = FakeClock(Mutex::new(Duration::ZERO));
        let recs = open_loop(
            &clock,
            100.0,
            8,
            1,
            |_| (),
            |i| {
                clock.advance(if i == 3 { 35 * MS } else { MS });
                true
            },
        );
        let lat: Vec<u64> = recs.iter().map(|r| r.latency_us().round() as u64).collect();
        let lag: Vec<u64> = recs.iter().map(|r| r.lag_us().round() as u64).collect();
        // Op 3 is issued on time at 30 ms and ends at 65 ms. Ops 4..6 were
        // due at 40, 50, 60 ms but could only start at 65, 66, 67 ms: the
        // stall is charged to them although each took 1 ms to serve.
        assert_eq!(
            lat,
            vec![1_000, 1_000, 1_000, 35_000, 26_000, 17_000, 8_000, 1_000]
        );
        assert_eq!(lag, vec![0, 0, 0, 0, 25_000, 16_000, 7_000, 0]);
        assert!(recs.iter().enumerate().all(|(i, r)| r.index == i && r.ok));
    }

    #[test]
    fn prepare_runs_before_the_due_time_and_off_the_clock() {
        let clock = FakeClock(Mutex::new(Duration::ZERO));
        let recs = open_loop(
            &clock,
            100.0,
            3,
            1,
            |_| clock.advance(2 * MS),
            |_| {
                clock.advance(MS);
                true
            },
        );
        // 2 ms of preparation fits in the 10 ms gap: nothing is late, and
        // latency is the 1 ms service time alone (op 0 is due at t0, so its
        // preparation does delay it).
        assert_eq!(recs[1].lag_us(), 0.0);
        assert_eq!(recs[2].latency_us().round(), 1_000.0);
        assert_eq!(recs[0].lag_us().round(), 2_000.0);
    }

    #[test]
    fn closed_loop_issues_back_to_back_until_the_deadline() {
        let clock = FakeClock(Mutex::new(Duration::ZERO));
        let recs = closed_loop(
            &clock,
            1,
            10 * MS,
            |_| (),
            |_| {
                clock.advance(3 * MS);
                true
            },
        );
        // Starts at 0, 3, 6, 9 ms; the one started at 9 ms finishes late
        // and still counts.
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[3].end, 12 * MS);
        assert!((achieved_rate(&recs) - 4.0 / 0.012).abs() < 1e-6);
    }

    #[test]
    fn real_senders_cover_every_index_once() {
        let clock = RealClock::start();
        let recs = open_loop(&clock, 20_000.0, 200, 2, |_| (), |_| true);
        let idx: Vec<usize> = recs.iter().map(|r| r.index).collect();
        assert_eq!(idx, (0..200).collect::<Vec<_>>());
    }
}
