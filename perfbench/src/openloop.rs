//! Open-loop load generation.
//!
//! Requests are sent on a fixed schedule regardless of how fast answers
//! come back, from a bounded number of connections.  When every connection
//! is still waiting, the next request goes out late; its latency is timed
//! from when it was *due*, so a stall is charged to every request it
//! delays, and the lateness itself is reported.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What happened to one scheduled request, in seconds from the phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// When the request was due.
    pub due: f64,
    /// When it was actually sent.
    pub sent: f64,
    /// When its answer (or error) came back.
    pub done: f64,
    /// Whether it was answered without error.
    pub ok: bool,
}

impl Outcome {
    /// Latency in ms from the due time; a failed request misses every
    /// limit, so it reads as infinite.
    pub fn latency_ms(&self) -> f64 {
        if self.ok {
            (self.done - self.due) * 1e3
        } else {
            f64::INFINITY
        }
    }

    /// How late the generator sent the request, in ms.
    pub fn lateness_ms(&self) -> f64 {
        ((self.sent - self.due) * 1e3).max(0.0)
    }
}

/// Sends request `i` of `dues` (seconds from the phase start,
/// non-decreasing) at its due time through `call`, from `connections`
/// threads that each own one connection made by `connect`.  Returns one
/// outcome per request, in schedule order.
pub fn drive<C>(
    dues: &[f64],
    connections: usize,
    connect: impl Fn() -> C + Sync,
    call: impl Fn(&mut C, usize) -> bool + Sync,
) -> Vec<Outcome> {
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let outcomes = Mutex::new(vec![None; dues.len()]);
    std::thread::scope(|scope| {
        for _ in 0..connections.max(1) {
            scope.spawn(|| {
                let mut conn = connect();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&due) = dues.get(i) else { break };
                    let due_at = start + Duration::from_secs_f64(due);
                    let now = Instant::now();
                    if due_at > now {
                        std::thread::sleep(due_at - now);
                    }
                    let sent = start.elapsed().as_secs_f64();
                    let ok = call(&mut conn, i);
                    let done = start.elapsed().as_secs_f64();
                    outcomes.lock().expect("outcome store poisoned")[i] = Some(Outcome {
                        due,
                        sent,
                        done,
                        ok,
                    });
                }
            });
        }
    });
    outcomes
        .into_inner()
        .expect("outcome store poisoned")
        .into_iter()
        .map(|o| o.expect("every request was sent"))
        .collect()
}

/// The generator's backlog when each request went out, in requests: its
/// lateness over the schedule's mean inter-arrival gap.  (Counting the due
/// but unsent requests directly would understate a growing backlog near
/// the end of a finite schedule, when nothing more falls due.)
pub fn backlog(outcomes: &[Outcome]) -> Vec<f64> {
    let span = outcomes.last().map_or(0.0, |o| o.due);
    let gap = span / outcomes.len().max(1) as f64;
    outcomes
        .iter()
        .map(|o| {
            if gap > 0.0 {
                (o.sent - o.due).max(0.0) / gap
            } else {
                0.0
            }
        })
        .collect()
}

/// Whether the generator's backlog grew over the phase: the mean backlog of
/// the last quarter of requests exceeds twice that of the first quarter by
/// more than a few requests.  A server keeping up holds the backlog level
/// (it only fluctuates); one that cannot keep up lets it grow without bound.
pub fn backlog_growing(outcomes: &[Outcome]) -> bool {
    let b = backlog(outcomes);
    let q = b.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let first = mean(&b[..q]);
    let last = mean(&b[b.len() - q..]);
    last > 2.0 * first + 4.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::nearest_rank;

    /// A single-server synthetic service taking `service` per request.
    fn run(rate: f64, n: usize, service: Duration) -> Vec<Outcome> {
        let dues: Vec<f64> = (0..n).map(|i| i as f64 / rate).collect();
        let server = Mutex::new(());
        drive(
            &dues,
            2,
            || (),
            |_, _| {
                let _busy = server.lock().unwrap();
                std::thread::sleep(service);
                true
            },
        )
    }

    #[test]
    fn a_service_that_keeps_up_has_flat_backlog_and_short_latency() {
        let outcomes = run(200.0, 300, Duration::from_micros(500));
        assert!(!backlog_growing(&outcomes));
        let p50 = nearest_rank(
            &outcomes.iter().map(Outcome::latency_ms).collect::<Vec<_>>(),
            50.0,
        );
        assert!(p50.value < 20.0, "{p50}");
        assert!(outcomes.iter().all(|o| o.sent >= o.due && o.done >= o.sent));
    }

    #[test]
    fn a_slow_service_grows_the_backlog_and_latency_counts_from_due() {
        // Capacity 100/s against 250/s offered: the backlog grows linearly.
        let outcomes = run(250.0, 300, Duration::from_millis(10));
        assert!(backlog_growing(&outcomes));
        let last = outcomes.last().unwrap();
        // Timed from the due time, the last request carries the whole
        // accumulated delay, far beyond one service time.
        assert!(last.latency_ms() > 500.0, "{}", last.latency_ms());
        assert!(last.lateness_ms() > 400.0, "{}", last.lateness_ms());
        let max_lateness = outcomes
            .iter()
            .map(Outcome::lateness_ms)
            .fold(0.0, f64::max);
        assert!(max_lateness >= last.lateness_ms());
    }

    #[test]
    fn failed_requests_read_as_infinite_latency() {
        let failed = Outcome {
            due: 0.0,
            sent: 0.0,
            done: 0.001,
            ok: false,
        };
        assert!(failed.latency_ms().is_infinite());
        assert_eq!(failed.lateness_ms(), 0.0);
    }

    #[test]
    fn backlog_is_lateness_in_inter_arrival_gaps() {
        let o = |due: f64, sent: f64| Outcome {
            due,
            sent,
            done: sent,
            ok: true,
        };
        // Four requests over four seconds: one per second on average.
        let outcomes = [o(1.0, 1.0), o(2.0, 4.0), o(3.0, 4.5), o(4.0, 4.0)];
        assert_eq!(backlog(&outcomes), vec![0.0, 2.0, 1.5, 0.0]);
    }
}
