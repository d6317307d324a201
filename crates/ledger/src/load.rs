//! Open-loop and closed-loop load over one keep-alive connection.
//!
//! An open loop sends request `i` when it falls due at
//! `start + i / rate`, whatever happened to earlier requests, and times
//! it from that due time. A stall therefore charges every request
//! scheduled behind it on the connection, which a closed loop (timing
//! from the actual send) would hide. The generator also reports how far
//! behind schedule it ran on its own: `lag` is nonzero only when the
//! connection was free at the due time and the send still started late.
//!
//! Each connection runs on its own thread; the caller's `send` closure
//! owns the connection, issues request `i` and judges the response.

use std::time::{Duration, Instant};

/// Outcome of one scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// From the due time to the end of `send`.
    pub latency: Duration,
    /// How late the generator started a send the connection was free
    /// for (timer and scheduling delay, not server time).
    pub lag: Duration,
    /// What `send` returned: the response passed its check.
    pub ok: bool,
}

/// Sets the calling thread's timer slack to 1 ns, so a sleep ends on
/// time: Linux's default 50 µs slack would land in every open-loop
/// latency as generator lag.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    // SAFETY: PR_SET_TIMERSLACK takes its argument by value and touches
    // no memory of this process; it only changes the calling thread's
    // slack. A failure leaves the default slack, costing precision only.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64, 0u64, 0u64, 0u64);
    }
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

/// Runs `count` requests, request `i` due at `start + i / rate`.
pub fn open_loop(
    start: Instant,
    rate: f64,
    count: usize,
    mut send: impl FnMut(usize) -> bool,
) -> Vec<Sample> {
    tighten_timer_slack();
    let mut samples = Vec::with_capacity(count);
    for i in 0..count {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        let now = Instant::now();
        let lag = if now < due {
            std::thread::sleep(due - now);
            Instant::now() - due
        } else {
            // Busy past the due time: the wait is the server's doing and
            // lands in this request's latency.
            Duration::ZERO
        };
        let ok = send(i);
        samples.push(Sample {
            latency: Instant::now() - due,
            lag,
            ok,
        });
    }
    samples
}

/// Result of a closed loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Closed {
    /// Requests whose response passed the check.
    pub ok: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Wall time from the first send to the last response.
    pub elapsed: Duration,
}

/// Sends request `first`, `first + 1`, ... back to back until `until`.
pub fn closed_loop(until: Instant, first: usize, mut send: impl FnMut(usize) -> bool) -> Closed {
    let started = Instant::now();
    let (mut ok, mut failed) = (0, 0);
    let mut i = first;
    while Instant::now() < until {
        if send(i) {
            ok += 1;
        } else {
            failed += 1;
        }
        i += 1;
    }
    Closed {
        ok,
        failed,
        elapsed: started.elapsed(),
    }
}

/// Summary line of the generator's own lag over `samples`.
pub fn lag_note(samples: &[Sample]) -> String {
    let mut lags: Vec<f64> = samples.iter().map(|s| s.lag.as_secs_f64() * 1e3).collect();
    lags.sort_by(f64::total_cmp);
    match lags.last() {
        Some(&max) => format!(
            "generator lag over {} sends: p50 {:.4} ms, p99 {:.4} ms, max {max:.4} ms",
            lags.len(),
            crate::stats::percentile(&lags, 50),
            crate::stats::percentile(&lags, 99),
        ),
        None => "generator lag: no sends".to_string(),
    }
}

/// Share of samples the generator itself sent at least `threshold`
/// behind schedule.
pub fn late_frac(samples: &[Sample], threshold: Duration) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().filter(|s| s.lag >= threshold).count() as f64 / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use gve_net::{ClientConn, EventLoopServer, NetOptions, Response};

    /// One request stalls the server for 50 ms; the requests queued
    /// behind it on the connection are charged for the wait because
    /// they are timed from their due times.
    #[test]
    fn a_stall_is_charged_to_the_requests_scheduled_behind_it() {
        const STALL: Duration = Duration::from_millis(50);
        let server = EventLoopServer::start(
            "127.0.0.1:0",
            NetOptions {
                handler_threads: 1,
                ..NetOptions::default()
            },
            |request| {
                if request.path == "/stall" {
                    std::thread::sleep(STALL);
                }
                Response::json(200, "{}")
            },
        )
        .expect("start stub server");
        let mut conn =
            ClientConn::connect(format!("127.0.0.1:{}", server.port())).expect("connect");
        // One request per millisecond; request 10 stalls.
        let samples = open_loop(Instant::now(), 1000.0, 60, |i| {
            let path = if i == 10 { "/stall" } else { "/ok" };
            matches!(conn.request("GET", path, None), Ok((200, _)))
        });
        server.stop();

        assert!(samples.iter().all(|s| s.ok));
        assert!(samples[10].latency >= STALL);
        // Request 11 fell due 1 ms into the stall and could only be sent
        // after it: at least 49 ms from its due time.
        assert!(
            samples[11].latency >= STALL - Duration::from_millis(1),
            "{:?}",
            samples[11]
        );
        // Request 30 fell due 20 ms into the stall.
        assert!(
            samples[30].latency >= STALL - Duration::from_millis(20),
            "{:?}",
            samples[30]
        );
        // Sends behind the stall were the server's wait, not generator lag.
        assert_eq!(samples[11].lag, Duration::ZERO);
    }

    #[test]
    fn closed_loop_counts_until_the_deadline() {
        let until = Instant::now() + Duration::from_millis(20);
        let closed = closed_loop(until, 5, |i| i % 2 == 0);
        assert!(Instant::now() >= until);
        assert!(closed.ok > 0 && closed.failed > 0);
        assert!(closed.ok.abs_diff(closed.failed) <= 1);
    }

    #[test]
    fn late_frac_counts_generator_lag_only() {
        let sample = |lag_ms| Sample {
            latency: Duration::from_millis(5),
            lag: Duration::from_millis(lag_ms),
            ok: true,
        };
        let samples = [sample(0), sample(2), sample(0), sample(1)];
        assert_eq!(late_frac(&samples, Duration::from_millis(1)), 0.5);
        assert_eq!(late_frac(&[], Duration::from_millis(1)), 0.0);
    }
}
