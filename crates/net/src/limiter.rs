//! The edge token bucket: per-home rate limiting at the socket boundary.
//!
//! `imcf-net` plays the paper's Cloud Controller (Fig. 3): the server an
//! out-of-home APP talks to instead of the Local Controller. The bucket is
//! its defence against a compromised or runaway APP hammering someone's
//! home: an abusive client burns a cheap 429 on its connection's thread
//! instead of a controller dispatch. One [`EdgeLimiter`] guards one home's
//! listener (the server fronts a single Local Controller), refilled by
//! wall-clock seconds — the edge lives outside the deterministic core, so
//! real time is the honest clock here.

use parking_lot::Mutex;
use std::time::Instant;

/// A token-bucket rate limit: `burst` capacity, refilled continuously at
/// `refill_per_sec` tokens per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Bucket capacity: requests a client may burst from a full bucket.
    pub burst: u32,
    /// Tokens refilled per wall-clock second.
    pub refill_per_sec: f64,
}

struct BucketState {
    tokens: f64,
    last_refill: Instant,
}

/// A wall-clock token bucket enforcing one [`RateLimit`].
pub struct EdgeLimiter {
    limit: RateLimit,
    state: Mutex<BucketState>,
}

/// The outcome of asking the limiter for one request's worth of budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// Within budget; the request may proceed.
    Admitted,
    /// Over budget; answer 429 with this `Retry-After` value in seconds
    /// (at least 1, rounded up to when a whole token exists again).
    Limited {
        /// Whole seconds until a token is available.
        retry_after_secs: u64,
    },
}

impl EdgeLimiter {
    /// A full bucket under `limit`.
    pub fn new(limit: RateLimit) -> Self {
        EdgeLimiter {
            limit,
            state: Mutex::new(BucketState {
                tokens: f64::from(limit.burst),
                last_refill: Instant::now(),
            }),
        }
    }

    /// Spends one token, refilling for the elapsed time first.
    pub fn admit(&self) -> Admission {
        self.admit_at(Instant::now())
    }

    /// [`EdgeLimiter::admit`] as of `now`. A `now` older than the last
    /// refill (a caller that lost the lock race) refills nothing and
    /// leaves the refill mark where it is.
    fn admit_at(&self, now: Instant) -> Admission {
        let mut state = self.state.lock();
        let elapsed = now.saturating_duration_since(state.last_refill);
        state.last_refill = state.last_refill.max(now);
        state.tokens = (state.tokens + elapsed.as_secs_f64() * self.limit.refill_per_sec)
            .min(f64::from(self.limit.burst));
        if state.tokens >= 1.0 {
            state.tokens -= 1.0;
            return Admission::Admitted;
        }
        let deficit = 1.0 - state.tokens;
        let retry_after_secs = if self.limit.refill_per_sec > 0.0 {
            (deficit / self.limit.refill_per_sec).ceil().max(1.0) as u64
        } else {
            // Never refills: the client can only wait for an operator.
            u64::MAX
        };
        Admission::Limited { retry_after_secs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn limiter(burst: u32, refill_per_sec: f64) -> (EdgeLimiter, Instant) {
        let limiter = EdgeLimiter::new(RateLimit {
            burst,
            refill_per_sec,
        });
        let t0 = limiter.state.lock().last_refill;
        (limiter, t0)
    }

    /// Admits at `at` until the bucket refuses; returns how many got in.
    fn drain(limiter: &EdgeLimiter, at: Instant) -> usize {
        let mut admitted = 0;
        while limiter.admit_at(at) == Admission::Admitted {
            admitted += 1;
        }
        admitted
    }

    #[test]
    fn burst_then_limited() {
        let (limiter, t0) = limiter(3, 0.0);
        assert_eq!(drain(&limiter, t0), 3);
        assert_eq!(
            limiter.admit_at(t0 + Duration::from_secs(3600)),
            Admission::Limited {
                retry_after_secs: u64::MAX
            },
            "a bucket that never refills stays dry"
        );
    }

    #[test]
    fn refill_restores_budget() {
        let (limiter, t0) = limiter(1, 1000.0);
        assert_eq!(drain(&limiter, t0), 1);
        // At 1000 tokens/sec one millisecond refills exactly one token.
        assert_eq!(drain(&limiter, t0 + Duration::from_millis(1)), 1);
    }

    #[test]
    fn retry_after_reflects_refill_rate() {
        let (limiter, t0) = limiter(1, 0.1);
        assert_eq!(drain(&limiter, t0), 1);
        assert_eq!(
            limiter.admit_at(t0),
            Admission::Limited {
                retry_after_secs: 10
            }
        );
    }

    #[test]
    fn refill_after_a_long_idle_caps_at_the_burst() {
        let (limiter, t0) = limiter(3, 2.0);
        assert_eq!(drain(&limiter, t0), 3);
        // One second refills two tokens.
        assert_eq!(drain(&limiter, t0 + Duration::from_secs(1)), 2);
        // A long idle refills no more than a full bucket.
        assert_eq!(
            drain(&limiter, t0 + Duration::from_secs(1000)),
            3,
            "refill must cap at the burst size"
        );
    }

    #[test]
    fn fractional_refill_admits_one_request_per_whole_token() {
        let (limiter, t0) = limiter(4, 1.5);
        assert_eq!(drain(&limiter, t0), 4);
        // 1.5 tokens: one request, half a token left over.
        assert_eq!(drain(&limiter, t0 + Duration::from_secs(1)), 1);
        // The half carries: 0.5 + 1.5 = 2 whole tokens.
        assert_eq!(drain(&limiter, t0 + Duration::from_secs(2)), 2);
    }

    #[test]
    fn a_stale_instant_neither_refills_nor_rewinds_the_mark() {
        let (limiter, t0) = limiter(1, 1.0);
        assert_eq!(drain(&limiter, t0), 1);
        let t1 = t0 + Duration::from_secs(1);
        assert_eq!(drain(&limiter, t1), 1);
        assert!(matches!(limiter.admit_at(t0), Admission::Limited { .. }));
        // Had the stale call moved the mark back to t0, this would see a
        // second of refill again.
        assert!(matches!(limiter.admit_at(t1), Admission::Limited { .. }));
    }
}
