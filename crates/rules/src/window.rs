//! Time windows during which a rule is active.
//!
//! The paper's MRT (Table II) expresses activity windows as wall-clock hour
//! ranges such as `01:00 - 07:00` or `17:00 - 24:00`. A window may wrap past
//! midnight (`22:00 - 06:00`). Budget meta-rules instead carry a horizon
//! ("for three years") which is represented separately on the rule.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Minutes in a day.
pub const MINUTES_PER_DAY: u32 = 24 * 60;

/// A daily recurring activity window, half-open `[start, end)` in minutes
/// since midnight.
///
/// `end` may be 1440 (= 24:00) to mean "until midnight". When `end < start`
/// the window wraps around midnight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TimeWindow {
    start_min: u32,
    end_min: u32,
}

impl TimeWindow {
    /// Builds a window from whole hours, e.g. `TimeWindow::hours(1, 7)` for
    /// the paper's `01:00 - 07:00`.
    ///
    /// # Panics
    /// Panics if either bound exceeds 24.
    pub fn hours(start_hour: u32, end_hour: u32) -> Self {
        assert!(start_hour <= 24 && end_hour <= 24, "hour out of range");
        Self {
            start_min: start_hour * 60,
            end_min: end_hour * 60,
        }
    }

    /// Builds a window from `(hour, minute)` pairs.
    ///
    /// # Panics
    /// Panics if a bound exceeds 24:00 or a minute exceeds 59.
    pub fn hm(start: (u32, u32), end: (u32, u32)) -> Self {
        let to_min = |(h, m): (u32, u32)| {
            assert!(m < 60, "minute out of range");
            let t = h * 60 + m;
            assert!(t <= MINUTES_PER_DAY, "time out of range");
            t
        };
        Self {
            start_min: to_min(start),
            end_min: to_min(end),
        }
    }

    /// A window covering the entire day.
    pub fn all_day() -> Self {
        Self {
            start_min: 0,
            end_min: MINUTES_PER_DAY,
        }
    }

    /// Start of the window in minutes since midnight.
    pub fn start_minute(&self) -> u32 {
        self.start_min
    }

    /// End of the window in minutes since midnight (may be 1440 = 24:00).
    pub fn end_minute(&self) -> u32 {
        self.end_min
    }

    /// True when the window wraps past midnight.
    pub fn wraps(&self) -> bool {
        self.end_min < self.start_min
    }

    /// Whether the given minute-of-day falls inside the window.
    pub fn contains_minute(&self, minute_of_day: u32) -> bool {
        let m = minute_of_day % MINUTES_PER_DAY;
        if self.wraps() {
            m >= self.start_min || m < self.end_min
        } else {
            m >= self.start_min && m < self.end_min
        }
    }

    /// Whether any part of the given hour `[h:00, h+1:00)` falls inside the
    /// window. Used by the hourly planner granularity.
    pub fn contains_hour(&self, hour_of_day: u32) -> bool {
        let lo = (hour_of_day % 24) * 60;
        let hi = lo + 60;
        if self.wraps() {
            // `[start, 24:00)` or `[00:00, end)` reaches into the hour.
            self.start_min < hi || lo < self.end_min
        } else {
            // A non-empty `[start, end)` overlapping `[lo, hi)`.
            self.start_min < self.end_min && self.start_min < hi && lo < self.end_min
        }
    }

    /// Duration of the window in minutes.
    pub fn duration_minutes(&self) -> u32 {
        if self.wraps() {
            MINUTES_PER_DAY - self.start_min + self.end_min
        } else {
            self.end_min - self.start_min
        }
    }

    /// Duration in whole hours, rounded up.
    pub fn duration_hours_ceil(&self) -> u32 {
        self.duration_minutes().div_ceil(60)
    }

    /// True when two windows share at least one minute of the day.
    pub fn overlaps(&self, other: &TimeWindow) -> bool {
        // A day has only 1440 minutes; the direct scan keeps wrap-around
        // logic obviously correct and is nowhere near any hot path.
        (0..MINUTES_PER_DAY).any(|m| self.contains_minute(m) && other.contains_minute(m))
    }

    /// Shifts both bounds by `delta_minutes` (may be negative), wrapping
    /// around midnight. Used to generate "uniformly random variations" of the
    /// flat MRT for the house/dorms datasets (paper §II-C).
    pub fn shifted(&self, delta_minutes: i32) -> TimeWindow {
        let shift = |m: u32| -> u32 {
            let d = (m as i64 + delta_minutes as i64).rem_euclid(MINUTES_PER_DAY as i64);
            d as u32
        };
        // A full-day window stays a full-day window under shifting.
        if self.start_min == 0 && self.end_min == MINUTES_PER_DAY {
            return *self;
        }
        TimeWindow {
            start_min: shift(self.start_min),
            end_min: shift(self.end_min),
        }
    }
}

impl fmt::Display for TimeWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02}:{:02} - {:02}:{:02}",
            self.start_min / 60,
            self.start_min % 60,
            self.end_min / 60,
            self.end_min % 60
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_window_contains_hours() {
        let w = TimeWindow::hours(1, 7); // paper "Night Heat"
        assert!(!w.contains_hour(0));
        assert!(w.contains_hour(1));
        assert!(w.contains_hour(6));
        assert!(!w.contains_hour(7));
        assert!(!w.contains_hour(23));
    }

    #[test]
    fn end_of_day_window() {
        let w = TimeWindow::hours(17, 24); // paper "Afternoon Preheat"
        assert!(w.contains_hour(17));
        assert!(w.contains_hour(23));
        assert!(!w.contains_hour(0));
        assert_eq!(w.duration_minutes(), 7 * 60);
    }

    #[test]
    fn wrapping_window() {
        let w = TimeWindow::hours(22, 6);
        assert!(w.wraps());
        assert!(w.contains_hour(23));
        assert!(w.contains_hour(0));
        assert!(w.contains_hour(5));
        assert!(!w.contains_hour(6));
        assert!(!w.contains_hour(12));
        assert_eq!(w.duration_minutes(), 8 * 60);
    }

    #[test]
    fn all_day_contains_everything() {
        let w = TimeWindow::all_day();
        for h in 0..24 {
            assert!(w.contains_hour(h));
        }
        assert_eq!(w.duration_minutes(), MINUTES_PER_DAY);
    }

    #[test]
    fn overlap_detection() {
        let night = TimeWindow::hours(1, 7);
        let morning = TimeWindow::hours(4, 9);
        let evening = TimeWindow::hours(18, 24);
        assert!(night.overlaps(&morning)); // 04:00-07:00 shared
        assert!(!night.overlaps(&evening));
        let wrap = TimeWindow::hours(22, 2);
        assert!(wrap.overlaps(&night)); // 01:00-02:00 shared
        assert!(wrap.overlaps(&evening));
    }

    #[test]
    fn shifting_wraps_cleanly() {
        let w = TimeWindow::hours(23, 24).shifted(120);
        assert!(w.contains_hour(1));
        assert!(!w.contains_hour(23));
        let back = TimeWindow::hours(0, 1).shifted(-60);
        assert!(back.contains_hour(23));
    }

    #[test]
    fn shift_preserves_duration() {
        let w = TimeWindow::hours(8, 16);
        for d in [-300, -61, -1, 0, 1, 59, 300, 1441] {
            assert_eq!(
                w.shifted(d).duration_minutes(),
                w.duration_minutes(),
                "delta={d}"
            );
        }
    }

    #[test]
    fn display_formats_like_paper() {
        assert_eq!(TimeWindow::hours(1, 7).to_string(), "01:00 - 07:00");
        assert_eq!(TimeWindow::hours(17, 24).to_string(), "17:00 - 24:00");
    }

    #[test]
    fn hm_constructor() {
        let w = TimeWindow::hm((6, 30), (7, 15));
        assert!(w.contains_minute(6 * 60 + 30));
        assert!(w.contains_minute(7 * 60));
        assert!(!w.contains_minute(7 * 60 + 15));
        assert_eq!(w.duration_minutes(), 45);
        assert!(w.contains_hour(6));
        assert!(w.contains_hour(7));
        assert!(!w.contains_hour(8));
    }
}
