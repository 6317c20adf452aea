//! Hourly-resampled trace series: the planner-facing view of a dataset.
//!
//! Raw readings arrive at second/minute cadence; the planner runs hourly.
//! [`HourlySeries`] holds one value per hour; [`ZoneTrace`] groups the
//! temperature, light and door series of one zone; [`Trace`] is a whole
//! dataset (one or many zones).
//!
//! A series stores its values in whichever of three encodings fits them,
//! all read through [`HourlySeries::at`]:
//!
//! * **dense**, one `f64` per hour: resampled readings, the outage and
//!   replication transforms, and the synthesizer's temperature, whose every
//!   hour carries its own noise draw;
//! * **daylight**, one cloud draw per day and the zone's light factor over
//!   a clear-sky table that every zone of one synthesized trace shares:
//!   each hour's light is recomputed with the synthesizer's expression;
//! * **sparse**, for the mostly-zero door series: per day, a mask of the
//!   hours whose value has non-zero bits and where that day's first stored
//!   value sits; only those values are stored.

use crate::reading::{SensorKind, SensorReading};
use imcf_core::calendar::{PaperCalendar, HOURS_PER_DAY};
use std::collections::BTreeMap;
use std::sync::Arc;

const DAY: usize = HOURS_PER_DAY as usize;

/// A series of hourly sensor values.
///
/// Two series are equal when they have the same length and every hour's
/// value has the same bits, whatever their encodings.
#[derive(Debug, Clone)]
pub struct HourlySeries {
    encoding: Encoding,
}

#[derive(Debug, Clone)]
enum Encoding {
    Dense(Vec<f64>),
    Daylight(Daylight),
    Sparse(Sparse),
}

impl HourlySeries {
    /// Creates a series from hourly values.
    pub fn new(values: Vec<f64>) -> Self {
        HourlySeries {
            encoding: Encoding::Dense(values),
        }
    }

    /// The light of a zone whose factor is `factor`, over `len` hours of
    /// `sky`, under one cloud draw per day (`clouds[d]` for day `d`).
    pub(crate) fn daylight(sky: Arc<ClearSky>, clouds: Vec<f64>, factor: f64, len: usize) -> Self {
        HourlySeries {
            encoding: Encoding::Daylight(Daylight {
                sky,
                clouds,
                factor,
                len,
            }),
        }
    }

    /// Length in hours.
    pub fn len(&self) -> usize {
        match &self.encoding {
            Encoding::Dense(values) => values.len(),
            Encoding::Daylight(light) => light.len,
            Encoding::Sparse(sparse) => sparse.len,
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at an hour index.
    ///
    /// # Panics
    /// Panics when `hour` is not below [`Self::len`].
    // Inlined across crates, with the encodings' reads: the slot builder
    // reads four values per zone and hour.
    #[inline]
    pub fn at(&self, hour: u64) -> f64 {
        let hour = hour as usize;
        match &self.encoding {
            Encoding::Dense(values) => values[hour],
            Encoding::Daylight(light) => light.at(hour),
            Encoding::Sparse(sparse) => sparse.at(hour),
        }
    }

    /// Every hour's value, in hour order.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.len() as u64).map(move |hour| self.at(hour))
    }

    /// Mean of the series (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.iter().sum::<f64>() / self.len() as f64
        }
    }

    /// Resamples raw readings of one sensor into hourly means over
    /// `horizon_hours`. Hours with no readings inherit the previous hour's
    /// value (or `fill` at the very start).
    pub fn from_readings<'a, I>(readings: I, horizon_hours: u64, fill: f64) -> HourlySeries
    where
        I: IntoIterator<Item = &'a SensorReading>,
    {
        let mut sums = vec![0.0f64; horizon_hours as usize];
        let mut counts = vec![0u32; horizon_hours as usize];
        for r in readings {
            let h = r.hour_index();
            if h < horizon_hours {
                sums[h as usize] += r.value;
                counts[h as usize] += 1;
            }
        }
        let mut values = Vec::with_capacity(horizon_hours as usize);
        let mut last = fill;
        for (sum, count) in sums.into_iter().zip(counts) {
            if count > 0 {
                last = sum / count as f64;
            }
            values.push(last);
        }
        HourlySeries::new(values)
    }
}

impl PartialEq for HourlySeries {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self
                .iter()
                .zip(other.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// The clear-sky daylight that every zone of one synthesized trace shares.
#[derive(Debug)]
pub(crate) struct ClearSky {
    /// The level at each (month, hour of day), January first; `None`
    /// after dark.
    pub(crate) levels: [[Option<f64>; DAY]; 12],
    /// The month (0 for January) of each day of the horizon.
    pub(crate) months: Vec<u8>,
}

/// Light recomputed from each day's cloud draw. Hour `h` of day `d` reads
/// the synthesizer's expression in its order: the clear-sky level of `d`'s
/// month at `h` times `clouds[d]`, clamped to 0–100 (0 after dark), times
/// `factor`. The same operations on the same operands give the bits the
/// synthesizer would have stored.
#[derive(Debug, Clone)]
struct Daylight {
    sky: Arc<ClearSky>,
    clouds: Vec<f64>,
    factor: f64,
    len: usize,
}

impl Daylight {
    #[inline]
    fn at(&self, hour: usize) -> f64 {
        assert!(hour < self.len, "hour {hour} of a {}-hour series", self.len);
        let (day, hour) = (hour / DAY, hour % DAY);
        let clear = self.sky.levels[usize::from(self.sky.months[day])][hour];
        let cloud = self.clouds[day];
        clear.map_or(0.0, |l| (l * cloud).clamp(0.0, 100.0)) * self.factor
    }
}

/// A series written hour by hour that stores only the values with non-zero
/// bits, in hour order. Hour `h` of day `d` is stored when bit `h` of
/// `days[d].mask` is set, at `values[days[d].first + (set bits below h)]`;
/// every other hour reads `0.0`.
#[derive(Debug, Clone)]
pub(crate) struct Sparse {
    days: Vec<SparseDay>,
    values: Vec<f64>,
    len: usize,
}

#[derive(Debug, Clone, Copy)]
struct SparseDay {
    /// Bit `h` is set when hour `h` of the day is stored.
    mask: u32,
    /// Index in `values` of the day's first stored hour.
    first: u32,
}

impl Sparse {
    /// An empty series with room for `hours` hours, `stored` of them
    /// non-zero.
    pub(crate) fn with_capacity(hours: usize, stored: usize) -> Self {
        Sparse {
            days: Vec::with_capacity(hours.div_ceil(DAY)),
            values: Vec::with_capacity(stored),
            len: 0,
        }
    }

    /// Appends the next hour's value.
    ///
    /// # Panics
    /// Panics when a day would start past `u32::MAX` stored values.
    pub(crate) fn push(&mut self, value: f64) {
        let hour = self.len % DAY;
        if hour == 0 {
            let Ok(first) = u32::try_from(self.values.len()) else {
                panic!("a sparse series stores at most u32::MAX values");
            };
            self.days.push(SparseDay { mask: 0, first });
        }
        if value.to_bits() != 0 {
            self.days[self.len / DAY].mask |= 1 << hour;
            self.values.push(value);
        }
        self.len += 1;
    }

    /// The series written so far, holding no spare capacity.
    pub(crate) fn finish(mut self) -> HourlySeries {
        self.values.shrink_to_fit();
        HourlySeries {
            encoding: Encoding::Sparse(self),
        }
    }

    #[inline]
    fn at(&self, hour: usize) -> f64 {
        assert!(hour < self.len, "hour {hour} of a {}-hour series", self.len);
        let day = self.days[hour / DAY];
        let bit = 1u32 << (hour % DAY);
        if day.mask & bit == 0 {
            return 0.0;
        }
        let below = (day.mask & (bit - 1)).count_ones();
        self.values[day.first as usize + below as usize]
    }
}

/// All hourly series of one zone.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneTrace {
    /// Zone name (room or apartment identifier).
    pub zone: String,
    /// Indoor unactuated temperature, °C.
    pub temperature: HourlySeries,
    /// Indoor ambient illuminance, 0–100.
    pub light: HourlySeries,
    /// Fraction of the hour a door stood open, 0–1.
    pub door_open: HourlySeries,
}

impl ZoneTrace {
    /// Horizon length in hours (the minimum across series).
    pub fn horizon_hours(&self) -> u64 {
        self.temperature
            .len()
            .min(self.light.len())
            .min(self.door_open.len()) as u64
    }
}

/// A dataset: one or many zone traces over a common horizon and calendar.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The calendar anchoring hour 0 (the CASAS traces start in October).
    pub calendar: PaperCalendar,
    /// Per-zone series.
    pub zones: Vec<ZoneTrace>,
}

impl Trace {
    /// Creates a trace.
    pub fn new(calendar: PaperCalendar, zones: Vec<ZoneTrace>) -> Self {
        Trace { calendar, zones }
    }

    /// The common horizon (minimum across zones; 0 when empty).
    pub fn horizon_hours(&self) -> u64 {
        self.zones
            .iter()
            .map(|z| z.horizon_hours())
            .min()
            .unwrap_or(0)
    }

    /// Number of zones.
    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }

    /// Looks up a zone by name.
    pub fn zone(&self, name: &str) -> Option<&ZoneTrace> {
        self.zones.iter().find(|z| z.zone == name)
    }

    /// Builds a trace by resampling raw readings grouped by zone.
    pub fn from_readings(
        calendar: PaperCalendar,
        readings: &[SensorReading],
        horizon_hours: u64,
    ) -> Trace {
        let mut by_zone: BTreeMap<&str, Vec<&SensorReading>> = BTreeMap::new();
        for r in readings {
            by_zone.entry(r.zone.as_str()).or_default().push(r);
        }
        let zones = by_zone
            .into_iter()
            .map(|(zone, rs)| {
                let of = |kind: SensorKind, fill: f64| {
                    HourlySeries::from_readings(
                        rs.iter().copied().filter(|r| r.sensor == kind),
                        horizon_hours,
                        fill,
                    )
                };
                ZoneTrace {
                    zone: zone.to_string(),
                    temperature: of(SensorKind::Temperature, 18.0),
                    light: of(SensorKind::Light, 0.0),
                    door_open: of(SensorKind::Door, 0.0),
                }
            })
            .collect();
        Trace { calendar, zones }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resampling_averages_within_hours() {
        let readings = [
            SensorReading::new(0, "flat", SensorKind::Temperature, 10.0),
            SensorReading::new(1800, "flat", SensorKind::Temperature, 20.0),
            SensorReading::new(3600, "flat", SensorKind::Temperature, 30.0),
        ];
        let s = HourlySeries::from_readings(readings.iter(), 3, 0.0);
        assert_eq!(s.at(0), 15.0);
        assert_eq!(s.at(1), 30.0);
        // Hour 2 has no readings: carries forward.
        assert_eq!(s.at(2), 30.0);
    }

    #[test]
    fn gaps_at_start_use_fill() {
        let readings = [SensorReading::new(
            2 * 3600,
            "flat",
            SensorKind::Light,
            50.0,
        )];
        let s = HourlySeries::from_readings(readings.iter(), 4, 7.0);
        assert_eq!(s.iter().collect::<Vec<_>>(), [7.0, 7.0, 50.0, 50.0]);
    }

    #[test]
    fn trace_from_readings_groups_zones() {
        let readings = vec![
            SensorReading::new(0, "bedroom", SensorKind::Temperature, 18.0),
            SensorReading::new(0, "kitchen", SensorKind::Temperature, 21.0),
            SensorReading::new(0, "bedroom", SensorKind::Light, 5.0),
        ];
        let trace = Trace::from_readings(PaperCalendar::starting_in(10), &readings, 2);
        assert_eq!(trace.zone_count(), 2);
        assert_eq!(trace.zone("bedroom").unwrap().temperature.at(0), 18.0);
        assert_eq!(trace.zone("kitchen").unwrap().temperature.at(0), 21.0);
        assert_eq!(trace.horizon_hours(), 2);
        assert!(trace.zone("garage").is_none());
    }

    #[test]
    fn out_of_horizon_readings_ignored() {
        let readings = [
            SensorReading::new(0, "z", SensorKind::Light, 1.0),
            SensorReading::new(100 * 3600, "z", SensorKind::Light, 99.0),
        ];
        let s = HourlySeries::from_readings(readings.iter(), 2, 0.0);
        assert_eq!(s.iter().collect::<Vec<_>>(), [1.0, 1.0]);
    }

    #[test]
    fn series_mean() {
        assert_eq!(HourlySeries::new(vec![1.0, 2.0, 3.0]).mean(), 2.0);
        assert_eq!(HourlySeries::new(vec![]).mean(), 0.0);
    }

    fn sparse(values: &[f64]) -> HourlySeries {
        let mut series = Sparse::with_capacity(values.len(), 0);
        for &v in values {
            series.push(v);
        }
        series.finish()
    }

    /// `len` hours of light under `factor` over a clear sky whose days
    /// alternate between January and July, lit from 06:00 to 18:00, with
    /// day `d`'s cloud `0.3 + 0.1 d`.
    fn daylight(len: usize, factor: f64) -> HourlySeries {
        let levels = std::array::from_fn(|m| {
            std::array::from_fn(|h| (6..=18).contains(&h).then_some(10.0 * m as f64 + h as f64))
        });
        let days = len.div_ceil(DAY);
        let months = (0..days).map(|d| (d % 2 * 6) as u8).collect();
        let clouds = (0..days).map(|d| 0.3 + 0.1 * d as f64).collect();
        HourlySeries::daylight(Arc::new(ClearSky { levels, months }), clouds, factor, len)
    }

    fn bits(series: &HourlySeries) -> Vec<u64> {
        series.iter().map(f64::to_bits).collect()
    }

    /// Non-zero bit patterns a sparse series must keep as they are:
    /// negative zero, subnormals, infinities and ordinary values.
    const ODD: [f64; 8] = [
        -0.0,
        f64::MIN_POSITIVE / 2.0,
        -5e-324,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.125,
        -3.5e300,
        1.0,
    ];

    #[test]
    fn sparse_series_round_trip_bit_for_bit() {
        let nan = |payload: u64| f64::from_bits(0x7ff0_0000_0000_0000 | payload);
        let mut values = Vec::new();
        // Day 0: odd values between zeros, a quiet and a signalling NaN.
        values.extend([0.0, nan(1 << 51 | 0xbeef), 0.0, nan(0x1)]);
        values.extend(ODD);
        values.extend([0.0; 12]);
        // Day 1 all zero; day 2 all non-zero; day 3 partial.
        values.extend([0.0; DAY]);
        values.extend((0..DAY).map(|h| ODD[h % ODD.len()]));
        values.extend([0.0, -0.0, 2.5, 0.0, 5e-324, 0.0, 0.0]);
        assert_eq!(values.len(), 3 * DAY + 7);

        let want: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        for len in 0..=values.len() {
            let series = sparse(&values[..len]);
            assert_eq!(series.len(), len);
            assert_eq!(bits(&series), want[..len]);
        }
        // Every length of a pseudo-random pattern, half of it zero.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let words: Vec<f64> = (0..5 * DAY)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                f64::from_bits(if state >> 63 == 1 { state } else { 0 })
            })
            .collect();
        for len in 0..=words.len() {
            let series = sparse(&words[..len]);
            let want: Vec<u64> = words[..len].iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits(&series), want, "length {len}");
        }
    }

    #[test]
    fn no_encoding_answers_past_its_length() {
        // 30 hours: the last day's cloud and mask also cover hours 30–47.
        let values: Vec<f64> = (0..30).map(|h| f64::from(h % 3)).collect();
        let encodings = [
            HourlySeries::new(values.clone()),
            daylight(30, 0.9),
            sparse(&values),
        ];
        for series in &encodings {
            assert_eq!(series.len(), 30);
            let _ = series.at(29);
            for hour in [30, 31, 47, 48] {
                let past = std::panic::catch_unwind(|| series.at(hour));
                assert!(past.is_err(), "{series:?} answered for hour {hour}");
            }
        }
        let empty = [HourlySeries::new(Vec::new()), daylight(0, 1.0), sparse(&[])];
        for series in &empty {
            assert!(series.is_empty() && series.iter().next().is_none());
            assert_eq!(series.mean(), 0.0);
            assert!(std::panic::catch_unwind(|| series.at(0)).is_err());
        }
    }

    #[test]
    fn equality_compares_values_bit_for_bit_across_encodings() {
        let mut values = vec![0.0; 2 * DAY + 5];
        values[3] = 0.25;
        values[DAY + 9] = -0.0;
        values[2 * DAY + 4] = 7.5;
        let dense = HourlySeries::new(values.clone());
        let compact = sparse(&values);
        assert_eq!(dense, compact);
        assert_eq!(compact, dense);
        assert_eq!(dense.mean().to_bits(), compact.mean().to_bits());
        for (hour, bit) in [(3, 0), (3, 63), (DAY + 9, 63), (0, 63), (2 * DAY + 4, 51)] {
            let mut flipped = values.clone();
            flipped[hour] = f64::from_bits(flipped[hour].to_bits() ^ 1 << bit);
            assert_ne!(
                HourlySeries::new(flipped.clone()),
                compact,
                "hour {hour} bit {bit}"
            );
            assert_ne!(sparse(&flipped), dense, "hour {hour} bit {bit}");
        }
        assert_ne!(sparse(&values[..values.len() - 1]), dense);

        let light = daylight(2 * DAY + 5, 0.95);
        let copied = HourlySeries::new(light.iter().collect());
        assert_eq!(light, copied);
        assert_eq!(light.mean().to_bits(), copied.mean().to_bits());
        let mut flipped: Vec<f64> = light.iter().collect();
        flipped[12] = f64::from_bits(flipped[12].to_bits() ^ 1);
        assert_ne!(light, HourlySeries::new(flipped));
        assert_ne!(light, daylight(2 * DAY + 5, 0.9));
    }
}
