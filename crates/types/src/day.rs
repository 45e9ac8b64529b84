//! Calendar timestamps at passive-DNS granularity.
//!
//! The PDNS dataset the paper works with aggregates observations per *day*
//! (`pdate`), so the natural timestamp for this workspace is a day counter.
//! [`DayStamp`] is a number of days since the Unix epoch (1970-01-01, UTC),
//! convertible to and from civil `(year, month, day)` dates using Howard
//! Hinnant's well-known `days_from_civil` / `civil_from_days` algorithms.
//! [`MonthStamp`] buckets days into calendar months for the monthly trend
//! figures (Figures 3, 4 and 7).

use std::fmt;

/// A calendar day, stored as days since 1970-01-01 (UTC).
///
/// Supports arithmetic (`+ i64`, difference) and civil-date conversion.
///
/// ```
/// use fw_types::DayStamp;
/// let d = DayStamp::from_ymd(2022, 4, 1);
/// assert_eq!(d.ymd(), (2022, 4, 1));
/// assert_eq!((d + 30).ymd(), (2022, 5, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DayStamp(pub i64);

/// First day of the paper's measurement window (April 2022).
pub const MEASUREMENT_START: DayStamp = DayStamp(19083); // 2022-04-01
/// Last day of the paper's measurement window (March 2024).
pub const MEASUREMENT_END: DayStamp = DayStamp(19813); // 2024-03-31

/// Index of `day`'s month in the measurement window (April 2022 is 0,
/// March 2024 is 23), or `None` outside the window.
pub fn window_month_index(day: DayStamp) -> Option<usize> {
    if day < MEASUREMENT_START || day > MEASUREMENT_END {
        return None;
    }
    let (start, m) = (MEASUREMENT_START.month(), day.month());
    Some(((m.year - start.year) * 12 + m.month as i32 - start.month as i32) as usize)
}

/// The 24 months of the measurement window, in order.
pub fn window_months() -> Vec<MonthStamp> {
    MEASUREMENT_START
        .month()
        .range_inclusive(MEASUREMENT_END.month())
        .collect()
}

impl DayStamp {
    /// Build a stamp from a civil date. Panics on out-of-range months/days
    /// (callers construct dates from literals or validated input).
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Self {
        assert!((1..=12).contains(&month), "month out of range: {month}");
        assert!((1..=31).contains(&day), "day out of range: {day}");
        DayStamp(days_from_civil(year, month, day))
    }

    /// Decompose into `(year, month, day)`.
    pub fn ymd(self) -> (i32, u32, u32) {
        civil_from_days(self.0)
    }

    /// The calendar month this day falls in.
    pub fn month(self) -> MonthStamp {
        let (y, m, _) = self.ymd();
        MonthStamp { year: y, month: m }
    }

    /// ISO-8601 `YYYY-MM-DD` rendering.
    pub fn iso(self) -> String {
        let (y, m, d) = self.ymd();
        format!("{y:04}-{m:02}-{d:02}")
    }
}

impl fmt::Display for DayStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.iso())
    }
}

impl std::ops::Add<i64> for DayStamp {
    type Output = DayStamp;
    fn add(self, rhs: i64) -> DayStamp {
        DayStamp(self.0 + rhs)
    }
}

impl std::ops::Sub<i64> for DayStamp {
    type Output = DayStamp;
    fn sub(self, rhs: i64) -> DayStamp {
        DayStamp(self.0 - rhs)
    }
}

impl std::ops::Sub<DayStamp> for DayStamp {
    type Output = i64;
    fn sub(self, rhs: DayStamp) -> i64 {
        self.0 - rhs.0
    }
}

/// A calendar month, used for the paper's monthly trend series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MonthStamp {
    pub year: i32,
    pub month: u32,
}

impl MonthStamp {
    pub fn new(year: i32, month: u32) -> Self {
        assert!((1..=12).contains(&month), "month out of range: {month}");
        MonthStamp { year, month }
    }

    /// First day of this month.
    pub fn first_day(self) -> DayStamp {
        DayStamp::from_ymd(self.year, self.month, 1)
    }

    /// Number of days in this month.
    pub fn len_days(self) -> i64 {
        self.next().first_day() - self.first_day()
    }

    /// The following month.
    pub fn next(self) -> MonthStamp {
        if self.month == 12 {
            MonthStamp {
                year: self.year + 1,
                month: 1,
            }
        } else {
            MonthStamp {
                year: self.year,
                month: self.month + 1,
            }
        }
    }

    /// Inclusive iterator over months `self..=end`.
    pub fn range_inclusive(self, end: MonthStamp) -> impl Iterator<Item = MonthStamp> {
        let mut cur = self;
        std::iter::from_fn(move || {
            if cur > end {
                None
            } else {
                let out = cur;
                cur = cur.next();
                Some(out)
            }
        })
    }

    /// `YYYY-MM` rendering.
    pub fn label(self) -> String {
        format!("{:04}-{:02}", self.year, self.month)
    }
}

impl fmt::Display for MonthStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Days since the epoch for a civil date (proleptic Gregorian calendar).
///
/// Howard Hinnant's `days_from_civil`, which is exact for all `i32` years.
fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let m = i64::from(m);
    let d = i64::from(d);
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146097 + doe - 719468
}

/// Inverse of [`days_from_civil`].
fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m as u32, d as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(DayStamp::from_ymd(1970, 1, 1).0, 0);
        assert_eq!(DayStamp(0).ymd(), (1970, 1, 1));
    }

    #[test]
    fn measurement_window_constants_match_civil_dates() {
        assert_eq!(MEASUREMENT_START.ymd(), (2022, 4, 1));
        assert_eq!(MEASUREMENT_END.ymd(), (2024, 3, 31));
        // The paper describes a two-year window; 2024 is a leap year so the
        // span is 730 days inclusive of both endpoints.
        assert_eq!(MEASUREMENT_END - MEASUREMENT_START + 1, 731);
    }

    #[test]
    fn leap_year_handling() {
        let d = DayStamp::from_ymd(2024, 2, 28);
        assert_eq!((d + 1).ymd(), (2024, 2, 29));
        assert_eq!((d + 2).ymd(), (2024, 3, 1));
        let d = DayStamp::from_ymd(2023, 2, 28);
        assert_eq!((d + 1).ymd(), (2023, 3, 1));
    }

    #[test]
    fn month_arithmetic() {
        let m = MonthStamp::new(2022, 12);
        assert_eq!(m.next(), MonthStamp::new(2023, 1));
        assert_eq!(m.len_days(), 31);
        assert_eq!(MonthStamp::new(2024, 2).len_days(), 29);
        assert_eq!(MonthStamp::new(2023, 2).len_days(), 28);
        assert_eq!((m.next().first_day() - 1).ymd(), (2022, 12, 31));
    }

    #[test]
    fn month_range_covers_measurement_window() {
        let months = window_months();
        assert_eq!(months.len(), 24);
        assert_eq!(months[0], MonthStamp::new(2022, 4));
        assert_eq!(months[23], MonthStamp::new(2024, 3));
        // Every window day indexes its own month; the days either side
        // of the window index none.
        for off in 0..=(MEASUREMENT_END - MEASUREMENT_START) {
            let d = MEASUREMENT_START + off;
            assert_eq!(months[window_month_index(d).unwrap()], d.month());
        }
        assert_eq!(window_month_index(MEASUREMENT_START - 1), None);
        assert_eq!(window_month_index(MEASUREMENT_END + 1), None);
    }

    #[test]
    fn roundtrip_every_day_in_window() {
        for off in 0..=(MEASUREMENT_END - MEASUREMENT_START) {
            let d = MEASUREMENT_START + off;
            let (y, m, dd) = d.ymd();
            assert_eq!(DayStamp::from_ymd(y, m, dd), d);
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(DayStamp::from_ymd(2022, 4, 1).to_string(), "2022-04-01");
        assert_eq!(MonthStamp::new(2024, 3).to_string(), "2024-03");
    }

    #[test]
    #[should_panic(expected = "month out of range")]
    fn invalid_month_panics() {
        DayStamp::from_ymd(2022, 13, 1);
    }
}
