//! Fixed-point monetary amounts — the `money` data type used by the
//! paper's interface examples (`Salary: money`, `IncomeInYear(integer):
//! money`).

use crate::DataError;
use std::fmt;
use std::ops::Neg;
use std::str::FromStr;

/// A monetary amount in hundredths (cents) of an unspecified currency.
///
/// The paper's `SAL_EMPLOYEE2` interface derives
/// `CurrentIncomePerYear = Salary * 13.5` and calls
/// `ChangeSalary(Salary * 1.1)`; to keep the data universe totally
/// ordered (required for sets and maps) we avoid floating point and use
/// exact fixed-point arithmetic with banker's-free truncation toward
/// zero, matching what a database implementation of TROLL would do.
///
/// # Example
///
/// ```
/// use troll_data::Money;
/// let salary = Money::from_major(5_000);
/// assert_eq!(salary.scale_by_tenths(11), Money::from_major(5_500)); // *1.1
/// assert_eq!(salary.to_string(), "5000.00");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Money(i64);

impl Money {
    /// Zero amount.
    pub const ZERO: Money = Money(0);

    /// Creates an amount from whole currency units.
    pub fn from_major(units: i64) -> Self {
        Money(units * 100)
    }

    /// Creates an amount from hundredths (cents).
    pub fn from_cents(cents: i64) -> Self {
        Money(cents)
    }

    /// The amount in cents.
    pub fn cents(&self) -> i64 {
        self.0
    }

    /// Checked addition.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Overflow`] on overflow.
    pub fn checked_add(self, other: Money) -> Result<Money, DataError> {
        self.0
            .checked_add(other.0)
            .map(Money)
            .ok_or_else(|| DataError::Overflow("money addition".into()))
    }

    /// Checked subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Overflow`] on overflow.
    pub fn checked_sub(self, other: Money) -> Result<Money, DataError> {
        self.0
            .checked_sub(other.0)
            .map(Money)
            .ok_or_else(|| DataError::Overflow("money subtraction".into()))
    }

    /// Multiplies by an integer factor.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Overflow`] on overflow.
    pub fn checked_mul(self, factor: i64) -> Result<Money, DataError> {
        self.0
            .checked_mul(factor)
            .map(Money)
            .ok_or_else(|| DataError::Overflow("money multiplication".into()))
    }

    /// Scales by `tenths / 10` exactly (e.g. `scale_by_tenths(11)` is
    /// multiplication by 1.1, `scale_by_tenths(135)` by 13.5), truncating
    /// any sub-cent remainder toward zero.
    pub fn scale_by_tenths(self, tenths: i64) -> Money {
        Money(self.0.saturating_mul(tenths) / 10)
    }

    /// Scales by the rational `num / den`, truncating toward zero.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Undefined`] if `den == 0` and
    /// [`DataError::Overflow`] on overflow.
    pub fn scale(self, num: i64, den: i64) -> Result<Money, DataError> {
        if den == 0 {
            return Err(DataError::Undefined(
                "money scale by zero denominator".into(),
            ));
        }
        self.0
            .checked_mul(num)
            .map(|x| Money(x / den))
            .ok_or_else(|| DataError::Overflow("money scaling".into()))
    }
}

impl Neg for Money {
    type Output = Money;

    fn neg(self) -> Money {
        Money(-self.0)
    }
}

impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.0 < 0 { "-" } else { "" };
        let abs = self.0.unsigned_abs();
        write!(f, "{sign}{}.{:02}", abs / 100, abs % 100)
    }
}

impl FromStr for Money {
    type Err = DataError;

    /// Parses `123`, `123.4` or `123.45` (optionally signed).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || DataError::Undefined(format!("cannot parse money literal `{s}`"));
        let (sign, rest) = match s.strip_prefix('-') {
            Some(r) => (-1i64, r),
            None => (1i64, s),
        };
        let (whole, frac) = match rest.split_once('.') {
            Some((w, f)) => (w, f),
            None => (rest, ""),
        };
        if whole.is_empty() || frac.len() > 2 {
            return Err(bad());
        }
        let units: i64 = whole.parse().map_err(|_| bad())?;
        let cents: i64 = if frac.is_empty() {
            0
        } else {
            let padded = format!("{frac:0<2}");
            padded.parse().map_err(|_| bad())?
        };
        units
            .checked_mul(100)
            .and_then(|c| c.checked_add(cents))
            .map(|c| Money(sign * c))
            .ok_or_else(|| DataError::Overflow(format!("money literal `{s}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_display() {
        assert_eq!(Money::from_major(5000).to_string(), "5000.00");
        assert_eq!(Money::from_cents(123).to_string(), "1.23");
        assert_eq!(Money::from_cents(-5).to_string(), "-0.05");
        assert_eq!(Money::ZERO, Money::default());
    }

    #[test]
    fn paper_derivations() {
        // SAL_EMPLOYEE2: CurrentIncomePerYear = Salary * 13.5
        let salary = Money::from_major(4_000);
        assert_eq!(salary.scale_by_tenths(135), Money::from_major(54_000));
        // IncreaseSalary >> ChangeSalary(Salary * 1.1)
        assert_eq!(salary.scale_by_tenths(11), Money::from_major(4_400));
    }

    #[test]
    fn parsing() {
        assert_eq!("5000".parse::<Money>().unwrap(), Money::from_major(5000));
        assert_eq!("12.5".parse::<Money>().unwrap(), Money::from_cents(1250));
        assert_eq!("-3.07".parse::<Money>().unwrap(), Money::from_cents(-307));
        assert!("12.345".parse::<Money>().is_err());
        assert!("abc".parse::<Money>().is_err());
        assert!(".5".parse::<Money>().is_err());
    }

    #[test]
    fn parsing_out_of_range_is_an_error_not_a_wrap() {
        // the largest and smallest amounts an i64 of cents holds
        assert_eq!(
            "92233720368547758.07".parse::<Money>().unwrap(),
            Money::from_cents(i64::MAX)
        );
        assert_eq!(
            "-92233720368547758.07".parse::<Money>().unwrap(),
            Money::from_cents(-i64::MAX)
        );
        for text in [
            "99999999999999999.5",
            "92233720368547758.08",
            "-92233720368547758.09",
        ] {
            assert!(
                matches!(text.parse::<Money>(), Err(DataError::Overflow(_))),
                "{text}"
            );
        }
    }

    #[test]
    fn checked_arithmetic() {
        let a = Money::from_major(10);
        let b = Money::from_major(3);
        assert_eq!(a.checked_add(b).unwrap(), Money::from_major(13));
        assert_eq!(a.checked_sub(b).unwrap(), Money::from_major(7));
        assert_eq!(a.checked_mul(3).unwrap(), Money::from_major(30));
        assert!(Money::from_cents(i64::MAX)
            .checked_add(Money::from_cents(1))
            .is_err());
        assert!(Money::from_cents(i64::MAX).checked_mul(2).is_err());
        assert!(a.scale(1, 0).is_err());
        assert_eq!(a.scale(3, 2).unwrap(), Money::from_major(15));
    }

    proptest! {
        #[test]
        fn display_parse_round_trip(cents in -1_000_000_000i64..1_000_000_000) {
            let m = Money::from_cents(cents);
            prop_assert_eq!(m.to_string().parse::<Money>().unwrap(), m);
        }

        #[test]
        fn add_sub_inverse(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000) {
            let (a, b) = (Money::from_cents(a), Money::from_cents(b));
            prop_assert_eq!(a.checked_add(b).unwrap().checked_sub(b).unwrap(), a);
        }

        #[test]
        fn ordering_respects_cents(a in any::<i32>(), b in any::<i32>()) {
            let (ma, mb) = (Money::from_cents(a as i64), Money::from_cents(b as i64));
            prop_assert_eq!(ma.cmp(&mb), (a as i64).cmp(&(b as i64)));
        }
    }
}
