//! A Presburger-arithmetic kernel for the Qlosure qubit mapper.
//!
//! This crate is a from-scratch substitute for the subset of the Integer Set
//! Library (ISL) and the Barvinok counting library that the Qlosure paper
//! relies on:
//!
//! * [`Set`] / [`BasicSet`] — unions / conjunctions of affine constraints
//!   (equalities, inequalities and congruences) over integer tuples;
//! * [`Map`] / [`BasicMap`] — integer relations with the usual algebra
//!   (composition, inverse, domain/range, deltas, fixed powers);
//! * [`Map::transitive_closure`] — the `R⁺` operator of
//!   Verdoolaege–Cohen–Beletska, exact for translation-like relations and a
//!   flagged over-approximation otherwise;
//! * [`Set::count_points`] — exact integer-point counting (the `card`
//!   operation Barvinok provides), implemented by disjointification plus
//!   bound-driven enumeration with closed-form innermost intervals.
//!
//! The representation follows the Omega library rather than ISL: instead of
//! existentially quantified *div* variables, congruence constraints
//! ([`Constraint::modulo`]) are first-class. This keeps every operation —
//! including set difference — closed over the representation, which is what
//! makes the exact emptiness/subset tests used by the transitive-closure
//! fixpoint cheap and trustworthy.
//!
//! Dimensions in the qubit-mapping workload are tiny (schedules are 1-D,
//! dependence relations at most 3-D), so the exact integer procedures here
//! (Omega-test elimination with dark shadow and splinters, CRT congruence
//! merging) are fast in practice.
//!
//! # Example
//!
//! ```
//! use presburger::{BasicSet, Constraint, LinearExpr, Set};
//!
//! // S = { [i] : 0 <= i < 10 and i ≡ 1 (mod 3) }  ->  {1, 4, 7}
//! let s = BasicSet::new(1, vec![
//!     Constraint::ge(LinearExpr::var(1, 0)),                      // i >= 0
//!     Constraint::ge(LinearExpr::var(1, 0).neg().plus_const(9)),  // i <= 9
//!     Constraint::modulo(LinearExpr::var(1, 0).plus_const(-1), 3),
//! ]);
//! assert_eq!(Set::from(s).count_points(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod basic;
mod closure;
mod count;
mod expr;
mod map;
mod memo;
mod omega;
mod set;

pub use basic::BasicSet;
pub use closure::ClosureResult;
pub use expr::{Constraint, ConstraintKind, LinearExpr};
pub use map::{BasicMap, Map};
pub use set::Set;

/// `(hits, misses)` counters of the process-wide transitive-closure memo
/// behind [`Map::transitive_closure`].
///
/// A *miss* is an actual closure computation; a *hit* is any call that
/// reused a memoized result. The counters are cumulative over the process
/// lifetime — long-lived consumers (the mapping service) report deltas
/// across requests to make cross-request amortization observable.
pub fn closure_memo_stats() -> (u64, u64) {
    memo::global().stats()
}

/// Errors reported by operations that are only defined on a fragment of
/// Presburger arithmetic (see crate docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A variable elimination required solving a congruence whose
    /// coefficient shares a non-trivial factor with the modulus while the
    /// remainder is symbolic; this fragment is not implemented.
    UnsupportedCongruence,
    /// A coefficient overflowed the `i64` range during normalization.
    Overflow,
    /// Two objects with incompatible dimensions were combined.
    DimensionMismatch {
        /// Dimension expected by the operation.
        expected: usize,
        /// Dimension actually provided.
        actual: usize,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::UnsupportedCongruence => {
                write!(f, "congruence elimination outside the supported fragment")
            }
            Error::Overflow => write!(f, "coefficient overflow during normalization"),
            Error::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

pub(crate) fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

pub(crate) fn lcm(a: i64, b: i64) -> i64 {
    if a == 0 || b == 0 {
        0
    } else {
        (a / gcd(a, b)).checked_mul(b).expect("lcm overflow").abs()
    }
}

/// Extended gcd: returns `(g, x, y)` with `a*x + b*y = g = gcd(a, b)`.
pub(crate) fn egcd(a: i64, b: i64) -> (i64, i64, i64) {
    if b == 0 {
        let sign = if a < 0 { -1 } else { 1 };
        (a.abs(), sign, 0)
    } else {
        let (g, x, y) = egcd(b, a.rem_euclid(b));
        (g, y, x - (a.div_euclid(b)) * y)
    }
}

/// Ceiling division for `i64` (`num / den` rounded toward +inf), `den > 0`.
pub(crate) fn div_ceil(num: i64, den: i64) -> i64 {
    debug_assert!(den > 0);
    num.div_euclid(den) + i64::from(num.rem_euclid(den) != 0)
}

/// Floor division for `i64` (`num / den` rounded toward -inf), `den > 0`.
pub(crate) fn div_floor(num: i64, den: i64) -> i64 {
    debug_assert!(den > 0);
    num.div_euclid(den)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(7, 13), 1);
    }

    #[test]
    fn lcm_basics() {
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(0, 3), 0);
        assert_eq!(lcm(-4, 6), 12);
    }

    #[test]
    fn egcd_identity() {
        for (a, b) in [(12, 18), (-5, 3), (7, 0), (0, 9), (240, 46)] {
            let (g, x, y) = egcd(a, b);
            assert_eq!(a * x + b * y, g, "egcd({a},{b})");
            assert_eq!(g, gcd(a, b));
        }
    }

    #[test]
    fn division_rounding() {
        assert_eq!(div_ceil(7, 2), 4);
        assert_eq!(div_ceil(-7, 2), -3);
        assert_eq!(div_ceil(6, 3), 2);
        assert_eq!(div_floor(7, 2), 3);
        assert_eq!(div_floor(-7, 2), -4);
    }
}
