//! # regemu-bounds — closed-form space-complexity bounds
//!
//! The bounds of Chockler & Spiegelman, *Space Complexity of Fault-Tolerant
//! Register Emulations* (PODC 2017), as executable formulas. The central
//! quantities (Table 1) are, for an `f`-tolerant emulation of a `k`-writer
//! register from base objects hosted on `n > 2f` crash-prone servers:
//!
//! | base object | lower bound (WS-Safe, obstruction-free) | upper bound (WS-Regular, wait-free) |
//! |---|---|---|
//! | max-register | `2f + 1` | `2f + 1` |
//! | CAS | `2f + 1` | `2f + 1` |
//! | read/write register | `kf + ⌈kf/(n-(f+1))⌉·(f+1)` | `kf + ⌈k/⌊(n-(f+1))/f⌋⌉·(f+1)` |
//!
//! plus the appendix results: the `n = 2f+1` per-server bound (Theorem 6), the
//! bounded-storage server bound (Theorem 7), the minimum number of servers
//! (Theorem 5) and the `k`-writer max-register bound in ordinary shared memory
//! (Theorem 2).
//!
//! ## Example
//!
//! ```
//! use regemu_bounds::{Params, register_lower_bound, register_upper_bound};
//!
//! let p = Params::new(5, 2, 6)?; // k = 5 writers, f = 2, n = 6 servers
//! assert_eq!(register_lower_bound(p), 10 + 4 * 3); // kf + ⌈kf/(n-f-1)⌉(f+1)
//! assert_eq!(register_upper_bound(p), 10 + 5 * 3); // kf + ⌈k/z⌉(f+1), z = 1
//! # Ok::<(), regemu_bounds::ParamError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;

/// The parameters of an emulation: number of writers `k`, failure threshold
/// `f` and number of servers `n`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Params {
    /// Number of writers of the emulated register.
    pub k: usize,
    /// Failure threshold: maximum number of servers that may crash.
    pub f: usize,
    /// Number of servers `n = |S|`.
    pub n: usize,
}

/// Errors raised when constructing invalid parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamError {
    /// `k` must be at least 1.
    NoWriters,
    /// `f` must be at least 1 (the paper assumes `f > 0`).
    NoFaults,
    /// Emulation is impossible with `n ≤ 2f` servers (Theorem 5).
    TooFewServers {
        /// Number of servers requested.
        n: usize,
        /// Minimum required, `2f + 1`.
        required: usize,
    },
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::NoWriters => write!(f, "the number of writers k must be at least 1"),
            ParamError::NoFaults => write!(f, "the failure threshold f must be at least 1"),
            ParamError::TooFewServers { n, required } => write!(
                f,
                "an f-tolerant emulation needs at least {required} servers, got {n} (Theorem 5)"
            ),
        }
    }
}

impl std::error::Error for ParamError {}

impl Params {
    /// Creates a parameter set, validating `k ≥ 1`, `f ≥ 1` and `n ≥ 2f + 1`.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] describing the violated constraint.
    pub fn new(k: usize, f: usize, n: usize) -> Result<Self, ParamError> {
        if k == 0 {
            return Err(ParamError::NoWriters);
        }
        if f == 0 {
            return Err(ParamError::NoFaults);
        }
        // `2f + 1` overflows for `f` near `usize::MAX`, which no `n` reaches.
        let required = f.checked_mul(2).and_then(|two_f| two_f.checked_add(1));
        if !required.is_some_and(|required| n >= required) {
            return Err(ParamError::TooFewServers {
                n,
                required: required.unwrap_or(usize::MAX),
            });
        }
        Ok(Params { k, f, n })
    }

    /// The writer capacity `z = ⌊(n - (f+1)) / f⌋` of a single register set in
    /// the upper-bound construction (Section 3.3).
    pub fn z(&self) -> usize {
        (self.n - (self.f + 1)) / self.f
    }

    /// The size `y = z·f + f + 1` of a full register set in the upper-bound
    /// construction.
    pub fn y(&self) -> usize {
        self.z() * self.f + self.f + 1
    }

    /// Number of register sets `m = ⌈k / z⌉` used by the upper-bound
    /// construction.
    pub(crate) fn register_set_count(&self) -> usize {
        self.k.div_ceil(self.z())
    }

    /// Returns `true` when the paper's lower and upper bounds coincide for
    /// these parameters: at `n = 2f + 1` and whenever `n ≥ kf + f + 1`.
    pub fn bounds_coincide(&self) -> bool {
        register_lower_bound(*self) == register_upper_bound(*self)
    }
}

impl fmt::Display for Params {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k={}, f={}, n={}", self.k, self.f, self.n)
    }
}

/// Parses a `k/f/n` point such as `2/1/4` into its raw `(k, f, n)` triple,
/// ignoring whitespace around each number.
///
/// The point is not validated: callers apply [`Params::new`] or
/// [`checked_register_bounds`] and report infeasibility their own way.
///
/// ```
/// assert_eq!(regemu_bounds::parse_point(" 4/1 / 3"), Ok((4, 1, 3)));
/// assert!(regemu_bounds::parse_point("2/1").is_err());
/// ```
///
/// # Errors
///
/// Returns a message naming `text` unless it is three `/`-separated
/// non-negative integers.
pub fn parse_point(text: &str) -> Result<(usize, usize, usize), String> {
    let nums: Option<Vec<usize>> = text.split('/').map(|s| s.trim().parse().ok()).collect();
    match nums.as_deref() {
        Some(&[k, f, n]) => Ok((k, f, n)),
        _ => Err(format!("{text:?} is not a k/f/n point (e.g. 2/1/4)")),
    }
}

/// Minimum number of servers for any `f`-tolerant WS-Safe obstruction-free
/// emulation (Theorem 5): `2f + 1`.
pub fn min_servers(f: usize) -> usize {
    2 * f + 1
}

/// Lower **and** upper bound on the number of base objects when the servers
/// expose max-registers (Table 1, row 1): `2f + 1`, independent of `k` and `n`.
pub fn max_register_bound(f: usize) -> usize {
    2 * f + 1
}

/// Lower **and** upper bound on the number of base objects when the servers
/// expose CAS objects (Table 1, row 2): `2f + 1`, independent of `k` and `n`.
pub fn cas_bound(f: usize) -> usize {
    2 * f + 1
}

/// Theorem 1 — lower bound on the number of read/write base registers used by
/// any `f`-tolerant obstruction-free WS-Safe `k`-register emulation over `n`
/// servers: `kf + ⌈kf / (n - (f+1))⌉ · (f+1)`.
pub fn register_lower_bound(p: Params) -> usize {
    let Params { k, f, n } = p;
    k * f + (k * f).div_ceil(n - (f + 1)) * (f + 1)
}

/// Theorem 3 — number of read/write base registers used by the paper's
/// wait-free WS-Regular construction (Algorithm 2):
/// `kf + ⌈k / z⌉ · (f+1)` with `z = ⌊(n - (f+1)) / f⌋`.
pub fn register_upper_bound(p: Params) -> usize {
    let Params { k, f, .. } = p;
    k * f + p.register_set_count() * (f + 1)
}

/// The simplest corollary of Theorem 1: at least `kf + f + 1` registers are
/// needed regardless of how many servers are available.
pub fn register_lower_bound_any_n(k: usize, f: usize) -> usize {
    k * f + f + 1
}

/// Theorem 2 — any wait-free implementation of a `k`-writer max-register from
/// MWMR atomic read/write registers (ordinary shared memory, no failures)
/// uses at least `k` base registers.
pub fn max_register_from_registers_lower_bound(k: usize) -> usize {
    k
}

/// Theorem 6 — with exactly `n = 2f + 1` servers, every server must store at
/// least `k` registers.
pub fn per_server_lower_bound_minimal_n(k: usize) -> usize {
    k
}

/// Theorem 7 — when every server stores at most `m` registers, any
/// `f`-tolerant obstruction-free WS-Safe `k`-register emulation uses at least
/// `⌈kf / m⌉ + f + 1` servers.
pub fn servers_needed_with_bounded_storage(k: usize, f: usize, m: usize) -> usize {
    assert!(m > 0, "per-server storage bound m must be positive");
    (k * f).div_ceil(m) + f + 1
}

/// The matching upper bound discussed for the special case `n = 2f + 1`: each
/// server implements a `k`-writer max-register from `k` base registers, for a
/// total of `(2f + 1)·k` registers.
pub fn special_case_minimal_n_upper_bound(k: usize, f: usize) -> usize {
    (2 * f + 1) * k
}

/// The smallest `n` at which the bounds flatten out: for `n ≥ kf + f + 1`
/// both the lower and the upper bound equal `kf + f + 1` and adding servers
/// no longer helps.
pub fn saturation_server_count(k: usize, f: usize) -> usize {
    k * f + f + 1
}

// ----- bounds as executable oracles ----------------------------------------

/// Errors raised by the checked bound formulas ([`checked_register_bounds`])
/// on raw `(k, f, n)` triples that fall outside the formulas' domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundError {
    /// The parameters violate a basic constraint (`k ≥ 1`, `f ≥ 1`,
    /// `n ≥ 2f + 1`), before any formula is evaluated.
    InvalidParams(ParamError),
    /// Theorem 3's upper bound is undefined: the register-set writer
    /// capacity `z = ⌊(n - (f+1)) / f⌋` is zero, so no register set can host
    /// even one writer. Equivalent to `n < 2f + 1` — the construction (and,
    /// by Theorem 5, any construction) needs more servers.
    ZeroSetCapacity {
        /// Number of writers requested.
        k: usize,
        /// Failure threshold requested.
        f: usize,
        /// Number of servers requested.
        n: usize,
    },
}

impl fmt::Display for BoundError {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundError::InvalidParams(e) => write!(out, "invalid parameters: {e}"),
            BoundError::ZeroSetCapacity { k, f, n } => write!(
                out,
                "upper bound undefined at k={k}, f={f}, n={n}: register-set capacity \
                 z = ⌊(n-f-1)/f⌋ is 0 (need n ≥ 2f+1)"
            ),
        }
    }
}

impl std::error::Error for BoundError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BoundError::InvalidParams(e) => Some(e),
            BoundError::ZeroSetCapacity { .. } => None,
        }
    }
}

impl From<ParamError> for BoundError {
    fn from(e: ParamError) -> Self {
        BoundError::InvalidParams(e)
    }
}

/// Checked form of the Table-1 register row on a *raw* `(k, f, n)` triple:
/// returns `(register_lower_bound, register_upper_bound)` or a typed
/// [`BoundError`] when the formulas are undefined, distinguishing the
/// `z = 0` degeneracy (too few servers for even one register set) from the
/// basic parameter constraints.
pub fn checked_register_bounds(k: usize, f: usize, n: usize) -> Result<(usize, usize), BoundError> {
    if k == 0 {
        return Err(ParamError::NoWriters.into());
    }
    if f == 0 {
        return Err(ParamError::NoFaults.into());
    }
    // z = 0 ⇔ n - (f+1) < f ⇔ n < 2f + 1: report it as the formula-level
    // degeneracy it is (the ⌈k/z⌉ term of Theorem 3 divides by zero).
    if n < f + 1 || (n - (f + 1)) / f == 0 {
        return Err(BoundError::ZeroSetCapacity { k, f, n });
    }
    let p = Params::new(k, f, n)?;
    Ok((register_lower_bound(p), register_upper_bound(p)))
}

/// The base-object row of Table 1 (or the construction-specific budget) a
/// measurement is judged against by [`BoundVerdict::judge`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BoundClass {
    /// Max-register base objects: lower = upper = `2f + 1` (Table 1 row 1).
    MaxRegister,
    /// CAS base objects: lower = upper = `2f + 1` (Table 1 row 2).
    Cas,
    /// Read/write registers, space-optimal construction (Algorithm 2):
    /// lower bound from Theorem 1, upper bound from Theorem 3.
    Register,
    /// Read/write registers, full-replication bank (`k` registers on each
    /// of the `n` servers — the special-case construction generalized past
    /// `n = 2f + 1`): Theorem 1 still lower-bounds it, its budget is `n·k`.
    RegisterBank,
}

impl BoundClass {
    /// Stable short name used in frontier tables and CSV columns.
    pub fn name(self) -> &'static str {
        match self {
            BoundClass::MaxRegister => "max-register",
            BoundClass::Cas => "cas",
            BoundClass::Register => "register",
            BoundClass::RegisterBank => "register-bank",
        }
    }

    /// The paper's lower bound on base objects for this class at `p`.
    pub(crate) fn lower_bound(self, p: Params) -> usize {
        match self {
            BoundClass::MaxRegister => max_register_bound(p.f),
            BoundClass::Cas => cas_bound(p.f),
            BoundClass::Register | BoundClass::RegisterBank => register_lower_bound(p),
        }
    }

    /// The upper bound (construction budget) for this class at `p`.
    pub(crate) fn upper_bound(self, p: Params) -> usize {
        match self {
            BoundClass::MaxRegister => max_register_bound(p.f),
            BoundClass::Cas => cas_bound(p.f),
            BoundClass::Register => register_upper_bound(p),
            BoundClass::RegisterBank => p.n * p.k,
        }
    }
}

impl fmt::Display for BoundClass {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        out.write_str(self.name())
    }
}

/// A measured space consumption judged against the paper's bounds — the
/// executable-oracle form of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoundVerdict {
    /// The bound row the measurement was judged against.
    pub class: BoundClass,
    /// The parameter point.
    pub params: Params,
    /// The class's lower bound at these parameters.
    pub lower: usize,
    /// The class's upper bound (construction budget) at these parameters.
    pub upper: usize,
    /// The measured peak base-object usage.
    pub measured: usize,
}

impl BoundVerdict {
    /// Judges `measured` against the `class` bounds at `params`.
    pub fn judge(class: BoundClass, params: Params, measured: usize) -> Self {
        BoundVerdict {
            class,
            params,
            lower: class.lower_bound(params),
            upper: class.upper_bound(params),
            measured,
        }
    }

    /// `true` when the measurement respects the upper bound — what every
    /// clean construction must satisfy on every schedule.
    pub fn within_upper(&self) -> bool {
        self.measured <= self.upper
    }

    /// Unused headroom below the upper bound (`0` when at or over it).
    pub fn slack(&self) -> usize {
        self.upper.saturating_sub(self.measured)
    }

    /// Stable one-word verdict for report columns: `ok` within the upper
    /// bound, `exceeds` otherwise.
    pub fn label(&self) -> &'static str {
        if self.within_upper() {
            "ok"
        } else {
            "exceeds"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parameter_validation() {
        assert_eq!(Params::new(0, 1, 3), Err(ParamError::NoWriters));
        assert_eq!(Params::new(1, 0, 3), Err(ParamError::NoFaults));
        assert_eq!(
            Params::new(1, 1, 2),
            Err(ParamError::TooFewServers { n: 2, required: 3 })
        );
        // 2f + 1 overflows here; no server count is large enough.
        assert!(Params::new(1, usize::MAX / 2 + 1, usize::MAX).is_err());
        let p = Params::new(3, 1, 4).unwrap();
        assert_eq!(p.to_string(), "k=3, f=1, n=4");
    }

    #[test]
    fn paper_figure1_parameters() {
        // Figure 1: n = 6, k = 5, f = 2 → z = ⌊3/2⌋ = 1, y = 5, m = 5 sets.
        let p = Params::new(5, 2, 6).unwrap();
        assert_eq!(p.z(), 1);
        assert_eq!(p.y(), 5);
        assert_eq!(p.register_set_count(), 5);
        assert_eq!(register_lower_bound(p), 5 * 2 + 4 * 3); // 22
        assert_eq!(register_upper_bound(p), 5 * 2 + 5 * 3); // 25
        assert!(!p.bounds_coincide());
    }

    #[test]
    fn bounds_coincide_at_minimal_n() {
        // n = 2f + 1: both bounds equal kf + k(f+1) = (2f+1)k.
        for f in 1..=4usize {
            for k in 1..=8usize {
                let p = Params::new(k, f, 2 * f + 1).unwrap();
                assert_eq!(register_lower_bound(p), (2 * f + 1) * k);
                assert_eq!(register_upper_bound(p), (2 * f + 1) * k);
                assert_eq!(
                    register_upper_bound(p),
                    special_case_minimal_n_upper_bound(k, f)
                );
                assert!(p.bounds_coincide());
            }
        }
    }

    #[test]
    fn bounds_coincide_at_saturation() {
        // n ≥ kf + f + 1: both bounds equal kf + f + 1.
        for f in 1..=3usize {
            for k in 1..=6usize {
                let n = saturation_server_count(k, f);
                let p = Params::new(k, f, n).unwrap();
                assert_eq!(register_lower_bound(p), k * f + f + 1);
                assert_eq!(register_upper_bound(p), k * f + f + 1);
                assert_eq!(register_lower_bound(p), register_lower_bound_any_n(k, f));
                // Adding even more servers does not reduce the bound further.
                let p_big = Params::new(k, f, n + 10).unwrap();
                assert_eq!(register_lower_bound(p_big), k * f + f + 1);
                assert_eq!(register_upper_bound(p_big), k * f + f + 1);
            }
        }
    }

    #[test]
    fn max_register_and_cas_bounds_ignore_k_and_n() {
        assert_eq!(max_register_bound(1), 3);
        assert_eq!(max_register_bound(3), 7);
        assert_eq!(cas_bound(2), 5);
        assert_eq!(min_servers(2), 5);
    }

    #[test]
    fn theorem_7_examples() {
        // m = 1 register per server: kf + f + 1 servers needed.
        assert_eq!(servers_needed_with_bounded_storage(4, 2, 1), 8 + 3);
        // m large enough: f + 2 servers suffice per the formula's floor.
        assert_eq!(servers_needed_with_bounded_storage(4, 2, 100), 1 + 3);
        assert_eq!(servers_needed_with_bounded_storage(3, 1, 2), 2 + 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn theorem_7_rejects_zero_storage() {
        servers_needed_with_bounded_storage(1, 1, 0);
    }

    #[test]
    fn theorem_2_and_6_are_k() {
        assert_eq!(max_register_from_registers_lower_bound(7), 7);
        assert_eq!(per_server_lower_bound_minimal_n(4), 4);
    }

    #[test]
    fn upper_bound_matches_register_set_accounting() {
        // The construction uses ⌊k/z⌋ full sets of y registers plus an
        // overflow set; the total must equal the closed form.
        for f in 1..=3usize {
            for k in 1..=10usize {
                for n in (2 * f + 1)..=(4 * f + 3) {
                    let p = Params::new(k, f, n).unwrap();
                    let z = p.z();
                    let full_sets = k / z;
                    let rem = k % z;
                    let mut total = full_sets * p.y();
                    if rem > 0 {
                        total += rem * f + f + 1;
                    }
                    assert_eq!(
                        total,
                        register_upper_bound(p),
                        "set accounting mismatch at {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn checked_bounds_reject_degenerate_points_with_typed_errors() {
        // z = 0: every n < 2f + 1 (including the n ≤ f + 1 underflow region)
        // is the formula-level degeneracy, not a generic parameter error.
        for (k, f, n) in [(1, 1, 2), (3, 2, 4), (5, 3, 6), (2, 2, 0), (2, 3, 3)] {
            assert_eq!(
                checked_register_bounds(k, f, n),
                Err(BoundError::ZeroSetCapacity { k, f, n }),
                "(k={k}, f={f}, n={n})"
            );
        }
        // k = 0 / f = 0 stay basic parameter errors.
        assert_eq!(
            checked_register_bounds(0, 1, 3),
            Err(BoundError::InvalidParams(ParamError::NoWriters))
        );
        assert_eq!(
            checked_register_bounds(1, 0, 3),
            Err(BoundError::InvalidParams(ParamError::NoFaults))
        );
        // Error text names the degeneracy and the remedy.
        let e = checked_register_bounds(1, 1, 2).unwrap_err();
        assert!(e.to_string().contains("z = ⌊(n-f-1)/f⌋ is 0"), "{e}");
        assert!(
            std::error::Error::source(&BoundError::InvalidParams(ParamError::NoWriters)).is_some()
        );
    }

    #[test]
    fn checked_bounds_match_the_unchecked_formulas_on_valid_points() {
        for f in 1..=3usize {
            for k in 1..=8usize {
                for n in (2 * f + 1)..=(2 * f + 5) {
                    let p = Params::new(k, f, n).unwrap();
                    assert_eq!(
                        checked_register_bounds(k, f, n),
                        Ok((register_lower_bound(p), register_upper_bound(p)))
                    );
                }
            }
        }
    }

    #[test]
    fn theorem6_row_at_minimal_n() {
        // n = 2f + 1: per-server occupancy must reach k (Theorem 6), and the
        // register bounds collapse onto the (2f+1)·k bank — k per server.
        for f in 1..=3usize {
            for k in 1..=6usize {
                let p = Params::new(k, f, 2 * f + 1).unwrap();
                assert_eq!(per_server_lower_bound_minimal_n(k), k);
                assert_eq!(register_upper_bound(p), (2 * f + 1) * k);
                assert_eq!(
                    BoundClass::RegisterBank.upper_bound(p),
                    special_case_minimal_n_upper_bound(k, f)
                );
                assert_eq!(register_upper_bound(p) / p.n, k);
            }
        }
    }

    #[test]
    fn k1_bounds_collapse_to_the_single_writer_point() {
        // k = 1: one register set of f + (f+1) registers; lower = upper.
        for f in 1..=4usize {
            for n in (2 * f + 1)..=(3 * f + 2) {
                let p = Params::new(1, f, n).unwrap();
                assert_eq!(register_upper_bound(p), 2 * f + 1);
                assert_eq!(register_lower_bound(p), 2 * f + 1);
                assert!(p.bounds_coincide());
            }
        }
    }

    #[test]
    fn bound_verdict_judges_each_class_row() {
        let p = Params::new(5, 2, 6).unwrap(); // Figure 1: lower 22, upper 25
        let v = BoundVerdict::judge(BoundClass::Register, p, 23);
        assert_eq!((v.lower, v.upper), (22, 25));
        assert!(v.within_upper());
        assert_eq!(v.slack(), 2);
        assert_eq!(v.label(), "ok");

        let over = BoundVerdict::judge(BoundClass::MaxRegister, p, 9);
        assert_eq!((over.lower, over.upper), (5, 5));
        assert!(!over.within_upper());
        assert_eq!(over.slack(), 0);
        assert_eq!(over.label(), "exceeds");

        let bank = BoundVerdict::judge(BoundClass::RegisterBank, p, 30);
        assert_eq!(bank.upper, 30);
        assert_eq!(bank.lower, 22);
        assert!(bank.within_upper());

        let cas = BoundVerdict::judge(BoundClass::Cas, p, 5);
        assert_eq!(cas.label(), "ok");
        assert_eq!(BoundClass::Cas.name(), "cas");
        assert_eq!(BoundClass::Register.to_string(), "register");
    }

    proptest! {
        #[test]
        fn lower_bound_never_exceeds_upper_bound(
            k in 1usize..40, f in 1usize..6, extra in 0usize..60
        ) {
            let n = 2 * f + 1 + extra;
            let p = Params::new(k, f, n).unwrap();
            prop_assert!(register_lower_bound(p) <= register_upper_bound(p));
        }

        #[test]
        fn bounds_are_monotone_in_k(
            k in 1usize..40, f in 1usize..6, extra in 0usize..60
        ) {
            let n = 2 * f + 1 + extra;
            let p1 = Params::new(k, f, n).unwrap();
            let p2 = Params::new(k + 1, f, n).unwrap();
            prop_assert!(register_lower_bound(p1) <= register_lower_bound(p2));
            prop_assert!(register_upper_bound(p1) <= register_upper_bound(p2));
        }

        #[test]
        fn bounds_are_monotone_nonincreasing_in_n(
            k in 1usize..40, f in 1usize..6, extra in 0usize..60
        ) {
            let n = 2 * f + 1 + extra;
            let p1 = Params::new(k, f, n).unwrap();
            let p2 = Params::new(k, f, n + 1).unwrap();
            prop_assert!(register_lower_bound(p2) <= register_lower_bound(p1));
            prop_assert!(register_upper_bound(p2) <= register_upper_bound(p1));
        }

        #[test]
        fn lower_bound_dominates_its_n_independent_corollary(
            k in 1usize..40, f in 1usize..6, extra in 0usize..60
        ) {
            let n = 2 * f + 1 + extra;
            let p = Params::new(k, f, n).unwrap();
            prop_assert!(register_lower_bound(p) >= register_lower_bound_any_n(k, f));
            prop_assert!(register_lower_bound(p) >= k * f);
        }

        #[test]
        fn register_bounds_always_exceed_rmw_bounds(
            k in 1usize..40, f in 1usize..6, extra in 0usize..60
        ) {
            // The separation of Table 1: registers always need at least as
            // many objects as max-registers/CAS, and strictly more once k > 1.
            let n = 2 * f + 1 + extra;
            let p = Params::new(k, f, n).unwrap();
            prop_assert!(register_lower_bound(p) >= max_register_bound(f));
            if k > 1 {
                prop_assert!(register_lower_bound(p) > cas_bound(f));
            }
        }

        #[test]
        fn upper_bound_gap_is_at_most_one_set(
            k in 1usize..40, f in 1usize..6, extra in 0usize..60
        ) {
            // The gap between the bounds is below (f+1) per "started" set,
            // i.e. bounded by ⌈k/z⌉(f+1) - ⌈kf/(n-f-1)⌉(f+1) which is small;
            // sanity-check it never exceeds k(f+1).
            let n = 2 * f + 1 + extra;
            let p = Params::new(k, f, n).unwrap();
            prop_assert!(register_upper_bound(p) - register_lower_bound(p) <= k * (f + 1));
        }

        #[test]
        fn z_and_y_satisfy_their_defining_inequalities(
            k in 1usize..40, f in 1usize..6, extra in 0usize..60
        ) {
            let n = 2 * f + 1 + extra;
            let p = Params::new(k, f, n).unwrap();
            // z ≥ 1 whenever n ≥ 2f + 1, and a full set fits on the servers.
            prop_assert!(p.z() >= 1);
            prop_assert!(p.y() >= 2 * f + 1);
            prop_assert!(p.y() <= n);
        }
    }
}
