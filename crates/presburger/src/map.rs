//! Integer relations ([`BasicMap`], [`Map`]) — the ISL `isl_map` analogue.

use crate::basic::BasicSet;
use crate::expr::{Constraint, LinearExpr};
use crate::set::Set;
use crate::Result;

/// A conjunction of affine constraints relating an input tuple to an output
/// tuple: `{ x → y | constraints(x, y) }`.
///
/// Internally the relation is stored as a [`BasicSet`] over the wrapped
/// space `[x₀ … xₙ₋₁, y₀ … yₘ₋₁]`.
#[derive(Clone, PartialEq, Eq)]
pub struct BasicMap {
    n_in: usize,
    n_out: usize,
    wrapped: BasicSet,
}

impl BasicMap {
    /// Builds a relation from constraints over the wrapped space
    /// (inputs first, then outputs).
    pub fn new(n_in: usize, n_out: usize, constraints: Vec<Constraint>) -> Self {
        BasicMap {
            n_in,
            n_out,
            wrapped: BasicSet::new(n_in + n_out, constraints),
        }
    }

    /// Wraps an existing basic set whose first `n_in` variables are inputs.
    pub fn from_wrapped(n_in: usize, n_out: usize, wrapped: BasicSet) -> Self {
        assert_eq!(wrapped.dim(), n_in + n_out, "wrapped dimension mismatch");
        BasicMap {
            n_in,
            n_out,
            wrapped,
        }
    }

    /// The identity relation on `dim` variables.
    pub fn identity(dim: usize) -> Self {
        let n = 2 * dim;
        let cs = (0..dim)
            .map(|i| Constraint::eq2(LinearExpr::var(n, dim + i), &LinearExpr::var(n, i)))
            .collect();
        BasicMap::new(dim, dim, cs)
    }

    /// The translation `{ x → x + delta }`.
    pub fn translation(delta: &[i64]) -> Self {
        let dim = delta.len();
        let n = 2 * dim;
        let cs = (0..dim)
            .map(|i| {
                Constraint::eq2(
                    LinearExpr::var(n, dim + i),
                    &LinearExpr::var(n, i).plus_const(delta[i]),
                )
            })
            .collect();
        BasicMap::new(dim, dim, cs)
    }

    /// The affine relation `{ x → A·x + b }` given one output expression per
    /// output dimension (each over the `n_in` input variables only).
    pub fn from_affine(n_in: usize, outputs: &[LinearExpr]) -> Self {
        let n_out = outputs.len();
        let n = n_in + n_out;
        let cs = outputs
            .iter()
            .enumerate()
            .map(|(i, e)| {
                assert_eq!(e.n_vars(), n_in, "output expression arity");
                let mut lifted = LinearExpr::zero(n);
                for v in 0..n_in {
                    lifted = lifted.with_coeff(v, e.coeff(v));
                }
                let lifted = lifted.plus_const(e.constant_term());
                Constraint::eq2(LinearExpr::var(n, n_in + i), &lifted)
            })
            .collect();
        BasicMap::new(n_in, n_out, cs)
    }

    /// Input arity.
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// Output arity.
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// The relation as a set over the wrapped space.
    pub fn wrapped(&self) -> &BasicSet {
        &self.wrapped
    }

    /// Whether the pair `(x, y)` belongs to the relation.
    pub fn contains(&self, x: &[i64], y: &[i64]) -> bool {
        assert_eq!(x.len(), self.n_in);
        assert_eq!(y.len(), self.n_out);
        let mut p = Vec::with_capacity(self.n_in + self.n_out);
        p.extend_from_slice(x);
        p.extend_from_slice(y);
        self.wrapped.contains(&p)
    }

    /// Exact emptiness test.
    pub fn is_empty(&self) -> bool {
        self.wrapped.is_empty()
    }

    /// Intersection of two relations with identical arity.
    pub fn intersect(&self, other: &BasicMap) -> BasicMap {
        assert_eq!((self.n_in, self.n_out), (other.n_in, other.n_out));
        BasicMap {
            n_in: self.n_in,
            n_out: self.n_out,
            wrapped: self.wrapped.intersect(&other.wrapped),
        }
    }

    /// The inverse relation `{ y → x | x → y }`.
    pub fn inverse(&self) -> BasicMap {
        let n = self.n_in + self.n_out;
        // New order: outputs first.
        let perm: Vec<usize> = (self.n_in..n).chain(0..self.n_in).collect();
        BasicMap {
            n_in: self.n_out,
            n_out: self.n_in,
            wrapped: self.wrapped.permute(&perm),
        }
    }

    /// Restricts the inputs to `domain`.
    pub fn restrict_domain(&self, domain: &BasicSet) -> BasicMap {
        assert_eq!(domain.dim(), self.n_in);
        let lifted = domain.insert_vars(self.n_in, self.n_out);
        BasicMap {
            n_in: self.n_in,
            n_out: self.n_out,
            wrapped: self.wrapped.intersect(&lifted),
        }
    }

    /// Restricts the outputs to `range`.
    pub fn restrict_range(&self, range: &BasicSet) -> BasicMap {
        assert_eq!(range.dim(), self.n_out);
        let lifted = range.insert_vars(0, self.n_in);
        BasicMap {
            n_in: self.n_in,
            n_out: self.n_out,
            wrapped: self.wrapped.intersect(&lifted),
        }
    }
}

impl std::fmt::Debug for BasicMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{{ [{}] -> [{}] : {:?} }}",
            self.n_in, self.n_out, self.wrapped
        )
    }
}

/// A finite union of [`BasicMap`]s with a common arity.
#[derive(Clone, PartialEq, Eq)]
pub struct Map {
    n_in: usize,
    n_out: usize,
    parts: Vec<BasicMap>,
}

impl From<BasicMap> for Map {
    fn from(bm: BasicMap) -> Self {
        let (n_in, n_out) = (bm.n_in, bm.n_out);
        let parts = if bm.wrapped.is_obviously_empty() {
            Vec::new()
        } else {
            vec![bm]
        };
        Map { n_in, n_out, parts }
    }
}

impl Map {
    /// The empty relation of the given arity.
    pub fn empty(n_in: usize, n_out: usize) -> Self {
        Map {
            n_in,
            n_out,
            parts: Vec::new(),
        }
    }

    /// The identity relation on `dim` variables.
    pub fn identity(dim: usize) -> Self {
        BasicMap::identity(dim).into()
    }

    /// Builds a union of basic maps (all arities must agree).
    pub fn from_parts(n_in: usize, n_out: usize, parts: Vec<BasicMap>) -> Self {
        for p in &parts {
            assert_eq!((p.n_in, p.n_out), (n_in, n_out), "part arity mismatch");
        }
        let parts = parts
            .into_iter()
            .filter(|p| !p.wrapped.is_obviously_empty())
            .collect();
        Map { n_in, n_out, parts }
    }

    /// A relation containing exactly the given pairs.
    pub fn from_pairs<'a, I>(n_in: usize, n_out: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (&'a [i64], &'a [i64])>,
    {
        let parts = pairs
            .into_iter()
            .map(|(x, y)| {
                let mut p = Vec::with_capacity(n_in + n_out);
                p.extend_from_slice(x);
                p.extend_from_slice(y);
                BasicMap::from_wrapped(n_in, n_out, BasicSet::point(&p))
            })
            .collect();
        Map::from_parts(n_in, n_out, parts)
    }

    /// Input arity.
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// Output arity.
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// The disjuncts.
    pub fn parts(&self) -> &[BasicMap] {
        &self.parts
    }

    /// Membership test for a pair.
    pub fn contains(&self, x: &[i64], y: &[i64]) -> bool {
        self.parts.iter().any(|p| p.contains(x, y))
    }

    /// Exact emptiness test.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(|p| p.is_empty())
    }

    /// Union of two relations.
    pub fn union(&self, other: &Map) -> Map {
        assert_eq!((self.n_in, self.n_out), (other.n_in, other.n_out));
        let mut parts = self.parts.clone();
        for p in &other.parts {
            if !parts.contains(p) {
                parts.push(p.clone());
            }
        }
        Map {
            n_in: self.n_in,
            n_out: self.n_out,
            parts,
        }
    }

    /// The relation as a set over the wrapped space `[in, out]`.
    pub fn wrap(&self) -> Set {
        Set::from_parts(
            self.n_in + self.n_out,
            self.parts.iter().map(|p| p.wrapped.clone()).collect(),
        )
    }

    /// Rebuilds a map from a wrapped-space set.
    pub fn unwrap_set(set: &Set, n_in: usize, n_out: usize) -> Map {
        Map::from_parts(
            n_in,
            n_out,
            set.parts()
                .iter()
                .map(|p| BasicMap::from_wrapped(n_in, n_out, p.clone()))
                .collect(),
        )
    }

    /// Exact difference.
    pub fn subtract(&self, other: &Map) -> Map {
        Map::unwrap_set(&self.wrap().subtract(&other.wrap()), self.n_in, self.n_out)
    }

    /// Exact subset test.
    pub fn is_subset(&self, other: &Map) -> bool {
        self.subtract(other).is_empty()
    }

    /// Exact equality test.
    pub fn is_equal(&self, other: &Map) -> bool {
        self.is_subset(other) && other.is_subset(self)
    }

    /// Intersection.
    pub fn intersect(&self, other: &Map) -> Map {
        Map::unwrap_set(&self.wrap().intersect(&other.wrap()), self.n_in, self.n_out)
    }

    /// The inverse relation.
    pub fn inverse(&self) -> Map {
        Map::from_parts(
            self.n_out,
            self.n_in,
            self.parts.iter().map(BasicMap::inverse).collect(),
        )
    }

    /// Relational composition `{ x → z | ∃y. x→y ∈ self ∧ y→z ∈ other }`
    /// ("self then other", ISL's `apply_range`).
    ///
    /// # Errors
    ///
    /// Propagates [`crate::Error::UnsupportedCongruence`] from the exact
    /// projection of the mid variables.
    pub fn compose(&self, other: &Map) -> Result<Map> {
        assert_eq!(
            self.n_out, other.n_in,
            "arity mismatch in composition: {} vs {}",
            self.n_out, other.n_in
        );
        let mid = self.n_out;
        let n_in = self.n_in;
        let n_out = other.n_out;
        let total = n_in + mid + n_out;
        let mut parts: Vec<BasicMap> = Vec::new();
        for a in &self.parts {
            for b in &other.parts {
                // Embed a over [x, y, _] and b over [_, y, z].
                let ea = a.wrapped.insert_vars(n_in + mid, n_out);
                let eb = b.wrapped.insert_vars(0, n_in);
                let joined = ea.intersect(&eb);
                if joined.is_obviously_empty() {
                    continue;
                }
                // Eliminate the mid variables (back to front).
                let mut pieces = vec![joined];
                for v in (n_in..n_in + mid).rev() {
                    let mut next = Vec::new();
                    for piece in &pieces {
                        next.extend(piece.eliminate_var(v)?);
                    }
                    pieces = next;
                }
                let _ = total;
                for piece in pieces {
                    parts.push(BasicMap::from_wrapped(n_in, n_out, piece));
                }
            }
        }
        Ok(Map::from_parts(n_in, n_out, parts))
    }

    /// The image of `set` under the relation.
    ///
    /// # Errors
    ///
    /// Propagates projection errors (see [`Map::compose`]).
    pub fn apply(&self, set: &Set) -> Result<Set> {
        assert_eq!(set.dim(), self.n_in);
        let mut parts: Vec<BasicSet> = Vec::new();
        for s in set.parts() {
            for p in &self.parts {
                let restricted = p.restrict_domain(s);
                if restricted.wrapped.is_obviously_empty() {
                    continue;
                }
                let mut pieces = vec![restricted.wrapped];
                for v in (0..self.n_in).rev() {
                    let mut next = Vec::new();
                    for piece in &pieces {
                        next.extend(piece.eliminate_var(v)?);
                    }
                    pieces = next;
                }
                parts.extend(pieces);
            }
        }
        Ok(Set::from_parts(self.n_out, parts))
    }

    /// The domain of the relation.
    ///
    /// # Errors
    ///
    /// Propagates projection errors (see [`Map::compose`]).
    pub fn domain(&self) -> Result<Set> {
        self.inverse().range_impl()
    }

    /// The range of the relation.
    ///
    /// # Errors
    ///
    /// Propagates projection errors (see [`Map::compose`]).
    pub fn range(&self) -> Result<Set> {
        self.range_impl()
    }

    fn range_impl(&self) -> Result<Set> {
        let mut parts: Vec<BasicSet> = Vec::new();
        for p in &self.parts {
            let mut pieces = vec![p.wrapped.clone()];
            for v in (0..self.n_in).rev() {
                let mut next = Vec::new();
                for piece in &pieces {
                    next.extend(piece.eliminate_var(v)?);
                }
                pieces = next;
            }
            parts.extend(pieces);
        }
        Ok(Set::from_parts(self.n_out, parts))
    }

    /// The difference set `{ y − x | x → y }` (arities must match).
    ///
    /// # Errors
    ///
    /// Propagates projection errors (see [`Map::compose`]).
    pub fn deltas(&self) -> Result<Set> {
        assert_eq!(self.n_in, self.n_out, "deltas needs equal arities");
        let d = self.n_in;
        let mut parts: Vec<BasicSet> = Vec::new();
        for p in &self.parts {
            // Space [x, y] -> extend to [x, y, d] with d = y - x, then
            // eliminate x and y.
            let mut bs = p.wrapped.insert_vars(2 * d, d);
            for i in 0..d {
                let n = 3 * d;
                bs = bs.add_constraint(Constraint::eq2(
                    LinearExpr::var(n, 2 * d + i),
                    &LinearExpr::var(n, d + i).sub(&LinearExpr::var(n, i)),
                ));
            }
            let mut pieces = vec![bs];
            for v in (0..2 * d).rev() {
                let mut next = Vec::new();
                for piece in &pieces {
                    next.extend(piece.eliminate_var(v)?);
                }
                pieces = next;
            }
            parts.extend(pieces);
        }
        Ok(Set::from_parts(d, parts))
    }

    /// The `k`-th relational power (`k >= 1`).
    ///
    /// # Errors
    ///
    /// Propagates projection errors (see [`Map::compose`]).
    pub fn fixed_power(&self, k: u32) -> Result<Map> {
        assert!(k >= 1, "power must be >= 1");
        assert_eq!(self.n_in, self.n_out, "power needs equal arities");
        let mut acc = self.clone();
        for _ in 1..k {
            acc = acc.compose(self)?;
        }
        Ok(acc)
    }

    /// Restricts inputs to `domain`.
    pub fn restrict_domain(&self, domain: &Set) -> Map {
        let mut parts = Vec::new();
        for p in &self.parts {
            for d in domain.parts() {
                let r = p.restrict_domain(d);
                if !r.wrapped.is_obviously_empty() {
                    parts.push(r);
                }
            }
        }
        Map::from_parts(self.n_in, self.n_out, parts)
    }

    /// Restricts outputs to `range`.
    pub fn restrict_range(&self, range: &Set) -> Map {
        let mut parts = Vec::new();
        for p in &self.parts {
            for r in range.parts() {
                let m = p.restrict_range(r);
                if !m.wrapped.is_obviously_empty() {
                    parts.push(m);
                }
            }
        }
        Map::from_parts(self.n_in, self.n_out, parts)
    }

    /// Exact number of pairs in the relation; `None` when infinite.
    pub fn count_pairs(&self) -> Option<u64> {
        self.wrap().count_points_checked()
    }

    /// Transitive closure `R⁺` (see the `closure` module docs).
    ///
    /// The boolean flag reports whether the result is exact; when `false`
    /// the returned relation is a sound over-approximation (`R⁺ ⊆ result`).
    ///
    /// Results are memoized process-wide in a bounded cache keyed by a
    /// canonical encoding of the relation, so repeated closures of
    /// structurally identical relations (a batch run's dependence maps)
    /// compute once and share the result.
    pub fn transitive_closure(&self) -> crate::ClosureResult {
        crate::memo::transitive_closure(crate::memo::global(), self)
    }
}

impl std::fmt::Debug for Map {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.parts.is_empty() {
            return write!(f, "{{ [{}] -> [{}] : false }}", self.n_in, self.n_out);
        }
        for (i, p) in self.parts.iter().enumerate() {
            if i > 0 {
                write!(f, " or ")?;
            }
            write!(f, "{p:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shift(k: i64) -> Map {
        BasicMap::translation(&[k]).into()
    }

    #[test]
    fn identity_contains_diagonal() {
        let id = Map::identity(2);
        assert!(id.contains(&[3, 4], &[3, 4]));
        assert!(!id.contains(&[3, 4], &[4, 3]));
    }

    #[test]
    fn translation_and_compose() {
        let f = shift(2);
        let g = shift(3);
        let fg = f.compose(&g).unwrap();
        assert!(fg.contains(&[0], &[5]));
        assert!(!fg.contains(&[0], &[4]));
    }

    #[test]
    fn compose_with_affine_scaling() {
        // f: i -> 2i + 1, g: j -> j - 1; g∘f : i -> 2i
        let f: Map = BasicMap::from_affine(1, &[LinearExpr::new(vec![2], 1)]).into();
        let g = shift(-1);
        let gf = f.compose(&g).unwrap();
        for i in -4..4 {
            assert!(gf.contains(&[i], &[2 * i]));
            assert!(!gf.contains(&[i], &[2 * i + 1]));
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let f: Map = BasicMap::from_affine(1, &[LinearExpr::new(vec![1], 7)]).into();
        let inv = f.inverse();
        assert!(inv.contains(&[10], &[3]));
        assert!(f.compose(&inv).unwrap().is_equal(&Map::identity(1)));
    }

    #[test]
    fn apply_image() {
        let f = shift(5);
        let s = Set::from(BasicSet::bounding_box(&[0], &[3]));
        let img = f.apply(&s).unwrap();
        for x in -2..12 {
            assert_eq!(img.contains(&[x]), (5..=8).contains(&x));
        }
    }

    #[test]
    fn domain_and_range() {
        let m = Map::from_parts(
            1,
            1,
            vec![BasicMap::translation(&[1]).restrict_domain(&BasicSet::bounding_box(&[0], &[4]))],
        );
        let dom = m.domain().unwrap();
        let ran = m.range().unwrap();
        assert_eq!(dom.count_points(), 5);
        assert!(ran.contains(&[5]) && !ran.contains(&[0]));
    }

    #[test]
    fn deltas_of_translation() {
        let m = shift(3).union(&shift(-1));
        let d = m.deltas().unwrap();
        assert!(d.contains(&[3]) && d.contains(&[-1]));
        assert!(!d.contains(&[0]));
        assert_eq!(d.count_points(), 2);
    }

    #[test]
    fn fixed_power() {
        let f = shift(1);
        let f3 = f.fixed_power(3).unwrap();
        assert!(f3.contains(&[0], &[3]));
        assert!(!f3.contains(&[0], &[2]));
    }

    #[test]
    fn from_pairs_membership_and_count() {
        let pairs: Vec<(&[i64], &[i64])> = vec![(&[0], &[1]), (&[1], &[2]), (&[0], &[1])];
        let m = Map::from_pairs(1, 1, pairs);
        assert!(m.contains(&[0], &[1]) && m.contains(&[1], &[2]));
        assert!(!m.contains(&[2], &[3]));
        assert_eq!(m.count_pairs(), Some(2));
    }

    #[test]
    fn subtract_and_subset() {
        let big = shift(1).union(&shift(2));
        let small = shift(1);
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        let diff = big.subtract(&small);
        assert!(diff.is_equal(&shift(2)));
    }

    #[test]
    fn restrict_domain_range() {
        let f = shift(1);
        let dom = Set::from(BasicSet::bounding_box(&[0], &[9]));
        let ran = Set::from(BasicSet::bounding_box(&[5], &[7]));
        let r = f.restrict_domain(&dom).restrict_range(&ran);
        assert!(r.contains(&[4], &[5]));
        assert!(!r.contains(&[0], &[1]));
        assert_eq!(r.count_pairs(), Some(3)); // 4->5, 5->6, 6->7
    }

    #[test]
    fn compose_identity_laws() {
        // id ∘ f == f == f ∘ id, also for a non-translation affine map.
        let id = Map::identity(1);
        for f in [
            shift(4),
            Map::from(BasicMap::from_affine(1, &[LinearExpr::new(vec![3], -2)])),
            shift(1).union(&shift(-5)),
        ] {
            assert!(f.compose(&id).unwrap().is_equal(&f));
            assert!(id.compose(&f).unwrap().is_equal(&f));
        }
    }

    #[test]
    fn compose_is_associative() {
        // (f ∘ g) ∘ h == f ∘ (g ∘ h) on a mix of scaling and shifts.
        let f = Map::from(BasicMap::from_affine(1, &[LinearExpr::new(vec![2], 1)]));
        let g = shift(3).union(&shift(-1));
        let h = Map::from(BasicMap::from_affine(1, &[LinearExpr::new(vec![-1], 0)]));
        let left = f.compose(&g).unwrap().compose(&h).unwrap();
        let right = f.compose(&g.compose(&h).unwrap()).unwrap();
        assert!(left.is_equal(&right));
    }

    #[test]
    fn compose_inverse_contains_identity_on_domain() {
        // f⁻¹ ∘ f restricted to f's domain contains the identity there.
        let dom = Set::from(BasicSet::bounding_box(&[0], &[6]));
        let f = shift(2).restrict_domain(&dom);
        let roundtrip = f.compose(&f.inverse()).unwrap();
        for x in 0..=6 {
            assert!(roundtrip.contains(&[x], &[x]));
        }
        assert!(roundtrip.is_subset(&Map::identity(1)));
    }

    #[test]
    fn union_distributes_over_compose() {
        // (a ∪ b) ∘ c == (a ∘ c) ∪ (b ∘ c).
        let a = shift(1);
        let b = shift(4);
        let c = Map::from(BasicMap::from_affine(1, &[LinearExpr::new(vec![2], 0)]));
        let left = a.union(&b).compose(&c).unwrap();
        let right = a.compose(&c).unwrap().union(&b.compose(&c).unwrap());
        assert!(left.is_equal(&right));
    }
}
