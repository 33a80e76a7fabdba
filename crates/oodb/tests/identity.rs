//! Property tests for CST oid identity (§3.1): an oid's identity is its
//! canonical form, built lazily. Over random small constraint objects —
//! disjunctions, bound variables, equalities — the lazy form must be the
//! eager one, `Eq`/`Ord`/`Hash` must agree with comparing canonical forms,
//! and clones of one oid must share one computed form.

use lyric_arith::Rational;
use lyric_constraint::{Atom, Conjunction, CstObject, LinExpr, RelOp, Var};
use lyric_oodb::CstOid;
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Free variables `x, y`; bound variables `q, r` (every name outside the
/// schema is existentially quantified).
const NAMES: [&str; 4] = ["x", "y", "q", "r"];

type RawAtom = (Vec<i32>, RelOp, i32);

fn relop() -> impl Strategy<Value = RelOp> {
    prop_oneof![
        3 => Just(RelOp::Le),
        1 => Just(RelOp::Lt),
        2 => Just(RelOp::Ge),
        3 => Just(RelOp::Eq),
        1 => Just(RelOp::Neq),
    ]
}

fn raw_object() -> impl Strategy<Value = Vec<Vec<RawAtom>>> {
    let atom = (proptest::collection::vec(-2..=2i32, 4), relop(), -4..=4i32);
    proptest::collection::vec(proptest::collection::vec(atom, 0..4), 1..4)
}

/// Build an object over the schema `(x, y)`, with every variable renamed
/// through `names`.
fn build(raw: &[Vec<RawAtom>], names: [&str; 4]) -> CstObject {
    let disjuncts = raw.iter().map(|atoms| {
        Conjunction::of(atoms.iter().map(|(coeffs, op, rhs)| {
            let mut lhs = LinExpr::zero();
            for (name, &c) in names.iter().zip(coeffs) {
                lhs = lhs + LinExpr::term(Var::new(name), Rational::from_int(c as i64));
            }
            Atom::new(lhs, *op, LinExpr::from(*rhs as i64))
        }))
    });
    CstObject::new(vec![Var::new(names[0]), Var::new(names[1])], disjuncts)
}

fn hash_of(oid: &CstOid) -> u64 {
    let mut h = DefaultHasher::new();
    oid.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The identity form of an oid is the object's eager canonical form,
    /// and it is the positional rename of the canonicalized object.
    #[test]
    fn lazy_identity_is_the_eager_canonical_form(raw in raw_object()) {
        let obj = build(&raw, NAMES);
        let canon = obj.canonicalize();
        prop_assert_eq!(canon.positional_rename(), obj.canonical_form());
        prop_assert_eq!(canon.canonicalize(), canon.clone());
        let oid = CstOid::new(obj.clone());
        prop_assert_eq!(oid.object(), &canon);
        prop_assert_eq!(oid.canonical(), &obj.canonical_form());
    }

    /// `Eq`, `Ord` and `Hash` on oids agree with comparing canonical forms.
    /// The second object is the first one again, the first one over other
    /// free-variable names (`u, v` sort like `x, y` against `q, r`, so the
    /// identity is unchanged), or an unrelated object.
    #[test]
    fn oid_comparisons_agree_with_canonical_forms(
        a in raw_object(),
        other in raw_object(),
        pick in 0..3usize,
    ) {
        let left = build(&a, NAMES);
        let right = match pick {
            0 => build(&a, NAMES),
            1 => build(&a, ["u", "v", "q", "r"]),
            _ => build(&other, NAMES),
        };
        let (oa, ob) = (CstOid::new(left.clone()), CstOid::new(right.clone()));
        let (ca, cb) = (left.canonical_form(), right.canonical_form());
        prop_assert_eq!(oa == ob, ca == cb);
        prop_assert_eq!(oa.cmp(&ob), ca.cmp(&cb));
        if pick < 2 {
            prop_assert!(oa == ob, "same object under other names: {} vs {}", oa, ob);
        }
        if oa == ob {
            prop_assert_eq!(hash_of(&oa), hash_of(&ob));
        }
    }

    /// Clones of one oid share one computed form, whichever clone forces it.
    #[test]
    fn clones_share_one_computed_form(raw in raw_object()) {
        let oid = CstOid::new(build(&raw, NAMES));
        let clone = oid.clone();
        let forced: *const CstObject = clone.canonical();
        prop_assert!(std::ptr::eq(oid.canonical(), forced));
        prop_assert!(std::ptr::eq(oid.object(), clone.object()));
    }
}
