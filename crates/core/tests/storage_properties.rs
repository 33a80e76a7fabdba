//! Property tests for textual persistence: random databases round-trip
//! through `storage::save` / `storage::load` with identical schema,
//! extents, attribute values, and query answers.

use lyric::storage::{load, save};
use lyric_arith::Rational;
use lyric_constraint::{Atom, Conjunction, CstObject, LinExpr, Var};
use lyric_oodb::{AttrDef, AttrTarget, ClassDef, Database, Oid, Schema, Value};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RawItem {
    name_idx: usize,
    kind: usize,
    boxes: Vec<(i32, i32, i32, i32)>,
    tags: Vec<usize>,
}

const NAMES: &[&str] = &["alpha", "beta", "gamma", "delta"];
const KINDS: &[&str] = &["Widget", "Gadget"];

fn item_strategy() -> impl Strategy<Value = RawItem> {
    (
        0..NAMES.len(),
        0..KINDS.len(),
        proptest::collection::vec((-9..=0i32, 0..=9i32, -9..=0i32, 0..=9i32), 1..3),
        proptest::collection::vec(0..NAMES.len(), 0..3),
    )
        .prop_map(|(name_idx, kind, boxes, tags)| RawItem {
            name_idx,
            kind,
            boxes,
            tags,
        })
}

fn mk_region(boxes: &[(i32, i32, i32, i32)]) -> CstObject {
    let e = |n: &str| LinExpr::var(Var::new(n));
    let mut obj = CstObject::bottom(vec![Var::new("a"), Var::new("b")]);
    for &(x0, x1, y0, y1) in boxes {
        obj = obj.or(&CstObject::from_conjunction(
            vec![Var::new("a"), Var::new("b")],
            Conjunction::of([
                Atom::ge(e("a"), LinExpr::from(x0 as i64)),
                Atom::le(e("a"), LinExpr::from(x1 as i64)),
                Atom::ge(e("b"), LinExpr::from(y0 as i64)),
                Atom::le(e("b"), LinExpr::from(y1 as i64)),
            ]),
        ));
    }
    obj
}

fn build(items: &[RawItem]) -> Database {
    let mut schema = Schema::new();
    schema
        .add_class(
            ClassDef::new("Widget")
                .interface(["a", "b"])
                .attr(AttrDef::scalar("name", AttrTarget::class("string")))
                .attr(AttrDef::scalar("region", AttrTarget::cst(["a", "b"])))
                .attr(AttrDef::set("tags", AttrTarget::class("string"))),
        )
        .expect("fresh schema");
    schema
        .add_class(ClassDef::new("Gadget").is_a("Widget"))
        .expect("fresh schema");
    let mut db = Database::new(schema).expect("validates");
    for (i, item) in items.iter().enumerate() {
        db.insert(
            Oid::named(format!("item_{i}")),
            KINDS[item.kind],
            [
                ("name", Value::Scalar(Oid::str(NAMES[item.name_idx]))),
                ("region", Value::Scalar(Oid::cst(mk_region(&item.boxes)))),
                (
                    "tags",
                    Value::set(item.tags.iter().map(|&t| Oid::str(NAMES[t]))),
                ),
            ],
        )
        .expect("insert item");
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_databases_roundtrip(items in proptest::collection::vec(item_strategy(), 0..6)) {
        let db = build(&items);
        let text = save(&db).expect("serializes");
        let reloaded = load(&text).expect("parses back");

        // Schema identity.
        let names_a: Vec<&str> = db.schema().class_names().collect();
        let names_b: Vec<&str> = reloaded.schema().class_names().collect();
        prop_assert_eq!(&names_a, &names_b);
        for n in &names_a {
            prop_assert_eq!(db.schema().class(n), reloaded.schema().class(n));
        }
        // Extents and object data.
        for n in &names_a {
            prop_assert_eq!(db.extent(n), reloaded.extent(n));
        }
        let a: Vec<_> = db.objects().collect();
        let b: Vec<_> = reloaded.objects().collect();
        prop_assert_eq!(a, b);
        // Second save is byte-identical (canonical dump).
        prop_assert_eq!(text, save(&reloaded).expect("re-serializes"));
    }

    #[test]
    fn queries_survive_roundtrip(items in proptest::collection::vec(item_strategy(), 1..5),
                                 px in -9..=9i32, py in -9..=9i32) {
        let mut db = build(&items);
        let text = save(&db).expect("serializes");
        let mut reloaded = load(&text).expect("parses back");
        let q = format!(
            "SELECT W.name FROM Widget W WHERE W.region[R] AND (R(a,b) AND a = {px} AND b = {py})"
        );
        let before = lyric::execute(&mut db, &q).expect("query original");
        let after = lyric::execute(&mut reloaded, &q).expect("query reload");
        prop_assert_eq!(before, after);
        // Point-set semantics of every stored region is preserved.
        let p = [Rational::from_int(px as i64), Rational::from_int(py as i64)];
        for (oid, _) in db.objects() {
            let r1 = db.attr(oid, "region").expect("stored");
            let r2 = reloaded.attr(oid, "region").expect("stored");
            let (c1, c2) = (
                r1.as_scalar().expect("scalar").as_cst().expect("cst"),
                r2.as_scalar().expect("scalar").as_cst().expect("cst"),
            );
            prop_assert_eq!(c1.contains_point(&p), c2.contains_point(&p));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Binary snapshots of random databases: text- and binary-loaded
    /// copies encode to the same bytes, save → load → save is
    /// byte-identical (also after writes that followed an index build),
    /// and the index that arrives with a load equals a rebuild.
    #[test]
    fn random_databases_roundtrip_through_snapshots(
        items in proptest::collection::vec(item_strategy(), 0..6),
        renames in proptest::collection::vec(0..NAMES.len(), 0..4),
    ) {
        use lyric::snapshot::{from_bytes, to_bytes};
        use lyric::store::{index_for, StoreIndex};
        let mut db = build(&items);
        let bytes = to_bytes(&db).expect("encodes");
        let binary = from_bytes(&bytes).expect("decodes");
        let text = load(&save(&db).expect("serializes")).expect("parses back");
        prop_assert_eq!(&to_bytes(&binary).expect("re-encodes"), &bytes);
        prop_assert_eq!(&to_bytes(&text).expect("encodes the text load"), &bytes);
        let a: Vec<_> = db.objects().collect();
        let b: Vec<_> = binary.objects().collect();
        prop_assert_eq!(a, b);
        prop_assert_eq!(&*index_for(&binary), &StoreIndex::build(&binary));

        // Writes after the index is cached: the snapshot still encodes
        // the content only.
        index_for(&db);
        for (i, &name) in renames.iter().enumerate() {
            if i < items.len() {
                db.set_attr(&Oid::named(format!("item_{i}")), "name", Value::Scalar(Oid::str(NAMES[name])))
                    .expect("rename");
            }
        }
        let written = to_bytes(&db).expect("encodes after writes");
        prop_assert_eq!(&written, &to_bytes(&db.clone()).expect("a clone has no cached index"));
        let reloaded = from_bytes(&written).expect("decodes after writes");
        prop_assert_eq!(&to_bytes(&reloaded).expect("re-encodes after writes"), &written);
        prop_assert_eq!(&*index_for(&reloaded), &StoreIndex::build(&reloaded));
    }
}
