//! The immutable, generation-stamped store index.
//!
//! Built by [`index_for`] or installed by a snapshot load, cached on the
//! database's [`IndexSlot`](lyric_oodb::IndexSlot) and reused across
//! writes until they cross a rebuild threshold. Two column families:
//!
//! * [`ScalarColumn`] — per `(class, scalar attribute)`: a sorted run of
//!   `(value, oid)` postings for numeric values (equality and range
//!   probes by binary search), exact-match buckets for strings and
//!   booleans, and a `nonnum` posting list of every extent member whose
//!   stored value is *not* a plain numeric scalar (missing attribute,
//!   named/function/CST value). Range probes must return `nonnum` too:
//!   under a full scan those objects make an ordered comparison *error*,
//!   and pruning them would turn an `Err` answer into `Ok`.
//! * [`BoxColumn`] — per `(class, CST attribute)`: one positional
//!   interval vector per stored constraint member (its `IntervalBox`
//!   read off in declared-variable order), packed into [`BOX_PAGE`]-sized
//!   pages with a per-page hull. A probe intersects the query window
//!   against page hulls first and only descends into surviving pages —
//!   a two-level packed R-tree.

use lyric_arith::Rational;
use lyric_constraint::Interval;
use lyric_oodb::{AttrTarget, Database, Oid, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Entries per bounding-box page. Probes test one hull per page, so the
/// page size trades hull-test savings against per-entry tests inside
/// surviving pages; 64 keeps both levels cache-friendly.
pub const BOX_PAGE: usize = 64;

/// Sorted postings for one `(class, scalar attribute)` column.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScalarColumn {
    /// `(value, oid)` for members whose stored value is numeric, sorted.
    pub(crate) nums: Vec<(Rational, Oid)>,
    /// Exact-match buckets for string values.
    pub(crate) strs: BTreeMap<String, Vec<Oid>>,
    /// Exact-match buckets for boolean values.
    pub(crate) bools: BTreeMap<bool, Vec<Oid>>,
    /// Every member whose value is not a numeric scalar: missing
    /// attribute, string, boolean, named, function, or CST value.
    /// Ordered probes must include these (the scan would error on them).
    pub(crate) nonnum: Vec<Oid>,
}

/// One page of the bounding-box index: entries plus their positional hull.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxPage {
    /// Positional hull of every entry box in the page.
    pub(crate) hull: Vec<Interval>,
    /// `(oid, positional box)` — one entry per stored constraint member,
    /// so a set-valued attribute contributes several entries per oid.
    pub(crate) entries: Vec<(Oid, Vec<Interval>)>,
}

/// The paged bounding-box index for one `(class, CST attribute)` column.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxColumn {
    /// Declared dimension of the attribute; probes with a different
    /// window arity are refused (no pruning).
    pub(crate) arity: usize,
    pub(crate) pages: Vec<BoxPage>,
}

impl BoxColumn {
    /// Number of pages (two-level structure; exposed for tests).
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }
}

/// The immutable index over one database generation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreIndex {
    pub(crate) generation: u64,
    pub(crate) scalars: BTreeMap<(String, String), ScalarColumn>,
    pub(crate) boxes: BTreeMap<(String, String), BoxColumn>,
}

impl StoreIndex {
    /// Build the full index for the database's current generation:
    /// a scalar column per declared single-valued scalar attribute and a
    /// box column per declared CST attribute, over the (inheritance-
    /// aware) extent of every class.
    pub fn build(db: &Database) -> StoreIndex {
        let mut idx = StoreIndex {
            generation: db.data_generation(),
            ..StoreIndex::default()
        };
        let classes: Vec<String> = db.schema().class_names().map(str::to_string).collect();
        for class in classes {
            let extent = db.extent(&class);
            if extent.is_empty() {
                continue;
            }
            for (attr, decl) in db.schema().attributes_of(&class) {
                match &decl.target {
                    AttrTarget::Cst { vars } => {
                        let col = build_box_column(db, &extent, &attr, vars.len());
                        idx.boxes.insert((class.clone(), attr.clone()), col);
                    }
                    AttrTarget::Class { .. } if !decl.is_set => {
                        let col = build_scalar_column(db, &extent, &attr);
                        idx.scalars.insert((class.clone(), attr.clone()), col);
                    }
                    _ => {}
                }
            }
        }
        idx
    }

    /// The database generation this index was built against.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Candidates for `class.attr = value` where `value` is a literal.
    /// Exact: equality on a missing or differently-valued attribute is
    /// plain `false` under a scan (never an error), so only true matches
    /// are returned. `None` when the column does not exist (no pruning).
    pub fn probe_eq(&self, class: &str, attr: &str, value: &Oid) -> Option<Vec<Oid>> {
        let col = self.scalars.get(&(class.to_string(), attr.to_string()))?;
        let mut out: Vec<Oid> = match value {
            Oid::Int(_) | Oid::Rat(_) => {
                let v = value.as_rational().expect("numeric oid");
                let start = col.nums.partition_point(|(r, _)| *r < v);
                col.nums[start..]
                    .iter()
                    .take_while(|(r, _)| *r == v)
                    .map(|(_, o)| o.clone())
                    .collect()
            }
            Oid::Str(s) => col.strs.get(s).cloned().unwrap_or_default(),
            Oid::Bool(b) => col.bools.get(b).cloned().unwrap_or_default(),
            // Only literal comparands are planned as probes.
            _ => return None,
        };
        out.sort();
        out.dedup();
        Some(out)
    }

    /// Candidates for an ordered comparison of `class.attr` against the
    /// numeric `window`: numeric postings inside the window **plus every
    /// non-numeric/missing member** (the scan errors on those, so they
    /// must survive). `None` when the column does not exist.
    pub fn probe_range(&self, class: &str, attr: &str, window: &Interval) -> Option<Vec<Oid>> {
        let col = self.scalars.get(&(class.to_string(), attr.to_string()))?;
        let start = match window.lo() {
            None => 0,
            Some((b, strict)) => {
                if strict {
                    col.nums.partition_point(|(r, _)| r <= b)
                } else {
                    col.nums.partition_point(|(r, _)| r < b)
                }
            }
        };
        let end = match window.hi() {
            None => col.nums.len(),
            Some((b, strict)) => {
                if strict {
                    col.nums.partition_point(|(r, _)| r < b)
                } else {
                    col.nums.partition_point(|(r, _)| r <= b)
                }
            }
        };
        let mut out: Vec<Oid> = col.nums[start..end.max(start)]
            .iter()
            .map(|(_, o)| o.clone())
            .collect();
        out.extend(col.nonnum.iter().cloned());
        out.sort();
        out.dedup();
        Some(out)
    }

    /// Candidates for a bounding-box probe of the CST attribute: every
    /// oid with at least one stored member whose box intersects the
    /// positional `window` on every coordinate. Objects without the
    /// attribute are *not* candidates (a path predicate on a missing
    /// attribute is plain `false`). `None` when the column does not exist
    /// or the window arity mismatches.
    pub fn probe_box(&self, class: &str, attr: &str, window: &[Interval]) -> Option<Vec<Oid>> {
        let col = self.boxes.get(&(class.to_string(), attr.to_string()))?;
        if window.len() != col.arity {
            return None;
        }
        let mut out = Vec::new();
        for page in &col.pages {
            if boxes_disjoint(&page.hull, window) {
                continue;
            }
            for (oid, ivs) in &page.entries {
                if !boxes_disjoint(ivs, window) {
                    out.push(oid.clone());
                }
            }
        }
        out.sort();
        out.dedup();
        Some(out)
    }
}

/// Positional disjointness: two boxes are disjoint iff they are disjoint
/// on some coordinate.
fn boxes_disjoint(a: &[Interval], b: &[Interval]) -> bool {
    a.iter().zip(b).any(|(x, y)| x.intersect(y).is_empty())
}

fn build_scalar_column(db: &Database, extent: &[Oid], attr: &str) -> ScalarColumn {
    let mut col = ScalarColumn::default();
    for oid in extent {
        let value = db.object(oid).and_then(|data| data.attr(attr));
        match value {
            Some(Value::Scalar(v)) => match v {
                Oid::Int(_) | Oid::Rat(_) => {
                    let r = v.as_rational().expect("numeric oid");
                    col.nums.push((r, oid.clone()));
                }
                Oid::Str(s) => {
                    col.strs.entry(s.clone()).or_default().push(oid.clone());
                    col.nonnum.push(oid.clone());
                }
                Oid::Bool(b) => {
                    col.bools.entry(*b).or_default().push(oid.clone());
                    col.nonnum.push(oid.clone());
                }
                _ => col.nonnum.push(oid.clone()),
            },
            // A set value under a scalar declaration cannot happen
            // (cardinality-checked at insert), but stay conservative.
            Some(Value::Set(_)) | None => col.nonnum.push(oid.clone()),
        }
    }
    col.nums.sort();
    for bucket in col.strs.values_mut().chain(col.bools.values_mut()) {
        bucket.sort();
        bucket.dedup();
    }
    col.nonnum.sort();
    col.nonnum.dedup();
    col
}

/// An interval's lower bound as a sort key: `None` (−∞) sorts first.
fn lower_bound(iv: &Interval) -> Option<&Rational> {
    iv.lo().map(|(bound, _)| bound)
}

fn build_box_column(db: &Database, extent: &[Oid], attr: &str, arity: usize) -> BoxColumn {
    let mut entries: Vec<(Oid, Vec<Interval>)> = Vec::new();
    for oid in extent {
        let Some(value) = db.object(oid).and_then(|data| data.attr(attr)) else {
            continue; // missing attribute: prunable, no entry
        };
        for member in value.iter() {
            let ivs = match member.as_cst() {
                Some(c) if c.arity() == arity => {
                    let b = c.interval_box();
                    c.free().iter().map(|v| b.interval(v)).collect()
                }
                // Dimension mismatch or non-CST member: keep the object
                // as an always-candidate rather than risk pruning it.
                _ => vec![Interval::top(); arity],
            };
            entries.push((oid.clone(), ivs));
        }
    }
    // Pack pages in spatial order, by the lower bound of coordinate 0
    // (−∞ first; the stable sort keeps oid order among ties), so page
    // hulls are narrow and a window probe skips most pages on one test.
    if arity > 0 {
        entries.sort_by(|(_, a), (_, b)| lower_bound(&a[0]).cmp(&lower_bound(&b[0])));
    }
    let pages = entries
        .chunks(BOX_PAGE)
        .map(|chunk| {
            let mut hull = chunk[0].1.clone();
            for (_, ivs) in &chunk[1..] {
                for (h, iv) in hull.iter_mut().zip(ivs) {
                    *h = h.hull(iv);
                }
            }
            BoxPage {
                hull,
                entries: chunk.to_vec(),
            }
        })
        .collect();
    BoxColumn { arity, pages }
}

/// How many logged writes a cached index absorbs through the novelty
/// overlay before [`index_for`] rebuilds it: a fixed share of the stored
/// objects, with a floor so small databases do not rebuild on every few
/// writes. It keeps the overlay small next to the extent: every probe
/// merges it, and each of its oids is bound and re-checked by the query.
fn reuse_limit(num_objects: usize) -> usize {
    (num_objects / 16).max(64)
}

/// The index to probe for the database's current state: the cached one
/// while it is still good enough, otherwise a fresh build, cached.
///
/// The cached index is reused while no schema change happened since it
/// was built and at most `max(64, objects / 16)` writes were logged
/// after it; those writes reach every probe through the novelty overlay
/// ([`Database::oids_touched_since`]), so a reused index stays sound.
pub fn index_for(db: &Database) -> Arc<StoreIndex> {
    if let Some((built, cached)) = db.index_slot().get() {
        let fresh_schema = built >= db.schema_generation();
        if fresh_schema && db.writes_since(built) <= reuse_limit(db.num_objects()) {
            if let Ok(idx) = cached.downcast::<StoreIndex>() {
                return idx;
            }
        }
    }
    let idx = Arc::new(StoreIndex::build(db));
    db.index_slot().set(
        idx.generation(),
        idx.clone() as Arc<dyn std::any::Any + Send + Sync>,
    );
    idx
}

/// Merge a sorted candidate run with the sorted novelty overlay (oids
/// written after the index build): the union, sorted and duplicate-free.
/// Novelty oids are never pruned — the index knows nothing about them.
pub fn merge_with_novelty(candidates: &[Oid], novelty: &[Oid]) -> Vec<Oid> {
    let mut out = Vec::with_capacity(candidates.len() + novelty.len());
    let (mut i, mut j) = (0, 0);
    while i < candidates.len() && j < novelty.len() {
        let next = match candidates[i].cmp(&novelty[j]) {
            std::cmp::Ordering::Less => {
                i += 1;
                candidates[i - 1].clone()
            }
            std::cmp::Ordering::Greater => {
                j += 1;
                novelty[j - 1].clone()
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
                candidates[i - 1].clone()
            }
        };
        if out.last() != Some(&next) {
            out.push(next);
        }
    }
    for oid in candidates[i..].iter().chain(novelty[j..].iter()) {
        if out.last() != Some(oid) {
            out.push(oid.clone());
        }
    }
    out
}

/// Intersection of two sorted, duplicate-free oid runs (used to combine
/// the candidate sets of several probes on the same FROM variable).
pub fn intersect_sorted(a: &[Oid], b: &[Oid]) -> Vec<Oid> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i].clone());
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lyric_constraint::{Atom, Conjunction, CstObject, LinExpr, Var};
    use lyric_oodb::{AttrDef, ClassDef, Schema};

    fn span(lo: i64, hi: i64) -> CstObject {
        CstObject::from_conjunction(
            vec![Var::new("w"), Var::new("z")],
            Conjunction::of([
                Atom::ge(LinExpr::var(Var::new("w")), LinExpr::from(lo)),
                Atom::le(LinExpr::var(Var::new("w")), LinExpr::from(hi)),
                Atom::ge(LinExpr::var(Var::new("z")), LinExpr::from(lo)),
                Atom::le(LinExpr::var(Var::new("z")), LinExpr::from(hi)),
            ]),
        )
    }

    fn test_db(n: i64) -> Database {
        let mut schema = Schema::new();
        schema
            .add_class(
                ClassDef::new("Item")
                    .attr(AttrDef::scalar("weight", AttrTarget::class("int")))
                    .attr(AttrDef::scalar("label", AttrTarget::class("string")))
                    .attr(AttrDef::scalar("region", AttrTarget::cst(["w", "z"]))),
            )
            .unwrap();
        let mut db = Database::new(schema).unwrap();
        for i in 0..n {
            db.insert(
                Oid::named(format!("item_{i}")),
                "Item",
                [
                    ("weight", Value::Scalar(Oid::Int(i))),
                    ("label", Value::Scalar(Oid::str(format!("L{}", i % 3)))),
                    ("region", Value::Scalar(Oid::cst(span(10 * i, 10 * i + 5)))),
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn eq_and_range_probes_match_scan() {
        let db = test_db(20);
        let idx = StoreIndex::build(&db);
        let eq = idx.probe_eq("Item", "weight", &Oid::Int(7)).unwrap();
        assert_eq!(eq, vec![Oid::named("item_7")]);
        let window = Interval::of_bounds(
            Some((Rational::from_int(3), false)),
            Some((Rational::from_int(5), true)),
        );
        let range = idx.probe_range("Item", "weight", &window).unwrap();
        assert_eq!(range, vec![Oid::named("item_3"), Oid::named("item_4")]);
        let s = idx.probe_eq("Item", "label", &Oid::str("L1")).unwrap();
        assert_eq!(s.len(), 7); // 1, 4, 7, 10, 13, 16, 19
        assert!(idx.probe_eq("Item", "nope", &Oid::Int(0)).is_none());
    }

    #[test]
    fn box_probe_prunes_disjoint_objects() {
        let db = test_db(100); // two pages
        let idx = StoreIndex::build(&db);
        let window = vec![
            Interval::of_bounds(
                Some((Rational::from_int(205), false)),
                Some((Rational::from_int(212), false)),
            ),
            Interval::top(),
        ];
        let hits = idx.probe_box("Item", "region", &window).unwrap();
        // item_20 spans [200,205], item_21 spans [210,215]: both touch.
        assert_eq!(hits, vec![Oid::named("item_20"), Oid::named("item_21")]);
        // Arity mismatch: refuse to prune.
        assert!(idx.probe_box("Item", "region", &window[..1]).is_none());
    }

    #[test]
    fn box_pages_are_packed_by_coordinate_zero() {
        // 200 items over 4 pages; oid order (item_0, item_1, item_10, …)
        // is not spatial order, the packing is.
        let db = test_db(200);
        let idx = StoreIndex::build(&db);
        let col = &idx.boxes[&("Item".to_string(), "region".to_string())];
        assert_eq!(col.num_pages(), 4);
        for pair in col.pages.windows(2) {
            let (a, b) = (&pair[0].hull[0], &pair[1].hull[0]);
            assert!(
                lower_bound(a) <= lower_bound(b),
                "hull lower bounds decrease"
            );
            assert!(a.intersect(b).is_empty(), "consecutive hulls overlap");
        }
    }

    #[test]
    fn index_reuse_policy() {
        let weight = |k: i64| Value::Scalar(Oid::Int(k));
        let mut db = test_db(3);
        let a = index_for(&db);
        assert!(Arc::ptr_eq(&a, &index_for(&db)));
        // Reuse up to the threshold: the writes reach probes through the
        // novelty overlay instead.
        let limit = reuse_limit(db.num_objects());
        for k in 0..limit as i64 {
            db.set_attr(&Oid::named("item_0"), "weight", weight(k))
                .unwrap();
        }
        assert!(Arc::ptr_eq(&a, &index_for(&db)), "reused at the threshold");
        assert_eq!(db.writes_since(a.generation()), limit);
        assert_eq!(
            db.oids_touched_since(a.generation()),
            vec![Oid::named("item_0")]
        );
        // Rebuild past it; the next write trims the log to the new build.
        db.set_attr(&Oid::named("item_1"), "weight", weight(0))
            .unwrap();
        let b = index_for(&db);
        assert!(!Arc::ptr_eq(&a, &b), "rebuilt past the threshold");
        assert_eq!(b.generation(), db.data_generation());
        db.set_attr(&Oid::named("item_2"), "weight", weight(0))
            .unwrap();
        assert_eq!(db.writes_since(0), 1, "log holds only post-build writes");
        // Rebuild on a schema change, however few writes.
        db.add_class(ClassDef::new("Extra")).unwrap();
        let c = index_for(&db);
        assert!(!Arc::ptr_eq(&b, &c), "rebuilt after a schema change");
        assert_eq!(c.generation(), db.data_generation());
        // A clone starts with a fresh slot but the same data.
        let clone = db.clone();
        let d = index_for(&clone);
        assert!(!Arc::ptr_eq(&c, &d), "a clone builds its own index");
        assert_eq!(d.generation(), c.generation());
        assert!(Arc::ptr_eq(&c, &index_for(&db)));
    }

    #[test]
    fn novelty_merge_and_intersection() {
        let a: Vec<Oid> = [1, 3, 5].into_iter().map(Oid::Int).collect();
        let b: Vec<Oid> = [2, 3, 5, 7].into_iter().map(Oid::Int).collect();
        let merged = merge_with_novelty(&a, &b);
        assert_eq!(
            merged,
            [1, 2, 3, 5, 7]
                .into_iter()
                .map(Oid::Int)
                .collect::<Vec<_>>()
        );
        assert_eq!(
            intersect_sorted(&a, &b),
            [3, 5].into_iter().map(Oid::Int).collect::<Vec<_>>()
        );
        assert_eq!(merge_with_novelty(&[], &[]), Vec::<Oid>::new());
    }
}
