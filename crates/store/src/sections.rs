//! The snapshot's binary sections: a database and its store index as
//! container sections, and back.
//!
//! [`encode_database`] writes six sections, always in this order:
//!
//! | tag    | payload |
//! |--------|---------|
//! | `META` | the object count (`u64`), cross-checked after `OBJS` |
//! | `VARS` | every variable name, sorted and distinct; a var id is a position here, so ids follow name order |
//! | `SCHM` | the classes in name order: name, interface var ids, parents, CST dimension, attributes (name, cardinality, class target with optional renaming var ids, or CST var ids) |
//! | `OIDS` | every extent member, sorted and distinct; an oid id is a position here, so ids follow oid order |
//! | `OBJS` | dataless instances as `(class id, oid id)`, then each object as `(oid id, class id, attributes)` |
//! | `INDX` | the store index: scalar columns and box pages, postings as oid ids |
//!
//! An oid is a tag byte and its payload. Attribute values name extent
//! members (`Named` and `Func` oids) by oid id; everything else is
//! inline. A CST oid is its var-id schema and, per disjunct, an array of
//! atoms `(op, [(var id, coefficient)], constant)`. Integers are
//! little-endian and counts are `u32`.
//!
//! The encoding depends on the database's content only: no generation
//! stamp, tables sorted, maps in key order. Save → load → save is
//! therefore byte-identical.
//!
//! [`decode_database`] rebuilds the database through the ordinary write
//! path — `Schema::add_class`, `Database::new` (schema validation),
//! `declare_instance`, `insert` (typing), `validate_references` — so each
//! stored constraint is canonicalized again exactly as when it was first
//! stored. It then validates the persisted index structurally (ids in
//! range, columns that match the schema's kind and arity, sorted
//! postings drawn from the class extent, page hulls that cover their
//! entries) and installs it at the loaded database's generation, so the
//! first query does not rebuild it. Any failure is a [`SnapshotError`];
//! no partially loaded database escapes.

use crate::bytes::{Read, Reader, Writer};
use crate::index::{BoxColumn, BoxPage, ScalarColumn, StoreIndex, BOX_PAGE};
use crate::snapshot::{tag_string, Section, SnapshotError};
use lyric_constraint::{Atom, Conjunction, CstObject, LinExpr, NormOp, Var};
use lyric_oodb::{AttrDef, AttrTarget, ClassDef, Database, Oid, Schema, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The section tags of a snapshot, in their required order.
const SECTION_TAGS: [[u8; 4]; 6] = [*b"META", *b"VARS", *b"SCHM", *b"OIDS", *b"OBJS", *b"INDX"];

// Oid tags.
const INT: u8 = 0;
const RAT: u8 = 1;
const STR: u8 = 2;
const BOOL: u8 = 3;
const NAMED: u8 = 4;
const FUNC: u8 = 5;
const CST: u8 = 6;
/// An attribute value naming an extent member by oid id.
const REF: u8 = 7;

/// How deeply `Func` oids may nest in a snapshot.
const MAX_FUNC_DEPTH: usize = 64;

const OPS: [NormOp; 4] = [NormOp::Le, NormOp::Lt, NormOp::Eq, NormOp::Neq];

// ------------------------------------------------------------------ encode

/// The id tables an encoding refers to.
struct Tables {
    /// Every variable name, sorted.
    vars: Vec<Var>,
    /// Every class, in schema (name) order.
    classes: Vec<String>,
    /// Every extent member, sorted.
    oids: Vec<Oid>,
}

impl Tables {
    fn of(db: &Database) -> Tables {
        let classes: Vec<String> = db.schema().class_names().map(str::to_string).collect();
        let mut oids: Vec<Oid> = classes.iter().flat_map(|c| db.direct_members(c)).collect();
        oids.sort();
        oids.dedup();
        let mut vars = BTreeSet::new();
        for class in &classes {
            let def = db.schema().class(class).expect("listed class exists");
            vars.extend(def.interface.iter().cloned());
            for attr in def.attributes.values() {
                match &attr.target {
                    AttrTarget::Cst { vars: vs } => vars.extend(vs.iter().cloned()),
                    AttrTarget::Class { actuals, .. } => {
                        vars.extend(actuals.iter().flatten().cloned())
                    }
                }
            }
        }
        for oid in &oids {
            collect_vars(oid, &mut vars);
        }
        for (_, data) in db.objects() {
            for (_, value) in data.attrs() {
                value.iter().for_each(|oid| collect_vars(oid, &mut vars));
            }
        }
        Tables {
            vars: vars.into_iter().collect(),
            classes,
            oids,
        }
    }

    fn var(&self, v: &Var) -> u32 {
        self.vars
            .binary_search(v)
            .expect("every variable is collected") as u32
    }

    fn class(&self, name: &str) -> u32 {
        self.classes
            .binary_search_by(|c| c.as_str().cmp(name))
            .expect("every class is listed") as u32
    }

    fn oid(&self, oid: &Oid) -> Option<u32> {
        self.oids.binary_search(oid).ok().map(|i| i as u32)
    }

    fn member(&self, oid: &Oid) -> u32 {
        self.oid(oid)
            .expect("postings and objects are extent members")
    }

    fn write_vars<'v>(&self, w: &mut Writer, vars: impl ExactSizeIterator<Item = &'v Var>) {
        w.ids(vars.map(|v| self.var(v)));
    }
}

fn collect_vars(oid: &Oid, out: &mut BTreeSet<Var>) {
    match oid {
        Oid::Cst(c) => {
            let c = c.object();
            out.extend(c.free().iter().cloned());
            for d in c.disjuncts() {
                for a in d.atoms() {
                    out.extend(a.expr().terms().map(|(v, _)| v.clone()));
                }
            }
        }
        Oid::Func(_, args) => args.iter().for_each(|a| collect_vars(a, out)),
        _ => {}
    }
}

/// The store index to persist: the cached one when no write happened
/// since its build, otherwise a fresh build.
fn fresh_index(db: &Database) -> Arc<StoreIndex> {
    if let Some((built, cached)) = db.index_slot().get() {
        if built == db.data_generation() {
            if let Ok(idx) = cached.downcast::<StoreIndex>() {
                return idx;
            }
        }
    }
    Arc::new(StoreIndex::build(db))
}

/// Encode a database and its store index as snapshot sections.
pub fn encode_database(db: &Database) -> Vec<Section> {
    let t = Tables::of(db);
    let mut meta = Writer::default();
    meta.u64(db.num_objects() as u64);
    let payloads = [
        meta.finish(),
        encode_vars(&t),
        encode_schema(db, &t),
        encode_oids(&t),
        encode_objects(db, &t),
        encode_index(&fresh_index(db), &t),
    ];
    SECTION_TAGS.into_iter().zip(payloads).collect()
}

fn encode_vars(t: &Tables) -> Vec<u8> {
    let mut w = Writer::default();
    w.len(t.vars.len());
    for v in &t.vars {
        w.str(v.name());
    }
    w.finish()
}

fn encode_schema(db: &Database, t: &Tables) -> Vec<u8> {
    let mut w = Writer::default();
    w.len(t.classes.len());
    for name in &t.classes {
        let def = db.schema().class(name).expect("listed class exists");
        w.str(name);
        t.write_vars(&mut w, def.interface.iter());
        w.len(def.parents.len());
        for p in &def.parents {
            w.str(p);
        }
        match def.cst_dim {
            Some(dim) => {
                w.u8(1);
                w.len(dim);
            }
            None => w.u8(0),
        }
        w.len(def.attributes.len());
        for attr in def.attributes.values() {
            w.str(&attr.name);
            w.u8(u8::from(attr.is_set));
            match &attr.target {
                AttrTarget::Class { class, actuals } => {
                    w.u8(0);
                    w.str(class);
                    match actuals {
                        Some(vars) => {
                            w.u8(1);
                            t.write_vars(&mut w, vars.iter());
                        }
                        None => w.u8(0),
                    }
                }
                AttrTarget::Cst { vars } => {
                    w.u8(1);
                    t.write_vars(&mut w, vars.iter());
                }
            }
        }
    }
    w.finish()
}

fn encode_oids(t: &Tables) -> Vec<u8> {
    let mut w = Writer::default();
    w.len(t.oids.len());
    for oid in &t.oids {
        write_oid(&mut w, t, oid, false);
    }
    w.finish()
}

fn encode_objects(db: &Database, t: &Tables) -> Vec<u8> {
    let mut w = Writer::default();
    let mut instances = Vec::new();
    for (class_id, class) in t.classes.iter().enumerate() {
        for oid in db.direct_members(class) {
            if db.object(&oid).map(|d| d.class()) != Some(class.as_str()) {
                instances.push((class_id, t.member(&oid)));
            }
        }
    }
    w.len(instances.len());
    for (class_id, oid_id) in instances {
        w.len(class_id);
        w.u32(oid_id);
    }
    w.len(db.num_objects());
    for (oid, data) in db.objects() {
        w.u32(t.member(oid));
        w.u32(t.class(data.class()));
        w.len(data.attrs().count());
        for (name, value) in data.attrs() {
            w.str(name);
            match value {
                Value::Scalar(oid) => {
                    w.u8(0);
                    write_oid(&mut w, t, oid, true);
                }
                Value::Set(members) => {
                    w.u8(1);
                    w.len(members.len());
                    for oid in members {
                        write_oid(&mut w, t, oid, true);
                    }
                }
            }
        }
    }
    w.finish()
}

/// Write an oid. With `refs`, `Named` and `Func` extent members are
/// written as their oid id.
fn write_oid(w: &mut Writer, t: &Tables, oid: &Oid, refs: bool) {
    if refs && matches!(oid, Oid::Named(_) | Oid::Func(..)) {
        if let Some(id) = t.oid(oid) {
            w.u8(REF);
            w.u32(id);
            return;
        }
    }
    match oid {
        Oid::Int(i) => {
            w.u8(INT);
            w.i64(*i);
        }
        Oid::Rat(r) => {
            w.u8(RAT);
            w.rational(r);
        }
        Oid::Str(s) => {
            w.u8(STR);
            w.str(s);
        }
        Oid::Bool(b) => {
            w.u8(BOOL);
            w.u8(u8::from(*b));
        }
        Oid::Named(n) => {
            w.u8(NAMED);
            w.str(n);
        }
        Oid::Func(name, args) => {
            w.u8(FUNC);
            w.str(name);
            w.len(args.len());
            for a in args {
                write_oid(w, t, a, false);
            }
        }
        Oid::Cst(c) => {
            w.u8(CST);
            write_cst(w, t, c.object());
        }
    }
}

fn write_cst(w: &mut Writer, t: &Tables, c: &CstObject) {
    t.write_vars(w, c.free().iter());
    w.len(c.disjuncts().len());
    for d in c.disjuncts() {
        w.len(d.atoms().len());
        for a in d.atoms() {
            w.u8(OPS.iter().position(|&op| op == a.op()).expect("four ops") as u8);
            w.len(a.expr().num_terms());
            for (v, coeff) in a.expr().terms() {
                w.u32(t.var(v));
                w.rational(coeff);
            }
            w.rational(a.expr().constant_term());
        }
    }
}

fn encode_index(idx: &StoreIndex, t: &Tables) -> Vec<u8> {
    let mut w = Writer::default();
    w.len(idx.scalars.len());
    for ((class, attr), col) in &idx.scalars {
        w.u32(t.class(class));
        w.str(attr);
        w.len(col.nums.len());
        for (value, oid) in &col.nums {
            w.rational(value);
            w.u32(t.member(oid));
        }
        w.len(col.strs.len());
        for (s, oids) in &col.strs {
            w.str(s);
            w.ids(oids.iter().map(|o| t.member(o)));
        }
        w.len(col.bools.len());
        for (b, oids) in &col.bools {
            w.u8(u8::from(*b));
            w.ids(oids.iter().map(|o| t.member(o)));
        }
        w.ids(col.nonnum.iter().map(|o| t.member(o)));
    }
    w.len(idx.boxes.len());
    for ((class, attr), col) in &idx.boxes {
        w.u32(t.class(class));
        w.str(attr);
        w.len(col.arity);
        w.len(col.pages.len());
        for page in &col.pages {
            w.len(page.entries.len());
            page.hull.iter().for_each(|iv| w.interval(iv));
            for (oid, ivs) in &page.entries {
                w.u32(t.member(oid));
                ivs.iter().for_each(|iv| w.interval(iv));
            }
        }
    }
    w.finish()
}

// ------------------------------------------------------------------ decode

/// The tables decoded so far, and each class's direct members.
#[derive(Default)]
struct Decoded {
    vars: Vec<Var>,
    classes: Vec<String>,
    oids: Vec<Oid>,
    /// Oid ids inserted or declared into each class (by class id).
    members: Vec<Vec<u32>>,
}

/// Decode and validate snapshot sections into a database with its store
/// index installed.
pub fn decode_database(sections: &[Section]) -> Result<Database, SnapshotError> {
    let tags: Vec<[u8; 4]> = sections.iter().map(|(tag, _)| *tag).collect();
    if tags != SECTION_TAGS {
        let names = |tags: &[[u8; 4]]| tags.iter().map(tag_string).collect::<Vec<_>>().join(", ");
        return Err(SnapshotError::BadLayout {
            detail: format!(
                "expected {} sections ({}) in that order, found {} ({})",
                SECTION_TAGS.len(),
                names(&SECTION_TAGS),
                tags.len(),
                names(&tags)
            ),
        });
    }
    let reader = |i: usize| Reader::new(SECTION_TAGS[i], &sections[i].1);

    let mut r = reader(0);
    let declared = r.u64("object count")?;
    r.finish()?;
    let mut d = Decoded::default();
    decode_vars(reader(1), &mut d)?;
    let schema = decode_schema(reader(2), &mut d)?;
    decode_oids(reader(3), &mut d)?;
    let db = decode_objects(reader(4), &mut d, schema)?;
    if db.num_objects() as u64 != declared {
        return Err(reader(0).invalid(format!(
            "declares {declared} objects, OBJS holds {}",
            db.num_objects()
        )));
    }
    let mut idx = decode_index(reader(5), &d, &db)?;
    idx.generation = db.data_generation();
    db.index_slot().set(idx.generation, Arc::new(idx));
    Ok(db)
}

fn decode_vars(mut r: Reader, d: &mut Decoded) -> Read<()> {
    let n = r.count(4, "variable table")?;
    let mut prev: Option<&str> = None;
    for _ in 0..n {
        let name = r.str("variable name")?;
        if prev.is_some_and(|p| p >= name) {
            return Err(r.invalid("variable names are not sorted and distinct"));
        }
        prev = Some(name);
        d.vars.push(Var::new(name));
    }
    r.finish()
}

fn read_vars(r: &mut Reader, vars: &[Var], what: &str) -> Read<Vec<Var>> {
    let n = r.count(4, what)?;
    (0..n)
        .map(|_| Ok(vars[r.id(vars.len(), "var")? as usize].clone()))
        .collect()
}

fn decode_schema(mut r: Reader, d: &mut Decoded) -> Read<Schema> {
    let mut schema = Schema::new();
    let n = r.count(4, "class table")?;
    for _ in 0..n {
        let name = r.str("class name")?;
        if d.classes.last().is_some_and(|p| p.as_str() >= name) {
            return Err(r.invalid("class names are not sorted and distinct"));
        }
        let mut def = ClassDef::new(name);
        def.interface = read_vars(&mut r, &d.vars, "interface")?;
        let parents = r.count(4, "parents")?;
        for _ in 0..parents {
            def.parents.push(r.str("parent")?.to_string());
        }
        if r.bool("CST dimension flag")? {
            def.cst_dim = Some(r.u32("CST dimension")? as usize);
        }
        let attrs = r.count(7, "attributes")?;
        for _ in 0..attrs {
            let attr = r.str("attribute name")?;
            if def
                .attributes
                .keys()
                .next_back()
                .is_some_and(|p| p.as_str() >= attr)
            {
                return Err(r.invalid(format!("attributes of {name} are not sorted")));
            }
            let is_set = r.bool("cardinality")?;
            let target = match r.u8("attribute kind")? {
                0 => {
                    let class = r.str("target class")?.to_string();
                    let actuals = if r.bool("renaming flag")? {
                        Some(read_vars(&mut r, &d.vars, "renaming")?)
                    } else {
                        None
                    };
                    AttrTarget::Class { class, actuals }
                }
                1 => AttrTarget::Cst {
                    vars: read_vars(&mut r, &d.vars, "CST variables")?,
                },
                k => return Err(r.invalid(format!("unknown attribute kind {k}"))),
            };
            def = def.attr(AttrDef {
                name: attr.to_string(),
                is_set,
                target,
            });
        }
        d.classes.push(name.to_string());
        schema
            .add_class(def)
            .map_err(|e| r.invalid(e.to_string()))?;
    }
    schema.validate().map_err(|e| r.invalid(e.to_string()))?;
    d.members = vec![Vec::new(); d.classes.len()];
    r.finish()?;
    Ok(schema)
}

fn decode_oids(mut r: Reader, d: &mut Decoded) -> Read<()> {
    let n = r.count(2, "oid table")?;
    d.oids.reserve(n);
    for _ in 0..n {
        let oid = read_oid(&mut r, d, false, 0)?;
        if d.oids.last().is_some_and(|prev| *prev >= oid) {
            return Err(r.invalid("oids are not sorted and distinct"));
        }
        d.oids.push(oid);
    }
    r.finish()
}

/// Read an oid; `refs` admits oid ids (attribute values only).
fn read_oid(r: &mut Reader, d: &Decoded, refs: bool, depth: usize) -> Read<Oid> {
    Ok(match r.u8("oid tag")? {
        INT => Oid::Int(r.i64("int oid")?),
        RAT => Oid::Rat(r.rational("rational oid")?),
        STR => Oid::Str(r.str("string oid")?.to_string()),
        BOOL => Oid::Bool(r.bool("bool oid")?),
        NAMED => Oid::Named(r.str("named oid")?.to_string()),
        FUNC if depth < MAX_FUNC_DEPTH => {
            let name = r.str("function name")?.to_string();
            let n = r.count(2, "function arguments")?;
            let args = (0..n)
                .map(|_| read_oid(r, d, false, depth + 1))
                .collect::<Read<_>>()?;
            Oid::Func(name, args)
        }
        FUNC => return Err(r.invalid("function oids nest too deeply")),
        CST => Oid::cst(read_cst(r, &d.vars)?),
        REF if refs => d.oids[r.id(d.oids.len(), "oid")? as usize].clone(),
        t => return Err(r.invalid(format!("unknown oid tag {t}"))),
    })
}

/// Read a constraint object. It gets its own copy of each variable it
/// names, as a parsed one does: objects then share no reference count,
/// so query threads working on different objects never contend on one.
fn read_cst(r: &mut Reader, vars: &[Var]) -> Read<CstObject> {
    let mut own: Vec<(u32, Var)> = Vec::new();
    let mut var = |r: &mut Reader| -> Read<(u32, Var)> {
        let id = r.id(vars.len(), "var")?;
        if let Some((_, v)) = own.iter().find(|(i, _)| *i == id) {
            return Ok((id, v.clone()));
        }
        let v = Var::new(vars[id as usize].name());
        own.push((id, v.clone()));
        Ok((id, v))
    };
    let n = r.count(4, "CST schema")?;
    let mut free: Vec<Var> = Vec::with_capacity(n);
    for _ in 0..n {
        let (_, v) = var(r)?;
        if free.contains(&v) {
            return Err(r.invalid("duplicate variable in a CST schema"));
        }
        free.push(v);
    }
    let disjuncts = r.count(4, "disjuncts")?;
    let mut ds = Vec::with_capacity(disjuncts);
    for _ in 0..disjuncts {
        let atoms = r.count(6, "atoms")?;
        let mut conj = Vec::with_capacity(atoms);
        for _ in 0..atoms {
            let op = *OPS
                .get(r.u8("atom op")? as usize)
                .ok_or_else(|| r.invalid("unknown atom op"))?;
            let terms = r.count(5, "atom terms")?;
            let mut expr = LinExpr::zero();
            let mut prev: Option<u32> = None;
            for _ in 0..terms {
                let (id, v) = var(r)?;
                if prev.is_some_and(|p| p >= id) {
                    return Err(r.invalid("atom terms are not in variable order"));
                }
                prev = Some(id);
                let coeff = r.rational("coefficient")?;
                if coeff.is_zero() {
                    return Err(r.invalid("zero coefficient in an atom"));
                }
                expr.add_term(v, &coeff);
            }
            expr.add_constant(&r.rational("atom constant")?);
            conj.push(Atom::normalized(expr, op));
        }
        ds.push(Conjunction::of(conj));
    }
    Ok(CstObject::new(free, ds))
}

fn decode_objects(mut r: Reader, d: &mut Decoded, schema: Schema) -> Read<Database> {
    let mut db = Database::new(schema).map_err(|e| r.invalid(e.to_string()))?;
    let instances = r.count(8, "instances")?;
    let mut prev = None;
    for _ in 0..instances {
        let class = r.id(d.classes.len(), "class")?;
        let oid = r.id(d.oids.len(), "oid")?;
        if prev.is_some_and(|p| p >= (class, oid)) {
            return Err(r.invalid("instances are not sorted and distinct"));
        }
        prev = Some((class, oid));
        db.declare_instance(&d.classes[class as usize], d.oids[oid as usize].clone())
            .map_err(|e| r.invalid(e.to_string()))?;
        d.members[class as usize].push(oid);
    }
    let objects = r.count(12, "objects")?;
    let mut prev = None;
    for _ in 0..objects {
        let (oid, class, attrs) = read_object(&mut r, d)?;
        if prev.is_some_and(|p| p >= oid) {
            return Err(r.invalid("objects are not sorted and distinct"));
        }
        prev = Some(oid);
        db.insert(
            d.oids[oid as usize].clone(),
            &d.classes[class as usize],
            attrs,
        )
        .map_err(|e| r.invalid(e.to_string()))?;
        d.members[class as usize].push(oid);
    }
    db.validate_references()
        .map_err(|e| r.invalid(e.to_string()))?;
    r.finish()?;
    Ok(db)
}

/// A decoded object record: oid id, class id, attribute values.
type ObjectRecord = (u32, u32, Vec<(String, Value)>);

/// One object record.
fn read_object(r: &mut Reader, d: &Decoded) -> Read<ObjectRecord> {
    let oid = r.id(d.oids.len(), "oid")?;
    let class = r.id(d.classes.len(), "class")?;
    let n = r.count(6, "attribute values")?;
    let mut attrs: Vec<(String, Value)> = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str("attribute name")?;
        if attrs.last().is_some_and(|(p, _)| p.as_str() >= name) {
            return Err(r.invalid("attribute values are not sorted and distinct"));
        }
        let value = if r.bool("set flag")? {
            let members = r.count(2, "set members")?;
            Value::Set(
                (0..members)
                    .map(|_| read_oid(r, d, true, 0))
                    .collect::<Read<_>>()?,
            )
        } else {
            Value::Scalar(read_oid(r, d, true, 0)?)
        };
        attrs.push((name.to_string(), value));
    }
    Ok((oid, class, attrs))
}

/// Which oid ids are members of `class`'s extent (the class and every
/// subclass).
fn extent_mask(d: &Decoded, db: &Database, class: &str) -> Vec<bool> {
    let mut mask = vec![false; d.oids.len()];
    for sub in db.schema().subclasses_of(class) {
        if let Ok(c) = d.classes.binary_search_by(|n| n.as_str().cmp(sub)) {
            for &id in &d.members[c] {
                mask[id as usize] = true;
            }
        }
    }
    mask
}

/// Read a column key, check that keys ascend, and return the class's
/// declaration of the attribute.
fn column_key<'db>(
    r: &mut Reader,
    d: &Decoded,
    db: &'db Database,
    prev: Option<&(String, String)>,
) -> Read<((String, String), Option<&'db AttrDef>)> {
    let class = d.classes[r.id(d.classes.len(), "class")? as usize].clone();
    let attr = r.str("column attribute")?.to_string();
    let key = (class, attr);
    if prev.is_some_and(|p| *p >= key) {
        return Err(r.invalid("index columns are not sorted and distinct"));
    }
    let decl = db.schema().visible_attribute(&key.0, &key.1);
    Ok((key, decl))
}

/// A posting: an oid id that must be a member of the column's extent.
fn posting(r: &mut Reader, d: &Decoded, mask: &[bool], key: &(String, String)) -> Read<u32> {
    let id = r.id(d.oids.len(), "oid")?;
    if !mask[id as usize] {
        return Err(non_member(r, d, id, key));
    }
    Ok(id)
}

fn non_member(r: &Reader, d: &Decoded, id: u32, (class, attr): &(String, String)) -> SnapshotError {
    r.invalid(format!(
        "column {class}.{attr} posts {}, not in the extent of {class}",
        d.oids[id as usize]
    ))
}

/// A strictly increasing run of postings, as oids.
fn postings(r: &mut Reader, d: &Decoded, mask: &[bool], key: &(String, String)) -> Read<Vec<Oid>> {
    let ids = r.ids(d.oids.len(), "posting")?;
    if let Some(&bad) = ids.iter().find(|&&id| !mask[id as usize]) {
        return Err(non_member(r, d, bad, key));
    }
    Ok(ids.iter().map(|&id| d.oids[id as usize].clone()).collect())
}

fn decode_index(mut r: Reader, d: &Decoded, db: &Database) -> Read<StoreIndex> {
    let mut idx = StoreIndex::default();
    let n = r.count(20, "scalar columns")?;
    for _ in 0..n {
        let (key, decl) = column_key(&mut r, d, db, idx.scalars.keys().next_back())?;
        if !matches!(
            decl,
            Some(AttrDef {
                is_set: false,
                target: AttrTarget::Class { .. },
                ..
            })
        ) {
            return Err(r.invalid(format!(
                "scalar column {}.{} names no single-valued class attribute",
                key.0, key.1
            )));
        }
        let mask = extent_mask(d, db, &key.0);
        let mut col = ScalarColumn::default();
        let nums = r.count(6, "numeric postings")?;
        let mut prev: Option<u32> = None;
        for _ in 0..nums {
            let value = r.rational("posted value")?;
            let id = posting(&mut r, d, &mask, &key)?;
            if let (Some((last, _)), Some(p)) = (col.nums.last(), prev) {
                if (last, p) >= (&value, id) {
                    return Err(r.invalid("numeric postings are not sorted"));
                }
            }
            prev = Some(id);
            col.nums.push((value, d.oids[id as usize].clone()));
        }
        let strs = r.count(8, "string buckets")?;
        for _ in 0..strs {
            let s = r.str("bucket string")?.to_string();
            if col.strs.keys().next_back().is_some_and(|p| *p >= s) {
                return Err(r.invalid("string buckets are not sorted"));
            }
            let oids = postings(&mut r, d, &mask, &key)?;
            col.strs.insert(s, oids);
        }
        let bools = r.count(5, "boolean buckets")?;
        for _ in 0..bools {
            let b = r.bool("bucket boolean")?;
            if col.bools.keys().next_back().is_some_and(|p| *p >= b) {
                return Err(r.invalid("boolean buckets are not sorted"));
            }
            let oids = postings(&mut r, d, &mask, &key)?;
            col.bools.insert(b, oids);
        }
        col.nonnum = postings(&mut r, d, &mask, &key)?;
        idx.scalars.insert(key, col);
    }
    let n = r.count(16, "box columns")?;
    for _ in 0..n {
        let (key, decl) = column_key(&mut r, d, db, idx.boxes.keys().next_back())?;
        let arity = r.u32("arity")? as usize;
        match decl {
            Some(AttrDef {
                target: AttrTarget::Cst { vars },
                ..
            }) if vars.len() == arity => {}
            _ => {
                return Err(r.invalid(format!(
                    "box column {}.{} of arity {arity} names no CST attribute of that arity",
                    key.0, key.1
                )))
            }
        }
        let mask = extent_mask(d, db, &key.0);
        let pages = r.count(4, "box pages")?;
        let mut col = BoxColumn {
            arity,
            pages: Vec::with_capacity(pages),
        };
        for _ in 0..pages {
            let entries = r.count(4 + arity, "page entries")?;
            if entries == 0 || entries > BOX_PAGE {
                return Err(r.invalid(format!("a page holds {entries} entries")));
            }
            let hull = (0..arity)
                .map(|_| r.interval("page hull"))
                .collect::<Read<Vec<_>>>()?;
            let mut page = BoxPage {
                hull,
                entries: Vec::with_capacity(entries),
            };
            for _ in 0..entries {
                let id = posting(&mut r, d, &mask, &key)?;
                let ivs = (0..arity)
                    .map(|_| r.interval("entry box"))
                    .collect::<Read<Vec<_>>>()?;
                if page.hull.iter().zip(&ivs).any(|(h, iv)| h.hull(iv) != *h) {
                    return Err(r.invalid(format!(
                        "a page hull of {}.{} does not cover its entries",
                        key.0, key.1
                    )));
                }
                page.entries.push((d.oids[id as usize].clone(), ivs));
            }
            col.pages.push(page);
        }
        idx.boxes.insert(key, col);
    }
    r.finish()?;
    Ok(idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lyric_oodb::{AttrDef, ClassDef};

    /// `n` items with a weight, tags, a region and a reference, in a
    /// class and a subclass, plus a dataless literal instance.
    fn sample(n: i64) -> Database {
        let mut schema = Schema::new();
        schema
            .add_class(
                ClassDef::new("Item")
                    .attr(AttrDef::scalar("weight", AttrTarget::class("int")))
                    .attr(AttrDef::set("tags", AttrTarget::class("string")))
                    .attr(AttrDef::scalar("region", AttrTarget::cst(["w", "z"])))
                    .attr(AttrDef::scalar("next", AttrTarget::class("Item"))),
            )
            .unwrap();
        schema
            .add_class(ClassDef::new("Heavy").is_a("Item"))
            .unwrap();
        schema.add_class(ClassDef::new("Tag")).unwrap();
        let mut db = Database::new(schema).unwrap();
        db.declare_instance("Tag", Oid::str("red")).unwrap();
        let w = || LinExpr::var(Var::new("w"));
        for i in 0..n {
            let region = CstObject::new(
                vec![Var::new("w"), Var::new("z")],
                [
                    Conjunction::of([
                        Atom::ge(w(), LinExpr::from(i)),
                        Atom::le(w(), LinExpr::var(Var::new("q"))),
                        Atom::le(LinExpr::var(Var::new("q")), LinExpr::from(2 * i + 1)),
                    ]),
                    Conjunction::of([Atom::eq(
                        w() + LinExpr::term(Var::new("z"), lyric_arith::Rational::from_pair(3, 2)),
                        LinExpr::from(i),
                    )]),
                ],
            );
            db.insert(
                Oid::named(format!("item_{i}")),
                if i % 3 == 0 { "Heavy" } else { "Item" },
                [
                    ("weight", Value::Scalar(Oid::Int(i))),
                    (
                        "tags",
                        Value::set([Oid::str("red"), Oid::str(format!("t{i}"))]),
                    ),
                    ("region", Value::Scalar(Oid::cst(region))),
                    (
                        "next",
                        Value::Scalar(Oid::named(format!("item_{}", (i + 1) % n))),
                    ),
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn round_trip_is_byte_identical_and_installs_the_index() {
        let db = sample(10);
        let sections = encode_database(&db);
        let loaded = decode_database(&sections).expect("decodes");
        assert_eq!(encode_database(&loaded), sections);
        let installed = crate::index_for(&loaded);
        assert_eq!(
            loaded.index_slot().generation(),
            Some(loaded.data_generation())
        );
        assert_eq!(*installed, StoreIndex::build(&loaded));
        let a: Vec<_> = db.objects().collect();
        let b: Vec<_> = loaded.objects().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn cut_or_flipped_sections_are_errors_not_panics() {
        let sections = encode_database(&sample(10));
        for i in 0..sections.len() {
            for cut in 0..sections[i].1.len() {
                let mut edited = sections.clone();
                edited[i].1.truncate(cut);
                assert!(
                    decode_database(&edited).is_err(),
                    "section {i} cut at {cut}"
                );
            }
            for at in 0..sections[i].1.len() {
                let mut edited = sections.clone();
                edited[i].1[at] ^= 0xff;
                let _ = decode_database(&edited);
            }
        }
    }
}
