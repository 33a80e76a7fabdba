//! Corrupt-snapshot golden suite: every way a snapshot file can be
//! damaged must surface as a structured `LyricError::SnapshotCorrupt` —
//! no panics, and no partially-decoded `Database` ever escaping. Each
//! corruption mode pins the *message* too, so a regression that folds
//! two failure modes together (or starts panicking) is caught here.
//!
//! The container checks (magic, version, checksums, truncation, trailing
//! bytes) run on real snapshots. The section checks re-wrap edited
//! section payloads under valid checksums, so they reach the decoder:
//! truncated and reordered sections, out-of-range variable and oid ids,
//! index columns that disagree with the schema or the extents, and an
//! object count that drifts from the objects stored.

use lyric::snapshot::{from_bytes, to_bytes, SnapshotExt};
use lyric::store::snapshot::{read_container, write_container, Section, MAGIC};
use lyric::{paper_example, LyricError};
use lyric_constraint::{Atom, Conjunction, CstObject, LinExpr, Var};
use lyric_oodb::{AttrDef, AttrTarget, ClassDef, Database, Oid, Schema, Value};

fn snapshot_bytes() -> Vec<u8> {
    to_bytes(&paper_example::database()).expect("paper database encodes")
}

/// Decode must fail with `SnapshotCorrupt` and the message must contain
/// `needle` (the golden fragment naming the failure mode).
fn assert_corrupt(bytes: &[u8], needle: &str, label: &str) {
    match from_bytes(bytes) {
        Err(LyricError::SnapshotCorrupt(msg)) => assert!(
            msg.contains(needle),
            "{label}: expected {needle:?} in message, got: {msg}"
        ),
        Err(other) => panic!("{label}: wrong error kind: {other}"),
        Ok(_) => panic!("{label}: corrupt snapshot decoded successfully"),
    }
}

/// Truncation at *every* byte offset: always a structured error, never a
/// panic, never a partial database.
#[test]
fn truncation_at_every_offset_is_corrupt() {
    let bytes = snapshot_bytes();
    for cut in 0..bytes.len() {
        match from_bytes(&bytes[..cut]) {
            Err(LyricError::SnapshotCorrupt(_)) => {}
            Err(other) => panic!("cut at {cut}: wrong error kind: {other}"),
            Ok(_) => panic!("cut at {cut}: truncated snapshot decoded"),
        }
    }
}

#[test]
fn flipped_magic_is_corrupt() {
    let mut bytes = snapshot_bytes();
    bytes[0] ^= 0xff;
    assert_corrupt(&bytes, "bad magic", "flipped magic byte");
}

#[test]
fn wrong_version_tag_is_corrupt() {
    let mut bytes = snapshot_bytes();
    bytes[8] = 99; // version field follows the 8-byte magic
    assert_corrupt(&bytes, "unsupported snapshot version 99", "version skew");
}

/// A version-1 file (the textual dump in a `DBTX` section) is refused
/// with a message that says how to convert it.
#[test]
fn version_one_snapshot_names_the_text_conversion() {
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(b"DBTX");
    let text = lyric::storage::save(&paper_example::database()).expect("text dump");
    bytes.extend_from_slice(&(text.len() as u64).to_le_bytes());
    bytes.extend_from_slice(text.as_bytes());
    bytes.extend_from_slice(&lyric::store::snapshot::fnv64(text.as_bytes()).to_le_bytes());
    for needle in ["unsupported snapshot version 1 (expected 2)", "--save-db"] {
        assert_corrupt(&bytes, needle, "version-1 file");
    }
}

#[test]
fn flipped_payload_byte_fails_its_checksum() {
    let mut bytes = snapshot_bytes();
    // First payload byte of the first (META) section: after magic(8),
    // version(4), count(4), tag(4), len(8).
    bytes[28] ^= 0x01;
    assert_corrupt(
        &bytes,
        "checksum mismatch in section 'META'",
        "payload flip",
    );
}

#[test]
fn flipped_checksum_byte_is_corrupt() {
    let bytes = snapshot_bytes();
    // Corrupt the *stored checksum* of the last section instead of its
    // payload: the trailing 8 bytes of the file.
    let mut bad = bytes.clone();
    let n = bad.len();
    bad[n - 1] ^= 0xff;
    assert_corrupt(&bad, "checksum mismatch", "stored checksum flip");
}

/// Byte offsets of each section's payload and stored checksum in a
/// container.
fn section_offsets(sections: &[Section]) -> Vec<(String, usize, usize)> {
    let mut at = 8 + 4 + 4;
    sections
        .iter()
        .map(|(tag, payload)| {
            let payload_at = at + 4 + 8;
            at = payload_at + payload.len() + 8;
            (
                String::from_utf8_lossy(tag).into_owned(),
                payload_at,
                at - 8,
            )
        })
        .collect()
}

/// A flipped payload byte and a flipped stored checksum, in every
/// section, are each caught by that section's checksum.
#[test]
fn every_section_checksum_guards_its_payload() {
    let bytes = snapshot_bytes();
    let sections = read_container(&bytes).expect("decodes");
    assert_eq!(sections.len(), 6);
    for (tag, payload_at, sum_at) in section_offsets(&sections) {
        let needle = format!("checksum mismatch in section '{tag}'");
        for (at, what) in [
            (payload_at, "first payload byte"),
            (sum_at - 1, "last payload byte"),
            (sum_at, "stored checksum"),
        ] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            assert_corrupt(&bad, &needle, &format!("{tag} {what}"));
        }
    }
}

/// A section payload cut short — re-wrapped under a valid checksum, so
/// the decoder sees it — fails inside that section at every cut.
#[test]
fn truncation_inside_every_section_is_corrupt() {
    let sections = read_container(&snapshot_bytes()).expect("decodes");
    for i in 0..sections.len() {
        let tag = String::from_utf8_lossy(&sections[i].0).into_owned();
        let len = sections[i].1.len();
        let step = (len / 200).max(1);
        for cut in (1..len).step_by(step) {
            let mut edited = sections.clone();
            edited[i].1.truncate(cut);
            assert_corrupt(
                &write_container(&edited),
                &format!("section '{tag}'"),
                &format!("{tag} cut at {cut} of {len}"),
            );
        }
    }
}

/// Flipping any byte of any section and re-wrapping it under a valid
/// checksum may decode (a changed string is still a database) but never
/// panics, and an error is always `SnapshotCorrupt`.
#[test]
fn rewrapped_byte_flips_never_panic() {
    let sections = read_container(&snapshot_bytes()).expect("decodes");
    for i in 0..sections.len() {
        let len = sections[i].1.len();
        for at in (0..len).step_by((len / 150).max(1)) {
            for mask in [0x01, 0xff] {
                let mut edited = sections.clone();
                edited[i].1[at] ^= mask;
                match from_bytes(&write_container(&edited)) {
                    Ok(_) | Err(LyricError::SnapshotCorrupt(_)) => {}
                    Err(other) => panic!("section {i} byte {at}: wrong error kind: {other}"),
                }
            }
        }
    }
}

#[test]
fn zero_length_section_is_corrupt() {
    let bytes = write_container(&[(*b"META", vec![])]);
    assert_corrupt(&bytes, "zero-length section 'META'", "empty section");
}

#[test]
fn trailing_garbage_is_corrupt() {
    let mut bytes = snapshot_bytes();
    bytes.push(0);
    assert_corrupt(&bytes, "trailing bytes", "trailing garbage");
}

#[test]
fn wrong_section_layout_is_corrupt() {
    // A structurally valid container with the wrong sections.
    let bytes = write_container(&[(*b"WHAT", b"objects=0\n".to_vec())]);
    assert_corrupt(&bytes, "expected 6 sections", "wrong section count");
    // The right sections in the wrong order.
    let mut sections = read_container(&snapshot_bytes()).expect("decodes");
    sections.swap(1, 2);
    assert_corrupt(
        &write_container(&sections),
        "found 6 (META, SCHM, VARS, OIDS, OBJS, INDX)",
        "swapped VARS and SCHM",
    );
    // A section missing.
    let mut sections = read_container(&snapshot_bytes()).expect("decodes");
    sections.remove(5);
    assert_corrupt(&write_container(&sections), "found 5", "no INDX");
}

#[test]
fn undecodable_payload_is_corrupt() {
    // Valid container, valid layout, garbage object records inside.
    let mut sections = read_container(&snapshot_bytes()).expect("decodes");
    sections[4].1 = b"not a database dump".to_vec();
    assert_corrupt(
        &write_container(&sections),
        "section 'OBJS'",
        "garbage OBJS",
    );
}

#[test]
fn object_count_drift_is_corrupt() {
    // Re-wrap the real sections under a lying META count.
    let mut sections = read_container(&snapshot_bytes()).expect("decodes");
    sections[0].1 = 999_999u64.to_le_bytes().to_vec();
    assert_corrupt(
        &write_container(&sections),
        "declares 999999 objects",
        "META/OBJS drift",
    );
}

// ------------------------------------------------------------- hand-made

/// `Item(weight: int, label: string, region: CST(w,z), next: Item)` with
/// three items, plus `Other(weight: int)` with one object. Class ids:
/// `Item` 0, `Other` 1. Oid ids: `item_0..2` are 0..2, `other_0` is 3.
/// Var ids: `w` 0, `z` 1.
fn small_db() -> Database {
    let mut schema = Schema::new();
    schema
        .add_class(
            ClassDef::new("Item")
                .attr(AttrDef::scalar("weight", AttrTarget::class("int")))
                .attr(AttrDef::scalar("label", AttrTarget::class("string")))
                .attr(AttrDef::scalar("region", AttrTarget::cst(["w", "z"])))
                .attr(AttrDef::scalar("next", AttrTarget::class("Item"))),
        )
        .unwrap();
    schema
        .add_class(ClassDef::new("Other").attr(AttrDef::scalar("weight", AttrTarget::class("int"))))
        .unwrap();
    let mut db = Database::new(schema).unwrap();
    let var = |n: &str| LinExpr::var(Var::new(n));
    for i in 0..3i64 {
        let region = CstObject::from_conjunction(
            vec![Var::new("w"), Var::new("z")],
            Conjunction::of([
                Atom::ge(var("w"), LinExpr::from(10 * i)),
                Atom::le(var("w"), LinExpr::from(10 * i + 5)),
                Atom::ge(var("z"), LinExpr::from(0)),
                Atom::le(var("z"), LinExpr::from(1)),
            ]),
        );
        db.insert(
            Oid::named(format!("item_{i}")),
            "Item",
            [
                ("weight", Value::Scalar(Oid::Int(i))),
                ("label", Value::Scalar(Oid::str("L"))),
                ("region", Value::Scalar(Oid::cst(region))),
                (
                    "next",
                    Value::Scalar(Oid::named(format!("item_{}", (i + 1) % 3))),
                ),
            ],
        )
        .unwrap();
    }
    db.insert(
        Oid::named("other_0"),
        "Other",
        [("weight", Value::Scalar(Oid::Int(7)))],
    )
    .unwrap();
    db.validate_references().unwrap();
    db
}

fn small_sections() -> Vec<Section> {
    read_container(&to_bytes(&small_db()).expect("encodes")).expect("decodes")
}

/// Section payloads written by hand, in the snapshot's byte format.
#[derive(Default)]
struct Bytes(Vec<u8>);

impl Bytes {
    fn u8(mut self, v: u8) -> Self {
        self.0.push(v);
        self
    }
    fn u32(mut self, v: u32) -> Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    fn str(self, s: &str) -> Self {
        let mut out = self.u32(s.len() as u32);
        out.0.extend_from_slice(s.as_bytes());
        out
    }
    fn int(self, v: i64) -> Self {
        let mut out = self.u8(0);
        out.0.extend_from_slice(&v.to_le_bytes());
        out
    }
    /// A closed interval `[lo, hi]`.
    fn closed(self, lo: i64, hi: i64) -> Self {
        self.u8(0b0101).int(lo).int(hi)
    }
    /// An `INDX` payload: the given scalar columns, then box columns.
    fn index(scalars: (u32, Bytes), boxes: (u32, Bytes)) -> Vec<u8> {
        let mut out = Bytes::default().u32(scalars.0).0;
        out.extend(scalars.1 .0);
        out.extend(Bytes::default().u32(boxes.0).0);
        out.extend(boxes.1 .0);
        out
    }
}

/// An empty scalar column body after its key: no numbers, strings,
/// booleans or non-numeric postings.
fn empty_scalar(key: Bytes) -> Bytes {
    key.u32(0).u32(0).u32(0).u32(0)
}

fn with_index(index: Vec<u8>) -> Vec<u8> {
    let mut sections = small_sections();
    sections[5].1 = index;
    write_container(&sections)
}

#[test]
fn hand_made_index_sections_decode_as_written() {
    // Positive control for the byte helpers: an empty index and an empty
    // column are valid (a missing column or posting only prunes less).
    let empty = Bytes::index((0, Bytes::default()), (0, Bytes::default()));
    let db = from_bytes(&with_index(empty)).expect("an empty index is valid");
    assert_eq!(db.num_objects(), 4);
    let one = Bytes::index(
        (1, empty_scalar(Bytes::default().u32(0).str("weight"))),
        (0, Bytes::default()),
    );
    from_bytes(&with_index(one)).expect("an empty column is valid");
}

#[test]
fn out_of_range_var_id_is_corrupt() {
    let mut sections = small_sections();
    // Keep only `w`: the schema's CST(w,z) names var id 1.
    sections[1].1 = Bytes::default().u32(1).str("w").0;
    assert_corrupt(
        &write_container(&sections),
        "section 'SCHM': var id 1 out of range (table holds 1)",
        "var table cut",
    );
}

#[test]
fn out_of_range_oid_id_is_corrupt() {
    let mut sections = small_sections();
    // Drop `other_0` (id 3) from the oid table.
    let mut table = Bytes::default().u32(3);
    for i in 0..3 {
        table = table.u8(4).str(&format!("item_{i}"));
    }
    sections[3].1 = table.0;
    assert_corrupt(
        &write_container(&sections),
        "section 'OBJS': oid id 3 out of range (table holds 3)",
        "oid table cut",
    );
}

#[test]
fn unsorted_oid_table_is_corrupt() {
    let mut sections = small_sections();
    let mut table = Bytes::default().u32(4);
    for name in ["item_1", "item_0", "item_2", "other_0"] {
        table = table.u8(4).str(name);
    }
    sections[3].1 = table.0;
    assert_corrupt(
        &write_container(&sections),
        "oids are not sorted and distinct",
        "swapped oids",
    );
}

#[test]
fn index_column_on_a_missing_attribute_is_corrupt() {
    let index = Bytes::index(
        (1, empty_scalar(Bytes::default().u32(0).str("nope"))),
        (0, Bytes::default()),
    );
    assert_corrupt(
        &with_index(index),
        "scalar column Item.nope names no single-valued class attribute",
        "missing attribute",
    );
    // A scalar column over the CST attribute is the wrong kind.
    let index = Bytes::index(
        (1, empty_scalar(Bytes::default().u32(0).str("region"))),
        (0, Bytes::default()),
    );
    assert_corrupt(&with_index(index), "Item.region names no", "wrong kind");
    // A class id past the class table.
    let index = Bytes::index(
        (1, empty_scalar(Bytes::default().u32(9).str("weight"))),
        (0, Bytes::default()),
    );
    assert_corrupt(
        &with_index(index),
        "class id 9 out of range",
        "bad class id",
    );
}

#[test]
fn index_column_of_the_wrong_arity_is_corrupt() {
    let index = Bytes::index(
        (0, Bytes::default()),
        (1, Bytes::default().u32(0).str("region").u32(3).u32(0)),
    );
    assert_corrupt(
        &with_index(index),
        "box column Item.region of arity 3 names no CST attribute of that arity",
        "arity 3",
    );
}

#[test]
fn index_posting_outside_the_extent_is_corrupt() {
    // Item.weight posts other_0 (oid id 3), a member of Other only.
    let column = Bytes::default()
        .u32(0)
        .str("weight")
        .u32(1)
        .int(7)
        .u32(3)
        .u32(0)
        .u32(0)
        .u32(0);
    let index = Bytes::index((1, column), (0, Bytes::default()));
    assert_corrupt(
        &with_index(index),
        "column Item.weight posts other_0, not in the extent of Item",
        "non-extent posting",
    );
    // The same through a box entry.
    let boxes = Bytes::default()
        .u32(0)
        .str("region")
        .u32(2)
        .u32(1)
        .u32(1)
        .closed(0, 5)
        .closed(0, 1)
        .u32(3)
        .closed(0, 5)
        .closed(0, 1);
    let index = Bytes::index((0, Bytes::default()), (1, boxes));
    assert_corrupt(&with_index(index), "posts other_0", "non-extent box entry");
}

#[test]
fn unsorted_postings_are_corrupt() {
    let column = Bytes::default()
        .u32(0)
        .str("weight")
        .u32(2)
        .int(1)
        .u32(1)
        .int(0)
        .u32(0)
        .u32(0)
        .u32(0)
        .u32(0);
    let index = Bytes::index((1, column), (0, Bytes::default()));
    assert_corrupt(
        &with_index(index),
        "numeric postings are not sorted",
        "nums",
    );
    let column = empty_scalar(Bytes::default().u32(0).str("weight"));
    let mut column = column.0;
    column.truncate(column.len() - 4);
    let column = Bytes(column).u32(2).u32(2).u32(1);
    let index = Bytes::index((1, column), (0, Bytes::default()));
    assert_corrupt(&with_index(index), "not strictly increasing", "nonnum");
}

#[test]
fn page_hull_must_cover_its_entries() {
    let boxes = Bytes::default()
        .u32(0)
        .str("region")
        .u32(2)
        .u32(1)
        .u32(1)
        .closed(0, 1)
        .closed(0, 1)
        .u32(0)
        .closed(0, 5)
        .closed(0, 1);
    let index = Bytes::index((0, Bytes::default()), (1, boxes));
    assert_corrupt(
        &with_index(index),
        "a page hull of Item.region does not cover its entries",
        "narrow hull",
    );
}

/// The file-level loader wraps I/O failures the same way: a missing path
/// is `SnapshotCorrupt`, not a panic.
#[test]
fn missing_file_is_corrupt_not_a_panic() {
    let err = Database::load_snapshot("/nonexistent/lyric_nope.snap")
        .expect_err("missing file must not load");
    assert!(
        matches!(err, LyricError::SnapshotCorrupt(_)),
        "wrong error kind: {err}"
    );
}

/// A corrupt file on disk round-trips through the same structured error,
/// and a good file loads a database that answers queries — the positive
/// control for the suite.
#[test]
fn file_level_corruption_and_recovery() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("lyric_corrupt_suite_{}.snap", std::process::id()));
    let db = paper_example::database();
    db.save_snapshot(&path).expect("snapshot saves");

    // Flip one byte in the middle of the file on disk.
    let mut bytes = std::fs::read(&path).expect("file readable");
    assert_eq!(&bytes[..8], &MAGIC, "snapshot starts with the magic");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&path, &bytes).expect("file writable");
    let err = Database::load_snapshot(&path).expect_err("corrupt file must not load");
    assert!(
        matches!(err, LyricError::SnapshotCorrupt(_)),
        "wrong error kind: {err}"
    );

    // Restore it; loading works again and the database answers.
    bytes[mid] ^= 0x20;
    std::fs::write(&path, &bytes).expect("file writable");
    let reloaded = Database::load_snapshot(&path).expect("restored file loads");
    let res = lyric::execute_shared(
        &reloaded,
        "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]",
        &lyric::ExecOptions::default(),
    )
    .expect("reloaded database answers");
    assert!(!res.rows.is_empty());
    let _ = std::fs::remove_file(&path);
}
