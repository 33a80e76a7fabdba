//! Binary snapshot persistence for constraint-object databases.
//!
//! A snapshot is a [`lyric_store::snapshot`] container (version 2) whose
//! sections hold the database in binary form — object count, variable
//! table, schema, oid table, attribute values with constraint objects as
//! atom arrays, and the store index (see [`lyric_store::encode_database`]
//! for the section table). Loading is proportional to the snapshot's
//! size: nothing is lexed or parsed, each stored constraint is
//! canonicalized once, and the persisted index is validated and installed
//! so the first query does not rebuild it.
//!
//! The encoding depends only on the database's content, so save → load →
//! save is byte-identical. Every structural failure — truncation, bad
//! magic, version skew, checksum mismatch, section layout, undecodable or
//! invalid payload, object-count drift — surfaces as
//! [`LyricError::SnapshotCorrupt`] and never as a partial [`Database`].
//! The textual dump of [`crate::storage`] is the interchange format; a
//! text file becomes a snapshot with `lyric-serve --db FILE --save-db
//! SNAP`.

use crate::error::LyricError;
use lyric_oodb::Database;
use lyric_store::snapshot::{read_container, write_container};
use lyric_store::{decode_database, encode_database};
use std::path::Path;

/// Serialize a database, with a fresh store index, to snapshot bytes.
pub fn to_bytes(db: &Database) -> Result<Vec<u8>, LyricError> {
    Ok(write_container(&encode_database(db)))
}

/// Decode and fully verify snapshot bytes into a database whose store
/// index is already installed.
pub fn from_bytes(bytes: &[u8]) -> Result<Database, LyricError> {
    Ok(decode_database(&read_container(bytes)?)?)
}

/// `Database::{save_snapshot, load_snapshot}` — file-level snapshot
/// persistence as method syntax on [`Database`].
pub trait SnapshotExt: Sized {
    /// Write a snapshot of `self` to `path` (atomicity is the caller's
    /// concern; the write is a single `std::fs::write`).
    fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(), LyricError>;

    /// Read and fully verify a snapshot file.
    fn load_snapshot(path: impl AsRef<Path>) -> Result<Self, LyricError>;
}

impl SnapshotExt for Database {
    fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(), LyricError> {
        let bytes = to_bytes(self)?;
        std::fs::write(path.as_ref(), bytes)
            .map_err(|e| LyricError::SnapshotCorrupt(format!("io: {e}")))
    }

    fn load_snapshot(path: impl AsRef<Path>) -> Result<Database, LyricError> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| LyricError::SnapshotCorrupt(format!("io: {e}")))?;
        from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;

    #[test]
    fn snapshot_round_trip_is_byte_identical() {
        let db = paper_example::database();
        let bytes = to_bytes(&db).expect("serializes");
        let reloaded = from_bytes(&bytes).expect("verifies");
        assert_eq!(to_bytes(&reloaded).expect("re-serializes"), bytes);
    }

    #[test]
    fn file_round_trip_answers_queries() {
        let db = paper_example::database();
        let path = std::env::temp_dir().join(format!("lyric_snapshot_{}.snap", std::process::id()));
        db.save_snapshot(&path).expect("writes");
        let mut reloaded = Database::load_snapshot(&path).expect("reads");
        std::fs::remove_file(&path).ok();
        let q = "SELECT CO FROM Office_Object CO WHERE CO.color['red']";
        let mut db = db;
        let before = crate::execute(&mut db, q).expect("original");
        let after = crate::execute(&mut reloaded, q).expect("reloaded");
        assert_eq!(before, after);
    }

    #[test]
    fn loaded_index_equals_a_rebuild() {
        let db = paper_example::database();
        let reloaded = from_bytes(&to_bytes(&db).expect("serializes")).expect("verifies");
        let installed = lyric_store::index_for(&reloaded);
        assert_eq!(
            reloaded.index_slot().generation(),
            Some(reloaded.data_generation())
        );
        assert_eq!(*installed, lyric_store::StoreIndex::build(&reloaded));
    }
}
