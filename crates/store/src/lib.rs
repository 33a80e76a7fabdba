//! `lyric-store` — the immutable, snapshot-persistent storage layer
//! behind [`lyric_oodb::Database`].
//!
//! Two halves, both dependency-free:
//!
//! * **The store index** ([`StoreIndex`], built by [`index_for`]): a
//!   sorted columnar index over `(class, attribute, scalar value)` with
//!   oid postings for equality/range probes, plus a paged bounding-box
//!   index over CST attributes (each object's `IntervalBox`, packed into
//!   hulled pages — a two-level packed R-tree) so FROM bindings can be
//!   pruned by box intersection *before* any formula is instantiated.
//!   The index is immutable and stamped with the
//!   [`Database::data_generation`](lyric_oodb::Database::data_generation)
//!   it was built at, and cached on the database's
//!   [`IndexSlot`](lyric_oodb::IndexSlot). Writes after a build surface
//!   through the **novelty overlay** — a sorted run of touched oids that
//!   [`merge_with_novelty`] folds into every probe result, so a stale
//!   index stays sound (it may under-prune, never over-prune) and is
//!   reused until the writes cross a rebuild threshold or the schema
//!   changes.
//!
//! * **Snapshots**: a versioned, hand-rolled binary container
//!   ([`snapshot`]) — magic + version header followed by
//!   length-prefixed, FNV-1a-checksummed sections — holding a database
//!   and its index as binary sections ([`encode_database`],
//!   [`decode_database`]): variable and oid tables, the schema, the
//!   attribute values with constraints as atom arrays, and the index's
//!   columns. Loading validates everything and installs the index, so
//!   the first query does not rebuild it. Every corruption mode
//!   (truncation, bit flips, version skew, empty sections, trailing
//!   bytes, invalid sections) is reported as a structured
//!   [`snapshot::SnapshotError`].
//!
//! Probe soundness contract: every probe returns a *superset* of the
//! oids that could satisfy the probed predicate under full-scan
//! evaluation, including any object on which the scan would *error*
//! (e.g. an ordered comparison against a non-numeric or missing
//! attribute). Pruning the complement is therefore observationally free.

mod bytes;
mod index;
mod sections;
pub mod snapshot;

pub use index::{
    index_for, intersect_sorted, merge_with_novelty, BoxColumn, BoxPage, ScalarColumn, StoreIndex,
    BOX_PAGE,
};
pub use sections::{decode_database, encode_database};
