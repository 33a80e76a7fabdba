//! Memoization of interval boxes ([`IntervalBox::of_conjunction`]).
//!
//! The engine consults a conjunction's box before every LP-backed
//! satisfiability answer (see [`Conjunction::satisfiable`]); stored
//! constraint objects are re-tested once per enumerated binding, so the
//! box of a hot conjunction is recomputed constantly without a memo. The
//! cache mirrors the sat/entailment memo in [`crate::cache`] exactly —
//! process-global, hash-sharded maps whose values carry the
//! [`lyric_engine::generation`] they were stored under, cleared per shard
//! on overflow, with the (cheap, pure) computation run outside the lock.
//!
//! Two deliberate differences from the answer cache:
//!
//! * gating is [`lyric_engine::boxes_enabled`] (the `ExecOptions::boxes` /
//!   `LYRIC_BOXES` switch), not `cache_enabled`, so box pruning and answer
//!   memoization toggle independently;
//! * probes do **not** call `lyric_engine::note_cache` — the
//!   `cache_hits`/`cache_misses` counters report answer-memo behaviour
//!   only, and box probes happening underneath them would make those
//!   numbers depend on whether pruning is on. The box layer has its own
//!   `box_checks`/`box_prunes` counters at the call site instead.

use crate::conjunction::Conjunction;
use crate::interval::IntervalBox;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{LazyLock, Mutex, MutexGuard};

/// Number of hash-partitioned segments (matches [`crate::cache`]).
const SHARDS: usize = 16;

/// Per-shard entry bound; crossing it clears the shard.
const MAX_SHARD_ENTRIES: usize = 1_024;

/// Lock a shard, surviving poisoning (locks only guard pure map
/// operations, so the data is always consistent).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct ShardedBoxMemo {
    shards: Vec<Mutex<HashMap<Conjunction, (u64, IntervalBox)>>>,
}

impl ShardedBoxMemo {
    fn new() -> Self {
        ShardedBoxMemo {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, key: &Conjunction) -> &Mutex<HashMap<Conjunction, (u64, IntervalBox)>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    fn probe(&self, key: &Conjunction, generation: u64) -> Option<IntervalBox> {
        lock(self.shard(key))
            .get(key)
            .filter(|&&(g, _)| g == generation)
            .map(|(_, bx)| bx.clone())
    }

    fn insert(&self, key: Conjunction, generation: u64, bx: IntervalBox) {
        let mut shard = lock(self.shard(&key));
        if shard.len() >= MAX_SHARD_ENTRIES {
            shard.clear();
        }
        shard.insert(key, (generation, bx));
    }
}

static BOXES: LazyLock<ShardedBoxMemo> = LazyLock::new(ShardedBoxMemo::new);

/// Occupancy of the interval-box memo (see
/// [`crate::cache::CacheOccupancy`]).
pub fn occupancy() -> crate::cache::CacheOccupancy {
    crate::cache::CacheOccupancy {
        entries: BOXES.shards.iter().map(|s| lock(s).len()).sum(),
        capacity: SHARDS * MAX_SHARD_ENTRIES,
    }
}

/// The (memoized, when a boxes-enabled context is installed) interval box
/// of `c`. Outside any context, or with boxes disabled, this computes the
/// box directly without touching the cache.
pub(crate) fn box_of(c: &Conjunction) -> IntervalBox {
    if !lyric_engine::boxes_enabled() {
        return IntervalBox::of_conjunction(c);
    }
    let generation = lyric_engine::generation();
    if let Some(bx) = BOXES.probe(c, generation) {
        return bx;
    }
    // Compute outside the lock; duplicated work on a racing miss is
    // benign (the box is a pure function of the key, last write wins).
    let bx = IntervalBox::of_conjunction(c);
    BOXES.insert(c.clone(), generation, bx.clone());
    bx
}

#[cfg(test)]
mod tests {
    use crate::{Atom, Conjunction, LinExpr, Var};

    fn empty_box_conjunction() -> Conjunction {
        let x = LinExpr::var(Var::new("x"));
        Conjunction::of([
            Atom::ge(x.clone(), LinExpr::from(3)),
            Atom::le(x, LinExpr::from(1)),
        ])
    }

    #[test]
    fn box_of_works_without_a_context() {
        // Standalone library use: no context, no cache, still sound.
        assert!(super::box_of(&empty_box_conjunction()).is_empty());
    }

    #[test]
    fn cached_and_uncached_boxes_agree() {
        let c = empty_box_conjunction();
        let cold = super::box_of(&c);
        let opts = lyric_engine::ExecOptions::default().with_boxes(true);
        let (warm, _, _) = lyric_engine::run(opts, None, None, || {
            let first = super::box_of(&c); // miss: computes and stores
            let second = super::box_of(&c); // hit: returns the stored box
            assert_eq!(first, second);
            first
        });
        let warm = warm.unwrap();
        assert_eq!(cold, warm);
    }
}
