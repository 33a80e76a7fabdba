//! Memoization of satisfiability and entailment answers and of interval
//! boxes.
//!
//! Query evaluation re-asks the same questions constantly: the same stored
//! constraint object is tested for feasibility once per binding, and
//! entailment predicates re-derive `C ∧ ¬a` for every enumerated row. Both
//! answers depend only on the conjunction itself — [`Conjunction`] is kept
//! normalized and ordered by construction, so the value *is* its canonical
//! cache key. The engine also consults a conjunction's box before every
//! LP-backed satisfiability answer (see [`Conjunction::satisfiable`]), so
//! the box of a hot conjunction is memoized the same way.
//!
//! The memos are *query-scoped*: one [`QueryMemos`] lives in the running
//! query's engine context ([`lyric_engine::with_query_memo`]), is shared
//! by the worker threads of its parallel regions, and is dropped when the
//! query's `lyric_engine::run` returns, so no entry outlives the query
//! that computed it. Each map is *sharded*: split across [`SHARDS`]
//! hash-partitioned segments behind their own mutexes, so workers share
//! entries without contending on one lock. Each shard is bounded: on
//! overflow it is cleared rather than grown, keeping a query's worst-case
//! memory flat. Outside any context nothing is memoized; standalone
//! library use pays nothing.
//!
//! Gating differs per memo. The answer memos are consulted only when the
//! context enables caching ([`lyric_engine::cache_enabled`]) and report
//! `cache_hits`/`cache_misses`. The box memo follows
//! [`lyric_engine::boxes_enabled`] (box pruning and answer memoization
//! toggle independently) and does **not** call `note_cache`: box probes
//! underneath the answer memo would make those counters depend on
//! whether pruning is on. The box layer has its own
//! `box_checks`/`box_prunes` counters at the call site instead.
//!
//! Solving happens *outside* the shard lock, so two threads missing on the
//! same key may both solve it (benign duplicated work, last write wins);
//! a lock is only ever held for a probe or an insert, never across a
//! recursive solve, which also rules out lock-order deadlocks.

use crate::atom::Atom;
use crate::conjunction::Conjunction;
use crate::interval::IntervalBox;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Number of hash-partitioned segments per memo. More shards than any
/// plausible thread budget, so workers rarely collide on a lock.
const SHARDS: usize = 16;

/// Per-shard entry bound; crossing it clears the shard.
const MAX_SHARD_ENTRIES: usize = 1_024;

/// Lock a shard, surviving poisoning: a budget abort can unwind a worker
/// thread at any `note` site, but never while a shard lock is held (locks
/// only guard pure map operations), so the data is always consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One bounded, sharded memo map. `held` counts the entries of every
/// live map of its kind, across in-flight queries, for
/// [`CacheOccupancy`]; a map gives its entries back when it is cleared or
/// dropped.
struct ShardedMemo<K, V> {
    shards: Vec<Mutex<HashMap<K, V>>>,
    held: &'static AtomicUsize,
}

impl<K: Hash + Eq, V: Clone> ShardedMemo<K, V> {
    fn new(held: &'static AtomicUsize) -> Self {
        ShardedMemo {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            held,
        }
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    fn probe(&self, key: &K) -> Option<V> {
        lock(self.shard(key)).get(key).cloned()
    }

    fn insert(&self, key: K, value: V) {
        let mut shard = lock(self.shard(&key));
        if shard.len() >= MAX_SHARD_ENTRIES {
            self.held.fetch_sub(shard.len(), Ordering::Relaxed);
            shard.clear();
        }
        if shard.insert(key, value).is_none() {
            self.held.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl<K, V> Drop for ShardedMemo<K, V> {
    fn drop(&mut self) {
        let len: usize = self.shards.iter().map(|s| lock(s).len()).sum();
        self.held.fetch_sub(len, Ordering::Relaxed);
    }
}

static SAT_HELD: AtomicUsize = AtomicUsize::new(0);
static ENTAIL_HELD: AtomicUsize = AtomicUsize::new(0);
static BOX_HELD: AtomicUsize = AtomicUsize::new(0);

/// The memos of one query, stored in its engine context.
struct QueryMemos {
    sat: ShardedMemo<Conjunction, bool>,
    entail: ShardedMemo<(Conjunction, Atom), bool>,
    boxes: ShardedMemo<Conjunction, IntervalBox>,
}

impl Default for QueryMemos {
    fn default() -> Self {
        QueryMemos {
            sat: ShardedMemo::new(&SAT_HELD),
            entail: ShardedMemo::new(&ENTAIL_HELD),
            boxes: ShardedMemo::new(&BOX_HELD),
        }
    }
}

/// Point-in-time occupancy of one memo kind, for the `/debug/caches`
/// introspection surface. `entries` counts the entries held by the
/// queries in flight; `capacity` is the bound on one query's memo
/// (shards × per-shard limit) past which a shard clears.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheOccupancy {
    /// Entries currently held, across every in-flight query.
    pub entries: usize,
    /// Bound on the entries one query holds: shard count × per-shard
    /// entry limit.
    pub capacity: usize,
}

fn occupancy(held: &AtomicUsize) -> CacheOccupancy {
    CacheOccupancy {
        entries: held.load(Ordering::Relaxed),
        capacity: SHARDS * MAX_SHARD_ENTRIES,
    }
}

/// Occupancy of the satisfiability memos.
pub fn sat_occupancy() -> CacheOccupancy {
    occupancy(&SAT_HELD)
}

/// Occupancy of the entailment memos.
pub fn entail_occupancy() -> CacheOccupancy {
    occupancy(&ENTAIL_HELD)
}

/// Occupancy of the interval-box memos.
pub fn box_occupancy() -> CacheOccupancy {
    occupancy(&BOX_HELD)
}

fn memoized<K: Hash + Eq>(
    memo: fn(&QueryMemos) -> &ShardedMemo<K, bool>,
    key: impl FnOnce() -> K,
    solve: impl FnOnce() -> bool,
) -> bool {
    if !lyric_engine::cache_enabled() {
        return solve();
    }
    let key = key();
    let hit = lyric_engine::with_query_memo(|m: &QueryMemos| memo(m).probe(&key)).flatten();
    if let Some(answer) = hit {
        lyric_engine::note_cache(true);
        return answer;
    }
    lyric_engine::note_cache(false);
    // Solve *outside* the lock: the solve path may recurse into another
    // cached query (entailment probes satisfiability underneath).
    let answer = solve();
    lyric_engine::with_query_memo(|m: &QueryMemos| memo(m).insert(key, answer));
    answer
}

/// Memoized satisfiability: `solve` runs on a miss and its answer is stored
/// under `c`'s value.
pub(crate) fn satisfiable(c: &Conjunction, solve: impl FnOnce() -> bool) -> bool {
    memoized(|m| &m.sat, || c.clone(), solve)
}

/// Memoized single-atom entailment, keyed on the (conjunction, atom) pair.
pub(crate) fn entails(c: &Conjunction, a: &Atom, solve: impl FnOnce() -> bool) -> bool {
    memoized(|m| &m.entail, || (c.clone(), a.clone()), solve)
}

/// The (memoized, when a boxes-enabled context is installed) interval box
/// of `c`. Outside any context, or with boxes disabled, this computes the
/// box directly without touching a memo.
pub(crate) fn box_of(c: &Conjunction) -> IntervalBox {
    if !lyric_engine::boxes_enabled() {
        return IntervalBox::of_conjunction(c);
    }
    if let Some(bx) = lyric_engine::with_query_memo(|m: &QueryMemos| m.boxes.probe(c)).flatten() {
        return bx;
    }
    // Compute outside the lock; duplicated work on a racing miss is
    // benign (the box is a pure function of the key, last write wins).
    let bx = IntervalBox::of_conjunction(c);
    // Only boxes that do not prune are stored. An empty box ends the
    // check at once, and the conjunctions it prunes are mostly one-off
    // join products (each pair of a pairwise join is tested once): a
    // stored key would cost a full conjunction copy for no hit.
    if !bx.is_empty() {
        lyric_engine::with_query_memo(|m: &QueryMemos| m.boxes.insert(c.clone(), bx.clone()));
    }
    bx
}

#[cfg(test)]
mod tests {
    use crate::{Atom, Conjunction, LinExpr, Var};
    use lyric_engine::{run_with, EngineBudget};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn x_box() -> Conjunction {
        let x = LinExpr::var(Var::new("x"));
        Conjunction::of([
            Atom::ge(x.clone(), LinExpr::from(0)),
            Atom::le(x, LinExpr::from(10)),
        ])
    }

    #[test]
    fn repeated_sat_checks_hit_the_cache() {
        let c = x_box();
        let ((), stats) = run_with(EngineBudget::unlimited(), true, || {
            assert!(c.satisfiable());
            assert!(c.satisfiable());
            assert!(c.satisfiable());
        })
        .unwrap();
        assert_eq!(stats.sat_checks, 3);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 2);
    }

    #[test]
    fn cache_disabled_context_never_probes() {
        let c = x_box();
        let ((), stats) = run_with(EngineBudget::unlimited(), false, || {
            assert!(c.satisfiable());
            assert!(c.satisfiable());
        })
        .unwrap();
        assert_eq!(stats.cache_hits + stats.cache_misses, 0);
        assert_eq!(stats.lp_runs, 2);
    }

    #[test]
    fn entailment_answers_are_cached_per_atom() {
        let c = x_box();
        let a = Atom::le(LinExpr::var(Var::new("x")), LinExpr::from(20));
        let ((), stats) = run_with(EngineBudget::unlimited(), true, || {
            assert!(c.implies_atom(&a));
            assert!(c.implies_atom(&a));
        })
        .unwrap();
        assert_eq!(stats.entailment_checks, 2);
        assert!(stats.cache_hits >= 1, "second probe must hit: {stats}");
    }

    #[test]
    fn generations_isolate_contexts() {
        let c = x_box();
        let ((), first) =
            run_with(EngineBudget::unlimited(), true, || assert!(c.satisfiable())).unwrap();
        assert_eq!(first.cache_misses, 1);
        // A fresh context must not see the previous context's entries.
        let ((), second) =
            run_with(EngineBudget::unlimited(), true, || assert!(c.satisfiable())).unwrap();
        assert_eq!(second.cache_hits, 0);
        assert_eq!(second.cache_misses, 1);
    }

    #[test]
    fn workers_share_their_querys_entries() {
        // One parallel region: the first evaluation of each distinct key
        // misses, every repeat — on whichever worker — hits, because all
        // workers share the query's memo (and no other query's inserts
        // can clear it).
        let c = x_box();
        let opts = lyric_engine::ExecOptions::default().with_threads(4);
        let (value, stats, _) = lyric_engine::run(opts, None, None, || {
            assert!(c.satisfiable()); // miss, on the coordinator
            let items = [(); 8];
            let answers = lyric_engine::parallel_map(&items, |_, _| c.satisfiable());
            assert!(answers.into_iter().all(|a| a));
        });
        value.unwrap();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 8);
    }

    fn empty_box_conjunction() -> Conjunction {
        let x = LinExpr::var(Var::new("x"));
        Conjunction::of([
            Atom::ge(x.clone(), LinExpr::from(3)),
            Atom::le(x, LinExpr::from(1)),
        ])
    }

    #[test]
    fn box_of_works_without_a_context() {
        // Standalone library use: no context, no memo, still sound.
        assert!(super::box_of(&empty_box_conjunction()).is_empty());
    }

    #[test]
    fn cached_and_uncached_boxes_agree() {
        let x = LinExpr::var(Var::new("x"));
        let wide = Conjunction::of([Atom::ge(x, LinExpr::from(3))]);
        let empty = empty_box_conjunction();
        let stored = |c: &Conjunction| {
            lyric_engine::with_query_memo(|m: &super::QueryMemos| m.boxes.probe(c))
                .flatten()
                .is_some()
        };
        let opts = lyric_engine::ExecOptions::default().with_boxes(true);
        let (warm, _, _) = lyric_engine::run(opts, None, None, || {
            let first = super::box_of(&wide); // miss: computes and stores
            assert!(stored(&wide));
            let second = super::box_of(&wide); // hit: returns the stored box
            assert_eq!(first, second);
            // A pruning (empty) box is computed but never stored.
            assert!(super::box_of(&empty).is_empty());
            assert!(!stored(&empty));
            first
        });
        assert_eq!(super::box_of(&wide), warm.unwrap());
    }

    #[test]
    fn memos_give_back_their_entries_when_cleared_or_dropped() {
        static HELD: AtomicUsize = AtomicUsize::new(0);
        let memo = super::ShardedMemo::<u64, bool>::new(&HELD);
        for k in 0..(super::SHARDS * super::MAX_SHARD_ENTRIES * 2) as u64 {
            memo.insert(k, true);
            memo.insert(k, false); // an overwrite holds no new entry
        }
        let held: usize = memo.shards.iter().map(|s| super::lock(s).len()).sum();
        assert_eq!(HELD.load(Ordering::Relaxed), held);
        assert!(held <= super::SHARDS * super::MAX_SHARD_ENTRIES);
        drop(memo);
        assert_eq!(HELD.load(Ordering::Relaxed), 0);
    }
}
