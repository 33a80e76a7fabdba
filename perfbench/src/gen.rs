//! Seeded inputs: the workload databases, the op streams, and the
//! expected answer of every op.
//!
//! Everything here is a function of the seed alone. Expected answers for
//! the `probe` and `ingest` streams come from a plain shadow of each
//! item's region corner, kept by the generator and never read back from
//! the database; `office` answers come from a reference evaluation
//! supplied by the caller.

use lyric::oodb::{Oid, Value};
use lyric::paper_example::box2;
use lyric_bench::workload::{q_region_window, q_weight_eq, q_weight_ge, rng, Q_LINEAR, Q_PAIRWISE};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Salt separating the op-stream RNG from the data RNG of the same seed.
const OPS_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Distinct `(x, y)` constant pairs the office q2 text is drawn from.
const Q2_POOL: usize = 8;

/// Rows a `weight >= n - j` probe returns at most.
const MAX_RANGE_ROWS: i64 = 50;

/// Region boxes are `BOX_SIDE` wide in both coordinates, as in E16.
const BOX_SIDE: i64 = 10;

/// The §4.1 worked-example queries (the `report` binary's E1 set).
pub const Q1: &str = "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]";
pub const Q4: &str = "SELECT DSK, ((w,z) | DSK.drawer.extent(w,z) AND z >= w)
     FROM Desk DSK
     WHERE DSK.color = 'red' AND DSK.drawer_center[C] AND (C(p,q) |= p = 0)";
pub const Q5: &str = "SELECT DSK FROM Object_In_Room O, Desk DSK
     WHERE O.catalog_object[DSK] AND O.location[L]
       AND DSK.drawer_center[C] AND DSK.translation[D]
       AND DSK.drawer.extent[DRE] AND DSK.drawer.translation[DRD]
       AND (C(p,q) AND DRE(w1,z1) AND DRD(w1,z1,x1,y1,u1,v1)
            AND D(w,z,x,y,u,v) AND L(x,y) AND w = u1 AND z = v1
            AND 0 < u AND u < 20 AND 0 < v AND v < 10)";
pub const Q_LP: &str = "SELECT MAX(w + z SUBJECT TO ((w,z) | E)), MIN(w SUBJECT TO ((w,z) | E))
     FROM Desk D WHERE D.extent[E]";

/// q2: the extent of each catalog object in room coordinates, centered
/// at `(x, y)`.
pub fn q2(x: i64, y: i64) -> String {
    format!(
        "SELECT CO, ((u,v) | E AND D AND x = {x} AND y = {y})
     FROM Office_Object CO WHERE CO.extent[E] AND CO.translation[D]"
    )
}

/// What an op asks; the per-layer pass derives its index probe from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Q1,
    Q2,
    Q4,
    Q5,
    Lp,
    Linear,
    Pairwise,
    /// `weight = k`.
    WeightEq(i64),
    /// `weight >= lo`.
    WeightGe(i64),
    /// `region` meets the strip `lo <= a <= lo + 10, b >= 0`.
    Window(i64),
}

/// The answer an op must produce.
#[derive(Debug)]
pub enum Expect {
    /// Exactly these rows, in this order, each cell as the oid's text.
    Rows(Arc<Vec<Vec<String>>>),
    /// One-column rows naming exactly these items (sorted indices).
    Items(Vec<u32>),
}

#[derive(Debug)]
pub enum Op {
    Read {
        shape: Shape,
        text: Arc<str>,
        expect: Expect,
    },
    /// Give `item` the region box with lower-left corner `(x, y)`.
    Write { item: u32, x: i64, y: i64 },
}

/// The oid of item `i`.
pub fn item_oid(i: u32) -> Oid {
    Oid::named(format!("item_{i}"))
}

/// The stored `region` value for a box with lower-left corner `(x, y)`.
pub fn region(x: i64, y: i64) -> Value {
    Value::Scalar(Oid::cst(box2("u", "v", x, x + BOX_SIDE, y, y + BOX_SIDE)))
}

/// The lower-left region corner of each item of
/// `lyric_bench::workload::scaling_db(n, seed)`: the generator's draws,
/// replayed, so the oracle never reads the database it checks.
pub fn draw_items(n: usize, seed: u64) -> Vec<(i64, i64)> {
    let mut r = rng(seed);
    (0..n)
        .map(|_| {
            let x = r.gen_range(0..n.max(1) as i64);
            let y = r.gen_range(0..1000i64);
            (x, y)
        })
        .collect()
}

/// The generator's own record of every item's region `x` corner, the
/// only coordinate the window probe constrains (every `y` is `>= 0`).
struct Shadow {
    x: Vec<i64>,
    by_x: BTreeSet<(i64, u32)>,
}

impl Shadow {
    fn new(corners: &[(i64, i64)]) -> Shadow {
        let x: Vec<i64> = corners.iter().map(|c| c.0).collect();
        let by_x = x.iter().enumerate().map(|(i, &x)| (x, i as u32)).collect();
        Shadow { x, by_x }
    }

    fn move_item(&mut self, item: u32, x: i64) {
        self.by_x.remove(&(self.x[item as usize], item));
        self.by_x.insert((x, item));
        self.x[item as usize] = x;
    }

    /// Items whose box `[x, x + 10]` meets `[lo, lo + 10]`.
    fn window(&self, lo: i64) -> Vec<u32> {
        let mut items: Vec<u32> = self
            .by_x
            .range((lo - BOX_SIDE, 0)..=(lo + BOX_SIDE, u32::MAX))
            .map(|&(_, i)| i)
            .collect();
        items.sort_unstable();
        items
    }
}

/// Fisher–Yates over the rand shim, which has no `shuffle`.
fn shuffle<T>(r: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, r.gen_range(0..=i));
    }
}

/// A uniform mix drawn in shuffled rounds: every round holds each kind
/// once, so a prefix of any length is within one round of the exact mix.
struct Rounds<T: Copy> {
    kinds: Vec<T>,
    pending: Vec<T>,
}

impl<T: Copy> Rounds<T> {
    fn new(kinds: &[T]) -> Rounds<T> {
        Rounds {
            kinds: kinds.to_vec(),
            pending: Vec::new(),
        }
    }

    fn next(&mut self, r: &mut StdRng) -> T {
        if self.pending.is_empty() {
            self.pending = self.kinds.clone();
            shuffle(r, &mut self.pending);
        }
        self.pending.pop().expect("refilled above")
    }
}

/// The `office` stream: a uniform mix of the five §4.1 texts (q2's
/// constants from a seeded pool of [`Q2_POOL`] pairs), E2 linear and E2
/// pairwise. `oracle` gives the reference answer of each distinct text;
/// it runs once per text, before the first op is built.
pub fn office_ops(
    seed: u64,
    len: usize,
    mut oracle: impl FnMut(&str) -> Vec<Vec<String>>,
) -> Vec<Op> {
    let mut r = rng(seed ^ OPS_SALT);
    let mut entry = |shape: Shape, text: String| {
        let answer = Arc::new(oracle(&text));
        (shape, Arc::<str>::from(text), answer)
    };
    let fixed = [
        entry(Shape::Q1, Q1.to_string()),
        entry(Shape::Q4, Q4.to_string()),
        entry(Shape::Q5, Q5.to_string()),
        entry(Shape::Lp, Q_LP.to_string()),
        entry(Shape::Linear, Q_LINEAR.to_string()),
        entry(Shape::Pairwise, Q_PAIRWISE.to_string()),
    ];
    let q2_pool: Vec<_> = (0..Q2_POOL)
        .map(|_| {
            let (x, y) = (r.gen_range(0..=20i64), r.gen_range(0..=10i64));
            entry(Shape::Q2, q2(x, y))
        })
        .collect();
    let mut rounds = Rounds::new(&[
        Shape::Q1,
        Shape::Q2,
        Shape::Q4,
        Shape::Q5,
        Shape::Lp,
        Shape::Linear,
        Shape::Pairwise,
    ]);
    (0..len)
        .map(|_| {
            let (shape, text, answer) = match rounds.next(&mut r) {
                Shape::Q2 => &q2_pool[r.gen_range(0..Q2_POOL)],
                shape => fixed.iter().find(|e| e.0 == shape).expect("a fixed text"),
            };
            Op::Read {
                shape: *shape,
                text: text.clone(),
                expect: Expect::Rows(answer.clone()),
            }
        })
        .collect()
}

#[derive(Clone, Copy)]
enum ProbeKind {
    Eq,
    Ge,
    Window,
}

/// One read of the probe mix with seeded keys, answered from the shadow.
fn probe_read(r: &mut StdRng, kind: ProbeKind, shadow: &Shadow) -> Op {
    let n = shadow.x.len() as i64;
    let (shape, text, items) = match kind {
        ProbeKind::Eq => {
            let k = r.gen_range(0..n);
            (Shape::WeightEq(k), q_weight_eq(k), vec![k as u32])
        }
        ProbeKind::Ge => {
            let lo = (n - r.gen_range(1..=MAX_RANGE_ROWS)).max(0);
            (
                Shape::WeightGe(lo),
                q_weight_ge(lo),
                (lo as u32..n as u32).collect(),
            )
        }
        ProbeKind::Window => {
            let lo = r.gen_range(0..n);
            (Shape::Window(lo), q_region_window(lo), shadow.window(lo))
        }
    };
    Op::Read {
        shape,
        text: text.into(),
        expect: Expect::Items(items),
    }
}

const PROBE_KINDS: [ProbeKind; 3] = [ProbeKind::Eq, ProbeKind::Ge, ProbeKind::Window];

/// The `probe` stream: a uniform mix of weight equality, top-slice range
/// and region window reads with seeded keys.
pub fn probe_ops(seed: u64, corners: &[(i64, i64)], len: usize) -> Vec<Op> {
    let mut r = rng(seed ^ OPS_SALT);
    let shadow = Shadow::new(corners);
    let mut rounds = Rounds::new(&PROBE_KINDS);
    (0..len)
        .map(|_| {
            let kind = rounds.next(&mut r);
            probe_read(&mut r, kind, &shadow)
        })
        .collect()
}

/// The `ingest` stream: in every round of five ops one is a write that
/// moves a random item's region to a new seeded corner, and four are
/// reads of the probe mix. Each read's answer reflects every earlier
/// write of the stream.
pub fn ingest_ops(seed: u64, corners: &[(i64, i64)], len: usize) -> Vec<Op> {
    let mut r = rng(seed ^ OPS_SALT);
    let mut shadow = Shadow::new(corners);
    let n = corners.len();
    let mut rounds = Rounds::new(&PROBE_KINDS);
    let mut write_at = 0;
    (0..len)
        .map(|i| {
            if i % 5 == 0 {
                write_at = i + r.gen_range(0..5);
            }
            if i == write_at {
                let item = r.gen_range(0..n) as u32;
                let (x, y) = (r.gen_range(0..n as i64), r.gen_range(0..1000i64));
                shadow.move_item(item, x);
                Op::Write { item, x, y }
            } else {
                let kind = rounds.next(&mut r);
                probe_read(&mut r, kind, &shadow)
            }
        })
        .collect()
}

/// FNV-1a over every op's text (reads) or coordinates (writes): two runs
/// with the same hash sent the same stream.
pub fn stream_hash(ops: &[Op]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for op in ops {
        match op {
            Op::Read { text, .. } => eat(text.as_bytes()),
            Op::Write { item, x, y } => eat(format!("W{item},{x},{y}").as_bytes()),
        }
        eat(b"\n");
    }
    h
}

/// Does an answer (rows of oid texts) match the expectation?
pub fn check(rows: &[Vec<String>], expect: &Expect) -> bool {
    match expect {
        Expect::Rows(want) => rows == want.as_slice(),
        Expect::Items(want) => {
            let mut got = Vec::with_capacity(rows.len());
            for row in rows {
                let [cell] = row.as_slice() else { return false };
                match cell
                    .strip_prefix("item_")
                    .and_then(|i| i.parse::<u32>().ok())
                {
                    Some(i) => got.push(i),
                    None => return false,
                }
            }
            got.sort_unstable();
            got == *want
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drawn_corners_are_the_stored_regions() {
        for seed in [1, 7] {
            let db = lyric_bench::workload::scaling_db(300, seed);
            for (i, &(x, y)) in draw_items(300, seed).iter().enumerate() {
                let stored = db.attr(&item_oid(i as u32), "region").cloned();
                assert_eq!(stored, Some(region(x, y)), "seed {seed}, item {i}");
            }
        }
    }

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds() {
        let corners = draw_items(200, 3);
        let a = stream_hash(&ingest_ops(3, &corners, 500));
        assert_eq!(a, stream_hash(&ingest_ops(3, &corners, 500)));
        assert_ne!(a, stream_hash(&ingest_ops(4, &corners, 500)));
    }

    #[test]
    fn every_round_of_five_ingest_ops_holds_one_write() {
        let ops = ingest_ops(5, &draw_items(100, 5), 1000);
        for round in ops.chunks(5) {
            let writes = round
                .iter()
                .filter(|op| matches!(op, Op::Write { .. }))
                .count();
            assert_eq!(writes, 1);
        }
    }

    #[test]
    fn window_answers_follow_writes() {
        let mut shadow = Shadow::new(&[(0, 0), (15, 0), (40, 0)]);
        assert_eq!(shadow.window(5), vec![0, 1]);
        shadow.move_item(2, 12);
        assert_eq!(shadow.window(5), vec![0, 1, 2]);
        shadow.move_item(0, 100);
        assert_eq!(shadow.window(5), vec![1, 2]);
    }

    #[test]
    fn check_flags_wrong_missing_and_extra_rows() {
        let rows = |names: &[&str]| -> Vec<Vec<String>> {
            names.iter().map(|n| vec![n.to_string()]).collect()
        };
        let want = Expect::Items(vec![2, 10]);
        assert!(check(&rows(&["item_10", "item_2"]), &want));
        assert!(!check(&rows(&["item_10"]), &want));
        assert!(!check(&rows(&["item_10", "item_2", "item_3"]), &want));
        assert!(!check(&rows(&["item_10", "item_3"]), &want));
        assert!(!check(&rows(&["item_10", "desk"]), &want));
        let want = Expect::Rows(Arc::new(rows(&["a", "b"])));
        assert!(check(&rows(&["a", "b"]), &want));
        assert!(!check(&rows(&["b", "a"]), &want));
    }
}
