//! Little-endian primitives for the snapshot's binary sections: a
//! [`Writer`] that appends them and a bounds-checked [`Reader`] that
//! turns every short or malformed read into a [`SnapshotError`] naming
//! the section, never a panic.

use crate::snapshot::{tag_string, SnapshotError};
use lyric_arith::Rational;
use lyric_constraint::Interval;

/// Appends little-endian values to a section payload.
#[derive(Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A count or an id: every table and run is far below `u32::MAX`.
    pub fn len(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("snapshot counts fit in u32"));
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// A sorted run of ids: its length, then each id.
    pub fn ids(&mut self, ids: impl ExactSizeIterator<Item = u32>) {
        self.len(ids.len());
        for id in ids {
            self.u32(id);
        }
    }

    /// Tag 0: an `i64` integer; tag 1: an `i64` fraction with a
    /// denominator above 1; tag 2: anything wider, as `n/d` text. The tag
    /// depends on the value only, not on how it is stored.
    pub fn rational(&mut self, r: &Rational) {
        let parts = r
            .small_parts()
            .or_else(|| Some((r.numer().to_i64()?, r.denom().to_i64()?)));
        match parts {
            Some((n, 1)) => {
                self.u8(0);
                self.i64(n);
            }
            Some((n, d)) => {
                self.u8(1);
                self.i64(n);
                self.i64(d);
            }
            None => {
                self.u8(2);
                self.str(&r.to_string());
            }
        }
    }

    /// A flag byte (bit 0: lower bound present, bit 1: it is strict,
    /// bit 2: upper bound present, bit 3: it is strict), then the bounds.
    pub fn interval(&mut self, iv: &Interval) {
        let mut flags = 0u8;
        if let Some((_, strict)) = iv.lo() {
            flags |= 1 | (u8::from(strict) << 1);
        }
        if let Some((_, strict)) = iv.hi() {
            flags |= 4 | (u8::from(strict) << 3);
        }
        self.u8(flags);
        for (bound, _) in iv.lo().into_iter().chain(iv.hi()) {
            self.rational(bound);
        }
    }
}

/// Reads one section payload front to back.
pub(crate) struct Reader<'a> {
    tag: [u8; 4],
    bytes: &'a [u8],
    at: usize,
}

pub(crate) type Read<T> = Result<T, SnapshotError>;

impl<'a> Reader<'a> {
    pub fn new(tag: [u8; 4], bytes: &'a [u8]) -> Reader<'a> {
        Reader { tag, bytes, at: 0 }
    }

    /// A decoding failure inside this section.
    pub fn invalid(&self, detail: impl Into<String>) -> SnapshotError {
        SnapshotError::Invalid {
            tag: tag_string(&self.tag),
            detail: detail.into(),
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Read<&'a [u8]> {
        debug_assert!(self.at <= self.bytes.len());
        let remaining = self.bytes.len() - self.at;
        if n > remaining {
            return Err(self.invalid(format!("truncated while reading {what}")));
        }
        let out = &self.bytes[self.at..self.at + n];
        self.at += n;
        debug_assert!(self.at <= self.bytes.len());
        Ok(out)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Read<[u8; N]> {
        Ok(self.take(N, what)?.try_into().expect("took N bytes"))
    }

    pub fn u8(&mut self, what: &str) -> Read<u8> {
        Ok(self.array::<1>(what)?[0])
    }

    pub fn u32(&mut self, what: &str) -> Read<u32> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    pub fn u64(&mut self, what: &str) -> Read<u64> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    pub fn i64(&mut self, what: &str) -> Read<i64> {
        Ok(i64::from_le_bytes(self.array(what)?))
    }

    pub fn bool(&mut self, what: &str) -> Read<bool> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.invalid(format!("{what}: {b} is not a boolean"))),
        }
    }

    /// A count of items that each take at least `min_bytes` bytes: one
    /// that cannot fit in the rest of the payload is rejected before
    /// anything is allocated for it.
    pub fn count(&mut self, min_bytes: usize, what: &str) -> Read<usize> {
        let n = self.u32(what)? as usize;
        let remaining = self.bytes.len() - self.at;
        if n.saturating_mul(min_bytes.max(1)) > remaining {
            return Err(self.invalid(format!(
                "{what}: count {n} overruns the section ({remaining} bytes left)"
            )));
        }
        Ok(n)
    }

    /// An id into a table of `limit` entries.
    pub fn id(&mut self, limit: usize, what: &str) -> Read<u32> {
        let id = self.u32(what)?;
        if id as usize >= limit {
            return Err(self.invalid(format!("{what} id {id} out of range (table holds {limit})")));
        }
        Ok(id)
    }

    /// A strictly increasing run of ids into a table of `limit` entries.
    pub fn ids(&mut self, limit: usize, what: &str) -> Read<Vec<u32>> {
        let n = self.count(4, what)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let id = self.id(limit, what)?;
            if out.last().is_some_and(|&prev| prev >= id) {
                return Err(self.invalid(format!("{what} ids are not strictly increasing")));
            }
            out.push(id);
        }
        Ok(out)
    }

    pub fn str(&mut self, what: &str) -> Read<&'a str> {
        let n = self.count(1, what)?;
        let bytes = self.take(n, what)?;
        std::str::from_utf8(bytes).map_err(|_| self.invalid(format!("{what} is not UTF-8")))
    }

    pub fn rational(&mut self, what: &str) -> Read<Rational> {
        match self.u8(what)? {
            0 => Ok(Rational::from_int(self.i64(what)?)),
            1 => {
                let (n, d) = (self.i64(what)?, self.i64(what)?);
                if d < 2 {
                    return Err(self.invalid(format!("{what}: fraction denominator {d}")));
                }
                Ok(Rational::from_pair(n, d))
            }
            2 => {
                let text = self.str(what)?;
                text.parse()
                    .map_err(|_| self.invalid(format!("{what}: bad rational {text:?}")))
            }
            t => Err(self.invalid(format!("{what}: unknown rational tag {t}"))),
        }
    }

    pub fn interval(&mut self, what: &str) -> Read<Interval> {
        let flags = self.u8(what)?;
        if flags & !0b1111 != 0 {
            return Err(self.invalid(format!("{what}: bad interval flags {flags:#x}")));
        }
        let lo = if flags & 1 != 0 {
            Some((self.rational(what)?, flags & 2 != 0))
        } else {
            None
        };
        let hi = if flags & 4 != 0 {
            Some((self.rational(what)?, flags & 8 != 0))
        } else {
            None
        };
        if (lo.is_none() && flags & 2 != 0) || (hi.is_none() && flags & 8 != 0) {
            return Err(self.invalid(format!("{what}: strict flag on a missing bound")));
        }
        Ok(Interval::of_bounds(lo, hi))
    }

    /// The payload must be fully consumed.
    pub fn finish(self) -> Read<()> {
        let extra = self.bytes.len() - self.at;
        if extra != 0 {
            return Err(self.invalid(format!("{extra} trailing bytes")));
        }
        Ok(())
    }
}
