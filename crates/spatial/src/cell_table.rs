//! The compact cell table behind the cell-major layouts.
//!
//! A [`CellTable`] numbers the non-empty ε-cells of one dataset. It keeps
//! each cell's `dims` integer coordinates once, in one flat `Vec<i64>`
//! (cell `i` owns `coords[i*dims..(i+1)*dims]`), and indexes them with
//! open addressing over 8-byte buckets: the high half of a bucket is a
//! 32-bit hash tag of the coordinates, the low half the cell number. At
//! d = 3 a cell costs 24 bytes of coordinates plus 11–21 bytes of
//! buckets, where a `HashMap<CellCoord, u32>` entry costs 88 bytes
//! before slack.
//!
//! Keys are hashed with the same fixed-key SipHash as every other cell
//! map of the workspace ([`DetState`]), over the live coordinates only,
//! so lookups cost what they cost before and client-chosen coordinates
//! (the serve path) collide no more cheaply than they did. Each bucket
//! holds its key's tag, and a key's home bucket is a function of the tag
//! alone, so neither growing the index nor sorting the cells rehashes a
//! key.

use std::collections::hash_map::DefaultHasher;
use std::hash::{BuildHasher, BuildHasherDefault};

/// The fixed-key SipHash every cell map hashes with: deterministic
/// across runs, so bucket layouts (and any timing they cause) repeat.
type DetState = BuildHasherDefault<DefaultHasher>;

/// An empty bucket. An occupied one holds a cell number below
/// `u32::MAX` in its low half (cell counts are bounded by the `u32`
/// point ids), so it never equals this.
const EMPTY: u64 = u64::MAX;

/// Buckets allocated on the first intern.
const MIN_BUCKETS: usize = 16;

/// The tag of `key`: the low 32 bits of its SipHash. Its low bits pick
/// the key's home bucket; all 32 are compared before the coordinates.
fn tag_of(key: &[i64]) -> u32 {
    DetState::default().hash_one(key) as u32
}

fn pack(tag: u32, idx: u32) -> u64 {
    (u64::from(tag) << 32) | u64::from(idx)
}

/// Numbered ε-cell coordinates with an open-addressing index; see the
/// module docs.
#[derive(Debug, Clone)]
pub(crate) struct CellTable {
    dims: usize,
    /// Number of cells, `coords.len() / dims`, kept so the hot paths
    /// (every intern, every neighbor-sweep window) divide by nothing.
    len: usize,
    /// Cell `i`'s coordinates are `coords[i*dims..(i+1)*dims]`.
    coords: Vec<i64>,
    /// Power-of-two many buckets (or none), at most three quarters full,
    /// probed linearly.
    buckets: Vec<u64>,
}

impl CellTable {
    /// An empty table for `dims`-dimensional cells (`dims ≥ 1`).
    pub(crate) fn new(dims: usize) -> Self {
        Self {
            dims: dims.max(1),
            len: 0,
            coords: Vec::new(),
            buckets: Vec::new(),
        }
    }

    /// Number of cells.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The coordinates of cell `idx`; empty when out of range.
    #[inline]
    pub(crate) fn coord(&self, idx: usize) -> &[i64] {
        self.get(idx).unwrap_or(&[])
    }

    /// The coordinates of cell `idx`, if in range.
    #[inline]
    pub(crate) fn get(&self, idx: usize) -> Option<&[i64]> {
        self.coords.get(idx * self.dims..(idx + 1) * self.dims)
    }

    /// The number of the cell with coordinates `key`, if present.
    pub(crate) fn lookup(&self, key: &[i64]) -> Option<u32> {
        if key.len() != self.dims || self.buckets.is_empty() {
            return None;
        }
        self.probe(key, tag_of(key)).1
    }

    /// The number of the cell with coordinates `key`, adding it as the
    /// next number when absent; the flag tells whether it was added.
    /// `key` must hold `dims` coordinates.
    pub(crate) fn intern(&mut self, key: &[i64]) -> (u32, bool) {
        debug_assert_eq!(key.len(), self.dims);
        if (self.len + 1) * 4 > self.buckets.len() * 3 {
            self.grow();
        }
        let tag = tag_of(key);
        match self.probe(key, tag) {
            (_, Some(idx)) => (idx, false),
            (pos, None) => {
                let idx = self.len as u32;
                self.len += 1;
                self.coords.extend_from_slice(key);
                if let Some(bucket) = self.buckets.get_mut(pos) {
                    *bucket = pack(tag, idx);
                }
                (idx, true)
            }
        }
    }

    /// Makes room for exactly `additional` more cells without regrowing
    /// the coordinates or the index.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.coords.reserve_exact(additional * self.dims);
        while (self.len + additional) * 4 > self.buckets.len() * 3 {
            self.grow();
        }
    }

    /// Renumbers the cells in ascending coordinate order and returns the
    /// old → new map (`rank[old] = new`). The coordinates move; the
    /// buckets keep their places and only have their numbers re-pointed.
    pub(crate) fn sort(&mut self) -> Vec<u32> {
        let n = self.len;
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by(|&a, &b| self.coord(a as usize).cmp(self.coord(b as usize)));
        let mut rank = vec![0u32; n];
        let mut coords = Vec::with_capacity(self.coords.len());
        for (new, &old) in order.iter().enumerate() {
            coords.extend_from_slice(self.coord(old as usize));
            if let Some(r) = rank.get_mut(old as usize) {
                *r = new as u32;
            }
        }
        self.coords = coords;
        for bucket in &mut self.buckets {
            if *bucket != EMPTY {
                let old = *bucket as u32;
                let new = rank.get(old as usize).copied().unwrap_or(old);
                *bucket = pack((*bucket >> 32) as u32, new);
            }
        }
        rank
    }

    /// Whether the cells strictly ascend by coordinate.
    pub(crate) fn ascending(&self) -> bool {
        let mut cells = self.coords.chunks_exact(self.dims);
        let Some(mut prev) = cells.next() else {
            return true;
        };
        cells.all(|next| std::mem::replace(&mut prev, next) < next)
    }

    /// The bucket holding `key`'s number and that number, or the empty
    /// bucket where `key` would go and `None`.
    #[inline]
    fn probe(&self, key: &[i64], tag: u32) -> (usize, Option<u32>) {
        let mask = self.buckets.len().wrapping_sub(1);
        let mut pos = tag as usize & mask;
        // At most three quarters full, so an empty bucket ends every
        // probe; the bound only keeps the loop visibly finite.
        for _ in 0..self.buckets.len() {
            let bucket = self.buckets.get(pos).copied().unwrap_or(EMPTY);
            if bucket == EMPTY {
                return (pos, None);
            }
            let idx = bucket as u32;
            if (bucket >> 32) as u32 == tag && self.coord(idx as usize) == key {
                return (pos, Some(idx));
            }
            pos = (pos + 1) & mask;
        }
        (pos, None)
    }

    /// Doubles the index, re-placing each bucket from its stored tag.
    fn grow(&mut self) {
        let size = (self.buckets.len() * 2).max(MIN_BUCKETS);
        let mask = size - 1;
        let mut buckets = vec![EMPTY; size];
        for &bucket in self.buckets.iter().filter(|&&b| b != EMPTY) {
            let mut pos = (bucket >> 32) as usize & mask;
            while let Some(slot) = buckets.get_mut(pos) {
                if *slot == EMPTY {
                    *slot = bucket;
                    break;
                }
                pos = (pos + 1) & mask;
            }
        }
        self.buckets = buckets;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interns_looks_up_and_sorts() {
        let mut t = CellTable::new(2);
        assert_eq!(t.lookup(&[0, 0]), None);
        let keys = [[5, 1], [-3, 7], [5, 0], [i64::MIN, i64::MAX], [0, 0]];
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.intern(k), (i as u32, true));
        }
        assert_eq!(t.intern(&[-3, 7]), (1, false));
        assert_eq!(t.len(), keys.len());
        assert!(!t.ascending());
        let rank = t.sort();
        assert!(t.ascending());
        for (old, k) in keys.iter().enumerate() {
            assert_eq!(t.lookup(k), Some(rank[old]));
            assert_eq!(t.coord(rank[old] as usize), k);
        }
        assert_eq!(t.lookup(&[0, 1]), None);
        assert_eq!(t.lookup(&[0]), None, "a key of another dimensionality");
        assert_eq!(t.coord(keys.len()), &[] as &[i64]);
    }

    #[test]
    fn keys_sharing_their_bucket_bits_all_resolve() {
        // 64 keys whose SipHash agrees in the low 12 bits, found by brute
        // force: while the index has at most 4096 buckets they all share
        // one home bucket and form a single probe run.
        const BITS: u32 = 0xfff;
        let target = tag_of(&[0, 0, 0]) & BITS;
        let mut keys = Vec::new();
        'search: for x in 0..1024i64 {
            for y in -512..512i64 {
                let key = [x, y, x ^ y];
                if tag_of(&key) & BITS == target {
                    keys.push(key);
                    if keys.len() == 64 {
                        break 'search;
                    }
                }
            }
        }
        assert_eq!(keys.len(), 64);
        let mut t = CellTable::new(3);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.intern(k), (i as u32, true));
            // Every earlier key still resolves as the run grows.
            for (j, earlier) in keys.iter().enumerate().take(i + 1) {
                assert_eq!(t.lookup(earlier), Some(j as u32));
            }
        }
        assert!(t.buckets.len() <= 4096);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.intern(k), (i as u32, false));
            let mut near = *k;
            near[2] += 1;
            if !keys.contains(&near) {
                assert_eq!(t.lookup(&near), None);
            }
        }
        let rank = t.sort();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.lookup(k), Some(rank[i]));
        }
    }

    #[test]
    fn growth_keeps_every_key() {
        let mut t = CellTable::new(1);
        for k in 0..5000i64 {
            assert_eq!(t.intern(&[k * 7919]), (k as u32, true));
        }
        assert!(t.buckets.len().is_power_of_two());
        assert!(t.len() * 4 <= t.buckets.len() * 3);
        for k in 0..5000i64 {
            assert_eq!(t.lookup(&[k * 7919]), Some(k as u32));
            assert_eq!(t.lookup(&[k * 7919 + 1]), None);
        }
        let mut r = CellTable::new(1);
        r.reserve(5000);
        let buckets = r.buckets.len();
        for k in 0..5000i64 {
            r.intern(&[k]);
        }
        assert_eq!(r.buckets.len(), buckets, "reserve left room for all");
    }
}
