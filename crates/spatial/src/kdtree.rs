//! An exact KD-tree for k-nearest-neighbor and radius queries.
//!
//! Used by the LOF / DDLOF baselines (which need exact k-NN) and by the
//! k-dist-graph ε-selection procedure (paper §IV-C1). DBSCOUT itself never
//! touches this structure — its whole point is that the ε-cell grid makes
//! tree indexes unnecessary.

use std::cmp::Ordering;

use crate::distance::sq_dist;
use crate::points::{PointId, PointStore};

/// Bounds-safe coordinate access. Split axes are `depth % dims`, so the
/// index is always in range; the fallback keeps panic branches out of the
/// query hot path.
#[inline]
fn coord(p: &[f64], dim: usize) -> f64 {
    p.get(dim).copied().unwrap_or(0.0)
}

/// A balanced KD-tree over the points of a [`PointStore`].
///
/// Built by recursive median partitioning (`select_nth_unstable`), giving
/// O(n log n) construction and a perfectly balanced implicit tree stored
/// as a permutation of point ids: the root of a segment `[lo, hi)` is its
/// middle element, split on dimension `depth % d`.
#[derive(Debug)]
pub struct KdTree<'s> {
    store: &'s PointStore,
    ids: Vec<PointId>,
}

/// One k-NN result: squared distance and point id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Squared Euclidean distance to the query.
    pub sq_dist: f64,
    /// Id of the neighbor point.
    pub id: PointId,
}

impl<'s> KdTree<'s> {
    /// Builds a tree over all points in `store`.
    pub fn build(store: &'s PointStore) -> Self {
        let mut ids: Vec<PointId> = (0..store.len()).collect();
        if !ids.is_empty() {
            build_segment(store, &mut ids, 0);
        }
        Self { store, ids }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the tree indexes no points.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The `k` nearest neighbors of `query`, sorted by ascending distance.
    ///
    /// Ties are broken by ascending id: the answer is the `k` smallest
    /// `(squared distance, id)` pairs, so it is one set whatever order
    /// the tree visits points in. Two trees over the same points then
    /// agree whenever their ids follow the same order.
    ///
    /// Includes any indexed point at distance zero — callers that query
    /// with a point *in* the tree and want "other" neighbors should ask
    /// for `k + 1` and drop the self match.
    pub fn knn(&self, query: &[f64], k: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.store.dims(), "query dimensionality");
        if k == 0 || self.ids.is_empty() {
            return Vec::new();
        }
        let mut heap = BoundedMaxHeap::new(k);
        self.knn_segment(query, 0, self.ids.len(), 0, &mut heap);
        heap.into_sorted()
    }

    /// All indexed points within Euclidean distance `eps` of `query`
    /// (closed ball), in arbitrary order.
    pub fn within_radius(&self, query: &[f64], eps: f64) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.store.dims(), "query dimensionality");
        let mut out = Vec::new();
        if !self.ids.is_empty() {
            self.radius_segment(query, eps * eps, 0, self.ids.len(), 0, &mut out);
        }
        out
    }

    fn knn_segment(
        &self,
        query: &[f64],
        lo: usize,
        hi: usize,
        depth: usize,
        heap: &mut BoundedMaxHeap,
    ) {
        if lo >= hi {
            return;
        }
        let mid = lo + (hi - lo) / 2;
        let Some(&id) = self.ids.get(mid) else { return };
        let p = self.store.point(id);
        heap.push(Neighbor {
            sq_dist: sq_dist(query, p),
            id,
        });
        let dim = depth % self.store.dims();
        let delta = coord(query, dim) - coord(p, dim);
        let (near, far) = if delta < 0.0 {
            ((lo, mid), (mid + 1, hi))
        } else {
            ((mid + 1, hi), (lo, mid))
        };
        self.knn_segment(query, near.0, near.1, depth + 1, heap);
        // Visit the far side only if the splitting plane is closer than the
        // current k-th best.
        if delta * delta <= heap.worst() {
            self.knn_segment(query, far.0, far.1, depth + 1, heap);
        }
    }

    fn radius_segment(
        &self,
        query: &[f64],
        eps_sq: f64,
        lo: usize,
        hi: usize,
        depth: usize,
        out: &mut Vec<Neighbor>,
    ) {
        if lo >= hi {
            return;
        }
        let mid = lo + (hi - lo) / 2;
        let Some(&id) = self.ids.get(mid) else { return };
        let p = self.store.point(id);
        let d2 = sq_dist(query, p);
        if d2 <= eps_sq {
            out.push(Neighbor { sq_dist: d2, id });
        }
        let dim = depth % self.store.dims();
        let delta = coord(query, dim) - coord(p, dim);
        let (near, far) = if delta < 0.0 {
            ((lo, mid), (mid + 1, hi))
        } else {
            ((mid + 1, hi), (lo, mid))
        };
        self.radius_segment(query, eps_sq, near.0, near.1, depth + 1, out);
        if delta * delta <= eps_sq {
            self.radius_segment(query, eps_sq, far.0, far.1, depth + 1, out);
        }
    }
}

fn build_segment(store: &PointStore, ids: &mut [PointId], depth: usize) {
    if ids.len() <= 1 {
        return;
    }
    let dim = depth % store.dims();
    let mid = ids.len() / 2;
    ids.select_nth_unstable_by(mid, |&a, &b| {
        coord(store.point(a), dim).total_cmp(&coord(store.point(b), dim))
    });
    let (left, right) = ids.split_at_mut(mid);
    build_segment(store, left, depth + 1);
    if let Some(rest) = right.get_mut(1..) {
        build_segment(store, rest, depth + 1);
    }
}

/// The k-NN order: squared distance, then id.
fn by_rank(a: &Neighbor, b: &Neighbor) -> Ordering {
    a.sq_dist.total_cmp(&b.sq_dist).then(a.id.cmp(&b.id))
}

/// A fixed-capacity max-heap keeping the k smallest neighbors by
/// [`by_rank`].
struct BoundedMaxHeap {
    k: usize,
    items: Vec<Neighbor>,
}

impl BoundedMaxHeap {
    fn new(k: usize) -> Self {
        Self {
            k,
            items: Vec::with_capacity(k + 1),
        }
    }

    /// Squared distance of the current k-th best (∞ while under capacity).
    fn worst(&self) -> f64 {
        if self.items.len() < self.k {
            f64::INFINITY
        } else {
            self.items.first().map_or(f64::INFINITY, |n| n.sq_dist)
        }
    }

    fn push(&mut self, n: Neighbor) {
        if self.items.len() < self.k {
            self.items.push(n);
            self.sift_up(self.items.len() - 1);
        } else if let Some(root) = self.items.first_mut() {
            if by_rank(&n, root).is_lt() {
                *root = n;
                self.sift_down(0);
            }
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            let (Some(child), Some(par)) = (self.items.get(i), self.items.get(parent)) else {
                break;
            };
            if by_rank(child, par).is_gt() {
                self.items.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            for j in [l, r] {
                if let (Some(a), Some(b)) = (self.items.get(j), self.items.get(largest)) {
                    if by_rank(a, b).is_gt() {
                        largest = j;
                    }
                }
            }
            if largest == i {
                break;
            }
            self.items.swap(i, largest);
            i = largest;
        }
    }

    fn into_sorted(self) -> Vec<Neighbor> {
        let mut v = self.items;
        v.sort_by(by_rank);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_store(n_side: usize) -> PointStore {
        let mut rows = Vec::new();
        for i in 0..n_side {
            for j in 0..n_side {
                rows.push(vec![i as f64, j as f64]);
            }
        }
        PointStore::from_rows(2, rows).unwrap()
    }

    /// Brute-force k-NN reference.
    fn linear_knn(store: &PointStore, query: &[f64], k: usize) -> Vec<Neighbor> {
        let mut all: Vec<Neighbor> = store
            .iter()
            .map(|(id, p)| Neighbor {
                sq_dist: sq_dist(query, p),
                id,
            })
            .collect();
        all.sort_by(by_rank);
        all.truncate(k);
        all
    }

    #[test]
    fn knn_on_grid_matches_linear_scan() {
        let store = grid_store(10);
        let tree = KdTree::build(&store);
        for query in [[0.0, 0.0], [4.5, 4.5], [9.2, 0.1], [-3.0, 12.0]] {
            for k in [1, 3, 7, 20] {
                // The grid is full of ties: ids must match too.
                assert_eq!(
                    tree.knn(&query, k),
                    linear_knn(&store, &query, k),
                    "query {query:?} k {k}"
                );
            }
        }
    }

    #[test]
    fn knn_k_larger_than_n() {
        let store = grid_store(2);
        let tree = KdTree::build(&store);
        let got = tree.knn(&[0.0, 0.0], 100);
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn knn_k_zero_and_empty_tree() {
        let store = grid_store(3);
        let tree = KdTree::build(&store);
        assert!(tree.knn(&[0.0, 0.0], 0).is_empty());
        let empty = PointStore::new(2).unwrap();
        let tree = KdTree::build(&empty);
        assert!(tree.is_empty());
        assert!(tree.knn(&[0.0, 0.0], 3).is_empty());
    }

    #[test]
    fn within_radius_closed_ball() {
        let store = grid_store(5);
        let tree = KdTree::build(&store);
        // Radius exactly 1 from (2,2): the point itself plus 4 axis
        // neighbors (closed ball includes the boundary).
        let mut got = tree.within_radius(&[2.0, 2.0], 1.0);
        got.sort_by_key(|n| n.id);
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn within_radius_matches_linear_scan_random() {
        let mut rng = dbscout_rng::Rng::seed_from_u64(7);
        let rows: Vec<Vec<f64>> = (0..500)
            .map(|_| vec![rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0)])
            .collect();
        let store = PointStore::from_rows(2, rows).unwrap();
        let tree = KdTree::build(&store);
        for _ in 0..20 {
            let q = [rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0)];
            let eps = rng.gen_range(0.1..5.0);
            let mut got: Vec<PointId> = tree.within_radius(&q, eps).iter().map(|n| n.id).collect();
            got.sort_unstable();
            let mut expected: Vec<PointId> = store
                .iter()
                .filter(|(_, p)| sq_dist(&q, p) <= eps * eps)
                .map(|(id, _)| id)
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn knn_3d_matches_linear_scan_random() {
        let mut rng = dbscout_rng::Rng::seed_from_u64(11);
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|_| (0..3).map(|_| rng.gen_range(-5.0..5.0)).collect())
            .collect();
        let store = PointStore::from_rows(3, rows).unwrap();
        let tree = KdTree::build(&store);
        for _ in 0..20 {
            let q: Vec<f64> = (0..3).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let got = tree.knn(&q, 5);
            let expected = linear_knn(&store, &q, 5);
            for (g, e) in got.iter().zip(&expected) {
                assert!((g.sq_dist - e.sq_dist).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn duplicate_points_are_all_reported() {
        let store = PointStore::from_rows(2, vec![vec![1.0, 1.0]; 5]).unwrap();
        let tree = KdTree::build(&store);
        assert_eq!(tree.knn(&[1.0, 1.0], 5).len(), 5);
        assert_eq!(tree.within_radius(&[1.0, 1.0], 0.0).len(), 5);
    }
}
