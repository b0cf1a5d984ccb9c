//! Randomized property tests for the spatial substrate.
//!
//! Each test draws many cases from a seeded [`dbscout_rng::Rng`], so runs
//! are deterministic and reproducible while still sweeping a broad input
//! space (the offline stand-in for `proptest`).

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::float_cmp
)]

use std::collections::{BTreeMap, HashMap};

use dbscout_rng::Rng;
use dbscout_spatial::cell::{cell_of, cell_side, max_sq_dist_to_cell, min_sq_dist_to_cell};
use dbscout_spatial::distance::{dist, sq_dist};
use dbscout_spatial::{
    CellCoord, CellMajorStore, Grid, KdTree, MutableCellMajor, NeighborOffsets, PointStore,
    SpatialError, MAX_DIMS,
};

fn points_2d(rng: &mut Rng, max_n: usize) -> Vec<Vec<f64>> {
    let n = rng.gen_range(1..max_n);
    (0..n)
        .map(|_| (0..2).map(|_| rng.gen_range(-100.0..100.0)).collect())
        .collect()
}

#[test]
fn grid_partitions_completely() {
    let mut rng = Rng::seed_from_u64(0xA001);
    for _ in 0..48 {
        let rows = points_2d(&mut rng, 200);
        let eps = rng.gen_range(0.01..50.0);
        let store = PointStore::from_rows(2, rows).unwrap();
        let grid = Grid::build(&store, eps).unwrap();
        // Every point in exactly one cell.
        let mut count = 0usize;
        for (cell, ids) in grid.cells() {
            for &id in ids {
                assert_eq!(&grid.cell_for(store.point(id)), cell);
                count += 1;
            }
        }
        assert_eq!(count, store.len() as usize);
    }
}

#[test]
fn same_cell_implies_within_eps() {
    // The geometric premise of Lemma 1.
    let mut rng = Rng::seed_from_u64(0xA002);
    for _ in 0..48 {
        let rows = points_2d(&mut rng, 150);
        let eps = rng.gen_range(0.1..50.0);
        let store = PointStore::from_rows(2, rows).unwrap();
        let grid = Grid::build(&store, eps).unwrap();
        for (_, ids) in grid.cells() {
            for &a in ids {
                for &b in ids {
                    assert!(dist(store.point(a), store.point(b)) <= eps);
                }
            }
        }
    }
}

#[test]
fn pairs_within_eps_are_in_neighboring_cells() {
    // The completeness direction: any pair at distance ≤ ε must be
    // discoverable through the neighbor-offset enumeration.
    let mut rng = Rng::seed_from_u64(0xA003);
    for _ in 0..48 {
        let rows = points_2d(&mut rng, 80);
        let eps = rng.gen_range(0.1..50.0);
        let store = PointStore::from_rows(2, rows).unwrap();
        let grid = Grid::build(&store, eps).unwrap();
        let offsets = NeighborOffsets::new(2).unwrap();
        let eps_sq = eps * eps;
        for (ia, pa) in store.iter() {
            for (ib, pb) in store.iter() {
                if ia >= ib || sq_dist(pa, pb) > eps_sq {
                    continue;
                }
                let ca = grid.cell_for(pa);
                let cb = grid.cell_for(pb);
                let found = offsets
                    .iter()
                    .any(|o| NeighborOffsets::apply(&ca, o) == Some(cb));
                assert!(
                    found,
                    "pair at dist {} not in neighboring cells",
                    dist(pa, pb)
                );
            }
        }
    }
}

#[test]
fn kdtree_knn_matches_linear() {
    let mut rng = Rng::seed_from_u64(0xA004);
    for _ in 0..48 {
        let rows = points_2d(&mut rng, 200);
        let k = rng.gen_range(1usize..10);
        let store = PointStore::from_rows(2, rows).unwrap();
        let tree = KdTree::build(&store);
        let query = store.point(0).to_vec();
        let got = tree.knn(&query, k);
        let mut all: Vec<f64> = store.iter().map(|(_, p)| sq_dist(&query, p)).collect();
        all.sort_by(f64::total_cmp);
        all.truncate(k);
        let got_d: Vec<f64> = got.iter().map(|n| n.sq_dist).collect();
        assert_eq!(got_d, all);
    }
}

#[test]
fn kdtree_radius_matches_linear() {
    let mut rng = Rng::seed_from_u64(0xA005);
    for _ in 0..48 {
        let rows = points_2d(&mut rng, 200);
        let eps = rng.gen_range(0.1..40.0);
        let store = PointStore::from_rows(2, rows).unwrap();
        let tree = KdTree::build(&store);
        let query = store.point(0).to_vec();
        let mut got: Vec<u32> = tree
            .within_radius(&query, eps)
            .iter()
            .map(|n| n.id)
            .collect();
        got.sort_unstable();
        let mut expected: Vec<u32> = store
            .iter()
            .filter(|(_, p)| sq_dist(&query, p) <= eps * eps)
            .map(|(id, _)| id)
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }
}

#[test]
fn min_max_cell_distance_bracket_actual() {
    // For any point q, the distance from p to q is bracketed by the
    // min/max distance from p to q's cell box.
    let mut rng = Rng::seed_from_u64(0xA006);
    for _ in 0..200 {
        let px = rng.gen_range(-50.0..50.0);
        let py = rng.gen_range(-50.0..50.0);
        let qx = rng.gen_range(-50.0..50.0);
        let qy = rng.gen_range(-50.0..50.0);
        let eps = rng.gen_range(0.5..20.0);
        let side = cell_side(eps, 2);
        let q = [qx, qy];
        let cell = dbscout_spatial::cell::cell_of(&q, side);
        let p = [px, py];
        let d2 = sq_dist(&p, &q);
        let lo = min_sq_dist_to_cell(&p, &cell, side);
        let hi = max_sq_dist_to_cell(&p, &cell, side);
        assert!(lo <= d2 + 1e-9, "lo {lo} > d2 {d2}");
        assert!(hi >= d2 - 1e-9, "hi {hi} < d2 {d2}");
    }
}

#[test]
fn store_gather_preserves_coords() {
    let mut rng = Rng::seed_from_u64(0xA007);
    for _ in 0..48 {
        let rows = points_2d(&mut rng, 50);
        let store = PointStore::from_rows(2, rows).unwrap();
        let ids: Vec<u32> = (0..store.len()).rev().collect();
        let g = store.gather(&ids);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(g.point(i as u32), store.point(id));
        }
    }
}

/// Each neighbor offset, widened to `i128`, mapped to its position in
/// offset order.
fn offset_ranks(offsets: &NeighborOffsets) -> HashMap<Vec<i128>, usize> {
    offsets
        .iter()
        .enumerate()
        .map(|(i, o)| (o.iter().map(|&j| i128::from(j)).collect(), i))
        .collect()
}

/// The brute-force neighbor list of cell `idx`: every cell of the table
/// whose coordinate difference from the query, computed in `i128`, is a
/// neighbor offset (`rank` from [`offset_ranks`]), in offset order, with
/// the optional bbox prune applied in place.
fn oracle_neighbors(
    cm: &CellMajorStore,
    rank: &HashMap<Vec<i128>, usize>,
    idx: usize,
    prune_eps_sq: Option<f64>,
) -> Vec<u32> {
    let query = cm.cell_coord(idx).unwrap();
    // No offset coordinate exceeds 3 (d ≤ 9); skipping cells farther out
    // in some coordinate only saves the lookup.
    let near = |j: usize| {
        let coord = cm.cell_coord(j).unwrap();
        coord
            .iter()
            .zip(query)
            .all(|(&c, &q)| (i128::from(c) - i128::from(q)).abs() <= 3)
    };
    let mut hits: Vec<(usize, u32)> = Vec::new();
    for j in (0..cm.num_cells()).filter(|&j| near(j)) {
        let diff: Vec<i128> = cm
            .cell_coord(j)
            .unwrap()
            .iter()
            .zip(query)
            .map(|(&c, &q)| i128::from(c) - i128::from(q))
            .collect();
        let Some(&r) = rank.get(&diff) else { continue };
        if prune_eps_sq.is_some_and(|e| cm.min_sq_dist_between_bboxes(idx, j) > e) {
            continue;
        }
        hits.push((r, j as u32));
    }
    hits.sort_unstable();
    hits.into_iter().map(|(_, j)| j).collect()
}

/// Points in a block a few cells wide (so most cells have neighbors),
/// a few far away, and a few at the ends of the accepted range, 2^52
/// cells from the origin (`check_point`).
fn clustered_rows(rng: &mut Rng, dims: usize, side: f64) -> Vec<Vec<f64>> {
    let n = rng.gen_range(20..160);
    let mut rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dims).map(|_| side * rng.gen_range(-2.5..2.5)).collect())
        .collect();
    for _ in 0..rng.gen_range(0..4) {
        rows.push((0..dims).map(|_| rng.gen_range(-1e4..1e4)).collect());
    }
    for _ in 0..rng.gen_range(0..6) {
        rows.push(
            (0..dims)
                .map(|_| match rng.gen_range(0..4) {
                    0 => -EDGE * side,
                    1 => EDGE * side,
                    _ => side * rng.gen_range(-1.5..1.5),
                })
                .collect(),
        );
    }
    rows
}

/// A first-coordinate slab of cells wide enough that queries in it seek
/// the stencil's columns (more cells than `columns` in reach of each
/// other), then cells alone or in pairs in their slab — spaced more than
/// 2⌈√d⌉ apart in the first coordinate, so their queries scan the slab —
/// then a second wide slab. Ascending queries go dense → sparse → dense,
/// so the column cursors go stale while the scan runs.
fn slab_rows(rng: &mut Rng, dims: usize, side: f64, columns: usize) -> Vec<Vec<f64>> {
    let reach = (dims as f64).sqrt().ceil();
    let mut rows: Vec<Vec<f64>> = Vec::new();
    // Three first coordinates, the rest spread over 12 cells: mostly one
    // point a cell, so the slab holds more cells than there are columns.
    let block = |rng: &mut Rng, x0: f64, rows: &mut Vec<Vec<f64>>| {
        for _ in 0..columns + columns / 4 + 40 {
            let mut p: Vec<f64> = (0..dims).map(|_| side * rng.gen_range(-6.0..6.0)).collect();
            p[0] = side * (x0 + rng.gen_range(-1.5..1.5));
            rows.push(p);
        }
    };
    block(rng, 0.0, &mut rows);
    let mut x = 2.0 * reach + 4.0;
    for _ in 0..rng.gen_range(3..10) {
        // A lone cell, or two within ⌈√d⌉ in the first coordinate that
        // may or may not be neighbors.
        for m in 0..rng.gen_range(1..=2) {
            let mut p: Vec<f64> = (0..dims).map(|_| side * rng.gen_range(-3.0..3.0)).collect();
            p[0] = side * (x + 0.5 + f64::from(m) * rng.gen_range(0.0..reach));
            rows.push(p);
        }
        x += 3.0 * reach + 2.0;
    }
    block(rng, x + 2.0 * reach + 2.0, &mut rows);
    rows
}

/// The number of stencil columns: distinct offset prefixes (every
/// coordinate but the last).
fn column_count(offsets: &NeighborOffsets) -> usize {
    let prefixes: std::collections::HashSet<&[i8]> =
        offsets.iter().map(|o| &o[..offsets.dims() - 1]).collect();
    prefixes.len()
}

/// Whether a query of cell `idx` scans its slab: at most `columns` cells
/// lie within ⌈√d⌉ of it in the first coordinate.
fn scans_slab(cm: &CellMajorStore, idx: usize, columns: usize) -> bool {
    let reach = i128::from((cm.dims() as f64).sqrt().ceil() as i64);
    let first = |j: usize| i128::from(cm.cell_coord(j).unwrap()[0]);
    let slab = (0..cm.num_cells())
        .filter(|&j| (first(j) - first(idx)).abs() <= reach)
        .count();
    slab <= columns
}

/// Query sequences a phase can issue over a table of `n` cells: all of
/// it, a tail starting mid-table, ascending subsets that skip cells and
/// end at the last one, and an unordered sequence (which makes the sweep
/// re-place its cursors).
fn query_sequences(rng: &mut Rng, n: usize) -> Vec<Vec<usize>> {
    let mid = rng.gen_range(0..n);
    let mut sequences = vec![(0..n).collect(), (mid..n).collect()];
    for keep in [0.2, 0.6] {
        let start = rng.gen_range(0..n);
        let mut seq: Vec<usize> = (start..n).filter(|_| rng.gen_bool(keep)).collect();
        if seq.last() != Some(&(n - 1)) {
            seq.push(n - 1);
        }
        sequences.push(seq);
    }
    let mut shuffled: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut shuffled);
    shuffled.truncate(12);
    sequences.push(shuffled);
    sequences
}

#[test]
fn neighbor_sweep_matches_brute_force_in_content_and_order() {
    let mut rng = Rng::seed_from_u64(0xA005);
    for dims in 1..=5usize {
        let offsets = NeighborOffsets::new(dims).unwrap();
        let rank = offset_ranks(&offsets);
        let columns = column_count(&offsets);
        let (mut scans, mut seeks) = (0, 0);
        // Twelve clustered layouts, then a slab layout.
        for round in 0..13 {
            let eps = rng.gen_range(0.2..20.0);
            let side = cell_side(eps, dims);
            let rows = if round < 12 {
                clustered_rows(&mut rng, dims, side)
            } else {
                slab_rows(&mut rng, dims, side, columns)
            };
            let store = PointStore::from_rows(dims, rows).unwrap();
            let cm = CellMajorStore::build(&store, eps).unwrap();
            let n = cm.num_cells();
            let scan: Vec<bool> = (0..n).map(|i| scans_slab(&cm, i, columns)).collect();
            scans += scan.iter().filter(|&&s| s).count();
            seeks += scan.iter().filter(|&&s| !s).count();
            let mut sequences = if round < 12 {
                query_sequences(&mut rng, n)
            } else {
                vec![(0..n).collect()]
            };
            if round >= 12 {
                // Dense → sparse → dense: a seeking query, every scanning
                // query after it, then the next seeking query after those.
                let first_seek = scan.iter().position(|&s| !s).unwrap();
                let sparse: Vec<usize> = (first_seek + 1..n)
                    .skip_while(|&i| !scan[i])
                    .take_while(|&i| scan[i])
                    .collect();
                let resume = (sparse.last().unwrap() + 1..n).find(|&i| !scan[i]).unwrap();
                let mut seq = vec![first_seek];
                seq.extend(&sparse);
                seq.extend(resume..n);
                sequences.push(seq);
            }
            for prune in [None, Some(eps * eps)] {
                for seq in &sequences {
                    let mut sweep = cm.neighbor_sweep(&offsets).unwrap();
                    let mut got = Vec::new();
                    for &idx in seq {
                        sweep.neighbors_into(idx, prune, &mut got);
                        assert_eq!(
                            got,
                            oracle_neighbors(&cm, &rank, idx, prune),
                            "d={dims} eps={eps} prune={prune:?} cell {:?}",
                            cm.cell_coord(idx)
                        );
                    }
                }
            }
        }
        assert!(
            scans > 0 && seeks > 0,
            "d={dims}: {scans} scans, {seeks} seeks"
        );
    }
}

/// Splits `0..n` into `parts` contiguous ranges at random cut points
/// (some may be empty).
fn random_ranges(rng: &mut Rng, n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let mut cuts: Vec<usize> = (1..parts).map(|_| rng.gen_range(0..=n)).collect();
    cuts.sort_unstable();
    let mut ranges = Vec::new();
    let mut start = 0;
    for cut in cuts.into_iter().chain([n]) {
        ranges.push(start..cut);
        start = cut;
    }
    ranges
}

#[test]
fn neighbor_pairs_sorted_give_each_target_its_sweep_list_of_sources() {
    // Resolution from the source side, as phase 5 and the serve seed do
    // it: the sources split into ranges like phase 5's chunks, the pairs
    // concatenated and sorted. Each target's run must be its own forward
    // sweep list filtered to sources, in the same order.
    let mut rng = Rng::seed_from_u64(0xA008);
    for dims in 1..=5usize {
        let offsets = NeighborOffsets::new(dims).unwrap();
        let columns = column_count(&offsets);
        for round in 0..10 {
            let eps = rng.gen_range(0.2..20.0);
            let side = cell_side(eps, dims);
            let rows = if round < 9 {
                clustered_rows(&mut rng, dims, side)
            } else {
                slab_rows(&mut rng, dims, side, columns)
            };
            let store = PointStore::from_rows(dims, rows).unwrap();
            let cm = CellMajorStore::build(&store, eps).unwrap();
            let n = cm.num_cells();
            let p_source = rng.gen_range(0.05..0.95);
            let mut source: Vec<bool> = (0..n).map(|_| rng.gen_bool(p_source)).collect();
            let mut target: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
            let both = rng.gen_range(0..n);
            (source[both], target[both]) = (true, true);
            let parts = rng.gen_range(1usize..=4);
            for prune in [None, Some(eps * eps)] {
                let mut pairs: Vec<(u32, u32)> = Vec::new();
                for range in random_ranges(&mut rng, n, parts) {
                    let listed = cm
                        .neighbor_pairs(
                            &offsets,
                            range.clone().filter(|&i| source[i]),
                            |i| target[i],
                            prune,
                        )
                        .unwrap();
                    assert!(listed.iter().all(|&(_, s)| range.contains(&(s as usize))));
                    pairs.extend(listed);
                }
                pairs.sort_unstable();
                let mut sweep = cm.neighbor_sweep(&offsets).unwrap();
                let mut list = Vec::new();
                let mut runs = pairs.as_slice();
                for (t, &is_target) in target.iter().enumerate() {
                    let len = runs.iter().take_while(|&&(c, _)| c as usize == t).count();
                    let (run, rest) = runs.split_at(len);
                    runs = rest;
                    let got: Vec<u32> = run.iter().map(|&(_, s)| s).collect();
                    sweep.neighbors_into(t, prune, &mut list);
                    let want: Vec<u32> = if is_target {
                        list.iter()
                            .copied()
                            .filter(|&s| source[s as usize])
                            .collect()
                    } else {
                        Vec::new()
                    };
                    assert_eq!(got, want, "d={dims} eps={eps} prune={prune:?} target {t}");
                }
                assert!(runs.is_empty(), "pairs left over: {runs:?}");
            }
        }
    }
}

#[test]
fn neighbor_sweep_refuses_a_mutable_table() {
    // A mutable layout appends new cells at the end of its table, so the
    // sweep must refuse its view with a typed error rather than return a
    // wrong list: from the start, and still once churn has put the table
    // out of order.
    let eps = 1.0;
    let offsets = NeighborOffsets::new(2).unwrap();
    let mut rng = Rng::seed_from_u64(0xA006);
    let rows: Vec<Vec<f64>> = (0..60)
        .map(|_| vec![rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)])
        .collect();
    let store = PointStore::from_rows(2, rows).unwrap();
    let batch = CellMajorStore::build(&store, eps).unwrap();
    assert!(batch.neighbor_sweep(&offsets).is_ok());
    let mut m = MutableCellMajor::from_cell_major(batch);
    let mut live: Vec<u32> = (0..60).collect();
    let mut next_id = 60u32;
    let mut steps = 0;
    loop {
        assert_eq!(
            m.store().neighbor_sweep(&offsets).unwrap_err(),
            SpatialError::UnsortedCells
        );
        let s = m.store();
        let sorted = (1..s.num_cells()).all(|i| s.cell_coord(i - 1) < s.cell_coord(i));
        if !sorted {
            break;
        }
        steps += 1;
        assert!(steps < 2_000, "churn never produced an unsorted table");
        // Churn: inserts anywhere on a wider plane (new cells are
        // appended to the table), removals of random live points.
        if live.is_empty() || rng.gen_bool(0.7) {
            let p = [rng.gen_range(-20.0..30.0), rng.gen_range(-20.0..30.0)];
            assert!(m.insert(next_id, &p).unwrap());
            live.push(next_id);
            next_id += 1;
        } else {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            assert!(m.remove(victim));
        }
    }
}

/// A cell coordinate far out but inside the accepted range: 2^52 cells
/// from the origin, half of `MAX_CELL_INDEX`.
const EDGE: f64 = 4_503_599_627_370_496.0;

/// One coordinate of a point inside cell coordinate `c`, at the cell's
/// middle (at ±2^52 the half cell rounds away, leaving the edge).
fn inside(c: i64, side: f64) -> f64 {
    (c as f64 + 0.5) * side
}

#[test]
fn cell_table_matches_a_btreemap_oracle() {
    // The compact cell table, through the two layouts that own one: a
    // mutable layout interns cells in arrival order (before any sort), a
    // batch build numbers them by sorted rank. The oracle numbers keys
    // by first arrival; its key order is the sorted order.
    let mut rng = Rng::seed_from_u64(0xA007);
    for dims in 1..=MAX_DIMS {
        for _ in 0..3 {
            let eps = rng.gen_range(0.5..4.0);
            let side = cell_side(eps, dims);
            let spread: i64 = if dims == 1 { 4000 } else { 30 };
            let mut oracle: BTreeMap<Vec<i64>, u32> = BTreeMap::new();
            let mut points_in: BTreeMap<Vec<i64>, usize> = BTreeMap::new();
            let mut rows: Vec<Vec<f64>> = Vec::new();
            // Enough cells for several index rehashes; every cell gets at
            // most two points, so no run relocates or compacts and the
            // mutable layout keeps its arrival numbering.
            for _ in 0..rng.gen_range(1500..3000) {
                let key: Vec<i64> = (0..dims)
                    .map(|_| match rng.gen_range(0..20) {
                        0 => -EDGE as i64,
                        1 => EDGE as i64,
                        2 => 0,
                        _ => rng.gen_range(-spread..spread),
                    })
                    .collect();
                let row: Vec<f64> = key.iter().map(|&c| inside(c, side)).collect();
                let key = cell_of(&row, side).coords().to_vec();
                let seen = points_in.entry(key.clone()).or_insert(0);
                if *seen == 2 {
                    continue;
                }
                *seen += 1;
                let next = oracle.len() as u32;
                oracle.entry(key).or_insert(next);
                rows.push(row);
            }
            let mut m = MutableCellMajor::new(dims, eps).unwrap();
            for (id, row) in rows.iter().enumerate() {
                assert!(m.insert(id as u32, row).unwrap());
            }
            assert_eq!((m.rebuilds(), m.compactions()), (0, 0));
            let cm =
                CellMajorStore::build(&PointStore::from_rows(dims, rows).unwrap(), eps).unwrap();
            assert_eq!(m.store().num_cells(), oracle.len());
            assert_eq!(cm.num_cells(), oracle.len());
            let mut ranks = vec![false; oracle.len()];
            for (rank, (key, &arrival)) in oracle.iter().enumerate() {
                let coord = CellCoord::from_slice(key);
                assert_eq!(m.store().cell_index(&coord), Some(arrival), "{key:?}");
                assert_eq!(m.store().cell_coord(arrival as usize), Some(key.as_slice()));
                let got = cm.cell_index(&coord).unwrap();
                assert_eq!(got as usize, rank, "{key:?}");
                assert_eq!(cm.cell_coord(rank), Some(key.as_slice()));
                assert!(!std::mem::replace(&mut ranks[got as usize], true));
                // Keys one step away in the last coordinate, and in the
                // first, miss unless the oracle holds them.
                for step in [-1i64, 1] {
                    for dim in [dims - 1, 0] {
                        let mut near = key.clone();
                        let Some(v) = near[dim].checked_add(step) else {
                            continue;
                        };
                        near[dim] = v;
                        let want = oracle.get(&near);
                        let coord = CellCoord::from_slice(&near);
                        assert_eq!(m.store().cell_index(&coord), want.copied());
                        assert_eq!(cm.cell_index(&coord).is_some(), want.is_some());
                    }
                }
            }
            assert!(ranks.iter().all(|&r| r), "ranks are a permutation");
            for i in 1..cm.num_cells() {
                assert!(
                    cm.cell_coord(i - 1) < cm.cell_coord(i),
                    "sorted coordinates ascend"
                );
            }
            assert_eq!(cm.cell_coord(cm.num_cells()), None);
        }
    }
}
