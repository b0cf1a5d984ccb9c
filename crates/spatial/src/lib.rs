//! Spatial substrate for DBSCOUT: point storage, ε-cells, grids,
//! neighbor-offset enumeration, and a KD-tree.
//!
//! DBSCOUT's machinery (paper §II) lives here:
//!
//! * [`PointStore`] — flat structure-of-arrays storage for n points in
//!   d-dimensional space (d small, typically 2–3);
//! * [`CellCoord`] / [`cell::cell_of`] — the ε-cell a point belongs to
//!   (Definition 4: hypercube of diagonal ε, i.e. side ε/√d);
//! * [`NeighborOffsets`] — the constant set of cell offsets that can hold
//!   points within ε (Definition 8); its size is the paper's k_d constant
//!   (Table I);
//! * [`Grid`] — the complete non-overlapping partition of a dataset into
//!   cells (Definition 5), with per-cell point lists;
//! * [`KdTree`] — exact k-NN used by the LOF/DDLOF baselines and by
//!   k-dist-graph parameter selection.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Unit tests may panic freely; library code is held to the panic-freedom
// gates in `[workspace.lints]` and `cargo xtask lint`.
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::float_cmp
    )
)]
pub mod cell;
pub mod cell_major;
mod cell_table;
pub mod distance;
pub mod error;
pub mod grid;
pub mod kdtree;
pub mod mutable;
pub mod neighbors;
pub mod points;

pub use cell::{check_point, validate_eps, CellCoord, MAX_CELL_INDEX, MAX_DIMS};
pub use cell_major::{
    CellMajorBuilder, CellMajorScatter, CellMajorStore, CellRecord, NeighborSweep, ScatterShard,
};
pub use error::SpatialError;
pub use grid::Grid;
pub use kdtree::KdTree;
pub use mutable::MutableCellMajor;
pub use neighbors::NeighborOffsets;
pub use points::PointStore;
