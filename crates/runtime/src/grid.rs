//! Explicit multi-dimensional thread decompositions (paper PAR-MODE 2).
//!
//! With `loop_spec_string = bC{R:16}aB{C:4}cb` the 64 team threads form a
//! logical 16 x 4 grid; loop `c0` is parallelized 16-ways by grid *row* and
//! loop `b1` 4-ways by grid *column*, each in a block fashion. [`GridDecomp`]
//! maps a flat thread id to its grid coordinates and partitions loop
//! iterations per axis.

use crate::sched::block_partition;
use std::ops::Range;

/// Axis of a logical thread grid, in PARLOOPER spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GridAxis {
    /// `R` — rows, the slowest-varying coordinate.
    Row,
    /// `C` — columns.
    Col,
    /// `L` — layers, the fastest-varying coordinate (3-D decompositions).
    Layer,
}

/// A logical `R x C x L` thread grid (missing axes default to extent 1).
///
/// Thread ids map row-major: `tid = (row * C + col) * L + layer`, matching
/// the paper's `row_id = tid / col_teams; col_id = tid % col_teams` for 2-D.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridDecomp {
    rows: usize,
    cols: usize,
    layers: usize,
}

impl GridDecomp {
    /// Builds a grid from per-axis ways; `None` axes get extent 1.
    pub fn from_ways(r: Option<usize>, c: Option<usize>, l: Option<usize>) -> Self {
        GridDecomp {
            rows: r.unwrap_or(1).max(1),
            cols: c.unwrap_or(1).max(1),
            layers: l.unwrap_or(1).max(1),
        }
    }

    /// Total number of grid positions.
    pub fn size(&self) -> usize {
        self.rows * self.cols * self.layers
    }

    /// Extent along an axis.
    fn extent(&self, axis: GridAxis) -> usize {
        match axis {
            GridAxis::Row => self.rows,
            GridAxis::Col => self.cols,
            GridAxis::Layer => self.layers,
        }
    }

    /// Grid coordinate of `tid` along `axis`.
    #[inline]
    fn coord(&self, tid: usize, axis: GridAxis) -> usize {
        debug_assert!(tid < self.size(), "tid {tid} outside grid {self:?}");
        match axis {
            GridAxis::Row => tid / (self.cols * self.layers),
            GridAxis::Col => (tid / self.layers) % self.cols,
            GridAxis::Layer => tid % self.layers,
        }
    }

    /// Block-partitions `0..total` along `axis` for thread `tid`
    /// (the paper: "each loop that is parallelized is done so in a block
    /// fashion using the requested number of ways").
    #[inline]
    pub fn partition(&self, tid: usize, axis: GridAxis, total: usize) -> Range<usize> {
        block_partition(total, self.extent(axis), self.coord(tid, axis))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_d_coords_match_paper_listing3() {
        // Listing 3: row_teams=16, col_teams=4, row_id=tid/col_teams,
        // col_id=tid%col_teams.
        let g = GridDecomp::from_ways(Some(16), Some(4), None);
        assert_eq!(g.size(), 64);
        for tid in 0..64 {
            assert_eq!(g.coord(tid, GridAxis::Row), tid / 4);
            assert_eq!(g.coord(tid, GridAxis::Col), tid % 4);
        }
    }

    #[test]
    fn three_d_coords_are_row_major() {
        let g = GridDecomp::from_ways(Some(2), Some(3), Some(4));
        assert_eq!(g.size(), 24);
        let tid = (3 + 2) * 4 + 3; // row 1, col 2, layer 3 (row-major: (r*3 + c)*4 + l)
        assert_eq!(g.coord(tid, GridAxis::Row), 1);
        assert_eq!(g.coord(tid, GridAxis::Col), 2);
        assert_eq!(g.coord(tid, GridAxis::Layer), 3);
    }

    #[test]
    fn partitions_tile_the_space_per_axis() {
        let g = GridDecomp::from_ways(Some(3), Some(2), None);
        // Along rows: threads sharing a row coordinate get the same range;
        // distinct rows tile 0..10.
        let mut seen = [0u8; 10];
        for row in 0..3 {
            let tid = row * 2; // col 0 representative
            for i in g.partition(tid, GridAxis::Row, 10) {
                seen[i] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
        // Threads in the same row agree.
        assert_eq!(g.partition(2, GridAxis::Row, 10), g.partition(3, GridAxis::Row, 10));
    }

    #[test]
    fn degenerate_axes_default_to_one() {
        let g = GridDecomp::from_ways(Some(4), None, None);
        assert_eq!(g.size(), 4);
        assert_eq!(g.partition(2, GridAxis::Col, 8), 0..8);
    }
}
