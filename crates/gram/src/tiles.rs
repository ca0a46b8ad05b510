//! Tile decomposition of Gram jobs.
//!
//! The matrix is cut into fixed-edge square tiles (edge tiles may be
//! smaller). A symmetric train job only enumerates the upper block
//! triangle `bi <= bj`; diagonal tiles carry the full square block (unit
//! diagonal plus the in-block mirror) so assembly is a plain row copy.
//! Tiles are ordered row-band-major — consecutive tiles share their row
//! band, which is what makes the spill path's band cache effective.

use crate::fingerprint::JobKind;
use std::ops::Range;

/// One tile of the output matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Row band index.
    pub bi: usize,
    /// Column band index (`bi <= bj` for symmetric jobs).
    pub bj: usize,
    /// First matrix row covered.
    pub row0: usize,
    /// Rows covered.
    pub rows: usize,
    /// First matrix column covered.
    pub col0: usize,
    /// Columns covered.
    pub cols: usize,
}

impl Tile {
    /// Number of entries in the tile payload.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// `true` for zero-area tiles, which only a [`TilePlan::balanced`]
    /// plan with more bands than rows produces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inner products the engine must contract for this tile under the
    /// given job kind: diagonal train tiles only contract their strict
    /// upper triangle, everything else contracts every entry.
    pub fn inner_products(&self, kind: JobKind) -> usize {
        if kind == JobKind::Train && self.bi == self.bj {
            self.rows * self.rows.saturating_sub(1) / 2
        } else {
            self.len()
        }
    }
}

/// The full tile schedule for one job.
#[derive(Debug, Clone)]
pub struct TilePlan {
    /// Job kind the plan was built for.
    pub kind: JobKind,
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Tile edge (the widest band of a [`TilePlan::balanced`] plan).
    pub tile: usize,
    /// Tiles in execution order (row-band-major).
    pub tiles: Vec<Tile>,
}

/// Fixed-edge band boundaries: `tile` rows each, the last band ragged.
fn edge_bands(extent: usize, tile: usize) -> Vec<Range<usize>> {
    assert!(tile >= 1, "tile edge must be at least 1");
    (0..extent.div_ceil(tile))
        .map(|b| b * tile..((b + 1) * tile).min(extent))
        .collect()
}

impl TilePlan {
    /// Plans a symmetric `n x n` train job: upper block triangle only.
    pub fn symmetric(n: usize, tile: usize) -> TilePlan {
        let bands = edge_bands(n, tile);
        Self::over(JobKind::Train, &bands, &bands, tile)
    }

    /// Plans a symmetric `n x n` train job over `bands` balanced bands:
    /// the first `n % bands` hold one row more than the rest, so band
    /// sizes differ by at most one (the Fig. 4 strategies' partition).
    /// With `n < bands` the trailing bands, and their tiles, are empty.
    pub fn balanced(n: usize, bands: usize) -> TilePlan {
        assert!(bands >= 1, "need at least one band");
        let (base, extra) = (n / bands, n % bands);
        let bounds: Vec<Range<usize>> = (0..bands)
            .map(|b| {
                let start = b * base + b.min(extra);
                start..start + base + usize::from(b < extra)
            })
            .collect();
        Self::over(JobKind::Train, &bounds, &bounds, n.div_ceil(bands))
    }

    /// Plans a rectangular `rows x cols` block job: every tile.
    pub fn rectangular(rows: usize, cols: usize, tile: usize) -> TilePlan {
        let (row_bands, col_bands) = (edge_bands(rows, tile), edge_bands(cols, tile));
        Self::over(JobKind::Block, &row_bands, &col_bands, tile)
    }

    /// The tiles crossing every row band with every column band, in
    /// row-band-major order; a train job keeps only `bi <= bj`.
    fn over(kind: JobKind, rows: &[Range<usize>], cols: &[Range<usize>], tile: usize) -> TilePlan {
        let upper = kind == JobKind::Train;
        let tiles = rows
            .iter()
            .enumerate()
            .flat_map(|(bi, r)| {
                let skip = if upper { bi } else { 0 };
                cols.iter().enumerate().skip(skip).map(move |(bj, c)| Tile {
                    bi,
                    bj,
                    row0: r.start,
                    rows: r.len(),
                    col0: c.start,
                    cols: c.len(),
                })
            })
            .collect();
        TilePlan {
            kind,
            rows: rows.last().map_or(0, |b| b.end),
            cols: cols.last().map_or(0, |b| b.end),
            tile,
            tiles,
        }
    }

    /// The rank that owns the plan's `index`-th tile when `ranks` ranks
    /// deal the tiles round-robin in plan order.
    pub fn owner(index: usize, ranks: usize) -> usize {
        index % ranks
    }

    /// The tiles `rank` owns under [`TilePlan::owner`], in plan order.
    pub fn owned_by(&self, rank: usize, ranks: usize) -> impl Iterator<Item = &Tile> {
        self.tiles
            .iter()
            .enumerate()
            .filter(move |(i, _)| Self::owner(*i, ranks) == rank)
            .map(|(_, tile)| tile)
    }

    /// Total inner products over the whole plan (`n(n-1)/2` for train
    /// jobs, `rows * cols` for blocks) — the count the manifest reports.
    pub fn inner_products(&self) -> usize {
        self.tiles.iter().map(|t| t.inner_products(self.kind)).sum()
    }

    /// Looks up the planned tile at band coordinates.
    pub fn find(&self, bi: usize, bj: usize) -> Option<&Tile> {
        self.tiles.iter().find(|t| t.bi == bi && t.bj == bj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_plan_covers_upper_triangle_once() {
        for (n, tile) in [(10usize, 3usize), (8, 4), (5, 5), (7, 10), (1, 2), (64, 16)] {
            let plan = TilePlan::symmetric(n, tile);
            let bands = n.div_ceil(tile);
            assert_eq!(plan.tiles.len(), bands * (bands + 1) / 2, "n={n} t={tile}");
            // Every (i, j) with i <= j is covered by exactly one tile.
            let mut cover = vec![0usize; n * n];
            for t in &plan.tiles {
                assert!(t.bi <= t.bj);
                assert!(!t.is_empty());
                for i in t.row0..t.row0 + t.rows {
                    for j in t.col0..t.col0 + t.cols {
                        cover[i * n + j] += 1;
                    }
                }
            }
            for i in 0..n {
                for j in 0..n {
                    let expect = usize::from(i / tile <= j / tile);
                    assert_eq!(cover[i * n + j], expect, "({i},{j}) n={n} t={tile}");
                }
            }
            assert_eq!(plan.inner_products(), n * (n - 1) / 2, "n={n} t={tile}");
        }
    }

    #[test]
    fn rectangular_plan_covers_everything_once() {
        for (rows, cols, tile) in [(5usize, 9usize, 4usize), (3, 3, 3), (1, 7, 2), (6, 2, 8)] {
            let plan = TilePlan::rectangular(rows, cols, tile);
            let mut cover = vec![0usize; rows * cols];
            for t in &plan.tiles {
                for i in t.row0..t.row0 + t.rows {
                    for j in t.col0..t.col0 + t.cols {
                        cover[i * cols + j] += 1;
                    }
                }
            }
            assert!(cover.iter().all(|&c| c == 1), "{rows}x{cols} t={tile}");
            assert_eq!(plan.inner_products(), rows * cols);
        }
    }

    #[test]
    fn tiles_are_row_band_major() {
        let plan = TilePlan::symmetric(20, 4);
        let order: Vec<(usize, usize)> = plan.tiles.iter().map(|t| (t.bi, t.bj)).collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted);
    }

    #[test]
    fn balanced_bands_cover_everything() {
        for (n, k) in [(10usize, 3usize), (7, 7), (5, 2), (9, 4), (2, 4)] {
            let plan = TilePlan::balanced(n, k);
            assert_eq!(plan.tiles.len(), k * (k + 1) / 2);
            // Diagonal tiles walk the bands: contiguous, larger first,
            // sizes within one of each other.
            let bands: Vec<(usize, usize)> = (0..k)
                .map(|b| plan.find(b, b).map(|t| (t.row0, t.rows)).unwrap())
                .collect();
            assert_eq!(bands.iter().map(|b| b.1).sum::<usize>(), n);
            for w in bands.windows(2) {
                assert_eq!(w[0].0 + w[0].1, w[1].0);
                assert!(w[0].1 - w[1].1 <= 1);
            }
            assert_eq!(plan.inner_products(), n * n.saturating_sub(1) / 2);
        }
    }

    #[test]
    fn owners_deal_the_plan_round_robin() {
        let plan = TilePlan::symmetric(10, 3);
        for rank in 0..3 {
            let owned: Vec<&Tile> = plan.owned_by(rank, 3).collect();
            let expect: Vec<&Tile> = plan.tiles.iter().skip(rank).step_by(3).collect();
            assert_eq!(owned, expect, "rank {rank}");
        }
    }

    #[test]
    fn diagonal_tile_product_count() {
        let plan = TilePlan::symmetric(10, 4);
        let diag = plan.find(0, 0).unwrap();
        assert_eq!(diag.inner_products(JobKind::Train), 6); // C(4, 2)
        let off = plan.find(0, 1).unwrap();
        assert_eq!(off.inner_products(JobKind::Train), 16);
        let edge = plan.find(2, 2).unwrap();
        assert_eq!(edge.rows, 2);
        assert_eq!(edge.inner_products(JobKind::Train), 1);
    }
}
