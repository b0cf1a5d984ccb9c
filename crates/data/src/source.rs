//! Streaming point ingest: the [`PointSource`] batch pipeline.
//!
//! Every load path used to slurp the whole file into one
//! [`PointStore`] before any detection work could start, so memory was
//! bounded by the *raw dataset*, not by the grid DBSCOUT actually
//! operates on. A [`PointSource`] instead yields fixed-size
//! [`PointBatch`]es, and the consumers (the two-pass cell-major builder
//! in `dbscout-spatial`, `detect_source` in `dbscout-core`) never hold
//! more than one batch of raw input at a time.
//!
//! Sources are **rewindable**: [`PointSource::reset`] restarts the
//! stream from the beginning, because the streaming grid build is
//! two-pass (pass 1 counts points per ε-cell, pass 2 scatters them into
//! the cell-contiguous columns). A source must replay the *same* points
//! in the same order on every pass; the consumer detects disagreement
//! and fails rather than silently corrupting the layout.
//!
//! Three implementations cover the formats the repo speaks:
//!
//! * [`CsvSource`] — line-oriented CSV with the same strict/permissive
//!   [`IngestMode`] semantics (and [`QuarantineReport`] accounting) as
//!   [`crate::io::read_csv_with`], which is now a thin materializing
//!   wrapper over it;
//! * [`BinarySource`] — the versioned `DBSC` binary format, read in
//!   batch-sized chunks instead of `read_to_end`, with the file length
//!   validated against the header up front (truncation *and* trailing
//!   garbage are rejected before any floats are parsed);
//! * [`StoreSource`] — an in-memory [`PointStore`], the adapter that
//!   lets materialized callers ride the same streaming API.

use std::fs::File;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use dbscout_spatial::PointStore;

use crate::io::{
    parse_binary_header, parse_row, DataIoError, IngestMode, QuarantineReport, BINARY_HEADER_LEN,
};

/// Default number of points per [`PointBatch`]. At 8192 points a 9-D
/// batch is under 600 KiB — large enough to amortize per-batch overhead,
/// small enough that a pipeline's working set is grid-bounded.
pub const DEFAULT_BATCH_SIZE: usize = 8192;

/// One dense batch of points: a dims-checked flat coordinate block
/// (row-major, `len * dims` finite-or-not values exactly as the source
/// produced them; validation happens at the consumer).
#[derive(Debug, Clone, PartialEq)]
pub struct PointBatch {
    dims: usize,
    coords: Vec<f64>,
}

impl PointBatch {
    /// Wraps a flat coordinate block. Fails when `coords` is not a whole
    /// number of `dims`-dimensional points or `dims` is zero.
    pub fn from_flat(dims: usize, coords: Vec<f64>) -> Result<Self, DataIoError> {
        if dims == 0 {
            return Err(DataIoError::Spatial(
                dbscout_spatial::SpatialError::ZeroDims,
            ));
        }
        if !coords.len().is_multiple_of(dims) {
            return Err(DataIoError::Spatial(
                dbscout_spatial::SpatialError::DimensionMismatch {
                    expected: dims,
                    got: coords.len() % dims,
                },
            ));
        }
        Ok(Self { dims, coords })
    }

    /// Point dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of points in the batch.
    pub fn len(&self) -> usize {
        self.coords.len() / self.dims
    }

    /// Whether the batch holds no points.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// The flat row-major coordinate block (`len() * dims()` values).
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Iterates the points as `dims()`-length slices.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        self.coords.chunks_exact(self.dims)
    }
}

impl AsRef<[f64]> for PointBatch {
    fn as_ref(&self) -> &[f64] {
        &self.coords
    }
}

/// A rewindable stream of fixed-size point batches.
///
/// The contract consumers rely on:
///
/// * batches concatenate to one fixed point sequence in a fixed order
///   (ids are assigned by arrival position);
/// * every batch has the same dimensionality;
/// * after [`PointSource::reset`], the stream replays identically.
pub trait PointSource {
    /// The dimensionality of the points, when the source already knows
    /// it (binary headers and in-memory stores do; CSV learns it from
    /// the first accepted row).
    fn dims(&self) -> Option<usize>;

    /// The next batch, or `None` when the stream is exhausted.
    fn next_batch(&mut self) -> Result<Option<PointBatch>, DataIoError>;

    /// Rewinds the stream to the beginning for another pass.
    fn reset(&mut self) -> Result<(), DataIoError>;

    /// Total number of points, when cheaply known up front.
    fn len_hint(&self) -> Option<usize> {
        None
    }
}

/// Reads every batch of `source` into one in-memory [`PointStore`] —
/// the adapter from the streaming API back to materialized callers.
///
/// A source that ends without ever producing a batch (and without
/// declaring a dimensionality) yields the same "empty file" error the
/// eager CSV reader produced.
pub fn materialize(source: &mut dyn PointSource) -> Result<PointStore, DataIoError> {
    let mut store: Option<PointStore> = match source.dims() {
        Some(d) => Some(PointStore::new(d)?),
        None => None,
    };
    while let Some(batch) = source.next_batch()? {
        let store = match &mut store {
            Some(s) => s,
            None => store.insert(PointStore::new(batch.dims())?),
        };
        for row in batch.rows() {
            store.push(row)?;
        }
    }
    store.ok_or_else(|| DataIoError::Parse {
        line: 0,
        message: "empty source".to_owned(),
    })
}

/// Streaming CSV reader with the eager reader's exact semantics:
/// optional trailing `0`/`1` label column, dimensionality established by
/// the first accepted row, strict/permissive malformed-row handling with
/// quarantine accounting.
///
/// Labels and the [`QuarantineReport`] accumulate over one pass and are
/// cleared by [`PointSource::reset`], so after a (possibly multi-pass)
/// consumer finishes they describe exactly one full pass over the file.
/// The established dimensionality survives resets: every pass parses
/// rows against the same expectation.
#[derive(Debug)]
pub struct CsvSource {
    path: PathBuf,
    labeled: bool,
    mode: IngestMode,
    batch_size: usize,
    reader: BufReader<File>,
    line_no: usize,
    dims: Option<usize>,
    accepted: usize,
    done: bool,
    labels: Vec<bool>,
    quarantine: QuarantineReport,
}

impl CsvSource {
    /// Opens `path` for streaming ingest. `labeled` decodes the last
    /// column as a `0`/`1` outlier label; `mode` picks strict or
    /// permissive malformed-row handling; `batch_size` (clamped to ≥ 1)
    /// is the number of accepted rows per batch.
    pub fn open(
        path: impl AsRef<Path>,
        labeled: bool,
        mode: IngestMode,
        batch_size: usize,
    ) -> Result<Self, DataIoError> {
        let path = path.as_ref().to_path_buf();
        let reader = BufReader::new(File::open(&path)?);
        Ok(Self {
            path,
            labeled,
            mode,
            batch_size: batch_size.max(1),
            reader,
            line_no: 0,
            dims: None,
            accepted: 0,
            done: false,
            labels: Vec::new(),
            quarantine: QuarantineReport::default(),
        })
    }

    /// The outlier labels accumulated over the last pass, when the
    /// source was opened with `labeled = true`.
    pub fn take_labels(&mut self) -> Option<Vec<bool>> {
        self.labeled.then(|| std::mem::take(&mut self.labels))
    }

    /// Rows quarantined over the last pass (always clean in
    /// [`IngestMode::Strict`], which errors instead).
    pub fn quarantine(&self) -> &QuarantineReport {
        &self.quarantine
    }
}

impl PointSource for CsvSource {
    fn dims(&self) -> Option<usize> {
        self.dims
    }

    fn next_batch(&mut self) -> Result<Option<PointBatch>, DataIoError> {
        if self.done {
            return Ok(None);
        }
        let dims_hint = self.dims.unwrap_or(2);
        let mut coords: Vec<f64> = Vec::with_capacity(self.batch_size * dims_hint);
        let mut rows = 0usize;
        let mut line = String::new();
        while rows < self.batch_size {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                self.done = true;
                if self.accepted == 0 {
                    return Err(DataIoError::Parse {
                        line: 0,
                        message: if self.quarantine.is_clean() {
                            "empty file".to_owned()
                        } else {
                            format!(
                                "no usable rows ({} quarantined, all malformed)",
                                self.quarantine.quarantined
                            )
                        },
                    });
                }
                break;
            }
            self.line_no += 1;
            let row = line.trim();
            if row.is_empty() {
                continue;
            }
            match parse_row(row, self.line_no, self.labeled, self.dims) {
                Ok((point, label)) => {
                    self.dims.get_or_insert(point.len());
                    coords.extend_from_slice(&point);
                    if self.labeled {
                        self.labels.push(label);
                    }
                    rows += 1;
                    self.accepted += 1;
                }
                Err(reason) => match self.mode {
                    IngestMode::Strict => {
                        return Err(DataIoError::Parse {
                            line: self.line_no,
                            message: reason,
                        })
                    }
                    IngestMode::Permissive => self.quarantine.record(self.line_no, reason),
                },
            }
        }
        if rows == 0 {
            return Ok(None);
        }
        // dims was established by the first accepted row above.
        let dims = self.dims.unwrap_or(dims_hint);
        Ok(Some(PointBatch::from_flat(dims, coords)?))
    }

    fn reset(&mut self) -> Result<(), DataIoError> {
        self.reader = BufReader::new(File::open(&self.path)?);
        self.line_no = 0;
        self.accepted = 0;
        self.done = false;
        self.labels.clear();
        self.quarantine = QuarantineReport::default();
        Ok(())
    }
}

/// The most bytes a [`BinarySource`] reads at once: the size of its one
/// read buffer when a batch holds more. A multiple of 8, so every chunk
/// holds whole coordinates.
const READ_CHUNK_BYTES: usize = 64 * 1024;

/// Streaming reader for the `DBSC` binary format: the 14-byte header is
/// validated up front (magic, version, dimensionality, and the file
/// length against the declared `n * dims` payload — short files are
/// [`DataIoError::Truncated`], long ones [`DataIoError::TrailingBytes`]),
/// then coordinates are read in batch-sized chunks.
///
/// Every batch is read through one byte buffer that the source keeps, of
/// at most 64 KiB: a larger batch is read chunk by chunk, each decoded
/// into the batch's coordinates before the next is read, so no batch
/// allocates or zero-fills bytes of its own.
#[derive(Debug)]
pub struct BinarySource {
    reader: BufReader<File>,
    dims: usize,
    total: u64,
    read_points: u64,
    batch_size: usize,
    buf: Vec<u8>,
}

impl BinarySource {
    /// Opens `path` and validates its header and length.
    pub fn open(path: impl AsRef<Path>, batch_size: usize) -> Result<Self, DataIoError> {
        let file = File::open(path)?;
        let mut reader = BufReader::new(file);
        // Read as much of the header as the file holds, then let the
        // shared parser classify short/bad/skewed headers consistently
        // with `decode_binary`.
        let mut header = [0u8; BINARY_HEADER_LEN];
        let mut filled = 0usize;
        while filled < BINARY_HEADER_LEN {
            let Some(dst) = header.get_mut(filled..) else {
                break;
            };
            let k = reader.read(dst)?;
            if k == 0 {
                break;
            }
            filled += k;
        }
        let (dims, total) = parse_binary_header(header.get(..filled).unwrap_or(&header))?;
        if dims == 0 {
            return Err(DataIoError::Spatial(
                dbscout_spatial::SpatialError::ZeroDims,
            ));
        }
        if dims > dbscout_spatial::MAX_DIMS {
            return Err(DataIoError::Spatial(
                dbscout_spatial::SpatialError::TooManyDims { requested: dims },
            ));
        }
        let payload = total
            .checked_mul(dims as u64)
            .and_then(|x| x.checked_mul(8))
            .ok_or(DataIoError::Truncated)?;
        let file_len = reader.get_ref().metadata()?.len();
        let want = (BINARY_HEADER_LEN as u64)
            .checked_add(payload)
            .ok_or(DataIoError::Truncated)?;
        if file_len < want {
            return Err(DataIoError::Truncated);
        }
        if file_len > want {
            return Err(DataIoError::TrailingBytes {
                extra: file_len - want,
            });
        }
        let batch_size = batch_size.max(1);
        let batch_bytes = batch_size.saturating_mul(dims * 8);
        Ok(Self {
            reader,
            dims,
            total,
            read_points: 0,
            batch_size,
            buf: vec![0; batch_bytes.min(READ_CHUNK_BYTES)],
        })
    }
}

impl PointSource for BinarySource {
    fn dims(&self) -> Option<usize> {
        Some(self.dims)
    }

    fn next_batch(&mut self) -> Result<Option<PointBatch>, DataIoError> {
        let remaining = self.total - self.read_points;
        if remaining == 0 {
            return Ok(None);
        }
        let points = (self.batch_size as u64).min(remaining) as usize;
        let mut coords = Vec::with_capacity(points * self.dims);
        let mut left = points * self.dims * 8;
        // Each round reads whole coordinates: `left` and the buffer's
        // length (at least 8) are multiples of 8. It ends at `left == 0`.
        let most = self.buf.len();
        while let Some(chunk) = self.buf.get_mut(..left.min(most)) {
            if chunk.is_empty() {
                break;
            }
            self.reader.read_exact(chunk).map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    DataIoError::Truncated
                } else {
                    DataIoError::Io(e)
                }
            })?;
            coords.extend(chunk.chunks_exact(8).map(|c| {
                let mut b = [0u8; 8];
                b.copy_from_slice(c);
                f64::from_le_bytes(b)
            }));
            left -= chunk.len();
        }
        self.read_points += points as u64;
        Ok(Some(PointBatch::from_flat(self.dims, coords)?))
    }

    fn reset(&mut self) -> Result<(), DataIoError> {
        self.reader
            .seek(SeekFrom::Start(BINARY_HEADER_LEN as u64))?;
        self.read_points = 0;
        Ok(())
    }

    fn len_hint(&self) -> Option<usize> {
        usize::try_from(self.total).ok()
    }
}

/// An in-memory [`PointStore`] behind the streaming API — the adapter
/// materialized callers (and the equivalence tests) use to feed the
/// same detector entry point.
#[derive(Debug)]
pub struct StoreSource<'a> {
    store: &'a PointStore,
    cursor: usize,
    batch_size: usize,
}

impl<'a> StoreSource<'a> {
    /// Streams `store` in batches of `batch_size` (clamped to ≥ 1)
    /// points, in id order.
    pub fn new(store: &'a PointStore, batch_size: usize) -> Self {
        Self {
            store,
            cursor: 0,
            batch_size: batch_size.max(1),
        }
    }
}

impl PointSource for StoreSource<'_> {
    fn dims(&self) -> Option<usize> {
        Some(self.store.dims())
    }

    fn next_batch(&mut self) -> Result<Option<PointBatch>, DataIoError> {
        let n = self.store.len() as usize;
        if self.cursor >= n {
            return Ok(None);
        }
        let end = (self.cursor + self.batch_size).min(n);
        let dims = self.store.dims();
        let coords = self
            .store
            .flat()
            .get(self.cursor * dims..end * dims)
            .unwrap_or(&[])
            .to_vec();
        self.cursor = end;
        Ok(Some(PointBatch::from_flat(dims, coords)?))
    }

    fn reset(&mut self) -> Result<(), DataIoError> {
        self.cursor = 0;
        Ok(())
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.store.len() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{encode_binary, read_csv_with, write_binary, write_csv};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dbscout-source-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_store(n: usize, dims: usize) -> PointStore {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..dims).map(|k| (i * dims + k) as f64 * 0.25).collect())
            .collect();
        PointStore::from_rows(dims, rows).unwrap()
    }

    fn drain(source: &mut dyn PointSource) -> Vec<PointBatch> {
        let mut out = Vec::new();
        while let Some(b) = source.next_batch().unwrap() {
            out.push(b);
        }
        out
    }

    #[test]
    fn store_source_batches_cover_the_store_in_order() {
        let store = sample_store(10, 3);
        for batch_size in [1, 3, 4, 100] {
            let mut src = StoreSource::new(&store, batch_size);
            assert_eq!(src.dims(), Some(3));
            assert_eq!(src.len_hint(), Some(10));
            let batches = drain(&mut src);
            let total: usize = batches.iter().map(PointBatch::len).sum();
            assert_eq!(total, 10, "batch_size {batch_size}");
            let flat: Vec<f64> = batches.iter().flat_map(|b| b.coords().to_vec()).collect();
            assert_eq!(flat, store.flat());
            // Rewind replays identically.
            src.reset().unwrap();
            assert_eq!(drain(&mut src), batches);
        }
    }

    #[test]
    fn materialize_round_trips_store_source() {
        let store = sample_store(23, 2);
        let mut src = StoreSource::new(&store, 7);
        assert_eq!(materialize(&mut src).unwrap(), store);
    }

    #[test]
    fn csv_source_matches_eager_reader_including_labels() {
        let path = tmp("labeled.csv");
        let store = sample_store(17, 2);
        let labels: Vec<bool> = (0..17).map(|i| i % 5 == 0).collect();
        write_csv(&path, &store, Some(&labels)).unwrap();
        for batch_size in [1, 4, 1000] {
            let mut src = CsvSource::open(&path, true, IngestMode::Strict, batch_size).unwrap();
            let got = materialize(&mut src).unwrap();
            assert_eq!(got, store, "batch_size {batch_size}");
            assert_eq!(src.take_labels().unwrap(), labels);
            assert!(src.quarantine().is_clean());
        }
    }

    #[test]
    fn csv_source_reset_clears_per_pass_state() {
        let path = tmp("dirty-reset.csv");
        std::fs::write(&path, "1.0,2.0,1\nbad,row,0\n3.0,4.0,0\n").unwrap();
        let mut src = CsvSource::open(&path, true, IngestMode::Permissive, 2).unwrap();
        let first = drain(&mut src);
        assert_eq!(src.quarantine().quarantined, 1);
        src.reset().unwrap();
        assert!(src.quarantine().is_clean(), "quarantine must reset");
        let second = drain(&mut src);
        assert_eq!(first, second, "pass 2 must replay pass 1");
        assert_eq!(src.quarantine().quarantined, 1);
        assert_eq!(src.take_labels().unwrap(), vec![true, false]);
    }

    #[test]
    fn csv_source_strict_propagates_parse_errors() {
        let path = tmp("strict-bad.csv");
        std::fs::write(&path, "1.0,2.0\nnope,4.0\n").unwrap();
        let mut src = CsvSource::open(&path, false, IngestMode::Strict, 100).unwrap();
        let err = loop {
            match src.next_batch() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("bad row must error in strict mode"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, DataIoError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn csv_source_empty_file_is_an_error() {
        let path = tmp("empty.csv");
        std::fs::write(&path, "").unwrap();
        let mut src = CsvSource::open(&path, false, IngestMode::Strict, 8).unwrap();
        let err = src.next_batch().unwrap_err();
        assert!(err.to_string().contains("empty file"), "{err}");
    }

    #[test]
    fn eager_reader_delegates_to_the_source() {
        // The eager API is now a materializing wrapper; semantics must
        // not have drifted for a dirty permissive load.
        let path = tmp("dirty-eager.csv");
        std::fs::write(
            &path,
            "1.0,2.0\nnope,2.0\n3.0,NaN\n5.0,6.0\n7.0\n9.0,10.0\n",
        )
        .unwrap();
        let ingest = read_csv_with(&path, false, IngestMode::Permissive).unwrap();
        assert_eq!(ingest.store.len(), 3);
        assert_eq!(ingest.quarantine.quarantined, 3);
        let mut src = CsvSource::open(&path, false, IngestMode::Permissive, 2).unwrap();
        assert_eq!(materialize(&mut src).unwrap(), ingest.store);
        assert_eq!(*src.quarantine(), ingest.quarantine);
    }

    #[test]
    fn binary_source_streams_chunked_and_rewinds() {
        let path = tmp("points.dbsc");
        let store = sample_store(33, 3);
        write_binary(&path, &store).unwrap();
        for batch_size in [1, 8, 33, 500] {
            let mut src = BinarySource::open(&path, batch_size).unwrap();
            assert_eq!(src.dims(), Some(3));
            assert_eq!(src.len_hint(), Some(33));
            assert_eq!(materialize(&mut src).unwrap(), store);
            src.reset().unwrap();
            assert_eq!(materialize(&mut src).unwrap(), store);
        }
    }

    #[test]
    fn binary_source_reports_a_file_cut_short_after_open() {
        // Batches of 2-D points that span two read chunks, so a cut can
        // fall inside a batch after part of it has been read.
        let dims = 2;
        let batch = READ_CHUNK_BYTES / (dims * 8) + 1000;
        let batch_bytes = batch * dims * 8;
        let store = sample_store(3 * batch, dims);
        let want: Vec<&[f64]> = store.flat().chunks(batch * dims).collect();
        let path = tmp("cut-after-open.dbsc");
        write_binary(&path, &store).unwrap();
        let cut_to = |payload: usize| {
            std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .unwrap()
                .set_len((BINARY_HEADER_LEN + payload) as u64)
                .unwrap();
        };
        let mut src = BinarySource::open(&path, batch).unwrap();
        // Pass 1 meets the short end in the second chunk of its last batch.
        for &w in &want[..2] {
            assert_eq!(src.next_batch().unwrap().unwrap().coords(), w);
        }
        cut_to(2 * batch_bytes + READ_CHUNK_BYTES + 12);
        assert!(matches!(src.next_batch(), Err(DataIoError::Truncated)));
        // Pass 2 meets it in the first chunk of its second batch, while the
        // buffer still holds bytes of pass 1's last batch.
        src.reset().unwrap();
        cut_to(batch_bytes + 100);
        assert_eq!(src.next_batch().unwrap().unwrap().coords(), want[0]);
        assert!(matches!(src.next_batch(), Err(DataIoError::Truncated)));
    }

    #[test]
    fn binary_source_rejects_corrupt_files_up_front() {
        let store = sample_store(4, 2);
        let good = encode_binary(&store);

        let bad_magic = tmp("bad-magic.dbsc");
        let mut buf = good.clone();
        buf[0] = b'X';
        std::fs::write(&bad_magic, &buf).unwrap();
        assert!(matches!(
            BinarySource::open(&bad_magic, 8),
            Err(DataIoError::BadMagic)
        ));

        let bad_version = tmp("bad-version.dbsc");
        let mut buf = good.clone();
        buf[4] = 99;
        std::fs::write(&bad_version, &buf).unwrap();
        assert!(matches!(
            BinarySource::open(&bad_version, 8),
            Err(DataIoError::UnsupportedVersion { found: 99 })
        ));

        let truncated = tmp("truncated.dbsc");
        std::fs::write(&truncated, &good[..good.len() - 5]).unwrap();
        assert!(matches!(
            BinarySource::open(&truncated, 8),
            Err(DataIoError::Truncated)
        ));

        let trailing = tmp("trailing.dbsc");
        let mut buf = good.clone();
        buf.extend_from_slice(&[1, 2, 3]);
        std::fs::write(&trailing, &buf).unwrap();
        assert!(matches!(
            BinarySource::open(&trailing, 8),
            Err(DataIoError::TrailingBytes { extra: 3 })
        ));

        // 9 bytes: valid magic+version, count cut short → truncated, not
        // "not a DBSC file".
        let short_header = tmp("short-header.dbsc");
        std::fs::write(&short_header, &good[..9]).unwrap();
        assert!(matches!(
            BinarySource::open(&short_header, 8),
            Err(DataIoError::Truncated)
        ));

        // 3 bytes: not even the magic fits.
        let no_magic = tmp("no-magic.dbsc");
        std::fs::write(&no_magic, &good[..3]).unwrap();
        assert!(matches!(
            BinarySource::open(&no_magic, 8),
            Err(DataIoError::BadMagic)
        ));
    }

    #[test]
    fn batch_shape_is_validated() {
        assert!(PointBatch::from_flat(0, vec![]).is_err());
        assert!(PointBatch::from_flat(2, vec![1.0, 2.0, 3.0]).is_err());
        let b = PointBatch::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.rows().count(), 2);
    }
}
