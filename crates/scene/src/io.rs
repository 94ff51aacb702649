//! Binary (de)serialization of [`GaussianModel`] checkpoints and the
//! chunked [`SceneSource`] abstraction for out-of-core scenes.
//!
//! Two framed little-endian formats live here:
//!
//! * the flat checkpoint (`encode_model`/`decode_model`): magic, version,
//!   SH degree, point count, then the SoA arrays. The encoded size equals
//!   [`GaussianModel::storage_bytes`] plus a fixed 16-byte header, so storage
//!   comparisons in the evaluation (Tbl. 1 "Storage (MB)") measure real
//!   bytes.
//! * the chunked container (`encode_model_chunked` /
//!   [`ChunkedFileSource`]): a header plus a length-prefixed chunk table,
//!   followed by one complete flat checkpoint per chunk. Chunks can be
//!   loaded independently, so a renderer never needs the whole model
//!   resident — see [`SceneSource`].

use crate::GaussianModel;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const MAGIC: u32 = 0x4D53_4753; // "MSGS"
const VERSION: u16 = 1;

const CHUNK_MAGIC: u32 = 0x4D53_4743; // "MSGC"
const CHUNK_VERSION: u16 = 1;
const CHUNK_HEADER_BYTES: usize = 12;
const CHUNK_TABLE_ENTRY_BYTES: usize = 16;

/// Errors produced by [`decode_model`] and [`ChunkedFileSource`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer does not start with the expected magic number.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// The buffer ended before all declared data was read.
    Truncated,
    /// Decoded data failed model validation.
    Invalid(String),
    /// The backing file could not be read.
    Io(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "bad magic number"),
            DecodeError::BadVersion(v) => write!(f, "unsupported version {v}"),
            DecodeError::Truncated => write!(f, "buffer truncated"),
            DecodeError::Invalid(msg) => write!(f, "invalid model: {msg}"),
            DecodeError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl Error for DecodeError {}

/// Encode a model to bytes.
pub fn encode_model(model: &GaussianModel) -> Bytes {
    let n = model.len();
    let mut buf = BytesMut::with_capacity(16 + model.storage_bytes());
    buf.put_u32_le(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u16_le(model.sh_degree as u16);
    buf.put_u64_le(n as u64);
    for p in &model.positions {
        buf.put_f32_le(p.x);
        buf.put_f32_le(p.y);
        buf.put_f32_le(p.z);
    }
    for s in &model.scales {
        buf.put_f32_le(s.x);
        buf.put_f32_le(s.y);
        buf.put_f32_le(s.z);
    }
    for q in &model.rotations {
        buf.put_f32_le(q.w);
        buf.put_f32_le(q.x);
        buf.put_f32_le(q.y);
        buf.put_f32_le(q.z);
    }
    for &o in &model.opacities {
        buf.put_f32_le(o);
    }
    for &c in &model.sh_coeffs {
        buf.put_f32_le(c);
    }
    buf.freeze()
}

/// Decode a model from bytes.
///
/// # Errors
///
/// Returns a [`DecodeError`] when the buffer is malformed, truncated, or
/// decodes to a model violating [`GaussianModel::validate`].
pub fn decode_model(data: &[u8]) -> Result<GaussianModel, DecodeError> {
    let mut model = GaussianModel::default();
    decode_model_into(data, &mut model)?;
    Ok(model)
}

/// Decode a model from bytes into an existing buffer, replacing its
/// contents but keeping its allocations (the chunked streaming path decodes
/// every chunk into one recycled model).
///
/// # Errors
///
/// Same contract as [`decode_model`].
pub fn decode_model_into(mut data: &[u8], into: &mut GaussianModel) -> Result<(), DecodeError> {
    if data.remaining() < 16 {
        return Err(DecodeError::Truncated);
    }
    if data.get_u32_le() != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = data.get_u16_le();
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let sh_degree = data.get_u16_le() as usize;
    if sh_degree > ms_math::sh::MAX_DEGREE {
        return Err(DecodeError::Invalid(format!("sh degree {sh_degree}")));
    }
    let n = data.get_u64_le() as usize;
    into.sh_degree = sh_degree;
    into.positions.clear();
    into.scales.clear();
    into.rotations.clear();
    into.opacities.clear();
    into.sh_coeffs.clear();
    let stride = into.sh_stride();
    // `n` comes from the input: a header claiming more points than any
    // buffer can hold must not overflow the size check.
    let need = n
        .checked_mul(12 + 12 + 16 + 4 + stride * 4)
        .ok_or(DecodeError::Truncated)?;
    if data.remaining() < need {
        return Err(DecodeError::Truncated);
    }
    into.positions.reserve(n);
    into.scales.reserve(n);
    into.rotations.reserve(n);
    into.opacities.reserve(n);
    into.sh_coeffs.reserve(n * stride);
    for _ in 0..n {
        into.positions.push(ms_math::Vec3::new(
            data.get_f32_le(),
            data.get_f32_le(),
            data.get_f32_le(),
        ));
    }
    for _ in 0..n {
        into.scales.push(ms_math::Vec3::new(
            data.get_f32_le(),
            data.get_f32_le(),
            data.get_f32_le(),
        ));
    }
    for _ in 0..n {
        into.rotations.push(ms_math::Quat::new(
            data.get_f32_le(),
            data.get_f32_le(),
            data.get_f32_le(),
            data.get_f32_le(),
        ));
    }
    for _ in 0..n {
        into.opacities.push(data.get_f32_le());
    }
    for _ in 0..n * stride {
        into.sh_coeffs.push(data.get_f32_le());
    }
    into.validate().map_err(DecodeError::Invalid)?;
    Ok(())
}

/// Encode a model as a chunked container: a 12-byte header (magic, version,
/// SH degree, chunk count), a chunk table of `(byte_len, point_count)` u64
/// pairs, then one complete [`encode_model`] blob per chunk of at most
/// `chunk_splats` points.
///
/// An empty model encodes as a valid 0-chunk container.
///
/// # Panics
///
/// Panics when `chunk_splats == 0` or the model exceeds `u32::MAX` chunks.
pub fn encode_model_chunked(model: &GaussianModel, chunk_splats: usize) -> Bytes {
    assert!(chunk_splats > 0, "chunk_splats must be > 0");
    let n = model.len();
    let chunk_count = n.div_ceil(chunk_splats);
    assert!(chunk_count <= u32::MAX as usize, "too many chunks");
    let mut blobs = Vec::with_capacity(chunk_count);
    let mut chunk = GaussianModel::new(model.sh_degree);
    for c in 0..chunk_count {
        let start = c * chunk_splats;
        let end = (start + chunk_splats).min(n);
        model.clone_range_into(start..end, &mut chunk);
        blobs.push(encode_model(&chunk));
    }
    let blob_bytes: usize = blobs.iter().map(|b| b.len()).sum();
    let mut buf = BytesMut::with_capacity(
        CHUNK_HEADER_BYTES + chunk_count * CHUNK_TABLE_ENTRY_BYTES + blob_bytes,
    );
    buf.put_u32_le(CHUNK_MAGIC);
    buf.put_u16_le(CHUNK_VERSION);
    buf.put_u16_le(model.sh_degree as u16);
    buf.put_u32_le(chunk_count as u32);
    for (c, blob) in blobs.iter().enumerate() {
        let start = c * chunk_splats;
        let end = (start + chunk_splats).min(n);
        buf.put_u64_le(blob.len() as u64);
        buf.put_u64_le((end - start) as u64);
    }
    for blob in &blobs {
        buf.put_slice(blob);
    }
    buf.freeze()
}

/// Errors produced by [`SceneSource`] chunk loads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceError {
    /// Chunk index beyond [`SceneSource::chunk_count`].
    OutOfRange {
        /// The requested chunk index.
        index: usize,
        /// The source's chunk count.
        count: usize,
    },
    /// The chunk's stored bytes failed to decode.
    Decode(DecodeError),
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::OutOfRange { index, count } => {
                write!(f, "chunk {index} out of range (count {count})")
            }
            SourceError::Decode(e) => write!(f, "chunk decode failed: {e}"),
        }
    }
}

impl Error for SourceError {}

impl From<DecodeError> for SourceError {
    fn from(e: DecodeError) -> Self {
        SourceError::Decode(e)
    }
}

/// A scene delivered as a sequence of independently loadable chunks.
///
/// The resident-budget contract: a consumer owns **one** chunk buffer (plus
/// whatever per-chunk scratch it derives) and calls
/// [`load_chunk_into`](SceneSource::load_chunk_into) repeatedly, so peak
/// model residency is one chunk, not the whole scene. Chunk order is part
/// of the source's identity — concatenating chunks `0..chunk_count` in
/// order yields exactly the flat model, which is what makes chunked
/// rendering bit-identical to in-core rendering (see
/// `tests/determinism.rs`).
///
/// All methods take `&self` so one source behind an
/// `Arc<dyn SceneSource + Send + Sync>` can feed many concurrent sessions.
pub trait SceneSource {
    /// Number of chunks.
    fn chunk_count(&self) -> usize;

    /// Point count of chunk `index` (without loading it).
    fn chunk_len(&self, index: usize) -> usize;

    /// Total points across all chunks.
    fn total_points(&self) -> usize;

    /// SH degree shared by every chunk.
    fn sh_degree(&self) -> usize;

    /// Stable identity of this source for cross-frame chunk caching: two
    /// sources must return the same id **only** when every chunk load from
    /// either produces identical data. Implementors allocate one with
    /// [`next_source_id`] at construction (clones of a source may share
    /// their original's id, since they serve identical chunks).
    fn source_id(&self) -> u64;

    /// Load chunk `index` into `into`, replacing its contents but keeping
    /// its allocations.
    ///
    /// # Errors
    ///
    /// Returns a [`SourceError`] when the index is out of range or the
    /// chunk cannot be produced.
    fn load_chunk_into(&self, index: usize, into: &mut GaussianModel) -> Result<(), SourceError>;

    /// Global index of chunk `index`'s first point (the sum of preceding
    /// chunk lengths).
    fn chunk_base(&self, index: usize) -> usize {
        (0..index).map(|i| self.chunk_len(i)).sum()
    }

    /// Convenience: load chunk `index` into a fresh model.
    ///
    /// # Errors
    ///
    /// Same contract as [`load_chunk_into`](SceneSource::load_chunk_into).
    fn load_chunk(&self, index: usize) -> Result<GaussianModel, SourceError> {
        let mut model = GaussianModel::new(self.sh_degree());
        self.load_chunk_into(index, &mut model)?;
        Ok(model)
    }

    /// Load a coarse (LOD) subset of chunk `index`: every `stride`-th point
    /// by **global** index, opacity rescaled (see [`coarse_subset`]).
    /// Keying the selection on global rather than chunk-local indices makes
    /// the coarse scene independent of the chunking: concatenating coarse
    /// chunks equals the coarse subset of the flat model for every chunk
    /// size. `stride <= 1` loads the full chunk.
    ///
    /// # Errors
    ///
    /// Same contract as [`load_chunk_into`](SceneSource::load_chunk_into).
    fn load_coarse_chunk_into(
        &self,
        index: usize,
        stride: usize,
        into: &mut GaussianModel,
    ) -> Result<(), SourceError> {
        self.load_chunk_into(index, into)?;
        if stride >= 2 {
            *into = coarse_subset(into, stride, self.chunk_base(index));
        }
        Ok(())
    }
}

/// Every `stride`-th point of `model` counted from global index
/// `global_base` (the model's offset within a larger scene), with opacity
/// multiplied by `stride` (clamped to 1) so the thinned set keeps roughly
/// the original total opacity mass. `stride <= 1` returns a clone.
///
/// Selection is deterministic and chunking-invariant: for any split of a
/// scene into chunks, concatenating `coarse_subset(chunk, k, base)` over
/// the chunks equals `coarse_subset(scene, k, 0)`.
pub fn coarse_subset(model: &GaussianModel, stride: usize, global_base: usize) -> GaussianModel {
    if stride <= 1 {
        return model.clone();
    }
    let kept: Vec<usize> = (0..model.len())
        .filter(|i| (global_base + i) % stride == 0)
        .collect();
    let mut out = model.subset(&kept);
    for o in &mut out.opacities {
        *o = (*o * stride as f32).min(1.0);
    }
    out
}

/// The identity [`SceneSource`]: an in-memory [`GaussianModel`] sliced into
/// fixed-size chunks. Exercises the chunked path without I/O and anchors
/// the bit-identity tests (chunked-over-`InCoreSource` must equal rendering
/// the wrapped model directly).
#[derive(Debug, Clone)]
pub struct InCoreSource {
    model: GaussianModel,
    chunk_splats: usize,
    source_id: u64,
}

impl InCoreSource {
    /// Wrap `model`, exposing it as chunks of at most `chunk_splats` points.
    ///
    /// # Panics
    ///
    /// Panics when `chunk_splats == 0`.
    pub fn new(model: GaussianModel, chunk_splats: usize) -> Self {
        assert!(chunk_splats > 0, "chunk_splats must be > 0");
        Self {
            model,
            chunk_splats,
            source_id: next_source_id(),
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &GaussianModel {
        &self.model
    }
}

impl SceneSource for InCoreSource {
    fn chunk_count(&self) -> usize {
        self.model.len().div_ceil(self.chunk_splats)
    }

    fn chunk_len(&self, index: usize) -> usize {
        let start = index * self.chunk_splats;
        (self.model.len() - start.min(self.model.len())).min(self.chunk_splats)
    }

    fn total_points(&self) -> usize {
        self.model.len()
    }

    fn sh_degree(&self) -> usize {
        self.model.sh_degree
    }

    fn source_id(&self) -> u64 {
        self.source_id
    }

    fn chunk_base(&self, index: usize) -> usize {
        (index * self.chunk_splats).min(self.model.len())
    }

    fn load_chunk_into(&self, index: usize, into: &mut GaussianModel) -> Result<(), SourceError> {
        let count = self.chunk_count();
        if index >= count {
            return Err(SourceError::OutOfRange { index, count });
        }
        let start = index * self.chunk_splats;
        let end = (start + self.chunk_splats).min(self.model.len());
        self.model.clone_range_into(start..end, into);
        Ok(())
    }
}

enum Backing {
    Bytes(Vec<u8>),
    File(std::fs::File),
}

impl fmt::Debug for Backing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backing::Bytes(b) => write!(f, "Bytes({} bytes)", b.len()),
            Backing::File(_) => write!(f, "File"),
        }
    }
}

/// A [`SceneSource`] over the chunked container format written by
/// [`encode_model_chunked`]. The header and chunk table are validated
/// eagerly at construction (truncated or malformed containers fail with a
/// [`DecodeError`], never a panic); chunk blobs are decoded lazily, one
/// `load_chunk_into` at a time — file-backed sources read each blob with
/// positioned reads, so the whole container is never resident.
#[derive(Debug)]
pub struct ChunkedFileSource {
    backing: Backing,
    sh_degree: usize,
    /// Byte offset of each chunk's blob within the container.
    chunk_offsets: Vec<u64>,
    chunk_bytes: Vec<u64>,
    chunk_points: Vec<usize>,
    total_points: usize,
    source_id: u64,
}

/// Parsed container header + chunk table.
struct ChunkMeta {
    sh_degree: usize,
    chunk_offsets: Vec<u64>,
    chunk_bytes: Vec<u64>,
    chunk_points: Vec<usize>,
    total_points: usize,
}

impl ChunkMeta {
    /// Parse the header and chunk table from `head` (which must hold at
    /// least the header + table region) and bounds-check every blob against
    /// the container's total byte length.
    fn parse(mut head: &[u8], container_len: u64) -> Result<Self, DecodeError> {
        if head.remaining() < CHUNK_HEADER_BYTES {
            return Err(DecodeError::Truncated);
        }
        if head.get_u32_le() != CHUNK_MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = head.get_u16_le();
        if version != CHUNK_VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let sh_degree = head.get_u16_le() as usize;
        if sh_degree > ms_math::sh::MAX_DEGREE {
            return Err(DecodeError::Invalid(format!("sh degree {sh_degree}")));
        }
        let chunk_count = head.get_u32_le() as usize;
        if head.remaining() < chunk_count * CHUNK_TABLE_ENTRY_BYTES {
            return Err(DecodeError::Truncated);
        }
        let mut chunk_offsets = Vec::with_capacity(chunk_count);
        let mut chunk_bytes = Vec::with_capacity(chunk_count);
        let mut chunk_points = Vec::with_capacity(chunk_count);
        let mut offset = (CHUNK_HEADER_BYTES + chunk_count * CHUNK_TABLE_ENTRY_BYTES) as u64;
        let mut total_points = 0usize;
        for i in 0..chunk_count {
            let byte_len = head.get_u64_le();
            let points = head.get_u64_le();
            let end = offset.checked_add(byte_len).ok_or(DecodeError::Truncated)?;
            if end > container_len {
                return Err(DecodeError::Truncated);
            }
            let points = usize::try_from(points)
                .map_err(|_| DecodeError::Invalid(format!("chunk {i} point count")))?;
            total_points = total_points
                .checked_add(points)
                .ok_or_else(|| DecodeError::Invalid("total point count overflow".into()))?;
            chunk_offsets.push(offset);
            chunk_bytes.push(byte_len);
            chunk_points.push(points);
            offset = end;
        }
        Ok(Self {
            sh_degree,
            chunk_offsets,
            chunk_bytes,
            chunk_points,
            total_points,
        })
    }
}

impl ChunkedFileSource {
    fn from_meta(backing: Backing, meta: ChunkMeta) -> Self {
        Self {
            backing,
            sh_degree: meta.sh_degree,
            chunk_offsets: meta.chunk_offsets,
            chunk_bytes: meta.chunk_bytes,
            chunk_points: meta.chunk_points,
            total_points: meta.total_points,
            source_id: next_source_id(),
        }
    }

    /// Open an in-memory container.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the header or chunk table is
    /// malformed or any blob extends past the buffer.
    pub fn from_bytes(data: Vec<u8>) -> Result<Self, DecodeError> {
        let meta = ChunkMeta::parse(&data, data.len() as u64)?;
        Ok(Self::from_meta(Backing::Bytes(data), meta))
    }

    /// Open a container file. Only the header and chunk table are read up
    /// front; blobs are read on demand with positioned reads.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] (`Io` for filesystem failures) when the
    /// file cannot be read or its header/table is malformed.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, DecodeError> {
        use std::os::unix::fs::FileExt;
        let file = std::fs::File::open(path).map_err(|e| DecodeError::Io(e.to_string()))?;
        let container_len = file
            .metadata()
            .map_err(|e| DecodeError::Io(e.to_string()))?
            .len();
        if container_len < CHUNK_HEADER_BYTES as u64 {
            return Err(DecodeError::Truncated);
        }
        let mut header = [0u8; CHUNK_HEADER_BYTES];
        file.read_exact_at(&mut header, 0)
            .map_err(|e| DecodeError::Io(e.to_string()))?;
        let chunk_count = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        let head_len = CHUNK_HEADER_BYTES + chunk_count as usize * CHUNK_TABLE_ENTRY_BYTES;
        if container_len < head_len as u64 {
            return Err(DecodeError::Truncated);
        }
        let mut head = vec![0u8; head_len];
        file.read_exact_at(&mut head, 0)
            .map_err(|e| DecodeError::Io(e.to_string()))?;
        let meta = ChunkMeta::parse(&head, container_len)?;
        Ok(Self::from_meta(Backing::File(file), meta))
    }
}

impl SceneSource for ChunkedFileSource {
    fn chunk_count(&self) -> usize {
        self.chunk_points.len()
    }

    fn chunk_len(&self, index: usize) -> usize {
        self.chunk_points[index]
    }

    fn total_points(&self) -> usize {
        self.total_points
    }

    fn sh_degree(&self) -> usize {
        self.sh_degree
    }

    fn source_id(&self) -> u64 {
        self.source_id
    }

    fn load_chunk_into(&self, index: usize, into: &mut GaussianModel) -> Result<(), SourceError> {
        let count = self.chunk_count();
        if index >= count {
            return Err(SourceError::OutOfRange { index, count });
        }
        let offset = self.chunk_offsets[index];
        let len = self.chunk_bytes[index] as usize;
        match &self.backing {
            Backing::Bytes(data) => {
                let start = offset as usize;
                decode_model_into(&data[start..start + len], into)?;
            }
            Backing::File(file) => {
                use std::os::unix::fs::FileExt;
                let mut blob = vec![0u8; len];
                file.read_exact_at(&mut blob, offset)
                    .map_err(|e| DecodeError::Io(e.to_string()))?;
                decode_model_into(&blob, into)?;
            }
        }
        if into.len() != self.chunk_points[index] || into.sh_degree != self.sh_degree {
            return Err(SourceError::Decode(DecodeError::Invalid(format!(
                "chunk {index} disagrees with the chunk table \
                 ({} points, degree {})",
                into.len(),
                into.sh_degree
            ))));
        }
        Ok(())
    }
}

static NEXT_SOURCE_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a process-unique [`SceneSource::source_id`]. Every concrete
/// source takes one at construction; ids are never reused, so a cache entry
/// can only ever be served back to the source that produced it.
pub fn next_source_id() -> u64 {
    NEXT_SOURCE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Identity of one decoded chunk in a [`ChunkCache`]:
/// `(source, chunk index, LOD stride)`. LOD 0 is the full-resolution chunk;
/// a non-zero LOD is the stride of a
/// [`load_coarse_chunk_into`](SceneSource::load_coarse_chunk_into) subset,
/// cached separately because it holds different points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkKey {
    /// [`SceneSource::source_id`] of the producing source.
    pub source_id: u64,
    /// Chunk index within that source.
    pub chunk_idx: usize,
    /// LOD stride (0 = full resolution).
    pub lod: usize,
}

/// Counter block describing a [`ChunkCache`]'s traffic. Rides in
/// `FrameProfile` (per-frame deltas) and `ServerReport` (whole-cache
/// totals). Like the other profile byte counters, it is *excluded* from
/// profile equality: hit patterns depend on cache budget and session
/// interleaving, while pixels and work counters do not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups served from the cache (decode skipped).
    pub hits: u64,
    /// Lookups that fell through to the source.
    pub misses: u64,
    /// Entries evicted to make room under the byte budget.
    pub evictions: u64,
    /// High-water mark of resident decoded bytes.
    pub resident_bytes_peak: u64,
}

impl CacheStats {
    /// Total lookups (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Merge another stats block into this one: traffic counters add,
    /// the resident high-water takes the max.
    pub fn accumulate(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.resident_bytes_peak = self.resident_bytes_peak.max(other.resident_bytes_peak);
    }
}

/// Outcome of one [`ChunkCache::load_into`] call, for per-frame stats
/// attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the chunk was served from the cache.
    pub hit: bool,
    /// Entries this load evicted when inserting its miss.
    pub evictions: u64,
}

/// Default [`ChunkCache`] byte budget, used by `ms_render::Renderer::new`
/// and `ms_serve::FrameServer::new_scene` (32 MiB, small against the
/// render buffers of even one session).
pub const DEFAULT_CHUNK_CACHE_BYTES: usize = 32 << 20;

const CACHE_SHARDS: usize = 8;

/// One decoded chunk held by a cache shard.
struct CacheEntry {
    key: ChunkKey,
    model: GaussianModel,
    bytes: u64,
}

/// One lock's worth of cache: entries ordered least- (front) to most-
/// (back) recently used. Linear scans are fine — a shard holds at most a
/// few hundred chunk-sized entries, and every hit already pays a chunk
/// memcpy that dwarfs the scan.
#[derive(Default)]
struct CacheShard {
    entries: Vec<CacheEntry>,
}

/// A byte-budgeted, sharded LRU cache of **decoded** chunks, keyed by
/// [`ChunkKey`]. Shared `Arc`-wide: every renderer holds one, and a frame
/// server hands the same cache to all of its sessions, so sessions
/// rendering the same scene hit each other's decodes — every frame after
/// the first skips the decode entirely when the budget holds the scene.
///
/// Caching never changes pixels: a hit replays the exact bytes the decode
/// produced (decoding is deterministic in the chunk contents), so cached
/// and uncached renders are bit-identical for every budget — the cache only
/// moves wall time. See `tests/determinism.rs`.
///
/// The byte budget is enforced globally across shards: an insert reserves
/// its bytes against the shared resident counter first and evicts from its
/// own shard (strict per-shard LRU order) until the reservation fits,
/// declining to store when its shard has nothing left to evict. Resident
/// bytes therefore never exceed the budget, even under concurrent inserts.
/// A zero budget degrades to pass-through: nothing is stored, every lookup
/// is a miss, and resident bytes stay zero.
pub struct ChunkCache {
    shards: Vec<Mutex<CacheShard>>,
    budget: u64,
    resident: AtomicU64,
    resident_peak: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl fmt::Debug for ChunkCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChunkCache")
            .field("budget_bytes", &self.budget)
            .field("resident_bytes", &self.resident_bytes())
            .field("stats", &self.stats())
            .finish()
    }
}

impl ChunkCache {
    /// Create a cache holding at most `budget_bytes` of decoded chunks
    /// (measured by [`GaussianModel::storage_bytes`]). `0` disables storage
    /// entirely (pass-through); `usize::MAX` is effectively unbounded.
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            shards: (0..CACHE_SHARDS).map(|_| Mutex::default()).collect(),
            budget: budget_bytes as u64,
            resident: AtomicU64::new(0),
            resident_peak: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// Currently resident decoded bytes (always `<=` the budget).
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// Snapshot of the cache's lifetime counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes_peak: self.resident_peak.load(Ordering::Relaxed),
        }
    }

    /// Deterministic shard index for a key (multiply-mix of the key
    /// fields — stable across runs and platforms, unlike `RandomState`).
    fn shard_of(key: &ChunkKey) -> usize {
        const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut h = key.source_id.wrapping_mul(MIX) ^ (key.chunk_idx as u64);
        h = h.wrapping_mul(MIX) ^ (key.lod as u64);
        h = h.wrapping_mul(MIX);
        (h >> 56) as usize % CACHE_SHARDS
    }

    /// Copy the cached chunk for `key` into `into` (keeping `into`'s
    /// allocations) and mark it most recently used. Returns `false` — and
    /// leaves `into` untouched — on a miss. Counts one hit or miss.
    pub fn get_into(&self, key: &ChunkKey, into: &mut GaussianModel) -> bool {
        if self.budget > 0 {
            let mut shard = self.shards[Self::shard_of(key)].lock().unwrap();
            if let Some(pos) = shard.entries.iter().position(|e| e.key == *key) {
                let entry = shard.entries.remove(pos);
                entry.model.clone_range_into(0..entry.model.len(), into);
                shard.entries.push(entry);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        false
    }

    /// Store a decoded chunk under `key`, evicting least-recently-used
    /// entries from the key's shard as needed to honor the byte budget.
    /// Returns the number of entries evicted. Oversized chunks (and every
    /// chunk, when the budget is 0) are silently not stored; re-inserting a
    /// resident key only refreshes its recency.
    pub fn insert(&self, key: ChunkKey, model: &GaussianModel) -> u64 {
        let bytes = model.storage_bytes() as u64;
        if self.budget == 0 || bytes > self.budget {
            return 0;
        }
        let mut shard = self.shards[Self::shard_of(&key)].lock().unwrap();
        if let Some(pos) = shard.entries.iter().position(|e| e.key == key) {
            let entry = shard.entries.remove(pos);
            shard.entries.push(entry);
            return 0;
        }
        // Reserve globally before storing, so concurrent inserts into other
        // shards can never combine past the budget.
        let mut resident = self.resident.fetch_add(bytes, Ordering::AcqRel) + bytes;
        let mut evicted = 0u64;
        while resident > self.budget {
            if shard.entries.is_empty() {
                // The overshoot is resident in *other* shards; nothing local
                // to evict, so back the reservation out and decline.
                self.resident.fetch_sub(bytes, Ordering::AcqRel);
                self.evictions.fetch_add(evicted, Ordering::Relaxed);
                return evicted;
            }
            let victim = shard.entries.remove(0);
            resident = self.resident.fetch_sub(victim.bytes, Ordering::AcqRel) - victim.bytes;
            evicted += 1;
        }
        shard.entries.push(CacheEntry {
            key,
            model: model.clone(),
            bytes,
        });
        self.resident_peak.fetch_max(resident, Ordering::Relaxed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Resident keys of one shard in LRU order (front = next eviction
    /// victim) — test observability for the LRU proptests.
    #[cfg(test)]
    fn shard_keys(&self, shard: usize) -> Vec<ChunkKey> {
        self.shards[shard]
            .lock()
            .unwrap()
            .entries
            .iter()
            .map(|e| e.key)
            .collect()
    }

    /// Cache-aware chunk load: serve `(source, index, stride)` from the
    /// cache when resident, otherwise load it from the source — verifying
    /// full-resolution chunks deliver exactly
    /// [`chunk_len`](SceneSource::chunk_len) points (a short read is a
    /// [`DecodeError::Invalid`], never silent data loss) — and insert the
    /// decoded chunk. `stride <= 1` is the full-resolution chunk; larger
    /// strides cache the coarse subset under its own LOD key.
    ///
    /// # Errors
    ///
    /// Propagates the source's [`SourceError`]; failed loads insert
    /// nothing.
    pub fn load_into<S: SceneSource + ?Sized>(
        &self,
        source: &S,
        index: usize,
        stride: usize,
        into: &mut GaussianModel,
    ) -> Result<CacheAccess, SourceError> {
        let lod = if stride <= 1 { 0 } else { stride };
        let key = ChunkKey {
            source_id: source.source_id(),
            chunk_idx: index,
            lod,
        };
        if self.get_into(&key, into) {
            return Ok(CacheAccess {
                hit: true,
                evictions: 0,
            });
        }
        if lod == 0 {
            source.load_chunk_into(index, into)?;
            let expected = source.chunk_len(index);
            if into.len() != expected {
                return Err(SourceError::Decode(DecodeError::Invalid(format!(
                    "chunk {index} short read: {} of {expected} points",
                    into.len()
                ))));
            }
        } else {
            source.load_coarse_chunk_into(index, stride, into)?;
        }
        let evictions = self.insert(key, into);
        Ok(CacheAccess {
            hit: false,
            evictions,
        })
    }
}

/// How a [`FailingSource`] sabotages its scripted chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureMode {
    /// The load returns `Err(SourceError::Decode(DecodeError::Truncated))`.
    Error,
    /// The load "succeeds" but delivers one point fewer than
    /// [`chunk_len`](SceneSource::chunk_len) claims — a short read, caught
    /// by [`ChunkCache::load_into`]'s length check.
    ShortRead,
}

/// Fault-injection test double: a [`SceneSource`] wrapper that sabotages
/// loads of one scripted chunk index, either every time ([`new`](Self::new))
/// or only for the first *n* loads ([`transient`](Self::transient) — a
/// fault that heals, so exactly one consumer of a shared source hits it).
/// Everything else delegates to the wrapped source. Used by the streaming
/// error-path tests (`tests/fault_injection.rs`) to prove a failed chunk
/// surfaces as a clean [`SourceError`] instead of a panic, poisoned arena,
/// or torn frame server.
#[derive(Debug)]
pub struct FailingSource<S> {
    inner: S,
    fail_at: usize,
    mode: FailureMode,
    /// Remaining sabotaged loads; `None` fails forever.
    fuse: Option<AtomicU64>,
    source_id: u64,
}

impl<S: SceneSource> FailingSource<S> {
    /// Fail every load of chunk `fail_at`.
    pub fn new(inner: S, fail_at: usize, mode: FailureMode) -> Self {
        Self {
            inner,
            fail_at,
            mode,
            fuse: None,
            source_id: next_source_id(),
        }
    }

    /// Fail only the first `count` loads of chunk `fail_at`, then behave
    /// normally.
    pub fn transient(inner: S, fail_at: usize, mode: FailureMode, count: u64) -> Self {
        Self {
            fuse: Some(AtomicU64::new(count)),
            ..Self::new(inner, fail_at, mode)
        }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Whether this load should be sabotaged (burns one fuse charge).
    fn should_fail(&self, index: usize) -> bool {
        if index != self.fail_at {
            return false;
        }
        match &self.fuse {
            None => true,
            Some(left) => left
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
                .is_ok(),
        }
    }
}

impl<S: SceneSource> SceneSource for FailingSource<S> {
    fn chunk_count(&self) -> usize {
        self.inner.chunk_count()
    }

    fn chunk_len(&self, index: usize) -> usize {
        self.inner.chunk_len(index)
    }

    fn total_points(&self) -> usize {
        self.inner.total_points()
    }

    fn sh_degree(&self) -> usize {
        self.inner.sh_degree()
    }

    fn source_id(&self) -> u64 {
        self.source_id
    }

    fn chunk_base(&self, index: usize) -> usize {
        self.inner.chunk_base(index)
    }

    fn load_chunk_into(&self, index: usize, into: &mut GaussianModel) -> Result<(), SourceError> {
        if self.should_fail(index) {
            match self.mode {
                FailureMode::Error => {
                    return Err(SourceError::Decode(DecodeError::Truncated));
                }
                FailureMode::ShortRead => {
                    self.inner.load_chunk_into(index, into)?;
                    if !into.is_empty() {
                        let n = into.len() - 1;
                        let stride = into.sh_stride();
                        into.positions.truncate(n);
                        into.scales.truncate(n);
                        into.rotations.truncate(n);
                        into.opacities.truncate(n);
                        into.sh_coeffs.truncate(n * stride);
                    }
                    return Ok(());
                }
            }
        }
        self.inner.load_chunk_into(index, into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate, SceneSpec};
    use proptest::prelude::*;

    fn sample() -> GaussianModel {
        generate(&SceneSpec {
            total_points: 300,
            ..SceneSpec::default()
        })
        .unwrap()
        .model
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let bytes = encode_model(&m);
        let back = decode_model(&bytes).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn encoded_size_matches_storage_accounting() {
        let m = sample();
        assert_eq!(encode_model(&m).len(), 16 + m.storage_bytes());
    }

    #[test]
    fn bad_magic_rejected() {
        let m = sample();
        let mut bytes = encode_model(&m).to_vec();
        bytes[0] ^= 0xFF;
        assert_eq!(decode_model(&bytes), Err(DecodeError::BadMagic));
    }

    #[test]
    fn truncation_rejected() {
        let m = sample();
        let bytes = encode_model(&m);
        assert_eq!(
            decode_model(&bytes[..bytes.len() - 8]),
            Err(DecodeError::Truncated)
        );
        assert_eq!(decode_model(&bytes[..4]), Err(DecodeError::Truncated));
    }

    /// A point count whose byte size overflows `usize` is a truncated
    /// buffer, not a panic — bare, and as a container's chunk blob, where a
    /// panic would take down every session streaming the source.
    #[test]
    fn overflowing_point_count_is_truncated() {
        let huge = (1u64 << 61).to_le_bytes();
        let mut bare = encode_model(&GaussianModel::new(0)).to_vec();
        bare[8..16].copy_from_slice(&huge);
        assert_eq!(decode_model(&bare), Err(DecodeError::Truncated));

        let mut one = GaussianModel::new(0);
        let v = ms_math::Vec3::splat(0.5);
        one.push_solid(v, v, ms_math::Quat::identity(), 0.5, v);
        let mut container = encode_model_chunked(&one, 1).to_vec();
        let blob = CHUNK_HEADER_BYTES + CHUNK_TABLE_ENTRY_BYTES;
        container[blob + 8..blob + 16].copy_from_slice(&huge);
        let source = ChunkedFileSource::from_bytes(container).unwrap();
        assert_eq!(
            source.load_chunk(0),
            Err(SourceError::Decode(DecodeError::Truncated))
        );
    }

    #[test]
    fn bad_version_rejected() {
        let m = sample();
        let mut bytes = encode_model(&m).to_vec();
        bytes[4] = 0x7F;
        assert!(matches!(
            decode_model(&bytes),
            Err(DecodeError::BadVersion(_))
        ));
    }

    #[test]
    fn empty_model_roundtrips() {
        let m = GaussianModel::new(2);
        let back = decode_model(&encode_model(&m)).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn decode_into_reuses_buffer() {
        let a = sample();
        let b = GaussianModel::new(1);
        let mut buf = GaussianModel::new(3);
        decode_model_into(&encode_model(&a), &mut buf).unwrap();
        assert_eq!(buf, a);
        decode_model_into(&encode_model(&b), &mut buf).unwrap();
        assert_eq!(buf, b);
    }

    /// Concatenate every chunk of `source` in order.
    fn concat(source: &dyn SceneSource) -> GaussianModel {
        let mut out = GaussianModel::new(source.sh_degree());
        let mut chunk = GaussianModel::default();
        for i in 0..source.chunk_count() {
            source.load_chunk_into(i, &mut chunk).unwrap();
            assert_eq!(chunk.len(), source.chunk_len(i));
            out.extend_from(&chunk);
        }
        out
    }

    #[test]
    fn in_core_source_concatenates_to_model() {
        let m = sample();
        for chunk in [1, 7, 100, 300, 1000] {
            let src = InCoreSource::new(m.clone(), chunk);
            assert_eq!(src.total_points(), m.len());
            assert_eq!(concat(&src), m);
            let bases: Vec<usize> = (0..src.chunk_count()).map(|i| src.chunk_base(i)).collect();
            let mut base = 0;
            for (i, &b) in bases.iter().enumerate() {
                assert_eq!(b, base);
                base += src.chunk_len(i);
            }
        }
    }

    #[test]
    fn chunked_file_source_roundtrips() {
        let m = sample();
        for chunk in [1, 7, 128, 300, 512] {
            let bytes = encode_model_chunked(&m, chunk);
            let src = ChunkedFileSource::from_bytes(bytes.to_vec()).unwrap();
            assert_eq!(src.chunk_count(), m.len().div_ceil(chunk));
            assert_eq!(src.sh_degree(), m.sh_degree);
            assert_eq!(concat(&src), m);
        }
    }

    #[test]
    fn chunked_file_source_file_backed() {
        let m = sample();
        let bytes = encode_model_chunked(&m, 64);
        let path = std::env::temp_dir().join(format!("ms_chunked_{}.msgc", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let src = ChunkedFileSource::open(&path).unwrap();
        assert_eq!(concat(&src), m);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunked_container_rejects_garbage() {
        let m = sample();
        let bytes = encode_model_chunked(&m, 64).to_vec();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(
            ChunkedFileSource::from_bytes(bad).err(),
            Some(DecodeError::BadMagic)
        );
        // Bad version.
        let mut bad = bytes.clone();
        bad[4] = 0x7F;
        assert!(matches!(
            ChunkedFileSource::from_bytes(bad).err(),
            Some(DecodeError::BadVersion(_))
        ));
        // Short header.
        assert_eq!(
            ChunkedFileSource::from_bytes(bytes[..8].to_vec()).err(),
            Some(DecodeError::Truncated)
        );
    }

    #[test]
    fn empty_model_chunked_container() {
        let m = GaussianModel::new(2);
        let bytes = encode_model_chunked(&m, 64);
        let src = ChunkedFileSource::from_bytes(bytes.to_vec()).unwrap();
        assert_eq!(src.chunk_count(), 0);
        assert_eq!(src.total_points(), 0);
        assert_eq!(concat(&src), m);
    }

    #[test]
    fn out_of_range_chunk_errors() {
        let src = InCoreSource::new(sample(), 100);
        let mut buf = GaussianModel::default();
        assert!(matches!(
            src.load_chunk_into(99, &mut buf),
            Err(SourceError::OutOfRange { index: 99, .. })
        ));
    }

    #[test]
    fn coarse_subset_is_chunking_invariant() {
        let m = sample();
        for stride in [2, 3, 7] {
            let global = coarse_subset(&m, stride, 0);
            assert_eq!(global.len(), m.len().div_ceil(stride));
            global.validate().unwrap();
            for chunk in [1, 50, 128, 300] {
                let src = InCoreSource::new(m.clone(), chunk);
                let mut out = GaussianModel::new(m.sh_degree);
                let mut buf = GaussianModel::default();
                for i in 0..src.chunk_count() {
                    src.load_coarse_chunk_into(i, stride, &mut buf).unwrap();
                    out.extend_from(&buf);
                }
                assert_eq!(out, global, "stride {stride} chunk {chunk}");
            }
        }
    }

    #[test]
    fn coarse_subset_rescales_opacity() {
        let mut m = GaussianModel::new(0);
        for i in 0..6 {
            m.push_solid(
                ms_math::Vec3::new(i as f32, 0.0, 0.0),
                ms_math::Vec3::splat(0.1),
                ms_math::Quat::identity(),
                0.3,
                ms_math::Vec3::one(),
            );
        }
        let c = coarse_subset(&m, 3, 0);
        assert_eq!(c.len(), 2);
        assert!((c.opacities[0] - 0.9).abs() < 1e-6);
        // Clamped at 1.
        let c = coarse_subset(&m, 5, 0);
        assert_eq!(c.opacities[0], 1.0);
    }

    #[test]
    fn source_ids_are_unique_per_source() {
        let m = sample();
        let a = InCoreSource::new(m.clone(), 64);
        let b = InCoreSource::new(m.clone(), 64);
        assert_ne!(a.source_id(), b.source_id());
        // A clone serves identical chunks, so it may share the id.
        assert_eq!(a.clone().source_id(), a.source_id());
        let f = ChunkedFileSource::from_bytes(encode_model_chunked(&m, 64).to_vec()).unwrap();
        assert_ne!(f.source_id(), a.source_id());
        assert_ne!(f.source_id(), b.source_id());
    }

    #[test]
    fn cache_load_into_hits_replay_exact_bytes() {
        let m = sample();
        let src = InCoreSource::new(m.clone(), 64);
        let cache = ChunkCache::new(usize::MAX);
        let mut first = GaussianModel::default();
        let mut again = GaussianModel::default();
        for i in 0..src.chunk_count() {
            let access = cache.load_into(&src, i, 0, &mut first).unwrap();
            assert!(!access.hit, "chunk {i} cold load must miss");
            let access = cache.load_into(&src, i, 0, &mut again).unwrap();
            assert!(access.hit, "chunk {i} warm load must hit");
            assert_eq!(first, again, "chunk {i} hit differs from decode");
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, src.chunk_count() as u64);
        assert_eq!(stats.misses, src.chunk_count() as u64);
        assert_eq!(stats.evictions, 0);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cache.resident_bytes(), m.storage_bytes() as u64);
        assert_eq!(stats.resident_bytes_peak, cache.resident_bytes());
    }

    #[test]
    fn cache_distinguishes_sources_and_lods() {
        let m = sample();
        let a = InCoreSource::new(m.clone(), 64);
        let b = InCoreSource::new(coarse_subset(&m, 2, 0), 64);
        let cache = ChunkCache::new(usize::MAX);
        let mut buf = GaussianModel::default();
        assert!(!cache.load_into(&a, 0, 0, &mut buf).unwrap().hit);
        // Same chunk index, different source: must not alias.
        assert!(!cache.load_into(&b, 0, 0, &mut buf).unwrap().hit);
        assert_eq!(buf, b.load_chunk(0).unwrap());
        // Same source and index, coarse stride: its own entry.
        assert!(!cache.load_into(&a, 0, 3, &mut buf).unwrap().hit);
        let mut reference = GaussianModel::default();
        a.load_coarse_chunk_into(0, 3, &mut reference).unwrap();
        assert_eq!(buf, reference);
        assert!(cache.load_into(&a, 0, 3, &mut buf).unwrap().hit);
        assert_eq!(buf, reference);
    }

    #[test]
    fn oversized_chunk_is_not_stored() {
        let m = sample();
        let src = InCoreSource::new(m.clone(), m.len());
        let cache = ChunkCache::new(8); // smaller than any real chunk
        let mut buf = GaussianModel::default();
        assert!(!cache.load_into(&src, 0, 0, &mut buf).unwrap().hit);
        assert_eq!(cache.resident_bytes(), 0);
        assert!(!cache.load_into(&src, 0, 0, &mut buf).unwrap().hit);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().resident_bytes_peak, 0);
    }

    #[test]
    fn failing_source_error_mode_fails_scripted_chunk_only() {
        let m = sample();
        let src = FailingSource::new(InCoreSource::new(m.clone(), 64), 2, FailureMode::Error);
        let mut buf = GaussianModel::default();
        for i in 0..src.chunk_count() {
            let result = src.load_chunk_into(i, &mut buf);
            if i == 2 {
                assert_eq!(
                    result,
                    Err(SourceError::Decode(DecodeError::Truncated)),
                    "chunk 2 must fail every time"
                );
            } else {
                result.unwrap();
                assert_eq!(buf.len(), src.chunk_len(i));
            }
        }
        // Still failing on retry (no fuse).
        assert!(src.load_chunk_into(2, &mut buf).is_err());
    }

    #[test]
    fn failing_source_short_read_is_caught_by_cache_load() {
        let m = sample();
        let src = FailingSource::new(InCoreSource::new(m.clone(), 64), 1, FailureMode::ShortRead);
        let mut buf = GaussianModel::default();
        // The raw load "succeeds" with one point missing...
        src.load_chunk_into(1, &mut buf).unwrap();
        assert_eq!(buf.len(), src.chunk_len(1) - 1);
        buf.validate().unwrap();
        // ...and the cache-aware load turns it into a decode error.
        let cache = ChunkCache::new(usize::MAX);
        let err = cache.load_into(&src, 1, 0, &mut buf).unwrap_err();
        assert!(matches!(err, SourceError::Decode(DecodeError::Invalid(_))));
        // Nothing bogus was inserted: the next load misses again.
        assert!(cache.load_into(&src, 1, 0, &mut buf).is_err());
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn transient_failing_source_heals_after_fuse_burns() {
        let m = sample();
        let src =
            FailingSource::transient(InCoreSource::new(m.clone(), 64), 0, FailureMode::Error, 2);
        let mut buf = GaussianModel::default();
        assert!(src.load_chunk_into(0, &mut buf).is_err());
        assert!(src.load_chunk_into(0, &mut buf).is_err());
        src.load_chunk_into(0, &mut buf).unwrap();
        assert_eq!(buf.len(), src.chunk_len(0));
    }

    /// Reference model of the documented cache policy: global byte budget,
    /// reservation-first, strict per-shard LRU eviction, decline when the
    /// inserting shard is empty.
    struct RefCache {
        shards: Vec<Vec<(ChunkKey, u64)>>,
        budget: u64,
        resident: u64,
        hits: u64,
        misses: u64,
        evictions: u64,
        resident_peak: u64,
    }

    impl RefCache {
        fn new(budget: u64) -> Self {
            Self {
                shards: (0..8).map(|_| Vec::new()).collect(),
                budget,
                resident: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                resident_peak: 0,
            }
        }

        fn get(&mut self, key: ChunkKey) -> bool {
            let shard = &mut self.shards[ChunkCache::shard_of(&key)];
            if self.budget > 0 {
                if let Some(pos) = shard.iter().position(|(k, _)| *k == key) {
                    let entry = shard.remove(pos);
                    shard.push(entry);
                    self.hits += 1;
                    return true;
                }
            }
            self.misses += 1;
            false
        }

        fn insert(&mut self, key: ChunkKey, bytes: u64) -> u64 {
            if self.budget == 0 || bytes > self.budget {
                return 0;
            }
            let shard = &mut self.shards[ChunkCache::shard_of(&key)];
            if let Some(pos) = shard.iter().position(|(k, _)| *k == key) {
                let entry = shard.remove(pos);
                shard.push(entry);
                return 0;
            }
            let mut resident = self.resident + bytes;
            let mut evicted = 0;
            while resident > self.budget {
                if shard.is_empty() {
                    self.evictions += evicted;
                    return evicted;
                }
                let (_, victim) = shard.remove(0);
                resident -= victim;
                self.resident -= victim;
                evicted += 1;
            }
            shard.push((key, bytes));
            self.resident = resident;
            self.resident_peak = self.resident_peak.max(resident);
            self.evictions += evicted;
            evicted
        }
    }

    /// A tiny model of `points` solid splats (SH degree 0), for exercising
    /// the cache with varied entry sizes.
    fn chunk_model(points: usize) -> GaussianModel {
        let mut m = GaussianModel::new(0);
        for i in 0..points {
            m.push_solid(
                ms_math::Vec3::new(i as f32, 0.0, 0.0),
                ms_math::Vec3::splat(0.1),
                ms_math::Quat::identity(),
                0.5,
                ms_math::Vec3::one(),
            );
        }
        m
    }

    proptest! {
        #[test]
        fn multi_chunk_roundtrip(points in 0usize..400, chunk in 1usize..500) {
            let m = if points == 0 {
                GaussianModel::new(2)
            } else {
                generate(&SceneSpec {
                    total_points: points,
                    ..SceneSpec::default()
                })
                .unwrap()
                .model
            };
            let bytes = encode_model_chunked(&m, chunk);
            let src = match ChunkedFileSource::from_bytes(bytes.to_vec()) {
                Ok(s) => s,
                Err(e) => return Err(format!("decode failed: {e}")),
            };
            prop_assert_eq!(src.total_points(), m.len());
            let mut out = GaussianModel::new(src.sh_degree());
            let mut buf = GaussianModel::default();
            for i in 0..src.chunk_count() {
                if let Err(e) = src.load_chunk_into(i, &mut buf) {
                    return Err(format!("chunk {i} failed: {e}"));
                }
                prop_assert!(buf.len() <= chunk);
                out.extend_from(&buf);
            }
            prop_assert_eq!(out, m);
        }

        #[test]
        fn truncation_is_an_error_not_a_panic(points in 1usize..200, chunk in 1usize..100, cut in 0usize..2000) {
            let m = generate(&SceneSpec {
                total_points: points,
                ..SceneSpec::default()
            })
            .unwrap()
            .model;
            let bytes = encode_model_chunked(&m, chunk).to_vec();
            prop_assume!(cut < bytes.len());
            // Truncating anywhere either fails eagerly at open...
            let src = match ChunkedFileSource::from_bytes(bytes[..cut].to_vec()) {
                Err(_) => return Ok(()),
                Ok(s) => s,
            };
            // ...or at the first blob read past the cut — never a panic.
            let mut buf = GaussianModel::default();
            for i in 0..src.chunk_count() {
                if src.load_chunk_into(i, &mut buf).is_err() {
                    return Ok(());
                }
            }
            return Err("truncated container decoded every chunk".into());
        }

        /// Random get/insert traffic: resident bytes never exceed the
        /// budget, eviction follows strict per-shard LRU order, and every
        /// counter matches a straightforward reference simulation.
        #[test]
        fn cache_budget_and_lru_invariants(
            budget in 0u64..4000,
            ops in proptest::collection::vec(
                (proptest::bool::ANY, 0u64..3, 0usize..8, 0usize..2, 0usize..12),
                1..60,
            ),
        ) {
            let cache = ChunkCache::new(budget as usize);
            let mut reference = RefCache::new(budget);
            let mut buf = GaussianModel::default();
            for (is_insert, source_id, chunk_idx, lod, points) in ops {
                let key = ChunkKey { source_id, chunk_idx, lod };
                if is_insert {
                    let model = chunk_model(points);
                    let evicted = cache.insert(key, &model);
                    let expected = reference.insert(key, model.storage_bytes() as u64);
                    prop_assert_eq!(evicted, expected);
                } else {
                    let hit = cache.get_into(&key, &mut buf);
                    prop_assert_eq!(hit, reference.get(key));
                }
                prop_assert!(cache.resident_bytes() <= budget);
                prop_assert_eq!(cache.resident_bytes(), reference.resident);
                for shard in 0..8 {
                    let keys: Vec<ChunkKey> =
                        reference.shards[shard].iter().map(|(k, _)| *k).collect();
                    prop_assert_eq!(cache.shard_keys(shard), keys);
                }
            }
            let stats = cache.stats();
            prop_assert_eq!(stats.hits, reference.hits);
            prop_assert_eq!(stats.misses, reference.misses);
            prop_assert_eq!(stats.evictions, reference.evictions);
            prop_assert_eq!(stats.resident_bytes_peak, reference.resident_peak);
        }

        /// A capacity-zero cache degrades to pass-through: every access is
        /// a miss, nothing is ever resident, and loads still deliver exact
        /// chunk data.
        #[test]
        fn zero_budget_cache_is_pass_through(points in 1usize..200, chunk in 1usize..64) {
            let m = generate(&SceneSpec {
                total_points: points,
                ..SceneSpec::default()
            })
            .unwrap()
            .model;
            let src = InCoreSource::new(m.clone(), chunk);
            let cache = ChunkCache::new(0);
            let mut out = GaussianModel::new(src.sh_degree());
            let mut buf = GaussianModel::default();
            for pass in 0..2 {
                out.positions.clear();
                out.scales.clear();
                out.rotations.clear();
                out.opacities.clear();
                out.sh_coeffs.clear();
                for i in 0..src.chunk_count() {
                    let access = cache.load_into(&src, i, 0, &mut buf).unwrap();
                    prop_assert!(!access.hit, "pass {} chunk {} must miss", pass, i);
                    prop_assert_eq!(access.evictions, 0);
                    out.extend_from(&buf);
                }
                prop_assert_eq!(&out, &m);
                prop_assert_eq!(cache.resident_bytes(), 0);
            }
            let stats = cache.stats();
            prop_assert_eq!(stats.hits, 0);
            prop_assert_eq!(stats.misses, 2 * src.chunk_count() as u64);
            prop_assert_eq!(stats.resident_bytes_peak, 0);
        }
    }
}
