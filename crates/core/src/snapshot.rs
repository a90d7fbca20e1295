//! Crash-safe crawl checkpointing: a versioned, checksummed binary
//! codec for mid-crawl engine state.
//!
//! A [`CrawlSnapshot`] captures the complete scheduler-path state of a
//! crawl at a tick boundary: the frontier (per-host queues, exposure
//! state, admission bars), the retry heap, per-host politeness clocks,
//! the attempt table, and the run counters. The web space itself is
//! *not* serialized — it is recorded as (identity fingerprint,
//! generation seed) and regenerated by the caller, then verified on
//! resume, because generation is a pure function of the seed. Resuming
//! from a snapshot continues the crawl **bit-identically** to the
//! uninterrupted run — the resume-parity suite pins this against the
//! scheduler conformance goldens.
//!
//! On-disk format (all integers little-endian, fixed width):
//!
//! ```text
//! magic   "LCSNAPSH"      8 bytes
//! version u32             currently 2
//! payload_len u64
//! payload                 payload_len bytes
//! checksum u64            lane-parallel multiply-xor over payload
//! ```
//!
//! The payload starts with an identity header (space fingerprint,
//! generation seed, engine-config fingerprint, strategy level count,
//! scheduler config, tick, crawled count) followed by the run state and
//! the sharded-frontier state, encoded canonically — heaps
//! as sorted lists, slabs in slab order (which decoding reproduces) —
//! so re-encoding a decoded snapshot reproduces the original bytes.
//!
//! Decoding is total: truncation, corruption, and version or space
//! mismatches surface as [`SnapshotError`] values, never panics (the
//! module sits inside the P1 no-panic lint scope).

use crate::sched::SchedConfig;
use langcrawl_webgraph::WebSpace;
use std::fmt;
use std::io::Write as _;
use std::path::PathBuf;

/// Leading magic bytes of every snapshot file.
const MAGIC: [u8; 8] = *b"LCSNAPSH";

/// Current snapshot format version, bumped with every payload layout
/// change so frames of another layout fail as
/// [`SnapshotError::UnsupportedVersion`] rather than as garbage.
const VERSION: u32 = 2;

/// Why a snapshot could not be decoded, verified, or resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the declared structure did.
    Truncated,
    /// The leading magic bytes are not `LCSNAPSH`.
    BadMagic,
    /// The format version is not one this build can decode.
    UnsupportedVersion(
        /// The version tag found in the file.
        u32,
    ),
    /// The payload checksum does not match the stored one.
    ChecksumMismatch,
    /// The snapshot was taken over a different web space than the one
    /// offered for resumption.
    SpaceMismatch {
        /// The space fingerprint recorded in the snapshot.
        expected: u64,
        /// The fingerprint of the space offered at resume time.
        found: u64,
    },
    /// The resuming engine or strategy configuration differs from the
    /// snapshotting one; the mismatching aspect is named.
    ConfigMismatch(&'static str),
    /// The payload is structurally invalid (the named invariant fails).
    Malformed(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a crawl snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads {VERSION})"
                )
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::SpaceMismatch { expected, found } => write!(
                f,
                "snapshot belongs to space {expected:016x}, not {found:016x}"
            ),
            SnapshotError::ConfigMismatch(what) => {
                write!(f, "snapshot configuration mismatch: {what}")
            }
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a over a byte slice — the config-fingerprint fold (small
/// inputs; byte-serial is fine there).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Little-endian `u64` at `at` (caller guarantees 8 readable bytes;
/// `chunks_exact` does below).
fn word(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes([
        // lint:allow(no-panic-transitive): offsets and lengths are derived from the slices being copied
        b[at],
        b[at + 1],
        b[at + 2],
        b[at + 3],
        b[at + 4],
        b[at + 5],
        b[at + 6],
        b[at + 7],
    ])
}

/// The snapshot payload checksum: four independent multiply-xor lanes
/// over 8-byte little-endian words, folded with the length and a
/// SplitMix64-style finalizer. Byte-serial FNV costs one dependent
/// multiply *per byte*, which at snapshot payload sizes (~100 KB+)
/// blows the ≤5% capture-overhead budget; four lanes keep the multiply
/// chains independent so the checksum runs at memory-ish speed.
///
/// Detection: every per-lane step is `lane = (lane ^ w) * M` with `M`
/// odd — a bijection in `w` for fixed `lane` and in `lane` for fixed
/// `w` — and the final fold is the same chain over the lanes, so any
/// change confined to one input word (every single-byte corruption is)
/// provably changes the checksum. The codec proptests flip random bits
/// to pin this.
pub(crate) fn checksum64(bytes: &[u8]) -> u64 {
    const M: u64 = 0x2545_f491_4f6c_dd1d;
    let mut lanes: [u64; 4] = [
        0x9e37_79b9_7f4a_7c15,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
        0xcbf2_9ce4_8422_2325,
    ];
    let mut blocks = bytes.chunks_exact(32);
    for c in blocks.by_ref() {
        // lint:allow(no-panic-transitive): offsets and lengths are derived from the slices being copied
        lanes[0] = (lanes[0] ^ word(c, 0)).wrapping_mul(M);
        lanes[1] = (lanes[1] ^ word(c, 8)).wrapping_mul(M);
        lanes[2] = (lanes[2] ^ word(c, 16)).wrapping_mul(M);
        lanes[3] = (lanes[3] ^ word(c, 24)).wrapping_mul(M);
    }
    let rest = blocks.remainder();
    let mut words = rest.chunks_exact(8);
    let mut lane = 0;
    for c in words.by_ref() {
        lanes[lane] = (lanes[lane] ^ word(c, 0)).wrapping_mul(M);
        lane += 1;
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut w = 0u64;
        for (i, &b) in tail.iter().enumerate() {
            w |= u64::from(b) << (8 * i);
        }
        lanes[lane] = (lanes[lane] ^ w).wrapping_mul(M);
    }
    let mut h = bytes.len() as u64;
    for l in lanes {
        h = (h ^ l).wrapping_mul(M);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Append-only little-endian payload encoder.
#[derive(Debug, Default)]
pub(crate) struct Enc {
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Kept for codec symmetry with [`Dec::u16`] — every current u16
    /// field is written through the bulk [`Enc::u16s`] path.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u32(&mut self, v: u32) {
        // lint:allow(no-alloc-transitive): the encoder buffer is reused across captures; reserve/extend only copy once at high water
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        // lint:allow(no-alloc-transitive): the encoder buffer is reused across captures; reserve/extend only copy once at high water
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Bulk little-endian `u16` append. The per-page arrays a snapshot
    /// carries (admission bars, best-key tables) are tens of thousands
    /// of elements; a per-element `extend_from_slice` call pays a
    /// capacity check each — staging fixed blocks on the stack and
    /// appending them whole keeps bulk encoding at memcpy-ish speed,
    /// which the capture-overhead gate needs.
    pub(crate) fn u16s(&mut self, vs: &[u16]) {
        let mut block = [0u8; 256];
        // lint:allow(no-alloc-transitive): the encoder buffer is reused across captures; reserve/extend only copy once at high water
        self.buf.reserve(vs.len() * 2);
        for chunk in vs.chunks(128) {
            // Pack four elements into one u64 store: a 2-byte
            // copy_from_slice per element re-checks lengths and defeats
            // vectorization, which at per-page array sizes is the
            // difference between ~1.3 GB/s and memcpy-class encoding.
            let mut quads = chunk.chunks_exact(4);
            let mut fill = 0;
            for q in quads.by_ref() {
                // lint:allow(no-panic-transitive): offsets and lengths are derived from the slices being copied
                let w = u64::from(q[0])
                    | u64::from(q[1]) << 16
                    | u64::from(q[2]) << 32
                    | u64::from(q[3]) << 48;
                // lint:allow(no-panic-transitive): offsets and lengths are derived from the slices being copied
                block[fill..fill + 8].copy_from_slice(&w.to_le_bytes());
                fill += 8;
            }
            for &v in quads.remainder() {
                // lint:allow(no-panic-transitive): offsets and lengths are derived from the slices being copied
                block[fill..fill + 2].copy_from_slice(&v.to_le_bytes());
                fill += 2;
            }
            // lint:allow(no-alloc-transitive): the encoder buffer is reused across captures; reserve/extend only copy once at high water
            self.buf.extend_from_slice(&block[..fill]);
        }
    }

    /// Bulk little-endian `u32` append (see [`Enc::u16s`]).
    pub(crate) fn u32s(&mut self, vs: &[u32]) {
        let mut block = [0u8; 256];
        // lint:allow(no-alloc-transitive): the encoder buffer is reused across captures; reserve/extend only copy once at high water
        self.buf.reserve(vs.len() * 4);
        for chunk in vs.chunks(64) {
            let mut pairs = chunk.chunks_exact(2);
            let mut fill = 0;
            for p in pairs.by_ref() {
                // lint:allow(no-panic-transitive): offsets and lengths are derived from the slices being copied
                let w = u64::from(p[0]) | u64::from(p[1]) << 32;
                // lint:allow(no-panic-transitive): offsets and lengths are derived from the slices being copied
                block[fill..fill + 8].copy_from_slice(&w.to_le_bytes());
                fill += 8;
            }
            for &v in pairs.remainder() {
                // lint:allow(no-panic-transitive): offsets and lengths are derived from the slices being copied
                block[fill..fill + 4].copy_from_slice(&v.to_le_bytes());
                fill += 4;
            }
            // lint:allow(no-alloc-transitive): the encoder buffer is reused across captures; reserve/extend only copy once at high water
            self.buf.extend_from_slice(&block[..fill]);
        }
    }

    /// Bulk little-endian `u64` append (see [`Enc::u16s`]).
    pub(crate) fn u64s(&mut self, vs: &[u64]) {
        let mut block = [0u8; 256];
        // lint:allow(no-alloc-transitive): the encoder buffer is reused across captures; reserve/extend only copy once at high water
        self.buf.reserve(vs.len() * 8);
        for chunk in vs.chunks(32) {
            for (dst, &v) in block.chunks_exact_mut(8).zip(chunk) {
                // lint:allow(no-panic-transitive): offsets and lengths are derived from the slices being copied
                dst.copy_from_slice(&v.to_le_bytes());
            }
            // lint:allow(no-alloc-transitive): the encoder buffer is reused across captures; reserve/extend only copy once at high water
            self.buf.extend_from_slice(&block[..chunk.len() * 8]); // lint:allow(no-panic-transitive): offsets and lengths are derived from the slices being copied
        }
    }

    /// Bulk boolean append, bit-packed little-endian (bit `i % 8` of
    /// byte `i / 8`), 8 flags per byte — per-page flag arrays dominate
    /// snapshot payloads otherwise.
    pub(crate) fn bools(&mut self, vs: &[bool]) {
        // lint:allow(no-alloc-transitive): the encoder buffer is reused across captures; reserve/extend only copy once at high water
        self.buf.reserve(vs.len().div_ceil(8));
        // Staged like the other bulk encoders: a push per packed byte
        // pays a capacity check each, which per-page flag arrays turn
        // into thousands.
        let mut block = [0u8; 256];
        let mut fill = 0;
        let mut full = vs.chunks_exact(8);
        for c in full.by_ref() {
            // Straight-line pack: no loop-carried dependency per flag.
            // lint:allow(no-panic-transitive): offsets and lengths are derived from the slices being copied
            block[fill] = u8::from(c[0])
                | u8::from(c[1]) << 1
                | u8::from(c[2]) << 2
                | u8::from(c[3]) << 3
                | u8::from(c[4]) << 4
                | u8::from(c[5]) << 5
                | u8::from(c[6]) << 6
                | u8::from(c[7]) << 7;
            fill += 1;
            if fill == block.len() {
                // lint:allow(no-alloc-transitive): the encoder buffer is reused across captures; reserve/extend only copy once at high water
                self.buf.extend_from_slice(&block);
                fill = 0;
            }
        }
        let rest = full.remainder();
        if !rest.is_empty() {
            let mut b = 0u8;
            for (i, &v) in rest.iter().enumerate() {
                b |= u8::from(v) << i;
            }
            block[fill] = b;
            fill += 1;
        }
        // lint:allow(no-alloc-transitive): the encoder buffer is reused across captures; reserve/extend only copy once at high water
        self.buf.extend_from_slice(&block[..fill]);
    }

    /// Current write position — pair with [`Enc::patch_u64`] to emit a
    /// placeholder count before walking a list and fill it in after,
    /// instead of walking twice.
    pub(crate) fn mark(&self) -> usize {
        self.buf.len()
    }

    /// Overwrite the 8 bytes at `at` (a [`Enc::mark`] taken before a
    /// `u64` placeholder) with `v`, little-endian.
    pub(crate) fn patch_u64(&mut self, at: usize, v: u64) {
        if let Some(slot) = self.buf.get_mut(at..at + 8) {
            // lint:allow(no-panic-transitive): offsets and lengths are derived from the slices being copied
            slot.copy_from_slice(&v.to_le_bytes());
        } else {
            debug_assert!(false, "patch offset {at} outside the encoded buffer");
        }
    }
}

/// Bounds-checked little-endian payload decoder. Every read returns
/// [`SnapshotError::Truncated`] past the end instead of panicking.
#[derive(Debug)]
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, SnapshotError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        // lint:allow(no-panic-transitive): offsets and lengths are derived from the slices being copied
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    pub(crate) fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed("boolean byte out of range")),
        }
    }

    /// A `u64` length/count cast into `usize`, rejecting values the
    /// platform cannot index.
    pub(crate) fn len(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Malformed("length overflows usize"))
    }

    /// Bulk boolean read, bit-packed as [`Enc::bools`] writes them.
    /// Padding bits past `out.len()` must be zero (the canonical form
    /// the encoder emits).
    pub(crate) fn bools(&mut self, out: &mut [bool]) -> Result<(), SnapshotError> {
        let bytes = self.take(out.len().div_ceil(8))?;
        for (i, o) in out.iter_mut().enumerate() {
            *o = (bytes[i / 8] >> (i % 8)) & 1 == 1;
        }
        let used = out.len() % 8;
        if used != 0 {
            let last = bytes[bytes.len() - 1];
            if last >> used != 0 {
                return Err(SnapshotError::Malformed("boolean padding bits set"));
            }
        }
        Ok(())
    }

    /// True once every payload byte has been consumed.
    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }
}

/// Begin a framed snapshot directly in `enc`'s buffer: magic, version,
/// and a zero length placeholder. Returns the payload start offset to
/// hand back to [`frame_end`]. Framing in place lets the capture path
/// encode straight into one reused buffer — no separate payload vector
/// and no post-hoc copy.
pub(crate) fn frame_begin(enc: &mut Enc) -> usize {
    enc.buf.extend_from_slice(&MAGIC);
    enc.buf.extend_from_slice(&VERSION.to_le_bytes());
    enc.u64(0);
    enc.buf.len()
}

/// Finish the frame begun at `payload_at`: patch the real payload
/// length over the placeholder and append the checksum. The resulting
/// buffer is byte-identical to `frame(&payload)`.
pub(crate) fn frame_end(enc: &mut Enc, payload_at: usize) {
    let len = enc.buf.len().saturating_sub(payload_at);
    enc.patch_u64(payload_at - 8, len as u64);
    let sum = checksum64(enc.buf.get(payload_at..).unwrap_or(&[]));
    enc.u64(sum);
}

/// Wrap a payload in the framed on-disk format: magic, version,
/// length, payload, checksum.
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut enc = Enc {
        buf: Vec::with_capacity(MAGIC.len() + 4 + 8 + payload.len() + 8),
    };
    let at = frame_begin(&mut enc);
    enc.buf.extend_from_slice(payload);
    frame_end(&mut enc, at);
    enc.buf
}

/// Validate the frame and return the checksummed payload slice.
fn unframe(bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    let mut dec = Dec::new(bytes);
    let magic = dec.take(MAGIC.len())?;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = dec.u32()?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let len = dec.len()?;
    let payload = dec.take(len)?;
    let stored = dec.u64()?;
    if !dec.is_empty() {
        return Err(SnapshotError::Malformed("trailing bytes after checksum"));
    }
    if checksum64(payload) != stored {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok(payload)
}

/// The identity header every snapshot payload starts with: enough to
/// verify the snapshot belongs to (space, config, strategy shape) and
/// to rebuild the scheduler it was taken under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SnapHead {
    /// [`WebSpace::identity_fingerprint`] of the crawled space.
    pub(crate) space_fp: u64,
    /// The space's generation seed (regenerate-and-verify on load).
    pub(crate) gen_seed: u64,
    /// Fingerprint of the engine config the run used.
    pub(crate) config_fp: u64,
    /// The strategy's priority level count (frontier shape).
    pub(crate) levels: u32,
    /// The scheduler configuration the run used.
    pub(crate) sched: SchedConfig,
    /// Virtual tick the snapshot was taken at (a loop-top boundary:
    /// no fetch in flight).
    pub(crate) tick: u64,
    /// Pages resolved when the snapshot was taken.
    pub(crate) crawled: u64,
}

impl SnapHead {
    pub(crate) fn encode(&self, enc: &mut Enc) {
        enc.u64(self.space_fp);
        enc.u64(self.gen_seed);
        enc.u64(self.config_fp);
        enc.u32(self.levels);
        enc.u32(self.sched.slots);
        enc.u32(self.sched.shards);
        enc.u64(self.sched.politeness_gap);
        enc.u64(self.sched.politeness_spread);
        enc.u64(self.tick);
        enc.u64(self.crawled);
    }

    pub(crate) fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        let space_fp = dec.u64()?;
        let gen_seed = dec.u64()?;
        let config_fp = dec.u64()?;
        let levels = dec.u32()?;
        let sched = SchedConfig {
            slots: dec.u32()?,
            shards: dec.u32()?,
            politeness_gap: dec.u64()?,
            politeness_spread: dec.u64()?,
        };
        let tick = dec.u64()?;
        let crawled = dec.u64()?;
        Ok(SnapHead {
            space_fp,
            gen_seed,
            config_fp,
            levels,
            sched,
            tick,
            crawled,
        })
    }
}

/// One decoded crawl snapshot: the raw payload plus its parsed
/// identity header. Produce one with
/// [`CrawlEngine::snapshot`](crate::CrawlEngine::snapshot) (the
/// initial state), by parsing sink output with
/// [`CrawlSnapshot::from_bytes`], and consume it with
/// [`CrawlEngine::resume`](crate::CrawlEngine::resume).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrawlSnapshot {
    pub(crate) payload: Vec<u8>,
    pub(crate) head: SnapHead,
    /// Offset of the run/frontier state inside `payload` (right after
    /// the identity header).
    pub(crate) state_off: usize,
}

impl CrawlSnapshot {
    /// Assemble a snapshot the capture path just encoded (the header
    /// occupies `payload[..state_off]`).
    pub(crate) fn from_parts(payload: Vec<u8>, head: SnapHead, state_off: usize) -> Self {
        CrawlSnapshot {
            payload,
            head,
            state_off,
        }
    }

    /// Serialize to the framed on-disk format (magic, version, length,
    /// payload, checksum) — the exact bytes a
    /// [`SnapshotSink`] receives during a run.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        frame(&self.payload)
    }

    /// Parse a framed snapshot, validating magic, version, length and
    /// checksum, and decoding the identity header. The run/frontier
    /// state beyond the header is validated by
    /// [`CrawlEngine::resume`](crate::CrawlEngine::resume), which has
    /// the web space to check it against.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let payload = unframe(bytes)?;
        let mut dec = Dec::new(payload);
        let head = SnapHead::decode(&mut dec)?;
        Ok(CrawlSnapshot {
            payload: payload.to_vec(),
            head,
            state_off: dec.pos,
        })
    }

    /// Virtual tick the snapshot was taken at.
    #[must_use]
    pub fn tick(&self) -> u64 {
        self.head.tick
    }

    /// Pages resolved when the snapshot was taken.
    #[must_use]
    pub fn crawled(&self) -> u64 {
        self.head.crawled
    }

    /// Identity fingerprint of the web space the snapshot belongs to
    /// (see [`WebSpace::identity_fingerprint`]).
    #[must_use]
    pub fn space_fingerprint(&self) -> u64 {
        self.head.space_fp
    }

    /// Generation seed of that space — regenerate the space from this
    /// seed (same generator config), then [`CrawlSnapshot::verify_space`].
    #[must_use]
    pub fn generation_seed(&self) -> u64 {
        self.head.gen_seed
    }

    /// Check that `ws` is the space this snapshot was taken over:
    /// identity fingerprint and generation seed must both match.
    pub fn verify_space(&self, ws: &WebSpace) -> Result<(), SnapshotError> {
        let found = ws.identity_fingerprint();
        if self.head.space_fp != found || self.head.gen_seed != ws.generation_seed() {
            return Err(SnapshotError::SpaceMismatch {
                expected: self.head.space_fp,
                found,
            });
        }
        Ok(())
    }

    /// A decoder positioned at the run/frontier state.
    pub(crate) fn state_dec(&self) -> Dec<'_> {
        Dec::new(self.payload.get(self.state_off..).unwrap_or(&[]))
    }
}

/// Receiver for the framed snapshot bytes a capturing run emits every
/// N ticks. Implementations must not reorder or mutate the bytes —
/// each call carries a complete, self-contained framed snapshot.
pub trait SnapshotSink {
    /// One snapshot, taken at `tick`, in framed on-disk form.
    fn on_snapshot(&mut self, tick: u64, bytes: &[u8]);
}

/// An in-memory [`SnapshotSink`]: keeps every `(tick, bytes)` pair, in
/// capture order. The parity tests use it to replay arbitrary capture
/// points without touching the filesystem.
#[derive(Debug, Default)]
pub struct SnapshotLog {
    snaps: Vec<(u64, Vec<u8>)>,
}

impl SnapshotLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        SnapshotLog::default()
    }

    /// The captured `(tick, framed bytes)` pairs, in capture order.
    #[must_use]
    pub fn snapshots(&self) -> &[(u64, Vec<u8>)] {
        &self.snaps
    }

    /// Number of snapshots captured.
    #[must_use]
    pub fn len(&self) -> usize {
        self.snaps.len()
    }

    /// True when nothing was captured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.snaps.is_empty()
    }
}

impl SnapshotSink for SnapshotLog {
    fn on_snapshot(&mut self, tick: u64, bytes: &[u8]) {
        self.snaps.push((tick, bytes.to_vec()));
    }
}

/// A [`SnapshotSink`] writing each snapshot to
/// `<dir>/<prefix>-t<tick>.snap`. I/O failures never panic and never
/// abort the crawl: the first error is recorded (and noted once on
/// stderr, best-effort), subsequent writes are skipped, and the caller
/// collects the error through [`DirSink::take_error`] after the run.
#[derive(Debug)]
pub struct DirSink {
    dir: PathBuf,
    prefix: String,
    written: u64,
    error: Option<std::io::Error>,
}

impl DirSink {
    /// A sink writing `<prefix>-t<tick>.snap` files under `dir` (the
    /// directory is created on first write).
    pub fn new(dir: impl Into<PathBuf>, prefix: impl Into<String>) -> Self {
        DirSink {
            dir: dir.into(),
            prefix: prefix.into(),
            written: 0,
            error: None,
        }
    }

    /// Snapshots successfully written so far.
    #[must_use]
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The first write error, if any, leaving `None` behind.
    pub fn take_error(&mut self) -> Option<std::io::Error> {
        self.error.take()
    }
}

impl SnapshotSink for DirSink {
    fn on_snapshot(&mut self, tick: u64, bytes: &[u8]) {
        if self.error.is_some() {
            return;
        }
        let path = self.dir.join(format!("{}-t{tick:020}.snap", self.prefix));
        let wrote = std::fs::create_dir_all(&self.dir).and_then(|()| std::fs::write(&path, bytes));
        match wrote {
            Ok(()) => self.written += 1,
            Err(e) => {
                // Best-effort note; a dead stderr must not panic the run.
                let _ = writeln!(
                    std::io::stderr(),
                    "snapshot: cannot write {}: {e} (further snapshots skipped)",
                    path.display()
                );
                self.error = Some(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head() -> SnapHead {
        SnapHead {
            space_fp: 0x1234_5678_9abc_def0,
            gen_seed: 41,
            config_fp: 0xfeed_f00d_dead_beef,
            levels: 2,
            sched: SchedConfig {
                slots: 8,
                shards: 3,
                politeness_gap: 2,
                politeness_spread: 1,
            },
            tick: 777,
            crawled: 555,
        }
    }

    fn sample() -> CrawlSnapshot {
        let mut enc = Enc::default();
        head().encode(&mut enc);
        let state_off = enc.buf.len();
        for b in [1u8, 2, 3, 4, 5, 6, 7] {
            enc.u8(b);
        }
        CrawlSnapshot::from_parts(enc.buf, head(), state_off)
    }

    #[test]
    fn frame_round_trips() {
        let snap = sample();
        let bytes = snap.to_bytes();
        let back = CrawlSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.tick(), 777);
        assert_eq!(back.crawled(), 555);
        assert_eq!(back.space_fingerprint(), head().space_fp);
        assert_eq!(back.generation_seed(), 41);
        assert_eq!(back.to_bytes(), bytes, "re-encoding is a fixed point");
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = sample().to_bytes();
        for n in 0..bytes.len() {
            let err = CrawlSnapshot::from_bytes(&bytes[..n])
                .expect_err("a proper prefix must never decode");
            assert_eq!(err, SnapshotError::Truncated, "prefix length {n}");
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] ^= 0x40;
        assert_eq!(
            CrawlSnapshot::from_bytes(&bytes),
            Err(SnapshotError::BadMagic)
        );
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[8] = 99; // version word sits right after the magic
        assert_eq!(
            CrawlSnapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn flipped_payload_byte_fails_the_checksum() {
        let mut bytes = sample().to_bytes();
        let payload_at = MAGIC.len() + 4 + 8;
        bytes[payload_at + 3] ^= 1;
        assert_eq!(
            CrawlSnapshot::from_bytes(&bytes),
            Err(SnapshotError::ChecksumMismatch)
        );
    }

    #[test]
    fn flipped_checksum_byte_fails_the_checksum() {
        let mut bytes = sample().to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        assert_eq!(
            CrawlSnapshot::from_bytes(&bytes),
            Err(SnapshotError::ChecksumMismatch)
        );
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert_eq!(
            CrawlSnapshot::from_bytes(&bytes),
            Err(SnapshotError::Malformed("trailing bytes after checksum"))
        );
    }

    #[test]
    fn codec_round_trips_every_width() {
        let mut enc = Enc::default();
        enc.u8(0xab);
        enc.u16(0xcdef);
        enc.u32(0xdead_beef);
        enc.u64(0x0123_4567_89ab_cdef);
        enc.bool(true);
        enc.bool(false);
        let mut dec = Dec::new(&enc.buf);
        assert_eq!(dec.u8().unwrap(), 0xab);
        assert_eq!(dec.u16().unwrap(), 0xcdef);
        assert_eq!(dec.u32().unwrap(), 0xdead_beef);
        assert_eq!(dec.u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert!(dec.bool().unwrap());
        assert!(!dec.bool().unwrap());
        assert!(dec.is_empty());
        assert_eq!(dec.u8(), Err(SnapshotError::Truncated));
    }

    #[test]
    fn bulk_encoders_match_their_scalar_forms() {
        // Lengths straddling the stage-block boundaries, so both the
        // full-block and tail paths are exercised.
        let n = 300;
        let mut bulk = Enc::default();
        let mut scalar = Enc::default();
        let u16v: Vec<u16> = (0..n as u16).map(|i| i.wrapping_mul(257)).collect();
        let u32v: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(0x9e3779b9)).collect();
        let u64v: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x2545_f491)).collect();
        bulk.u16s(&u16v);
        bulk.u32s(&u32v);
        bulk.u64s(&u64v);
        for &v in &u16v {
            scalar.u16(v);
        }
        for &v in &u32v {
            scalar.u32(v);
        }
        for &v in &u64v {
            scalar.u64(v);
        }
        assert_eq!(bulk.buf, scalar.buf);
    }

    #[test]
    fn bitpacked_bools_round_trip_and_reject_set_padding() {
        for n in [0usize, 1, 7, 8, 9, 255, 300] {
            let v: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let mut enc = Enc::default();
            enc.bools(&v);
            assert_eq!(enc.buf.len(), n.div_ceil(8));
            let mut back = vec![false; n];
            let mut dec = Dec::new(&enc.buf);
            dec.bools(&mut back).unwrap();
            assert!(dec.is_empty());
            assert_eq!(back, v, "length {n}");
        }
        // A set bit past the flag count is non-canonical.
        let mut enc = Enc::default();
        enc.bools(&[true, false, true]);
        enc.buf[0] |= 1 << 5;
        let mut back = [false; 3];
        assert_eq!(
            Dec::new(&enc.buf).bools(&mut back),
            Err(SnapshotError::Malformed("boolean padding bits set"))
        );
    }

    #[test]
    fn mark_and_patch_fill_a_placeholder_in_place() {
        let mut enc = Enc::default();
        enc.u8(7);
        let at = enc.mark();
        enc.u64(0);
        enc.u32(9);
        enc.patch_u64(at, 0x0102_0304_0506_0708);
        let mut dec = Dec::new(&enc.buf);
        assert_eq!(dec.u8().unwrap(), 7);
        assert_eq!(dec.u64().unwrap(), 0x0102_0304_0506_0708);
        assert_eq!(dec.u32().unwrap(), 9);
    }

    #[test]
    fn checksum_detects_every_single_byte_corruption_exhaustively() {
        // 77 bytes: full 32-byte blocks + an 8-byte word + a ragged
        // tail, so every lane path is covered. Every byte position ×
        // every flipped bit must change the checksum — the detection
        // guarantee the frame relies on.
        let base: Vec<u8> = (0..77u8).map(|i| i.wrapping_mul(31)).collect();
        let sum = checksum64(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut bad = base.clone();
                bad[i] ^= 1 << bit;
                assert_ne!(checksum64(&bad), sum, "flip at byte {i} bit {bit}");
            }
        }
        // Length participates: a trailing zero byte is not a no-op.
        let mut longer = base.clone();
        longer.push(0);
        assert_ne!(checksum64(&longer), sum);
        assert_ne!(checksum64(&base[..76]), sum);
    }

    #[test]
    fn non_binary_bool_byte_is_malformed() {
        let mut dec = Dec::new(&[2]);
        assert_eq!(
            dec.bool(),
            Err(SnapshotError::Malformed("boolean byte out of range"))
        );
    }

    #[test]
    fn errors_display_and_propagate() {
        let e: Box<dyn std::error::Error> = Box::new(SnapshotError::UnsupportedVersion(7));
        assert!(e.to_string().contains("version 7"));
        assert!(SnapshotError::SpaceMismatch {
            expected: 1,
            found: 2
        }
        .to_string()
        .contains("0000000000000001"));
    }

    #[test]
    fn dir_sink_writes_framed_files_and_reports_errors() {
        let dir = std::env::temp_dir().join(format!("langcrawl-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sink = DirSink::new(&dir, "t");
        let bytes = sample().to_bytes();
        sink.on_snapshot(42, &bytes);
        assert_eq!(sink.written(), 1);
        assert!(sink.take_error().is_none());
        let path = dir.join(format!("t-t{:020}.snap", 42));
        let back = std::fs::read(&path).unwrap();
        assert_eq!(back, bytes);
        assert_eq!(CrawlSnapshot::from_bytes(&back).unwrap(), sample());
        let _ = std::fs::remove_dir_all(&dir);

        // A file where the directory should be: writes fail, the error
        // is captured, and later snapshots are skipped without panicking.
        let clash =
            std::env::temp_dir().join(format!("langcrawl-snap-file-{}", std::process::id()));
        std::fs::write(&clash, b"x").unwrap();
        let mut bad = DirSink::new(&clash, "t");
        bad.on_snapshot(1, &bytes);
        bad.on_snapshot(2, &bytes);
        assert_eq!(bad.written(), 0);
        assert!(bad.take_error().is_some());
        assert!(bad.take_error().is_none(), "error is taken once");
        let _ = std::fs::remove_file(&clash);
    }

    #[test]
    fn snapshot_log_collects_in_order() {
        let mut log = SnapshotLog::new();
        assert!(log.is_empty());
        log.on_snapshot(3, &[1, 2]);
        log.on_snapshot(9, &[3]);
        assert_eq!(log.len(), 2);
        assert_eq!(log.snapshots()[0], (3, vec![1, 2]));
        assert_eq!(log.snapshots()[1], (9, vec![3]));
    }
}
