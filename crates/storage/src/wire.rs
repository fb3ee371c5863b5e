//! Hand-rolled binary wire format for the fetch protocol.
//!
//! Every message is a tagged, little-endian structure with explicit lengths;
//! decoding is *total* — arbitrary byte soup yields a [`WireError`], never a
//! panic or an over-allocation. (The workspace deliberately carries no
//! serde format crate, so this module plays the role gRPC plays in the
//! paper's prototype.)
//!
//! There is one frame layout per direction. Every frame opens with the
//! version byte [`WIRE_VERSION`] and a `request_id: u32` — the multiplexing
//! key that lets one connection carry many pipelined in-flight exchanges —
//! and closes with a CRC32 trailer (IEEE polynomial, little-endian) over
//! everything before it. Decoding verifies the checksum before parsing, so
//! bit corruption anywhere in a frame — including flips the structural
//! parser would happily accept, like a changed sample id, request id or
//! tenant id — surfaces as [`WireError::ChecksumMismatch`] instead of
//! silently re-routing a response, billing the wrong tenant or poisoning
//! training data. CRC32 detects every burst error up to 32 bits, so any
//! single flipped byte is always caught.
//!
//! Optional fields are always present, with `0xFF` (or `0` for the
//! re-encode quality) standing for "unset", so a frame's length depends only
//! on its message kind and payload. Any other version byte — a version-1
//! frame that opened directly with a tag, or a retired `0xA2`–`0xA4`
//! layout — decodes to [`WireError::Version`], never to a wrong-but-valid
//! message.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! Request   := 0xA5 request_id:u32 tenant_id:u16 body crc32:u32
//! Response  := 0xA5 request_id:u32 body crc32:u32
//! body      := 0x01 seed:u64 n:u8 OpKind{n}                   Configure
//!            | 0x02 sample:u64 epoch:u64 split:u8
//!                   quality:u8 max_tier:u8                    Fetch
//!            | 0x11                                           Configured
//!            | 0x12 sample:u64 ops:u32 StageData tier:u8      Data
//!            | 0x13 has_sample:u8 [sample:u64] len:u16 utf8   Error
//! quality   := 0 (no re-encode) | 1..=100
//! max_tier  := 0..MAX_TIERS | 0xFF (uncapped)
//! tier      := 0..MAX_TIERS | 0xFF (full fidelity)
//! OpKind    := tag:u8 [size:u32 | b:u8 c:u8 s:u8]
//! StageData := 0x00 len:u32 bytes          (encoded)
//!            | 0x01 w:u32 h:u32 bytes      (image, len = w*h*3)
//!            | 0x02 w:u32 h:u32 bytes      (tensor, len = w*h*12)
//! ```
//!
//! The encoders write into a caller-provided reusable buffer (clearing it
//! first), so a steady-state connection re-encodes frames with **zero
//! allocations**.

use bytes::Bytes;
use imagery::{RasterImage, Tensor};
use pipeline::{OpKind, PipelineSpec, SplitPoint, StageData};

use crate::protocol::{FetchRequest, FetchResponse, Request, Response, SessionConfig};

/// Decoding errors. Every malformed input maps to one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// Input ended before the structure was complete.
    Truncated,
    /// An unknown tag byte.
    BadTag(u8),
    /// A declared length or dimension fails validation.
    Invalid(&'static str),
    /// Bytes remained after a complete top-level message.
    TrailingBytes(usize),
    /// The CRC32 trailer does not match the message body.
    ChecksumMismatch,
    /// The frame opens with an unsupported wire-format version.
    Version(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadTag(t) => write!(f, "unknown tag byte 0x{t:02x}"),
            WireError::Invalid(what) => write!(f, "invalid field: {what}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            WireError::Version(v) => {
                write!(f, "unsupported wire version {v} (this build speaks {WIRE_VERSION})")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum accepted payload length (64 MiB) — caps allocations from
/// adversarial length fields.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// The wire-format version byte that opens every frame. The high nibble is
/// a magic marker chosen so the byte never collides with a version-1 tag
/// (`0x01..=0x03`, `0x11..=0x13`); the low nibble counts layout revisions,
/// so frames of the retired `0xA2`–`0xA4` layouts fail the version gate
/// instead of misparsing.
pub const WIRE_VERSION: u8 = 0xA5;

/// The wire sentinel for "no fidelity cap / full fidelity".
const TIER_UNCAPPED: u8 = u8::MAX;

/// Parses a wire tier byte: the sentinel means `None`, in-range tiers map
/// to `Some`, anything else is a typed rejection.
fn decode_tier_byte(b: u8) -> Result<Option<u8>, WireError> {
    match b {
        TIER_UNCAPPED => Ok(None),
        t if (t as usize) < codec::MAX_TIERS => Ok(Some(t)),
        _ => Err(WireError::Invalid("fidelity tier out of range")),
    }
}

/// Slice-by-16 lookup tables for the IEEE CRC32 polynomial (reflected
/// form 0xEDB88320), built at compile time. `CRC_TABLES[0]` is the
/// classic byte-at-a-time table; table `k` advances a byte through `k`
/// further zero bytes, letting the hot loop fold 16 input bytes per
/// iteration instead of one. Payloads here are whole samples (hundreds
/// of KiB), so the checksum dominates frame encode/decode cost — the
/// wide tables keep it off the serving path's critical ~ms budget.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            tables[t][i] = (tables[t - 1][i] >> 8) ^ tables[0][(tables[t - 1][i] & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// Folds one 32-bit word through tables `base+3 ..= base`.
#[inline(always)]
fn crc_fold(word: u32, base: usize) -> u32 {
    CRC_TABLES[base + 3][(word & 0xff) as usize]
        ^ CRC_TABLES[base + 2][((word >> 8) & 0xff) as usize]
        ^ CRC_TABLES[base + 1][((word >> 16) & 0xff) as usize]
        ^ CRC_TABLES[base][(word >> 24) as usize]
}

/// CRC32 (IEEE 802.3) of `data` — the checksum appended to every encoded
/// message. Identical output to the byte-at-a-time formulation; the body
/// runs slice-by-16 for throughput.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    let mut chunks = data.chunks_exact(16);
    let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    for chunk in &mut chunks {
        c = crc_fold(c ^ word(&chunk[0..4]), 12)
            ^ crc_fold(word(&chunk[4..8]), 8)
            ^ crc_fold(word(&chunk[8..12]), 4)
            ^ crc_fold(word(&chunk[12..16]), 0);
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// Writes the `ver request_id` header that opens every frame.
fn begin_frame(request_id: u32, out: &mut Vec<u8>) {
    out.clear();
    out.push(WIRE_VERSION);
    out.extend_from_slice(&request_id.to_le_bytes());
}

/// Appends the CRC32 trailer over everything written so far.
fn seal_in_place(out: &mut Vec<u8>) {
    let crc = crc32(out);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Best-effort read of a frame's `request_id` without decoding (or
/// checksum-verifying) the rest — used by the server to echo an id on
/// error replies for frames whose body failed to parse. Returns `None` for
/// frames too short to carry the header or of a foreign version.
pub fn peek_request_id(data: &[u8]) -> Option<u32> {
    if data.first() != Some(&WIRE_VERSION) {
        return None;
    }
    data.get(1..5).and_then(|s| s.try_into().ok()).map(u32::from_le_bytes)
}

/// Splits off and verifies the CRC32 trailer, returning the message body.
fn verify_checksum(data: &[u8]) -> Result<&[u8], WireError> {
    if data.len() < 4 {
        return Err(WireError::Truncated);
    }
    let (body, trailer) = data.split_at(data.len() - 4);
    let want = u32::from_le_bytes(trailer.try_into().map_err(|_| WireError::Truncated)?);
    if crc32(body) != want {
        return Err(WireError::ChecksumMismatch);
    }
    Ok(body)
}

/// Verifies the checksum and the version byte, then reads the request id.
fn open_frame(data: &[u8]) -> Result<(Reader<'_>, u32), WireError> {
    let mut r = Reader::new(verify_checksum(data)?);
    match r.u8()? {
        WIRE_VERSION => {}
        v => return Err(WireError::Version(v)),
    }
    let request_id = r.u32()?;
    Ok((r, request_id))
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.data.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let s = self.data.get(self.pos..self.pos + 2).ok_or(WireError::Truncated)?;
        self.pos += 2;
        Ok(u16::from_le_bytes(s.try_into().map_err(|_| WireError::Truncated)?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let s = self.data.get(self.pos..self.pos + 4).ok_or(WireError::Truncated)?;
        self.pos += 4;
        Ok(u32::from_le_bytes(s.try_into().map_err(|_| WireError::Truncated)?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let s = self.data.get(self.pos..self.pos + 8).ok_or(WireError::Truncated)?;
        self.pos += 8;
        Ok(u64::from_le_bytes(s.try_into().map_err(|_| WireError::Truncated)?))
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        let s = self.data.get(self.pos..self.pos + len).ok_or(WireError::Truncated)?;
        self.pos += len;
        Ok(s)
    }

    fn finish(self) -> Result<(), WireError> {
        let rest = self.data.len() - self.pos;
        if rest == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(rest))
        }
    }
}

fn checked_len(r: &mut Reader<'_>) -> Result<usize, WireError> {
    let len = r.u32()?;
    if len > MAX_PAYLOAD {
        return Err(WireError::Invalid("payload length over cap"));
    }
    Ok(len as usize)
}

// ---------------------------------------------------------------------------
// OpKind
// ---------------------------------------------------------------------------

fn encode_op(op: OpKind, out: &mut Vec<u8>) {
    match op {
        OpKind::Decode => out.push(0),
        OpKind::RandomResizedCrop { size } => {
            out.push(1);
            out.extend_from_slice(&size.to_le_bytes());
        }
        OpKind::RandomHorizontalFlip => out.push(2),
        OpKind::ToTensor => out.push(3),
        OpKind::Normalize => out.push(4),
        OpKind::Resize { size } => {
            out.push(5);
            out.extend_from_slice(&size.to_le_bytes());
        }
        OpKind::CenterCrop { size } => {
            out.push(6);
            out.extend_from_slice(&size.to_le_bytes());
        }
        OpKind::ColorJitter { brightness_pct, contrast_pct, saturation_pct } => {
            out.push(7);
            out.push(brightness_pct);
            out.push(contrast_pct);
            out.push(saturation_pct);
        }
        OpKind::Grayscale => out.push(8),
    }
}

fn decode_op(r: &mut Reader<'_>) -> Result<OpKind, WireError> {
    let tag = r.u8()?;
    let sized = |r: &mut Reader<'_>| -> Result<u32, WireError> {
        let size = r.u32()?;
        if size == 0 || size > 1 << 16 {
            return Err(WireError::Invalid("op size parameter"));
        }
        Ok(size)
    };
    Ok(match tag {
        0 => OpKind::Decode,
        1 => OpKind::RandomResizedCrop { size: sized(r)? },
        2 => OpKind::RandomHorizontalFlip,
        3 => OpKind::ToTensor,
        4 => OpKind::Normalize,
        5 => OpKind::Resize { size: sized(r)? },
        6 => OpKind::CenterCrop { size: sized(r)? },
        7 => OpKind::ColorJitter {
            brightness_pct: r.u8()?,
            contrast_pct: r.u8()?,
            saturation_pct: r.u8()?,
        },
        8 => OpKind::Grayscale,
        t => return Err(WireError::BadTag(t)),
    })
}

// ---------------------------------------------------------------------------
// StageData
// ---------------------------------------------------------------------------

/// Serializes a [`StageData`] payload.
fn encode_stage_data(data: &StageData, out: &mut Vec<u8>) {
    match data {
        StageData::Encoded(b) => {
            out.push(0x00);
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b);
        }
        StageData::Image(img) => {
            out.push(0x01);
            out.extend_from_slice(&img.width().to_le_bytes());
            out.extend_from_slice(&img.height().to_le_bytes());
            out.extend_from_slice(img.as_raw());
        }
        StageData::Tensor(t) => {
            out.push(0x02);
            out.extend_from_slice(&t.width().to_le_bytes());
            out.extend_from_slice(&t.height().to_le_bytes());
            out.extend_from_slice(&t.to_le_bytes());
        }
    }
}

fn decode_stage_data(r: &mut Reader<'_>) -> Result<StageData, WireError> {
    let tag = r.u8()?;
    match tag {
        0x00 => {
            let len = checked_len(r)?;
            Ok(StageData::Encoded(Bytes::copy_from_slice(r.take(len)?)))
        }
        0x01 => {
            let (w, h) = (r.u32()?, r.u32()?);
            let len = (w as u64)
                .checked_mul(h as u64)
                .and_then(|p| p.checked_mul(3))
                .filter(|&l| l > 0 && l <= u64::from(MAX_PAYLOAD))
                .ok_or(WireError::Invalid("image dimensions"))? as usize;
            let raw = r.take(len)?.to_vec();
            let img =
                RasterImage::from_raw(w, h, raw).map_err(|_| WireError::Invalid("image buffer"))?;
            Ok(StageData::Image(img))
        }
        0x02 => {
            let (w, h) = (r.u32()?, r.u32()?);
            let len = (w as u64)
                .checked_mul(h as u64)
                .and_then(|p| p.checked_mul(12))
                .filter(|&l| l > 0 && l <= u64::from(MAX_PAYLOAD))
                .ok_or(WireError::Invalid("tensor dimensions"))? as usize;
            let bytes = r.take(len)?;
            let t =
                Tensor::from_le_bytes(w, h, bytes).ok_or(WireError::Invalid("tensor buffer"))?;
            Ok(StageData::Tensor(t))
        }
        t => Err(WireError::BadTag(t)),
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Serializes a [`Request`] from `tenant_id` under `request_id` into a
/// caller-provided buffer (cleared first); a reused buffer makes
/// steady-state encoding allocation-free.
pub fn encode_request_into(request_id: u32, tenant_id: u16, req: &Request, out: &mut Vec<u8>) {
    begin_frame(request_id, out);
    out.extend_from_slice(&tenant_id.to_le_bytes());
    match req {
        Request::Configure(cfg) => {
            out.push(0x01);
            out.extend_from_slice(&cfg.dataset_seed.to_le_bytes());
            out.push(cfg.pipeline.len() as u8);
            for &op in cfg.pipeline.ops() {
                encode_op(op, out);
            }
        }
        Request::Fetch(f) => {
            out.push(0x02);
            out.extend_from_slice(&f.sample_id.to_le_bytes());
            out.extend_from_slice(&f.epoch.to_le_bytes());
            out.push(f.split.offloaded_ops() as u8);
            out.push(f.reencode_quality.unwrap_or(0));
            out.push(f.max_tier.unwrap_or(TIER_UNCAPPED));
        }
    }
    seal_in_place(out);
}

/// Deserializes a request frame into its `(request_id, tenant_id,
/// request)`.
///
/// # Errors
///
/// Returns a [`WireError`] for any malformed input, including trailing
/// bytes, checksum mismatches, and foreign wire versions.
pub fn decode_request_framed(data: &[u8]) -> Result<(u32, u16, Request), WireError> {
    let (mut r, request_id) = open_frame(data)?;
    let tenant_id = r.u16()?;
    let req = match r.u8()? {
        0x01 => {
            let dataset_seed = r.u64()?;
            let n = r.u8()? as usize;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                ops.push(decode_op(&mut r)?);
            }
            let pipeline =
                PipelineSpec::new(ops).map_err(|_| WireError::Invalid("ill-typed pipeline"))?;
            Request::Configure(SessionConfig { dataset_seed, pipeline })
        }
        0x02 => {
            let sample_id = r.u64()?;
            let epoch = r.u64()?;
            let split = SplitPoint::new(r.u8()? as usize);
            let reencode_quality = match r.u8()? {
                0 => None,
                q if (1..=100).contains(&q) => Some(q),
                _ => return Err(WireError::Invalid("reencode quality")),
            };
            let max_tier = decode_tier_byte(r.u8()?)?;
            Request::Fetch(FetchRequest { sample_id, epoch, split, reencode_quality, max_tier })
        }
        t => return Err(WireError::BadTag(t)),
    };
    r.finish()?;
    Ok((request_id, tenant_id, req))
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Serializes a [`Response`] under `request_id` into a caller-provided
/// buffer (cleared first); a reused buffer makes steady-state encoding
/// allocation-free.
pub fn encode_response_into(request_id: u32, resp: &Response, out: &mut Vec<u8>) {
    begin_frame(request_id, out);
    match resp {
        Response::Configured => out.push(0x11),
        Response::Data(d) => {
            out.push(0x12);
            out.extend_from_slice(&d.sample_id.to_le_bytes());
            out.extend_from_slice(&d.ops_applied.to_le_bytes());
            encode_stage_data(&d.data, out);
            out.push(d.tier.unwrap_or(TIER_UNCAPPED));
        }
        Response::Error { sample_id, message } => {
            out.push(0x13);
            match sample_id {
                Some(id) => {
                    out.push(1);
                    out.extend_from_slice(&id.to_le_bytes());
                }
                None => out.push(0),
            }
            let msg = message.as_bytes();
            out.extend_from_slice(&(msg.len().min(u16::MAX as usize) as u16).to_le_bytes());
            out.extend_from_slice(&msg[..msg.len().min(u16::MAX as usize)]);
        }
    }
    seal_in_place(out);
}

/// Deserializes a response frame into its `(request_id, response)`.
///
/// # Errors
///
/// Returns a [`WireError`] for any malformed input, including trailing
/// bytes, checksum mismatches, and foreign wire versions.
pub fn decode_response_framed(data: &[u8]) -> Result<(u32, Response), WireError> {
    let (mut r, request_id) = open_frame(data)?;
    let resp = match r.u8()? {
        0x11 => Response::Configured,
        0x12 => {
            let sample_id = r.u64()?;
            let ops_applied = r.u32()?;
            let data = decode_stage_data(&mut r)?;
            let tier = decode_tier_byte(r.u8()?)?;
            Response::Data(FetchResponse { sample_id, ops_applied, data, tier })
        }
        0x13 => {
            let sample_id = match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                _ => return Err(WireError::Invalid("error sample flag")),
            };
            let len = r.u16()? as usize;
            let message = String::from_utf8_lossy(r.take(len)?).into_owned();
            Response::Error { sample_id, message }
        }
        t => return Err(WireError::BadTag(t)),
    };
    r.finish()?;
    Ok((request_id, resp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use imagery::Rgb;

    fn encode_request(request_id: u32, tenant_id: u16, req: &Request) -> Vec<u8> {
        let mut out = Vec::new();
        encode_request_into(request_id, tenant_id, req, &mut out);
        out
    }

    fn encode_response(request_id: u32, resp: &Response) -> Vec<u8> {
        let mut out = Vec::new();
        encode_response_into(request_id, resp, &mut out);
        out
    }

    fn data(payload: &'static [u8], tier: Option<u8>) -> Response {
        Response::Data(FetchResponse {
            sample_id: 9,
            ops_applied: 2,
            data: StageData::Encoded(Bytes::from_static(payload)),
            tier,
        })
    }

    /// Prefixes a hand-crafted tag+payload body with a response header and
    /// re-seals it with a valid CRC trailer, so a test exercises the
    /// structural parser rather than the version or checksum gates.
    fn sealed(body: Vec<u8>) -> Vec<u8> {
        let mut out = vec![WIRE_VERSION];
        out.extend_from_slice(&7u32.to_le_bytes());
        out.extend_from_slice(&body);
        seal_in_place(&mut out);
        out
    }

    #[test]
    fn request_roundtrips() {
        let reqs = [
            Request::Configure(SessionConfig {
                dataset_seed: 42,
                pipeline: PipelineSpec::standard_train(),
            }),
            Request::Configure(SessionConfig {
                dataset_seed: 0,
                pipeline: PipelineSpec::standard_eval(),
            }),
            Request::Fetch(FetchRequest::new(7, 3, SplitPoint::new(2))),
            Request::Fetch(FetchRequest::new(u64::MAX, 0, SplitPoint::NONE)),
            Request::Fetch(FetchRequest::new(9, 1, SplitPoint::new(2)).with_reencode(70)),
            Request::Fetch(FetchRequest::new(3, 1, SplitPoint::NONE).with_max_tier(0)),
        ];
        for (id, t) in [(0u32, 0u16), (7, 1), (0xdead_beef, 41), (u32::MAX, u16::MAX)] {
            for req in &reqs {
                let bytes = encode_request(id, t, req);
                assert_eq!(decode_request_framed(&bytes).unwrap(), (id, t, req.clone()));
                assert_eq!(peek_request_id(&bytes), Some(id));
            }
        }
    }

    #[test]
    fn fetch_request_is_compact() {
        let req = Request::Fetch(FetchRequest::new(1, 1, SplitPoint::new(2)));
        // 7-byte header + tag + 19-byte fetch body + 4-byte CRC.
        assert_eq!(encode_request(1, 0, &req).len(), 31);
    }

    #[test]
    fn every_fidelity_tier_roundtrips_both_ways() {
        for tier in 0..codec::MAX_TIERS as u8 {
            let req = Request::Fetch(FetchRequest::new(3, 1, SplitPoint::NONE).with_max_tier(tier));
            assert_eq!(decode_request_framed(&encode_request(5, 2, &req)).unwrap(), (5, 2, req));
            let resp = data(b"tiered prefix", Some(tier));
            assert_eq!(decode_response_framed(&encode_response(4, &resp)).unwrap(), (4, resp));
        }
    }

    #[test]
    fn header_and_tier_fields_are_protected_by_the_checksum() {
        // A flipped bit in the request id, the tenant id or the served tier
        // must never re-route, re-bill or silently downgrade: each fails
        // the CRC instead.
        let req = Request::Fetch(FetchRequest::new(3, 1, SplitPoint::new(2)));
        for at in [3usize, 5] {
            let mut bytes = encode_request(11, 6, &req);
            bytes[at] ^= 0x01;
            assert_eq!(decode_request_framed(&bytes), Err(WireError::ChecksumMismatch));
        }
        let mut bytes = encode_response(41, &data(b"payload", Some(1)));
        bytes[3] ^= 0x04;
        assert_eq!(decode_response_framed(&bytes), Err(WireError::ChecksumMismatch));
        let mut bytes = encode_response(41, &data(b"payload", Some(1)));
        let tier_at = bytes.len() - 5;
        bytes[tier_at] ^= 0x01;
        assert_eq!(decode_response_framed(&bytes), Err(WireError::ChecksumMismatch));
    }

    #[test]
    fn out_of_range_wire_tiers_are_rejected() {
        // Hand-craft a data response whose tier byte is MAX_TIERS (valid
        // tiers are 0..MAX_TIERS, 0xFF is the sentinel).
        let mut bytes = encode_response(0, &data(b"x", Some(0)));
        let crc_at = bytes.len() - 4;
        bytes[crc_at - 1] = codec::MAX_TIERS as u8;
        bytes.truncate(crc_at);
        seal_in_place(&mut bytes);
        assert_eq!(
            decode_response_framed(&bytes),
            Err(WireError::Invalid("fidelity tier out of range"))
        );
    }

    #[test]
    fn version_1_frames_are_rejected_as_foreign_not_misparsed() {
        // A v1 frame opened directly with the tag byte; its first byte now
        // reads as a version. Every v1 tag is a typed rejection, never a
        // wrong-but-valid message.
        for tag in [0x01u8, 0x02, 0x03, 0x11, 0x12, 0x13] {
            let mut body = vec![tag];
            body.extend_from_slice(&1u64.to_le_bytes());
            seal_in_place(&mut body);
            let foreign = Err(WireError::Version(tag));
            assert_eq!(decode_request_framed(&body).map(|_| ()), foreign, "tag 0x{tag:02x}");
            assert_eq!(decode_response_framed(&body).map(|_| ()), foreign, "tag 0x{tag:02x}");
        }
        // Frames of the retired layouts are equally foreign, whatever
        // follows the version byte.
        let req = Request::Fetch(FetchRequest::new(3, 1, SplitPoint::new(2)));
        let resp = data(b"payload", None);
        for old in [0xA2u8, 0xA3, 0xA4] {
            for mut frame in [encode_request(9, 1, &req), encode_response(9, &resp)] {
                frame[0] = old;
                let crc_at = frame.len() - 4;
                frame.truncate(crc_at);
                seal_in_place(&mut frame);
                assert_eq!(peek_request_id(&frame), None);
                let foreign = Err(WireError::Version(old));
                assert_eq!(decode_request_framed(&frame).map(|_| ()), foreign);
                assert_eq!(decode_response_framed(&frame).map(|_| ()), foreign);
            }
        }
    }

    #[test]
    fn encode_into_reuses_the_buffer_without_reallocating() {
        // The hot-path proof: after one warm-up encode sizes the buffer,
        // repeated encodes of same-shaped frames never reallocate — the
        // buffer's pointer and capacity stay put.
        let req = Request::Fetch(FetchRequest::new(7, 3, SplitPoint::new(2)));
        let mut buf = Vec::new();
        encode_request_into(5, 1, &req, &mut buf);
        let (ptr, cap) = (buf.as_ptr(), buf.capacity());
        for id in 0..1000u32 {
            encode_request_into(id, (id % 7) as u16, &req, &mut buf);
            let (got_id, got_tenant, _) = decode_request_framed(&buf).unwrap();
            assert_eq!((got_id, got_tenant), (id, (id % 7) as u16));
        }
        assert_eq!(buf.as_ptr(), ptr, "buffer reallocated on the hot path");
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_slice_by_8_matches_byte_at_a_time_at_every_alignment() {
        fn reference(data: &[u8]) -> u32 {
            let mut c = 0xffff_ffffu32;
            for &b in data {
                c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
            }
            c ^ 0xffff_ffff
        }
        // Lengths straddling every chunk boundary and a payload-sized blob.
        let blob: Vec<u8> = (0..4096u32).map(|i| (i.wrapping_mul(31) >> 3) as u8).collect();
        for len in (0..64).chain([255, 1024, 4095, 4096]) {
            assert_eq!(crc32(&blob[..len]), reference(&blob[..len]), "len {len}");
        }
    }

    #[test]
    fn checksum_mismatch_detected_even_when_parse_would_succeed() {
        // Flip a bit inside the sample id: structurally still a perfectly
        // valid fetch request, but the checksum catches it.
        let mut bytes =
            encode_request(0, 0, &Request::Fetch(FetchRequest::new(7, 3, SplitPoint::new(2))));
        bytes[8] ^= 0x01;
        assert_eq!(decode_request_framed(&bytes), Err(WireError::ChecksumMismatch));
    }

    #[test]
    fn corrupted_trailer_detected() {
        let mut bytes = encode_response(0, &Response::Configured);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x80;
        assert_eq!(decode_response_framed(&bytes), Err(WireError::ChecksumMismatch));
    }

    #[test]
    fn response_roundtrips_all_payload_kinds() {
        let img = RasterImage::filled(5, 4, Rgb::new(1, 2, 3));
        let tensor = imagery::Tensor::from_image(&img);
        let payloads = [
            StageData::Encoded(Bytes::from_static(b"raw bytes")),
            StageData::Image(img),
            StageData::Tensor(tensor),
        ];
        for p in payloads {
            let resp = Response::Data(FetchResponse {
                sample_id: 9,
                ops_applied: 2,
                data: p.clone(),
                tier: None,
            });
            // Responses are `PartialEq`, so the roundtrip asserts every
            // field (payload bytes included) in one exhaustive comparison.
            let got = decode_response_framed(&encode_response(3, &resp)).unwrap();
            assert_eq!(got, (3, resp), "roundtrip {:?}", p.kind());
        }
    }

    #[test]
    fn error_response_roundtrips() {
        for sample_id in [None, Some(5u64)] {
            let resp = Response::Error { sample_id, message: "object not found".into() };
            let got = decode_response_framed(&encode_response(0, &resp)).unwrap();
            assert_eq!(got, (0, resp), "roundtrip {sample_id:?}");
        }
    }

    #[test]
    fn truncation_detected_at_every_length() {
        let resp = Response::Data(FetchResponse {
            sample_id: 1,
            ops_applied: 1,
            data: StageData::Image(RasterImage::filled(8, 8, Rgb::gray(7))),
            tier: None,
        });
        let bytes = encode_response(0, &resp);
        for len in 0..bytes.len() {
            assert!(
                decode_response_framed(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        // A body with junk after a complete message, under a valid CRC
        // (appending to a sealed frame would fail the checksum instead).
        assert_eq!(
            decode_response_framed(&sealed(vec![0x11, 0])),
            Err(WireError::TrailingBytes(1))
        );
        // The same for requests: a valid fetch or configure frame with one
        // junk byte slipped in before the re-sealed trailer.
        let reqs = [
            Request::Fetch(FetchRequest::new(7, 3, SplitPoint::new(2))),
            Request::Configure(SessionConfig {
                dataset_seed: 42,
                pipeline: PipelineSpec::standard_train(),
            }),
        ];
        for req in &reqs {
            let mut bytes = encode_request(5, 2, req);
            bytes.truncate(bytes.len() - 4);
            bytes.push(0);
            seal_in_place(&mut bytes);
            assert_eq!(decode_request_framed(&bytes), Err(WireError::TrailingBytes(1)), "{req:?}");
        }
    }

    #[test]
    fn absurd_lengths_rejected_without_allocation() {
        // Encoded payload claiming 4 GiB.
        let mut body = vec![0x12];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes());
        body.push(0x00);
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_response_framed(&sealed(body)),
            Err(WireError::Invalid("payload length over cap"))
        ));
    }

    #[test]
    fn ill_typed_pipeline_rejected() {
        // Configure with [ToTensor] (cannot consume encoded input).
        let mut frame = vec![WIRE_VERSION];
        frame.extend_from_slice(&7u32.to_le_bytes());
        frame.extend_from_slice(&0u16.to_le_bytes());
        frame.push(0x01);
        frame.extend_from_slice(&0u64.to_le_bytes());
        frame.push(1); // one op
        frame.push(3); // ToTensor
        seal_in_place(&mut frame);
        assert_eq!(decode_request_framed(&frame), Err(WireError::Invalid("ill-typed pipeline")));
    }

    #[test]
    fn fuzz_decode_never_panics() {
        // Deterministic pseudo-random byte soup.
        let mut state = 0x12345678u64;
        for len in 0..200usize {
            let mut buf = Vec::with_capacity(len);
            for _ in 0..len {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                buf.push((state >> 33) as u8);
            }
            let _ = decode_request_framed(&buf);
            let _ = decode_response_framed(&buf);
        }
    }
}
