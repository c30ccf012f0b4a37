//! Wire protocol between edge devices and the fusion device.
//!
//! Every frame is **v2**: a 16-byte header — 4-byte magic `ED 56 49 54`
//! ("íVIT"), version, flags, frame kind, reserved byte, payload length and a
//! CRC-32 of the payload — followed by a kind-specific payload. Kind
//! [`FrameKind::FeatureBatch`] packs *all* samples of one sub-model into a
//! single frame, which is what the batched [`crate::ClusterRuntime`] ships
//! (one frame per device per round; a one-sample batch is the single-feature
//! message); kind [`FrameKind::Control`] carries membership/health signalling
//! (join / leave / heartbeat) for the streaming scheduler — CRC-protected
//! exactly like data frames, because a corrupted heartbeat must not be able
//! to keep a dead device looking alive. Kind byte 1 (a retired one-feature
//! layout) is unassigned, like every other byte but 2 and 3: a typed
//! [`EdgeError::Decode`].
//!
//! Bits 1–2 of the flags byte negotiate the **payload codec** of batch
//! frames ([`PayloadCodec`]): raw `f32` (codec 0, the layout every pre-codec
//! encoder emitted), `f16` quantization (halves the value bytes, relative
//! error ≤ 2⁻¹⁰), or `f16` plus delta/run-length compression for low-entropy
//! features. The CRC always covers the encoded payload, so corruption is
//! detected before dequantization; control frames must carry codec 0
//! (anything else is an [`EdgeError::Protocol`] violation).
//!
//! The full byte-level layouts are diagrammed in `crates/edge/README.md`.

use bytes::{crc32, f16_bits_to_f32_slice, f32_to_f16_bits_slice, Buf, BufMut, Bytes, BytesMut};

use edvit_tensor::Tensor;

use crate::{EdgeError, Result};

/// Magic prefix of every v2 frame: `0xED` + ASCII `VIT`.
pub const WIRE_MAGIC: [u8; 4] = [0xED, b'V', b'I', b'T'];

/// Current wire-format version emitted by the encoders.
pub const WIRE_VERSION: u8 = 2;

/// Size in bytes of the v2 frame header (magic, version, flags, kind,
/// reserved, payload length, payload CRC-32).
pub const V2_HEADER_LEN: usize = 16;

/// Fixed bytes of a [`FrameKind::FeatureBatch`] payload before the per-sample
/// data (`sub_model`, `feature_dim`, `num_samples`).
pub const BATCH_FIXED_LEN: usize = 12;

/// Exact payload size of a [`FrameKind::Control`] frame (`control_kind`,
/// `device_id`, `sequence`, `capacity_flops_per_second`).
pub const CONTROL_PAYLOAD_LEN: usize = 24;

/// Encoded size of a full v2 control frame (header + fixed payload).
pub const CONTROL_FRAME_LEN: usize = V2_HEADER_LEN + CONTROL_PAYLOAD_LEN;

/// Flag bit: the header CRC-32 field is populated and must be verified.
/// Every v2 encoder sets it, and the decoder rejects v2 frames without it —
/// otherwise a bit flip in the (un-checksummed) flags byte could switch the
/// integrity check off.
pub const FLAG_CHECKSUM: u8 = 0b0000_0001;

/// Flag bits 1–2: the payload codec of a [`FrameKind::FeatureBatch`] frame
/// (see [`PayloadCodec`]). Zero — the default — is the uncompressed `f32`
/// layout every pre-codec encoder emitted, so old frames decode unchanged.
pub const FLAG_CODEC_MASK: u8 = 0b0000_0110;

/// Bit position of the codec field inside the flags byte.
pub const FLAG_CODEC_SHIFT: u8 = 1;

/// How the feature values of a batch frame are laid out on the wire.
///
/// The codec rides in bits 1–2 of the v2 header's `flags` byte and applies to
/// [`FrameKind::FeatureBatch`] payloads only: control frames must carry
/// codec 0, and a non-zero codec there is an [`EdgeError::Protocol`]
/// violation. Whatever the codec, the CRC-32 covers
/// the *encoded* payload bytes, so corruption is detected before any
/// dequantization or decompression runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum PayloadCodec {
    /// Raw little-endian `f32` values — the identity codec (bit-exact, and
    /// encoded straight from the tensor's backing slice with no intermediate
    /// copy of the values).
    #[default]
    F32 = 0,
    /// IEEE 754 binary16 values (round-to-nearest-even): half the value
    /// bytes, relative error ≤ 2⁻¹⁰ for in-range values.
    F16 = 1,
    /// Binary16 values, delta-coded and run-length compressed — pays off on
    /// low-entropy feature vectors (repeated or slowly-varying values, e.g.
    /// post-ReLU sparsity); worst case ≈ 0.4% larger than [`PayloadCodec::F16`].
    F16Rle = 2,
}

impl PayloadCodec {
    /// All codecs, in wire order — handy for sweeps and conformance tests.
    pub const ALL: [PayloadCodec; 3] = [PayloadCodec::F32, PayloadCodec::F16, PayloadCodec::F16Rle];

    /// The codec's contribution to the header flags byte.
    pub fn flag_bits(self) -> u8 {
        (self as u8) << FLAG_CODEC_SHIFT
    }

    /// Extracts the codec from a v2 header flags byte.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::Protocol`] for the reserved codec value 3: the
    /// frame is intact (the bits are not CRC-protected, but a conforming
    /// encoder can never emit it), so this is a peer speaking a newer or
    /// broken dialect, not wire noise.
    pub fn from_flags(flags: u8) -> Result<Self> {
        match (flags & FLAG_CODEC_MASK) >> FLAG_CODEC_SHIFT {
            0 => Ok(PayloadCodec::F32),
            1 => Ok(PayloadCodec::F16),
            2 => Ok(PayloadCodec::F16Rle),
            other => Err(protocol_err(format!("unknown payload codec {other}"))),
        }
    }

    /// Bytes per feature value as laid out by this codec before any
    /// compression (4 for `f32`, 2 for the f16 family).
    pub fn bytes_per_value(self) -> usize {
        match self {
            PayloadCodec::F32 => 4,
            PayloadCodec::F16 | PayloadCodec::F16Rle => 2,
        }
    }

    /// Short lower-case name, for reports and error messages.
    pub fn name(self) -> &'static str {
        match self {
            PayloadCodec::F32 => "f32",
            PayloadCodec::F16 => "f16",
            PayloadCodec::F16Rle => "f16+rle",
        }
    }
}

impl std::fmt::Display for PayloadCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Encoded size of a v2 batch frame carrying `num_samples` features of
/// `feature_dim` `f32`s each (header + batch body + one `u32` sample index
/// and `4 × feature_dim` payload bytes per sample).
pub fn batch_frame_len(num_samples: usize, feature_dim: usize) -> usize {
    batch_frame_len_coded(num_samples, feature_dim, PayloadCodec::F32)
}

/// Analytic encoded size of a v2 batch frame under `codec`. For the fixed-
/// width codecs this is exact; for [`PayloadCodec::F16Rle`] the actual size
/// is data-dependent, so this returns the *worst case* (all-literal token
/// stream) — the latency model prices compression pessimistically and lets
/// the measured `bytes_on_wire` report the real savings.
pub fn batch_frame_len_coded(num_samples: usize, feature_dim: usize, codec: PayloadCodec) -> usize {
    V2_HEADER_LEN + batch_payload_len(num_samples, num_samples * feature_dim, codec)
}

/// Most payload bytes a batch of `num_samples` samples holding `values`
/// values in all can encode to under `codec` — what
/// [`batch_frame_len_coded`] prices and what the encoder allocates, so no
/// frame outgrows its buffer.
fn batch_payload_len(num_samples: usize, values: usize, codec: PayloadCodec) -> usize {
    let value_bytes = match codec {
        PayloadCodec::F32 => values * 4,
        PayloadCodec::F16 => values * 2,
        // comp_len word + worst-case token stream: one control byte per run
        // of up to RLE_MAX_LITERALS values, two bytes per value.
        PayloadCodec::F16Rle => 4 + values * 2 + values.div_ceil(RLE_MAX_LITERALS),
    };
    BATCH_FIXED_LEN + num_samples * 4 + value_bytes
}

/// What a v2 frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Every sample's feature vector for one sub-model, in a single frame.
    FeatureBatch = 2,
    /// Membership/health signalling: join, leave or heartbeat.
    Control = 3,
}

impl FrameKind {
    fn from_byte(byte: u8) -> Option<FrameKind> {
        match byte {
            2 => Some(FrameKind::FeatureBatch),
            3 => Some(FrameKind::Control),
            _ => None,
        }
    }
}

/// What a [`FrameKind::Control`] frame announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum ControlKind {
    /// A device enters the cluster and offers capacity.
    Join = 1,
    /// A device leaves gracefully; its sub-models must be re-hosted.
    Leave = 2,
    /// A liveness beacon; missing `grace` consecutive heartbeats declares the
    /// device dead.
    Heartbeat = 3,
}

impl ControlKind {
    fn from_u32(value: u32) -> Option<ControlKind> {
        match value {
            1 => Some(ControlKind::Join),
            2 => Some(ControlKind::Leave),
            3 => Some(ControlKind::Heartbeat),
            _ => None,
        }
    }
}

/// A membership/health control message, shipped as a v2 [`FrameKind::Control`]
/// frame with the same CRC-32 protection as data frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlMessage {
    /// What the device announces.
    pub kind: ControlKind,
    /// Identifier of the announcing device.
    pub device_id: u32,
    /// Monotone per-device sequence number. Heartbeats carry the round the
    /// device just finished; stale (reordered) heartbeats are detectable
    /// because the sequence never goes backwards.
    pub sequence: u64,
    /// Compute capacity the device offers, in MAC-FLOPs per second (matches
    /// `DeviceSpec::flops_per_second`). Zero is legal on `Leave`.
    pub capacity_flops_per_second: f64,
}

impl ControlMessage {
    /// A heartbeat beacon for `device_id` after finishing round `sequence`.
    pub fn heartbeat(device_id: usize, sequence: u64, capacity_flops_per_second: f64) -> Self {
        ControlMessage {
            kind: ControlKind::Heartbeat,
            device_id: device_id as u32,
            sequence,
            capacity_flops_per_second,
        }
    }

    /// A join announcement offering `capacity_flops_per_second`.
    pub fn join(device_id: usize, capacity_flops_per_second: f64) -> Self {
        ControlMessage {
            kind: ControlKind::Join,
            device_id: device_id as u32,
            sequence: 0,
            capacity_flops_per_second,
        }
    }

    /// A graceful leave announcement after round `sequence`.
    pub fn leave(device_id: usize, sequence: u64) -> Self {
        ControlMessage {
            kind: ControlKind::Leave,
            device_id: device_id as u32,
            sequence,
            capacity_flops_per_second: 0.0,
        }
    }

    /// Encodes the message as a v2 [`FrameKind::Control`] frame
    /// ([`CONTROL_FRAME_LEN`] bytes).
    pub fn encode(&self) -> Bytes {
        encode_v2_frame(
            FrameKind::Control,
            FLAG_CHECKSUM,
            CONTROL_PAYLOAD_LEN,
            |frame| {
                frame.put_u32_le(self.kind as u32);
                frame.put_u32_le(self.device_id);
                frame.put_u64_le(self.sequence);
                frame.put_f64_le(self.capacity_flops_per_second);
            },
        )
    }

    /// Decodes a control message from a full wire frame.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::Decode`] for non-control frames and truncated or
    /// malformed buffers, [`EdgeError::ChecksumMismatch`] for corrupted
    /// payloads, and [`EdgeError::Protocol`] for intact frames that violate
    /// the contract (unknown control kind, non-finite or negative capacity,
    /// or a `Join` offering zero capacity).
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::disallowed_macros
    )]
    pub fn decode(bytes: Bytes) -> Result<Self> {
        match WireFrame::decode(bytes)? {
            WireFrame::Control(message) => Ok(message),
            other => Err(decode_err(format!(
                "expected a control frame, found a {} frame",
                other.kind_name()
            ))),
        }
    }
}

/// Parses the payload of a v2 `Control` frame.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::disallowed_macros
)]
fn decode_control_payload(bytes: &mut Bytes) -> Result<ControlMessage> {
    if bytes.remaining() != CONTROL_PAYLOAD_LEN {
        return Err(decode_err(format!(
            "control payload must be exactly {CONTROL_PAYLOAD_LEN} bytes, found {}",
            bytes.remaining()
        )));
    }
    let kind_word = bytes.get_u32_le();
    let kind = ControlKind::from_u32(kind_word)
        .ok_or_else(|| protocol_err(format!("unknown control kind {kind_word}")))?;
    let device_id = bytes.get_u32_le();
    let sequence = bytes.get_u64_le();
    let capacity_flops_per_second = bytes.get_f64_le();
    if !capacity_flops_per_second.is_finite() || capacity_flops_per_second < 0.0 {
        return Err(protocol_err(format!(
            "control frame advertises a non-finite or negative capacity \
             ({capacity_flops_per_second})"
        )));
    }
    // A `Join` is a capacity *offer* the scheduler admits into the membership:
    // zero (or sub-normal nonsense) capacity must be rejected here, at the
    // wire boundary, not silently admitted and divided by later.
    if kind == ControlKind::Join && capacity_flops_per_second <= 0.0 {
        return Err(protocol_err(
            "join offers no capacity (<= 0 FLOPs/s); nothing to admit",
        ));
    }
    Ok(ControlMessage {
        kind,
        device_id,
        sequence,
        capacity_flops_per_second,
    })
}

#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::disallowed_macros
)]
fn decode_err(message: impl Into<String>) -> EdgeError {
    EdgeError::Decode {
        message: message.into(),
    }
}

fn protocol_err(message: impl Into<String>) -> EdgeError {
    EdgeError::Protocol {
        message: message.into(),
    }
}

/// Builds a v2 frame in one buffer — the single place a v2 header is written.
/// The 16-byte header goes in first with its length and CRC fields blank,
/// `write_payload` appends the payload behind it in place, and the two fields
/// are patched once the payload's extent is known. The CRC-32 covers the
/// payload exactly as written — for coded batch frames that is the *encoded*
/// (quantized / compressed) bytes, so corruption is caught before any
/// dequantization runs. `payload_capacity` sizes the buffer; a payload that
/// outgrows it only costs a reallocation.
///
/// # Panics
///
/// Panics when the payload exceeds the 4 GiB the header's `u32` length field
/// can describe — failing loudly at encode time beats emitting a frame whose
/// length field silently wrapped.
fn encode_v2_frame(
    kind: FrameKind,
    flags: u8,
    payload_capacity: usize,
    write_payload: impl FnOnce(&mut BytesMut),
) -> Bytes {
    let mut buf = BytesMut::with_capacity(V2_HEADER_LEN + payload_capacity);
    buf.put_slice(&WIRE_MAGIC);
    buf.put_u8(WIRE_VERSION);
    buf.put_u8(flags);
    buf.put_u8(kind as u8);
    buf.put_u8(0); // reserved
    buf.put_u64_le(0); // payload length + CRC-32, patched below
    write_payload(&mut buf);
    let (header, payload) = buf.as_mut().split_at_mut(V2_HEADER_LEN);
    assert!(
        payload.len() <= u32::MAX as usize,
        "frame payload of {} bytes exceeds the u32 length field; split the batch",
        payload.len()
    );
    header[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[12..16].copy_from_slice(&crc32(payload).to_le_bytes());
    buf.freeze()
}

// ---------------------------------------------------------------------------
// F16Rle token stream
// ---------------------------------------------------------------------------
//
// The compressed value block of a [`PayloadCodec::F16Rle`] batch encodes the
// *delta* sequence of the f16 bit patterns (`d[0] = v[0]`,
// `d[i] = v[i] − v[i−1]`, wrapping), so runs of equal or linearly-ramping
// values become runs of equal deltas. The token stream over the deltas:
//
// * control byte `c < 0x80`: a literal run of `c + 1` (1..=128) u16 values;
// * control byte `c ≥ 0x80`: a repeat run of `(c & 0x7F) + 2` (2..=129)
//   copies of the single u16 that follows.
//
// The encoder is greedy and deterministic (repeat runs are only taken at
// length ≥ 3, where they beat literals), so decode→re-encode reproduces the
// bytes exactly — the property the conformance fixtures pin down.

/// Longest literal run one control byte can describe.
const RLE_MAX_LITERALS: usize = 128;

/// Longest repeat run one control byte can describe.
const RLE_MAX_REPEAT: usize = 129;

/// Shortest run worth a repeat token (3 values: 3 bytes vs 6 literal bytes).
const RLE_MIN_REPEAT: usize = 3;

/// Compresses the delta stream into `out`. A repeat token pays from three
/// equal values on, so everything before the next such triple is literal.
fn rle_compress(deltas: &[u16], out: &mut BytesMut) {
    let mut rest = deltas;
    while let Some(at) = rest
        .windows(RLE_MIN_REPEAT)
        .position(|w| w[0] == w[1] && w[1] == w[2])
    {
        let (literals, run_on) = rest.split_at(at);
        rle_flush_literals(literals, out);
        let longest = &run_on[..run_on.len().min(RLE_MAX_REPEAT)];
        let run = longest.iter().take_while(|&&d| d == longest[0]).count();
        out.put_u8(0x80 | (run - 2) as u8);
        out.put_u16_le(longest[0]);
        rest = &run_on[run..];
    }
    rle_flush_literals(rest, out);
}

/// Emits pending literal values as maximal literal tokens, each token's
/// values in one bulk write.
fn rle_flush_literals(pending: &[u16], out: &mut BytesMut) {
    for literals in pending.chunks(RLE_MAX_LITERALS) {
        out.put_u8((literals.len() - 1) as u8);
        out.put_u16_slice_le(literals);
    }
}

/// Decompresses exactly `expected_values` u16 deltas from `bytes`, which must
/// hold exactly the token stream (strict: trailing bytes, truncation and
/// over-long runs are all [`EdgeError::Decode`]). A literal run is one bulk
/// read and a repeat run one fill, both into the block allocated up front.
/// Never panics.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::disallowed_macros
)]
fn rle_decompress(bytes: &mut Bytes, expected_values: usize) -> Result<Vec<u16>> {
    let mut out = vec![0u16; expected_values];
    let mut room = out.as_mut_slice();
    while !room.is_empty() {
        let control = bytes
            .try_get_u8()
            .ok_or_else(|| decode_err("compressed value stream ends mid-token"))?;
        let literal = control & 0x80 == 0;
        let n = if literal {
            control as usize + 1
        } else {
            (control & 0x7F) as usize + 2
        };
        let Some((run, rest)) = room.split_at_mut_checked(n) else {
            let kind = if literal { "literal" } else { "repeat" };
            return Err(decode_err(format!(
                "{kind} run of {n} values overflows the {expected_values}-value block"
            )));
        };
        if literal {
            bytes.try_get_u16_slice_le(run).ok_or_else(|| {
                decode_err("compressed value stream truncated inside a literal run")
            })?;
        } else {
            let value = bytes
                .try_get_u16_le()
                .ok_or_else(|| decode_err("compressed value stream truncated inside a repeat"))?;
            run.fill(value);
        }
        room = rest;
    }
    if bytes.remaining() != 0 {
        return Err(decode_err(format!(
            "{} trailing byte(s) after the compressed value stream",
            bytes.remaining()
        )));
    }
    Ok(out)
}

/// One sample's feature vector out of a [`FeatureBatchMessage`]: the plain
/// row view [`FeatureBatchMessage::into_messages`] splits a batch into. It
/// has no wire layout of its own — a one-sample batch frame carries it.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMessage {
    /// Index of the sub-model that produced the feature.
    pub sub_model: u32,
    /// Index of the input sample within the batch/stream.
    pub sample_index: u32,
    /// The pooled feature values.
    pub feature: Vec<f32>,
}

impl FeatureMessage {
    /// Creates a message from a rank-1 feature tensor.
    pub fn from_tensor(sub_model: usize, sample_index: usize, feature: &Tensor) -> Self {
        FeatureMessage {
            sub_model: sub_model as u32,
            sample_index: sample_index as u32,
            feature: feature.data().to_vec(),
        }
    }

    /// The feature as a tensor of shape `[dim]`, cloning the payload. Prefer
    /// [`FeatureMessage::into_tensor`] when the message is no longer needed.
    pub fn to_tensor(&self) -> Tensor {
        Tensor::vector(self.feature.clone())
    }

    /// Converts the message into a tensor of shape `[dim]`, moving the
    /// payload instead of cloning it.
    pub fn into_tensor(self) -> Tensor {
        Tensor::vector(self.feature)
    }
}

/// All feature vectors one sub-model produced for a round of samples, packed
/// into a single v2 frame so header and per-message channel overhead are paid
/// once per device instead of once per sample.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureBatchMessage {
    /// Index of the sub-model that produced the features.
    pub sub_model: u32,
    /// Dimension of every feature vector in the batch.
    pub feature_dim: u32,
    /// Sample index of each packed feature, in pack order.
    pub sample_indices: Vec<u32>,
    /// Row-major `[num_samples × feature_dim]` feature values.
    pub features: Vec<f32>,
}

impl FeatureBatchMessage {
    /// Creates an empty batch for `sub_model` with the given feature
    /// dimension.
    pub fn new(sub_model: usize, feature_dim: usize) -> Self {
        FeatureBatchMessage {
            sub_model: sub_model as u32,
            feature_dim: feature_dim as u32,
            sample_indices: Vec::new(),
            features: Vec::new(),
        }
    }

    /// Number of samples packed so far.
    pub fn num_samples(&self) -> usize {
        self.sample_indices.len()
    }

    /// Whether the batch holds no samples yet.
    pub fn is_empty(&self) -> bool {
        self.sample_indices.is_empty()
    }

    /// Appends one sample's feature values.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::InvalidConfig`] when `feature` does not match the
    /// batch's feature dimension.
    pub fn push_feature(&mut self, sample_index: usize, feature: &[f32]) -> Result<()> {
        if feature.len() != self.feature_dim as usize {
            return Err(EdgeError::InvalidConfig {
                message: format!(
                    "sample {sample_index} has {} feature values, batch expects {}",
                    feature.len(),
                    self.feature_dim
                ),
            });
        }
        self.sample_indices.push(sample_index as u32);
        self.features.extend_from_slice(feature);
        Ok(())
    }

    /// Appends one sample's feature tensor, writing straight from its backing
    /// slice.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::InvalidConfig`] on a dimension mismatch.
    pub fn push_tensor(&mut self, sample_index: usize, feature: &Tensor) -> Result<()> {
        self.push_feature(sample_index, feature.data())
    }

    /// The `i`-th packed feature vector as a slice (pack order, not sample
    /// order).
    pub fn feature_row(&self, i: usize) -> &[f32] {
        let dim = self.feature_dim as usize;
        &self.features[i * dim..(i + 1) * dim]
    }

    /// Size in bytes of the feature values alone (`4 × dim` per sample), the
    /// quantity the paper reports per message.
    pub fn payload_bytes(&self) -> usize {
        self.features.len() * 4
    }

    /// Size of the encoded v2 frame in bytes, including all headers.
    pub fn encoded_len(&self) -> usize {
        batch_frame_len(self.num_samples(), self.feature_dim as usize)
    }

    /// Encodes the batch as a v2 [`FrameKind::FeatureBatch`] frame in the
    /// default [`PayloadCodec::F32`] layout (bit-exact, zero quantization).
    pub fn encode(&self) -> Bytes {
        self.encode_with(PayloadCodec::F32)
    }

    /// Encodes the batch under `codec`, recording the codec in the header
    /// flags so [`WireFrame::decode`] can reverse it. Every codec writes its
    /// values once, straight into the frame buffer: the `f32` path is a block
    /// copy of the backing slice (identity codec), the f16 paths quantize with
    /// round-to-nearest-even, and [`PayloadCodec::F16Rle`] additionally
    /// delta-codes and run-length compresses the quantized bits.
    pub fn encode_with(&self, codec: PayloadCodec) -> Bytes {
        encode_v2_frame(
            FrameKind::FeatureBatch,
            FLAG_CHECKSUM | codec.flag_bits(),
            batch_payload_len(self.sample_indices.len(), self.features.len(), codec),
            |frame| self.write_payload(codec, frame),
        )
    }

    /// Appends the batch payload under `codec` to `frame`.
    fn write_payload(&self, codec: PayloadCodec, frame: &mut BytesMut) {
        frame.put_u32_le(self.sub_model);
        frame.put_u32_le(self.feature_dim);
        frame.put_u32_le(self.sample_indices.len() as u32);
        for &index in &self.sample_indices {
            frame.put_u32_le(index);
        }
        match codec {
            PayloadCodec::F32 => frame.put_f32_slice_le(&self.features),
            PayloadCodec::F16 => frame.put_f16_slice_le(&self.features),
            PayloadCodec::F16Rle => {
                // One buffer: the f16 bits, then their deltas in place.
                let mut deltas = vec![0u16; self.features.len()];
                f32_to_f16_bits_slice(&self.features, &mut deltas);
                let mut previous = 0u16;
                for delta in &mut deltas {
                    let bits = *delta;
                    *delta = bits.wrapping_sub(previous);
                    previous = bits;
                }
                // `comp_len` is known only once the stream is written.
                let comp_len_at = frame.len();
                frame.put_u32_le(0);
                rle_compress(&deltas, frame);
                let comp_len = (frame.len() - comp_len_at - 4) as u32;
                frame.as_mut()[comp_len_at..comp_len_at + 4]
                    .copy_from_slice(&comp_len.to_le_bytes());
            }
        }
    }

    /// Splits the batch into one [`FeatureMessage`] per sample (pack order).
    pub fn into_messages(self) -> Vec<FeatureMessage> {
        let dim = self.feature_dim as usize;
        self.sample_indices
            .iter()
            .enumerate()
            .map(|(i, &sample_index)| FeatureMessage {
                sub_model: self.sub_model,
                sample_index,
                feature: self.features[i * dim..(i + 1) * dim].to_vec(),
            })
            .collect()
    }
}

/// A decoded wire frame of either kind.
#[derive(Debug, Clone, PartialEq)]
pub enum WireFrame {
    /// A batched multi-sample frame (v2 kind 2).
    FeatureBatch(FeatureBatchMessage),
    /// A membership/health control frame (v2 kind 3).
    Control(ControlMessage),
}

impl WireFrame {
    /// Human-readable name of the frame kind, for error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            WireFrame::FeatureBatch(_) => "feature-batch",
            WireFrame::Control(_) => "control",
        }
    }

    /// Decodes a frame: the magic, header and checksum are verified before
    /// the payload is parsed. Never panics, whatever the input bytes.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::Decode`] for buffers without the magic and for
    /// truncated, inconsistent or unsupported ones (an unassigned kind byte
    /// included), and [`EdgeError::ChecksumMismatch`] when the payload fails
    /// CRC verification.
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::disallowed_macros
    )]
    pub fn decode(mut bytes: Bytes) -> Result<Self> {
        if !bytes.as_slice().starts_with(&WIRE_MAGIC) {
            return Err(decode_err(format!(
                "buffer of {} bytes does not start with the v2 magic",
                bytes.len()
            )));
        }
        if bytes.len() < V2_HEADER_LEN {
            return Err(decode_err(format!(
                "v2 buffer of {} bytes is shorter than the {V2_HEADER_LEN}-byte header",
                bytes.len()
            )));
        }
        bytes.get_u32_le(); // discard the already-verified magic
        let version = bytes.get_u8();
        if version != WIRE_VERSION {
            return Err(decode_err(format!(
                "unsupported wire version {version} (this decoder speaks v{WIRE_VERSION})"
            )));
        }
        let flags = bytes.get_u8();
        let kind_byte = bytes.get_u8();
        let _reserved = bytes.get_u8();
        let payload_len = bytes.get_u32_le() as usize;
        let expected_crc = bytes.get_u32_le();
        if bytes.remaining() != payload_len {
            return Err(decode_err(format!(
                "header promises {payload_len} payload bytes, buffer holds {}",
                bytes.remaining()
            )));
        }
        // Version 2 frames always carry a checksum; a cleared flag bit is
        // itself corruption (or a non-conforming encoder), not permission to
        // skip the integrity check the CRC exists to provide.
        if flags & FLAG_CHECKSUM == 0 {
            return Err(protocol_err(
                "v2 frame lacks the mandatory checksum flag".to_string(),
            ));
        }
        let found = crc32(bytes.as_slice());
        if found != expected_crc {
            return Err(EdgeError::ChecksumMismatch {
                expected: expected_crc,
                found,
            });
        }
        let kind = FrameKind::from_byte(kind_byte)
            .ok_or_else(|| decode_err(format!("unknown frame kind {kind_byte}")))?;
        let codec = PayloadCodec::from_flags(flags)?;
        if codec != PayloadCodec::F32 && kind == FrameKind::Control {
            // Codec negotiation applies to batch payloads only; a coded
            // control frame is a non-conforming encoder.
            return Err(protocol_err(format!(
                "control frames must use codec 0, found {codec}"
            )));
        }
        match kind {
            FrameKind::FeatureBatch => {
                decode_batch_payload(&mut bytes, codec).map(WireFrame::FeatureBatch)
            }
            FrameKind::Control => decode_control_payload(&mut bytes).map(WireFrame::Control),
        }
    }
}

/// Parses a v2 `FeatureBatch` payload laid out under `codec`.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::disallowed_macros
)]
fn decode_batch_payload(bytes: &mut Bytes, codec: PayloadCodec) -> Result<FeatureBatchMessage> {
    let total = bytes.len();
    let (Some(sub_model), Some(feature_dim), Some(num_samples)) = (
        bytes.try_get_u32_le(),
        bytes.try_get_u32_le(),
        bytes.try_get_u32_le(),
    ) else {
        return Err(decode_err(format!(
            "batch payload of {total} bytes is shorter than its {BATCH_FIXED_LEN}-byte prefix"
        )));
    };
    let n = num_samples as usize;
    let dim = feature_dim as usize;
    let values = (n as u64)
        .checked_mul(dim as u64)
        .ok_or_else(|| decode_err("batch dimensions overflow".to_string()))?;
    if codec != PayloadCodec::F16Rle {
        // Fixed-width codecs: the payload length is implied by the counts.
        // Checked math: `values` can be close to u64::MAX, so scaling by the
        // value width must not wrap (it would panic in debug builds).
        let expected = values
            .checked_mul(codec.bytes_per_value() as u64)
            .and_then(|value_bytes| value_bytes.checked_add((n as u64) * 4))
            .ok_or_else(|| decode_err("batch dimensions overflow".to_string()))?;
        if bytes.remaining() as u64 != expected {
            return Err(decode_err(format!(
                "{codec} batch of {n} samples × {dim} values needs {expected} payload bytes, \
                 found {}",
                bytes.remaining()
            )));
        }
    } else {
        if (bytes.remaining() as u64) < (n as u64) * 4 + 4 {
            return Err(decode_err(format!(
                "compressed batch of {n} samples needs at least {} payload bytes, found {}",
                (n as u64) * 4 + 4, // u64: n·4 can exceed a 32-bit usize
                bytes.remaining()
            )));
        }
        // Decompression-bomb guard: a legal token stream yields at most
        // RLE_MAX_REPEAT values per 3-byte repeat token, so a payload of
        // `total` bytes can never satisfy more than `total/3 × 129` values.
        // Rejecting here keeps a tiny hostile frame with a huge promised
        // value count from forcing a multi-gigabyte allocation in
        // `rle_decompress` (and keeps the later usize cast exact on 32-bit).
        let max_values = (total as u64 / 3).saturating_mul(RLE_MAX_REPEAT as u64);
        if values > max_values || values > usize::MAX as u64 {
            return Err(decode_err(format!(
                "compressed batch promises {values} values, but a {total}-byte payload \
                 can encode at most {max_values}"
            )));
        }
    }
    let mut sample_indices = Vec::with_capacity(n);
    for _ in 0..n {
        sample_indices.push(bytes.get_u32_le());
    }
    let values = values as usize;
    // The length guards above already sized the value block; the bulk readers
    // re-check it once for the whole block instead of once per value.
    let features = match codec {
        PayloadCodec::F32 => bytes
            .try_get_f32_vec_le(values)
            .ok_or_else(|| decode_err("f32 value block ends early"))?,
        PayloadCodec::F16 => bytes
            .try_get_f16_vec_le(values)
            .ok_or_else(|| decode_err("f16 value block ends early"))?,
        PayloadCodec::F16Rle => {
            let comp_len = bytes.get_u32_le() as usize;
            if bytes.remaining() != comp_len {
                return Err(decode_err(format!(
                    "compressed block promises {comp_len} bytes, payload holds {}",
                    bytes.remaining()
                )));
            }
            // One buffer: the deltas, then their prefix sums — the f16 bits —
            // in place.
            let mut halves = rle_decompress(bytes, values)?;
            let mut previous = 0u16;
            for half in &mut halves {
                previous = previous.wrapping_add(*half);
                *half = previous;
            }
            let mut features = vec![0.0f32; values];
            f16_bits_to_f32_slice(&halves, &mut features);
            features
        }
    };
    Ok(FeatureBatchMessage {
        sub_model,
        feature_dim,
        sample_indices,
        features,
    })
}

/// Largest encoded frame a stream reader will accept: a corrupt or hostile
/// length prefix must never make the peer allocate unbounded memory.
pub const MAX_STREAM_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Most a stream reader allocates for a frame body before any of it has
/// arrived. A frame up to this size lands in a buffer sized once from its
/// length prefix; a longer one grows the buffer as its bytes come in, so a
/// peer that promises [`MAX_STREAM_FRAME_LEN`] and then stalls or hangs up
/// has cost the reader this much, not 64 MiB.
const BODY_PREALLOC_CAP: usize = 256 * 1024;

/// Writes one encoded wire frame to a byte stream as
/// `[u32 LE frame length][frame bytes]` — the length prefix delimits frames
/// on transports without message boundaries (TCP sockets, files).
///
/// # Errors
///
/// Returns [`std::io::ErrorKind::InvalidData`] when `frame` exceeds
/// [`MAX_STREAM_FRAME_LEN`], and propagates any write error.
pub fn write_frame_bytes<W: std::io::Write>(writer: &mut W, frame: &[u8]) -> std::io::Result<()> {
    write_frame_parts(writer, &[], frame)
}

/// [`write_frame_bytes`] for a frame held in two pieces — a short `head` (the
/// lane envelope's tag byte) and the `tail` behind it — so a caller never has
/// to join them in a scratch buffer. Prefix, head and tail go out in one
/// vectored write: one syscall and, on a `TCP_NODELAY` socket, no lone
/// 4-byte segment ahead of the body.
///
/// # Errors
///
/// As [`write_frame_bytes`], the limit applying to `head` and `tail` together.
pub fn write_frame_parts<W: std::io::Write>(
    writer: &mut W,
    head: &[u8],
    tail: &[u8],
) -> std::io::Result<()> {
    let len = head.len() + tail.len();
    if len > MAX_STREAM_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_STREAM_FRAME_LEN}-byte stream limit"),
        ));
    }
    let prefix = (len as u32).to_le_bytes();
    let mut parts = [&prefix[..], head, tail].map(std::io::IoSlice::new);
    let mut pending = &mut parts[..];
    // A vectored write may be short: drop what went out, offer the rest again.
    while !pending.is_empty() {
        match writer.write_vectored(pending) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "stream accepted no bytes of a frame",
                ));
            }
            Ok(written) => std::io::IoSlice::advance_slices(&mut pending, written),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    writer.flush()
}

/// Reads one length-prefixed frame written by [`write_frame_bytes`] from a
/// byte stream. Returns `Ok(None)` on a clean EOF at a frame boundary (the
/// peer shut the stream down between frames) and never panics on hostile
/// input. The returned buffer is the one the bytes were read into — never
/// zero-filled first, never copied after.
///
/// # Errors
///
/// Returns [`std::io::ErrorKind::InvalidData`] for an oversized length
/// prefix or an EOF inside a frame, and propagates any other read error
/// (including timeouts configured on the underlying stream).
pub fn read_frame_bytes<R: std::io::Read>(reader: &mut R) -> std::io::Result<Option<Bytes>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    while filled < len_buf.len() {
        match reader.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("stream ended {filled} bytes into a frame length prefix"),
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_STREAM_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length prefix {len} exceeds the {MAX_STREAM_FRAME_LEN}-byte limit"),
        ));
    }
    let mut body = Vec::new();
    read_frame_body(reader, len, &mut body)?;
    Ok(Some(Bytes::from(body)))
}

/// Reads the `len` body bytes a length prefix promised into `body`, which
/// grows with what actually arrives (see [`BODY_PREALLOC_CAP`]).
fn read_frame_body<R: std::io::Read>(
    reader: &mut R,
    len: usize,
    body: &mut Vec<u8>,
) -> std::io::Result<()> {
    use std::io::Read as _;
    body.reserve_exact(len.min(BODY_PREALLOC_CAP));
    let received = reader.by_ref().take(len as u64).read_to_end(body)?;
    if received < len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("stream ended inside a {len}-byte frame body"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The frame one feature travels in: a one-sample batch.
    fn single(sub_model: usize, sample_index: usize, feature: &[f32]) -> FeatureBatchMessage {
        let mut batch = FeatureBatchMessage::new(sub_model, feature.len());
        batch.push_feature(sample_index, feature).unwrap();
        batch
    }

    /// `frame` with its kind byte (outside the CRC) overwritten.
    fn with_kind(frame: &Bytes, kind: u8) -> Bytes {
        let mut bytes = frame.as_slice().to_vec();
        bytes[6] = kind;
        Bytes::from(bytes)
    }

    #[test]
    fn round_trip_v2() {
        let t = Tensor::from_vec(vec![1.0, -2.5, 3.25], &[3]).unwrap();
        let msg = FeatureMessage::from_tensor(2, 17, &t);
        let batch = single(2, 17, &msg.feature);
        let encoded = batch.encode();
        assert_eq!(&encoded.as_slice()[..4], &WIRE_MAGIC);
        assert_eq!(encoded.len(), batch.encoded_len());
        assert_eq!(
            batch.encoded_len(),
            V2_HEADER_LEN + BATCH_FIXED_LEN + 4 + 12
        );
        assert_eq!(batch.payload_bytes(), 12);
        let decoded = decode_batch(encoded).into_messages();
        assert_eq!(decoded, [msg]);
        assert_eq!(decoded[0].to_tensor().data(), t.data());
    }

    #[test]
    fn encode_tensor_matches_from_tensor_encode() {
        let t = Tensor::from_vec(vec![0.5, -1.5], &[2]).unwrap();
        let mut direct = FeatureBatchMessage::new(3, 2);
        direct.push_tensor(9, &t).unwrap();
        let via_message = single(3, 9, &FeatureMessage::from_tensor(3, 9, &t).feature);
        assert_eq!(direct.encode(), via_message.encode());
    }

    #[test]
    fn into_tensor_moves_payload() {
        let msg = FeatureMessage {
            sub_model: 0,
            sample_index: 0,
            feature: vec![4.0, 5.0],
        };
        assert_eq!(msg.into_tensor().data(), &[4.0, 5.0]);
    }

    #[test]
    fn bare_v1_buffers_are_rejected_and_round_trip_inside_a_v2_frame() {
        let feature = [1.0, f32::MIN, f32::MAX];
        // The retired v1 message: `sub_model`, `sample_index`, `len`, values.
        let mut v1 = BytesMut::new();
        v1.put_u32_le(7);
        v1.put_u32_le(42);
        v1.put_u32_le(3);
        v1.put_f32_slice_le(&feature);
        let v1 = v1.freeze();
        // Bare, it has no magic and no checksum: a decode error, not a parse.
        assert!(matches!(
            WireFrame::decode(v1.clone()),
            Err(EdgeError::Decode { .. })
        ));
        assert!(matches!(
            ControlMessage::decode(v1),
            Err(EdgeError::Decode { .. })
        ));
        // What round-trips inside a v2 frame is the one-sample batch.
        let batch = single(7, 42, &feature);
        assert_eq!(decode_batch(batch.encode()), batch);
    }

    #[test]
    fn payload_matches_paper_sizes() {
        // 384-dimensional feature (ViT-Base at s=1/2) -> 1536-byte payload.
        let t = Tensor::zeros(&[384]);
        assert_eq!(single(0, 0, t.data()).payload_bytes(), 1536);
        // 128-dimensional feature (s=1/6) -> 512 bytes.
        let t = Tensor::zeros(&[128]);
        assert_eq!(single(0, 0, t.data()).payload_bytes(), 512);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(WireFrame::decode(Bytes::from_static(&[1, 2, 3])).is_err());
        // A batch frame whose body claims 5 values for its one sample but
        // holds only 1.
        let frame = encode_v2_frame(FrameKind::FeatureBatch, FLAG_CHECKSUM, 20, |frame| {
            frame.put_u32_le(0);
            frame.put_u32_le(5);
            frame.put_u32_le(1);
            frame.put_u32_le(0);
            frame.put_f32_le(1.0);
        });
        assert!(matches!(
            WireFrame::decode(frame),
            Err(EdgeError::Decode { .. })
        ));
        // Magic prefix but nothing else.
        assert!(WireFrame::decode(Bytes::copy_from_slice(&WIRE_MAGIC)).is_err());
    }

    #[test]
    fn corrupted_v2_payload_is_rejected_by_checksum() {
        let encoded = single(1, 2, &[1.0, 2.0, 3.0]).encode();
        let mut bytes = encoded.as_slice().to_vec();
        // Flip one bit inside the payload region (past the 16-byte header).
        bytes[V2_HEADER_LEN + 14] ^= 0x10;
        let err = WireFrame::decode(Bytes::from(bytes)).unwrap_err();
        assert!(matches!(err, EdgeError::ChecksumMismatch { .. }), "{err}");
    }

    #[test]
    fn cleared_checksum_flag_is_rejected_not_trusted() {
        let good = single(0, 0, &[1.0]).encode();
        let mut no_flag = good.as_slice().to_vec();
        no_flag[5] &= !FLAG_CHECKSUM;
        let err = WireFrame::decode(Bytes::from(no_flag)).unwrap_err();
        assert!(err.to_string().contains("checksum flag"), "{err}");
    }

    #[test]
    fn unsupported_version_and_kind_are_rejected() {
        let good = single(0, 0, &[1.0]).encode();
        let mut wrong_version = good.as_slice().to_vec();
        wrong_version[4] = 3;
        let err = WireFrame::decode(Bytes::from(wrong_version)).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        // Every kind byte but 2 and 3 is unassigned — the retired 1 included.
        for kind in (0..=u8::MAX).filter(|kind| !matches!(kind, 2 | 3)) {
            let err = WireFrame::decode(with_kind(&good, kind)).unwrap_err();
            assert!(matches!(err, EdgeError::Decode { .. }), "{err}");
            assert!(
                err.to_string()
                    .contains(&format!("unknown frame kind {kind}")),
                "{err}"
            );
        }
    }

    #[test]
    fn batch_round_trips_and_matches_singles() {
        let mut batch = FeatureBatchMessage::new(3, 2);
        batch.push_feature(0, &[1.0, 2.0]).unwrap();
        batch
            .push_tensor(1, &Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap())
            .unwrap();
        assert_eq!(batch.num_samples(), 2);
        assert_eq!(batch.payload_bytes(), 16);
        assert_eq!(batch.feature_row(1), &[3.0, 4.0]);
        let encoded = batch.encode();
        assert_eq!(encoded.len(), batch.encoded_len());
        assert_eq!(encoded.len(), batch_frame_len(2, 2));
        let decoded = match WireFrame::decode(encoded).unwrap() {
            WireFrame::FeatureBatch(b) => b,
            other => panic!("expected a batch frame, got {other:?}"),
        };
        assert_eq!(decoded, batch);
        let singles = decoded.into_messages();
        assert_eq!(singles.len(), 2);
        assert_eq!(singles[0].sub_model, 3);
        assert_eq!(singles[1].sample_index, 1);
        assert_eq!(singles[1].feature, vec![3.0, 4.0]);
    }

    fn decode_batch(bytes: Bytes) -> FeatureBatchMessage {
        match WireFrame::decode(bytes).unwrap() {
            WireFrame::FeatureBatch(b) => b,
            other => panic!("expected a batch frame, got {other:?}"),
        }
    }

    #[test]
    fn f16_codec_halves_value_bytes_and_round_trips_quantized() {
        let mut batch = FeatureBatchMessage::new(1, 3);
        batch.push_feature(0, &[1.0, -0.5, 1536.0]).unwrap();
        batch.push_feature(1, &[0.1, 0.2, 0.3]).unwrap();
        let f32_frame = batch.encode_with(PayloadCodec::F32);
        let f16_frame = batch.encode_with(PayloadCodec::F16);
        assert_eq!(
            f32_frame,
            batch.encode(),
            "codec 0 must be the legacy layout"
        );
        assert_eq!(
            f16_frame.len(),
            batch_frame_len_coded(2, 3, PayloadCodec::F16)
        );
        // Exactly 2 bytes saved per value, nothing else changes.
        assert_eq!(f32_frame.len() - f16_frame.len(), 6 * 2);
        assert_eq!(
            PayloadCodec::from_flags(f16_frame.as_slice()[5]).unwrap(),
            PayloadCodec::F16
        );
        let decoded = decode_batch(f16_frame);
        assert_eq!(decoded.sub_model, 1);
        assert_eq!(decoded.sample_indices, vec![0, 1]);
        // Exactly-representable halves survive bit-for-bit; the rest within
        // the 2⁻¹⁰ relative-error contract.
        assert_eq!(decoded.feature_row(0), &[1.0, -0.5, 1536.0]);
        for (&q, &v) in decoded.feature_row(1).iter().zip(&[0.1f32, 0.2, 0.3]) {
            assert!(((q - v) / v).abs() <= 2f32.powi(-10), "{q} vs {v}");
        }
        // Re-encoding the decoded (already-quantized) batch is byte-stable.
        assert_eq!(
            decoded.encode_with(PayloadCodec::F16),
            batch.encode_with(PayloadCodec::F16)
        );
    }

    #[test]
    fn in_place_encode_sizes_exactly_and_reencodes_byte_identically() {
        // A round-sized batch (8 × 768) whose values are exact in f16, so a
        // decode → re-encode must reproduce the frame under every codec.
        let mut batch = FeatureBatchMessage::new(1, 768);
        for sample in 0..8usize {
            let row: Vec<f32> = (0..768)
                .map(|i| ((i * 7 + sample * 13) % 64) as f32 * 0.25 - 4.0)
                .collect();
            batch.push_feature(sample, &row).unwrap();
        }
        for codec in PayloadCodec::ALL {
            let encoded = batch.encode_with(codec);
            let analytic = batch_frame_len_coded(8, 768, codec);
            if codec == PayloadCodec::F16Rle {
                assert!(encoded.len() <= analytic, "{codec}");
            } else {
                assert_eq!(encoded.len(), analytic, "{codec}");
            }
            // The header's patched fields describe the payload behind them.
            let bytes = encoded.as_slice();
            let payload = &bytes[V2_HEADER_LEN..];
            assert_eq!(bytes[8..12], (payload.len() as u32).to_le_bytes());
            assert_eq!(bytes[12..16], crc32(payload).to_le_bytes());
            let decoded = decode_batch(encoded.clone());
            assert_eq!(decoded, batch, "{codec}");
            assert_eq!(decoded.encode_with(codec), encoded, "{codec}");
        }
    }

    #[test]
    fn rle_codec_compresses_runs_and_decodes_to_the_f16_values() {
        // Constant rows: deltas collapse to zero-runs, so the compressed
        // frame undercuts both f32 and f16; ramps compress too (equal deltas).
        let mut batch = FeatureBatchMessage::new(0, 64);
        batch.push_feature(0, &[0.0f32; 64]).unwrap();
        let ramp: Vec<f32> = (0..64).map(|i| i as f32).collect();
        batch.push_feature(1, &ramp).unwrap();
        let f32_frame = batch.encode_with(PayloadCodec::F32);
        let f16_frame = batch.encode_with(PayloadCodec::F16);
        let rle_frame = batch.encode_with(PayloadCodec::F16Rle);
        assert!(
            rle_frame.len() < f16_frame.len(),
            "{} !< {}",
            rle_frame.len(),
            f16_frame.len()
        );
        assert!(rle_frame.len() < f32_frame.len() / 2);
        assert!(rle_frame.len() <= batch_frame_len_coded(2, 64, PayloadCodec::F16Rle));
        let from_rle = decode_batch(rle_frame);
        let from_f16 = decode_batch(f16_frame);
        assert_eq!(from_rle, from_f16, "rle must be lossless on top of f16");
    }

    #[test]
    fn rle_worst_case_stays_within_the_analytic_bound() {
        // Incompressible values: every delta distinct, all-literal stream.
        let mut batch = FeatureBatchMessage::new(0, 300);
        let noisy: Vec<f32> = (0..300).map(|i| (i as f32 * 0.7311).sin() * 31.0).collect();
        batch.push_feature(9, &noisy).unwrap();
        let rle_frame = batch.encode_with(PayloadCodec::F16Rle);
        assert!(rle_frame.len() <= batch_frame_len_coded(1, 300, PayloadCodec::F16Rle));
        assert_eq!(
            decode_batch(rle_frame),
            decode_batch(batch.encode_with(PayloadCodec::F16))
        );
    }

    #[test]
    fn coded_empty_batches_are_legal() {
        for codec in PayloadCodec::ALL {
            let batch = FeatureBatchMessage::new(2, 7);
            let decoded = decode_batch(batch.encode_with(codec));
            assert!(decoded.is_empty(), "{codec}");
            assert_eq!(decoded.feature_dim, 7);
        }
    }

    #[test]
    fn unknown_codec_bits_are_a_protocol_error() {
        let mut batch = FeatureBatchMessage::new(0, 2);
        batch.push_feature(0, &[1.0, 2.0]).unwrap();
        let mut bytes = batch.encode().as_slice().to_vec();
        bytes[5] |= FLAG_CODEC_MASK; // reserved codec value 3
        let err = WireFrame::decode(Bytes::from(bytes)).unwrap_err();
        assert!(matches!(err, EdgeError::Protocol { .. }), "{err}");
        assert!(err.to_string().contains("codec"), "{err}");
    }

    #[test]
    fn coded_control_and_feature_frames_are_protocol_errors() {
        let mut bytes = ControlMessage::heartbeat(1, 2, 3.0)
            .encode()
            .as_slice()
            .to_vec();
        bytes[5] |= PayloadCodec::F16.flag_bits();
        let err = WireFrame::decode(Bytes::from(bytes)).unwrap_err();
        assert!(matches!(err, EdgeError::Protocol { .. }), "{err}");
        assert!(err.to_string().contains("codec 0"), "{err}");
    }

    #[test]
    fn wrong_codec_flag_cannot_silently_mis_decode() {
        // An f32 batch re-labelled as f16: the strict value-byte count check
        // rejects it (4·n·d can never equal 2·n·d for n·d > 0).
        let mut batch = FeatureBatchMessage::new(0, 4);
        batch.push_feature(0, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let mut bytes = batch.encode().as_slice().to_vec();
        bytes[5] = FLAG_CHECKSUM | PayloadCodec::F16.flag_bits();
        let err = WireFrame::decode(Bytes::from(bytes)).unwrap_err();
        assert!(matches!(err, EdgeError::Decode { .. }), "{err}");
    }

    #[test]
    fn batch_dimensions_that_overflow_u64_are_a_decode_error_not_a_panic() {
        // num_samples = feature_dim = u32::MAX: n·d fits u64 but n·d·4 does
        // not — the checked length math must reject it, not wrap or panic.
        for codec in [PayloadCodec::F32, PayloadCodec::F16] {
            let mut payload = BytesMut::new();
            payload.put_u32_le(0); // sub_model
            payload.put_u32_le(u32::MAX); // feature_dim
            payload.put_u32_le(u32::MAX); // num_samples
            let mut frame = BytesMut::new();
            frame.put_slice(&WIRE_MAGIC);
            frame.put_u8(WIRE_VERSION);
            frame.put_u8(FLAG_CHECKSUM | codec.flag_bits());
            frame.put_u8(FrameKind::FeatureBatch as u8);
            frame.put_u8(0);
            frame.put_u32_le(payload.len() as u32);
            frame.put_u32_le(crc32(payload.as_ref()));
            frame.put_slice(payload.as_ref());
            let err = WireFrame::decode(frame.freeze()).unwrap_err();
            assert!(matches!(err, EdgeError::Decode { .. }), "{codec}: {err}");
        }
    }

    #[test]
    fn rle_frame_with_huge_promised_value_count_is_rejected_before_allocating() {
        // A sub-100-byte hostile frame: codec = F16Rle, one sample claiming a
        // u32::MAX feature dimension, a 3-byte token stream, and a valid CRC.
        // Every header check passes; only the decompression-bomb guard can
        // reject it — and it must do so without committing gigabytes to
        // `Vec::with_capacity` first.
        let mut payload = BytesMut::new();
        payload.put_u32_le(0); // sub_model
        payload.put_u32_le(u32::MAX); // feature_dim
        payload.put_u32_le(1); // num_samples
        payload.put_u32_le(0); // sample index
        payload.put_u32_le(3); // comp_len
        payload.put_u8(0x80 | 127); // repeat token: 129 values…
        payload.put_u16_le(0x3C00); // …of 1.0 — far short of u32::MAX
        let mut frame = BytesMut::new();
        frame.put_slice(&WIRE_MAGIC);
        frame.put_u8(WIRE_VERSION);
        frame.put_u8(FLAG_CHECKSUM | PayloadCodec::F16Rle.flag_bits());
        frame.put_u8(FrameKind::FeatureBatch as u8);
        frame.put_u8(0);
        frame.put_u32_le(payload.len() as u32);
        frame.put_u32_le(crc32(payload.as_ref()));
        frame.put_slice(payload.as_ref());
        let err = WireFrame::decode(frame.freeze()).unwrap_err();
        assert!(matches!(err, EdgeError::Decode { .. }), "{err}");
        assert!(err.to_string().contains("can encode at most"), "{err}");
    }

    #[test]
    fn truncated_rle_stream_is_rejected_not_panicking() {
        let mut batch = FeatureBatchMessage::new(0, 8);
        batch.push_feature(0, &[5.0f32; 8]).unwrap();
        let encoded = batch.encode_with(PayloadCodec::F16Rle);
        // Chop bytes off the compressed tail, fixing up payload_len, comp_len
        // and the CRC so only the stream parser itself can reject it.
        let full = encoded.as_slice().to_vec();
        for cut in 1..4usize {
            let mut bytes = full[..full.len() - cut].to_vec();
            let payload_len = (bytes.len() - V2_HEADER_LEN) as u32;
            bytes[8..12].copy_from_slice(&payload_len.to_le_bytes());
            let comp_start = V2_HEADER_LEN + BATCH_FIXED_LEN + 4;
            let comp_len = (bytes.len() - comp_start - 4) as u32;
            bytes[comp_start..comp_start + 4].copy_from_slice(&comp_len.to_le_bytes());
            let crc = crc32(&bytes[V2_HEADER_LEN..]).to_le_bytes();
            bytes[12..16].copy_from_slice(&crc);
            let err = WireFrame::decode(Bytes::from(bytes)).unwrap_err();
            assert!(matches!(err, EdgeError::Decode { .. }), "cut {cut}: {err}");
        }
    }

    #[test]
    fn rle_frame_with_every_run_shape_survives_a_cut_at_every_byte() {
        // Deltas of the f16 bits, by run: literals never repeat a neighbour
        // (5, −3, 5, …), repeats are runs of one delta. In order: a literal
        // run of 1, a repeat of 3 (the shortest token), 127 literals, a
        // repeat of 129 (the longest token), 128 literals (a full token), a
        // repeat of 130 (one token and a value left over), and a last literal
        // run of 129 — that left-over value, 126 more and a repeat of 2, too
        // short for a token — which takes two tokens and ends the stream.
        let literals = |n: usize| {
            (0..n).map(|i| {
                if i % 2 == 0 {
                    5u16
                } else {
                    3u16.wrapping_neg()
                }
            })
        };
        let mut deltas: Vec<u16> = vec![7];
        deltas.extend([0; 3]);
        deltas.extend(literals(127));
        deltas.extend([1; 129]);
        deltas.extend(literals(128));
        deltas.extend([0; 130]);
        deltas.extend(literals(126));
        deltas.extend([9; 2]);
        let mut bits = 0x3C00u16; // 1.0: every prefix sum stays a normal half
        let values: Vec<f32> = deltas
            .iter()
            .map(|&delta| {
                bits = bits.wrapping_add(delta);
                bytes::f16_bits_to_f32(bits)
            })
            .collect();
        let mut batch = FeatureBatchMessage::new(4, values.len());
        batch.push_feature(0, &values).unwrap();
        let encoded = batch.encode_with(PayloadCodec::F16Rle);
        let full = encoded.as_slice().to_vec();

        // The token stream is what the comment above says it is.
        let stream_start = V2_HEADER_LEN + BATCH_FIXED_LEN + 4 + 4;
        let mut tokens = Vec::new();
        let mut at = stream_start;
        while at < full.len() {
            let control = full[at];
            let (n, bytes) = if control & 0x80 == 0 {
                (control as usize + 1, 2 * (control as usize + 1))
            } else {
                ((control & 0x7F) as usize + 2, 2)
            };
            tokens.push((control & 0x80 != 0, n));
            at += 1 + bytes;
        }
        let (lit, rep) = (false, true);
        assert_eq!(
            tokens,
            [
                (lit, 1),
                (rep, 3),
                (lit, 127),
                (rep, 129),
                (lit, 128),
                (rep, 129),
                (lit, 128),
                (lit, 1)
            ]
        );

        // Whole: decodes to the values, and re-encodes to the same bytes.
        let decoded = decode_batch(encoded);
        assert_eq!(decoded.features, values);
        assert_eq!(decoded.encode_with(PayloadCodec::F16Rle).as_slice(), full);

        // Cut at every byte offset. As it stands the header's length no
        // longer matches; with payload_len, comp_len and the CRC fixed up,
        // only the token parser is left to reject it. Either way an error,
        // never a panic.
        for keep in 0..full.len() {
            let mut bytes = full[..keep].to_vec();
            assert!(
                WireFrame::decode(Bytes::from(bytes.clone())).is_err(),
                "raw cut at {keep}"
            );
            if keep < stream_start {
                continue;
            }
            let payload_len = (keep - V2_HEADER_LEN) as u32;
            bytes[8..12].copy_from_slice(&payload_len.to_le_bytes());
            let comp_len = (keep - stream_start) as u32;
            bytes[stream_start - 4..stream_start].copy_from_slice(&comp_len.to_le_bytes());
            let crc = crc32(&bytes[V2_HEADER_LEN..]).to_le_bytes();
            bytes[12..16].copy_from_slice(&crc);
            let err = WireFrame::decode(Bytes::from(bytes)).unwrap_err();
            assert!(
                matches!(err, EdgeError::Decode { .. }),
                "cut at {keep}: {err}"
            );
        }
    }

    #[test]
    fn a_dense_round_batch_never_outgrows_the_buffer_it_was_sized_for() {
        // 8 × 768 incompressible values: under f16+rle the frame carries a
        // comp_len word and 48 literal control bytes on top of the halves.
        // The two calls below are `encode_with`'s own; the buffer's address
        // and capacity must be the same before and after the payload.
        let mut rng = edvit_tensor::init::TensorRng::new(7);
        let mut batch = FeatureBatchMessage::new(0, 768);
        for sample in 0..8 {
            batch
                .push_tensor(sample, &rng.randn(&[768], 0.0, 1.0))
                .unwrap();
        }
        for codec in PayloadCodec::ALL {
            let bound = batch_payload_len(8, 8 * 768, codec);
            assert_eq!(V2_HEADER_LEN + bound, batch_frame_len_coded(8, 768, codec));
            let frame = encode_v2_frame(FrameKind::FeatureBatch, codec.flag_bits(), bound, |f| {
                let allocated = (f.as_ref().as_ptr(), f.capacity());
                assert_eq!(allocated.1, V2_HEADER_LEN + bound, "{codec}");
                batch.write_payload(codec, f);
                assert_eq!((f.as_ref().as_ptr(), f.capacity()), allocated, "{codec}");
            });
            assert_eq!(frame.len(), batch.encode_with(codec).len());
        }
    }

    #[test]
    fn codec_metadata_accessors() {
        assert_eq!(PayloadCodec::default(), PayloadCodec::F32);
        assert_eq!(PayloadCodec::F32.bytes_per_value(), 4);
        assert_eq!(PayloadCodec::F16.bytes_per_value(), 2);
        assert_eq!(PayloadCodec::F16Rle.to_string(), "f16+rle");
        for codec in PayloadCodec::ALL {
            assert_eq!(
                PayloadCodec::from_flags(FLAG_CHECKSUM | codec.flag_bits()).unwrap(),
                codec
            );
        }
        assert_eq!(
            batch_frame_len(3, 5),
            batch_frame_len_coded(3, 5, PayloadCodec::F32)
        );
        assert!(
            batch_frame_len_coded(3, 5, PayloadCodec::F16Rle)
                > batch_frame_len_coded(3, 5, PayloadCodec::F16),
            "the analytic rle bound is the pessimistic all-literal stream"
        );
    }

    #[test]
    fn batch_rejects_mismatched_dimension() {
        let mut batch = FeatureBatchMessage::new(0, 3);
        assert!(batch.push_feature(0, &[1.0]).is_err());
        assert!(batch.is_empty());
    }

    #[test]
    fn single_feature_frame_is_rejected_where_a_batch_is_required() {
        // A frame of the retired kind 1, intact down to its CRC, on both
        // decode entry points: a typed error, never a parse.
        let retired = with_kind(&single(0, 5, &[9.0]).encode(), 1);
        for err in [
            WireFrame::decode(retired.clone()).unwrap_err(),
            ControlMessage::decode(retired).unwrap_err(),
        ] {
            assert!(matches!(err, EdgeError::Decode { .. }), "{err}");
            assert!(err.to_string().contains("unknown frame kind 1"), "{err}");
        }
    }

    #[test]
    fn empty_feature_and_empty_batch_are_legal() {
        let decoded = decode_batch(single(0, 0, &[]).encode()).into_messages();
        assert!(decoded[0].feature.is_empty());
        let batch = FeatureBatchMessage::new(0, 4);
        let decoded = match WireFrame::decode(batch.encode()).unwrap() {
            WireFrame::FeatureBatch(b) => b,
            other => panic!("expected a batch frame, got {other:?}"),
        };
        assert!(decoded.is_empty());
        assert_eq!(decoded.feature_dim, 4);
    }

    #[test]
    fn control_frames_round_trip() {
        for msg in [
            ControlMessage::heartbeat(3, 41, 4.56e8),
            ControlMessage::join(7, 1.2e9),
            ControlMessage::leave(0, 99),
        ] {
            let encoded = msg.encode();
            assert_eq!(encoded.len(), CONTROL_FRAME_LEN);
            assert_eq!(&encoded.as_slice()[..4], &WIRE_MAGIC);
            let decoded = ControlMessage::decode(encoded.clone()).unwrap();
            assert_eq!(decoded, msg);
            let frame = WireFrame::decode(encoded).unwrap();
            assert!(matches!(frame, WireFrame::Control(m) if m == msg));
        }
    }

    #[test]
    fn control_frame_is_rejected_where_a_feature_is_required() {
        let err = ControlMessage::decode(single(0, 0, &[1.0]).encode()).unwrap_err();
        assert!(matches!(err, EdgeError::Decode { .. }), "{err}");
        assert!(err.to_string().contains("control"), "{err}");
    }

    #[test]
    fn unknown_control_kind_is_a_typed_error_not_a_panic() {
        let good = ControlMessage::heartbeat(1, 2, 3.0).encode();
        let mut bytes = good.as_slice().to_vec();
        // Overwrite the control kind word with an unknown value and fix up the
        // CRC so only the kind check can reject it.
        bytes[V2_HEADER_LEN..V2_HEADER_LEN + 4].copy_from_slice(&77u32.to_le_bytes());
        let crc = crc32(&bytes[V2_HEADER_LEN..]).to_le_bytes();
        bytes[12..16].copy_from_slice(&crc);
        let err = WireFrame::decode(Bytes::from(bytes)).unwrap_err();
        assert!(err.to_string().contains("control kind"), "{err}");
    }

    #[test]
    fn corrupted_control_payload_trips_the_crc() {
        let encoded = ControlMessage::heartbeat(1, 2, 3.0).encode();
        let mut bytes = encoded.as_slice().to_vec();
        bytes[V2_HEADER_LEN + 9] ^= 0x40; // flip a bit inside `sequence`
        let err = ControlMessage::decode(Bytes::from(bytes)).unwrap_err();
        assert!(matches!(err, EdgeError::ChecksumMismatch { .. }), "{err}");
    }

    #[test]
    fn control_payload_length_is_strict() {
        let encoded = ControlMessage::leave(4, 1).encode();
        // Append one payload byte and fix up length + CRC: still rejected,
        // because the control payload must be exactly CONTROL_PAYLOAD_LEN.
        let mut bytes = encoded.as_slice().to_vec();
        bytes.push(0);
        let new_len = (bytes.len() - V2_HEADER_LEN) as u32;
        bytes[8..12].copy_from_slice(&new_len.to_le_bytes());
        let crc = crc32(&bytes[V2_HEADER_LEN..]).to_le_bytes();
        bytes[12..16].copy_from_slice(&crc);
        let err = WireFrame::decode(Bytes::from(bytes)).unwrap_err();
        assert!(err.to_string().contains("exactly"), "{err}");
    }

    #[test]
    fn non_finite_or_negative_capacity_is_rejected() {
        for capacity in [f64::NAN, f64::INFINITY, -1.0] {
            let msg = ControlMessage {
                kind: ControlKind::Join,
                device_id: 0,
                sequence: 0,
                capacity_flops_per_second: capacity,
            };
            let err = ControlMessage::decode(msg.encode()).unwrap_err();
            assert!(err.to_string().contains("capacity"), "{err}");
        }
    }

    #[test]
    fn zero_capacity_join_is_a_protocol_error_not_a_silent_admit() {
        let err = ControlMessage::decode(ControlMessage::join(3, 0.0).encode()).unwrap_err();
        assert!(matches!(err, EdgeError::Protocol { .. }), "{err}");
        assert!(err.to_string().contains("no capacity"), "{err}");
        // Zero stays legal where it means something: a leave carries no offer,
        // and a heartbeat merely repeats the last advertisement.
        assert!(ControlMessage::decode(ControlMessage::leave(3, 5).encode()).is_ok());
        assert!(ControlMessage::decode(ControlMessage::heartbeat(3, 5, 0.0).encode()).is_ok());
    }

    #[test]
    fn truncated_batch_payload_is_rejected() {
        let mut batch = FeatureBatchMessage::new(1, 2);
        batch.push_feature(0, &[1.0, 2.0]).unwrap();
        let encoded = batch.encode();
        // Chop the last 4 bytes off the payload and fix up the header length
        // so only the sample-count consistency check can catch it.
        let mut bytes = encoded.as_slice().to_vec();
        bytes.truncate(bytes.len() - 4);
        let new_payload_len = (bytes.len() - V2_HEADER_LEN) as u32;
        bytes[8..12].copy_from_slice(&new_payload_len.to_le_bytes());
        let fixed_crc = crc32(&bytes[V2_HEADER_LEN..]).to_le_bytes();
        bytes[12..16].copy_from_slice(&fixed_crc);
        let err = WireFrame::decode(Bytes::from(bytes)).unwrap_err();
        assert!(err.to_string().contains("payload bytes"), "{err}");
    }

    #[test]
    fn stream_frames_round_trip_with_length_prefixes() {
        let frames = [
            ControlMessage::join(1, 2.0e9).encode(),
            {
                let mut batch = FeatureBatchMessage::new(0, 3);
                batch.push_feature(0, &[1.0, 2.0, 3.0]).unwrap();
                batch.encode()
            },
            ControlMessage::leave(1, 4).encode(),
        ];
        let mut stream = Vec::new();
        for frame in &frames {
            write_frame_bytes(&mut stream, frame.as_slice()).unwrap();
        }
        let mut reader = stream.as_slice();
        for frame in &frames {
            let read = read_frame_bytes(&mut reader).unwrap().unwrap();
            assert_eq!(read.as_slice(), frame.as_slice());
            assert!(WireFrame::decode(read).is_ok());
        }
        // Clean EOF at the frame boundary is the graceful-close signal.
        assert!(read_frame_bytes(&mut reader).unwrap().is_none());
    }

    #[test]
    fn truncated_stream_is_invalid_data_not_a_panic() {
        let mut stream = Vec::new();
        write_frame_bytes(
            &mut stream,
            ControlMessage::join(1, 2.0e9).encode().as_slice(),
        )
        .unwrap();
        // EOF inside the length prefix.
        let mut short_prefix = &stream[..2];
        let err = read_frame_bytes(&mut short_prefix).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // EOF inside the frame body.
        let mut short_body = &stream[..stream.len() - 3];
        let err = read_frame_bytes(&mut short_body).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_promised_length_costs_nothing_until_its_bytes_arrive() {
        // The largest legal prefix, ten body bytes, then EOF: the error is the
        // usual truncated-body one, and the buffer grew with what arrived
        // instead of being sized (and zeroed) from the promise.
        let mut stream = (MAX_STREAM_FRAME_LEN as u32).to_le_bytes().to_vec();
        stream.extend_from_slice(&[7u8; 10]);
        let err = read_frame_bytes(&mut stream.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            err.to_string()
                .contains("inside a 67108864-byte frame body"),
            "{err}"
        );
        let mut body = Vec::new();
        let err = read_frame_body(&mut &stream[4..], MAX_STREAM_FRAME_LEN, &mut body).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(body, [7u8; 10]);
        assert!(body.capacity() <= BODY_PREALLOC_CAP, "{}", body.capacity());

        // A frame longer than the cap still arrives whole.
        let big = vec![0xA5u8; BODY_PREALLOC_CAP + 4321];
        let mut stream = Vec::new();
        write_frame_bytes(&mut stream, &big).unwrap();
        let read = read_frame_bytes(&mut stream.as_slice()).unwrap().unwrap();
        assert_eq!(read.as_slice(), big.as_slice());
    }

    /// A reader whose error is a timeout, after `ready` has been served.
    struct StallsAfter<'a> {
        ready: &'a [u8],
    }

    impl std::io::Read for StallsAfter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.ready.is_empty() {
                return Err(std::io::ErrorKind::TimedOut.into());
            }
            std::io::Read::read(&mut self.ready, buf)
        }
    }

    #[test]
    fn a_read_timeout_inside_a_body_propagates_as_itself() {
        let mut stream = Vec::new();
        write_frame_bytes(&mut stream, &[1u8; 64]).unwrap();
        let mut reader = StallsAfter {
            ready: &stream[..20],
        };
        let err = read_frame_bytes(&mut reader).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
    }

    /// A writer that takes at most three bytes per call and never looks past
    /// the first non-empty slice — the laziest `write_vectored` allowed.
    struct Dribble(Vec<u8>);

    impl std::io::Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(3);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_vectored_writes_are_resumed_until_the_frame_is_out() {
        let frame = ControlMessage::join(1, 2.0e9).encode();
        let mut whole = Vec::new();
        write_frame_parts(&mut whole, &[0], frame.as_slice()).unwrap();
        let mut dribbled = Dribble(Vec::new());
        write_frame_parts(&mut dribbled, &[0], frame.as_slice()).unwrap();
        assert_eq!(dribbled.0, whole);
        assert_eq!(whole.len(), 4 + 1 + frame.len());
        assert_eq!(&whole[..4], &(1 + frame.len() as u32).to_le_bytes());
    }

    #[test]
    fn hostile_length_prefix_is_bounded() {
        let huge = (u32::MAX).to_le_bytes();
        let mut reader = huge.as_slice();
        let err = read_frame_bytes(&mut reader).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("limit"), "{err}");
        let oversized = vec![0u8; MAX_STREAM_FRAME_LEN + 1];
        let err = write_frame_bytes(&mut Vec::new(), &oversized).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
