//! Property-based tests of the edge simulation invariants: transfer time is
//! monotone, wire messages round-trip, the decoder survives adversarial
//! buffers, the retired v1 message is rejected bare and as a kind-1 frame
//! while the same feature round-trips inside a v2 batch frame, and latency
//! estimates respect the structure of the plan.

use bytes::{crc32, f16_bits_to_f32, f32_to_f16_bits, Bytes};
use edvit_edge::wire::{
    batch_frame_len_coded, CONTROL_FRAME_LEN, FLAG_CHECKSUM, V2_HEADER_LEN, WIRE_MAGIC,
    WIRE_VERSION,
};
use edvit_edge::{
    ControlKind, ControlMessage, EdgeError, FeatureBatchMessage, FeatureMessage, LatencyModel,
    NetworkConfig, PayloadCodec, WireFrame,
};
use edvit_partition::{DeviceSpec, PlannerConfig, SplitPlanner};
use edvit_tensor::{init::TensorRng, Tensor};
use edvit_vit::ViTConfig;
use proptest::prelude::*;

/// `payload` behind a conforming v2 header of the given kind byte: magic,
/// version, checksum flag, length and CRC all intact.
fn intact_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = WIRE_MAGIC.to_vec();
    frame.extend_from_slice(&[WIRE_VERSION, FLAG_CHECKSUM, kind, 0]);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Deterministic pseudo-random bytes (splitmix64 stream) so adversarial
/// buffers are reproducible from the sampled seed alone.
fn pseudo_bytes(mut seed: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        out.extend_from_slice(&z.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// A random batch frame built from the sampled parameters.
fn sample_batch(seed: u64, sub_model: usize, samples: usize, dim: usize) -> FeatureBatchMessage {
    let mut rng = TensorRng::new(seed);
    let mut batch = FeatureBatchMessage::new(sub_model, dim);
    for sample_index in 0..samples {
        let feature = if dim == 0 {
            Tensor::zeros(&[0])
        } else {
            rng.randn(&[dim], 0.0, 1.0)
        };
        batch.push_tensor(sample_index, &feature).unwrap();
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn transfer_time_is_monotone_in_bytes_and_bandwidth(
        bytes_a in 1u64..1_000_000,
        bytes_b in 1u64..1_000_000,
        bandwidth in 1_000.0f64..1e9,
    ) {
        let net = NetworkConfig { bandwidth_bits_per_second: bandwidth, per_message_overhead_seconds: 0.0 };
        let (lo, hi) = if bytes_a <= bytes_b { (bytes_a, bytes_b) } else { (bytes_b, bytes_a) };
        prop_assert!(net.transfer_seconds(lo) <= net.transfer_seconds(hi));
        let faster = NetworkConfig { bandwidth_bits_per_second: bandwidth * 2.0, per_message_overhead_seconds: 0.0 };
        prop_assert!(faster.transfer_seconds(hi) <= net.transfer_seconds(hi));
    }

    #[test]
    fn feature_messages_round_trip(dim in 0usize..256, sub_model in 0usize..16, sample in 0usize..1000, seed in 0u64..500) {
        let feature = if dim == 0 {
            Tensor::zeros(&[0])
        } else {
            TensorRng::new(seed).randn(&[dim], 0.0, 1.0)
        };
        // A feature travels as a one-sample batch and comes back as the
        // same row view.
        let msg = FeatureMessage::from_tensor(sub_model, sample, &feature);
        let mut batch = FeatureBatchMessage::new(sub_model, dim);
        batch.push_tensor(sample, &feature).unwrap();
        prop_assert_eq!(batch.payload_bytes(), dim * 4);
        let decoded = match WireFrame::decode(batch.encode()).unwrap() {
            WireFrame::FeatureBatch(b) => b.into_messages(),
            other => panic!("expected a batch, got {other:?}"),
        };
        prop_assert_eq!(decoded[0].to_tensor().data(), feature.data());
        prop_assert_eq!(decoded, vec![msg]);
    }

    #[test]
    fn bare_v1_is_rejected_and_the_same_body_round_trips_inside_v2(
        dim in 0usize..128,
        sub_model in 0usize..16,
        sample in 0usize..1000,
        seed in 0u64..500,
    ) {
        let feature = if dim == 0 {
            Tensor::zeros(&[0])
        } else {
            TensorRng::new(seed).randn(&[dim], 0.0, 1.0)
        };
        // The retired v1 message: `sub_model`, `sample_index`, `len`, values.
        let mut v1 = Vec::new();
        for word in [sub_model as u32, sample as u32, dim as u32] {
            v1.extend_from_slice(&word.to_le_bytes());
        }
        for value in feature.data() {
            v1.extend_from_slice(&value.to_le_bytes());
        }
        // Bare — no magic, no checksum — it is a decode error, never an
        // unchecksummed parse …
        prop_assert!(matches!(
            WireFrame::decode(Bytes::from(v1.clone())),
            Err(EdgeError::Decode { .. })
        ));
        // … and so is the kind-1 frame that used to carry it, intact down to
        // its CRC, on both decode entry points and cut at every byte.
        let retired = intact_frame(1, &v1);
        for err in [
            WireFrame::decode(Bytes::from(retired.clone())).unwrap_err(),
            ControlMessage::decode(Bytes::from(retired.clone())).unwrap_err(),
        ] {
            prop_assert!(matches!(err, EdgeError::Decode { .. }), "{}", err);
            prop_assert!(err.to_string().contains("unknown frame kind 1"), "{}", err);
        }
        for cut in 0..retired.len() {
            prop_assert!(WireFrame::decode(Bytes::from(retired[..cut].to_vec())).is_err());
        }
        // Inside a v2 batch frame the same feature round-trips bit for bit.
        let mut batch = FeatureBatchMessage::new(sub_model, dim);
        batch.push_tensor(sample, &feature).unwrap();
        let decoded = match WireFrame::decode(batch.encode()).unwrap() {
            WireFrame::FeatureBatch(b) => b,
            other => panic!("expected a batch, got {other:?}"),
        };
        prop_assert_eq!(decoded, batch);
    }

    #[test]
    fn batch_frames_round_trip_and_match_individual_messages(
        dim in 0usize..64,
        samples in 1usize..24,
        sub_model in 0usize..16,
        seed in 0u64..500,
    ) {
        let batch = sample_batch(seed, sub_model, samples, dim);
        let encoded = batch.encode();
        prop_assert_eq!(encoded.len(), batch.encoded_len());
        let decoded = match WireFrame::decode(encoded).unwrap() {
            WireFrame::FeatureBatch(b) => b,
            other => panic!("expected a batch, got {other:?}"),
        };
        prop_assert_eq!(&decoded, &batch);
        // Splitting the batch yields exactly the per-sample messages.
        for (i, single) in decoded.into_messages().into_iter().enumerate() {
            prop_assert_eq!(single.sub_model, sub_model as u32);
            prop_assert_eq!(single.sample_index as usize, i);
            prop_assert_eq!(single.feature.as_slice(), batch.feature_row(i));
        }
    }

    #[test]
    fn f32_codec_round_trip_is_bitwise(
        dim in 0usize..64,
        samples in 1usize..16,
        seed in 0u64..500,
    ) {
        let batch = sample_batch(seed, 1, samples, dim);
        let encoded = batch.encode_with(PayloadCodec::F32);
        prop_assert_eq!(encoded.len(), batch_frame_len_coded(samples, dim, PayloadCodec::F32));
        // Codec 0 is the pre-codec layout, bit for bit.
        prop_assert_eq!(&encoded, &batch.encode());
        let decoded = match WireFrame::decode(encoded).unwrap() {
            WireFrame::FeatureBatch(b) => b,
            other => panic!("expected a batch, got {other:?}"),
        };
        prop_assert_eq!(decoded, batch);
    }

    #[test]
    fn f16_codec_round_trip_error_is_within_contract(
        dim in 1usize..64,
        samples in 1usize..8,
        seed in 0u64..500,
    ) {
        // Magnitudes inside the half-precision *normal* range, where the
        // codec's ≤ 2⁻¹⁰ relative-error contract applies.
        let mut rng = TensorRng::new(seed ^ 0xF16);
        let mut batch = FeatureBatchMessage::new(0, dim);
        for sample in 0..samples {
            let magnitudes = rng.rand_uniform(&[dim], -3.0, 3.0);
            let values: Vec<f32> = magnitudes
                .data()
                .iter()
                .map(|&m| if m >= 0.0 { 10f32.powf(m) } else { -(10f32.powf(-m)) })
                .collect();
            batch.push_feature(sample, &values).unwrap();
        }
        let encoded = batch.encode_with(PayloadCodec::F16);
        prop_assert_eq!(encoded.len(), batch_frame_len_coded(samples, dim, PayloadCodec::F16));
        let decoded = match WireFrame::decode(encoded).unwrap() {
            WireFrame::FeatureBatch(b) => b,
            other => panic!("expected a batch, got {other:?}"),
        };
        prop_assert_eq!(decoded.sample_indices.clone(), batch.sample_indices.clone());
        for (&q, &v) in decoded.features.iter().zip(&batch.features) {
            let rel = ((q - v) / v).abs();
            prop_assert!(rel <= 2f32.powi(-10), "value {} round-tripped to {} (rel {})", v, q, rel);
        }
        // Quantization is idempotent: re-encoding the decoded batch is
        // byte-identical (the conformance property the fixtures pin down).
        prop_assert_eq!(decoded.encode_with(PayloadCodec::F16), batch.encode_with(PayloadCodec::F16));
    }

    #[test]
    fn compressed_frames_always_decode_and_match_plain_f16(
        dim in 0usize..48,
        samples in 1usize..8,
        seed in 0u64..500,
        sparsity_percent in 0usize..101,
    ) {
        // Mix dense and sparse batches: zero runs exercise the repeat tokens,
        // dense stretches the literal tokens.
        let mut rng = TensorRng::new(seed);
        let mut batch = FeatureBatchMessage::new(3, dim);
        for sample in 0..samples {
            let dense = if dim == 0 {
                Tensor::zeros(&[0])
            } else {
                rng.randn(&[dim], 0.0, 1.0)
            };
            let gates = if dim == 0 {
                Tensor::zeros(&[0])
            } else {
                rng.rand_uniform(&[dim], 0.0, 100.0)
            };
            let values: Vec<f32> = dense
                .data()
                .iter()
                .zip(gates.data())
                .map(|(&v, &g)| if (g as usize) < sparsity_percent { 0.0 } else { v })
                .collect();
            batch.push_feature(sample, &values).unwrap();
        }
        let compressed = batch.encode_with(PayloadCodec::F16Rle);
        prop_assert!(compressed.len() <= batch_frame_len_coded(samples, dim, PayloadCodec::F16Rle));
        let from_rle = match WireFrame::decode(compressed).unwrap() {
            WireFrame::FeatureBatch(b) => b,
            other => panic!("expected a batch, got {other:?}"),
        };
        let from_f16 = match WireFrame::decode(batch.encode_with(PayloadCodec::F16)).unwrap() {
            WireFrame::FeatureBatch(b) => b,
            other => panic!("expected a batch, got {other:?}"),
        };
        prop_assert_eq!(&from_rle, &from_f16, "rle must be lossless on top of f16");
        // And byte-stable under decode → re-encode.
        prop_assert_eq!(
            from_rle.encode_with(PayloadCodec::F16Rle),
            batch.encode_with(PayloadCodec::F16Rle)
        );
    }

    #[test]
    fn truncated_coded_frames_never_panic_and_are_rejected(
        dim in 0usize..32,
        samples in 1usize..8,
        seed in 0u64..500,
        cut_seed in 0u64..10_000,
        codec_index in 0usize..3,
    ) {
        let codec = PayloadCodec::ALL[codec_index];
        let encoded = sample_batch(seed, 3, samples, dim).encode_with(codec);
        let full = encoded.as_slice().to_vec();
        let cut = cut_seed as usize % full.len();
        prop_assert!(WireFrame::decode(Bytes::from(full[..cut].to_vec())).is_err());
    }

    #[test]
    fn bit_flipped_coded_frames_never_panic_and_payload_flips_trip_the_crc(
        dim in 1usize..32,
        samples in 1usize..8,
        seed in 0u64..500,
        flip_seed in 0u64..100_000,
        codec_index in 0usize..3,
    ) {
        let codec = PayloadCodec::ALL[codec_index];
        let encoded = sample_batch(seed, 5, samples, dim).encode_with(codec);
        let mut bytes = encoded.as_slice().to_vec();
        let bit = flip_seed as usize % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        let in_payload = bit / 8 >= V2_HEADER_LEN;
        match WireFrame::decode(Bytes::from(bytes)) {
            // Header flips (reserved byte, codec/flag bits) may surface as any
            // typed error or — where layouts coincide — a legal decode; the
            // CRC guards the payload, not the header.
            Ok(_) => prop_assert!(!in_payload, "corrupted payload decoded successfully"),
            Err(err) => {
                if in_payload {
                    prop_assert!(
                        matches!(err, EdgeError::ChecksumMismatch { .. }),
                        "payload flip under codec {} surfaced as {} instead of a checksum mismatch",
                        codec,
                        err
                    );
                }
            }
        }
    }

    #[test]
    fn wrong_codec_flags_never_panic_and_never_misdecode_values(
        dim in 1usize..32,
        samples in 1usize..8,
        seed in 0u64..500,
        true_codec_index in 0usize..3,
        flag_bits in 0u8..4,
    ) {
        // Re-label an intact frame with every possible codec field value
        // (including the reserved value 3). The CRC still passes — only the
        // codec interpretation changes — so the decoder must either reject
        // (length/protocol/stream error) or decode the *same* values it
        // would under the true codec. It must never panic or produce a
        // quietly different batch.
        let true_codec = PayloadCodec::ALL[true_codec_index];
        let batch = sample_batch(seed, 2, samples, dim);
        let encoded = batch.encode_with(true_codec);
        let mut bytes = encoded.as_slice().to_vec();
        bytes[5] = FLAG_CHECKSUM | (flag_bits << 1);
        let relabeled = WireFrame::decode(Bytes::from(bytes));
        if flag_bits as usize == true_codec as usize {
            prop_assert!(relabeled.is_ok(), "true codec must still decode");
        } else if flag_bits == 3 {
            let err = relabeled.unwrap_err();
            prop_assert!(matches!(err, EdgeError::Protocol { .. }), "{}", err);
        } else if matches!(
            (true_codec, flag_bits),
            (PayloadCodec::F32, 1) | (PayloadCodec::F16, 0)
        ) {
            // Between the fixed-width codecs the strict value-byte count
            // check makes mis-decoding impossible: 4·n·d = 2·n·d only when
            // the batch carries no values, in which case the layouts agree.
            if let Ok(WireFrame::FeatureBatch(decoded)) = relabeled {
                prop_assert!(decoded.features.is_empty(), "codec mislabel decoded values");
                let truth = match WireFrame::decode(encoded).unwrap() {
                    WireFrame::FeatureBatch(b) => b,
                    other => panic!("expected a batch, got {other:?}"),
                };
                prop_assert_eq!(decoded, truth);
            }
        }
        // Mislabels involving the compressed codec must not panic either —
        // returning at all (Ok or Err) is the property; the rle stream's
        // strict length accounting rejects them in practice.
    }

    #[test]
    fn f16_bits_round_trip_through_the_vendored_helpers(
        bits in 0u16..=u16::MAX,
    ) {
        // The wire codec's quantizer and dequantizer are exact inverses on
        // every non-NaN half bit pattern.
        let value = f16_bits_to_f32(bits);
        if value.is_nan() {
            prop_assert_eq!(f32_to_f16_bits(value), 0x7E00 | (bits & 0x8000));
        } else {
            prop_assert_eq!(f32_to_f16_bits(value), bits);
        }
    }

    #[test]
    fn decode_never_panics_on_arbitrary_buffers(
        len in 0usize..96,
        seed in 0u64..100_000,
        shape in 0usize..3,
        kind in 0u8..5,
    ) {
        let mut bytes = pseudo_bytes(seed, len);
        if shape == 1 && bytes.len() >= WIRE_MAGIC.len() {
            bytes[..4].copy_from_slice(&WIRE_MAGIC);
        }
        if shape == 2 {
            // An intact header over the noise, so the kind dispatch and the
            // payload parsers see it: the unassigned kinds 0, 1 and 4 and
            // arbitrary batch and control bodies.
            bytes = intact_frame(kind, &bytes);
        }
        // Whatever the bytes, decode must return (Ok or Err), never panic.
        let decoded = WireFrame::decode(Bytes::from(bytes));
        if shape == 2 && !matches!(kind, 2 | 3) {
            prop_assert!(matches!(decoded, Err(EdgeError::Decode { .. })));
        }
    }

    #[test]
    fn truncated_frames_never_panic_and_are_rejected(
        dim in 0usize..32,
        samples in 1usize..8,
        seed in 0u64..500,
        cut_seed in 0u64..10_000,
    ) {
        let encoded = sample_batch(seed, 3, samples, dim).encode();
        let full = encoded.as_slice().to_vec();
        let cut = cut_seed as usize % full.len();
        let truncated = full[..cut].to_vec();
        prop_assert!(WireFrame::decode(Bytes::from(truncated)).is_err());
    }

    #[test]
    fn bit_flips_never_panic_and_payload_flips_are_caught_by_crc(
        dim in 1usize..32,
        samples in 1usize..8,
        seed in 0u64..500,
        flip_seed in 0u64..100_000,
    ) {
        let encoded = sample_batch(seed, 5, samples, dim).encode();
        let mut bytes = encoded.as_slice().to_vec();
        let bit = flip_seed as usize % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        let in_payload = bit / 8 >= V2_HEADER_LEN;
        match WireFrame::decode(Bytes::from(bytes)) {
            // Flips in the reserved byte (or unused flag bits) may legally
            // decode: the payload itself is untouched there.
            Ok(_) => prop_assert!(!in_payload, "corrupted payload decoded successfully"),
            Err(err) => {
                if in_payload {
                    // CRC-32 catches every single-bit payload corruption.
                    prop_assert!(
                        matches!(err, EdgeError::ChecksumMismatch { .. }),
                        "payload flip surfaced as {err} instead of a checksum mismatch"
                    );
                }
            }
        }
    }

    #[test]
    fn control_frames_round_trip(
        kind_index in 0usize..3,
        device in 0usize..1024,
        sequence in 0u64..u64::MAX,
        capacity_milli in 0u64..2_000_000_000,
    ) {
        let capacity = capacity_milli as f64 / 1e3;
        let msg = match kind_index {
            // A join must offer real capacity — zero is a protocol error at
            // decode time, covered by its own test.
            0 => ControlMessage::join(device, capacity.max(1e-3)),
            1 => ControlMessage::leave(device, sequence),
            _ => ControlMessage::heartbeat(device, sequence, capacity),
        };
        let encoded = msg.encode();
        prop_assert_eq!(encoded.len(), CONTROL_FRAME_LEN);
        let decoded = ControlMessage::decode(encoded.clone()).unwrap();
        prop_assert_eq!(decoded, msg);
        prop_assert!(matches!(WireFrame::decode(encoded).unwrap(), WireFrame::Control(_)));
    }

    #[test]
    fn truncated_control_frames_never_panic_and_are_rejected(
        device in 0usize..64,
        sequence in 0u64..10_000,
        cut in 0usize..CONTROL_FRAME_LEN,
    ) {
        let encoded = ControlMessage::heartbeat(device, sequence, 4.56e8).encode();
        let truncated = encoded.as_slice()[..cut].to_vec();
        let err = WireFrame::decode(Bytes::from(truncated)).unwrap_err();
        // Truncation is a byte-level problem, never a checksum surprise or a
        // protocol-violation verdict against the (conforming) encoder.
        prop_assert!(matches!(err, EdgeError::Decode { .. }), "{}", err);
    }

    #[test]
    fn bit_flipped_control_frames_never_panic_and_payload_flips_trip_the_crc(
        device in 0usize..64,
        sequence in 0u64..10_000,
        flip_seed in 0u64..100_000,
    ) {
        let encoded = ControlMessage::heartbeat(device, sequence, 4.56e8).encode();
        let mut bytes = encoded.as_slice().to_vec();
        let bit = flip_seed as usize % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        let in_payload = bit / 8 >= V2_HEADER_LEN;
        match WireFrame::decode(Bytes::from(bytes)) {
            // Flips in the reserved byte (or unused flag bits) may legally
            // decode; the payload itself is untouched there.
            Ok(_) => prop_assert!(!in_payload, "corrupted control payload decoded successfully"),
            Err(err) => {
                if in_payload {
                    prop_assert!(
                        matches!(err, EdgeError::ChecksumMismatch { .. }),
                        "control payload flip surfaced as {} instead of a checksum mismatch",
                        err
                    );
                }
            }
        }
    }

    #[test]
    fn unknown_control_kinds_with_valid_crc_are_protocol_errors(
        device in 0usize..64,
        sequence in 0u64..10_000,
        bogus_kind in 4u32..u32::MAX,
    ) {
        // A non-conforming encoder: intact frame, valid CRC, nonsense kind.
        let mut bytes = ControlMessage::leave(device, sequence)
            .encode()
            .as_slice()
            .to_vec();
        bytes[V2_HEADER_LEN..V2_HEADER_LEN + 4].copy_from_slice(&bogus_kind.to_le_bytes());
        let fixed_crc = crc32(&bytes[V2_HEADER_LEN..]).to_le_bytes();
        bytes[12..16].copy_from_slice(&fixed_crc);
        let err = WireFrame::decode(Bytes::from(bytes)).unwrap_err();
        prop_assert!(matches!(err, EdgeError::Protocol { .. }), "{}", err);
        prop_assert!(err.to_string().contains("control kind"), "{}", err);
    }

    #[test]
    fn control_frames_are_never_confused_with_data_frames(
        device in 0usize..64,
        sequence in 0u64..10_000,
        dim in 1usize..32,
        seed in 0u64..500,
    ) {
        // A control frame must not decode as a feature, and vice versa.
        let control = ControlMessage::heartbeat(device, sequence, 1e9).encode();
        prop_assert!(matches!(WireFrame::decode(control).unwrap(), WireFrame::Control(_)));
        let batch = sample_batch(seed, device, 2, dim).encode();
        let err = ControlMessage::decode(batch).unwrap_err();
        prop_assert!(err.to_string().contains("control"), "{}", err);
        let _ = ControlKind::Heartbeat; // kinds are part of the public surface
    }

    #[test]
    fn latency_estimates_are_positive_and_bounded_by_serial_execution(
        devices in 2usize..10,
        seed in 0u64..100,
    ) {
        let cluster = DeviceSpec::raspberry_pi_cluster(devices);
        let plan = SplitPlanner::new(PlannerConfig::default())
            .plan(&ViTConfig::vit_base(10), &cluster, seed)
            .unwrap();
        let model = LatencyModel::new(NetworkConfig::paper_default());
        let latency = model.estimate(&plan, &cluster).unwrap();
        prop_assert!(latency.total_seconds > 0.0);
        // Parallel execution can never be slower than running every sub-model
        // on a single device back to back (plus fusion and slack).
        let serial: f64 = plan
            .sub_models
            .iter()
            .map(|s| cluster[0].execution_seconds(s.cost.flops))
            .sum::<f64>()
            + latency.fusion_seconds
            + 1.0;
        prop_assert!(latency.total_seconds <= serial);
        // Communication is a small fraction of the total.
        prop_assert!(latency.communication_fraction() < 0.2);
    }
}
