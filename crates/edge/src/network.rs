/// Network model between edge devices and the fusion device.
///
/// The paper connects the Raspberry Pis through a gigabit switch but caps the
/// usable bandwidth at 2 Mbps with Linux `tc` to emulate constrained field
/// deployments; per-message overhead models switch + protocol latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Usable bandwidth in bits per second.
    pub bandwidth_bits_per_second: f64,
    /// Fixed per-message overhead in seconds (serialization, switching).
    pub per_message_overhead_seconds: f64,
}

impl NetworkConfig {
    /// The paper's setting: 2 Mbps cap, negligible per-message overhead.
    pub fn paper_default() -> Self {
        NetworkConfig {
            bandwidth_bits_per_second: 2_000_000.0,
            per_message_overhead_seconds: 0.000_5,
        }
    }

    /// An uncapped gigabit-switch configuration (for ablations on the
    /// bandwidth limit).
    pub fn gigabit() -> Self {
        NetworkConfig {
            bandwidth_bits_per_second: 1_000_000_000.0,
            per_message_overhead_seconds: 0.000_1,
        }
    }

    /// Time in seconds to transfer `bytes` bytes over this link.
    ///
    /// Returns infinity for a zero-bandwidth link rather than panicking, so a
    /// mis-configured experiment shows up as an unmistakably absurd latency.
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        if self.bandwidth_bits_per_second <= 0.0 {
            return f64::INFINITY;
        }
        self.per_message_overhead_seconds + (bytes as f64 * 8.0) / self.bandwidth_bits_per_second
    }

    /// Per-sample time when `samples` samples share one frame of
    /// `frame_bytes`: the whole-frame transfer (including its single
    /// per-message overhead) divided across the batch. With `samples == 1`
    /// this equals [`NetworkConfig::transfer_seconds`].
    pub fn amortized_transfer_seconds(&self, frame_bytes: u64, samples: usize) -> f64 {
        self.transfer_seconds(frame_bytes) / samples.max(1) as f64
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_feature_transfer_takes_milliseconds() {
        let net = NetworkConfig::paper_default();
        // §V-D: the largest feature payload is 1536 bytes and its maximal
        // communication time is 5.86 ms. 1536 B at 2 Mbps = 6.1 ms + overhead,
        // same order of magnitude.
        let t = net.transfer_seconds(1536);
        assert!(t > 0.004 && t < 0.008, "transfer {t}");
        // The smallest payload (512 B) is proportionally faster.
        assert!(net.transfer_seconds(512) < t);
    }

    #[test]
    fn raw_image_transfer_dwarfs_feature_transfer() {
        let net = NetworkConfig::paper_default();
        // Raw 224x224x3 image = 150 528 bytes, ~294x the 512-byte feature.
        let image = net.transfer_seconds(150_528);
        let feature = net.transfer_seconds(512);
        let ratio = (image - net.per_message_overhead_seconds)
            / (feature - net.per_message_overhead_seconds);
        assert!((ratio - 294.0).abs() < 1.0, "ratio {ratio}");
    }

    #[test]
    fn monotone_in_bytes_and_bandwidth() {
        let slow = NetworkConfig::paper_default();
        let fast = NetworkConfig::gigabit();
        assert!(slow.transfer_seconds(1000) > fast.transfer_seconds(1000));
        assert!(slow.transfer_seconds(2000) > slow.transfer_seconds(1000));
        assert_eq!(NetworkConfig::default(), NetworkConfig::paper_default());
    }

    #[test]
    fn amortization_divides_frame_time_across_samples() {
        let net = NetworkConfig::paper_default();
        let frame = net.transfer_seconds(10_000);
        assert_eq!(net.amortized_transfer_seconds(10_000, 1), frame);
        assert!((net.amortized_transfer_seconds(10_000, 8) - frame / 8.0).abs() < 1e-12);
        // A zero sample count is treated as one rather than dividing by zero.
        assert_eq!(net.amortized_transfer_seconds(10_000, 0), frame);
        // Batching 8 samples into one frame beats 8 separate messages: the
        // per-message overhead is paid once.
        let eight_singles = net.transfer_seconds(1_250) * 8.0;
        assert!(net.amortized_transfer_seconds(10_000, 8) * 8.0 < eight_singles);
    }

    #[test]
    fn zero_bandwidth_is_infinite_not_panic() {
        let net = NetworkConfig {
            bandwidth_bits_per_second: 0.0,
            per_message_overhead_seconds: 0.0,
        };
        assert!(net.transfer_seconds(1).is_infinite());
    }
}
