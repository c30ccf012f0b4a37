/// Resource description of one edge device, the `D_i` of the optimization
/// problem: available model memory `M_i` and available compute / energy
/// budget `E_i` expressed in multiply–accumulate operations per second.
///
/// The default profile is calibrated on the paper's own Table I: a Raspberry
/// Pi 4B runs the 16.86-GFLOP ViT-Base forward pass in 36.94 s, i.e. an
/// effective throughput of ≈ 0.456 GFLOP/s for this workload.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Stable identifier used in assignments and simulation traces.
    pub id: usize,
    /// Human-readable name ("raspberry-pi-4b-0").
    pub name: String,
    /// Memory available for model weights, in bytes (`M_i`).
    pub memory_bytes: u64,
    /// Effective compute throughput in MAC-FLOPs per second.
    pub flops_per_second: f64,
    /// Compute/energy budget per inference round in MAC-FLOPs (`E_i`).
    pub energy_budget_flops: u64,
}

/// Effective ViT throughput of a Raspberry Pi 4B, derived from Table I
/// (16.86 GFLOP / 36.94 s).
pub const RASPBERRY_PI_4B_FLOPS_PER_SECOND: f64 = 16.86e9 / 36.94;

/// Model memory assumed available on a Raspberry Pi 4B (the 2 GB variant,
/// leaving room for the OS and runtime).
pub const RASPBERRY_PI_4B_MEMORY_BYTES: u64 = 1_500_000_000;

impl DeviceSpec {
    /// Creates a device with explicit resources.
    pub fn new(
        id: usize,
        name: impl Into<String>,
        memory_bytes: u64,
        flops_per_second: f64,
        energy_budget_flops: u64,
    ) -> Self {
        DeviceSpec {
            id,
            name: name.into(),
            memory_bytes,
            flops_per_second,
            energy_budget_flops,
        }
    }

    /// A Raspberry Pi 4B profile with the paper-calibrated throughput.
    pub fn raspberry_pi_4b(id: usize) -> Self {
        DeviceSpec {
            id,
            name: format!("raspberry-pi-4b-{id}"),
            memory_bytes: RASPBERRY_PI_4B_MEMORY_BYTES,
            flops_per_second: RASPBERRY_PI_4B_FLOPS_PER_SECOND,
            // Energy budget: what the device can spend in one 60-second
            // inference window, matching the FLOPs-as-energy model of §III.
            energy_budget_flops: (RASPBERRY_PI_4B_FLOPS_PER_SECOND * 60.0) as u64,
        }
    }

    /// A homogeneous cluster of `n` Raspberry Pi 4B devices (the paper's
    /// testbed uses 1–10 of them for sub-models plus one for fusion).
    pub fn raspberry_pi_cluster(n: usize) -> Vec<DeviceSpec> {
        (0..n).map(DeviceSpec::raspberry_pi_4b).collect()
    }

    /// A heterogeneous cluster alternating full-strength and half-strength
    /// devices, used by the heterogeneous-cluster example and tests.
    pub fn heterogeneous_cluster(n: usize) -> Vec<DeviceSpec> {
        (0..n)
            .map(|i| {
                let mut d = DeviceSpec::raspberry_pi_4b(i);
                if i % 2 == 1 {
                    d.name = format!("raspberry-pi-4b-underclocked-{i}");
                    d.flops_per_second /= 2.0;
                    d.energy_budget_flops /= 2;
                    d.memory_bytes /= 2;
                }
                d
            })
            .collect()
    }

    /// Time in seconds this device needs to execute `flops` MACs.
    pub fn execution_seconds(&self, flops: u64) -> f64 {
        if self.flops_per_second <= 0.0 {
            f64::INFINITY
        } else {
            flops as f64 / self.flops_per_second
        }
    }

    /// Whether a model of `memory_bytes` size and `flops` per-sample cost fits
    /// within this device's memory and energy budget for `samples` inferences.
    pub fn can_host(&self, memory_bytes: u64, flops: u64, samples: u64) -> bool {
        memory_bytes <= self.memory_bytes
            && flops.saturating_mul(samples) <= self.energy_budget_flops
    }
}

impl std::fmt::Display for DeviceSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (mem {:.0} MB, {:.2} GFLOP/s)",
            self.name,
            self.memory_bytes as f64 / 1e6,
            self.flops_per_second / 1e9
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raspberry_pi_profile_matches_table_one_latency() {
        let pi = DeviceSpec::raspberry_pi_4b(0);
        // ViT-Base: 16.86 GFLOPs -> ~36.94 s on the Pi.
        let secs = pi.execution_seconds(16_860_000_000);
        assert!((secs - 36.94).abs() < 0.5, "latency {secs}");
        // ViT-Small: 4.25 GFLOPs -> ~9.6 s (Table I reports 9.628 s).
        let secs = pi.execution_seconds(4_250_000_000);
        assert!((secs - 9.6).abs() < 0.5, "latency {secs}");
        // ViT-Large: 59.69 GFLOPs -> Table I reports 118.8 s. A constant
        // throughput model calibrated on ViT-Base lands ~10% above (the real
        // Pi is slightly more efficient on ViT-Large's bigger matmuls), so
        // accept a 15% relative band here.
        let secs = pi.execution_seconds(59_690_000_000);
        assert!((secs - 118.8).abs() / 118.8 < 0.15, "latency {secs}");
    }

    #[test]
    fn cluster_builders() {
        let cluster = DeviceSpec::raspberry_pi_cluster(5);
        assert_eq!(cluster.len(), 5);
        assert!(cluster.iter().enumerate().all(|(i, d)| d.id == i));
        let het = DeviceSpec::heterogeneous_cluster(4);
        assert!(het[1].flops_per_second < het[0].flops_per_second);
        assert!(het[1].memory_bytes < het[0].memory_bytes);
        assert!(het[1].name.contains("underclocked"));
    }

    #[test]
    fn can_host_checks_both_constraints() {
        let d = DeviceSpec::new(0, "dev", 100, 10.0, 1000);
        assert!(d.can_host(100, 10, 100));
        assert!(!d.can_host(101, 10, 1));
        assert!(!d.can_host(10, 10, 101));
        assert!(d.can_host(0, 0, 0));
    }

    #[test]
    fn execution_seconds_handles_zero_throughput() {
        let d = DeviceSpec::new(0, "dead", 1, 0.0, 1);
        assert!(d.execution_seconds(100).is_infinite());
        assert!(!d.to_string().is_empty());
    }
}
