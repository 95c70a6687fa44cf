//! Host-side timing constants: CPU operator overheads, CUDA runtime
//! call durations, and launch-to-start gaps.
//!
//! These calibrate the CPU half of the synthetic traces. Values are
//! representative of PyTorch 2.x on a modern server CPU (microseconds
//! per dispatch; launch gaps of a few microseconds when the stream is
//! idle).

use lumos_trace::Dur;

/// Host-side cost constants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostOverheads {
    /// Framework dispatch time of a CPU operator (excluding runtime
    /// calls made inside it).
    pub cpu_op: Dur,
    /// Duration of a `cudaLaunchKernel` call on the host.
    pub launch_call: Dur,
    /// Earliest a kernel may start after its launch call returns,
    /// when the stream is idle.
    pub launch_gap: Dur,
    /// Duration of `cudaEventRecord` / `cudaStreamWaitEvent` calls.
    pub event_call: Dur,
    /// Host-side cost of a synchronization call itself (the blocking
    /// wait is modeled by the simulator, not this constant).
    pub sync_call: Dur,
}

impl Default for HostOverheads {
    /// PyTorch 2.x-calibrated defaults.
    fn default() -> Self {
        HostOverheads {
            cpu_op: Dur::from_us(6),
            launch_call: Dur::from_us(4),
            launch_gap: Dur::from_us(2),
            event_call: Dur::from_us(1),
            sync_call: Dur::from_us(2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_reasonable() {
        let h = HostOverheads::default();
        assert!(h.cpu_op >= h.launch_call);
        assert!(h.launch_call > Dur::ZERO);
    }
}
