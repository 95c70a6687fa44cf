//! Hardware descriptions and kernel/collective cost models.
//!
//! The paper re-costs kernels whose shapes change under a new
//! configuration using "an in-house GPU kernel performance model,
//! built by analyzing fleet GPU traces" (§4.3.1) and explicitly treats
//! kernel-runtime prediction as replaceable ("predicting the runtime
//! of individual kernels is beyond the scope of this work", §5).
//!
//! This crate supplies two interchangeable oracles behind the
//! [`CostModel`] trait:
//!
//! * [`AnalyticalCostModel`] — first-principles H100 models: a
//!   roofline GEMM model with tile/wave quantization, bandwidth models
//!   for pointwise/normalization/optimizer kernels, and a hierarchical
//!   latency–bandwidth model for NCCL-style collectives over
//!   NVLink + RoCE;
//! * [`LookupCostModel`] — a table fitted from previously collected
//!   traces (the "fleet model" substitute), falling back to the
//!   analytical model for unseen shapes. Its fitted state is a
//!   concrete, serializable [`LookupTables`] so that a calibration
//!   can be persisted once and shared across many queries.
//!
//! Host-side timing constants (operator overheads, launch costs,
//! synchronization polling) live in [`HostOverheads`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collective;
mod gemm;
mod hardware;
mod kernels;
mod lookup;
mod overhead;

pub use collective::CollectiveModel;
pub use gemm::GemmModel;
pub use hardware::{ClusterSpec, GpuSpec, NodeSpec};
pub use kernels::AnalyticalCostModel;
pub use lookup::{LookupCostModel, LookupTables};
pub use overhead::HostOverheads;

use lumos_trace::{CollectiveKind, Dur, KernelClass};

/// A kernel-runtime oracle: prices compute kernels by shape and
/// collectives by payload and membership.
///
/// Implementations must be deterministic — the same query always
/// returns the same duration — so that simulated replays are
/// reproducible.
pub trait CostModel {
    /// Device time of a non-collective kernel.
    ///
    /// # Panics
    ///
    /// Implementations may panic when handed a
    /// [`KernelClass::Collective`]; use [`CostModel::collective_cost`]
    /// for those.
    fn compute_cost(&self, class: &KernelClass) -> Dur;

    /// Device time of one collective instance, given the payload
    /// `bytes` contributed per rank and the global ranks of all
    /// members. The returned duration covers the transfer only; queue
    /// and rendezvous waits are the simulator's job.
    fn collective_cost(&self, kind: CollectiveKind, bytes: u64, members: &[u32]) -> Dur;

    /// Prices any kernel class, dispatching collectives to
    /// [`CostModel::collective_cost`] using the metadata's byte count
    /// and the supplied member list.
    fn kernel_cost(&self, class: &KernelClass, members: &[u32]) -> Dur {
        match class {
            KernelClass::Collective(meta) => self.collective_cost(meta.kind, meta.bytes, members),
            other => self.compute_cost(other),
        }
    }
}

impl<T: CostModel + ?Sized> CostModel for &T {
    fn compute_cost(&self, class: &KernelClass) -> Dur {
        (**self).compute_cost(class)
    }
    fn collective_cost(&self, kind: CollectiveKind, bytes: u64, members: &[u32]) -> Dur {
        (**self).collective_cost(kind, bytes, members)
    }
}

impl<T: CostModel + ?Sized> CostModel for std::sync::Arc<T> {
    fn compute_cost(&self, class: &KernelClass) -> Dur {
        (**self).compute_cost(class)
    }
    fn collective_cost(&self, kind: CollectiveKind, bytes: u64, members: &[u32]) -> Dur {
        (**self).collective_cost(kind, bytes, members)
    }
}
