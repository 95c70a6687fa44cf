//! Trace-fitted lookup cost model — the stand-in for the paper's
//! "in-house GPU kernel performance model, built by analyzing fleet
//! GPU traces" (§4.3.1).
//!
//! Observed kernel durations are recorded keyed by their shape-
//! carrying [`KernelClass`] (and, for collectives, by payload and
//! communicator size/topology). Queries for recorded shapes return the
//! observed mean; unseen shapes fall back to an inner model —
//! exactly how a fleet model behaves: accurate where fleet coverage
//! exists, extrapolating elsewhere.
//!
//! The model is split in two so calibration can be persisted:
//!
//! * [`LookupTables`] — the concrete, serializable fitted state
//!   (compute and collective observation tables). This is what a
//!   calibration artifact stores on disk and what repeated queries
//!   share; serialization round-trips bit-exactly, so predictions
//!   priced from a reloaded table are identical to ones priced from a
//!   freshly fitted one.
//! * [`LookupCostModel`] — a thin generic wrapper pairing tables with
//!   a fallback [`CostModel`] for unseen shapes.

use crate::CostModel;
use lumos_trace::{CollectiveKind, Dur, KernelClass};
use serde::{de, Deserialize, Reader, Serialize, Value};
use std::collections::HashMap;

/// Accumulated duration observations for one table key. The exact
/// nanosecond total is kept (not a running mean) so serialization can
/// round-trip the fitted state bit-exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Acc {
    total_ns: u128,
    count: u64,
}

impl Acc {
    fn record(&mut self, d: Dur) {
        self.total_ns += d.as_ns() as u128;
        self.count += 1;
    }

    fn mean(&self) -> Dur {
        if self.count == 0 {
            Dur::ZERO
        } else {
            Dur((self.total_ns / self.count as u128) as u64)
        }
    }
}

// The vendored serde data model has no u128; encode the nanosecond
// total as (hi, lo) u64 halves so fitted state round-trips exactly.
impl Serialize for Acc {
    fn serialize_value(&self) -> Value {
        (
            (self.total_ns >> 64) as u64,
            self.total_ns as u64,
            self.count,
        )
            .serialize_value()
    }
}

impl Deserialize for Acc {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, de::Error> {
        let (hi, lo, count) = <(u64, u64, u64)>::deserialize(r)?;
        Ok(Acc {
            total_ns: ((hi as u128) << 64) | lo as u128,
            count,
        })
    }
}

/// Key for collective observations: payload and communicator
/// cardinality + placement determine cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
struct CollKey {
    kind: CollectiveKind,
    bytes: u64,
    members: usize,
    intra_node: bool,
}

/// The concrete fitted state of a lookup cost model: per-shape compute
/// observations and per-(kind, payload, topology) collective
/// observations, plus the `gpus_per_node` used to classify collective
/// placements.
///
/// Serializable (this is the payload a calibration artifact persists)
/// and exactly reproducible: `deserialize(serialize(t)) == t`, and
/// every mean queried from the round-tripped table equals the
/// original's bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LookupTables {
    compute: HashMap<KernelClass, Acc>,
    collectives: HashMap<CollKey, Acc>,
    gpus_per_node: u32,
}

impl LookupTables {
    /// Creates empty tables. `gpus_per_node` classifies collective
    /// placements (intra- vs inter-node).
    ///
    /// # Panics
    ///
    /// Panics when `gpus_per_node` is zero.
    pub fn new(gpus_per_node: u32) -> Self {
        assert!(gpus_per_node > 0, "gpus_per_node must be positive");
        LookupTables {
            compute: HashMap::new(),
            collectives: HashMap::new(),
            gpus_per_node,
        }
    }

    fn coll_key(&self, kind: CollectiveKind, bytes: u64, members: &[u32]) -> CollKey {
        let intra_node = {
            let mut nodes = members.iter().map(|&r| r / self.gpus_per_node);
            match nodes.next() {
                Some(first) => nodes.all(|n| n == first),
                None => true,
            }
        };
        CollKey {
            kind,
            bytes,
            members: members.len(),
            intra_node,
        }
    }

    /// The `gpus_per_node` the tables were fitted with.
    pub fn gpus_per_node(&self) -> u32 {
        self.gpus_per_node
    }

    /// Records one observation of a compute kernel.
    ///
    /// # Panics
    ///
    /// Panics when handed a collective class; use
    /// [`LookupTables::record_collective`] for those.
    pub fn record_compute(&mut self, class: KernelClass, observed: Dur) {
        assert!(
            !matches!(class, KernelClass::Collective(_)),
            "collectives are recorded via record_collective"
        );
        self.compute.entry(class).or_default().record(observed);
    }

    /// Records one observation of a collective instance.
    pub fn record_collective(
        &mut self,
        kind: CollectiveKind,
        bytes: u64,
        members: &[u32],
        observed: Dur,
    ) {
        self.collectives
            .entry(self.coll_key(kind, bytes, members))
            .or_default()
            .record(observed);
    }

    /// Number of distinct compute shapes recorded.
    pub fn compute_entries(&self) -> usize {
        self.compute.len()
    }

    /// Number of distinct collective keys recorded.
    pub fn collective_entries(&self) -> usize {
        self.collectives.len()
    }

    /// Whether a compute shape has fleet coverage.
    pub fn covers(&self, class: &KernelClass) -> bool {
        self.compute.contains_key(class)
    }

    /// The observed mean for a recorded compute shape (`None` when the
    /// shape has no coverage).
    pub fn compute_mean(&self, class: &KernelClass) -> Option<Dur> {
        match self.compute.get(class) {
            Some(acc) if acc.count > 0 => Some(acc.mean()),
            _ => None,
        }
    }

    /// The observed mean for a recorded collective key (`None` when
    /// the (kind, payload, topology) combination has no coverage).
    pub fn collective_mean(
        &self,
        kind: CollectiveKind,
        bytes: u64,
        members: &[u32],
    ) -> Option<Dur> {
        match self.collectives.get(&self.coll_key(kind, bytes, members)) {
            Some(acc) if acc.count > 0 => Some(acc.mean()),
            _ => None,
        }
    }

    /// Fits tables from every kernel observation in a cluster trace —
    /// the "fleet traces" the paper's in-house model is built from.
    /// Collective membership is derived from the trace itself (the
    /// ranks issuing each communicator).
    pub fn fit_from_trace(trace: &lumos_trace::ClusterTrace, gpus_per_node: u32) -> Self {
        use lumos_trace::EventKind;
        let mut tables = LookupTables::new(gpus_per_node);
        // First pass: communicator membership.
        let mut members: HashMap<u64, Vec<u32>> = HashMap::new();
        for rank_trace in trace.ranks() {
            for e in rank_trace.kernels() {
                if let EventKind::Kernel {
                    class: KernelClass::Collective(meta),
                    ..
                } = e.kind
                {
                    let m = members.entry(meta.group).or_default();
                    if !m.contains(&rank_trace.rank().0) {
                        m.push(rank_trace.rank().0);
                    }
                }
            }
        }
        // Second pass: observations.
        for rank_trace in trace.ranks() {
            for e in rank_trace.kernels() {
                if let EventKind::Kernel { class, .. } = e.kind {
                    match class {
                        KernelClass::Collective(meta) => {
                            let m = &members[&meta.group];
                            tables.record_collective(meta.kind, meta.bytes, m, e.dur);
                        }
                        other => tables.record_compute(other, e.dur),
                    }
                }
            }
        }
        tables
    }
}

/// A cost model fitted from observed traces, backed by a fallback
/// model for unseen shapes: concrete [`LookupTables`] plus the generic
/// fallback.
#[derive(Debug, Clone)]
pub struct LookupCostModel<F> {
    tables: LookupTables,
    fallback: F,
}

impl<F: CostModel> LookupCostModel<F> {
    /// Creates an empty table over `fallback`. `gpus_per_node` is used
    /// to classify collective placements consistently with the
    /// fallback's cluster spec.
    pub fn new(fallback: F, gpus_per_node: u32) -> Self {
        LookupCostModel {
            tables: LookupTables::new(gpus_per_node),
            fallback,
        }
    }

    /// Pairs previously fitted (e.g. deserialized from a calibration
    /// artifact) tables with a fallback for unseen shapes.
    pub fn from_tables(tables: LookupTables, fallback: F) -> Self {
        LookupCostModel { tables, fallback }
    }

    /// The fitted tables.
    pub fn tables(&self) -> &LookupTables {
        &self.tables
    }

    /// Records one observation of a compute kernel.
    pub fn record_compute(&mut self, class: KernelClass, observed: Dur) {
        self.tables.record_compute(class, observed);
    }

    /// Records one observation of a collective instance.
    pub fn record_collective(
        &mut self,
        kind: CollectiveKind,
        bytes: u64,
        members: &[u32],
        observed: Dur,
    ) {
        self.tables
            .record_collective(kind, bytes, members, observed);
    }

    /// Number of distinct compute shapes recorded.
    pub fn compute_entries(&self) -> usize {
        self.tables.compute_entries()
    }

    /// Number of distinct collective keys recorded.
    pub fn collective_entries(&self) -> usize {
        self.tables.collective_entries()
    }

    /// Whether a compute shape has fleet coverage.
    pub fn covers(&self, class: &KernelClass) -> bool {
        self.tables.covers(class)
    }

    /// Fits a table from every kernel observation in a cluster trace —
    /// the "fleet traces" the paper's in-house model is built from.
    /// Collective membership is derived from the trace itself (the
    /// ranks issuing each communicator).
    pub fn fit_from_trace(
        trace: &lumos_trace::ClusterTrace,
        fallback: F,
        gpus_per_node: u32,
    ) -> Self {
        LookupCostModel {
            tables: LookupTables::fit_from_trace(trace, gpus_per_node),
            fallback,
        }
    }
}

impl<F: CostModel> CostModel for LookupCostModel<F> {
    fn compute_cost(&self, class: &KernelClass) -> Dur {
        match self.tables.compute_mean(class) {
            Some(mean) => mean,
            None => self.fallback.compute_cost(class),
        }
    }

    fn collective_cost(&self, kind: CollectiveKind, bytes: u64, members: &[u32]) -> Dur {
        match self.tables.collective_mean(kind, bytes, members) {
            Some(mean) => mean,
            None => self.fallback.collective_cost(kind, bytes, members),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::AnalyticalCostModel;

    fn lookup() -> LookupCostModel<AnalyticalCostModel> {
        LookupCostModel::new(AnalyticalCostModel::h100(), 8)
    }

    #[test]
    fn recorded_shapes_return_observed_mean() {
        let mut m = lookup();
        let shape = KernelClass::Gemm {
            m: 128,
            n: 128,
            k: 128,
        };
        m.record_compute(shape, Dur::from_us(100));
        m.record_compute(shape, Dur::from_us(200));
        assert_eq!(m.compute_cost(&shape), Dur::from_us(150));
        assert!(m.covers(&shape));
        assert_eq!(m.compute_entries(), 1);
    }

    #[test]
    fn unseen_shapes_fall_back() {
        let m = lookup();
        let shape = KernelClass::Gemm {
            m: 4096,
            n: 4096,
            k: 4096,
        };
        assert!(!m.covers(&shape));
        assert_eq!(
            m.compute_cost(&shape),
            AnalyticalCostModel::h100().compute_cost(&shape)
        );
    }

    #[test]
    fn collectives_keyed_by_topology() {
        let mut m = lookup();
        let intra: Vec<u32> = (0..4).collect();
        let inter = [0u32, 9];
        m.record_collective(CollectiveKind::AllReduce, 1024, &intra, Dur::from_us(50));
        // Same bytes, different placement: still falls back.
        let fb = AnalyticalCostModel::h100();
        assert_eq!(
            m.collective_cost(CollectiveKind::AllReduce, 1024, &inter),
            fb.collective_cost(CollectiveKind::AllReduce, 1024, &inter)
        );
        assert_eq!(
            m.collective_cost(CollectiveKind::AllReduce, 1024, &intra),
            Dur::from_us(50)
        );
        // Any 4 intra-node members hit the same key.
        let other_intra: Vec<u32> = (8..12).collect();
        assert_eq!(
            m.collective_cost(CollectiveKind::AllReduce, 1024, &other_intra),
            Dur::from_us(50)
        );
    }

    #[test]
    #[should_panic(expected = "record_collective")]
    fn recording_collective_as_compute_panics() {
        let mut m = lookup();
        m.record_compute(
            KernelClass::Collective(lumos_trace::CommMeta {
                kind: CollectiveKind::AllReduce,
                group: 0,
                seq: 0,
                bytes: 8,
            }),
            Dur::from_us(1),
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_gpus_per_node_panics() {
        let _ = LookupCostModel::new(AnalyticalCostModel::h100(), 0);
    }

    #[test]
    fn tables_round_trip_bit_exact() {
        let mut t = LookupTables::new(8);
        let shape = KernelClass::Gemm {
            m: 256,
            n: 512,
            k: 128,
        };
        t.record_compute(shape, Dur(333_333));
        t.record_compute(shape, Dur(333_334));
        t.record_compute(shape, Dur(1));
        let members: Vec<u32> = (0..4).collect();
        t.record_collective(CollectiveKind::AllReduce, 4096, &members, Dur(777));
        t.record_collective(CollectiveKind::SendRecv, 128, &[0, 9], Dur(99));

        let json = serde_json::to_string(&t).expect("tables serialize");
        let back: LookupTables = serde_json::from_str(&json).expect("tables parse");
        assert_eq!(back, t);
        assert_eq!(back.compute_mean(&shape), t.compute_mean(&shape));
        assert_eq!(
            back.collective_mean(CollectiveKind::AllReduce, 4096, &members),
            t.collective_mean(CollectiveKind::AllReduce, 4096, &members)
        );
        // Deterministic encoding: serializing the round-tripped value
        // reproduces the same bytes (hash-map entries are sorted).
        assert_eq!(serde_json::to_string(&back).expect("reserialize"), json);
    }

    #[test]
    fn acc_round_trips_beyond_u64_totals() {
        let acc = Acc {
            total_ns: (u64::MAX as u128) * 5 + 17,
            count: 3,
        };
        let json = serde_json::to_string(&acc).expect("acc serializes");
        let back: Acc = serde_json::from_str(&json).expect("acc parses");
        assert_eq!(back, acc);
    }

    #[test]
    fn from_tables_matches_fitted_model() {
        let mut m = lookup();
        let shape = KernelClass::Gemm {
            m: 64,
            n: 64,
            k: 64,
        };
        m.record_compute(shape, Dur::from_us(42));
        let rebuilt = LookupCostModel::from_tables(m.tables().clone(), AnalyticalCostModel::h100());
        assert_eq!(rebuilt.compute_cost(&shape), m.compute_cost(&shape));
        assert_eq!(rebuilt.tables(), m.tables());
    }
}
