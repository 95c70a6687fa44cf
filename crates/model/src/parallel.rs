//! 3D parallelism: tensor × pipeline × data.
//!
//! Rank layout follows Megatron-LM's `initialize_model_parallel`:
//! tensor-parallel ranks are contiguous (innermost), then data
//! parallel, then pipeline parallel (outermost):
//!
//! ```text
//! global_rank = pp_stage * (dp * tp) + dp_rank * tp + tp_rank
//! ```
//!
//! Communicators are identified by stable [`CommGroupId`]s so that
//! the same logical group gets the same id on every rank and in every
//! crate (trace generation, graph construction, cost models).

use crate::error::ModelError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Stable communicator identifier (matches
/// `lumos_trace::event::CommGroupId`).
pub type CommGroupId = u64;

/// The three parallelism degrees. The paper writes configurations as
/// `TPxPPxDP` (e.g. `2x2x4` = tp 2, pp 2, dp 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Parallelism {
    /// Tensor-parallel degree.
    pub tp: u32,
    /// Pipeline-parallel degree.
    pub pp: u32,
    /// Data-parallel degree.
    pub dp: u32,
}

/// A rank's position in the 3D grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RankCoords {
    /// Tensor-parallel rank within the TP group.
    pub tp: u32,
    /// Pipeline stage index (0 = first stage).
    pub pp: u32,
    /// Data-parallel rank within the DP group.
    pub dp: u32,
}

/// Which axis a communicator spans — used to derive group ids and to
/// pick cost-model topology (TP groups are intra-node, DP/PP usually
/// cross nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CommScope {
    /// Tensor-parallel group: ranks sharing (pp, dp).
    Tp,
    /// Data-parallel group: ranks sharing (tp, pp).
    Dp,
    /// Pipeline point-to-point pair: a stage boundary between
    /// consecutive stages for fixed (tp, dp).
    PpPair {
        /// The earlier stage of the pair.
        upstream_stage: u32,
    },
    /// The embedding-gradient group tying first and last stage
    /// (present when pp > 1 and embeddings are shared).
    Embedding,
}

impl Parallelism {
    /// Creates a parallelism configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ZeroParallelism`] if any degree is zero.
    pub fn new(tp: u32, pp: u32, dp: u32) -> Result<Self, ModelError> {
        for (axis, v) in [("tp", tp), ("pp", pp), ("dp", dp)] {
            if v == 0 {
                return Err(ModelError::ZeroParallelism { axis });
            }
        }
        Ok(Parallelism { tp, pp, dp })
    }

    /// Total number of ranks (GPUs).
    pub fn world_size(&self) -> u32 {
        self.tp * self.pp * self.dp
    }

    /// Checks this deployment against a model: layers must divide
    /// evenly into stages and heads across TP ranks.
    ///
    /// # Errors
    ///
    /// Returns the first violated divisibility requirement.
    pub fn validate_for(&self, num_layers: u32, num_heads: u32) -> Result<(), ModelError> {
        if !num_layers.is_multiple_of(self.pp) {
            return Err(ModelError::LayersNotDivisible {
                layers: num_layers,
                pp: self.pp,
            });
        }
        if !num_heads.is_multiple_of(self.tp) {
            return Err(ModelError::HeadsNotDivisible {
                heads: num_heads,
                tp: self.tp,
            });
        }
        Ok(())
    }

    /// Coordinates of a global rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= world_size()`.
    pub fn coords(&self, rank: u32) -> RankCoords {
        assert!(
            rank < self.world_size(),
            "rank {rank} out of range for world size {}",
            self.world_size()
        );
        let per_stage = self.dp * self.tp;
        RankCoords {
            pp: rank / per_stage,
            dp: (rank % per_stage) / self.tp,
            tp: rank % self.tp,
        }
    }

    /// Global rank of coordinates.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate exceeds its degree.
    pub fn rank_of(&self, coords: RankCoords) -> u32 {
        assert!(
            coords.tp < self.tp && coords.pp < self.pp && coords.dp < self.dp,
            "coords {coords:?} out of range for {self}"
        );
        coords.pp * (self.dp * self.tp) + coords.dp * self.tp + coords.tp
    }

    /// Iterates over all global ranks.
    pub fn all_ranks(&self) -> impl Iterator<Item = u32> {
        0..self.world_size()
    }

    /// The members of the tensor-parallel group containing `coords`.
    pub fn tp_group_members(&self, coords: RankCoords) -> Vec<u32> {
        (0..self.tp)
            .map(|tp| self.rank_of(RankCoords { tp, ..coords }))
            .collect()
    }

    /// The members of the data-parallel group containing `coords`.
    pub fn dp_group_members(&self, coords: RankCoords) -> Vec<u32> {
        (0..self.dp)
            .map(|dp| self.rank_of(RankCoords { dp, ..coords }))
            .collect()
    }

    /// The next pipeline stage's rank with the same (tp, dp), if any.
    pub fn pp_next(&self, coords: RankCoords) -> Option<u32> {
        (coords.pp + 1 < self.pp).then(|| {
            self.rank_of(RankCoords {
                pp: coords.pp + 1,
                ..coords
            })
        })
    }

    /// The previous pipeline stage's rank with the same (tp, dp), if
    /// any.
    pub fn pp_prev(&self, coords: RankCoords) -> Option<u32> {
        (coords.pp > 0).then(|| {
            self.rank_of(RankCoords {
                pp: coords.pp - 1,
                ..coords
            })
        })
    }

    /// Layers per pipeline stage (assuming even distribution).
    pub fn layers_per_stage(&self, num_layers: u32) -> u32 {
        num_layers / self.pp
    }

    /// The contiguous range of layer indices owned by `stage`.
    pub fn stage_layers(&self, num_layers: u32, stage: u32) -> std::ops::Range<u32> {
        let per = self.layers_per_stage(num_layers);
        (stage * per)..((stage + 1) * per)
    }

    /// Paper-style label, e.g. `2x2x4` for TP2/PP2/DP4.
    pub fn label(&self) -> String {
        format!("{}x{}x{}", self.tp, self.pp, self.dp)
    }

    /// Parses a `TPxPPxDP` label.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ZeroParallelism`] for malformed or zero
    /// components.
    pub fn parse_label(label: &str) -> Result<Self, ModelError> {
        let mut parts = label.split('x');
        let mut next = |axis| {
            parts
                .next()
                .and_then(|p| p.trim().parse::<u32>().ok())
                .filter(|&v| v > 0)
                .ok_or(ModelError::ZeroParallelism { axis })
        };
        let tp = next("tp")?;
        let pp = next("pp")?;
        let dp = next("dp")?;
        Parallelism::new(tp, pp, dp)
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TP{}xPP{}xDP{}", self.tp, self.pp, self.dp)
    }
}

/// Derives stable communicator ids for every process group of a
/// deployment.
///
/// Ids are unique across scopes and deterministic: the same logical
/// group always maps to the same id regardless of which rank asks.
#[derive(Debug, Clone, Copy)]
pub struct GroupRegistry {
    par: Parallelism,
}

const SCOPE_TP: u64 = 1 << 40;
const SCOPE_DP: u64 = 2 << 40;
const SCOPE_PP: u64 = 3 << 40;
const SCOPE_EMB: u64 = 4 << 40;

/// The axis class a `CommGroupId` belongs to, recoverable from the
/// id alone (the scope tag lives in the bits above the 40-bit
/// payload). Unlike [`CommScope`] it carries no coordinates, so
/// consumers that only need "is this a DP group?" — e.g. targeted
/// network-degradation injection — can classify without knowing the
/// deployment shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScopeClass {
    /// Tensor-parallel group.
    Tp,
    /// Data-parallel group.
    Dp,
    /// Pipeline point-to-point pair.
    Pp,
    /// Embedding-tying pair (first/last stage).
    Embedding,
}

impl ScopeClass {
    /// Classifies a communicator id minted by [`GroupRegistry`];
    /// `None` for ids outside the registry's encoding (e.g. raw ids in
    /// hand-built jobs).
    pub fn of_group(group: CommGroupId) -> Option<Self> {
        match group & !((1u64 << 40) - 1) {
            SCOPE_TP => Some(ScopeClass::Tp),
            SCOPE_DP => Some(ScopeClass::Dp),
            SCOPE_PP => Some(ScopeClass::Pp),
            SCOPE_EMB => Some(ScopeClass::Embedding),
            _ => None,
        }
    }

    /// Stable lowercase name (the `FaultSpec` TOML vocabulary).
    pub fn name(&self) -> &'static str {
        match self {
            ScopeClass::Tp => "tp",
            ScopeClass::Dp => "dp",
            ScopeClass::Pp => "pp",
            ScopeClass::Embedding => "embedding",
        }
    }
}

impl fmt::Display for ScopeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ScopeClass {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "tp" => Ok(ScopeClass::Tp),
            "dp" => Ok(ScopeClass::Dp),
            "pp" => Ok(ScopeClass::Pp),
            "embedding" | "emb" => Ok(ScopeClass::Embedding),
            other => Err(format!(
                "unknown scope `{other}` (expected tp, dp, pp, embedding, or all)"
            )),
        }
    }
}

impl GroupRegistry {
    /// Creates a registry for a deployment.
    pub fn new(par: Parallelism) -> Self {
        GroupRegistry { par }
    }

    /// Communicator id for the group of `scope` containing `coords`.
    pub fn group_id(&self, scope: CommScope, coords: RankCoords) -> CommGroupId {
        let p = &self.par;
        match scope {
            // One TP group per (pp, dp).
            CommScope::Tp => SCOPE_TP | (coords.pp as u64 * p.dp as u64 + coords.dp as u64),
            // One DP group per (pp, tp).
            CommScope::Dp => SCOPE_DP | (coords.pp as u64 * p.tp as u64 + coords.tp as u64),
            // One pair group per (upstream stage, tp, dp).
            CommScope::PpPair { upstream_stage } => {
                SCOPE_PP
                    | (((upstream_stage as u64 * p.dp as u64 + coords.dp as u64) * p.tp as u64)
                        + coords.tp as u64)
            }
            // One embedding group per (tp, dp).
            CommScope::Embedding => SCOPE_EMB | (coords.dp as u64 * p.tp as u64 + coords.tp as u64),
        }
    }

    /// Global ranks belonging to the group of `scope` containing
    /// `coords`.
    pub fn members(&self, scope: CommScope, coords: RankCoords) -> Vec<u32> {
        let p = &self.par;
        match scope {
            CommScope::Tp => p.tp_group_members(coords),
            CommScope::Dp => p.dp_group_members(coords),
            CommScope::PpPair { upstream_stage } => {
                let up = p.rank_of(RankCoords {
                    pp: upstream_stage,
                    ..coords
                });
                let down = p.rank_of(RankCoords {
                    pp: upstream_stage + 1,
                    ..coords
                });
                vec![up, down]
            }
            CommScope::Embedding => {
                let first = p.rank_of(RankCoords { pp: 0, ..coords });
                let last = p.rank_of(RankCoords {
                    pp: p.pp - 1,
                    ..coords
                });
                vec![first, last]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_coords_round_trip() {
        let p = Parallelism::new(2, 4, 3).unwrap();
        assert_eq!(p.world_size(), 24);
        for rank in p.all_ranks() {
            assert_eq!(p.rank_of(p.coords(rank)), rank);
        }
    }

    #[test]
    fn megatron_layout_tp_contiguous() {
        let p = Parallelism::new(4, 2, 2).unwrap();
        // Ranks 0..4 are one TP group at pp=0, dp=0.
        let coords0 = p.coords(0);
        assert_eq!(p.tp_group_members(coords0), vec![0, 1, 2, 3]);
        // DP group of rank 0: same tp=0, pp=0, dp varies -> stride tp.
        assert_eq!(p.dp_group_members(coords0), vec![0, 4]);
        // Next pipeline stage of rank 0 is offset by dp*tp.
        assert_eq!(p.pp_next(coords0), Some(8));
        assert_eq!(p.pp_prev(coords0), None);
        let last = p.coords(p.world_size() - 1);
        assert_eq!(p.pp_next(last), None);
    }

    #[test]
    fn validate_divisibility() {
        let p = Parallelism::new(2, 4, 1).unwrap();
        assert!(p.validate_for(48, 48).is_ok());
        assert_eq!(
            p.validate_for(10, 48),
            Err(ModelError::LayersNotDivisible { layers: 10, pp: 4 })
        );
        assert_eq!(
            p.validate_for(48, 3),
            Err(ModelError::HeadsNotDivisible { heads: 3, tp: 2 })
        );
    }

    #[test]
    fn zero_degree_rejected() {
        assert_eq!(
            Parallelism::new(0, 1, 1),
            Err(ModelError::ZeroParallelism { axis: "tp" })
        );
        assert_eq!(
            Parallelism::new(1, 0, 1),
            Err(ModelError::ZeroParallelism { axis: "pp" })
        );
    }

    #[test]
    fn label_round_trip() {
        let p = Parallelism::new(8, 4, 16).unwrap();
        assert_eq!(p.label(), "8x4x16");
        assert_eq!(Parallelism::parse_label("8x4x16"), Ok(p));
        assert!(Parallelism::parse_label("8x4").is_err());
        assert!(Parallelism::parse_label("0x4x2").is_err());
        assert!(Parallelism::parse_label("axbxc").is_err());
    }

    #[test]
    fn stage_layers_partition() {
        let p = Parallelism::new(1, 4, 1).unwrap();
        assert_eq!(p.stage_layers(48, 0), 0..12);
        assert_eq!(p.stage_layers(48, 3), 36..48);
        // Union of all stages covers all layers exactly once.
        let mut covered = [false; 48];
        for s in 0..4 {
            for l in p.stage_layers(48, s) {
                assert!(!covered[l as usize]);
                covered[l as usize] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn group_ids_unique_and_consistent() {
        let p = Parallelism::new(2, 2, 2).unwrap();
        let reg = GroupRegistry::new(p);
        let mut seen = std::collections::HashMap::new();
        for rank in p.all_ranks() {
            let c = p.coords(rank);
            for scope in [CommScope::Tp, CommScope::Dp] {
                let id = reg.group_id(scope, c);
                let members = reg.members(scope, c);
                // Every member derives the same id for this group.
                for &m in &members {
                    assert_eq!(reg.group_id(scope, p.coords(m)), id);
                }
                // Same id always maps to the same member set.
                if let Some(prev) = seen.insert(id, members.clone()) {
                    assert_eq!(prev, members);
                }
            }
        }
        // TP and DP ids never collide.
        let c0 = p.coords(0);
        assert_ne!(
            reg.group_id(CommScope::Tp, c0),
            reg.group_id(CommScope::Dp, c0)
        );
    }

    #[test]
    fn pp_pair_members() {
        let p = Parallelism::new(2, 3, 2).unwrap();
        let reg = GroupRegistry::new(p);
        let c = p.coords(1); // tp=1, pp=0, dp=0
        let pair = reg.members(CommScope::PpPair { upstream_stage: 0 }, c);
        assert_eq!(pair.len(), 2);
        assert_eq!(p.coords(pair[0]).pp, 0);
        assert_eq!(p.coords(pair[1]).pp, 1);
        assert_eq!(p.coords(pair[0]).tp, p.coords(pair[1]).tp);
        assert_eq!(p.coords(pair[0]).dp, p.coords(pair[1]).dp);
    }

    #[test]
    fn embedding_group_ties_ends() {
        let p = Parallelism::new(1, 4, 1).unwrap();
        let reg = GroupRegistry::new(p);
        let members = reg.members(CommScope::Embedding, p.coords(0));
        assert_eq!(members, vec![0, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coords_out_of_range_panics() {
        let p = Parallelism::new(1, 1, 1).unwrap();
        let _ = p.coords(1);
    }

    #[test]
    fn scope_class_recovers_from_group_ids() {
        let p = Parallelism::new(2, 2, 2).unwrap();
        let reg = GroupRegistry::new(p);
        let c = p.coords(0);
        assert_eq!(
            ScopeClass::of_group(reg.group_id(CommScope::Tp, c)),
            Some(ScopeClass::Tp)
        );
        assert_eq!(
            ScopeClass::of_group(reg.group_id(CommScope::Dp, c)),
            Some(ScopeClass::Dp)
        );
        assert_eq!(
            ScopeClass::of_group(reg.group_id(CommScope::PpPair { upstream_stage: 0 }, c)),
            Some(ScopeClass::Pp)
        );
        assert_eq!(
            ScopeClass::of_group(reg.group_id(CommScope::Embedding, c)),
            Some(ScopeClass::Embedding)
        );
        // Raw ids from hand-built jobs are outside the encoding.
        assert_eq!(ScopeClass::of_group(99), None);
        assert_eq!("dp".parse::<ScopeClass>().unwrap(), ScopeClass::Dp);
        assert_eq!("EMB".parse::<ScopeClass>().unwrap(), ScopeClass::Embedding);
        assert!("node".parse::<ScopeClass>().is_err());
        assert_eq!(ScopeClass::Pp.to_string(), "pp");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn round_trip_any_grid(tp in 1u32..5, pp in 1u32..5, dp in 1u32..5) {
            let p = Parallelism::new(tp, pp, dp).unwrap();
            for rank in p.all_ranks() {
                prop_assert_eq!(p.rank_of(p.coords(rank)), rank);
            }
        }

        #[test]
        fn groups_partition_world(tp in 1u32..4, pp in 1u32..4, dp in 1u32..4) {
            let p = Parallelism::new(tp, pp, dp).unwrap();
            // TP groups partition the world.
            let mut seen = vec![0u32; p.world_size() as usize];
            let mut group_count = std::collections::HashSet::new();
            for rank in p.all_ranks() {
                let c = p.coords(rank);
                let members = p.tp_group_members(c);
                prop_assert!(members.contains(&rank));
                group_count.insert(members.clone());
                for m in members {
                    seen[m as usize] += 1;
                }
            }
            // Each rank appears in exactly tp member lists (once per
            // member's query).
            prop_assert!(seen.iter().all(|&c| c == tp));
            prop_assert_eq!(group_count.len() as u32, pp * dp);
        }
    }
}
