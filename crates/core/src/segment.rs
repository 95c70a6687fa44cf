//! Segmentation: reading micro-batch / layer / phase structure from
//! user annotations.
//!
//! Frameworks like Megatron mark logical ranges (NVTX / profiler
//! ranges) on the host timeline; Kineto records them as user
//! annotations. Lumos parses their labels into [`SegmentTag`]s to
//! "group the tasks by layers" (§3.4): block extraction
//! ([`crate::manipulate::BlockLibrary::extract`]) carves each
//! annotated layer, embedding and head range of the trace into a
//! block, and reassembly labels the scopes it writes in the same
//! vocabulary. The execution graph carries no annotations: replay
//! needs only the host calls and kernels.

use crate::task::{Phase, SegmentTag};

/// Parses one annotation label into a tag.
///
/// Recognized vocabulary (space-separated tokens):
/// `layer=N`, `mb=N`, `fwd`, `bwd`, `embed`, `head`, `dp_grads`,
/// `optimizer`, `iteration`. Unknown tokens are ignored.
pub fn parse_annotation(name: &str) -> SegmentTag {
    let mut tag = SegmentTag::default();
    for token in name.split_whitespace() {
        if let Some(v) = token.strip_prefix("layer=") {
            tag.layer = v.parse().ok();
        } else if let Some(v) = token.strip_prefix("mb=") {
            tag.mb = v.parse().ok();
        } else {
            match token {
                "fwd" => tag.phase = Some(Phase::Forward),
                "bwd" => tag.phase = Some(Phase::Backward),
                "dp_grads" => tag.phase = Some(Phase::DpGrads),
                "optimizer" => tag.phase = Some(Phase::Optimizer),
                "embed" => tag.embed = true,
                "head" => tag.head = true,
                _ => {}
            }
        }
    }
    tag
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_vocabulary() {
        let t = parse_annotation("layer=12 fwd mb=3");
        assert_eq!(t.layer, Some(12));
        assert_eq!(t.mb, Some(3));
        assert_eq!(t.phase, Some(Phase::Forward));
        assert!(!t.embed && !t.head);

        let t = parse_annotation("dp_grads embed mb=7");
        assert_eq!(t.phase, Some(Phase::DpGrads));
        assert!(t.embed);
        assert_eq!(t.mb, Some(7));

        assert_eq!(parse_annotation("iteration"), SegmentTag::default());
        assert_eq!(parse_annotation("optimizer").phase, Some(Phase::Optimizer));
        // Garbage tolerated.
        assert_eq!(parse_annotation("layer=x unknown"), SegmentTag::default());
    }
}
