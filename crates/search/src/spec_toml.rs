//! Space-spec files: the search space and optional search options,
//! read by the shared TOML-subset reader [`lumos_model::spec`] (its
//! module docs give the grammar). The file is flat, with no tables:
//!
//! ```toml
//! # lumos search space
//! tp = [2, 4]
//! pp = [1, 2, 4]
//! dp = [1, 2, 4, 8]
//! microbatches = [4, 8, 16]
//! interleave = [1, 2]
//! schedules = ["1f1b", "gpipe", "zb-h1"]
//! max-gpus = 64
//! # arch points as [layers, hidden, ffn] triples (optional)
//! arch = [[8, 4096, 16384], [12, 3072, 12288]]
//!
//! # search options (optional; CLI flags override)
//! objective = "throughput"
//! top-k = 10
//! gpu-memory-gib = 80
//! ```

use crate::report::Objective;
use crate::space::{ArchPoint, SpaceSpec};
use crate::SearchError;
use lumos_model::spec::{self, Value};
use lumos_model::ScheduleKind;

/// A parsed spec file: the space plus optional search options.
#[derive(Debug, Clone, Default)]
pub struct SpecFile {
    /// The search space.
    pub space: SpaceSpec,
    /// Optional ranking objective.
    pub objective: Option<Objective>,
    /// Optional report size.
    pub top_k: Option<usize>,
    /// Optional per-GPU memory capacity in whole GiB.
    pub gpu_memory_gib: Option<u32>,
}

impl SpecFile {
    /// Parses a space file; keys left out keep their
    /// [`SpaceSpec::default`] values.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::Spec`] naming the offending line and key.
    pub fn parse(text: &str) -> Result<Self, SearchError> {
        let mut top = spec::parse(text, &[])?.top;
        let ints = |v: &Value| v.list(Value::int::<u32>);
        let defaults = SpaceSpec::default();
        let space = SpaceSpec {
            tp: top.get("tp", ints)?.unwrap_or(defaults.tp),
            pp: top.get("pp", ints)?.unwrap_or(defaults.pp),
            dp: top.get("dp", ints)?.unwrap_or(defaults.dp),
            microbatches: top
                .get("microbatches", ints)?
                .unwrap_or(defaults.microbatches),
            interleave: top.get("interleave", ints)?.unwrap_or(defaults.interleave),
            schedules: top
                .get("schedules", |v| v.list(schedule))?
                .unwrap_or(defaults.schedules),
            gpus: top.get("gpus", ints)?.or(defaults.gpus),
            max_gpus: top
                .get("max-gpus", Value::int)?
                .unwrap_or(defaults.max_gpus),
            arch: top
                .get("arch", |v| v.list(arch_point))?
                .unwrap_or(defaults.arch),
        };
        let file = SpecFile {
            space,
            objective: top.get("objective", |v| v.string()?.parse())?,
            top_k: top.get("top-k", Value::int)?,
            gpu_memory_gib: top.get("gpu-memory-gib", Value::int)?,
        };
        top.finish()?;
        Ok(file)
    }
}

/// `"1f1b"` → its policy; an unknown name fails listing the known
/// set, so a typo in a spec file names its alternatives.
fn schedule(value: &Value) -> Result<ScheduleKind, String> {
    ScheduleKind::from_name(value.string()?).map_err(|e| e.to_string())
}

/// `[layers, hidden, ffn]` → a labeled arch point.
fn arch_point(value: &Value) -> Result<ArchPoint, String> {
    let [layers, hidden, ffn] = value.array()? else {
        return Err("each arch point needs exactly [layers, hidden, ffn]".to_string());
    };
    let (layers, hidden, ffn): (u32, u64, u64) = (layers.int()?, hidden.int()?, ffn.int()?);
    Ok(ArchPoint::new(
        format!("{layers}L-d{hidden}"),
        layers,
        hidden,
        ffn,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# capacity planning sweep
tp = [2, 4]
pp = [1, 2]          # pipeline depths
dp = [1, 2, 4, 8]
microbatches = [4, 8]
interleave = [1, 2]
schedules = ["1f1b", "zb-h1"]
max-gpus = 64
arch = [[8, 4096, 16384], [12, 3072, 12288]]
objective = "throughput"
top-k = 5
gpu-memory-gib = 80
"#;

    #[test]
    fn parses_full_sample() {
        let f = SpecFile::parse(SAMPLE).unwrap();
        assert_eq!(f.space.tp, vec![2, 4]);
        assert_eq!(f.space.dp, vec![1, 2, 4, 8]);
        assert_eq!(f.space.max_gpus, 64);
        assert_eq!(
            f.space.schedules,
            vec![ScheduleKind::OneFOneB, ScheduleKind::ZbH1]
        );
        assert_eq!(f.space.arch.len(), 2);
        assert_eq!(f.space.arch[1].hidden, 3072);
        assert_eq!(f.space.arch[0].label, "8L-d4096");
        assert_eq!(f.objective, Some(Objective::PerGpuThroughput));
        assert_eq!(f.top_k, Some(5));
        assert_eq!(f.gpu_memory_gib, Some(80));
    }

    #[test]
    fn underscores_and_dashes_both_work() {
        let f = SpecFile::parse("max_gpus = 8\ntop_k = 3").unwrap();
        assert_eq!(f.space.max_gpus, 8);
        assert_eq!(f.top_k, Some(3));
    }

    #[test]
    fn errors_name_the_line() {
        let e = SpecFile::parse("tp = [1]\nbogus = 3").unwrap_err();
        assert!(e.to_string().contains("line 2"));
        assert!(e.to_string().contains("bogus"));
        assert!(SpecFile::parse("tp = 1,2").is_err());
        assert!(SpecFile::parse("[section]").is_err());
        assert!(SpecFile::parse("objective = fast").is_err());
        assert!(SpecFile::parse("arch = [[1, 2]]").is_err());
    }

    #[test]
    fn unknown_schedule_names_the_known_set() {
        let e = SpecFile::parse("schedules = [\"1f1b\", \"dualpipe\"]").unwrap_err();
        match &e {
            SearchError::Spec(e) => {
                assert_eq!((e.line, e.key.as_deref()), (1, Some("schedules")));
                assert!(e.detail.contains("dualpipe"));
                assert!(e.detail.contains("1f1b"));
                assert!(e.detail.contains("gpipe"));
                assert!(e.detail.contains("zb-h1"));
            }
            other => panic!("expected Spec, got {other:?}"),
        }
        // Unquoted names are a syntax error, not an unknown schedule.
        assert!(matches!(
            SpecFile::parse("schedules = [1f1b]"),
            Err(SearchError::Spec(_))
        ));
    }

    #[test]
    fn comments_respect_strings() {
        let f = SpecFile::parse("objective = \"mfu\" # ranked by utilization").unwrap();
        assert_eq!(f.objective, Some(Objective::Mfu));
    }

    #[test]
    fn empty_file_is_empty_space() {
        let f = SpecFile::parse("\n# nothing\n").unwrap();
        assert!(f.space.tp.is_empty());
        assert_eq!(f.space.max_gpus, 1024);
    }
}
