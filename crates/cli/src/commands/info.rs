//! `lumos info` — summarize a trace: ranks, event counts, makespan,
//! execution breakdown, and the heaviest kernels.

use crate::args::{ArgSet, ArgSpec};
use crate::common::{load_artifact, load_trace, ms, pct};
use crate::error::CliError;
use lumos_bench::table::TextTable;
use lumos_trace::{queue_delays, stream_occupancy, BreakdownExt, TraceStats};
use std::io::Write;

/// Options of `lumos info`.
pub const SPEC: ArgSpec = ArgSpec {
    options: &["top"],
    flags: &[],
};

/// Usage text.
pub const HELP: &str = "lumos info <trace.json | artifact.json> [--top N]\n\
  For a trace: prints its dimensions, the execution-time breakdown\n\
  (§4.2.2), and the N heaviest kernels (default 5).\n\
  For a `lumos calibrate` artifact (detected by its content): prints\n\
  its digest (the `lumos serve` registry key), format version,\n\
  hardware preset, base setup, source-trace fingerprint, and fitted\n\
  table sizes.";

/// Whether `path` looks like a calibration artifact rather than a
/// Chrome trace: a JSON object carrying the artifact's identity
/// fields. The full digest/version validation happens on load.
fn sniff_artifact(path: &str) -> bool {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| has_identity_fields(&text).ok())
        .unwrap_or(false)
}

/// Whether `text` is a JSON object with the artifact's identity
/// fields, checked by walking its top-level keys without building a
/// value tree (a trace can be tens of megabytes).
fn has_identity_fields(text: &str) -> Result<bool, serde_json::Error> {
    const IDENTITY: [&str; 3] = ["version", "digest", "fingerprint"];
    let mut r = serde_json::Reader::new(text);
    let mut found = [false; IDENTITY.len()];
    if r.peek()? == serde_json::Kind::Object {
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            if let Some(i) = IDENTITY.iter().position(|k| *k == key) {
                found[i] = true;
            }
            r.skip()?;
        }
    } else {
        r.skip()?;
    }
    r.end()?;
    Ok(found.iter().all(|&f| f))
}

/// Prints the artifact summary.
fn artifact_info(path: &str, out: &mut dyn Write) -> Result<(), CliError> {
    let artifact = load_artifact(path)?;
    writeln!(out, "calibration artifact")?;
    writeln!(
        out,
        "digest:    {}",
        lumos_calib::digest_hex(artifact.digest)
    )?;
    writeln!(out, "version:   {}", artifact.version)?;
    writeln!(out, "hardware:  {}", artifact.hardware)?;
    writeln!(out, "base:      {}", artifact.setup.label())?;
    writeln!(out, "schedule:  {}", artifact.setup.schedule.name())?;
    writeln!(out)?;
    writeln!(out, "source-trace fingerprint:")?;
    let fp = &artifact.fingerprint;
    writeln!(out, "  events:        {}", fp.events)?;
    writeln!(out, "  ranks:         {}", fp.ranks)?;
    writeln!(out, "  makespan:      {}", ms(fp.makespan))?;
    writeln!(out, "  content hash:  {:#018x}", fp.content_hash)?;
    writeln!(out)?;
    writeln!(
        out,
        "fitted tables: {} compute shapes, {} collective shapes, {} blocks",
        artifact.tables.compute_entries(),
        artifact.tables.collective_entries(),
        artifact.library.len()
    )?;
    Ok(())
}

/// Runs `lumos info`.
///
/// # Errors
///
/// Returns usage, I/O, and parse failures.
pub fn run(args: &ArgSet, out: &mut dyn Write) -> Result<(), CliError> {
    let path = args.one_positional("trace or artifact file")?;
    let top = args.get_num("top", 5usize)?;
    if sniff_artifact(path) {
        return artifact_info(path, out);
    }
    let trace = load_trace(path)?;
    trace.validate()?;

    writeln!(out, "label:     {}", trace.label)?;
    writeln!(out, "ranks:     {}", trace.world_size())?;
    writeln!(out, "events:    {}", trace.total_events())?;
    writeln!(out, "makespan:  {}", ms(trace.makespan()))?;
    // The sidecar (when present) tells us which pipeline schedule the
    // trace was recorded under.
    let sidecar = crate::common::sidecar_path(path);
    if let Ok(setup) = crate::common::load_setup(&sidecar) {
        writeln!(out, "schedule:  {}", setup.schedule.name())?;
    }

    let b = trace.breakdown();
    let total = b.total().as_secs_f64().max(f64::MIN_POSITIVE);
    let share = |d: lumos_trace::Dur| pct(d.as_secs_f64() / total);
    writeln!(out)?;
    writeln!(out, "breakdown (mean across ranks):")?;
    writeln!(
        out,
        "  exposed compute  {:>12}  {:>6}",
        ms(b.exposed_compute),
        share(b.exposed_compute)
    )?;
    writeln!(
        out,
        "  overlapped       {:>12}  {:>6}",
        ms(b.overlapped),
        share(b.overlapped)
    )?;
    writeln!(
        out,
        "  exposed comm     {:>12}  {:>6}",
        ms(b.exposed_comm),
        share(b.exposed_comm)
    )?;
    writeln!(
        out,
        "  other            {:>12}  {:>6}",
        ms(b.other),
        share(b.other)
    )?;

    if let Some(rank0) = trace.ranks().first() {
        let stats = TraceStats::from_trace(rank0);
        let mut table = TextTable::new(&["kernel", "count", "total", "mean"]);
        for (name, k) in stats.top_kernels(top) {
            table.row(vec![
                name.to_string(),
                k.count.to_string(),
                ms(k.total),
                ms(k.mean()),
            ]);
        }
        writeln!(out)?;
        writeln!(out, "top kernels (rank 0):")?;
        writeln!(out, "{}", table.to_text())?;

        if let Some(q) = queue_delays(rank0) {
            writeln!(
                out,
                "launch queue (rank 0): mean {} / p50 {} / p99 {} over {} kernels{}",
                ms(q.mean),
                ms(q.p50),
                ms(q.p99),
                q.count,
                if q.is_launch_bound(lumos_trace::Dur::from_us(10)) {
                    " — launch-bound"
                } else {
                    ""
                }
            )?;
        }
        let occupancy = stream_occupancy(rank0);
        if !occupancy.is_empty() {
            writeln!(out, "stream occupancy (rank 0):")?;
            for s in occupancy {
                writeln!(
                    out,
                    "  stream {:>3}: {:>12} busy ({:>5}), {} kernels",
                    s.stream,
                    ms(s.busy),
                    pct(s.fraction),
                    s.kernels
                )?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::has_identity_fields;

    #[test]
    fn identity_fields_are_found_by_walking_the_top_level() {
        let artifact = r#"{"version":3,"fingerprint":{"events":1},"tables":[1,2],"digest":"0x1"}"#;
        assert!(has_identity_fields(artifact).unwrap());
        // Nested or missing identity fields, and other documents.
        assert!(!has_identity_fields(r#"{"traceEvents":[],"version":1,"digest":"x"}"#).unwrap());
        assert!(!has_identity_fields(r#"{"x":{"version":1,"digest":2,"fingerprint":3}}"#).unwrap());
        assert!(!has_identity_fields(r#"[{"version":1,"digest":2,"fingerprint":3}]"#).unwrap());
        // Malformed JSON anywhere is no artifact.
        assert!(has_identity_fields(&format!("{} x", &artifact)).is_err());
        assert!(has_identity_fields(&artifact.replace("[1,2]", "[1,]")).is_err());
    }
}
