//! Chrome Trace Format (Kineto JSON) import and export.
//!
//! PyTorch Kineto writes traces in the Chrome Trace Format: a JSON
//! object with a `traceEvents` array of complete (`"ph": "X"`) events
//! carrying microsecond `ts`/`dur`, a `pid`/`tid` placement, a `cat`
//! category, and free-form `args`. This module writes Lumos traces in
//! that format (viewable in `chrome://tracing` / Perfetto) and reads
//! them back, preserving the structured kernel classification through
//! an `args.lumos` extension field.
//!
//! [`from_chrome_json`] reads a document in one pass over its text,
//! on the vendored `serde_json` pull [`Reader`], without building a
//! value tree: it walks `traceEvents` one object at a time and pushes
//! each complete event straight into its rank's event vector. Names
//! are interned per trace, so each distinct name is allocated once;
//! of `args` only `correlation`, `stream` and the `lumos` extension
//! are read, and `lumos` is kept as a span of the text, decoded once
//! `cat` says what it encodes. Events of every
//! other phase — Kineto's `"M"` metadata, `"s"`/`"f"` flows, `"i"`
//! instants — are checked to be valid JSON and skipped, and keep their
//! place in the event numbering that errors report.

use crate::error::TraceError;
use crate::event::{CudaRuntimeKind, EventKind, KernelClass, TraceEvent};
use crate::time::{Dur, Ts};
use crate::trace::{ClusterTrace, RankId, RankTrace, StreamId, ThreadId};
use serde::{Deserialize, Serialize};
use serde_json::{json, Kind, Number, Reader, Value};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Options controlling Chrome Trace Format export.
#[derive(Debug, Clone)]
pub struct ChromeTraceOptions {
    /// Include the structured `args.lumos` extension so traces
    /// round-trip losslessly (default `true`).
    pub lossless: bool,
}

impl Default for ChromeTraceOptions {
    fn default() -> Self {
        ChromeTraceOptions { lossless: true }
    }
}

#[derive(Serialize)]
struct ChromeEvent {
    ph: String,
    name: String,
    cat: String,
    /// Microseconds (fractional), per the Chrome trace spec.
    ts: f64,
    dur: f64,
    pid: u64,
    tid: u64,
    #[serde(skip_serializing_if = "Option::is_none")]
    args: Option<Value>,
}

#[derive(Serialize)]
struct ChromeDocument {
    #[serde(rename = "traceEvents")]
    trace_events: Vec<ChromeEvent>,
    #[serde(rename = "displayTimeUnit")]
    display_time_unit: Option<String>,
    #[serde(skip_serializing_if = "Option::is_none")]
    lumos_label: Option<String>,
}

const CAT_CPU_OP: &str = "cpu_op";
const CAT_RUNTIME: &str = "cuda_runtime";
const CAT_KERNEL: &str = "kernel";
const CAT_ANNOTATION: &str = "user_annotation";

fn event_to_chrome(rank: RankId, e: &TraceEvent, opts: &ChromeTraceOptions) -> ChromeEvent {
    let (cat, tid, args) = match &e.kind {
        EventKind::CpuOp { tid } => (CAT_CPU_OP, tid.0 as u64, None),
        EventKind::CudaRuntime {
            tid,
            kind,
            correlation,
        } => {
            let mut a = json!({ "correlation": correlation });
            if opts.lossless {
                a["lumos"] = serde_json::to_value(kind).expect("runtime kind serializes");
            }
            (CAT_RUNTIME, tid.0 as u64, Some(a))
        }
        EventKind::Kernel {
            stream,
            correlation,
            class,
        } => {
            let mut a = json!({ "correlation": correlation, "stream": stream.0 });
            if opts.lossless {
                a["lumos"] = serde_json::to_value(class).expect("kernel class serializes");
            }
            (CAT_KERNEL, stream.0 as u64, Some(a))
        }
        EventKind::UserAnnotation { tid } => (CAT_ANNOTATION, tid.0 as u64, None),
    };
    ChromeEvent {
        ph: "X".to_string(),
        name: e.name.to_string(),
        cat: cat.to_string(),
        ts: e.ts.as_us_f64(),
        dur: e.dur.as_us_f64(),
        pid: rank.0 as u64,
        tid,
        args,
    }
}

/// Checked microseconds → nanoseconds conversion: rejects non-finite,
/// negative, and u64-overflowing values instead of silently saturating
/// (`as u64` collapses negative Kineto timestamps to 0 and wraps huge
/// ones, corrupting every downstream interval).
fn ns_from_us(us: f64, field: &'static str, index: usize) -> Result<u64, TraceError> {
    let ns = (us * 1_000.0).round();
    if !ns.is_finite() || ns < 0.0 || ns >= u64::MAX as f64 {
        return Err(TraceError::MalformedChromeEvent { field, index });
    }
    Ok(ns as u64)
}

/// Checked 64-bit → 32-bit id conversion for pid/tid/stream fields.
fn id32(value: u64, field: &'static str, index: usize) -> Result<u32, TraceError> {
    u32::try_from(value).map_err(|_| TraceError::MalformedChromeEvent { field, index })
}

/// A document shape error, reported as [`TraceError::Json`].
fn shape_error(message: String) -> TraceError {
    TraceError::Json(serde_json::Error::new(message))
}

/// Reads a string member, or skips a member of another type (`None`).
fn string_member<'a>(r: &mut Reader<'a>) -> Result<Option<Cow<'a, str>>, serde_json::Error> {
    if r.peek()? == Kind::String {
        r.string().map(Some)
    } else {
        r.skip().map(|()| None)
    }
}

/// Reads a number member, or skips a member of another type (`None`).
fn number_member(r: &mut Reader<'_>) -> Result<Option<Number>, serde_json::Error> {
    if r.peek()? == Kind::Number {
        r.number().map(Some)
    } else {
        r.skip().map(|()| None)
    }
}

/// The members of `args` the reader uses, as they would read from a
/// parsed `args` value: a number that is no `u64` reads as absent,
/// and an `args` that is no object has none of them. `lumos` is the
/// extension's JSON text.
#[derive(Default)]
struct Args<'a> {
    correlation: Option<u64>,
    stream: Option<u64>,
    lumos: Option<&'a str>,
}

impl<'a> Args<'a> {
    fn read(r: &mut Reader<'a>) -> Result<Self, serde_json::Error> {
        let mut args = Args::default();
        if r.peek()? != Kind::Object {
            r.skip()?;
            return Ok(args);
        }
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "correlation" => args.correlation = number_member(r)?.and_then(|n| n.as_u64()),
                "stream" => args.stream = number_member(r)?.and_then(|n| n.as_u64()),
                "lumos" => args.lumos = Some(r.raw()?),
                _ => r.skip()?,
            }
        }
        Ok(args)
    }
}

/// One `traceEvents` element's members. A repeated key keeps its last
/// value, as in a parsed tree; a member of the wrong JSON type reads
/// as `None`, like an absent one.
#[derive(Default)]
struct Members<'a> {
    ph: Option<Cow<'a, str>>,
    name: Option<Cow<'a, str>>,
    cat: Option<Cow<'a, str>>,
    ts: Option<Number>,
    dur: Option<Number>,
    pid: Option<Number>,
    tid: Option<Number>,
    args: Args<'a>,
}

impl<'a> Members<'a> {
    fn read(r: &mut Reader<'a>) -> Result<Self, serde_json::Error> {
        let mut m = Members::default();
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "ph" => m.ph = string_member(r)?,
                "name" => m.name = string_member(r)?,
                "cat" => m.cat = string_member(r)?,
                "ts" => m.ts = number_member(r)?,
                "dur" => m.dur = number_member(r)?,
                "pid" => m.pid = number_member(r)?,
                "tid" => m.tid = number_member(r)?,
                "args" => m.args = Args::read(r)?,
                _ => r.skip()?,
            }
        }
        Ok(m)
    }

    /// The complete event these members describe, or the first
    /// required field (in this order) that is missing or mistyped.
    fn complete(self) -> Result<Complete<'a>, &'static str> {
        Ok(Complete {
            name: self.name.ok_or("name")?,
            cat: self.cat.ok_or("cat")?,
            ts: self.ts.ok_or("ts")?.as_f64(),
            dur: self.dur.ok_or("dur")?.as_f64(),
            pid: self.pid.and_then(|n| n.as_u64()).ok_or("pid")?,
            tid: self.tid.and_then(|n| n.as_u64()).ok_or("tid")?,
            args: self.args,
        })
    }
}

/// A complete (`"ph": "X"`) event with every required field.
struct Complete<'a> {
    name: Cow<'a, str>,
    cat: Cow<'a, str>,
    /// Microseconds, not yet shifted to the document origin.
    ts: f64,
    dur: f64,
    pid: u64,
    tid: u64,
    args: Args<'a>,
}

impl Complete<'_> {
    /// Everything of the event but its name and timestamp, checked in
    /// the order its errors rank: `dur`, `pid`, then by category (a
    /// runtime call's or kernel's `args.lumos` before its `tid` or
    /// stream).
    fn convert(&self, index: usize) -> Result<(RankId, EventKind, Dur), TraceError> {
        if !self.dur.is_finite() || self.dur < 0.0 {
            return Err(TraceError::MalformedChromeEvent {
                field: "dur",
                index,
            });
        }
        let dur = Dur(ns_from_us(self.dur, "dur", index)?);
        let rank = RankId(id32(self.pid, "pid", index)?);
        let correlation = self.args.correlation.unwrap_or(0);
        let kind = match &*self.cat {
            CAT_CPU_OP => EventKind::CpuOp {
                tid: ThreadId(id32(self.tid, "tid", index)?),
            },
            CAT_ANNOTATION => EventKind::UserAnnotation {
                tid: ThreadId(id32(self.tid, "tid", index)?),
            },
            CAT_RUNTIME => {
                let kind = match self.args.lumos {
                    Some(text) => CudaRuntimeKind::deserialize(&mut Reader::new(text))?,
                    None => runtime_kind_from_name(&self.name),
                };
                EventKind::CudaRuntime {
                    tid: ThreadId(id32(self.tid, "tid", index)?),
                    kind,
                    correlation,
                }
            }
            CAT_KERNEL => {
                let class = match self.args.lumos {
                    Some(text) => KernelClass::deserialize(&mut Reader::new(text))?,
                    None => KernelClass::Other,
                };
                EventKind::Kernel {
                    stream: StreamId(id32(self.args.stream.unwrap_or(self.tid), "stream", index)?),
                    correlation,
                    class,
                }
            }
            _ => {
                return Err(TraceError::MalformedChromeEvent {
                    field: "cat",
                    index,
                })
            }
        };
        Ok((rank, kind, dur))
    }
}

/// One rank's events as read, each with its raw `ts` (µs) and array
/// index beside it until the document origin is known.
struct PendingRank {
    trace: RankTrace,
    ts_us: Vec<(f64, usize)>,
}

/// What the pass over a `traceEvents` array found. The recorded errors
/// rank in field order: `shape`, then `non_finite`, then the first
/// `ts` overflow (known only once `origin_us` is), then `failed`.
#[derive(Default)]
struct Events {
    /// Each rank's events so far, in rank order.
    ranks: BTreeMap<RankId, PendingRank>,
    /// One shared copy of each distinct event name.
    names: HashSet<Arc<str>>,
    /// The first element that is not an object, has no string `ph`, or
    /// is a complete event missing a required field.
    shape: Option<TraceError>,
    /// The first complete event whose `ts` is not finite.
    non_finite: Option<usize>,
    /// The first complete event that failed to convert, with its raw
    /// `ts`, whose own overflow would outrank the failure.
    failed: Option<(usize, f64, TraceError)>,
    /// The smallest complete-event `ts` if it is negative, else 0.
    origin_us: f64,
}

impl Events {
    fn read(r: &mut Reader<'_>) -> Result<Self, serde_json::Error> {
        let mut events = Events::default();
        r.begin_array()?;
        let mut index = 0;
        while r.next_element()? {
            events.element(r, index)?;
            index += 1;
        }
        Ok(events)
    }

    /// Reads element `index`. Past a shape error the rest of the array
    /// is only validated.
    fn element(&mut self, r: &mut Reader<'_>, index: usize) -> Result<(), serde_json::Error> {
        if self.shape.is_some() {
            return r.skip();
        }
        if r.peek()? != Kind::Object {
            r.skip()?;
            self.shape = Some(shape_error(format!(
                "chrome trace event #{index} is not an object"
            )));
            return Ok(());
        }
        let members = Members::read(r)?;
        match members.ph.as_deref() {
            None => {
                self.shape = Some(shape_error(format!(
                    "chrome trace event #{index} has no string `ph`"
                )))
            }
            Some("X") => match members.complete() {
                Ok(event) => self.complete(event, index),
                Err(field) => self.shape = Some(TraceError::MalformedChromeEvent { field, index }),
            },
            Some(_) => {}
        }
        Ok(())
    }

    /// Records complete event `index`: its `ts` towards the origin, and
    /// the event itself (timestamp pending) into its rank's vector.
    fn complete(&mut self, event: Complete<'_>, index: usize) {
        if !event.ts.is_finite() {
            self.non_finite.get_or_insert(index);
            return;
        }
        self.origin_us = self.origin_us.min(event.ts);
        // Past an error nothing more is built: only the ranking of the
        // errors found so far can still change.
        if self.non_finite.is_some() || self.failed.is_some() {
            return;
        }
        let (rank, kind, dur) = match event.convert(index) {
            Ok(converted) => converted,
            Err(e) => {
                self.failed = Some((index, event.ts, e));
                return;
            }
        };
        let name = match self.names.get(&*event.name) {
            Some(name) => name.clone(),
            None => {
                let name: Arc<str> = Arc::from(&*event.name);
                self.names.insert(name.clone());
                name
            }
        };
        let pending = self.ranks.entry(rank).or_insert_with(|| PendingRank {
            trace: RankTrace::new(rank),
            ts_us: Vec::new(),
        });
        pending.trace.push(TraceEvent {
            name,
            kind,
            ts: Ts(0),
            dur,
        });
        pending.ts_us.push((event.ts, index));
    }

    /// Ranks the errors that remain after the shape errors, shifts
    /// every timestamp by the document origin, and assembles the
    /// ranks in id order.
    fn finish(mut self, label: String) -> Result<ClusterTrace, TraceError> {
        if let Some(index) = self.non_finite {
            return Err(TraceError::MalformedChromeEvent { field: "ts", index });
        }
        let origin = self.origin_us;
        let mut overflow: Option<usize> = None;
        for pending in self.ranks.values_mut() {
            let events = pending.trace.events_mut();
            for (event, &(us, index)) in events.iter_mut().zip(&pending.ts_us) {
                match ns_from_us(us - origin, "ts", index) {
                    Ok(ns) => event.ts = Ts(ns),
                    Err(_) => {
                        // A rank's events are in array order, so its
                        // first overflow is its earliest.
                        overflow = Some(overflow.map_or(index, |o| o.min(index)));
                        break;
                    }
                }
            }
        }
        if let Some(index) = overflow {
            return Err(TraceError::MalformedChromeEvent { field: "ts", index });
        }
        if let Some((index, us, e)) = self.failed {
            ns_from_us(us - origin, "ts", index)?;
            return Err(e);
        }
        let mut cluster = ClusterTrace::new(label);
        for pending in self.ranks.into_values() {
            cluster.push_rank(pending.trace);
        }
        Ok(cluster)
    }
}

/// Best-effort mapping from a Kineto runtime event name to a
/// structured kind, for traces produced by real Kineto (no `lumos`
/// extension args).
fn runtime_kind_from_name(name: &str) -> CudaRuntimeKind {
    match name {
        "cudaLaunchKernel" | "cuLaunchKernel" | "cudaLaunchKernelExC" => {
            CudaRuntimeKind::LaunchKernel
        }
        "cudaMemcpyAsync" => CudaRuntimeKind::MemcpyAsync,
        "cudaMemsetAsync" => CudaRuntimeKind::MemsetAsync,
        "cudaDeviceSynchronize" => CudaRuntimeKind::DeviceSynchronize,
        // Stream/event ids are not recoverable from the name alone;
        // importers of raw Kineto traces must reconstruct them from
        // args when available.
        "cudaStreamSynchronize" => CudaRuntimeKind::StreamSynchronize {
            stream: StreamId(0),
        },
        "cudaEventRecord" => CudaRuntimeKind::EventRecord {
            event: 0,
            stream: StreamId(0),
        },
        "cudaStreamWaitEvent" => CudaRuntimeKind::StreamWaitEvent {
            stream: StreamId(0),
            event: 0,
        },
        "cudaEventSynchronize" => CudaRuntimeKind::EventSynchronize { event: 0 },
        _ => CudaRuntimeKind::Other,
    }
}

/// Serializes a cluster trace to Chrome Trace Format JSON.
///
/// Every rank's events share one `traceEvents` array, distinguished by
/// `pid`. The output loads in `chrome://tracing` and Perfetto.
pub fn to_chrome_json(trace: &ClusterTrace, opts: &ChromeTraceOptions) -> String {
    let mut events = Vec::with_capacity(trace.total_events());
    for rank_trace in trace.ranks() {
        for e in rank_trace.events() {
            events.push(event_to_chrome(rank_trace.rank(), e, opts));
        }
    }
    let doc = ChromeDocument {
        trace_events: events,
        display_time_unit: Some("ms".to_string()),
        lumos_label: Some(trace.label.clone()),
    };
    serde_json::to_string(&doc).expect("chrome document serializes")
}

/// Parses Chrome Trace Format JSON into a cluster trace, in one pass
/// over the text (see the module docs).
///
/// Accepts both Lumos-written traces (lossless) and raw Kineto traces
/// (kernel classes default to [`KernelClass::Other`], runtime kinds
/// are inferred from API names). Only complete (`"ph": "X"`) events
/// are read; events of other phases only need to be valid JSON with a
/// string `ph`. Documents whose minimum timestamp is negative — real
/// Kineto clocks can start below the capture origin — are normalized
/// by that minimum, preserving every inter-event interval; documents
/// that already start at or above zero parse unchanged. Numbers keep
/// the meaning they have in a parsed [`Value`]: a `pid` of `1.0` is
/// rank 1, and `-0` is no `u64`.
///
/// # Errors
///
/// Event numbers count every element of `traceEvents`, whatever its
/// phase. The first error found in this order is returned:
///
/// 1. [`TraceError::Json`] for a JSON syntax error anywhere;
/// 2. shape errors, in document field order: [`TraceError::Json`] for
///    a document that is not an object or has no `traceEvents` array;
///    then for each `traceEvents` element in turn, [`TraceError::Json`]
///    if it is not an object or has no string `ph`, and
///    [`TraceError::MalformedChromeEvent`] naming the first of `name`,
///    `cat` (strings), `ts`, `dur` (numbers), `pid`, `tid` (`u64`s)
///    that a complete event lacks or mistypes; then
///    [`TraceError::Json`] for a `displayTimeUnit` or `lumos_label`
///    that is neither a string nor `null`;
/// 3. [`TraceError::MalformedChromeEvent`] for the first complete
///    event whose `ts` is not finite;
/// 4. per-event conversion errors, in array order and within an event
///    in this order: `ts` overflowing once shifted to the document
///    origin, a negative, non-finite or overflowing `dur`, a `pid`
///    beyond 32 bits, then by category — an unknown `cat`, a CPU op's
///    or annotation's `tid` beyond 32 bits, a runtime call's
///    `args.lumos` that does not decode ([`TraceError::Json`]) or its
///    `tid`, a kernel's `args.lumos` or its stream (`args.stream`,
///    else `tid`) beyond 32 bits.
pub fn from_chrome_json(json_text: &str) -> Result<ClusterTrace, TraceError> {
    let mut r = Reader::new(json_text);
    // A syntax error anywhere outranks every shape error, so shape
    // errors are recorded while the whole text is read. A repeated
    // key keeps its last value, as in a parsed tree.
    let mut events = Err("missing field `traceEvents`");
    // `null` reads as absent; a member of another type is a shape error.
    let mut time_unit: Option<Result<Option<String>, _>> = None;
    let mut label: Option<Result<Option<String>, _>> = None;
    let is_object = r.peek()? == Kind::Object;
    if is_object {
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "traceEvents" if r.peek()? == Kind::Array => events = Ok(Events::read(&mut r)?),
                "traceEvents" => {
                    r.skip()?;
                    events = Err("`traceEvents` is not an array");
                }
                "displayTimeUnit" => serde::de::member(&mut r, &mut time_unit)?,
                "lumos_label" => serde::de::member(&mut r, &mut label)?,
                _ => r.skip()?,
            }
        }
    } else {
        r.skip()?;
    }
    r.end()?;
    if !is_object {
        return Err(shape_error("a Chrome trace must be a JSON object".into()));
    }
    let mut events = events.map_err(|message| shape_error(message.into()))?;
    if let Some(e) = events.shape.take() {
        return Err(e);
    }
    serde::de::field(time_unit, "displayTimeUnit", || Ok(None))?;
    let label = serde::de::field(label, "lumos_label", || Ok(None))?;
    events.finish(label.unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CollectiveKind, CommMeta};

    fn sample_cluster() -> ClusterTrace {
        let mut cluster = ClusterTrace::new("unit-test");
        for rank in 0..2u32 {
            let mut t = RankTrace::new(rank);
            t.push(TraceEvent::cpu_op(
                "aten::mm",
                Ts(1_000),
                Dur(500),
                ThreadId(1),
            ));
            t.push(
                TraceEvent::cuda_runtime(
                    CudaRuntimeKind::LaunchKernel,
                    Ts(1_200),
                    Dur(300),
                    ThreadId(1),
                )
                .with_correlation(7),
            );
            t.push(
                TraceEvent::kernel("sm90_gemm", Ts(2_000), Dur(10_000), StreamId(7))
                    .with_correlation(7)
                    .with_class(KernelClass::Gemm {
                        m: 64,
                        n: 64,
                        k: 64,
                    }),
            );
            t.push(
                TraceEvent::kernel("nccl_ar", Ts(15_000), Dur(5_000), StreamId(13)).with_class(
                    KernelClass::Collective(CommMeta {
                        kind: CollectiveKind::AllReduce,
                        group: 3,
                        seq: 1,
                        bytes: 1 << 20,
                    }),
                ),
            );
            t.push(TraceEvent::annotation(
                "fwd mb=0",
                Ts(900),
                Dur(12_000),
                ThreadId(1),
            ));
            cluster.push_rank(t);
        }
        cluster
    }

    #[test]
    fn round_trip_lossless() {
        let original = sample_cluster();
        let json = to_chrome_json(&original, &ChromeTraceOptions::default());
        let parsed = from_chrome_json(&json).expect("parse back");
        assert_eq!(parsed.label, original.label);
        assert_eq!(parsed.world_size(), original.world_size());
        for (a, b) in original.ranks().iter().zip(parsed.ranks()) {
            assert_eq!(a.rank(), b.rank());
            assert_eq!(a.events(), b.events());
        }
    }

    #[test]
    fn kineto_style_trace_parses() {
        // A trace as real Kineto would emit it: no lumos args.
        let json = r#"{
            "traceEvents": [
                {"ph":"X","name":"aten::linear","cat":"cpu_op","ts":10.5,"dur":20.0,"pid":0,"tid":1},
                {"ph":"X","name":"cudaLaunchKernel","cat":"cuda_runtime","ts":12.0,"dur":3.0,"pid":0,"tid":1,"args":{"correlation":42}},
                {"ph":"X","name":"volta_sgemm","cat":"kernel","ts":30.0,"dur":100.0,"pid":0,"tid":7,"args":{"correlation":42,"stream":7}},
                {"ph":"M","name":"process_name","cat":"__metadata","ts":0,"dur":0,"pid":0,"tid":0}
            ]
        }"#;
        let parsed = from_chrome_json(json).expect("kineto parse");
        assert_eq!(parsed.world_size(), 1);
        let t = parsed.rank(RankId(0)).unwrap();
        assert_eq!(t.len(), 3); // metadata event skipped
        let kernel = t.kernels().next().unwrap();
        assert_eq!(kernel.kind.stream(), Some(StreamId(7)));
        assert_eq!(kernel.kind.correlation(), Some(42));
        assert_eq!(kernel.ts, Ts(30_000));
        assert_eq!(kernel.dur, Dur(100_000));
    }

    #[test]
    fn other_phases_are_skipped() {
        // Kineto's own shapes: `M` metadata without `cat` or `dur`,
        // flow `s`/`f` and instant `i` events without `dur`, one with
        // a timestamp below every complete event's.
        let complete = [
            r#"{"ph":"X","name":"aten::mm","cat":"cpu_op","ts":10.0,"dur":5.0,"pid":0,"tid":1}"#,
            r#"{"ph":"X","name":"cudaLaunchKernel","cat":"cuda_runtime","ts":12.0,"dur":1.0,"pid":0,"tid":1,"args":{"correlation":3}}"#,
            r#"{"ph":"X","name":"sgemm","cat":"kernel","ts":14.0,"dur":20.0,"pid":0,"tid":7,"args":{"correlation":3,"stream":7}}"#,
        ];
        let others = [
            r#"{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"python3"}}"#,
            r#"{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"main"}}"#,
            r#"{"ph":"s","id":3,"pid":0,"tid":1,"ts":12.0,"cat":"ac2g","name":"ac2g"}"#,
            r#"{"ph":"f","id":3,"pid":0,"tid":7,"ts":14.0,"cat":"ac2g","name":"ac2g","bp":"e"}"#,
            r#"{"ph":"i","s":"t","name":"Iteration Start","pid":0,"tid":1,"ts":-100.0}"#,
        ];
        let doc = |events: &[&str]| format!(r#"{{"traceEvents":[{}]}}"#, events.join(","));
        let plain = from_chrome_json(&doc(&complete)).unwrap();
        let mixed = [
            others[0],
            others[1],
            complete[0],
            others[2],
            complete[1],
            others[4],
            others[3],
            complete[2],
        ];
        let parsed = from_chrome_json(&doc(&mixed)).expect("other phases are skipped");
        assert_eq!(parsed.world_size(), plain.world_size());
        for (a, b) in plain.ranks().iter().zip(parsed.ranks()) {
            assert_eq!(a.rank(), b.rank());
            assert_eq!(a.events(), b.events());
        }
        assert_eq!(parsed.ranks()[0].events()[0].ts, Ts(10_000));
    }

    #[test]
    fn missing_or_mistyped_fields_name_field_and_index() {
        // Indices count every element, whatever its phase.
        let fields = [
            ("name", r#""name":"x""#, "5"),
            ("cat", r#""cat":"cpu_op""#, "null"),
            ("ts", r#""ts":1"#, r#""1""#),
            ("dur", r#""dur":1"#, "[]"),
            ("pid", r#""pid":0"#, "-1"),
            ("tid", r#""tid":0"#, "0.5"),
        ];
        let all: Vec<&str> = fields.iter().map(|f| f.1).collect();
        for (i, &(field, member, mistyped)) in fields.iter().enumerate() {
            let key = member.split(':').next().unwrap();
            let without: Vec<&str> = all.iter().copied().filter(|m| *m != member).collect();
            let mut with_bad = all.clone();
            let bad = format!("{key}:{mistyped}");
            with_bad[i] = &bad;
            for members in [without, with_bad] {
                let json = format!(
                    r#"{{"traceEvents":[{{"ph":"M","name":"process_name","pid":0}},{{"ph":"X",{}}}]}}"#,
                    members.join(",")
                );
                match from_chrome_json(&json) {
                    Err(TraceError::MalformedChromeEvent { field: f, index: 1 }) => {
                        assert_eq!(f, field, "{json}")
                    }
                    other => panic!("expected `{field}` at #1 for {json}, got {other:?}"),
                }
            }
        }
        let err = from_chrome_json(
            r#"{"traceEvents":[{"ph":"X","name":"x","cat":"cpu_op","ts":0,"pid":0,"tid":0}]}"#,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("#0") && err.contains("`dur`"), "{err}");
    }

    #[test]
    fn errors_rank_syntax_then_shape_then_ts_then_conversion() {
        let event = |i: usize, rest: &str| {
            format!(
                r#"{{"ph":"X","name":"e{i}","cat":"cpu_op","ts":{i},"dur":1,"pid":0,"tid":0{rest}}}"#
            )
        };
        let doc = |events: &[String]| format!(r#"{{"traceEvents":[{}]}}"#, events.join(","));
        let malformed = |json: &str| match from_chrome_json(json) {
            Err(TraceError::MalformedChromeEvent { field, index }) => (field, index),
            other => panic!("expected a malformed event for {json}, got {other:?}"),
        };
        // A syntax error after a missing field wins.
        let missing = r#"{"ph":"X","name":"x","cat":"cpu_op","ts":0,"pid":0,"tid":0}"#.to_string();
        let json = doc(&[missing.clone(), event(1, "")]);
        assert_eq!(malformed(&json), ("dur", 0));
        assert!(matches!(
            from_chrome_json(&format!("{json} x")),
            Err(TraceError::Json(_))
        ));
        // A missing field wins over an earlier non-finite `ts`, which
        // wins over an earlier conversion error.
        let mystery = event(0, "").replace("cpu_op", "mystery");
        let infinite = event(1, "").replace(r#""ts":1"#, r#""ts":1e999"#);
        assert_eq!(
            malformed(&doc(&[mystery.clone(), infinite.clone(), missing])),
            ("dur", 2)
        );
        assert_eq!(malformed(&doc(&[mystery.clone(), infinite])), ("ts", 1));
        assert_eq!(malformed(&doc(std::slice::from_ref(&mystery))), ("cat", 0));
        // An event's `ts` overflow outranks its other conversion errors
        // even when only a later event's negative `ts` moves the origin
        // far enough: 1e16 us - (-9e15 us) overflows u64 nanoseconds.
        let late_origin = event(1, "").replace(r#""ts":1"#, r#""ts":-9e15"#);
        let far = mystery.replace(r#""ts":0"#, r#""ts":1e16"#);
        assert_eq!(malformed(&doc(std::slice::from_ref(&far))), ("cat", 0));
        assert_eq!(malformed(&doc(&[far, late_origin])), ("ts", 0));
    }

    #[test]
    fn unknown_category_is_error() {
        let json = r#"{"traceEvents":[
            {"ph":"X","name":"x","cat":"mystery","ts":0,"dur":1,"pid":0,"tid":0}
        ]}"#;
        assert!(matches!(
            from_chrome_json(json),
            Err(TraceError::MalformedChromeEvent { field: "cat", .. })
        ));
    }

    #[test]
    fn malformed_json_is_error() {
        assert!(matches!(
            from_chrome_json("not json"),
            Err(TraceError::Json(_))
        ));
    }

    #[test]
    fn negative_timestamps_normalize_to_document_origin() {
        // Real Kineto clocks can start below zero; `ts as u64` used to
        // collapse those events to 0. The document is shifted by its
        // (negative) minimum so all intervals survive.
        let json = r#"{"traceEvents":[
            {"ph":"X","name":"early","cat":"cpu_op","ts":-50.0,"dur":5.0,"pid":0,"tid":1},
            {"ph":"X","name":"late","cat":"cpu_op","ts":10.0,"dur":5.0,"pid":0,"tid":1}
        ]}"#;
        let parsed = from_chrome_json(json).expect("negative ts parses");
        let t = parsed.rank(RankId(0)).unwrap();
        let ts: Vec<Ts> = t.events().iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![Ts(0), Ts(60_000)]); // 60 us apart, origin at 0
        assert!(t.events().iter().all(|e| e.dur == Dur(5_000)));
    }

    #[test]
    fn non_negative_documents_are_not_shifted() {
        let json = r#"{"traceEvents":[
            {"ph":"X","name":"op","cat":"cpu_op","ts":10.0,"dur":1.0,"pid":0,"tid":1}
        ]}"#;
        let parsed = from_chrome_json(json).unwrap();
        assert_eq!(parsed.rank(RankId(0)).unwrap().events()[0].ts, Ts(10_000));
    }

    #[test]
    fn overflowing_ids_are_typed_errors() {
        // pid / tid / stream beyond u32 must not wrap via `as u32`.
        for (json, field) in [
            (
                r#"{"traceEvents":[{"ph":"X","name":"x","cat":"cpu_op","ts":0,"dur":1,"pid":4294967296,"tid":0}]}"#,
                "pid",
            ),
            (
                r#"{"traceEvents":[{"ph":"X","name":"x","cat":"cpu_op","ts":0,"dur":1,"pid":0,"tid":4294967296}]}"#,
                "tid",
            ),
            (
                r#"{"traceEvents":[{"ph":"X","name":"k","cat":"kernel","ts":0,"dur":1,"pid":0,"tid":0,"args":{"stream":4294967296}}]}"#,
                "stream",
            ),
            (
                // Stream falls back to tid when args are missing; the
                // fallback must be checked too.
                r#"{"traceEvents":[{"ph":"X","name":"k","cat":"kernel","ts":0,"dur":1,"pid":0,"tid":4294967296}]}"#,
                "stream",
            ),
        ] {
            match from_chrome_json(json) {
                Err(TraceError::MalformedChromeEvent { field: f, index: 0 }) => {
                    assert_eq!(f, field, "wrong field for {json}")
                }
                other => panic!("expected MalformedChromeEvent({field}), got {other:?}"),
            }
        }
    }

    #[test]
    fn overflowing_and_negative_times_are_typed_errors() {
        // 1e18 us = 1e21 ns overflows u64; negative dur is nonsense
        // for a complete ("X") event.
        for (json, field) in [
            (
                r#"{"traceEvents":[{"ph":"X","name":"x","cat":"cpu_op","ts":1e18,"dur":1,"pid":0,"tid":0}]}"#,
                "ts",
            ),
            (
                r#"{"traceEvents":[{"ph":"X","name":"x","cat":"cpu_op","ts":0,"dur":-3.0,"pid":0,"tid":0}]}"#,
                "dur",
            ),
            (
                r#"{"traceEvents":[{"ph":"X","name":"x","cat":"cpu_op","ts":0,"dur":1e18,"pid":0,"tid":0}]}"#,
                "dur",
            ),
        ] {
            match from_chrome_json(json) {
                Err(TraceError::MalformedChromeEvent { field: f, .. }) => {
                    assert_eq!(f, field, "wrong field for {json}")
                }
                other => panic!("expected MalformedChromeEvent({field}), got {other:?}"),
            }
        }
    }

    #[test]
    fn runtime_name_inference() {
        assert_eq!(
            runtime_kind_from_name("cudaLaunchKernel"),
            CudaRuntimeKind::LaunchKernel
        );
        assert!(matches!(
            runtime_kind_from_name("cudaStreamSynchronize"),
            CudaRuntimeKind::StreamSynchronize { .. }
        ));
        assert_eq!(
            runtime_kind_from_name("cudaFuncGetAttributes"),
            CudaRuntimeKind::Other
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_event() -> impl Strategy<Value = TraceEvent> {
        let name = prop_oneof![
            Just("aten::mm"),
            Just("aten::layer_norm"),
            Just("ncclDevKernel_AllReduce_Sum"),
            Just("fused_adam"),
        ];
        (
            name,
            0u64..1_000_000,
            0u64..10_000,
            0u32..4,
            prop_oneof![Just(0u8), Just(1), Just(2), Just(3)],
        )
            .prop_map(|(name, ts, dur, id, kind)| {
                let (ts, dur) = (Ts(ts * 1000), Dur(dur * 1000));
                match kind {
                    0 => TraceEvent::cpu_op(name, ts, dur, ThreadId(id)),
                    1 => TraceEvent::cuda_runtime(
                        CudaRuntimeKind::LaunchKernel,
                        ts,
                        dur,
                        ThreadId(id),
                    )
                    .with_correlation(id as u64 + 1),
                    2 => TraceEvent::kernel(name, ts, dur, StreamId(id))
                        .with_correlation(id as u64 + 1)
                        .with_class(KernelClass::Gemm { m: 8, n: 16, k: 32 }),
                    _ => TraceEvent::annotation(name, ts, dur, ThreadId(id)),
                }
            })
    }

    proptest! {
        /// Raw Kineto-style ingestion (no lumos args) over adversarial
        /// inputs: negative timestamps, ids beyond u32, missing args.
        /// Parsing must never panic; in-range documents preserve every
        /// interval relative to the (possibly negative) document
        /// origin, out-of-range ids fail with a typed error.
        #[test]
        fn raw_ingestion_is_panic_free_and_interval_preserving(
            events in proptest::collection::vec(
                (
                    -1_000_000i64..1_000_000,
                    0u64..10_000,
                    proptest::prelude::prop_oneof![0u64..16, Just(u32::MAX as u64 + 7)],
                    0u8..3,
                    proptest::bool::ANY,
                ),
                1..40,
            )
        ) {
            let mut json_events = Vec::new();
            for &(ts, dur, id, kind, with_args) in &events {
                let (cat, name) = match kind {
                    0 => ("cpu_op", "aten::mm"),
                    1 => ("cuda_runtime", "cudaLaunchKernel"),
                    _ => ("kernel", "volta_sgemm"),
                };
                let mut ev = json!({
                    "ph": "X", "name": name, "cat": cat,
                    "ts": ts as f64, "dur": dur as f64,
                    "pid": 0, "tid": id,
                });
                if with_args {
                    ev["args"] = json!({ "correlation": 1 });
                }
                json_events.push(ev);
            }
            let doc = serde_json::to_string(&json!({ "traceEvents": json_events }))
                .expect("document serializes");
            let any_big = events.iter().any(|&(_, _, id, _, _)| id > u32::MAX as u64);
            match from_chrome_json(&doc) {
                Ok(trace) => {
                    prop_assert!(!any_big, "oversized id must not parse");
                    let parsed = trace.rank(RankId(0)).unwrap();
                    prop_assert_eq!(parsed.len(), events.len());
                    let origin = events.iter().map(|e| e.0).min().unwrap().min(0);
                    for (e, &(ts, dur, _, _, _)) in parsed.events().iter().zip(&events) {
                        prop_assert_eq!(e.ts.as_ns(), (ts - origin) as u64 * 1_000);
                        prop_assert_eq!(e.dur.as_ns(), dur * 1_000);
                    }
                }
                Err(TraceError::MalformedChromeEvent { field, .. }) => {
                    prop_assert!(any_big, "spurious malformed-event error on `{}`", field);
                    prop_assert!(field == "tid" || field == "stream");
                }
                Err(e) => {
                    return Err(proptest::test_runner::TestCaseError::fail(
                        format!("unexpected error kind: {e}"),
                    ));
                }
            }
        }

        #[test]
        fn chrome_round_trip(events in proptest::collection::vec(arb_event(), 0..50)) {
            let mut t = RankTrace::new(0);
            for e in events {
                t.push(e);
            }
            let mut cluster = ClusterTrace::new("prop");
            cluster.push_rank(t);
            let json = to_chrome_json(&cluster, &ChromeTraceOptions::default());
            let parsed = from_chrome_json(&json).unwrap();
            if cluster.ranks()[0].is_empty() {
                // An empty rank emits no events, so it cannot be
                // reconstructed from the event stream.
                prop_assert_eq!(parsed.world_size(), 0);
            } else {
                prop_assert_eq!(parsed.world_size(), 1);
                prop_assert_eq!(parsed.ranks()[0].events(), cluster.ranks()[0].events());
            }
        }
    }
}
