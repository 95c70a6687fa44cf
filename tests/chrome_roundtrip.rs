//! Property tests for the Chrome-Trace-Format (Kineto-style) JSON
//! layer: arbitrary traces must survive export → import losslessly,
//! and replays must be identical through the JSON round trip. The
//! one-pass reader is checked against a reference decoder over a
//! parsed `serde_json::Value` on synthesized traces, random round
//! trips and byte-mutated documents.

use lumos::prelude::*;
use lumos_trace::{
    from_chrome_json, to_chrome_json, ChromeTraceOptions, CollectiveKind, CommMeta,
    CudaRuntimeKind, EventKind, KernelClass, RankId, RankTrace, StreamId, ThreadId, TraceError,
    TraceEvent,
};
use proptest::prelude::*;
use serde_json::Value;
use std::collections::BTreeMap;

fn arb_kernel_class() -> impl Strategy<Value = KernelClass> {
    prop_oneof![
        (1u64..4096, 1u64..4096, 1u64..4096).prop_map(|(m, n, k)| KernelClass::Gemm { m, n, k }),
        (1u64..64, 1u64..4096, 16u64..256).prop_map(|(batch_heads, seq, head_dim)| {
            KernelClass::AttentionFwd {
                batch_heads,
                seq,
                head_dim,
            }
        }),
        (1u64..64, 1u64..8192, 16u64..256).prop_map(|(batch_heads, kv_len, head_dim)| {
            KernelClass::AttentionDecode {
                batch_heads,
                kv_len,
                head_dim,
            }
        }),
        (1u64..1_000_000).prop_map(|elems| KernelClass::Elementwise { elems }),
        (1u64..1_000_000).prop_map(|elems| KernelClass::Norm { elems }),
        (1u64..1_000_000).prop_map(|params| KernelClass::Optimizer { params }),
        (1u64..(1 << 30)).prop_map(|bytes| KernelClass::Memcpy { bytes }),
        Just(KernelClass::Other),
        (0u64..8, 0u32..16, 1u64..(1 << 24)).prop_map(|(group, seq, bytes)| {
            KernelClass::Collective(CommMeta {
                kind: CollectiveKind::AllReduce,
                group,
                seq,
                bytes,
            })
        }),
    ]
}

/// One host op + launch + kernel triple at a random offset, plus an
/// optional annotation / sync event — the building blocks of real
/// Kineto timelines.
fn arb_rank_trace(rank: u32) -> impl Strategy<Value = RankTrace> {
    let triple = (
        0u64..1_000_000,
        1u64..10_000,
        1u64..100_000,
        arb_kernel_class(),
        prop::bool::ANY,
    );
    prop::collection::vec(triple, 1..12).prop_map(move |triples| {
        let tid = ThreadId(1);
        let mut t = RankTrace::new(rank);
        for (i, (ts, host_dur, kernel_dur, class, annotate)) in triples.into_iter().enumerate() {
            let corr = i as u64 + 1;
            let stream = if class.is_comm() {
                StreamId(13)
            } else {
                StreamId(7)
            };
            t.push(TraceEvent::cpu_op("op", Ts(ts), Dur(host_dur), tid));
            t.push(
                TraceEvent::cuda_runtime(
                    CudaRuntimeKind::LaunchKernel,
                    Ts(ts + host_dur),
                    Dur(2_000),
                    tid,
                )
                .with_correlation(corr),
            );
            t.push(
                TraceEvent::kernel(
                    "k",
                    Ts(ts + host_dur + 4_000 + i as u64 * 200_000),
                    Dur(kernel_dur),
                    stream,
                )
                .with_correlation(corr)
                .with_class(class),
            );
            if annotate {
                t.push(TraceEvent::annotation(
                    format!("layer={i} fwd mb=0"),
                    Ts(ts),
                    Dur(host_dur + kernel_dur),
                    tid,
                ));
            }
        }
        t
    })
}

fn arb_cluster() -> impl Strategy<Value = ClusterTrace> {
    prop::collection::vec(Just(()), 1..4).prop_flat_map(|ranks| {
        let strategies: Vec<_> = (0..ranks.len() as u32).map(arb_rank_trace).collect();
        strategies.prop_map(|rank_traces| {
            let mut c = ClusterTrace::new("proptest");
            for r in rank_traces {
                c.push_rank(r);
            }
            c
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Export → import preserves every event of every rank.
    #[test]
    fn chrome_round_trip_lossless(cluster in arb_cluster()) {
        let json = to_chrome_json(&cluster, &ChromeTraceOptions::default());
        let parsed = from_chrome_json(&json).unwrap();
        prop_assert_eq!(parsed.world_size(), cluster.world_size());
        for (a, b) in cluster.ranks().iter().zip(parsed.ranks()) {
            prop_assert_eq!(a.rank(), b.rank());
            let mut ae = a.events().to_vec();
            let mut be = b.events().to_vec();
            let key = |e: &TraceEvent| (e.ts, e.dur, format!("{:?}", e.kind));
            ae.sort_by_key(key);
            be.sort_by_key(key);
            prop_assert_eq!(ae, be);
        }
    }

    /// Kernel classes — including the inference decode class — survive
    /// the args encoding exactly.
    #[test]
    fn kernel_classes_survive_json(class in arb_kernel_class()) {
        let mut r = RankTrace::new(0);
        r.push(
            TraceEvent::cuda_runtime(CudaRuntimeKind::LaunchKernel, Ts(0), Dur(1_000), ThreadId(1))
                .with_correlation(1),
        );
        r.push(
            TraceEvent::kernel("k", Ts(2_000), Dur(5_000), StreamId(7))
                .with_correlation(1)
                .with_class(class),
        );
        let mut c = ClusterTrace::new("classes");
        c.push_rank(r);
        let parsed = from_chrome_json(&to_chrome_json(&c, &ChromeTraceOptions::default())).unwrap();
        let kernel = parsed.ranks()[0]
            .events()
            .iter()
            .find(|e| e.is_gpu())
            .unwrap();
        match kernel.kind {
            EventKind::Kernel { class: parsed_class, .. } => prop_assert_eq!(parsed_class, class),
            _ => prop_assert!(false, "kernel did not survive"),
        }
    }

    /// Replaying a parsed trace gives exactly the same makespan as
    /// replaying the original.
    #[test]
    fn replay_identical_through_json(cluster in arb_cluster()) {
        let direct = Lumos::new().replay(&cluster);
        let json = to_chrome_json(&cluster, &ChromeTraceOptions::default());
        let parsed = from_chrome_json(&json).unwrap();
        let via_json = Lumos::new().replay(&parsed);
        match (direct, via_json) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a.makespan(), b.makespan()),
            (Err(_), Err(_)) => {} // consistent rejection is fine
            (a, b) => prop_assert!(
                false,
                "inconsistent: direct={:?} via_json={:?}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }
}

// ---------------------------------------------------------------- //
// The one-pass reader against a reference decoder
// ---------------------------------------------------------------- //

/// What a reader made of a document: a trace (label and ranks), or the
/// error variant with its field and event index.
#[derive(Debug, PartialEq)]
enum Outcome {
    Trace(String, Vec<(RankId, Vec<TraceEvent>)>),
    Json,
    Malformed(&'static str, usize),
}

fn outcome(result: Result<ClusterTrace, TraceError>) -> Outcome {
    match result {
        Ok(t) => Outcome::Trace(
            t.label.clone(),
            t.ranks()
                .iter()
                .map(|r| (r.rank(), r.events().to_vec()))
                .collect(),
        ),
        Err(TraceError::Json(_)) => Outcome::Json,
        Err(TraceError::MalformedChromeEvent { field, index }) => Outcome::Malformed(field, index),
        Err(e) => panic!("unexpected error kind: {e}"),
    }
}

/// A plain decoder over a parsed `Value`, written from the rules of
/// `from_chrome_json`'s docs: JSON syntax, then shape errors in field
/// order, then the first non-finite `ts`, then conversion in array
/// order.
fn reference(text: &str) -> Outcome {
    use Outcome::{Json, Malformed};
    let Ok(doc) = serde_json::from_str::<Value>(text) else {
        return Json;
    };
    let Some(events) = doc.get("traceEvents").and_then(Value::as_array) else {
        return Json;
    };
    let mut complete = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let Some(ph) = e.get("ph").and_then(Value::as_str) else {
            return Json;
        };
        if ph != "X" {
            continue;
        }
        let Some(name) = e.get("name").and_then(Value::as_str) else {
            return Malformed("name", i);
        };
        let Some(cat) = e.get("cat").and_then(Value::as_str) else {
            return Malformed("cat", i);
        };
        let Some(ts) = e.get("ts").and_then(Value::as_f64) else {
            return Malformed("ts", i);
        };
        let Some(dur) = e.get("dur").and_then(Value::as_f64) else {
            return Malformed("dur", i);
        };
        let Some(pid) = e.get("pid").and_then(Value::as_u64) else {
            return Malformed("pid", i);
        };
        let Some(tid) = e.get("tid").and_then(Value::as_u64) else {
            return Malformed("tid", i);
        };
        complete.push((i, name, cat, ts, dur, pid, tid, e.get("args")));
    }
    for key in ["displayTimeUnit", "lumos_label"] {
        if !matches!(doc.get(key), None | Some(Value::Null | Value::String(_))) {
            return Json;
        }
    }
    if let Some(c) = complete.iter().find(|c| !c.3.is_finite()) {
        return Malformed("ts", c.0);
    }
    let origin = complete.iter().map(|c| c.3).fold(0.0, f64::min);
    let mut ranks: BTreeMap<RankId, Vec<TraceEvent>> = BTreeMap::new();
    for &(i, name, cat, ts, dur, pid, tid, args) in &complete {
        let ns = |us: f64, field| {
            let ns = (us * 1_000.0).round();
            if !ns.is_finite() || ns < 0.0 || ns >= u64::MAX as f64 {
                Err(Malformed(field, i))
            } else {
                Ok(ns as u64)
            }
        };
        let id = |v: u64, field| u32::try_from(v).map_err(|_| Malformed(field, i));
        let arg = |key| args.and_then(|a: &Value| a.get(key));
        let event = (|| {
            let ts = Ts(ns(ts - origin, "ts")?);
            if !dur.is_finite() || dur < 0.0 {
                return Err(Malformed("dur", i));
            }
            let dur = Dur(ns(dur, "dur")?);
            let rank = RankId(id(pid, "pid")?);
            let correlation = arg("correlation").and_then(Value::as_u64).unwrap_or(0);
            let kind = match cat {
                "cpu_op" => EventKind::CpuOp {
                    tid: ThreadId(id(tid, "tid")?),
                },
                "user_annotation" => EventKind::UserAnnotation {
                    tid: ThreadId(id(tid, "tid")?),
                },
                "cuda_runtime" => {
                    let kind = match arg("lumos") {
                        Some(v) => serde_json::from_str(&serde_json::to_string(v).unwrap())
                            .map_err(|_| Json)?,
                        None => runtime_kind_from_name(name),
                    };
                    EventKind::CudaRuntime {
                        tid: ThreadId(id(tid, "tid")?),
                        kind,
                        correlation,
                    }
                }
                "kernel" => {
                    let class = match arg("lumos") {
                        Some(v) => serde_json::from_str(&serde_json::to_string(v).unwrap())
                            .map_err(|_| Json)?,
                        None => KernelClass::Other,
                    };
                    let stream = arg("stream").and_then(Value::as_u64).unwrap_or(tid);
                    EventKind::Kernel {
                        stream: StreamId(id(stream, "stream")?),
                        correlation,
                        class,
                    }
                }
                _ => return Err(Malformed("cat", i)),
            };
            let name = name.into();
            Ok((
                rank,
                TraceEvent {
                    name,
                    kind,
                    ts,
                    dur,
                },
            ))
        })();
        match event {
            Ok((rank, event)) => ranks.entry(rank).or_default().push(event),
            Err(o) => return o,
        }
    }
    let label = doc.get("lumos_label").and_then(Value::as_str).unwrap_or("");
    Outcome::Trace(label.to_string(), ranks.into_iter().collect())
}

/// The runtime kinds raw Kineto names map to.
fn runtime_kind_from_name(name: &str) -> CudaRuntimeKind {
    match name {
        "cudaLaunchKernel" | "cuLaunchKernel" | "cudaLaunchKernelExC" => {
            CudaRuntimeKind::LaunchKernel
        }
        "cudaMemcpyAsync" => CudaRuntimeKind::MemcpyAsync,
        "cudaMemsetAsync" => CudaRuntimeKind::MemsetAsync,
        "cudaDeviceSynchronize" => CudaRuntimeKind::DeviceSynchronize,
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

fn assert_matches_reference(text: &str) -> Outcome {
    let got = outcome(from_chrome_json(text));
    assert_eq!(got, reference(text), "readers differ on {text}");
    got
}

fn ground_truth_json(model: ModelConfig, tp: u32, pp: u32, dp: u32, seed: u64) -> String {
    let setup = TrainingSetup::new(model, Parallelism::new(tp, pp, dp).unwrap());
    let cluster = GroundTruthCluster::new(&setup, AnalyticalCostModel::h100())
        .unwrap()
        .with_jitter(JitterModel::realistic(seed));
    let trace = cluster.profile_iteration(0).unwrap().trace;
    to_chrome_json(&trace, &ChromeTraceOptions::default())
}

/// Every tiny-model layout at tp/pp/dp ∈ {1,2}, and one 15B trace.
#[test]
fn synthesized_traces_match_reference() {
    for tp in [1, 2] {
        for pp in [1, 2] {
            for dp in [1, 2] {
                let json = ground_truth_json(ModelConfig::tiny(), tp, pp, dp, 7);
                let got = assert_matches_reference(&json);
                assert!(matches!(got, Outcome::Trace(..)), "{tp}x{pp}x{dp}: {got:?}");
            }
        }
    }
    let json = ground_truth_json(ModelConfig::gpt3_15b(), 2, 2, 1, 7);
    assert!(matches!(
        assert_matches_reference(&json),
        Outcome::Trace(..)
    ));
}

/// A Kineto-style document exercising the reader's corners: other
/// phases, repeated keys, escapes, mistyped optional members, a
/// negative origin, integral floats as ids.
const KINETO_DOC: &str = r#"{"schemaVersion":1,"deviceProperties":[{"id":0,"name":"H100"}],
"traceEvents":[
{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"python3"}},
{"ph":"X","name":"aten::mm","cat":"cpu_op","ts":-10.5,"dur":20,"pid":0,"tid":1,"args":{"External id":3,"Input Dims":[[8,8],[8,8]]}},
{"ph":"X","name":"cudaLaunchKernel","cat":"cuda_runtime","ts":-8.0,"dur":3.25,"pid":1.0,"tid":1,"args":{"correlation":42,"correlation":43}},
{"ph":"s","id":43,"pid":0,"tid":1,"ts":-8.0,"cat":"ac2g","name":"ac2g"},
{"ph":"X","name":"volta_sgemm","cat":"kernel","ts":30.0,"dur":100.0,"pid":0,"tid":7,"args":{"correlation":43,"stream":"7","lumos":[0,8,8,8]}},
{"ph":"f","id":43,"pid":0,"tid":7,"ts":30.0,"cat":"ac2g","name":"ac2g","bp":"e"},
{"ph":"i","s":"t","name":"Iteration Start","pid":0,"tid":1,"ts":-99.0},
{"ph":"X","name":"fwd","cat":"user_annotation","ts":-10.5,"dur":140.5,"pid":0,"tid":1,"args":null},
{"ph":"X","ph":"X","name":"cudaStreamSynchronize","cat":"cuda_runtime","ts":140,"dur":1e1,"pid":0,"tid":1,"args":7}
],"displayTimeUnit":null,"lumos_label":"kineto \"run\""}"#;

fn small_lumos_doc() -> String {
    let mut cluster = ClusterTrace::new("small");
    for rank in 0..2u32 {
        let mut t = RankTrace::new(rank);
        t.push(TraceEvent::annotation(
            "fwd mb=0",
            Ts(0),
            Dur(9_000),
            ThreadId(1),
        ));
        t.push(TraceEvent::cpu_op(
            "aten::mm",
            Ts(500),
            Dur(1_250),
            ThreadId(1),
        ));
        t.push(
            TraceEvent::cuda_runtime(
                CudaRuntimeKind::LaunchKernel,
                Ts(1_000),
                Dur(300),
                ThreadId(1),
            )
            .with_correlation(1),
        );
        t.push(
            TraceEvent::kernel("sm90_gemm", Ts(1_800), Dur(4_321), StreamId(7))
                .with_correlation(1)
                .with_class(KernelClass::Gemm {
                    m: 64,
                    n: 64,
                    k: 64,
                }),
        );
        t.push(
            TraceEvent::kernel("nccl_ar", Ts(6_500), Dur(2_000), StreamId(13)).with_class(
                KernelClass::Collective(CommMeta {
                    kind: CollectiveKind::AllReduce,
                    group: 3,
                    seq: 0,
                    bytes: 1 << 20,
                }),
            ),
        );
        cluster.push_rank(t);
    }
    to_chrome_json(&cluster, &ChromeTraceOptions::default())
}

#[test]
fn kineto_corners_match_reference() {
    let got = assert_matches_reference(KINETO_DOC);
    let Outcome::Trace(label, ranks) = got else {
        panic!("the Kineto document must parse: {got:?}");
    };
    assert_eq!(label, "kineto \"run\"");
    assert_eq!(ranks.len(), 2, "pid 1.0 is rank 1");
    // The origin is the most negative complete-event `ts` (-10.5 us);
    // the instant at -99 us does not move it.
    assert_eq!(ranks[0].1[0].ts, Ts(0));
}

/// Snippets a mutation may splice in: other phases, mistyped and
/// non-finite values, ids beyond 32 bits, repeated members.
const SNIPPETS: &[&str] = &[
    r#""ph":"M","#,
    r#""ph":"X","#,
    r#""dur":1.5,"#,
    r#""cat":"kernel","#,
    "null",
    r#""x""#,
    "-0",
    "1.0",
    "1e999",
    "-1e999",
    "4294967296",
    "-5.0",
    "1e18",
    "-9e15",
    r#"{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"python3"}},"#,
    r#"{"ph":"s","name":"flow","ts":1,"pid":0,"tid":1,"id":7},"#,
    r#""lumos":[0],"#,
    r#""lumos":null,"#,
    r#""args":5,"#,
    r#""stream":"a","#,
    "[]",
    "{}",
    r#"X"#,
];

/// Applies one mutation at `at` (taken modulo the length).
fn mutate(doc: &mut Vec<u8>, op: u8, at: usize, pick: usize) {
    const BYTES: &[u8] = b"{}[]\":,0123456789-.eE \\Xnt";
    if doc.is_empty() {
        doc.push(b'{');
    }
    let at = at % doc.len();
    let snippet = SNIPPETS[pick % SNIPPETS.len()].as_bytes();
    let after = |doc: &[u8], from: usize, stops: &[u8]| {
        doc[from..]
            .iter()
            .position(|b| stops.contains(b))
            .map_or(doc.len(), |n| from + n)
    };
    match op {
        0 => {
            doc.remove(at);
        }
        1 => doc.insert(at, BYTES[pick % BYTES.len()]),
        2 => doc[at] = BYTES[pick % BYTES.len()],
        3 => {
            // Drop everything up to the next comma: a member or element.
            let end = (after(doc, at, b",") + 1).min(doc.len());
            doc.drain(at..end);
        }
        4 => {
            // Splice a snippet in after a structural byte.
            let at = (after(doc, at, b"{,:") + 1).min(doc.len());
            doc.splice(at..at, snippet.iter().copied());
        }
        5 => {
            // Replace a member's value.
            let colon = after(doc, at, b":");
            if colon < doc.len() {
                let end = after(doc, colon + 1, b",}");
                doc.splice(colon + 1..end, snippet.iter().copied());
            }
        }
        _ => {
            // Move an event to another phase, or back to `X`.
            if let Some(n) = doc[at..].windows(6).position(|w| w == br#""ph":""#) {
                if at + n + 6 < doc.len() {
                    doc[at + n + 6] = b"MsfiX"[pick % 5];
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random traces written by `to_chrome_json` read back the same
    /// through both decoders.
    #[test]
    fn round_trips_match_reference(cluster in arb_cluster()) {
        let json = to_chrome_json(&cluster, &ChromeTraceOptions::default());
        prop_assert!(matches!(assert_matches_reference(&json), Outcome::Trace(..)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// Byte-mutated documents: both decoders give the same trace, or
    /// fail with the same variant, field and event index.
    #[test]
    fn mutated_documents_match_reference(
        kineto in proptest::bool::ANY,
        ops in prop::collection::vec((0u8..7, 0usize..1 << 20, 0usize..64), 1..4),
    ) {
        let base = if kineto { KINETO_DOC.to_string() } else { small_lumos_doc() };
        let mut doc = base.into_bytes();
        for (op, at, pick) in ops {
            mutate(&mut doc, op, at, pick);
        }
        // Mutations can split a multi-byte character; only text is
        // the reader's input.
        if let Ok(text) = String::from_utf8(doc) {
            assert_matches_reference(&text);
        }
    }
}
