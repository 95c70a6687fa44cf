//! The decode error of every shape a JSON input can be read into,
//! pinned message for message: each derived shape the vendored
//! `serde_derive` generates, and each hand-written decoder an artifact
//! reaches (the trace events' compact arrays, `ScheduleKind`, and the
//! lookup tables' accumulators). Faults covered: wrong kind, missing
//! field, unknown key, unknown variant, out-of-range integer, and a
//! truncated document. Where one input has two faults, a struct names
//! its first declared field that fails, and an array its first fault
//! in document order.

use lumos_cost::LookupTables;
use lumos_model::ScheduleKind;
use lumos_trace::{from_chrome_json, CudaRuntimeKind, KernelClass, TraceEvent};
use serde::Deserialize;
use std::collections::HashMap;

#[allow(dead_code)]
#[derive(Deserialize)]
struct Plain {
    a: u32,
    b: String,
    c: Vec<i64>,
    d: f64,
}

#[allow(dead_code)]
#[derive(Deserialize)]
#[serde(deny_unknown_fields)]
struct Strict {
    n: u8,
    flag: bool,
    #[serde(skip)]
    hidden: u32,
}

#[allow(dead_code)]
#[derive(Deserialize)]
enum Shape {
    Unit,
    Newtype(u16),
    Struct { w: u32, h: Option<u32> },
}

#[allow(dead_code)]
#[derive(Deserialize)]
#[serde(deny_unknown_fields)]
enum StrictShape {
    Struct { w: u32 },
}

#[allow(dead_code)]
#[derive(Deserialize)]
#[serde(transparent)]
struct Wrapper {
    inner: u32,
}

#[allow(dead_code)]
#[derive(Deserialize)]
struct Id(u32);

#[allow(dead_code)]
#[derive(Deserialize)]
struct Optional {
    opt: Option<u32>,
    #[serde(default)]
    def: u32,
    #[serde(rename = "renamed")]
    orig: bool,
}

/// The message `T` fails to decode `text` with.
fn err<T: Deserialize>(text: &str) -> String {
    match serde_json::from_str::<T>(text) {
        Ok(_) => "decoded".to_string(),
        Err(e) => e.to_string(),
    }
}

/// The message a Chrome trace with one kernel or runtime event whose
/// `args.lumos` is `lumos` fails with.
fn chrome_err(cat_and_lumos: &str) -> String {
    let (cat, lumos) = cat_and_lumos.split_once(' ').unwrap();
    let doc = format!(
        r#"{{"traceEvents":[{{"ph":"X","name":"k","cat":"{cat}","ts":0,"dur":1,"pid":0,"tid":0,"args":{{"lumos":{lumos}}}}}]}}"#
    );
    match from_chrome_json(&doc) {
        Ok(_) => "decoded".to_string(),
        Err(e) => e.to_string(),
    }
}

type Case = (&'static str, fn(&str) -> String, &'static str, &'static str);

fn cases() -> Vec<Case> {
    vec![
        // A plain struct.
        (
            "struct: wrong kind",
            err::<Plain>,
            r#"[1]"#,
            "expected object for Plain, found array",
        ),
        (
            "struct: field kind",
            err::<Plain>,
            r#"{"a":"1","b":"x","c":[],"d":1}"#,
            "`a`: expected u32, found string",
        ),
        (
            "struct: missing field",
            err::<Plain>,
            r#"{"a":1,"c":[],"d":1}"#,
            "missing field `b` for Plain",
        ),
        (
            "struct: unknown key ignored",
            err::<Plain>,
            r#"{"a":1,"b":"x","c":[],"d":1,"z":0}"#,
            "decoded",
        ),
        (
            "struct: out of range",
            err::<Plain>,
            r#"{"a":4294967296,"b":"x","c":[],"d":1}"#,
            "`a`: integer 4294967296 out of range for u32",
        ),
        (
            "struct: negative unsigned",
            err::<Plain>,
            r#"{"a":-1,"b":"x","c":[],"d":1}"#,
            "`a`: expected u32, found number",
        ),
        (
            "struct: fractional integer",
            err::<Plain>,
            r#"{"a":1.5,"b":"x","c":[],"d":1}"#,
            "`a`: expected u32, found number",
        ),
        (
            "struct: integral float",
            err::<Plain>,
            r#"{"a":2.0,"b":"x","c":[],"d":1}"#,
            "decoded",
        ),
        (
            "struct: element kind",
            err::<Plain>,
            r#"{"a":1,"b":"x","c":[1,"2"],"d":1}"#,
            "`c`: expected i64, found string",
        ),
        (
            "struct: signed out of range",
            err::<Plain>,
            r#"{"a":1,"b":"x","c":[9223372036854775808],"d":1}"#,
            "`c`: expected i64, found number",
        ),
        (
            "struct: float kind",
            err::<Plain>,
            r#"{"a":1,"b":"x","c":[],"d":"1"}"#,
            "`d`: expected f64, found string",
        ),
        (
            "struct: array kind",
            err::<Plain>,
            r#"{"a":1,"b":"x","c":{},"d":1}"#,
            "`c`: expected array, found object",
        ),
        (
            "struct: first declared fault wins",
            err::<Plain>,
            r#"{"d":"x","c":1,"a":"1"}"#,
            "`a`: expected u32, found string",
        ),
        (
            "struct: missing before later fault",
            err::<Plain>,
            r#"{"d":"x","c":[]}"#,
            "missing field `a` for Plain",
        ),
        (
            "struct: repeated key keeps the last",
            err::<Plain>,
            r#"{"a":"x","a":1,"b":"x","c":[],"d":1}"#,
            "decoded",
        ),
        (
            "struct: truncated",
            err::<Plain>,
            r#"{"a":1,"b":"x","c":[1,"#,
            "expected a JSON value at byte 22",
        ),
        (
            "struct: syntax after a fault",
            err::<Plain>,
            r#"{"a":"1","b":"x","c":[],"d":1} x"#,
            "trailing characters after JSON value at byte 31",
        ),
        (
            "struct: syntax inside a fault",
            err::<Plain>,
            r#"{"a":[1 2],"b":"x","c":[],"d":1}"#,
            "expected `,` or `]` in array at byte 9",
        ),
        // `deny_unknown_fields`.
        (
            "strict: unknown key",
            err::<Strict>,
            r#"{"n":1,"flag":true,"z":0}"#,
            "unknown field `z` for Strict",
        ),
        (
            "strict: unknown key before a fault",
            err::<Strict>,
            r#"{"n":"x","z":0}"#,
            "unknown field `z` for Strict",
        ),
        (
            "strict: skipped field is unknown",
            err::<Strict>,
            r#"{"n":1,"flag":true,"hidden":0}"#,
            "unknown field `hidden` for Strict",
        ),
        (
            "strict: out of range",
            err::<Strict>,
            r#"{"n":256,"flag":true}"#,
            "`n`: integer 256 out of range for u8",
        ),
        (
            "strict: wrong kind",
            err::<Strict>,
            r#""x""#,
            "expected object for Strict, found string",
        ),
        (
            "strict: missing field",
            err::<Strict>,
            r#"{"n":1}"#,
            "missing field `flag` for Strict",
        ),
        (
            "strict: truncated",
            err::<Strict>,
            r#"{"n":1,"fl"#,
            "unterminated string at byte 10",
        ),
        // Externally tagged enums.
        (
            "enum: unknown unit variant",
            err::<Shape>,
            r#""Other""#,
            "unknown variant `Other` for Shape",
        ),
        (
            "enum: data variant as string",
            err::<Shape>,
            r#""Newtype""#,
            "unknown variant `Newtype` for Shape",
        ),
        (
            "enum: unit variant as object",
            err::<Shape>,
            r#"{"Unit":1}"#,
            "unknown variant `Unit` for Shape",
        ),
        (
            "enum: unknown data variant",
            err::<Shape>,
            r#"{"Other":1}"#,
            "unknown variant `Other` for Shape",
        ),
        (
            "enum: two keys",
            err::<Shape>,
            r#"{"Newtype":1,"Unit":2}"#,
            "expected string or single-key object for Shape, found object",
        ),
        (
            "enum: no keys",
            err::<Shape>,
            r#"{}"#,
            "expected string or single-key object for Shape, found object",
        ),
        (
            "enum: wrong kind",
            err::<Shape>,
            r#"[]"#,
            "expected string or single-key object for Shape, found array",
        ),
        (
            "enum: newtype out of range",
            err::<Shape>,
            r#"{"Newtype":65536}"#,
            "integer 65536 out of range for u16",
        ),
        (
            "enum: newtype kind",
            err::<Shape>,
            r#"{"Newtype":"1"}"#,
            "expected u16, found string",
        ),
        (
            "enum: struct variant kind",
            err::<Shape>,
            r#"{"Struct":[1]}"#,
            "expected variant object, found array",
        ),
        (
            "enum: struct variant missing field",
            err::<Shape>,
            r#"{"Struct":{"h":1}}"#,
            "missing field `w` for Shape",
        ),
        (
            "enum: struct variant field kind",
            err::<Shape>,
            r#"{"Struct":{"w":true}}"#,
            "`w`: expected u32, found bool",
        ),
        (
            "enum: struct variant unknown key",
            err::<StrictShape>,
            r#"{"Struct":{"w":1,"z":0}}"#,
            "unknown field `z` for StrictShape",
        ),
        (
            "enum: truncated",
            err::<Shape>,
            r#"{"Struct":{"w":1"#,
            "expected `,` or `}` in object at byte 16",
        ),
        // Transparent and newtype structs.
        (
            "transparent: kind",
            err::<Wrapper>,
            r#"{"inner":1}"#,
            "expected u32, found object",
        ),
        (
            "transparent: out of range",
            err::<Wrapper>,
            r#"4294967296"#,
            "integer 4294967296 out of range for u32",
        ),
        (
            "newtype: kind",
            err::<Id>,
            r#"[1]"#,
            "expected u32, found array",
        ),
        (
            "newtype: truncated",
            err::<Id>,
            r#"-"#,
            "invalid number at byte 1",
        ),
        // `Option`, `default`, `rename`.
        (
            "optional: null is absent",
            err::<Optional>,
            r#"{"opt":null,"renamed":true}"#,
            "decoded",
        ),
        (
            "optional: kind",
            err::<Optional>,
            r#"{"opt":"1","renamed":true}"#,
            "`opt`: expected u32, found string",
        ),
        (
            "optional: default kind",
            err::<Optional>,
            r#"{"def":null,"renamed":true}"#,
            "`def`: expected u32, found null",
        ),
        (
            "optional: renamed missing",
            err::<Optional>,
            r#"{"orig":true}"#,
            "missing field `renamed` for Optional",
        ),
        (
            "optional: truncated",
            err::<Optional>,
            r#"{"opt":nul"#,
            "invalid literal (expected `null`) at byte 7",
        ),
        // Pair-list maps.
        (
            "map: wrong kind",
            err::<HashMap<u32, String>>,
            r#"{"1":"a"}"#,
            "expected array of pairs, found object",
        ),
        (
            "map: pair kind",
            err::<HashMap<u32, String>>,
            r#"[{"1":"a"}]"#,
            "expected [key, value] pair, found object",
        ),
        (
            "map: short pair",
            err::<HashMap<u32, String>>,
            r#"[[1]]"#,
            "expected [key, value] pair, found array",
        ),
        (
            "map: long pair",
            err::<HashMap<u32, String>>,
            r#"[[1,"a",3]]"#,
            "expected [key, value] pair, found array",
        ),
        (
            "map: bad key in a long pair",
            err::<HashMap<u32, String>>,
            r#"[["x","a",3]]"#,
            "expected u32, found string",
        ),
        (
            "map: key kind",
            err::<HashMap<u32, String>>,
            r#"[["1","a"]]"#,
            "expected u32, found string",
        ),
        (
            "map: value kind",
            err::<HashMap<u32, String>>,
            r#"[[1,2]]"#,
            "expected string, found number",
        ),
        (
            "map: truncated",
            err::<HashMap<u32, String>>,
            r#"[[1,"a"],"#,
            "expected a JSON value at byte 9",
        ),
        // Tuples.
        (
            "tuple: wrong kind",
            err::<(u32, String, bool)>,
            r#"{}"#,
            "expected tuple array, found object",
        ),
        (
            "tuple: short",
            err::<(u32, String, bool)>,
            r#"[1,"a"]"#,
            "expected tuple array, found array",
        ),
        (
            "tuple: long",
            err::<(u32, String, bool)>,
            r#"[1,"a",true,4]"#,
            "expected tuple array, found array",
        ),
        (
            "tuple: long with a bad element",
            err::<(u32, String, bool)>,
            r#"["x","a",true,4]"#,
            "expected u32, found string",
        ),
        (
            "tuple: element kind",
            err::<(u32, String, bool)>,
            r#"[1,"a",0]"#,
            "expected bool, found number",
        ),
        (
            "tuple: truncated",
            err::<(u32, String, bool)>,
            r#"[1,"a""#,
            "expected `,` or `]` in array at byte 6",
        ),
        // Trace events: compact tagged arrays.
        (
            "event: wrong kind",
            err::<TraceEvent>,
            r#"{}"#,
            "expected event array, found object",
        ),
        (
            "event: short",
            err::<TraceEvent>,
            r#"["n",1,2]"#,
            "expected event array, found array",
        ),
        (
            "event: long",
            err::<TraceEvent>,
            r#"["n",1,2,[0,1],9]"#,
            "expected event array, found array",
        ),
        (
            "event: long with a bad name",
            err::<TraceEvent>,
            r#"[5,1,2,[0,1],9]"#,
            "expected event name, found number",
        ),
        (
            "event: name kind",
            err::<TraceEvent>,
            r#"[5,1,2,[0,1]]"#,
            "expected event name, found number",
        ),
        (
            "event: ts kind",
            err::<TraceEvent>,
            r#"["n","1",2,[0,1]]"#,
            "expected u64, found string",
        ),
        (
            "event: dur kind",
            err::<TraceEvent>,
            r#"["n",1,-2,[0,1]]"#,
            "expected u64, found number",
        ),
        (
            "event: kind not an array",
            err::<TraceEvent>,
            r#"["n",1,2,{}]"#,
            "expected event kind, found object",
        ),
        (
            "event: kind empty",
            err::<TraceEvent>,
            r#"["n",1,2,[]]"#,
            "expected event kind, found array",
        ),
        (
            "event: kind tag kind",
            err::<TraceEvent>,
            r#"["n",1,2,["0",1]]"#,
            "expected event kind, found array",
        ),
        (
            "event: unknown kind",
            err::<TraceEvent>,
            r#"["n",1,2,[4,1]]"#,
            "unknown event kind tag 4",
        ),
        (
            "event: missing tid",
            err::<TraceEvent>,
            r#"["n",1,2,[0]]"#,
            "event kind: missing field 0",
        ),
        (
            "event: tid kind",
            err::<TraceEvent>,
            r#"["n",1,2,[3,"1"]]"#,
            "event kind: missing field 0",
        ),
        (
            "event: tid out of range",
            err::<TraceEvent>,
            r#"["n",1,2,[0,4294967296]]"#,
            "thread id out of range",
        ),
        (
            "event: extra fields ignored",
            err::<TraceEvent>,
            r#"["n",1,2,[0,1,7,"x"]]"#,
            "decoded",
        ),
        (
            "event: runtime missing kind",
            err::<TraceEvent>,
            r#"["n",1,2,[1,1,0]]"#,
            "cuda runtime: missing kind",
        ),
        (
            "event: runtime unknown kind",
            err::<TraceEvent>,
            r#"["n",1,2,[1,1,0,[9]]]"#,
            "unknown cuda runtime kind tag 9",
        ),
        (
            "event: runtime kind missing field",
            err::<TraceEvent>,
            r#"["n",1,2,[1,1,0,[3,1]]]"#,
            "cuda runtime kind: missing field 1",
        ),
        (
            "event: runtime stream out of range",
            err::<TraceEvent>,
            r#"["n",1,2,[1,1,0,[6,4294967296]]]"#,
            "stream id out of range",
        ),
        (
            "event: kernel stream out of range",
            err::<TraceEvent>,
            r#"["n",1,2,[2,4294967296,0,[12]]]"#,
            "stream id out of range",
        ),
        (
            "event: kernel missing class",
            err::<TraceEvent>,
            r#"["n",1,2,[2,7,0]]"#,
            "kernel: missing class",
        ),
        (
            "event: kernel unknown class",
            err::<TraceEvent>,
            r#"["n",1,2,[2,7,0,[13]]]"#,
            "unknown kernel class tag 13",
        ),
        (
            "event: kernel class missing field",
            err::<TraceEvent>,
            r#"["n",1,2,[2,7,0,[0,1,2]]]"#,
            "kernel class: missing field 2",
        ),
        (
            "event: collective missing kind",
            err::<TraceEvent>,
            r#"["n",1,2,[2,7,0,[11]]]"#,
            "collective: missing kind",
        ),
        (
            "event: collective unknown kind",
            err::<TraceEvent>,
            r#"["n",1,2,[2,7,0,[11,6,1,0,8]]]"#,
            "expected collective kind tag, found number",
        ),
        (
            "event: collective seq out of range",
            err::<TraceEvent>,
            r#"["n",1,2,[2,7,0,[11,0,1,4294967296,8]]]"#,
            "collective seq out of range",
        ),
        (
            "event: truncated",
            err::<TraceEvent>,
            r#"["n",1,2,[2,7,0,[0,1,"#,
            "expected a JSON value at byte 21",
        ),
        (
            "kernel class: wrong kind",
            err::<KernelClass>,
            r#""Gemm""#,
            "expected kernel class, found string",
        ),
        (
            "runtime kind: wrong kind",
            err::<CudaRuntimeKind>,
            r#"null"#,
            "expected cuda runtime kind, found null",
        ),
        // Chrome `args.lumos`, decoded once `cat` is known.
        (
            "chrome: kernel class",
            chrome_err,
            r#"kernel [13]"#,
            "chrome trace JSON error: unknown kernel class tag 13",
        ),
        (
            "chrome: runtime kind",
            chrome_err,
            r#"cuda_runtime {"x":1}"#,
            "chrome trace JSON error: expected cuda runtime kind, found object",
        ),
        (
            "chrome: cpu op ignores lumos",
            chrome_err,
            r#"cpu_op [99]"#,
            "decoded",
        ),
        (
            "chrome: label kind",
            |doc| from_chrome_json(doc).map_or_else(|e| e.to_string(), |_| "decoded".into()),
            r#"{"traceEvents":[],"lumos_label":5}"#,
            "chrome trace JSON error: `lumos_label`: expected string, found number",
        ),
        // `ScheduleKind`.
        (
            "schedule: wrong kind",
            err::<ScheduleKind>,
            r#"1"#,
            "expected string for ScheduleKind, found number",
        ),
        (
            "schedule: unknown",
            err::<ScheduleKind>,
            r#""ZeroBubble""#,
            "unknown schedule `ZeroBubble` for ScheduleKind (known: 1f1b, gpipe, zb-h1)",
        ),
        (
            "schedule: truncated",
            err::<ScheduleKind>,
            r#""OneF"#,
            "unterminated string at byte 5",
        ),
        // The lookup tables' accumulators, `(hi, lo, count)` triples.
        (
            "acc: short",
            err::<LookupTables>,
            r#"{"compute":[[[12],[0,1]]],"collectives":[],"gpus_per_node":8}"#,
            "`compute`: expected tuple array, found array",
        ),
        (
            "acc: element kind",
            err::<LookupTables>,
            r#"{"compute":[[[12],[0,1,"2"]]],"collectives":[],"gpus_per_node":8}"#,
            "`compute`: expected u64, found string",
        ),
        (
            "acc: wrong kind",
            err::<LookupTables>,
            r#"{"compute":[[[12],{}]],"collectives":[],"gpus_per_node":8}"#,
            "`compute`: expected tuple array, found object",
        ),
        (
            "tables: collective key",
            err::<LookupTables>,
            r#"{"compute":[],"collectives":[[{"kind":7,"bytes":1,"members":2,"intra_node":true},[0,1,1]]],"gpus_per_node":8}"#,
            "`collectives`: `kind`: expected collective kind tag, found number",
        ),
    ]
}

#[test]
fn decode_errors_are_pinned() {
    let mut wrong = Vec::new();
    for (label, decode, input, pinned) in cases() {
        let got = decode(input);
        if got != pinned {
            wrong.push(format!("{label}\t{input}\t{got}"));
        }
    }
    assert!(wrong.is_empty(), "\n{}", wrong.join("\n"));
}
