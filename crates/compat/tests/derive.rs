//! End-to-end tests of the `Serialize`/`Deserialize` derives: every
//! shape the workspace uses, asserting the serde-compatible JSON text
//! and value-level round-trips.

use ecofl_compat::json::{from_str, to_string, to_string_pretty, Value};
use ecofl_compat::serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Plain {
    pub count: usize,
    pub ratio: f64,
    pub label: String,
    pub flag: bool,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Nested {
    /// Doc comments and attributes must be skipped by the parser.
    inner: Plain,
    xs: Vec<f64>,
    maybe: Option<u32>,
    absent: Option<u32>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Mode {
    Fast,
    Slow,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Policy {
    /// Unit variant (a JSON string).
    Async,
    /// Newtype variant (externally tagged, like serde).
    Fixed(u64),
}

/// Bench rows label themselves with `&'static str` fields; they are
/// written, never read back.
#[derive(Serialize)]
struct StaticName {
    name: &'static str,
    value: f32,
    point: (f64, f64),
}

fn round_trip<T>(value: &T) -> T
where
    T: Serialize + Deserialize,
{
    from_str(&to_string(value).expect("serialize")).expect("deserialize")
}

#[test]
fn plain_struct_round_trips_and_keeps_field_names() {
    let p = Plain {
        count: 3,
        ratio: 0.5,
        label: "edge".to_string(),
        flag: true,
    };
    assert_eq!(round_trip(&p), p);
    assert_eq!(
        to_string(&p).unwrap(),
        r#"{"count":3,"ratio":0.5,"label":"edge","flag":true}"#,
        "fields serialize in declaration order with their own names"
    );
}

#[test]
fn nested_struct_round_trips() {
    let n = Nested {
        inner: Plain {
            count: 1,
            ratio: 2.0,
            label: String::new(),
            flag: false,
        },
        xs: vec![1.5, -2.25],
        maybe: Some(9),
        absent: None,
    };
    assert_eq!(round_trip(&n), n);
    let v: Value = from_str(&to_string(&n).unwrap()).unwrap();
    assert_eq!(v["inner"]["ratio"].as_f64(), Some(2.0));
    assert!(v["absent"].is_null(), "None serializes as null");
}

#[test]
fn missing_option_field_defaults_to_none() {
    let n: Nested = from_str(
        r#"{"inner":{"count":0,"ratio":0.0,"label":"","flag":false},
            "xs":[]}"#,
    )
    .expect("Option fields may be absent entirely");
    assert_eq!(n.maybe, None);
    assert_eq!(n.absent, None);
}

#[test]
fn missing_required_field_errors_with_context() {
    let err = from_str::<Plain>(r#"{"count":3}"#).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("Plain.ratio"), "error names the field: {msg}");
}

#[test]
fn unit_enum_is_a_string() {
    assert_eq!(to_string(&Mode::Fast).unwrap(), "\"Fast\"");
    assert_eq!(round_trip(&Mode::Slow), Mode::Slow);
    assert!(from_str::<Mode>("\"Medium\"").is_err());
}

#[test]
fn data_enum_is_externally_tagged() {
    assert_eq!(round_trip(&Policy::Async), Policy::Async);
    assert_eq!(to_string(&Policy::Async).unwrap(), "\"Async\"");
    let f = Policy::Fixed(77);
    assert_eq!(to_string(&f).unwrap(), r#"{"Fixed":77}"#);
    assert_eq!(round_trip(&f), f);
}

#[test]
fn bench_row_fields_serialize() {
    let s = StaticName {
        name: "cifar-like",
        value: 1.25,
        point: (0.5, 2.0),
    };
    assert_eq!(
        to_string(&s).unwrap(),
        r#"{"name":"cifar-like","value":1.25,"point":[0.5,2.0]}"#
    );
}

#[test]
fn pretty_printing_nests_with_two_space_indent() {
    let p = Plain {
        count: 1,
        ratio: 1.0,
        label: "x".to_string(),
        flag: false,
    };
    let pretty = to_string_pretty(&p).unwrap();
    assert!(pretty.starts_with("{\n  \"count\": 1,\n"), "{pretty}");
    assert_eq!(from_str::<Plain>(&pretty).unwrap(), p);
}
