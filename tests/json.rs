//! The workspace's one JSON module (`banger_taskgraph::json`): value
//! round trips, string escaping, and rejection of malformed input.

use banger_taskgraph::json::{escape, parse, Json};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any string, control characters, quotes, backslashes and
    /// non-ASCII included, survives escape -> parse; nested in an object
    /// beside any number, it survives the indented renderer too, a
    /// non-finite number coming back as null.
    #[test]
    fn any_string_survives_escape_then_parse(
        codes in prop::collection::vec(
            prop_oneof![
                3 => 0u32..0x80,
                1 => Just(u32::from('"')),
                1 => Just(u32::from('\\')),
                2 => 0x80u32..0x11_0000,
            ],
            0..48,
        ),
        x in prop_oneof![
            3 => -1e12f64..1e12,
            1 => Just(f64::INFINITY),
            1 => Just(f64::NEG_INFINITY),
            1 => Just(f64::NAN),
        ],
    ) {
        let s: String = codes.into_iter().filter_map(char::from_u32).collect();
        let quoted = format!("\"{}\"", escape(&s));
        prop_assert_eq!(parse(&quoted), Ok(Json::Str(s.clone())));
        prop_assert_eq!(parse(&Json::Str(s.clone()).render()), Ok(Json::Str(s.clone())));

        let doc = |n: Json| {
            Json::Obj(vec![
                (s.clone(), Json::Arr(vec![Json::Str(s.clone()), n, Json::Arr(vec![])])),
                ("empty".into(), Json::Obj(vec![])),
            ])
        };
        let back = if x.is_finite() { Json::Num(x) } else { Json::Null };
        prop_assert_eq!(parse(&doc(Json::Num(x)).render_pretty()), Ok(doc(back)));
    }
}

#[test]
fn round_trips_nested_values() {
    let v = Json::Obj(vec![
        ("cmd".into(), Json::Str("run".into())),
        (
            "inputs".into(),
            Json::Obj(vec![
                ("a".into(), Json::Num(1.5)),
                (
                    "v".into(),
                    Json::Arr(vec![Json::Num(1.0), Json::Num(-2.0), Json::Num(3e-4)]),
                ),
            ]),
        ),
        ("flag".into(), Json::Bool(true)),
        ("none".into(), Json::Null),
    ]);
    let text = v.render();
    assert_eq!(parse(&text).unwrap(), v);
}

#[test]
fn escapes_control_characters_and_quotes() {
    let v = Json::Str("a\"b\\c\nd\te\u{1}".into());
    let text = v.render();
    assert_eq!(parse(&text).unwrap(), v);
    assert!(text.contains("\\u0001"), "{text}");
}

#[test]
fn rejects_garbage() {
    assert!(parse("").is_err());
    assert!(parse("{").is_err());
    assert!(parse("[1,]").is_err());
    assert!(parse("{\"a\":1} trailing").is_err());
    assert!(parse("nope").is_err());
}

#[test]
fn non_finite_numbers_render_null() {
    assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    assert_eq!(Json::Num(f64::NAN).render(), "null");
}
