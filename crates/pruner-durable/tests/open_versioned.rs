//! The version gate's classification table: every artifact reader
//! (checkpoint, store line, fleet manifest, wire line) relies on exactly
//! these outcomes.

use pruner_durable::{open_versioned, DecodeError};

#[derive(Debug, PartialEq)]
enum Expect {
    Open,
    Malformed,
    Version(u64),
    Invalid,
}

#[test]
fn open_versioned_classifies_every_shape() {
    let table = [
        ("current version", r#"{"v":3,"payload":[1,2]}"#, Expect::Open),
        ("future version", r#"{"v":4,"layout":"changed"}"#, Expect::Version(4)),
        ("future version, unparseable body", r#"{"v":9,"x":{}}"#, Expect::Version(9)),
        ("truncated", r#"{"v":3,"payload":[1,"#, Expect::Malformed),
        ("empty", "", Expect::Malformed),
        ("non-object", "[3]", Expect::Invalid),
        ("missing key", r#"{"version":3}"#, Expect::Invalid),
        ("non-integer key", r#"{"v":"3"}"#, Expect::Invalid),
        ("fractional key", r#"{"v":3.5}"#, Expect::Invalid),
        ("negative key", r#"{"v":-3}"#, Expect::Invalid),
    ];
    for (case, text, expect) in table {
        let got = match open_versioned(text, "v", 3) {
            Ok(_) => Expect::Open,
            Err(DecodeError::Malformed(_)) => Expect::Malformed,
            Err(DecodeError::Version { got }) => Expect::Version(got),
            Err(DecodeError::Invalid(_)) => Expect::Invalid,
        };
        assert_eq!(got, expect, "{case}: {text}");
    }
}

#[test]
fn the_opened_tree_is_the_whole_document() {
    let text = r#"{"version":1,"name":"t4","rounds":[0,1]}"#;
    let content = open_versioned(text, "version", 1).unwrap();
    assert_eq!(content, serde_json::parse_content(text).unwrap());
}
