//! The benchmark's own tests: a smoke-size run of every workload prints
//! every metric `BENCHMARK.json` declares, with its unit, and a corrupted
//! expected answer makes the run fail.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A parsed JSON value (just enough of JSON for `BENCHMARK.json` and the
/// result line).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(v) => *v,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }
}

fn parse(text: &str) -> Json {
    let bytes = text.as_bytes();
    let mut at = 0;
    let value = parse_value(bytes, &mut at);
    skip_ws(bytes, &mut at);
    assert_eq!(at, bytes.len(), "trailing bytes after JSON value");
    value
}

fn skip_ws(b: &[u8], at: &mut usize) {
    while *at < b.len() && b[*at].is_ascii_whitespace() {
        *at += 1;
    }
}

fn expect(b: &[u8], at: &mut usize, c: u8) {
    skip_ws(b, at);
    assert_eq!(
        b.get(*at),
        Some(&c),
        "expected {:?} at byte {at}",
        c as char
    );
    *at += 1;
}

fn parse_string(b: &[u8], at: &mut usize) -> String {
    expect(b, at, b'"');
    let mut out = String::new();
    loop {
        match b[*at] {
            b'"' => {
                *at += 1;
                return out;
            }
            b'\\' => {
                out.push(match b[*at + 1] {
                    b'n' => '\n',
                    b't' => '\t',
                    other => other as char,
                });
                *at += 2;
            }
            _ => {
                let rest = std::str::from_utf8(&b[*at..]).expect("utf-8");
                let c = rest.chars().next().expect("a character");
                out.push(c);
                *at += c.len_utf8();
            }
        }
    }
}

fn parse_value(b: &[u8], at: &mut usize) -> Json {
    skip_ws(b, at);
    match b[*at] {
        b'{' => {
            *at += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, at);
            if b[*at] == b'}' {
                *at += 1;
                return Json::Obj(map);
            }
            loop {
                let key = parse_string(b, at);
                expect(b, at, b':');
                let value = parse_value(b, at);
                assert!(
                    map.insert(key.clone(), value).is_none(),
                    "duplicate key {key}"
                );
                skip_ws(b, at);
                *at += 1;
                match b[*at - 1] {
                    b',' => continue,
                    b'}' => return Json::Obj(map),
                    c => panic!("unexpected {:?} in object", c as char),
                }
            }
        }
        b'[' => {
            *at += 1;
            let mut items = Vec::new();
            skip_ws(b, at);
            if b[*at] == b']' {
                *at += 1;
                return Json::Arr(items);
            }
            loop {
                items.push(parse_value(b, at));
                skip_ws(b, at);
                *at += 1;
                match b[*at - 1] {
                    b',' => continue,
                    b']' => return Json::Arr(items),
                    c => panic!("unexpected {:?} in array", c as char),
                }
            }
        }
        b'"' => Json::Str(parse_string(b, at)),
        b't' if b[*at..].starts_with(b"true") => {
            *at += 4;
            Json::Bool(true)
        }
        b'f' if b[*at..].starts_with(b"false") => {
            *at += 5;
            Json::Bool(false)
        }
        b'n' if b[*at..].starts_with(b"null") => {
            *at += 4;
            Json::Null
        }
        _ => {
            let start = *at;
            while *at < b.len() && matches!(b[*at], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *at += 1;
            }
            let text = std::str::from_utf8(&b[start..*at]).expect("utf-8");
            Json::Num(
                text.parse()
                    .unwrap_or_else(|_| panic!("bad number {text:?}")),
            )
        }
    }
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(&path).expect("read BENCHMARK.json"))
}

/// A scratch working directory for one run (the benchmark writes its work
/// files under its working directory).
fn scratch(label: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(label);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    dir
}

fn run(workload: &str, trace: bool, extra: &[&str]) -> Output {
    let label = format!("{workload}-{}{}", u8::from(trace), extra.join(""));
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
        ])
        .arg(if trace { "1" } else { "0" })
        .arg("--smoke")
        .args(extra)
        .current_dir(scratch(&label))
        .output()
        .expect("spawn the benchmark")
}

fn names(section: &Json) -> Vec<String> {
    section
        .arr()
        .iter()
        .map(|m| m.get("name").str().to_string())
        .collect()
}

#[test]
fn smoke_runs_print_every_declared_metric_with_its_unit() {
    let bench = benchmark_json();
    let workloads = names(bench.get("workloads"));
    assert_eq!(workloads, ["rssi-library", "pangenome-live"]);
    for workload in &workloads {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let out = run(workload, trace, &[]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed:\n{stderr}"
            );
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let lines: Vec<&str> = stdout.lines().collect();
            let header = parse(lines[0]).get("header").clone();
            assert_eq!(header.get("workload").str(), workload);
            assert!(header.get("host_cpus").num() >= 1.0);
            let result = parse(lines.last().expect("a result line"));
            let Json::Obj(keys) = &result else {
                panic!("result is not an object")
            };
            assert_eq!(
                keys.keys().collect::<Vec<_>>(),
                ["attempted", "correct", "failed", "metrics"]
            );
            assert_eq!(result.get("correct"), &Json::Bool(true));
            assert!(result.get("attempted").num() >= 1.0);
            assert_eq!(result.get("failed").num(), 0.0, "{workload}: failed ops");
            let Json::Obj(metrics) = result.get("metrics") else {
                panic!("metrics")
            };
            let declared = bench.get(section).arr();
            assert_eq!(metrics.len(), declared.len(), "{workload}: metric count");
            for m in declared {
                let name = m.get("name").str();
                let printed = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
                assert_eq!(
                    printed.get("unit").str(),
                    m.get("unit").str(),
                    "{workload}: {name}"
                );
                let value = printed.get("value").num();
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                if !trace {
                    assert!(value > 0.0, "{workload}: end-to-end {name} = {value}");
                }
            }
        }
    }
}

#[test]
fn a_corrupted_expected_answer_fails_the_run() {
    for workload in ["rssi-library", "pangenome-live"] {
        let out = run(workload, false, &["--corrupt-expected"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(3),
            "{workload} did not fail:\n{stderr}"
        );
        assert!(stderr.contains("CHECK FAILED"), "{workload}: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            !stdout.contains("\"metrics\""),
            "{workload} printed a result"
        );
    }
}
