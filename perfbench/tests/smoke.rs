//! Tiny-scale smoke of all four workloads: every metric `BENCHMARK.json`
//! names is printed with its unit, the traced pass reproduces the
//! untraced simulated counts, and a corrupted pin fails its operation.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;

use vrcache_perfbench::check::PINS;
use vrcache_perfbench::metrics::{self, Spec};
use vrcache_perfbench::workloads::{self, Options, Outcome, Size, Workload};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// A JSON value: just enough of the grammar for `BENCHMARK.json` and the
/// benchmark's result line.
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
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => panic!("not an array: {self:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "at byte {}", self.i);
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        self.s[self.i]
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut m = BTreeMap::new();
                if self.peek() == b'}' {
                    self.eat(b'}');
                    return Json::Obj(m);
                }
                loop {
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k, v).is_none(), "duplicate key");
                    if self.peek() == b',' {
                        self.eat(b',');
                    } else {
                        self.eat(b'}');
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.eat(b'[');
                let mut a = Vec::new();
                if self.peek() == b']' {
                    self.eat(b']');
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    } else {
                        self.eat(b']');
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => {
                self.eat(b'"');
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not expected");
                    self.i += 1;
                }
                let s = std::str::from_utf8(&self.s[start..self.i])
                    .unwrap()
                    .to_string();
                self.i += 1;
                Json::Str(s)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.0123456789eEtrufalsn".contains(&self.s[self.i])
                {
                    self.i += 1;
                }
                match std::str::from_utf8(&self.s[start..self.i]).unwrap() {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    "null" => Json::Null,
                    n => Json::Num(n.parse().unwrap_or_else(|_| panic!("bad number {n}"))),
                }
            }
        }
    }
}

fn tiny(workload: Workload, trace: bool, pins: &str) -> Outcome {
    workloads::run(&Options {
        workload,
        seed: workload.default_seed().unwrap_or(0),
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        pins: pins.to_string(),
        span_dir: None,
    })
}

fn declared(section: &str) -> Vec<(String, String, String)> {
    Parser::parse(BENCHMARK_JSON)
        .get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
                m.get("better").str().to_string(),
            )
        })
        .collect()
}

fn as_tuples(specs: Vec<Spec>) -> Vec<(String, String, String)> {
    specs
        .into_iter()
        .map(|s| (s.name, s.unit.to_string(), s.better.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_printed_metrics() {
    assert_eq!(declared("end_to_end"), as_tuples(metrics::end_to_end()));
    assert_eq!(declared("per_layer"), as_tuples(metrics::per_layer()));
    let doc = Parser::parse(BENCHMARK_JSON);
    let names: Vec<&str> = doc
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = tiny(workload, trace, PINS);
            assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
            let line = Parser::parse(&outcome.result_line(trace));
            assert_eq!(line.get("correct"), &Json::Bool(true));
            assert_eq!(line.get("failed"), &Json::Num(0.0));
            assert!(matches!(line.get("attempted"), Json::Num(n) if *n >= 1.0));
            let section = if trace { "per_layer" } else { "end_to_end" };
            let Json::Obj(printed) = line.get("metrics") else {
                panic!("metrics is an object")
            };
            let declared = declared(section);
            assert_eq!(printed.len(), declared.len(), "{workload:?} {section}");
            for (name, unit, _) in declared {
                let m = printed
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload:?}: {name} not printed"));
                assert_eq!(m.get("unit").str(), unit, "{name}");
                let Json::Num(v) = m.get("value") else {
                    panic!("{name} is not a number")
                };
                if !trace {
                    assert!(*v > 0.0, "{workload:?}: end-to-end {name} is {v}");
                }
            }
        }
    }
}

#[test]
fn each_workload_measures_its_own_layers() {
    let measured = |o: &Outcome, prefix: &str| {
        o.metrics
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, v)| v.samples)
            .collect::<Vec<_>>()
    };
    let repro = tiny(Workload::ReproSuite, true, "");
    let samples = measured(&repro, "repro.");
    assert_eq!(samples.len(), metrics::ARTIFACTS.len());
    assert!(samples.iter().all(|&n| n > 0));
    let verify = tiny(Workload::VerifyBattery, true, "");
    let scopes = measured(&verify, "model.");
    assert_eq!(
        scopes.len(),
        metrics::SCOPES.len() + 3,
        "one timing per scope"
    );
    assert!(scopes.iter().all(|&n| n > 0));
}

#[test]
fn traced_pass_reproduces_the_untraced_counts() {
    for workload in [Workload::ReplayPaper, Workload::SnoopStorm] {
        let outcome = tiny(workload, true, "");
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        // Four untraced replays and four traced ones, each traced one
        // passing only when its digest equals its untraced replay's.
        assert_eq!(outcome.attempted, 8, "{workload:?}");
        let overhead = outcome.metrics.get("trace_overhead_ratio").unwrap();
        assert!(overhead.value > 0.0);
    }
}

#[test]
fn a_corrupted_pin_is_a_failed_operation() {
    for workload in [Workload::ReplayPaper, Workload::ReproSuite] {
        let clean = tiny(workload, false, "");
        assert!(clean.failures.is_empty(), "{:?}", clean.failures);
        let (key, digest) = clean.digests[0].rsplit_once(' ').unwrap();
        let flipped = if digest.ends_with('0') { "1" } else { "0" };
        let corrupted = format!("{key} {}{flipped}\n", &digest[..digest.len() - 1]);
        let outcome = tiny(workload, false, &corrupted);
        assert_eq!(outcome.failures.len(), 1, "{:?}", outcome.failures);
        assert!(outcome.failures[0].contains(key), "{}", outcome.failures[0]);
        let line = Parser::parse(&outcome.result_line(false));
        assert_eq!(line.get("correct"), &Json::Bool(false));
        assert_eq!(line.get("failed"), &Json::Num(1.0));
        // The same pin, uncorrupted, passes.
        let good = tiny(workload, false, &format!("{key} {digest}\n"));
        assert!(good.failures.is_empty(), "{:?}", good.failures);
    }
}
