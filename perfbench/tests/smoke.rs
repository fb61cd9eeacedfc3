//! Tiny-scale smoke runs: every metric `BENCHMARK.json` names is emitted
//! with its unit, and traced and untraced runs measure the same end-to-end
//! metrics.

use std::collections::BTreeMap;

use apgre_perfbench::{calibrate, run, Config, Outcome, WORKLOADS};
use apgre_workloads::Scale;

/// The subset of JSON `BENCHMARK.json` uses.
#[derive(Debug)]
enum Json {
    Obj(BTreeMap<String, Json>),
    Arr(Vec<Json>),
    Str(String),
    /// A number, `true` or `false` (their values are not needed).
    Scalar,
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s.get(self.i), Some(&c), "expected `{}` at byte {}", c as char, self.i);
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(self.s[self.i], b'\\', "escapes are not used in BENCHMARK.json");
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8")
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    m.insert(k, self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' | b'f' => {
                self.i += if self.s[self.i] == b't' { 4 } else { 5 };
                Json::Scalar
            }
            _ => {
                let start = self.i;
                while self.s.get(self.i).is_some_and(|c| b"+-.eE0123456789".contains(c)) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                assert!(text.parse::<f64>().is_ok(), "bad number {text:?} at byte {start}");
                Json::Scalar
            }
        }
    }
}

fn parse(text: &str) -> Json {
    Parser { s: text.as_bytes(), i: 0 }.value()
}

fn get<'a>(j: &'a Json, key: &str) -> &'a Json {
    match j {
        Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
        other => panic!("not an object: {other:?}"),
    }
}

fn str_of(j: &Json) -> &str {
    match j {
        Json::Str(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

/// `name → unit` for one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec =
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"));
    let Json::Arr(items) = get(&spec, list) else { panic!("{list} is not a list") };
    items
        .iter()
        .map(|m| (str_of(get(m, "name")).to_owned(), str_of(get(m, "unit")).to_owned()))
        .collect()
}

fn emitted(m: &apgre_perfbench::Metrics) -> BTreeMap<String, String> {
    m.iter().map(|(k, (_, u))| (k.to_string(), u.to_string())).collect()
}

fn tiny_config(workload: &str, trace: bool) -> Config {
    Config {
        workload: workload.to_owned(),
        seed: 5,
        seconds: 1.0,
        trace,
        scale: Scale::Tiny,
        trace_dir: None,
    }
}

fn tiny(workload: &str, trace: bool) -> Outcome {
    let out = run(&tiny_config(workload, trace)).expect("known workload");
    assert!(out.correct, "{workload} (trace {trace}) failed its checks: {:?}", out.facts);
    assert!(out.attempted > 0);
    out
}

#[test]
fn benchmark_json_lists_the_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"));
    let Json::Arr(ws) = get(&spec, "workloads") else { panic!("workloads is not a list") };
    let names: Vec<&str> = ws.iter().map(|w| str_of(get(w, "name"))).collect();
    assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let (e2e, layer) = (declared("end_to_end"), declared("per_layer"));
    for w in WORKLOADS {
        let untraced = tiny(w.name, false);
        let traced = tiny(w.name, true);
        assert_eq!(emitted(&untraced.e2e), e2e, "{}: end-to-end metrics", w.name);
        assert_eq!(emitted(&traced.layer), layer, "{}: per-layer metrics", w.name);
        let keys = |o: &Outcome| o.e2e.keys().copied().collect::<Vec<_>>();
        assert_eq!(keys(&untraced), keys(&traced), "{}: traced vs untraced", w.name);
        for (name, (v, _)) in untraced.e2e.iter().chain(&traced.layer) {
            assert!(v.is_finite(), "{}: {name} = {v}", w.name);
        }
        let line = untraced.json(false);
        let Json::Obj(m) = parse(&line) else { panic!("result line is not an object") };
        assert_eq!(
            m.keys().map(String::as_str).collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
    }
}

#[test]
fn calibration_measures_every_cost_it_derives_a_rate_from() {
    let line = calibrate(&tiny_config("road", false)).expect("calibration runs");
    let Json::Obj(m) = parse(&line) else { panic!("calibration line is not an object") };
    assert_eq!(
        m.keys().map(String::as_str).collect::<Vec<_>>(),
        [
            "local_batch_ms",
            "mutate_rate",
            "read_capacity_per_s",
            "read_rate",
            "structural_batch_ms",
            "workload"
        ]
    );
    let positive = |k: &str| {
        let at = line.find(&format!("\"{k}\": ")).expect(k) + k.len() + 4;
        let v: f64 = line[at..].split([',', '}']).next().unwrap().trim().parse().expect(k);
        assert!(v.is_finite() && v > 0.0, "{k} = {v}");
    };
    for k in
        ["local_batch_ms", "structural_batch_ms", "read_capacity_per_s", "read_rate", "mutate_rate"]
    {
        positive(k);
    }
}
