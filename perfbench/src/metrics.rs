//! The metric registry: every name the benchmark prints, its unit, and
//! the JSON line the benchmark ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Organization keys used in metric names, in `HierarchyKind::ALL` order.
pub const ORGS: [&str; 4] = ["vr", "rr_incl", "rr_noincl", "goodman"];

/// Bus-operation keys used in metric names, in `BusOp::ALL` order.
pub const BUS_OPS: [&str; 5] = ["read_miss", "invalidate", "rmw", "write_back", "update"];

/// Artifact keys used in metric names, in `Artifact::ALL` order.
pub const ARTIFACTS: [&str; 18] = [
    "table1",
    "table2",
    "table3",
    "table5",
    "table6",
    "table7",
    "fig4",
    "fig5",
    "fig6",
    "tables8_10",
    "tables11_13",
    "inclusion",
    "ablations",
    "scaling",
    "traffic",
    "single_level",
    "assoc",
    "protocols",
];

/// Model-checker scope names, in `Scope::all()` order.
pub const SCOPES: [&str; 10] = [
    "smoke",
    "goodman-2cpu",
    "vr-3cpu",
    "vr-asid-2cpu",
    "vr-eager-2cpu",
    "vr-inval-2cpu",
    "vr-move-2cpu",
    "vr-sub-2cpu",
    "vr-update-2cpu",
    "vr-wt-2cpu",
];

/// One metric as the benchmark declares it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// The metric's name.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// Which direction is better: `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn spec(name: impl Into<String>, unit: &'static str, better: &'static str) -> Spec {
    Spec {
        name: name.into(),
        unit,
        better,
    }
}

/// The end-to-end metrics, printed with `--trace 0`.
pub fn end_to_end() -> Vec<Spec> {
    vec![
        spec("setup_s", "s", "lower"),
        spec("run_s", "s", "lower"),
        spec("peak_rss_mb", "MB", "lower"),
    ]
}

/// The per-layer metrics, printed with `--trace 1`. Layers are named by
/// crate; a layer a workload does not exercise reads 0 there.
pub fn per_layer() -> Vec<Spec> {
    let mut v = vec![
        spec("mref_per_s", "Mref/s", "higher"),
        spec("trace.synth_s", "s", "lower"),
        spec("trace.encode_s", "s", "lower"),
        spec("trace.decode_s", "s", "lower"),
        spec("trace.decode_ns_per_event", "ns", "lower"),
        spec("trace.bytes_per_ref", "B", "lower"),
    ];
    for org in ORGS {
        v.push(spec(format!("sim.replay_s.{org}"), "s", "lower"));
    }
    v.extend([
        spec("sim.loop_self_s", "s", "lower"),
        spec("sim.system_new_s", "s", "lower"),
        spec("sim.snoops_delivered", "count", "lower"),
        spec("sim.snoop_has_copy_ratio", "ratio", "lower"),
    ]);
    for org in ORGS {
        v.push(spec(format!("sim.snoop_l1_ratio.{org}"), "ratio", "lower"));
    }
    v.extend([
        spec("core.access_self_s", "s", "lower"),
        spec("core.access_self_ns_p50", "ns", "lower"),
        spec("core.access_self_ns_p99", "ns", "lower"),
        spec("core.snoop_s", "s", "lower"),
        spec("core.context_switch_s", "s", "lower"),
        spec("core.check_invariants_s", "s", "lower"),
    ]);
    for org in ORGS {
        v.push(spec(format!("core.l1_hit_ratio.{org}"), "ratio", "higher"));
        v.push(spec(
            format!("core.l2_local_hit_ratio.{org}"),
            "ratio",
            "higher",
        ));
        v.push(spec(
            format!("core.l1_coherence_msgs.{org}"),
            "count",
            "lower",
        ));
    }
    v.extend([
        spec("core.synonyms_sameset", "count", "lower"),
        spec("core.synonyms_move", "count", "lower"),
        spec("core.incl_invalidations", "count", "lower"),
        spec("bus.issue_self_s", "s", "lower"),
        spec("bus.issue_ns_p50", "ns", "lower"),
        spec("bus.issue_ns_p99", "ns", "lower"),
    ]);
    for op in BUS_OPS {
        v.push(spec(format!("bus.txns.{op}"), "count", "lower"));
    }
    v.extend([
        spec("bus.cache_supplied_ratio", "ratio", "lower"),
        spec("mem.tlb_misses", "count", "lower"),
        spec("mem.tlb_miss_ratio", "ratio", "lower"),
        spec("cache.wb_pushed", "count", "lower"),
        spec("cache.wb_full_stalls", "count", "lower"),
        spec("cache.wb_high_water", "count", "lower"),
    ]);
    for artifact in ARTIFACTS {
        v.push(spec(format!("repro.{artifact}_s"), "s", "lower"));
    }
    for scope in SCOPES {
        v.push(spec(format!("model.{scope}_s"), "s", "lower"));
    }
    v.extend([
        spec("model.states", "count", "higher"),
        spec("model.transitions", "count", "higher"),
        spec("model.states_per_s", "1/s", "higher"),
        spec("inject.run_ms_p50", "ms", "lower"),
        spec("inject.run_ms_p99", "ms", "lower"),
        spec("inject.runs_per_s", "1/s", "higher"),
        spec("trace_overhead_ratio", "ratio", "lower"),
        spec("accuracy.h1_vr_abs_err", "ratio", "lower"),
        spec("accuracy.h2_vr_abs_err", "ratio", "lower"),
    ]);
    v
}

/// The metrics a run prints: the per-layer ones with `--trace 1`, the
/// end-to-end ones otherwise.
pub fn printed(trace: bool) -> Vec<Spec> {
    if trace {
        per_layer()
    } else {
        end_to_end()
    }
}

/// One measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples it summarizes (1 for a count or a single timing).
    pub samples: usize,
}

/// Measured values by name, in name order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<String, Value>);

impl Metrics {
    /// Records a value that summarizes `samples` samples.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.0.insert(
            name.into(),
            Value {
                value,
                unit,
                samples,
            },
        );
    }

    /// Records a count or a single measurement.
    pub fn one(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.set(name, value, unit, 1);
    }

    /// Records the median of `samples`, in seconds.
    pub fn median_s(&mut self, name: impl Into<String>, samples: &[f64]) {
        self.set(name, median(samples), "s", samples.len());
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.0.get(name).copied()
    }

    /// Every recorded value, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The values of `specs`, in their order; a metric this run did not
    /// measure reads 0 with no samples.
    pub fn select(&self, specs: &[Spec]) -> Vec<(String, Value)> {
        specs
            .iter()
            .map(|s| {
                let v = self.get(&s.name).unwrap_or(Value {
                    value: 0.0,
                    unit: s.unit,
                    samples: 0,
                });
                (s.name.clone(), v)
            })
            .collect()
    }
}

/// The median of `samples` (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The `q`-quantile of `samples` by linear interpolation (0 for none).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The benchmark's last line: `correct`, `attempted`, `failed` and the
/// selected metrics, as one JSON object.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(String, Value)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            json_number(v.value),
            v.unit
        );
    }
    out.push_str("}}");
    out
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[5.0], 0.99), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|s| s.name)
            .collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(n - 3 <= 128);
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.one("run_s", 1.25, "s");
        let line = result_line(3, 0, &m.select(&[spec("run_s", "s", "lower")]));
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
