//! One run's results: the record, its three renderings (human table, the
//! contract's result line, the `--out` record line), and the reader
//! `compare` uses for record files.

use crate::provenance::Provenance;
use crate::{MetricDef, Passes, Spec};
use dcst_runtime::jsonv::{self, Json};
use dcst_serve::protocol::escape;
use std::fmt::Write as _;

/// A measured metric. `spread` carries the sample quartiles when the value
/// is a statistic of many samples.
#[derive(Clone, Debug)]
pub struct MetricValue {
    pub name: String,
    pub value: f64,
    /// `(samples, q1, q3)` of the sample the value summarizes.
    pub spread: Option<(usize, f64, f64)>,
    /// Free-form context for the human table (percentile used, sizes…).
    pub note: String,
}

impl MetricValue {
    pub fn new(name: &str, value: f64) -> MetricValue {
        MetricValue {
            name: name.to_string(),
            value,
            spread: None,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> MetricValue {
        self.note = note.into();
        self
    }

    pub fn spread(mut self, s: &crate::stats::Summary) -> MetricValue {
        self.spread = Some((s.n, s.q1, s.q3));
        self
    }
}

/// Everything one `run` of one workload produced.
#[derive(Clone, Debug)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub threads: usize,
    /// The fixed counts this run used, for the provenance header.
    pub counts: String,
    /// Operations attempted and failed (see the README for what counts).
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, first few.
    pub failures: Vec<String>,
    pub end_to_end: Vec<MetricValue>,
    pub per_layer: Vec<MetricValue>,
}

impl RunRecord {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Check the record against the spec for the passes that ran: every
    /// defined metric measured, nothing measured that is not defined,
    /// every value finite.
    pub fn validate(&self, spec: &Spec, passes: Passes) -> Result<(), String> {
        let check = |defs: &[MetricDef], got: &[MetricValue], what: &str| {
            for d in defs {
                if !got.iter().any(|m| m.name == d.name) {
                    return Err(format!("{what} metric '{}' was not measured", d.name));
                }
            }
            for m in got {
                if !defs.iter().any(|d| d.name == m.name) {
                    return Err(format!(
                        "{what} metric '{}' is not defined in BENCHMARK.json",
                        m.name
                    ));
                }
                if !m.value.is_finite() {
                    return Err(format!("{what} metric '{}' is {}", m.name, m.value));
                }
            }
            Ok(())
        };
        if passes.end_to_end() {
            check(&spec.end_to_end, &self.end_to_end, "end-to-end")?;
        }
        if passes.layers() {
            check(&spec.per_layer, &self.per_layer, "per-layer")?;
        }
        Ok(())
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`; end-to-end metrics, or per-layer ones for a
    /// layers-only run.
    pub fn result_line(&self, spec: &Spec, passes: Passes) -> String {
        let (defs, got) = if passes == Passes::Layers {
            (&spec.per_layer, &self.per_layer)
        } else {
            (&spec.end_to_end, &self.end_to_end)
        };
        let metrics: Vec<String> = got
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    m.value,
                    unit_of(defs, &m.name)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// One-line JSON record for `--out` files (what `compare` reads).
    pub fn to_json(&self, spec: &Spec, prov: &Provenance) -> String {
        let section = |defs: &[MetricDef], got: &[MetricValue]| {
            let items: Vec<String> = got
                .iter()
                .map(|m| {
                    let spread = match m.spread {
                        Some((n, q1, q3)) => format!(",\"samples\":{n},\"q1\":{q1},\"q3\":{q3}"),
                        None => String::new(),
                    };
                    format!(
                        "\"{}\":{{\"value\":{},\"unit\":\"{}\"{spread}}}",
                        m.name,
                        m.value,
                        unit_of(defs, &m.name)
                    )
                })
                .collect();
            format!("{{{}}}", items.join(","))
        };
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"threads\":{},\"counts\":\"{}\",\
             \"provenance\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\
             \"end_to_end\":{},\"per_layer\":{}}}",
            self.workload,
            self.seed,
            self.threads,
            escape(&self.counts),
            prov.to_json(),
            self.correct(),
            self.attempted,
            self.failed,
            section(&spec.end_to_end, &self.end_to_end),
            section(&spec.per_layer, &self.per_layer)
        )
    }

    /// The human table: every metric by name with its unit.
    pub fn human(&self, spec: &Spec) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "## workload {}  seed={} T={} {}",
            self.workload, self.seed, self.threads, self.counts
        )
        .unwrap();
        let mut section = |title: &str, defs: &[MetricDef], got: &[MetricValue]| {
            if got.is_empty() {
                return;
            }
            writeln!(out, "{title}").unwrap();
            for m in got {
                let spread = match m.spread {
                    Some((n, q1, q3)) => format!("  n={n} q1={q1:.4} q3={q3:.4}"),
                    None => String::new(),
                };
                let note = if m.note.is_empty() {
                    String::new()
                } else {
                    format!("  ({})", m.note)
                };
                writeln!(
                    out,
                    "  {:<32} {:>16.6} {:<6}{spread}{note}",
                    m.name,
                    m.value,
                    unit_of(defs, &m.name)
                )
                .unwrap();
            }
        };
        section("end_to_end", &spec.end_to_end, &self.end_to_end);
        section("per_layer", &spec.per_layer, &self.per_layer);
        writeln!(
            out,
            "checks: attempted {} failed {} failed_frac {}",
            self.attempted,
            self.failed,
            self.failed_frac()
        )
        .unwrap();
        for f in &self.failures {
            writeln!(out, "  FAILED: {f}").unwrap();
        }
        out
    }
}

fn unit_of<'a>(defs: &'a [MetricDef], name: &str) -> &'a str {
    defs.iter()
        .find(|d| d.name == name)
        .map_or("?", |d| d.unit.as_str())
}

/// One end-to-end value read back from a record file.
#[derive(Clone, Debug)]
pub struct ReadMetric {
    pub value: f64,
    /// Within-run sample quartiles, when the record carried them.
    pub quartiles: Option<(f64, f64)>,
}

/// One record line read back: workload, failure counts, end-to-end values.
#[derive(Clone, Debug)]
pub struct ReadRecord {
    pub workload: String,
    pub attempted: f64,
    pub failed: f64,
    pub end_to_end: Vec<(String, ReadMetric)>,
}

/// Parse a record file: one JSON record per non-empty line.
pub fn read_records(text: &str) -> Result<Vec<ReadRecord>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = jsonv::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("line {}: missing number \"{key}\"", lineno + 1))
        };
        let Some(Json::Obj(members)) = doc.get("end_to_end") else {
            return Err(format!("line {}: missing \"end_to_end\"", lineno + 1));
        };
        out.push(ReadRecord {
            workload: doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {}: missing \"workload\"", lineno + 1))?
                .to_string(),
            attempted: num("attempted")?,
            failed: num("failed")?,
            end_to_end: members
                .iter()
                .filter_map(|(name, m)| {
                    let value = m.get("value")?.as_num()?;
                    let quartiles = m
                        .get("q1")
                        .and_then(Json::as_num)
                        .zip(m.get("q3").and_then(Json::as_num));
                    Some((name.clone(), ReadMetric { value, quartiles }))
                })
                .collect(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> RunRecord {
        RunRecord {
            workload: "dense_t4_n2000".into(),
            seed: 3,
            threads: 2,
            counts: "rounds=2".into(),
            attempted: 4,
            failed: 0,
            failures: vec![],
            end_to_end: Spec::embedded()
                .end_to_end
                .iter()
                .map(|d| MetricValue::new(&d.name, 1.5))
                .collect(),
            per_layer: vec![],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let spec = Spec::embedded();
        let doc = jsonv::parse(&record().result_line(&spec, Passes::EndToEnd)).unwrap();
        let Json::Obj(members) = &doc else { panic!() };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(setup.get("value").unwrap().as_num(), Some(1.5));
    }

    #[test]
    fn validate_catches_missing_extra_and_non_finite() {
        let spec = Spec::embedded();
        let mut r = record();
        assert!(r.validate(&spec, Passes::EndToEnd).is_ok());
        assert!(
            r.validate(&spec, Passes::Both).is_err(),
            "no per-layer values"
        );
        r.end_to_end[1].value = f64::NAN;
        assert!(r.validate(&spec, Passes::EndToEnd).is_err());
        r.end_to_end[1].value = 1.0;
        r.end_to_end.push(MetricValue::new("made_up", 1.0));
        assert!(r.validate(&spec, Passes::EndToEnd).is_err());
        r.end_to_end.truncate(2);
        assert!(r.validate(&spec, Passes::EndToEnd).is_err());
    }

    #[test]
    fn record_lines_round_trip_through_the_reader() {
        let spec = Spec::embedded();
        let prov = Provenance::collect();
        let mut r = record();
        r.end_to_end[0].spread = Some((40, 1.0, 2.0));
        let text = format!(
            "{}\n\n{}\n",
            r.to_json(&spec, &prov),
            r.to_json(&spec, &prov)
        );
        let back = read_records(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].workload, "dense_t4_n2000");
        assert_eq!(back[0].end_to_end.len(), spec.end_to_end.len());
        assert_eq!(back[0].end_to_end[0].1.quartiles, Some((1.0, 2.0)));
        assert_eq!(back[0].end_to_end[1].1.quartiles, None);
        assert!(read_records("{not json").is_err());
    }
}
