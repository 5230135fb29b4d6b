//! What a run prints last, and the results files `--all` writes and
//! `--compare` reads, as (de)serialisable types.

use serde::{DeError, Deserialize, Serialize, Value};

/// The last line of a run's standard output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultLine {
    /// Whether every check held.
    pub correct: bool,
    /// Checks run.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
    /// Every metric the run reports, in declaration order.
    pub metrics: Metrics,
}

impl ResultLine {
    /// The line as compact JSON.
    ///
    /// # Errors
    ///
    /// Fails when a metric is not a finite number, which JSON cannot hold.
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string(self).map_err(|e| format!("writing the result line: {e}"))
    }

    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, m)| m.value)
    }
}

/// One metric's value with its unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measured {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// Metrics by name, kept in order; a JSON object keyed by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<(String, Measured)>);

impl Serialize for Metrics {
    fn to_value(&self) -> Value {
        Value::Map(
            self.0
                .iter()
                .map(|(name, m)| (name.clone(), m.to_value()))
                .collect(),
        )
    }
}

impl<'de> Deserialize<'de> for Metrics {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let Value::Map(entries) = value else {
            return Err(DeError::custom("metrics must be an object"));
        };
        entries
            .iter()
            .map(|(name, m)| Ok((name.clone(), Measured::from_value(m)?)))
            .collect::<Result<_, DeError>>()
            .map(Metrics)
    }
}

/// One line of a results file: a run of one workload and what it printed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Seed of the run.
    pub seed: u64,
    /// `1` for a traced run, `0` otherwise.
    pub trace: u8,
    /// Digest of the run's simulated results.
    pub digest: String,
    /// Simulated requests one pass works on.
    pub sim_requests: u64,
    /// The run's result line.
    pub result: ResultLine,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_with_every_digit() {
        let line = ResultLine {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: Metrics(vec![
                (
                    "wall_s".to_string(),
                    Measured {
                        value: 0.1 + 0.2,
                        unit: "s".to_string(),
                    },
                ),
                (
                    "setup_s".to_string(),
                    Measured {
                        value: 3.846e-5,
                        unit: "s".to_string(),
                    },
                ),
            ]),
        };
        let text = line.to_json().expect("finite");
        assert!(text.starts_with(r#"{"correct":true,"attempted":12,"failed":0,"metrics":{"wall_s":{"value":0.30000000000000004,"unit":"s"}"#), "{text}");
        let back: ResultLine = serde_json::from_str(&text).expect("parses");
        assert_eq!(back, line);
        assert_eq!(back.metric("setup_s"), Some(3.846e-5));
        assert_eq!(back.metric("nope"), None);
    }

    #[test]
    fn non_finite_metrics_and_malformed_lines_are_errors() {
        let mut line = ResultLine {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: Metrics::default(),
        };
        line.metrics.0.push((
            "x".to_string(),
            Measured {
                value: f64::NAN,
                unit: "s".to_string(),
            },
        ));
        assert!(line.to_json().is_err());
        for bad in [
            "{",
            r#"{"correct": true}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": []}"#,
        ] {
            assert!(serde_json::from_str::<ResultLine>(bad).is_err(), "{bad}");
        }
    }
}
