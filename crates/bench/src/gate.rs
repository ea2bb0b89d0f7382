//! The deterministic `--check` gate behind `bench_scale`: one parser for
//! the format the binary emits (a JSON array with one flat object per
//! line), one checker, and one rule for a cell that exists on only one
//! side — it is an error, whichever side. Every gated value is a
//! simulated time, so lower is better and a run repeats exactly; wall
//! clock is not gated here (`benchmark/` measures it). The binary keeps
//! what is its own: which fields make a cell ([`CellSpec`]) and the
//! tolerance.

use std::fmt;

/// Which lines of a results file are gated cells, and how to read one.
#[derive(Debug, Clone, Copy)]
pub struct CellSpec {
    /// Only lines whose `"section"` field has this value.
    pub section: &'static str,
    /// Fields that identify the cell; its key is the section and these
    /// values joined by `/`.
    pub key_fields: &'static [&'static str],
    /// The gated number (lower is better).
    pub value_field: &'static str,
}

/// One gated number of a results file.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub key: String,
    pub value: f64,
}

/// The value of `"key"` on one line of the results format.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let quoted = format!("\"{key}\"");
    let at = line.find(&quoted)? + quoted.len();
    let rest = line[at..].trim_start_matches([':', ' ', '"']);
    Some(rest.split(['"', ',', '}']).next().unwrap_or("").trim())
}

/// Every cell of `json` that `spec` describes, in file order. Other lines
/// (another section, a row without the value) are not cells.
pub fn parse_cells(json: &str, spec: &CellSpec) -> Vec<Cell> {
    json.lines()
        .filter(|line| field(line, "section") == Some(spec.section))
        .filter_map(|line| {
            let keys: Option<Vec<&str>> = spec.key_fields.iter().map(|k| field(line, k)).collect();
            let value = field(line, spec.value_field)?.parse::<f64>().ok()?;
            let key: Vec<&str> = std::iter::once(spec.section).chain(keys?).collect();
            Some(Cell { key: key.join("/"), value })
        })
        .collect()
}

/// What [`check_regressions`] found wrong with one cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Finding {
    /// Committed, but the fresh run did not produce it.
    MissingFromFresh(String),
    /// Produced by the fresh run, but not committed.
    MissingFromCommitted(String),
    Regressed { key: String, committed: f64, fresh: f64 },
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::MissingFromFresh(key) => {
                write!(f, "MISSING CELL {key}: committed, but not produced by this run")
            }
            Finding::MissingFromCommitted(key) => {
                write!(f, "MISSING CELL {key}: produced by this run, but not committed")
            }
            Finding::Regressed { key, committed, fresh } => write!(
                f,
                "PERF REGRESSION {key}: {committed} -> {fresh} ({:+.1}%)",
                (fresh / committed - 1.0) * 100.0
            ),
        }
    }
}

/// Compare fresh cells against the committed ones: a cell on one side only
/// is a finding, and so is one higher than committed by more than
/// `tolerance` (a fraction).
pub fn check_regressions(committed: &[Cell], fresh: &[Cell], tolerance: f64) -> Vec<Finding> {
    let mut findings = Vec::new();
    for old in committed {
        let Some(new) = fresh.iter().find(|c| c.key == old.key) else {
            findings.push(Finding::MissingFromFresh(old.key.clone()));
            continue;
        };
        if new.value > old.value * (1.0 + tolerance) {
            findings.push(Finding::Regressed {
                key: old.key.clone(),
                committed: old.value,
                fresh: new.value,
            });
        }
    }
    for new in fresh {
        if !committed.iter().any(|c| c.key == new.key) {
            findings.push(Finding::MissingFromCommitted(new.key.clone()));
        }
    }
    findings
}

/// The `--check` step of `bench_scale`: gate the results it just wrote
/// (`fresh_json`) against the committed file at `committed_path`, print the
/// verdict, and exit non-zero on any finding.
pub fn check_against(committed_path: &str, fresh_json: &str, spec: &CellSpec, tolerance: f64) {
    let committed_json = std::fs::read_to_string(committed_path).expect("read baseline");
    let committed = parse_cells(&committed_json, spec);
    assert!(!committed.is_empty(), "no baseline cells parsed from {committed_path}");
    let findings = check_regressions(&committed, &parse_cells(fresh_json, spec), tolerance);
    if findings.is_empty() {
        println!(
            "perf check OK: all {} cells within {:.0}% of {committed_path}",
            committed.len(),
            tolerance * 100.0
        );
        return;
    }
    for finding in &findings {
        eprintln!("{finding}");
    }
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCALE: CellSpec =
        CellSpec { section: "scale", key_fields: &["coll", "np"], value_field: "us" };

    fn cells(rows: &[(&str, f64)]) -> Vec<Cell> {
        rows.iter()
            .map(|&(key, value)| Cell { key: key.into(), value })
            .collect()
    }

    #[test]
    fn parses_the_lines_a_spec_describes_and_no_others() {
        let json = concat!(
            "[\n",
            "  {\"section\": \"scale\", \"coll\": \"bcast\", \"np\": 64, \"algo\": \"ring\", \"us\": 100.00},\n",
            "  {\"section\": \"smoke\", \"coll\": \"bcast\", \"np\": 4, \"us\": 1.00},\n",
            "  {\"section\": \"scale\", \"coll\": \"barrier\", \"np\": 256}\n",
            "]\n"
        );
        assert_eq!(parse_cells(json, &SCALE), cells(&[("scale/bcast/64", 100.0)]));
    }

    #[test]
    fn a_planted_five_percent_regression_fails_a_one_percent_gate() {
        let committed = cells(&[("allreduce/64", 200.0), ("bcast/64", 100.0)]);
        let fresh = cells(&[("allreduce/64", 200.0), ("bcast/64", 105.0)]);
        assert_eq!(
            check_regressions(&committed, &fresh, 0.01),
            vec![Finding::Regressed { key: "bcast/64".into(), committed: 100.0, fresh: 105.0 }]
        );
        // The same run passes a gate whose tolerance covers it, and a
        // faster cell never fails.
        assert!(check_regressions(&committed, &fresh, 0.10).is_empty());
        assert!(check_regressions(&committed, &cells(&[("allreduce/64", 1.0), ("bcast/64", 1.0)]), 0.0)
            .is_empty());
    }

    #[test]
    fn a_cell_missing_on_either_side_is_an_error() {
        let both = cells(&[("alltoall/1024", 50.0), ("alltoall/4096", 90.0)]);
        let one = cells(&[("alltoall/1024", 50.0)]);
        assert_eq!(
            check_regressions(&both, &one, 0.10),
            vec![Finding::MissingFromFresh("alltoall/4096".into())]
        );
        assert_eq!(
            check_regressions(&one, &both, 0.10),
            vec![Finding::MissingFromCommitted("alltoall/4096".into())]
        );
    }
}
