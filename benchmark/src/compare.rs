//! `compare <a.json> <b.json>`: two `run` documents, one row per workload ×
//! end-to-end metric, judged against the declared bounds.

use crate::json::{parse, Value};
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::{quartiles, spread};
use crate::Result;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b`'s median is better than `a`'s.
    Better,
    /// `b`'s median is no better, and no worse than the bound allows.
    Within,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Worse,
    /// The runs of one side spread wider than the bound, so a difference of
    /// the bound's size cannot be told from noise — unless every run of one
    /// side beats every run of the other.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against `a` for one metric.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    // Orient so that larger is worse.
    let sign = if metric.better == Better::Lower { 1.0 } else { -1.0 };
    let (_, a_median, _) = quartiles(a);
    let (_, b_median, _) = quartiles(b);
    let worse_by = sign * (b_median - a_median) / a_median.abs().max(f64::MIN_POSITIVE);
    let max = |values: &[f64]| values.iter().map(|v| sign * v).fold(f64::NEG_INFINITY, f64::max);
    let min = |values: &[f64]| values.iter().map(|v| sign * v).fold(f64::INFINITY, f64::min);
    if spread(a).max(spread(b)) > metric.bound {
        if max(b) < min(a) {
            return Verdict::Better;
        }
        if min(b) > max(a) && worse_by > metric.bound {
            return Verdict::Worse;
        }
        return Verdict::Unresolved;
    }
    if worse_by > metric.bound {
        Verdict::Worse
    } else if worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn values_of(workload: &Value, metric: &str) -> Option<Vec<f64>> {
    let values = workload.get("end_to_end")?.get(metric)?.get("values")?.as_array()?;
    let values: Vec<f64> = values.iter().filter_map(Value::as_f64).collect();
    (!values.is_empty()).then_some(values)
}

fn load(path: &str) -> Result<Value> {
    let text = std::fs::read_to_string(path).map_err(|error| format!("{path}: {error}"))?;
    Ok(parse(&text).map_err(|error| format!("{path}: {error}"))?)
}

pub fn run(a_path: &str, b_path: &str) -> Result<ExitCode> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    for (key, what) in [("seed", "seeds"), ("seconds", "run lengths"), ("smoke", "smoke settings")]
    {
        if a.get(key) != b.get(key) {
            eprintln!("warning: the two documents were made with different {what}");
        }
    }
    let workloads = a.get("workloads").and_then(Value::as_object).ok_or("a: no workloads")?;
    println!(
        "{:<18} {:<15} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14} {:>6}  verdict",
        "workload", "metric", "a q1", "a median", "a q3", "b q1", "b median", "b q3", "bound"
    );
    let mut worse = 0;
    for (name, a_workload) in workloads {
        let Some(b_workload) = b.get("workloads").and_then(|workloads| workloads.get(name)) else {
            println!("{name:<18} missing from {b_path}");
            continue;
        };
        for metric in &END_TO_END {
            let (Some(a_values), Some(b_values)) =
                (values_of(a_workload, metric.name), values_of(b_workload, metric.name))
            else {
                println!("{name:<18} {:<15} missing on one side", metric.name);
                continue;
            };
            let verdict = judge(metric, &a_values, &b_values);
            worse += usize::from(verdict == Verdict::Worse);
            let (a_q1, a_median, a_q3) = quartiles(&a_values);
            let (b_q1, b_median, b_q3) = quartiles(&b_values);
            println!(
                "{name:<18} {:<15} {a_q1:>14.6} {a_median:>14.6} {a_q3:>14.6} {b_q1:>14.6} {b_median:>14.6} {b_q3:>14.6} {:>6.3}  {}",
                metric.name,
                metric.bound,
                verdict.as_str()
            );
        }
    }
    if worse > 0 {
        eprintln!("{worse} metric(s) worse than their bound allows");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: EndToEnd = EndToEnd { name: "t", unit: "us", better: Better::Lower, bound: 0.10 };
    const HIGHER: EndToEnd =
        EndToEnd { name: "r", unit: "1/s", better: Better::Higher, bound: 0.10 };

    #[test]
    fn medians_are_judged_against_the_bound_in_the_metrics_direction() {
        let steady = |centre: f64| vec![centre * 0.99, centre, centre * 1.01];
        assert_eq!(judge(&LOWER, &steady(100.0), &steady(105.0)), Verdict::Within);
        assert_eq!(judge(&LOWER, &steady(100.0), &steady(115.0)), Verdict::Worse);
        assert_eq!(judge(&LOWER, &steady(100.0), &steady(90.0)), Verdict::Better);
        assert_eq!(judge(&HIGHER, &steady(100.0), &steady(95.0)), Verdict::Within);
        assert_eq!(judge(&HIGHER, &steady(100.0), &steady(85.0)), Verdict::Worse);
        assert_eq!(judge(&HIGHER, &steady(100.0), &steady(120.0)), Verdict::Better);
        // Exact metrics of one seed: identical single values.
        assert_eq!(judge(&HIGHER, &[0.93], &[0.93]), Verdict::Within);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_runs_separate() {
        let noisy = vec![80.0, 100.0, 120.0, 90.0, 110.0];
        let shifted: Vec<f64> = noisy.iter().map(|v| v + 5.0).collect();
        assert_eq!(judge(&LOWER, &noisy, &shifted), Verdict::Unresolved);
        let far_better: Vec<f64> = noisy.iter().map(|v| v / 4.0).collect();
        assert_eq!(judge(&LOWER, &noisy, &far_better), Verdict::Better);
        let far_worse: Vec<f64> = noisy.iter().map(|v| v * 4.0).collect();
        assert_eq!(judge(&LOWER, &noisy, &far_worse), Verdict::Worse);
    }
}
