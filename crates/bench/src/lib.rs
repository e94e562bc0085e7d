//! # mx-bench — experiment harness for the MX paper reproduction
//!
//! One binary per table and figure of the paper (run with
//! `cargo run --release -p mx-bench --bin <name>`):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `fig1_scaling` | Fig. 1 — INT scaling strategies on the worked example |
//! | `fig2_two_level` | Fig. 2 — two-level scaling worked example |
//! | `fig3_int_vs_bfp` | Fig. 3 — coarse SW INT vs fine HW BFP |
//! | `table1_taxonomy` | Table I — two-level classification of formats |
//! | `fig6_pipeline` | Fig. 6 — bit-accurate dot-product pipeline demo |
//! | `fig7_pareto` | Fig. 7 — 800+ config sweep + Pareto frontier |
//! | `table2_knee` | Table II selection — knee analysis of d2/k2 |
//! | `theorem1_bound` | Eq. 4 — bound vs measured QSNR |
//! | `fig8_compute_flow` | Fig. 8 — quantized training compute flow trace |
//! | `table3_model_suite` | Table III — training + inference across families |
//! | `table4_fewshot` | Table IV — zero/few-shot direct-cast grid |
//! | `table5_bert_qa` | Table V — BERT QA direct cast |
//! | `table6_recsys` | Table VI — recommendation NE deltas |
//! | `table7_generative` | Table VII — generative training FP32 vs MX9 |
//! | `fig9_training_cost` | Fig. 9 — LM loss vs normalized training cost |
//!
//! Each binary prints a paper-style table and writes a CSV under
//! `results/`. `cpu_features` prints the host's ISA extensions and the
//! resolved kernel backend. Performance is measured by the separate
//! `benchmark/` package, not by this crate.

#![warn(missing_docs)]

use std::fs;
use std::path::Path;

/// Prints a fixed-width table with a title, separator rules, and rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let rule: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    println!("\n== {title} ==");
    println!("{rule}");
    let head: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!(" {h:<w$} "))
        .collect();
    println!("{}", head.join("|"));
    println!("{rule}");
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!(" {c:<w$} "))
            .collect();
        println!("{}", line.join("|"));
    }
    println!("{rule}");
}

/// Writes rows as CSV under `results/<name>.csv` (creating the directory).
///
/// # Panics
///
/// Panics if the filesystem refuses the write — experiment outputs are not
/// optional.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results dir");
    let mut body = headers.join(",");
    body.push('\n');
    for row in rows {
        body.push_str(&row.join(","));
        body.push('\n');
    }
    let path = dir.join(format!("{name}.csv"));
    fs::write(&path, body).expect("write results csv");
    println!("[wrote {}]", path.display());
}

/// Returns true when the `MX_FULL` environment variable asks for
/// publication-scale settings (slower, closer to the paper's sample sizes).
pub fn full_scale() -> bool {
    mx_core::knobs::raw("MX_FULL").is_some_and(|v| v == "1")
}

/// Formats an `f64` with the given precision, using `-` for NaN.
pub fn fmt(v: f64, prec: usize) -> String {
    if v.is_nan() {
        "-".into()
    } else {
        format!("{v:.prec$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_handles_nan() {
        assert_eq!(fmt(f64::NAN, 2), "-");
        assert_eq!(fmt(1.23456, 2), "1.23");
    }

    #[test]
    fn table_printing_does_not_panic() {
        print_table(
            "demo",
            &["a", "long header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
