//! Enumeration of the BDR design space: the 800+ configurations behind
//! Fig. 7, plus the named competitor formats (FP8/FP6/FP4 variants, scaled
//! INT, VSQ, MSFP).

use mx_core::bdr::BdrFormat;
use mx_core::scalar::ScalarFormat;
use mx_hw::cost::FormatConfig;

/// Enumerates the generic BDR sweep: `m ∈ 1..=8`, `d1 ∈ {4, 8}`,
/// `d2 ∈ {0, 1, 2}`, `k1 ∈ {8, 16, 32, 64, 128}`, `k2` dividing `k1` up
/// to 16. For `d2 = 0` (classic BFP) the sub-block granularity is
/// meaningless, so only `k2 = k1` is kept.
pub fn bdr_grid() -> Vec<FormatConfig> {
    let mut out = Vec::new();
    for m in 1..=8u32 {
        for d1 in [4u32, 8] {
            for k1 in [8usize, 16, 32, 64, 128] {
                for d2 in [0u32, 1, 2] {
                    if d2 == 0 {
                        if let Ok(fmt) = BdrFormat::new(m, d1, 0, k1, k1) {
                            out.push(FormatConfig::Bdr(fmt));
                        }
                        continue;
                    }
                    for k2 in [1usize, 2, 4, 8, 16] {
                        if k2 > k1 || k1 % k2 != 0 {
                            continue;
                        }
                        if let Ok(fmt) = BdrFormat::new(m, d1, d2, k1, k2) {
                            out.push(FormatConfig::Bdr(fmt));
                        }
                    }
                }
            }
        }
    }
    out
}

/// The named competitor formats plotted in Fig. 7.
pub fn named_formats() -> Vec<(String, FormatConfig)> {
    let mut out: Vec<(String, FormatConfig)> = vec![
        ("MX9".into(), FormatConfig::Bdr(BdrFormat::MX9)),
        ("MX6".into(), FormatConfig::Bdr(BdrFormat::MX6)),
        ("MX4".into(), FormatConfig::Bdr(BdrFormat::MX4)),
        ("MSFP16".into(), FormatConfig::Bdr(BdrFormat::MSFP16)),
        ("MSFP12".into(), FormatConfig::Bdr(BdrFormat::MSFP12)),
    ];
    for (name, fmt) in [
        ("FP8-E5M2", ScalarFormat::E5M2),
        ("FP8-E4M3", ScalarFormat::E4M3),
        ("FP8-E3M4", ScalarFormat::E3M4),
        ("FP6-E3M2", ScalarFormat::FP6_E3M2),
        ("FP6-E2M3", ScalarFormat::FP6_E2M3),
        ("FP4-E2M1", ScalarFormat::FP4_E2M1),
        ("FP4-E1M2", ScalarFormat::FP4_E1M2),
        ("FP4-E3M0", ScalarFormat::FP4_E3M0),
    ] {
        out.push((
            name.into(),
            FormatConfig::ScalarSw {
                format: fmt,
                k1: 10_000,
            },
        ));
    }
    for bits in [4u32, 8] {
        out.push((
            format!("scaled INT{bits}"),
            FormatConfig::Int { bits, k1: 1024 },
        ));
    }
    // VSQ variants: the paper plots the best of d2 ∈ {4, 6, 8, 10} per
    // bit-width; we enumerate all and let the caller pick.
    for bits in [4u32, 6, 8] {
        for d2 in [4u32, 6, 8, 10] {
            out.push((
                format!("VSQ{bits}-d{d2}"),
                FormatConfig::Vsq { bits, d2, k1: 1024 },
            ));
        }
    }
    out
}

/// Full sweep: the grid plus every named format whose configuration is not
/// already in it (configs compare by value; the legend names are dropped —
/// [`FormatConfig::label`] regenerates a label per point).
pub fn full_space() -> Vec<FormatConfig> {
    let mut out = bdr_grid();
    for (_, c) in named_formats() {
        if !out.contains(&c) {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_exceeds_800_configurations() {
        let n = bdr_grid().len();
        assert!(n >= 800, "paper sweeps 800+ configs; grid has {n}");
    }

    #[test]
    fn grid_has_no_duplicates() {
        let grid = bdr_grid();
        for (i, a) in grid.iter().enumerate() {
            for b in &grid[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn mx_formats_are_in_the_grid() {
        let grid = bdr_grid();
        for fmt in [BdrFormat::MX4, BdrFormat::MX6, BdrFormat::MX9] {
            assert!(grid.contains(&FormatConfig::Bdr(fmt)), "{fmt} missing");
        }
    }

    #[test]
    fn named_formats_cover_the_fig7_legend() {
        let names: Vec<String> = named_formats().into_iter().map(|(n, _)| n).collect();
        for expect in [
            "MX9",
            "MX6",
            "MX4",
            "FP8-E4M3",
            "FP8-E5M2",
            "MSFP16",
            "MSFP12",
            "scaled INT8",
        ] {
            assert!(
                names.iter().any(|n| n == expect),
                "{expect} missing from legend"
            );
        }
        assert!(names.iter().filter(|n| n.starts_with("VSQ")).count() == 12);
    }

    #[test]
    fn full_space_is_superset() {
        let full = full_space();
        assert!(full.len() >= bdr_grid().len());
    }
}
