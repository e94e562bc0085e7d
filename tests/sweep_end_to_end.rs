//! Cross-crate integration: a compact Fig. 7 sweep — QSNR methodology
//! (mx-core), cost model (mx-hw), and Pareto machinery (mx-sweep) together
//! reproduce the paper's qualitative frontier.

use mx::core::bdr::BdrFormat;
use mx::core::qsnr::{Distribution, QsnrConfig, SampleSet};
use mx::core::scaling::ScaleStrategy;
use mx::hw::cost::FormatConfig;
use mx::sweep::eval::{evaluate_all, SweepSettings};
use mx::sweep::pareto::{db_below_frontier, pareto_indices};
use mx::sweep::space;

fn settings() -> SweepSettings {
    SweepSettings {
        qsnr: QsnrConfig {
            vectors: 96,
            vector_len: 1024,
            seed: 9,
        },
        ..SweepSettings::default()
    }
}

#[test]
fn compact_fig7_shape() {
    // MX ladder + BFP ladder + named scalar/INT/VSQ formats.
    let mut configs = Vec::new();
    for m in 1..=8u32 {
        configs.push(FormatConfig::Bdr(
            BdrFormat::new(m, 8, 1, 16, 2).expect("valid"),
        ));
        configs.push(FormatConfig::Bdr(
            BdrFormat::new(m, 8, 0, 16, 16).expect("valid"),
        ));
    }
    for (_, c) in space::named_formats() {
        if !configs.contains(&c) {
            configs.push(c);
        }
    }
    let points = evaluate_all(&configs, &settings());
    let frontier = pareto_indices(&points);
    assert!(
        frontier.len() >= 4,
        "frontier too small: {}",
        frontier.len()
    );

    let find = |f: BdrFormat| {
        points
            .iter()
            .find(|p| p.config == FormatConfig::Bdr(f))
            .expect("present")
    };
    let by_label = |l: &str| points.iter().find(|p| p.label == l).expect("present");

    let mx9 = find(BdrFormat::MX9);
    let mx6 = find(BdrFormat::MX6);
    let msfp16 = find(BdrFormat::MSFP16);
    let fp8 = by_label("FP8-E4M3");

    // Headline orderings from §IV-C.
    assert!(
        mx9.qsnr_db > fp8.qsnr_db + 10.0,
        "MX9 {} vs FP8 {}",
        mx9.qsnr_db,
        fp8.qsnr_db
    );
    assert!(
        mx9.qsnr_db > msfp16.qsnr_db + 2.0,
        "MX9 should clear MSFP16 by >2 dB"
    );
    assert!(
        mx9.product <= fp8.product * 1.15,
        "MX9 cost should be near FP8"
    );
    assert!(
        mx6.product < fp8.product * 0.6,
        "MX6 should cost well under FP8"
    );
    // MX points hug the frontier.
    for p in [mx9, mx6] {
        assert!(
            db_below_frontier(&points, p) < 3.0,
            "{} off-frontier",
            p.label
        );
    }
}

/// The QSNR of sixteen configurations — twelve spread over the BDR grid,
/// one or two of every software-scaled family — pinned to the bit for one
/// seed. The values were produced by the per-element division path
/// (`plan_into` + `quantize_code`) with one draw per configuration, before
/// the sweep shared its draw and the value path moved onto the fast block
/// core; any drift in either now fails here, not only in the repo
/// benchmark's `sweep.qsnr_checksum`. (The samples come from `f64::ln` /
/// `cos`, so a platform whose libm rounds those differently needs the
/// table regenerated — as it would the checksum.)
#[test]
fn qsnr_bits_are_pinned_for_a_sixteen_config_sample() {
    const PINNED: [(&str, u64); 16] = [
        ("BDR(m=1,d1=4,d2=2,k1=8,k2=4)", 0x4020a862146919a2), // 8.329 dB
        ("BDR(m=1,d1=8,d2=1,k1=32,k2=16)", 0x401ad88659f7c352), // 6.711 dB
        ("BDR(m=2,d1=4,d2=1,k1=128,k2=1)", 0x402f0ab6fd0bda2e), // 15.521 dB
        ("BDR(m=3,d1=4,d2=2,k1=8,k2=8)", 0x4034492c5825eb48), // 20.286 dB
        ("BDR(m=3,d1=8,d2=2,k1=32,k2=1)", 0x40386a9d3e7f4a8d), // 24.416 dB
        ("BDR(m=4,d1=4,d2=1,k1=128,k2=2)", 0x403b723472b1c70e), // 27.446 dB
        ("BDR(m=5,d1=4,d2=0,k1=16,k2=16)", 0x403f528daa430415), // 31.322 dB
        ("BDR(m=5,d1=8,d2=2,k1=32,k2=2)", 0x4041b934b06dabe1), // 35.447 dB
        ("BDR(m=6,d1=4,d2=1,k1=128,k2=4)", 0x40437a73d659ecfb), // 38.957 dB
        ("BDR(m=7,d1=4,d2=1,k1=16,k2=1)", 0x4047e776011aaf9e), // 47.808 dB
        ("BDR(m=7,d1=8,d2=2,k1=32,k2=4)", 0x4046e628318500c3), // 45.798 dB
        ("BDR(m=8,d1=4,d2=1,k1=128,k2=8)", 0x40493e6fe025497c), // 50.488 dB
        ("FP8-E4M3", 0x403511a5df997c49),                     // 21.069 dB
        ("FP4-E2M1", 0x402dc140062cbf9e),                     // 14.877 dB
        ("scaled INT8", 0x40354ae31a2591da),                  // 21.293 dB
        ("VSQ4(d2=6)", 0x4032bc4044517405),                   // 18.735 dB
    ];
    let grid = space::bdr_grid();
    let mut configs: Vec<FormatConfig> = (0..12)
        .map(|j| grid[(7 + 71 * j) % grid.len()].clone())
        .collect();
    for name in ["FP8-E4M3", "FP4-E2M1", "scaled INT8", "VSQ4-d6"] {
        let (_, config) = space::named_formats()
            .into_iter()
            .find(|(n, _)| n == name)
            .expect("in the legend");
        configs.push(config);
    }
    let settings = SweepSettings {
        qsnr: QsnrConfig {
            vectors: 16,
            vector_len: 512,
            seed: 14,
        },
        distribution: Distribution::NormalVariableVariance,
        threads: 2,
    };
    let points = evaluate_all(&configs, &settings);
    assert_eq!(points.len(), PINNED.len());
    for (p, (label, bits)) in points.iter().zip(PINNED) {
        assert_eq!(p.label, label);
        assert_eq!(
            p.qsnr_db.to_bits(),
            bits,
            "{label}: {} dB, pinned {} dB",
            p.qsnr_db,
            f64::from_bits(bits)
        );
    }
}

/// The 22 software-scaled configurations of the Fig. 7 legend (8 scalar
/// floats, 2 scaled INTs, 12 VSQ variants), in legend order.
fn software_scaled_formats() -> Vec<FormatConfig> {
    let configs: Vec<FormatConfig> = space::named_formats()
        .into_iter()
        .map(|(_, c)| c)
        .filter(|c| !matches!(c, FormatConfig::Bdr(_)))
        .collect();
    assert_eq!(configs.len(), 22);
    configs
}

fn assert_pinned(label: &str, qsnr_db: f64, bits: u64) {
    assert_eq!(
        qsnr_db.to_bits(),
        bits,
        "{label}: {qsnr_db} dB, pinned {} dB",
        f64::from_bits(bits)
    );
}

/// The QSNR bits of every software-scaled configuration under the sweep's
/// delayed scaling, at the sixteen-config sample's settings. The values
/// were produced by one quantizer per Table I row (INT, FP, VSQ), each
/// with its own block loop, before the three became one
/// `ScaledQuantizer`.
#[test]
fn qsnr_bits_are_pinned_for_every_software_scaled_format() {
    const PINNED: [(&str, u64); 22] = [
        ("FP8-E5M2", 0x40343cf1bed573cc),    // 20.238 dB
        ("FP8-E4M3", 0x403511a5df997c49),    // 21.069 dB
        ("FP8-E3M4", 0x4035531505de34f0),    // 21.325 dB
        ("FP6-E3M2", 0x40343cb95a4b1a69),    // 20.237 dB
        ("FP6-E2M3", 0x4034bcf1fb882efe),    // 20.738 dB
        ("FP4-E2M1", 0x402dc140062cbf9e),    // 14.877 dB
        ("FP4-E1M2", 0x40286e93ef1c5cde),    // 12.216 dB
        ("FP4-E3M0", 0x402c1885015fafe8),    // 14.048 dB
        ("scaled INT4", 0x40286e93ef1c5cde), // 12.216 dB
        ("scaled INT8", 0x40354ae31a2591da), // 21.293 dB
        ("VSQ4(d2=4)", 0x40326cb1d82a11ec),  // 18.425 dB
        ("VSQ4(d2=6)", 0x4032bc4044517405),  // 18.735 dB
        ("VSQ4(d2=8)", 0x4032d43eba6dd5f7),  // 18.829 dB
        ("VSQ4(d2=10)", 0x4032d8730d2d7fc4), // 18.846 dB
        ("VSQ6(d2=4)", 0x403533cda540def8),  // 21.202 dB
        ("VSQ6(d2=6)", 0x40353815595f1a2a),  // 21.219 dB
        ("VSQ6(d2=8)", 0x40353b144c33a6ea),  // 21.231 dB
        ("VSQ6(d2=10)", 0x40353c85484bf6de), // 21.236 dB
        ("VSQ8(d2=4)", 0x40356585ea2e9f75),  // 21.397 dB
        ("VSQ8(d2=6)", 0x403565e606a2f029),  // 21.398 dB
        ("VSQ8(d2=8)", 0x403565f946a02528),  // 21.398 dB
        ("VSQ8(d2=10)", 0x403566156391bcfc), // 21.399 dB
    ];
    let settings = SweepSettings {
        qsnr: QsnrConfig {
            vectors: 16,
            vector_len: 512,
            seed: 14,
        },
        distribution: Distribution::NormalVariableVariance,
        threads: 2,
    };
    let points = evaluate_all(&software_scaled_formats(), &settings);
    assert_eq!(points.len(), PINNED.len());
    for (p, (label, bits)) in points.iter().zip(PINNED) {
        assert_eq!(p.label, label);
        assert_pinned(label, p.qsnr_db, bits);
    }
}

/// The same 22 configurations under per-block amax scaling, on vectors of
/// 2048 elements: every INT and VSQ vector spans two `k1 = 1024` blocks,
/// so the block loop (not just the block routine) is pinned. Values from
/// the same three-quantizer code as above.
#[test]
fn qsnr_bits_are_pinned_for_every_software_scaled_format_under_amax() {
    const PINNED: [(&str, u64); 22] = [
        ("FP8-E5M2", 0x40399170aef1a3b6),    // 25.568 dB
        ("FP8-E4M3", 0x403faaf0ac5c2bdd),    // 31.668 dB
        ("FP8-E3M4", 0x4042ccbc8dad9e38),    // 37.600 dB
        ("FP6-E3M2", 0x4039915befa293a8),    // 25.568 dB
        ("FP6-E2M3", 0x403ec565e7372af3),    // 30.771 dB
        ("FP4-E2M1", 0x40322c66b19be10f),    // 18.173 dB
        ("FP4-E1M2", 0x402e59376438a23b),    // 15.174 dB
        ("FP4-E3M0", 0x402c81f252ad6620),    // 14.254 dB
        ("scaled INT4", 0x40300cde1d1ed969), // 16.050 dB
        ("scaled INT8", 0x4044a7cb590a9df2), // 41.311 dB
        ("VSQ4(d2=4)", 0x403491a4fe3f608b),  // 20.569 dB
        ("VSQ4(d2=6)", 0x40353a2064af8614),  // 21.227 dB
        ("VSQ4(d2=8)", 0x40355bded5091333),  // 21.359 dB
        ("VSQ4(d2=10)", 0x403562e8fb0e7a96), // 21.386 dB
        ("VSQ6(d2=4)", 0x4040cee4db814ef5),  // 33.616 dB
        ("VSQ6(d2=6)", 0x4040fbc0021887d3),  // 33.967 dB
        ("VSQ6(d2=8)", 0x4041258847ac0899),  // 34.293 dB
        ("VSQ6(d2=10)", 0x40412f4e7ed6b5e9), // 34.370 dB
        ("VSQ8(d2=4)", 0x4046f0b68ee7b169),  // 45.881 dB
        ("VSQ8(d2=6)", 0x40471635872abcc5),  // 46.174 dB
        ("VSQ8(d2=8)", 0x40472cb98dfca2c8),  // 46.349 dB
        ("VSQ8(d2=10)", 0x40474b488cbfc07b), // 46.588 dB
    ];
    let set = SampleSet::draw(
        Distribution::NormalVariableVariance,
        QsnrConfig {
            vectors: 16,
            vector_len: 2048,
            seed: 14,
        },
    );
    let configs = software_scaled_formats();
    for (config, (label, bits)) in configs.iter().zip(PINNED) {
        assert_eq!(config.label(), label);
        let mut q = config.quantizer(ScaleStrategy::Amax);
        assert_pinned(label, set.measure(q.as_mut()), bits);
    }
}

#[test]
fn full_space_is_large_and_unique() {
    let space = space::full_space();
    assert!(
        space.len() >= 800,
        "need the paper's 800+ configs, got {}",
        space.len()
    );
}
