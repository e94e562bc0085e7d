//! Fig. 3 — software INT quantization needs coarse blocks (128–8192
//! elements) to amortize its FP32 scales, while hardware BFP scales at
//! fine granularity (2–128) and achieves much higher effective resolution
//! at the same storage budget.

use mx_bench::{fmt, print_table, write_csv};
use mx_core::bdr::{BdrFormat, BdrQuantizer};
use mx_core::qsnr::{measure_qsnr, Distribution, QsnrConfig};
use mx_core::scaling::{ElementCode, ScaleStrategy, ScaledQuantizer};
use mx_core::VectorQuantizer;

fn main() {
    let cfg = QsnrConfig {
        vectors: 128,
        vector_len: 8192,
        seed: 42,
    };
    let dist = Distribution::NormalVariableVariance;
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for k1 in [128usize, 512, 2048, 8192] {
        for (name, strat) in [
            ("amax", ScaleStrategy::Amax),
            ("delayed", ScaleStrategy::default()),
        ] {
            let mut q = ScaledQuantizer::new(ElementCode::Int { bits: 8 }, None, k1, strat);
            let qsnr = measure_qsnr(&mut q, dist, cfg);
            let bits = q.bits_per_element();
            rows.push(vec![
                format!("INT8 (SW {name}, k1={k1})"),
                fmt(bits, 2),
                fmt(qsnr, 1),
            ]);
            csv.push(vec![
                format!("int8_{name}_k{k1}"),
                bits.to_string(),
                qsnr.to_string(),
            ]);
        }
    }
    for k1 in [2usize, 8, 16, 64, 128] {
        let fmt8 = BdrFormat::new(7, 8, 0, k1, k1).expect("valid BFP");
        let mut q = BdrQuantizer::new(fmt8);
        let qsnr = measure_qsnr(&mut q, dist, cfg);
        let bits = fmt8.bits_per_element();
        rows.push(vec![
            format!("BFP m=7 (HW, k1={k1})"),
            fmt(bits, 2),
            fmt(qsnr, 1),
        ]);
        csv.push(vec![
            format!("bfp7_k{k1}"),
            bits.to_string(),
            qsnr.to_string(),
        ]);
    }
    print_table(
        "Fig. 3: coarse software INT vs fine-grained hardware BFP",
        &["format", "bits/element", "QSNR (dB)"],
        &rows,
    );
    println!(
        "\nShape check: BFP at k1=16 (8.5 bits) should beat INT8 at k1>=128 (8+ bits): see rows above."
    );
    write_csv(
        "fig3_int_vs_bfp",
        &["config", "bits_per_element", "qsnr_db"],
        &csv,
    );
}
