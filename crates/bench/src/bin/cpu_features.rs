//! CPU-feature probe for CI logs: prints which SIMD feature levels the
//! runner actually has, plus the kernel backend the dispatch layer picks,
//! so a test log says which backend the default-backend test steps ran
//! on (a green AVX-512 step proves nothing on a runner without AVX-512).
//!
//! Each line is `feature: yes|no`, one feature per line, in dispatch
//! order; the final line is the resolved backend name.

use mx_core::gemm::kernel_backend_name;

#[cfg(target_arch = "x86_64")]
fn print_features() {
    let report = |name: &str, detected: bool| {
        println!("{name}: {}", if detected { "yes" } else { "no" });
    };
    report("sse2", is_x86_feature_detected!("sse2"));
    report("avx2", is_x86_feature_detected!("avx2"));
    report("avx512f", is_x86_feature_detected!("avx512f"));
    report("avx512bw", is_x86_feature_detected!("avx512bw"));
    report("avx512vnni", is_x86_feature_detected!("avx512vnni"));
}

#[cfg(not(target_arch = "x86_64"))]
fn print_features() {
    println!("(not x86_64: no x86 feature probes)");
}

fn main() {
    println!("== CPU feature probe ==");
    print_features();
    println!("kernel backend: {}", kernel_backend_name());
}
