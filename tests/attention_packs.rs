//! A served transformer packs its weights once: attention's per-request
//! products (each head's `kᵀ` and `v`) are activations, packed for their
//! one product and never counted as weight-plane packs. After warm-up, a
//! GPT server answering identical requests performs no pack at all.
//!
//! The pack counters behind `ServeStats::packs_performed` are process-wide,
//! so this suite is its own test binary with a single test: no parallel
//! test in the same process can move them.

use mx::models::data;
use mx::models::gpt::{Gpt, GptConfig};
use mx::nn::qflow::QuantConfig;
use mx::nn::TensorFormat;
use mx::serve::{Request, RequestInput, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn served_attention_packs_no_plane_after_warm_up() {
    let mx6 = QuantConfig::weights_activations(TensorFormat::MX6, TensorFormat::MX6);
    let seq = GptConfig::tiny().seq_len;
    let tokens: Vec<usize> = (0..seq).map(|i| (i * 7 + 3) % data::LM_VOCAB).collect();
    let model = Gpt::new(
        &mut StdRng::seed_from_u64(21),
        GptConfig::tiny(),
        QuantConfig::fp32(),
    );
    let mut server = Server::new(ServerConfig::default().shards(1).workers(1).max_batch(1));
    server.register("gpt", Box::new(model));
    let handle = server.start().expect("valid config");
    let serve = || {
        let request = Request::new("gpt", RequestInput::Tokens(tokens.clone())).quant(mx6);
        handle
            .submit(request)
            .expect("admitted")
            .wait()
            .expect("answered")
    };
    // Warm-up: compiles the plan and packs every weight plane it pins.
    let first = serve();
    let warm = handle.stats();
    assert!(warm.packs_performed > 0, "warm-up packs the weights");
    let requests = 10;
    for i in 0..requests {
        let reply = serve();
        let same = reply.len() == first.len()
            && reply
                .iter()
                .zip(&first)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "request {i}: identical requests, identical bits");
    }
    let after = handle.stats();
    assert_eq!(after.completed - warm.completed, requests);
    assert_eq!(after.plans_compiled, 1, "one plan serves every request");
    assert_eq!(
        after.packs_performed - warm.packs_performed,
        0,
        "{requests} identical requests after warm-up packed planes"
    );
    handle.shutdown();
}
