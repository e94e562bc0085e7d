//! End-to-end suite for `mx-serve`: batching must be **semantically
//! invisible**. Every response a server produces — whatever the batch
//! coalescing, request interleaving, format mix, shard count, length
//! bucket, or ragged final batch — must be bit-identical to
//! running that request alone on an identically constructed model
//! (bucket-padded requests compare against the same padded request run
//! alone, sliced back to the request's own length). Also covers the
//! serving telemetry (`ServeStats`) and the weight-plane sharing the
//! batcher exists to exploit.

use mx::core::gemm::{force_kernel_backend, kernel_backend_name, KernelBackend};
use mx::core::scalar::ScalarFormat;
use mx::models::bert::BertQa;
use mx::models::data;
use mx::models::gpt::{Gpt, GptConfig};
use mx::models::vision::TinyViT;
use mx::models::zoo::{BatchModel, DenseGemm, ZooInput};
use mx::nn::qflow::QuantConfig;
use mx::nn::TensorFormat;
use mx::serve::{Pending, Request, RequestInput, ServeError, Server, ServerConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn mx6() -> QuantConfig {
    QuantConfig::weights_activations(TensorFormat::MX6, TensorFormat::MX6)
}

/// The format mix a direct-cast serving fleet would see.
fn format_cycle() -> Vec<QuantConfig> {
    vec![
        QuantConfig::weights_activations(TensorFormat::MX6, TensorFormat::MX6),
        QuantConfig::weights_activations(TensorFormat::MX9, TensorFormat::MX9),
        QuantConfig::weights_activations(TensorFormat::MX9, TensorFormat::MX4),
        QuantConfig::fp32(),
    ]
}

fn assert_bits_eq(got: &[f32], want: &[f32], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert!(g.to_bits() == w.to_bits(), "{ctx}: element {i}: {g} vs {w}");
    }
}

fn gpt(seed: u64) -> Gpt {
    let mut rng = StdRng::seed_from_u64(seed);
    Gpt::new(&mut rng, GptConfig::tiny(), QuantConfig::fp32())
}

/// Deterministic per-request token sequence.
fn tokens(salt: usize, len: usize) -> Vec<usize> {
    (0..len)
        .map(|i| (i.wrapping_mul(7).wrapping_add(salt * 13)) % data::LM_VOCAB)
        .collect()
}

/// Serial reference: run each `(cfg, input)` alone (batch = 1) on `model`.
fn serial_reference(
    model: &mut dyn BatchModel,
    requests: &[(QuantConfig, RequestInput)],
) -> Vec<Vec<f32>> {
    requests
        .iter()
        .map(|(cfg, input)| {
            model.set_quant(*cfg);
            match input {
                RequestInput::Tokens(t) => model.forward_batch(ZooInput::Tokens(t), 1),
                RequestInput::Pixels(p) => model.forward_batch(ZooInput::Pixels(p), 1),
            }
        })
        .collect()
}

/// Bucketed serial reference for variable-length token requests: pad each
/// request to its bucket edge (the smallest configured edge that fits,
/// capped at the model's native length), run the padded request **alone**,
/// and slice the output back to the request's own length — exactly the
/// transformation the server applies, so batching stays the only variable.
fn bucketed_reference(
    model: &mut dyn BatchModel,
    buckets: &[usize],
    requests: &[(QuantConfig, RequestInput)],
) -> Vec<Vec<f32>> {
    let native = model.input_len();
    requests
        .iter()
        .map(|(cfg, input)| {
            let RequestInput::Tokens(t) = input else {
                panic!("bucketed_reference covers token models")
            };
            let edge = buckets
                .iter()
                .copied()
                .filter(|&b| b < native)
                .chain([native])
                .find(|&b| b >= t.len())
                .expect("native length is always an edge");
            let mut padded = t.clone();
            padded.resize(edge, 0);
            model.set_quant(*cfg);
            let mut out = model.forward_batch(ZooInput::Tokens(&padded), 1);
            out.truncate(model.output_len(t.len()));
            out
        })
        .collect()
}

/// Submits every request as one burst and waits for all responses in order.
fn run_burst(
    handle: &ServerHandle,
    name: &str,
    requests: &[(QuantConfig, RequestInput)],
) -> Vec<Vec<f32>> {
    let pending: Vec<Pending> = requests
        .iter()
        .map(|(cfg, input)| {
            handle
                .submit(Request::new(name, input.clone()).quant(*cfg))
                .unwrap()
        })
        .collect();
    pending.into_iter().map(|p| p.wait().unwrap()).collect()
}

#[test]
fn gpt_batched_serving_is_bit_identical_across_formats_and_batch_sizes() {
    let seq = GptConfig::tiny().seq_len;
    let cycle = format_cycle();
    let requests: Vec<(QuantConfig, RequestInput)> = (0..13)
        .map(|i| (cycle[i % cycle.len()], RequestInput::Tokens(tokens(i, seq))))
        .collect();
    // Reference on an identically seeded model, every request alone.
    let want = serial_reference(&mut gpt(42), &requests);

    for max_batch in [1, 3, 8] {
        let mut server = Server::new(ServerConfig::default().max_batch(max_batch));
        server.register("gpt", Box::new(gpt(42)));
        let handle = server.start().expect("valid config");
        let got = run_burst(&handle, "gpt", &requests);
        for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            assert_bits_eq(g, w, &format!("max_batch {max_batch}, request {i}"));
        }
        let stats = handle.stats();
        assert_eq!(stats.completed, requests.len() as u64);
        assert_eq!(stats.queue_depth, 0, "all answered");
        // Every executed batch respects the cap and the histogram accounts
        // for every request.
        let hist_requests: u64 = stats
            .batch_histogram
            .iter()
            .enumerate()
            .map(|(i, &count)| (i as u64 + 1) * count)
            .sum();
        assert_eq!(hist_requests, stats.completed);
        assert_eq!(stats.batch_histogram.len(), max_batch);
        handle.shutdown();
    }
}

#[test]
fn sharded_serving_is_bit_identical_across_shard_counts() {
    let seq = GptConfig::tiny().seq_len;
    let cycle = format_cycle();
    let gpt_reqs: Vec<(QuantConfig, RequestInput)> = (0..6)
        .map(|i| {
            (
                cycle[i % cycle.len()],
                RequestInput::Tokens(tokens(700 + i, seq)),
            )
        })
        .collect();
    let dense_reqs: Vec<(QuantConfig, RequestInput)> = (0..6)
        .map(|i| {
            (
                cycle[(i + 2) % cycle.len()],
                RequestInput::Pixels((0..48).map(|j| ((i + j) as f32 * 0.13).sin()).collect()),
            )
        })
        .collect();
    let qa_seq = 12;
    let bert_reqs: Vec<(QuantConfig, RequestInput)> = (0..6)
        .map(|i| {
            (
                cycle[(i + 1) % cycle.len()],
                RequestInput::Tokens((0..qa_seq).map(|t| (t * 5 + i) % data::QA_VOCAB).collect()),
            )
        })
        .collect();
    let build = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            gpt(55),
            DenseGemm::new(&mut rng, 48, 24, QuantConfig::fp32()),
            BertQa::new(&mut rng, 16, 1, qa_seq, QuantConfig::fp32()),
        )
    };
    let (mut ref_gpt, mut ref_dense, mut ref_bert) = build(77);
    let want_gpt = serial_reference(&mut ref_gpt, &gpt_reqs);
    let want_dense = serial_reference(&mut ref_dense, &dense_reqs);
    let want_bert = serial_reference(&mut ref_bert, &bert_reqs);

    // More shards than models exercises the empty-shard path too.
    for shards in [1, 2, 4] {
        let (g, d, b) = build(77);
        let mut server = Server::new(
            ServerConfig::default()
                .shards(shards)
                .workers(2)
                .max_batch(4),
        );
        server.register("gpt", Box::new(g));
        server.register("dense", Box::new(d));
        server.register("bert", Box::new(b));
        let handle = server.start().expect("valid config");
        // Registration order, round-robin: model i lives on shard i % shards.
        for (i, name) in ["gpt", "dense", "bert"].iter().enumerate() {
            assert_eq!(handle.shard_of(name), Some(i % shards), "{name}");
        }
        // Interleave submissions across models so every shard queue is
        // active at once.
        let mut pending: Vec<(&str, usize, Pending)> = Vec::new();
        for i in 0..6 {
            for (name, reqs) in [
                ("gpt", &gpt_reqs),
                ("dense", &dense_reqs),
                ("bert", &bert_reqs),
            ] {
                let (cfg, input) = &reqs[i];
                pending.push((
                    name,
                    i,
                    handle
                        .submit(Request::new(name, input.clone()).quant(*cfg))
                        .unwrap(),
                ));
            }
        }
        for (name, i, p) in pending {
            let got = p.wait().unwrap();
            let want = match name {
                "gpt" => &want_gpt[i],
                "dense" => &want_dense[i],
                _ => &want_bert[i],
            };
            assert_bits_eq(&got, want, &format!("shards={shards}, {name} request {i}"));
        }
        let stats = handle.stats();
        assert_eq!(stats.completed, 18);
        assert_eq!(stats.shard_depths.len(), shards);
        assert!(stats.shard_depths.iter().all(|&d| d == 0), "all drained");
        handle.shutdown();
    }
}

#[test]
fn bucketed_mixed_length_serving_matches_padded_serial_reference() {
    let buckets = [4, 8, 16];
    let cycle = format_cycle();
    // Lengths straddling every edge, in shuffling order so the worker must
    // keep the buckets apart while coalescing within them.
    let lens = [3, 16, 4, 9, 1, 8, 5, 12, 2, 16, 7, 11];
    let gpt_reqs: Vec<(QuantConfig, RequestInput)> = lens
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            (
                cycle[i % cycle.len()],
                RequestInput::Tokens(tokens(300 + i, len)),
            )
        })
        .collect();
    let qa_seq = 12;
    let bert_lens = [2, 12, 5, 8, 3, 10];
    let bert_reqs: Vec<(QuantConfig, RequestInput)> = bert_lens
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            (
                cycle[(i + 1) % cycle.len()],
                RequestInput::Tokens((0..len).map(|t| (t * 7 + i) % data::QA_VOCAB).collect()),
            )
        })
        .collect();
    let build_bert = |seed: u64| {
        BertQa::new(
            &mut StdRng::seed_from_u64(seed),
            16,
            1,
            qa_seq,
            QuantConfig::fp32(),
        )
    };
    let want_gpt = bucketed_reference(&mut gpt(61), &buckets, &gpt_reqs);
    let want_bert = bucketed_reference(&mut build_bert(62), &buckets, &bert_reqs);
    // Each response is the request's own output length, not the bucket's.
    for (i, (&len, w)) in lens.iter().zip(want_gpt.iter()).enumerate() {
        assert_eq!(w.len(), len * GptConfig::tiny().vocab, "reference {i}");
    }

    for shards in [1, 2] {
        let mut server = Server::new(
            ServerConfig::default()
                .shards(shards)
                .max_batch(4)
                .buckets(buckets),
        );
        server.register("gpt", Box::new(gpt(61)));
        server.register("bert", Box::new(build_bert(62)));
        let handle = server.start().expect("valid config");
        let got_gpt = run_burst(&handle, "gpt", &gpt_reqs);
        let got_bert = run_burst(&handle, "bert", &bert_reqs);
        for (i, (g, w)) in got_gpt.iter().zip(want_gpt.iter()).enumerate() {
            assert_bits_eq(g, w, &format!("shards={shards}, gpt len {}", lens[i]));
        }
        for (i, (g, w)) in got_bert.iter().zip(want_bert.iter()).enumerate() {
            assert_bits_eq(g, w, &format!("shards={shards}, bert len {}", bert_lens[i]));
        }
        handle.shutdown();
    }
}

#[test]
fn ragged_batches_are_semantically_invisible() {
    let seq = GptConfig::tiny().seq_len;
    // 6 same-format requests against max_batch = 4 force a ragged tail of
    // at most 2 whichever way the worker slices the burst.
    let requests: Vec<(QuantConfig, RequestInput)> = (0..6)
        .map(|i| (mx6(), RequestInput::Tokens(tokens(100 + i, seq))))
        .collect();
    let want = serial_reference(&mut gpt(7), &requests);
    let mut server = Server::new(ServerConfig::default().max_batch(4));
    server.register("gpt", Box::new(gpt(7)));
    let handle = server.start().expect("valid config");
    let got = run_burst(&handle, "gpt", &requests);
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_bits_eq(g, w, &format!("request {i}"));
    }
    assert_eq!(handle.stats().completed, 6);
    handle.shutdown();
}

/// A per-tensor-scaled format (scalar-scaled FP8) puts one scale over the
/// whole activation tensor, so a batch of a small request (|x| ≈ 1e-3)
/// and a large one (|x| ≈ 100) re-scales the small one: every output of
/// its row moves. The server never coalesces such requests, so across
/// many two-request bursts on one worker the small request keeps its solo
/// answer, bit for bit, and every batch is a batch of one.
#[test]
fn per_tensor_scaled_requests_are_never_coupled_by_batching() {
    let fp8 = TensorFormat::ScalarScaled(ScalarFormat::E4M3);
    let cfg = QuantConfig::weights_activations(fp8, fp8);
    let dense = || DenseGemm::new(&mut StdRng::seed_from_u64(5), 64, 32, QuantConfig::fp32());
    let row = |scale: f32| -> Vec<f32> {
        (0..64)
            .map(|i| {
                scale * (1.0 + ((i * 37) % 11) as f32 / 11.0) * if i % 3 == 0 { -1.0 } else { 1.0 }
            })
            .collect()
    };
    let (small, large) = (row(1e-3), row(100.0));
    let requests = vec![
        (cfg, RequestInput::Pixels(small.clone())),
        (cfg, RequestInput::Pixels(large.clone())),
    ];
    let want = serial_reference(&mut dense(), &requests);

    // The premise: one forward over both rows changes every output of the
    // small row.
    let mut model = dense();
    model.set_quant(cfg);
    let both = model.forward_batch(ZooInput::Pixels(&[small, large].concat()), 2);
    assert!(both[..32].iter().zip(&want[0]).all(|(b, w)| b != w));

    let mut server = Server::new(ServerConfig::default().shards(1).workers(1).max_batch(4));
    server.register("dense", Box::new(dense()));
    let handle = server.start().expect("valid config");
    let bursts = 50;
    for burst in 0..bursts {
        let got = run_burst(&handle, "dense", &requests);
        assert_bits_eq(&got[0], &want[0], &format!("burst {burst}, small request"));
        assert_bits_eq(&got[1], &want[1], &format!("burst {burst}, large request"));
    }
    let stats = handle.stats();
    assert_eq!(stats.completed, 2 * bursts);
    assert_eq!(
        stats.batch_histogram[0],
        2 * bursts,
        "every batch ran alone"
    );
    handle.shutdown();
}

/// One compile per (model, format, bucket): ragged bursts of every size
/// `1..=max_batch` over 2 formats × 2 buckets, served by two workers that
/// race to miss the same keys, compile exactly 4 plans, and every reply
/// matches the bucket-padded serial reference bit for bit.
#[test]
fn one_plan_per_format_and_bucket_serves_every_batch_size() {
    let buckets = [8];
    let seq = GptConfig::tiny().seq_len;
    let formats = [
        mx6(),
        QuantConfig::weights_activations(TensorFormat::MX9, TensorFormat::MX9),
    ];
    let max_batch = 4;
    // Burst `s` carries `s` requests of every (format, bucket) key,
    // interleaved, so each key sees batches of every size up to the cap.
    let mut bursts: Vec<Vec<(QuantConfig, RequestInput)>> = Vec::new();
    for size in 1..=max_batch {
        let mut burst = Vec::new();
        for i in 0..size {
            for (f, cfg) in formats.iter().enumerate() {
                for len in [5, seq] {
                    let salt = 40 * size + 4 * i + 2 * f + usize::from(len == seq);
                    burst.push((*cfg, RequestInput::Tokens(tokens(salt, len))));
                }
            }
        }
        bursts.push(burst);
    }
    let mut server = Server::new(
        ServerConfig::default()
            .workers(2)
            .max_batch(max_batch)
            .buckets(buckets),
    );
    server.register("gpt", Box::new(gpt(88)));
    let handle = server.start().expect("valid config");
    let mut reference = gpt(88);
    for (b, burst) in bursts.iter().enumerate() {
        let want = bucketed_reference(&mut reference, &buckets, burst);
        let got = run_burst(&handle, "gpt", burst);
        for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            assert_bits_eq(g, w, &format!("burst {} request {i}", b + 1));
        }
    }
    let stats = handle.stats();
    assert_eq!(stats.plans_compiled, 4, "one plan per (format, bucket)");
    assert_eq!(stats.plan_cache_hits + stats.plans_compiled, stats.batches);
    handle.shutdown();
}

/// A token id outside the vocabulary is a typed rejection at submit, and
/// the tenant keeps serving: the next valid request matches the serial
/// reference bit for bit, on a planned and an unplannable format alike.
#[test]
fn out_of_vocabulary_token_is_rejected_and_the_tenant_keeps_serving() {
    let qa_seq = 12;
    let build_bert = || {
        BertQa::new(
            &mut StdRng::seed_from_u64(63),
            16,
            1,
            qa_seq,
            QuantConfig::fp32(),
        )
    };
    let mut server = Server::new(ServerConfig::default());
    server.register("gpt", Box::new(gpt(64)));
    server.register("bert", Box::new(build_bert()));
    let handle = server.start().expect("valid config");
    let bf16 = QuantConfig::uniform(TensorFormat::Bf16);
    let cases: [(&str, usize, &mut dyn BatchModel); 2] = [
        ("gpt", data::LM_VOCAB, &mut gpt(64)),
        ("bert", data::QA_VOCAB, &mut build_bert()),
    ];
    for (name, vocab, reference) in cases {
        for cfg in [mx6(), bf16] {
            let bad = vec![1, 2, vocab + 7, 4];
            let err = handle
                .infer(Request::new(name, RequestInput::Tokens(bad)).quant(cfg))
                .unwrap_err();
            assert_eq!(
                err,
                ServeError::TokenOutOfRange {
                    model: name.into(),
                    token: vocab + 7,
                    vocab,
                },
                "{name} {cfg}"
            );
            let good = (0..4).map(|t| t * 3 % vocab).collect();
            let requests = [(cfg, RequestInput::Tokens(good))];
            let want = bucketed_reference(reference, &[], &requests);
            let got = run_burst(&handle, name, &requests);
            assert_bits_eq(&got[0], &want[0], &format!("{name} {cfg} after the bad id"));
        }
    }
    handle.shutdown();
}

#[test]
fn mixed_zoo_serving_matches_per_request_serial_execution() {
    let qa_seq = 12;
    let mut rng = StdRng::seed_from_u64(21);
    let build_bert = |rng: &mut StdRng| BertQa::new(rng, 16, 1, qa_seq, QuantConfig::fp32());
    let build_vit = |rng: &mut StdRng| TinyViT::new(rng, 16, 1, QuantConfig::fp32());
    let build_dense = |rng: &mut StdRng| DenseGemm::new(rng, 48, 24, QuantConfig::fp32());
    // One RNG stream builds the served copies, an identically seeded one
    // builds the reference copies.
    let mut server = Server::new(ServerConfig::default().workers(2).max_batch(4));
    server.register("bert", Box::new(build_bert(&mut rng)));
    server.register("vit", Box::new(build_vit(&mut rng)));
    server.register("dense", Box::new(build_dense(&mut rng)));
    let mut ref_rng = StdRng::seed_from_u64(21);
    let mut ref_bert = build_bert(&mut ref_rng);
    let mut ref_vit = build_vit(&mut ref_rng);
    let mut ref_dense = build_dense(&mut ref_rng);

    let images = data::shape_images(9, 4);
    let cycle = format_cycle();
    let bert_reqs: Vec<(QuantConfig, RequestInput)> = (0..4)
        .map(|i| {
            (
                cycle[i % cycle.len()],
                RequestInput::Tokens((0..qa_seq).map(|t| (t * 3 + i) % data::QA_VOCAB).collect()),
            )
        })
        .collect();
    let vit_reqs: Vec<(QuantConfig, RequestInput)> = images
        .iter()
        .enumerate()
        .map(|(i, im)| {
            (
                cycle[i % cycle.len()],
                RequestInput::Pixels(im.pixels.clone()),
            )
        })
        .collect();
    let dense_reqs: Vec<(QuantConfig, RequestInput)> = (0..4)
        .map(|i| {
            (
                cycle[(i + 1) % cycle.len()],
                RequestInput::Pixels((0..48).map(|j| ((i + j) as f32 * 0.11).sin()).collect()),
            )
        })
        .collect();

    let handle = server.start().expect("valid config");
    // Interleave submissions across models so the workers have to keep
    // the groups apart.
    let mut pending: Vec<(usize, &str, Pending)> = Vec::new();
    for i in 0..4 {
        for (name, reqs) in [
            ("bert", &bert_reqs),
            ("vit", &vit_reqs),
            ("dense", &dense_reqs),
        ] {
            let (cfg, input) = &reqs[i];
            pending.push((
                i,
                name,
                handle
                    .submit(Request::new(name, input.clone()).quant(*cfg))
                    .unwrap(),
            ));
        }
    }
    let want_bert = serial_reference(&mut ref_bert, &bert_reqs);
    let want_vit = serial_reference(&mut ref_vit, &vit_reqs);
    let want_dense = serial_reference(&mut ref_dense, &dense_reqs);
    for (i, name, p) in pending {
        let got = p.wait().unwrap();
        let want = match name {
            "bert" => &want_bert[i],
            "vit" => &want_vit[i],
            _ => &want_dense[i],
        };
        assert_bits_eq(&got, want, &format!("{name} request {i}"));
    }
    assert_eq!(handle.stats().completed, 12);
    handle.shutdown();
}

#[test]
fn weight_planes_are_shared_across_requests_and_formats() {
    let mut rng = StdRng::seed_from_u64(33);
    let mut server = Server::new(ServerConfig::default().max_batch(4));
    server.register(
        "dense",
        Box::new(DenseGemm::new(&mut rng, 64, 32, QuantConfig::fp32())),
    );
    let handle = server.start().expect("valid config");
    let w6 = QuantConfig::weights_activations(TensorFormat::MX6, TensorFormat::MX6);
    let w9 = QuantConfig::weights_activations(TensorFormat::MX9, TensorFormat::MX9);
    let x: Vec<f32> = (0..64).map(|i| (i as f32 * 0.07).cos()).collect();
    let req = |cfg: QuantConfig| Request::new("dense", RequestInput::Pixels(x.clone())).quant(cfg);
    // Warm both weight formats' planes (at most one pack each).
    let warm6 = handle.infer(req(w6)).unwrap();
    let warm9 = handle.infer(req(w9)).unwrap();
    let before = handle.stats();
    // Steady state: alternating formats hammer the same two planes.
    for round in 0..10 {
        let y6 = handle.infer(req(w6)).unwrap();
        let y9 = handle.infer(req(w9)).unwrap();
        assert_bits_eq(&y6, &warm6, &format!("MX6 round {round}"));
        assert_bits_eq(&y9, &warm9, &format!("MX9 round {round}"));
    }
    let after = handle.stats();
    // Each warm request must reuse lowered weights: it hits the plan
    // cache, whose plan pinned the weight plane at compile time (an
    // unplannable key would skip the pack via the qflow plane cache
    // instead). Either way no warm batch re-lowers weights.
    // (The pack counters are process-wide, so concurrent suites can only
    // inflate them — the ≥ direction is race-free.)
    let reused = after.packs_avoided.saturating_sub(before.packs_avoided)
        + after.plan_cache_hits.saturating_sub(before.plan_cache_hits);
    assert!(
        reused >= 20,
        "20 warm requests must each reuse lowered weights (saw {reused})"
    );
    handle.shutdown();
}

/// The kernel-backend seam is invisible end to end: a server forced onto
/// the scalar backend answers bit-identically to an identically seeded
/// server on the best-detected backend, and both match the serial
/// reference. This is the serving-level restatement of the per-kernel
/// bit-identity contract behind the `kernel_backend_name` banners in
/// `serve_loadgen` and the benches: the name is a performance label,
/// never an output label. (The override is process-wide, but every
/// backend is bit-identical by contract, so concurrent suites in this
/// binary cannot observe the toggle.)
#[test]
fn forced_backend_server_runs_are_bit_identical_end_to_end() {
    let seq = GptConfig::tiny().seq_len;
    let cycle = format_cycle();
    let requests: Vec<(QuantConfig, RequestInput)> = (0..6)
        .map(|i| {
            (
                cycle[i % cycle.len()],
                RequestInput::Tokens(tokens(900 + i, seq)),
            )
        })
        .collect();
    let want = serial_reference(&mut gpt(1234), &requests);

    let run_with = |backend: Option<KernelBackend>| -> Vec<Vec<f32>> {
        force_kernel_backend(backend).expect("scalar is always available");
        if let Some(b) = backend {
            assert_eq!(kernel_backend_name(), b.name(), "force must stick");
        }
        let mut server = Server::new(ServerConfig::default().max_batch(3));
        server.register("gpt", Box::new(gpt(1234)));
        let handle = server.start().expect("valid config");
        let got = run_burst(&handle, "gpt", &requests);
        handle.shutdown();
        got
    };
    let scalar = run_with(Some(KernelBackend::Scalar));
    // `None` restores automatic selection: the best-detected backend.
    let best = run_with(None);
    for (i, ((s, b), w)) in scalar.iter().zip(best.iter()).zip(want.iter()).enumerate() {
        assert_bits_eq(s, b, &format!("scalar vs best backend, request {i}"));
        assert_bits_eq(s, w, &format!("scalar vs serial reference, request {i}"));
    }
}

#[test]
fn concurrent_clients_get_bit_identical_answers() {
    let seq = GptConfig::tiny().seq_len;
    let requests: Vec<(QuantConfig, RequestInput)> = (0..8)
        .map(|i| (mx6(), RequestInput::Tokens(tokens(500 + i, seq))))
        .collect();
    let want = serial_reference(&mut gpt(99), &requests);
    let mut server = Server::new(ServerConfig::default().workers(2).max_batch(4));
    server.register("gpt", Box::new(gpt(99)));
    let handle = server.start().expect("valid config");
    // 8 synchronous client threads, each re-asking its own question.
    std::thread::scope(|s| {
        for (i, (cfg, input)) in requests.iter().enumerate() {
            let handle = &handle;
            let want = &want[i];
            s.spawn(move || {
                for round in 0..3 {
                    let got = handle
                        .infer(Request::new("gpt", input.clone()).quant(*cfg))
                        .unwrap();
                    assert_bits_eq(&got, want, &format!("client {i} round {round}"));
                }
            });
        }
    });
    let stats = handle.stats();
    assert_eq!(stats.completed, 24);
    assert_eq!(stats.queue_depth, 0);
    assert!(stats.p50_latency_us <= stats.p99_latency_us);
    handle.shutdown();
}
