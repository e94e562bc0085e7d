//! Bit-identity suite for compiled execution plans: for every zoo model ×
//! preset format pair × sequence bucket, the [`CompiledPlan`] produced by
//! `BatchModel::compile_plan` once at a capacity must match the dynamic
//! layer-walk (`forward_batch`) to the bit at every batch it executes. Also covers the hoisted
//! format-support gate (typed plan-time errors instead of silent per-call
//! fallbacks), plan-cache invalidation via the weight-generation token,
//! and concurrent execution of one shared plan from many threads with
//! per-worker arenas.

use mx::models::bert::BertQa;
use mx::models::data;
use mx::models::gpt::{Gpt, GptConfig};
use mx::models::vision::{TinyMobileNet, TinyResNet, TinyViT};
use mx::models::zoo::{BatchModel, DenseGemm, InputKind, ZooInput};
use mx::nn::plan::{CompiledPlan, PlanArena, PlanError, PlanInput};
use mx::nn::qflow::QuantConfig;
use mx::nn::tensor::Tensor;
use mx::nn::TensorFormat;
use std::sync::Arc;

/// The preset format pairs the serving layer direct-casts between, plus
/// the MX6 preset with element-wise BF16 and MX9 casts, so the fused casts
/// of the GEMM, norm and attention nodes are compared with the layer walk.
fn presets() -> Vec<QuantConfig> {
    let mx6 = QuantConfig::uniform(TensorFormat::MX6);
    vec![
        QuantConfig::fp32(),
        QuantConfig::uniform(TensorFormat::MX9),
        mx6,
        QuantConfig::uniform(TensorFormat::MX4),
        QuantConfig::weights_activations(TensorFormat::MX6, TensorFormat::MX6),
        QuantConfig::weights_activations(TensorFormat::MX4, TensorFormat::MX9),
        QuantConfig {
            elementwise: TensorFormat::Bf16,
            ..mx6
        },
        QuantConfig {
            elementwise: TensorFormat::MX9,
            ..mx6
        },
    ]
}

fn assert_bits_eq(got: &[f32], want: &[f32], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert!(g.to_bits() == w.to_bits(), "{ctx}: element {i}: {g} vs {w}");
    }
}

/// An owned batch payload, viewable as either executor's input.
enum Payload {
    Tokens(Vec<usize>),
    Pixels(Vec<f32>),
}

impl Payload {
    /// `elems` deterministic elements: token ids below `vocab` for token
    /// models (`Some`), pixel values otherwise.
    fn new(elems: usize, vocab: Option<usize>, salt: usize) -> Self {
        match vocab {
            Some(v) => Payload::Tokens((0..elems).map(|i| (i * 7 + salt) % v).collect()),
            None => Payload::Pixels(
                (0..elems)
                    .map(|i| ((i + salt) as f32 * 0.173).sin())
                    .collect(),
            ),
        }
    }

    fn zoo(&self) -> ZooInput<'_> {
        match self {
            Payload::Tokens(t) => ZooInput::Tokens(t),
            Payload::Pixels(p) => ZooInput::Pixels(p),
        }
    }

    fn plan(&self) -> PlanInput<'_> {
        match self {
            Payload::Tokens(t) => PlanInput::Tokens(t),
            Payload::Pixels(p) => PlanInput::Pixels(p),
        }
    }
}

/// Runs every preset × bucket `len` over one model: each plan is compiled
/// once at capacity `cap` and executed at batches 1, 2, `cap − 1` and
/// `cap`, each compared bit for bit with the dynamic walk at that batch.
/// Past capacity, and on a payload that is not a whole number of
/// requests, execute must refuse with `PlanError::Input`. `vocab` is
/// `Some` for token models.
fn check_model<M: BatchModel>(
    model: &mut M,
    name: &str,
    cap: usize,
    lens: &[usize],
    vocab: Option<usize>,
) {
    let mut batches = vec![1, 2, cap.saturating_sub(1), cap];
    batches.retain(|&b| (1..=cap).contains(&b));
    batches.sort_unstable();
    batches.dedup();
    for cfg in presets() {
        model.set_quant(cfg);
        for &len in lens {
            let ctx = format!("{name} cfg={cfg} cap={cap} len={len}");
            let plan = model
                .compile_plan(cfg, cap, len)
                .unwrap_or_else(|e| panic!("{ctx}: compile failed: {e}"));
            let mut arena = PlanArena::new();
            let mut first = None;
            for &batch in &batches {
                let ctx = format!("{ctx} batch={batch}");
                let payload = Payload::new(batch * len, vocab, batch + len);
                let dynamic = model.forward_batch(payload.zoo(), batch);
                let planned = plan
                    .execute(payload.plan(), &mut arena)
                    .unwrap_or_else(|e| panic!("{ctx}: execute failed: {e}"));
                assert_eq!(planned.len(), batch * model.output_len(len), "{ctx}");
                assert_bits_eq(&planned, &dynamic, &ctx);
                first.get_or_insert((payload, dynamic));
            }
            // The smallest batch again, over the arena the largest grew
            // (and left dirty), must not drift.
            let (payload, dynamic) = first.expect("at least one batch");
            let again = plan
                .execute(payload.plan(), &mut arena)
                .expect("warm re-execute");
            assert_bits_eq(&again, &dynamic, &format!("{ctx} (warm arena)"));
            for (elems, what) in [((cap + 1) * len, "past capacity"), (len + 1, "ragged")] {
                match plan.execute(Payload::new(elems, vocab, 1).plan(), &mut arena) {
                    Err(PlanError::Input(_)) => {}
                    other => panic!("{ctx}: {what} payload gave {other:?}"),
                }
            }
        }
    }
}

#[test]
fn dense_gemm_planned_matches_dynamic() {
    let mut rng = rand::SeedableRng::seed_from_u64(31);
    let mut m = DenseGemm::new(&mut rng, 64, 32, QuantConfig::fp32());
    check_model(&mut m, "DenseGemm", 32, &[64], None);
}

#[test]
fn gpt_planned_matches_dynamic_across_buckets() {
    let mut rng = rand::SeedableRng::seed_from_u64(32);
    let mut m = Gpt::new(&mut rng, GptConfig::tiny(), QuantConfig::fp32());
    let t = BatchModel::input_len(&m);
    // Native window plus a shorter variable-length bucket.
    check_model(&mut m, "Gpt", 4, &[t, t / 2], Some(data::LM_VOCAB));
}

#[test]
fn bert_planned_matches_dynamic_across_buckets() {
    let mut rng = rand::SeedableRng::seed_from_u64(33);
    let mut m = BertQa::new(&mut rng, 16, 1, 12, QuantConfig::fp32());
    check_model(&mut m, "BertQa", 3, &[12, 7], Some(data::QA_VOCAB));
}

#[test]
fn vision_models_planned_match_dynamic() {
    let px_len = data::IMAGE_SIDE * data::IMAGE_SIDE;
    let mut rng = rand::SeedableRng::seed_from_u64(34);
    let mut vit = TinyViT::new(&mut rng, 16, 2, QuantConfig::fp32());
    check_model(&mut vit, "TinyViT", 3, &[px_len], None);
    let mut resnet = TinyResNet::new(&mut rng, 4, 2, QuantConfig::fp32());
    check_model(&mut resnet, "TinyResNet", 3, &[px_len], None);
    let mut mobile = TinyMobileNet::new(&mut rng, 4, 3, QuantConfig::fp32());
    check_model(&mut mobile, "TinyMobileNet", 3, &[px_len], None);
}

/// A plan runs one stage per layer: embed + 4 blocks + head for a 4-layer
/// GPT, stem + 3 pointwise + head for MobileNet. Every stage owns its
/// nodes, so the template count equals the stage count.
#[test]
fn plans_run_one_stage_per_layer() {
    let mut rng = rand::SeedableRng::seed_from_u64(35);
    let cfg = QuantConfig::uniform(TensorFormat::MX6);
    let four_layers = GptConfig {
        n_layers: 4,
        ..GptConfig::tiny()
    };
    let m = Gpt::new(&mut rng, four_layers, cfg);
    let plan = m.compile_plan(cfg, 2, 16).expect("gpt plan");
    assert_eq!(plan.instance_count(), 6);
    assert_eq!(plan.template_count(), plan.instance_count());

    let mobile = TinyMobileNet::new(&mut rng, 4, 3, cfg);
    let plan = mobile.compile_plan(cfg, 1).expect("mobilenet plan");
    assert_eq!(plan.instance_count(), 5);
    assert_eq!(plan.template_count(), plan.instance_count());
}

/// A compiled plan owns everything it reads: executed after its model is
/// dropped, it still matches the model's own forward bit for bit. GPT
/// covers the embed, norm and GEMM nodes, ResNet the conv nodes.
#[test]
fn compiled_plan_outlives_its_model() {
    let mut rng = rand::SeedableRng::seed_from_u64(39);
    let cfg = QuantConfig::uniform(TensorFormat::MX6);
    let mut gpt = Gpt::new(&mut rng, GptConfig::tiny(), cfg);
    let t = BatchModel::input_len(&gpt);
    let tokens = Payload::new(2 * t, Some(data::LM_VOCAB), 5);
    let gpt_plan = gpt.compile_plan(cfg, 2, t).expect("gpt plan");
    let gpt_want = gpt.forward_batch(tokens.zoo(), 2);
    drop(gpt);

    let mut resnet = TinyResNet::new(&mut rng, 4, 2, cfg);
    let pixels = Payload::new(2 * data::IMAGE_SIDE * data::IMAGE_SIDE, None, 6);
    let resnet_plan = resnet.compile_plan(cfg, 2).expect("resnet plan");
    let resnet_want = resnet.forward_batch(pixels.zoo(), 2);
    drop(resnet);

    let mut arena = PlanArena::new();
    for (plan, payload, want, name) in [
        (&gpt_plan, &tokens, &gpt_want, "Gpt"),
        (&resnet_plan, &pixels, &resnet_want, "TinyResNet"),
    ] {
        let got = plan.execute(payload.plan(), &mut arena).expect(name);
        assert_bits_eq(&got, want, name);
    }
}

/// The format-support gate is hoisted to plan time: a pair with neither an
/// identity nor a code-domain path fails compilation with a typed error,
/// and MoE routing is refused up front.
#[test]
fn unplannable_configurations_fail_with_typed_errors() {
    let mut rng = rand::SeedableRng::seed_from_u64(36);
    let bf16 = QuantConfig::uniform(TensorFormat::Bf16);
    let m = DenseGemm::new(&mut rng, 32, 8, bf16);
    match m.compile_plan(bf16, 1, 32) {
        Err(PlanError::UnsupportedFormats { .. }) => {}
        other => panic!("expected UnsupportedFormats, got {other:?}"),
    }

    let moe = Gpt::new(
        &mut rng,
        GptConfig::moe(0, 4),
        QuantConfig::uniform(TensorFormat::MX6),
    );
    match moe.compile_plan(QuantConfig::uniform(TensorFormat::MX6), 1, 8) {
        Err(PlanError::Unsupported(_)) => {}
        other => panic!("expected Unsupported for MoE, got {other:?}"),
    }

    // Out-of-window buckets are compile errors, not execute panics.
    let gpt = Gpt::new(&mut rng, GptConfig::tiny(), QuantConfig::fp32());
    assert!(BatchModel::compile_plan(&gpt, QuantConfig::fp32(), 1, 999).is_err());
}

/// Weight mutation must change the staleness token, and a plan recompiled
/// after the mutation must track the new weights bit for bit.
#[test]
fn weight_mutation_invalidates_and_recompile_tracks() {
    let mut rng = rand::SeedableRng::seed_from_u64(37);
    let cfg = QuantConfig::uniform(TensorFormat::MX6);
    let mut m = DenseGemm::new(&mut rng, 32, 16, cfg);
    let px = Payload::new(2 * 32, None, 9);

    let token_before = m.plan_token();
    let plan_before = m.compile_plan(cfg, 2, 32).expect("plan");
    let out_before = plan_before
        .execute(px.plan(), &mut PlanArena::new())
        .expect("execute");

    // In-place weight mutation (what an optimizer step does).
    let w: Vec<f32> = (0..32 * 16).map(|i| (i as f32 * 0.05).cos()).collect();
    m.set_weights(Tensor::from_vec(w, &[32, 16]));
    assert_ne!(m.plan_token(), token_before, "token must move on mutation");

    let plan_after = m.compile_plan(cfg, 2, 32).expect("recompile");
    let out_after = plan_after
        .execute(px.plan(), &mut PlanArena::new())
        .expect("execute");
    let dynamic_after = m.forward_batch(px.zoo(), 2);
    assert_bits_eq(&out_after, &dynamic_after, "recompiled plan");
    assert_ne!(
        out_before.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        out_after.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "new weights must change the output"
    );
}

/// One shared plan hammered from N threads, each with its own arena: every
/// execution must be bit-identical to the dynamic oracle (plans are
/// immutable; all mutable state lives in the per-worker arena).
#[test]
fn shared_plan_is_thread_safe_with_per_worker_arenas() {
    let mut rng = rand::SeedableRng::seed_from_u64(38);
    let cfg = QuantConfig::weights_activations(TensorFormat::MX6, TensorFormat::MX6);
    let mut m = Gpt::new(&mut rng, GptConfig::tiny(), cfg);
    assert_eq!(m.input_kind(), InputKind::Tokens);
    let t = BatchModel::input_len(&m);
    let Payload::Tokens(toks) = Payload::new(2 * t, Some(data::LM_VOCAB), 3) else {
        unreachable!("a vocabulary asks for tokens")
    };
    let want = m.forward_batch(ZooInput::Tokens(&toks), 2);
    let plan: Arc<CompiledPlan> = Arc::new(m.compile_plan(cfg, 2, t).expect("plan"));

    std::thread::scope(|scope| {
        for w in 0..4 {
            let plan = Arc::clone(&plan);
            let toks = &toks;
            let want = &want;
            scope.spawn(move || {
                let mut arena = PlanArena::new();
                for round in 0..8 {
                    let got = plan
                        .execute(PlanInput::Tokens(toks), &mut arena)
                        .expect("execute");
                    assert_bits_eq(&got, want, &format!("worker {w} round {round}"));
                }
            });
        }
    });
}
