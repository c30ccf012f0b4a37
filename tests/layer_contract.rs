//! The `Layer` contract, for every implementation in the workspace:
//! `forward` records nothing, `forward_train` gives `forward`'s bits and
//! records what `backward` needs, and `backward` takes that record — so a
//! `backward` after a plain `forward`, or a second one, is
//! `MissingForwardCache`. A parameter holds a gradient only from the
//! backward that reaches it until the optimizer step that takes it. And a
//! deployment fresh out of `EdVitPipeline::run` holds no backward state and
//! no gradient in any sub-model layer or in the fusion MLP: each sub-model
//! holds the 4 B per parameter the planner budgets.

use edvit::baselines::{SmallCnn, SmallCnnConfig, SpikingCnn};
use edvit::fusion::{FusionConfig, FusionMlp};
use edvit::nn::{
    Adam, Conv2d, Flatten, Layer, LayerNorm, Linear, MaxPool2d, Mlp, MultiHeadSelfAttention,
    NnError, Parameter, Relu,
};
use edvit::pipeline::{EdVitConfig, EdVitPipeline};
use edvit::tensor::init::TensorRng;
use edvit::tensor::Tensor;
use edvit::vit::{PatchEmbed, ViTBlock, ViTConfig, ViTError, VisionTransformer};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn is_missing<T>(result: Result<T, NnError>) -> bool {
    matches!(result, Err(NnError::MissingForwardCache { .. }))
}

/// The bytes a parameter's tensors hold: its value, plus its gradient when
/// it holds one.
fn held_bytes(p: &Parameter) -> u64 {
    let floats = p.value().numel() + p.grad().map_or(0, Tensor::numel);
    (floats * std::mem::size_of::<f32>()) as u64
}

/// Every `Layer` impl of the workspace, named, with an input shape it
/// accepts.
fn every_layer(rng: &mut TensorRng) -> Vec<(&'static str, Box<dyn Layer>, Vec<usize>)> {
    let tiny = ViTConfig::tiny_test();
    let cnn = SmallCnnConfig::for_dataset(3, 16, 4);
    vec![
        ("Linear", Box::new(Linear::new(4, 3, rng)), vec![2, 4]),
        ("Relu", Box::new(Relu::new()), vec![3, 4]),
        ("LayerNorm", Box::new(LayerNorm::new(6)), vec![3, 6]),
        (
            "Mlp",
            Box::new(Mlp::new(&[6, 12, 5, 3], rng).unwrap()),
            vec![4, 6],
        ),
        (
            "MultiHeadSelfAttention",
            Box::new(MultiHeadSelfAttention::new(8, 2, 4, rng).unwrap()),
            vec![2, 5, 8],
        ),
        (
            "Conv2d",
            Box::new(Conv2d::new(2, 3, 3, 1, 1, rng).unwrap()),
            vec![1, 2, 5, 5],
        ),
        ("MaxPool2d", Box::new(MaxPool2d::new(2)), vec![1, 2, 4, 4]),
        ("Flatten", Box::new(Flatten::new()), vec![2, 3, 2, 2]),
        (
            "FusionMlp",
            Box::new(FusionMlp::new(&FusionConfig::new(16, 4), rng).unwrap()),
            vec![2, 16],
        ),
        (
            "ViTBlock",
            Box::new(ViTBlock::new(16, 4, 4, 32, rng).unwrap()),
            vec![2, 5, 16],
        ),
        (
            "PatchEmbed",
            Box::new(PatchEmbed::new(&tiny, rng).unwrap()),
            vec![2, 3, 16, 16],
        ),
        (
            "VisionTransformer",
            Box::new(VisionTransformer::new(&tiny, rng).unwrap()),
            vec![2, 3, 16, 16],
        ),
        (
            "SmallCnn",
            Box::new(SmallCnn::new(&cnn, rng).unwrap()),
            vec![2, 3, 16, 16],
        ),
        (
            "SpikingCnn",
            Box::new(SpikingCnn::from_cnn(SmallCnn::new(&cnn, rng).unwrap())),
            vec![2, 3, 16, 16],
        ),
    ]
}

#[test]
fn every_layer_records_only_in_forward_train_and_backward_takes_the_record() {
    let mut rng = TensorRng::new(37);
    let layers = every_layer(&mut rng);
    assert_eq!(layers.len(), 14, "one entry per Layer impl");
    for (name, mut layer, dims) in layers {
        let x = rng.randn(&dims, 0.0, 1.0);
        let y = layer.forward(&x).unwrap();
        let grad = rng.randn(y.dims(), 0.0, 1.0);
        assert!(
            is_missing(layer.backward(&grad)),
            "{name}: backward after forward"
        );
        assert_eq!(
            bits(&layer.forward_owned(x.clone()).unwrap()),
            bits(&y),
            "{name}: forward_owned"
        );
        let y_train = layer.forward_train(&x).unwrap();
        assert_eq!(bits(&y_train), bits(&y), "{name}: forward_train bits");
        let grad_in = layer.backward(&grad).unwrap();
        assert_eq!(grad_in.dims(), x.dims(), "{name}: input gradient shape");
        assert!(is_missing(layer.backward(&grad)), "{name}: second backward");
    }
}

#[test]
fn the_feature_entries_keep_the_contract() {
    let mut rng = TensorRng::new(38);
    let mut model = VisionTransformer::new(&ViTConfig::tiny_test(), &mut rng).unwrap();
    let images = rng.randn(&[2, 3, 16, 16], 0.0, 1.0);
    let features = model.forward_features(&images).unwrap();
    let grad = rng.randn(features.dims(), 0.0, 1.0);
    let missing = |result: Result<Tensor, ViTError>| {
        matches!(
            result,
            Err(ViTError::Nn(NnError::MissingForwardCache { .. }))
        )
    };
    assert!(missing(model.backward_from_features(&grad)));
    let trained = model.forward_features_train(&images).unwrap();
    assert_eq!(bits(&trained), bits(&features));
    assert_eq!(
        model.backward_from_features(&grad).unwrap().dims(),
        images.dims()
    );
    assert!(missing(model.backward_from_features(&grad)));
}

#[test]
fn no_deployed_model_holds_backward_state_after_run() {
    let deployment = EdVitPipeline::new(EdVitConfig::tiny_demo(2)).run().unwrap();
    // A backward whose record is missing fails before it reads the gradient,
    // so a placeholder gradient tells "no record" from "a record".
    let placeholder = Tensor::zeros(&[1]);
    for sub in &deployment.sub_models {
        // A clone copies whatever the model holds, records included.
        let mut model = sub.model.clone();
        assert!(matches!(
            model.backward_from_features(&placeholder),
            Err(ViTError::Nn(NnError::MissingForwardCache { .. }))
        ));
        let mut layers: Vec<Box<dyn Layer>> = vec![
            Box::new(model.clone()),
            Box::new(model.patch_embed().clone()),
            Box::new(model.final_ln().clone()),
            Box::new(model.head().clone()),
        ];
        for block in model.blocks() {
            layers.push(Box::new(block.clone()));
            layers.push(Box::new(block.ln1().clone()));
            layers.push(Box::new(block.attn().clone()));
            layers.push(Box::new(block.ln2().clone()));
            layers.push(Box::new(block.ffn().clone()));
            let attn = block.attn();
            let projections = [attn.q_proj(), attn.k_proj(), attn.v_proj(), attn.out_proj()];
            for linear in projections.into_iter().chain(block.ffn().linears()) {
                layers.push(Box::new(linear.clone()));
            }
        }
        for (i, mut layer) in layers.into_iter().enumerate() {
            assert!(is_missing(layer.backward(&placeholder)), "layer {i}");
        }
    }
    let mut fusion = deployment.fusion.clone();
    assert!(is_missing(Layer::backward(&mut fusion, &placeholder)));
}

#[test]
fn a_parameter_holds_a_gradient_from_its_backward_until_the_step() {
    let mut rng = TensorRng::new(39);
    for (name, mut layer, dims) in every_layer(&mut rng) {
        assert!(
            layer.parameters().iter().all(|p| p.grad().is_none()),
            "{name}: a new layer holds a gradient"
        );
        let x = rng.randn(&dims, 0.0, 1.0);
        let y = layer.forward_train(&x).unwrap();
        layer.backward(&rng.randn(y.dims(), 0.0, 1.0)).unwrap();
        for p in layer.parameters() {
            let grad = p.grad().map(|g| g.dims().to_vec());
            assert_eq!(
                grad.as_deref(),
                Some(p.value().dims()),
                "{name}: {}",
                p.name()
            );
        }
        Adam::new(1e-3).step(&mut layer.parameters_mut()).unwrap();
        assert!(
            layer.parameters().iter().all(|p| p.grad().is_none()),
            "{name}: the step left a gradient"
        );
    }

    // `backward_from_features` stops below the classification head: the
    // head's parameters receive no signal and hold no gradient, every other
    // parameter holds one.
    let mut model = VisionTransformer::new(&ViTConfig::tiny_test(), &mut rng).unwrap();
    let features = model
        .forward_features_train(&rng.randn(&[2, 3, 16, 16], 0.0, 1.0))
        .unwrap();
    model
        .backward_from_features(&rng.randn(features.dims(), 0.0, 1.0))
        .unwrap();
    assert!(model.head().parameters().iter().all(|p| p.grad().is_none()));
    let with_grad = model
        .parameters()
        .iter()
        .filter(|p| p.grad().is_some())
        .count();
    assert_eq!(
        with_grad,
        model.parameters().len() - model.head().parameters().len()
    );
    Adam::new(1e-3).step(&mut model.parameters_mut()).unwrap();
    assert!(model.parameters().iter().all(|p| p.grad().is_none()));
}

#[test]
fn a_deployment_holds_each_weight_once_and_no_gradient() {
    let deployment = EdVitPipeline::new(EdVitConfig::tiny_demo(2)).run().unwrap();
    for (i, sub) in deployment.sub_models.iter().enumerate() {
        let params = sub.model.parameters();
        assert!(
            params.iter().all(|p| p.grad().is_none()),
            "sub-model {i} holds a gradient"
        );
        let held: u64 = params.iter().map(|p| held_bytes(p)).sum();
        assert_eq!(held, sub.model.memory_bytes(), "sub-model {i}");
    }
    let fusion = deployment.fusion.parameters();
    assert!(!fusion.is_empty());
    assert!(fusion.iter().all(|p| p.grad().is_none()));
}
