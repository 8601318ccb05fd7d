//! Classification scenario, led by the `Session` API: compile the VGG-16
//! topology into a blocked/fused pipeline and inspect what deployment
//! gains (off-chip traffic, on-chip buffers); then run the paper's
//! Table I accuracy workflow — train a baseline classifier, convert it to
//! block convolution and fine-tune, and quantize to 8 bits (Figure 7's
//! deployment path).
//!
//! Run with: `cargo run --release --example classification`

use bconv::core::BlockingPattern;
use bconv::models::small::vgg16_small;
use bconv::tensor::init::seeded_rng;
use bconv::tensor::init::uniform_tensor;
use bconv::{Backend, PlanSpec, Session};
use bconv_train::layers::SgdConfig;
use bconv_train::models::{fixed_rule, NetStyle, SmallClassifier};
use bconv_train::trainer::{eval_classifier, train_classifier, TrainConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Deployment view: compile the topology into a fused pipeline. ---
    let session = Session::builder()
        .network(vgg16_small(32))
        .planner(PlanSpec::new().pattern(BlockingPattern::fixed(16)))
        .build()?;
    let input = uniform_tensor([1, 3, 32, 32], -1.0, 1.0, &mut seeded_rng(7));
    let fused = session.run(&input)?;
    let reference = Session::builder()
        .network(vgg16_small(32))
        .backend(Backend::Reference)
        .build()?
        .run(&input)?;
    println!("{}", session.describe());
    println!(
        "off-chip traffic: fused {} vs layer-wise {} elements ({:.1}x less)\n",
        fused.stats.offchip_elems,
        reference.stats.offchip_elems,
        reference.stats.offchip_elems as f64 / fused.stats.offchip_elems as f64
    );

    // --- Accuracy view: the paper's fine-tuning workflow. ---
    let cfg = TrainConfig {
        steps: 300,
        batch: 16,
        sgd: SgdConfig { lr: 0.005, adam: true, ..SgdConfig::default() },
        lr_halve_every: 120,
    };

    // 1. Train the float baseline.
    let mut net = SmallClassifier::new(NetStyle::Vgg, 8, 4, &mut seeded_rng(7))?;
    train_classifier(&mut net, "example-cls", &cfg)?;
    let base = eval_classifier(&mut net, "example-cls", 256)?;
    println!("baseline accuracy: {:.1}%", base * 100.0);

    // 2. Convert to block convolution (F16 on the 32x32/16x16 layers) and
    //    fine-tune with unchanged hyperparameters.
    net.apply_blocking(&fixed_rule(16));
    let dropped = eval_classifier(&mut net, "example-cls", 256)?;
    println!("after blocking, before fine-tuning: {:.1}% (boundary perturbation)", dropped * 100.0);
    let ft_cfg = TrainConfig { steps: 150, ..cfg };
    train_classifier(&mut net, "example-cls", &ft_cfg)?;
    let tuned = eval_classifier(&mut net, "example-cls", 256)?;
    println!("after fine-tuning: {:.1}% (paper: within ~1% of baseline)", tuned * 100.0);

    // 3. Deploy-time quantization: fake-quantize weights to 8 bits.
    net.set_fake_quant(Some(8));
    let quantized = eval_classifier(&mut net, "example-cls", 256)?;
    println!("post-training 8-bit quantization: {:.1}%", quantized * 100.0);
    Ok(())
}
