//! The DNN model zoo: the ten evaluation networks of the paper.
//!
//! Each constructor returns a [`Network`] whose subgraphs approximate the
//! tuning tasks TVM's task extraction produces for the real model: one
//! weighted workload per distinct fused operator shape. Layer tables follow
//! the published architectures; channel counts of highly irregular models
//! (DenseNet, Inception) are lightly quantized so task counts stay close to
//! what Ansor reports rather than exploding combinatorially.

use crate::network::Network;
use crate::workload::{EwKind, Workload};

/// ResNet-50 at 224×224 input.
pub fn resnet50(batch: u64) -> Network {
    let mut net = Network::new(format!("resnet50-b{batch}"));
    resnet50_backbone(&mut net, batch, 1, 224);
    // Global average pool + classifier.
    net.add(Workload::reduction(batch * 2048, 7 * 7), 1);
    net.add(Workload::matmul(1, batch, 1000, 2048), 1);
    net
}

/// Shared ResNet-50 bottleneck backbone.
///
/// `width_mult` widens the 3×3 convolutions (Wide-ResNet uses 2); `res` is
/// the input resolution.
fn resnet50_backbone(net: &mut Network, batch: u64, width_mult: u64, res: u64) {
    // Stem: 7x7/2 conv + max pool (pool modeled as a reduction).
    net.add(Workload::conv2d(batch, 3, res, res, 64, 7, 2, 3), 1);
    let r1 = res / 4; // after stride-2 conv and stride-2 pool
    net.add(Workload::reduction(batch * 64 * r1 * r1, 9), 1);

    // (mid_channels, out_channels, resolution, blocks)
    let stages: [(u64, u64, u64, u64); 4] = [
        (64 * width_mult, 256, r1, 3),
        (128 * width_mult, 512, r1 / 2, 4),
        (256 * width_mult, 1024, r1 / 4, 6),
        (512 * width_mult, 2048, r1 / 8, 3),
    ];
    let mut in_c = 64;
    for (si, &(mid, out, r, blocks)) in stages.iter().enumerate() {
        for b in 0..blocks {
            let (stride, in_r) = if b == 0 && si > 0 { (2, r * 2) } else { (1, r) };
            // 1x1 reduce
            net.add(Workload::conv2d(batch, in_c, in_r, in_r, mid, 1, stride, 0), 1);
            // 3x3
            net.add(Workload::conv2d(batch, mid, r, r, mid, 3, 1, 1), 1);
            // 1x1 expand
            net.add(Workload::conv2d(batch, mid, r, r, out, 1, 1, 0), 1);
            if b == 0 {
                // Projection shortcut.
                net.add(Workload::conv2d(batch, in_c, in_r, in_r, out, 1, stride, 0), 1);
            }
            // Residual add + relu.
            net.add(Workload::elementwise(EwKind::Add, batch * out * r * r), 1);
            net.add(Workload::elementwise(EwKind::Relu, batch * out * r * r), 1);
            in_c = out;
        }
    }
}

/// Wide-ResNet-50-2 at 224×224 input.
pub(crate) fn wide_resnet50(batch: u64) -> Network {
    let mut net = Network::new(format!("wide_resnet50-b{batch}"));
    resnet50_backbone(&mut net, batch, 2, 224);
    net.add(Workload::reduction(batch * 2048, 7 * 7), 1);
    net.add(Workload::matmul(1, batch, 1000, 2048), 1);
    net
}

/// Inception-V3 at 299×299 input (representative factorized convolutions).
pub(crate) fn inception_v3(batch: u64) -> Network {
    let mut net = Network::new(format!("inception_v3-b{batch}"));
    // Stem.
    net.add(Workload::conv2d(batch, 3, 299, 299, 32, 3, 2, 0), 1);
    net.add(Workload::conv2d(batch, 32, 149, 149, 32, 3, 1, 0), 1);
    net.add(Workload::conv2d(batch, 32, 147, 147, 64, 3, 1, 1), 1);
    net.add(Workload::conv2d(batch, 64, 73, 73, 80, 1, 1, 0), 1);
    net.add(Workload::conv2d(batch, 80, 73, 73, 192, 3, 1, 0), 1);
    // Inception-A blocks at 35x35 (x3): 1x1, 5x5 and double-3x3 towers.
    for in_c in [192u64, 256, 288] {
        net.add(Workload::conv2d(batch, in_c, 35, 35, 64, 1, 1, 0), 2);
        net.add(Workload::conv2d(batch, in_c, 35, 35, 48, 1, 1, 0), 1);
        net.add(Workload::conv2d(batch, 48, 35, 35, 64, 5, 1, 2), 1);
        net.add(Workload::conv2d(batch, 64, 35, 35, 96, 3, 1, 1), 2);
        net.add(Workload::conv2d(batch, 96, 35, 35, 96, 3, 1, 1), 1);
    }
    // Reduction-A to 17x17.
    net.add(Workload::conv2d(batch, 288, 35, 35, 384, 3, 2, 0), 1);
    net.add(Workload::conv2d(batch, 96, 35, 35, 96, 3, 2, 0), 1);
    // Inception-B blocks at 17x17 (x4) with 1x7/7x1 factorized convs,
    // represented by asymmetric-cost 7-tap convolutions fused as pairs of
    // rank-1 kernels; we model them as 1x1 + two 3x3-equivalent convs with
    // 7-element kernels along one axis.
    for mid in [128u64, 160, 160, 192] {
        net.add(Workload::conv2d(batch, 768, 17, 17, 192, 1, 1, 0), 2);
        net.add(Workload::conv2d(batch, 768, 17, 17, mid, 1, 1, 0), 2);
        // 1x7 then 7x1: same FLOPs as two mid-channel 7-tap passes.
        net.add(
            Workload::Conv2d(crate::workload::Conv2dShape {
                n: batch,
                c: mid,
                h: 17,
                w: 17,
                co: mid,
                kh: 1,
                kw: 7,
                stride: 1,
                pad: 0,
                dilation: 1,
            }),
            2,
        );
        net.add(
            Workload::Conv2d(crate::workload::Conv2dShape {
                n: batch,
                c: mid,
                h: 17,
                w: 17,
                co: 192,
                kh: 7,
                kw: 1,
                stride: 1,
                pad: 3,
                dilation: 1,
            }),
            2,
        );
    }
    // Reduction-B to 8x8.
    net.add(Workload::conv2d(batch, 768, 17, 17, 192, 1, 1, 0), 1);
    net.add(Workload::conv2d(batch, 192, 17, 17, 320, 3, 2, 0), 1);
    // Inception-C blocks at 8x8 (x2).
    for in_c in [1280u64, 2048] {
        net.add(Workload::conv2d(batch, in_c, 8, 8, 320, 1, 1, 0), 1);
        net.add(Workload::conv2d(batch, in_c, 8, 8, 384, 1, 1, 0), 1);
        net.add(Workload::conv2d(batch, 384, 8, 8, 384, 3, 1, 1), 4);
        net.add(Workload::conv2d(batch, in_c, 8, 8, 192, 1, 1, 0), 1);
    }
    net.add(Workload::reduction(batch * 2048, 8 * 8), 1);
    net.add(Workload::matmul(1, batch, 1000, 2048), 1);
    net
}

/// DenseNet-121 at 224×224 input, growth rate 32.
///
/// Dense-layer input channels are quantized to multiples of 64 so the merged
/// task count matches real task extraction instead of exploding.
pub(crate) fn densenet121(batch: u64) -> Network {
    let mut net = Network::new(format!("densenet121-b{batch}"));
    net.add(Workload::conv2d(batch, 3, 224, 224, 64, 7, 2, 3), 1);
    let block_layers = [6u64, 12, 24, 16];
    let mut channels = 64u64;
    let mut res = 56u64;
    for (bi, &layers) in block_layers.iter().enumerate() {
        for _ in 0..layers {
            let c_in = quantize(channels, 64);
            // Bottleneck 1x1 to 4*growth, then 3x3 to growth.
            net.add(Workload::conv2d(batch, c_in, res, res, 128, 1, 1, 0), 1);
            net.add(Workload::conv2d(batch, 128, res, res, 32, 3, 1, 1), 1);
            channels += 32;
        }
        if bi + 1 < block_layers.len() {
            // Transition: 1x1 halving channels + 2x2 average pool.
            let c_in = quantize(channels, 64);
            net.add(Workload::conv2d(batch, c_in, res, res, c_in / 2, 1, 1, 0), 1);
            net.add(Workload::reduction(batch * (c_in / 2) * (res / 2) * (res / 2), 4), 1);
            channels /= 2;
            res /= 2;
        }
    }
    net.add(Workload::reduction(batch * 1024, 7 * 7), 1);
    net.add(Workload::matmul(1, batch, 1000, 1024), 1);
    net
}

fn quantize(v: u64, step: u64) -> u64 {
    ((v + step / 2) / step).max(1) * step
}

/// MobileNet-V2 at 224×224 input.
pub fn mobilenet_v2(batch: u64) -> Network {
    let mut net = Network::new(format!("mobilenet_v2-b{batch}"));
    net.add(Workload::conv2d(batch, 3, 224, 224, 32, 3, 2, 1), 1);
    // (expansion t, out channels c, repeats n, first stride s)
    let cfg: [(u64, u64, u64, u64); 7] = [
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ];
    let mut in_c = 32u64;
    let mut res = 112u64;
    for &(t, c, n, s) in &cfg {
        for i in 0..n {
            let stride = if i == 0 { s } else { 1 };
            let hidden = in_c * t;
            let out_res = if stride == 2 { res / 2 } else { res };
            if t != 1 {
                net.add(Workload::conv2d(batch, in_c, res, res, hidden, 1, 1, 0), 1);
            }
            net.add(Workload::dwconv2d(batch, hidden, res, res, 3, stride, 1), 1);
            net.add(Workload::conv2d(batch, hidden, out_res, out_res, c, 1, 1, 0), 1);
            if stride == 1 && in_c == c {
                net.add(Workload::elementwise(EwKind::Add, batch * c * out_res * out_res), 1);
            }
            in_c = c;
            res = out_res;
        }
    }
    net.add(Workload::conv2d(batch, 320, 7, 7, 1280, 1, 1, 0), 1);
    net.add(Workload::reduction(batch * 1280, 7 * 7), 1);
    net.add(Workload::matmul(1, batch, 1000, 1280), 1);
    net
}

/// Adds one pre-norm transformer encoder layer's tuning tasks.
///
/// `seq` tokens, `hidden` model width, `heads` attention heads, `ffn` inner
/// width. Shared by ViT, DeTR and BERT.
fn transformer_layer(net: &mut Network, batch: u64, seq: u64, hidden: u64, heads: u64, ffn: u64) {
    let head_dim = hidden / heads;
    // QKV projections (fused as one GEMM in practice).
    net.add(Workload::matmul(1, batch * seq, 3 * hidden, hidden), 1);
    // Attention scores and weighted sum: batched per head.
    net.add(Workload::matmul(batch * heads, seq, seq, head_dim), 1);
    net.add(Workload::matmul(batch * heads, seq, head_dim, seq), 1);
    // Softmax = rowwise max+sum reductions plus exp map.
    net.add(Workload::reduction(batch * heads * seq, seq), 2);
    net.add(Workload::elementwise(EwKind::Sigmoid, batch * heads * seq * seq), 1);
    // Output projection.
    net.add(Workload::matmul(1, batch * seq, hidden, hidden), 1);
    // Feed-forward.
    net.add(Workload::matmul(1, batch * seq, ffn, hidden), 1);
    net.add(Workload::elementwise(EwKind::Gelu, batch * seq * ffn), 1);
    net.add(Workload::matmul(1, batch * seq, hidden, ffn), 1);
    // Two layer norms (mean/var reductions + normalization map) and the
    // two residual adds.
    net.add(Workload::reduction(batch * seq, hidden), 4);
    net.add(Workload::elementwise(EwKind::BnInfer, batch * seq * hidden), 2);
    net.add(Workload::elementwise(EwKind::Add, batch * seq * hidden), 2);
}

/// ViT-Base/16 at 224×224 input (sequence length 197).
pub fn vit(batch: u64) -> Network {
    let mut net = Network::new(format!("vit-b{batch}"));
    // Patch embedding: 16x16/16 conv, 3 -> 768.
    net.add(Workload::conv2d(batch, 3, 224, 224, 768, 16, 16, 0), 1);
    for _ in 0..12 {
        transformer_layer(&mut net, batch, 197, 768, 12, 3072);
    }
    net.add(Workload::matmul(1, batch, 1000, 768), 1);
    net
}

/// DeepLab-V3 with ResNet-50 backbone at 224×224 input.
pub(crate) fn deeplabv3_r50(batch: u64) -> Network {
    let mut net = Network::new(format!("deeplabv3_r50-b{batch}"));
    resnet50_backbone(&mut net, batch, 1, 224);
    // ASPP at output stride 16 (14x14 feature map): 1x1 + three dilated 3x3.
    net.add(Workload::conv2d(batch, 2048, 14, 14, 256, 1, 1, 0), 1);
    for rate in [6u64, 12, 18] {
        net.add(Workload::conv2d_dilated(batch, 2048, 14, 14, 256, 3, 1, rate, rate), 1);
    }
    // Image-level pooling branch + projection.
    net.add(Workload::reduction(batch * 2048, 14 * 14), 1);
    net.add(Workload::conv2d(batch, 2048, 1, 1, 256, 1, 1, 0), 1);
    // Fuse (concat -> 1x1) and classifier.
    net.add(Workload::conv2d(batch, 1280, 14, 14, 256, 1, 1, 0), 1);
    net.add(Workload::conv2d(batch, 256, 14, 14, 256, 3, 1, 1), 1);
    net.add(Workload::conv2d(batch, 256, 14, 14, 21, 1, 1, 0), 1);
    net
}

/// DeTR with ResNet-50 backbone at 224×224 input (49 memory tokens,
/// 100 object queries).
pub(crate) fn detr(batch: u64) -> Network {
    let mut net = Network::new(format!("detr-b{batch}"));
    resnet50_backbone(&mut net, batch, 1, 224);
    // Input projection 2048 -> 256.
    net.add(Workload::conv2d(batch, 2048, 7, 7, 256, 1, 1, 0), 1);
    let (seq, hidden, heads, ffn) = (49u64, 256u64, 8u64, 2048u64);
    for _ in 0..6 {
        transformer_layer(&mut net, batch, seq, hidden, heads, ffn);
    }
    // Decoder: self-attention over 100 queries + cross-attention to memory.
    let queries = 100u64;
    for _ in 0..6 {
        transformer_layer(&mut net, batch, queries, hidden, heads, ffn);
        // Cross-attention: Q from queries, K/V from memory.
        net.add(Workload::matmul(batch * heads, queries, seq, hidden / heads), 1);
        net.add(Workload::matmul(batch * heads, queries, hidden / heads, seq), 1);
        net.add(Workload::matmul(1, batch * seq, 2 * hidden, hidden), 1);
    }
    // Prediction heads.
    net.add(Workload::matmul(1, batch * queries, 92, hidden), 1);
    net.add(Workload::matmul(1, batch * queries, hidden, hidden), 2);
    net.add(Workload::matmul(1, batch * queries, 4, hidden), 1);
    net
}

/// BERT-base (12 layers, hidden 768) at the given sequence length.
pub fn bert_base(batch: u64, seq: u64) -> Network {
    let mut net = Network::new(format!("bert_base-b{batch}s{seq}"));
    for _ in 0..12 {
        transformer_layer(&mut net, batch, seq, 768, 12, 3072);
    }
    // Pooler.
    net.add(Workload::matmul(1, batch, 768, 768), 1);
    net.add(Workload::elementwise(EwKind::Tanh, batch * 768), 1);
    net
}

/// BERT-large (24 layers, hidden 1024) at the given sequence length —
/// the source of the Figure 13 MatMul scalability shapes.
pub(crate) fn bert_large(batch: u64, seq: u64) -> Network {
    let mut net = Network::new(format!("bert_large-b{batch}s{seq}"));
    for _ in 0..24 {
        transformer_layer(&mut net, batch, seq, 1024, 16, 4096);
    }
    net.add(Workload::matmul(1, batch, 1024, 1024), 1);
    net.add(Workload::elementwise(EwKind::Tanh, batch * 1024), 1);
    net
}

/// A GPT-2-small-like decoder (12 layers, hidden 768) with its large
/// vocabulary projection — an autoregressive-inference workload mix that
/// stresses skinny GEMMs.
pub(crate) fn gpt2(batch: u64, seq: u64) -> Network {
    let mut net = Network::new(format!("gpt2-b{batch}s{seq}"));
    for _ in 0..12 {
        transformer_layer(&mut net, batch, seq, 768, 12, 3072);
    }
    // Language-model head over a 50k vocabulary (rounded for tiling).
    net.add(Workload::matmul(1, batch * seq, 50_304, 768), 1);
    net.add(Workload::reduction(batch * seq, 50_304), 1);
    net
}

/// BERT-tiny (2 layers, hidden 128) at the given sequence length.
pub fn bert_tiny(batch: u64, seq: u64) -> Network {
    let mut net = Network::new(format!("bert_tiny-b{batch}s{seq}"));
    for _ in 0..2 {
        transformer_layer(&mut net, batch, seq, 128, 2, 512);
    }
    net.add(Workload::matmul(1, batch, 128, 128), 1);
    net.add(Workload::elementwise(EwKind::Tanh, batch * 128), 1);
    net
}

/// R3D-18 (3-D ResNet-18) on 16-frame 112×112 clips.
pub fn r3d_18(batch: u64) -> Network {
    let mut net = Network::new(format!("r3d18-b{batch}"));
    // Stem: 3x7x7, stride (1,2,2) approximated by stride 2 with depth kept.
    net.add(Workload::conv3d(batch, 3, 16, 112, 112, 64, 3, 2, 1), 1);
    // (channels, resolution, depth, blocks) per stage; stride 2 at entry of
    // stages 2-4.
    let stages: [(u64, u64, u64, u64); 4] =
        [(64, 56, 8, 2), (128, 28, 4, 2), (256, 14, 2, 2), (512, 7, 1, 2)];
    let mut in_c = 64u64;
    for (si, &(c, r, d, blocks)) in stages.iter().enumerate() {
        for b in 0..blocks {
            let (stride, in_r, in_d) = if b == 0 && si > 0 { (2, r * 2, d * 2) } else { (1, r, d) };
            net.add(Workload::conv3d(batch, in_c, in_d, in_r, in_r, c, 3, stride, 1), 1);
            net.add(Workload::conv3d(batch, c, d, r, r, c, 3, 1, 1), 1);
            if b == 0 && si > 0 {
                net.add(Workload::conv3d(batch, in_c, in_d, in_r, in_r, c, 1, stride, 0), 1);
            }
            net.add(Workload::elementwise(EwKind::Add, batch * c * d * r * r), 1);
            net.add(Workload::elementwise(EwKind::Relu, batch * c * d * r * r), 1);
            in_c = c;
        }
    }
    net.add(Workload::reduction(batch * 512, 7 * 7), 1);
    net.add(Workload::matmul(1, batch, 400, 512), 1);
    net
}

/// All ten evaluation networks at batch size 1, plus R3D-18.
///
/// Order matches the paper's workload tables: R-50, WR-50, I-V3, D-121,
/// MB-V2, ViT, DL-V3, DeTR, BERT-base, BERT-tiny, R3D-18.
#[cfg(test)]
fn all_networks(batch: u64) -> Vec<Network> {
    vec![
        resnet50(batch),
        wide_resnet50(batch),
        inception_v3(batch),
        densenet121(batch),
        mobilenet_v2(batch),
        vit(batch),
        deeplabv3_r50(batch),
        detr(batch),
        bert_base(batch, 128),
        bert_tiny(batch, 128),
        r3d_18(batch),
    ]
}

/// Looks a network up by the short names used throughout the paper
/// (`"R-50"`, `"MB-V2"`, `"B-base"`, …). Returns `None` for unknown names.
pub fn by_short_name(name: &str, batch: u64) -> Option<Network> {
    let net = match name {
        "R-50" | "R50" | "resnet50" => resnet50(batch),
        "WR-50" | "wide_resnet50" => wide_resnet50(batch),
        "I-V3" | "inception_v3" => inception_v3(batch),
        "D-121" | "densenet121" => densenet121(batch),
        "MB-V2" | "M-V2" | "mobilenet_v2" => mobilenet_v2(batch),
        "ViT" | "vit" => vit(batch),
        "DL-V3" | "deeplabv3" => deeplabv3_r50(batch),
        "DeTR" | "detr" => detr(batch),
        "B-base" | "bert_base" => bert_base(batch, 128),
        "B-tiny" | "bert_tiny" => bert_tiny(batch, 128),
        "B-large" | "bert_large" => bert_large(batch, 128),
        "GPT-2" | "gpt2" => gpt2(batch, 128),
        "R3D-18" | "r3d18" => r3d_18(batch),
        _ => return None,
    };
    Some(net)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet50_flops_in_expected_range() {
        // Real ResNet-50 is ~4.1 GFLOPs (8.2 GFLOPs counting MACs as 2 ops).
        let net = resnet50(1);
        let gflops = net.total_flops() / 1e9;
        assert!((5.0..12.0).contains(&gflops), "got {gflops} GFLOPs");
    }

    #[test]
    fn bert_base_flops_in_expected_range() {
        // BERT-base at seq 128 is ~22.5 GFLOPs per the usual 2*params*seq rule.
        let net = bert_base(1, 128);
        let gflops = net.total_flops() / 1e9;
        assert!((10.0..40.0).contains(&gflops), "got {gflops} GFLOPs");
    }

    #[test]
    fn mobilenet_is_light() {
        let net = mobilenet_v2(1);
        let gflops = net.total_flops() / 1e9;
        assert!(gflops < 2.0, "MobileNet-V2 should be < 2 GFLOPs, got {gflops}");
    }

    #[test]
    fn task_counts_are_plausible() {
        for net in all_networks(1) {
            let n = net.num_tasks();
            assert!(
                (5..120).contains(&n),
                "{} has implausible task count {n}",
                net.name()
            );
        }
    }

    #[test]
    fn wide_resnet_heavier_than_resnet() {
        assert!(wide_resnet50(1).total_flops() > resnet50(1).total_flops());
    }

    #[test]
    fn by_short_name_covers_paper_names() {
        for name in
            ["R-50", "WR-50", "I-V3", "D-121", "MB-V2", "ViT", "DL-V3", "DeTR", "B-base", "B-tiny",
             "R3D-18"]
        {
            assert!(by_short_name(name, 1).is_some(), "missing {name}");
        }
        assert!(by_short_name("nope", 1).is_none());
    }

    #[test]
    fn bert_large_heavier_than_base() {
        let base = bert_base(1, 128).total_flops();
        let large = bert_large(1, 128).total_flops();
        assert!((2.5..5.0).contains(&(large / base)), "ratio {}", large / base);
    }

    #[test]
    fn gpt2_vocab_head_dominates_at_short_seq() {
        let net = gpt2(1, 128);
        let head_flops = 2.0 * (128u64 * 50_304 * 768) as f64;
        assert!(head_flops / net.total_flops() > 0.2, "LM head should be a major cost");
    }

    #[test]
    fn batch_scales_flops() {
        let b1 = resnet50(1).total_flops();
        let b4 = resnet50(4).total_flops();
        assert!((b4 / b1 - 4.0).abs() < 0.2, "batch-4 should be ~4x flops");
    }

    #[test]
    fn networks_have_multitiling_and_simple_tasks() {
        let net = resnet50(1);
        let multi = net.subgraphs().iter().filter(|s| s.workload.has_multi_tiling()).count();
        let simple = net.subgraphs().len() - multi;
        assert!(multi > 0 && simple > 0);
    }
}
