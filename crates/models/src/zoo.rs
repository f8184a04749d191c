//! The benchmark zoo of paper Table 1: MobileNet, ResNet-18, AlexNet,
//! VGG16, VGG19 — built from their published architectural hyper-
//! parameters (channel widths, kernel sizes, strides per layer).
//!
//! Layer counts here count every scheduled layer (convolutions, pools,
//! fully-connected); parameter totals land within a few percent of the
//! figures the paper reports (4.2 M / 11 M / 62 M / 138 M / 143 M).

use crate::network::Network;
use seculator_arch::layer::{ConvShape, LayerKind, MatmulShape};

fn conv(k: u32, c: u32, h: u32, w: u32, rs: u32, stride: u32) -> LayerKind {
    LayerKind::Conv(ConvShape {
        k,
        c,
        h,
        w,
        r: rs,
        s: rs,
        stride,
    })
}

fn dwconv(ch: u32, h: u32, w: u32, stride: u32) -> LayerKind {
    LayerKind::DepthwiseConv(ConvShape {
        k: ch,
        c: ch,
        h,
        w,
        r: 3,
        s: 3,
        stride,
    })
}

fn pool(c: u32, h: u32, w: u32, window: u32) -> LayerKind {
    LayerKind::Pool { c, h, w, window }
}

fn fc(out: u32, inp: u32) -> LayerKind {
    LayerKind::FullyConnected(MatmulShape::new(1, inp, out))
}

/// MobileNet v1 (224×224×3 input): a stem convolution followed by 13
/// depthwise-separable blocks (depthwise 3×3 + pointwise 1×1), global
/// pooling and a classifier. ≈4.2 M parameters.
#[must_use]
pub fn mobilenet() -> Network {
    let mut l = vec![conv(32, 3, 224, 224, 3, 2)];
    // (input channels, output channels, input spatial, depthwise stride)
    let blocks: [(u32, u32, u32, u32); 13] = [
        (32, 64, 112, 1),
        (64, 128, 112, 2),
        (128, 128, 56, 1),
        (128, 256, 56, 2),
        (256, 256, 28, 1),
        (256, 512, 28, 2),
        (512, 512, 14, 1),
        (512, 512, 14, 1),
        (512, 512, 14, 1),
        (512, 512, 14, 1),
        (512, 512, 14, 1),
        (512, 1024, 14, 2),
        (1024, 1024, 7, 1),
    ];
    for (cin, cout, hw, stride) in blocks {
        l.push(dwconv(cin, hw, hw, stride));
        let hw_out = hw / stride;
        l.push(conv(cout, cin, hw_out, hw_out, 1, 1));
    }
    l.push(pool(1024, 7, 7, 7));
    l.push(fc(1000, 1024));
    Network::new("MobileNet", l)
}

/// ResNet-18 (224×224×3): 7×7 stem, four stages of two basic blocks
/// (two 3×3 convolutions each), pooling and a classifier. ≈11 M params.
/// Identity shortcuts carry no parameters; the three 1×1 downsample
/// projections are included.
#[must_use]
pub fn resnet18() -> Network {
    let mut l = vec![conv(64, 3, 224, 224, 7, 2), pool(64, 112, 112, 2)];
    // (channels_in, channels_out, input spatial, first-conv stride)
    let stages: [(u32, u32, u32, u32); 4] = [
        (64, 64, 56, 1),
        (64, 128, 56, 2),
        (128, 256, 28, 2),
        (256, 512, 14, 2),
    ];
    for (cin, cout, hw, stride) in stages {
        let hw_out = hw / stride;
        // Block 1 (possibly strided, with projection when shape changes).
        l.push(conv(cout, cin, hw, hw, 3, stride));
        l.push(conv(cout, cout, hw_out, hw_out, 3, 1));
        if stride != 1 || cin != cout {
            l.push(conv(cout, cin, hw, hw, 1, stride)); // projection shortcut
        }
        // Block 2.
        l.push(conv(cout, cout, hw_out, hw_out, 3, 1));
        l.push(conv(cout, cout, hw_out, hw_out, 3, 1));
    }
    l.push(pool(512, 7, 7, 7));
    l.push(fc(1000, 512));
    Network::new("ResNet", l)
}

/// AlexNet (224×224×3 in this reproduction's padding model): five
/// convolutions (conv2/4/5 use the original two-GPU grouped convolution,
/// halving their input channels), three pools, three fully-connected
/// layers. ≈61 M parameters (the classifier dominates).
#[must_use]
pub fn alexnet() -> Network {
    let l = vec![
        conv(96, 3, 224, 224, 11, 4),
        pool(96, 56, 56, 2),
        conv(256, 48, 28, 28, 5, 1), // grouped: each half sees 48 channels
        pool(256, 28, 28, 2),
        conv(384, 256, 14, 14, 3, 1),
        conv(384, 192, 14, 14, 3, 1), // grouped
        conv(256, 192, 14, 14, 3, 1), // grouped
        pool(256, 14, 14, 2),
        fc(4096, 256 * 6 * 6), // classifier input of the original network
        fc(4096, 4096),
        fc(1000, 4096),
    ];
    Network::new("AlexNet", l)
}

fn vgg_block(l: &mut Vec<LayerKind>, convs: u32, cin: u32, cout: u32, hw: u32) {
    l.push(conv(cout, cin, hw, hw, 3, 1));
    for _ in 1..convs {
        l.push(conv(cout, cout, hw, hw, 3, 1));
    }
    l.push(pool(cout, hw, hw, 2));
}

/// VGG16 (224×224×3): thirteen 3×3 convolutions in five blocks, five
/// pools, three fully-connected layers. ≈138 M parameters.
#[must_use]
pub fn vgg16() -> Network {
    let mut l = Vec::new();
    vgg_block(&mut l, 2, 3, 64, 224);
    vgg_block(&mut l, 2, 64, 128, 112);
    vgg_block(&mut l, 3, 128, 256, 56);
    vgg_block(&mut l, 3, 256, 512, 28);
    vgg_block(&mut l, 3, 512, 512, 14);
    l.push(fc(4096, 512 * 7 * 7));
    l.push(fc(4096, 4096));
    l.push(fc(1000, 4096));
    Network::new("VGG16", l)
}

/// VGG19: like VGG16 with four convolutions in the last three blocks.
/// ≈143 M parameters.
#[must_use]
pub fn vgg19() -> Network {
    let mut l = Vec::new();
    vgg_block(&mut l, 2, 3, 64, 224);
    vgg_block(&mut l, 2, 64, 128, 112);
    vgg_block(&mut l, 4, 128, 256, 56);
    vgg_block(&mut l, 4, 256, 512, 28);
    vgg_block(&mut l, 4, 512, 512, 14);
    l.push(fc(4096, 512 * 7 * 7));
    l.push(fc(4096, 4096));
    l.push(fc(1000, 4096));
    Network::new("VGG19", l)
}

/// The paper's five benchmarks in Table 1 order.
#[must_use]
pub fn paper_benchmarks() -> Vec<Network> {
    vec![mobilenet(), resnet18(), alexnet(), vgg16(), vgg19()]
}

/// A small LeNet-style CNN on 32×32×3 inputs — the "base layer" geometry
/// the paper's Figure 9 widening experiment starts from.
#[must_use]
pub fn tiny_cnn() -> Network {
    let l = vec![
        conv(16, 3, 32, 32, 3, 1),
        pool(16, 32, 32, 2),
        conv(32, 16, 16, 16, 3, 1),
        pool(32, 16, 16, 2),
        conv(64, 32, 8, 8, 3, 1),
        fc(10, 64 * 8 * 8),
    ];
    Network::new("TinyCNN", l)
}

/// A small multi-layer perceptron (three matmuls).
#[must_use]
pub fn tiny_mlp() -> Network {
    let l = vec![fc(256, 784), fc(128, 256), fc(10, 128)];
    Network::new("TinyMLP", l)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_counts_land_near_paper_table1() {
        // (network, expected millions, tolerance in millions)
        let cases = [
            (mobilenet(), 4.2, 0.8),
            (resnet18(), 11.0, 1.5),
            (alexnet(), 62.0, 6.0),
            (vgg16(), 138.0, 8.0),
            (vgg19(), 143.0, 8.0),
        ];
        for (net, expected, tol) in cases {
            let got = net.params() as f64 / 1e6;
            assert!(
                (got - expected).abs() <= tol,
                "{}: got {got:.1}M params, expected {expected}M ± {tol}M",
                net.name
            );
        }
    }

    #[test]
    fn layer_counts_are_plausible() {
        assert_eq!(
            mobilenet().depth(),
            1 + 26 + 2,
            "stem + 13 dw/pw pairs + pool + fc"
        );
        assert!(resnet18().depth() >= 18);
        assert!(alexnet().depth() >= 11);
        assert!(vgg16().depth() >= 21);
        assert!(vgg19().depth() >= 24);
    }

    #[test]
    fn vgg19_has_more_params_than_vgg16() {
        assert!(vgg19().params() > vgg16().params());
    }

    #[test]
    fn spatial_dims_chain_consistently_for_sequential_nets() {
        // Each layer's input dims must equal the previous layer's output
        // dims for the purely sequential topologies. ResNet (shortcut
        // branches) and AlexNet (grouped convolutions) are legitimately
        // non-sequential and are checked structurally elsewhere.
        for net in [mobilenet(), vgg16(), vgg19()] {
            let mut prev: Option<(u32, u32, u32)> = None; // (k, h, w)
            for layer in &net.layers {
                let d = layer.dims();
                if let Some((pk, ph, pw)) = prev {
                    // Fully-connected layers flatten; skip the check there.
                    if !matches!(
                        layer.kind,
                        seculator_arch::layer::LayerKind::FullyConnected(_)
                    ) {
                        assert_eq!(
                            (d.c, d.in_h, d.in_w),
                            (pk, ph, pw),
                            "{}: layer {} input does not chain",
                            net.name,
                            layer.id,
                        );
                    }
                }
                prev = Some((d.k, d.h, d.w));
            }
        }
    }
}
