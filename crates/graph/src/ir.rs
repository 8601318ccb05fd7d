//! Typed executable graph IR lowered from [`bconv_models`] descriptors.
//!
//! A [`bconv_models::Network`] is *architectural*: shapes and wiring, no
//! weights. Lowering turns it into a [`Graph`] of executable [`Node`]s,
//! binding deterministic weights through [`bconv_tensor::init`] so that
//! every executor compiled from the same graph (and every session built
//! with the same seed) computes on identical parameters.

use std::sync::Arc;

use bconv_models::{ActShape, LayerKind, Network};
use bconv_tensor::conv::{Conv2d, ConvGeom};
use bconv_tensor::init::{he_conv2d, he_linear, seeded_rng};
use bconv_tensor::linear::Linear;
use bconv_tensor::TensorError;

/// Index of a node within its [`Graph`].
pub type NodeId = usize;

/// Where a node reads its (primary) input from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRef {
    /// The graph input tensor.
    Input,
    /// The output of another node.
    Node(NodeId),
}

/// An executable operator with bound parameters.
#[derive(Debug, Clone)]
pub enum NodeOp {
    /// 2-D convolution with bound weights. `conv_ordinal` is the index of
    /// this convolution among the source network's conv layers — the index
    /// a [`bconv_core::plan::NetworkPlan`] decision list is keyed by.
    Conv {
        /// The dense convolution (weights bound at lowering). Shared: the
        /// planner hands the same allocation to every `FusedChain` stage
        /// built from this node, so blocked-conv weights exist once per
        /// session.
        conv: Arc<Conv2d>,
        /// Conv-layer ordinal in the source network.
        conv_ordinal: usize,
    },
    /// Element-wise ReLU.
    Relu,
    /// Max pooling (window `k`, stride `s`, symmetric padding `p`).
    MaxPool {
        /// Window.
        k: usize,
        /// Stride.
        s: usize,
        /// Padding (implemented as `-inf` border pixels).
        p: usize,
    },
    /// Global average pooling to `1 × 1`.
    GlobalAvgPool,
    /// Fully-connected layer with bound weights.
    Fc(Linear),
    /// Element-wise sum with another node's output (residual join).
    Add {
        /// The second summand.
        other: NodeRef,
    },
    /// Nearest-neighbour upsampling by an integer factor (lowered from
    /// `ResizeLike`).
    Upsample {
        /// Integer scale factor.
        factor: usize,
    },
}

impl NodeOp {
    /// Short operator mnemonic for plan/debug output.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Self::Conv { .. } => "conv",
            Self::Relu => "relu",
            Self::MaxPool { .. } => "maxpool",
            Self::GlobalAvgPool => "gap",
            Self::Fc(_) => "fc",
            Self::Add { .. } => "add",
            Self::Upsample { .. } => "upsample",
        }
    }
}

/// One executable graph node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Name inherited from the source layer (synthesised for inserted ops).
    pub name: String,
    /// The operator.
    pub op: NodeOp,
    /// Primary input.
    pub input: NodeRef,
    /// Shape of the primary input.
    pub in_shape: ActShape,
    /// Output shape.
    pub out_shape: ActShape,
}

/// Options controlling lowering.
#[derive(Debug, Clone, Copy)]
pub struct LowerOptions {
    /// Seed for deterministic weight binding; two graphs lowered from the
    /// same network with the same seed carry identical weights.
    pub seed: u64,
    /// Insert a ReLU node after every convolution (descriptors carry no
    /// explicit activations). References to a conv layer then resolve to
    /// its post-activation output.
    pub relu_after_conv: bool,
}

impl Default for LowerOptions {
    fn default() -> Self {
        Self { seed: 2018, relu_after_conv: false }
    }
}

/// Per-layer RNG seed derivation: a full avalanche mix of
/// `(seed, salt, index)`. The mix matters — seeding consecutive layers
/// with affine offsets of the generator's own increment would put their
/// streams on the same orbit (layer *i+1*'s draws equal layer *i*'s
/// shifted by one), silently correlating "independent" initialisations.
fn layer_seed(seed: u64, salt: u64, idx: usize) -> u64 {
    let mut z = seed ^ salt.rotate_left(32) ^ (idx as u64).wrapping_mul(0xA24B_AED4_963E_E407);
    z = (z ^ (z >> 31)).wrapping_mul(0x9FB2_1C65_1E98_DF25);
    z = (z ^ (z >> 27)).wrapping_mul(0x9E6C_63D0_176C_60DD);
    z ^ (z >> 33)
}

/// A typed, weight-bound, executable graph in topological order.
#[derive(Debug, Clone)]
pub struct Graph {
    name: String,
    input: ActShape,
    nodes: Vec<Node>,
    /// Number of graph nodes reading each node's output.
    consumers: Vec<usize>,
}

impl Graph {
    /// Lowers a network descriptor into an executable graph.
    ///
    /// Weights are bound deterministically: conv layer `i` draws from
    /// `seeded_rng(seed + i·φ)` (He initialisation), so weight identity
    /// depends only on `(network topology, seed)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] when the descriptor is inconsistent (via
    /// [`Network::trace`]) or uses a construct with no executable lowering
    /// (non-integer `ResizeLike` factors).
    pub fn lower(net: &Network, opts: &LowerOptions) -> Result<Self, TensorError> {
        let infos = net.trace()?;
        let mut nodes: Vec<Node> = Vec::with_capacity(net.layers.len());
        // Output node of each source layer (the ReLU when one is inserted).
        let mut layer_out: Vec<NodeId> = Vec::with_capacity(net.layers.len());
        let mut conv_ordinal = 0usize;

        for (idx, layer) in net.layers.iter().enumerate() {
            let resolve = |f: bconv_models::layer::From| -> NodeRef {
                match f {
                    bconv_models::layer::From::Input => NodeRef::Input,
                    bconv_models::layer::From::Prev => {
                        if idx == 0 {
                            NodeRef::Input
                        } else {
                            NodeRef::Node(layer_out[idx - 1])
                        }
                    }
                    bconv_models::layer::From::Layer(i) => NodeRef::Node(layer_out[i]),
                }
            };
            let input = resolve(layer.from);
            let info = &infos[idx];
            let op = match layer.kind {
                LayerKind::Conv { k, s, p, c_in, c_out, groups } => {
                    // Weight stream depends only on (seed, conv ordinal).
                    let mut rng = seeded_rng(layer_seed(opts.seed, 0x434F_4E56, conv_ordinal));
                    let conv = he_conv2d(c_in, c_out, ConvGeom::new(k, s, p), groups, &mut rng)?;
                    let op = NodeOp::Conv { conv: Arc::new(conv), conv_ordinal };
                    conv_ordinal += 1;
                    op
                }
                LayerKind::MaxPool { k, s, p } => NodeOp::MaxPool { k, s, p },
                LayerKind::GlobalAvgPool => NodeOp::GlobalAvgPool,
                LayerKind::Fc { in_f, out_f } => {
                    let mut rng = seeded_rng(layer_seed(opts.seed, 0x4643_4C59, idx));
                    NodeOp::Fc(he_linear(in_f, out_f, &mut rng)?)
                }
                LayerKind::Add { other } => NodeOp::Add { other: resolve(other) },
                LayerKind::ResizeLike { like } => {
                    let target = infos[like].out_shape;
                    let src = info.in_shape;
                    if src.h == 0
                        || src.w == 0
                        || target.h % src.h != 0
                        || target.w % src.w != 0
                        || target.h / src.h != target.w / src.w
                    {
                        return Err(TensorError::invalid(format!(
                            "{}: ResizeLike {}x{} -> {}x{} is not an integer upsample",
                            layer.name, src.h, src.w, target.h, target.w
                        )));
                    }
                    NodeOp::Upsample { factor: target.h / src.h }
                }
            };
            nodes.push(Node {
                name: layer.name.clone(),
                op,
                input,
                in_shape: info.in_shape,
                out_shape: info.out_shape,
            });
            let mut out_node = nodes.len() - 1;
            if opts.relu_after_conv && matches!(layer.kind, LayerKind::Conv { .. }) {
                nodes.push(Node {
                    name: format!("{}-relu", layer.name),
                    op: NodeOp::Relu,
                    input: NodeRef::Node(out_node),
                    in_shape: info.out_shape,
                    out_shape: info.out_shape,
                });
                out_node = nodes.len() - 1;
            }
            layer_out.push(out_node);
        }

        let mut consumers = vec![0usize; nodes.len()];
        for node in &nodes {
            if let NodeRef::Node(i) = node.input {
                consumers[i] += 1;
            }
            if let NodeOp::Add { other: NodeRef::Node(i) } = node.op {
                consumers[i] += 1;
            }
        }

        Ok(Self { name: net.name.clone(), input: net.input, nodes, consumers })
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Graph input shape (per batch element).
    pub fn input_shape(&self) -> ActShape {
        self.input
    }

    /// Nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Test hook: the nodes, mutably — for graphs lowering never produces
    /// (a conv with all-zero weights).
    #[cfg(test)]
    pub(crate) fn nodes_mut(&mut self) -> &mut [Node] {
        &mut self.nodes
    }

    /// Number of graph nodes consuming node `id`'s output.
    pub fn consumer_count(&self, id: NodeId) -> usize {
        self.consumers[id]
    }

    /// Id of the final (output) node.
    ///
    /// # Panics
    ///
    /// Panics on an empty graph (lowering rejects empty networks upstream).
    pub fn output_id(&self) -> NodeId {
        assert!(!self.nodes.is_empty(), "empty graph");
        self.nodes.len() - 1
    }

    /// Number of convolution nodes.
    pub fn conv_count(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n.op, NodeOp::Conv { .. })).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bconv_models::small::vgg16_small;
    use bconv_models::vdsr::vdsr_with_depth;

    #[test]
    fn lowering_binds_deterministic_weights() {
        let net = vgg16_small(32);
        let a = Graph::lower(&net, &LowerOptions::default()).unwrap();
        let b = Graph::lower(&net, &LowerOptions::default()).unwrap();
        for (na, nb) in a.nodes().iter().zip(b.nodes()) {
            if let (NodeOp::Conv { conv: ca, .. }, NodeOp::Conv { conv: cb, .. }) = (&na.op, &nb.op)
            {
                assert_eq!(ca.weight().data(), cb.weight().data());
            }
        }
        let c = Graph::lower(&net, &LowerOptions { seed: 999, ..LowerOptions::default() }).unwrap();
        let wa = a.nodes().iter().find_map(|n| match &n.op {
            NodeOp::Conv { conv, .. } => Some(conv.weight().data().to_vec()),
            _ => None,
        });
        let wc = c.nodes().iter().find_map(|n| match &n.op {
            NodeOp::Conv { conv, .. } => Some(conv.weight().data().to_vec()),
            _ => None,
        });
        assert_ne!(wa, wc, "different seeds must bind different weights");
    }

    #[test]
    fn relu_insertion_rewires_layer_references() {
        // VDSR's residual add reads the *input*, and its `From::Layer`
        // reference to the last conv must point at the post-ReLU node.
        let net = vdsr_with_depth(8, 8, 3, 4);
        let g =
            Graph::lower(&net, &LowerOptions { relu_after_conv: true, ..LowerOptions::default() })
                .unwrap();
        let add = g.nodes().iter().find(|n| matches!(n.op, NodeOp::Add { .. })).unwrap();
        let NodeRef::Node(src) = add.input else {
            panic!("add should read a node");
        };
        assert!(matches!(g.nodes()[src].op, NodeOp::Relu));
    }

    #[test]
    fn consumer_counts_track_residual_fanout() {
        let net = bconv_models::small::resnet18_small(32);
        let g = Graph::lower(&net, &LowerOptions::default()).unwrap();
        // At least one node (a residual source) must have two consumers.
        let max_consumers = (0..g.nodes().len()).map(|i| g.consumer_count(i)).max().unwrap();
        assert!(max_consumers >= 2, "resnet graphs fan out at residuals");
    }

    #[test]
    fn layer_seeds_are_not_on_one_rng_orbit() {
        // SplitMix64 advances its state by a fixed gamma per draw, so two
        // seeds differing by exactly gamma yield shifted copies of the
        // same stream. Per-layer seeds must never be gamma-affine.
        const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
        for base in [0u64, 2018, u64::MAX / 2] {
            for i in 0..16usize {
                let a = layer_seed(base, 0x434F_4E56, i);
                let b = layer_seed(base, 0x434F_4E56, i + 1);
                assert_ne!(b.wrapping_sub(a), GAMMA, "seed {base}, layer {i}");
                assert_ne!(a.wrapping_sub(b), GAMMA, "seed {base}, layer {i}");
            }
        }
    }

    #[test]
    fn conv_ordinals_are_dense_and_ordered() {
        let net = vgg16_small(32);
        let g = Graph::lower(&net, &LowerOptions::default()).unwrap();
        let ordinals: Vec<usize> = g
            .nodes()
            .iter()
            .filter_map(|n| match n.op {
                NodeOp::Conv { conv_ordinal, .. } => Some(conv_ordinal),
                _ => None,
            })
            .collect();
        assert_eq!(ordinals, (0..ordinals.len()).collect::<Vec<_>>());
    }
}
