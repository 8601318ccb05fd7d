//! Small helper for wiring up network graphs by index.

use crate::layer::{From, Layer, LayerKind, Network};
use crate::ActShape;

/// Incremental network builder that returns layer indices, making residual
//  wiring explicit and checkable.
#[derive(Debug)]
pub struct NetBuilder {
    name: String,
    input: ActShape,
    layers: Vec<Layer>,
}

impl NetBuilder {
    /// Starts a network with the given input shape.
    pub fn new(name: impl Into<String>, input: ActShape) -> Self {
        Self { name: name.into(), input, layers: Vec::new() }
    }

    /// Appends a layer fed by the previous layer; returns its index.
    pub fn push(&mut self, name: impl Into<String>, kind: LayerKind) -> usize {
        self.layers.push(Layer::new(name, kind));
        self.layers.len() - 1
    }

    /// Appends a layer with explicit wiring; returns its index.
    pub fn push_from(&mut self, name: impl Into<String>, kind: LayerKind, from: From) -> usize {
        self.layers.push(Layer::wired(name, kind, from));
        self.layers.len() - 1
    }

    /// Marks the layer at `idx` as the first of a residual block (Figure
    /// 9's yellow marking).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn mark_residual_first_at(&mut self, idx: usize) {
        self.layers[idx].residual_first = true;
    }

    /// Index the *next* pushed layer will receive.
    pub fn next_index(&self) -> usize {
        self.layers.len()
    }

    /// Rewires an already-pushed layer's input (shortcut-branch surgery).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set_from(&mut self, idx: usize, from: From) {
        self.layers[idx].from = from;
    }

    /// Index of the most recently pushed layer.
    ///
    /// # Panics
    ///
    /// Panics if no layer has been pushed yet.
    pub fn last(&self) -> usize {
        self.layers.len() - 1
    }

    /// Finishes the network.
    pub fn build(self) -> Network {
        Network { name: self.name, input: self.input, layers: self.layers }
    }
}

/// Shorthand for a dense convolution layer kind.
pub fn conv(k: usize, s: usize, p: usize, c_in: usize, c_out: usize) -> LayerKind {
    LayerKind::Conv { k, s, p, c_in, c_out, groups: 1 }
}

/// Shorthand for a depthwise convolution layer kind.
pub fn dwconv(k: usize, s: usize, p: usize, c: usize) -> LayerKind {
    LayerKind::Conv { k, s, p, c_in: c, c_out: c, groups: c }
}

/// Shorthand for max pooling.
pub fn maxpool(k: usize, s: usize, p: usize) -> LayerKind {
    LayerKind::MaxPool { k, s, p }
}
