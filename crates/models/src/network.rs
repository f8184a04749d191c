//! Network containers: an ordered list of layers with derived statistics
//! (the paper's Table 1 reports layer and parameter counts per benchmark).

use seculator_arch::layer::{LayerDesc, LayerKind};
use serde::{Deserialize, Serialize};

/// A feed-forward network: layers executed in order, each layer consuming
/// the previous layer's output feature maps.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Network {
    /// Human-readable name ("VGG16", …).
    pub name: String,
    /// Layers in execution order; `LayerDesc::id` equals the index.
    pub layers: Vec<LayerDesc>,
}

impl Network {
    /// Creates a network, renumbering layer ids to match their position.
    #[must_use]
    pub fn new(name: impl Into<String>, kinds: Vec<LayerKind>) -> Self {
        let layers = kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| LayerDesc::new(i as u32, kind))
            .collect();
        Self {
            name: name.into(),
            layers,
        }
    }

    /// Number of layers.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total tunable parameters across all layers.
    #[must_use]
    pub fn params(&self) -> u64 {
        self.layers.iter().map(LayerDesc::params).sum()
    }

    /// Total multiply-accumulate operations for one inference.
    #[must_use]
    pub fn macs(&self) -> u64 {
        self.layers.iter().map(LayerDesc::macs).sum()
    }

    /// Total bytes of weights.
    #[must_use]
    pub fn weight_bytes(&self) -> u64 {
        self.layers.iter().map(LayerDesc::weight_bytes).sum()
    }
}

impl std::fmt::Display for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} layers, {:.1}M params)",
            self.name,
            self.depth(),
            self.params() as f64 / 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seculator_arch::layer::ConvShape;

    #[test]
    fn ids_are_renumbered_to_positions() {
        let net = Network::new(
            "tiny",
            vec![
                LayerKind::Conv(ConvShape::simple(8, 3, 16, 3)),
                LayerKind::Conv(ConvShape::simple(8, 8, 16, 3)),
            ],
        );
        assert_eq!(net.layers[0].id, 0);
        assert_eq!(net.layers[1].id, 1);
        assert_eq!(net.depth(), 2);
        assert_eq!(net.params(), 8 * 3 * 9 + 8 * 8 * 9);
    }
}
