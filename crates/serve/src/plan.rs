//! The engine's weights, frozen into the scalar they will execute in.
//!
//! [`Engine`](crate::Engine) scores through a [`ForwardPlan`] rather
//! than reading `Matrix` weights out of the snapshot on every request.
//! The plan holds the snapshot's parameters as the layer structure the
//! one forward pass runs on ([`ams_core::forward()`]), instantiated with
//! [`Plane`]s. For `E = f64` they are exact copies of the snapshot
//! (narrowing is the identity), so the f64 path stays bit-for-bit equal
//! to training-side `AmsModel::predict`. For `E = f32` they are the
//! quantized model: every weight rounded once, at load time, to the
//! nearest f32 — the serving-side half of the mixed-precision path
//! described in DESIGN.md §14.
//!
//! [`ForwardPlan::check_shapes`] runs the forward once to check that the
//! layer shapes chain, so the engine refuses a shape-inconsistent
//! artifact at load instead of failing inside a request.

use crate::artifact::ModelArtifact;
use ams_core::{forward, slave_selection, Plane, Weights, WsOps};
use ams_tensor::runtime::{Backend, Element, Workspace};

/// Every parameter the batch forward pass reads, in the scalar it will
/// execute in. Built once per engine (per precision) at load time.
#[derive(Debug, Clone)]
pub struct ForwardPlan<E: Element> {
    /// Full feature width `d` the model consumes.
    pub width: usize,
    /// Companies (graph nodes) `n`.
    pub companies: usize,
    /// The frozen weights.
    pub weights: Weights<Plane<E>>,
    /// Dense adjacency mask (`n×n`).
    pub mask: Plane<E>,
}

impl<E: Element> ForwardPlan<E> {
    /// Freeze an artifact's weights into `E`. For `E = f64` this is an
    /// exact copy; for `E = f32` it is the quantization step.
    pub fn from_artifact(artifact: &ModelArtifact) -> Result<Self, String> {
        let snap = &artifact.snapshot;
        let mask = snap
            .mask
            .as_ref()
            .ok_or_else(|| "artifact has no adjacency mask (corrupt snapshot)".to_string())?;
        let d = artifact.feature_width();
        let cols = snap.config.slave_cols.as_ref();
        if cols.is_some_and(|cols| cols.iter().any(|&c| c >= d)) {
            return Err("artifact: slave column index out of feature range".to_string());
        }
        let selection = cols.map(|cols| Plane::from_matrix(&slave_selection(cols, d)));
        let weights = Weights::new(
            &snap.config,
            &snap.nt,
            &snap.gat,
            &snap.gen,
            &snap.beta_c,
            selection,
            Plane::from_matrix,
        );
        Ok(Self {
            width: d,
            companies: artifact.num_companies(),
            weights,
            mask: Plane::from_matrix(mask),
        })
    }

    /// Run the forward pass once, on one zero row of a one-node graph,
    /// on `backend`. No weight shape depends on the node count, so every
    /// weight-shape check a request would meet fails here, at load,
    /// instead: the node transform must chain from the feature width,
    /// every GAT layer needs a head with `out×1` attention vectors, the
    /// generator must end at the slave width and `β_c` must have that
    /// length. The check is the forward itself, so it cannot drift from
    /// what a request runs. (The mask's `n×n` shape is checked by
    /// [`ModelArtifact::validate`].)
    pub fn check_shapes(&self, backend: &dyn Backend<E>) -> Result<(), String> {
        let mask = Plane::from_vec(1, 1, vec![E::ONE]);
        let x = Plane::from_vec(1, self.width, vec![E::ZERO; self.width]);
        let ops = &mut WsOps { backend, ws: &mut Workspace::new(), mask: &mask, deadline: None };
        match forward(ops, &self.weights, &x) {
            Ok(_) => Ok(()),
            Err(e) => Err(format!("artifact: layer shapes do not chain: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::trained_fixture;

    #[test]
    fn f64_plan_copies_weights_exactly() {
        let fx = trained_fixture(71);
        let plan: ForwardPlan<f64> = ForwardPlan::from_artifact(&fx.artifact).unwrap();
        let snap = &fx.artifact.snapshot;
        let w = &plan.weights;
        assert_eq!(w.nt.len(), snap.nt.len());
        for (pl, l) in w.nt.iter().zip(&snap.nt) {
            assert_eq!(pl.w.as_slice(), l.w.as_slice());
            assert_eq!(pl.b.as_slice(), l.b.as_slice());
        }
        let bc = &snap.beta_c;
        assert_eq!((w.beta_c.rows(), w.beta_c.cols()), bc.shape());
        for (a, b) in w.beta_c.as_slice().iter().zip(bc.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(w.gamma, snap.config.gamma);
    }

    #[test]
    fn f32_plan_is_nearest_rounding() {
        let fx = trained_fixture(72);
        let p64: ForwardPlan<f64> = ForwardPlan::from_artifact(&fx.artifact).unwrap();
        let p32: ForwardPlan<f32> = ForwardPlan::from_artifact(&fx.artifact).unwrap();
        for (a, b) in p64.weights.nt.iter().zip(&p32.weights.nt) {
            for (x, y) in a.w.as_slice().iter().zip(b.w.as_slice()) {
                assert_eq!((*x as f32).to_bits(), y.to_bits());
            }
        }
    }
}
