//! Property tests for the f32 quantization path (DESIGN.md §14):
//! quantize → predict stays within the documented epsilon of the f64
//! batch path, on randomly perturbed models *and* random inputs — not
//! just the one artifact the unit tests pin.

use ams_serve::demo::train_demo;
use ams_serve::{Engine, ModelArtifact};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One trained fixture shared by every proptest case: training is the
/// expensive part, perturbation is cheap.
fn base_artifact() -> &'static ModelArtifact {
    static FIXTURE: OnceLock<ModelArtifact> = OnceLock::new();
    FIXTURE.get_or_init(|| train_demo(77).artifact)
}

/// The documented f32 serving bound: `rel·|f64| + abs` with
/// `rel = abs = 1e-4`.
fn within_f32_bound(want: f64, got: f64) -> bool {
    (want - got).abs() <= 1e-4 * want.abs() + 1e-4
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random model (weights perturbed multiplicatively) × random
    /// input (reference features rescaled/shifted): the quantized
    /// prediction tracks the f64 prediction within the bound.
    #[test]
    fn quantized_predictions_track_f64_on_random_models(
        w_scale in 0.5f64..1.5,
        x_scale in 0.25f64..2.0,
        x_shift in -0.5f64..0.5,
    ) {
        let mut artifact = base_artifact().clone();
        let snap = &mut artifact.snapshot;
        for layer in snap.nt.iter_mut().chain(snap.gen.iter_mut()) {
            layer.w = layer.w.map(|v| v * w_scale);
        }
        for layer in &mut snap.gat {
            for head in &mut layer.heads {
                head.w = head.w.map(|v| v * w_scale);
            }
        }
        snap.beta_c = snap.beta_c.map(|v| v * w_scale);
        let engine = Engine::new(artifact).expect("perturbed artifact still validates");
        let x = engine.artifact().reference_features.map(|v| v * x_scale + x_shift);
        let want = engine.predict_batch(&x).expect("f64 path");
        let got = engine.predict_batch_f32(&x).expect("f32 path");
        for i in 0..want.rows() {
            prop_assert!(
                within_f32_bound(want[(i, 0)], got[(i, 0)]),
                "row {i}: f64 {} vs f32 {}", want[(i, 0)], got[(i, 0)]
            );
        }
    }
}
