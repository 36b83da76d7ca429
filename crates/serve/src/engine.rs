//! Tape-free forward-only scoring.
//!
//! Training-side `AmsModel::predict` runs the master→slave forward pass
//! on the autodiff [`ams_tensor::Graph`] — every intermediate is
//! recorded on a tape so gradients *could* be taken, which serving
//! never needs. [`Engine`] runs the *same* forward
//! ([`ams_core::forward()`]) on its value-only workspace implementation
//! ([`WsOps`]): same primitives in the same order, so results are
//! bit-for-bit identical to the tape, with no tape allocation.
//!
//! The engine freezes its weights into a [`ForwardPlan`] per precision
//! at load time — an exact f64 copy (the bit-identical default path)
//! and a quantized f32 copy (the mixed-precision path of DESIGN.md §14,
//! within a documented epsilon of the f64 result).
//!
//! Three paths:
//! * **batch** ([`Engine::predict_batch`]) re-runs the master and the
//!   slave generation for a fresh feature matrix (one row per graph
//!   node) — what a nightly re-score over updated panels uses;
//! * **batch, f32** ([`Engine::predict_batch_f32`]) — the same pass on
//!   the quantized plan and an `f32` backend (typically the vectorized
//!   `SimdSeq`), trading the bit contract for throughput;
//! * **fast** ([`Engine::predict_company`]) scores one company as a
//!   dot product against its materialized slave-LR weights from the
//!   artifact — the low-latency online path. At the artifact's
//!   reference features it agrees with the batch path exactly; for
//!   fresh features it holds the company's β fixed (the master is not
//!   re-run), which is the standard export-the-entity-parameters
//!   serving trade-off.

use crate::artifact::{FallbackModel, ModelArtifact};
use crate::plan::ForwardPlan;
use ams_core::{forward, ExecError, Outputs, Plane, WsOps};
use ams_tensor::runtime::{Backend, Element, Seq, SimdSeq, Workspace};
use ams_tensor::Matrix;
use std::time::Instant;

/// Why a prediction could not be served from the engine. The
/// classification is what the server's degradation ladder keys on: only
/// [`PredictError::Engine`] counts against a model's circuit breaker —
/// a malformed request or an expired deadline says nothing about the
/// model's health.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredictError {
    /// The request itself is malformed (wrong shape, unknown company).
    BadRequest(String),
    /// The per-request deadline expired mid-flight; the forward pass
    /// was abandoned between stages.
    DeadlineExceeded,
    /// The engine failed (corrupt snapshot, non-finite output).
    Engine(String),
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::BadRequest(m) => write!(f, "{m}"),
            PredictError::DeadlineExceeded => write!(f, "deadline exceeded"),
            PredictError::Engine(m) => write!(f, "engine error: {m}"),
        }
    }
}

impl std::error::Error for PredictError {}

impl From<ExecError> for PredictError {
    /// A forward pass stops on an expired deadline or on a shape
    /// mismatch inside a corrupt snapshot — an engine failure.
    fn from(e: ExecError) -> Self {
        match e {
            ExecError::DeadlineExceeded => PredictError::DeadlineExceeded,
            other => PredictError::Engine(other.to_string()),
        }
    }
}

impl PredictError {
    /// Does this failure count against the model's circuit breaker?
    pub fn is_engine_failure(&self) -> bool {
        matches!(self, PredictError::Engine(_))
    }
}

/// A scoring-ready model: a validated artifact plus its weights frozen
/// into both execution precisions. Cheap to clone behind an `Arc`;
/// immutable, so freely shared across server workers.
#[derive(Debug)]
pub struct Engine {
    artifact: ModelArtifact,
    /// Exact copy of the snapshot weights — the bit-identical path.
    plan64: ForwardPlan<f64>,
    /// The weights quantized to f32 once, at load time.
    plan32: ForwardPlan<f32>,
    /// Degraded-mode predictor, always resolved: taken from the
    /// artifact when present, rebuilt from the snapshot otherwise.
    fallback: FallbackModel,
}

impl Engine {
    /// Validate an artifact and prepare it for scoring.
    pub fn new(artifact: ModelArtifact) -> Result<Self, String> {
        artifact.validate()?;
        let plan64 = ForwardPlan::from_artifact(&artifact)?;
        let plan32 = artifact.quantize_f32()?;
        // Both plans carry the snapshot's shapes: one dry run checks
        // them before any request.
        plan64.check_shapes(&Seq)?;
        let placeholder = FallbackModel {
            anchor: artifact
                .snapshot
                .b_acr
                .clone()
                .unwrap_or_else(|| Matrix::zeros(artifact.slave_weights.cols(), 1)),
            last_good: Matrix::zeros(artifact.num_companies(), 1),
        };
        let from_artifact = artifact.fallback.clone();
        let mut engine = Self { artifact, plan64, plan32, fallback: placeholder };
        match from_artifact {
            Some(fb) => engine.fallback = fb,
            None => {
                // Pre-fallback artifact: materialize last-good
                // predictions once, at load time, from the engine's own
                // batch path at the export-time reference features.
                let reference = engine.artifact.reference_features.clone();
                if let Ok(pred) = engine.predict_batch(&reference) {
                    engine.fallback.last_good = pred;
                }
            }
        }
        Ok(engine)
    }

    /// The degraded-mode predictor (never absent; see [`Engine::new`]).
    pub fn fallback(&self) -> &FallbackModel {
        &self.fallback
    }

    /// Score through the fallback ladder. `features` (full-width, may
    /// be `None` or non-finite) is projected to slave space here; the
    /// result is always finite — this path cannot fail.
    pub fn fallback_predict(&self, company: Option<usize>, features: Option<&[f64]>) -> f64 {
        let slave_row: Option<Vec<f64>> = features.and_then(|f| {
            if f.len() != self.feature_width() {
                return None;
            }
            Some(match &self.artifact.snapshot.config.slave_cols {
                Some(cols) => cols.iter().map(|&c| f[c]).collect(),
                None => f.to_vec(),
            })
        });
        self.fallback.predict(company, slave_row.as_deref())
    }

    /// The artifact this engine scores with.
    pub fn artifact(&self) -> &ModelArtifact {
        &self.artifact
    }

    /// Number of companies (graph nodes).
    pub fn num_companies(&self) -> usize {
        self.artifact.num_companies()
    }

    /// Full feature width the model consumes.
    pub fn feature_width(&self) -> usize {
        self.artifact.feature_width()
    }

    /// Fast path: score one company against its materialized slave-LR
    /// weights. `features` is a full-width (standardized) feature row;
    /// the slave-column projection happens here.
    pub fn predict_company(&self, company: usize, features: &[f64]) -> Result<f64, String> {
        let n = self.num_companies();
        if company >= n {
            return Err(format!("company {company} out of range (model has {n})"));
        }
        let d = self.feature_width();
        if features.len() != d {
            return Err(format!("feature width {} != model width {d}", features.len()));
        }
        let beta = self.artifact.slave_weights.row(company);
        let pred = match &self.artifact.snapshot.config.slave_cols {
            // Σ_j x[cols[j]] · β_j in slave-column order — exactly the
            // x·S projection followed by the row-wise dot.
            Some(cols) => cols.iter().zip(beta).map(|(&c, &b)| features[c] * b).sum(),
            None => features.iter().zip(beta).map(|(&x, &b)| x * b).sum(),
        };
        Ok(pred)
    }

    /// [`Engine::predict_company`] with a typed error: shape problems
    /// are the caller's fault, a non-finite result is an engine failure
    /// (finite weights against finite features cannot produce one).
    pub fn predict_company_checked(
        &self,
        company: usize,
        features: &[f64],
    ) -> Result<f64, PredictError> {
        let pred = self.predict_company(company, features).map_err(PredictError::BadRequest)?;
        if !pred.is_finite() {
            return Err(PredictError::Engine(format!(
                "non-finite prediction for company {company}"
            )));
        }
        Ok(pred)
    }

    /// The materialized slave-LR weight row for one company, aligned
    /// with the slave columns.
    pub fn slave_weights_row(&self, company: usize) -> Result<&[f64], String> {
        let n = self.num_companies();
        if company >= n {
            return Err(format!("company {company} out of range (model has {n})"));
        }
        Ok(self.artifact.slave_weights.row(company))
    }

    /// Names of the slave-weight columns (subset of the feature names
    /// when `slave_cols` is configured). Empty when the artifact
    /// carries no names.
    pub fn slave_feature_names(&self) -> Vec<String> {
        let names = &self.artifact.feature_names;
        if names.is_empty() {
            return Vec::new();
        }
        match &self.artifact.snapshot.config.slave_cols {
            Some(cols) => cols.iter().map(|&c| names[c].clone()).collect(),
            None => names.clone(),
        }
    }

    /// Batch path: re-run master→slave generation on a fresh feature
    /// matrix (one row per graph node) and score every company.
    /// Bit-for-bit equal to `AmsModel::predict` on the same input.
    pub fn predict_batch(&self, x: &Matrix) -> Result<Matrix, String> {
        let mut ws = Workspace::new();
        self.predict_batch_with(x, &Seq, &mut ws)
    }

    /// [`Engine::predict_batch`] on an explicit backend and workspace.
    /// Every scratch buffer comes from (and returns to) `ws`, so after
    /// one warm-up call the hot path performs zero heap allocations —
    /// provided the caller recycles the returned prediction with
    /// `ws.give(pred.into_vec())` once it has been serialized, as the
    /// server workers do.
    pub fn predict_batch_with(
        &self,
        x: &Matrix,
        backend: &dyn Backend,
        ws: &mut Workspace,
    ) -> Result<Matrix, String> {
        self.predict_batch_deadline(x, backend, ws, None).map_err(|e| e.to_string())
    }

    /// [`Engine::predict_batch_with`] with a typed error and an
    /// optional per-request deadline. The deadline is checked between
    /// forward-pass stages, so an expired request abandons the
    /// remaining work instead of finishing late; the output is checked
    /// finite, so a corrupt artifact reports an engine failure (which
    /// the server counts against the model's circuit breaker) rather
    /// than serving NaN.
    pub fn predict_batch_deadline(
        &self,
        x: &Matrix,
        backend: &dyn Backend,
        ws: &mut Workspace,
        deadline: Option<Instant>,
    ) -> Result<Matrix, PredictError> {
        let Outputs { pred, beta_v, beta } = score(&self.plan64, x, false, backend, ws, deadline)?;
        ws.give(beta_v.into_vec());
        ws.give(beta.into_vec());
        if pred.as_slice().iter().any(|v| !v.is_finite()) {
            ws.give(pred.into_vec());
            return Err(PredictError::Engine("non-finite prediction".to_string()));
        }
        Ok(pred.into_matrix())
    }

    /// The f32 batch path: narrow the input once, run the forward pass
    /// on the quantized plan with an `f32` backend, widen the
    /// predictions back to f64. Within the epsilon bound of DESIGN.md
    /// §14 of [`Engine::predict_batch`] — not bit-identical.
    ///
    /// Scratch comes from the caller's `f32` arena (`ws32`); the
    /// widened output buffer comes from the f64 arena (`ws`), so both
    /// pools warm up once and the steady-state path is allocation-free.
    /// Non-finite input is rejected up front as a bad request: the
    /// vectorized kernels do not carry the deterministic kernels'
    /// `0·∞` guard, so their contract requires finite features.
    pub fn predict_batch_f32_deadline(
        &self,
        x: &Matrix,
        backend: &dyn Backend<f32>,
        ws32: &mut Workspace<f32>,
        ws: &mut Workspace,
        deadline: Option<Instant>,
    ) -> Result<Matrix, PredictError> {
        let Outputs { pred, beta_v, beta } = score(&self.plan32, x, true, backend, ws32, deadline)?;
        ws32.give(beta_v.into_vec());
        ws32.give(beta.into_vec());
        let mut data = ws.take(pred.rows());
        for (o, &v) in data.iter_mut().zip(pred.as_slice()) {
            *o = v as f64;
        }
        let out = Matrix::from_vec(pred.rows(), 1, data);
        ws32.give(pred.into_vec());
        if out.as_slice().iter().any(|v| !v.is_finite()) {
            ws.give(out.into_vec());
            return Err(PredictError::Engine("non-finite prediction".to_string()));
        }
        Ok(out)
    }

    /// Convenience wrapper over [`Engine::predict_batch_f32_deadline`]
    /// on the vectorized [`SimdSeq`] backend with throwaway arenas.
    pub fn predict_batch_f32(&self, x: &Matrix) -> Result<Matrix, String> {
        let mut ws32 = Workspace::new();
        let mut ws = Workspace::new();
        self.predict_batch_f32_deadline(x, &SimdSeq, &mut ws32, &mut ws, None)
            .map_err(|e| e.to_string())
    }

    /// Batch slave weights `(assembled β, generated β_v)`, both `n×m` —
    /// the serving-side counterpart of `AmsModel::slave_weights`.
    pub fn slave_weights_batch(&self, x: &Matrix) -> Result<(Matrix, Matrix), String> {
        let mut ws = Workspace::new();
        let Outputs { pred, beta_v, beta } =
            score(&self.plan64, x, false, &Seq, &mut ws, None).map_err(|e| e.to_string())?;
        ws.give(pred.into_vec());
        Ok((beta.into_matrix(), beta_v.into_matrix()))
    }
}

/// Run the one forward pass on a frozen plan: check `x` against the
/// model's shape, narrow it into a workspace plane (with
/// `require_finite`, rejecting non-finite features as a bad request —
/// the check rides the copy), and execute value-only on `backend`.
fn score<E: Element>(
    plan: &ForwardPlan<E>,
    x: &Matrix,
    require_finite: bool,
    backend: &dyn Backend<E>,
    ws: &mut Workspace<E>,
    deadline: Option<Instant>,
) -> Result<Outputs<Plane<E>>, PredictError> {
    if x.rows() != plan.companies {
        return Err(PredictError::BadRequest(format!(
            "batch has {} rows but the model graph has {} nodes",
            x.rows(),
            plan.companies
        )));
    }
    if x.cols() != plan.width {
        return Err(PredictError::BadRequest(format!(
            "feature width {} != model width {}",
            x.cols(),
            plan.width
        )));
    }
    let mut data = ws.take(x.len());
    let mut finite = true;
    for (o, &v) in data.iter_mut().zip(x.as_slice()) {
        finite &= v.is_finite();
        *o = E::from_f64(v);
    }
    if require_finite && !finite {
        ws.give(data);
        return Err(PredictError::BadRequest(
            "non-finite features (the f32 path requires finite input)".to_string(),
        ));
    }
    let input = Plane::from_vec(x.rows(), x.cols(), data);
    let out =
        forward(&mut WsOps { backend, ws, mask: &plan.mask, deadline }, &plan.weights, &input);
    ws.give(input.into_vec());
    out.map_err(PredictError::from)
}

/// Convenience: sanity-check an engine against a snapshot's own
/// reference features. Returns the max absolute deviation between the
/// fast path and the batch path — `Ok(0.0)` for a well-formed artifact.
pub fn fast_vs_batch_deviation(engine: &Engine) -> Result<f64, String> {
    let x = &engine.artifact().reference_features;
    let batch = engine.predict_batch(x)?;
    let mut worst = 0.0f64;
    for i in 0..engine.num_companies() {
        let fast = engine.predict_company(i, x.row(i))?;
        worst = worst.max((fast - batch[(i, 0)]).abs());
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::trained_fixture;

    #[test]
    fn batch_path_matches_model_predict_bitwise() {
        let fx = trained_fixture(41);
        let engine = Engine::new(fx.artifact.clone()).unwrap();
        let want = fx.model.predict(&fx.artifact.reference_features);
        let got = engine.predict_batch(&fx.artifact.reference_features).unwrap();
        assert_eq!(want.shape(), got.shape());
        for i in 0..want.rows() {
            assert_eq!(
                want[(i, 0)].to_bits(),
                got[(i, 0)].to_bits(),
                "row {i}: {} vs {}",
                want[(i, 0)],
                got[(i, 0)]
            );
        }
    }

    #[test]
    fn batch_path_matches_on_fresh_features() {
        // Not just the export-time features: any same-shape batch must
        // agree with the tape, to well under the 1e-10 acceptance bound.
        let fx = trained_fixture(42);
        let engine = Engine::new(fx.artifact.clone()).unwrap();
        let fresh = fx.artifact.reference_features.map(|v| v * 1.25 + 0.03);
        let want = fx.model.predict(&fresh);
        let got = engine.predict_batch(&fresh).unwrap();
        for i in 0..want.rows() {
            assert!(
                (want[(i, 0)] - got[(i, 0)]).abs() < 1e-10,
                "row {i}: {} vs {}",
                want[(i, 0)],
                got[(i, 0)]
            );
        }
    }

    #[test]
    fn slave_weights_match_model() {
        let fx = trained_fixture(43);
        let engine = Engine::new(fx.artifact.clone()).unwrap();
        let x = &fx.artifact.reference_features;
        let (want_beta, want_beta_v) = fx.model.slave_weights(x);
        let (got_beta, got_beta_v) = engine.slave_weights_batch(x).unwrap();
        for (a, b) in [(&want_beta, &got_beta), (&want_beta_v, &got_beta_v)] {
            assert_eq!(a.shape(), b.shape());
            for i in 0..a.rows() {
                for j in 0..a.cols() {
                    assert_eq!(a[(i, j)].to_bits(), b[(i, j)].to_bits());
                }
            }
        }
    }

    #[test]
    fn fast_path_equals_batch_at_reference_features() {
        let fx = trained_fixture(44);
        let engine = Engine::new(fx.artifact).unwrap();
        assert_eq!(fast_vs_batch_deviation(&engine).unwrap(), 0.0);
    }

    #[test]
    fn hot_path_is_allocation_free_after_warm_up() {
        // One warm-up call populates the workspace arena; every later
        // request must add zero fresh allocations (the arena counter is
        // the acceptance gauge — it counts in debug and release alike).
        let fx = trained_fixture(46);
        let engine = Engine::new(fx.artifact.clone()).unwrap();
        let x = &fx.artifact.reference_features;
        let mut ws = Workspace::new();
        let warm = engine.predict_batch_with(x, &Seq, &mut ws).unwrap();
        ws.give(warm.into_vec());
        let (allocs_after_warmup, _) = ws.counters();
        for _ in 0..5 {
            let pred = engine.predict_batch_with(x, &Seq, &mut ws).unwrap();
            ws.give(pred.into_vec());
        }
        let (allocs, _) = ws.counters();
        assert_eq!(allocs, allocs_after_warmup, "prediction hot path allocated after warm-up");
    }

    #[test]
    fn f32_hot_path_is_allocation_free_after_warm_up() {
        // The mixed-precision path pools through two arenas (f32
        // scratch, f64 output); both must stop allocating once warm.
        let fx = trained_fixture(46);
        let engine = Engine::new(fx.artifact.clone()).unwrap();
        let x = &fx.artifact.reference_features;
        let mut ws32: Workspace<f32> = Workspace::new();
        let mut ws: Workspace<f64> = Workspace::new();
        let warm =
            engine.predict_batch_f32_deadline(x, &SimdSeq, &mut ws32, &mut ws, None).unwrap();
        ws.give(warm.into_vec());
        let warm32 = ws32.counters().0;
        let warm64 = ws.counters().0;
        for _ in 0..5 {
            let pred =
                engine.predict_batch_f32_deadline(x, &SimdSeq, &mut ws32, &mut ws, None).unwrap();
            ws.give(pred.into_vec());
        }
        assert_eq!(ws32.counters().0, warm32, "f32 arena allocated after warm-up");
        assert_eq!(ws.counters().0, warm64, "f64 arena allocated after warm-up");
    }

    #[test]
    fn f32_path_tracks_f64_within_documented_epsilon() {
        // DESIGN.md §14: the quantized path must stay within
        // rel 1e-4 · |prediction| + abs 1e-4 of the f64 path.
        let fx = trained_fixture(50);
        let engine = Engine::new(fx.artifact.clone()).unwrap();
        let x = &fx.artifact.reference_features;
        let want = engine.predict_batch(x).unwrap();
        let got = engine.predict_batch_f32(x).unwrap();
        assert_eq!(want.shape(), got.shape());
        for i in 0..want.rows() {
            let (w, g) = (want[(i, 0)], got[(i, 0)]);
            let tol = 1e-4 * w.abs() + 1e-4;
            assert!((w - g).abs() <= tol, "row {i}: f64 {w} vs f32 {g} (tol {tol})");
        }
    }

    #[test]
    fn f32_path_rejects_non_finite_input_as_bad_request() {
        let fx = trained_fixture(50);
        let engine = Engine::new(fx.artifact.clone()).unwrap();
        let mut x = fx.artifact.reference_features.clone();
        x[(0, 0)] = f64::NAN;
        let mut ws32: Workspace<f32> = Workspace::new();
        let mut ws: Workspace<f64> = Workspace::new();
        let err =
            engine.predict_batch_f32_deadline(&x, &SimdSeq, &mut ws32, &mut ws, None).unwrap_err();
        assert!(matches!(err, PredictError::BadRequest(_)), "{err}");
        assert!(!err.is_engine_failure());
    }

    #[test]
    fn batch_path_on_par_backend_is_bit_identical() {
        let fx = trained_fixture(47);
        let engine = Engine::new(fx.artifact.clone()).unwrap();
        let x = &fx.artifact.reference_features;
        let want = engine.predict_batch(x).unwrap();
        let par = ams_tensor::runtime::Par::new(4);
        let mut ws = Workspace::new();
        let got = engine.predict_batch_with(x, &par, &mut ws).unwrap();
        for (w, g) in want.as_slice().iter().zip(got.as_slice()) {
            assert_eq!(w.to_bits(), g.to_bits());
        }
    }

    #[test]
    fn fallback_is_rebuilt_for_pre_fallback_artifacts() {
        let fx = trained_fixture(48);
        let with = Engine::new(fx.artifact.clone()).unwrap();
        let mut stripped = fx.artifact.clone();
        stripped.fallback = None;
        let without = Engine::new(stripped).unwrap();
        // Rebuilt last-good predictions equal the exported ones bitwise
        // (both are the batch path at the reference features).
        let (a, b) = (&with.fallback().last_good, &without.fallback().last_good);
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn fallback_predict_is_total() {
        let fx = trained_fixture(48);
        let engine = Engine::new(fx.artifact).unwrap();
        let d = engine.feature_width();
        // Every corner of the ladder yields a finite number.
        assert!(engine.fallback_predict(Some(0), Some(&vec![0.5; d])).is_finite());
        assert!(engine.fallback_predict(Some(0), Some(&vec![f64::NAN; d])).is_finite());
        assert!(engine.fallback_predict(Some(0), Some(&[1.0])).is_finite()); // wrong width
        assert!(engine.fallback_predict(Some(usize::MAX), None).is_finite());
        assert!(engine.fallback_predict(None, None).is_finite());
        // Known company with unusable features serves its last-good.
        let got = engine.fallback_predict(Some(2), Some(&vec![f64::INFINITY; d]));
        assert_eq!(got.to_bits(), engine.fallback().last_good[(2, 0)].to_bits());
    }

    #[test]
    fn expired_deadline_aborts_between_stages() {
        let fx = trained_fixture(49);
        let engine = Engine::new(fx.artifact.clone()).unwrap();
        let x = &fx.artifact.reference_features;
        let mut ws = Workspace::new();
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let err = engine.predict_batch_deadline(x, &Seq, &mut ws, Some(past)).unwrap_err();
        assert_eq!(err, PredictError::DeadlineExceeded);
        assert!(!err.is_engine_failure(), "a slow request is not a sick model");
        // A generous deadline does not disturb the result.
        let far = Instant::now() + std::time::Duration::from_secs(60);
        let want = engine.predict_batch(x).unwrap();
        let got = engine.predict_batch_deadline(x, &Seq, &mut ws, Some(far)).unwrap();
        for (w, g) in want.as_slice().iter().zip(got.as_slice()) {
            assert_eq!(w.to_bits(), g.to_bits());
        }
    }

    #[test]
    fn typed_errors_classify_caller_vs_engine() {
        let fx = trained_fixture(49);
        let engine = Engine::new(fx.artifact).unwrap();
        let d = engine.feature_width();
        let err = engine.predict_company_checked(10_000, &vec![0.0; d]).unwrap_err();
        assert!(matches!(err, PredictError::BadRequest(_)), "{err}");
        let mut ws = Workspace::new();
        let err =
            engine.predict_batch_deadline(&Matrix::zeros(1, d), &Seq, &mut ws, None).unwrap_err();
        assert!(matches!(err, PredictError::BadRequest(_)), "{err}");
        assert!(!err.is_engine_failure());
    }

    #[test]
    fn corrupt_snapshot_is_an_engine_failure() {
        let fx = trained_fixture(49);
        let mut artifact = fx.artifact.clone();
        // Flip a generator weight to NaN: the forward pass completes
        // but produces a non-finite prediction.
        let layer = artifact.snapshot.gen.last_mut().expect("generator layers");
        layer.w[(0, 0)] = f64::NAN;
        let engine = Engine::new(artifact).unwrap();
        let mut ws = Workspace::new();
        let err = engine
            .predict_batch_deadline(&fx.artifact.reference_features, &Seq, &mut ws, None)
            .unwrap_err();
        assert!(err.is_engine_failure(), "{err}");
    }

    #[test]
    fn shape_inconsistent_artifacts_are_refused_at_load() {
        let fx = trained_fixture(77);
        let m = fx.artifact.slave_weights.cols();
        let mut narrowed = fx.artifact.clone();
        let last = narrowed.snapshot.gen.last_mut().expect("generator layers");
        last.w = Matrix::zeros(last.w.rows(), m - 1);
        last.b = Matrix::zeros(1, m - 1);
        let mut headless = fx.artifact.clone();
        headless.snapshot.gat[0].heads.clear();
        let mut short_beta_c = fx.artifact.clone();
        short_beta_c.snapshot.beta_c = Matrix::zeros(m - 1, 1);
        for artifact in [narrowed, headless, short_beta_c] {
            let err = Engine::new(artifact).unwrap_err();
            assert!(err.contains("layer shapes do not chain"), "{err}");
        }
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let fx = trained_fixture(45);
        let engine = Engine::new(fx.artifact).unwrap();
        assert!(engine.predict_company(10_000, &vec![0.0; engine.feature_width()]).is_err());
        assert!(engine.predict_company(0, &[1.0]).is_err());
        assert!(engine.predict_batch(&Matrix::zeros(1, engine.feature_width())).is_err());
        assert!(engine.predict_batch(&Matrix::zeros(engine.num_companies(), 1)).is_err());
        assert!(engine.slave_weights_row(10_000).is_err());
    }
}
