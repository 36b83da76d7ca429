//! A naive oracle for the paper's forward pass.
//!
//! Eqs. 1–3, 6 and 10 written as plain loops over `Matrix` entries,
//! straight from the model description, sharing no code with the
//! `ForwardOps` forward. The tape (`AmsModel::predict`) and the f64
//! workspace engine must match it within 1e-10; the f32 engine within
//! the DESIGN.md §14 bound `1e-4·|pred| + 1e-4`.

use ams_core::{AmsModel, GatHead, ModelSnapshot};
use ams_serve::demo::train_demo;
use ams_serve::Engine;
use ams_tensor::Matrix;

/// `x·W + b`, one output entry at a time, ReLU-activated if `relu`.
fn dense(x: &Matrix, w: &Matrix, b: Option<&Matrix>, relu: bool) -> Matrix {
    let mut out = Matrix::zeros(x.rows(), w.cols());
    for i in 0..x.rows() {
        for j in 0..w.cols() {
            let v = (0..x.cols()).map(|k| x[(i, k)] * w[(k, j)]).sum::<f64>()
                + b.map_or(0.0, |b| b[(0, j)]);
            out[(i, j)] = if relu { v.max(0.0) } else { v };
        }
    }
    out
}

/// One GAT head (Eq. 2): `z = hW`, logits
/// `e_ij = LeakyReLU(a_l·z_i + a_r·z_j)` softmaxed over the neighbours
/// `j` of `i`, output `ReLU(Σ_j α_ij z_j)`. A node without neighbours
/// attends to nothing and outputs zeros.
fn gat_head(h: &Matrix, head: &GatHead, slope: f64, mask: &Matrix) -> Matrix {
    let z = dense(h, &head.w, None, false);
    let (n, k) = z.shape();
    let score = |a: &Matrix, i: usize| (0..k).map(|c| a[(c, 0)] * z[(i, c)]).sum::<f64>();
    let mut out = Matrix::zeros(n, k);
    for i in 0..n {
        let nbrs: Vec<usize> = (0..n).filter(|&j| mask[(i, j)] != 0.0).collect();
        let logits: Vec<f64> = nbrs
            .iter()
            .map(|&j| score(&head.a_left, i) + score(&head.a_right, j))
            .map(|e| if e > 0.0 { e } else { slope * e })
            .collect();
        let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let total: f64 = logits.iter().map(|e| (e - max).exp()).sum();
        for c in 0..k {
            let agg: f64 =
                nbrs.iter().zip(&logits).map(|(&j, e)| (e - max).exp() / total * z[(j, c)]).sum();
            out[(i, c)] = agg.max(0.0);
        }
    }
    out
}

/// The whole forward: predictions and the assembled slave weights β.
fn oracle(s: &ModelSnapshot, x: &Matrix) -> (Matrix, Matrix) {
    let mask = s.mask.as_ref().expect("fitted snapshot");
    // Node transform (Eq. 1).
    let nt_out = s.nt.iter().fold(x.clone(), |h, l| dense(&h, &l.w, Some(&l.b), true));
    // GAT stack (Eqs. 2–3): each layer concatenates its heads.
    let mut h = nt_out.clone();
    for layer in &s.gat {
        let heads: Vec<Matrix> =
            layer.heads.iter().map(|hd| gat_head(&h, hd, layer.leaky_slope, mask)).collect();
        h = heads[1..].iter().fold(heads[0].clone(), |acc, next| acc.hcat(next));
    }
    if s.config.residual {
        h = h.hcat(&nt_out);
    }
    // Slave generation (Eq. 6): hidden ReLU layers, then linear.
    for (i, l) in s.gen.iter().enumerate() {
        h = dense(&h, &l.w, Some(&l.b), i + 1 < s.gen.len());
    }
    // Model assembly (Eq. 10) and the slave LR ÛR_i = Σ_j x̃_ij β_ij.
    let gamma = s.config.gamma;
    let cols: Vec<usize> = s.config.slave_cols.clone().unwrap_or_else(|| (0..x.cols()).collect());
    let mut beta = Matrix::zeros(x.rows(), cols.len());
    let mut pred = Matrix::zeros(x.rows(), 1);
    for i in 0..x.rows() {
        for (j, &c) in cols.iter().enumerate() {
            beta[(i, j)] = gamma * h[(i, j)] + (1.0 - gamma) * s.beta_c[(j, 0)];
            pred[(i, 0)] += x[(i, c)] * beta[(i, j)];
        }
    }
    (pred, beta)
}

fn assert_close(what: &str, want: &Matrix, got: &Matrix, tol: impl Fn(f64) -> f64) {
    assert_eq!(want.shape(), got.shape(), "{what}: shape");
    for (i, (w, g)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
        assert!((w - g).abs() <= tol(*w), "{what}[{i}]: oracle {w} vs {g}");
    }
}

#[test]
fn tape_and_both_engine_paths_match_the_naive_oracle() {
    let bundle = train_demo(21);
    let snap = &bundle.artifact.snapshot;
    let tape = AmsModel::from_snapshot(snap.clone());
    let engine = Engine::new(bundle.artifact.clone()).expect("demo artifact loads");
    let reference = &bundle.artifact.reference_features;
    let inputs = [
        ("reference", reference.clone()),
        ("rescaled", reference.map(|v| v * 1.25 + 0.03)),
        ("shifted", reference.map(|v| 0.5 - 0.75 * v)),
    ];
    for (name, x) in &inputs {
        let (want, want_beta) = oracle(snap, x);
        let exact = |_: f64| 1e-10;
        assert_close(&format!("{name}: tape"), &want, &tape.predict(x), exact);
        assert_close(&format!("{name}: tape β"), &want_beta, &tape.slave_weights(x).0, exact);
        assert_close(
            &format!("{name}: engine f64"),
            &want,
            &engine.predict_batch(x).unwrap(),
            exact,
        );
        let (beta, _) = engine.slave_weights_batch(x).unwrap();
        assert_close(&format!("{name}: engine f64 β"), &want_beta, &beta, exact);
        let f32_bound = |w: f64| 1e-4 * w.abs() + 1e-4;
        let got32 = engine.predict_batch_f32(x).unwrap();
        assert_close(&format!("{name}: engine f32"), &want, &got32, f32_bound);
    }
}
