//! Tape-based reverse-mode automatic differentiation.
//!
//! This is the substrate that replaces the paper's PaddlePaddle: a
//! dynamically built computation graph over [`Matrix`] values with
//! explicit vector–Jacobian products for every operation. The graph is
//! rebuilt on every forward pass (define-by-run), which keeps recurrent
//! models (LSTM/GRU over k=4 quarters) and the per-fold AMS training
//! loop straightforward.
//!
//! Typical usage:
//! ```
//! use ams_tensor::{Graph, Matrix};
//! let mut g = Graph::new();
//! let x = g.input(&Matrix::from_rows(&[&[1.0, 2.0]]));
//! let w = g.input(&Matrix::from_rows(&[&[0.5], &[-1.0]]));
//! let y = g.matmul(x, w);
//! let loss = g.sq_frobenius(y);
//! let grads = g.backward(loss);
//! assert_eq!(grads.get(w).rows(), 2);
//! ```

use std::rc::Rc;
use std::sync::Arc;

use ams_runtime::{kernels, Backend, Workspace};

use crate::matrix::Matrix;
use crate::plan::{PlanNode, PlanOp};

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

impl Var {
    /// Raw node index (stable for the life of the graph).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Operations recorded on the tape. Each variant stores the input
/// handles plus whatever constant data its VJP needs.
#[derive(Debug)]
enum Op {
    /// Leaf: an input or parameter.
    Leaf,
    Add(Var, Var),
    Sub(Var, Var),
    /// Element-wise (Hadamard) product.
    Mul(Var, Var),
    /// Element-wise division `a / b`.
    Div(Var, Var),
    MatMul(Var, Var),
    /// `a * x + b` applied element-wise; only the multiplier matters
    /// for the VJP, so it alone is stored.
    Affine(Var, f64),
    Relu(Var),
    LeakyRelu(Var, f64),
    Sigmoid(Var),
    Tanh(Var),
    /// Natural logarithm, element-wise.
    Log(Var),
    /// `max(x, lo)` element-wise — the numerical guard the analyzer
    /// expects in front of `log`/`div` (see `ams-analyze`).
    ClampMin(Var, f64),
    Transpose(Var),
    /// `(n×d) + (1×d)` bias-style broadcast over rows.
    AddRowBroadcast(Var, Var),
    /// `out[i][j] = u[i] + v[j]` from column vectors `u (n×1)`, `v (m×1)`.
    /// This is the pairwise attention-logit construction of GAT.
    OuterSum(Var, Var),
    /// Row-wise softmax restricted to positions where `mask != 0`;
    /// masked positions output exactly 0.
    MaskedSoftmaxRows(Var, Rc<Matrix>),
    /// Horizontal concatenation of equal-row-count inputs.
    ConcatCols(Vec<Var>),
    SumAll(Var),
    MeanAll(Var),
    /// Mean squared error between two same-shape matrices → 1×1.
    Mse(Var, Var),
    /// `out[i] = dot(a.row(i), b.row(i))` → n×1. This evaluates every
    /// slave-LR at once: `ÛR_i = X_iᵀ β_v(X_i)` (Eq. 6).
    RowwiseDot(Var, Var),
    /// Select rows by index (repetition allowed); gradient scatter-adds.
    SelectRows(Var, Vec<usize>),
    /// Element-wise multiply by a fixed (inverted-dropout) mask.
    Dropout(Var, Rc<Matrix>),
    /// Squared Frobenius norm → 1×1 (the `‖·‖²` regularizers of Eq. 11).
    SqFrobenius(Var),
}

struct Node {
    op: Op,
    value: Matrix,
}

/// Leaf gradients produced by [`Graph::backward`], indexed by [`Var`].
///
/// Only leaves (inputs and parameters) keep a gradient: an
/// intermediate node's cotangent goes back to the graph's workspace
/// the moment it has been propagated to the node's inputs. Asking for
/// a non-leaf node's gradient therefore panics instead of answering
/// with a zero that would look like a disconnected variable.
pub struct Gradients<'g> {
    nodes: &'g [Node],
    grads: &'g [Option<Matrix>],
}

impl<'g> Gradients<'g> {
    /// Gradient of the loss w.r.t. the leaf `var`. Zero matrix when
    /// the leaf did not influence the loss.
    ///
    /// # Panics
    /// Panics when `var` is not a leaf.
    pub fn get(&self, var: Var) -> Matrix {
        match self.get_ref(var) {
            Some(g) => g.clone(),
            None => {
                let (r, c) = self.nodes[var.0].value.shape();
                Matrix::zeros(r, c)
            }
        }
    }

    /// Borrowed gradient of the leaf `var`, `None` when it is
    /// disconnected from the loss.
    ///
    /// # Panics
    /// Panics when `var` is not a leaf.
    pub fn get_ref(&self, var: Var) -> Option<&'g Matrix> {
        assert!(
            matches!(self.nodes[var.0].op, Op::Leaf),
            "gradient of node {} requested, but backward keeps leaf gradients only",
            var.0
        );
        self.grads[var.0].as_ref()
    }
}

/// A define-by-run computation tape.
///
/// Heavy forward ops (matmul, masked softmax, row-wise dot) and the
/// matmul backward pass execute on the graph's [`Backend`]. Every
/// buffer the tape records — leaf copies, op outputs and backward
/// cotangents — is drawn from an internal [`Workspace`] and returned
/// to it by [`Graph::reset`], so a tape that is reset between
/// iterations (the training epoch loop) stops allocating once warm.
pub struct Graph {
    nodes: Vec<Node>,
    /// Leaf gradients of the last [`Graph::backward`], slot per node.
    grads: Vec<Option<Matrix>>,
    finite_checks: bool,
    backend: Arc<dyn Backend>,
    ws: Workspace,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

/// A `rows × cols` zero matrix on a workspace buffer.
fn arena_zeros(ws: &mut Workspace, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(rows, cols, ws.take(rows * cols))
}

/// `f` applied to every element of `x`, on a workspace buffer.
fn arena_map(ws: &mut Workspace, x: &Matrix, f: impl Fn(f64) -> f64) -> Matrix {
    let mut out = arena_zeros(ws, x.rows(), x.cols());
    for (o, &v) in out.as_mut_slice().iter_mut().zip(x.as_slice()) {
        *o = f(v);
    }
    out
}

/// `f` applied element-wise to two same-shape matrices, on a
/// workspace buffer.
fn arena_zip(ws: &mut Workspace, a: &Matrix, b: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
    let mut out = arena_map(ws, a, |x| x);
    zip_assign(&mut out, b, f);
    out
}

/// `g[i] = f(g[i], x[i])` over two same-shape matrices, in place.
fn zip_assign(g: &mut Matrix, x: &Matrix, f: impl Fn(f64, f64) -> f64) {
    assert_eq!(g.shape(), x.shape(), "zip_with: shape mismatch {:?} vs {:?}", g.shape(), x.shape());
    for (gi, &xi) in g.as_mut_slice().iter_mut().zip(x.as_slice()) {
        *gi = f(*gi, xi);
    }
}

impl Graph {
    /// Empty graph on the sequential reference backend.
    pub fn new() -> Self {
        Self::with_backend(ams_runtime::seq())
    }

    /// Empty graph executing on `backend`. Every backend produces
    /// bit-identical values (see `ams-runtime`), so this is purely an
    /// execution-policy choice.
    pub fn with_backend(backend: Arc<dyn Backend>) -> Self {
        Self {
            nodes: Vec::new(),
            grads: Vec::new(),
            finite_checks: false,
            backend,
            ws: Workspace::new(),
        }
    }

    /// The graph's execution backend.
    pub fn backend(&self) -> Arc<dyn Backend> {
        Arc::clone(&self.backend)
    }

    /// Clear the tape, returning every node value and every kept leaf
    /// gradient to the internal workspace. A define-by-run training
    /// loop calls this between iterations instead of building a fresh
    /// `Graph`: once one iteration has run, the next records the same
    /// op sequence on recycled buffers, so the workspace's free list
    /// holds at most one iteration's buffers and stops allocating.
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            self.ws.give(node.value.into_vec());
        }
        self.recycle_grads();
    }

    fn recycle_grads(&mut self) {
        for g in self.grads.drain(..).flatten() {
            self.ws.give(g.into_vec());
        }
    }

    /// `(allocs, reuses, pooled)` of the internal workspace: fresh
    /// buffer allocations and free-list reuses since construction, and
    /// the buffers now on the free list. A reset → record → backward
    /// loop is in steady state when an iteration adds nothing to
    /// `allocs` and leaves `pooled` where it was.
    pub fn workspace_counters(&self) -> (usize, usize, usize) {
        let (allocs, reuses) = self.ws.counters();
        (allocs, reuses, self.ws.pooled())
    }

    /// Opt into checking every recorded value for NaN/∞ at record time,
    /// in release builds too. Debug builds always check (the historical
    /// `debug_assert`); enabling this lets a release training run get
    /// NaN provenance — the panic names the op that first produced a
    /// non-finite value — without rebuilding in debug.
    pub fn set_finite_checks(&mut self, enabled: bool) {
        self.finite_checks = enabled;
    }

    /// Whether opt-in finite checks are enabled.
    pub fn finite_checks(&self) -> bool {
        self.finite_checks
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current value of a node.
    pub fn value(&self, var: Var) -> &Matrix {
        &self.nodes[var.0].value
    }

    fn push(&mut self, op: Op, value: Matrix) -> Var {
        if self.finite_checks {
            assert!(value.all_finite(), "non-finite value produced by {op:?}");
        } else {
            debug_assert!(value.all_finite(), "non-finite value produced by {op:?}");
        }
        self.nodes.push(Node { op, value });
        Var(self.nodes.len() - 1)
    }

    /// Record `op`, whose value is `f` applied to every element of `x`.
    fn record_map(&mut self, op: Op, x: Var, f: impl Fn(f64) -> f64) -> Var {
        let v = arena_map(&mut self.ws, &self.nodes[x.0].value, f);
        self.push(op, v)
    }

    /// Record `op`, whose value is `f` applied element-wise to `a` and
    /// `b` (same shapes).
    fn record_zip(&mut self, op: Op, a: Var, b: Var, f: impl Fn(f64, f64) -> f64) -> Var {
        let v = arena_zip(&mut self.ws, &self.nodes[a.0].value, &self.nodes[b.0].value, f);
        self.push(op, v)
    }

    /// Record a 1×1 node holding `v`.
    fn record_scalar(&mut self, op: Op, v: f64) -> Var {
        let mut out = arena_zeros(&mut self.ws, 1, 1);
        out.as_mut_slice()[0] = v;
        self.push(op, out)
    }

    /// Record a leaf holding a copy of `value` (an input or a
    /// parameter snapshot).
    pub fn input(&mut self, value: &Matrix) -> Var {
        let leaf = arena_map(&mut self.ws, value, |v| v);
        self.push(Op::Leaf, leaf)
    }

    /// `a + b` (same shapes).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.record_zip(Op::Add(a, b), a, b, |x, y| x + y)
    }

    /// `a - b` (same shapes).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.record_zip(Op::Sub(a, b), a, b, |x, y| x - y)
    }

    /// Element-wise product (same shapes).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.record_zip(Op::Mul(a, b), a, b, |x, y| x * y)
    }

    /// Element-wise division `a / b` (same shapes). The analyzer's
    /// numerical-risk pass expects the denominator to pass through
    /// [`Graph::clamp_min`] (or a bounded-positive activation) first.
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        self.record_zip(Op::Div(a, b), a, b, |x, y| x / y)
    }

    /// Natural logarithm, element-wise. Inputs must be positive; guard
    /// with [`Graph::clamp_min`] when they are not positive by
    /// construction.
    pub fn log(&mut self, x: Var) -> Var {
        self.record_map(Op::Log(x), x, f64::ln)
    }

    /// `max(x, lo)` element-wise — the clamp that makes `log`/`div`
    /// numerically safe.
    pub fn clamp_min(&mut self, x: Var, lo: f64) -> Var {
        self.record_map(Op::ClampMin(x, lo), x, |e| e.max(lo))
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (m, k) = self.nodes[a.0].value.shape();
        let (k2, n) = self.nodes[b.0].value.shape();
        assert_eq!(k, k2, "matmul: {m}x{k} * {k2}x{n} dimension mismatch");
        let mut out = arena_zeros(&mut self.ws, m, n);
        self.backend.matmul(
            self.nodes[a.0].value.as_slice(),
            self.nodes[b.0].value.as_slice(),
            out.as_mut_slice(),
            m,
            k,
            n,
        );
        self.push(Op::MatMul(a, b), out)
    }

    /// `alpha * x + beta` element-wise.
    pub fn affine(&mut self, x: Var, alpha: f64, beta: f64) -> Var {
        self.record_map(Op::Affine(x, alpha), x, |e| alpha * e + beta)
    }

    /// `x * alpha`.
    pub fn scale(&mut self, x: Var, alpha: f64) -> Var {
        self.affine(x, alpha, 0.0)
    }

    /// Rectified linear unit (the paper's φ for node transform and GAT).
    pub fn relu(&mut self, x: Var) -> Var {
        self.record_map(Op::Relu(x), x, |e| e.max(0.0))
    }

    /// Leaky ReLU with slope `alpha` on the negative side (used inside
    /// the GAT attention mechanism, following Veličković et al.).
    pub fn leaky_relu(&mut self, x: Var, alpha: f64) -> Var {
        self.record_map(Op::LeakyRelu(x, alpha), x, |e| if e > 0.0 { e } else { alpha * e })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        self.record_map(Op::Sigmoid(x), x, |e| 1.0 / (1.0 + (-e).exp()))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: Var) -> Var {
        self.record_map(Op::Tanh(x), x, f64::tanh)
    }

    /// Transpose.
    pub fn transpose(&mut self, x: Var) -> Var {
        let src = &self.nodes[x.0].value;
        let mut out = arena_zeros(&mut self.ws, src.cols(), src.rows());
        for r in 0..src.rows() {
            for c in 0..src.cols() {
                out[(c, r)] = src[(r, c)];
            }
        }
        self.push(Op::Transpose(x), out)
    }

    /// `(n×d) + (1×d)` broadcast, the standard bias add.
    pub fn add_row_broadcast(&mut self, x: Var, bias: Var) -> Var {
        let (rows, cols) = self.nodes[x.0].value.shape();
        let bshape = self.nodes[bias.0].value.shape();
        assert_eq!(bshape.0, 1, "add_row_broadcast: bias must be a row vector");
        assert_eq!(bshape.1, cols, "add_row_broadcast: width mismatch");
        let mut out = arena_zeros(&mut self.ws, rows, cols);
        out.as_mut_slice().copy_from_slice(self.nodes[x.0].value.as_slice());
        kernels::add_bias_rows(out.as_mut_slice(), self.nodes[bias.0].value.as_slice(), rows, cols);
        self.push(Op::AddRowBroadcast(x, bias), out)
    }

    /// `out[i][j] = u[i] + v[j]` from column vectors.
    pub fn outer_sum(&mut self, u: Var, v: Var) -> Var {
        let uv = &self.nodes[u.0].value;
        let vv = &self.nodes[v.0].value;
        assert_eq!(uv.cols(), 1, "outer_sum: u must be a column vector");
        assert_eq!(vv.cols(), 1, "outer_sum: v must be a column vector");
        let mut out = arena_zeros(&mut self.ws, uv.rows(), vv.rows());
        for i in 0..uv.rows() {
            for j in 0..vv.rows() {
                out[(i, j)] = uv[(i, 0)] + vv[(j, 0)];
            }
        }
        self.push(Op::OuterSum(u, v), out)
    }

    /// Row-wise softmax over the positions where `mask != 0`; masked
    /// positions are exactly zero in the output. A row whose mask is all
    /// zero stays all zero (an isolated graph node attends to nothing).
    /// The tape shares `mask` rather than copying it.
    pub fn masked_softmax_rows(&mut self, x: Var, mask: &Rc<Matrix>) -> Var {
        let (rows, cols) = self.nodes[x.0].value.shape();
        assert_eq!((rows, cols), mask.shape(), "masked_softmax_rows: mask shape mismatch");
        let mut out = arena_zeros(&mut self.ws, rows, cols);
        self.backend.masked_softmax_rows(
            self.nodes[x.0].value.as_slice(),
            mask.as_slice(),
            out.as_mut_slice(),
            rows,
            cols,
        );
        self.push(Op::MaskedSoftmaxRows(x, Rc::clone(mask)), out)
    }

    /// Horizontal concatenation (multi-head attention outputs, Eq. 3).
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols: empty input list");
        let rows = self.nodes[parts[0].0].value.rows();
        let cols: usize = parts.iter().map(|p| self.nodes[p.0].value.cols()).sum();
        let mut out = arena_zeros(&mut self.ws, rows, cols);
        let mut offset = 0;
        for p in parts {
            let part = &self.nodes[p.0].value;
            assert_eq!(part.rows(), rows, "hcat: row mismatch");
            for (r, dst) in out.as_mut_slice().chunks_exact_mut(cols.max(1)).enumerate() {
                dst[offset..offset + part.cols()].copy_from_slice(part.row(r));
            }
            offset += part.cols();
        }
        self.push(Op::ConcatCols(parts.to_vec()), out)
    }

    /// Sum of all elements → 1×1.
    pub fn sum_all(&mut self, x: Var) -> Var {
        let v = self.value(x).sum();
        self.record_scalar(Op::SumAll(x), v)
    }

    /// Mean of all elements → 1×1.
    pub fn mean_all(&mut self, x: Var) -> Var {
        let v = self.value(x).sum() / self.value(x).len() as f64;
        self.record_scalar(Op::MeanAll(x), v)
    }

    /// Mean squared error between same-shape matrices → 1×1.
    pub fn mse(&mut self, pred: Var, target: Var) -> Var {
        let p = self.value(pred);
        let t = self.value(target);
        assert_eq!(p.shape(), t.shape(), "mse: shape mismatch");
        let sq: f64 = p
            .as_slice()
            .iter()
            .zip(t.as_slice())
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum();
        let v = sq / p.len() as f64;
        self.record_scalar(Op::Mse(pred, target), v)
    }

    /// Row-wise dot product of two `n×d` matrices → `n×1`.
    pub fn rowwise_dot(&mut self, a: Var, b: Var) -> Var {
        let (rows, cols) = self.nodes[a.0].value.shape();
        assert_eq!((rows, cols), self.nodes[b.0].value.shape(), "rowwise_dot: shape mismatch");
        let mut out = arena_zeros(&mut self.ws, rows, 1);
        self.backend.rowwise_dot(
            self.nodes[a.0].value.as_slice(),
            self.nodes[b.0].value.as_slice(),
            out.as_mut_slice(),
            rows,
            cols,
        );
        self.push(Op::RowwiseDot(a, b), out)
    }

    /// Select rows by index (repetition allowed).
    pub fn select_rows(&mut self, x: Var, ids: &[usize]) -> Var {
        let src = &self.nodes[x.0].value;
        let mut out = arena_zeros(&mut self.ws, ids.len(), src.cols());
        for (r, &id) in ids.iter().enumerate() {
            out.row_mut(r).copy_from_slice(src.row(id));
        }
        self.push(Op::SelectRows(x, ids.to_vec()), out)
    }

    /// Multiply by a fixed mask. Callers pass an inverted-dropout mask
    /// (entries `0` or `1/keep_prob`), built by
    /// [`crate::init::dropout_mask`]; the tape shares it rather than
    /// copying it.
    pub fn dropout(&mut self, x: Var, mask: &Rc<Matrix>) -> Var {
        let v = arena_zip(&mut self.ws, &self.nodes[x.0].value, mask, |a, m| a * m);
        self.push(Op::Dropout(x, Rc::clone(mask)), v)
    }

    /// Squared Frobenius norm → 1×1.
    pub fn sq_frobenius(&mut self, x: Var) -> Var {
        let v = self.value(x).sq_frobenius();
        self.record_scalar(Op::SqFrobenius(x), v)
    }

    /// Reverse-mode sweep from `output` (which is seeded with an
    /// all-ones cotangent, so for the usual 1×1 loss the result is the
    /// plain gradient).
    ///
    /// Cotangent buffers come from the graph's workspace. A non-leaf
    /// node's cotangent is handed on to one of its inputs or returned
    /// to the workspace as soon as the node's VJP has run; leaf
    /// gradients are kept on the graph until the next `backward` or
    /// [`Graph::reset`], which is why the result borrows the graph.
    pub fn backward(&mut self, output: Var) -> Gradients<'_> {
        self.recycle_grads();
        self.grads.resize_with(self.nodes.len(), || None);
        let (rows, cols) = self.nodes[output.0].value.shape();
        let mut seed = arena_zeros(&mut self.ws, rows, cols);
        seed.as_mut_slice().fill(1.0);
        self.grads[output.0] = Some(seed);

        let mut sweep = Sweep {
            nodes: &self.nodes,
            grads: &mut self.grads,
            ws: &mut self.ws,
            backend: self.backend.as_ref(),
        };
        for idx in (0..=output.0).rev() {
            if let Some(g) = sweep.grads[idx].take() {
                sweep.vjp(idx, g);
            }
        }
        Gradients { nodes: &self.nodes, grads: &self.grads }
    }

    /// Data-free description of node `idx` for [`Graph::plan`]
    /// (defined here because [`Op`] is private to this module).
    pub(crate) fn plan_node(&self, idx: usize) -> PlanNode {
        let node = &self.nodes[idx];
        let op = match &node.op {
            Op::Leaf => PlanOp::Leaf,
            Op::Add(a, b) => PlanOp::Add(a.0, b.0),
            Op::Sub(a, b) => PlanOp::Sub(a.0, b.0),
            Op::Mul(a, b) => PlanOp::Mul(a.0, b.0),
            Op::Div(a, b) => PlanOp::Div(a.0, b.0),
            Op::MatMul(a, b) => PlanOp::MatMul(a.0, b.0),
            Op::Affine(a, alpha) => PlanOp::Affine(a.0, *alpha),
            Op::Relu(a) => PlanOp::Relu(a.0),
            Op::LeakyRelu(a, alpha) => PlanOp::LeakyRelu(a.0, *alpha),
            Op::Sigmoid(a) => PlanOp::Sigmoid(a.0),
            Op::Tanh(a) => PlanOp::Tanh(a.0),
            Op::Log(a) => PlanOp::Log(a.0),
            Op::ClampMin(a, lo) => PlanOp::ClampMin(a.0, *lo),
            Op::Transpose(a) => PlanOp::Transpose(a.0),
            Op::AddRowBroadcast(a, b) => PlanOp::AddRowBroadcast(a.0, b.0),
            Op::OuterSum(a, b) => PlanOp::OuterSum(a.0, b.0),
            Op::MaskedSoftmaxRows(a, mask) => {
                let fully_masked_rows =
                    (0..mask.rows()).filter(|&r| mask.row(r).iter().all(|&m| m == 0.0)).count();
                PlanOp::MaskedSoftmaxRows { x: a.0, mask_shape: mask.shape(), fully_masked_rows }
            }
            Op::ConcatCols(parts) => PlanOp::ConcatCols(parts.iter().map(|v| v.0).collect()),
            Op::SumAll(a) => PlanOp::SumAll(a.0),
            Op::MeanAll(a) => PlanOp::MeanAll(a.0),
            Op::Mse(a, b) => PlanOp::Mse(a.0, b.0),
            Op::RowwiseDot(a, b) => PlanOp::RowwiseDot(a.0, b.0),
            Op::SelectRows(a, ids) => {
                PlanOp::SelectRows { x: a.0, n_ids: ids.len(), max_id: ids.iter().copied().max() }
            }
            Op::Dropout(a, mask) => PlanOp::Dropout(a.0, mask.shape()),
            Op::SqFrobenius(a) => PlanOp::SqFrobenius(a.0),
        };
        PlanNode { op, shape: Some(node.value.shape()), finite: node.value.all_finite() }
    }
}

/// State of one [`Graph::backward`] sweep: the tape (read-only), the
/// gradient slots and the workspace the cotangents are drawn from.
struct Sweep<'a> {
    nodes: &'a [Node],
    grads: &'a mut [Option<Matrix>],
    ws: &'a mut Workspace,
    backend: &'a dyn Backend,
}

impl Sweep<'_> {
    /// Add `g` into `var`'s gradient slot (or fill the empty slot with
    /// it); an added-in buffer goes back to the workspace.
    fn accumulate(&mut self, var: Var, g: Matrix) {
        debug_assert_eq!(
            g.shape(),
            self.nodes[var.0].value.shape(),
            "gradient shape mismatch for node {}",
            var.0
        );
        match &mut self.grads[var.0] {
            Some(existing) => {
                existing.add_scaled_assign(&g, 1.0);
                self.ws.give(g.into_vec());
            }
            slot @ None => *slot = Some(g),
        }
    }

    /// Return a spent cotangent to the workspace.
    fn recycle(&mut self, g: Matrix) {
        self.ws.give(g.into_vec());
    }

    /// Propagate node `idx`'s cotangent `g` to its inputs. A leaf
    /// keeps `g`; any other node hands it on or recycles it.
    fn vjp(&mut self, idx: usize, mut g: Matrix) {
        let nodes = self.nodes;
        let value = |v: Var| &nodes[v.0].value;
        let y = &nodes[idx].value;
        match &nodes[idx].op {
            Op::Leaf => self.grads[idx] = Some(g),
            Op::Add(a, b) => {
                let ga = arena_map(self.ws, &g, |gi| gi);
                self.accumulate(*a, ga);
                self.accumulate(*b, g);
            }
            Op::Sub(a, b) => {
                let gb = arena_map(self.ws, &g, |gi| -gi);
                self.accumulate(*a, g);
                self.accumulate(*b, gb);
            }
            Op::Mul(a, b) => {
                let gb = arena_zip(self.ws, &g, value(*a), |gi, ai| gi * ai);
                zip_assign(&mut g, value(*b), |gi, bi| gi * bi);
                self.accumulate(*a, g);
                self.accumulate(*b, gb);
            }
            Op::Div(a, b) => {
                // d/db (a/b) = -a/b² = -y/b.
                let mut gb = arena_zip(self.ws, &g, y, |gi, yi| gi * yi);
                zip_assign(&mut gb, value(*b), |gy, bi| -gy / bi);
                zip_assign(&mut g, value(*b), |gi, bi| gi / bi);
                self.accumulate(*a, g);
                self.accumulate(*b, gb);
            }
            Op::Log(a) => {
                zip_assign(&mut g, value(*a), |gi, xi| gi / xi);
                self.accumulate(*a, g);
            }
            Op::ClampMin(a, lo) => {
                zip_assign(&mut g, value(*a), |gi, xi| if xi > *lo { gi } else { 0.0 });
                self.accumulate(*a, g);
            }
            Op::MatMul(a, b) => {
                // Fused transpose products: B (k×n, row-major) is
                // already the packed layout the transposed-B kernel
                // wants for ga = g·Bᵀ, and gb = Aᵀ·g reads A columns
                // directly — no transpose is materialized, and both
                // keep the historical accumulation order bit-for-bit.
                let (m, n) = g.shape();
                let k = value(*a).cols();
                let mut ga = arena_zeros(self.ws, m, k);
                self.backend.matmul_transb(
                    g.as_slice(),
                    value(*b).as_slice(),
                    ga.as_mut_slice(),
                    m,
                    n,
                    k,
                );
                let mut gb = arena_zeros(self.ws, k, n);
                self.backend.matmul_transa(
                    value(*a).as_slice(),
                    g.as_slice(),
                    gb.as_mut_slice(),
                    m,
                    k,
                    n,
                );
                self.recycle(g);
                self.accumulate(*a, ga);
                self.accumulate(*b, gb);
            }
            Op::Affine(a, alpha) => {
                g.as_mut_slice().iter_mut().for_each(|gi| *gi *= alpha);
                self.accumulate(*a, g);
            }
            Op::Relu(a) => {
                zip_assign(&mut g, value(*a), |gi, xi| if xi > 0.0 { gi } else { 0.0 });
                self.accumulate(*a, g);
            }
            Op::LeakyRelu(a, alpha) => {
                zip_assign(&mut g, value(*a), |gi, xi| if xi > 0.0 { gi } else { alpha * gi });
                self.accumulate(*a, g);
            }
            Op::Sigmoid(a) => {
                zip_assign(&mut g, y, |gi, yi| gi * yi * (1.0 - yi));
                self.accumulate(*a, g);
            }
            Op::Tanh(a) => {
                zip_assign(&mut g, y, |gi, yi| gi * (1.0 - yi * yi));
                self.accumulate(*a, g);
            }
            Op::Transpose(a) => {
                let mut gt = arena_zeros(self.ws, g.cols(), g.rows());
                for r in 0..g.rows() {
                    for c in 0..g.cols() {
                        gt[(c, r)] = g[(r, c)];
                    }
                }
                self.recycle(g);
                self.accumulate(*a, gt);
            }
            Op::AddRowBroadcast(x, bias) => {
                // d/dbias: column sums of g into a 1×d row.
                let mut gb = arena_zeros(self.ws, 1, g.cols());
                for r in 0..g.rows() {
                    for c in 0..g.cols() {
                        gb[(0, c)] += g[(r, c)];
                    }
                }
                self.accumulate(*x, g);
                self.accumulate(*bias, gb);
            }
            Op::OuterSum(u, v) => {
                let mut gu = arena_zeros(self.ws, g.rows(), 1);
                let mut gv = arena_zeros(self.ws, g.cols(), 1);
                for i in 0..g.rows() {
                    for j in 0..g.cols() {
                        gu[(i, 0)] += g[(i, j)];
                        gv[(j, 0)] += g[(i, j)];
                    }
                }
                self.recycle(g);
                self.accumulate(*u, gu);
                self.accumulate(*v, gv);
            }
            Op::MaskedSoftmaxRows(x, mask) => {
                // Per row: gx = y ⊙ (g − Σ_k g_k y_k). Masked entries
                // have y = 0, so they receive zero gradient.
                for r in 0..y.rows() {
                    let dot: f64 = (0..y.cols()).map(|c| g[(r, c)] * y[(r, c)]).sum();
                    for c in 0..y.cols() {
                        g[(r, c)] =
                            if mask[(r, c)] != 0.0 { y[(r, c)] * (g[(r, c)] - dot) } else { 0.0 };
                    }
                }
                self.accumulate(*x, g);
            }
            Op::ConcatCols(parts) => {
                let mut offset = 0;
                for &p in parts {
                    let w = value(p).cols();
                    let mut gp = arena_zeros(self.ws, g.rows(), w);
                    for r in 0..g.rows() {
                        gp.row_mut(r).copy_from_slice(&g.row(r)[offset..offset + w]);
                    }
                    offset += w;
                    self.accumulate(p, gp);
                }
                self.recycle(g);
            }
            Op::SumAll(a) => {
                let mut gx = arena_zeros(self.ws, value(*a).rows(), value(*a).cols());
                gx.as_mut_slice().fill(g.item());
                self.recycle(g);
                self.accumulate(*a, gx);
            }
            Op::MeanAll(a) => {
                let (rows, cols) = value(*a).shape();
                let n = (rows * cols) as f64;
                let mut gx = arena_zeros(self.ws, rows, cols);
                gx.as_mut_slice().fill(g.item() / n);
                self.recycle(g);
                self.accumulate(*a, gx);
            }
            Op::Mse(pred, target) => {
                let (p, t) = (value(*pred), value(*target));
                let s = 2.0 * g.item() / p.len() as f64;
                let gp = arena_zip(self.ws, p, t, |pi, ti| (pi - ti) * s);
                let gt = arena_map(self.ws, &gp, |gi| -gi);
                self.recycle(g);
                self.accumulate(*pred, gp);
                self.accumulate(*target, gt);
            }
            Op::RowwiseDot(a, b) => {
                let (av, bv) = (value(*a), value(*b));
                let mut ga = arena_zeros(self.ws, av.rows(), av.cols());
                let mut gb = arena_zeros(self.ws, av.rows(), av.cols());
                for r in 0..av.rows() {
                    let gr = g[(r, 0)];
                    for c in 0..av.cols() {
                        ga[(r, c)] = gr * bv[(r, c)];
                        gb[(r, c)] = gr * av[(r, c)];
                    }
                }
                self.recycle(g);
                self.accumulate(*a, ga);
                self.accumulate(*b, gb);
            }
            Op::SelectRows(x, ids) => {
                let (rows, cols) = value(*x).shape();
                let mut gx = arena_zeros(self.ws, rows, cols);
                for (r, &id) in ids.iter().enumerate() {
                    for c in 0..cols {
                        gx[(id, c)] += g[(r, c)];
                    }
                }
                self.recycle(g);
                self.accumulate(*x, gx);
            }
            Op::Dropout(x, mask) => {
                zip_assign(&mut g, mask, |gi, mi| gi * mi);
                self.accumulate(*x, g);
            }
            Op::SqFrobenius(x) => {
                let s = 2.0 * g.item();
                let gx = arena_map(self.ws, value(*x), |xi| xi * s);
                self.recycle(g);
                self.accumulate(*x, gx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_grads_flow_to_both() {
        let mut g = Graph::new();
        let a = g.input(&Matrix::scalar(2.0));
        let b = g.input(&Matrix::scalar(3.0));
        let s = g.add(a, b);
        let grads = g.backward(s);
        assert_eq!(grads.get(a).item(), 1.0);
        assert_eq!(grads.get(b).item(), 1.0);
    }

    #[test]
    fn matmul_grad_matches_closed_form() {
        // loss = sum(A B); dA = ones @ B^T, dB = A^T @ ones.
        let mut g = Graph::new();
        let a = g.input(&Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = g.input(&Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]));
        let c = g.matmul(a, b);
        let loss = g.sum_all(c);
        let expected_da = Matrix::ones(2, 2).matmul(&g.value(b).t());
        let expected_db = g.value(a).t().matmul(&Matrix::ones(2, 2));
        let grads = g.backward(loss);
        assert!(grads.get(a).max_abs_diff(&expected_da) < 1e-12);
        assert!(grads.get(b).max_abs_diff(&expected_db) < 1e-12);
    }

    #[test]
    fn relu_gates_gradient() {
        let mut g = Graph::new();
        let x = g.input(&Matrix::from_rows(&[&[-1.0, 2.0]]));
        let y = g.relu(x);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert_eq!(grads.get(x).as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn sigmoid_grad_at_zero_is_quarter() {
        let mut g = Graph::new();
        let x = g.input(&Matrix::scalar(0.0));
        let y = g.sigmoid(x);
        let grads = g.backward(y);
        assert!((grads.get(x).item() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn reuse_of_node_accumulates() {
        // loss = x * x (Hadamard with itself); d/dx = 2x.
        let mut g = Graph::new();
        let x = g.input(&Matrix::scalar(3.0));
        let y = g.mul(x, x);
        let grads = g.backward(y);
        assert!((grads.get(x).item() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn mse_gradient() {
        let mut g = Graph::new();
        let p = g.input(&Matrix::from_rows(&[&[1.0], &[3.0]]));
        let t = g.input(&Matrix::from_rows(&[&[0.0], &[0.0]]));
        let l = g.mse(p, t);
        assert!((g.value(l).item() - 5.0).abs() < 1e-12);
        let grads = g.backward(l);
        // d/dp = 2(p - t)/n = [1, 3].
        assert!(grads.get(p).max_abs_diff(&Matrix::from_rows(&[&[1.0], &[3.0]])) < 1e-12);
    }

    #[test]
    fn masked_softmax_rows_behaviour() {
        let mut g = Graph::new();
        let x = g.input(&Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, 0.0, 0.0]]));
        let mask = Rc::new(Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 0.0, 0.0]]));
        let y = g.masked_softmax_rows(x, &mask);
        let yv = g.value(y);
        // Row 0: softmax over logits 1 and 3, middle masked to zero.
        assert_eq!(yv[(0, 1)], 0.0);
        assert!((yv[(0, 0)] + yv[(0, 2)] - 1.0).abs() < 1e-12);
        assert!(yv[(0, 2)] > yv[(0, 0)]);
        // Row 1: fully masked stays zero.
        assert_eq!(yv.row(1), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn select_rows_scatter_adds() {
        let mut g = Graph::new();
        let x = g.input(&Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]));
        let s = g.select_rows(x, &[1, 1, 2]);
        let loss = g.sum_all(s);
        let grads = g.backward(loss);
        // Row 1 selected twice → gradient 2; row 0 unselected → 0.
        assert_eq!(grads.get(x).as_slice(), &[0.0, 2.0, 1.0]);
    }

    #[test]
    fn rowwise_dot_value_and_grad() {
        let mut g = Graph::new();
        let a = g.input(&Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = g.input(&Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]));
        let d = g.rowwise_dot(a, b);
        assert_eq!(g.value(d).as_slice(), &[17.0, 53.0]);
        let loss = g.sum_all(d);
        let (av, bv) = (g.value(a).clone(), g.value(b).clone());
        let grads = g.backward(loss);
        assert!(grads.get(a).max_abs_diff(&bv) < 1e-12);
        assert!(grads.get(b).max_abs_diff(&av) < 1e-12);
    }

    #[test]
    fn outer_sum_value_and_grad() {
        let mut g = Graph::new();
        let u = g.input(&Matrix::col_vector(&[1.0, 2.0]));
        let v = g.input(&Matrix::col_vector(&[10.0, 20.0, 30.0]));
        let e = g.outer_sum(u, v);
        assert_eq!(g.value(e).shape(), (2, 3));
        assert_eq!(g.value(e)[(1, 2)], 32.0);
        let loss = g.sum_all(e);
        let grads = g.backward(loss);
        assert_eq!(grads.get(u).as_slice(), &[3.0, 3.0]); // summed over 3 cols
        assert_eq!(grads.get(v).as_slice(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn concat_cols_splits_gradient() {
        let mut g = Graph::new();
        let a = g.input(&Matrix::from_rows(&[&[1.0], &[2.0]]));
        let b = g.input(&Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]));
        let c = g.concat_cols(&[a, b]);
        assert_eq!(g.value(c).shape(), (2, 3));
        let scaled = g.scale(c, 2.0);
        let loss = g.sum_all(scaled);
        let grads = g.backward(loss);
        assert_eq!(grads.get(a).as_slice(), &[2.0, 2.0]);
        assert_eq!(grads.get(b).as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn disconnected_var_gets_zero_grad() {
        let mut g = Graph::new();
        let x = g.input(&Matrix::scalar(1.0));
        let y = g.input(&Matrix::scalar(2.0));
        let loss = g.sq_frobenius(x);
        let grads = g.backward(loss);
        assert_eq!(grads.get(y).item(), 0.0);
        assert!(grads.get_ref(y).is_none());
    }

    #[test]
    fn sq_frobenius_grad_is_2x() {
        let mut g = Graph::new();
        let x = g.input(&Matrix::from_rows(&[&[1.0, -2.0]]));
        let l = g.sq_frobenius(x);
        assert_eq!(g.value(l).item(), 5.0);
        let grads = g.backward(l);
        assert_eq!(grads.get(x).as_slice(), &[2.0, -4.0]);
    }

    #[test]
    fn dropout_mask_scales_grad() {
        let mut g = Graph::new();
        let x = g.input(&Matrix::from_rows(&[&[1.0, 1.0]]));
        let mask = Rc::new(Matrix::from_rows(&[&[0.0, 2.0]]));
        let y = g.dropout(x, &mask);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert_eq!(grads.get(x).as_slice(), &[0.0, 2.0]);
    }

    #[test]
    fn transpose_grad() {
        let mut g = Graph::new();
        let x = g.input(&Matrix::from_rows(&[&[1.0, 2.0, 3.0]]));
        let xt = g.transpose(x);
        assert_eq!(g.value(xt).shape(), (3, 1));
        let w = g.input(&Matrix::from_rows(&[&[1.0, 0.0, 0.0]]));
        let y = g.matmul(w, xt);
        let grads = g.backward(y);
        assert_eq!(grads.get(x).as_slice(), &[1.0, 0.0, 0.0]);
    }

    #[test]
    fn div_value_and_grad() {
        let mut g = Graph::new();
        let a = g.input(&Matrix::from_rows(&[&[6.0, 1.0]]));
        let b = g.input(&Matrix::from_rows(&[&[2.0, 4.0]]));
        let q = g.div(a, b);
        assert_eq!(g.value(q).as_slice(), &[3.0, 0.25]);
        let loss = g.sum_all(q);
        let grads = g.backward(loss);
        // d/da = 1/b; d/db = -a/b².
        assert!(grads.get(a).max_abs_diff(&Matrix::from_rows(&[&[0.5, 0.25]])) < 1e-12);
        assert!(grads.get(b).max_abs_diff(&Matrix::from_rows(&[&[-1.5, -0.0625]])) < 1e-12);
    }

    #[test]
    fn log_grad_is_reciprocal() {
        let mut g = Graph::new();
        let x = g.input(&Matrix::from_rows(&[&[1.0, 4.0]]));
        let y = g.log(x);
        assert!((g.value(y)[(0, 1)] - 4.0f64.ln()).abs() < 1e-12);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert!(grads.get(x).max_abs_diff(&Matrix::from_rows(&[&[1.0, 0.25]])) < 1e-12);
    }

    #[test]
    fn clamp_min_gates_gradient_like_relu() {
        let mut g = Graph::new();
        let x = g.input(&Matrix::from_rows(&[&[0.5, 2.0]]));
        let y = g.clamp_min(x, 1.0);
        assert_eq!(g.value(y).as_slice(), &[1.0, 2.0]);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert_eq!(grads.get(x).as_slice(), &[0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "non-finite value")]
    fn finite_checks_catch_nan_at_the_producing_op() {
        // `log` of a negative number is NaN; with runtime finite checks
        // enabled the panic names the op, giving NaN provenance even in
        // release builds.
        let mut g = Graph::new();
        g.set_finite_checks(true);
        let x = g.input(&Matrix::from_rows(&[&[-1.0]]));
        let _ = g.log(x);
    }

    /// Record a loss that runs through every [`Op`] variant, then its
    /// backward pass; returns the leaf-gradient sum so the caller reads
    /// gradients the way a training loop does.
    fn every_op_step(g: &mut Graph, mask: &Rc<Matrix>, keep: &Rc<Matrix>) -> f64 {
        let x = g.input(&Matrix::from_rows(&[&[0.5, -1.0, 2.0, 0.1], &[1.5, 0.3, -0.7, 0.2]]));
        let w =
            g.input(&Matrix::from_rows(&[&[0.2, -0.4], &[0.7, 0.1], &[-0.3, 0.5], &[0.9, 0.8]]));
        let bias = g.input(&Matrix::from_rows(&[&[0.05, -0.02]]));
        let col = g.input(&Matrix::col_vector(&[0.6, -0.9]));
        let target = g.input(&Matrix::from_rows(&[&[0.1, 0.2], &[0.3, 0.4], &[0.5, 0.6]]));
        let xw = g.matmul(x, w);
        let z = g.add_row_broadcast(xw, bias);
        let pos = g.clamp_min(z, 0.5);
        let mut parts = vec![
            g.add(z, pos),
            g.sub(z, pos),
            g.mul(z, pos),
            g.div(z, pos),
            g.affine(z, 2.0, 1.0),
            g.relu(z),
            g.leaky_relu(z, 0.2),
            g.sigmoid(z),
            g.tanh(z),
            g.log(pos),
            g.dropout(z, keep),
        ];
        let zt = g.transpose(z);
        parts.push(g.transpose(zt));
        let mut terms: Vec<Var> = parts.iter().map(|&p| g.sum_all(p)).collect();
        let u = g.matmul(z, col);
        let logits = g.outer_sum(u, u);
        let attn = g.masked_softmax_rows(logits, mask);
        terms.push(g.mean_all(attn));
        let wide = g.concat_cols(&[z, pos]);
        let dots = g.rowwise_dot(wide, x);
        terms.push(g.sq_frobenius(dots));
        let picked = g.select_rows(z, &[0, 1, 1]);
        terms.push(g.mse(picked, target));
        let loss = terms.into_iter().reduce(|acc, t| g.add(acc, t)).expect("terms");
        let grads = g.backward(loss);
        [x, w, bias, col, target].iter().map(|&v| grads.get(v).sum()).sum()
    }

    #[test]
    fn reset_loop_reaches_a_steady_state() {
        let mask = Rc::new(Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]));
        let keep = Rc::new(Matrix::from_rows(&[&[2.0, 0.0], &[2.0, 2.0]]));
        let mut g = Graph::new();
        let mut per_step = Vec::new();
        for _ in 0..6 {
            g.reset();
            let total = every_op_step(&mut g, &mask, &keep);
            assert!(total.is_finite());
            let (allocs, _, pooled) = g.workspace_counters();
            per_step.push((allocs, pooled));
        }
        let kinds: std::collections::HashSet<_> =
            g.nodes.iter().map(|n| std::mem::discriminant(&n.op)).collect();
        assert_eq!(kinds.len(), 25, "the loop must touch every Op variant");
        assert!(
            per_step[1..].iter().all(|c| *c == per_step[1]),
            "(allocs, pooled) per step: {per_step:?}"
        );
    }

    #[test]
    #[should_panic(expected = "keeps leaf gradients only")]
    fn intermediate_gradients_are_refused() {
        let mut g = Graph::new();
        let x = g.input(&Matrix::scalar(2.0));
        let y = g.relu(x);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        let _ = grads.get_ref(y);
    }

    #[test]
    fn deep_chain_backprop() {
        // y = tanh(relu(2x + 1)); check at x=1: inner = 3, relu passes,
        // dy/dx = (1 - tanh(3)^2) * 2.
        let mut g = Graph::new();
        let x = g.input(&Matrix::scalar(1.0));
        let a = g.affine(x, 2.0, 1.0);
        let r = g.relu(a);
        let y = g.tanh(r);
        let grads = g.backward(y);
        let expected = (1.0 - (3.0f64).tanh().powi(2)) * 2.0;
        assert!((grads.get(x).item() - expected).abs() < 1e-12);
    }
}
