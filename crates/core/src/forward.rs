//! The AMS forward pass, written once.
//!
//! Node transform (Eq. 1) → GAT master (Eqs. 2–3) → slave generation
//! (Eq. 6) → model assembly (Eq. 10) → slave-LR evaluation, expressed
//! against the small [`ForwardOps`] trait. Two implementations run it:
//!
//! * [`TapeOps`] records every op on an autodiff [`Graph`] — training,
//!   `AmsModel::predict` and the training audit;
//! * [`crate::exec::WsOps`] executes value-only on workspace buffers, in
//!   `f64` or `f32` — the serving engine.
//!
//! Both implementations perform the same primitives in the same order,
//! so the f64 serving path is bit-for-bit equal to the tape. The two
//! places the paths differ are hooks of the one forward:
//! [`ForwardOps::dropout`] (training dropout, tape only) and
//! [`ForwardOps::stage_end`] (the serving deadline, checked between
//! stages).

use crate::ams::{AmsConfig, LinearLayer};
use crate::gat::GatLayer;
use ams_tensor::init::dropout_mask;
use ams_tensor::{Graph, Matrix, Var};
use rand::rngs::StdRng;
use std::convert::Infallible;
use std::rc::Rc;

/// One affine layer `x·W + b` (`w` is `in×out`, `b` is `1×out`).
#[derive(Debug, Clone, PartialEq)]
pub struct Dense<T> {
    pub w: T,
    pub b: T,
}

/// One attention head: shared transform `W^g` and the two halves of
/// the attention vector (each `out×1`).
#[derive(Debug, Clone, PartialEq)]
pub struct Head<T> {
    pub w: T,
    pub a_left: T,
    pub a_right: T,
}

/// One GAT layer: its heads (outputs concatenated, Eq. 3) and the
/// attention LeakyReLU slope.
#[derive(Debug, Clone, PartialEq)]
pub struct Attention<T> {
    pub heads: Vec<Head<T>>,
    pub leaky_slope: f64,
}

/// Everything the forward pass reads besides the input and the graph,
/// in layer structure. `T` is the implementation's handle: tape `Var`s
/// built per graph, or planes frozen once per serving engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Weights<T> {
    /// Node-transform layers (Eq. 1).
    pub nt: Vec<Dense<T>>,
    /// GAT stack (Eqs. 2–3).
    pub gat: Vec<Attention<T>>,
    /// Generator layers (Eq. 6); the last maps to the slave width `m`.
    pub gen: Vec<Dense<T>>,
    /// Globally optimized assembly component β_c (`m×1`).
    pub beta_c: T,
    /// 0/1 projection from full features to slave columns (`d×m`);
    /// `None` when the slave model uses every column.
    pub selection: Option<T>,
    /// Assembly mix γ (Eq. 10).
    pub gamma: f64,
    /// Concatenate the node-transform output after the GAT stack.
    pub residual: bool,
}

impl<T> Weights<T> {
    /// Lay a model's parameter matrices out in forward structure.
    /// `param` is called once per parameter, in the canonical order of
    /// [`Weights::named_params`].
    pub fn new<'m>(
        config: &AmsConfig,
        nt: &'m [LinearLayer],
        gat: &'m [GatLayer],
        gen: &'m [LinearLayer],
        beta_c: &'m Matrix,
        selection: Option<T>,
        mut param: impl FnMut(&'m Matrix) -> T,
    ) -> Self {
        // Struct literal fields evaluate in source order, which is what
        // keeps `param` calls in canonical order.
        let nt = nt.iter().map(|l| Dense { w: param(&l.w), b: param(&l.b) }).collect();
        let gat = gat.iter().map(|layer| layer.weights(&mut param)).collect();
        let gen = gen.iter().map(|l| Dense { w: param(&l.w), b: param(&l.b) }).collect();
        Self {
            nt,
            gat,
            gen,
            beta_c: param(beta_c),
            selection,
            gamma: config.gamma,
            residual: config.residual,
        }
    }

    /// Every parameter with its name, in the canonical order (Adam's
    /// parameter list): `nt[i].{w,b}`, `gat[l].head[h].{w,a_left,a_right}`,
    /// `gen[i].{w,b}`, `beta_c`. The selection is not a parameter.
    pub fn named_params(&self) -> Vec<(String, &T)> {
        let mut out = Vec::new();
        for (i, l) in self.nt.iter().enumerate() {
            out.extend([(format!("nt[{i}].w"), &l.w), (format!("nt[{i}].b"), &l.b)]);
        }
        for (l, layer) in self.gat.iter().enumerate() {
            for (h, head) in layer.heads.iter().enumerate() {
                let name = |part: &str| format!("gat[{l}].head[{h}].{part}");
                out.extend([(name("w"), &head.w), (name("a_left"), &head.a_left)]);
                out.push((name("a_right"), &head.a_right));
            }
        }
        for (i, l) in self.gen.iter().enumerate() {
            out.extend([(format!("gen[{i}].w"), &l.w), (format!("gen[{i}].b"), &l.b)]);
        }
        out.push(("beta_c".to_string(), &self.beta_c));
        out
    }
}

/// What one forward pass produces: predictions (`n×1`), the generated
/// slave weights β_v (`n×m`) and the assembled β (`n×m`).
#[derive(Debug)]
pub struct Outputs<T> {
    pub pred: T,
    pub beta_v: T,
    pub beta: T,
}

/// The primitives the forward pass is written against. Ops borrow their
/// operands and return a fresh handle, except where an operand dies in
/// the op: `linear` and `join_cols` consume their first operand, the
/// element-wise activations theirs (a value-only implementation works
/// in place). [`ForwardOps::release`] hands any other dead intermediate
/// back.
pub trait ForwardOps {
    /// Tensor handle.
    type T;
    /// Why an op failed (shape mismatch, deadline).
    type Error;

    /// A handle the caller may consume without disturbing `x`.
    fn copy(&mut self, x: &Self::T) -> Self::T;
    /// `x` is dead; its storage may be reused.
    fn release(&mut self, x: Self::T);
    /// `a·b`.
    fn mat_mul(&mut self, a: &Self::T, b: &Self::T) -> Result<Self::T, Self::Error>;
    /// `x·w` followed by the row-broadcast bias add `+ b`.
    fn linear(&mut self, x: Self::T, w: &Self::T, b: &Self::T) -> Result<Self::T, Self::Error>;
    /// `max(x, 0)` element-wise.
    fn relu(&mut self, x: Self::T) -> Self::T;
    /// `x` where positive, `slope·x` elsewhere.
    fn leaky_relu(&mut self, x: Self::T, slope: f64) -> Self::T;
    /// `out[i][j] = u[i] + v[j]` for column vectors `u`, `v`.
    fn outer_sum(&mut self, u: &Self::T, v: &Self::T) -> Result<Self::T, Self::Error>;
    /// Row-wise softmax over the graph neighbourhoods (the adjacency
    /// mask the implementation carries).
    fn masked_softmax(&mut self, logits: &Self::T) -> Result<Self::T, Self::Error>;
    /// Horizontal concatenation `[a | b]`.
    fn join_cols(&mut self, a: Self::T, b: &Self::T) -> Result<Self::T, Self::Error>;
    /// `ones(n×1)·vᵀ` for a column vector `v` and `n` the row count of
    /// `like`: `v` repeated as every row. Computed as that product, not
    /// a row copy, so every value (`-0.0` becomes `+0.0`) matches the
    /// tape's.
    fn repeat_row(&mut self, like: &Self::T, v: &Self::T) -> Result<Self::T, Self::Error>;
    /// `(alpha·a + 0.0) + (beta·b + 0.0)` element-wise, for same-shape
    /// `a` and `b` (the `+ 0.0`s normalize `-0.0` as the tape's `scale`
    /// does).
    fn mix(
        &mut self,
        a: &Self::T,
        alpha: f64,
        b: &Self::T,
        beta: f64,
    ) -> Result<Self::T, Self::Error>;
    /// `out[r] = a.row(r) · b.row(r)` (`n×1`).
    fn row_dots(&mut self, a: &Self::T, b: &Self::T) -> Result<Self::T, Self::Error>;
    /// The weights are structurally unusable (a GAT layer with no
    /// heads).
    fn malformed(&self, what: &'static str) -> Self::Error;

    /// Hook after every hidden dense activation: training dropout.
    fn dropout(&mut self, h: Self::T) -> Self::T {
        h
    }

    /// Hook between stages (node transform, GAT, generator): a serving
    /// deadline abandons the remaining work here.
    fn stage_end(&mut self) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// The master→slave forward pass on input features `x` (`n×d`, one row
/// per graph node).
///
/// `ops` is an `impl ForwardOps` argument rather than a named type
/// parameter so the whole-program audit can resolve its calls through
/// the trait (`bind = ["ForwardOps = WsOps"]` in `audit.toml`).
pub fn forward<H, Er>(
    ops: &mut impl ForwardOps<T = H, Error = Er>,
    w: &Weights<H>,
    x: &H,
) -> Result<Outputs<H>, Er> {
    // Node transform (Eq. 1).
    let mut h = ops.copy(x);
    for layer in &w.nt {
        let z = ops.linear(h, &layer.w, &layer.b)?;
        let z = ops.relu(z);
        h = ops.dropout(z);
    }
    ops.stage_end()?;
    let nt_out = ops.copy(&h);
    // GAT stack (Eqs. 2–3).
    for layer in &w.gat {
        h = gat_layer(ops, layer, h)?;
    }
    ops.stage_end()?;
    if w.residual {
        h = ops.join_cols(h, &nt_out)?;
    }
    ops.release(nt_out);
    // Generator M (Eq. 6): hidden ReLU layers then a linear map.
    let n_gen = w.gen.len();
    for (i, layer) in w.gen.iter().enumerate() {
        let z = ops.linear(h, &layer.w, &layer.b)?;
        h = if i + 1 < n_gen {
            let z = ops.relu(z);
            ops.dropout(z)
        } else {
            z
        };
    }
    ops.stage_end()?;
    let beta_v = h;

    // Model assembly (Eq. 10): β = γ β_v + (1−γ) β_c.
    let bc_rows = ops.repeat_row(x, &w.beta_c)?;
    let beta = ops.mix(&beta_v, w.gamma, &bc_rows, 1.0 - w.gamma)?;
    ops.release(bc_rows);

    // Slave-LR evaluation on the slave columns: ÛR_i = x̃_iᵀ β_i.
    let x_slave = match &w.selection {
        Some(sel) => Some(ops.mat_mul(x, sel)?),
        None => None,
    };
    let pred = ops.row_dots(x_slave.as_ref().unwrap_or(x), &beta)?;
    if let Some(xs) = x_slave {
        ops.release(xs);
    }
    Ok(Outputs { pred, beta_v, beta })
}

/// One GAT layer (Eqs. 2–3) on the layer input `x`, which it consumes:
/// every head ReLU-activated, outputs concatenated in head order.
pub fn gat_layer<H, Er>(
    ops: &mut impl ForwardOps<T = H, Error = Er>,
    layer: &Attention<H>,
    x: H,
) -> Result<H, Er> {
    let mut out: Option<H> = None;
    for head in &layer.heads {
        let agg = attention_head(ops, head, layer.leaky_slope, &x)?;
        let h = ops.relu(agg);
        out = Some(match out {
            None => h,
            Some(acc) => {
                let cat = ops.join_cols(acc, &h)?;
                ops.release(h);
                cat
            }
        });
    }
    ops.release(x);
    match out {
        Some(h) => Ok(h),
        None => Err(ops.malformed("GAT layer has no heads")),
    }
}

/// One attention head before its activation: logits
/// `e_ij = LeakyReLU(a_lᵀ W x_i + a_rᵀ W x_j)`, softmaxed over each
/// node's neighbourhood, aggregate `Σ_j α_ij W x_j` (Eq. 2).
pub fn attention_head<H, Er>(
    ops: &mut impl ForwardOps<T = H, Error = Er>,
    head: &Head<H>,
    leaky_slope: f64,
    x: &H,
) -> Result<H, Er> {
    let wx = ops.mat_mul(x, &head.w)?;
    let s_l = ops.mat_mul(&wx, &head.a_left)?;
    let s_r = ops.mat_mul(&wx, &head.a_right)?;
    let logits = ops.outer_sum(&s_l, &s_r)?;
    ops.release(s_l);
    ops.release(s_r);
    let logits = ops.leaky_relu(logits, leaky_slope);
    let attn = ops.masked_softmax(&logits)?;
    ops.release(logits);
    let out = ops.mat_mul(&attn, &wx)?;
    ops.release(attn);
    ops.release(wx);
    Ok(out)
}

/// The tape implementation: every op is recorded on `g` for autodiff.
/// A shape error is a bug in the caller's model and panics in `Graph`'s
/// own checks.
pub struct TapeOps<'a> {
    pub g: &'a mut Graph,
    /// Dense adjacency mask of the company graph, shared with every
    /// softmax node the tape records.
    pub mask: &'a Rc<Matrix>,
    /// Training dropout `(rate, rng)`; `None` at evaluation time.
    pub dropout: Option<(f64, &'a mut StdRng)>,
}

impl TapeOps<'_> {
    /// Record the forward pass on the tape.
    pub fn run(&mut self, w: &Weights<Var>, x: Var) -> Outputs<Var> {
        forward(self, w, &x).unwrap_or_else(|never| match never {})
    }
}

impl ForwardOps for TapeOps<'_> {
    type T = Var;
    type Error = Infallible;

    fn copy(&mut self, x: &Var) -> Var {
        *x
    }

    fn release(&mut self, _: Var) {}

    fn mat_mul(&mut self, a: &Var, b: &Var) -> Result<Var, Infallible> {
        Ok(self.g.matmul(*a, *b))
    }

    fn linear(&mut self, x: Var, w: &Var, b: &Var) -> Result<Var, Infallible> {
        let z = self.g.matmul(x, *w);
        Ok(self.g.add_row_broadcast(z, *b))
    }

    fn relu(&mut self, x: Var) -> Var {
        self.g.relu(x)
    }

    fn leaky_relu(&mut self, x: Var, slope: f64) -> Var {
        self.g.leaky_relu(x, slope)
    }

    fn outer_sum(&mut self, u: &Var, v: &Var) -> Result<Var, Infallible> {
        Ok(self.g.outer_sum(*u, *v))
    }

    fn masked_softmax(&mut self, logits: &Var) -> Result<Var, Infallible> {
        Ok(self.g.masked_softmax_rows(*logits, self.mask))
    }

    fn join_cols(&mut self, a: Var, b: &Var) -> Result<Var, Infallible> {
        Ok(self.g.concat_cols(&[a, *b]))
    }

    fn repeat_row(&mut self, like: &Var, v: &Var) -> Result<Var, Infallible> {
        let ones = self.g.input(&Matrix::ones(self.g.value(*like).rows(), 1));
        let vt = self.g.transpose(*v);
        Ok(self.g.matmul(ones, vt))
    }

    fn mix(&mut self, a: &Var, alpha: f64, b: &Var, beta: f64) -> Result<Var, Infallible> {
        let scaled_a = self.g.scale(*a, alpha);
        let scaled_b = self.g.scale(*b, beta);
        Ok(self.g.add(scaled_a, scaled_b))
    }

    fn row_dots(&mut self, a: &Var, b: &Var) -> Result<Var, Infallible> {
        Ok(self.g.rowwise_dot(*a, *b))
    }

    fn malformed(&self, what: &'static str) -> Infallible {
        panic!("malformed AMS weights: {what}")
    }

    fn dropout(&mut self, h: Var) -> Var {
        match &mut self.dropout {
            Some((p, rng)) if *p > 0.0 => {
                let (rows, cols) = self.g.value(h).shape();
                let m = Rc::new(dropout_mask(rows, cols, *p, *rng));
                self.g.dropout(h, &m)
            }
            _ => h,
        }
    }
}
