//! Value-only execution of the forward pass on workspace buffers.
//!
//! [`WsOps`] implements [`ForwardOps`] without a tape: every
//! intermediate is a [`Plane`] drawn from a [`Workspace`] and handed
//! back the moment it dies, so after one warm-up call a forward pass
//! performs zero heap allocations. It is generic over the scalar
//! ([`Element`]): `f64` replays the tape's arithmetic bit for bit, `f32`
//! is the quantized serving path (DESIGN.md §14). Shape mismatches are
//! typed errors, never panics.

use crate::forward::ForwardOps;
use ams_tensor::runtime::{Backend, Element, RuntimeError, Workspace};
use ams_tensor::Matrix;
use std::time::Instant;

/// An owned row-major `rows × cols` buffer of one scalar type — the
/// precision-generic analogue of [`Matrix`].
#[derive(Debug, Clone, PartialEq)]
pub struct Plane<E: Element> {
    rows: usize,
    cols: usize,
    data: Vec<E>,
}

impl<E: Element> Plane<E> {
    /// Wrap an existing buffer (`data.len()` must equal `rows * cols`).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<E>) -> Self {
        assert_eq!(data.len(), rows * cols, "plane data does not match {rows}x{cols}");
        Self { rows, cols, data }
    }

    /// Narrow (or copy, for `E = f64`) a matrix into a plane.
    pub fn from_matrix(m: &Matrix) -> Self {
        let data = m.as_slice().iter().map(|&v| E::from_f64(v)).collect();
        Self { rows: m.rows(), cols: m.cols(), data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn as_slice(&self) -> &[E] {
        &self.data
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[E] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Surrender the backing buffer (for returning it to a workspace).
    pub fn into_vec(self) -> Vec<E> {
        self.data
    }
}

impl Plane<f64> {
    /// Reinterpret an f64 plane as a [`Matrix`] without copying.
    pub fn into_matrix(self) -> Matrix {
        Matrix::from_vec(self.rows, self.cols, self.data)
    }
}

/// Why a value-only forward pass stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Operand shapes do not compose (an inconsistent model).
    Shape(RuntimeError),
    /// The weights are structurally unusable.
    Malformed(&'static str),
    /// The deadline passed between stages.
    DeadlineExceeded,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Shape(e) => write!(f, "{e}"),
            ExecError::Malformed(what) => write!(f, "{what} (corrupt snapshot)"),
            ExecError::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

impl std::error::Error for ExecError {}

/// `Err(ShapeMismatch)` naming both operands unless `ok`.
fn shape_check<E: Element>(
    ok: bool,
    op: &'static str,
    a: &Plane<E>,
    b: &Plane<E>,
) -> Result<(), ExecError> {
    if ok {
        return Ok(());
    }
    Err(ExecError::Shape(RuntimeError::ShapeMismatch {
        op,
        lhs: (a.rows, a.cols),
        rhs: (b.rows, b.cols),
    }))
}

/// The workspace implementation of [`ForwardOps`]: kernels run on
/// `backend`, scratch comes from and returns to `ws`.
pub struct WsOps<'a, E: Element> {
    pub backend: &'a dyn Backend<E>,
    pub ws: &'a mut Workspace<E>,
    /// Dense adjacency mask of the company graph (`n×n`).
    pub mask: &'a Plane<E>,
    /// Checked at every stage boundary; `None` never expires.
    pub deadline: Option<Instant>,
}

impl<E: Element> WsOps<'_, E> {
    /// A zeroed `rows × cols` plane from the workspace.
    fn plane(&mut self, rows: usize, cols: usize) -> Plane<E> {
        Plane::from_vec(rows, cols, self.ws.take(rows * cols))
    }
}

/// What a fallible op hands back.
type Out<E> = Result<Plane<E>, ExecError>;

impl<E: Element> ForwardOps for WsOps<'_, E> {
    type T = Plane<E>;
    type Error = ExecError;

    fn copy(&mut self, x: &Plane<E>) -> Plane<E> {
        let mut out = self.plane(x.rows, x.cols);
        out.data.copy_from_slice(&x.data);
        out
    }

    fn release(&mut self, x: Plane<E>) {
        self.ws.give(x.data);
    }

    fn mat_mul(&mut self, a: &Plane<E>, b: &Plane<E>) -> Out<E> {
        shape_check(a.cols == b.rows, "matmul", a, b)?;
        let mut out = self.plane(a.rows, b.cols);
        self.backend.matmul(&a.data, &b.data, &mut out.data, a.rows, a.cols, b.cols);
        Ok(out)
    }

    /// Fused on the backend: the matmul and the bias add happen in the
    /// order the tape's separate ops use, so values match bit for bit.
    fn linear(&mut self, x: Plane<E>, w: &Plane<E>, b: &Plane<E>) -> Out<E> {
        shape_check(x.cols == w.rows, "matmul", &x, w)?;
        shape_check(b.rows == 1 && b.cols == w.cols, "add_bias", w, b)?;
        let (m, k, n) = (x.rows, x.cols, w.cols);
        let mut out = self.plane(m, n);
        self.backend.matmul_add_bias(&x.data, &w.data, &b.data, &mut out.data, m, k, n);
        self.release(x);
        Ok(out)
    }

    fn relu(&mut self, mut x: Plane<E>) -> Plane<E> {
        for e in &mut x.data {
            *e = (*e).max(E::ZERO);
        }
        x
    }

    fn leaky_relu(&mut self, mut x: Plane<E>, slope: f64) -> Plane<E> {
        let alpha = E::from_f64(slope);
        for e in &mut x.data {
            *e = if *e > E::ZERO { *e } else { alpha * *e };
        }
        x
    }

    fn outer_sum(&mut self, u: &Plane<E>, v: &Plane<E>) -> Out<E> {
        shape_check(u.cols == 1 && v.cols == 1, "outer_sum", u, v)?;
        let mut out = self.plane(u.rows, v.rows);
        for (row, &ui) in out.data.chunks_exact_mut(v.rows.max(1)).zip(&u.data) {
            for (o, &vj) in row.iter_mut().zip(&v.data) {
                *o = ui + vj;
            }
        }
        Ok(out)
    }

    fn masked_softmax(&mut self, logits: &Plane<E>) -> Out<E> {
        let (mask, rows, cols) = (self.mask, logits.rows, logits.cols);
        shape_check(rows == mask.rows && cols == mask.cols, "softmax", logits, mask)?;
        let mut out = self.plane(rows, cols);
        self.backend.masked_softmax_rows(&logits.data, &mask.data, &mut out.data, rows, cols);
        Ok(out)
    }

    fn join_cols(&mut self, a: Plane<E>, b: &Plane<E>) -> Out<E> {
        shape_check(a.rows == b.rows, "hcat", &a, b)?;
        let mut out = self.plane(a.rows, a.cols + b.cols);
        for (r, row) in out.data.chunks_exact_mut(out.cols.max(1)).enumerate() {
            let (left, right) = row.split_at_mut(a.cols);
            left.copy_from_slice(a.row(r));
            right.copy_from_slice(b.row(r));
        }
        self.release(a);
        Ok(out)
    }

    fn repeat_row(&mut self, like: &Plane<E>, v: &Plane<E>) -> Out<E> {
        shape_check(v.cols == 1, "repeat_row", like, v)?;
        let mut ones = self.plane(like.rows, 1);
        ones.data.fill(E::ONE);
        // A column vector's buffer is its transpose's buffer: `v` is
        // read as the `1×m` row `vᵀ` without a copy.
        let mut out = self.plane(like.rows, v.rows);
        self.backend.matmul(&ones.data, &v.data, &mut out.data, like.rows, 1, v.rows);
        self.release(ones);
        Ok(out)
    }

    fn mix(&mut self, a: &Plane<E>, alpha: f64, b: &Plane<E>, beta: f64) -> Out<E> {
        shape_check(a.rows == b.rows && a.cols == b.cols, "add", a, b)?;
        let (alpha, beta) = (E::from_f64(alpha), E::from_f64(beta));
        let mut out = self.plane(a.rows, a.cols);
        for ((o, &x), &y) in out.data.iter_mut().zip(&a.data).zip(&b.data) {
            *o = (alpha * x + E::ZERO) + (beta * y + E::ZERO);
        }
        Ok(out)
    }

    fn row_dots(&mut self, a: &Plane<E>, b: &Plane<E>) -> Out<E> {
        shape_check(a.rows == b.rows && a.cols == b.cols, "rowwise_dot", a, b)?;
        let mut out = self.plane(a.rows, 1);
        self.backend.rowwise_dot(&a.data, &b.data, &mut out.data, a.rows, a.cols);
        Ok(out)
    }

    fn malformed(&self, what: &'static str) -> ExecError {
        ExecError::Malformed(what)
    }

    fn stage_end(&mut self) -> Result<(), ExecError> {
        match self.deadline {
            Some(d) if Instant::now() >= d => Err(ExecError::DeadlineExceeded),
            _ => Ok(()),
        }
    }
}
