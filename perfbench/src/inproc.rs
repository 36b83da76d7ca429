//! The serve protocol handled in-process: the server's parse → engine →
//! encode path for `predict` and `batch_predict`, called directly with
//! no socket, worker pool or admission queue in between.
//!
//! The `fit` workload serves through this handler as the no-network
//! control, and traced runs of every workload replay request lines
//! through it with a span on each of the three steps.

use crate::trace::Tracer;
use ams_serve::Engine;
use ams_tensor::runtime::{seq, Backend, Workspace};
use ams_tensor::Matrix;
use serde::Value;
use std::sync::Arc;

/// Which of the workload's two request kinds a line is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Single-company `predict`.
    Single,
    /// Full-universe `batch_predict`.
    Batch,
}

impl Kind {
    /// The request's root span, then its parse, engine and encode spans.
    fn spans(self) -> [&'static str; 4] {
        match self {
            Kind::Single => [
                "serve.request_single",
                "serve.parse_single",
                "engine.single",
                "serve.encode_single",
            ],
            Kind::Batch => {
                ["serve.request_batch", "serve.parse_batch", "engine.batch", "serve.encode_batch"]
            }
        }
    }
}

/// One engine with the per-worker arena a server worker would own.
pub struct InProcess {
    engine: Arc<Engine>,
    backend: Arc<dyn Backend>,
    ws: Workspace,
}

fn field<T: serde::Deserialize>(request: &Value, name: &str) -> Result<T, String> {
    let v = request.get(name).ok_or_else(|| format!("missing `{name}`"))?;
    serde::Deserialize::from_value(v).map_err(|e| format!("bad `{name}`: {e}"))
}

impl InProcess {
    /// A handler on the server's default (sequential) backend.
    pub fn new(engine: Arc<Engine>) -> Self {
        Self { engine, backend: seq(), ws: Workspace::new() }
    }

    /// Fresh heap allocations the arena has made so far.
    pub fn ws_allocs(&self) -> usize {
        self.ws.counters().0
    }

    /// Answer one request line with the response line the server would
    /// send, inside a request span with parse, engine and encode spans
    /// under it, all under trace id `trace`.
    pub fn handle(
        &mut self,
        kind: Kind,
        line: &str,
        tr: &mut Tracer,
        trace: u64,
    ) -> Result<String, String> {
        let root = tr.open(kind.spans()[0], None, trace);
        let out = self.respond(kind, line, tr, root, trace);
        tr.close(root);
        out
    }

    fn respond(
        &mut self,
        kind: Kind,
        line: &str,
        tr: &mut Tracer,
        root: Option<usize>,
        trace: u64,
    ) -> Result<String, String> {
        let [_, parse, engine_span, encode] = kind.spans();
        let engine = Arc::clone(&self.engine);
        let name = Value::String(engine.artifact().name.clone());
        let version = Value::Number(engine.artifact().version as f64);
        let response = match kind {
            Kind::Single => {
                let (company, features) = tr.time(parse, root, trace, || {
                    let request: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
                    Ok::<_, String>((
                        field::<usize>(&request, "company")?,
                        field::<Vec<f64>>(&request, "features")?,
                    ))
                })?;
                let prediction = tr
                    .time(engine_span, root, trace, || {
                        engine.predict_company_checked(company, &features)
                    })
                    .map_err(|e| e.to_string())?;
                Value::Object(vec![
                    ("ok".to_string(), Value::Bool(true)),
                    ("model".to_string(), name),
                    ("version".to_string(), version),
                    ("company".to_string(), Value::Number(company as f64)),
                    ("prediction".to_string(), Value::Number(prediction)),
                ])
            }
            Kind::Batch => {
                let rows = tr.time(parse, root, trace, || {
                    let request: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
                    field::<Vec<Vec<f64>>>(&request, "features")
                })?;
                let (n, d) = (engine.num_companies(), engine.feature_width());
                if rows.len() != n || rows.iter().any(|r| r.len() != d) {
                    return Err(format!("batch is not {n} rows of width {d}"));
                }
                let mut flat = self.ws.take(n * d);
                flat.clear();
                rows.iter().for_each(|r| flat.extend_from_slice(r));
                let x = Matrix::from_vec(n, d, flat);
                let (backend, ws) = (self.backend.as_ref(), &mut self.ws);
                let pred = tr.time(engine_span, root, trace, || {
                    engine.predict_batch_deadline(&x, backend, ws, None)
                });
                self.ws.give(x.into_vec());
                let pred = pred.map_err(|e| e.to_string())?;
                let out = pred.as_slice().iter().map(|&p| Value::Number(p)).collect();
                self.ws.give(pred.into_vec());
                Value::Object(vec![
                    ("ok".to_string(), Value::Bool(true)),
                    ("model".to_string(), name),
                    ("version".to_string(), version),
                    ("predictions".to_string(), Value::Array(out)),
                ])
            }
        };
        tr.time(encode, root, trace, || serde_json::to_string(&response)).map_err(|e| e.to_string())
    }
}
