//! Shared experiment plumbing for the table/figure binaries.
//!
//! Every binary reproduces one paper artifact from the same two panels
//! (fixed data seed) and the same model lineup (fixed model seed), so
//! results are bit-reproducible and Tables I/II/IV/V all describe the
//! same underlying CV runs. CV outputs are cached as JSON under
//! `results/` (override with `AMS_RESULTS_DIR`) because several tables
//! reuse them; each cached file carries a fingerprint of the model
//! configuration, evaluation options and panel that produced it, and a
//! file whose fingerprint does not match is recomputed, not read.

use std::fs;
use std::path::PathBuf;

use ams_backtest::{MarketConfig, MarketSim, Signals};
use ams_data::{generate, Panel, SynthConfig};
use ams_eval::{run_model, CvResult, EvalOptions, ModelKind};

/// Base data seed used by every experiment binary.
pub const DATA_SEED: u64 = 42;
/// Model seed used by every experiment binary.
pub const MODEL_SEED: u64 = 7;
/// Number of independent panel realizations averaged by the table
/// binaries. The paper repeats training 10 times; on synthetic data the
/// dominant variance is the panel realization itself, so we draw
/// several panels (seeds `DATA_SEED..DATA_SEED+N`) and aggregate
/// metrics across all seed × fold cells.
pub const N_SEEDS: u64 = 5;

/// The two datasets of §II-D.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// 71 companies × 16 quarters, one transaction-amount channel.
    Transaction,
    /// 62 companies × 9 quarters, store + parking map-query channels.
    MapQuery,
}

impl Dataset {
    /// Directory-safe name.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Transaction => "transaction",
            Dataset::MapQuery => "map_query",
        }
    }

    /// Generate the panel for the base seed.
    pub fn panel(self) -> Panel {
        self.panel_for_seed(DATA_SEED)
    }

    /// Generate the panel for an explicit seed.
    pub fn panel_for_seed(self, seed: u64) -> Panel {
        match self {
            Dataset::Transaction => generate(&SynthConfig::transaction_paper(seed)).panel,
            Dataset::MapQuery => generate(&SynthConfig::map_query_paper(seed)).panel,
        }
    }

    /// Number of alternative channels.
    pub fn n_channels(self) -> usize {
        match self {
            Dataset::Transaction => 1,
            Dataset::MapQuery => 2,
        }
    }
}

/// Where cached CV results live.
pub fn results_dir() -> PathBuf {
    std::env::var_os("AMS_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

fn cache_path(dataset: Dataset, model: &str, drop_alt: bool, seed: u64) -> PathBuf {
    let suffix = if drop_alt { "-na" } else { "" };
    results_dir().join(format!(
        "{}/seed{}/{}{}.json",
        dataset.name(),
        seed,
        model.replace(['[', ']'], "_"),
        suffix
    ))
}

/// Run one model on a dataset with JSON caching. A cached result is
/// reused only when it was produced by the same model configuration,
/// evaluation options and panel (see `fingerprint`); delete
/// `results/` to force recomputation anyway.
pub fn run_cached(dataset: Dataset, panel: &Panel, kind: &ModelKind, drop_alt: bool) -> CvResult {
    run_cached_seed(dataset, panel, kind, drop_alt, DATA_SEED)
}

/// [`run_cached`] for an explicit panel seed (the panel must match).
pub fn run_cached_seed(
    dataset: Dataset,
    panel: &Panel,
    kind: &ModelKind,
    drop_alt: bool,
    seed: u64,
) -> CvResult {
    let path = cache_path(dataset, &kind.name(), drop_alt, seed);
    let opts = EvalOptions { drop_alternative: drop_alt, ..EvalOptions::paper_for(panel) };
    let fingerprint = fingerprint(panel, kind, &opts);
    if let Ok(bytes) = fs::read(&path) {
        if let Ok(cached) = serde_json::from_slice::<CachedCv>(&bytes) {
            if cached.fingerprint == fingerprint {
                return cached.result;
            }
        }
    }
    let cached = CachedCv { fingerprint, result: run_model(panel, kind, &opts) };
    if let Some(parent) = path.parent() {
        let _ = fs::create_dir_all(parent);
    }
    let _ = fs::write(&path, serde_json::to_vec_pretty(&cached).expect("serialize CvResult"));
    cached.result
}

/// A cached CV result and the fingerprint of what produced it.
#[derive(serde::Serialize, serde::Deserialize)]
struct CachedCv {
    fingerprint: String,
    result: CvResult,
}

/// FNV-1a digest of everything a CV result depends on: the model's
/// full configuration, the evaluation options and the panel. The cache
/// file is named after the model only (`AMS` is `AMS` at any epoch
/// count), so this is what tells a cache written by another
/// configuration from a usable one.
fn fingerprint(panel: &Panel, kind: &ModelKind, opts: &EvalOptions) -> String {
    let panel_json = serde_json::to_vec(panel).expect("serialize Panel");
    let parts = [format!("{kind:?}").into_bytes(), format!("{opts:?}").into_bytes(), panel_json];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in parts.iter().flat_map(|p| p.iter().chain(&[0u8])) {
        h = (h ^ u64::from(*byte)).wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The full Table I/II lineup for a dataset, cached, averaged over
/// [`N_SEEDS`] panel realizations: each returned `CvResult` contains
/// the concatenated per-quarter results of every seed (so BA/SR means
/// and t-tests aggregate over all seed × fold cells).
pub fn run_lineup(dataset: Dataset) -> (Panel, Vec<CvResult>) {
    let lineup = ModelKind::paper_lineup(dataset.n_channels(), MODEL_SEED);
    let mut merged: Vec<CvResult> =
        lineup.iter().map(|k| CvResult { model: k.name(), per_quarter: Vec::new() }).collect();
    for seed in DATA_SEED..DATA_SEED + N_SEEDS {
        let panel = dataset.panel_for_seed(seed);
        for (kind, acc) in lineup.iter().zip(&mut merged) {
            eprintln!("  running {} on {} (seed {seed}) ...", kind.name(), dataset.name());
            let cv = run_cached_seed(dataset, &panel, kind, false, seed);
            acc.per_quarter.extend(cv.per_quarter);
        }
    }
    (dataset.panel(), merged)
}

/// Average each model's per-quarter metric by calendar quarter across
/// seeds — the per-quarter columns of the map-query tables.
pub fn per_quarter_means(cv: &CvResult) -> Vec<(String, f64, f64)> {
    let mut labels: Vec<String> = Vec::new();
    for q in &cv.per_quarter {
        let l = q.quarter.to_string();
        if !labels.contains(&l) {
            labels.push(l);
        }
    }
    labels
        .into_iter()
        .map(|l| {
            let (mut ba, mut sr, mut n) = (0.0, 0.0, 0.0);
            for q in &cv.per_quarter {
                if q.quarter.to_string() == l {
                    ba += q.ba;
                    sr += q.sr;
                    n += 1.0;
                }
            }
            (l, ba / n, sr / n)
        })
        .collect()
}

/// The models entering the backtest (paper's Tables IV/V drop
/// ARIMA/QoQ/YoY and keep the eight learned models).
pub fn backtest_lineup(dataset: Dataset) -> Vec<ModelKind> {
    ModelKind::paper_lineup(dataset.n_channels(), MODEL_SEED)
        .into_iter()
        .filter(|k| !matches!(k, ModelKind::Arima(_) | ModelKind::Naive { .. }))
        .collect()
}

/// Convert a CV result into per-window trading signals aligned with the
/// panel's company ids. Quarters are the CV test quarters in order.
pub fn signals_from_cv(panel: &Panel, cv: &CvResult) -> (Vec<usize>, Signals) {
    let mut quarters = Vec::with_capacity(cv.per_quarter.len());
    let mut signals = Vec::with_capacity(cv.per_quarter.len());
    for q in &cv.per_quarter {
        let tq = panel.quarter_index(q.quarter).expect("test quarter in panel");
        quarters.push(tq);
        let mut sig = vec![0.0; panel.num_companies()];
        for rec in &q.preds {
            sig[rec.company] = rec.pred_ur;
        }
        signals.push(sig);
    }
    (quarters, signals)
}

/// The shared market simulation for a dataset's backtest window.
pub fn market_for(panel: &Panel, quarters: &[usize]) -> MarketSim {
    MarketSim::simulate(panel, quarters, MarketConfig { seed: DATA_SEED, ..Default::default() })
}

/// Labels of the per-quarter columns (map-query tables show them).
pub fn quarter_labels(cv: &CvResult) -> Vec<String> {
    cv.per_quarter.iter().map(|q| format!("{}", q.quarter)).collect()
}

/// Run the §IV-F backtest for every learned model on a dataset and
/// return `(results, ams_index)`; every strategy is evaluated on the
/// same simulated price paths.
pub fn run_backtests(dataset: Dataset) -> Vec<ams_backtest::BacktestResult> {
    let panel = dataset.panel();
    let kinds = backtest_lineup(dataset);
    let mut results = Vec::new();
    let mut market: Option<MarketSim> = None;
    for kind in &kinds {
        eprintln!("  backtesting {} on {} ...", kind.name(), dataset.name());
        let cv = run_cached(dataset, &panel, kind, false);
        let (quarters, signals) = signals_from_cv(&panel, &cv);
        let sim = market.get_or_insert_with(|| market_for(&panel, &quarters));
        results.push(ams_backtest::run_strategy(&panel, sim, &signals, &kind.name(), 100.0));
    }
    results
}

/// Write every model's daily asset curve to a CSV (day, model columns).
pub fn write_curves_csv(path: &std::path::Path, results: &[ams_backtest::BacktestResult]) {
    if let Some(parent) = path.parent() {
        let _ = fs::create_dir_all(parent);
    }
    let mut out = String::from("day");
    for r in results {
        out.push(',');
        out.push_str(&r.model);
    }
    out.push('\n');
    let days = results.iter().map(|r| r.asset_curve.len()).max().unwrap_or(0);
    for d in 0..days {
        out.push_str(&d.to_string());
        for r in results {
            out.push(',');
            if let Some(v) = r.asset_curve.get(d) {
                out.push_str(&format!("{v:.4}"));
            }
        }
        out.push('\n');
    }
    fs::write(path, out).expect("write curves csv");
}

/// Eight-level unicode sparkline of a series.
pub fn sparkline(xs: &[f64]) -> String {
    const BARS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let range = (hi - lo).max(1e-12);
    // Subsample to at most 60 columns.
    let step = (xs.len() / 60).max(1);
    xs.iter().step_by(step).map(|&x| BARS[(((x - lo) / range) * 7.0).round() as usize]).collect()
}

/// Print a Table IV/V style backtest report.
pub fn print_backtest_table(
    title: &str,
    dataset: Dataset,
    results: &[ams_backtest::BacktestResult],
) {
    let ams = results.iter().find(|r| r.model == "AMS").expect("AMS in lineup").clone();
    println!(
        "
{title} — backtest on {} dataset",
        dataset.name()
    );
    println!(
        "{:<12} {:>11} {:>9} {:>13} {:>9}",
        "Model", "Earning(%)", "MDD(%)", "Sharpe Ratio", "AER(%)"
    );
    for r in results {
        if r.model == "AMS" {
            println!(
                "{:<12} {:>11.4} {:>9.4} {:>13} {:>9}",
                r.model, r.earning_pct, r.mdd_pct, "-", "-"
            );
        } else {
            let sharpe = ams_backtest::sharpe_vs(r, &ams).map_or("-".into(), |s| format!("{s:.4}"));
            println!(
                "{:<12} {:>11.4} {:>9.4} {:>13} {:>9.4}",
                r.model,
                r.earning_pct,
                r.mdd_pct,
                sharpe,
                ams_backtest::aer_vs(r, &ams)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_data::Quarter;
    use ams_eval::{PredRecord, QuarterResult};

    fn fake_cv() -> CvResult {
        let mk = |q: Quarter, ba: f64| QuarterResult {
            quarter: q,
            ba,
            sr: 1.0,
            preds: vec![PredRecord {
                company: 0,
                pred_ur: 1.0,
                actual_ur: 2.0,
                consensus: 10.0,
                revenue: 12.0,
            }],
        };
        CvResult {
            model: "M".into(),
            per_quarter: vec![
                mk(Quarter::new(2018, 1), 40.0),
                mk(Quarter::new(2018, 2), 50.0),
                // Second seed's pass over the same quarters.
                mk(Quarter::new(2018, 1), 60.0),
                mk(Quarter::new(2018, 2), 70.0),
            ],
        }
    }

    #[test]
    fn per_quarter_means_group_by_label() {
        let cv = fake_cv();
        let means = per_quarter_means(&cv);
        assert_eq!(means.len(), 2);
        assert_eq!(means[0].0, "2018q1");
        assert!((means[0].1 - 50.0).abs() < 1e-12);
        assert!((means[1].1 - 60.0).abs() < 1e-12);
    }

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.chars().count(), 4);
        let chars: Vec<char> = s.chars().collect();
        assert!(chars[0] < chars[3], "rising series should rise: {s}");
    }

    #[test]
    fn sparkline_handles_flat_series() {
        let s = sparkline(&[5.0, 5.0, 5.0]);
        assert_eq!(s.chars().count(), 3);
    }

    #[test]
    fn curves_csv_contains_all_models_and_days() {
        let dir = std::env::temp_dir().join("ams_exp_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("curves.csv");
        let results = vec![
            ams_backtest::BacktestResult {
                model: "A".into(),
                asset_curve: vec![100.0, 101.0, 102.0],
                quarter_ends: vec![2],
                earning_pct: 2.0,
                mdd_pct: 0.0,
            },
            ams_backtest::BacktestResult {
                model: "B".into(),
                asset_curve: vec![100.0, 99.0],
                quarter_ends: vec![1],
                earning_pct: -1.0,
                mdd_pct: 1.0,
            },
        ];
        write_curves_csv(&path, &results);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "day,A,B");
        assert_eq!(lines.len(), 1 + 3); // header + longest curve
        assert!(lines[1].starts_with("0,100.0000,100.0000"));
        // Shorter series leaves the trailing cell empty.
        assert!(lines[3].ends_with(','));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_changed_config_is_recomputed_and_a_matching_one_is_read() {
        let dir = std::env::temp_dir().join(format!("ams_exp_cache_{}", std::process::id()));
        std::env::set_var("AMS_RESULTS_DIR", &dir);
        let panel = ams_data::generate(&ams_data::SynthConfig::tiny(3)).panel;
        // Both are named "Ridge", so they share one cache file.
        let loose = ModelKind::Ridge { lambda: 1e-3 };
        let tight = ModelKind::Ridge { lambda: 1e3 };
        let first = run_cached_seed(Dataset::Transaction, &panel, &loose, false, 3);
        let second = run_cached_seed(Dataset::Transaction, &panel, &tight, false, 3);
        let fresh = run_model(&panel, &tight, &EvalOptions::paper_for(&panel));

        // A matching fingerprint is still a cache hit: plant a marker
        // in the stored result and read it back.
        let path = cache_path(Dataset::Transaction, "Ridge", false, 3);
        let mut cached: CachedCv = serde_json::from_slice(&fs::read(&path).unwrap()).unwrap();
        cached.result.per_quarter[0].ba = -1.0;
        fs::write(&path, serde_json::to_vec(&cached).unwrap()).unwrap();
        let third = run_cached_seed(Dataset::Transaction, &panel, &tight, false, 3);
        std::env::remove_var("AMS_RESULTS_DIR");
        let _ = fs::remove_dir_all(&dir);

        let bits = |cv: &CvResult| -> Vec<u64> {
            cv.per_quarter
                .iter()
                .flat_map(|q| q.preds.iter().map(|p| p.pred_ur.to_bits()))
                .collect()
        };
        assert_ne!(bits(&first), bits(&fresh), "the two configs must predict differently");
        assert_eq!(bits(&second), bits(&fresh), "the changed config must be recomputed");
        assert_eq!(third.per_quarter[0].ba, -1.0, "a matching cache must be read");
    }

    #[test]
    fn dataset_shapes() {
        assert_eq!(Dataset::Transaction.n_channels(), 1);
        assert_eq!(Dataset::MapQuery.n_channels(), 2);
        assert_eq!(Dataset::Transaction.name(), "transaction");
    }

    #[test]
    fn backtest_lineup_drops_naive_and_arima() {
        let lineup = backtest_lineup(Dataset::Transaction);
        assert_eq!(lineup.len(), 8);
        assert!(lineup
            .iter()
            .all(|k| { !matches!(k, ModelKind::Arima(_) | ModelKind::Naive { .. }) }));
    }
}
