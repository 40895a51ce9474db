//! # stgnn-bench
//!
//! The experiment harness behind every table and figure of the STGNN-DJD
//! evaluation (§VII–§VIII). Each `src/bin/*.rs` binary regenerates one
//! artefact; this library provides the shared machinery:
//!
//! * [`Scale`] — `Quick` (default; CPU-minutes) vs `Full` (closer to paper
//!   scale; CPU-hours), selected by the `STGNN_SCALE` environment variable.
//! * [`ExperimentContext`] — the two synthetic cities ("chicago-like",
//!   "la-like") wrapped as datasets with the scale's windows.
//! * [`zoo`] — constructors for every Table I predictor.
//! * [`run_fit_eval`] — train + evaluate one predictor over a slot filter,
//!   with wall-clock accounting for §VII-I.
//! * [`TableWriter`] — aligned console tables plus machine-readable CSV
//!   under `results/`.
//!
//! Absolute numbers will not match the paper (synthetic data, CPU, scaled
//! sizes); the binaries exist to reproduce the *shape* of each result — who
//! wins, roughly by how much, and where the sweet spots sit. See
//! EXPERIMENTS.md for the paper-vs-measured record.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use stgnn_analyze::Severity;
use stgnn_baselines::{
    Arima, Astgcn, BaselineConfig, GBike, Gcnn, GradientBoostedTrees, HistoricalAverage,
    LstmPredictor, Mgnn, Mlp, RnnPredictor, Stsgcn,
};
use stgnn_core::{StgnnConfig, StgnnDjd};
use stgnn_data::dataset::{BikeDataset, DatasetConfig};
use stgnn_data::error::Result;
use stgnn_data::predictor::{evaluate, DemandSupplyPredictor};
use stgnn_data::synthetic::{CityConfig, SyntheticCity};
use stgnn_data::MetricsRow;

/// Experiment size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Default: small cities, short windows — minutes per table on a laptop.
    Quick,
    /// Closer to the paper: 64/32 stations, 96 slots/day, k=96, d=7.
    Full,
}

impl Scale {
    /// Reads `STGNN_SCALE` (`quick`/`full`), defaulting to `Quick`.
    pub fn from_env() -> Scale {
        match std::env::var("STGNN_SCALE").as_deref() {
            Ok("full") | Ok("FULL") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// The Chicago-like city at this scale.
    pub fn chicago_city(self) -> CityConfig {
        match self {
            Scale::Full => CityConfig::chicago_like(),
            Scale::Quick => CityConfig {
                name: "chicago-like".into(),
                n_stations: 28,
                days: 14,
                slots_per_day: 48,
                seed: 0xC41CA60,
                trips_per_station_day: 20.0,
                bike_speed_kmh: 9.0,
                radius_km: 6.0,
            },
        }
    }

    /// The Los-Angeles-like city at this scale.
    pub fn la_city(self) -> CityConfig {
        match self {
            Scale::Full => CityConfig::los_angeles_like(),
            Scale::Quick => CityConfig {
                name: "la-like".into(),
                n_stations: 16,
                days: 14,
                slots_per_day: 48,
                seed: 0x10A276,
                trips_per_station_day: 8.5,
                bike_speed_kmh: 9.0,
                radius_km: 5.0,
            },
        }
    }

    /// Dataset windows at this scale.
    pub fn dataset_config(self) -> DatasetConfig {
        match self {
            Scale::Full => DatasetConfig::paper(),
            Scale::Quick => DatasetConfig::small(48, 3),
        }
    }

    /// STGNN-DJD configuration at this scale.
    pub fn stgnn_config(self) -> StgnnConfig {
        match self {
            Scale::Full => StgnnConfig::paper(),
            Scale::Quick => StgnnConfig::quick(48, 3),
        }
    }

    /// Baseline configuration at this scale.
    pub fn baseline_config(self) -> BaselineConfig {
        match self {
            Scale::Full => BaselineConfig {
                n_lags: 12,
                n_days: 7,
                hidden: 64,
                epochs: 40,
                batch_size: 32,
                learning_rate: 0.005,
                patience: 5,
                max_batches_per_epoch: None,
                seed: 7,
            },
            Scale::Quick => BaselineConfig::default(),
        }
    }
}

/// The two evaluation datasets at a given scale.
pub struct ExperimentContext {
    /// The selected scale.
    pub scale: Scale,
    /// Chicago-like dataset.
    pub chicago: BikeDataset,
    /// Los-Angeles-like dataset.
    pub los_angeles: BikeDataset,
}

impl ExperimentContext {
    /// Generates both cities and wraps them as datasets.
    pub fn new(scale: Scale) -> Result<Self> {
        let chicago = BikeDataset::from_city(
            &SyntheticCity::generate(scale.chicago_city()),
            scale.dataset_config(),
        )?;
        let los_angeles = BikeDataset::from_city(
            &SyntheticCity::generate(scale.la_city()),
            scale.dataset_config(),
        )?;
        let ctx = ExperimentContext {
            scale,
            chicago,
            los_angeles,
        };
        ctx.surface_tape_diagnostics();
        Ok(ctx)
    }

    /// Runs the pre-execution tape validator over the STGNN-DJD inference
    /// tape on each dataset and prints any `Warn` diagnostics to stderr, so
    /// every bench binary surfaces analyzer findings at startup — before an
    /// experiment spends CPU-hours training on a degenerate configuration.
    fn surface_tape_diagnostics(&self) {
        for (name, data) in self.datasets() {
            let model = match StgnnDjd::new(self.scale.stgnn_config(), data.n_stations()) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("[analyze] {name}: model construction failed: {e}");
                    continue;
                }
            };
            match model.validate_inference_tape(data, data.first_valid_slot()) {
                Ok(report) => {
                    eprintln!("[analyze] {name}: {}", report.summary());
                    for d in report.at(Severity::Warn) {
                        eprintln!("[analyze] {name}: {d}");
                    }
                }
                Err(e) => eprintln!("[analyze] {name}: tape probe failed: {e}"),
            }
        }
    }

    /// `[("Chicago", &chicago), ("Los Angeles", &la)]` for table loops.
    pub fn datasets(&self) -> [(&'static str, &BikeDataset); 2] {
        [
            ("Chicago", &self.chicago),
            ("Los Angeles", &self.los_angeles),
        ]
    }
}

/// One fitted-and-evaluated cell plus wall-clock accounting.
pub struct EvalOutcome {
    /// The metric row (mean±std RMSE/MAE across slots).
    pub metrics: MetricsRow,
    /// Training wall time.
    pub fit_time: Duration,
    /// Total prediction wall time over the evaluated slots.
    pub predict_time: Duration,
    /// Slots evaluated.
    pub n_slots: usize,
}

/// Fits `predictor` and evaluates it over `slots`.
pub fn run_fit_eval(
    predictor: &mut dyn DemandSupplyPredictor,
    data: &BikeDataset,
    slots: &[usize],
) -> Result<EvalOutcome> {
    let t0 = Instant::now();
    predictor.fit(data)?;
    let fit_time = t0.elapsed();
    let t1 = Instant::now();
    let metrics = evaluate(predictor, data, slots);
    let predict_time = t1.elapsed();
    Ok(EvalOutcome {
        metrics,
        fit_time,
        predict_time,
        n_slots: slots.len(),
    })
}

/// Constructors for every Table I predictor, in the paper's row order.
pub mod zoo {
    use super::*;

    /// A named predictor factory (models are per-dataset because the graph
    /// models bind to station geometry at fit time and STGNN-DJD sizes its
    /// parameters by `n`).
    pub type Factory = (
        &'static str,
        fn(&BikeDataset, Scale) -> Box<dyn DemandSupplyPredictor>,
    );

    fn ha(_: &BikeDataset, _: Scale) -> Box<dyn DemandSupplyPredictor> {
        Box::new(HistoricalAverage::new())
    }
    fn arima(_: &BikeDataset, _: Scale) -> Box<dyn DemandSupplyPredictor> {
        Box::new(Arima::paper())
    }
    fn xgboost(_: &BikeDataset, scale: Scale) -> Box<dyn DemandSupplyPredictor> {
        Box::new(GradientBoostedTrees::new(
            scale.baseline_config(),
            Default::default(),
        ))
    }
    fn mlp(_: &BikeDataset, scale: Scale) -> Box<dyn DemandSupplyPredictor> {
        Box::new(Mlp::new(scale.baseline_config()))
    }
    fn rnn(_: &BikeDataset, scale: Scale) -> Box<dyn DemandSupplyPredictor> {
        Box::new(RnnPredictor::new(scale.baseline_config()))
    }
    fn lstm(_: &BikeDataset, scale: Scale) -> Box<dyn DemandSupplyPredictor> {
        Box::new(LstmPredictor::new(scale.baseline_config()))
    }
    fn gcnn(_: &BikeDataset, scale: Scale) -> Box<dyn DemandSupplyPredictor> {
        Box::new(Gcnn::new(scale.baseline_config()))
    }
    fn mgnn(_: &BikeDataset, scale: Scale) -> Box<dyn DemandSupplyPredictor> {
        Box::new(Mgnn::new(scale.baseline_config()))
    }
    fn astgcn(_: &BikeDataset, scale: Scale) -> Box<dyn DemandSupplyPredictor> {
        Box::new(Astgcn::new(scale.baseline_config()))
    }
    fn stsgcn(_: &BikeDataset, scale: Scale) -> Box<dyn DemandSupplyPredictor> {
        Box::new(Stsgcn::new(scale.baseline_config()))
    }
    fn gbike(_: &BikeDataset, scale: Scale) -> Box<dyn DemandSupplyPredictor> {
        Box::new(GBike::new(scale.baseline_config()))
    }
    fn stgnn_djd(data: &BikeDataset, scale: Scale) -> Box<dyn DemandSupplyPredictor> {
        Box::new(StgnnDjd::new(scale.stgnn_config(), data.n_stations()).expect("valid config"))
    }

    /// All twelve Table I rows.
    pub fn all() -> Vec<Factory> {
        vec![
            ("HA", ha),
            ("ARIMA", arima),
            ("XGBoost", xgboost),
            ("MLP", mlp),
            ("RNN", rnn),
            ("LSTM", lstm),
            ("GCNN", gcnn),
            ("MGNN", mgnn),
            ("ASTGCN", astgcn),
            ("STSGCN", stsgcn),
            ("GBike", gbike),
            ("STGNN-DJD", stgnn_djd),
        ]
    }

    /// The deep-learning subset compared in Table II (rush hours).
    pub fn deep() -> Vec<Factory> {
        vec![
            ("GCNN", gcnn),
            ("MGNN", mgnn),
            ("ASTGCN", astgcn),
            ("STSGCN", stsgcn),
            ("GBike", gbike),
            ("STGNN-DJD", stgnn_djd),
        ]
    }
}

/// Console table + CSV writer.
pub struct TableWriter {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableWriter {
    /// Starts a table with the given title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        TableWriter {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders an aligned console table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.columns, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints the table and writes `results/<file>.csv`.
    pub fn finish(&self, file: &str) {
        println!("{}", self.render());
        if let Err(e) = self.write_csv(file) {
            eprintln!("warning: could not write results/{file}.csv: {e}");
        }
    }

    fn write_csv(&self, file: &str) -> std::io::Result<()> {
        std::fs::create_dir_all("results")?;
        // Atomic: a crash (or an injected fault) mid-write never leaves a
        // half-written results file for a later run to misread.
        stgnn_faults::fsio::atomic_write(format!("results/{file}.csv"), |f| {
            writeln!(f, "{}", self.columns.join(","))?;
            for row in &self.rows {
                writeln!(f, "{}", row.join(","))?;
            }
            Ok(())
        })
    }
}

/// Renders a simple ASCII line chart of `(x, y)` points (used by the
/// hyperparameter-sweep figures).
pub fn ascii_chart(title: &str, series: &[(&str, Vec<(f32, f32)>)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n-- {title} --");
    for (name, points) in series {
        let _ = write!(out, "{name:>10}: ");
        for (x, y) in points {
            let _ = write!(out, "({x:.0}, {y:.3}) ");
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_defaults_quick() {
        std::env::remove_var("STGNN_SCALE");
        assert_eq!(Scale::from_env(), Scale::Quick);
    }

    #[test]
    fn quick_context_builds() {
        let ctx = ExperimentContext::new(Scale::Quick).unwrap();
        assert_eq!(ctx.chicago.n_stations(), 28);
        assert_eq!(ctx.los_angeles.n_stations(), 16);
        assert!(!ctx.chicago.slots(stgnn_data::Split::Test).is_empty());
    }

    #[test]
    fn zoo_has_twelve_rows_in_paper_order() {
        let names: Vec<&str> = zoo::all().iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), 12);
        assert_eq!(names[0], "HA");
        assert_eq!(names[11], "STGNN-DJD");
        assert_eq!(zoo::deep().len(), 6);
    }

    #[test]
    fn table_writer_renders_and_aligns() {
        let mut t = TableWriter::new("Demo", &["Method", "RMSE"]);
        t.row(&["HA".into(), "3.81".into()]);
        t.row(&["STGNN-DJD".into(), "1.18".into()]);
        let s = t.render();
        assert!(s.contains("Demo"));
        assert!(s.contains("STGNN-DJD"));
        assert!(s.contains("Method"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_writer_rejects_ragged_rows() {
        let mut t = TableWriter::new("Demo", &["A", "B"]);
        t.row(&["only one".into()]);
    }
}
