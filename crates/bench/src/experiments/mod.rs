//! One module per reproduced table/figure.

pub mod ablation;
pub mod fig2;
pub mod fig3;
pub mod fig45;
pub mod ingest_spill;
pub mod offline_tables;
pub mod runtime;
pub mod rvaq_accuracy;
pub mod sim;
pub mod table3;
pub mod table4;
pub mod table5;

use std::path::PathBuf;

/// Shared experiment context.
#[derive(Debug, Clone)]
pub struct ExpContext {
    /// Workload scale: 1.0 = the paper's footage (Table 1 minutes, Table 2
    /// runtimes). Smaller scales shrink videos proportionally.
    pub scale: f64,
    /// Master seed; every workload derives deterministically from it.
    pub seed: u64,
    /// Where result text files are written.
    pub out_dir: PathBuf,
}

impl Default for ExpContext {
    fn default() -> Self {
        Self {
            scale: 0.3,
            seed: 42,
            out_dir: PathBuf::from("results"),
        }
    }
}

impl ExpContext {
    /// Persist one experiment's report and echo it to stdout.
    pub fn emit(&self, name: &str, report: &str) {
        println!("== {name} ==\n{report}");
        if std::fs::create_dir_all(&self.out_dir).is_ok() {
            let _ = std::fs::write(self.out_dir.join(format!("{name}.txt")), report);
        }
    }
}

/// An experiment entry point.
pub type ExperimentFn = fn(&ExpContext);

/// The registry of runnable experiments, in paper order.
pub const EXPERIMENTS: &[(&str, ExperimentFn)] = &[
    ("fig2", fig2::run),
    ("fig3", fig3::run),
    ("table3", table3::run),
    ("table4", table4::run),
    ("table5", table5::run),
    ("fig4", fig45::run_fig4),
    ("fig5", fig45::run_fig5),
    ("runtime", runtime::run),
    ("table6", offline_tables::run_table6),
    ("table7", offline_tables::run_table7),
    ("table8", offline_tables::run_table8),
    ("rvaq-accuracy", rvaq_accuracy::run),
    ("ablation", ablation::run),
    ("ingest-spill", ingest_spill::run),
    ("sim", sim::run),
];
