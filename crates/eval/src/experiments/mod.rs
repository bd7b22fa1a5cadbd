//! One runner per table/figure of the paper's evaluation (§5), one module
//! per experiment id `fsim-exp list` prints.

pub mod efficiency;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod incremental;
pub mod table2;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7_8;
pub mod table9;

use crate::opts::ExpOpts;
use crate::report::Report;

/// All experiment ids: the paper's tables/figures in paper order, then
/// the beyond-the-paper serve-side experiments.
pub const ALL_IDS: [&str; 17] = [
    "table2",
    "table4",
    "table5",
    "fig4a",
    "fig4b",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9a",
    "fig9b",
    "table6",
    "table7",
    "table8",
    "table9",
    "eff",
    "incremental",
];

/// Runs one experiment by id; returns its reports (some ids produce two
/// sub-figures). `None` for unknown ids.
pub fn run(id: &str, opts: &ExpOpts) -> Option<Vec<Report>> {
    let reports = match id {
        "table2" => vec![table2::run(opts)],
        "table4" => vec![table4::run(opts)],
        "table5" => vec![table5::run(opts)],
        "fig4a" => vec![fig4::run_theta(opts)],
        "fig4b" => vec![fig4::run_wstar(opts)],
        "fig4" => vec![fig4::run_theta(opts), fig4::run_wstar(opts)],
        "fig5" => fig5::run(opts),
        "fig6" => fig6::run(opts),
        "fig7" => vec![fig7::run(opts)],
        "fig8" => vec![fig8::run(opts)],
        "fig9a" => vec![fig9::run_threads(opts)],
        "fig9b" => vec![fig9::run_density(opts)],
        "fig9" => vec![fig9::run_threads(opts), fig9::run_density(opts)],
        "table6" => vec![table6::run(opts)],
        "table7" => vec![table7_8::run_table7(opts)],
        "table8" => vec![table7_8::run_table8(opts)],
        "table9" => vec![table9::run(opts)],
        "eff" => vec![efficiency::run(opts)],
        "incremental" => vec![incremental::run(opts)],
        _ => return None,
    };
    Some(reports)
}
