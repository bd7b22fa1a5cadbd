//! Table 4: dataset statistics — the paper's original numbers side by side
//! with the generated surrogates, documenting the down-scaling.

use crate::opts::ExpOpts;
use crate::report::Report;
use fsim_datasets::TABLE4;
use fsim_graph::GraphStats;

/// Regenerates Table 4 (original vs surrogate statistics).
pub fn run(opts: &ExpOpts) -> Report {
    let mut report = Report::new(
        "table4",
        "Dataset statistics: paper original vs generated surrogate",
        &[
            "dataset",
            "|V| paper",
            "|V| ours",
            "|E| paper",
            "|E| ours",
            "|Sigma| ours",
            "d",
            "D+",
            "D-",
        ],
    );
    for spec in &TABLE4 {
        let g = spec.generate_scaled(0.5 * opts.scale, opts.seed);
        let s = GraphStats::of(&g);
        report.row(vec![
            spec.name.to_string(),
            spec.nodes.to_string(),
            s.nodes.to_string(),
            spec.edges.to_string(),
            s.edges.to_string(),
            s.labels.to_string(),
            format!("{:.1}", s.avg_degree),
            s.max_out_degree.to_string(),
            s.max_in_degree.to_string(),
        ]);
    }
    report.note("surrogates are preferential-attachment digraphs with Zipf labels");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_all_eight_rows() {
        let mut opts = ExpOpts::quick();
        opts.scale = 0.1;
        let r = run(&opts);
        assert_eq!(r.rows.len(), 8);
        for (ri, row) in r.rows.iter().enumerate() {
            let ours: usize = r.parse_cell(ri, 2).unwrap_or_else(|e| panic!("{e}"));
            let paper: usize = r.parse_cell(ri, 1).unwrap_or_else(|e| panic!("{e}"));
            assert!(ours <= paper, "{}: surrogate bigger than original?", row[0]);
        }
    }
}
