//! **FIG2-L / FIG2-R** — regenerates both panels of Figure 2 of the
//! MORENA paper: lines of code per RFID subproblem for the handcrafted
//! and MORENA implementations of the WiFi-sharing application, and the
//! percentage each subproblem contributes.
//!
//! The counts come from machine-readable `@loc` annotations in the two
//! application sources (`morena-apps`), parsed by `morena_apps::loc` —
//! the code measured is exactly the code the test suite runs.
//!
//! Paper reference: handcrafted total 197, MORENA total 36 ("a reduction
//! by a factor 5"), MORENA concurrency = 0, MORENA dominated by event
//! handling. Absolute numbers differ (different language, different
//! platform analog); the shape is the claim under reproduction.

use std::process::ExitCode;

use morena_apps::loc::{handcrafted_wifi_report, morena_wifi_report, Subproblem};
use morena_bench::{cell, print_table, BenchReport};

fn main() -> ExitCode {
    let handcrafted = handcrafted_wifi_report();
    let morena = morena_wifi_report();
    let mut report = BenchReport::new("fig2_loc");

    let mut rows = Vec::new();
    for subproblem in Subproblem::ALL {
        rows.push(vec![
            cell(subproblem),
            cell(handcrafted.count(subproblem)),
            cell(morena.count(subproblem)),
        ]);
    }
    rows.push(vec![cell("TOTAL"), cell(handcrafted.total()), cell(morena.total())]);
    print_table(
        "Figure 2 (left): RFID-related lines of code per subproblem",
        &["subproblem", "handcrafted", "MORENA"],
        &rows,
    );
    println!(
        "reduction factor: {:.1}x   (paper: 197 vs 36, factor ~5.5x)",
        handcrafted.total() as f64 / morena.total() as f64
    );

    let mut rows = Vec::new();
    for subproblem in Subproblem::ALL {
        rows.push(vec![
            cell(subproblem),
            cell(format!("{:.1}%", handcrafted.percentage(subproblem))),
            cell(format!("{:.1}%", morena.percentage(subproblem))),
        ]);
    }
    print_table(
        "Figure 2 (right): share of each subproblem in the total",
        &["subproblem", "handcrafted", "MORENA"],
        &rows,
    );

    report.metric("handcrafted_total_loc", handcrafted.total() as f64);
    report.metric("morena_total_loc", morena.total() as f64);
    report.metric("reduction_factor", handcrafted.total() as f64 / morena.total() as f64);
    report.metric("morena_concurrency_loc", morena.count(Subproblem::Concurrency) as f64);

    // The paper's qualitative observations, checked mechanically.
    let mut failed = false;
    if morena.count(Subproblem::Concurrency) != 0 {
        eprintln!("fig2_loc: FAIL: MORENA must need no concurrency management");
        failed = true;
    }
    let dominant = Subproblem::ALL
        .into_iter()
        .max_by(|a, b| morena.percentage(*a).total_cmp(&morena.percentage(*b)))
        .expect("nonempty");
    if dominant != Subproblem::EventHandling {
        eprintln!("fig2_loc: FAIL: MORENA's share must be dominated by event handling");
        failed = true;
    }
    for subproblem in Subproblem::ALL {
        if handcrafted.count(subproblem) < morena.count(subproblem) {
            eprintln!("fig2_loc: FAIL: {subproblem} got cheaper in the handcrafted version");
            failed = true;
        }
    }
    report.metric("failed", if failed { 1.0 } else { 0.0 });
    report.write().expect("write BENCH_fig2_loc.json");
    if failed {
        return ExitCode::FAILURE;
    }
    println!(
        "\nshape checks passed: concurrency=0 for MORENA; event handling dominates MORENA; \
         no subproblem is cheaper handcrafted."
    );
    ExitCode::SUCCESS
}
