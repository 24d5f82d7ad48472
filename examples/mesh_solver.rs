//! Unstructured-mesh solver: original versus geometric reordering.
//!
//! Runs the Unstructured CFD kernel over the synthetic ~10k-node mesh with three node
//! orderings — the original random order, column and Hilbert — and reports the mean
//! edge index span, the DSM traffic of a traced sweep, and the wall-clock time of ten
//! sharded sweeps on 16 virtual processors (accesses discarded into a `NullSink`).
//!
//! Run with: `cargo run --release --example mesh_solver`

use datareorder::dsm::{DsmConfig, TreadMarksSim};
use datareorder::reorder::Method;
use datareorder::smtrace::NullSink;
use datareorder::unstructured::{Unstructured, UnstructuredParams};
use std::time::Instant;

fn edge_span(app: &Unstructured) -> f64 {
    app.edges.iter().map(|&(a, b)| (f64::from(a) - f64::from(b)).abs()).sum::<f64>()
        / app.edges.len() as f64
}

#[cfg_attr(test, allow(dead_code))]
fn main() {
    run(10_000, 10);
}

/// The whole comparison at a given mesh size and sweep count.
fn run(target_nodes: usize, sweeps: usize) {
    println!("Unstructured mesh solver, ~{target_nodes} nodes (mesh.10k stand-in)\n");
    println!(
        "{:<10} {:>14} {:>14} {:>12} {:>12}",
        "ordering", "edge span", "TMk messages", "TMk MB", "10 sweeps (s)"
    );
    for (label, method) in
        [("original", None), ("column", Some(Method::Column)), ("hilbert", Some(Method::Hilbert))]
    {
        let mut app = Unstructured::generated(target_nodes, 21, UnstructuredParams::default());
        if let Some(method) = method {
            app.reorder(method);
        }
        let span = edge_span(&app);
        let trace = app.trace_sweeps(1, 16);
        let tmk = TreadMarksSim::new(DsmConfig::cluster(16)).run(&trace);
        let t0 = Instant::now();
        app.stream_sweeps(sweeps, &mut NullSink::new(16));
        let wall = t0.elapsed().as_secs_f64();
        println!(
            "{label:<10} {span:>14.1} {:>14} {:>12.2} {wall:>12.3}",
            tmk.stats.messages,
            tmk.stats.data_mbytes()
        );
    }
    println!("\nBoth reorderings shrink the edge span and the DSM traffic relative to the");
    println!("original random order; column is the paper's recommendation for this Category-2");
    println!("application on page-based DSM.");
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke() {
        super::run(512, 1);
    }
}
