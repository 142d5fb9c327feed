#![warn(missing_docs)]

//! Shared plumbing for the `bdc-bench` binaries.
//!
//! The experiments themselves live in `bdc_core::registry`; the `bdc`
//! binary is the CLI over that catalogue (`bdc list`, `bdc run fig12
//! --quick`, `bdc run --all`). Pass `--quick` to use a reduced simulation
//! budget for smoke runs.

/// True when the invocation asked for the reduced budget.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Prints a standard report header (registry nodes render their headers
/// from node metadata instead).
pub fn header(id: &str, what: &str) {
    println!("== {id}: {what} ==");
    if quick_mode() {
        println!("   (quick mode: reduced simulation budget)");
    }
}
