#![warn(missing_docs)]

//! Shared plumbing for the `bdc-bench` binaries.
//!
//! The experiments themselves live in `bdc_core::registry`; the `bdc`
//! binary is the CLI over that catalogue (`bdc list`, `bdc run fig12
//! --quick`, `bdc run --all`). Pass `--quick` to use a reduced simulation
//! budget for smoke runs.

use bdc_core::experiments::SimBudget;

/// True when the invocation asked for the reduced budget.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The simulation budget implied by the command line.
pub fn budget() -> SimBudget {
    if quick_mode() {
        SimBudget::quick()
    } else {
        SimBudget::standard()
    }
}

/// Prints a standard report header (registry nodes render their headers
/// from node metadata instead).
pub fn header(id: &str, what: &str) {
    println!("== {id}: {what} ==");
    if quick_mode() {
        println!("   (quick mode: reduced simulation budget)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_is_positive() {
        let b = budget();
        assert!(b.outer > 0 && b.instructions > 0);
    }
}
