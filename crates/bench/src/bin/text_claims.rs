//! Checks the paper's eight Section V **in-text claims** against freshly
//! computed Figure 3/4 sweeps: logical qubit count and logical operation
//! count of the windowed algorithm at 2 048 bits, the code distances, the
//! cross-profile runtime and rQOPS ranges, and the qualitative Karatsuba
//! statements. Exits 1 if any claim deviates; CI runs it, and
//! `tests/paper_claims.rs` asserts the same checks in tier-1.
//!
//! ```text
//! cargo run -p qre-bench --bin text_claims --release
//! ```

use qre_bench::{fig3_series, fig4_series, format_claims, text_claims, write_artifact};
use std::io::Write as _;

fn main() {
    let start = std::time::Instant::now();
    let fig3 = fig3_series();
    let fig4 = fig4_series();
    let checks = text_claims(&fig3, &fig4);

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = writeln!(out, "Section V in-text claims — paper vs. measured\n");
    let report = format_claims(&checks);
    let _ = write!(out, "{report}");
    let passed = checks.iter().filter(|c| c.ok).count();
    let _ = writeln!(out, "\n{passed}/{} claims reproduced", checks.len());
    if let Ok(path) = write_artifact("text_claims.txt", &report) {
        let _ = writeln!(out, "report written to {}", path.display());
    }
    let _ = writeln!(out, "completed in {:.1?}", start.elapsed());
    if passed < checks.len() {
        std::process::exit(1);
    }
}
