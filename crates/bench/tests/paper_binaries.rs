//! The paper's figure and table binaries print the modelled numbers, so a
//! change that must not move one leaves their stdout byte-identical. Each
//! test runs one binary and compares its stdout with its golden file in
//! `tests/golden/`.
//!
//! A change that does move a printed number rewrites the file from the
//! binary itself and explains every moved line in CHANGES.md:
//!
//! ```bash
//! cargo run --release -p sne_bench --bin fig4_area > crates/bench/tests/golden/fig4_area.txt
//! ```

use std::path::Path;
use std::process::Command;

/// Runs `binary` and compares its stdout with `tests/golden/<name>.txt`,
/// reporting the first line that differs.
fn matches_golden(name: &str, binary: &str) {
    let output = Command::new(binary).output().expect("the binary starts");
    assert!(
        output.status.success(),
        "{name} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    let golden = std::fs::read_to_string(&path).expect("the golden file is readable");
    let printed = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    if printed != golden {
        let (line, (want, got)) = golden
            .lines()
            .chain(std::iter::repeat(""))
            .zip(printed.lines().chain(std::iter::repeat("")))
            .enumerate()
            .find(|(_, (want, got))| want != got)
            .expect("outputs that differ differ on some line");
        panic!(
            "{name} stdout differs from {} at line {}:\n  golden:  {want:?}\n  printed: {got:?}",
            path.display(),
            line + 1
        );
    }
}

macro_rules! golden_tests {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                matches_golden(
                    stringify!($name),
                    env!(concat!("CARGO_BIN_EXE_", stringify!($name))),
                );
            }
        )*
    };
}

golden_tests!(
    fig4_area,
    fig5a_power,
    fig5b_perf_energy,
    table1_accuracy_energy,
    table2_soa,
    proportionality,
    activity_sweep,
    ablation_report,
    mapping_modes,
    dse_report,
);
