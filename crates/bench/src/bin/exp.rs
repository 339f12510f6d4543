//! Prints one entry of the oracle registry by name: `exp NAME` writes that
//! table's CSV (or the checksum rows) to stdout, the exact bytes of its
//! golden file under `crates/bench/golden/`.  With no argument it lists the
//! names.
//!
//! ```text
//! cargo run --release -p bench --bin exp -- conclusion_table
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let names = harness::ENTRIES.map(|(name, _)| name).join("\n");
    let Some(name) = std::env::args().nth(1) else {
        println!("{names}");
        return ExitCode::SUCCESS;
    };
    match harness::entry(&name) {
        Some(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("no entry {name}; the entries are:\n{names}");
            ExitCode::FAILURE
        }
    }
}
