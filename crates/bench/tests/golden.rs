//! Every entry of the oracle registry against its committed golden file,
//! byte for byte: one test per table, so they run in parallel, and the
//! checksum rows three times — at worker budget 1, at budget 4, and at
//! budget 4 under an `obs::Recorder` — each against the golden rows of the
//! kernel class this process runs.
//!
//! The golden files are written by the release build of `exp` and compared
//! here in whatever profile the tests run in, so a passing run also shows
//! that the two profiles agree bitwise.  On a mismatch the test names the
//! table, shows the first differing lines and the one command that rewrites
//! the file; a change that moves a cell on purpose runs it, and the golden
//! file's diff is the review.

/// Compare `got` with the golden file `file` (its contents `golden`) of the
/// entry `name`.
fn check(name: &str, file: &str, golden: &str, got: &str) {
    if got == golden {
        return;
    }
    let (want, have): (Vec<_>, Vec<_>) = (golden.lines().collect(), got.lines().collect());
    let differing: Vec<String> = (0..want.len().max(have.len()))
        .filter(|&i| want.get(i) != have.get(i))
        .take(6)
        .map(|i| {
            let line = |l: Option<&&str>| l.map_or("(no line)".to_string(), |l| l.to_string());
            format!(
                "  line {}:\n    golden: {}\n    got:    {}",
                i + 1,
                line(want.get(i)),
                line(have.get(i))
            )
        })
        .collect();
    let env = match file.contains("portable") {
        true => "DENSE_FORCE_SCALAR=1 ",
        false => "",
    };
    panic!(
        "{name} differs from crates/bench/golden/{file} ({} lines, {} expected); \
         first differing lines:\n{}\n\
         if the change is meant, regenerate the file and review its diff:\n  \
         {env}cargo run --release -p bench --bin exp -- {name} > crates/bench/golden/{file}",
        have.len(),
        want.len(),
        differing.join("\n")
    );
}

macro_rules! tables {
    ($($name:ident),* $(,)?) => {
        /// Every table with a test below, in registry order.
        const TABLES: &[&str] = &[$(stringify!($name)),*];
        $(
            #[test]
            fn $name() {
                let name = stringify!($name);
                let got = harness::entry(name).expect("a registered entry");
                let golden = include_str!(concat!("../golden/", stringify!($name), ".csv"));
                check(name, &format!("{name}.csv"), golden, &got);
            }
        )*
    };
}

tables!(
    collectives,
    mm_table,
    rec_trsm,
    inversion,
    inversion_scaling,
    itinv_breakdown,
    tuning,
    tuning_simulated,
    conclusion_table,
    conclusion_paper_scale,
    figure1,
    figure1_moves,
    ablation_n0,
    ablation_grid,
    op_costs,
);

#[test]
fn every_entry_is_tested() {
    let registered = harness::ENTRIES.map(|(name, _)| name);
    assert_eq!(registered[..TABLES.len()], *TABLES);
    assert_eq!(registered[TABLES.len()..], ["determinism"]);
}

/// The checksum rows `got` against the golden rows of this process's
/// kernel class.
fn check_checksums(got: &str) {
    let class = dense::kernel_class();
    let file = format!("determinism.{class}.txt");
    let golden = match class {
        "avx2_fma" => include_str!("../golden/determinism.avx2_fma.txt"),
        "portable" => include_str!("../golden/determinism.portable.txt"),
        other => panic!(
            "no golden checksum rows for kernel class {other}; write them with\n  \
             cargo run --release -p bench --bin exp -- determinism > crates/bench/golden/{file}\n\
             and add the file to this test"
        ),
    };
    check("determinism", &file, golden, got);
}

#[test]
fn determinism_at_one_worker() {
    check_checksums(&harness::checksums(1));
}

#[test]
fn determinism_at_four_workers() {
    check_checksums(&harness::checksums(4));
}

#[test]
fn determinism_at_four_workers_traced() {
    let recorder = obs::Recorder::new();
    let got = recorder.record(|| harness::checksums(4));
    assert!(
        !recorder.dump().is_empty(),
        "the traced run must record events"
    );
    check_checksums(&got);
}
