//! `paper` — print the paper's artifacts: Table 1, Figures 1 and 2,
//! Theorems 2, 5, 6, 7 and 8, the §5 CAS time/space trade-off and the
//! write-quorum ablation.
//!
//! ```text
//! cargo run --release -p regemu-bench --bin paper -- [ARTIFACT..] [--full]
//!
//! ARTIFACTS (default: every one, each under a `== NAME ==` line):
//!   table1 figure1 figure2_coverage theorem2_maxreg theorem5_partition
//!   theorem6_per_server theorem7_bounded_storage theorem8_contention
//!   cas_time_complexity ablation_quorum
//!
//! OPTIONS:
//!   --full   Table 1 over the standard sweep instead of the small one
//! ```
//!
//! One artifact prints bare; several print each under its `== NAME ==`
//! line. The data behind each artifact comes from one function of
//! `regemu_bench::experiments` (the crate docs map artifacts to functions);
//! this binary only prints it. Every artifact but `cas_time_complexity`,
//! whose retry counts depend on how its threads interleave, prints the same
//! bytes on every run (`tests/golden/paper_artifacts.txt`).
//!
//! Exit status: `0` on success, `2` on an unknown argument.

use regemu_bench::experiments::{
    ablation_write_quorum, cas_time_complexity, figure1, figure2_coverage, table1,
    theorem2_max_register, theorem5_partition, theorem6_per_server, theorem7_bounded_storage,
    theorem8_contention,
};
use regemu_bounds::{register_lower_bound, register_upper_bound, Params};
use regemu_workloads::{small_sweep, standard_sweep};

fn params(k: usize, f: usize, n: usize) -> Params {
    Params::new(k, f, n).expect("valid parameters")
}

/// Prints one artifact; the argument is `--full`, which only `table1` reads.
type Print = fn(bool);

/// Every artifact in the crate docs' order, by name.
const ARTIFACTS: [(&str, Print); 10] = [
    ("table1", |full| {
        let sweep = if full {
            standard_sweep()
        } else {
            small_sweep()
        };
        println!("{}", table1(&sweep));
        println!(
            "Closed-form bounds (Table 1):\n  max-register: 2f+1   CAS: 2f+1\n  \
             read/write register: lower kf + ceil(kf/(n-(f+1)))*(f+1), \
             upper kf + ceil(k/floor((n-(f+1))/f))*(f+1)"
        );
    }),
    // The paper's own layout (n = 6, k = 5, f = 2), then two with more
    // servers, showing how the register sets shrink.
    ("figure1", |_| {
        for (k, f, n) in [(5, 2, 6), (5, 2, 9), (5, 2, 16)] {
            println!("{}", figure1(params(k, f, n)));
        }
    }),
    ("figure2_coverage", |_| {
        for (k, f, n) in [(4, 1, 3), (6, 1, 4), (4, 2, 6)] {
            let params = params(k, f, n);
            println!("{}", figure2_coverage(params));
            println!(
                "paper bounds at {params}: lower = {}, upper = {}\n",
                register_lower_bound(params),
                register_upper_bound(params)
            );
        }
    }),
    ("theorem2_maxreg", |_| {
        println!("{}", theorem2_max_register(&[1, 2, 4, 8, 16, 32, 64]));
    }),
    ("theorem5_partition", |_| {
        println!("{}", theorem5_partition(&[1, 2, 3, 4]));
    }),
    ("theorem6_per_server", |_| {
        for f in [1, 2] {
            println!("{}\n", theorem6_per_server(&[1, 2, 3, 4, 6], f));
        }
    }),
    ("theorem7_bounded_storage", |_| {
        for (k, f) in [(4, 1), (6, 1), (4, 2)] {
            println!("{}\n", theorem7_bounded_storage(k, f, &[1, 2, 3, 4, 8]));
        }
    }),
    ("theorem8_contention", |_| {
        for (k, f, n) in [(8, 1, 3), (6, 2, 5)] {
            println!("{}\n", theorem8_contention(params(k, f, n)));
        }
    }),
    ("cas_time_complexity", |_| {
        println!("{}", cas_time_complexity(&[1, 2, 4, 8], 20_000));
        println!(
            "(a native max-register performs exactly 1 operation per write-max, \
             independent of concurrency)"
        );
    }),
    ("ablation_quorum", |_| {
        println!(
            "{}",
            ablation_write_quorum(&[(1, 1, 3), (3, 1, 3), (2, 1, 4), (1, 2, 5), (2, 2, 7)])
        );
        println!(
            "slack 0 is the paper's algorithm; the positive-slack rows skip the \
             (z-1)*f + 1 acknowledgement margin that keeps the latest value visible."
        );
    }),
];

fn main() {
    let mut full = false;
    let mut chosen = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--full" {
            full = true;
        } else if let Some(artifact) = ARTIFACTS.iter().find(|(name, _)| *name == arg) {
            chosen.push(artifact);
        } else {
            let names: Vec<_> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
            eprintln!("paper: unknown argument {arg:?}");
            eprintln!("usage: paper [ARTIFACT..] [--full]");
            eprintln!("artifacts: {}", names.join(" "));
            std::process::exit(2);
        }
    }
    if chosen.is_empty() {
        chosen.extend(&ARTIFACTS);
    }
    let headed = chosen.len() > 1;
    for (name, print) in chosen {
        if headed {
            println!("== {name} ==");
        }
        print(full);
    }
}
