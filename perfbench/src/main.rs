//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a one-line JSON report (provenance, per-operation latency
//! summaries, metrics under their workload-specific names) and, as the
//! last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. Exits non-zero when
//! any result check failed.

use perfbench::alloc::CountingAlloc;
use perfbench::bed::Scale;
use perfbench::run::{result_line, run, RunConfig};
use perfbench::workloads::WorkloadName;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = WorkloadName::ALL.iter().map(|w| w.as_str()).collect();
    eprintln!(
        "perfbench: {problem}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> \
         --trace <0|1>",
        names.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadName::parse(value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let outcome = run(&RunConfig {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::full(),
    });
    for failure in &outcome.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!("{}", outcome.report);
    println!("{}", result_line(&outcome));
    if !outcome.correct {
        std::process::exit(1);
    }
}
