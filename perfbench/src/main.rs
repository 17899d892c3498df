//! Benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ckpt-steady|engine-million|chaos-recover|trace-inspect> \
//!     --seed <n> --seconds <s> --trace <0|1> [--scale <f>] [--out-dir <dir>]
//! ```
//!
//! Repeats the workload's measured step for `--seconds`, checks every
//! output, and prints the run record, a metric table and, as the last line,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! separate layer-span run with `--trace 1`. Exits 1 when a correctness
//! check fails and 2 on a usage error. `--scale` shrinks every input (for
//! the benchmark's own tests). The run record, and with `--trace 1` the
//! layer table and the encoded spans, are also written under `--out-dir`
//! (default `.perfbench_out`).

use canary_perfbench::workloads::{Sizes, Workload};
use canary_perfbench::{result_json, run_benchmark, Options};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--scale <f>] [--out-dir <dir>]",
        Workload::ALL.map(|w| w.name()).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // The benchmark measures the shipping flush and cache policy only.
    for var in ["CANARY_NO_WAL", "CANARY_NO_DB_CACHE"] {
        if std::env::var_os(var).is_some() {
            eprintln!("perfbench: {var} is set; unset it to measure the default durability and cache path");
            return ExitCode::from(2);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut scale = 1.0f64;
    let mut out_dir = PathBuf::from(".perfbench_out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let bad = || usage(&format!("bad value {value:?} for {flag}"));
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return bad(),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => return bad(),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = s,
                _ => return bad(),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return bad(),
            },
            "--scale" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 1.0 => scale = s,
                _ => return bad(),
            },
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        sizes: if scale == 1.0 {
            Sizes::FULL
        } else {
            Sizes::scaled(scale)
        },
    };
    let report = run_benchmark(&opts);

    println!("run_record {}", report.record);
    for m in &report.metrics {
        println!("{:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    if let Some(table) = &report.layer_table {
        print!("{table}");
    }
    let stem = format!("{}-trace{}", workload.name(), trace as u8);
    let written = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(out_dir.join(format!("{stem}.record.json")), &report.record))
        .and_then(|()| match &report.layer_table {
            Some(t) => std::fs::write(out_dir.join(format!("{stem}.layers.txt")), t),
            None => Ok(()),
        })
        .and_then(|()| match &report.spans {
            Some(s) => std::fs::write(out_dir.join(format!("{stem}.spans.bin")), s),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!(
            "perfbench: could not write under {}: {e}",
            out_dir.display()
        );
    }
    for v in &report.violations {
        eprintln!("perfbench: check failed: {v}");
    }
    println!("{}", result_json(&report));
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
