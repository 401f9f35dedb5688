//! `egobtw-cli` — scriptable client for `egobtw-serve`, plus the loadgen.
//!
//! ```text
//! egobtw-cli script  --connect ADDR [--expect-ok] [FILE]
//!     Send each non-blank, non-# line of FILE (or stdin) as one frame;
//!     print `> command` and the response line(s). With --expect-ok, exit 1
//!     if any response line is an ERR.
//!
//! egobtw-cli loadgen [--connect ADDR] [flags]
//!     Drive a mixed read/update workload and write BENCH_service.json.
//!     Without --connect the workload runs against an in-process Service
//!     (no sockets) — deterministic and CI-friendly.
//!
//!     --dataset NAME=PATH[:MODE]  dataset file (repeatable)
//!     --gen NAME=FAMILY:SCALE:SEED[:MODE]  synthesize instead (repeatable,
//!                                 in-process target only)
//!     --mix NAME:FRAC  named read/write scenario, e.g. read-heavy:0.1
//!                   (repeatable; every dataset runs once per mix; name at
//!                   least one --mix, --recovery, --skew, --tenants or
//!                   --overload)
//!     --recovery    add the restart-recovery scenario: per dataset, a WAL
//!                   write burst, a teardown, a timed recovery, then
//!                   oracle-checked reads (always in-process)
//!     --skew        add the shard-skew scenario: all datasets concurrent,
//!                   writes concentrated on the first (needs ≥2 datasets)
//!     --overload    add the overload scenario: a tiny saturated TCP server,
//!                   recording shed rate, saturation QPS, and admitted-read
//!                   percentiles (always spawns its own server)
//!     --tenants N   add the multi-tenant scenario with N ≥ 2 synthesized
//!                   tiny datasets in one catalog (always in-process)
//!     --threads N   client threads per dataset (default 4)
//!     --ops N       total ops per dataset (default 2000)
//!     --k K         top-k size for reads (default 8)
//!     --batch B     update ops per epoch (default 2)
//!     --seed S      workload seed (default 42)
//!     --check       oracle-check sampled top-k answers (skipped per
//!                   dataset above --check-max-n vertices)
//!     --check-max-n N  largest n the oracle check runs on (default 512)
//!     --out PATH    output file (default BENCH_service.json)
//!
//! egobtw-cli loadgen --validate PATH [--expect-datasets N] [--expect-scenarios N]
//!     Schema-check an existing BENCH_service.json (CI smoke); also fails
//!     on any recorded comparator violation.
//!
//! egobtw-cli metrics-check [--connect ADDR] [--requests N] [--seed S]
//!     With --connect: scrape METRICS twice from a live daemon, schema-
//!     validate both expositions, and verify every counter series is
//!     monotone between the scrapes. Without: drive an in-process service
//!     with N compute-dominated TOPKs (default 64) and verify the
//!     server-side latency histogram puts p50/p99 within one log2 bucket
//!     of the client-side timings.
//! ```

use egobtw_service::catalog::Mode;
use egobtw_service::loadgen::{self, DatasetSpec, ExtraScenarios, LoadgenConfig, MixSpec, Target};
use egobtw_service::server::{connect_with_retry, roundtrip};
use egobtw_service::Service;
use std::io::Read;
use std::str::FromStr;
use std::time::Duration;

fn fail(msg: &str) -> ! {
    eprintln!("egobtw-cli: {msg}");
    std::process::exit(2);
}

/// Parses the value `s` of `flag` as a `T`. Integer flags parse as
/// integers, so a fraction, a sign or `nan` is refused rather than cast.
fn parse_flag<T: FromStr>(flag: &str, s: &str) -> Result<T, String> {
    s.parse().map_err(|_| {
        format!(
            "{flag}: bad value {s:?} (expected {})",
            std::any::type_name::<T>()
        )
    })
}

/// [`parse_flag`], exiting with its error.
fn parse_or_die<T: FromStr>(flag: &str, s: &str) -> T {
    parse_flag(flag, s).unwrap_or_else(|e| fail(&e))
}

fn run_script(argv: &[String]) -> i32 {
    let mut connect = None;
    let mut expect_ok = false;
    let mut file = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--connect" => {
                connect = argv.get(i + 1).cloned();
                i += 2;
            }
            "--expect-ok" => {
                expect_ok = true;
                i += 1;
            }
            other if file.is_none() && !other.starts_with("--") => {
                file = Some(other.to_string());
                i += 1;
            }
            other => fail(&format!("script: unknown flag {other:?}")),
        }
    }
    let Some(addr) = connect else {
        fail("script needs --connect ADDR");
    };
    let text = match file {
        Some(path) => {
            std::fs::read_to_string(&path).unwrap_or_else(|e| fail(&format!("read {path:?}: {e}")))
        }
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .unwrap_or_else(|e| fail(&format!("read stdin: {e}")));
            buf
        }
    };
    let (mut reader, mut writer) = connect_with_retry(&addr, Duration::from_secs(10))
        .unwrap_or_else(|e| fail(&format!("connect {addr}: {e}")));
    let mut saw_err = false;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        println!("> {line}");
        match roundtrip(&mut reader, &mut writer, line) {
            Ok(response) => {
                for rline in response.lines() {
                    println!("{rline}");
                    if rline.starts_with("ERR") {
                        saw_err = true;
                    }
                }
            }
            Err(e) => fail(&format!("i/o on {addr}: {e}")),
        }
    }
    i32::from(expect_ok && saw_err)
}

fn run_loadgen(argv: &[String]) -> i32 {
    let mut cfg = LoadgenConfig::default();
    let mut connect: Option<String> = None;
    let mut out = "BENCH_service.json".to_string();
    let mut validate_path: Option<String> = None;
    let mut expect_datasets = 1usize;
    let mut expect_scenarios = 1usize;
    let mut specs: Vec<DatasetSpec> = Vec::new();
    let mut mixes: Vec<MixSpec> = Vec::new();
    let mut extras = ExtraScenarios::default();
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| -> &String {
            argv.get(i + 1)
                .unwrap_or_else(|| fail(&format!("{} needs a value", argv[i])))
        };
        match argv[i].as_str() {
            "--connect" => connect = Some(value(i).clone()),
            "--threads" => cfg.threads = parse_or_die("--threads", value(i)),
            "--ops" => cfg.ops = parse_or_die("--ops", value(i)),
            "--k" => cfg.k = parse_or_die("--k", value(i)),
            "--batch" => cfg.batch = parse_or_die("--batch", value(i)),
            "--seed" => cfg.seed = parse_or_die("--seed", value(i)),
            "--check" => {
                cfg.check = true;
                i += 1;
                continue;
            }
            "--recovery" => {
                extras.recovery = true;
                i += 1;
                continue;
            }
            "--skew" => {
                extras.skew = true;
                i += 1;
                continue;
            }
            "--overload" => {
                extras.overload = true;
                i += 1;
                continue;
            }
            "--tenants" => extras.tenants = parse_or_die("--tenants", value(i)),
            "--check-max-n" => cfg.check_max_n = parse_or_die("--check-max-n", value(i)),
            "--out" => out = value(i).clone(),
            "--validate" => validate_path = Some(value(i).clone()),
            "--expect-datasets" => expect_datasets = parse_or_die("--expect-datasets", value(i)),
            "--expect-scenarios" => expect_scenarios = parse_or_die("--expect-scenarios", value(i)),
            "--mix" => {
                let spec = value(i);
                let (name, frac) = spec
                    .rsplit_once(':')
                    .unwrap_or_else(|| fail(&format!("--mix {spec:?}: NAME:FRAC")));
                mixes.push(MixSpec {
                    name: name.to_string(),
                    write_frac: parse_or_die("--mix frac", frac),
                });
            }
            "--dataset" => {
                let spec = value(i);
                let (name, rest) = spec
                    .split_once('=')
                    .unwrap_or_else(|| fail(&format!("--dataset {spec:?}: NAME=PATH[:MODE]")));
                let (path, mode) = Mode::split_path_mode(rest);
                let g0 = match egobtw_service::service::read_graph_file(&path) {
                    Ok(g) => g,
                    Err(e) => fail(&format!("--dataset {name}: {e}")),
                };
                specs.push(DatasetSpec {
                    name: name.to_string(),
                    g0,
                    path: Some(path),
                    mode,
                });
            }
            "--gen" => {
                let spec = value(i);
                let (name, rest) = spec.split_once('=').unwrap_or_else(|| {
                    fail(&format!("--gen {spec:?}: NAME=FAMILY:SCALE:SEED[:MODE]"))
                });
                let parts: Vec<&str> = rest.split(':').collect();
                if parts.len() < 3 {
                    fail(&format!("--gen {spec:?}: NAME=FAMILY:SCALE:SEED[:MODE]"));
                }
                let family = parts[0];
                let scale: f64 = parse_or_die("--gen scale", parts[1]);
                let seed: u64 = parse_or_die("--gen seed", parts[2]);
                let mode = if parts.len() > 3 {
                    Mode::parse(&parts[3..].join(":"))
                        .unwrap_or_else(|e| fail(&format!("--gen {spec:?}: {e}")))
                } else {
                    Mode::default()
                };
                let g0 = egobtw_gen::synth_family(family, scale, seed)
                    .unwrap_or_else(|e| fail(&format!("--gen {name}: {e}")));
                specs.push(DatasetSpec {
                    name: name.to_string(),
                    g0,
                    path: None,
                    mode,
                });
            }
            other => fail(&format!("loadgen: unknown flag {other:?}")),
        }
        i += 2;
    }

    if let Some(path) = validate_path {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| fail(&format!("read {path:?}: {e}")));
        let doc = egobtw_bench::json::Json::parse(&text)
            .unwrap_or_else(|e| fail(&format!("{path:?}: not JSON: {e}")));
        return match loadgen::validate(&doc, expect_datasets, expect_scenarios) {
            Ok(()) => {
                println!(
                    "{path}: schema OK ({expect_scenarios}+ scenario(s) × {expect_datasets}+ dataset records)"
                );
                0
            }
            Err(e) => {
                eprintln!("egobtw-cli: {path}: {e}");
                1
            }
        };
    }

    if specs.is_empty() {
        fail("loadgen needs --dataset or --gen (or --validate)");
    }
    let service_holder;
    let target = match &connect {
        Some(addr) => Target::Tcp(addr.clone()),
        None => {
            service_holder = Service::new();
            Target::InProc(&service_holder)
        }
    };
    match loadgen::run(&target, &cfg, &specs, &mixes, &extras) {
        Ok(doc) => {
            let mut text = doc.pretty();
            text.push('\n');
            std::fs::write(&out, &text).unwrap_or_else(|e| fail(&format!("write {out:?}: {e}")));
            let mut violations = 0.0;
            let mut scenario_count = 0;
            if let Some(scenarios) = doc.get("scenarios").and_then(|s| s.as_arr()) {
                scenario_count = scenarios.len();
                for sc in scenarios {
                    let Some(datasets) = sc.get("datasets").and_then(|d| d.as_arr()) else {
                        continue;
                    };
                    for ds in datasets {
                        if let Some(v) = ds
                            .get("comparator")
                            .and_then(|c| c.get("violations"))
                            .and_then(|v| v.as_num())
                        {
                            violations += v;
                        }
                    }
                }
            }
            println!(
                "wrote {out} ({scenario_count} scenario(s) over {} dataset(s), {} comparator violation(s))",
                specs.len(),
                violations
            );
            i32::from(violations > 0.0)
        }
        Err(e) => {
            eprintln!("egobtw-cli: loadgen: {e}");
            1
        }
    }
}

fn run_metrics_check(argv: &[String]) -> i32 {
    let mut connect: Option<String> = None;
    let mut requests = 64usize;
    let mut seed = 42u64;
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| -> &String {
            argv.get(i + 1)
                .unwrap_or_else(|| fail(&format!("{} needs a value", argv[i])))
        };
        match argv[i].as_str() {
            "--connect" => connect = Some(value(i).clone()),
            "--requests" => requests = parse_or_die("--requests", value(i)),
            "--seed" => seed = parse_or_die("--seed", value(i)),
            other => fail(&format!("metrics-check: unknown flag {other:?}")),
        }
        i += 2;
    }
    match connect {
        Some(addr) => match loadgen::metrics_check_live(&addr) {
            Ok(summary) => {
                println!("{summary}");
                0
            }
            Err(e) => {
                eprintln!("egobtw-cli: metrics-check {addr}: {e}");
                1
            }
        },
        None => match loadgen::metrics_crosscheck(requests, seed) {
            Ok(report) => {
                println!("metrics-check OK: {}", report.pretty());
                0
            }
            Err(e) => {
                eprintln!("egobtw-cli: metrics-check: {e}");
                1
            }
        },
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("script") => run_script(&argv[1..]),
        Some("loadgen") => run_loadgen(&argv[1..]),
        Some("metrics-check") => run_metrics_check(&argv[1..]),
        _ => {
            eprintln!(
                "usage: egobtw-cli <script|loadgen|metrics-check> [flags] (see --bin source header)"
            );
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::parse_flag;

    #[test]
    fn integer_flags_refuse_what_a_float_parse_would_round() {
        // Above 2^53, where an f64 parse would merge it with ...992.
        assert_eq!(
            parse_flag::<u64>("--seed", "9007199254740993"),
            Ok(9_007_199_254_740_993)
        );
        for (flag, bad) in [("--threads", "2.5"), ("--ops", "-5"), ("--k", "nan")] {
            let err = parse_flag::<usize>(flag, bad).unwrap_err();
            assert!(err.starts_with(flag), "{err}");
        }
    }
}
