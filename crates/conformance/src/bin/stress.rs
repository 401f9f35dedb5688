//! Reproducible differential stress sweeps.
//!
//! ```text
//! cargo run --release -p conformance --bin stress -- --seed 42 --budget 200
//!
//! flags:
//!   --seed S        sweep key (default 42); same seed ⇒ same scenarios
//!   --budget N      number of scenarios to run (default 200)
//!   --max-secs T    stop early (green) after T seconds of checking
//!   --mutate KIND   inject a deliberately broken engine (tie-drop |
//!                   bias | stale-graph | delta-stale-pair |
//!                   delta-missed-ego | delta-no-recert |
//!                   opt-double-credit) to demonstrate detection +
//!                   shrinking; the run is then EXPECTED to fail
//!   --chaos         serving-path chaos sweep: spawn a real daemon (path
//!                   in $EGOBTW_SERVE_BIN), interpose the seeded fault
//!                   proxy (delay | stall | cut | corrupt | reset), drive
//!                   an oracle-checked workload, SIGKILL, restart, and
//!                   assert zero violations and zero acked-write loss
//!   --chaos-seeds N distinct chaos schedules to sweep (default 3)
//!   --verbose       print every scenario label as it runs
//! ```
//!
//! On divergence: the offending oracle and scenario are reported, the
//! case is greedily shrunk against the same oracle set, and the minimal
//! case is printed as a ready-to-paste `#[test]` calling
//! `conformance::assert_case`. Exit code 1.

use conformance::{check_case_with, scenario, shrink, Case, FaultyOracle, Mismatch, Mutation};
use std::collections::BTreeMap;
use std::time::Instant;

struct Args {
    seed: u64,
    budget: usize,
    max_secs: Option<f64>,
    mutate: Option<Mutation>,
    chaos: bool,
    chaos_seeds: usize,
    verbose: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        seed: 42,
        budget: 200,
        max_secs: None,
        mutate: None,
        chaos: false,
        chaos_seeds: 3,
        verbose: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| -> Result<&String, String> {
            argv.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--seed" => {
                args.seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 2;
            }
            "--budget" => {
                args.budget = value(i)?.parse().map_err(|e| format!("--budget: {e}"))?;
                i += 2;
            }
            "--max-secs" => {
                args.max_secs = Some(value(i)?.parse().map_err(|e| format!("--max-secs: {e}"))?);
                i += 2;
            }
            "--mutate" => {
                let kind = value(i)?;
                args.mutate =
                    Some(Mutation::parse(kind).ok_or_else(|| {
                        format!("unknown mutation {kind:?} ({})", Mutation::NAMES)
                    })?);
                i += 2;
            }
            "--chaos" => {
                args.chaos = true;
                i += 1;
            }
            "--chaos-seeds" => {
                args.chaos_seeds = value(i)?
                    .parse()
                    .map_err(|e| format!("--chaos-seeds: {e}"))?;
                i += 2;
            }
            "--verbose" => {
                args.verbose = true;
                i += 1;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn report_failure(case: &Case, mismatch: &Mismatch, oracles: &[Box<dyn conformance::Oracle>]) {
    eprintln!("\nFAIL on scenario {}", case.label);
    eprintln!("  {mismatch}");
    eprintln!(
        "  shrinking ({} vertices, {} edges, {} ops)…",
        case.n,
        case.edges.len(),
        case.ops.len()
    );
    let fails = |c: &Case| check_case_with(c, oracles).is_err();
    let minimal = shrink(case, &fails, 8);
    let final_mismatch =
        check_case_with(&minimal, oracles).expect_err("shrunk case must still fail");
    eprintln!(
        "  minimal failing case: {} vertices, {} edges, {} ops, k={}",
        minimal.n,
        minimal.edges.len(),
        minimal.ops.len(),
        minimal.k
    );
    let why = format!(
        "Shrunk from scenario `{}`.\nDivergence: {final_mismatch}",
        case.label
    );
    eprintln!("\npaste this into crates/conformance/tests/ as a regression test:\n");
    eprintln!("{}", minimal.to_test_code(&why));
}

/// Spawns the daemon named by `$EGOBTW_SERVE_BIN` on an OS-picked port
/// and waits for its `listening on` line. `load` preloads a binary
/// snapshot on first boot; later boots recover from the data dir.
fn spawn_serve(
    bin: &str,
    data_dir: &std::path::Path,
    load: Option<&std::path::Path>,
) -> Result<(std::process::Child, String), String> {
    use std::io::BufRead;
    let mut cmd = std::process::Command::new(bin);
    cmd.args(["--listen", "127.0.0.1:0", "--threads", "2", "--shards", "2"]);
    cmd.args(["--data-dir", data_dir.to_str().unwrap()]);
    if let Some(snap) = load {
        cmd.args(["--load", &format!("chaos={}", snap.to_str().unwrap())]);
    }
    cmd.stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null());
    let mut child = cmd.spawn().map_err(|e| format!("spawn {bin:?}: {e}"))?;
    let stdout = std::io::BufReader::new(child.stdout.take().unwrap());
    for line in stdout.lines() {
        let line = line.map_err(|e| format!("daemon stdout: {e}"))?;
        if let Some(rest) = line.strip_prefix("listening on ") {
            let addr = rest.split_whitespace().next().unwrap().to_string();
            return Ok((child, addr));
        }
    }
    let _ = child.kill();
    Err("daemon exited before printing its address".into())
}

/// The `--chaos` sweep: for each seed, daemon + fault proxy + workload +
/// SIGKILL + restart + recovery oracle. Any violation or acked-write
/// loss fails the sweep (exit 1).
fn run_chaos(args: &Args) -> i32 {
    let Ok(bin) = std::env::var("EGOBTW_SERVE_BIN") else {
        eprintln!(
            "stress --chaos: set EGOBTW_SERVE_BIN to the egobtw-serve binary \
             (e.g. target/release/egobtw-serve)"
        );
        return 2;
    };
    println!(
        "serving-path chaos sweep: seeds {}..{} bin={bin}",
        args.seed,
        args.seed + args.chaos_seeds as u64
    );
    let mut failed = false;
    for i in 0..args.chaos_seeds {
        let seed = args.seed + i as u64;
        let dir = std::env::temp_dir().join(format!("egobtw-chaos-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let data_dir = dir.join("data");
        if let Err(e) = std::fs::create_dir_all(&data_dir) {
            eprintln!("seed {seed}: mkdir {dir:?}: {e}");
            return 2;
        }
        let result = (|| -> Result<conformance::ChaosReport, String> {
            let g0 = egobtw_gen::gnp(48, 0.12, seed);
            let snap = dir.join("g0.snap");
            egobtw_graph::io::write_snapshot_file(&g0, None, &snap)
                .map_err(|e| format!("write snapshot: {e}"))?;
            let (mut child, addr) = spawn_serve(&bin, &data_dir, Some(&snap))?;
            let mut proxy =
                conformance::ChaosProxy::spawn(&addr, seed).map_err(|e| format!("proxy: {e}"))?;
            let report = conformance::run_chaos_workload(&proxy.addr(), "chaos", &g0, seed, 24, 3);
            proxy.stop();
            // Outcome accounting must balance on the battered daemon —
            // scraped directly (not through the dead proxy), after a
            // short quiesce so watchdog-cancelled stragglers from cut
            // connections have reached their outcome bucket.
            std::thread::sleep(std::time::Duration::from_millis(200));
            let accounting = conformance::verify_outcome_accounting(&addr);
            // Crash hard (SIGKILL — no drain, no fsync beyond what acks
            // already guaranteed), then restart over the same data dir.
            let _ = child.kill();
            let _ = child.wait();
            let report = report?;
            accounting.map_err(|e| format!("pre-crash {e}"))?;
            let (mut child2, addr2) = spawn_serve(&bin, &data_dir, None)?;
            let verdict =
                conformance::verify_recovered(&addr2, "chaos", &g0, &report).and_then(|()| {
                    // Counters restart from zero; the invariant must hold
                    // on the recovered process too.
                    conformance::verify_outcome_accounting(&addr2)
                        .map(|_| ())
                        .map_err(|e| format!("post-restart {e}"))
                });
            let _ = child2.kill();
            let _ = child2.wait();
            verdict.map(|()| report)
        })();
        let _ = std::fs::remove_dir_all(&dir);
        match result {
            Ok(report) if report.violations.is_empty() => {
                println!(
                    "  seed {seed}: PASS epochs={} reads_ok={} refused={} transport_errors={}",
                    report.acked_epoch,
                    report.reads_ok,
                    report.reads_refused,
                    report.transport_errors
                );
            }
            Ok(report) => {
                failed = true;
                eprintln!("  seed {seed}: {} violation(s)", report.violations.len());
                for v in &report.violations {
                    eprintln!("    - {v}");
                }
            }
            Err(e) => {
                failed = true;
                eprintln!("  seed {seed}: FAIL {e}");
            }
        }
    }
    if failed {
        eprintln!("FAIL: chaos sweep found serving-path violations");
        1
    } else {
        println!(
            "PASS: {} chaos schedule(s), zero violations, zero acked-write loss",
            args.chaos_seeds
        );
        0
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: stress [--seed S] [--budget N] [--max-secs T] \
                 [--mutate {}] [--chaos] [--chaos-seeds N] [--verbose]",
                Mutation::NAMES
            );
            std::process::exit(2);
        }
    };

    if args.chaos {
        std::process::exit(run_chaos(&args));
    }

    let mut oracles = conformance::all_oracles();
    if let Some(kind) = args.mutate {
        eprintln!("note: injecting deliberately broken engine mutant::{kind:?}");
        oracles.push(Box::new(FaultyOracle(kind)));
    }
    println!(
        "conformance stress: seed={} budget={} oracles={}",
        args.seed,
        args.budget,
        oracles.len()
    );
    for oracle in &oracles {
        println!("  - {}", oracle.name());
    }

    let start = Instant::now();
    let mut by_family: BTreeMap<String, usize> = BTreeMap::new();
    let mut with_streams = 0usize;
    let mut ran = 0usize;
    for idx in 0..args.budget {
        if let Some(limit) = args.max_secs {
            if start.elapsed().as_secs_f64() > limit {
                println!("time budget reached after {ran} scenarios");
                break;
            }
        }
        let case = scenario(args.seed, idx);
        if args.verbose {
            println!("  [{idx:>4}] {}", case.label);
        }
        if let Err(mismatch) = check_case_with(&case, &oracles) {
            report_failure(&case, &mismatch, &oracles);
            std::process::exit(1);
        }
        *by_family
            .entry(conformance::FAMILIES[idx % conformance::FAMILIES.len()].to_string())
            .or_default() += 1;
        with_streams += usize::from(!case.ops.is_empty());
        ran += 1;
    }

    let families: Vec<String> = by_family.iter().map(|(f, c)| format!("{f}:{c}")).collect();
    println!(
        "PASS: {ran} scenarios ({} with update streams) × {} oracles in {:.2}s",
        with_streams,
        oracles.len(),
        start.elapsed().as_secs_f64()
    );
    println!("  families: {}", families.join(" "));
}
