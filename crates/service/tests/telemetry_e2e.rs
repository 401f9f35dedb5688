//! End-to-end observability tests: the `METRICS` exposition round-trips
//! through the telemetry parser, request outcomes balance, `TRACE`
//! appends a span breakdown, and `SLOWLOG` captures outliers.

use egobtw_service::catalog::Mode;
use egobtw_service::Service;
use egobtw_telemetry::prometheus;

fn service_with_graph(name: &str) -> Service {
    let service = Service::new();
    let g = egobtw_gen::gnp(40, 0.15, 7);
    service.load_graph(name, g, Mode::default()).unwrap();
    service
}

fn counter(expo: &prometheus::Exposition, name: &str) -> u64 {
    expo.value(name, &[])
        .unwrap()
        .unwrap_or_else(|| panic!("{name} missing")) as u64
}

/// The full scrape parses, passes schema validation, and the outcome
/// counters balance *within the scrape itself* (METRICS counts its own
/// completion before rendering).
#[test]
fn metrics_scrape_round_trips_and_outcomes_balance() {
    let service = service_with_graph("m");
    service.handle_line("PING");
    service.handle_line("TOPK m 5 core::compute_all");
    service.handle_line("TOPK m 5 core::compute_all"); // cache hit
    service.handle_line("SCORE m 0 1");
    service.handle_line("NO SUCH VERB"); // → failed
    service.handle_line("DEADLINE 0 TOPK m 5"); // → cancelled

    let text = service.handle_line("METRICS");
    let expo = prometheus::parse(&text).expect("METRICS must parse");
    let violations = expo.validate(&[
        "egobtw_requests_admitted_total",
        "egobtw_requests_completed_total",
        "egobtw_requests_cancelled_total",
        "egobtw_requests_failed_total",
        "egobtw_request_latency_ns",
        "egobtw_shed_total",
        "egobtw_timeouts_total",
        "egobtw_compute_inflight",
        "egobtw_cache_hits_total",
        "egobtw_cache_misses_total",
        "egobtw_dataset_epoch",
        "egobtw_work_exact_total",
    ]);
    assert!(violations.is_empty(), "{violations:?}");

    let admitted = counter(&expo, "egobtw_requests_admitted_total");
    let completed = counter(&expo, "egobtw_requests_completed_total");
    let cancelled = counter(&expo, "egobtw_requests_cancelled_total");
    let failed = counter(&expo, "egobtw_requests_failed_total");
    assert_eq!(
        admitted,
        completed + cancelled + failed,
        "outcome accounting must balance in the scrape METRICS returns"
    );
    assert!(completed >= 4, "PING + 2×TOPK + SCORE + METRICS completed");
    assert!(failed >= 1, "the parse error lands in failed");
    assert!(cancelled >= 1, "the expired deadline lands in cancelled");

    // Per-verb latency histograms saw the requests.
    let topk = expo
        .histogram("egobtw_request_latency_ns", &[("verb", "TOPK")])
        .expect("TOPK latency series");
    assert_eq!(topk.count, 2, "both TOPKs observed");
    assert!(topk.sum > 0.0);
    // The pre-expired deadline was refused before its verb ever parsed,
    // so it lands in the catch-all series.
    let unknown = expo
        .histogram("egobtw_request_latency_ns", &[("verb", "?")])
        .expect("? latency series");
    assert!(unknown.count >= 1);

    // Dataset-level cache accounting: the first TOPK misses plus one
    // miss per fresh SCORE ego; the repeated TOPK hits.
    assert_eq!(
        expo.value("egobtw_cache_misses_total", &[("dataset", "m")])
            .unwrap(),
        Some(3.0)
    );
    assert_eq!(
        expo.value("egobtw_cache_hits_total", &[("dataset", "m")])
            .unwrap(),
        Some(1.0)
    );
    // Engine work counters carry the engine label.
    let exact: f64 = expo.families["egobtw_engine_exact_total"]
        .samples
        .iter()
        .map(|s| s.value)
        .sum();
    assert!(exact > 0.0, "the exact engine reported work");
}

/// Counters are monotone across scrapes — the schema contract the CI
/// smoke job asserts against a live daemon.
#[test]
fn counters_are_monotone_across_scrapes() {
    let service = service_with_graph("mono");
    service.handle_line("TOPK mono 5 core::compute_all");
    let a = prometheus::parse(&service.handle_line("METRICS")).unwrap();
    service.handle_line("TOPK mono 6 core::compute_all");
    service.handle_line("PING");
    let b = prometheus::parse(&service.handle_line("METRICS")).unwrap();
    for name in [
        "egobtw_requests_admitted_total",
        "egobtw_requests_completed_total",
        "egobtw_requests_failed_total",
        "egobtw_cache_misses_total",
    ] {
        let fam = &a.families[name];
        for s in &fam.samples {
            let labels: Vec<(&str, &str)> = s
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let later = b.value(name, &labels).unwrap().unwrap_or(0.0);
            assert!(
                later >= s.value,
                "{name}{labels:?} went backwards: {} → {later}",
                s.value
            );
        }
    }
}

/// `TRACE` prepends opt-in tracing: the reply gains one ` trace=` token
/// with the phase breakdown; untraced requests stay untouched.
#[test]
fn trace_prefix_appends_span_breakdown() {
    let service = service_with_graph("t");
    let plain = service.handle_line("TOPK t 5 core::compute_all");
    assert!(!plain.contains(" trace="), "{plain}");

    let traced = service.handle_line("TRACE TOPK t 6 core::compute_all");
    let (_, trace) = traced.split_once(" trace=").expect("trace token");
    assert!(!trace.contains(' '), "single token: {trace:?}");
    assert!(trace.contains("total:"), "{trace}");
    assert!(trace.contains("compute:"), "{trace}");
    assert!(trace.contains("exact:"), "work counters fold in: {trace}");

    // Queue wait (attributed by the server) shows up as its own phase.
    let queued = service.handle_line_queued(
        "TRACE PING",
        &egobtw_core::Cancel::new(),
        5_000_000, // 5ms
    );
    let (_, trace) = queued.split_once(" trace=").unwrap();
    assert!(trace.contains("queue:5000us"), "{trace}");

    // TRACE composes with DEADLINE in either position of the grammar.
    let both = service.handle_line("TRACE DEADLINE 30000 PING");
    assert!(both.starts_with("OK pong"), "{both}");
    assert!(both.contains(" trace="), "{both}");
}

/// The slow-query ring captures every request past the threshold with
/// its breakdown, drains once, and is empty afterwards.
#[test]
fn slowlog_captures_and_drains() {
    let service = service_with_graph("s");
    let reply = service.handle_line("SLOWLOG");
    assert_eq!(reply, "OK slowlog count=0 dropped=0");

    service.metrics().slowlog().set_threshold_ns(1); // capture everything
    service.handle_line("TOPK s 5 core::compute_all");
    service.handle_line("PING");
    service.metrics().slowlog().set_threshold_ns(0); // stop before SLOWLOG itself

    let reply = service.handle_line("SLOWLOG");
    let mut lines = reply.lines();
    let head = lines.next().unwrap();
    assert!(head.starts_with("OK slowlog count=2 dropped=0"), "{head}");
    let entries: Vec<&str> = lines.collect();
    assert_eq!(entries.len(), 2);
    assert!(entries[0].contains("verb=TOPK") && entries[0].contains("dataset=s"));
    assert!(entries[1].contains("verb=PING") && entries[1].contains("dataset=-"));
    assert!(entries[0].contains("total:"), "breakdown rides along");

    // Drained: the next SLOWLOG is empty again.
    assert_eq!(
        service.handle_line("SLOWLOG"),
        "OK slowlog count=0 dropped=0"
    );
}

/// Multi-line replies must own their frame: METRICS/SLOWLOG sharing a
/// frame with other commands would corrupt the line-per-command mapping.
#[test]
fn metrics_and_slowlog_must_be_sole_line_of_frame() {
    let service = service_with_graph("f");
    let response = service.handle_payload("PING\nMETRICS\n");
    let lines: Vec<&str> = response.lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(lines[0].starts_with("OK pong"));
    assert_eq!(lines[1], "ERR METRICS must be the only line in its frame");

    let response = service.handle_payload("SLOWLOG\nPING\n");
    let lines: Vec<&str> = response.lines().collect();
    assert_eq!(lines[0], "ERR SLOWLOG must be the only line in its frame");
    assert!(lines[1].starts_with("OK pong"));

    // Alone in its frame it renders the full exposition.
    let alone = service.handle_payload("METRICS\n");
    assert!(prometheus::parse(&alone).is_ok());
}

/// STATS surfaces the engine work totals alongside the existing fields.
#[test]
fn stats_reports_search_work_totals() {
    let service = service_with_graph("w");
    let before = service.handle_line("STATS w");
    assert!(
        before.contains(" exact=0")
            && before.contains(" pruned=")
            && before.contains(" triangles="),
        "{before}"
    );
    service.handle_line("TOPK w 5 core::compute_all");
    let after = service.handle_line("STATS w");
    let exact: u64 = after
        .split(" exact=")
        .nth(1)
        .and_then(|r| r.split(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{after}"));
    assert!(exact > 0, "compute_all touches every ego: {after}");
}

/// OptBSearch counts the triangles its kernel enumerates, so an
/// engine-path TOPK moves TRACE's `triangles`, STATS and the per-engine
/// counter.
#[test]
fn opt_search_reports_triangle_work() {
    let service = service_with_graph("o"); // gnp(40, 0.15) has triangles
    let traced = service.handle_line("TRACE TOPK o 5 core::opt_search(θ=1.05)");
    let (_, trace) = traced.split_once(" trace=").expect("trace token");
    let triangles: u64 = trace
        .split(',')
        .find_map(|part| part.strip_prefix("triangles:"))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no triangle work in {trace}"));
    assert!(triangles > 0, "{trace}");

    let stats = service.handle_line("STATS o");
    assert!(
        stats.contains(&format!(" triangles={triangles}")),
        "{stats}"
    );
    let expo = prometheus::parse(&service.handle_line("METRICS")).unwrap();
    let exported = expo
        .value(
            "egobtw_engine_triangles_total",
            &[("engine", "core::opt_search(θ=1.05)")],
        )
        .unwrap()
        .expect("per-engine series");
    assert_eq!(exported as u64, triangles);
}

/// Egos OptBSearch computed on helper threads (none on a one-CPU
/// caller) add up the same in TRACE, STATS and both METRICS series.
#[test]
fn helper_computations_agree_across_trace_stats_and_metrics() {
    let service = Service::new();
    // Hubs of degree up to 337: large enough egos to start helpers.
    let g = egobtw_gen::rmat(11, 3, egobtw_gen::rmat::RmatParams::skewed(), 0xEB02);
    service.load_graph("h", g, Mode::default()).unwrap();
    let engine = "core::opt_search(θ=1.05)";
    let mut traced = 0;
    for k in [5, 20, 80, 320] {
        let reply = service.handle_line(&format!("TRACE TOPK h {k} {engine}"));
        let (_, trace) = reply.split_once(" trace=").expect("trace token");
        traced += trace
            .split(',')
            .find_map(|part| part.strip_prefix("helper_computations:"))
            .map_or(0, |v| v.parse::<u64>().expect("a count"));
    }
    let stats = service.handle_line("STATS h");
    assert!(
        stats.contains(&format!(" helper_computations={traced}")),
        "TRACE summed {traced}: {stats}"
    );
    let expo = prometheus::parse(&service.handle_line("METRICS")).unwrap();
    let series = |name, labels: &[(&str, &str)]| -> u64 {
        expo.value(name, labels)
            .unwrap()
            .unwrap_or_else(|| panic!("{name} missing")) as u64
    };
    assert_eq!(
        series("egobtw_work_helper_computations_total", &[("dataset", "h")]),
        traced
    );
    assert_eq!(
        series(
            "egobtw_engine_helper_computations_total",
            &[("engine", engine)]
        ),
        traced
    );
}

/// Every UPDATE that publishes an epoch times that publish (the CSR row
/// patch plus the pointer swap) exactly once — including a batch whose
/// ops all skip, which still publishes a new epoch.
#[test]
fn publish_latency_counts_every_update() {
    let service = service_with_graph("p");
    let updates = [
        "UPDATE p +0,1 +2,3",
        "UPDATE p -0,1",
        "UPDATE p +2,3 +5,5", // duplicate insert and self-loop: all skipped
        "UPDATE p -2,3 +0,39",
    ];
    for line in updates {
        let reply = service.handle_line(line);
        assert!(reply.starts_with("OK"), "{line}: {reply}");
    }
    let expo = prometheus::parse(&service.handle_line("METRICS")).unwrap();
    assert!(
        expo.validate(&["egobtw_publish_latency_ns"]).is_empty(),
        "publish histogram family present and well-formed"
    );
    let publish = expo
        .histogram("egobtw_publish_latency_ns", &[("dataset", "p")])
        .expect("publish latency series for dataset p");
    assert_eq!(publish.count, updates.len() as u64);
    assert!(publish.sum > 0.0);
}

/// UPDATE's write path is attributed per dataset: on a durable dataset
/// every UPDATE records one maintainer-apply time and one WAL-append time
/// beside its publish time.
#[test]
fn update_apply_and_wal_append_count_every_update() {
    use egobtw_service::wal::{FsyncPolicy, PersistConfig};
    use egobtw_service::CatalogConfig;

    let dir = std::env::temp_dir().join(format!("egobtw-telemetry-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = Service::with_config(CatalogConfig {
        persist: Some(PersistConfig {
            dir: dir.clone(),
            fsync: FsyncPolicy::Never,
            compact_every: 1_000,
        }),
        ..CatalogConfig::default()
    });
    service
        .load_graph("d", egobtw_gen::gnp(40, 0.15, 7), Mode::default())
        .unwrap();
    let updates = ["UPDATE d +0,1 +2,3", "UPDATE d -0,1", "UPDATE d +2,3 +5,5"];
    for line in updates {
        let reply = service.handle_line(line);
        assert!(reply.starts_with("OK"), "{line}: {reply}");
    }
    let expo = prometheus::parse(&service.handle_line("METRICS")).unwrap();
    let families = ["egobtw_update_apply_ns", "egobtw_wal_append_ns"];
    assert!(expo.validate(&families).is_empty(), "families well-formed");
    for family in families {
        let h = expo
            .histogram(family, &[("dataset", "d")])
            .unwrap_or_else(|| panic!("{family} series for dataset d"));
        assert_eq!(h.count, updates.len() as u64, "{family}");
    }
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}
