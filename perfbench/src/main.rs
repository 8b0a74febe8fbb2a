//! `mpq-perfbench`: the repository benchmark.
//!
//! ```text
//! mpq-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` runs the same workload untraced and then traced from an
//! identical set-up, checks that both did the same work, replays the
//! per-layer calls, runs the TPC-H census, and reports the per-layer
//! metrics. The last line of standard output is the JSON result; the
//! lines before it list every metric with its unit and sample count.
//! See README.md for the workloads and metrics.

mod check;
mod fed;
mod layers;
mod report;
mod stats;
mod trace;
mod workload;

use report::Metrics;
use stats::{mean, median, percentile, tail_percentile};
use std::collections::HashMap;
use std::path::PathBuf;
use trace::{Span, Tracer};
use workload::{Kind, Phase, Record};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Queries an untraced run attempts at least, so `latency_p90_ms` has
/// ten samples beyond it.
const MIN_SAMPLES: u64 = 100;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut named: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or_else(|| format!("unexpected argument `{a}`"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        named.insert(key.to_string(), value);
    }
    let get = |k: &str| named.get(k).ok_or_else(|| format!("missing --{k}"));
    let seconds: f64 = get("seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        kind: Kind::parse(get("workload")?)?,
        seed: get("seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace `{other}` (0 or 1)")),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mpq-perfbench: {e}");
            eprintln!("usage: mpq-perfbench --workload NAME --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("mpq-perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Run metadata recorded with every result.
fn meta(args: &Args) -> Vec<(&'static str, String)> {
    let mut m = vec![
        ("workload", args.kind.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("sf", args.kind.sf().to_string()),
        ("census_sf", layers::CENSUS_SF.to_string()),
        ("clients", args.kind.clients().to_string()),
    ];
    m.extend(report::host_meta());
    m
}

/// Print the metrics, write the result file, print the result line.
fn finish(
    args: &Args,
    metrics: &Metrics,
    correct: bool,
    attempted: u64,
    failed: u64,
    extra: &[String],
) -> Result<bool, String> {
    let meta = meta(args);
    println!("# meta {}", report::meta_json(&meta));
    for line in extra {
        println!("# {line}");
    }
    for m in metrics.items() {
        println!(
            "# {} = {} {} (samples {})",
            m.name,
            report::json_num(m.value),
            m.unit,
            m.samples
        );
    }
    let line = report::result_line(correct, attempted, failed, metrics);
    let path = out_dir()?.join(format!(
        "{}-seed{}-trace{}.json",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let notes: Vec<String> = extra.iter().map(|l| report::json_str(l)).collect();
    let body = format!(
        "{{\"meta\": {}, \"notes\": [{}], \"result\": {line}}}\n",
        report::meta_json(&meta),
        notes.join(", ")
    );
    std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("{line}");
    Ok(correct)
}

/// Where result and span files go: `out/` beside this package.
fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn run(args: &Args) -> Result<bool, String> {
    if args.trace {
        traced(args)
    } else {
        untraced(args)
    }
}

fn records(phase: &Phase) -> Vec<&Record> {
    phase.records.iter().flatten().collect()
}

fn mean_of(recs: &[&Record], f: impl Fn(&Record) -> usize) -> f64 {
    mean(&recs.iter().map(|r| f(r) as f64).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// The share of the measured phase's CPU time the host took away.
fn steal_note(phase: &Phase) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    format!(
        "host steal during the measured phase: {:.3} s of {:.3} CPU-s ({:.1}%)",
        phase.steal_s,
        phase.wall_s * nproc,
        100.0 * phase.steal_s / (phase.wall_s * nproc).max(1e-9)
    )
}

fn log_failures(phase: &Phase) {
    for m in &phase.acct.messages {
        eprintln!("mpq-perfbench: failed query: {m}");
    }
}

/// End-to-end metrics, tracing off.
fn untraced(args: &Args) -> Result<bool, String> {
    let off = Tracer::new(false);
    let mut setup = workload::setup(args.kind, args.seed, &off)?;
    let mut setup_times = vec![setup.setup_s];
    let phase = workload::run_phase(&mut setup, &off, args.seconds, MIN_SAMPLES);
    // Peak memory of one set-up and its measured phase; the repeated
    // set-ups below only time `setup_s` (each would leave allocator
    // arenas behind and blur the peak).
    let peak_rss_mb = workload::peak_rss_mb();
    drop(setup);
    for _ in 1..SETUP_REPEATS {
        setup_times.push(workload::setup(args.kind, args.seed, &off)?.setup_s);
    }
    log_failures(&phase);
    let acct = &phase.acct;
    let sorted = acct.sorted();
    let recs = records(&phase);
    let verified = sorted.len();
    let mut m = Metrics::default();
    m.push(
        "setup_s",
        median(&setup_times).expect("set-ups ran"),
        "s",
        setup_times.len(),
    )?;
    m.push(
        "queries_per_s",
        verified as f64 / phase.wall_s,
        "1/s",
        verified,
    )?;
    let p50 = percentile(&sorted, 0.5).ok_or("no verified query")?;
    m.push("latency_p50_ms", p50, "ms", verified)?;
    let p90 = tail_percentile(&sorted, 0.9).ok_or(format!(
        "{verified} verified queries: too few for latency_p90_ms"
    ))?;
    m.push("latency_p90_ms", p90, "ms", verified)?;
    m.push(
        "wire_bytes_per_query",
        mean_of(&recs, |r| r.total_bytes),
        "B",
        recs.len(),
    )?;
    let attempted = acct.attempted.max(1) as usize;
    m.push(
        "cpu_ms_per_query",
        phase.cpu_s * 1e3 / attempted as f64,
        "ms",
        attempted,
    )?;
    m.push("peak_rss_mb", peak_rss_mb, "MB", 1)?;
    let p99 = tail_percentile(&sorted, 0.99).map_or_else(
        || format!("latency_p99_ms withheld: {verified} samples, 1000 needed"),
        |v| {
            format!(
                "latency_p99_ms = {} ms (samples {verified})",
                report::json_num(v)
            )
        },
    );
    let extra = vec![
        steal_note(&phase),
        p99,
        format!(
            "failed_ratio = {} ({} errors + {} wrong of {} attempted)",
            report::json_num(acct.failed_ratio()),
            acct.errors,
            acct.wrong,
            acct.attempted
        ),
    ];
    finish(
        args,
        &m,
        acct.failed() == 0,
        acct.attempted,
        acct.failed(),
        &extra,
    )
}

/// Durations (ns) of spans named `name` whose root span is `root`.
fn durs(spans: &[Span], roots: &HashMap<u64, &'static str>, name: &str, root: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && roots.get(&s.id) == Some(&root))
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// The name of each span's root ancestor.
fn root_names(spans: &[Span]) -> HashMap<u64, &'static str> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    spans
        .iter()
        .map(|s| {
            let mut cur = s;
            while let Some(p) = cur.parent.and_then(|p| by_id.get(&p)) {
                cur = p;
            }
            (s.id, cur.name)
        })
        .collect()
}

/// Per-layer metrics from an untraced and a traced run of one set-up.
fn traced(args: &Args) -> Result<bool, String> {
    let half = args.seconds / 2.0;
    let off = Tracer::new(false);
    let mut a = workload::setup(args.kind, args.seed, &off)?;
    let phase_a = workload::run_phase(&mut a, &off, half, 0);
    drop(a);

    let tr = Tracer::new(true);
    let mut b = workload::setup(args.kind, args.seed, &tr)?;
    let phase_b = workload::run_phase(&mut b, &tr, half, 0);
    log_failures(&phase_a);
    log_failures(&phase_b);

    // Same seed, same set-up: the i-th query of each client must have
    // done the same work in both runs.
    let mut problems = Vec::new();
    for (c, (ra, rb)) in phase_a.records.iter().zip(&phase_b.records).enumerate() {
        if let Some(i) = (0..ra.len().min(rb.len())).find(|&i| ra[i].work() != rb[i].work()) {
            problems.push(format!(
                "client {c} query {i}: untraced did (item, bytes, requests, rows) {:?}, traced {:?}",
                ra[i].work(),
                rb[i].work()
            ));
        }
    }
    if let Err(e) = layers::replay(&mut b, args.seed, &tr) {
        problems.push(format!("replay: {e}"));
    }
    let (executable, not_executable) = layers::census(args.seed, &tr);
    let n_items = b.shared.items.len() as f64;
    let federated = args.kind == Kind::TpchQ5Federated;
    drop(b);

    let spans = tr.spans();
    let roots = root_names(&spans);
    let spans_path = out_dir()?.join(format!(
        "spans-{}-seed{}.jsonl",
        args.kind.name(),
        args.seed
    ));
    trace::write_jsonl(&spans_path, &spans).map_err(|e| format!("write spans: {e}"))?;

    let recs = records(&phase_b);
    let queries = recs.len().max(1) as f64;
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let any_root = |name: &str, order: &[&str]| -> Vec<f64> {
        order
            .iter()
            .map(|r| durs(&spans, &roots, name, r))
            .find(|v| !v.is_empty())
            .unwrap_or_default()
    };
    let all_roots = ["setup", "query", "replay", "census"];
    let all = |name: &str| -> Vec<f64> {
        all_roots
            .iter()
            .flat_map(|r| durs(&spans, &roots, name, r))
            .collect()
    };

    let mut m = Metrics::default();
    let mut put = |name: &str, v: Vec<f64>, scale: f64, unit: &str| -> Result<(), String> {
        if v.is_empty() {
            return Err(format!("no spans for {name}"));
        }
        m.push(name, med(&v) * scale, unit, v.len())
    };
    put(
        "tpch.generate_s",
        any_root("tpch.generate", &["setup", "census"]),
        1e-9,
        "s",
    )?;
    put(
        "algebra.plan_sql_us",
        any_root("algebra.plan_sql", &["query", "replay"]),
        1e-3,
        "us",
    )?;
    put(
        "planner.collect_stats_s",
        any_root("planner.collect_stats", &["setup"]),
        1e-9,
        "s",
    )?;
    put(
        "planner.optimize_us",
        any_root("planner.optimize", &["query", "replay"]),
        1e-3,
        "us",
    )?;
    let per_item = 1.0 / n_items;
    put(
        "core.authz_check_us",
        durs(&spans, &roots, "core.authz_check", "replay"),
        1e-3 * per_item,
        "us",
    )?;
    put(
        "core.verify_us",
        durs(&spans, &roots, "core.verify", "replay"),
        1e-3 * per_item,
        "us",
    )?;
    put(
        "core.dispatch_us",
        durs(&spans, &roots, "core.dispatch", "replay"),
        1e-3 * per_item,
        "us",
    )?;
    put(
        "crypto.envelope_seal_us",
        all("crypto.envelope_seal"),
        1e-3,
        "us",
    )?;
    put(
        "crypto.envelope_open_us",
        all("crypto.envelope_open"),
        1e-3,
        "us",
    )?;
    put(
        "crypto.cluster_keygen_ms",
        all("crypto.cluster_keygen"),
        1e-6,
        "ms",
    )?;
    put("crypto.rsa_keygen_ms", all("crypto.rsa_keygen"), 1e-6, "ms")?;
    let per_cell = 1.0 / layers::ENCRYPT_CELLS as f64;
    put(
        "crypto.det_encrypt_ns",
        all("crypto.det_encrypt"),
        per_cell,
        "ns",
    )?;
    put(
        "crypto.ope_encrypt_ns",
        all("crypto.ope_encrypt"),
        per_cell,
        "ns",
    )?;
    put(
        "crypto.rnd_encrypt_ns",
        all("crypto.rnd_encrypt"),
        per_cell,
        "ns",
    )?;
    put(
        "exec.plaintext_ms",
        durs(&spans, &roots, "exec.plaintext", "replay"),
        1e-6 * per_item,
        "ms",
    )?;
    put("dist.session_open_ms", all("dist.session_open"), 1e-6, "ms")?;
    let execute = durs(&spans, &roots, "dist.execute", "query");
    put("dist.execute_ms", execute.clone(), 1e-6, "ms")?;
    put(
        "dist.sequential_ms",
        all("dist.sequential"),
        1e-6 * per_item,
        "ms",
    )?;
    put("server.connect_ms", all("server.connect"), 1e-6, "ms")?;
    let inproc = med(&all("dist.inproc_execute")) * per_item;
    let remote = if federated {
        med(&execute)
    } else {
        med(&all("server.coordinator_execute")) * per_item
    };
    m.push(
        "server.federation_tax_ms",
        (remote - inproc) * 1e-6,
        "ms",
        execute.len(),
    )?;

    let n = recs.len();
    m.push(
        "core.requests_per_query",
        mean_of(&recs, |r| r.requests),
        "count",
        n,
    )?;
    m.push(
        "core.clusters_per_query",
        mean_of(&recs, |r| r.clusters),
        "count",
        n,
    )?;
    m.push(
        "crypto.envelopes_per_query",
        mean_of(&recs, |r| r.envelopes),
        "count",
        n,
    )?;
    let cores = if phase_a.wall_s > 0.0 {
        phase_a.cpu_s / phase_a.wall_s
    } else {
        0.0
    };
    m.push(
        "exec.cores_busy",
        cores,
        "cores",
        phase_a.acct.attempted as usize,
    )?;
    m.push("exec.result_rows", mean_of(&recs, |r| r.rows), "count", n)?;
    m.push(
        "dist.request_bytes_per_query",
        mean_of(&recs, |r| r.request_bytes),
        "B",
        n,
    )?;
    m.push(
        "dist.result_bytes_per_query",
        mean_of(&recs, |r| r.total_bytes - r.request_bytes),
        "B",
        n,
    )?;
    m.push(
        "dist.max_edge_bytes",
        mean_of(&recs, |r| r.max_edge_bytes),
        "B",
        n,
    )?;
    let (provisioned, reused) = if federated {
        // The coordinator provisions every cluster of every query.
        (mean_of(&recs, |r| r.clusters), 0.0)
    } else {
        (
            phase_b.provisioned as f64 / queries,
            phase_b.reused as f64 / queries,
        )
    };
    m.push(
        "dist.clusters_provisioned_per_query",
        provisioned,
        "count",
        n,
    )?;
    m.push("dist.clusters_reused_per_query", reused, "count", n)?;
    m.push(
        "dist.retries_per_query",
        phase_b.retries as f64 / queries,
        "count",
        n,
    )?;
    m.push("tpch.executable_queries", executable as f64, "count", 22)?;
    let p50 = |p: &Phase| percentile(&p.acct.sorted(), 0.5).unwrap_or(0.0);
    m.push(
        "trace.overhead_ms",
        p50(&phase_b) - p50(&phase_a),
        "ms",
        phase_b.acct.latencies_ms.len(),
    )?;

    let mut extra: Vec<String> = not_executable
        .iter()
        .map(|e| format!("census: not executable: {e}"))
        .collect();
    extra.push(steal_note(&phase_a));
    extra.push(steal_note(&phase_b));
    extra.push(format!(
        "spans: {} written to {}",
        spans.len(),
        spans_path.display()
    ));
    for (name, (count, median_ns, self_ns)) in trace::summarize(&spans) {
        extra.push(format!(
            "span {name}: count {count}, median {:.3} ms, self total {:.3} ms",
            median_ns as f64 * 1e-6,
            self_ns as f64 * 1e-6
        ));
    }
    for p in &problems {
        eprintln!("mpq-perfbench: {p}");
    }
    let attempted = phase_a.acct.attempted + phase_b.acct.attempted;
    let failed = phase_a.acct.failed() + phase_b.acct.failed();
    let correct = failed == 0 && problems.is_empty();
    finish(args, &m, correct, attempted, failed, &extra)
}
