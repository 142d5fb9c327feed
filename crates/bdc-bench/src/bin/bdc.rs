//! `bdc` — the experiment-registry CLI.
//!
//! One binary over `bdc_core::registry` replaces the 25 per-figure
//! binaries:
//!
//! ```text
//! bdc list [--json]                  # the catalogue, with node ids
//! bdc run fig12 --quick              # one node, legacy-identical stdout
//! bdc run --all --quick              # the whole plan, parallel
//! bdc run --all --quick --require-warm   # fail unless every node hit cache
//! bdc run --all --max-retries 5      # widen the per-node retry budget
//! bdc verify [--audit-deps] [--quick]    # plan-graph static analysis
//! bdc lint --workspace               # determinism audit over the sources
//! bdc cluster --shards 3             # sharded serving fleet + router
//! bdc sweep --param organic.vt=-1.4:-0.6:21 --quick   # incremental grid
//! ```
//!
//! `run` prints the selected nodes' rendered text to stdout in catalogue
//! order (a single-node run is byte-identical to the legacy binary) and
//! writes the run manifest — per-node status/attempts, wall time, cache
//! hit/miss, artifact key, and the run's fault/recovery counters — to
//! `results/run_manifest.json`. Progress and the per-node summary go to
//! stderr so stdout stays clean for diffing. A node that panics or errors
//! is retried (`--max-retries`, default 2) and reported as a `failed`
//! manifest row rather than aborting the other nodes; the exit status is
//! nonzero only when a node exhausts its retries (or `--require-warm`
//! finds a cold node).

use bdc_core::registry::{self, NODES};
use bdc_core::sweep;

fn usage() -> ! {
    eprintln!(
        "usage:\n  bdc list [--json]\n  bdc run [--quick] [--all] [--require-warm] \
         [--max-retries N] <id>...\n  bdc sweep --param NAME=START:END:COUNT [--quick] \
         [<id>...]\n  bdc verify [--audit-deps] [--quick]\n  \
         bdc lint --workspace\n  \
         bdc cluster [--shards N] [--addr HOST:PORT] [--base-port P] [--ring-seed S] \
         [--vnodes V]\n              [--proxy-retries R] [--serve-bin PATH] [--cache-root DIR] \
         [--pid-file PATH]\n              [--queue-cap N] [--deadline-ms MS] [--max-retries N] \
         [--warm]\n\
         \nids: see `bdc list`; sweep params: organic.vt (physical volts)"
    );
    std::process::exit(2);
}

fn cmd_list(json: bool) {
    if json {
        println!("{}", registry::catalogue_json().encode());
        return;
    }
    let wid = NODES.iter().map(|n| n.id.len()).max().unwrap_or(0);
    let wtitle = NODES.iter().map(|n| n.title.len()).max().unwrap_or(0);
    for n in NODES {
        println!("{:<wid$}  {:<wtitle$}  {}", n.id, n.title, n.what);
    }
    eprintln!(
        "\n{} experiments; run one with `bdc run <id> --quick`",
        NODES.len()
    );
}

fn cmd_run(args: &[String]) -> ! {
    let mut all = false;
    let mut require_warm = false;
    let mut max_retries = registry::DEFAULT_MAX_RETRIES;
    let mut ids: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--all" => all = true,
            "--require-warm" => require_warm = true,
            "--quick" => {} // consumed by bdc_bench::quick_mode()
            "--max-retries" => {
                max_retries = match iter.next().map(|v| v.parse::<u32>()) {
                    Some(Ok(n)) => n,
                    _ => {
                        eprintln!("--max-retries needs an unsigned integer");
                        usage();
                    }
                };
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag `{flag}`");
                usage();
            }
            id => ids.push(id),
        }
    }
    if all {
        ids = NODES.iter().map(|n| n.id).collect();
    } else if ids.is_empty() {
        eprintln!("no experiment ids given (or pass --all)");
        usage();
    }

    let quick = bdc_bench::quick_mode();
    let report = match registry::run_plan_with_retries(&ids, quick, max_retries) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    for node in &report.nodes {
        print!("{}", node.text);
    }

    let manifest = registry::manifest_json(&report).encode();
    let manifest_note = if std::fs::create_dir_all("results").is_ok()
        && std::fs::write("results/run_manifest.json", manifest + "\n").is_ok()
    {
        " -> results/run_manifest.json"
    } else {
        " (manifest not written)"
    };

    let hits = report.nodes.iter().filter(|n| n.cache_hit).count();
    eprintln!(
        "\nran {} node(s) on {} worker(s), {} cache hit(s){manifest_note}",
        report.nodes.len(),
        report.workers,
        hits
    );
    eprintln!("  {:<22} {:>8.3}s", "(library prewarm)", report.prewarm_s);
    for node in &report.nodes {
        let outcome = if !node.ok() {
            "FAILED"
        } else if node.cache_hit {
            "hit"
        } else {
            "miss"
        };
        let retried = if node.attempts > 1 {
            format!("  ({} attempts)", node.attempts)
        } else {
            String::new()
        };
        eprintln!(
            "  {:<22} {:>8.3}s  {outcome}{retried}",
            node.id, node.wall_s
        );
    }

    let failed: Vec<&str> = report.failed().map(|n| n.id).collect();
    if !failed.is_empty() {
        for node in report.failed() {
            eprintln!(
                "error: node {} failed after {} attempt(s): {}",
                node.id,
                node.attempts,
                node.error.as_deref().unwrap_or("unknown")
            );
        }
        std::process::exit(1);
    }

    if require_warm {
        let cold: Vec<&str> = report
            .nodes
            .iter()
            .filter(|n| !n.cache_hit)
            .map(|n| n.id)
            .collect();
        if !cold.is_empty() {
            eprintln!("--require-warm: cold nodes: {}", cold.join(" "));
            std::process::exit(1);
        }
    }
    std::process::exit(0);
}

fn cmd_sweep(args: &[String]) -> ! {
    let mut spec: Option<sweep::SweepSpec> = None;
    let mut ids: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--param" => {
                let Some(raw) = iter.next() else {
                    eprintln!("--param needs NAME=START:END:COUNT");
                    usage();
                };
                if spec.is_some() {
                    eprintln!("--param given twice (a sweep moves one parameter)");
                    usage();
                }
                spec = match sweep::SweepSpec::parse(raw) {
                    Ok(s) => Some(s),
                    Err(e) => {
                        eprintln!("error: {e}");
                        usage();
                    }
                };
            }
            "--quick" => {} // consumed by bdc_bench::quick_mode()
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag `{flag}`");
                usage();
            }
            id => ids.push(id),
        }
    }
    let Some(spec) = spec else {
        eprintln!("no --param given");
        usage();
    };
    if ids.is_empty() {
        ids = NODES.iter().map(|n| n.id).collect();
    }

    let quick = bdc_bench::quick_mode();
    let report = match sweep::run_sweep(&spec, &ids, quick) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    // Stdout carries only the deterministic transcript; telemetry goes to
    // the manifest and stderr so the output stays byte-diffable.
    let transcript = sweep::render_transcript(&report);
    print!("{transcript}");

    let manifest = sweep::manifest_json(&report).encode();
    let written = std::fs::create_dir_all("results").is_ok()
        && std::fs::write("results/sweep_manifest.json", manifest + "\n").is_ok()
        && std::fs::write("results/sweep_output.txt", &transcript).is_ok();
    let note = if written {
        " -> results/sweep_manifest.json, results/sweep_output.txt"
    } else {
        " (sweep artifacts not written)"
    };

    eprintln!(
        "\nswept {} = {}..{} over {} point(s), {} node(s) each{note}",
        report.spec.param.name(),
        report.spec.start,
        report.spec.end,
        report.points.len(),
        report.points.first().map_or(0, |p| p.report.nodes.len())
    );
    for p in &report.points {
        let (hits, misses) = p.totals();
        eprintln!(
            "  point {:>3}  {} = {:>8.4}  {:>8.3}s  {} stage hit(s), {} miss(es)",
            p.index,
            report.spec.param.name(),
            p.value,
            p.wall_s,
            hits,
            misses
        );
    }
    eprintln!(
        "  total {:>8.3}s elapsed (points past the first run concurrently)",
        report.elapsed_s
    );
    if sweep::stage_key_collisions(&report) != 0 {
        eprintln!("error: stage-key collision detected across sweep points");
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn cmd_verify(args: &[String]) -> ! {
    let mut audit = false;
    for a in args {
        match a.as_str() {
            "--audit-deps" => audit = true,
            "--quick" => {} // consumed by bdc_bench::quick_mode()
            flag => {
                eprintln!("unknown flag `{flag}`");
                usage();
            }
        }
    }
    let quick = bdc_bench::quick_mode();

    let ir = bdc_verify::build_ir();
    let mut report = bdc_verify::verify_static(&ir);
    let (stage_count, stage_findings) = bdc_verify::verify_stages();
    let stage_finding_count = stage_findings.diagnostics.len();
    for d in stage_findings.diagnostics {
        report.push(d);
    }
    let audited = if audit {
        let dyn_report = bdc_verify::audit_deps(&ir, quick);
        for d in dyn_report.diagnostics {
            report.push(d);
        }
        Some(quick)
    } else {
        None
    };

    // Stdout carries only deterministic content (no timings, no worker
    // counts) so the report is diffable across runs — golden-tested.
    println!(
        "plan-graph: {} nodes, {} cache keys, {} finding(s)",
        ir.nodes.len(),
        ir.nodes.len() * 2,
        report.diagnostics.len() - stage_finding_count
    );
    println!("stage-graph: {stage_count} stages, {stage_finding_count} finding(s)");
    println!(
        "dep-audit: {}",
        match audited {
            None => "skipped (pass --audit-deps)",
            Some(true) => "ok at quick budget",
            Some(false) => "ok at standard budget",
        }
    );
    for d in &report.diagnostics {
        println!("  {d}");
    }

    let json = bdc_verify::report_json(&ir, &report, audited, stage_count).encode();
    let root = bdc_lint::find_workspace_root().unwrap_or_else(|| std::path::PathBuf::from("."));
    let dir = root.join("results");
    let written = std::fs::create_dir_all(&dir).is_ok()
        && std::fs::write(dir.join("verify_report.json"), json + "\n").is_ok();
    if written {
        println!("report -> results/verify_report.json");
    } else {
        eprintln!("warning: could not write results/verify_report.json");
    }

    if report.is_clean() {
        std::process::exit(0);
    }
    eprintln!("error: plan-graph verification failed");
    std::process::exit(1);
}

fn cmd_lint(args: &[String]) -> ! {
    if args.iter().any(|a| a != "--workspace") || args.is_empty() {
        eprintln!("`bdc lint` currently supports exactly: bdc lint --workspace");
        usage();
    }
    let root = match bdc_lint::find_workspace_root() {
        Some(r) => r,
        None => {
            eprintln!("error: could not locate the workspace root (no Cargo.toml with [workspace] above the current directory)");
            std::process::exit(2);
        }
    };
    let report = bdc_lint::lint_workspace(&root);
    print!("{report}");
    if report.is_clean() {
        std::process::exit(0);
    }
    std::process::exit(1);
}

fn cmd_cluster(args: &[String]) -> ! {
    let parsed = match bdc_cluster::parse_cluster_args(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    bdc_serve::install_signal_handlers();
    let code = bdc_cluster::run_cluster(&parsed);
    std::process::exit(code);
}

fn main() {
    if let Err(e) = bdc_exec::env_config() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(args.iter().any(|a| a == "--json")),
        Some("run") => cmd_run(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("cluster") => cmd_cluster(&args[1..]),
        _ => usage(),
    }
}
