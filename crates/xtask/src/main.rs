//! `cargo xtask` — workspace automation for the APGRE repo.
//!
//! Subcommands:
//!
//! * `lint`  — the domain analyzer (see [`xtask::rules`]): sync-facade
//!   discipline, memory-ordering conformance, guard-live-range and
//!   panic-reachability checks, and serial-oracle test coverage for every
//!   public BC kernel. `--json` emits machine-readable findings;
//!   `--baseline-out <path>` writes a baseline covering ALL current
//!   findings, deduplicated per (rule, path, snippet), with committed
//!   justifications carried forward and `TODO` placeholders on new entries —
//!   what `lint-baseline.json` must equal for a clean, stale-free pass.
//!   Findings matching `lint-baseline.json` are suppressed (with
//!   their justification); anything else fails the pass.
//! * `check` — `lint` followed by `cargo check --workspace --all-targets`.
//! * `ci`    — the full local gate: `lint`, `fmt --check`, `clippy -D
//!   warnings`, default tests, `--features invariants` tests, and the
//!   vendored rayon stand-in's own tests (outside the workspace, so run by
//!   manifest). Mirrors `.github/workflows/ci.yml`.
//!
//! The crate is dependency-free on purpose: the lint pass must build and run
//! even when the registry is unreachable.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use xtask::{baseline, rules};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = workspace_root();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&root, &args[1..]),
        Some("check") => {
            let code = lint(&root, &[]);
            if code != ExitCode::SUCCESS {
                return code;
            }
            cargo(&root, &["check", "--workspace", "--all-targets"])
        }
        Some("ci") => {
            let code = lint(&root, &[]);
            if code != ExitCode::SUCCESS {
                return code;
            }
            for step in [
                "fmt --all -- --check",
                "clippy --workspace --all-targets -- -D warnings",
                "test --workspace --quiet",
                "test -p apgre --features invariants --quiet",
                "test -p apgre-dynamic -p apgre-approx \
                 --features apgre-dynamic/invariants,apgre-approx/invariants --quiet",
                "test --offline --manifest-path vendor/rayon/Cargo.toml --quiet",
            ] {
                let code = cargo(&root, &step.split_whitespace().collect::<Vec<_>>());
                if code != ExitCode::SUCCESS {
                    return code;
                }
            }
            eprintln!("xtask ci: all gates passed");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: cargo xtask <lint|check|ci>");
            eprintln!("  lint [--json] [--baseline-out <path>]");
            eprintln!("         run the analyzer over the workspace; findings in");
            eprintln!("         lint-baseline.json are suppressed with justification");
            eprintln!("  check  lint + cargo check --workspace --all-targets");
            eprintln!("  ci     lint + fmt + clippy + tests (default, invariants, rayon stand-in)");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: two levels up from this crate's manifest, with a
/// current-directory fallback for odd invocation contexts.
fn workspace_root() -> PathBuf {
    let from_manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if from_manifest.join("Cargo.toml").is_file() {
        return from_manifest;
    }
    std::env::current_dir().expect("cannot determine working directory")
}

fn lint(root: &Path, flags: &[String]) -> ExitCode {
    let json = flags.iter().any(|f| f == "--json");
    let baseline_out = flags
        .iter()
        .position(|f| f == "--baseline-out")
        .and_then(|i| flags.get(i + 1))
        .map(PathBuf::from);

    let mut files = Vec::new();
    collect_rs(root, root, &mut files);
    files.sort();
    let loaded: Vec<(String, String)> = files
        .into_iter()
        .filter_map(|p| match std::fs::read_to_string(root.join(&p)) {
            Ok(src) => Some((unix_path(&p), src)),
            Err(e) => {
                // Never skip silently: an unreadable file is unlinted code.
                eprintln!("xtask lint: warning: skipping {}: {e}", p.display());
                None
            }
        })
        .collect();
    let findings = rules::lint_sources(&loaded);

    let baseline_path = root.join("lint-baseline.json");
    let entries = match std::fs::read_to_string(&baseline_path) {
        Ok(src) => match baseline::parse(&src) {
            Ok(entries) => entries,
            Err(e) => {
                eprintln!("xtask lint: error: lint-baseline.json: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(_) => Vec::new(), // no baseline file = empty baseline
    };

    let matched: Vec<(rules::Finding, Option<&baseline::Entry>)> = findings
        .into_iter()
        .map(|f| {
            let entry = entries.iter().find(|e| e.matches(&f));
            (f, entry)
        })
        .collect();
    let fresh: Vec<&rules::Finding> =
        matched.iter().filter(|(_, e)| e.is_none()).map(|(f, _)| f).collect();
    for (entry_idx, entry) in entries.iter().enumerate() {
        if !matched.iter().any(|(f, _)| entry.matches(f)) {
            eprintln!(
                "xtask lint: warning: stale baseline entry #{entry_idx} \
                 ({} at {}) matches no finding — remove it",
                entry.rule, entry.path
            );
        }
    }

    if let Some(out_path) = baseline_out {
        let seed = baseline::findings_to_baseline_json(&matched);
        if let Err(e) = std::fs::write(&out_path, seed) {
            eprintln!("xtask lint: error: cannot write {}: {e}", out_path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "xtask lint: wrote baseline covering {} finding(s) to {}",
            matched.len(),
            out_path.display()
        );
    }

    if json {
        print!("{}", baseline::findings_to_json(&matched));
    } else {
        for (f, entry) in &matched {
            match entry {
                Some(e) => eprintln!("{f} (baselined: {})", e.justification),
                None => eprintln!("{f}"),
            }
        }
    }
    let baselined = matched.len() - fresh.len();
    if fresh.is_empty() {
        eprintln!("xtask lint: {} files clean ({} baselined finding(s))", loaded.len(), baselined);
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask lint: {} violation(s) ({} more baselined)", fresh.len(), baselined);
        ExitCode::FAILURE
    }
}

fn unix_path(p: &Path) -> String {
    p.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

/// Recursively collects workspace-relative `.rs` paths, skipping build
/// output, VCS metadata, hidden directories, the vendored offline stand-in
/// crates (third-party API imitations, exempt from domain rules — see
/// vendor/README.md), and the analyzer's own rule fixtures (deliberately
/// violating snippets under `tests/fixtures`).
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target"
                || name.starts_with('.')
                || (name == "vendor" && dir == root)
                || (name == "fixtures" && dir.file_name().is_some_and(|d| d == "tests"))
            {
                continue;
            }
            collect_rs(root, &path, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
}

fn cargo(root: &Path, args: &[&str]) -> ExitCode {
    eprintln!("xtask: cargo {}", args.join(" "));
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    match Command::new(cargo).args(args).current_dir(root).status() {
        Ok(st) if st.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xtask: failed to spawn cargo: {e}");
            ExitCode::FAILURE
        }
    }
}
