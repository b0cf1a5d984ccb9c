//! CLI for workspace automation: the custom lint suite and the run-report
//! schema checker.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: cargo xtask <command>\n\n\
     commands:\n\
     \x20 lint [--json] [--root DIR]   run the DBSCOUT custom lint suite\n\
     \x20                              (rules XL000-XL010) over every\n\
     \x20                              crates/*/src/**/*.rs file; exits\n\
     \x20                              non-zero when findings exist\n\
     \x20 lint --explain XLNNN         print a rule's rationale and waiver\n\
     \x20                              syntax\n\
     \x20 check-report <file>          validate a `dbscout detect\n\
     \x20                              --report-json` document against the\n\
     \x20                              run-report schema\n\
     \x20 check-trace <file>           validate a `dbscout detect\n\
     \x20                              --trace-out` Chrome Trace: spans and\n\
     \x20                              counter samples only, timestamps\n\
     \x20                              monotone per lane, counter names in\n\
     \x20                              the kernel taxonomy\n\n\
     lint options:\n\
     \x20 --json      emit findings as one JSON document\n\
     \x20 --root DIR  workspace root to lint (default: CARGO_WORKSPACE_DIR\n\
     \x20             or the current directory)"
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    match cmd.as_str() {
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            ExitCode::SUCCESS
        }
        "lint" => lint(args),
        "check-report" => check_report(args),
        "check-trace" => check_trace(args),
        _ => {
            eprintln!("error: unknown command {cmd:?}\n\n{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn check_report(mut args: impl Iterator<Item = String>) -> ExitCode {
    let (Some(path), None) = (args.next(), args.next()) else {
        eprintln!(
            "error: check-report takes exactly one file argument\n\n{}",
            usage()
        );
        return ExitCode::FAILURE;
    };
    let source = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: failed to read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let errors = xtask::report_check::check_report(&source);
    if errors.is_empty() {
        println!("xtask check-report: {path} conforms to run-report schema");
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("{path}: {e}");
        }
        eprintln!("xtask check-report: {} violation(s)", errors.len());
        ExitCode::FAILURE
    }
}

fn check_trace(mut args: impl Iterator<Item = String>) -> ExitCode {
    let (Some(path), None) = (args.next(), args.next()) else {
        eprintln!(
            "error: check-trace takes exactly one file argument\n\n{}",
            usage()
        );
        return ExitCode::FAILURE;
    };
    let source = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: failed to read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let errors = xtask::trace_check::check_trace(&source);
    if errors.is_empty() {
        println!("xtask check-trace: {path} is a well-formed Chrome Trace");
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("{path}: {e}");
        }
        eprintln!("xtask check-trace: {} violation(s)", errors.len());
        ExitCode::FAILURE
    }
}

// Under the `cargo xtask` alias the process runs from wherever the
// user invoked cargo; resolve the workspace root from the manifest
// location cargo gives us.
fn workspace_root() -> PathBuf {
    std::env::var("CARGO_MANIFEST_DIR")
        .map(|m| PathBuf::from(m).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."))
}

fn lint(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--explain" => {
                let Some(rule) = args.next() else {
                    eprintln!("error: --explain needs a rule id (e.g. XL007)");
                    return ExitCode::FAILURE;
                };
                return match xtask::diag::explain(&rule) {
                    Some(text) => {
                        println!("{text}");
                        ExitCode::SUCCESS
                    }
                    None => {
                        eprintln!(
                            "error: unknown rule {rule:?}; shipped rules: {}",
                            xtask::diag::ALL_RULES.join(", ")
                        );
                        ExitCode::FAILURE
                    }
                };
            }
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("error: --root needs a directory argument");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("error: unknown flag {other:?}\n\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }

    let root = root.unwrap_or_else(workspace_root);

    let findings = match xtask::lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: failed to scan {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };

    if json {
        println!("{}", xtask::render_json_report(&findings));
    } else {
        for d in &findings {
            print!("{}", d.render_human());
        }
        if findings.is_empty() {
            println!("xtask lint: clean (rules XL000-XL010)");
        } else {
            println!("xtask lint: {} finding(s)", findings.len());
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
