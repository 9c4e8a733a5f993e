//! `croxmap-lint` CLI: scans the workspace and prints the findings
//! report. `--deny` exits non-zero on any unwaived finding (the CI
//! mode); `--root PATH` overrides workspace-root autodetection;
//! `--lock-graph` prints the lock-order contract artifact instead of the
//! report.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny = false;
    let mut lock_graph = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--lock-graph" => lock_graph = true,
            "--root" => {
                let Some(p) = args.next() else {
                    eprintln!("croxmap-lint: --root needs a path");
                    return ExitCode::from(2);
                };
                root = Some(PathBuf::from(p));
            }
            "--help" | "-h" => {
                println!("usage: croxmap-lint [--deny] [--root PATH] [--lock-graph]");
                println!("  --deny        exit 1 if any unwaived finding remains (CI mode)");
                println!("  --root        workspace root (default: walk up from cwd)");
                println!("  --lock-graph  print the lock-order contract (docs/lock_order.md)");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("croxmap-lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|e| {
                // lint: allow(panic-path) — no cwd means nothing to scan; abort with the OS error
                panic!("croxmap-lint: cannot read current dir: {e}")
            });
            match croxmap_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("croxmap-lint: no workspace root above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };
    let out = match croxmap_lint::scan_workspace_full(&root) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("croxmap-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if lock_graph {
        print!("{}", out.lock_graph.render_contract());
        return ExitCode::SUCCESS;
    }
    print!("{}", out.report.render());
    let denied = out.report.findings.len();
    if deny && denied > 0 {
        eprintln!("croxmap-lint: denying {denied} finding(s)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
