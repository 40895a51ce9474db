//! CI entry point for the workspace's one source analyzer (crate policy
//! L-codes and soundness S-codes). See [`stgnn_analyze::sound`] for the
//! passes, codes and escape grammar.
//!
//! Usage: `cargo run -p stgnn-analyze --bin stgnn-sound [workspace-root]`
//!
//! Prints every active diagnostic, writes the machine-readable
//! `SOUND_REPORT.json` at the workspace root (the CI artifact), and exits
//! nonzero iff any deny survives escape resolution.

use std::path::PathBuf;
use std::process::ExitCode;

use stgnn_analyze::sound::analyze_workspace;

fn workspace_root() -> PathBuf {
    if let Some(arg) = std::env::args().nth(1) {
        return PathBuf::from(arg);
    }
    // crates/analyze -> workspace root, so the binary works from any cwd
    // under `cargo run`.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() -> ExitCode {
    let root = workspace_root();
    let report = match analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("stgnn-sound: cannot walk {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render());
    let out = root.join("SOUND_REPORT.json");
    if let Err(e) = std::fs::write(&out, report.to_json()) {
        eprintln!("stgnn-sound: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    if report.denies() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
