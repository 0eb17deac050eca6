//! Records the compiler version and source revision the benchmark was
//! built from, so every result carries its run context.

use std::path::Path;
use std::process::Command;

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = first_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    // Only ask git when the repository root is itself a checkout; an
    // exported source tree has no revision (and must not pick up the
    // revision of some enclosing repository).
    let git_dir = Path::new("../.git");
    let rev = if git_dir.exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
        first_line("git", &["-C", "..", "rev-parse", "--short=12", "HEAD"])
    } else {
        None
    };
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_REV={}",
        rev.unwrap_or_else(|| "unknown".to_string())
    );
    println!("cargo:rerun-if-changed=build.rs");
}
