//! Stamps the toolchain and source revision into the binary for the result
//! fingerprint.

use std::process::Command;

fn run(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_owned()).filter(|t| !t.is_empty())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = run(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_owned());
    let commit = run("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_owned());
    println!("cargo:rustc-env=OBJBENCH_RUSTC={version}");
    println!("cargo:rustc-env=OBJBENCH_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
    // Re-stamp after a new commit or checkout. Watch only paths that exist: a
    // missing one would rerun this script, and rebuild the crate, every time.
    for path in ["../.git/HEAD", "../.git/refs"] {
        if std::path::Path::new(path).exists() {
            println!("cargo:rerun-if-changed={path}");
        }
    }
}
