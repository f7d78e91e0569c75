//! Stamps the `icn` run manifest with the compiler and the commit it was
//! built from ("unknown" when `rustc` or `git` cannot answer).

fn stdout_of(program: &str, args: &[&str]) -> String {
    let out = std::process::Command::new(program).args(args).output();
    let ok = out.ok().filter(|o| o.status.success());
    let text = ok.and_then(|o| String::from_utf8(o.stdout).ok());
    text.map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn main() {
    let rustc = stdout_of("rustc", &["--version"]);
    let rev = stdout_of("git", &["rev-parse", "--short=12", "HEAD"]);
    println!("cargo:rustc-env=ICN_RUSTC={rustc}");
    println!("cargo:rustc-env=ICN_GIT_REV={rev}");
    // Re-stamp when the checked-out commit moves, not only on edits here.
    println!("cargo:rerun-if-changed=../../.git/HEAD");
    println!("cargo:rerun-if-changed=../../.git/refs");
}
