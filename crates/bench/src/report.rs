//! Result reporting: markdown sections written under `results/` at the
//! workspace root.

use std::path::{Path, PathBuf};

/// `results/` under the workspace root of the current directory (created
/// on demand). The root is found at run time, so a binary built in one
/// checkout writes into the checkout it is run from.
pub fn results_dir() -> PathBuf {
    let cwd = std::env::current_dir().expect("current directory");
    let dir = workspace_root(&cwd).join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir.canonicalize().expect("canonicalize results dir")
}

/// The nearest ancestor of `dir` (itself included) whose `Cargo.toml`
/// declares a `[workspace]`, or `dir` when none does.
fn workspace_root(dir: &Path) -> PathBuf {
    dir.ancestors()
        .find(|d| {
            std::fs::read_to_string(d.join("Cargo.toml"))
                .is_ok_and(|toml| toml.lines().any(|l| l.trim() == "[workspace]"))
        })
        .unwrap_or(dir)
        .to_path_buf()
}

/// Write one experiment's markdown report to `results/<id>.md` and echo it
/// to stdout.
pub fn publish(id: &str, markdown: &str) {
    let path = results_dir().join(format!("{id}.md"));
    std::fs::write(&path, markdown).expect("write report");
    println!("{markdown}");
    ssj_observe::info!("[expt] wrote {}", path.display());
}

/// Format a simulated-seconds cell to three significant digits (whole
/// seconds from 100 s up), with `DNF` for failed runs. Fixed decimals
/// would print every sub-10 ms cell as 0.00.
pub fn secs_cell(secs: f64) -> String {
    if secs.is_nan() {
        return "DNF".to_string();
    }
    if secs == 0.0 {
        return "0".to_string();
    }
    let decimals = (2 - secs.abs().log10().floor() as i32).max(0) as usize;
    format!("{secs:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_exists_and_cells_format() {
        assert!(results_dir().is_dir());
        // Tests run in the package directory, two levels below the root.
        let package = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = package.join("../..").canonicalize().unwrap();
        assert_eq!(workspace_root(package).canonicalize().unwrap(), root);
        assert_eq!(workspace_root(&root.join("crates")), root);
        assert_eq!(results_dir(), root.join("results"));
        assert_eq!(secs_cell(1.234), "1.23");
        assert_eq!(secs_cell(0.01234), "0.0123");
        assert_eq!(secs_cell(0.5), "0.500");
        assert_eq!(secs_cell(12.345), "12.3");
        assert_eq!(secs_cell(1234.6), "1235");
        assert_eq!(secs_cell(0.0), "0");
        assert_eq!(secs_cell(f64::NAN), "DNF");
    }
}
