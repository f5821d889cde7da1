//! What produced a result: commit, source digest, toolchain, machine,
//! date, and the workload's seed and parameters.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// The checkout root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// First line of a command's standard output, or `"unknown"` when the
/// command is missing or fails.
fn command_line(program: &str, args: &[&str]) -> String {
    let root = repo_root();
    Command::new(program)
        .args(args)
        .current_dir(&root)
        // Keep git from searching above the checkout for a repository.
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(&root))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a digest over the program's sources: every `.rs` and `.toml`
/// file under `crates/` and `perfbench/src/`, plus `Cargo.lock`, in
/// sorted path order. Identifies the code when the checkout is not a git
/// repository.
pub fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let root = repo_root();
    let mut files = vec![root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench").join("src"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        let rel = f
            .strip_prefix(&root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// UTC date and time as `YYYY-MM-DDTHH:MM:SSZ`.
pub fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Civil-from-days (proleptic Gregorian), after H. Hinnant.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

/// The provenance record of one run, as a one-line JSON object.
/// `params` are the workload's parameters as `(key, value)` pairs.
pub fn record(workload: &str, seed: u64, trace: bool, params: &[(&str, String)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut fields = vec![
        ("git_rev", command_line("git", &["rev-parse", "HEAD"])),
        ("source_digest", source_digest()),
        ("rustc", command_line("rustc", &["-V"])),
        ("nproc", nproc.to_string()),
        ("date", utc_now()),
        ("workload", workload.to_string()),
        ("seed", seed.to_string()),
        ("trace", trace.to_string()),
    ];
    fields.extend(params.iter().map(|(k, v)| (*k, v.clone())));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace(['"', '\\'], "'")))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_has_iso_shape() {
        let d = utc_now();
        assert_eq!(d.len(), 20, "{d}");
        assert!(d.starts_with("20") && d.ends_with('Z'));
    }

    #[test]
    fn record_parses_and_names_the_seed() {
        let r = record("paper_regular", 9, false, &[("nodes", "200".into())]);
        let v = manet_obs::json::Value::parse(&r).expect("valid JSON");
        assert_eq!(v.get("seed").and_then(|s| s.as_str()), Some("9"));
        assert_eq!(v.get("nodes").and_then(|s| s.as_str()), Some("200"));
    }
}
